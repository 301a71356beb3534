"""The demos run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_channels_and_csi.py", "02_rates_and_jamming_metrics.py",
         "03_single_optimization_run.py", "04_strategy_sweep.py",
         "05_solver_direct.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # RuntimeWarnings are errors, as in the in-process tests (pyproject.toml)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           os.path.join(ROOT, "demos", name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
