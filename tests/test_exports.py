"""Every name a module exports exists on it, and importing the package stays
lean."""

import importlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("module", ["channel", "metrics", "optimizer", "solver", "experiments"])
def test_all_names_exist(module):
    mod = importlib.import_module(f"jamcom.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_module_help_exits_zero_with_the_usage():
    proc = subprocess.run([sys.executable, "-m", "jamcom", "--help"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("usage: python -m jamcom --config PATH")


def test_import_leaves_out_the_process_pool():
    # only a sweep with workers > 1 needs it; at import it cost about 15 ms
    code = "import sys, jamcom; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
