"""The benchmark's workload inputs still construct against the library.

perfbench/workloads.py builds its instances through the public constructors
(AuStatistics builders, SolveConfig, ExperimentConfig); a signature change
there would otherwise surface only when the benchmark runs.  The file is
loaded from source and left untouched: no bytecode is written next to it.
"""

import importlib.util
import os
import sys

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "workloads.py")


def test_workload_inputs_construct(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, wl)
    spec.loader.exec_module(wl)

    desk, wide, saa = wl.desk_instances(0), wl.wide_instances(0), wl.saa_configs(0)
    assert (len(desk), len(wide), len(saa)) == (wl.DESK_INSTANCES, 1, wl.SAA_SWEEPS)
    for inst in desk + wide:
        stats = inst.stats
        assert stats.tau.shape == (stats.L, stats.N)
        assert inst.config.thresholds.shape == (stats.L, stats.pilot_idx.size)
    assert all(cfg.L == 0 and cfg.M == 4096 for cfg in saa)
