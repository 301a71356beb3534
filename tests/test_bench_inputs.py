"""The benchmark's workload inputs and correctness gate still work against
the library.

perfbench/workloads.py builds its instances through the public constructors
(AuStatistics builders, SolveConfig, ExperimentConfig), and its gate reads a
result's p_c, p and f and calls jamming_power_avg one subcarrier at a time; a
break in either would otherwise surface only when the benchmark runs.  The
file is loaded from source and left untouched: no bytecode is written next to
it.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

from jamcom import optimizer as op

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "perfbench", "workloads.py")


@pytest.fixture
def wl(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workload_inputs_construct(wl):
    desk, wide, saa = wl.desk_instances(0), wl.wide_instances(0), wl.saa_configs(0)
    assert (len(desk), len(wide), len(saa)) == (wl.DESK_INSTANCES, 1, wl.SAA_SWEEPS)
    for inst in desk + wide:
        stats = inst.stats
        assert stats.tau.shape == (stats.L, stats.N)
        assert inst.config.thresholds.shape == (stats.L, stats.pilot_idx.size)
    assert all(cfg.L == 0 and cfg.M == 4096 for cfg in saa)


def test_gate_passes_a_capped_desk_run_and_flags_a_power_excess(wl):
    inst = wl.desk_instances(0)[0]   # RSMA with an active floor on one pilot
    config = dataclasses.replace(inst.config, max_outer=5)
    assert config.scheme == "RSMA" and config.thresholds.size == 1
    res = op.optimize(inst.csit, inst.stats, config)
    assert wl.sdma_reference(res, None) is not None
    assert wl.gate(inst.csit, inst.stats, config, res) == []
    loud = dataclasses.replace(res, precoders=res.precoders.scaled(2.0))
    assert any(p.startswith("power") for p in wl.gate(inst.csit, inst.stats, config, loud))


def test_gate_passes_a_desk_run_that_returns_its_restriction(wl):
    # desk instance 0's restriction, started from the RSMA endpoint, beats it,
    # so the gate's SDMA reference is the returned rate itself
    inst = wl.desk_instances(0)[0]
    res = op.optimize(inst.csit, inst.stats, inst.config)
    assert res.report.diagnostics["fallback_from"] == "RSMA"
    assert wl.sdma_reference(res, None) == res.report.R_sum
    assert wl.gate(inst.csit, inst.stats, inst.config, res) == []
