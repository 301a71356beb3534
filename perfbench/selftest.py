"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection: the
smoke runs execute one full pass of every workload (a few minutes).
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Span, Tracer, covered_length, self_times  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# span arithmetic


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([], 0, 10) == 0
    assert covered_length([(4, 6), (4, 6)], 0, 10) == 2


def test_self_time_on_synthetic_tree():
    spans = [
        Span("optimizer.optimize", 0.0, 10.0),
        Span("solver.solve", 1.0, 3.0, parent=0),
        Span("metrics.stream_mses", 1.5, 2.0, parent=1),
        Span("solver.solve", 4.0, 5.0, parent=0),
        Span("optimizer.optimize", 20.0, 21.0),
    ]
    own = self_times(spans)
    assert own == {0: 7.0, 1: 1.5, 2: 0.5, 3: 1.0, 4: 1.0}
    assert sum(own.values()) == 11.0  # self times partition the top-level spans
    assert self_times(spans, first=3) == {3: 1.0, 4: 1.0}


def test_tracer_records_parents_and_restores_bindings():
    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.inner(x) * 2

        @staticmethod
        def broken():
            raise KeyError("boom")

    originals = (Mod.inner, Mod.outer, Mod.broken)
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.install([(Mod, "outer", "a.outer", None),
                             (Mod, "inner", "b.inner",
                              lambda a, k, r, e: {"arg": a[0], "result": r}),
                             (Mod, "broken", "a.broken", None)]):
            assert Mod.outer(3) == 8
            Mod.broken()
    assert (Mod.inner, Mod.outer, Mod.broken) == originals
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("a.outer", None), ("b.inner", 0), ("a.broken", None)]
    assert tracer.spans[1].info == {"arg": 3, "result": 4}
    assert all(s.end >= s.start and s.overhead >= 0.0 for s in tracer.spans)


# ---------------------------------------------------------------------------
# correctness gate


def test_gate_flags_power_excess_and_passes_clean_result():
    import workloads as wl
    from jamcom import optimizer as op

    inst = wl.selective_instance(2, 1, 1, 2, snr_db=15.0, pilots=1, strategy=1,
                                 scheme="RSMA", M=2, channel_seed=0, max_outer=3)
    res = op.optimize(inst.csit, inst.stats, inst.config)
    assert wl.gate(inst.csit, inst.stats, inst.config, res) == []
    loud = dataclasses.replace(res, precoders=res.precoders.scaled(2.0))
    problems = wl.gate(inst.csit, inst.stats, inst.config, loud)
    assert any(p.startswith("power") for p in problems)


def test_default_seed_reproduces_acceptance_instances_and_seeds_rotate():
    import workloads as wl

    insts = wl.desk_instances(0)
    assert [i.config.seed for i in insts] == [100 + i for i in range(9)]
    assert [(i.snr_db, i.config.scheme, i.strategy) for i in insts[:2]] == [
        (5.0, "RSMA", 1), (15.0, "SDMA", 2)]
    assert [i.config.seed for i in wl.desk_instances(10)] == [101 + i for i in range(8)] + [100]
    assert [c.seed for c in wl.saa_configs(0)] == [0, 1]
    assert [c.seed for c in wl.saa_configs(1)] == [1, 0]


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("workload", ["desk", "wide", "saa"])
def test_smoke_runs_emit_declared_metrics_and_seed_independent_results(workload):
    checksums = []
    for seed, trace in (("1", "0"), ("0", "1")):
        proc = _run(ROOT, "--workload", workload, "--seed", seed, "--seconds", "0",
                    "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = _benchmark()["per_layer" if trace == "1" else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        checksum_line = next(ln for ln in lines if ln.startswith("checksums "))
        fields = dict(f.split("=", 1) for f in checksum_line.split()[1:])
        checksums.append((fields["sum_rate_total"], fields["rsma_gap_min"],
                          fields["csv_bytes"]))
    assert checksums[0] == checksums[1]  # the seed changes only the order


def test_run_refuses_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "saa", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
