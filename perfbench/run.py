"""Benchmark of the jamcom pipeline on the source tree of this checkout.

    python3 perfbench/run.py --workload desk|wide|saa [--seed N] [--seconds S] [--trace 0|1]

Runs passes of the workload until ``--seconds`` have elapsed (at least one),
gates every optimize result, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
only ``optimize`` is wrapped (to time each call and collect its result) and
the metrics are the end-to-end ones; with ``--trace 1`` every layer binding
is wrapped and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, namedtuple
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import jamcom; "
                 "print(repr(time.perf_counter() - t))")

clock = time.perf_counter

# one pass of a run: its spans are tracer.spans[first:end]
Pass = namedtuple("Pass", "first end wall output")


# ---------------------------------------------------------------------------
# environment stamp


def _commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = {k: os.environ.get(k) for k in BLAS_VARS}
    threads = max((int(v) for v in blas.values() if v and v.isdigit()), default=1)
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy_version, "nproc": nproc, "blas_threads": blas,
            "blas_oversubscribed": threads > nproc, "commit": _commit()}


# ---------------------------------------------------------------------------
# wrapped bindings


def _optimize_info(args, kwargs, result, error):
    restricted = kwargs.get("restricted", args[4] if len(args) > 4 else None)
    return {"csit": args[0], "stats": args[1], "config": args[2],
            "restricted": restricted, "result": result, "error": error}


def _solve_info(args, kwargs, result, error):
    if result is None:
        return {}
    p = args[0]
    return {"status": result.status, "iters": result.iterations, "n_vars": p.n_vars,
            "n_cons": len(p.q_constraints) + len(p.a_constraints) + p.sign_constraints.size}


def _sweep_info(args, kwargs, result, error):
    return {"cells": len(result.rows) if result is not None else 0}


def _csv_info(args, kwargs, result, error):
    return {"bytes": os.path.getsize(args[1]) if error is None else 0}


def targets(traced: bool) -> list:
    from jamcom import experiments as xp
    from jamcom import optimizer as op
    from jamcom import solver as sv

    out = [(op, "optimize", "optimizer.optimize", _optimize_info)]
    if traced:
        out += [(op, "draw_csit_samples", "channel.draw_csit_samples", None),
                (op, "stream_mses", "metrics.stream_mses", None),
                (op, "jamming_power_avg", "metrics.jamming_power_avg", None),
                (op, "rate_report", "metrics.rate_report", None),
                (op, "sdma_restrict", "optimizer.sdma_restrict", None),
                (sv, "solve", "solver.solve", _solve_info),
                (xp, "run_experiment", "experiments.run_experiment", _sweep_info),
                (xp, "emit_csv", "experiments.emit_csv", _csv_info)]
    return out


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload, seed: int):
    """Median over SETUP_REPS of (package import in a fresh interpreter +
    construction of the pass inputs); returns it with the inputs."""
    totals = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, SRC], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        t0 = clock()
        inputs = workload.build(seed)
        totals.append(float(proc.stdout) + clock() - t0)
    return statistics.median(totals), inputs


def warm_up():
    """One tiny optimize, so lazy initialisation is not timed in the first pass."""
    from jamcom import optimizer as op
    import workloads as wl

    inst = wl.selective_instance(2, 1, 1, 2, snr_db=15.0, pilots=1, strategy=1,
                                 scheme="RSMA", M=2, channel_seed=0, max_outer=2)
    op.optimize(inst.csit, inst.stats, inst.config)


def run_passes(workload, inputs, seconds: float, tracer, out_dir: str) -> list:
    """Repeat the pass until ``seconds`` have elapsed (at least once)."""
    passes = []
    begin = clock()
    while True:
        first = len(tracer.spans)
        t0 = clock()
        out = workload.run(inputs, out_dir)
        passes.append(Pass(first, len(tracer.spans), clock() - t0, out))
        if clock() - begin >= seconds:
            return passes


def gate_results(spans) -> dict:
    """Gate every optimize result among ``spans``; also the result checksums."""
    import workloads as wl
    from jamcom.optimizer import OptimizerError

    attempted = failed = 0
    rates, gaps, fallbacks, rsma = [], [], 0, 0
    for s in spans:
        if s.name != "optimizer.optimize":
            continue
        attempted += 1
        info = s.info
        if isinstance(info["error"], OptimizerError):
            failed += 1
            print(f"FAILED {info['config'].scheme}: {info['error']}", file=sys.stderr)
            continue
        res = info["result"]
        problems = wl.gate(info["csit"], info["stats"], info["config"], res,
                           info["restricted"])
        if problems:
            failed += 1
            print(f"GATE {info['config'].scheme}: {'; '.join(problems)}", file=sys.stderr)
        rates.append(res.report.R_sum)
        if info["config"].scheme == "RSMA":
            rsma += 1
            fallbacks += "fallback_from" in res.report.diagnostics
            ref = wl.sdma_reference(res, info["restricted"])
            if ref is not None:
                gaps.append(res.report.R_sum - ref)
    return {"attempted": attempted, "failed": failed, "sum_rate_total": math.fsum(rates),
            "rsma_gap_min": min(gaps, default=0.0),
            "rsma_fallback_share": fallbacks / rsma if rsma else 0.0}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, p: Pass, results: dict) -> dict:
    """Per-layer metrics of one pass."""
    from spans import self_times

    sel = spans[p.first:p.end]
    own = self_times(spans[:p.end], p.first)
    calls, busy, self_s = Counter(), Counter(), Counter()
    for i, s in enumerate(sel, start=p.first):
        calls[s.name] += 1
        busy[s.name] += s.duration
        self_s[s.layer] += own[i]
    solves = [s.info for s in sel if s.name == "solver.solve" and s.info]
    ipm = sum(x["iters"] for x in solves)
    status = Counter(x["status"] for x in solves)
    n_solve, n_opt = calls["solver.solve"], calls["optimizer.optimize"]
    opt_infos = [s.info for s in sel if s.name == "optimizer.optimize"]
    return {
        "solver.solve.calls": n_solve,
        "solver.solve.s": busy["solver.solve"],
        "solver.ipm_iters": ipm,
        "solver.iters_per_solve": _ratio(ipm, len(solves)),
        "solver.ms_per_iter": _ratio(1e3 * busy["solver.solve"], ipm),
        "solver.constraints_mean": _ratio(sum(x["n_cons"] for x in solves), len(solves)),
        "solver.vars_mean": _ratio(sum(x["n_vars"] for x in solves), len(solves)),
        "solver.status.optimal": status["optimal"],
        "solver.status.max_iter": status["max_iter"],
        "solver.status.infeasible": status["infeasible"],
        "solver.optimal_share": _ratio(status["optimal"], len(solves)),
        "optimizer.optimize.calls": n_opt,
        "optimizer.optimize.s": busy["optimizer.optimize"],
        "optimizer.optimize.p50_s": statistics.median(
            s.duration for s in sel if s.name == "optimizer.optimize"),
        "optimizer.optimize.max_s": max(s.duration for s in sel
                                        if s.name == "optimizer.optimize"),
        "optimizer.self_s": self_s["optimizer"],
        "optimizer.self_share": _ratio(self_s["optimizer"], busy["optimizer.optimize"]),
        "optimizer.solves_per_optimize": _ratio(n_solve, n_opt),
        "optimizer.outer_iters": sum(x["result"].outer_iterations for x in opt_infos
                                     if x["result"] is not None),
        "optimizer.restricted_reruns": calls["optimizer.sdma_restrict"],
        "optimizer.rsma_fallback_share": results["rsma_fallback_share"],
        "optimizer.rsma_gap_min": results["rsma_gap_min"],
        "metrics.s": sum(v for k, v in busy.items() if k.startswith("metrics.")),
        "metrics.stream_mses.calls": calls["metrics.stream_mses"],
        "metrics.stream_mses.s": busy["metrics.stream_mses"],
        "metrics.rate_report.calls": calls["metrics.rate_report"],
        "metrics.rate_report.s": busy["metrics.rate_report"],
        "metrics.jamming_power_avg.calls": calls["metrics.jamming_power_avg"],
        "channel.draw_csit_samples.calls": calls["channel.draw_csit_samples"],
        "channel.draw_csit_samples.s": busy["channel.draw_csit_samples"],
        "experiments.s": sum(v for k, v in busy.items() if k.startswith("experiments.")),
        "experiments.self_s": self_s["experiments"],
        "experiments.run_experiment.calls": calls["experiments.run_experiment"],
        "experiments.cells": sum(s.info["cells"] for s in sel
                                 if s.name == "experiments.run_experiment"),
        "experiments.emit_csv.s": busy["experiments.emit_csv"],
        "experiments.emit_csv.bytes": sum(s.info["bytes"] for s in sel
                                          if s.name == "experiments.emit_csv"),
        "trace.overhead_s": sum(s.overhead for s in sel),
    }


def end_to_end(passes, setup_s: float, results: dict) -> dict:
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sum_rate_total": results["sum_rate_total"],
        "setup_s": setup_s,
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "wide", "saa"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jamcom", "__init__.py")):
        print(f"error: no jamcom source tree under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # small dense algebra: one BLAS thread, set before numpy loads
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import jamcom
    if not os.path.abspath(jamcom.__file__).startswith(SRC + os.sep):
        print(f"error: jamcom imported from {jamcom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from spans import Tracer

    traced = bool(args.trace)
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    env = environment()
    if env["blas_oversubscribed"]:
        print(f"warning: BLAS threads {env['blas_threads']} exceed {env['nproc']} cores",
              file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workload = wl.WORKLOADS[args.workload]
    setup_s, inputs = measure_setup(workload, args.seed)
    warm_up()

    tracer = Tracer()
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=scratch_root)
    try:
        with tracer.install(targets(traced)):
            passes = run_passes(workload, inputs, seconds, tracer, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it

    spans = tracer.spans
    per_pass = [gate_results(spans[p.first:p.end]) for p in passes]
    digests = {p.output.csv_sha256 for p in passes}
    sums = {r["sum_rate_total"] for r in per_pass}
    deterministic = len(digests) == 1 and len(sums) == 1
    if not deterministic:
        print("error: passes of one run disagree", file=sys.stderr)
    results = per_pass[0]
    first_out = passes[0].output
    print(f"checksums workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"sum_rate_total={results['sum_rate_total']!r} "
          f"rsma_gap_min={results['rsma_gap_min']!r} "
          f"csv_bytes={first_out.csv_bytes} csv_sha256={first_out.csv_sha256}", flush=True)

    if traced:
        for p in passes:
            missing = workload.expected - {s.name for s in spans[p.first:p.end]}
            if missing:
                print(f"error: traced pass recorded no call to {sorted(missing)}",
                      file=sys.stderr)
                return 1
        layered = [layer_metrics(spans, p, results) for p in passes]
        values = {k: statistics.median(m[k] for m in layered) for k in layered[0]}
    else:
        values = end_to_end(passes, setup_s, results)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in per_pass)
    failed = sum(r["failed"] for r in per_pass)
    print(json.dumps({
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
