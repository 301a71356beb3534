"""Benchmark workloads, their instance generators and the correctness gate.

Every workload is a fixed unit of work (a *pass*) built from the workload
seed; seed 0 reproduces the instances named in the benchmark README.  The seed
changes only the order of the fixed instances, never their content, because
the optimizer's iteration count, and with it the cost of a pass, moves with
the channel and the sample draws (see README.md).  A run repeats passes, and
each pass ends by writing its result table with ``experiments.emit_csv``,
whose bytes double as a determinism checksum.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from jamcom import channel as ch
from jamcom import experiments as xp
from jamcom import metrics as mx
from jamcom import optimizer as op

DESK_INSTANCES = 9          # generator prefix: 1.5 cycles of (SNR, pilots) x (strategy, scheme)
SAA_SWEEPS = 2              # sample sets per saa pass


@dataclass
class Instance:
    csit: ch.CsitModel
    stats: ch.AuStatistics
    config: op.SolveConfig
    snr_db: float
    strategy: int


def selective_instance(n_t, K, L, N, snr_db, pilots, strategy, scheme, M,
                       channel_seed, **solve_kw) -> Instance:
    """One instance as the acceptance ``desk_runs`` generator builds it: a
    selective channel with seed ``channel_seed``, SAA seed 100 + channel_seed,
    isotropic adversary statistics and strategy-derived jamming floors."""
    P_t = 10.0 ** (snr_db / 10.0)
    prof = ch.exponential_delay_profile(1.2e-6, 12)
    chan = ch.synth_selective_channel(prof, n_t, N, K, L, seed=channel_seed)
    csit = ch.CsitModel(h_hat=chan.h, sigma_ie2=ch.csit_error_variance(P_t, N, 0.6),
                        alpha=0.6)
    stats = ch.au_statistics_isotropic(n_t, N, L, ch.evenly_spaced_pilots(pilots, N))
    thr = op.build_thresholds(stats, op.threshold_strategy(strategy, pilots, N), P_t)
    cfg = op.SolveConfig(P_t=P_t, scheme=scheme, M=M, seed=100 + channel_seed,
                         thresholds=thr, **solve_kw)
    return Instance(csit, stats, cfg, snr_db, strategy)


def desk_instances(seed: int) -> List[Instance]:
    """The first nine acceptance ``desk_runs`` instances (n_t=4, K=2, L=1, N=8,
    M=4), started at position ``seed`` mod 9 of that prefix."""
    out = [selective_instance(
        4, 2, 1, 8, snr_db=(5.0, 15.0, 25.0)[idx % 3], pilots=(1, 2, 4)[idx % 3],
        strategy=1 + idx % 2, scheme="RSMA" if idx % 2 == 0 else "SDMA", M=4,
        channel_seed=idx) for idx in range(DESK_INSTANCES)]
    shift = seed % DESK_INSTANCES
    return out[shift:] + out[:shift]


def wide_instances(seed: int) -> List[Instance]:
    """One RSMA instance at the N=64, M=64 scale point (the seed has no effect)."""
    return [selective_instance(
        4, 2, 1, 64, snr_db=15.0, pilots=8, strategy=2, scheme="RSMA", M=64,
        channel_seed=3, eps_r=1e-3, eps_m=1e-3)]


def saa_configs(seed: int) -> List[xp.ExperimentConfig]:
    """SDMA/RSMA sweeps with M=4096 samples and no adversary on channel seed 3,
    one per experiment seed 0..SAA_SWEEPS-1, started at sweep ``seed`` mod
    SAA_SWEEPS (the seed changes only the order)."""
    shift = seed % SAA_SWEEPS
    return [xp.ExperimentConfig(
        n_t=4, K=2, L=0, N=8, pilot_sets=(1,), snr_db_list=(15.0,),
        scheme_list=("SDMA", "RSMA"), M=4096, seed=(shift + i) % SAA_SWEEPS,
        channel_model={"type": "selective", "channel_seed": 3})
        for i in range(SAA_SWEEPS)]


# ---------------------------------------------------------------------------
# passes


def _row(inst: Instance, res: Optional[op.OptimizeResult]) -> xp.ResultRow:
    cfg = inst.config
    common = dict(snr_db=inst.snr_db, scheme=cfg.scheme, strategy=inst.strategy,
                  pilot_count=int(inst.stats.pilot_idx.size), wall_ms=0.0)
    if res is None:
        return xp.ResultRow(sum_rate=0.0, common_rate=0.0, rate_u=(0.0,) * inst.csit.K,
                            jam_margin=float("nan"), iters=0, status="infeasible",
                            **common)
    rep = res.report
    margin = (float(np.min(rep.lambda_avg - cfg.thresholds))
              if rep.lambda_avg is not None and rep.lambda_avg.size else 0.0)
    return xp.ResultRow(sum_rate=rep.R_sum, common_rate=rep.common_rate,
                        rate_u=tuple(float(r) for r in rep.R_k), jam_margin=margin,
                        iters=res.outer_iterations,
                        status="optimal" if res.converged else "maxiter", **common)


@dataclass
class PassOutput:
    csv_bytes: int
    csv_sha256: str


def _emit(table: xp.ResultTable, out_dir: str) -> PassOutput:
    path = os.path.join(out_dir, "results.csv")
    xp.emit_csv(table, path)  # resolved at call time, so a traced run sees it
    with open(path, "rb") as fh:
        data = fh.read()
    return PassOutput(len(data), hashlib.sha256(data).hexdigest())


def run_instances(instances: List[Instance], out_dir: str) -> PassOutput:
    rows = []
    for inst in instances:
        try:
            res = op.optimize(inst.csit, inst.stats, inst.config)
        except op.OptimizerError:
            res = None  # the optimize span records the error for the gate
        rows.append(_row(inst, res))
    return _emit(xp.ResultTable(K=instances[0].csit.K, rows=rows), out_dir)


def run_sweeps(configs: List[xp.ExperimentConfig], out_dir: str) -> PassOutput:
    rows = [row for cfg in configs for row in xp.run_experiment(cfg, workers=1).rows]
    return _emit(xp.ResultTable(K=configs[0].K, rows=rows), out_dir)


@dataclass
class Workload:
    build: Callable[[int], object]                 # seed -> inputs of one pass
    run: Callable[[object, str], PassOutput]       # (inputs, out_dir) -> output
    expected: frozenset                            # span names a traced pass must record


_CORE = {"channel.draw_csit_samples", "metrics.stream_mses", "metrics.rate_report",
         "solver.solve", "optimizer.optimize", "experiments.emit_csv"}
_JAMMED = _CORE | {"metrics.jamming_power_avg", "optimizer.sdma_restrict"}

WORKLOADS: Dict[str, Workload] = {
    "desk": Workload(desk_instances, run_instances, frozenset(_JAMMED)),
    "wide": Workload(wide_instances, run_instances, frozenset(_JAMMED)),
    "saa": Workload(saa_configs, run_sweeps, frozenset(_CORE | {"experiments.run_experiment"})),
}


# ---------------------------------------------------------------------------
# correctness gate (acceptance criteria 4 and 7 tolerances)


def sdma_reference(result: op.OptimizeResult, restricted) -> Optional[float]:
    """Sum rate of the common-stream-off restriction an RSMA result must beat."""
    if restricted is not None:
        return restricted.report.R_sum
    diag = result.report.diagnostics
    if "restricted_sum_rate" in diag:
        return float(diag["restricted_sum_rate"])
    if "fallback_from" in diag:
        return result.report.R_sum  # the restriction itself was returned
    return None


def gate(csit, stats, config: op.SolveConfig, result: op.OptimizeResult,
         restricted=None) -> List[str]:
    """Checks one optimize result; returns the failed checks (empty = pass)."""
    failures = []
    prec, rep = result.precoders, result.report
    arrays = [prec.p_c, prec.p, prec.f, result.split.X, rep.I_private, rep.I_common,
              rep.C, rep.R_k, np.asarray(rep.R_sum)]
    if rep.lambda_avg is not None:
        arrays.append(rep.lambda_avg)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return ["non-finite output"]
    if prec.total_power() > config.P_t + 1e-9:
        failures.append(f"power {prec.total_power():.12g} > P_t {config.P_t:.12g}")
    thr = config.thresholds
    if thr is not None:
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                lam = mx.jamming_power_avg(stats.R[l, n], prec, int(n))
                if lam < thr[l, j] - 1e-6:
                    failures.append(f"focused power {lam:.9g} < floor {thr[l, j]:.9g}")
    if np.any(rep.C.sum(axis=0) > rep.I_common.min(axis=0) + 1e-6):
        failures.append("common-rate split exceeds the weakest user's common MI")
    if config.scheme == "RSMA":
        ref = sdma_reference(result, restricted)
        if ref is None:
            failures.append("RSMA result carries no SDMA reference")
        elif rep.R_sum < ref - 1e-6:
            failures.append(f"RSMA {rep.R_sum:.9g} < SDMA {ref:.9g}")
    return failures
