"""Experiment sweeps: configuration, execution, persistence, plot data, CLI.

A run sweeps the grid (SNR point, scheme, pilot set) for one threshold
strategy and channel scenario, producing one result row per cell.  Identical
(config, seed) pairs give identical tables regardless of the worker count;
CSI sample streams are keyed by the SNR point only, so cells that differ in
scheme, strategy, or pilot set see the same channel realizations and remain
directly comparable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import channel as ch
from . import optimizer as opt
from .metrics import attach_realized_jamming

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultTable",
    "cli_main",
    "emit_csv",
    "emit_plotdata",
    "parse_csv",
    "run_experiment",
]

_CHANNEL_TYPES = ("deterministic", "selective")


@dataclass(frozen=True)
class ExperimentConfig:
    n_t: int
    K: int
    L: int
    N: int
    pilot_sets: tuple            # entries: int count or explicit 1-based index tuple
    snr_db_list: tuple
    scheme_list: tuple           # subset of ("RSMA", "SDMA")
    channel_model: dict
    strategy: int = 1
    base_rho: float = 0.9
    alpha: float = 0.6
    M: int = 16
    eps_r: float = 1e-4
    max_outer: int = 200
    solver_tol: float = 1e-7
    seed: int = 0
    out_dir: Optional[str] = None

    def __post_init__(self):
        if min(self.n_t, self.K, self.N) < 1 or self.L < 0:
            raise ValueError("n_t, K, N must be >= 1 and L >= 0")
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be nonempty")
        if not self.scheme_list:
            raise ValueError("scheme_list must be nonempty")
        if any(s not in ("RSMA", "SDMA") for s in self.scheme_list):
            raise ValueError("scheme_list entries must be RSMA or SDMA")
        if self.strategy not in (1, 2):
            raise ValueError("strategy must be 1 or 2")
        if not self.pilot_sets:
            raise ValueError("pilot_sets must be nonempty")
        model = dict(self.channel_model)
        if model.get("type") not in _CHANNEL_TYPES:
            raise ValueError(f"channel_model.type must be one of {_CHANNEL_TYPES}")
        object.__setattr__(self, "pilot_sets", tuple(
            p if isinstance(p, int) else tuple(p) for p in self.pilot_sets))
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        object.__setattr__(self, "scheme_list", tuple(self.scheme_list))
        for spec in self.pilot_sets:
            idx = self.resolve_pilots(spec)
            if any(i < 1 or i > self.N for i in idx):
                raise ValueError(f"pilot placement {spec!r} outside 1..{self.N}")

    def resolve_pilots(self, spec: Union[int, tuple]) -> tuple:
        if isinstance(spec, int):
            return ch.evenly_spaced_pilots(spec, self.N)
        return tuple(sorted(int(i) for i in spec))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(k for k in ("n_t", "K", "L", "N", "pilot_sets", "snr_db_list",
                                     "scheme_list", "channel_model") if k not in doc)
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return ExperimentConfig(**doc)

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass
class ResultRow:
    snr_db: float
    scheme: str
    strategy: int
    pilot_count: int
    sum_rate: float
    common_rate: float
    rate_u: tuple
    jam_margin: float
    iters: int
    wall_ms: float
    status: str = "optimal"
    detail: dict = field(default_factory=dict)

    def csv_tuple(self) -> tuple:
        return (self.snr_db, self.scheme, self.strategy, self.pilot_count,
                self.sum_rate, self.common_rate, *self.rate_u,
                self.jam_margin, self.iters, self.wall_ms)


@dataclass
class ResultTable:
    K: int
    rows: List[ResultRow] = field(default_factory=list)

    def csv_tuples(self) -> list:
        return [r.csv_tuple() for r in self.rows]


# ---------------------------------------------------------------------------
# cell execution


def _build_channels(config: ExperimentConfig) -> ch.ChannelSet:
    model = config.channel_model
    if model["type"] == "deterministic":
        return ch.make_deterministic_scenario(
            theta=float(model["theta"]), beta=float(model["beta"]),
            n_t=config.n_t, N=config.N, K=config.K, L=config.L)
    profile = ch.exponential_delay_profile(
        rms_delay_spread=float(model.get("delay_spread", 1.2e-6)),
        n_taps=int(model.get("n_taps", 24)))
    return ch.synth_selective_channel(
        profile, n_t=config.n_t, N=config.N, K=config.K, L=config.L,
        subcarrier_spacing=float(model.get("spacing", 60e3)),
        seed=int(model.get("channel_seed", config.seed)))


def _build_stats(config: ExperimentConfig, pilot_set: tuple) -> ch.AuStatistics:
    if config.L == 0:
        return ch.au_statistics_none(config.n_t, config.N)
    model = config.channel_model
    if model["type"] == "deterministic":
        spread = float(model.get("au_spread", 2.0 * float(model["beta"])))
        return ch.au_statistics_uniform_phase(spread, config.n_t, config.N,
                                              config.L, pilot_set)
    return ch.au_statistics_isotropic(config.n_t, config.N, config.L, pilot_set)


def _pairs(config: ExperimentConfig) -> list:
    return [(snr_i, snr, pspec)
            for snr_i, snr in enumerate(config.snr_db_list)
            for pspec in config.pilot_sets]


def _run_pair(args) -> List[ResultRow]:
    """Run all requested schemes for one (snr, pilot_set) point.

    The common-stream-off run executes first so its endpoint can serve as the
    comparison candidate inside the richer scheme's optimization.
    """
    config, chan, pair, timing, with_trace = args
    snr_i, snr_db, pspec = pair
    pilot_set = config.resolve_pilots(pspec)
    P_t = 10.0 ** (snr_db / 10.0)
    sigma2 = ch.csit_error_variance(P_t, config.N, config.alpha)
    csit = ch.CsitModel(h_hat=chan.h, sigma_ie2=sigma2, alpha=config.alpha)
    stats = _build_stats(config, pilot_set)
    if config.L:
        rho = opt.threshold_strategy(config.strategy, len(pilot_set), config.N,
                                     config.base_rho)
        thr = opt.build_thresholds(stats, rho, P_t)
    else:
        rho, thr = 0.0, None
    # sample stream keyed by SNR point only: cells differing in scheme,
    # strategy, or pilot set face identical channel realizations
    cell_seed = int(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(snr_i,)).generate_state(1)[0])

    def solve_cfg(scheme):
        return opt.SolveConfig(
            P_t=P_t, scheme=scheme, M=config.M, seed=cell_seed,
            eps_r=config.eps_r, max_outer=config.max_outer,
            thresholds=thr, solver_tol=config.solver_tol)

    def run_one(scheme, restricted):
        trace: list = []
        sink = trace.append if with_trace else None
        t0 = time.perf_counter()
        try:
            res = opt.optimize(csit, stats, solve_cfg(scheme), trace_sink=sink,
                               restricted=restricted)
        except opt.OptimizerError as exc:
            wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0
            row = ResultRow(
                snr_db=snr_db, scheme=scheme, strategy=config.strategy,
                pilot_count=len(pilot_set), sum_rate=0.0, common_rate=0.0,
                rate_u=(0.0,) * config.K, jam_margin=float("nan"), iters=0,
                wall_ms=wall, status="infeasible", detail={"error": str(exc)})
            return row, None
        wall = (time.perf_counter() - t0) * 1e3 if timing else 0.0

        report = res.report
        if chan.g is not None and report.pilot_set:
            attach_realized_jamming(report, chan, res.precoders)
        if thr is not None and report.lambda_avg is not None and report.lambda_avg.size:
            jam_margin = float(np.min(report.lambda_avg - thr))
        else:
            jam_margin = 0.0
        detail = {
            "snr_db": snr_db, "scheme": scheme, "pilot_set": list(pilot_set),
            "rho": rho, "sigma_ie2": sigma2, "P_t": P_t,
            "sum_rate": report.R_sum, "R_k": report.R_k.tolist(),
            "common_rate": report.common_rate,
            "lambda_avg": None if report.lambda_avg is None else report.lambda_avg.tolist(),
            "lambda_realized": (None if report.lambda_realized is None
                                else report.lambda_realized.tolist()),
            "diagnostics": report.diagnostics,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            "trace": trace,
        }
        row = ResultRow(
            snr_db=snr_db, scheme=scheme, strategy=config.strategy,
            pilot_count=len(pilot_set), sum_rate=report.R_sum,
            common_rate=report.common_rate, rate_u=tuple(float(r) for r in report.R_k),
            jam_margin=jam_margin, iters=res.outer_iterations, wall_ms=wall,
            status="optimal" if res.converged else "maxiter", detail=detail)
        return row, res

    produced = {}
    sdma_res = None
    if "SDMA" in config.scheme_list:
        produced["SDMA"], sdma_res = run_one("SDMA", None)
    if "RSMA" in config.scheme_list:
        produced["RSMA"], _ = run_one("RSMA", sdma_res)
    return [produced[s] for s in config.scheme_list]


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   timing: bool = False, with_trace: bool = False) -> ResultTable:
    """Run every (snr, scheme, pilot_set) cell and collect one row per cell.

    Optimizer failures are recorded in the affected row (status "infeasible")
    and the sweep continues.  Rows are ordered by the deterministic cell
    order, independent of the worker count.
    """
    chan = _build_channels(config)
    jobs = [(config, chan, pair, timing, with_trace) for pair in _pairs(config)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(_run_pair, jobs))
    else:
        groups = [_run_pair(j) for j in jobs]
    rows = [row for group in groups for row in group]
    return ResultTable(K=config.K, rows=rows)


# ---------------------------------------------------------------------------
# persistence


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_csv(table: ResultTable, path: str) -> None:
    """Write the fixed-column CSV; float fields use shortest round-trip repr,
    so identical tables produce byte-identical files."""
    if not table.rows:
        raise ValueError("refusing to write an empty result table")
    header = (["snr_db", "scheme", "strategy", "pilot_count", "sum_rate", "common_rate"]
              + [f"rate_u{k + 1}" for k in range(table.K)]
              + ["jam_margin", "iters", "wall_ms"])
    lines = [",".join(header)]
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row.csv_tuple()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path: str) -> ResultTable:
    """Read a results CSV back into a table (CSV-visible fields only)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    K = sum(1 for h in header if h.startswith("rate_u"))
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rec = dict(zip(header, parts))
        rows.append(ResultRow(
            snr_db=float(rec["snr_db"]), scheme=rec["scheme"],
            strategy=int(rec["strategy"]), pilot_count=int(rec["pilot_count"]),
            sum_rate=float(rec["sum_rate"]), common_rate=float(rec["common_rate"]),
            rate_u=tuple(float(rec[f"rate_u{k + 1}"]) for k in range(K)),
            jam_margin=float(rec["jam_margin"]), iters=int(rec["iters"]),
            wall_ms=float(rec["wall_ms"])))
    return ResultTable(K=K, rows=rows)


def emit_plotdata(table: ResultTable, out_dir: str) -> list:
    """One two-column ASCII file (snr_db, sum_rate) per (scheme, pilot_count)."""
    if not table.rows:
        raise ValueError("refusing to write plot data for an empty table")
    os.makedirs(out_dir, exist_ok=True)
    curves = {}
    for row in table.rows:
        curves.setdefault((row.scheme, row.pilot_count), []).append(
            (row.snr_db, row.sum_rate))
    paths = []
    for (scheme, pc), pts in sorted(curves.items()):
        path = os.path.join(out_dir, f"curve_{scheme.lower()}_p{pc}.dat")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for snr, sr in sorted(pts):
                fh.write(f"{_fmt(snr)} {_fmt(sr)}\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# command line


_USAGE = """usage: python -m jamcom --config PATH [options]

options:
  --config PATH     JSON experiment configuration (required)
  --out DIR         output directory (default: config out_dir or '.')
  --seed U64        override the config seed
  --scheme S        rsma | sdma | both (override scheme_list)
  --strategy S      1 | 2 (override threshold strategy)
  --quick           reduced scale for CI: N=8, M=4, coarse tolerances
  --trace           write per-cell convergence traces (JSON lines)
  --timing          record wall-clock times in the CSV (breaks byte determinism)
  --workers W       parallel worker processes (default 1)
"""


def _apply_quick(config: ExperimentConfig) -> ExperimentConfig:
    pilot_sets = tuple(
        min(p if isinstance(p, int) else len(p), 8) for p in config.pilot_sets)
    return dataclasses.replace(
        config, N=8, M=4, eps_r=1e-3, max_outer=60,
        pilot_sets=pilot_sets)


def cli_main(argv: Sequence[str]) -> int:
    """Entry point; returns 0 on success, 2 on partial failure, 1 on bad input."""
    args = list(argv)
    opts = {"config": None, "out": None, "seed": None, "scheme": None,
            "strategy": None, "quick": False, "trace": False,
            "timing": False, "workers": 1}
    i = 0
    try:
        while i < len(args):
            flag = args[i]
            if flag in ("--quick", "--trace", "--timing"):
                opts[flag[2:]] = True
                i += 1
            elif flag in ("--config", "--out", "--seed", "--scheme",
                          "--strategy", "--workers"):
                if i + 1 >= len(args):
                    raise ValueError(f"flag {flag} needs a value")
                opts[flag[2:]] = args[i + 1]
                i += 2
            elif flag in ("-h", "--help"):
                print(_USAGE)
                return 0
            else:
                raise ValueError(f"unknown flag {flag!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1

    if opts["config"] is None:
        print("error: --config is required", file=sys.stderr)
        print(_USAGE, file=sys.stderr)
        return 1
    try:
        with open(opts["config"], "r", encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
        if opts["seed"] is not None:
            config = dataclasses.replace(config, seed=int(opts["seed"]))
        if opts["strategy"] is not None:
            config = dataclasses.replace(config, strategy=int(opts["strategy"]))
        if opts["scheme"] is not None:
            mapping = {"rsma": ("RSMA",), "sdma": ("SDMA",), "both": ("RSMA", "SDMA")}
            if opts["scheme"] not in mapping:
                raise ValueError(f"bad --scheme {opts['scheme']!r}")
            config = dataclasses.replace(config, scheme_list=mapping[opts["scheme"]])
        if opts["quick"]:
            config = _apply_quick(config)
        workers = int(opts["workers"])
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = opts["out"] or config.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    table = run_experiment(config, workers=workers, timing=opts["timing"],
                           with_trace=opts["trace"])
    emit_csv(table, os.path.join(out_dir, "results.csv"))
    emit_plotdata(table, out_dir)
    details = [row.detail for row in table.rows]
    with open(os.path.join(out_dir, "details.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)
    if opts["trace"]:
        for idx, row in enumerate(table.rows):
            path = os.path.join(out_dir, f"trace_cell{idx:03d}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for entry in row.detail.get("trace", []):
                    fh.write(json.dumps(entry) + "\n")
    n_bad = sum(1 for r in table.rows if r.status == "infeasible")
    print(f"{len(table.rows)} cells -> {out_dir} ({n_bad} failed)")
    return 2 if n_bad else 0
