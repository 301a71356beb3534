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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import channel as ch
from . import optimizer as opt
from ._checks import integer, is_int, is_real, pilot_set, real
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
# output file names: a curve per (scheme, pilot count) and a trace per cell
_CURVE, _TRACE = "curve_{}_p{}.dat", "trace_cell{:03d}.jsonl"


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
    seed: int = 0
    out_dir: Optional[str] = None

    def __post_init__(self):
        for name, least in (("n_t", 1), ("K", 1), ("L", 0), ("N", 1), ("strategy", 1),
                            ("seed", 0)):
            integer(getattr(self, name), name, least)
        # a string would sweep its characters and a bool would run at 1 dB
        if not (isinstance(self.snr_db_list, (list, tuple)) and self.snr_db_list
                and all(is_real(s) for s in self.snr_db_list)):
            raise ValueError(f"snr_db_list must be a nonempty list of numbers, "
                             f"got {self.snr_db_list!r}")
        if not self.scheme_list or any(s not in ("RSMA", "SDMA") for s in self.scheme_list):
            raise ValueError(f"scheme_list entries must be RSMA or SDMA, got {self.scheme_list!r}")
        if self.strategy > 2:
            raise ValueError("strategy must be 1 or 2")
        if not self.pilot_sets:
            raise ValueError("pilot_sets must be nonempty")
        for name in ("alpha", "base_rho", "eps_r"):
            real(getattr(self, name), name)
        if not (self.out_dir is None or isinstance(self.out_dir, str)):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        model = dict(self.channel_model)
        if model.get("type") not in _CHANNEL_TYPES:
            raise ValueError(f"channel_model.type must be one of {_CHANNEL_TYPES}")
        for key, ok in (("n_taps", is_int), ("channel_seed", is_int), ("theta", is_real),
                        ("beta", is_real), ("au_spread", is_real),
                        ("delay_spread", is_real), ("spacing", is_real)):
            if key in model and not ok(model[key]):
                kind = "an integer" if ok is is_int else "a number"
                raise ValueError(f"channel_model.{key} must be {kind}, got {model[key]!r}")
        # a count is an integer and a placement a list of integer indices: a bool
        # or a float would run as some other pilot set than the one the CSV names
        try:
            counts = [len(self.resolve_pilots(spec)) for spec in self.pilot_sets]
        except ValueError as exc:
            raise ValueError(f"pilot_sets entries must be a count or a list of "
                             f"subcarriers: {exc}") from None
        # result rows and curve files tell cells apart by their pilot count
        if len(set(counts)) < len(counts):
            raise ValueError(f"pilot_sets {self.pilot_sets!r} repeat a pilot count")
        object.__setattr__(self, "snr_db_list", tuple(float(s) for s in self.snr_db_list))
        object.__setattr__(self, "scheme_list", tuple(self.scheme_list))
        object.__setattr__(self, "pilot_sets", tuple(
            tuple(int(i) for i in p) if isinstance(p, (list, tuple)) else int(p)
            for p in self.pilot_sets))
        # every cell's inputs meet their constructors' own checks before any cell runs
        try:
            chan = _build_channels(self)
            for pair in _pairs(self):
                _cell(self, chan, pair)
        except KeyError as exc:
            raise ValueError(f"channel_model lacks the field {exc.args[0]!r}") from None

    def resolve_pilots(self, spec: Union[int, tuple]) -> tuple:
        """The 1-based subcarriers of a pilot_sets entry, a count or a list."""
        if isinstance(spec, (list, tuple)):
            return pilot_set(spec, self.N)
        return ch.evenly_spaced_pilots(spec, self.N)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        fields = dataclasses.fields(ExperimentConfig)
        unknown = sorted(set(doc) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(f.name for f in fields
                         if f.default is dataclasses.MISSING and f.name not in doc)
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return ExperimentConfig(**doc)

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        return json.dumps(doc, indent=2, sort_keys=True)


@dataclass
class ResultRow:
    """One cell's result.  ``status`` is its run's ``OptimizeResult.status``,
    or "infeasible" when ``optimize`` raised; an RSMA run is compared with
    its cell's SDMA run, and a row that fell back to it carries its status."""

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
    status: str = "optimal"        # optimal | maxiter | solve_failed | infeasible
    detail: dict = field(default_factory=dict)

    def csv_tuple(self) -> tuple:
        return (self.snr_db, self.scheme, self.strategy, self.pilot_count,
                self.sum_rate, self.common_rate, *self.rate_u,
                self.jam_margin, self.iters, self.wall_ms, self.status)


@dataclass
class ResultTable:
    K: int
    rows: List[ResultRow] = field(default_factory=list)

    def csv_tuples(self) -> list:
        return [r.csv_tuple() for r in self.rows]


# ---------------------------------------------------------------------------
# cell execution


def _total_power(snr_db: float) -> float:
    """The power budget P_t of an SNR point (unit noise); inf on overflow."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return float("inf")


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


def _cell(config: ExperimentConfig, chan: ch.ChannelSet, pair: tuple) -> tuple:
    """A cell's (pilot_set, sigma_ie2, csit, stats, rho, RSMA SolveConfig)."""
    snr_i, snr_db, pspec = pair
    pilot_set = config.resolve_pilots(pspec)
    P_t = _total_power(snr_db)
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
    return pilot_set, sigma2, csit, stats, rho, opt.SolveConfig(
        P_t=P_t, M=config.M, seed=cell_seed, eps_r=config.eps_r,
        max_outer=config.max_outer, thresholds=thr)


def _run_pair(args) -> List[ResultRow]:
    """Run one (snr, pilot_set) point: SDMA always, requested or not, then
    RSMA if requested, handed that SDMA result as its ``restricted``
    comparison, so an RSMA row reads the same whichever schemes the sweep
    lists.  Returns the requested rows in ``scheme_list`` order."""
    config, chan, pair, timing = args
    snr_db = pair[1]
    pilot_set, sigma2, csit, stats, rho, cfg = _cell(config, chan, pair)
    rows, restricted = {}, None
    for scheme in ("SDMA", "RSMA") if "RSMA" in config.scheme_list else ("SDMA",):
        t0 = time.perf_counter()
        try:
            res = opt.optimize(csit, stats, dataclasses.replace(cfg, scheme=scheme),
                               restricted=restricted)
        except opt.OptimizerError as exc:
            res, error = None, str(exc)
        wall = (time.perf_counter() - t0) * 1e3
        if res is None:
            values = dict(sum_rate=0.0, common_rate=0.0, rate_u=(0.0,) * config.K,
                          jam_margin=float("nan"), iters=0, status="infeasible",
                          detail={"error": error})
        else:
            report = res.report
            if chan.g is not None and report.pilot_set:
                attach_realized_jamming(report, chan, res.precoders)
            lam = report.lambda_avg
            values = dict(
                sum_rate=report.R_sum, common_rate=report.common_rate,
                rate_u=tuple(float(r) for r in report.R_k),
                jam_margin=(float(np.min(lam - cfg.thresholds))
                            if cfg.thresholds is not None and lam is not None and lam.size
                            else 0.0),
                iters=res.outer_iterations, status=res.status, detail={
                    "snr_db": snr_db, "scheme": scheme, "pilot_set": list(pilot_set),
                    "rho": rho, "sigma_ie2": sigma2, "P_t": cfg.P_t,
                    "sum_rate": report.R_sum, "R_k": report.R_k.tolist(),
                    "common_rate": report.common_rate,
                    "lambda_avg": None if lam is None else lam.tolist(),
                    "lambda_realized": (None if report.lambda_realized is None
                                        else report.lambda_realized.tolist()),
                    "diagnostics": report.diagnostics, "wall_ms": wall})
        rows[scheme] = ResultRow(snr_db=snr_db, scheme=scheme, strategy=config.strategy,
                                 pilot_count=len(pilot_set), wall_ms=wall if timing else 0.0,
                                 **values)
        restricted = res
    return [rows[s] for s in config.scheme_list]


def run_experiment(config: ExperimentConfig, workers: int = 1,
                   timing: bool = False) -> ResultTable:
    """Run every (snr, scheme, pilot_set) cell and collect one row per cell.

    Each (snr, pilot_set) point runs SDMA, listed or not, and an RSMA cell is
    compared with that SDMA run, so its row does not depend on the other
    schemes listed.  Each row's ``detail["diagnostics"]`` is its report's,
    per-iteration ``trace`` included.  A row's status says why its run
    stopped: "optimal" (converged), "maxiter" (capped) or "solve_failed" (its
    last stage ended on a failed solve).  Optimizer failures are recorded in
    the affected row (status "infeasible") and the sweep continues.  Rows are
    ordered by the deterministic cell order, independent of the worker count.
    At most ``workers`` processes run the (snr, pilot_set) points, never more
    than there are points, and a sweep with one point or ``workers=1`` runs in
    this process.
    """
    integer(workers, "workers", 1)
    chan = _build_channels(config)
    jobs = [(config, chan, pair, timing) for pair in _pairs(config)]
    # the pool starts all its processes at the first submit, used or not
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: a serial sweep, and ``import jamcom``, never pay for it
        from concurrent.futures import ProcessPoolExecutor
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
    so identical tables produce byte-identical files.  The text goes to a
    temporary file beside path, then replaces path, so a failed write leaves
    no partial CSV."""
    if not table.rows:
        raise ValueError("refusing to write an empty result table")
    header = (["snr_db", "scheme", "strategy", "pilot_count", "sum_rate", "common_rate"]
              + [f"rate_u{k + 1}" for k in range(table.K)]
              + ["jam_margin", "iters", "wall_ms", "status"])
    lines = [",".join(header)]
    for row in table.rows:
        lines.append(",".join(_fmt(v) for v in row.csv_tuple()))
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
            wall_ms=float(rec["wall_ms"]), status=rec["status"]))
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
        path = os.path.join(out_dir, _CURVE.format(scheme.lower(), pc))
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
  --trace           also write each cell's diagnostics trace as trace_cellNNN.jsonl
  --timing          record wall-clock times in the CSV (breaks byte determinism)
  --workers W       worker processes, at most one per SNR/pilot point (default 1)
"""


def _apply_quick(config: ExperimentConfig) -> ExperimentConfig:
    # counts clamped to 8; one the clamp repeats is kept once, in first-occurrence
    # order, as rows and curve files key on it
    pilot_sets = tuple(dict.fromkeys(
        min(p if isinstance(p, int) else len(p), 8) for p in config.pilot_sets))
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
        if opts["config"] is None:
            raise ValueError("--config is required")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
        workers = integer(int(opts["workers"]), "--workers", 1)
        out_dir = opts["out"] or config.out_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        # every output path is checked before the sweep, so a bad --out costs no cell
        names = ["results.csv", "details.json"] + [
            _CURVE.format(s.lower(), len(config.resolve_pilots(p)))
            for s in config.scheme_list for p in config.pilot_sets]
        if opts["trace"]:
            cells = len(_pairs(config)) * len(config.scheme_list)
            names += [_TRACE.format(i) for i in range(cells)]
        for path in (os.path.join(out_dir, name) for name in names):
            if os.path.isdir(path):
                raise OSError(f"output path {path!r} is a directory")
        if not os.access(out_dir, os.W_OK):
            raise OSError(f"output directory {out_dir!r} is not writable")
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    table = run_experiment(config, workers=workers, timing=opts["timing"])
    try:
        emit_csv(table, os.path.join(out_dir, "results.csv"))
        emit_plotdata(table, out_dir)
        details = [row.detail for row in table.rows]
        with open(os.path.join(out_dir, "details.json"), "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1, default=str)
        if opts["trace"]:
            for idx, row in enumerate(table.rows):
                path = os.path.join(out_dir, _TRACE.format(idx))
                with open(path, "w", encoding="utf-8") as fh:
                    for entry in row.detail.get("diagnostics", {}).get("trace", []):
                        fh.write(json.dumps(entry) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_bad = sum(1 for r in table.rows if r.status == "infeasible")
    print(f"{len(table.rows)} cells -> {out_dir} ({n_bad} failed)")
    return 2 if n_bad else 0
