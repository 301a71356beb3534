"""Alternating precoder optimization for joint communications and jamming.

The nonconvex sum-mutual-information problem is handled by one loop.  Each
iteration refreshes the per-sample MMSE filters and weights at the running
point (turning the rate objective into an augmented weighted-MSE surrogate,
tight there), linearizes the focused-power constraint at the same point (an
inner approximation of the true floors that contains it), and solves the
resulting convex subproblem once, so the sampled sum rate never decreases.
Channel uncertainty enters through sample averaging over draws from the CSI
error model.

Internal bookkeeping uses natural logarithms, for which the weight u = 1/mse
is the exact stationary point of u*mse - ln(u) and the optimized surrogate
equals 1 - (mutual information in nats); rates are converted to bits only at
reporting time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .channel import AuStatistics, CsitModel, draw_csit_samples
from .metrics import (NOISE_VAR, PrecoderSet, RateReport, _streams,
                      jamming_power_avg, rate_report, stream_mses)
from . import solver as cvx

__all__ = [
    "CommonSplitVars",
    "InfeasibleError",
    "OptimizeResult",
    "OptimizerError",
    "SolveConfig",
    "VariableLayout",
    "WmmseState",
    "build_thresholds",
    "initialize",
    "jamming_threshold",
    "linearize_jamming",
    "optimize",
    "sdma_restrict",
    "threshold_strategy",
]

_LN2 = float(np.log(2.0))


class OptimizerError(RuntimeError):
    pass


class InfeasibleError(OptimizerError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    """Run configuration for one optimization instance."""

    P_t: float
    scheme: str = "RSMA"                       # RSMA | SDMA
    M: int = 16
    seed: int = 0
    eps_r: float = 1e-4                        # rate tolerance, nats
    eps_m: float = 1e-4                        # unread: kept only as perfbench/workloads.py wide_instances passes it
    max_outer: int = 200
    thresholds: Optional[np.ndarray] = None    # (L, |pilot_set|) focused-power floors
    solver_tol: float = 1e-7

    def __post_init__(self):
        if self.P_t <= 0.0:
            raise ValueError("P_t must be positive")
        if self.scheme not in ("RSMA", "SDMA"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.M < 1 or self.max_outer < 1:
            raise ValueError("M and the iteration cap must be >= 1")
        if self.eps_r <= 0.0:
            raise ValueError("eps_r must be positive")
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds",
                               np.asarray(self.thresholds, dtype=np.float64))


def sdma_restrict(config: SolveConfig) -> SolveConfig:
    """The same run with the common stream turned off."""
    return dataclasses.replace(config, scheme="SDMA")


@dataclass
class WmmseState:
    """Per-sample weights and filters, indexed (sample, user, subcarrier)."""

    u_c: np.ndarray
    g_c: np.ndarray
    u_p: np.ndarray
    g_p: np.ndarray


@dataclass
class CommonSplitVars:
    """Negated common-rate portions X = -C (nats); feasible iff X <= 0."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if np.any(self.X > 1e-9):
            raise ValueError("X must be <= 0")

    @property
    def C_bits(self) -> np.ndarray:
        return -self.X / _LN2


@dataclass
class OptimizeResult:
    precoders: PrecoderSet
    split: CommonSplitVars
    report: RateReport
    converged: bool
    outer_iterations: int


# ---------------------------------------------------------------------------
# weight / filter updates


def _wmmse_state(samples: np.ndarray, precoders: PrecoderSet) -> WmmseState:
    eps_c, eps_p, hp_c, hp_own, T_c, T_p = stream_mses(samples, precoders)
    return WmmseState(u_c=1.0 / eps_c, g_c=np.conj(hp_c) / T_c,
                      u_p=1.0 / eps_p, g_p=np.conj(hp_own) / T_p)


# ---------------------------------------------------------------------------
# thresholds


def threshold_strategy(strategy: int, pilot_count: int, N: int, base_rho: float = 0.9) -> float:
    """Threshold strictness: proportional to the pilot count (1) or constant (2)."""
    if pilot_count > N:
        raise ValueError("pilot_count cannot exceed N")
    if strategy == 1:
        rho = base_rho * pilot_count / (N / 2.0)
    elif strategy == 2:
        rho = base_rho
    else:
        raise ValueError(f"unknown threshold strategy {strategy!r}")
    return float(min(1.0, max(0.0, rho)))


def jamming_threshold(rho: float, P_t: float, pilot_count: int, L: int, tau):
    """Per-pilot focused-power floor: rho * (P_t / (pilot_count * L)) * tau."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if pilot_count < 1 or L < 1:
        raise ValueError("pilot_count and L must be >= 1")
    return rho * (P_t / (pilot_count * L)) * np.asarray(tau, dtype=np.float64)


def build_thresholds(stats: AuStatistics, rho: float, P_t: float) -> np.ndarray:
    """Threshold array (L, |pilot_set|) for every adversary/pilot pair."""
    pil = stats.pilot_idx
    return jamming_threshold(rho, P_t, pil.size, stats.L, stats.tau[:, pil])


# ---------------------------------------------------------------------------
# variable layout and quadratic assembly


def _realrep(Mc: np.ndarray) -> np.ndarray:
    """Real representation of Hermitian forms: p^H M p = [x;y]^T rep(M) [x;y]."""
    A, B = Mc.real, Mc.imag
    top = np.concatenate([A, -B], axis=-1)
    bot = np.concatenate([B, A], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _revec(v: np.ndarray) -> np.ndarray:
    """Real stacking of a complex vector: Re{v^H p} = _revec(v) . [x;y]."""
    return np.concatenate([v.real, v.imag], axis=-1)


class VariableLayout:
    """Index map from precoders and split variables to the real solver vector.

    The vector stacks, in order: the common precoders (N, 2n_t), RSMA only;
    the private precoders (K, N, 2n_t); the jamming precoders of the pilot
    subcarriers (L, |pilots|, 2n_t), in subcarrier order; and the splits X
    (K, N), RSMA only.  A precoder q occupies 2n_t entries [Re q; Im q].
    blocks[n] gathers subcarrier n's columns: common, private 1..K, jamming
    1..L (pilots only), then split 1..K.
    """

    def __init__(self, n_t: int, N: int, K: int, L: int,
                 pilot_idx: np.ndarray, rsma: bool):
        self.n_t, self.N, self.K, self.L, self.rsma = n_t, N, K, L, rsma
        self.pilot_idx = np.asarray(pilot_idx, dtype=np.int64)
        self.is_pilot = np.zeros(N, dtype=bool)
        self.is_pilot[self.pilot_idx] = True
        w = self.slot_width = 2 * n_t
        self._shapes = ((N if rsma else 0, w), (K, N, w), (L, int(self.is_pilot.sum()), w))
        self._ends = np.cumsum([int(np.prod(sh)) for sh in self._shapes])
        self.pc_cols, self.p_cols, self.f_cols = self._split(np.arange(self._ends[-1]))
        # slots[n, s]: columns of stream s (common, private 1..K, jamming 1..L)
        slots = self.slots = np.full((N, 1 + K + L, w), -1, dtype=np.int64)
        if rsma:
            slots[:, 0] = self.pc_cols
        slots[:, 1:1 + K] = self.p_cols.swapaxes(0, 1)
        slots[self.is_pilot, 1 + K:] = self.f_cols.swapaxes(0, 1)
        self.streams = slots[:, :, 0] >= 0     # (N, 1+K+L) streams present
        self.prec_cols = np.arange(self._ends[-1])
        self.x_cols = self._ends[-1] + np.arange(K * N if rsma else 0).reshape(-1, N)
        self.n_vars = self._ends[-1] + self.x_cols.size
        self.blocks: List[np.ndarray] = [
            np.concatenate([self.prec_cols_of(n), self.x_cols[:, n]]) for n in range(N)]

    def _split(self, v: np.ndarray):
        """Common, private and jamming parts of v, shaped as in the vector."""
        return [a.reshape(sh) for a, sh in
                zip(np.split(v[:self._ends[-1]], self._ends[:2]), self._shapes)]

    def prec_cols_of(self, n: int) -> np.ndarray:
        return self.slots[n, self.streams[n]].ravel()

    def var_scale(self, P_t: float) -> np.ndarray:
        s = np.ones(self.n_vars)
        s[self.prec_cols] = np.sqrt(P_t)
        return s

    # conversions -----------------------------------------------------------

    def pack(self, precoders: PrecoderSet, X: Optional[np.ndarray]) -> np.ndarray:
        parts = [_revec(precoders.p_c)] if self.rsma else []
        parts += [_revec(precoders.p), _revec(precoders.f[:, self.is_pilot])]
        if self.rsma:
            parts.append(np.zeros((self.K, self.N)) if X is None else X)
        return np.concatenate([np.ravel(a) for a in parts])

    def unpack(self, z: np.ndarray) -> Tuple[PrecoderSet, Optional[np.ndarray]]:
        nt, N, K = self.n_t, self.N, self.K
        pc, p, f_pil = (a[..., :nt] + 1j * a[..., nt:] for a in self._split(z))
        f = np.zeros((self.L, N, nt), dtype=np.complex128)
        f[:, self.is_pilot] = f_pil
        if not self.rsma:
            return PrecoderSet(p_c=np.zeros((N, nt)), p=p, f=f), None
        return PrecoderSet(p_c=pc, p=p, f=f), z[self._ends[-1]:].reshape(K, N).copy()


def linearize_jamming(layout: VariableLayout, precoders_t: PrecoderSet,
                      R: np.ndarray, n: int):
    """First-order lower bound of the focused power at the running point.

    Returns (cols, coef, const) such that the affine function
    coef @ z[cols] + const equals the linearized focused power; it matches the
    true quadratic at the expansion point and never exceeds it elsewhere.
    """
    q = _streams(precoders_t, n)[layout.streams[n]]
    Rq = q @ np.asarray(R).T                   # row s: R q_s
    return (layout.prec_cols_of(n), 2.0 * _revec(Rq).ravel(),
            -float(np.real(np.vdot(q, Rq))))


# ---------------------------------------------------------------------------
# initialization


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    if np.abs(v[i]) == 0.0:
        return v
    return v * np.exp(-1j * np.angle(v[i]))


def initialize(csit: CsitModel, stats: AuStatistics, config: SolveConfig) -> PrecoderSet:
    """Feasible starting point: jamming precoders meet every focused-power
    floor with equality along the dominant covariance eigenvector; half the
    remaining power drives the common stream along the dominant left singular
    vector of the stacked channel estimates, half spreads equally over
    matched-filter private precoders."""
    K, N, n_t = csit.K, csit.N, csit.n_t
    L = stats.L
    rsma = config.scheme == "RSMA"
    thr = config.thresholds
    if thr is None:
        thr = np.zeros((L, stats.pilot_idx.size))
    if thr.shape != (L, stats.pilot_idx.size):
        raise ValueError("thresholds must have shape (L, |pilot_set|)")

    f = np.zeros((L, N, n_t), dtype=np.complex128)
    jam_power = 0.0
    for l in range(L):
        for j, n in enumerate(stats.pilot_idx):
            if thr[l, j] <= 0.0:
                continue
            tau = stats.tau[l, n]
            evals, evecs = np.linalg.eigh(stats.R[l, n])
            v = _phase_fix(evecs[:, -1])
            f[l, n] = np.sqrt(thr[l, j] / tau) * v
            jam_power += thr[l, j] / tau
    if jam_power > config.P_t * (1.0 + 1e-12):
        raise InfeasibleError(
            f"jamming floors need power {jam_power:.6g} > budget {config.P_t:.6g}")

    rem = max(config.P_t - jam_power, 0.0)
    p_c = np.zeros((N, n_t), dtype=np.complex128)
    p = np.zeros((K, N, n_t), dtype=np.complex128)
    p_common = rem / 2.0 if rsma else 0.0
    p_private = rem - p_common
    for n in range(N):
        if rsma and p_common > 0.0:
            u_mat, *_ = np.linalg.svd(csit.h_hat[:, n, :].T, full_matrices=False)
            p_c[n] = np.sqrt(p_common / N) * _phase_fix(u_mat[:, 0])
        for k in range(K):
            hk = csit.h_hat[k, n]
            nrm = np.linalg.norm(hk)
            direction = hk / nrm if nrm > 0.0 else np.eye(n_t)[0]
            p[k, n] = np.sqrt(p_private / (K * N)) * direction
    return PrecoderSet(p_c=p_c, p=p, f=f)


# ---------------------------------------------------------------------------
# subproblem assembly


def _surrogate_coefficients(samples: np.ndarray, state: WmmseState):
    """Sample-averaged gram matrices, linear vectors, and constants of the
    augmented MSEs, per (user, subcarrier)."""
    M = samples.shape[0]
    w_c = state.u_c * np.abs(state.g_c) ** 2 / M
    w_p = state.u_p * np.abs(state.g_p) ** 2 / M
    conj = samples.conj()
    S_c = np.einsum("mkna,mknb->knab", w_c[..., None] * samples, conj, optimize=True)
    S_p = np.einsum("mkna,mknb->knab", w_p[..., None] * samples, conj, optimize=True)
    v_c = np.einsum("mkn,mkna->kna", state.u_c * np.conj(state.g_c), samples) / M
    v_p = np.einsum("mkn,mkna->kna", state.u_p * np.conj(state.g_p), samples) / M
    r_c = np.mean(state.u_c * (np.abs(state.g_c) ** 2 * NOISE_VAR + 1.0)
                  - np.log(state.u_c), axis=0)
    r_p = np.mean(state.u_p * (np.abs(state.g_p) ** 2 * NOISE_VAR + 1.0)
                  - np.log(state.u_p), axis=0)
    return _realrep(S_c), _realrep(S_p), v_c, v_p, r_c, r_p


def _assemble_subproblem(layout: VariableLayout, samples: np.ndarray,
                         state: WmmseState, taylor: PrecoderSet,
                         stats: AuStatistics, config: SolveConfig) -> cvx.ConvexSubproblem:
    K, L, sw = layout.K, layout.L, layout.slot_width
    Rc, Rp, v_c, v_p, r_c, r_p = _surrogate_coefficients(samples, state)
    x = layout.x_cols

    obj_quads = []
    q_cons: List[cvx.QConstraint] = []
    a_cons: List[cvx.AConstraint] = []
    for n in range(layout.N):
        cols = layout.prec_cols_of(n)
        lead = sw if layout.rsma else 0  # common slot carries no private-MSE power
        Q = np.zeros((cols.size, cols.size))
        Q[lead:, lead:] = np.kron(np.eye((cols.size - lead) // sw), Rp[:, n].sum(axis=0))
        obj_quads.append(cvx.QuadTerm(cols, Q))
        if layout.rsma:
            bc = np.concatenate([x[:, n], layout.pc_cols[n]])
            for k in range(K):
                coef = np.concatenate([np.ones(K), 2.0 * _revec(v_c[k, n])])
                q_cons.append(cvx.QConstraint(
                    cvx.QuadTerm(cols, np.kron(np.eye(cols.size // sw), Rc[k, n])),
                    cvx.Affine(bc, coef, 1.0 - float(r_c[k, n]))))

    thr = config.thresholds
    if thr is not None and L:
        for l in range(L):
            for j, n in enumerate(stats.pilot_idx):
                if thr[l, j] <= 0.0:
                    continue
                jcols, coef, c0 = linearize_jamming(layout, taylor, stats.R[l, n], int(n))
                a_cons.append(cvx.AConstraint(cvx.Affine(jcols, coef, c0), float(thr[l, j])))

    q_cons.append(cvx.QConstraint(
        cvx.DiagTerm(layout.prec_cols, np.ones(layout.prec_cols.size)),
        cvx.Affine.constant(config.P_t)))

    return cvx.ConvexSubproblem(
        n_vars=layout.n_vars,
        objective=cvx.Objective(tuple(obj_quads), cvx.Affine(
            np.concatenate([layout.p_cols.ravel(), x.ravel()]),
            np.concatenate([-2.0 * _revec(v_p).ravel(), np.ones(x.size)]),
            float(np.sum(r_p)))),
        q_constraints=q_cons,
        a_constraints=a_cons,
        sign_constraints=x.T.ravel(),
        blocks=layout.blocks,
        var_scale=layout.var_scale(config.P_t),
    )


# ---------------------------------------------------------------------------
# the WMMSE/SCA loop


def _project_power(precoders: PrecoderSet, P_t: float) -> PrecoderSet:
    total = precoders.total_power()
    if total > P_t:
        return precoders.scaled(P_t / total)
    return precoders


def _wsr_nats(state: WmmseState, X: Optional[np.ndarray]) -> float:
    """Sampled private mutual information plus the common-rate split, in nats,
    at the point where ``state`` was computed."""
    wsr = float(np.sum(np.mean(np.log(state.u_p), axis=0)))
    if X is not None:
        wsr -= float(np.sum(X))
    return wsr


def _max_violation(precoders: PrecoderSet, stats: AuStatistics,
                   config: SolveConfig) -> float:
    """Worst shortfall of the true (not linearized) focused power, plus any
    power-budget excess."""
    viol = max(precoders.total_power() - config.P_t, 0.0)
    thr = config.thresholds
    if thr is not None and stats.L:
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                if thr[l, j] <= 0.0:
                    continue
                lam = jamming_power_avg(stats.R[l, int(n)], precoders, int(n))
                viol = max(viol, thr[l, j] - lam)
    return viol


def _clamp_split(state: WmmseState, X: np.ndarray) -> np.ndarray:
    """Shrink the common-rate split where needed so every subcarrier's total
    stays decodable by the weakest user (a no-op for converged solutions)."""
    cap = np.min(np.mean(np.log(state.u_c), axis=0), axis=0)  # (N,), nats
    C = -X
    total = C.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(total > 1e-30, np.minimum(
            1.0, np.maximum(cap - 1e-9, 0.0) / np.where(total > 1e-30, total, 1.0)), 1.0)
    return -(C * factor[None, :])


def _accept_solve(res: cvx.SolverResult, config: SolveConfig,
                  jam_margin: float) -> None:
    """Allow near-feasible stalled solves; the extraction step repairs the
    power budget, sign, and split constraints, and the threshold tightening
    absorbs a shortfall on the focused-power floors up to ``jam_margin``."""
    if res.status == "optimal":
        return
    for _, kind, value in res.violations:
        if kind.startswith("a["):
            if value > 0.9 * jam_margin:
                raise OptimizerError(
                    f"focused-power floor missed beyond repair: {kind} by {value:.3e}")
        elif value > 1e-3 * (1.0 + config.P_t):
            raise OptimizerError(
                f"subproblem solve failed: {kind} violated by {value:.3e}")
    if res.status == "infeasible":
        raise OptimizerError(f"subproblem infeasible: {res.violations[:4]}")


def _optimize_single(csit: CsitModel, stats: AuStatistics, config: SolveConfig,
                     trace_sink: Optional[Callable[[dict], None]]) -> OptimizeResult:
    samples = draw_csit_samples(csit, config.M, config.seed)
    rsma = config.scheme == "RSMA"
    layout = VariableLayout(csit.n_t, csit.N, csit.K, stats.L,
                            stats.pilot_idx, rsma)
    prec = initialize(csit, stats, config)
    X = np.zeros((csit.K, csit.N)) if rsma else None

    # The solver meets constraints to a tolerance that scales with their
    # magnitude; tightening the floors by that much keeps the true focused
    # power above the requested threshold with room to spare.
    floored = config.thresholds is not None and config.thresholds.size > 0
    tight_config = config
    jam_margin = 0.0
    if floored:
        thr = config.thresholds
        jam_margin = 10.0 * config.solver_tol * (1.0 + max(float(thr.max()), config.P_t))
        tight_config = dataclasses.replace(
            config, thresholds=np.where(thr > 0.0, thr + jam_margin, thr))

    state = _wmmse_state(samples, prec)
    wsr_prev = 0.0
    converged = False
    wsr_trace: List[float] = []
    solver_status_flags: List[str] = []
    outer_done = 0

    for i in range(config.max_outer):
        # prec is both the point of the weights and filters and the Taylor
        # point of the floors, so one solve refreshes all three together
        prob = _assemble_subproblem(layout, samples, state, prec, stats, tight_config)
        res = cvx.solve(prob, tol=config.solver_tol)
        outer_done = i + 1
        if res.status != "optimal":
            _accept_solve(res, config, jam_margin)
            solver_status_flags.append(f"{i}:{res.status}")
        new_prec, new_X = layout.unpack(res.primal)
        new_prec = _project_power(new_prec, config.P_t)
        if new_X is not None:
            new_X = np.minimum(new_X, 0.0)
        # a candidate is accepted only if it passes both checks below; each
        # failure is reachable only through solver slop or the repairs above,
        # so progress is exhausted and the running point is kept
        if floored and (_max_violation(new_prec, stats, config)
                        > 1e-9 * (1.0 + float(config.thresholds.max()))):
            converged = True
            break
        new_state = _wmmse_state(samples, new_prec)
        wsr = _wsr_nats(new_state, new_X)
        if wsr < wsr_prev - 1e-9 and i > 0:
            converged = True
            break
        prec, X, state = new_prec, new_X, new_state
        wsr_trace.append(wsr)
        if trace_sink is not None:
            trace_sink({
                "outer": i, "wsr_nats": wsr,
                "max_violation": _max_violation(prec, stats, config),
            })
        if abs(wsr - wsr_prev) <= config.eps_r:
            converged = True
            break
        wsr_prev = wsr

    if X is not None:
        X = _clamp_split(state, X)
    split = CommonSplitVars(X=X if X is not None else np.zeros((csit.K, csit.N)))
    diagnostics = {
        "converged": converged,
        "outer_iterations": outer_done,
        "wsr_trace_nats": wsr_trace,
        "max_violation": _max_violation(prec, stats, config),
        "solver_flags": solver_status_flags,
        "scheme": config.scheme,
    }
    report = rate_report(samples, prec, split.C_bits, stats=stats,
                         diagnostics=diagnostics)
    return OptimizeResult(precoders=prec, split=split, report=report,
                          converged=converged, outer_iterations=outer_done)


def optimize(csit: CsitModel, stats: AuStatistics, config: SolveConfig,
             trace_sink: Optional[Callable[[dict], None]] = None,
             restricted: Optional[OptimizeResult] = None) -> OptimizeResult:
    """Run the full alternating optimization and return converged precoders,
    the common-rate split, and a rate report evaluated on the same samples.

    A run with the common stream enabled also evaluates the common-stream-off
    restriction of the same instance (every such solution is feasible for the
    richer scheme with a zero split) and returns whichever endpoint achieves
    the higher sum rate, so enabling the common stream can never hurt.  A
    caller that already solved the restriction can pass it as ``restricted``.

    Raises InfeasibleError when no feasible starting point exists and
    OptimizerError when a subproblem solve fails beyond repair; hitting the
    iteration caps returns the best iterate with ``converged=False``.
    """
    if config.scheme != "RSMA":
        return _optimize_single(csit, stats, config, trace_sink)
    full = _optimize_single(csit, stats, config, trace_sink)
    if restricted is None:
        restricted = _optimize_single(csit, stats, sdma_restrict(config), None)
    if restricted.report.R_sum <= full.report.R_sum:
        full.report.diagnostics["restricted_sum_rate"] = restricted.report.R_sum
        return full
    report = dataclasses.replace(
        restricted.report,
        diagnostics=dict(restricted.report.diagnostics,
                         fallback_from="RSMA",
                         unrestricted_sum_rate=full.report.R_sum,
                         scheme="RSMA"))
    return OptimizeResult(
        precoders=restricted.precoders,
        split=CommonSplitVars(X=np.zeros((csit.K, csit.N))),
        report=report,
        converged=restricted.converged,
        outer_iterations=restricted.outer_iterations,
    )
