"""Alternating precoder optimization for joint communications and jamming.

The nonconvex sum-mutual-information problem is handled by one loop.  Each
iteration refreshes the per-sample MMSE filters and weights at the running
point (turning the rate objective into an augmented weighted-MSE surrogate,
tight there), linearizes the focused-power constraint at the same point (an
inner approximation of the true floors that contains it), and solves the
resulting convex subproblem once, so the sampled sum rate never decreases.
Successive subproblems differ only in these refreshed terms, so each solve
after a run's first, in every sample stage, is warm-started from the last
(optimal) solve.  After each solve that still makes progress, a safeguarded
extrapolation step y = z_k + _BETA (z_k - z_{k-1}) from the last two solves'
precoders, projected onto the power budget, replaces the running point only if
it meets the true floors and raises the sampled sum rate, and so becomes the
point of the next iteration's weights.  The projection first scales every
subcarrier; if that pushes a focused power under its floor, it scales only the
subcarriers that carry no floor instead.  With a common stream the step takes
the largest common rate its weakest user decodes, so common-stream power it
adds counts.  The surrogate is tight at the running point either way, so the
ascent stays monotone.
Channel uncertainty enters through sample averaging over draws from the CSI
error model, which ``draw_csit_samples`` stores subcarrier-major (contiguous
as (K, N, n_t, M)).  Every sampled pass walks the draws in fixed-size chunks
(``channel._chunk_sums``, 256 KiB of samples each) and keeps only
per-(user, subcarrier) sums, divided by M once, so no per-sample array
outlives its chunk and a pass needs the draws plus one chunk's temporaries
whatever M is.  There are two passes.  The WSR-only pass (``_sampled_info``)
gives a point's sampled mutual informations, a ``WmmseState``; it scores
every solve point and every extrapolation candidate.  The fused pass
(``_surrogate``) runs once per iteration at the running point and adds up
the surrogate's grams, linear terms and constants from each chunk's MMSE
weights and filters (the per-chunk kernels ``_wmmse_state`` and
``_surrogate_coefficients``).  Draws that fit in one chunk are one pass of
a few batched matmuls, as before chunking, with the same bits.  Large sample
sets are ascended in stages (sample-size continuation): the loop first runs on
a view of the first M/4^j draws, for every j that leaves at least 1,024
draws, each stage starting where the smaller one ended, and finishes with the
unchanged full-M loop, so early iterations far from the optimum cost a
fraction of a full pass (Homem-de-Mello, "Variable-sample methods for
stochastic optimization", ACM TOMACS 2003).  Below 4,096 draws there is one
stage.

The samples and floors are built once per ``optimize`` call and shared by an
RSMA run and its SDMA restriction: the draws as one array, whose stages ascend
on prefix views of it, and the focused-power floors as one ``_Floors`` object,
built from the statistics, thresholds and budget: the active (adversary,
pilot) pairs as arrays, the floor-free subcarriers, the check tolerance and the
subproblems' margin (both scaled to the larger of the budget and the largest
floor) and each block group's floor rows.  Every consumer evaluates or
linearizes all floors in one batched call.

An RSMA run not handed its SDMA restriction starts it from its own endpoint,
the common stream's power moved onto each subcarrier's private streams
(a reverse continuation), or from ``initialize`` if that misses a floor.

Internal bookkeeping uses natural logarithms, for which the weight u = 1/mse
is the exact stationary point of u*mse - ln(u) and the optimized surrogate
equals 1 - (mutual information in nats); rates are converted to bits only at
reporting time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._checks import finite_array, is_int, real
from .channel import AuStatistics, CsitModel, _chunk_sums, draw_csit_samples
from .metrics import (_LN2, _SPLIT_TOL, NOISE_VAR, PrecoderSet, RateReport, jamming_power_avg,
                      rate_report, stream_mses)
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

_SOLVER_TOL = 1e-7    # scaled KKT tolerance of every subproblem solve

# the names of report.diagnostics["counts"]: extrapolation outcomes, cold
# retries, the exits of every IPM solve, the ascent's early stops, the
# repairs of a solve point's split (clip) and of the final split (clamp), and
# whether an RSMA run returned its SDMA restriction
_COUNTERS = ("extrapolation_accepted", "extrapolation_rate_rejected",
            "extrapolation_floor_rejected", "extrapolation_free_projected",
            "solve_cold_retry", "ipm_optimal", "ipm_infeasible", "ipm_non_finite",
            "ipm_max_iter", "stop_solve_failed", "stop_floor_shortfall", "stop_wsr_decrease",
            "split_clipped", "split_clamped", "rsma_fallback")


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

    def __post_init__(self):
        for name in ("P_t", "eps_r"):
            real(getattr(self, name), name, "be positive and finite", gt=0.0)
        if self.scheme not in ("RSMA", "SDMA"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        counts = (self.M, self.max_outer, self.seed)
        if not (all(map(is_int, counts)) and min(counts[:2]) >= 1 and self.seed >= 0):
            raise ValueError(f"M, max_outer and seed must be integers, M and max_outer >= 1 "
                             f"and seed >= 0, got {counts}")
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", finite_array(
                self.thresholds, "thresholds", ge=0.0, rule="be finite and nonnegative"))


def sdma_restrict(config: SolveConfig) -> SolveConfig:
    """The same run with the common stream turned off."""
    return dataclasses.replace(config, scheme="SDMA")


@dataclass
class WmmseState:
    """The sampled mutual informations (nats) of the common (c) and private
    (p) streams at one point, mean ln u over the samples with u = 1/mse the
    MSE weight, shaped (K, N): all a run keeps of a point between sampled
    passes.  ``_sampled_info`` computes it."""

    info_c: np.ndarray
    info_p: np.ndarray


@dataclass
class CommonSplitVars:
    """Negated common-rate portions X = -C (nats); feasible iff X <= 0."""

    X: np.ndarray

    def __post_init__(self):
        self.X = finite_array(self.X, "X", le=_SPLIT_TOL, rule="be finite and <= 0")

    @property
    def C_bits(self) -> np.ndarray:
        # 0.0 - X, not -X: a zero split reads +0.0 bits, not -0.0
        return (0.0 - self.X) / _LN2


@dataclass
class OptimizeResult:
    precoders: PrecoderSet
    split: CommonSplitVars
    report: RateReport
    status: str                 # optimal | maxiter | solve_failed: the final stage's exit
    outer_iterations: int

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


# ---------------------------------------------------------------------------
# weight / filter updates


def _wmmse_state(chunk: np.ndarray, precoders: PrecoderSet) -> tuple:
    """Per-chunk kernel of the fused pass: the augmented-MSE weights at
    precoders of every sample of chunk (m draws), with u = 1/mse the MSE
    weight and g the MMSE filter.  Returns (w_c, a_c, w_p, a_p, r_c, r_p):
    w_* = u|g|^2 (real) and a_* = u g^* (complex) per (user, subcarrier,
    sample), shaped (K, N, m), and r_* the chunk sums of u(|g|^2 N0 + 1),
    shaped (K, N)."""
    _, _, hp_c, hp_own, T_c, T_p = (a.transpose(1, 2, 0) for a in stream_mses(chunk, precoders))
    # u_c = T_c/T_p, g_c = (h^H p_c)^*/T_c and u_p = T_p/D, g_p = (h^H p_k)^*/T_p
    # with D = T_p - |h^H p_k|^2, so the weights need no complex division
    P_c = hp_c.real ** 2 + hp_c.imag ** 2
    P_own = hp_own.real ** 2 + hp_own.imag ** 2
    D = T_p - P_own
    w_c, w_p = P_c / (T_p * T_c), P_own / (T_p * D)
    return (w_c, hp_c / T_p, w_p, hp_own / D, np.sum(w_c * NOISE_VAR + T_c / T_p, axis=-1),
            np.sum(w_p * NOISE_VAR + T_p / D, axis=-1))


def _sampled_info(samples: np.ndarray, precoders: PrecoderSet) -> WmmseState:
    """The WSR-only pass: the sampled mutual informations at precoders, the
    chunk sums of ln u added up and divided by M once."""
    def part(chunk):
        eps_c, eps_p = (a.transpose(1, 2, 0) for a in stream_mses(chunk, precoders)[:2])
        return np.sum(np.log(eps_c), axis=-1), np.sum(np.log(eps_p), axis=-1)

    sum_c, sum_p = _chunk_sums(samples, part)
    M = samples.shape[0]
    return WmmseState(info_c=-(sum_c / M), info_p=-(sum_p / M))


# ---------------------------------------------------------------------------
# thresholds


def threshold_strategy(strategy: int, pilot_count: int, N: int, base_rho: float = 0.9) -> float:
    """Threshold strictness: proportional to the pilot count (1) or constant (2),
    clamped to [0, 1]; a non-finite base_rho raises."""
    if not 1 <= pilot_count <= N:
        raise ValueError(f"pilot_count must lie in 1..N = {N}, got {pilot_count!r}")
    real(base_rho, "base_rho", "be finite")
    if strategy == 1:
        rho = base_rho * pilot_count / (N / 2.0)
    elif strategy == 2:
        rho = base_rho
    else:
        raise ValueError(f"unknown threshold strategy {strategy!r}")
    return float(min(1.0, max(0.0, rho)))


def jamming_threshold(rho: float, P_t: float, pilot_count: int, L: int, tau):
    """Per-pilot focused-power floor: rho * (P_t / (pilot_count * L)) * tau."""
    real(rho, "rho", "lie in [0, 1]", ge=0.0, le=1.0)
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

    streams[n, s] marks the streams on subcarrier n, rows s of
    ``PrecoderSet.q[n]``: the common one (RSMA only), the private ones and the
    jamming ones (pilots only).  Each occupies 2n_t
    columns slots[n, s] = [Re q; Im q] (-1 where absent), numbered stream by
    stream, each stream subcarrier by subcarrier; then comes the split X (N,),
    one total per subcarrier, RSMA only.  blocks[n] gathers subcarrier n's
    columns: its streams in order, then its split.
    """

    def __init__(self, n_t: int, N: int, K: int, L: int,
                 pilot_idx: np.ndarray, rsma: bool):
        self.n_t, self.N, self.K, self.L, self.rsma = n_t, N, K, L, rsma
        self.pilot_idx = np.asarray(pilot_idx, dtype=np.int64)
        w = self.slot_width = 2 * n_t
        streams = self.streams = np.zeros((N, 1 + K + L), dtype=bool)
        streams[:, 0] = rsma
        streams[:, 1:1 + K] = True
        streams[self.pilot_idx, 1 + K:] = True
        first = w * (np.cumsum(streams.T).reshape(streams.T.shape).T - 1)
        self.slots = np.where(streams[..., None], first[..., None] + np.arange(w), -1)
        self.prec_cols = np.arange(w * int(streams.sum()))
        self.x_cols = self.prec_cols.size + np.arange(N if rsma else 0)
        self.n_vars = self.prec_cols.size + self.x_cols.size
        self.blocks: List[np.ndarray] = [
            np.concatenate([self.prec_cols_of(n), self.x_cols[n:n + 1]]) for n in range(N)]

    def prec_cols_of(self, n: int) -> np.ndarray:
        return self.slots[n, self.streams[n]].ravel()

    def var_scale(self, P_t: float) -> np.ndarray:
        """z = var_scale * y: the subproblems' precoder entries y are z / sqrt(P_t)."""
        s = np.ones(self.n_vars)
        s[self.prec_cols] = np.sqrt(P_t)
        return s

    # conversions -----------------------------------------------------------

    def pack(self, precoders: PrecoderSet, X: Optional[np.ndarray]) -> np.ndarray:
        """Solver vector of the precoders and the (N,) split; SDMA ignores X."""
        z = np.empty(self.n_vars)
        z[self.slots[self.streams]] = _revec(precoders.q[self.streams])
        if self.rsma:
            if np.shape(X) != (self.N,):
                raise ValueError(f"split has shape {np.shape(X)}, expected ({self.N},)")
            z[self.x_cols] = X
        return z

    def unpack(self, z: np.ndarray) -> Tuple[PrecoderSet, np.ndarray]:
        """Precoders and (N,) split of z; absent streams and SDMA's split are zero."""
        nt = self.n_t
        q = np.zeros((self.N, 1 + self.K + self.L, nt), dtype=np.complex128)
        zs = z[self.slots[self.streams]]
        q[self.streams] = zs[:, :nt] + 1j * zs[:, nt:]
        X = z[self.x_cols] if self.rsma else np.zeros(self.N)
        return PrecoderSet.stacked(q, self.K), X


def linearize_jamming(layout: VariableLayout, precoders_t: PrecoderSet,
                      R: np.ndarray, n: np.ndarray):
    """First-order lower bounds of F >= 1 focused powers at the running point,
    for covariances R (F, n_t, n_t) on subcarriers n (F,) that carry the same
    streams (as all pilots do).  Returns (cols, coef, const) with a leading
    floor axis: coef[i] @ z[cols[i]] + const[i] is floor i's linearized power,
    exact at the expansion point and never above the true quadratic."""
    n = np.asarray(n)
    F, on = n.size, layout.streams[n]
    q = precoders_t.q[n][on].reshape(F, -1, layout.n_t)
    Rq = q @ np.swapaxes(R, -1, -2)            # row s: R q_s
    # a (1, m) @ (m, 1) product keeps np.vdot's bits, a sum or einsum does not
    const = -np.real(np.conj(q).reshape(F, 1, -1) @ Rq.reshape(F, -1, 1)).reshape(F)
    return layout.slots[n][on].reshape(F, -1), 2.0 * _revec(Rq).reshape(F, -1), const


# ---------------------------------------------------------------------------
# initialization


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Each vector along v's last axis rotated so its largest entry is real."""
    peak = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return v * np.exp(-1j * np.angle(peak))


class _Floors:
    """A run's active focused-power floors: each (adversary, pilot) pair with a
    positive threshold, adversary-major, as arrays adv, sub (subcarrier),
    value and R (F, n_t, n_t).  count (N,) is each subcarrier's number of
    floors; free marks those with none.  No thresholds means all-zero ones.
    Both tolerances scale with 1 + max(largest threshold, P_t), the size of
    the powers checked: tol is the floor shortfall or budget excess allowed
    before a point counts as missed, and margin raises every floor in the
    subproblems, whose solves meet constraints to a tolerance scaling with
    their size.  rows[nf] (blocks, nf): the floors, adversary order, of the
    subcarriers with nf floors, subcarrier order; one block group's rows."""

    def __init__(self, stats: AuStatistics, thresholds: Optional[np.ndarray], P_t: float):
        shape = (stats.L, stats.pilot_idx.size)
        thr = np.zeros(shape) if thresholds is None else np.asarray(thresholds, dtype=np.float64)
        if thr.shape != shape:
            raise ValueError("thresholds must have shape (L, |pilot_set|)")
        scale = 1.0 + max(float(thr.max(initial=0.0)), P_t)
        self.tol, self.margin = 1e-9 * scale, 10.0 * _SOLVER_TOL * scale
        self.adv, j = np.nonzero(thr > 0.0)
        self.sub, self.value = stats.pilot_idx[j], thr[self.adv, j]
        self.R = stats.R[self.adv, self.sub]
        self.count = np.bincount(self.sub, minlength=stats.N)
        self.free = self.count == 0
        by_sub = np.argsort(self.sub, kind="stable")
        self.rows = {nf: by_sub[self.count[self.sub[by_sub]] == nf].reshape(-1, nf)
                     for nf in set(self.count[self.sub].tolist())}

    def shortfall(self, prec: PrecoderSet, P_t: float) -> float:
        """The worst shortfall of prec's true (not linearized) focused powers
        or its power-budget excess, whichever is larger; 0 if neither."""
        gaps = self.value - jamming_power_avg(self.R, prec, self.sub) if self.sub.size else ()
        return float(max(prec.total_power() - P_t, 0.0, *gaps))

    def missed(self, prec: PrecoderSet, P_t: float) -> bool:
        return self.shortfall(prec, P_t) > self.tol


def initialize(csit: CsitModel, stats: AuStatistics, config: SolveConfig) -> PrecoderSet:
    """Feasible starting point: jamming precoders meet every focused-power
    floor with equality along the dominant covariance eigenvector; half the
    remaining power drives the common stream along the dominant left singular
    vector of the stacked channel estimates, half spreads equally over
    matched-filter private precoders."""
    return _initialize(csit, stats, config, _Floors(stats, config.thresholds, config.P_t))


def _initialize(csit: CsitModel, stats: AuStatistics, config: SolveConfig,
                floors: _Floors) -> PrecoderSet:
    """``initialize`` with the run's floors already built."""
    K, N, n_t = csit.K, csit.N, csit.n_t
    rsma = config.scheme == "RSMA"
    power = floors.value / stats.tau[floors.adv, floors.sub]
    q = np.zeros((N, 1 + K + stats.L, n_t), dtype=np.complex128)
    q[floors.sub, 1 + K + floors.adv] = np.sqrt(power)[:, None] * _phase_fix(
        np.linalg.eigh(floors.R)[1][..., -1])
    # summed in floor order: np.sum's pairwise order moves the last bits
    jam_power = float(np.cumsum(np.append(0.0, power))[-1])
    if jam_power > config.P_t * (1.0 + 1e-12):
        raise InfeasibleError(
            f"jamming floors need power {jam_power:.6g} > budget {config.P_t:.6g}")

    rem = max(config.P_t - jam_power, 0.0)
    p_common = rem / 2.0 if rsma else 0.0
    p_private = rem - p_common
    for n in range(N):
        if rsma and p_common > 0.0:
            u_mat, *_ = np.linalg.svd(csit.h_hat[:, n, :].T, full_matrices=False)
            q[n, 0] = np.sqrt(p_common / N) * _phase_fix(u_mat[:, 0])
        for k in range(K):
            hk = csit.h_hat[k, n]
            nrm = np.linalg.norm(hk)
            direction = hk / nrm if nrm > 0.0 else np.eye(n_t)[0]
            q[n, 1 + k] = np.sqrt(p_private / (K * N)) * direction
    return PrecoderSet.stacked(q, K)


def _private_start(endpoint: PrecoderSet) -> PrecoderSet:
    """The common-stream-off point made from an RSMA endpoint: its common row
    zeroed and each subcarrier's private rows scaled so that the subcarrier
    keeps its power; the jamming rows are untouched.  A subcarrier without
    private power keeps zero private rows and so loses its common power."""
    K = endpoint.K
    q = endpoint.q.copy()
    power = np.abs(q[:, :1 + K]) ** 2
    private = np.sum(power[:, 1:], axis=(1, 2))
    scale = np.divide(np.sum(power[:, 0], axis=-1) + private, private,
                      out=np.ones_like(private), where=private > 0.0)
    q[:, 1:1 + K] *= np.sqrt(scale)[:, None, None]
    q[:, 0] = 0.0
    return PrecoderSet.stacked(q, K)


# ---------------------------------------------------------------------------
# subproblem assembly


def _surrogate_coefficients(chunk: np.ndarray, weights) -> tuple:
    """Per-chunk kernel of the fused pass: the chunk sums of the augmented
    MSEs' gram matrices S = sum w h h^H (complex) and linear vectors
    sum h a, per (user, subcarrier), for the weights (w_c, a_c, w_p, a_p) of
    its samples: batched matmuls over the (K, N, n_t, m) transpose of chunk."""
    w_c, a_c, w_p, a_p = weights
    h = chunk.transpose(1, 2, 3, 0)
    wh = np.empty(h.shape, dtype=np.complex128)

    def gram(w):
        # conj(w h) @ h^T = conj(S) = S^T; conjugating the weighted copy keeps
        # every matmul operand a plain or transposed view
        np.multiply(h, w[:, :, None], out=wh)
        np.conj(wh, out=wh)
        return (wh @ h.swapaxes(-1, -2)).swapaxes(-1, -2)

    def linear(a):
        return (h @ a[..., None])[..., 0]

    return gram(w_c), gram(w_p), linear(a_c), linear(a_p)


def _surrogate(samples: np.ndarray, precoders: PrecoderSet, state: WmmseState) -> tuple:
    """The fused pass: the surrogate's sample-averaged coefficients at
    precoders, whose sampled information is ``state``, added up chunk by
    chunk and divided by M once.  Returns (S_c, S_p, v_c, v_p, r_c, r_p): the
    common and private gram matrices (K, N, n_t, n_t) complex, linear vectors
    (K, N, n_t) and constants mean u(|g|^2 N0 + 1) - ln u (K, N)."""
    def part(chunk):
        weights = _wmmse_state(chunk, precoders)
        return _surrogate_coefficients(chunk, weights[:4]) + weights[4:]

    S_c, S_p, v_c, v_p, r_c, r_p = (t / samples.shape[0] for t in _chunk_sums(samples, part))
    return S_c, S_p, v_c, v_p, r_c - state.info_c, r_p - state.info_p


def _assemble_subproblem(layout: VariableLayout, coefficients: tuple,
                         taylor: PrecoderSet, floors: _Floors,
                         P_t: float) -> cvx.ConvexSubproblem:
    """The convex subproblem in the solver's stacked form, over y = z / layout.var_scale(P_t).

    ``coefficients`` are the surrogate's sample averages as ``_surrogate``
    returns them, at the same point as ``taylor``.

    Block n is subcarrier n (``layout.blocks[n]``).  Its objective is the
    private augmented MSE, and its rows are, in order: the K common-MSE
    bounds (RSMA), its floors linearized at ``taylor`` and raised by
    ``floors.margin`` (adversary order), and the sign of its split (RSMA).
    Subcarriers with the same streams and floor count share a group.  The
    total-power budget is the spanning diagonal row.
    """
    K, N, sw, x = layout.K, layout.N, layout.slot_width, int(layout.rsma)
    S_c, S_p, v_c, v_p, r_c, r_p = coefficients
    Rc, Rp = _realrep(S_c), _realrep(S_p)
    s = np.sqrt(P_t)       # the scale of every precoder entry
    s2 = s * s
    if floors.rows:
        # floors sit on pilots only, which carry the same streams: one call
        # linearizes them all, and the subcarriers with nf floors form a group
        _, coef, c = linearize_jamming(layout, taylor, floors.R, floors.sub)
        a_lin, a_const = -coef * s, (floors.value + floors.margin) - c
    keys = [(int(layout.streams[n].sum()), int(floors.count[n])) for n in range(N)]

    groups = []
    for S, nf in sorted(set(keys)):
        ns = [n for n in range(N) if keys[n] == (S, nf)]
        nb, wp, kc = len(ns), S * sw, K * x    # blocks, precoder width, common rows
        w, k = wp + x, kc + nf + x
        quad = np.zeros((nb, 1 + k, w, w))
        lin = np.zeros((nb, k, w))
        const = np.zeros((nb, k))
        # the (sw, sw) diagonal tile of stream t in quadratic r is tiles[:, r, t]:
        # the objective (r = 0) and the common-MSE rows are block-diagonal
        tiles = np.einsum("...jkjl->...jkl", quad[..., :wp, :wp].reshape(nb, 1 + k, S, sw, S, sw))
        # the common slot carries no private-MSE power
        tiles[:, 0, x:] = (Rp[:, ns].sum(axis=0) * s2)[:, None]
        if x:
            tiles[:, 1:1 + K] = (Rc[:, ns].swapaxes(0, 1) * s2)[:, :, None]
            lin[:, :K, :sw] = -2.0 * _revec(v_c[:, ns].swapaxes(0, 1)) * s
            lin[:, :K, wp] = -1.0
            const[:, :K] = -(1.0 - r_c[:, ns].T)
            lin[:, -1, wp] = 1.0
        if nf:
            lin[:, kc:kc + nf, :wp] = a_lin[floors.rows[nf]]
            const[:, kc:kc + nf] = a_const[floors.rows[nf]]
        groups.append(cvx.BlockGroup(np.stack([layout.blocks[n] for n in ns]), quad, lin,
                                     const, ("q",) * kc + ("a",) * nf + ("sign",) * x))

    q0 = np.zeros(layout.n_vars)
    q0[layout.slots[:, 1:1 + K].swapaxes(0, 1)] = -2.0 * _revec(v_p) * s
    q0[layout.x_cols] = 1.0
    budget = np.zeros(layout.n_vars)
    budget[layout.prec_cols] = s2
    return cvx.ConvexSubproblem(groups=groups, q0=q0, c0=float(np.sum(r_p)), budget=budget,
                                budget_const=-P_t)


# ---------------------------------------------------------------------------
# the WMMSE/SCA loop


def _project_power(precoders: PrecoderSet, P_t: float) -> PrecoderSet:
    total = precoders.total_power()
    if total > P_t:
        return precoders.scaled(P_t / total)
    return precoders


def _project_floor_free(precoders: PrecoderSet, P_t: float,
                        free: np.ndarray) -> Optional[PrecoderSet]:
    """The budget projection that leaves the floor-carrying subcarriers alone:
    only the subcarriers marked in ``free`` (N,) are scaled, so the total is
    exactly P_t and every other precoder is bitwise untouched.  A point inside
    the budget comes back unchanged.  None when no subcarrier carries a floor
    (the uniform projection is then the same thing) or when the free
    subcarriers hold no more power than the excess."""
    if free.all():
        return None
    excess = precoders.total_power() - P_t
    if excess <= 0.0:
        return precoders
    free_power = float(np.sum(np.abs(precoders.q[free]) ** 2))
    if free_power <= excess:
        return None
    s = np.where(free, np.sqrt((free_power - excess) / free_power), 1.0)[:, None, None]
    return PrecoderSet.stacked(s * precoders.q, precoders.K)


def _wsr_nats(state: WmmseState, X: np.ndarray) -> float:
    """Sampled private mutual information plus the common-rate split, in nats,
    at the point where ``state`` was computed."""
    return float(np.sum(state.info_p)) - float(np.sum(X))


def _split_capacity(state: WmmseState) -> np.ndarray:
    """Each subcarrier's largest common-rate total (nats, >= 0) that the
    weakest user decodes, less a 1e-9 margin."""
    return np.maximum(np.min(state.info_c, axis=0) - 1e-9, 0.0)


def _clamp_split(state: WmmseState, X: np.ndarray) -> np.ndarray:
    """Cap each subcarrier's common-rate total at what the weakest user can
    decode (a no-op for converged solutions)."""
    return np.maximum(X, -_split_capacity(state))


# extrapolation weight of every step
_BETA = 1.5

# sample-size continuation: each stage ascends on _STAGE_RATIO times fewer
# draws than the next, and no stage has fewer than _STAGE_MIN draws
_STAGE_RATIO, _STAGE_MIN = 4, 1024


def _extrapolate(samples: np.ndarray, prev: PrecoderSet, cur: PrecoderSet,
                 X: np.ndarray, state: WmmseState, wsr: float, short: float,
                 config: SolveConfig, floors: _Floors):
    """The safeguarded step from the accepted solve ``cur`` (split X, state,
    sampled WSR wsr, ``floors.shortfall`` short) away from the previous solve
    ``prev``: y = cur + _BETA (cur - prev) on every precoder, scaled onto the
    power budget.  The first candidate scales y uniformly; if it misses a true
    floor by more than ``floors.tol``, the second scales only the
    ``floors.free`` subcarriers, which carry no floor, as the raw y usually
    still meets the floors that the uniform scaling breaks (the focused power
    is convex).  The floors come first because they cost no sampled pass.  An
    RSMA candidate takes the full-capacity split, the common rate y's weakest
    user decodes, which is feasible for the next subproblem; SDMA keeps X.  The
    candidate replaces cur only if its sampled WSR beats wsr, which costs one
    WSR-only pass.  Returns the running point (precoders, split, state, wsr,
    shortfall), the counter name of the outcome and whether the rate of the
    second candidate was tested."""
    raw = PrecoderSet.stacked(cur.q + _BETA * (cur.q - prev.q), cur.K)
    y = _project_power(raw, config.P_t)
    free_projected = False
    short_y = floors.shortfall(y, config.P_t)
    if short_y > floors.tol:
        # a raw y inside the budget was not scaled, so it has no second candidate
        y = _project_floor_free(raw, config.P_t, floors.free) if y is not raw else None
        short_y = np.inf if y is None else floors.shortfall(y, config.P_t)
        if short_y > floors.tol:
            return cur, X, state, wsr, short, "extrapolation_floor_rejected", False
        free_projected = True
    state_y = _sampled_info(samples, y)
    X_y = -_split_capacity(state_y) if config.scheme == "RSMA" else X
    wsr_y = _wsr_nats(state_y, X_y)
    if wsr_y <= wsr:
        return cur, X, state, wsr, short, "extrapolation_rate_rejected", free_projected
    return y, X_y, state_y, wsr_y, short_y, "extrapolation_accepted", free_projected


def _sample_stages(M: int) -> List[int]:
    """Draw counts of the continuation's stages, smallest first: M / 4^j for
    every j >= 0 that leaves at least _STAGE_MIN draws, so M alone below
    _STAGE_RATIO * _STAGE_MIN."""
    stages = [M]
    while stages[0] // _STAGE_RATIO >= _STAGE_MIN:
        stages.insert(0, stages[0] // _STAGE_RATIO)
    return stages


def _optimize_single(csit: CsitModel, stats: AuStatistics, config: SolveConfig,
                     draws: np.ndarray, floors: _Floors,
                     start: Optional[PrecoderSet] = None) -> OptimizeResult:
    """One run of ``config.scheme`` on ``draws`` (config.M samples) from
    ``start``, or from ``initialize`` without one; the split starts at zero
    either way.

    Sample-size continuation: stage j ascends on the first
    ``_sample_stages(config.M)[j]`` draws, far from the optimum where fewer
    draws point the same way, from where stage j - 1 ended, its first solve
    warm-started from stage j - 1's last.  Stage j of S ends at global outer
    iteration ``config.max_outer - (S - 1 - j)``, leaving one iteration for
    every later stage, so the last, full-M stage always runs; with
    ``max_outer`` below S the smallest stages are skipped.  The result's
    ``status`` is the last stage's exit."""
    layout = VariableLayout(csit.n_t, csit.N, csit.K, stats.L, stats.pilot_idx,
                            config.scheme == "RSMA")
    scale = layout.var_scale(config.P_t)
    counts, solver_flags, ran, trace = dict.fromkeys(_COUNTERS, 0), [], [], []
    prec = _initialize(csit, stats, config, floors) if start is None else start
    X = np.zeros(csit.N)
    stages = _sample_stages(config.M)
    outer = 0
    warm = None
    for j in range(max(0, len(stages) - config.max_outer), len(stages)):
        samples = draws[:stages[j]]
        state = _sampled_info(samples, prec)
        solved = prec    # the last solve's point, from which the next step extrapolates
        wsr_prev = 0.0
        status = "maxiter"
        first = outer
        for i in range(first, config.max_outer - (len(stages) - 1 - j)):
            # prec is both the point of the weights and filters and the Taylor
            # point of the floors, so one solve refreshes all three together
            prob = _assemble_subproblem(layout, _surrogate(samples, prec, state), prec, floors,
                                        config.P_t)
            res = cvx.solve(prob, tol=_SOLVER_TOL, start=warm)
            counts["ipm_" + res.status] += 1
            if warm is not None and res.status != "optimal":
                # the warm start comes from the last solve, not from the running
                # point an extrapolation step may have moved to; from there the
                # IPM can fail where a cold start does not
                res = cvx.solve(prob, tol=_SOLVER_TOL)
                counts["solve_cold_retry"] += 1
                counts["ipm_" + res.status] += 1
            outer = i + 1
            if res.status != "optimal":
                # only an optimal solve moves the run: the stage ends, unconverged,
                # at the running point, which meets the true floors and budget
                solver_flags.append(f"{i}:{res.status}")
                counts["stop_solve_failed"] += 1
                status = "solve_failed"
                break
            warm = (res.primal, res.multipliers)
            raw_prec, raw_X = layout.unpack(res.primal * scale)
            new_prec, new_X = _project_power(raw_prec, config.P_t), np.minimum(raw_X, 0.0)
            counts["split_clipped"] += bool(np.any(raw_X > 0.0))
            # a candidate is accepted only if it passes both checks below; each
            # failure is reachable only through solver slop, so progress is
            # exhausted and the running point is kept
            short = floors.shortfall(new_prec, config.P_t)
            if short > floors.tol:
                counts["stop_floor_shortfall"] += 1
                status = "optimal"
                break
            new_state = _sampled_info(samples, new_prec)
            wsr = _wsr_nats(new_state, new_X)
            if wsr < wsr_prev - 1e-9 and i > first:
                counts["stop_wsr_decrease"] += 1
                status = "optimal"
                break
            prec, X, state = new_prec, new_X, new_state
            if abs(wsr - wsr_prev) <= config.eps_r:
                status = "optimal"
            else:
                prec, X, state, wsr, short, outcome, free_projected = _extrapolate(
                    samples, solved, prec, X, state, wsr, short, config, floors)
                counts[outcome] += 1
                counts["extrapolation_free_projected"] += free_projected
            solved = new_prec
            # short is the running point's shortfall, computed when it was admitted
            trace.append({"outer": i, "draws": stages[j], "wsr_nats": wsr,
                          "max_violation": short})
            if status == "optimal":
                break
            wsr_prev = wsr
        ran.append([stages[j], outer - first])

    # the rate depends on each subcarrier's total only; report it evenly split.
    # SDMA's split is its exact zeros: the clamp would make them -0.0
    if config.scheme == "RSMA":
        X, unclamped = _clamp_split(state, X), X
        counts["split_clamped"] += bool(np.any(X != unclamped))
    split = CommonSplitVars(X=np.tile(X / csit.K, (csit.K, 1)))
    report = rate_report(draws, prec, split.C_bits, stats=stats)
    report.diagnostics = {
        "status": status,
        "outer_iterations": outer,
        "trace": trace,
        "max_violation": floors.shortfall(prec, config.P_t),
        "solver_flags": solver_flags,
        "counts": counts,
        "sample_stages": ran,
        "scheme": config.scheme,
    }
    return OptimizeResult(precoders=prec, split=split, report=report,
                          status=status, outer_iterations=outer)


def optimize(csit: CsitModel, stats: AuStatistics, config: SolveConfig,
             restricted: Optional[OptimizeResult] = None) -> OptimizeResult:
    """Run the full alternating optimization and return converged precoders,
    the common-rate split, and a rate report evaluated on the same samples.

    Each outer iteration solves one convex subproblem at the running point,
    then tries an extrapolation along the last two solutions' difference.
    The step is scaled onto the power budget uniformly or, if that misses a
    focused-power floor, on the floor-free subcarriers only; with a common
    stream it carries the full split its weakest user decodes.  It is kept
    only if the true (not linearized) focused-power floors hold at it and its
    sampled sum rate beats the solve's; otherwise the solve's point is kept,
    so the sampled sum rate never decreases.  The diagnostics count the kept
    steps, the steps refused on rate and on the floors, and the steps whose
    rate was tested on the floor-free projection under ``counts``, next to
    ``solve_cold_retry``, a cold re-solve of a warm solve that was not
    optimal, and ``ipm_<status>`` every solve by its ``SolverResult.status``.
    Only an optimal solve moves the run; a failed one never raises: the stage
    ends at its running point, which meets the true floors and budget, with
    ``stop_solve_failed`` counted and "iteration:status" in ``solver_flags``.
    So ``ipm_optimal`` + ``stop_solve_failed`` = ``outer_iterations``.  The
    repairs are counted too: ``split_clipped`` the optimal solves with a
    positive split entry set to 0, ``split_clamped`` the final split capped at
    what the weakest user decodes.  ``status`` (also in the diagnostics) names
    the final stage's exit: "optimal" (converged), "solve_failed" (stopped on a
    failed solve) or "maxiter" (capped); ``converged`` is status == "optimal".

    With M >= 4,096 draws the iterations run in stages on the first M/4^j
    draws (each stage at least 1,024), each from the point the last one
    reached, then on all M draws; ``sample_stages`` lists [draws, outer
    iterations] per stage that ran.  ``outer_iterations`` and ``counts``
    cover every stage and stay within ``max_outer``, the full-M stage always
    runs, and ``status`` and the report come from it.  ``trace`` holds one
    record per iteration that moves the run, in every stage: ``outer``, its
    stage's ``draws``, and ``wsr_nats`` and ``max_violation`` at the running
    point; those with ``draws == config.M`` are the full stage's ascent.

    A run with the common stream enabled also evaluates the common-stream-off
    restriction of the same instance, on the same draws (every such solution
    is feasible for the richer scheme with a zero split), and returns whichever
    endpoint achieves the higher sum rate, so enabling the common stream can
    never hurt.  A caller that already solved the restriction passes it as
    ``restricted``, which the RSMA run is then compared with, as
    ``run_experiment`` passes each cell's SDMA run: a result with this
    instance's precoder shape, no common stream or split, that meets its
    floors and budget, else ValueError, as for any ``restricted`` handed to an
    SDMA run, which has no restriction.  Otherwise the restriction starts from the RSMA endpoint with the common
    stream's power moved onto each subcarrier's private streams, or from
    ``initialize`` if that point misses a true floor; ``restriction_start``
    records which (``"endpoint"`` or ``"initialize"``).  From the endpoint
    the restriction polishes the RSMA point, so it is returned more often.
    A returned restriction keeps its own ``trace`` and counts, with the
    counter ``rsma_fallback`` set to 1 (it is 0 on every other run), and adds
    ``fallback_from``, ``unrestricted_sum_rate`` and ``unrestricted_trace``.

    Raises InfeasibleError when no feasible starting point exists; hitting
    the iteration cap returns the running point with status "maxiter".
    """
    draws = draw_csit_samples(csit, config.M, config.seed)
    floors = _Floors(stats, config.thresholds, config.P_t)
    if restricted is not None:
        if config.scheme != "RSMA":
            raise ValueError("an SDMA run takes no restricted result")
        prec = restricted.precoders
        if (prec.K, prec.q.shape) != (csit.K, (csit.N, 1 + csit.K + stats.L, csit.n_t)):
            raise ValueError(f"restricted has precoders {prec.q.shape}, not this instance's")
        if np.any(prec.p_c) or np.any(restricted.split.X):
            raise ValueError("restricted carries a common stream or split")
        if floors.missed(prec, config.P_t):
            raise ValueError("restricted misses this instance's floors or power budget")
    full = _optimize_single(csit, stats, config, draws, floors)
    if config.scheme != "RSMA":
        return full
    extra = {}
    if restricted is None:
        # the restriction flips only the scheme, so the draws and floors carry over
        start = _private_start(full.precoders)
        if floors.missed(start, config.P_t):
            start = None
        restricted = _optimize_single(csit, stats, sdma_restrict(config), draws, floors,
                                      start=start)
        extra["restriction_start"] = "initialize" if start is None else "endpoint"
    if restricted.report.R_sum <= full.report.R_sum:
        full.report.diagnostics.update(restricted_sum_rate=restricted.report.R_sum, **extra)
        return full
    # a copy: a caller's restricted run keeps its own counts
    counts = dict(restricted.report.diagnostics.get("counts", {}), rsma_fallback=1)
    diagnostics = dict(restricted.report.diagnostics, counts=counts, fallback_from="RSMA",
                       scheme="RSMA", unrestricted_sum_rate=full.report.R_sum,
                       unrestricted_trace=full.report.diagnostics["trace"], **extra)
    report = dataclasses.replace(restricted.report, diagnostics=diagnostics)
    return dataclasses.replace(restricted, report=report)
