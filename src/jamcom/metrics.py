"""MMSE, mutual-information, and jamming-power evaluation.

All reported rates are base-2 (bits); the noise variance is fixed to one, so
SNR in dB is 10*log10 of the power budget.  A design's precoders are one
array, :attr:`PrecoderSet.q` (N, 1+K+L, n_t): per subcarrier the common,
private and jamming streams, in that row order, which every evaluation here
indexes directly.  :func:`stream_mses` and
:func:`rate_report` are the one evaluation path: every stream's mutual
information is -log2 of its MMSE-filter MSE, i.e. log2(1 + SINR).  The
independent references they are checked against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._checks import finite_array
from .channel import AuStatistics, ChannelSet, _chunk_sums

__all__ = [
    "PrecoderSet",
    "RateReport",
    "attach_realized_jamming",
    "jamming_power_avg",
    "rate_report",
    "stream_mses",
]

NOISE_VAR = 1.0

_LN2 = float(np.log(2.0))
_SPLIT_TOL = 1e-9    # nats: the most a common-rate split may fall below zero


@dataclass(frozen=True, init=False)
class PrecoderSet:
    """Every precoder of a design, stacked per subcarrier.

    q (N, 1+K+L, n_t) complex: on subcarrier n, row 0 is the common stream,
    rows 1..K the private streams and rows K+1..K+L the jamming streams.  A
    scheme without a common stream carries an all-zero row 0; jamming rows
    vanish outside the pilot set by construction.  Every evaluation here and
    the optimizer's variable layout index q in this row order.  p_c (N, n_t),
    p (K, N, n_t) and f (L, N, n_t) are views of q, read-only attributes
    whose entries write through to q.  ``PrecoderSet(p_c, p, f)`` stacks the
    three parts once; :meth:`stacked` wraps an array already in this order.
    """

    q: np.ndarray
    K: int

    def __init__(self, p_c, p, f):
        p_c, p, f = (np.asarray(a, dtype=np.complex128) for a in (p_c, p, f))
        if p_c.ndim != 2 or p.shape[1:] != p_c.shape or f.shape[1:] != p_c.shape:
            raise ValueError("p_c must be (N, n_t); p and f must be (count, N, n_t)")
        q = np.concatenate([p_c[:, None], p.transpose(1, 0, 2), f.transpose(1, 0, 2)], axis=1)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "K", p.shape[0])

    @classmethod
    def stacked(cls, q: np.ndarray, K: int) -> "PrecoderSet":
        """Wrap q (N, 1+K+L, n_t), complex, in the row order above, uncopied."""
        if q.ndim != 3 or q.dtype != np.complex128 or not 0 <= K < q.shape[1]:
            raise ValueError("q must be complex (N, 1+K+L, n_t)")
        out = cls.__new__(cls)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "K", K)
        return out

    @property
    def p_c(self) -> np.ndarray:
        return self.q[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.q[:, 1:1 + self.K].transpose(1, 0, 2)

    @property
    def f(self) -> np.ndarray:
        return self.q[:, 1 + self.K:].transpose(1, 0, 2)

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.q) ** 2))

    def scaled(self, c: float) -> "PrecoderSet":
        """All precoders multiplied by sqrt(c); powers scale by c."""
        return PrecoderSet.stacked(np.sqrt(c) * self.q, self.K)

    @staticmethod
    def zeros(n_t: int, N: int, K: int, L: int) -> "PrecoderSet":
        return PrecoderSet.stacked(np.zeros((N, 1 + K + L, n_t), dtype=np.complex128), K)


def jamming_power_avg(R: np.ndarray, precoders: PrecoderSet, n):
    """Statistically averaged focused power: sum of q^H R q over all streams
    of subcarrier n; R = g g^H gives the realized power on channel g.  A
    stack of covariances R (..., n_t, n_t) broadcasts against an index array
    n, giving their common shape; one R and one n give a float."""
    q = precoders.q[n]    # each subcarrier's streams contiguous: a lone call's bits
    R = np.asarray(R, dtype=np.complex128)
    out = np.real(np.einsum("...sa,...ab,...sb->...", q.conj(), R, q))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# vectorized sample-averaged evaluation


def stream_mses(samples: np.ndarray, precoders: PrecoderSet):
    """Per-sample MMSE-filter MSEs for the common and private streams.

    samples is any (M, K, N, n_t) array.  Returns (eps_c, eps_p, hp_c, hp_own,
    T_c, T_p): the MSEs, the target-stream inner products h^H p, and the
    total received powers (signal + interference + noise) at the two SIC
    stages, all shaped (M, K, N).  The inner products of every stream come
    from one batched matmul over the (K, N, n_t, M) transpose of samples, so
    a subcarrier-major array (contiguous in that order, as
    ``draw_csit_samples`` stores it) is fastest; the outputs are (M, K, N)
    views of (K, N, M) arrays.
    """
    hs = np.asarray(samples, dtype=np.complex128)
    own = np.arange(hs.shape[1])
    # y[k, n, s] = q_s^H h = conj(h^H q_s) for every stream s of subcarrier n
    y = np.conj(precoders.q) @ hs.transpose(1, 2, 3, 0)        # (K, N, 1+K+L, M)
    pw = y.real ** 2 + y.imag ** 2
    hp_c = np.conj(y[:, :, 0])
    hp_own = np.conj(y[own, :, 1 + own])
    T_p = pw[:, :, 1:].sum(axis=2) + NOISE_VAR  # private stage: common already removed
    T_c = pw[:, :, 0] + T_p                      # common stage: all streams present
    eps_p = (T_p - pw[own, :, 1 + own]) / T_p
    eps_c = T_p / T_c
    return tuple(a.transpose(2, 0, 1) for a in (eps_c, eps_p, hp_c, hp_own, T_c, T_p))


@dataclass
class RateReport:
    """Evaluation of one precoder solution: rates, split, jamming powers.

    Mutual informations are in bits and, under sampled CSI, are averages over
    the sample set.  lambda_avg/lambda_realized are indexed (adversary,
    position-in-pilot-set).
    """

    I_private: np.ndarray               # (K, N) bits
    I_common: np.ndarray                # (K, N) bits
    C: np.ndarray                       # (K, N) bits, common-rate split
    R_k: np.ndarray                     # (K,) private rate per user
    R_sum: float                        # bits per subcarrier
    lambda_avg: Optional[np.ndarray] = None
    lambda_realized: Optional[np.ndarray] = None
    pilot_set: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def common_rate(self) -> float:
        return float(self.C.sum() / self.C.shape[1])


def rate_report(samples: Union[np.ndarray, ChannelSet], precoders: PrecoderSet,
                C: Optional[np.ndarray] = None, *,
                stats: Optional[AuStatistics] = None) -> RateReport:
    """Build a :class:`RateReport` from channels (or CSI samples) and precoders.

    ``samples`` is either a ChannelSet (evaluated as a single realization) or
    an (M, K, N, n_t) sample array, in which case mutual informations are
    sample averages, summed chunk by chunk (``channel._chunk_sums``) so that
    no per-sample array outlives its chunk.  ``C`` is the common-rate split
    in bits, validated against per-subcarrier decodability; omitted means an
    all-private scheme.  A C that is not finite, or below the -1e-9 nats a
    ``CommonSplitVars`` allows, raises ValueError.
    ``stats`` adds the statistically averaged focused power on the pilot set;
    :func:`attach_realized_jamming` adds the realized one afterwards.  The
    report's ``diagnostics`` dict starts empty.
    """
    if isinstance(samples, ChannelSet):
        hs = samples.h[None]
    else:
        hs = np.asarray(samples, dtype=np.complex128)
    M, K, N, _ = hs.shape
    C = finite_array(np.zeros((K, N)) if C is None else C, "C", (K, N), ge=-_SPLIT_TOL / _LN2,
                     rule="be finite and nonnegative")

    def part(chunk):
        eps_c, eps_p, *_ = stream_mses(chunk, precoders)
        return np.sum(-np.log2(eps_p), axis=0), np.sum(-np.log2(eps_c), axis=0)

    I_private, I_common = (t / M for t in _chunk_sums(hs, part))

    slack = I_common.min(axis=0) - C.sum(axis=0)
    if float(slack.min()) < -1e-6:
        n_bad = int(np.argmin(slack))
        raise ValueError(
            f"infeasible common-rate split on subcarrier {n_bad + 1}: "
            f"sum C = {C.sum(axis=0)[n_bad]:.9f} exceeds min-user common MI "
            f"{I_common.min(axis=0)[n_bad]:.9f}")

    R_k = I_private.sum(axis=1) / N
    R_sum = float(np.sum(C) / N + R_k.sum())

    report = RateReport(I_private=I_private, I_common=I_common, C=C, R_k=R_k, R_sum=R_sum)
    if stats is not None:
        pil = stats.pilot_idx
        report.pilot_set = stats.pilot_set
        report.lambda_avg = jamming_power_avg(stats.R[:, pil], precoders, pil)
    return report


def attach_realized_jamming(report: RateReport, channels: ChannelSet,
                            precoders: PrecoderSet) -> RateReport:
    """Fill in the realized focused power from ground-truth adversary channels:
    the average under the rank-one covariances g g^H, per (adversary, pilot)."""
    if channels.g is None:
        raise ValueError("channel set carries no adversary ground truth")
    pil = np.asarray([p - 1 for p in report.pilot_set], dtype=np.int64)
    g = channels.g[:, pil]
    report.lambda_realized = jamming_power_avg(g[..., :, None] * g[..., None, :].conj(),
                                               precoders, pil)
    return report
