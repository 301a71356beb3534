"""MMSE, mutual-information, and jamming-power evaluation.

All reported rates are base-2 (bits); the noise variance is fixed to one, so
SNR in dB is 10*log10 of the power budget.  :func:`stream_mses` and
:func:`rate_report` are the one evaluation path: every stream's mutual
information is -log2 of its MMSE-filter MSE, i.e. log2(1 + SINR).  The
independent references they are checked against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .channel import AuStatistics, ChannelSet

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


@dataclass(frozen=True)
class PrecoderSet:
    """Common, private, and jamming precoders per subcarrier.

    p_c: (N, n_t); p: (K, N, n_t); f: (L, N, n_t), all complex.  A scheme
    without a common stream simply carries an all-zero p_c; jamming precoders
    vanish outside the pilot set by construction.
    """

    p_c: np.ndarray
    p: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        for name in ("p_c", "p", "f"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        if self.p.ndim != 3 or self.f.ndim != 3 or self.p_c.ndim != 2:
            raise ValueError("p_c must be (N, n_t); p and f must be (count, N, n_t)")
        N, n_t = self.p_c.shape
        if self.p.shape[1:] != (N, n_t) or self.f.shape[1:] != (N, n_t):
            raise ValueError("inconsistent (N, n_t) across precoder arrays")

    @property
    def N(self) -> int:
        return self.p_c.shape[0]

    @property
    def n_t(self) -> int:
        return self.p_c.shape[1]

    @property
    def K(self) -> int:
        return self.p.shape[0]

    @property
    def L(self) -> int:
        return self.f.shape[0]

    def subcarrier_power(self, n: int) -> float:
        return float(np.sum(np.abs(self.p_c[n]) ** 2)
                     + np.sum(np.abs(self.p[:, n]) ** 2)
                     + np.sum(np.abs(self.f[:, n]) ** 2))

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.p_c) ** 2)
                     + np.sum(np.abs(self.p) ** 2)
                     + np.sum(np.abs(self.f) ** 2))

    def scaled(self, c: float) -> "PrecoderSet":
        """All precoders multiplied by sqrt(c); powers scale by c."""
        s = np.sqrt(c)
        return PrecoderSet(p_c=s * self.p_c, p=s * self.p, f=s * self.f)

    @staticmethod
    def zeros(n_t: int, N: int, K: int, L: int) -> "PrecoderSet":
        return PrecoderSet(
            p_c=np.zeros((N, n_t), dtype=np.complex128),
            p=np.zeros((K, N, n_t), dtype=np.complex128),
            f=np.zeros((L, N, n_t), dtype=np.complex128),
        )


def _streams(precoders: PrecoderSet, n) -> np.ndarray:
    """Every precoder on subcarrier n stacked as rows: common, private, jamming
    (1+K+L, n_t); n = slice(None) stacks all subcarriers, (1+K+L, N, n_t)."""
    return np.concatenate([precoders.p_c[n][None], precoders.p[:, n], precoders.f[:, n]])


def jamming_power_avg(R: np.ndarray, precoders: PrecoderSet, n):
    """Statistically averaged focused power: sum of q^H R q over all streams
    of subcarrier n; R = g g^H gives the realized power on channel g.  A
    stack of covariances R (..., n_t, n_t) broadcasts against an index array
    n, giving their common shape; one R and one n give a float."""
    # each subcarrier's streams contiguous, so every entry has a lone call's bits
    q = np.ascontiguousarray(np.moveaxis(_streams(precoders, n), 0, -2))
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
    a subcarrier-major array (contiguous in that order, as the optimizer lays
    out its samples) is fastest; the outputs are (M, K, N) views of
    (K, N, M) arrays.
    """
    hs = np.asarray(samples, dtype=np.complex128)
    own = np.arange(hs.shape[1])
    # y[k, n, s] = q_s^H h = conj(h^H q_s) for every stream s of subcarrier n
    q = _streams(precoders, slice(None)).swapaxes(0, 1)        # (N, 1+K+L, n_t)
    y = np.conj(q) @ hs.transpose(1, 2, 3, 0)                  # (K, N, 1+K+L, M)
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
                stats: Optional[AuStatistics] = None,
                diagnostics: Optional[dict] = None) -> RateReport:
    """Build a :class:`RateReport` from channels (or CSI samples) and precoders.

    ``samples`` is either a ChannelSet (evaluated as a single realization) or
    an (M, K, N, n_t) sample array, in which case mutual informations are
    sample averages.  ``C`` is the common-rate split in bits, validated
    against per-subcarrier decodability; omitted means an all-private scheme.
    ``stats`` adds the statistically averaged focused power on the pilot set;
    :func:`attach_realized_jamming` adds the realized one afterwards.
    """
    if isinstance(samples, ChannelSet):
        hs = samples.h[None]
    else:
        hs = np.asarray(samples, dtype=np.complex128)
    M, K, N, _ = hs.shape
    if C is None:
        C = np.zeros((K, N))
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (K, N):
        raise ValueError(f"C has shape {C.shape}, expected {(K, N)}")

    eps_c, eps_p, *_ = stream_mses(hs, precoders)
    I_private = np.mean(-np.log2(eps_p), axis=0)
    I_common = np.mean(-np.log2(eps_c), axis=0)

    slack = I_common.min(axis=0) - C.sum(axis=0)
    if float(slack.min()) < -1e-6:
        n_bad = int(np.argmin(slack))
        raise ValueError(
            f"infeasible common-rate split on subcarrier {n_bad + 1}: "
            f"sum C = {C.sum(axis=0)[n_bad]:.9f} exceeds min-user common MI "
            f"{I_common.min(axis=0)[n_bad]:.9f}")

    R_k = I_private.sum(axis=1) / N
    R_sum = float(np.sum(C) / N + R_k.sum())

    report = RateReport(
        I_private=I_private, I_common=I_common, C=C, R_k=R_k, R_sum=R_sum,
        diagnostics=dict(diagnostics or {}),
    )
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
