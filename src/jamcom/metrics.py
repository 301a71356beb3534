"""SINR, MMSE, mutual-information, and jamming-power evaluation.

All reported rates are base-2 (bits); the noise variance is fixed to one, so
SNR in dB is 10*log10 of the power budget.  The scalar functions here are the
reference definitions; vectorized sample-averaged evaluation lives in
:func:`stream_mses` and :func:`rate_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .channel import AuStatistics, ChannelSet

__all__ = [
    "InterferenceTerms",
    "PrecoderSet",
    "RateReport",
    "attach_realized_jamming",
    "interference_terms",
    "jamming_power_avg",
    "jamming_power_realized",
    "mmse_filter",
    "mse_opt",
    "mutual_info",
    "rate_report",
    "sinr",
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


@dataclass(frozen=True)
class InterferenceTerms:
    """Received interference powers at one user on one subcarrier.

    Z_c counts every private stream (common-stream decoding stage), Z only the
    other users' private streams, J the jamming leakage.
    """

    Z_c: float
    Z: float
    J: float
    N0: float = NOISE_VAR

    def __post_init__(self):
        if not (np.isfinite(self.Z_c) and np.isfinite(self.Z) and np.isfinite(self.J)):
            raise ValueError("interference terms must be finite")
        if self.Z < -1e-15 or self.J < -1e-15 or self.Z_c < self.Z - 1e-12:
            raise ValueError("interference terms must satisfy Z_c >= Z >= 0 and J >= 0")


def interference_terms(h: np.ndarray, precoders: PrecoderSet, n: int, k: int) -> InterferenceTerms:
    """Interference powers seen by user k on subcarrier n for channel h."""
    hv = np.asarray(h, dtype=np.complex128)
    priv = np.abs(hv.conj() @ precoders.p[:, n].T) ** 2 if precoders.K else np.zeros(0)
    jam = np.abs(hv.conj() @ precoders.f[:, n].T) ** 2 if precoders.L else np.zeros(0)
    Z_c = float(priv.sum())
    Z = float(priv.sum() - priv[k]) if precoders.K else 0.0
    return InterferenceTerms(Z_c=Z_c, Z=max(Z, 0.0), J=float(jam.sum()))


def _denominator_interference(intf: InterferenceTerms, stage: str) -> float:
    if stage == "common":
        return intf.Z_c + intf.J + intf.N0
    if stage == "private":
        return intf.Z + intf.J + intf.N0
    raise ValueError(f"unknown stage {stage!r}")


def sinr(h: np.ndarray, p_target: np.ndarray, intf: InterferenceTerms,
         stage: str = "private") -> float:
    """Signal-to-interference-plus-noise ratio of the target stream."""
    sig = float(np.abs(np.vdot(h, p_target)) ** 2)
    return sig / _denominator_interference(intf, stage)


def mmse_filter(h: np.ndarray, p_target: np.ndarray, intf: InterferenceTerms,
                stage: str = "private") -> complex:
    """Scalar receive filter minimizing the stream MSE."""
    hp = np.vdot(h, p_target)  # h^H p
    total = float(np.abs(hp) ** 2) + _denominator_interference(intf, stage)
    return complex(np.conj(hp) / total)


def mse_opt(h: np.ndarray, p_target: np.ndarray, intf: InterferenceTerms,
            stage: str = "private") -> float:
    """MSE achieved by the MMSE filter; lies in (0, 1] and equals 1/(1+SINR)."""
    denom = _denominator_interference(intf, stage)
    sig = float(np.abs(np.vdot(h, p_target)) ** 2)
    total = sig + denom
    if total <= 0.0:
        return 1.0
    return denom / total


def mutual_info(h: np.ndarray, p_target: np.ndarray, intf: InterferenceTerms,
                stage: str = "private") -> float:
    """Stream mutual information in bits: -log2 of the optimal MSE."""
    return float(-np.log2(mse_opt(h, p_target, intf, stage)))


def _streams(precoders: PrecoderSet, n: int) -> np.ndarray:
    """Every precoder on subcarrier n stacked as rows: common, private, jamming."""
    return np.concatenate([precoders.p_c[n][None], precoders.p[:, n], precoders.f[:, n]])


def jamming_power_realized(g_true: np.ndarray, precoders: PrecoderSet, n: int) -> float:
    """Total transmit power focused on an adversary with true channel g_true."""
    gv = np.asarray(g_true, dtype=np.complex128).conj()
    return float(np.sum(np.abs(np.einsum("sa,a->s", _streams(precoders, n), gv)) ** 2))


def jamming_power_avg(R: np.ndarray, precoders: PrecoderSet, n: int) -> float:
    """Statistically averaged focused power: sum of q^H R q over all streams."""
    q = _streams(precoders, n)
    R = np.asarray(R, dtype=np.complex128)
    return float(np.real(np.einsum("sa,ab,sb->", q.conj(), R, q)))


# ---------------------------------------------------------------------------
# vectorized sample-averaged evaluation


def stream_mses(samples: np.ndarray, precoders: PrecoderSet):
    """Per-sample MMSE-filter MSEs for the common and private streams.

    samples has shape (M, K, N, n_t).  Returns (eps_c, eps_p, hp_c, hp_own,
    T_c, T_p): the MSEs, the target-stream inner products h^H p, and the
    total received powers (signal + interference + noise) at the two SIC
    stages, all shaped (M, K, N).
    """
    hs = np.asarray(samples, dtype=np.complex128)
    hc = hs.conj()
    hp_c = np.einsum("mkna,na->mkn", hc, precoders.p_c)
    hp_p = np.einsum("mkna,ina->mkni", hc, precoders.p)
    jam = (np.sum(np.abs(np.einsum("mkna,lna->mknl", hc, precoders.f)) ** 2, axis=-1)
           if precoders.L else 0.0)
    priv_tot = np.sum(np.abs(hp_p) ** 2, axis=-1)
    hp_own = np.take_along_axis(
        hp_p, np.arange(hs.shape[1])[None, :, None, None], axis=-1)[..., 0]
    T_p = priv_tot + jam + NOISE_VAR           # private stage: common already removed
    T_c = np.abs(hp_c) ** 2 + T_p              # common stage: all streams present
    eps_p = (T_p - np.abs(hp_own) ** 2) / T_p
    eps_c = T_p / T_c
    return eps_c, eps_p, hp_c, hp_own, T_c, T_p


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
                channels: Optional[ChannelSet] = None,
                diagnostics: Optional[dict] = None) -> RateReport:
    """Build a :class:`RateReport` from channels (or CSI samples) and precoders.

    ``samples`` is either a ChannelSet (evaluated as a single realization) or
    an (M, K, N, n_t) sample array, in which case mutual informations are
    sample averages.  ``C`` is the common-rate split in bits, validated
    against per-subcarrier decodability; omitted means an all-private scheme.
    ``stats`` adds the statistically averaged focused power on the pilot set;
    ``channels`` (with ground-truth g) adds the realized focused power.
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
        report.lambda_avg = np.array(
            [[jamming_power_avg(stats.R[l, n], precoders, n) for n in pil]
             for l in range(stats.L)])
    if channels is not None and channels.g is not None and report.pilot_set:
        attach_realized_jamming(report, channels, precoders)
    return report


def attach_realized_jamming(report: RateReport, channels: ChannelSet,
                            precoders: PrecoderSet) -> RateReport:
    """Fill in the realized focused power from ground-truth adversary channels."""
    if channels.g is None:
        raise ValueError("channel set carries no adversary ground truth")
    pil = [p - 1 for p in report.pilot_set]
    report.lambda_realized = np.array(
        [[jamming_power_realized(channels.g[l, n], precoders, n) for n in pil]
         for l in range(channels.L)])
    return report
