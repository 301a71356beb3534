"""Channel generation, transmitter-side CSI modeling, and adversary statistics.

Channels are stored as complex column vectors with one entry per transmit
antenna.  Steering-type channels use the convention ``entry m = exp(-1j*m*phase)``
(the entrywise-conjugated column); achievable rates are invariant to a global
conjugation, but precoder dumps should be read with this convention in mind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ._checks import finite_array, hermitian_psd, integer, pilot_set, real

__all__ = [
    "AuStatistics",
    "ChannelSet",
    "CsitModel",
    "au_covariance_uniform_phase",
    "au_statistics_isotropic",
    "au_statistics_none",
    "au_statistics_uniform_phase",
    "complex_gaussian",
    "csit_error_variance",
    "draw_csit_samples",
    "evenly_spaced_pilots",
    "exponential_delay_profile",
    "largest_eigenvalue",
    "make_deterministic_scenario",
    "rng_stream",
    "steering_channel",
    "synth_selective_channel",
]


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based random stream for (seed, *path).

    Streams with distinct paths are statistically independent and the mapping
    is stable across processes, so parallel runs reproduce serial ones.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly-symmetric complex Gaussian draws, unit variance per entry."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class ChannelSet:
    """True per-subcarrier channels for information users and (optionally) adversaries.

    h has shape (K, N, n_t); g has shape (L, N, n_t) or is None when no
    adversary ground truth exists.  Ground-truth g is used for reporting the
    realized focused power only, never inside the optimizer.
    """

    n_t: int
    N: int
    K: int
    L: int
    h: np.ndarray
    g: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "h", finite_array(self.h, "h", (self.K, self.N, self.n_t),
                                                  np.complex128))
        if self.g is not None:
            object.__setattr__(self, "g", finite_array(self.g, "g", (self.L, self.N, self.n_t),
                                                      np.complex128))
        elif self.L:
            raise ValueError("L >= 1 but no adversary channels were given")

    def to_json(self) -> str:
        """Serialize for debugging: arrays of [re, im] pairs, row-major by (user, subcarrier, antenna)."""
        def pairs(a):
            return [[float(v.real), float(v.imag)] for v in a.reshape(-1)]

        doc = {
            "n_t": self.n_t, "N": self.N, "K": self.K, "L": self.L,
            "h": pairs(self.h),
            "g": pairs(self.g) if self.g is not None else None,
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "ChannelSet":
        doc = json.loads(text)
        K, N, n_t, L = doc["K"], doc["N"], doc["n_t"], doc["L"]

        def unpairs(vals, shape):
            a = np.array([complex(re, im) for re, im in vals])
            return a.reshape(shape)

        h = unpairs(doc["h"], (K, N, n_t))
        g = unpairs(doc["g"], (L, N, n_t)) if doc["g"] is not None else None
        return ChannelSet(n_t=n_t, N=N, K=K, L=L, h=h, g=g)


@dataclass(frozen=True)
class CsitModel:
    """Transmitter-side channel knowledge for the information users.

    The true channel relates to the estimate through
    ``h = sqrt(1 - sigma_ie2) * h_hat + sigma_ie * h_tilde`` with h_tilde
    i.i.d. standard complex Gaussian.  sigma_ie2 = 0 means perfect CSI.
    """

    h_hat: np.ndarray  # (K, N, n_t)
    sigma_ie2: float
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "h_hat", finite_array(self.h_hat, "h_hat", dtype=np.complex128))
        if self.h_hat.ndim != 3:
            raise ValueError("h_hat must have shape (K, N, n_t)")
        real(self.sigma_ie2, "sigma_ie2", "lie in [0, 1]", ge=0.0, le=1.0)
        real(self.alpha, "alpha", "be nonnegative and finite", ge=0.0)

    @property
    def K(self) -> int:
        return self.h_hat.shape[0]

    @property
    def N(self) -> int:
        return self.h_hat.shape[1]

    @property
    def n_t(self) -> int:
        return self.h_hat.shape[2]


@dataclass(frozen=True)
class AuStatistics:
    """Second-order adversary knowledge: covariances and pilot set.

    R has shape (L, N, n_t, n_t), Hermitian PSD.  pilot_set holds 1-based
    subcarrier indices (subset of {1..N}).  tau (L, N), each R's spectral
    radius, comes from the eigenvalue solve that checks R is PSD.
    """

    R: np.ndarray
    pilot_set: tuple
    tau: np.ndarray = field(init=False)

    def __post_init__(self):
        R = finite_array(self.R, "R", dtype=np.complex128)
        if R.ndim != 4 or R.shape[2] != R.shape[3] or not R.shape[3]:
            raise ValueError("R must have shape (L, N, n_t, n_t), n_t >= 1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "tau", hermitian_psd(R)[..., -1])
        object.__setattr__(self, "pilot_set", pilot_set(self.pilot_set, R.shape[1]))
        if R.shape[0] and not self.pilot_set:
            raise ValueError("pilot_set must be nonempty when adversaries are present")

    @property
    def L(self) -> int:
        return self.R.shape[0]

    @property
    def N(self) -> int:
        return self.R.shape[1]

    @property
    def pilot_idx(self) -> np.ndarray:
        """Pilot subcarriers as 0-based array indices."""
        return np.asarray([p - 1 for p in self.pilot_set], dtype=np.int64)


# ---------------------------------------------------------------------------
# generators


def steering_channel(phase: float, n_t: int) -> np.ndarray:
    """Unit-modulus steering column: entry m equals exp(-1j * m * phase)."""
    integer(n_t, "n_t", 1)
    return np.exp(-1j * phase * np.arange(n_t))


def make_deterministic_scenario(theta: float, beta: float, n_t: int, N: int,
                                K: int = 2, L: int = 1) -> ChannelSet:
    """Flat two-user/one-adversary scenario built from steering vectors.

    User 1 sees the all-ones channel, user 2 a steering channel at angle
    ``theta``, and the adversary a steering channel at ``beta``; the response
    is identical on every subcarrier.
    """
    if (K, L) != (2, 1):
        raise ValueError(f"unsupported (K, L) = {(K, L)}; the deterministic scenario uses K=2, L=1")
    h1 = np.ones(n_t, dtype=np.complex128)
    h2 = steering_channel(theta, n_t)
    g1 = steering_channel(beta, n_t)
    h = np.stack([np.tile(h1, (N, 1)), np.tile(h2, (N, 1))])
    g = np.tile(g1, (N, 1))[None, :, :]
    return ChannelSet(n_t=n_t, N=N, K=K, L=L, h=h, g=g)


def exponential_delay_profile(rms_delay_spread: float = 1.2e-6, n_taps: int = 24):
    """Tap (powers, delays) with exponentially decaying power, normalized to unit sum."""
    integer(n_taps, "n_taps", 1)
    real(rms_delay_spread, "rms_delay_spread", "be nonnegative and finite", ge=0.0)
    if n_taps == 1 or rms_delay_spread == 0.0:
        return np.ones(1), np.zeros(1)
    delays = np.arange(n_taps) * (rms_delay_spread / 4.0)
    powers = np.exp(-delays / rms_delay_spread)
    return powers / powers.sum(), delays


def synth_selective_channel(delay_profile, n_t: int, N: int, K: int, L: int = 0,
                            subcarrier_spacing: float = 60e3, seed: int = 0) -> ChannelSet:
    """Frequency-selective channels from a tapped delay line with Gaussian taps.

    The per-subcarrier response is the discrete Fourier transform of the tap
    gains at frequencies ``n * subcarrier_spacing``.  Tap gains are drawn
    i.i.d. complex Gaussian per (user, tap, antenna), so E||h_{k,n}||^2 = n_t
    for a unit-power profile.  Deterministic given the seed.
    """
    powers, delays = (finite_array(a, "tap powers and delays", ge=0.0, rule="be nonnegative")
                      for a in delay_profile)
    if powers.size == 0 or powers.shape != delays.shape:
        raise ValueError("tap powers and delays must have equal length, one or more taps")
    if abs(float(powers.sum()) - 1.0) > 1e-9:
        raise ValueError("tap powers must be normalized to unit sum")

    freqs = np.arange(N) * subcarrier_spacing
    dft = np.exp(-2j * np.pi * np.outer(delays, freqs))  # (T, N)
    amp = np.sqrt(powers)

    def draw(count: int, stream: int) -> np.ndarray:
        taps = complex_gaussian(rng_stream(seed, stream), (count, powers.size, n_t))
        return np.einsum("t,uta,tn->una", amp, taps, dft)

    h = draw(K, 0)
    g = draw(L, 1) if L else None
    return ChannelSet(n_t=n_t, N=N, K=K, L=L, h=h, g=g)


def csit_error_variance(P_t: float, N: int, alpha: float) -> float:
    """Estimation error variance (P_t / N) ** (-alpha), clamped to [0, 1].

    Clamping only takes effect when P_t < N (per-subcarrier power below one).
    A P_t that is not positive and finite, or a non-finite alpha, raises: the
    clamp would map it to 0.0, perfect CSIT.
    """
    real(P_t, "P_t", "be positive and finite", gt=0.0)
    integer(N, "N", 1)
    real(alpha, "alpha", "be finite")
    return float(min(1.0, max(0.0, (P_t / N) ** (-alpha))))


def au_covariance_uniform_phase(delta: float, n_t: int) -> np.ndarray:
    """Covariance of a steering channel with phase uniform on [0, delta].

    Entry (m, p) is the phase average of exp(-1j*(m-p)*beta); the diagonal is
    exactly one.  delta = 0 degenerates to the all-ones rank-one matrix.  A
    negative or non-finite delta raises ValueError.
    """
    real(delta, "delta", "be finite and nonnegative", ge=0.0)
    m = np.arange(n_t)
    a = m[:, None] - m[None, :]
    if delta == 0.0:
        return np.ones((n_t, n_t), dtype=np.complex128)
    x = a * (delta / 2.0)
    return np.exp(-1j * x) * np.sinc(x / np.pi)


def largest_eigenvalue(R: np.ndarray) -> float:
    """Spectral radius of a Hermitian PSD matrix."""
    return float(hermitian_psd(finite_array(R, "R", dtype=np.complex128))[-1])


def au_statistics_uniform_phase(delta: float, n_t: int, N: int, L: int,
                                pilot_set: Sequence[int]) -> AuStatistics:
    """Adversary statistics with the phase-averaged covariance on every subcarrier."""
    R = np.tile(au_covariance_uniform_phase(delta, n_t), (L, N, 1, 1))
    return AuStatistics(R=R, pilot_set=tuple(pilot_set))


def au_statistics_isotropic(n_t: int, N: int, L: int, pilot_set: Sequence[int]) -> AuStatistics:
    """Adversary statistics for i.i.d. Gaussian adversary channels (identity covariance)."""
    R = np.tile(np.eye(n_t, dtype=np.complex128), (L, N, 1, 1))
    return AuStatistics(R=R, pilot_set=tuple(pilot_set))


def au_statistics_none(n_t: int, N: int) -> AuStatistics:
    """Placeholder statistics for runs without adversaries."""
    return AuStatistics(R=np.zeros((0, N, n_t, n_t), dtype=np.complex128), pilot_set=())


def evenly_spaced_pilots(count: int, N: int) -> tuple:
    """1-based pilot subcarrier indices, evenly spaced starting at index 1."""
    if integer(count, "pilot count", 1) > N:
        raise ValueError(f"pilot count must lie in 1..{N}, got {count}")
    return tuple(1 + (i * N) // count for i in range(count))


# every sampled pass walks the draws in chunks of about this many bytes of
# samples, so its per-sample temporaries are a fixed size whatever M is
_CHUNK_BYTES = 1 << 18


def _sample_chunks(shape) -> List[slice]:
    """Slices of the sample axis of a sample array shaped (M, K, N, n_t):
    max(1, _CHUNK_BYTES // (K N n_t 16)) draws each, the last one shorter."""
    M, K, N, n_t = shape
    step = max(1, _CHUNK_BYTES // (K * N * n_t * 16))
    return [slice(m, min(m + step, M)) for m in range(0, M, step)]


def _chunk_sums(samples: np.ndarray, part: Callable[[np.ndarray], tuple]) -> list:
    """The sums over the chunks of samples of the arrays part(chunk) returns.
    The first chunk's arrays are taken as they are, so draws that fit in one
    chunk give part(samples)'s bits, signed zeros included."""
    total = None
    for c in _sample_chunks(samples.shape):
        sums = part(samples[c])
        total = list(sums) if total is None else [t + s for t, s in zip(total, sums)]
    return total


def draw_csit_samples(csit: CsitModel, M: int, seed: int) -> np.ndarray:
    """Sampled channel realizations consistent with the CSI error model.

    Returns shape (M, K, N, n_t), stored subcarrier-major: a view of an array
    contiguous as (K, N, n_t, M), so a prefix samples[:m] is a view too and
    every sampled pass is a batched matmul over the samples' (K, N, n_t, M)
    transpose.  The error draws are made chunk by chunk (``_sample_chunks``),
    the real parts into the output, then the imaginary parts, each chunk
    finished in place, so beside the output only one chunk's temporaries
    exist; the values are those of ``complex_gaussian`` over the whole shape.
    With sigma_ie2 = 0 every sample equals the estimate exactly; samples are
    deterministic per seed.
    """
    integer(M, "M", 1)
    K, N, n_t = csit.h_hat.shape
    rng = rng_stream(seed, 2)
    out = np.empty((K, N, n_t, M), dtype=np.complex128).transpose(3, 0, 1, 2)
    chunks = _sample_chunks(out.shape)
    # the real parts come first in the stream, as in complex_gaussian
    for c in chunks:
        out.real[c] = rng.standard_normal(out[c].shape)
    for c in chunks:
        im = rng.standard_normal(out[c].shape)
        tilde = (out.real[c] + 1j * im) / np.sqrt(2.0)
        np.multiply(np.sqrt(csit.sigma_ie2), tilde, out=out[c])
        out[c] += np.sqrt(1.0 - csit.sigma_ie2) * csit.h_hat
    return out
