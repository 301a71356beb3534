"""The input rules of the public constructors and entry points, each written
once.  A checker raises ValueError naming the input and its rule, and returns
the input as its caller stores it."""

import numpy as np

_BIG = float(np.finfo(np.float64).max)
_HERM_TOL = 1e-12


def is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def integer(v, name: str, least: int = 0) -> int:
    if not (is_int(v) and v >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
    return int(v)


def real(v, name: str, rule: str = "be a number", ge=-np.inf, gt=-np.inf, le=np.inf) -> float:
    """A finite real v in [ge, le] and above gt; rule words that range."""
    if not (is_real(v) and -np.inf < v < np.inf and ge <= v <= le and v > gt):
        raise ValueError(f"{name} must {rule}, got {v!r}")
    return float(v)


def finite_array(a, name: str, shape=None, dtype=np.float64, ge=-np.inf, le=np.inf,
                 rule: str = "be finite") -> np.ndarray:
    """A contiguous dtype array of the given shape, entries finite and in
    [ge, le]; rule words that range.  NaN fails every comparison, so a bound
    costs the pass of isfinite."""
    a = np.ascontiguousarray(a, dtype=dtype)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if (ge, le) == (-np.inf, np.inf):
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite entries in {name}: {name} must be finite")
    elif not np.all((a >= max(ge, -_BIG)) & (a <= min(le, _BIG))):
        raise ValueError(f"{name} must {rule}")
    return a


def pilot_set(spec, N: int) -> tuple:
    """The sorted 1-based subcarriers of spec: integers in 1..N, none repeated."""
    if not all(is_int(p) and 1 <= p <= N for p in spec):
        raise ValueError(f"pilot_set entries must be integers in 1..{N}, got {spec!r}")
    idx = tuple(sorted(int(p) for p in spec))
    if len(set(idx)) < len(idx):
        raise ValueError(f"pilot_set {idx} repeats a subcarrier")
    return idx


def hermitian_psd(R: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues (..., n) of a finite complex stack R (..., n,
    n) of matrices that are Hermitian and PSD to 1e-12 of R's scale."""
    scale = max(1.0, float(np.max(np.abs(R), initial=0.0)))
    if float(np.max(np.abs(R - np.conj(np.swapaxes(R, -1, -2))), initial=0.0)) > _HERM_TOL * scale:
        raise ValueError("R must be Hermitian")
    evals = np.linalg.eigvalsh(R)
    if float(np.min(evals, initial=0.0)) < -_HERM_TOL * scale:
        raise ValueError("R must be positive semidefinite")
    return evals
