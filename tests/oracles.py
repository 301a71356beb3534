"""Independent reference implementations used only to check the library.

Everything here is written from first principles (plain loops, quadrature,
explicit 2x2 eigendecompositions) and deliberately avoids the code paths it
is used to verify.
"""

import numpy as np


def jacobi_eigenvalues(H, tol=1e-13, max_sweeps=60):
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Each rotation embeds the closed-form eigenvectors of one 2x2 principal
    submatrix, zeroing that off-diagonal entry exactly; sweeps repeat until
    the off-diagonal mass is negligible.
    """
    A = np.array(H, dtype=np.complex128)
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = np.max(np.abs(A - np.diag(np.diag(A))))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = A[p, q]
                if abs(z) <= tol * scale * 1e-3:
                    continue
                a = A[p, p].real
                b = A[q, q].real
                lam = 0.5 * (a + b) + np.sqrt(0.25 * (a - b) ** 2 + abs(z) ** 2)
                v1 = np.array([z, lam - a])
                v1 = v1 / np.linalg.norm(v1)
                v2 = np.array([-(lam - a), np.conj(z)])
                v2 = v2 / np.linalg.norm(v2)
                G = np.eye(n, dtype=np.complex128)
                G[p, p], G[p, q] = v1[0], v2[0]
                G[q, p], G[q, q] = v1[1], v2[1]
                A = G.conj().T @ A @ G
    return np.sort(np.real(np.diag(A)))


def covariance_entry_quadrature(delta, m, p, num=200001):
    """Trapezoid-rule average of exp(-1j*(m-p)*beta) over beta in [0, delta]."""
    beta = np.linspace(0.0, delta, num)
    vals = np.exp(-1j * (m - p) * beta)
    return np.trapezoid(vals, beta) / delta


def water_filling(gains, P_total):
    """Optimal power split across parallel channels with unit noise.

    Returns the per-channel powers maximizing sum log(1 + q * gain) subject
    to sum(q) = P_total, by the explicit water-level construction.
    """
    g = np.asarray(gains, dtype=np.float64)
    order = np.argsort(g)[::-1]
    gs = g[order]
    for m in range(g.size, 0, -1):
        mu = (P_total + np.sum(1.0 / gs[:m])) / m
        q = mu - 1.0 / gs[:m]
        if q[-1] >= 0.0:
            out = np.zeros(g.size)
            out[order[:m]] = q
            return out
    return np.zeros(g.size)


def water_filling_rate_bits(gains, P_total):
    q = water_filling(gains, P_total)
    return float(np.sum(np.log2(1.0 + q * np.asarray(gains))))


def interference_sums(h, p_list, f_list, k):
    """Naive termwise re-summation of the interference powers at user k."""
    def ip(a, b):
        return sum(np.conj(a[i]) * b[i] for i in range(len(a)))

    Z_c = sum(abs(ip(h, p)) ** 2 for p in p_list)
    Z = sum(abs(ip(h, p)) ** 2 for i, p in enumerate(p_list) if i != k)
    J = sum(abs(ip(h, f)) ** 2 for f in f_list)
    return float(Z_c), float(Z), float(J)


def focused_power_terms(g, p_c, p_list, f_list):
    """Naive termwise focused power on an adversary with channel g."""
    def ip(a, b):
        return sum(np.conj(a[i]) * b[i] for i in range(len(a)))

    out = abs(ip(g, p_c)) ** 2
    out += sum(abs(ip(g, p)) ** 2 for p in p_list)
    out += sum(abs(ip(g, f)) ** 2 for f in f_list)
    return float(out)


def realized_focused_power(g, pre, n):
    """Focused power of subcarrier n's streams on an adversary with channel g:
    sum over streams q of |g^H q|^2, as one einsum over the stacked streams."""
    streams = np.concatenate([pre.p_c[n][None], pre.p[:, n], pre.f[:, n]])
    return float(np.sum(np.abs(np.einsum("sa,a->s", streams, np.conj(g))) ** 2))


def sample_covariance_focused_power(R, p_c, p_list, f_list, draws, rng):
    """Monte-Carlo estimate of the average focused power for g ~ CN(0, R)."""
    n = R.shape[0]
    F = np.linalg.cholesky(R + 1e-14 * np.eye(n))
    total = 0.0
    for _ in range(draws):
        w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        g = F @ w
        total += focused_power_terms(g, p_c, p_list, f_list)
    return total / draws


def mse_of_filter(g_filter, h, p_target, other_power):
    """E|g*y - s|^2 expanded termwise: |g|^2 (sig + other + N0) - 2 Re(g h^H p) + 1."""
    hp = np.conj(h) @ p_target
    total = abs(hp) ** 2 + other_power + 1.0
    return float(abs(g_filter) ** 2 * total - 2.0 * np.real(g_filter * hp) + 1.0)


def stream_sinr_mse(h, pre, n, k, stage):
    """SINR and MMSE-filter MSE of user k's common or private stream on
    subcarrier n, for precoders pre with p_c (N, n_t), p (K, N, n_t) and f
    (L, N, n_t).  The common stage sees every private stream as interference,
    the private stage (common stream already removed) only the other users'.
    """
    Z_c, Z, J = interference_sums(h, list(pre.p[:, n]), list(pre.f[:, n]), k)
    target = pre.p_c[n] if stage == "common" else pre.p[k, n]
    other = (Z_c if stage == "common" else Z) + J
    hp = np.conj(h) @ target
    g = np.conj(hp) / (abs(hp) ** 2 + other + 1.0)
    return abs(hp) ** 2 / (other + 1.0), mse_of_filter(g, h, target, other)


def surrogate_terms(samples, pre, n, k, stage):
    """Per-sample loop: S = mean u|g|^2 h h^H, v = mean u g^* h, r = mean u(|g|^2 + 1) - ln u of
    user k's augmented MSE on subcarrier n, at each sample's MMSE filter g and u = 1/mse."""
    terms = []
    for h in samples[:, k, n]:
        Z_c, Z, J = interference_sums(h, list(pre.p[:, n]), list(pre.f[:, n]), k)
        target = pre.p_c[n] if stage == "common" else pre.p[k, n]
        other = (Z_c if stage == "common" else Z) + J
        hp = np.conj(h) @ target
        g = np.conj(hp) / (abs(hp) ** 2 + other + 1.0)
        u = 1.0 / mse_of_filter(g, h, target, other)
        terms.append((u * abs(g) ** 2 * np.outer(h, np.conj(h)), u * np.conj(g) * h,
                      u * (abs(g) ** 2 + 1.0) - np.log(u)))
    return tuple(np.mean(t, axis=0) for t in zip(*terms))
