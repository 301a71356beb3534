"""Rate and jamming metrics: MSE, SINR, mutual information, focused power.

Everything comes from the library's one evaluation path, ``stream_mses`` and
``rate_report``.  Shows the rate-MSE identity that drives the optimizer and
the two views of the jamming performance (realized vs statistically
averaged).
"""

import numpy as np

from jamcom import (
    PrecoderSet,
    au_statistics_uniform_phase,
    jamming_power_avg,
    make_deterministic_scenario,
    rate_report,
)
from jamcom.metrics import attach_realized_jamming, stream_mses

theta, beta = 4 * np.pi / 9, 2 * np.pi / 9
chan = make_deterministic_scenario(theta, beta, n_t=4, N=8)
rng = np.random.default_rng(0)

pre = PrecoderSet(
    p_c=rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)),
    p=rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4)),
    f=rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4)),
)
pre = pre.scaled(10.0 / pre.total_power())  # 10 dB budget

# Per-stream quantities at user 0, subcarrier 3, with the true channel as the
# single sample.  T_c and T_p are the received powers (signal, interference,
# jamming and noise) at the common and private decoding stages.
eps_c, eps_p, hp_c, hp_own, T_c, T_p = (a[0, 0, 3] for a in stream_mses(chan.h[None], pre))
print(f"received power: common stage {T_c:.4f}, private stage {T_p:.4f}")
for stage, e, hp, T in (("common", eps_c, hp_c, T_c), ("private", eps_p, hp_own, T_p)):
    s = abs(hp) ** 2 / (T - abs(hp) ** 2)
    print(f"{stage:8s}: sinr={s:7.3f}  mse={e:.4f}  bits={-np.log2(e):.4f}  "
          f"identity gap={abs(-np.log2(e) - np.log2(1 + s)):.1e}")
print("mmse filter (private):", np.round(np.conj(hp_own) / T_p, 4))

# Focused power on the adversary: the realized value needs the true channel g,
# the average only its covariance; the realized one is the average under the
# rank-one covariance g g^H.
stats = au_statistics_uniform_phase(2 * beta, 4, 8, 1, (1, 5))
n = 0
g = chan.g[0, n]
print("\nrealized focused power :", round(jamming_power_avg(np.outer(g, g.conj()), pre, n), 4))
print("average focused power  :", round(jamming_power_avg(stats.R[0, n], pre, n), 4))

# A full rate report: per-user rates, the common-rate split, jamming powers.
report = attach_realized_jamming(rate_report(chan, pre, None, stats=stats), chan, pre)
print("\nper-user rates:", np.round(report.R_k, 4), " sum:", round(report.R_sum, 4))
print("avg focused power on pilots:", np.round(report.lambda_avg, 3))
print("realized on pilots         :", np.round(report.lambda_realized, 3))
