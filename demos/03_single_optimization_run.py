"""One full precoder optimization on the flat two-user scenario.

Runs both schemes on the same instance, prints the convergence traces, and
verifies that the converged point honors the power budget and the
focused-power floors on the adversary's pilot subcarriers.
"""

import numpy as np

from jamcom import (
    CsitModel,
    SolveConfig,
    au_statistics_uniform_phase,
    build_thresholds,
    csit_error_variance,
    evenly_spaced_pilots,
    jamming_power_avg,
    make_deterministic_scenario,
    optimize,
    threshold_strategy,
)

theta, beta = 4 * np.pi / 9, 2 * np.pi / 9
N, snr_db = 16, 20.0
P_t = 10 ** (snr_db / 10)

chan = make_deterministic_scenario(theta, beta, n_t=4, N=N)
csit = CsitModel(h_hat=chan.h,
                 sigma_ie2=csit_error_variance(P_t, N, alpha=0.6), alpha=0.6)
pilots = evenly_spaced_pilots(4, N)
stats = au_statistics_uniform_phase(2 * beta, 4, N, 1, pilots)

rho = threshold_strategy(2, len(pilots), N)       # constant-strictness strategy
thr = build_thresholds(stats, rho, P_t)
print(f"rho={rho}, per-pilot focused-power floor={thr[0, 0]:.2f} "
      f"(pilot subcarriers {pilots})")

results = {}
sdma = None
for scheme in ("SDMA", "RSMA"):
    cfg = SolveConfig(P_t=P_t, scheme=scheme, M=4, seed=11, thresholds=thr,
                      eps_r=1e-3)
    res = optimize(csit, stats, cfg, restricted=sdma)
    if scheme == "SDMA":
        sdma = res
    results[scheme] = res
    d = res.report.diagnostics
    print(f"\n{scheme}: sum-rate {res.report.R_sum:.4f} bits/subcarrier "
          f"({res.outer_iterations} outer iterations, converged={res.converged})")
    trace = np.array(d["wsr_trace_nats"]) / np.log(2) / N
    print("  rate trace:", np.round(trace[:8], 3), "...")
    print("  common-rate share:", round(res.report.common_rate, 4))

gain = results["RSMA"].report.R_sum - results["SDMA"].report.R_sum
print(f"\nrate-splitting gain: +{gain:.4f} bits/subcarrier")

best = results["RSMA"]
print("power used:", round(best.precoders.total_power(), 6), "of", round(P_t, 3))
for j, n in enumerate(p - 1 for p in pilots):
    lam = jamming_power_avg(stats.R[0, n], best.precoders, n)
    print(f"pilot {n + 1}: focused power {lam:9.3f} >= floor {thr[0, j]:9.3f}")
