"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (run with ``pytest -s`` to see them); an
assertion failure marks the criterion FAIL.  The heavyweight sweeps are
shared through module-scoped fixtures.
"""

import itertools
import time

import numpy as np
import pytest

from jamcom import channel as ch
from jamcom import experiments as xp
from jamcom import optimizer as op
from jamcom import solver as cvx
from jamcom.metrics import (
    InterferenceTerms,
    PrecoderSet,
    jamming_power_avg,
    mse_opt,
    sinr,
)
from oracles import jacobi_eigenvalues, covariance_entry_quadrature, water_filling_rate_bits

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9


def _report(num, name, elapsed, detail=""):
    extra = f" {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS in {elapsed:.1f}s{extra}")


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def desk_runs():
    """20 random desk-scale instances (n_t=4, K=2, L=1, N=8, M=4)."""
    runs = []
    t0 = time.perf_counter()
    prof = ch.exponential_delay_profile(1.2e-6, 12)
    for idx in range(20):
        snr_db = (5.0, 15.0, 25.0)[idx % 3]
        P_t = 10.0 ** (snr_db / 10.0)
        pilots = (1, 2, 4)[idx % 3]
        strategy = 1 + idx % 2
        scheme = "RSMA" if idx % 2 == 0 else "SDMA"
        chan = ch.synth_selective_channel(prof, 4, 8, 2, 1, seed=idx)
        csit = ch.CsitModel(h_hat=chan.h,
                            sigma_ie2=ch.csit_error_variance(P_t, 8, 0.6),
                            alpha=0.6)
        stats = ch.au_statistics_isotropic(4, 8, 1, ch.evenly_spaced_pilots(pilots, 8))
        rho = op.threshold_strategy(strategy, pilots, 8)
        thr = op.build_thresholds(stats, rho, P_t)
        cfg = op.SolveConfig(P_t=P_t, scheme=scheme, M=4, seed=100 + idx,
                             thresholds=thr)
        res = op.optimize(csit, stats, cfg)
        runs.append((cfg, stats, thr, res))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def paper_grid():
    """Deterministic scenario at N=16: SNR x strategy x pilots x scheme."""
    t0 = time.perf_counter()
    N = 16
    chan = ch.make_deterministic_scenario(THETA, BETA, 4, N)
    results = {}
    for snr_i, snr in enumerate((5.0, 15.0, 25.0)):
        P_t = 10.0 ** (snr / 10.0)
        csit = ch.CsitModel(h_hat=chan.h,
                            sigma_ie2=ch.csit_error_variance(P_t, N, 0.6),
                            alpha=0.6)
        seed = int(np.random.SeedSequence(entropy=7,
                                          spawn_key=(snr_i,)).generate_state(1)[0])
        for strategy, pilots in itertools.product((1, 2), (2, 4, 8)):
            stats = ch.au_statistics_uniform_phase(
                2 * BETA, 4, N, 1, ch.evenly_spaced_pilots(pilots, N))
            thr = op.build_thresholds(
                stats, op.threshold_strategy(strategy, pilots, N), P_t)
            restricted = None
            for scheme in ("SDMA", "RSMA"):
                cfg = op.SolveConfig(P_t=P_t, scheme=scheme, M=4, seed=seed,
                                     thresholds=thr, eps_r=1e-3)
                res = op.optimize(csit, stats, cfg, restricted=restricted)
                if scheme == "SDMA":
                    restricted = res
                results[(snr, strategy, pilots, scheme)] = res
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_rate_mse_identity(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        Z = float(abs(rng.standard_normal()) * 3)
        J = float(abs(rng.standard_normal()))
        t = InterferenceTerms(Z_c=Z + abs(rng.standard_normal()), Z=Z, J=J)
        stage = "common" if rng.random() < 0.5 else "private"
        gap = abs(-np.log2(mse_opt(h, p, t, stage))
                  - np.log2(1.0 + sinr(h, p, t, stage)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    _report(1, "rate-MSE identity", elapsed, f"worst gap {worst:.2e}")


def test_criterion_2_taylor_lower_bound(rng):
    t0 = time.perf_counter()
    layout = op.VariableLayout(3, 1, 1, 0, np.zeros(0, dtype=np.int64), rsma=False)
    worst = -np.inf
    for _ in range(1000):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R = A @ A.conj().T / 3.0
        p_t = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        anchor = PrecoderSet(p_c=np.zeros((1, 3)), p=p_t[None, None, :],
                             f=np.zeros((0, 1, 3)))
        cols, coef, const = op.linearize_jamming(layout, anchor, R, 0)
        probe = PrecoderSet(p_c=np.zeros((1, 3)), p=p[None, None, :],
                            f=np.zeros((0, 1, 3)))
        z = layout.pack(probe, None)
        bound = coef @ z[cols] + const
        true = jamming_power_avg(R, probe, 0)
        worst = max(worst, bound - true)
        z_t = layout.pack(anchor, None)
        at_anchor = coef @ z_t[cols] + const
        true_anchor = jamming_power_avg(R, anchor, 0)
        assert abs(at_anchor - true_anchor) <= 1e-9 * (1.0 + abs(true_anchor))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(2, "first-order lower bound", elapsed, f"max excess {worst:.2e}")


def test_criterion_3_monotone_convergence(desk_runs):
    runs, elapsed = desk_runs
    for cfg, stats, thr, res in runs:
        d = res.report.diagnostics
        wsr = d["wsr_trace_nats"]
        assert all(wsr[i + 1] >= wsr[i] - 1e-6 for i in range(len(wsr) - 1)), \
            "outer trace must be non-decreasing"
        assert res.converged, "run must terminate under the iteration caps"
        assert res.outer_iterations < cfg.max_outer
    assert elapsed < 300.0
    _report(3, "monotone convergence on 20 desk instances", elapsed)


def test_criterion_4_constraints_at_convergence(desk_runs):
    runs, _ = desk_runs
    t0 = time.perf_counter()
    for cfg, stats, thr, res in runs:
        assert res.precoders.total_power() <= cfg.P_t + 1e-9
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                lam = jamming_power_avg(stats.R[l, n], res.precoders, int(n))
                assert lam >= thr[l, j] - 1e-6
        split_total = res.report.C.sum(axis=0)
        cap = res.report.I_common.min(axis=0)
        assert np.all(split_total <= cap + 1e-6)
    _report(4, "constraint satisfaction at convergence", time.perf_counter() - t0)


def test_criterion_5_water_filling_reduction():
    t0 = time.perf_counter()
    prof = ch.exponential_delay_profile(1.2e-6, 12)
    chan = ch.synth_selective_channel(prof, 4, 8, 1, 0, seed=3)
    csit = ch.CsitModel(h_hat=chan.h, sigma_ie2=0.0)
    stats = ch.au_statistics_none(4, 8)
    cfg = op.SolveConfig(P_t=20.0, scheme="RSMA", M=1, seed=0,
                         eps_r=1e-5)
    res = op.optimize(csit, stats, cfg)
    gains = np.sum(np.abs(chan.h[0]) ** 2, axis=-1)
    oracle = water_filling_rate_bits(gains, 20.0) / 8
    elapsed = time.perf_counter() - t0
    assert abs(res.report.R_sum - oracle) <= 0.01 * oracle
    assert elapsed < 60.0
    _report(5, "water-filling reduction", elapsed,
            f"opt {res.report.R_sum:.6f} vs oracle {oracle:.6f}")


def _tiny_instance():
    """Real-valued joint instance (n_t=2, N=1, K=1, L=1): 6 precoder reals + 1 split.

    Weights and filters are derived from an in-budget anchor point, which also
    serves as the expansion point of the focused-power bound, so the instance
    is feasible by construction with the floor set below the anchor's power.
    """
    h = np.array([1.0, 0.6])
    R = np.array([[1.0, 0.3], [0.3, 0.5]])
    p_t = {"c": np.array([0.05, 0.02]), "p": np.array([0.04, -0.02]),
           "f": np.array([0.05, 0.02])}
    P_t = 0.01

    hp = {s: float(h @ v) for s, v in p_t.items()}
    T_p = hp["p"] ** 2 + hp["f"] ** 2 + 1.0
    u_p = T_p / (T_p - hp["p"] ** 2)
    g_p = hp["p"] / T_p
    T_c = hp["c"] ** 2 + T_p
    u_c = T_c / T_p
    g_c = hp["c"] / T_c
    anchor_power = sum(float(v @ R @ v) for v in p_t.values())
    J_thr = 0.8 * anchor_power

    H = np.outer(h, h)
    Zero = np.zeros((2, 2))

    def blockdiag3(a, b, c):
        return np.block([[a, Zero, Zero], [Zero, b, Zero], [Zero, Zero, c]])

    Qp = u_p * g_p ** 2 * blockdiag3(Zero, H, H)
    qp = np.zeros(7)
    qp[2:4] = -2.0 * u_p * g_p * h
    qp[6] = 1.0
    rp = u_p * (g_p ** 2 + 1.0) - np.log(u_p)

    Qc = u_c * g_c ** 2 * blockdiag3(H, H, H)
    qc = np.zeros(6)
    qc[0:2] = -2.0 * u_c * g_c * h
    rc = u_c * (g_c ** 2 + 1.0) - np.log(u_c)

    jam_coef = np.concatenate([2 * R @ p_t["c"], 2 * R @ p_t["p"], 2 * R @ p_t["f"]])
    jam_const = -sum(float(v @ R @ v) for v in p_t.values())

    prob = cvx.ConvexSubproblem(
        n_vars=7,
        objective=cvx.Objective(
            (cvx.QuadTerm(np.arange(6), Qp[:6, :6]),),
            cvx.Affine(np.arange(7), qp, rp)),
        q_constraints=[
            cvx.QConstraint(cvx.QuadTerm(np.arange(6), Qc),
                            cvx.Affine(np.array([0, 1, 6]),
                                       np.array([2 * u_c * g_c * h[0],
                                                 2 * u_c * g_c * h[1], 1.0]),
                                       1.0 - rc)),
            cvx.QConstraint(cvx.DiagTerm(np.arange(6), np.ones(6)),
                            cvx.Affine.constant(P_t)),
        ],
        a_constraints=[cvx.AConstraint(
            cvx.Affine(np.arange(6), jam_coef, jam_const), J_thr)],
        sign_constraints=np.array([6]),
    )
    data = dict(h=h, u_c=u_c, g_c=g_c, u_p=u_p, g_p=g_p, R=R, P_t=P_t,
                J_thr=J_thr, jam_coef=jam_coef, jam_const=jam_const,
                Qp=Qp[:6, :6], qp=qp, rp=rp, Qc=Qc, qc=qc, rc=rc)
    return prob, data


def test_criterion_6_grid_search_oracle():
    t0 = time.perf_counter()
    prob, d = _tiny_instance()
    res = cvx.solve(prob, 1e-8)
    assert res.status == "optimal"
    assert cvx.certify(prob, res, 1e-6)

    step = 0.02
    grid = np.arange(-0.1, 0.1 + step / 2, step)
    pts = np.array(np.meshgrid(*([grid] * 6), indexing="ij")).reshape(6, -1).T

    power_ok = np.sum(pts ** 2, axis=1) <= d["P_t"] + 1e-15
    jam_ok = pts @ d["jam_coef"] + d["jam_const"] >= d["J_thr"] - 1e-15
    xi_c = (np.einsum("ij,jk,ik->i", pts, d["Qc"], pts)
            + pts @ d["qc"] + d["rc"])
    xi_p = (np.einsum("ij,jk,ik->i", pts, d["Qp"], pts)
            + pts @ d["qp"][:6] + d["rp"])
    feasible = power_ok & jam_ok & (xi_c - 1.0 <= 0.0)
    assert np.count_nonzero(feasible) > 0, "grid must contain feasible points"
    objective = xi_p + (xi_c - 1.0)
    grid_best = float(np.min(objective[feasible]))

    # resolution bound: objective Lipschitz constant over the box
    Q_tot = d["Qp"] + d["Qc"]
    q_tot = d["qp"][:6] + d["qc"]
    z_rad = 0.1 * np.sqrt(6)
    L = 2.0 * np.linalg.norm(Q_tot, 2) * z_rad + np.linalg.norm(q_tot)
    resolution = L * np.sqrt(6) * step / 2.0

    elapsed = time.perf_counter() - t0
    assert res.objective_value <= grid_best + 1e-9, \
        "a feasible grid point beat the solver"
    assert grid_best - res.objective_value <= resolution
    assert elapsed < 120.0
    _report(6, "dense-grid solver oracle", elapsed,
            f"solver {res.objective_value:.8f}, grid {grid_best:.8f}, "
            f"resolution {resolution:.2e}")


def test_criterion_7_scheme_dominance(paper_grid):
    results, elapsed = paper_grid
    worst = np.inf
    for (snr, strategy, pilots, scheme), res in results.items():
        if scheme != "RSMA":
            continue
        gap = res.report.R_sum - results[(snr, strategy, pilots, "SDMA")].report.R_sum
        worst = min(worst, gap)
        assert gap >= -1e-6, f"dominance violated at snr={snr} strat={strategy} |Sp|={pilots}"
    assert elapsed < 900.0
    _report(7, "common stream never hurts", elapsed, f"min gap {worst:+.2e}")


def test_criterion_8_threshold_strategy_trends(paper_grid):
    results, elapsed = paper_grid
    for snr in (5.0, 15.0, 25.0):
        for scheme in ("RSMA", "SDMA"):
            vals = [results[(snr, 1, p, scheme)].report.R_sum for p in (2, 4, 8)]
            assert vals[1] <= vals[0] + 1e-9 and vals[2] <= vals[1] + 1e-9, \
                f"strategy 1 must be non-increasing in pilots at snr={snr} ({scheme})"
    for snr in (15.0, 25.0):
        for scheme in ("RSMA", "SDMA"):
            vals = [results[(snr, 2, p, scheme)].report.R_sum for p in (2, 4, 8)]
            assert vals[1] >= vals[0] - 1e-9 and vals[2] >= vals[1] - 1e-9, \
                f"strategy 2 must be increasing in pilots at snr={snr} ({scheme})"
    assert elapsed < 1200.0
    _report(8, "threshold strategy trends", elapsed)


def test_criterion_9_degeneracy_and_determinism(tmp_path):
    t0 = time.perf_counter()
    # (a) single-sample runs with zero error variance are seed-independent
    chan = ch.make_deterministic_scenario(THETA, BETA, 4, 8)
    csit = ch.CsitModel(h_hat=chan.h, sigma_ie2=0.0, alpha=0.6)
    stats = ch.au_statistics_uniform_phase(2 * BETA, 4, 8, 1,
                                           ch.evenly_spaced_pilots(2, 8))
    thr = op.build_thresholds(stats, 0.45, 10.0)
    outs = []
    for seed in (1, 777):
        cfg = op.SolveConfig(P_t=10.0, scheme="RSMA", M=1, seed=seed,
                             thresholds=thr, eps_r=1e-3)
        outs.append(op.optimize(csit, stats, cfg))
    a, b = outs
    assert np.array_equal(a.precoders.p_c, b.precoders.p_c)
    assert np.array_equal(a.precoders.p, b.precoders.p)
    assert np.array_equal(a.precoders.f, b.precoders.f)
    assert np.array_equal(a.split.X, b.split.X)
    assert a.report.R_sum == b.report.R_sum

    # (b) byte-identical CSVs across repeats and worker counts
    config = xp.ExperimentConfig(
        n_t=4, K=2, L=1, N=8, pilot_sets=[2], snr_db_list=[10.0, 20.0],
        scheme_list=["RSMA", "SDMA"],
        channel_model={"type": "deterministic", "theta": THETA, "beta": BETA},
        strategy=1, M=2, seed=5, eps_r=1e-3, max_outer=40)
    blobs = []
    for tag, workers in (("w1", 1), ("w1b", 1), ("w2", 2)):
        table = xp.run_experiment(config, workers=workers)
        path = tmp_path / f"{tag}.csv"
        xp.emit_csv(table, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(9, "degeneracy and byte-level determinism", time.perf_counter() - t0)


def test_criterion_10_adversary_statistics():
    t0 = time.perf_counter()
    delta = 2 * BETA
    R = ch.au_covariance_uniform_phase(delta, 4)
    for m in range(4):
        for p in range(4):
            ref = covariance_entry_quadrature(delta, m, p)
            assert abs(R[m, p] - ref) <= 1e-8

    rng = np.random.default_rng(8)
    mats = [R, np.eye(4), np.ones((4, 4))]
    for _ in range(5):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(A @ A.conj().T / 4.0)
    for M in mats:
        ref = jacobi_eigenvalues(M)[-1]
        got = ch.largest_eigenvalue(M)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
    _report(10, "adversary statistics cross-checks", time.perf_counter() - t0)
