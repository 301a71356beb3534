import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jamcom.channel import (
    AuStatistics,
    CsitModel,
    au_statistics_isotropic,
    au_statistics_none,
    au_statistics_uniform_phase,
    draw_csit_samples,
    evenly_spaced_pilots,
    exponential_delay_profile,
    make_deterministic_scenario,
    synth_selective_channel,
    csit_error_variance,
)
from jamcom.metrics import PrecoderSet, jamming_power_avg, mutual_info, interference_terms
from jamcom import solver as cvx
from jamcom.optimizer import (
    SolveConfig,
    VariableLayout,
    WmmseState,
    _assemble_subproblem,
    _surrogate_coefficients,
    _wmmse_state,
    _wsr_nats,
    build_thresholds,
    initialize,
    InfeasibleError,
    jamming_threshold,
    linearize_jamming,
    optimize,
    sdma_restrict,
    threshold_strategy,
)
from oracles import water_filling_rate_bits

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9


def paper_setup(N=8, pilots=2, sigma2=0.3):
    chan = make_deterministic_scenario(THETA, BETA, 4, N)
    csit = CsitModel(h_hat=chan.h, sigma_ie2=sigma2, alpha=0.6)
    stats = au_statistics_uniform_phase(2 * BETA, 4, N, 1,
                                        evenly_spaced_pilots(pilots, N))
    return chan, csit, stats


def scalar_setup():
    """One user, one subcarrier-like slice with a unit channel and sqrt(3) power."""
    h_hat = np.zeros((1, 1, 4), dtype=complex)
    h_hat[0, 0, 0] = 1.0
    csit = CsitModel(h_hat=h_hat, sigma_ie2=0.0)
    pre = PrecoderSet.zeros(4, 1, 1, 0)
    pre.p[0, 0, 0] = np.sqrt(3.0)
    samples = draw_csit_samples(csit, 1, 0)
    return samples, pre


class TestWeightUpdates:
    def test_scalar_weight_is_inverse_mse(self):
        samples, pre = scalar_setup()
        u_p = _wmmse_state(samples, pre).u_p
        assert u_p[0, 0, 0] == pytest.approx(4.0, rel=1e-12)  # mse 1/4

    def test_zero_precoders_unit_weights(self):
        samples, _ = scalar_setup()
        state = _wmmse_state(samples, PrecoderSet.zeros(4, 1, 1, 0))
        assert np.all(state.u_c == 1.0) and np.all(state.u_p == 1.0)

    def test_scalar_filter(self):
        samples, pre = scalar_setup()
        g_p = _wmmse_state(samples, pre).g_p
        assert g_p[0, 0, 0] == pytest.approx(np.sqrt(3) / 4, rel=1e-12)

    def test_zero_precoders_zero_filters(self):
        samples, _ = scalar_setup()
        state = _wmmse_state(samples, PrecoderSet.zeros(4, 1, 1, 0))
        assert np.all(state.g_c == 0.0) and np.all(state.g_p == 0.0)

    def test_filters_minimize_sampled_mse(self, rng):
        chan, csit, stats = paper_setup()
        samples = draw_csit_samples(csit, 4, 3)
        pre = PrecoderSet(
            p_c=rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)),
            p=rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4)),
            f=rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4)))
        g_p = _wmmse_state(samples, pre).g_p
        m, k, n = 2, 1, 5
        h = samples[m, k, n]
        t = interference_terms(h, pre, n, k)

        def priv_mse(g):
            hp = np.vdot(h, pre.p[k, n])
            total = abs(hp) ** 2 + t.Z + t.J + 1.0
            return abs(g) ** 2 * total - 2 * np.real(g * hp) + 1.0

        best = priv_mse(g_p[m, k, n])
        for _ in range(100):
            pert = g_p[m, k, n] + 0.05 * (rng.standard_normal()
                                          + 1j * rng.standard_normal())
            assert priv_mse(pert) >= best - 1e-12


class TestAugmentedMseQuadratic:
    """The augmented MSEs of the assembled subproblem, at M=1."""

    def _setup(self, rng, scheme="RSMA"):
        chan, csit, stats = paper_setup(N=4)
        rsma = scheme == "RSMA"
        layout = VariableLayout(4, 4, 2, 1, stats.pilot_idx, rsma=rsma)
        samples = draw_csit_samples(csit, 1, 5)
        pre = PrecoderSet(
            p_c=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            p=rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)),
            f=rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
        off_pilot = np.setdiff1d(np.arange(4), stats.pilot_idx)
        pre.f[:, off_pilot] = 0.0  # jamming exists on pilots only
        if not rsma:
            pre.p_c[:] = 0.0
        state = _wmmse_state(samples, pre)
        prob = _assemble_subproblem(layout, samples, state, pre, stats,
                                    SolveConfig(P_t=10.0, M=1, scheme=scheme))
        return layout, samples, pre, prob, state

    def test_identity_at_fresh_weights(self, rng):
        # objective at the linearization precoders: sum of 1 - I_private nats,
        # plus the split under RSMA; i.e. K*N minus the weighted sum rate
        for scheme in ("RSMA", "SDMA"):
            layout, samples, pre, prob, state = self._setup(rng, scheme)
            target = 0.0
            for n in range(4):
                for k in range(2):
                    h = samples[0, k, n]
                    t = interference_terms(h, pre, n, k)
                    target += 1.0 - mutual_info(h, pre.p[k, n], t, "private") * np.log(2.0)
            z = layout.pack(pre, np.zeros((2, 4)))
            assert cvx.eval_objective(prob, z) == pytest.approx(target, abs=1e-12)
            X = -np.abs(rng.standard_normal((2, 4)))
            wm = cvx.eval_objective(prob, layout.pack(pre, X))
            assert wm == pytest.approx(2 * 4 - _wsr_nats(state, X if layout.rsma else None),
                                       abs=1e-12)
            assert wm == pytest.approx(target + (X.sum() if layout.rsma else 0.0), abs=1e-12)

    def test_common_constraint_is_minus_common_information(self, rng):
        layout, samples, pre, prob, _ = self._setup(rng)
        c = cvx.eval_constraints(prob, layout.pack(pre, np.zeros((2, 4))))
        for n in range(4):
            for k in range(2):
                h = samples[0, k, n]
                t = interference_terms(h, pre, n, k)
                info_nats = mutual_info(h, pre.p_c[n], t, "common") * np.log(2.0)
                assert c[2 * n + k] == pytest.approx(-info_nats, abs=1e-12)

    def test_unit_weight_zero_filter_gives_one(self):
        samples, _ = scalar_setup()
        ones, zeros = np.ones((1, 1, 1)), np.zeros((1, 1, 1), dtype=complex)
        Rc, Rp, v_c, v_p, r_c, r_p = _surrogate_coefficients(
            samples, WmmseState(u_c=ones, g_c=zeros, u_p=ones, g_p=zeros))
        assert r_c[0, 0] == pytest.approx(1.0, abs=0)
        assert r_p[0, 0] == pytest.approx(1.0, abs=0)
        assert np.all(Rc == 0.0) and np.all(Rp == 0.0)
        assert np.count_nonzero(v_c) == 0 and np.count_nonzero(v_p) == 0

    def test_hessian_psd(self, rng):
        chan, csit, stats = paper_setup(N=4)
        layout = VariableLayout(4, 4, 2, 1, stats.pilot_idx, rsma=True)
        samples = draw_csit_samples(csit, 1, 5)
        shape = (1, 2, 4)
        for _ in range(5):
            u = 1.0 + np.abs(rng.standard_normal((2,) + shape))
            g = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
            state = WmmseState(u_c=u[0], g_c=g[0], u_p=u[1], g_p=g[1])
            prob = _assemble_subproblem(layout, samples, state, PrecoderSet.zeros(4, 4, 2, 1),
                                        stats, SolveConfig(P_t=10.0, M=1))
            quads = list(prob.objective.quads) + [
                c.quad for c in prob.q_constraints if isinstance(c.quad, cvx.QuadTerm)]
            assert len(quads) == 4 + 8
            for t in quads:
                assert np.linalg.eigvalsh((t.Q + t.Q.T) / 2).min() >= -1e-10


class TestJammingLinearization:
    def _setup(self, rng, N=4):
        layout = VariableLayout(4, N, 2, 1, np.array([0, 2]), rsma=True)
        pre = PrecoderSet(
            p_c=rng.standard_normal((N, 4)) + 1j * rng.standard_normal((N, 4)),
            p=rng.standard_normal((2, N, 4)) + 1j * rng.standard_normal((2, N, 4)),
            f=rng.standard_normal((1, N, 4)) + 1j * rng.standard_normal((1, N, 4)))
        pre.f[:, np.array([1, 3])] = 0.0
        R = au_statistics_uniform_phase(2 * BETA, 4, N, 1, (1, 3)).R[0, 0]
        return layout, pre, R

    def test_exact_at_expansion_point(self, rng):
        layout, pre, R = self._setup(rng)
        cols, coef, const = linearize_jamming(layout, pre, R, 0)
        z = layout.pack(pre, np.zeros((2, 4)))
        val = coef @ z[cols] + const
        assert val == pytest.approx(jamming_power_avg(R, pre, 0), rel=1e-10)

    def test_zero_point_vanishes(self, rng):
        layout, _, R = self._setup(rng)
        zero = PrecoderSet.zeros(4, 4, 2, 1)
        cols, coef, const = linearize_jamming(layout, zero, R, 0)
        assert np.all(coef == 0.0) and const == 0.0

    def test_lower_bound_property(self, rng):
        layout, pre, R = self._setup(rng)
        for _ in range(200):
            other = PrecoderSet(
                p_c=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
                p=rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)),
                f=rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
            other.f[:, np.array([1, 3])] = 0.0
            cols, coef, const = linearize_jamming(layout, pre, R, 0)
            z = layout.pack(other, np.zeros((2, 4)))
            assert coef @ z[cols] + const <= jamming_power_avg(R, other, 0) + 1e-9


class TestThresholds:
    def test_zero_strictness(self):
        assert jamming_threshold(0.0, 10.0, 4, 1, 4.0) == 0.0

    def test_reference_value(self):
        assert jamming_threshold(0.9, 10.0, 4, 1, 4.0) == pytest.approx(9.0, rel=1e-12)

    def test_linear_in_power(self):
        lo = jamming_threshold(0.5, 10.0, 4, 2, 3.0)
        hi = jamming_threshold(0.5, 30.0, 4, 2, 3.0)
        assert hi == pytest.approx(3.0 * lo, rel=1e-12)

    def test_strategy_one_proportional(self):
        assert threshold_strategy(1, 16, 32) == pytest.approx(0.9)
        assert threshold_strategy(1, 8, 32) == pytest.approx(0.45)

    def test_strategy_two_constant(self):
        for pilots in (2, 8, 16):
            assert threshold_strategy(2, pilots, 32) == pytest.approx(0.9)

    def test_clamped_to_unit(self):
        assert threshold_strategy(1, 32, 32, base_rho=0.9) == 1.0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            threshold_strategy(3, 4, 32)


class TestInitialization:
    def test_zero_strictness_all_power_to_comms(self):
        chan, csit, stats = paper_setup()
        cfg = SolveConfig(P_t=10.0, thresholds=np.zeros((1, 2)), M=2)
        pre = initialize(csit, stats, cfg)
        assert np.all(pre.f == 0.0)
        assert pre.total_power() == pytest.approx(10.0, abs=1e-12)

    def test_linearized_floor_met_at_start(self):
        chan, csit, stats = paper_setup()
        thr = build_thresholds(stats, 0.9, 10.0)
        cfg = SolveConfig(P_t=10.0, thresholds=thr, M=2)
        pre = initialize(csit, stats, cfg)
        layout = VariableLayout(4, 8, 2, 1, stats.pilot_idx, True)
        z = layout.pack(pre, np.zeros((2, 8)))
        for j, n in enumerate(stats.pilot_idx):
            cols, coef, const = linearize_jamming(layout, pre, stats.R[0, n], int(n))
            assert coef @ z[cols] + const >= thr[0, j] - 1e-9

    def test_total_power_exact(self):
        chan, csit, stats = paper_setup()
        thr = build_thresholds(stats, 0.5, 10.0)
        for scheme in ("RSMA", "SDMA"):
            cfg = SolveConfig(P_t=10.0, scheme=scheme, thresholds=thr, M=2)
            pre = initialize(csit, stats, cfg)
            assert pre.total_power() == pytest.approx(10.0, abs=1e-12)

    def test_infeasible_floors_rejected(self):
        chan, csit, stats = paper_setup()
        thr = build_thresholds(stats, 0.9, 10.0) * 5.0
        cfg = SolveConfig(P_t=10.0, thresholds=thr, M=2)
        with pytest.raises(InfeasibleError):
            initialize(csit, stats, cfg)


class TestOptimize:
    def test_single_user_matches_water_filling(self):
        prof = exponential_delay_profile(1.2e-6, 12)
        chan = synth_selective_channel(prof, 4, 8, 1, 0, seed=3)
        csit = CsitModel(h_hat=chan.h, sigma_ie2=0.0)
        stats = au_statistics_none(4, 8)
        cfg = SolveConfig(P_t=20.0, scheme="RSMA", M=1, seed=0,
                          eps_r=1e-5)
        res = optimize(csit, stats, cfg)
        gains = np.sum(np.abs(chan.h[0]) ** 2, axis=-1)
        ref = water_filling_rate_bits(gains, 20.0) / 8
        assert abs(res.report.R_sum - ref) <= 0.01 * ref

    def test_sdma_restrict_flips_scheme_only(self):
        cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=4, seed=1)
        cfg2 = sdma_restrict(cfg)
        assert cfg2.scheme == "SDMA"
        assert dataclasses.replace(cfg2, scheme="RSMA") == cfg

    def test_sdma_single_user_close_to_rsma(self):
        prof = exponential_delay_profile(1.2e-6, 12)
        chan = synth_selective_channel(prof, 4, 8, 1, 0, seed=4)
        csit = CsitModel(h_hat=chan.h, sigma_ie2=0.0)
        stats = au_statistics_none(4, 8)
        out = {}
        for scheme in ("RSMA", "SDMA"):
            cfg = SolveConfig(P_t=15.0, scheme=scheme, M=1, seed=0,
                              eps_r=1e-5)
            out[scheme] = optimize(csit, stats, cfg).report.R_sum
        assert abs(out["RSMA"] - out["SDMA"]) <= 0.01 * out["RSMA"]

    def test_sdma_report_has_zero_split(self):
        chan, csit, stats = paper_setup()
        thr = build_thresholds(stats, 0.45, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="SDMA", M=2, seed=5, thresholds=thr,
                          eps_r=1e-3)
        res = optimize(csit, stats, cfg)
        assert np.all(res.report.C == 0.0)
        assert np.all(res.split.X == 0.0)

    def test_vacuous_floor_matches_no_adversary_run(self):
        # rho = 0 with an adversary present must match the adversary-free run
        chan, csit, stats = paper_setup(sigma2=0.2)
        cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=2, seed=9,
                          thresholds=np.zeros((1, 2)), eps_r=1e-4)
        res = optimize(csit, stats, cfg)
        assert float(np.sum(np.abs(res.precoders.f) ** 2)) <= 1e-6

        stats0 = au_statistics_none(4, 8)
        cfg0 = SolveConfig(P_t=10.0, scheme="RSMA", M=2, seed=9,
                           eps_r=1e-4)
        res0 = optimize(csit, stats0, cfg0)
        assert res.report.R_sum == pytest.approx(res0.report.R_sum, abs=2e-3)

    def test_saa_degeneracy_bitwise(self):
        chan, csit_any, stats = paper_setup(sigma2=0.0)
        thr = build_thresholds(stats, 0.45, 10.0)
        runs = []
        for seed in (3, 99):  # sample seed is irrelevant under perfect CSI
            cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=1, seed=seed,
                              thresholds=thr, eps_r=1e-3)
            runs.append(optimize(csit_any, stats, cfg))
        a, b = runs
        assert np.array_equal(a.precoders.p_c, b.precoders.p_c)
        assert np.array_equal(a.precoders.p, b.precoders.p)
        assert np.array_equal(a.precoders.f, b.precoders.f)
        assert a.report.R_sum == b.report.R_sum

    def test_monotone_traces_and_feasibility(self):
        chan, csit, stats = paper_setup(sigma2=0.4)
        thr = build_thresholds(stats, 0.9, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=4, seed=21, thresholds=thr)
        res = optimize(csit, stats, cfg)
        d = res.report.diagnostics
        wsr = d["wsr_trace_nats"]
        assert all(wsr[i + 1] >= wsr[i] - 1e-6 for i in range(len(wsr) - 1))
        assert d["max_violation"] <= 1e-6
        assert res.precoders.total_power() <= 10.0 + 1e-9
        # true (not linearized) focused power meets the floor
        for j, n in enumerate(stats.pilot_idx):
            lam = jamming_power_avg(stats.R[0, n], res.precoders, int(n))
            assert lam >= thr[0, j] - 1e-6

    def test_rsma_never_below_restriction(self):
        chan, csit, stats = paper_setup(sigma2=1.0)
        thr = build_thresholds(stats, 0.9, 10.0)
        sdma = optimize(csit, stats, SolveConfig(
            P_t=10.0, scheme="SDMA", M=4, seed=2, thresholds=thr,
            eps_r=1e-3))
        rsma = optimize(csit, stats, SolveConfig(
            P_t=10.0, scheme="RSMA", M=4, seed=2, thresholds=thr,
            eps_r=1e-3), restricted=sdma)
        assert rsma.report.R_sum >= sdma.report.R_sum - 1e-6

    def test_jamming_exists_only_on_pilots(self):
        chan, csit, stats = paper_setup(sigma2=0.3, pilots=2)
        thr = build_thresholds(stats, 0.9, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=2, seed=13, thresholds=thr,
                          eps_r=1e-3)
        res = optimize(csit, stats, cfg)
        off_pilot = np.setdiff1d(np.arange(8), stats.pilot_idx)
        assert np.all(res.precoders.f[:, off_pilot] == 0.0)

    def test_one_solve_per_iteration(self, monkeypatch):
        chan, csit, stats = paper_setup(sigma2=0.0)
        thr = build_thresholds(stats, 0.45, 10.0)
        calls = []
        solve = cvx.solve
        monkeypatch.setattr(cvx, "solve", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        res = optimize(csit, stats, SolveConfig(P_t=10.0, scheme="SDMA", M=2, seed=5,
                                                thresholds=thr, eps_r=1e-3))
        lam = [jamming_power_avg(stats.R[0, n], res.precoders, int(n)) for n in stats.pilot_idx]
        assert min(lam / thr[0]) <= 1.0 + 1e-3, "the floors must be active"
        assert len(calls) == res.outer_iterations


@st.composite
def random_instances(draw):
    K, L = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    N, n_t = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    pilots = draw(st.lists(st.integers(1, N), unique=True, min_size=1, max_size=N))
    sigma2 = draw(st.sampled_from([0.0, 0.3, 1.0]))
    M = draw(st.sampled_from([1, 4]))
    P_t = 10.0 ** (draw(st.floats(-10.0, 40.0)) / 10.0)
    rho = draw(st.floats(0.0, 0.9))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)

    def c(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    A = c(L, N, n_t, n_t)
    R = A @ np.conj(np.swapaxes(A, 2, 3)) / n_t
    stats = AuStatistics(R=R, tau=np.linalg.eigvalsh(R)[..., -1], pilot_set=tuple(pilots))
    csit = CsitModel(h_hat=c(K, N, n_t), sigma_ie2=sigma2)
    thr = build_thresholds(stats, rho, P_t) if L else None
    return csit, stats, SolveConfig(P_t=P_t, scheme="SDMA", M=M, seed=seed, thresholds=thr)


@settings(max_examples=25, deadline=None)
@given(random_instances())
def test_invariants_on_random_instances(case):
    csit, stats, cfg = case
    sdma = optimize(csit, stats, cfg)
    rsma = optimize(csit, stats, dataclasses.replace(cfg, scheme="RSMA"), restricted=sdma)
    for res in (sdma, rsma):
        prec, rep = res.precoders, res.report
        for a in (prec.p_c, prec.p, prec.f, res.split.X, rep.I_private, rep.I_common,
                  rep.C, rep.R_k, rep.R_sum, rep.lambda_avg if stats.L else 0.0):
            assert np.all(np.isfinite(a))
        assert prec.total_power() <= cfg.P_t * (1.0 + 1e-9)
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                assert jamming_power_avg(stats.R[l, n], prec, int(n)) >= cfg.thresholds[l, j] - 1e-6
    assert rsma.report.R_sum >= sdma.report.R_sum - 1e-6
