import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from jamcom.metrics import PrecoderSet, jamming_power_avg, stream_mses
from jamcom import channel as ch
from jamcom import optimizer as op
from jamcom import solver as cvx
from jamcom.optimizer import (
    SolveConfig,
    VariableLayout,
    _assemble_subproblem,
    _optimize_single,
    _project_floor_free,
    _sampled_info,
    _surrogate,
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
from oracles import (interference_sums, mse_of_filter, stream_sinr_mse, surrogate_terms,
                     water_filling_rate_bits)

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9
# the counters of a tried extrapolation step's outcome; each step has one
STEP_OUTCOMES = ("extrapolation_accepted", "extrapolation_rate_rejected",
                 "extrapolation_floor_rejected")


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
    # the WSR-only pass carries the weight u as ln u (info_*, a sample mean);
    # the chunk kernel carries it and the filter g as u|g|^2 (w_*) and u g^*
    # (a_*), so u = exp(info) at M=1 and g = w / a

    def test_scalar_weight_is_inverse_mse(self):
        samples, pre = scalar_setup()
        assert np.exp(_sampled_info(samples, pre).info_p[0, 0]) == pytest.approx(
            4.0, rel=1e-12)  # mse 1/4
        _, _, w_p, *_ = _wmmse_state(samples, pre)
        assert w_p[0, 0, 0] == pytest.approx(4.0 * 3.0 / 16.0, rel=1e-12)

    def test_zero_precoders_unit_weights(self):
        samples, _ = scalar_setup()
        state = _sampled_info(samples, PrecoderSet.zeros(4, 1, 1, 0))
        assert np.all(state.info_c == 0.0) and np.all(state.info_p == 0.0)

    def test_scalar_filter(self):
        samples, pre = scalar_setup()
        _, _, w_p, a_p, *_ = _wmmse_state(samples, pre)
        g_p = w_p / a_p
        assert g_p[0, 0, 0] == pytest.approx(np.sqrt(3) / 4, rel=1e-12)

    def test_zero_precoders_zero_filters(self):
        samples, _ = scalar_setup()
        for a in _wmmse_state(samples, PrecoderSet.zeros(4, 1, 1, 0))[:4]:
            assert np.all(a == 0.0)

    def test_filters_minimize_sampled_mse(self, rng):
        chan, csit, stats = paper_setup()
        samples = draw_csit_samples(csit, 4, 3)
        pre = PrecoderSet(
            p_c=rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)),
            p=rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4)),
            f=rng.standard_normal((1, 8, 4)) + 1j * rng.standard_normal((1, 8, 4)))
        _, _, w_p, a_p, *_ = _wmmse_state(samples, pre)
        eps_p = stream_mses(samples, pre)[1]
        m, k, n = 2, 1, 5
        g = w_p[k, n, m] / a_p[k, n, m]
        h = samples[m, k, n]
        _, Z, J = interference_sums(h, list(pre.p[:, n]), list(pre.f[:, n]), k)
        best = mse_of_filter(g, h, pre.p[k, n], Z + J)
        # the filter attains the optimal MSE, and no nearby filter does better
        assert best == pytest.approx(eps_p[m, k, n], abs=1e-12)
        for step in (0.05, 0.1):
            for _ in range(100):
                pert = g + step * (rng.standard_normal() + 1j * rng.standard_normal())
                assert mse_of_filter(pert, h, pre.p[k, n], Z + J) >= best - 1e-12


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
        state = _sampled_info(samples, pre)
        prob = _assemble_subproblem(layout, _surrogate(samples, pre, state), pre,
                                    op._Floors(stats, None, 10.0), 10.0)
        return layout, samples, pre, prob, state

    def test_identity_at_fresh_weights(self, rng):
        # objective at the linearization precoders: sum of 1 - I_private nats,
        # plus the split under RSMA; i.e. K*N minus the weighted sum rate
        for scheme in ("RSMA", "SDMA"):
            layout, samples, pre, prob, state = self._setup(rng, scheme)
            target = 0.0
            for n in range(4):
                for k in range(2):
                    mse = stream_sinr_mse(samples[0, k, n], pre, n, k, "private")[1]
                    target += 1.0 + np.log(mse)
            z = layout.pack(pre, np.zeros(4))
            scale = layout.var_scale(10.0)
            assert prob.evaluate(z / scale)[0] == pytest.approx(target, abs=1e-12)
            X = -np.abs(rng.standard_normal(4))
            wm = prob.evaluate(layout.pack(pre, X) / scale)[0]
            assert wm == pytest.approx(2 * 4 - _wsr_nats(state, X if layout.rsma else np.zeros(4)),
                                       abs=1e-12)
            assert wm == pytest.approx(target + (X.sum() if layout.rsma else 0.0), abs=1e-12)

    def test_common_constraint_is_minus_common_information(self, rng):
        layout, samples, pre, prob, _ = self._setup(rng)
        c = prob.evaluate(layout.pack(pre, np.zeros(4)) / layout.var_scale(10.0))[2]
        seen = []
        for g, cg in zip(prob.groups, prob.split(c)):
            assert g.kinds[:2] == ("q", "q")
            for cols, cb in zip(g.cols, cg):
                n = int(np.flatnonzero(layout.x_cols == cols[-1])[0])  # block n ends in x_n
                seen.append(n)
                for k in range(2):
                    mse = stream_sinr_mse(samples[0, k, n], pre, n, k, "common")[1]
                    info_nats = -np.log(mse)
                    assert cb[k] == pytest.approx(-info_nats, abs=1e-12)
        assert sorted(seen) == list(range(4))

    def test_unit_weight_zero_filter_gives_one(self):
        # at M=1 the chunk kernels' sums are the averages
        samples, _ = scalar_setup()
        weights = _wmmse_state(samples, PrecoderSet.zeros(4, 1, 1, 0))
        Rc, Rp, v_c, v_p = _surrogate_coefficients(samples, weights[:4])
        r_c, r_p = weights[4:]
        assert r_c[0, 0] == pytest.approx(1.0, abs=0)
        assert r_p[0, 0] == pytest.approx(1.0, abs=0)
        assert np.all(Rc == 0.0) and np.all(Rp == 0.0)
        assert np.count_nonzero(v_c) == 0 and np.count_nonzero(v_p) == 0

    def test_sample_averaged_terms_match_oracle(self, rng):
        self._check_terms(rng, 1)

    def test_chunked_terms_match_oracle(self, rng, monkeypatch):
        # 13 chunks of 5 draws, the last one of 4
        monkeypatch.setattr(ch, "_CHUNK_BYTES", 5 * 2 * 3 * 3 * 16)
        self._check_terms(rng, 13)

    @staticmethod
    def _check_terms(rng, chunks):
        # M=64 samples, jamming precoders present, on the subcarrier-major draw
        # the optimizer uses and on its C-contiguous copy
        K, N, n_t = 2, 3, 3
        cn = lambda *sh: rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
        drawn = draw_csit_samples(CsitModel(h_hat=cn(K, N, n_t), sigma_ie2=0.3), 64, 7)
        assert len(ch._sample_chunks(drawn.shape)) == chunks
        pre = PrecoderSet(p_c=cn(N, n_t), p=cn(K, N, n_t), f=cn(1, N, n_t))
        for samples in (drawn, np.ascontiguousarray(drawn)):
            Sc, Sp, v_c, v_p, r_c, r_p = _surrogate(samples, pre, _sampled_info(samples, pre))
            for k in range(K):
                for n in range(N):
                    for stage, R, v, r in (("common", Sc, v_c, r_c),
                                           ("private", Sp, v_p, r_p)):
                        S, v_o, r_o = surrogate_terms(samples, pre, n, k, stage)
                        for got, want in ((R[k, n], S), (v[k, n], v_o), (r[k, n], r_o)):
                            np.testing.assert_allclose(
                                got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_hessian_psd(self, rng):
        chan, csit, stats = paper_setup(N=4)
        layout = VariableLayout(4, 4, 2, 1, stats.pilot_idx, rsma=True)
        samples = draw_csit_samples(csit, 1, 5)
        shape = (2, 4, 1)
        for _ in range(5):
            u = 1.0 + np.abs(rng.standard_normal((2,) + shape))
            g = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
            w, a, zero = u * np.abs(g) ** 2, u * np.conj(g), np.zeros(shape[:2])
            # at M=1 the chunk sums are the averages
            coefficients = _surrogate_coefficients(samples, (w[0], a[0], w[1], a[1]))
            prob = _assemble_subproblem(layout, coefficients + (zero, zero),
                                        PrecoderSet.zeros(4, 4, 2, 1),
                                        op._Floors(stats, None, 10.0), 10.0)
            quads = [H for g in prob.groups for H in g.quad[:, 0]] + [
                g.quad[b, 1 + i] for g in prob.groups for b in range(g.cols.shape[0])
                for i, kind in enumerate(g.kinds) if kind == "q"]
            assert len(quads) == 4 + 8
            for Q in quads:
                assert np.linalg.eigvalsh((Q + Q.T) / 2).min() >= -1e-10


def single(csit, stats, config):
    """One run of config.scheme alone, without the RSMA restriction, on the
    draws ``optimize`` would make."""
    return _optimize_single(csit, stats, config,
                            op.draw_csit_samples(csit, config.M, config.seed),
                            op._Floors(stats, config.thresholds, config.P_t))


def full_stage_wsr(res, M):
    """The sampled WSR (nats) of a run's trace records on all M draws."""
    return [t["wsr_nats"] for t in res.report.diagnostics["trace"] if t["draws"] == M]


def first_subproblem(csit, stats, config):
    """The first subproblem a run of ``config`` solves, floors tightened as the
    run tightens them."""
    samples = draw_csit_samples(csit, config.M, config.seed)
    layout = VariableLayout(csit.n_t, csit.N, csit.K, stats.L, stats.pilot_idx,
                            config.scheme == "RSMA")
    pre = initialize(csit, stats, config)
    floors = op._Floors(stats, config.thresholds, config.P_t)
    return _assemble_subproblem(layout, _surrogate(samples, pre, _sampled_info(samples, pre)),
                                pre, floors, config.P_t)


class TestStackedEmission:
    """The optimizer emits the solver's stacked form with the same arrays the
    record-based assembly and its compile step produced."""

    @pytest.mark.parametrize("scheme", ["RSMA", "SDMA"])
    def test_first_desk_subproblem_matches_compiled_arrays(self, scheme):
        # tests/data/desk0_first_subproblem.npz holds the compiled (scaled,
        # stacked) arrays of this subproblem from the record-based assembly:
        # per width group the block columns, objective blocks, and per row its
        # canonical number (q, then a, then sign), block row, quadratic and
        # linear part; then the canonical constants and names, the spanning
        # rows, q0, c0 and the variable scale
        with np.load(os.path.join(os.path.dirname(__file__), "data",
                                  "desk0_first_subproblem.npz")) as data:
            ref = dict(data)
        p = scheme.lower() + "_"
        csit, stats, config = desk_instance(0, scheme)
        prob = first_subproblem(csit, stats, config)

        def bits(a):
            # bitwise, up to the sign of zero (+ 0.0 turns -0.0 into +0.0)
            return (np.asarray(a, dtype=np.float64) + 0.0).tobytes()

        assert prob.n_vars == int(ref[p + "n"])
        ref_groups = [{f: ref[f"{p}g{i}_{f}"] for f in ("cols", "H", "idx", "row", "Q", "lin")}
                      for i in range(int(ref[p + "n_groups"]))]
        old = np.empty(prob.m, dtype=np.int64)   # the old number of each row
        for g, rows in zip(prob.groups, prob.split(np.arange(prob.m))):
            rg, = [r for r in ref_groups if r["cols"].shape[1] == g.cols.shape[1]]
            for b, cols in enumerate(g.cols):
                row = int(np.flatnonzero(np.all(rg["cols"] == cols, axis=1))[0])
                at = rg["row"] == row
                assert bits(g.quad[b, 0]) == bits(rg["H"][row])
                assert bits(g.quad[b, 1:]) == bits(rg["Q"][at])
                assert bits(g.lin[b]) == bits(rg["lin"][at])
                old[rows[b]] = rg["idx"][at]
        old[-1], = ref[p + "span_idx"]
        assert sorted(old) == list(range(prob.m))
        const = np.concatenate([g.const.ravel() for g in prob.groups] + [[prob.budget_const]])
        assert bits(const) == bits(ref[p + "const"][old])
        assert ([name.split("[")[0] for name in prob.labels()]
                == [str(name).split("[")[0] for name in ref[p + "kinds"][old]])
        assert bits(prob.budget) == bits(ref[p + "span_D"][0])
        assert not np.any(ref[p + "span_A"])
        assert bits(prob.q0) == bits(ref[p + "q0"]) and prob.c0 == float(ref[p + "c0"])
        layout = VariableLayout(csit.n_t, csit.N, csit.K, stats.L, stats.pilot_idx,
                                scheme == "RSMA")
        assert bits(layout.var_scale(config.P_t)) == bits(ref[p + "scale"])


def saa_shape_setup():
    """The saa benchmark shape: M=4096, K=2, N=8, n_t=4, no adversary."""
    K, N, n_t, M = 2, 8, 4, 4096
    rng = np.random.default_rng(3)
    h_hat = rng.standard_normal((K, N, n_t)) + 1j * rng.standard_normal((K, N, n_t))
    csit, stats = CsitModel(h_hat=h_hat, sigma_ie2=0.3), au_statistics_none(n_t, N)
    return csit, stats, SolveConfig(P_t=10 ** 1.5, M=M)


def desk_instance(idx, scheme=None):
    """Desk instance idx of the acceptance suite, run with its own scheme
    unless one is given; instance 0 is 5 dB with one pilot and active floors."""
    P_t = 10.0 ** ((5.0, 15.0, 25.0)[idx % 3] / 10.0)
    pilots = (1, 2, 4)[idx % 3]
    chan = synth_selective_channel(exponential_delay_profile(1.2e-6, 12), 4, 8, 2, 1, seed=idx)
    csit = CsitModel(h_hat=chan.h, sigma_ie2=csit_error_variance(P_t, 8, 0.6), alpha=0.6)
    stats = au_statistics_isotropic(4, 8, 1, evenly_spaced_pilots(pilots, 8))
    thr = build_thresholds(stats, threshold_strategy(1 + idx % 2, pilots, 8), P_t)
    scheme = scheme or ("RSMA" if idx % 2 == 0 else "SDMA")
    return csit, stats, SolveConfig(P_t=P_t, scheme=scheme, M=4, seed=100 + idx, thresholds=thr)


def assert_optimal_solves_certify(monkeypatch, case):
    """Run optimize on case = (csit, stats, config), recording every solve,
    and check that each optimal one certifies at 10 tol."""
    solve, solves = cvx.solve, []

    def spy(prob, **kw):
        solves.append((prob, solve(prob, **kw)))
        return solves[-1][1]

    monkeypatch.setattr(cvx, "solve", spy)
    optimize(*case)
    optimal = [(prob, res) for prob, res in solves if res.status == "optimal"]
    assert len(optimal) >= 30
    assert all(cvx.certify(prob, res, 10 * op._SOLVER_TOL) for prob, res in optimal)


def spy_steps(monkeypatch):
    """Record what every extrapolation step of the optimizer returns."""
    steps, step = [], op._extrapolate
    monkeypatch.setattr(op, "_extrapolate", lambda *a: steps.append(step(*a)) or steps[-1])
    return steps


def spy_runs(monkeypatch):
    """Record the config, start and result of every single-scheme run."""
    runs, run = [], op._optimize_single

    def spy(csit, stats, config, draws, floors, start=None):
        runs.append((config, start, run(csit, stats, config, draws, floors, start)))
        return runs[-1][2]

    monkeypatch.setattr(op, "_optimize_single", spy)
    return runs


class TestSampledPassAllocation:
    """tracemalloc peaks at the saa shape, in sample arrays (4 MiB): every
    sampled pass walks the draws in 256 KiB chunks, so beside the draws only
    one chunk's temporaries exist; a per-sample array over all M draws, or a
    stray transposed or conjugated copy of the samples, costs a whole one."""

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _point(self):
        csit, stats, config = saa_shape_setup()
        samples = draw_csit_samples(csit, config.M, 0)
        return csit, stats, config, samples, initialize(csit, stats, config)

    def test_wsr_only_pass_peak(self):
        # measured 0.13
        _, _, _, samples, pre = self._point()
        assert self._peak(lambda: _sampled_info(samples, pre)) <= 0.25 * samples.nbytes

    def test_state_and_assembly_peak_below_three_sample_arrays(self):
        # the fused pass (the running point's weights, grams, linear terms and
        # constants) and the assembly from its averages; measured 0.18
        csit, stats, config, samples, pre = self._point()
        layout = VariableLayout(csit.n_t, csit.N, csit.K, 0, stats.pilot_idx, rsma=True)
        state = _sampled_info(samples, pre)
        floors = op._Floors(stats, config.thresholds, config.P_t)
        peak = self._peak(lambda: _assemble_subproblem(
            layout, _surrogate(samples, pre, state), pre, floors, config.P_t))
        assert peak <= 0.3 * samples.nbytes

    def test_rate_report_peak(self):
        # measured 0.13
        _, _, _, samples, pre = self._point()
        assert self._peak(lambda: op.rate_report(samples, pre)) <= 0.25 * samples.nbytes

    @pytest.mark.parametrize("scheme", ["SDMA", "RSMA"])
    def test_run_peak_keeps_at_most_two_states(self, scheme):
        # a whole run, its draws included: the draws and one chunk's
        # temporaries, measured 1.19 (SDMA) and 1.23 (RSMA); the states it
        # keeps between passes are per (user, subcarrier) only
        csit, stats, config = saa_shape_setup()
        config = dataclasses.replace(config, scheme=scheme, max_outer=6)
        nbytes = draw_csit_samples(csit, config.M, 0).nbytes
        assert self._peak(lambda: single(csit, stats, config)) <= 1.35 * nbytes


class TestSampleStages:
    """Sample-size continuation: the ascent runs on the first M/4^j draws, then
    on all M, from where the smaller stage ended."""

    def test_stage_sizes(self):
        assert op._sample_stages(saa_shape_setup()[2].M) == [1024, 4096]
        assert op._sample_stages(16384) == [1024, 4096, 16384]
        for M in (1, 4, 64, 1024, 4095):
            assert op._sample_stages(M) == [M]

    def test_one_draw_and_prefix_stages(self, monkeypatch):
        csit, stats, config = saa_shape_setup()
        config = dataclasses.replace(config, scheme="RSMA", max_outer=5)
        draws, seen = [], []
        draw, surrogate = op.draw_csit_samples, op._surrogate
        monkeypatch.setattr(op, "draw_csit_samples",
                            lambda *a: draws.append(draw(*a)) or draws[-1])
        monkeypatch.setattr(op, "_surrogate",
                            lambda samples, *a: seen.append(samples) or surrogate(samples, *a))
        res = single(csit, stats, config)
        traced = res.report.diagnostics["trace"]
        assert len(draws) == 1
        full = draw(csit, config.M, config.seed)
        stages = res.report.diagnostics["sample_stages"]
        assert [d for d, _ in stages] == [1024, 4096]
        assert sum(n for _, n in stages) == res.outer_iterations == len(seen) <= 5
        for samples, size in zip(seen, [d for d, n in stages for _ in range(n)]):
            assert samples.shape[0] == size
            # every stage ascends on a view of the one draw, not on a copy
            assert np.shares_memory(samples, draws[0])
            assert samples.tobytes() == full[:size].tobytes()
        # each trace record names its stage, and the full stage's records come
        # last and ascend
        assert [t["draws"] for t in traced] == sorted(t["draws"] for t in traced)
        assert {t["draws"] for t in traced} <= {1024, 4096}
        wsr = full_stage_wsr(res, config.M)
        assert wsr == [t["wsr_nats"] for t in traced[len(traced) - len(wsr):]]
        assert all(b >= a - 1e-9 for a, b in zip(wsr, wsr[1:]))
        assert len(wsr) <= stages[-1][1]

    def test_one_cold_solve_per_run(self, monkeypatch):
        # the full stage's first solve is warm-started from the prefix stage's
        # last: the layout, floors and row count are the same in both
        csit, stats, config = saa_shape_setup()
        starts, solve = [], cvx.solve
        monkeypatch.setattr(cvx, "solve",
                            lambda prob, **kw: starts.append(kw.get("start")) or solve(prob, **kw))
        res = single(csit, stats, config)
        assert [d for d, _ in res.report.diagnostics["sample_stages"]] == [1024, 4096]
        assert res.report.diagnostics["counts"]["solve_cold_retry"] == 0
        assert len(starts) == res.outer_iterations
        assert [s is None for s in starts].count(True) == 1 and starts[0] is None

    def test_prefix_stage_freed_before_full_stage(self):
        # the run peaks at the draws plus one chunk's temporaries, 1.23 sample
        # arrays, as a one-stage run does; a prefix-stage array over its 1,024
        # draws left referenced through the full stage would add 0.25 per copy
        csit, stats, config = saa_shape_setup()
        config = dataclasses.replace(config, scheme="RSMA", max_outer=6)
        nbytes = draw_csit_samples(csit, config.M, 0).nbytes
        tracemalloc.start()
        try:
            res = single(csit, stats, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.report.diagnostics["sample_stages"]) == 2
        assert peak <= 1.35 * nbytes

    @staticmethod
    def _check_stage_iterations(M, max_outer, sizes):
        csit, stats, config = saa_shape_setup()
        res = single(csit, stats, dataclasses.replace(
            config, scheme="SDMA", M=M, max_outer=max_outer))
        stages = res.report.diagnostics["sample_stages"]
        assert sum(n for _, n in stages) == res.outer_iterations <= max_outer
        assert stages[-1][0] == M and stages[-1][1] >= 1   # the full stage runs
        assert [d for d, _ in stages] == sizes

    @pytest.mark.parametrize("max_outer", [1, 2, 3, 200])
    def test_stage_iterations_sum_to_outer(self, max_outer):
        self._check_stage_iterations(4096, max_outer, [4096] if max_outer == 1 else [1024, 4096])

    @pytest.mark.parametrize("max_outer,sizes", [(1, [16384]), (2, [4096, 16384]),
                                                 (3, [1024, 4096, 16384])])
    def test_three_stage_iterations_sum_to_outer(self, max_outer, sizes):
        # stage j of S ends at outer iteration max_outer - (S - 1 - j): a cap
        # below S skips the smallest stages, every stage that runs gets one
        self._check_stage_iterations(16384, max_outer, sizes)

    def test_single_stage_below_4096_draws(self):
        csit, stats, config = desk_instance(0, "SDMA")
        res = single(csit, stats, config)
        assert res.report.diagnostics["sample_stages"] == [[config.M, res.outer_iterations]]

    @pytest.mark.parametrize("scheme", ["SDMA", "RSMA"])
    def test_floored_run_meets_true_constraints(self, scheme):
        csit, stats, config = desk_instance(0, scheme)
        config = dataclasses.replace(config, M=4096)
        res = optimize(csit, stats, config)
        prec, rep = res.precoders, res.report
        assert [d for d, _ in rep.diagnostics["sample_stages"]] == [1024, 4096]
        assert prec.total_power() <= config.P_t * (1.0 + 1e-9)
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                assert jamming_power_avg(stats.R[l, n], prec, int(n)) >= config.thresholds[l, j]
        assert np.all(rep.C.sum(axis=0) <= rep.I_common.min(axis=0) + 1e-9)
        assert np.all(res.split.X <= 0.0)
        # every iteration ends in an optimal solve or stops its stage on a failed one
        counts = rep.diagnostics["counts"]
        assert counts["ipm_optimal"] + counts["stop_solve_failed"] == res.outer_iterations


class TestFloorFreeProjection:
    # floors on subcarriers 1 and 4 of six; jamming precoders only there
    def _setup(self, rng):
        def c(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = c(1, 6, 3)
        free = np.ones(6, dtype=bool)
        free[[1, 4]] = False
        f[:, free] = 0.0
        return PrecoderSet(p_c=c(6, 3), p=c(2, 6, 3), f=f), free

    def test_total_is_exactly_the_budget(self, rng):
        pre, free = self._setup(rng)
        for share in (0.99, 0.9, 0.6):
            P_t = share * pre.total_power()
            out = _project_floor_free(pre, P_t, free)
            assert out.total_power() == pytest.approx(P_t, rel=1e-12)

    def test_floor_carrying_subcarriers_bitwise_untouched(self, rng):
        pre, free = self._setup(rng)
        out = _project_floor_free(pre, 0.8 * pre.total_power(), free)
        for f in ("p_c", "p", "f"):
            a, b = getattr(pre, f), getattr(out, f)
            assert a[..., ~free, :].tobytes() == b[..., ~free, :].tobytes()
            assert np.all(np.abs(b[..., free, :]) <= np.abs(a[..., free, :]))

    def test_no_candidate_when_free_power_cannot_cover_the_excess(self, rng):
        pre, free = self._setup(rng)
        floored_power = sum(np.sum(np.abs(pre.q[n]) ** 2) for n in np.flatnonzero(~free))
        for P_t in ((1.0 - 1e-9) * floored_power, 0.5 * floored_power):
            assert _project_floor_free(pre, P_t, free) is None

    def test_no_candidate_without_floors(self, rng):
        pre, _ = self._setup(rng)
        assert _project_floor_free(pre, 0.5 * pre.total_power(), np.ones(6, dtype=bool)) is None

    def test_point_inside_budget_unchanged(self, rng):
        pre, free = self._setup(rng)
        for P_t in (pre.total_power(), 2.0 * pre.total_power()):
            assert _project_floor_free(pre, P_t, free) is pre


class TestFloorTolerance:
    """One rule for every run: the check tolerance and the subproblems' margin
    scale with 1 + max(largest threshold, P_t), and no thresholds read as
    all-zero ones."""

    def test_none_reads_as_zero_thresholds(self):
        for stats in (au_statistics_isotropic(4, 8, 1, (1, 5)), au_statistics_none(4, 8)):
            none = op._Floors(stats, None, 1e7)
            zeros = op._Floors(stats, np.zeros((stats.L, stats.pilot_idx.size)), 1e7)
            assert (none.tol, none.margin) == (zeros.tol, zeros.margin)
            assert none.tol == 1e-9 * (1.0 + 1e7)
            assert none.free.all() and not none.rows

    def test_budget_projection_is_not_a_miss_at_high_snr(self, rng):
        # rounding in the projection exceeds an absolute 1e-9 from 70 dB on
        P_t = 1e7
        floors = op._Floors(au_statistics_isotropic(4, 8, 1, (1, 5)), np.zeros((1, 2)), P_t)
        for _ in range(200):
            q = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
            pre = op._project_power(PrecoderSet.stacked(q * 1e4, 2), P_t)
            assert not floors.missed(pre, P_t)

    @pytest.mark.parametrize("snr_db", [70.0, 80.0])
    def test_zero_thresholds_run_as_none(self, snr_db):
        # with all-zero thresholds the floor check read the budget projection's
        # rounding as a miss and refused extrapolation steps "on the floors"
        P_t = 10.0 ** (snr_db / 10.0)
        chan = synth_selective_channel(exponential_delay_profile(1.2e-6, 12), 4, 8, 2, 1, seed=0)
        csit = CsitModel(h_hat=chan.h, sigma_ie2=csit_error_variance(P_t, 8, 0.6), alpha=0.6)
        stats = au_statistics_isotropic(4, 8, 1, evenly_spaced_pilots(2, 8))
        config = SolveConfig(P_t=P_t, scheme="SDMA", M=4, seed=100, max_outer=30)
        none = optimize(csit, stats, config)
        zero = optimize(csit, stats, dataclasses.replace(config, thresholds=np.zeros((1, 2))))
        assert zero.report.diagnostics["counts"]["extrapolation_floor_rejected"] == 0
        assert zero.precoders.q.tobytes() == none.precoders.q.tobytes()
        assert zero.split.X.tobytes() == none.split.X.tobytes()
        assert zero.report.R_sum == none.report.R_sum


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
        (cols,), (coef,), (const,) = linearize_jamming(layout, pre, R[None], [0])
        z = layout.pack(pre, np.zeros(4))
        val = coef @ z[cols] + const
        assert val == pytest.approx(jamming_power_avg(R, pre, 0), rel=1e-10)

    def test_zero_point_vanishes(self, rng):
        layout, _, R = self._setup(rng)
        zero = PrecoderSet.zeros(4, 4, 2, 1)
        (cols,), (coef,), (const,) = linearize_jamming(layout, zero, R[None], [0])
        assert np.all(coef == 0.0) and const == 0.0

    def test_lower_bound_property(self, rng):
        layout, pre, R = self._setup(rng)
        for _ in range(200):
            other = PrecoderSet(
                p_c=rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
                p=rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)),
                f=rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4)))
            other.f[:, np.array([1, 3])] = 0.0
            (cols,), (coef,), (const,) = linearize_jamming(layout, pre, R[None], [0])
            z = layout.pack(other, np.zeros(4))
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

    @pytest.mark.parametrize("strategy,pilots,N", [(1, 0, 0), (1, 0, 8), (1, -2, 8),
                                                   (2, -1, 8), (1, 9, 8), (2, 9, 8)])
    def test_pilot_count_outside_one_to_n_rejected(self, strategy, pilots, N):
        # (1, 0, 0) divided by zero, (1, -2, 8) clamped to rho 0 and (2, -1, 8)
        # returned 0.9
        with pytest.raises(ValueError, match="pilot_count must lie in"):
            threshold_strategy(strategy, pilots, N)

    @pytest.mark.parametrize("strategy", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_base_rho_rejected(self, strategy, bad):
        # the clamp read NaN as rho 0.0 (no floors) and inf as 1.0
        with pytest.raises(ValueError, match="base_rho must be finite"):
            threshold_strategy(strategy, 2, 8, base_rho=bad)

    @pytest.mark.parametrize("field,bad", [("P_t", np.nan), ("P_t", np.inf),
                                           ("eps_r", np.nan), ("eps_r", np.inf)])
    def test_non_finite_run_setting_rejected(self, field, bad):
        # a NaN or inf P_t ended in a NaN rate after max_outer iterations; a
        # NaN eps_r never converged, and an inf one stopped after one iteration
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolveConfig(**{"P_t": 10.0, "scheme": "SDMA", "M": 4, field: bad})

    @pytest.mark.parametrize("field", ["P_t", "eps_r"])
    def test_boolean_run_setting_rejected(self, field):
        # True ran as 1.0
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            SolveConfig(**{"P_t": 10.0, "scheme": "SDMA", "M": 4, field: True})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, bad):
        # a NaN floor made the floor check's tolerance NaN, so no floor was
        # ever enforced
        with pytest.raises(ValueError, match="finite"):
            SolveConfig(P_t=10.0, scheme="SDMA", M=4, thresholds=[[bad, 2.0]])

    @pytest.mark.parametrize("make,match", [
        # a negative floor ran with no floor there
        (lambda: SolveConfig(P_t=10.0, M=4, thresholds=[[-1.0, 2.0]]), "nonnegative"),
        (lambda: SolveConfig(P_t=10.0, M=4, scheme="NOMA"), "unknown scheme"),
        (lambda: op._Floors(paper_setup()[2], np.ones((1, 3)), 10.0), "shape"),
        (lambda: op._Floors(paper_setup()[2], np.ones((2, 2)), 10.0), "shape"),
        (lambda: jamming_threshold(-0.1, 10.0, 4, 1, 1.0), "rho must lie"),
        (lambda: jamming_threshold(1.5, 10.0, 4, 1, 1.0), "rho must lie"),
        (lambda: jamming_threshold(np.nan, 10.0, 4, 1, 1.0), "rho must lie"),
        (lambda: jamming_threshold(0.5, 10.0, 0, 1, 1.0), "pilot_count and L"),
        (lambda: jamming_threshold(0.5, 10.0, 4, 0, 1.0), "pilot_count and L")],
        ids=["negative-floor", "scheme", "floors-pilots", "floors-adversaries", "rho-low",
             "rho-high", "rho-nan", "pilot-count", "L"])
    def test_bad_threshold_inputs_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


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
        z = layout.pack(pre, np.zeros(8))
        pil = stats.pilot_idx
        cols, coef, const = linearize_jamming(layout, pre, stats.R[0, pil], pil)
        assert np.all(np.sum(coef * z[cols], axis=1) + const >= thr[0] - 1e-9)

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

    def test_reaches_the_bindings_perfbench_traces(self, monkeypatch):
        # perfbench/run.py --trace 1 wraps these module attributes and fails a
        # desk pass that records no call through one of them
        targets = [(op, name) for name in ("draw_csit_samples", "stream_mses",
                                           "jamming_power_avg", "rate_report",
                                           "sdma_restrict")] + [(cvx, "solve")]
        calls = dict.fromkeys((name for _, name in targets), 0)
        for module, name in targets:
            def counted(*a, _fn=getattr(module, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            monkeypatch.setattr(module, name, counted)
        optimize(*desk_instance(0, "RSMA"), restricted=None)
        assert all(calls.values()), calls
        # a saa-shaped run walks its 4,096 draws in several chunks, and every
        # chunk loop still goes through the optimizer module's names
        csit, stats, config = saa_shape_setup()
        assert len(ch._sample_chunks((config.M, csit.K, csit.N, csit.n_t))) > 1
        calls.update(dict.fromkeys(calls, 0))
        optimize(csit, stats, dataclasses.replace(config, scheme="RSMA", max_outer=2))
        assert all(calls[name] for name in ("draw_csit_samples", "stream_mses",
                                            "rate_report", "sdma_restrict", "solve")), calls

    def test_one_draw_per_optimize_call(self, monkeypatch):
        # the RSMA run and its SDMA restriction ascend on the same draws
        calls, draw = [], op.draw_csit_samples
        monkeypatch.setattr(op, "draw_csit_samples", lambda *a: calls.append(a) or draw(*a))
        runs = spy_runs(monkeypatch)
        optimize(*desk_instance(0, "RSMA"), restricted=None)
        assert len(calls) == 1 and len(runs) == 2

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
        wsr = full_stage_wsr(res, cfg.M)
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
        assert "restriction_start" not in rsma.report.diagnostics   # no restriction ran

    def test_report_trace_is_the_returned_runs(self, monkeypatch):
        # desk instance 0 returns its restriction, instance 1 its RSMA run; the
        # returned report's trace is the returned run's, one record per moving
        # iteration, and a fallback keeps the RSMA run's trace beside it
        for idx, fallback in ((0, True), (1, False)):
            csit, stats, cfg = desk_instance(idx, "RSMA")
            runs = spy_runs(monkeypatch)
            d = optimize(csit, stats, cfg).report.diagnostics
            (_, _, rsma), (_, _, sdma) = runs[-2:]
            kept = sdma if fallback else rsma
            assert ("fallback_from" in d) == fallback
            assert d["trace"] is kept.report.diagnostics["trace"]
            counts = kept.report.diagnostics["counts"]
            assert len(d["trace"]) == (counts["ipm_optimal"] - counts["stop_floor_shortfall"]
                                       - counts["stop_wsr_decrease"]) >= 1
            if fallback:
                assert d["unrestricted_trace"] is rsma.report.diagnostics["trace"]
                assert d["outer_iterations"] == sdma.outer_iterations
            else:
                assert "unrestricted_trace" not in d
            tol = op._Floors(stats, cfg.thresholds, cfg.P_t).tol
            for t in d["trace"]:
                assert set(t) == {"outer", "draws", "wsr_nats", "max_violation"}
                assert t["draws"] == cfg.M and 0.0 <= t["max_violation"] <= tol
            assert [t["outer"] for t in d["trace"]] == list(range(len(d["trace"])))

    def test_rsma_fallback_is_counted(self):
        # desk instance 0 returns its SDMA restriction, with or without a
        # caller's restricted run, and counts it; the caller's run keeps its 0,
        # and so does instance 1, which keeps its RSMA endpoint
        csit, stats, cfg = desk_instance(0, "RSMA")
        sdma = optimize(csit, stats, sdma_restrict(cfg))
        for res in (optimize(csit, stats, cfg), optimize(csit, stats, cfg, restricted=sdma)):
            assert res.report.diagnostics["fallback_from"] == "RSMA"
            assert res.report.diagnostics["counts"]["rsma_fallback"] == 1
        assert sdma.report.diagnostics["counts"]["rsma_fallback"] == 0
        kept = optimize(*desk_instance(1, "RSMA")).report.diagnostics
        assert "fallback_from" not in kept and kept["counts"]["rsma_fallback"] == 0

    def _restricted_cases(self):
        """desk instance 0 (RSMA) and a wrong ``restricted`` for it, by name."""
        csit, stats, cfg = desk_instance(0, "RSMA")
        sdma = optimize(csit, stats, sdma_restrict(cfg))
        rsma = single(csit, stats, cfg)    # the RSMA run, not its restriction
        # another instance's SDMA result: 10 times this budget
        other = optimize(*desk_instance(1, "SDMA"))
        # the same instance's SDMA result with its streams scaled off the floors
        weak = dataclasses.replace(sdma, precoders=sdma.precoders.scaled(0.25))
        # an SDMA result of an instance with four users
        wide = optimize(*random_instance(4, 1, 8, 4, [1], 0.3, 4, cfg.P_t, 0.5, 3))
        # an RSMA result whose common stream carries power
        common = rsma if np.any(rsma.precoders.p_c) else None
        return (csit, stats, cfg, sdma,
                {"budget": other, "floors": weak, "shape": wide, "common": common})

    def test_wrong_restricted_rejected(self):
        # each was returned as this run's fallback, the first with total power
        # 31.6 against this instance's budget of 3.16
        csit, stats, cfg, sdma, bad = self._restricted_cases()
        assert bad["budget"].precoders.total_power() > 3.0 * cfg.P_t
        assert bad["common"] is not None
        for name, match in (("budget", "floors or power budget"),
                            ("floors", "floors or power budget"),
                            ("shape", "not this instance's"), ("common", "common stream")):
            with pytest.raises(ValueError, match=match):
                optimize(csit, stats, cfg, restricted=bad[name])
        # the SDMA run of the same instance is taken, as run_experiment passes it
        res = optimize(csit, stats, cfg, restricted=sdma)
        assert res.report.R_sum >= sdma.report.R_sum

    def test_restricted_on_an_sdma_run_rejected(self):
        # an SDMA run has no restriction to compare with, so it takes none
        csit, stats, cfg = desk_instance(0, "SDMA")
        sdma = optimize(csit, stats, cfg)
        with pytest.raises(ValueError, match="SDMA run takes no restricted"):
            optimize(csit, stats, cfg, restricted=sdma)

    def test_restriction_starts_from_the_endpoint(self, monkeypatch):
        # without restricted, the restriction starts where the RSMA run ended,
        # its common power moved onto the private streams of each subcarrier
        csit, stats, cfg = desk_instance(0, "RSMA")
        runs = spy_runs(monkeypatch)
        res = optimize(csit, stats, cfg, restricted=None)
        (rsma_cfg, rsma_start, rsma), (sdma_cfg, start, _) = runs
        assert rsma_cfg == cfg and rsma_start is None and sdma_cfg == sdma_restrict(cfg)
        end = rsma.precoders
        assert np.all(start.p_c == 0.0) and np.array_equal(start.f, end.f)
        np.testing.assert_allclose([np.sum(np.abs(start.q[n]) ** 2) for n in range(csit.N)],
                                   [np.sum(np.abs(end.q[n]) ** 2) for n in range(csit.N)],
                                   rtol=1e-12)
        assert not op._Floors(stats, cfg.thresholds, cfg.P_t).missed(start, cfg.P_t)
        assert res.report.diagnostics["restriction_start"] == "endpoint"

    def test_endpoint_restriction_takes_fewer_outer_iterations(self, monkeypatch):
        csit, stats, cfg = desk_instance(0, "RSMA")
        cold = optimize(*desk_instance(0, "SDMA"))     # the restriction from initialize
        runs = spy_runs(monkeypatch)
        optimize(csit, stats, cfg, restricted=None)
        (_, _, rsma), (_, _, sdma) = runs
        assert sdma.outer_iterations < min(rsma.outer_iterations, cold.outer_iterations)

    def test_restriction_starts_from_initialize_when_a_floor_is_missed(self, monkeypatch):
        # a non-isotropic adversary: the moved power lowers a focused power
        # below its floor, so the restriction starts as a lone SDMA run does
        csit, stats, cfg = random_instance(3, 1, 1, 2, [1], 0.3, 4, 10.0, 0.8, 2)
        cfg = dataclasses.replace(cfg, scheme="RSMA")
        runs = spy_runs(monkeypatch)
        res = optimize(csit, stats, cfg)
        (_, _, rsma), (_, start, sdma) = runs
        floors = op._Floors(stats, cfg.thresholds, cfg.P_t)
        assert floors.missed(op._private_start(rsma.precoders), cfg.P_t)
        assert start is None
        assert res.report.diagnostics["restriction_start"] == "initialize"
        assert res.report.R_sum == max(rsma.report.R_sum, sdma.report.R_sum)

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

    def test_warm_start_from_previous_optimal_solve(self, monkeypatch):
        chan, csit, stats = paper_setup(sigma2=0.0)
        thr = build_thresholds(stats, 0.45, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="SDMA", M=2, seed=5, thresholds=thr, eps_r=1e-3)
        solve = cvx.solve
        for capped in (None, 1):
            calls = []

            def spy(prob, **kw):
                res = solve(prob, **kw)
                if len(calls) == capped:  # report this solve as capped, not optimal
                    res = dataclasses.replace(res, status="max_iter")
                calls.append((kw.get("start"), res))
                return res

            monkeypatch.setattr(cvx, "solve", spy)
            res = optimize(csit, stats, cfg)
            # the capped warm solve is followed by its cold retry
            assert len(calls) == res.outer_iterations + (capped is not None) >= 3
            assert calls[0][0] is None
            for (start, _), (_, prev) in zip(calls[1:], calls):
                if prev.status == "optimal":
                    assert start[0] is prev.primal and start[1] is prev.multipliers
                else:
                    assert start is None
            assert capped is None or (calls[capped][0] is not None
                                      and calls[capped + 1][0] is None
                                      and calls[capped + 1][1].status == "optimal")

    def test_solve_repairs_are_counted(self, monkeypatch):
        chan, csit, stats = paper_setup(sigma2=0.0)
        thr = build_thresholds(stats, 0.45, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="SDMA", M=2, seed=5, thresholds=thr, eps_r=1e-3)
        solve = cvx.solve
        warm = []

        def spy(prob, **kw):
            res = solve(prob, **kw)
            warm.append(kw.get("start") is not None)
            if len(warm) == 2:    # a warm-started solve fails far from feasible
                res = dataclasses.replace(res, status="max_iter", violations=[(0, "q[0]", 1.0)])
            elif len(warm) == 4:  # a later one stops short, near-feasible
                res = dataclasses.replace(res, status="max_iter", violations=[])
            return res

        monkeypatch.setattr(cvx, "solve", spy)
        res = optimize(csit, stats, cfg)
        # solves 3 and 5 are the cold retries of 2 and 4: a near-feasible solve
        # no longer moves the run
        assert warm[:6] == [False, True, False, True, False, True]
        counts = res.report.diagnostics["counts"]
        assert counts["solve_cold_retry"] == 2 and counts["ipm_max_iter"] == 2
        assert counts["stop_solve_failed"] == 0
        assert len(warm) == res.outer_iterations + 2
        assert res.report.diagnostics["solver_flags"] == []

    def test_every_optimal_solve_certifies(self, monkeypatch):
        # desk instance 4 (15 dB, two pilots, strategy 1, RSMA): its first
        # solve once read optimal from the slacks' complementarity alone, and
        # its true duality gap failed certify at 10 tol
        assert_optimal_solves_certify(monkeypatch, desk_instance(4))

    def test_every_optimal_solve_certifies_on_a_paper_grid_cell(self, monkeypatch):
        # the paper grid's (25 dB, strategy 2, four pilots, RSMA) cell: 11 of
        # its optimal solves once met the gap test as a mean over the rows
        # but failed certify, which checks the total
        P_t = 10.0 ** 2.5
        _, csit, stats = paper_setup(N=16, pilots=4, sigma2=csit_error_variance(P_t, 16, 0.6))
        thr = build_thresholds(stats, threshold_strategy(2, 4, 16), P_t)
        assert_optimal_solves_certify(monkeypatch, (csit, stats, SolveConfig(
            P_t=P_t, scheme="RSMA", M=4, seed=3831650445, thresholds=thr, eps_r=1e-3)))

    def test_infeasible_cold_solve_stops_the_run(self, monkeypatch):
        # a cold solve has no retry: the run stops at its running point, the
        # start, which meets the true floors and budget, and raises nothing
        def fake(prob, **kw):
            return cvx.SolverResult(primal=np.zeros(prob.n_vars), objective_value=0.0,
                                    status="infeasible", kkt_residual=1.0, duality_gap=1.0,
                                    multipliers=np.ones(prob.m))

        monkeypatch.setattr(op.cvx, "solve", fake)
        csit, stats, cfg = desk_instance(0, "SDMA")
        res = optimize(csit, stats, cfg)
        diag = res.report.diagnostics
        assert diag["counts"]["stop_solve_failed"] == 1 and diag["counts"]["ipm_infeasible"] == 1
        assert diag["solver_flags"] == ["0:infeasible"]
        assert res.status == diag["status"] == "solve_failed"
        assert not res.converged and res.outer_iterations == 1
        assert res.precoders.q.tobytes() == initialize(csit, stats, cfg).q.tobytes()
        floors = op._Floors(stats, cfg.thresholds, cfg.P_t)
        assert floors.sub.size and not floors.missed(res.precoders, cfg.P_t)
        assert res.precoders.total_power() <= cfg.P_t * (1.0 + 1e-9)
        assert np.all(jamming_power_avg(floors.R, res.precoders, floors.sub)
                      >= floors.value - floors.tol)

    def test_solve_missing_the_true_floors_stops_the_run(self, monkeypatch):
        # an all-zero solve point carries no jamming power, so it misses the
        # true floors: the run keeps its running point and stops there
        def fake(prob, **kw):
            return cvx.SolverResult(primal=np.zeros(prob.n_vars), objective_value=0.0,
                                    status="optimal", kkt_residual=0.0, duality_gap=0.0,
                                    multipliers=np.zeros(prob.m))

        monkeypatch.setattr(op.cvx, "solve", fake)
        csit, stats, cfg = desk_instance(0, "SDMA")
        res = optimize(csit, stats, cfg)
        assert res.report.diagnostics["counts"]["stop_floor_shortfall"] == 1
        assert res.converged and res.status == "optimal"
        floors = op._Floors(stats, cfg.thresholds, cfg.P_t)
        assert floors.sub.size and not floors.missed(res.precoders, cfg.P_t)
        assert np.all(jamming_power_avg(floors.R, res.precoders, floors.sub)
                      >= floors.value - floors.tol)

    def test_extrapolation_safeguard(self):
        # desk instance 3 of the acceptance suite: 5 dB, one pilot, active floors
        for scheme in ("SDMA", "RSMA"):
            csit, stats, cfg = desk_instance(3, scheme)
            res = single(csit, stats, cfg)
            d = res.report.diagnostics
            traced = d["trace"]
            wsr = full_stage_wsr(res, cfg.M)
            assert all(b >= a - 1e-9 for a, b in zip(wsr, wsr[1:]))
            # both branches of the safeguard ran: a step was kept, and a step
            # was refused on the true floors before any sampled work
            counts = d["counts"]
            assert counts["extrapolation_accepted"] >= 1
            assert counts["extrapolation_floor_rejected"] >= 1
            tried = sum(counts[k] for k in STEP_OUTCOMES)
            assert tried <= res.outer_iterations
            assert len(traced) == len(wsr)
            assert all(t["max_violation"] <= 1e-9 * (1.0 + float(cfg.thresholds.max()))
                       for t in traced)

    def test_repair_counters_count_the_moves(self, monkeypatch):
        # every positive split entry of an optimal solve point is clipped, and
        # the end-of-run clamp moved X
        csit, stats, cfg = desk_instance(3, "RSMA")
        solves, solve = [], cvx.solve
        monkeypatch.setattr(cvx, "solve",
                            lambda prob, **kw: solves.append(solve(prob, **kw)) or solves[-1])
        res = single(csit, stats, cfg)
        layout = VariableLayout(csit.n_t, csit.N, csit.K, stats.L, stats.pilot_idx, rsma=True)
        splits = [layout.unpack(r.primal * layout.var_scale(cfg.P_t))[1]
                  for r in solves if r.status == "optimal"]
        counts = res.report.diagnostics["counts"]
        assert counts["split_clipped"] == sum(bool(np.any(X > 0.0)) for X in splits) >= 1
        assert counts["split_clamped"] == 1

    def test_rsma_step_takes_full_capacity_split(self, monkeypatch):
        csit, stats, cfg = desk_instance(0, "RSMA")
        steps = spy_steps(monkeypatch)
        res = single(csit, stats, cfg)
        accepted = [s for s in steps if s[5] == "extrapolation_accepted"]
        assert len(accepted) == res.report.diagnostics["counts"]["extrapolation_accepted"] >= 1
        for _, X, state, wsr, _, _, _ in accepted:
            assert np.array_equal(X, -np.maximum(np.min(state.info_c, axis=0) - 1e-9, 0.0))
            assert wsr == _wsr_nats(state, X)
        assert any(np.any(X < 0.0) for _, X, *_ in accepted), "a step must credit common rate"

    @pytest.mark.parametrize("scheme", ["SDMA", "RSMA"])
    def test_floor_free_candidate_taken_on_floored_run(self, monkeypatch, scheme):
        csit, stats, cfg = desk_instance(0, scheme)
        steps = spy_steps(monkeypatch)
        res = single(csit, stats, cfg)
        used = [s for s in steps if s[6]]
        assert len(used) == res.report.diagnostics["counts"]["extrapolation_free_projected"]
        kept = [y for y, _, _, _, _, outcome, _ in used if outcome == "extrapolation_accepted"]
        assert kept, "a floor-free projected step must be kept"
        for y in kept:
            assert y.total_power() == pytest.approx(cfg.P_t, rel=1e-12)
            floors = op._Floors(stats, cfg.thresholds, cfg.P_t)
            assert floors.shortfall(y, cfg.P_t) <= 1e-9 * (1.0 + float(cfg.thresholds.max()))

    def test_sdma_step_keeps_zero_split(self, monkeypatch):
        csit, stats, cfg = desk_instance(0, "SDMA")
        steps = spy_steps(monkeypatch)
        res = optimize(csit, stats, cfg)
        assert steps
        for _, X, *_ in steps:
            assert np.all(X == 0.0) and not np.any(np.signbit(X))
        assert np.all(res.split.X == 0.0) and not np.any(np.signbit(res.split.X))
        assert np.all(res.report.C == 0.0) and not np.any(np.signbit(res.report.C))

    def test_sdma_without_floors_takes_the_uniform_step(self, monkeypatch):
        # with no floors and a fixed split the step is the uniformly
        # projected y with the clamped split, bit for bit
        csit, stats, config = saa_shape_setup()
        config = dataclasses.replace(config, scheme="SDMA")

        def uniform_step(samples, prev, cur, X, state, wsr, short, config, floors):
            y = op._project_power(PrecoderSet(*(c + op._BETA * (c - p) for c, p in (
                (cur.p_c, prev.p_c), (cur.p, prev.p), (cur.f, prev.f)))), config.P_t)
            state_y = _sampled_info(samples, y)
            X_y = op._clamp_split(state_y, X)
            wsr_y = _wsr_nats(state_y, X_y)
            if wsr_y <= wsr:
                return cur, X, state, wsr, short, "extrapolation_rate_rejected", False
            return (y, X_y, state_y, wsr_y, floors.shortfall(y, config.P_t),
                    "extrapolation_accepted", False)

        res = single(csit, stats, config)
        monkeypatch.setattr(op, "_extrapolate", uniform_step)
        ref = single(csit, stats, config)
        assert res.report.diagnostics["counts"]["extrapolation_accepted"] >= 1
        for f in ("p_c", "p", "f"):
            assert getattr(res.precoders, f).tobytes() == getattr(ref.precoders, f).tobytes()
        assert res.split.X.tobytes() == ref.split.X.tobytes()
        assert res.report.R_sum == ref.report.R_sum
        assert res.outer_iterations == ref.outer_iterations

    def test_identical_runs_are_bitwise_equal(self):
        chan, csit, stats = paper_setup(sigma2=0.4)
        thr = build_thresholds(stats, 0.9, 10.0)
        cfg = SolveConfig(P_t=10.0, scheme="RSMA", M=4, seed=21, thresholds=thr, eps_r=1e-3)
        a, b = optimize(csit, stats, cfg), optimize(csit, stats, cfg)
        for f in ("p_c", "p", "f"):
            assert np.array_equal(getattr(a.precoders, f), getattr(b.precoders, f))
        assert np.array_equal(a.split.X, b.split.X)
        assert a.report.R_sum == b.report.R_sum

    def test_one_split_variable_per_subcarrier(self):
        chan, csit, stats = paper_setup(sigma2=0.0)
        thr = build_thresholds(stats, 0.45, 10.0)
        samples = draw_csit_samples(csit, 1, 3)
        pre = initialize(csit, stats, SolveConfig(P_t=10.0, thresholds=thr, M=1))
        coefficients = _surrogate(samples, pre, _sampled_info(samples, pre))
        for rsma, width in ((True, 8), (False, 0)):
            layout = VariableLayout(4, 8, 2, 1, stats.pilot_idx, rsma=rsma)
            prob = _assemble_subproblem(layout, coefficients, pre,
                                        op._Floors(stats, thr, 10.0), 10.0)
            assert layout.x_cols.shape == (width,)
            assert len(prob.sign_constraints) == width
        res = optimize(csit, stats, SolveConfig(P_t=10.0, scheme="RSMA", M=1, seed=3,
                                                thresholds=thr, eps_r=1e-3))
        assert "fallback_from" not in res.report.diagnostics
        assert res.split.X.shape == res.report.C.shape == (2, 8)
        assert np.any(res.split.X < 0.0), "the common stream must carry rate"
        assert np.array_equal(res.split.X[0], res.split.X[1])


def random_instance(K, L, N, n_t, pilots, sigma2, M, P_t, rho, seed):
    rng = np.random.default_rng(seed)

    def c(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    A = c(L, N, n_t, n_t)
    R = A @ np.conj(np.swapaxes(A, 2, 3)) / n_t
    stats = AuStatistics(R=R, pilot_set=tuple(pilots))
    csit = CsitModel(h_hat=c(K, N, n_t), sigma_ie2=sigma2)
    thr = build_thresholds(stats, rho, P_t) if L else None
    return csit, stats, SolveConfig(P_t=P_t, scheme="SDMA", M=M, seed=seed, thresholds=thr)


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
    return random_instance(K, L, N, n_t, pilots, sigma2, M, P_t, rho, seed)


@settings(max_examples=25, deadline=None)
@given(random_instances())
# RSMA, 17 dB, active floors: after two kept extrapolation steps the warm-started
# solve stalls at max_iter far from feasible, and only a cold start solves it
@example(case=random_instance(2, 1, 8, 3, [1, 2, 3, 7], 0.3, 4, 10.0 ** 1.7, 0.5625, 4774176))
def test_invariants_on_random_instances(case):
    csit, stats, cfg = case
    sdma = optimize(csit, stats, cfg)
    rsma = optimize(csit, stats, dataclasses.replace(cfg, scheme="RSMA"), restricted=sdma)
    for res in (sdma, rsma):
        prec, rep = res.precoders, res.report
        wsr = full_stage_wsr(res, cfg.M)
        assert all(b >= a - 1e-9 for a, b in zip(wsr, wsr[1:]))
        counts = rep.diagnostics["counts"]
        tried = sum(counts[k] for k in STEP_OUTCOMES)
        assert tried <= res.outer_iterations
        assert counts["extrapolation_free_projected"] <= tried
        # at most one cold retry per outer iteration, and each iteration ends in
        # an optimal solve or stops its stage on a failed one
        assert counts["solve_cold_retry"] <= res.outer_iterations
        assert counts["ipm_optimal"] + counts["stop_solve_failed"] == res.outer_iterations
        # every solve, cold retries included, is counted under its IPM exit
        assert (sum(counts[k] for k in counts if k.startswith("ipm_"))
                == res.outer_iterations + counts["solve_cold_retry"])
        for a in (prec.p_c, prec.p, prec.f, res.split.X, rep.I_private, rep.I_common,
                  rep.C, rep.R_k, rep.R_sum, rep.lambda_avg if stats.L else 0.0):
            assert np.all(np.isfinite(a))
        assert prec.total_power() <= cfg.P_t * (1.0 + 1e-9)
        for l in range(stats.L):
            for j, n in enumerate(stats.pilot_idx):
                assert jamming_power_avg(stats.R[l, n], prec, int(n)) >= cfg.thresholds[l, j] - 1e-6
    assert rsma.report.R_sum >= sdma.report.R_sum - 1e-6
