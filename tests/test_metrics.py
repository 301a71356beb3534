import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamcom.channel import (ChannelSet, au_statistics_none, au_statistics_uniform_phase,
                            exponential_delay_profile, make_deterministic_scenario,
                            synth_selective_channel)
from jamcom.metrics import (
    PrecoderSet,
    attach_realized_jamming,
    jamming_power_avg,
    rate_report,
    stream_mses,
)
from jamcom.optimizer import CommonSplitVars
from oracles import (
    focused_power_terms,
    interference_sums,
    realized_focused_power,
    sample_covariance_focused_power,
    stream_sinr_mse,
)

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9


def cn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_precoders(rng, n_t=4, N=3, K=2, L=1, scale=1.0):
    return PrecoderSet(p_c=scale * cn(rng, N, n_t), p=scale * cn(rng, K, N, n_t),
                       f=scale * cn(rng, L, N, n_t))


def realized(g, pre, n):
    """The realized focused power: the average under the covariance g g^H."""
    return jamming_power_avg(np.outer(g, np.conj(g)), pre, n)


def same_values_three_layouts(rng, M, K, N, n_t):
    """One set of samples as a C-contiguous array, a subcarrier-major view
    (contiguous as (K, N, n_t, M), as ``draw_csit_samples`` stores it) and a
    strided slice of a larger array."""
    strided = cn(rng, 2 * M, K, N, n_t)[::2]
    major = np.ascontiguousarray(strided.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    layouts = [np.ascontiguousarray(strided), major, strided]
    assert layouts[1].transpose(1, 2, 3, 0).flags.c_contiguous
    assert not any(a.flags.c_contiguous for a in layouts[1:])
    return layouts


def one_subcarrier(h, p, p_c=None, f=None):
    """One CSI sample of one subcarrier: h and p are (K, n_t), f is (L, n_t)."""
    n_t = h.shape[1]
    p_c = np.zeros(n_t) if p_c is None else p_c
    f = np.zeros((0, n_t)) if f is None else f
    return h[None, :, None], PrecoderSet(p_c=p_c[None], p=p[:, None], f=f[:, None])


SCALAR_H = np.array([[1.0, 0, 0, 0]], dtype=complex)
SCALAR_P = np.array([[np.sqrt(3.0), 0, 0, 0]], dtype=complex)


def _parts(**shapes):
    """Zero p_c, p and f for N = 4, n_t = 3, K = 2 and L = 1, any of them
    given another shape here."""
    shapes = {"p_c": (4, 3), "p": (2, 4, 3), "f": (1, 4, 3), **shapes}
    return {name: np.zeros(shape, dtype=complex) for name, shape in shapes.items()}


class TestPrecoderSet:
    """One array q (N, 1+K+L, n_t): per subcarrier the common stream, the
    private streams, then the jamming streams."""

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("L", [0, 2])
    def test_parts_come_back_bitwise_in_stream_order(self, rng, K, L):
        N, n_t = 5, 3
        p_c, p, f = cn(rng, N, n_t), cn(rng, K, N, n_t), cn(rng, L, N, n_t)
        pre = PrecoderSet(p_c=p_c, p=p, f=f)
        assert pre.q.shape == (N, 1 + K + L, n_t) and pre.K == K
        for got, want in ((pre.p_c, p_c), (pre.p, p), (pre.f, f)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for n in range(N):
            rows = [p_c[n]] + [p[k, n] for k in range(K)] + [f[l, n] for l in range(L)]
            assert pre.q[n].tobytes() == np.array(rows).tobytes()

    def test_stacked_wraps_without_copying(self, rng):
        q = cn(rng, 4, 1 + 2 + 1, 3)
        pre = PrecoderSet.stacked(q, 2)
        assert pre.q is q
        assert np.array_equal(pre.p_c, q[:, 0])
        assert np.array_equal(pre.p[1], q[:, 2]) and np.array_equal(pre.f[0], q[:, 3])
        pre.f[0, 1] = 0.0   # the parts are views: a write lands in q
        assert not np.any(q[1, 3])

    @pytest.mark.parametrize("shapes", [
        {"p_c": (3,)}, {"p": (4, 3)}, {"f": (4, 3)},
        {"p": (2, 5, 3)}, {"p": (2, 4, 2)}, {"f": (1, 5, 3)}, {"f": (1, 4, 2)}],
        ids=["p_c-ndim", "p-ndim", "f-ndim", "p-N", "p-n_t", "f-N", "f-n_t"])
    def test_malformed_parts_rejected(self, shapes):
        with pytest.raises(ValueError):
            PrecoderSet(**_parts(**shapes))

    @pytest.mark.parametrize("q,K", [
        (np.zeros((4, 3), dtype=complex), 1), (np.zeros((4, 3, 2)), 1),
        (np.zeros((4, 3, 2), dtype=complex), 3), (np.zeros((4, 3, 2), dtype=complex), -1)],
        ids=["ndim", "real", "K-too-large", "K-negative"])
    def test_malformed_stack_rejected(self, q, K):
        with pytest.raises(ValueError):
            PrecoderSet.stacked(q, K)


class TestInterferenceTerms:
    """The stage totals of stream_mses: T_p sums every private stream, the
    jamming and the noise; T_c adds the common stream."""

    def test_zero_precoders(self):
        *_, T_c, T_p = stream_mses(np.ones((1, 2, 2, 4)), PrecoderSet.zeros(4, 2, 2, 1))
        assert np.all(T_c == 1.0) and np.all(T_p == 1.0)

    def test_single_user_has_no_private_interference(self, rng):
        pre = random_precoders(rng, K=1)
        hs = rng.standard_normal((1, 1, 3, 4)) + 0j
        *_, hp_own, _, T_p = stream_mses(hs, pre)
        for n in range(3):
            Z_c, Z, J = interference_sums(hs[0, 0, n], [pre.p[0, n]], [pre.f[0, n]], 0)
            assert Z == 0.0 and Z_c > 0.0
            other = T_p[0, 0, n] - abs(hp_own[0, 0, n]) ** 2 - J - 1.0
            assert abs(other) < 1e-12 * (1 + J)

    def test_matches_naive_resummation(self, rng):
        pre = random_precoders(rng)
        hs = cn(rng, 1, 2, 3, 4)
        *_, hp_own, T_c, T_p = stream_mses(hs, pre)
        for n in range(3):
            for k in range(2):
                h = hs[0, k, n]
                Z_c, Z, J = interference_sums(h, [pre.p[i, n] for i in range(2)],
                                              [pre.f[0, n]], k)
                S_c = interference_sums(h, [pre.p_c[n]], [], 0)[0]
                assert abs(T_p[0, k, n] - (Z_c + J + 1.0)) < 1e-12 * (1 + Z_c + J)
                assert abs(T_c[0, k, n] - (S_c + Z_c + J + 1.0)) < 1e-12 * (1 + S_c + Z_c + J)
                own = abs(hp_own[0, k, n]) ** 2
                assert abs(T_p[0, k, n] - own - (Z + J + 1.0)) < 1e-12 * (1 + Z + J)


class TestSinrAndMse:
    """SINR = 1/MSE - 1 and the MSE of stream_mses, on one sample of one subcarrier."""

    def test_zero_target_zero_sinr(self):
        # user 0's stream is silent while user 1's interferes
        h = np.concatenate([SCALAR_H, SCALAR_H])
        p = np.concatenate([np.zeros((1, 4)), SCALAR_P])
        _, eps_p, *_ = stream_mses(*one_subcarrier(h, p))
        assert 1.0 / eps_p[0, 0, 0] - 1.0 == 0.0

    def test_scalar_case(self):
        _, eps_p, *_ = stream_mses(*one_subcarrier(SCALAR_H, SCALAR_P))
        assert 1.0 / eps_p[0, 0, 0] - 1.0 == pytest.approx(3.0, abs=1e-14)

    def test_mse_scalar_case(self):
        _, eps_p, *_ = stream_mses(*one_subcarrier(SCALAR_H, SCALAR_P))
        assert eps_p[0, 0, 0] == pytest.approx(0.25, abs=1e-14)

    def test_mse_no_signal_is_one(self):
        eps_c, eps_p, *_ = stream_mses(*one_subcarrier(SCALAR_H, np.zeros((1, 4))))
        assert eps_c[0, 0, 0] == 1.0 and eps_p[0, 0, 0] == 1.0

    def test_mse_in_unit_interval(self, rng):
        eps_c, eps_p, *_ = stream_mses(cn(rng, 1, 2, 200, 4), random_precoders(rng, N=200))
        for eps in (eps_c, eps_p):
            assert np.all((0.0 < eps) & (eps <= 1.0))

    def test_rate_mse_identity(self, rng):
        hs, pre = cn(rng, 1, 2, 500, 4), random_precoders(rng, N=500)
        eps_c, eps_p, *_ = stream_mses(hs, pre)
        for n in range(500):
            for k in range(2):
                for stage, eps in (("common", eps_c), ("private", eps_p)):
                    s, _ = stream_sinr_mse(hs[0, k, n], pre, n, k, stage)
                    assert abs(-np.log2(eps[0, k, n]) - np.log2(1.0 + s)) < 1e-10

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.1, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_jamming_strictly_degrades(self, Z, J, sig):
        # user 0 receives its own stream at power sig, user 1's at Z, jamming at J
        h = np.ones((2, 1), dtype=complex)
        p = np.sqrt([[sig], [Z]]) + 0j

        def sinr_and_rate(jam):
            hs, pre = one_subcarrier(h, p, f=np.sqrt([[jam]]) + 0j)
            _, eps_p, *_ = stream_mses(hs, pre)
            return 1.0 / eps_p[0, 0, 0] - 1.0, rate_report(hs, pre).I_private[0, 0]

        (s_base, i_base), (s_worse, i_worse) = sinr_and_rate(J), sinr_and_rate(J + 1.0)
        assert s_worse < s_base
        assert i_worse < i_base


class TestMutualInfo:
    def test_unit_mse_zero_bits(self):
        rep = rate_report(*one_subcarrier(SCALAR_H, np.zeros((1, 4))))
        assert rep.I_private[0, 0] == 0.0

    def test_scalar_two_bits(self):
        rep = rate_report(*one_subcarrier(SCALAR_H, SCALAR_P))
        assert rep.I_private[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_sum_equals_log_product(self, rng):
        hs, pre = cn(rng, 1, 2, 16, 4), random_precoders(rng, N=16)
        _, eps_p, *_ = stream_mses(hs, pre)
        rep = rate_report(hs, pre)
        for k in range(2):
            assert abs(rep.R_k[k] * 16 + np.log2(np.prod(eps_p[0, k]))) < 1e-9


class TestJammingPower:
    def test_zero_precoders(self):
        pre = PrecoderSet.zeros(4, 2, 2, 1)
        assert realized(np.ones(4), pre, 0) == 0.0

    def test_orthogonal_adversary(self):
        pre = PrecoderSet.zeros(4, 1, 1, 0)
        pre.p[0, 0, 0] = 1.0
        g = np.array([0, 1.0, 0, 0], dtype=complex)
        assert realized(g, pre, 0) == 0.0

    def test_matches_termwise_oracle(self, rng):
        pre = random_precoders(rng)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        got = realized(g, pre, 1)
        ref = focused_power_terms(g, pre.p_c[1], [pre.p[i, 1] for i in range(2)],
                                  [pre.f[0, 1]])
        assert abs(got - ref) < 1e-12 * (1 + ref)

    def test_identity_covariance_gives_total_power(self, rng):
        pre = random_precoders(rng)
        got = jamming_power_avg(np.eye(4), pre, 2)
        assert got == pytest.approx(np.sum(np.abs(pre.q[2]) ** 2), rel=1e-12)

    def test_rank_one_covariance_matches_realized(self, rng):
        pre = random_precoders(rng)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        R = np.outer(g, g.conj())
        assert jamming_power_avg(R, pre, 0) == pytest.approx(
            realized_focused_power(g, pre, 0), rel=1e-10)

    def test_statistical_average_against_sampling(self, rng):
        pre = random_precoders(rng, scale=0.5)
        R = au_statistics_uniform_phase(2 * BETA, 4, 3, 1, (1,)).R[0, 0]
        ref = sample_covariance_focused_power(
            R, pre.p_c[0], [pre.p[i, 0] for i in range(2)], [pre.f[0, 0]],
            draws=100_000, rng=np.random.default_rng(0))
        got = jamming_power_avg(R, pre, 0)
        assert abs(got - ref) < 0.02 * ref

    def test_stacked_matches_per_pair_calls(self, rng):
        pre = random_precoders(rng, N=5, L=2)
        A = cn(rng, 2, 5, 4, 4)
        R = A @ A.conj().swapaxes(-1, -2)
        n = np.array([4, 0, 2])
        got = jamming_power_avg(R[:, n], pre, n)
        want = [[jamming_power_avg(R[l, m], pre, int(m)) for m in n] for l in range(2)]
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_scale_covariance(self, rng):
        pre = random_precoders(rng)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        R = au_statistics_uniform_phase(2 * BETA, 4, 3, 1, (1,)).R[0, 0]
        c = 2.7
        assert realized(g, pre.scaled(c), 0) == pytest.approx(
            c * realized(g, pre, 0), rel=1e-12)
        assert jamming_power_avg(R, pre.scaled(c), 0) == pytest.approx(
            c * jamming_power_avg(R, pre, 0), rel=1e-12)


class TestStreamMses:
    def test_matches_scalar_reference(self, rng):
        pre = random_precoders(rng)
        hs = cn(rng, 3, 2, 3, 4)
        eps_c, eps_p, *_ = stream_mses(hs, pre)
        for m in range(3):
            for k in range(2):
                for n in range(3):
                    h = hs[m, k, n]
                    assert eps_p[m, k, n] == pytest.approx(
                        stream_sinr_mse(h, pre, n, k, "private")[1], rel=1e-12)
                    assert eps_c[m, k, n] == pytest.approx(
                        stream_sinr_mse(h, pre, n, k, "common")[1], rel=1e-12)

    def test_layout_independent(self, rng):
        pre = random_precoders(rng)
        layouts = same_values_three_layouts(rng, 5, 2, 3, 4)
        ref = stream_mses(layouts[0], pre)
        for hs in layouts[1:]:
            for got, want in zip(stream_mses(hs, pre), ref):
                assert got.shape == want.shape == (5, 2, 3)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestRateReport:
    def test_zero_precoders_zero_rates(self):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        rep = rate_report(cs, PrecoderSet.zeros(4, 4, 2, 1))
        assert rep.R_sum == 0.0
        assert np.all(rep.I_private == 0.0) and np.all(rep.R_k == 0.0)

    def test_single_user_equal_power_matched_filter(self):
        # flat channel, power P_t/N per subcarrier on the matched direction:
        # every subcarrier carries log2(1 + (P_t/N) * ||h||^2)
        N, P_t = 4, 20.0
        h = np.tile(np.ones(4) / 1.0, (N, 1))[None]  # (1, N, 4), ||h||^2 = 4
        pre = PrecoderSet.zeros(4, N, 1, 0)
        for n in range(N):
            pre.p[0, n] = np.sqrt(P_t / N) * h[0, n] / np.linalg.norm(h[0, n])
        rep = rate_report(h[None] if h.ndim == 3 else h, pre)
        per_sc = np.log2(1.0 + (P_t / N) * 4.0)
        np.testing.assert_allclose(rep.I_private[0], per_sc, rtol=1e-12)
        assert rep.R_sum == pytest.approx(per_sc, rel=1e-12)

    def test_zero_common_equals_private_only(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        pre = random_precoders(rng, N=4)
        pre_nc = PrecoderSet(p_c=np.zeros_like(pre.p_c), p=pre.p, f=pre.f)
        a = rate_report(cs, pre_nc, np.zeros((2, 4)))
        b = rate_report(cs, pre_nc)
        assert a.R_sum == b.R_sum
        assert np.array_equal(a.I_private, b.I_private)

    def test_sum_rate_identity(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        pre = random_precoders(rng, N=4, scale=0.8)
        rep = rate_report(cs, pre, None)
        assert abs(rep.R_sum - (rep.C.sum() / 4 + rep.R_k.sum())) < 1e-9

    def test_infeasible_split_rejected(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        pre = random_precoders(rng, N=4)
        C = np.full((2, 4), 50.0)
        with pytest.raises(ValueError, match="infeasible common-rate split"):
            rate_report(cs, pre, C)

    def test_negative_or_non_finite_split_rejected(self, rng):
        # a split of -1 bit read as R_sum -1.0, and a NaN one as R_sum nan
        h, pre = one_subcarrier(SCALAR_H, SCALAR_P)
        for C in ([[-1.0]], [[np.nan]], [[np.inf]], [[-2e-9 / np.log(2.0)]]):
            with pytest.raises(ValueError, match="C must be finite and nonnegative"):
                rate_report(h, pre, C)
        # the least split CommonSplitVars allows, X = 1e-9 nats, still reads
        edge = rate_report(h, pre, CommonSplitVars(X=[[1e-9]]).C_bits)
        assert edge.R_sum == pytest.approx(2.0, abs=1e-8)

    def test_split_of_the_wrong_shape_rejected(self):
        h, pre = one_subcarrier(SCALAR_H, SCALAR_P)
        with pytest.raises(ValueError, match="C has shape"):
            rate_report(h, pre, [[0.0, 0.0]])

    def test_realized_jamming_needs_adversary_channels(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        stats = au_statistics_uniform_phase(2 * BETA, 4, 4, 1, (1, 3))
        pre = random_precoders(rng, N=4)
        bare = ChannelSet(n_t=4, N=4, K=2, L=0, h=cs.h)
        with pytest.raises(ValueError, match="no adversary ground truth"):
            attach_realized_jamming(rate_report(cs, pre, None, stats=stats), bare, pre)

    def test_non_finite_common_split_vars_rejected(self):
        for X in ([[np.nan]], [[-np.inf]], [[0.0, np.nan]]):
            with pytest.raises(ValueError, match="X must be finite and <= 0"):
                CommonSplitVars(X=X)
        assert CommonSplitVars(X=[[0.0, -1.0, 1e-9]]).C_bits[0, 0] == 0.0

    def test_realized_jamming_attached(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        stats = au_statistics_uniform_phase(2 * BETA, 4, 4, 1, (1, 3))
        pre = random_precoders(rng, N=4)
        rep = attach_realized_jamming(rate_report(cs, pre, None, stats=stats), cs, pre)
        assert rep.lambda_avg.shape == (1, 2)
        assert rep.lambda_realized.shape == (1, 2)
        for j, n in enumerate((0, 2)):
            assert rep.lambda_realized[0, j] == pytest.approx(
                realized_focused_power(cs.g[0, n], pre, n), rel=1e-12)

    def test_realized_jamming_matches_einsum_oracle(self, rng):
        cs = synth_selective_channel(exponential_delay_profile(1.2e-6, 12), 4, 5, 2, 2, seed=4)
        stats = au_statistics_uniform_phase(2 * BETA, 4, 5, 2, (4, 1, 3))
        pre = random_precoders(rng, N=5, L=2)
        rep = attach_realized_jamming(rate_report(cs, pre, None, stats=stats), cs, pre)
        want = [[realized_focused_power(cs.g[l, n], pre, n) for n in (0, 2, 3)]
                for l in range(2)]
        assert rep.lambda_realized.shape == (2, 3)
        np.testing.assert_allclose(rep.lambda_realized, want, rtol=1e-13, atol=0)

    def test_lambda_avg_per_adversary_and_pilot(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        pre = random_precoders(rng, N=4, L=2)
        stats = au_statistics_uniform_phase(2 * BETA, 4, 4, 2, (1, 3, 4))
        rep = rate_report(cs, pre, None, stats=stats)
        want = [[jamming_power_avg(stats.R[l, n], pre, n) for n in (0, 2, 3)] for l in range(2)]
        assert rep.lambda_avg.shape == (2, 3)
        np.testing.assert_allclose(rep.lambda_avg, want, rtol=1e-13, atol=0)
        none = rate_report(cs, pre, None, stats=au_statistics_none(4, 4))
        assert none.lambda_avg.shape == (0, 0)

    def test_layout_independent(self, rng):
        pre = random_precoders(rng)
        C = np.full((2, 3), 0.01)
        reps = [rate_report(hs, pre, C) for hs in same_values_three_layouts(rng, 5, 2, 3, 4)]
        for rep in reps[1:]:
            for f in ("I_private", "I_common", "R_k"):
                assert getattr(rep, f).shape == getattr(reps[0], f).shape
                np.testing.assert_allclose(getattr(rep, f), getattr(reps[0], f),
                                           rtol=1e-13, atol=0)
            assert rep.R_sum == pytest.approx(reps[0].R_sum, rel=1e-13)

    def test_channel_set_is_one_realization(self, rng):
        cs = make_deterministic_scenario(THETA, BETA, 4, 3)
        pre = random_precoders(rng)
        rep = rate_report(cs, pre)
        assert rep.I_private.shape == rep.I_common.shape == (2, 3)
        for k in range(2):
            for n in range(3):
                for stage, got in (("private", rep.I_private), ("common", rep.I_common)):
                    mse = stream_sinr_mse(cs.h[k, n], pre, n, k, stage)[1]
                    assert got[k, n] == pytest.approx(-np.log2(mse), rel=1e-12)
        assert rep.R_sum == pytest.approx(rep.I_private.sum() / 3, rel=1e-12)
