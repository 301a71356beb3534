import tracemalloc

import numpy as np
import pytest

from jamcom.channel import (
    _CHUNK_BYTES,
    AuStatistics,
    ChannelSet,
    CsitModel,
    au_covariance_uniform_phase,
    au_statistics_isotropic,
    au_statistics_uniform_phase,
    complex_gaussian,
    csit_error_variance,
    draw_csit_samples,
    evenly_spaced_pilots,
    exponential_delay_profile,
    _sample_chunks,
    largest_eigenvalue,
    make_deterministic_scenario,
    rng_stream,
    steering_channel,
    synth_selective_channel,
)
from oracles import covariance_entry_quadrature, jacobi_eigenvalues

THETA = 4 * np.pi / 9
BETA = 2 * np.pi / 9


class TestSteeringChannel:
    def test_zero_phase_is_all_ones(self):
        assert np.array_equal(steering_channel(0.0, 4), np.ones(4))

    def test_paper_angle_entries(self):
        v = steering_channel(THETA, 4)
        expected = np.array([1.0, np.exp(-1j * THETA), np.exp(-2j * THETA),
                             np.exp(-3j * THETA)])
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-15)

    def test_entry_two_is_double_phase(self):
        # frozen: exp(-2j * 2pi/9)
        v = steering_channel(BETA, 4)
        assert v[2] == pytest.approx(0.17364817766693041 - 0.984807753012208j, abs=1e-15)

    def test_unit_modulus_and_exact_self_product(self):
        v = steering_channel(1.234, 6)
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-15)
        assert np.vdot(v, v).real == 6.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            steering_channel(0.1, 0)


class TestDeterministicScenario:
    def test_paper_scenario_is_flat(self):
        cs = make_deterministic_scenario(THETA, BETA, n_t=4, N=32)
        assert cs.h.shape == (2, 32, 4) and cs.g.shape == (1, 32, 4)
        for n in range(32):
            assert np.array_equal(cs.h[0, n], np.ones(4))
            assert np.array_equal(cs.h[1, n], steering_channel(THETA, 4))
            assert np.array_equal(cs.g[0, n], steering_channel(BETA, 4))

    def test_zero_theta_aligns_users(self):
        cs = make_deterministic_scenario(0.0, BETA, n_t=4, N=8)
        assert np.array_equal(cs.h[0], cs.h[1])

    def test_norms_equal_antenna_count(self):
        cs = make_deterministic_scenario(THETA, BETA, n_t=4, N=8)
        np.testing.assert_allclose(
            np.sum(np.abs(cs.h) ** 2, axis=-1), 4.0, atol=1e-12)

    def test_rejects_other_user_counts(self):
        with pytest.raises(ValueError):
            make_deterministic_scenario(THETA, BETA, 4, 8, K=3, L=1)


class TestSelectiveChannel:
    def test_single_tap_is_flat(self):
        cs = synth_selective_channel((np.ones(1), np.zeros(1)), n_t=4, N=16,
                                     K=2, L=1, seed=5)
        for k in range(2):
            for n in range(1, 16):
                np.testing.assert_allclose(cs.h[k, n], cs.h[k, 0], atol=1e-12)

    @pytest.mark.parametrize("spread, n_taps", [(1.2e-6, 1), (0.0, 8)])
    def test_one_tap_profile(self, spread, n_taps):
        # one tap, or no delay spread, is the flat profile
        powers, delays = exponential_delay_profile(spread, n_taps)
        assert powers.tolist() == [1.0] and delays.tolist() == [0.0]

    def test_same_seed_reproduces(self):
        prof = exponential_delay_profile(1.2e-6, 8)
        a = synth_selective_channel(prof, 4, 8, 2, 1, seed=9)
        b = synth_selective_channel(prof, 4, 8, 2, 1, seed=9)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g)
        c = synth_selective_channel(prof, 4, 8, 2, 1, seed=10)
        assert not np.array_equal(a.h, c.h)

    def test_mean_channel_power_matches_antenna_count(self):
        # Monte-Carlo oracle on tap normalization: E||h||^2 = n_t
        prof = exponential_delay_profile(1.2e-6, 8)
        powers = []
        for seed in range(50):
            cs = synth_selective_channel(prof, 4, 25, 8, 0, seed=seed)
            powers.append(np.sum(np.abs(cs.h) ** 2, axis=-1).reshape(-1))
        mean = float(np.mean(np.concatenate(powers)))  # 10^4 draws
        assert abs(mean - 4.0) < 0.05 * 4.0

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            synth_selective_channel((np.zeros(0), np.zeros(0)), 4, 8, 2)
        with pytest.raises(ValueError):
            synth_selective_channel((np.array([0.5, 0.4]), np.zeros(2)), 4, 8, 2)


@pytest.mark.parametrize("make,match", [
    (lambda: exponential_delay_profile(-1e-6, 4), "rms_delay_spread must be nonnegative"),
    (lambda: synth_selective_channel((np.full(2, 0.5), np.zeros(3)), 4, 8, 2),
     "tap powers and delays must have equal length"),
    (lambda: synth_selective_channel((np.array([1.5, -0.5]), np.zeros(2)), 4, 8, 2),
     "tap powers and delays must be nonnegative"),
    (lambda: synth_selective_channel((np.full(2, 0.5), np.array([0.0, -1e-6])), 4, 8, 2),
     "tap powers and delays must be nonnegative"),
    (lambda: csit_error_variance(10.0, 0, 0.6), r"N must be .*>= 1"),
    (lambda: draw_csit_samples(CsitModel(h_hat=np.ones((1, 2, 2)), sigma_ie2=0.1), 0, 0),
     r"M must be .*>= 1")],
    ids=["delay-spread", "tap-lengths", "tap-power", "tap-delay", "csit-N", "draws"])
def test_bad_generator_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make,match", [
    (lambda: exponential_delay_profile(1.2e-6, 2.5), "n_taps must be an integer"),
    (lambda: evenly_spaced_pilots(True, 8), "pilot count must be an integer"),
    (lambda: au_statistics_isotropic(2, 4, 1, (2.5,)), "pilot_set entries must be integers"),
    (lambda: csit_error_variance(10.0, 2.5, 0.6), "N must be an integer"),
    (lambda: draw_csit_samples(CsitModel(h_hat=np.ones((1, 2, 2)), sigma_ie2=0.1), 2.5, 0),
     "M must be an integer")],
    ids=["n_taps", "pilot-count", "pilot-index", "csit-N", "draws"])
def test_non_integer_count_rejected(make, match):
    # these ran as 3 taps, pilot (1,), pilot 2 and 0.435, and a float M
    # ended in a TypeError inside the sampler
    with pytest.raises(ValueError, match=match):
        make()


class TestCsitErrorVariance:
    def test_unit_per_subcarrier_power(self):
        assert csit_error_variance(32.0, 32, 0.6) == 1.0

    def test_zero_exponent(self):
        assert csit_error_variance(5000.0, 32, 0.0) == 1.0

    def test_reference_value(self):
        assert csit_error_variance(100.0, 32, 0.6) == pytest.approx(
            0.5047658755841546, abs=1e-12)
        assert round(csit_error_variance(100.0, 32, 0.6), 4) == 0.5048

    def test_clamped_only_below_unit_power(self):
        assert csit_error_variance(10.0, 32, 0.6) == 1.0
        assert csit_error_variance(33.0, 32, 0.6) < 1.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            csit_error_variance(0.0, 32, 0.6)

    @pytest.mark.parametrize("P_t,alpha", [(np.nan, 0.6), (10.0, np.nan), (10.0, np.inf)],
                             ids=["nan-power", "nan-alpha", "inf-alpha"])
    def test_rejects_non_finite_input(self, P_t, alpha):
        # each of these read 0.0, perfect CSIT, through the clamp
        with pytest.raises(ValueError, match="P_t must be positive" if np.isnan(P_t)
                           else "alpha must be finite"):
            csit_error_variance(P_t, 8, alpha)


class TestAuCovariance:
    def test_point_mass_is_all_ones(self):
        R = au_covariance_uniform_phase(0.0, 4)
        assert np.array_equal(R, np.ones((4, 4)))

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, -0.5])
    def test_negative_or_non_finite_spread_rejected(self, delta):
        # NaN returned a NaN covariance silently, +-inf one with warnings
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            au_covariance_uniform_phase(delta, 4)

    def test_unit_diagonal(self):
        R = au_covariance_uniform_phase(2 * BETA, 5)
        np.testing.assert_allclose(np.diag(R), 1.0, atol=0)

    def test_matches_quadrature(self):
        delta = 2 * BETA
        R = au_covariance_uniform_phase(delta, 4)
        for m in range(4):
            for p in range(4):
                ref = covariance_entry_quadrature(delta, m, p)
                assert abs(R[m, p] - ref) < 1e-8

    def test_psd_on_random_directions(self, rng):
        R = au_covariance_uniform_phase(2 * BETA, 4)
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.real(np.vdot(x, R @ x)) >= -1e-12


class TestLargestEigenvalue:
    def test_identity(self):
        assert largest_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_rank_one(self):
        assert largest_eigenvalue(np.ones((4, 4))) == pytest.approx(4.0, rel=1e-12)

    def test_matches_jacobi_oracle(self):
        R = au_covariance_uniform_phase(2 * BETA, 4)
        ref = jacobi_eigenvalues(R)[-1]
        assert abs(largest_eigenvalue(R) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_rejects_non_hermitian(self):
        M = np.eye(3, dtype=complex)
        M[0, 1] = 0.5
        with pytest.raises(ValueError):
            largest_eigenvalue(M)


class TestCsitSamples:
    def _csit(self, sigma2):
        cs = make_deterministic_scenario(THETA, BETA, 4, 8)
        return CsitModel(h_hat=cs.h, sigma_ie2=sigma2, alpha=0.6)

    def test_perfect_csit_gives_exact_estimates(self):
        samples = draw_csit_samples(self._csit(0.0), 3, seed=4)
        for m in range(3):
            assert np.array_equal(samples[m], self._csit(0.0).h_hat)

    def test_deterministic_per_seed(self):
        csit = self._csit(0.3)
        assert np.array_equal(draw_csit_samples(csit, 4, 7),
                              draw_csit_samples(csit, 4, 7))
        assert not np.array_equal(draw_csit_samples(csit, 4, 7),
                                  draw_csit_samples(csit, 4, 8))

    def test_sample_mean_law_of_large_numbers(self):
        sigma2 = 0.4
        csit = self._csit(sigma2)
        M = 10_000
        samples = draw_csit_samples(csit, M, seed=11)
        mean = samples.mean(axis=0)
        bound = 3.0 * np.sqrt(sigma2) / np.sqrt(M)
        assert np.max(np.abs(mean - np.sqrt(1 - sigma2) * csit.h_hat)) < bound

    def test_error_variance_converges(self):
        sigma2 = 0.4
        csit = self._csit(sigma2)
        M = 10_000
        samples = draw_csit_samples(csit, M, seed=2)
        err = samples - np.sqrt(1 - sigma2) * csit.h_hat[None]
        var = float(np.mean(np.abs(err) ** 2))
        assert abs(var - sigma2) < 0.1 * sigma2

    def test_contiguous_along_the_sample_axis(self):
        samples = draw_csit_samples(self._csit(0.3), 5, seed=3)
        assert samples.shape == (5, 2, 8, 4)
        assert samples.transpose(1, 2, 3, 0).flags.c_contiguous

    @pytest.mark.parametrize("sigma2", [0.0, 0.3, 1.0])
    def test_same_bits_as_the_error_model_formula(self, sigma2):
        csit = self._csit(sigma2)
        tilde = complex_gaussian(rng_stream(9, 2), (6,) + csit.h_hat.shape)
        want = np.sqrt(1.0 - sigma2) * csit.h_hat[None] + np.sqrt(sigma2) * tilde
        assert draw_csit_samples(csit, 6, seed=9).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma2", [0.0, 0.3, 1.0])
    def test_chunked_draw_has_the_formula_bits(self, sigma2):
        # 3,976 draws in 16 chunks of 256, the last one of 136: chunked normal
        # draws continue the one stream, so the bits are those of one draw
        csit = self._csit(sigma2)
        K, N, n_t = csit.h_hat.shape
        step = _CHUNK_BYTES // (K * N * n_t * 16)
        M = 15 * step + step // 2 + 8
        assert len(_sample_chunks((M, K, N, n_t))) == 16
        tilde = complex_gaussian(rng_stream(9, 2), (M,) + csit.h_hat.shape)
        want = np.sqrt(1.0 - sigma2) * csit.h_hat[None] + np.sqrt(sigma2) * tilde
        assert draw_csit_samples(csit, M, seed=9).tobytes() == want.tobytes()

    def test_peak_memory_near_one_sample_array(self):
        # the sample array and one chunk's normal draws and arithmetic,
        # measured 1.19; a whole-M draw, sum or relaid copy adds one
        rng = np.random.default_rng(3)
        h_hat = rng.standard_normal((2, 8, 4)) + 1j * rng.standard_normal((2, 8, 4))
        csit = CsitModel(h_hat=h_hat, sigma_ie2=0.3)
        tracemalloc.start()
        try:
            samples = draw_csit_samples(csit, 4096, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * samples.nbytes

    def test_rejects_invalid_variance(self):
        cs = make_deterministic_scenario(THETA, BETA, 4, 8)
        with pytest.raises(ValueError):
            CsitModel(h_hat=cs.h, sigma_ie2=1.5)

    @pytest.mark.parametrize("alpha", [-0.5, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_alpha(self, alpha):
        # a NaN alpha passed the old alpha < 0 check
        cs = make_deterministic_scenario(THETA, BETA, 4, 8)
        with pytest.raises(ValueError, match="alpha must be nonnegative and finite"):
            CsitModel(h_hat=cs.h, sigma_ie2=0.3, alpha=alpha)


class TestContainers:
    def test_channelset_json_round_trip(self):
        cs = make_deterministic_scenario(THETA, BETA, 4, 4)
        back = ChannelSet.from_json(cs.to_json())
        assert np.array_equal(back.h, cs.h) and np.array_equal(back.g, cs.g)

    def test_channelset_rejects_nan(self):
        h = np.ones((1, 2, 2), dtype=complex)
        h[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelSet(n_t=2, N=2, K=1, L=0, h=h)

    def test_csit_model_rejects_non_finite_estimate(self):
        # a NaN h_hat was accepted and an RSMA optimize on it failed in the
        # SVD of its initial point
        h_hat = make_deterministic_scenario(THETA, BETA, 4, 4).h.copy()
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            h_hat[1, 2, 3] = bad
            with pytest.raises(ValueError, match="non-finite entries in h_hat"):
                CsitModel(h_hat=h_hat, sigma_ie2=0.1)

    def test_au_statistics_reject_non_finite_covariance(self):
        # NaN compares False, so an all-NaN R passed the Hermitian and PSD
        # checks with tau NaN, and optimize returned a NaN sum rate
        R = au_statistics_isotropic(4, 8, 1, (2,)).R
        for bad in (np.full_like(R, np.nan), np.where(np.eye(4, dtype=bool), np.inf, R)):
            with pytest.raises(ValueError, match="non-finite entries in R"):
                AuStatistics(R=bad, pilot_set=(2,))

    def test_channelset_rejects_missing_adversaries(self):
        with pytest.raises(ValueError):
            ChannelSet(n_t=2, N=2, K=1, L=1, h=np.ones((1, 2, 2)))

    def test_au_statistics_validation(self):
        stats = au_statistics_uniform_phase(2 * BETA, 4, 8, 1, (1, 5))
        assert stats.pilot_set == (1, 5)
        assert np.array_equal(stats.pilot_idx, [0, 4])
        with pytest.raises(ValueError):
            AuStatistics(R=stats.R, pilot_set=())

    def test_repeated_pilot_subcarrier_rejected(self):
        # (2, 2) was one pilot counted twice: it halved every floor
        R = au_statistics_isotropic(4, 8, 1, (2,)).R
        with pytest.raises(ValueError, match="repeats a subcarrier"):
            AuStatistics(R=R, pilot_set=(2, 2))

    @pytest.mark.parametrize("make,match", [
        (lambda: ChannelSet(n_t=2, N=2, K=1, L=0, h=np.ones((1, 2, 3))), "h has shape"),
        (lambda: ChannelSet(n_t=2, N=2, K=1, L=1, h=np.ones((1, 2, 2)), g=np.ones((2, 2, 2))),
         "g has shape"),
        (lambda: ChannelSet(n_t=2, N=2, K=1, L=1, h=np.ones((1, 2, 2)),
                            g=np.full((1, 2, 2), np.nan)), "non-finite entries in g"),
        (lambda: CsitModel(h_hat=np.ones((2, 8)), sigma_ie2=0.1), "h_hat must have shape"),
        (lambda: AuStatistics(R=np.ones((1, 8, 4, 3)), pilot_set=(1,)), "R must have shape"),
        (lambda: AuStatistics(R=np.tile(np.eye(2), (1, 8, 1, 1)), pilot_set=(9,)),
         "pilot_set entries must"),
        (lambda: AuStatistics(R=np.tile(np.eye(2), (1, 8, 1, 1)), pilot_set=(0, 2)),
         "pilot_set entries must"),
        (lambda: AuStatistics(R=np.tile([[1.0, 0.5], [0.0, 1.0]], (1, 4, 1, 1)), pilot_set=(1,)),
         "R must be Hermitian"),
        (lambda: AuStatistics(R=np.tile(np.diag([1.0, -1.0]), (1, 4, 1, 1)), pilot_set=(1,)),
         "R must be positive semidefinite")],
        ids=["h-shape", "g-shape", "g-nan", "h_hat-shape", "R-shape", "pilot-high", "pilot-zero",
             "R-hermitian", "R-psd"])
    def test_malformed_container_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_isotropic_statistics(self):
        stats = au_statistics_isotropic(4, 8, 2, (1, 3, 5))
        assert np.array_equal(stats.tau, np.ones((2, 8)))
        assert np.array_equal(stats.tau, np.full((2, 8), largest_eigenvalue(np.eye(4))))
        assert np.array_equal(stats.R[1, 4], np.eye(4))

    def test_tau_is_the_top_eigenvalue_of_r(self, rng):
        for L, N, n_t in ((1, 1, 1), (2, 3, 4), (3, 5, 2)):
            A = rng.standard_normal((L, N, n_t, n_t)) + 1j * rng.standard_normal((L, N, n_t, n_t))
            R = A @ np.conj(np.swapaxes(A, 2, 3)) / n_t
            tau = AuStatistics(R=R, pilot_set=(1,)).tau
            assert tau.shape == (L, N)
            assert tau.tobytes() == np.linalg.eigvalsh(R)[..., -1].tobytes()
        assert AuStatistics(R=np.zeros((0, 4, 2, 2)), pilot_set=()).tau.shape == (0, 4)

    def test_uniform_phase_tau_is_the_largest_eigenvalue(self):
        for delta, n_t in ((2 * BETA, 4), (0.0, 3), (np.pi, 8)):
            stats = au_statistics_uniform_phase(delta, n_t, 5, 2, (2,))
            top = largest_eigenvalue(au_covariance_uniform_phase(delta, n_t))
            assert np.array_equal(stats.tau, np.full((2, 5), top))


class TestPilotPlacement:
    def test_even_spacing(self):
        assert evenly_spaced_pilots(2, 16) == (1, 9)
        assert evenly_spaced_pilots(4, 16) == (1, 5, 9, 13)
        assert evenly_spaced_pilots(8, 16) == (1, 3, 5, 7, 9, 11, 13, 15)

    def test_nested_for_doubling_counts(self):
        small = set(evenly_spaced_pilots(2, 16))
        mid = set(evenly_spaced_pilots(4, 16))
        large = set(evenly_spaced_pilots(8, 16))
        assert small <= mid <= large

    def test_bounds(self):
        with pytest.raises(ValueError):
            evenly_spaced_pilots(0, 8)
        with pytest.raises(ValueError):
            evenly_spaced_pilots(9, 8)
