import math

import numpy as np
import pytest

from dprelax.errors import ParameterError
from dprelax.estimation import estimate_binary, variance_binary_estimate
from dprelax.rappor import (
    decode_noisy_sampling_counts,
    eps_noisy_sampling,
    noisy_sampling_schedule,
    rappor_params,
    simulate_noisy_sampling_batch,
    variance_noisy_sampling,
)

PARAMS = rappor_params(1.0, 0.5)
BETA_GRID = [round(0.1 * i, 1) for i in range(1, 11)]


class TestParams:
    def test_retain_probabilities(self):
        assert PARAMS.alpha == pytest.approx(0.7310585786300049, abs=1e-12)
        assert PARAMS.beta == pytest.approx(0.6224593312018546, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            rappor_params(0.0, 0.5)
        with pytest.raises(ParameterError):
            rappor_params(1.0, -1.0)


class TestEpsNoisySampling:
    def test_single_sample(self):
        assert eps_noisy_sampling(1, PARAMS) == pytest.approx(0.22733629380264575, abs=1e-12)

    def test_ten_samples(self):
        assert eps_noisy_sampling(10, PARAMS) == pytest.approx(0.9843257572199207, abs=1e-12)

    def test_limit_is_permanent_parameter(self):
        assert abs(eps_noisy_sampling(200, PARAMS) - 1.0) < 1e-6

    def test_monotone_and_bounded(self):
        for eps_alpha in (0.5, 1.0, 2.0):
            for eps_beta in BETA_GRID:
                params = rappor_params(eps_alpha, eps_beta)
                values = [eps_noisy_sampling(k, params) for k in range(1, 21)]
                assert all(b > a for a, b in zip(values, values[1:]))
                assert values[-1] < eps_alpha

    def test_schedule_builder(self):
        schedule = noisy_sampling_schedule(1.0, 0.5, 10)
        assert len(schedule) == 10
        assert schedule[0] == pytest.approx(0.22733629380264575, abs=1e-12)
        assert schedule[-1] == pytest.approx(0.9843257572199207, abs=1e-12)

    def test_schedule_that_cancels_to_zero_is_refused(self):
        # eps_noisy_sampling cancels to 0.0 at this eps_alpha, and no function
        # that takes a schedule accepts a zero entry
        assert eps_noisy_sampling(3, rappor_params(1e-20, 1.0)) == 0.0
        with pytest.raises(ParameterError, match=r"^eps_alpha 1e-20 is too small for the matched schedule"):
            noisy_sampling_schedule(1e-20, 1.0, 3)


class TestSimulate:
    def test_noiseless_limit(self):
        params = rappor_params(50.0, 50.0)
        rng = np.random.default_rng(2)
        for bit in (0, 1):
            counts = simulate_noisy_sampling_batch([bit], params, 12, rng)
            assert counts.shape == (1, 12) and counts[0, -1] == 12 * bit

    def test_mean_sample_frequency(self):
        rng = np.random.default_rng(17)
        counts = simulate_noisy_sampling_batch(np.ones(100_000, dtype=np.int64), PARAMS, 10, rng)
        # expected per-sample one-rate mixes the permanent and instantaneous stages
        expected = PARAMS.alpha * PARAMS.beta + (1 - PARAMS.alpha) * (1 - PARAMS.beta)
        assert expected == pytest.approx(0.556590558014963, abs=1e-12)
        assert counts[:, -1].mean() / 10 == pytest.approx(expected, abs=0.006)

    def test_prefix_counts_are_cumulative(self):
        rng = np.random.default_rng(3)
        counts = simulate_noisy_sampling_batch(np.zeros(1000, dtype=np.int64), PARAMS, 8, rng)
        diffs = np.diff(counts, axis=1)
        assert counts.shape == (1000, 8)
        assert np.all((diffs == 0) | (diffs == 1))

    def test_log_ratio_extremes_at_boundary_counts(self):
        # the count distribution's log-ratio is extremal at all-zeros/all-ones
        a, b = PARAMS.alpha, PARAMS.beta
        for K in range(1, 11):
            ratios = []
            for k in range(K + 1):
                p1 = a * b**k * (1 - b) ** (K - k) + (1 - a) * b ** (K - k) * (1 - b) ** k
                p0 = a * b ** (K - k) * (1 - b) ** k + (1 - a) * b**k * (1 - b) ** (K - k)
                ratios.append(abs(math.log(p1 / p0)))
            assert max(ratios) == pytest.approx(ratios[K], abs=1e-12)
            assert ratios[0] == pytest.approx(ratios[K], abs=1e-12)

    def test_bad_bit(self):
        with pytest.raises(ParameterError, match="bits"):
            simulate_noisy_sampling_batch([2], PARAMS, 3, np.random.default_rng(0))

    def test_fractional_bits_rejected(self):
        with pytest.raises(ParameterError, match="bits"):
            simulate_noisy_sampling_batch([0.7, 1.2], PARAMS, 3, np.random.default_rng(0))
        exact = simulate_noisy_sampling_batch([0.0, 1.0], PARAMS, 3, np.random.default_rng(4))
        assert np.array_equal(
            exact, simulate_noisy_sampling_batch([0, 1], PARAMS, 3, np.random.default_rng(4))
        )


class TestDecode:
    def test_noiseless_limit(self):
        params = rappor_params(50.0, 50.0)
        counts = np.full(10, 4)
        assert decode_noisy_sampling_counts(counts, 4, params) == pytest.approx(1.0, abs=1e-9)

    def test_exact_expectation_is_unbiased(self):
        # push exact per-stage expectations through both decode stages
        a, b = PARAMS.alpha, PARAMS.beta
        for freq in (0.0, 0.25, 0.6, 1.0):
            lam_given_one = a * b + (1 - a) * (1 - b)
            lam_given_zero = a * (1 - b) + (1 - a) * b
            per_client_one = estimate_binary(lam_given_one, PARAMS.eps_beta)
            per_client_zero = estimate_binary(lam_given_zero, PARAMS.eps_beta)
            mean_clients = freq * per_client_one + (1 - freq) * per_client_zero
            g = math.expm1(PARAMS.eps_alpha)
            decoded = ((g + 2.0) * mean_clients - 1.0) / g
            assert decoded == pytest.approx(freq, abs=1e-10)

    def test_monte_carlo_population(self):
        rng = np.random.default_rng(29)
        bits = np.repeat(np.array([0, 1], dtype=np.int64), (400, 600))
        trials = 100
        estimates = np.empty(trials)
        for t in range(trials):
            counts = simulate_noisy_sampling_batch(bits, PARAMS, 10, rng)
            estimates[t] = decode_noisy_sampling_counts(counts[:, -1], 10, PARAMS)
        theory = variance_noisy_sampling(PARAMS, 1000, 10)
        assert estimates.mean() == pytest.approx(0.6, abs=4 * math.sqrt(theory / trials))
        assert 0.55 * theory <= estimates.var(ddof=1) <= 1.6 * theory

    def test_single_scalar_count(self):
        one_report = decode_noisy_sampling_counts(6, 10, PARAMS)
        one_row = decode_noisy_sampling_counts([6], 10, PARAMS)
        assert one_report == one_row

    def test_validation(self):
        with pytest.raises(ParameterError):
            decode_noisy_sampling_counts([], 4, PARAMS)
        with pytest.raises(ParameterError):
            decode_noisy_sampling_counts([1, 5], 4, PARAMS)


class TestVarianceNoisySampling:
    def test_large_sample_limit(self):
        a = PARAMS.alpha
        limit = a * (1 - a) / (1 - 2 * a) ** 2
        assert variance_noisy_sampling(PARAMS, 1, 10**9) == pytest.approx(limit, rel=1e-6)

    def test_single_sample_equals_matched_relaxation(self):
        # at one sample the two pipelines are the same binary channel, so the
        # variances coincide up to floating point
        var_ns = variance_noisy_sampling(PARAMS, 1, 1)
        var_rr = variance_binary_estimate(eps_noisy_sampling(1, PARAMS), 1)
        assert var_ns == pytest.approx(19.26605640584372, rel=1e-12)
        assert var_rr == pytest.approx(var_ns, rel=1e-9)

    def test_ten_samples_strictly_worse_than_relaxation(self):
        var_ns = variance_noisy_sampling(PARAMS, 1, 10)
        var_rr = variance_binary_estimate(eps_noisy_sampling(10, PARAMS), 1)
        assert var_ns == pytest.approx(2.7552118753713852, rel=1e-12)
        assert var_rr == pytest.approx(0.952654864999464, rel=1e-12)
        assert var_rr < var_ns

    def test_limit_gap_shrinks_to_per_round_term(self):
        # the K-independent part of the noisy-sampling variance equals the
        # matched relaxation variance at the permanent-stage parameter, so the
        # remaining gap is exactly the per-round term
        a = PARAMS.alpha
        assert a * (1 - a) / (1 - 2 * a) ** 2 == pytest.approx(
            variance_binary_estimate(PARAMS.eps_alpha, 1), rel=1e-12
        )
        K = 10**6
        gap = variance_noisy_sampling(PARAMS, 1, K) - variance_binary_estimate(
            eps_noisy_sampling(K, PARAMS), 1
        )
        b = PARAMS.beta
        per_round = b * (1 - b) / (K * (1 - 2 * b) ** 2 * (1 - 2 * a) ** 2)
        assert gap == pytest.approx(per_round, rel=1e-6)

    def test_dominated_at_every_round(self):
        for eps_beta in BETA_GRID:
            params = rappor_params(1.0, eps_beta)
            for K in range(1, 21):
                var_ns = variance_noisy_sampling(params, 1, K)
                var_rr = variance_binary_estimate(eps_noisy_sampling(K, params), 1)
                assert var_rr <= var_ns * (1 + 1e-12)

    def test_degenerate_parameters_rejected(self):
        # e^1e-17 is 1.0 in double precision, so alpha rounds to exactly 0.5
        degenerate = rappor_params(1e-17, 1.0)
        assert degenerate.alpha == 0.5
        with pytest.raises(ParameterError, match="degenerate"):
            variance_noisy_sampling(degenerate, 10, 2)
