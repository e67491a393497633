import math
import warnings
from itertools import product

import numpy as np
import pytest

from dprelax import estimation, rappor
from dprelax.errors import IllConditionedError, ParameterError
from dprelax.estimation import (
    MIN_EPSILON,
    discretize_mean,
    estimate_binary,
    estimate_mean,
    estimate_poly,
    frequency_estimate_covariance,
    histogram,
    perturbation_matrix,
    _response_covariance,
    variance_binary_estimate,
)
from dprelax.mechanism import rr_distribution, sample_rr_batch
from dprelax.rappor import (
    decode_noisy_sampling_counts,
    rappor_params,
    simulate_noisy_sampling_batch,
)
from oracles import rr_channel, rr_vector

E = math.e


class TestEstimateBinary:
    def test_all_ones_fixed_point(self):
        for eps in (0.3, 1.0, 4.0):
            lam = math.exp(eps) / (math.exp(eps) + 1)
            assert estimate_binary(lam, eps) == pytest.approx(1.0, abs=1e-12)

    def test_half_is_fixed(self):
        for eps in (0.2, 1.0, 3.0):
            assert estimate_binary(0.5, eps) == pytest.approx(0.5, abs=1e-12)

    def test_direct_value(self):
        assert estimate_binary(0.66, 1.0) == pytest.approx(0.8462325461981846, abs=1e-12)

    def test_array_input(self):
        out = estimate_binary(np.array([0.0, 0.5, 1.0]), 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5, abs=1e-12)
        assert out[0] < 0.0 < 1.0 < out[2]  # unclamped by design

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            estimate_binary(1.2, 1.0)
        with pytest.raises(ParameterError):
            estimate_binary(0.5, 0.0)


class TestPerturbationMatrix:
    def test_large_epsilon_is_identity(self):
        for m in (2, 5):
            inverse = perturbation_matrix(40.0, m)
            np.testing.assert_allclose(inverse, np.eye(m), atol=1e-10)

    def test_log_two_entries(self):
        # the channel at e^eps = 2, m = 3 is 1/2 on the diagonal, 1/4 off it
        channel = np.full((3, 3), 0.25) + 0.25 * np.eye(3)
        inverse = perturbation_matrix(math.log(2.0), 3)
        np.testing.assert_allclose(inverse, np.linalg.inv(channel), atol=1e-12)

    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_inverse_contract(self, eps, m):
        channel = rr_channel(eps, m)
        inverse = perturbation_matrix(eps, m)
        np.testing.assert_allclose(channel @ inverse, np.eye(m), atol=1e-10)
        # closed form agrees with generic inversion
        np.testing.assert_allclose(inverse, np.linalg.inv(channel), atol=1e-10)

    def test_columns_sum_to_one(self):
        # a channel's columns sum to one, so its inverse's columns do too
        inverse = perturbation_matrix(0.7, 6)
        np.testing.assert_allclose(inverse.sum(axis=0), 1.0, atol=1e-12)


class TestEstimatePoly:
    def test_pure_population_recovers_one_hot(self):
        n = 1000
        for m, eps in [(3, 0.5), (5, 1.0)]:
            for j in range(m):
                est = estimate_poly(n * rr_vector(eps, m, j), eps).estimate
                expected = np.zeros(m)
                expected[j] = 1.0
                np.testing.assert_allclose(est, expected, atol=1e-9)

    def test_uniform_counts_give_uniform_estimate(self):
        hist = histogram(np.repeat(np.arange(4), 25), 4)
        est = estimate_poly(hist, 0.8).estimate
        np.testing.assert_allclose(est, 0.25, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_exact_expectation_roundtrip(self, m):
        # push the exact response expectation through the decoder: must return
        # the original composition without any sampling involved
        n = 10_000
        freqs = [
            np.full(m, 1.0 / m),
            np.eye(m)[0],
            np.arange(1, m + 1, dtype=float) / (m * (m + 1) / 2),
            np.array([0.9] + [0.1 / (m - 1)] * (m - 1)),
        ]
        for eps, freq in product((0.1, 0.5, 1.0, 2.0), freqs):
            counts = n * (rr_channel(eps, m) @ freq)
            np.testing.assert_allclose(estimate_poly(counts, eps).estimate, freq, atol=1e-9)

    def test_estimate_sums_to_one(self):
        rng = np.random.default_rng(4)
        responses = rng.integers(0, 5, size=997)
        fe = estimate_poly(histogram(responses, 5), 0.4)
        assert float(fe.estimate.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_covariance_shape_and_constraints(self):
        rng = np.random.default_rng(8)
        responses = rng.integers(0, 4, size=500)
        fe = estimate_poly(histogram(responses, 4), 1.0)
        np.testing.assert_allclose(fe.covariance, fe.covariance.T, atol=1e-15)
        np.testing.assert_allclose(fe.covariance.sum(axis=1), 0.0, atol=1e-9)

    def test_monte_carlo_unbiased_with_matching_variance(self):
        m, n, trials, eps = 5, 1500, 100, 1.0
        truth_freq = np.arange(1, 6) / 15.0
        truth = np.repeat(np.arange(m), (100, 200, 300, 400, 500))
        dist = rr_distribution(eps, m)
        rng = np.random.default_rng(123)
        estimates = np.empty((trials, m))
        for t in range(trials):
            responses = sample_rr_batch(truth, dist, rng)
            estimates[t] = estimate_poly(histogram(responses, m), eps).estimate
        sigma = np.sqrt(np.diag(frequency_estimate_covariance(truth_freq, eps, n)))
        band = 4.0 * sigma / math.sqrt(trials)
        assert np.all(np.abs(estimates.mean(axis=0) - truth_freq) <= band)
        ratio = estimates.var(axis=0, ddof=1) / sigma**2
        assert np.all((0.55 <= ratio) & (ratio <= 1.6))

    def test_ill_conditioned_epsilon(self):
        hist = histogram([0, 1, 1], 2)
        with pytest.raises(IllConditionedError):
            estimate_poly(hist, 1e-320)

    def test_histogram_rejects_non_integral_responses(self):
        with pytest.raises(ParameterError, match="responses"):
            histogram([0.5, 1.9], 3)
        with pytest.raises(ParameterError, match="responses"):
            histogram([0, 3], 3)
        assert histogram(np.array([0.0, 2.0, 2.0]), 3).tolist() == [1, 0, 2]


class TestTrustedDecodeCores:
    """The runners decode through each public decoder's unchecked core, on
    counts they built; the public decoders validate, then call that core.
    A histogram's public decoder is `estimate_poly`."""

    @staticmethod
    def _bits(x) -> bytes:
        return np.asarray(x, dtype=float).tobytes()

    def test_histogram_core_equals_decode_histogram(self):
        rng = np.random.default_rng(41)
        for m, eps, n in product((2, 3, 5, 11), (1e-3, 0.4, 2.0, 60.0), (1, 7, 1000)):
            # integer rows of one 2-D count block, as the runner decodes them
            block = np.stack([histogram(rng.integers(0, m, n), m) for _ in range(4)])
            inverse = perturbation_matrix(eps, m)
            for counts in block:
                public = estimate_poly(counts, eps).estimate
                core = estimation._decode_counts(counts, n, inverse)
                assert self._bits(core) == self._bits(public)

    def test_noisy_sampling_core_equals_decode_noisy_sampling_counts(self):
        rng = np.random.default_rng(43)
        for eps_alpha, eps_beta in ((1.0, 0.5), (0.05, 3.0), (60.0, 0.2)):
            params = rappor_params(eps_alpha, eps_beta)
            bits = rng.integers(0, 2, size=257)
            counts = simulate_noisy_sampling_batch(bits, params, 12, rng)
            for k in range(1, 13):
                column = counts[:, k - 1]  # a strided int64 column, as the runner passes
                public = decode_noisy_sampling_counts(column, k, params)
                core = rappor._decode_noisy_counts(column, k, params)
                assert self._bits(core) == self._bits(public)

    @pytest.mark.parametrize(
        "counts",
        [
            [-1, 3],
            [2, -1, 1],
            [0, 0],
            [1, math.nan],
            [1, math.inf],
            [1.5e308, 1.5e308],
            [5],
            [],
            [[1, 2], [3, 4]],
            ["1", "2"],
        ],
        ids=[
            "negative",
            "negative-with-positive-total",
            "none-of-the-values-counted",
            "nan",
            "inf",
            "total-overflows",
            "one-value",
            "empty",
            "2-D",
            "strings",
        ],
    )
    def test_decode_histogram_still_refuses_bad_counts(self, counts):
        with pytest.raises(ParameterError, match="^counts must be"):
            estimate_poly(counts, 1.0)

    @pytest.mark.parametrize(
        "counts, K",
        [([-1, 2], 4), ([0, -0.5], 1), ([1, 5], 4), ([2, 1], 1)],
        ids=["negative", "negative-fraction", "above-K", "above-K=1"],
    )
    def test_decode_noisy_sampling_counts_still_refuses_bad_counts(self, counts, K):
        with pytest.raises(ParameterError, match=rf"^k_ones must be in \[0, {K}\]$"):
            decode_noisy_sampling_counts(counts, K, rappor_params(1.0, 0.5))


class TestResponseCovariance:
    def test_rows_sum_to_zero_and_trace_positive(self):
        for m, eps, x in [(2, 0.5, 0), (5, 1.0, 3), (8, 2.0, 0)]:
            cov = _response_covariance(eps, m, x)
            np.testing.assert_allclose(cov.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)
            assert np.trace(cov) > 0.0

    def test_binary_matches_bernoulli(self):
        for eps in (0.2, 1.0, 3.0):
            p = math.exp(eps) / (math.exp(eps) + 1)
            cov = _response_covariance(eps, 2, 0)
            assert cov[0, 0] == pytest.approx(p * (1 - p), abs=1e-12)
            assert cov[1, 1] == pytest.approx(p * (1 - p), abs=1e-12)

    def test_three_value_diagonal(self):
        cov = _response_covariance(1.0, 3, 0)
        np.testing.assert_allclose(
            np.diag(cov),
            [0.24420621985354551, 0.16702233377192913, 0.16702233377192913],
            atol=1e-12,
        )


class TestVarianceBinaryEstimate:
    def test_single_response(self):
        assert variance_binary_estimate(1.0, 1) == pytest.approx(0.9206735942077924, abs=1e-12)

    def test_scales_inversely_with_population(self):
        assert variance_binary_estimate(1.0, 1000) == pytest.approx(9.206735942077924e-4, abs=1e-15)

    def test_vanishes_for_huge_population(self):
        assert variance_binary_estimate(1.0, 10**12) < 1e-11


# Every estimator, as a function of the privacy parameter it debiases with.
ESTIMATORS = {
    "estimate_binary": lambda eps: estimate_binary(0.5, eps),
    "perturbation_matrix": lambda eps: perturbation_matrix(eps, 3),
    "estimate_poly": lambda eps: estimate_poly(histogram([0, 0, 1], 64), eps).covariance,
    "frequency_estimate_covariance": lambda eps: frequency_estimate_covariance([0.5] * 2, eps, 1),
    "variance_binary_estimate": lambda eps: variance_binary_estimate(eps, 6),
    "estimate_mean": lambda eps: estimate_mean(0.5, eps, -1.0, 3.0),
    "decode_noisy_sampling_counts": lambda eps: decode_noisy_sampling_counts(
        [0, 1], 1, rappor_params(eps, 1.0)
    ),
}


class TestEpsilonThreshold:
    """One threshold, `MIN_EPSILON`, below which every estimator refuses ε."""

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_refused_just_below(self, name):
        for eps in (math.nextafter(MIN_EPSILON, 0.0), 1e-170, 5e-324):
            with pytest.raises(IllConditionedError, match="too small to debias"):
                ESTIMATORS[name](eps)

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_finite_at_and_just_above(self, name):
        for eps in (MIN_EPSILON, math.nextafter(MIN_EPSILON, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow on the way
                assert np.all(np.isfinite(ESTIMATORS[name](eps)))


class TestDiscretizeMean:
    def test_endpoints_are_deterministic(self):
        rng = np.random.default_rng(0)
        assert all(discretize_mean(-2.0, -2.0, 3.0, rng) == -2.0 for _ in range(50))
        assert all(discretize_mean(3.0, -2.0, 3.0, rng) == 3.0 for _ in range(50))

    def test_midpoint_frequency(self):
        rng = np.random.default_rng(31)
        hits = sum(discretize_mean(0.5, 0.0, 1.0, rng) == 1.0 for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(0.5, abs=0.005)

    def test_scalar_draws_as_the_one_value_loop_did(self):
        # one `rng.random()` per call, compared with the value's rounding
        # probability in float arithmetic: the scalar form before the batch one
        l, h = -2.0, 3.0
        values = np.random.default_rng(5).uniform(l, h, size=200)
        rng, reference = np.random.default_rng(33), np.random.default_rng(33)
        for value in values:
            got = discretize_mean(float(value), l, h, rng)
            assert type(got) is float
            assert got == (h if reference.random() < (value - l) / (h - l) else l)

    def test_array_equals_the_scalar_loop(self):
        l, h = 0.5, 4.0
        values = np.random.default_rng(6).uniform(l, h, size=(40, 5))
        rng = np.random.default_rng(34)
        loop = [discretize_mean(float(v), l, h, rng) for v in values.ravel()]
        batch = discretize_mean(values, l, h, np.random.default_rng(34))
        assert batch.shape == values.shape
        np.testing.assert_array_equal(batch.ravel(), loop)

    def test_out_of_interval(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            discretize_mean(4.0, 0.0, 1.0, rng)
        with pytest.raises(ParameterError):
            discretize_mean(0.5, 1.0, 1.0, rng)
        # h - l overflows: the rounding probability would be NaN, and a value
        # at h would round to l
        with pytest.raises(ParameterError, match="finite h - l"):
            discretize_mean(1e308, -1e308, 1e308, rng)


class TestEstimateMean:
    def test_all_high_population(self):
        for eps in (0.5, 1.0):
            lam = math.exp(eps) / (math.exp(eps) + 1)
            assert estimate_mean(lam, eps, -1.0, 5.0) == pytest.approx(5.0, abs=1e-9)

    def test_all_low_population(self):
        for eps in (0.5, 1.0):
            lam = 1 / (math.exp(eps) + 1)
            assert estimate_mean(lam, eps, -1.0, 5.0) == pytest.approx(-1.0, abs=1e-9)

    def test_reduces_to_binary_estimator(self):
        for lam in (0.0, 0.25, 0.66, 1.0):
            assert estimate_mean(lam, 1.2, 0.0, 1.0) == estimate_binary(lam, 1.2)

    def test_unbiased_through_pipeline(self):
        # exact expectation of discretize + randomize + decode returns the mean
        l, h, eps = 2.0, 10.0, 0.8
        for value in (2.0, 4.5, 9.0):
            p_high = (value - l) / (h - l)
            p = math.exp(eps) / (math.exp(eps) + 1)
            lam = p_high * p + (1 - p_high) * (1 - p)
            assert estimate_mean(lam, eps, l, h) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize(
        "l, h, match",
        [
            (0.0, math.inf, "finite h - l"),
            (-math.inf, 1.0, "finite h - l"),
            (-1e308, 1e308, "finite h - l"),
            (math.nan, 1.0, "l < h"),
            (1.0, 1.0, "l < h"),
            ("0", 1.0, "l must be a real number"),
            (0.0, "1", "h must be a real number"),
        ],
        ids=["inf-h", "inf-l", "width-overflows", "nan-l", "empty", "string-l", "string-h"],
    )
    def test_unusable_interval_is_refused(self, l, h, match):
        with pytest.raises(ParameterError, match=match):
            estimate_mean(0.5, 1.0, l, h)


class TestHistogram:
    def test_builder(self):
        counts = histogram([0, 1, 1, 2], 4)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, [1, 2, 1, 0])
        assert estimate_poly(counts, 1.0).n == 4

    def test_builder_validation(self):
        with pytest.raises(ParameterError):
            histogram([], 3)
        with pytest.raises(ParameterError):
            histogram([3], 3)
