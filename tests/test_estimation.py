import math
import warnings
from itertools import product

import numpy as np
import pytest

from dprelax import experiments, rappor
from dprelax._util import EPSILON_CAP
from dprelax.errors import IllConditionedError, ParameterError
from dprelax.estimation import (
    MIN_EPSILON,
    discretize_mean,
    estimate_binary,
    estimate_mean,
    estimate_poly,
    frequency_estimate_covariance,
    histogram,
    variance_binary_estimate,
)
from dprelax.mechanism import rr_distribution, sample_rr_batch
from dprelax.rappor import (
    decode_noisy_sampling_counts,
    rappor_params,
    simulate_noisy_sampling_batch,
)
from oracles import (
    decoded_binary, decoded_covariance, decoded_frequencies, decoded_noisy_sampling,
    response_covariance, rr_channel, rr_vector,
)

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


# Privacy parameters of the accuracy checks: from where the decode is worst
# conditioned, about m / g for g = e^eps - 1, to past `EPSILON_CAP`.
ACCURACY_EPSILONS = (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 1.0, 4.0, 20.0, 60.0)
# The decode's largest error, in units of the largest entry of its exact value:
# its three roundings, and those of e^eps - 1 and n * g, stay within 2 ulps.
DECODE_TOL = 4.5e-16


class TestDecodeAccuracy:
    """Every decode against the 50-digit generic inverse of the channel, on
    integer counts: within `DECODE_TOL` times the exact decode's largest entry."""

    @pytest.mark.parametrize("m", [2, 3, 5, 16])
    def test_estimate_poly(self, m):
        rng = np.random.default_rng(200 + m)
        for eps, n in product(ACCURACY_EPSILONS, (1, 7, 1000, 50_000)):
            counts = np.bincount(rng.integers(0, m, n), minlength=m)
            want = decoded_frequencies(counts, eps).astype(float)
            got = estimate_poly(counts, eps).estimate
            assert np.abs(got - want).max() <= DECODE_TOL * np.abs(want).max(), (eps, n)

    def test_estimate_binary(self):
        for eps, n in product(ACCURACY_EPSILONS, (1, 3, 7, 1000, 50_000)):
            for k in range(0, n + 1, max(1, n // 7)):
                # the frequency as the caller holds it: the reference takes the
                # float k / n at its exact value
                want = decoded_binary(k / n, 1, eps).astype(float)
                got = estimate_binary(k / n, eps)
                assert abs(got - want[1]) <= DECODE_TOL * np.abs(want).max(), (eps, n, k)

    def test_decode_noisy_sampling_counts_of_one_client(self):
        # one client, so no mean stands between the stages; the second stage
        # multiplies the first's error by its gain, 1 + 2 / g, so the scale is
        # the second's largest entry plus the first's times that gain
        for eps_alpha, eps_beta in product(ACCURACY_EPSILONS, repeat=2):
            params = rappor_params(eps_alpha, eps_beta)
            gain = 1.0 + 2.0 / math.expm1(min(eps_alpha, EPSILON_CAP))
            for K, k in [(1, 0), (1, 1), (2, 1), (7, 2), (7, 6), (100, 49), (100, 51), (100, 93)]:
                first = decoded_binary(k, K, eps_beta)
                want = decoded_binary(first[1], 1, eps_alpha).astype(float)
                scale = np.abs(want).max() + gain * np.abs(first.astype(float)).max()
                got = decode_noisy_sampling_counts([k], K, params)
                assert abs(got - want[1]) <= DECODE_TOL * scale, (eps_alpha, eps_beta, K, k)

    def test_decode_noisy_sampling_counts_of_many_clients(self):
        # the clients' counts are decoded from their total: one rounding of
        # the first stage's value, whatever N, instead of N cancelling in a mean
        for seed, N, K in product(range(4), (1, 5, 257), range(1, 7)):
            k_ones = np.random.default_rng(seed).integers(0, K + 1, N)
            for eps_alpha, eps_beta in product(ACCURACY_EPSILONS, repeat=2):
                want = decoded_noisy_sampling(int(k_ones.sum()), N * K, eps_alpha, eps_beta)
                got = decode_noisy_sampling_counts(k_ones, K, rappor_params(eps_alpha, eps_beta))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (eps_alpha, eps_beta, N, K, seed)


class TestEstimatePoly:
    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_pure_population_recovers_one_hot(self, eps, m):
        # a channel column's expected counts decode to its value's one-hot vector
        n = 1000
        for j in range(m):
            est = estimate_poly(n * rr_vector(eps, m, j), eps).estimate
            np.testing.assert_allclose(est, np.eye(m)[j], atol=1e-10)

    def test_large_epsilon_is_identity(self):
        rng = np.random.default_rng(2)
        for m in (2, 5):
            counts = rng.integers(1, 50, m)
            est = estimate_poly(counts, 40.0).estimate
            np.testing.assert_allclose(est, counts / counts.sum(), atol=1e-15)

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

    def test_total_above_two_to_the_53_is_refused(self):
        # m * counts would overflow near the double limit; no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for counts in ([1e308, 1e307], [2.0**53, 2.0], [2**52, 2**52, 2]):
                with pytest.raises(ParameterError, match=r"^counts must .* total at most 2\*\*53$"):
                    estimate_poly(counts, 1.0)
            est = estimate_poly([2**53 - 1, 1], 1.0).estimate  # the bound is inclusive
            assert np.all(np.isfinite(est))

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

    def test_block_decode_equals_decode_histogram(self):
        rng = np.random.default_rng(41)
        for m, eps, n in product((2, 3, 5, 11), (1e-3, 0.4, 2.0, 60.0), (1, 7, 1000)):
            # 4 trials' values in one trial-major column, as the runner decodes them
            column = rng.integers(0, m, 4 * n)
            block = experiments._decode_block(column, eps, m, n)
            for row, values in zip(block, column.reshape(4, n)):
                public = estimate_poly(histogram(values, m), eps).estimate
                assert self._bits(row) == self._bits(public)

    def test_noisy_sampling_core_equals_decode_noisy_sampling_counts(self):
        rng = np.random.default_rng(43)
        for eps_alpha, eps_beta in ((1.0, 0.5), (0.05, 3.0), (60.0, 0.2)):
            params = rappor_params(eps_alpha, eps_beta)
            bits = rng.integers(0, 2, size=257)
            counts = simulate_noisy_sampling_batch(bits, params, 12, rng)
            for k in range(1, 13):
                column = counts[:, k - 1]  # a strided int64 column, as the runner passes
                public = decode_noisy_sampling_counts(column, k, params)
                core = rappor._decode_noisy_counts(column.sum(), column.size * k, params)
                assert self._bits(core) == self._bits(public)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_compare_run_decodes_as_decode_noisy_sampling_counts(self, monkeypatch, threads):
        # 4000 clients and 5 trials: blocks of 2, 2 and 1 trials
        config = experiments.config_from_dict(
            {
                "m": 2,
                "counts": [1500, 2500],
                "schedule": {"kind": "noisy-sampling", "eps_alpha": 0.3, "eps_beta": 0.05, "rounds": 6},
                "trials": 5,
                "seed": 45,
            }
        )
        drawn = []

        def recorder(*args, **kwargs):
            counts = simulate_noisy_sampling_batch(*args, **kwargs)
            drawn.append(counts)
            return counts

        monkeypatch.setattr(experiments, "simulate_noisy_sampling_batch", recorder)
        result = experiments.compare_noisy_sampling(config, threads=threads)
        params = rappor_params(0.3, 0.05)
        assert len(drawn) == config.trials
        # blocks on two threads record in any order: match trials as a multiset
        want = sorted(
            self._bits([decode_noisy_sampling_counts(counts[:, k - 1], k, params) for k in range(1, 7)])
            for counts in drawn
        )
        assert sorted(self._bits(row) for row in result.noisy_estimates) == want

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
    """The reference's per-value term, diag(P) - P P', that `decoded_covariance` sums."""

    def test_rows_sum_to_zero_and_trace_positive(self):
        for m, eps, x in [(2, 0.5, 0), (5, 1.0, 3), (8, 2.0, 0)]:
            cov = response_covariance(eps, m, x).astype(float)
            np.testing.assert_allclose(cov.sum(axis=1), 0.0, atol=1e-12)
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)
            assert np.trace(cov) > 0.0

    def test_binary_matches_bernoulli(self):
        for eps in (0.2, 1.0, 3.0):
            p = math.exp(eps) / (math.exp(eps) + 1)
            cov = response_covariance(eps, 2, 0).astype(float)
            assert cov[0, 0] == pytest.approx(p * (1 - p), abs=1e-12)
            assert cov[1, 1] == pytest.approx(p * (1 - p), abs=1e-12)

    def test_three_value_diagonal(self):
        cov = response_covariance(1.0, 3, 0).astype(float)
        np.testing.assert_allclose(
            np.diag(cov),
            [0.24420621985354551, 0.16702233377192913, 0.16702233377192913],
            atol=1e-12,
        )


# Epsilons for the covariance checks: small enough that the decode is
# ill-conditioned, around the shipped range, and at and past `EPSILON_CAP`.
COVARIANCE_EPSILONS = (1e-3, 0.4, 1.0, 2.5, 49.9, 50.0, 60.0)


def _assert_matches_reference(cov, weights, eps: float, n) -> None:
    want = decoded_covariance(weights, eps, n)
    assert np.abs(cov - want).max() <= 1e-12 * np.abs(want).max(), (len(weights), eps)


class TestDecodedCovariance:
    """Both covariances against the 50-digit reference, and the diagonal against
    the generalized randomized response variance."""

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 16, 64])
    def test_frequency_estimate_covariance_matches_reference(self, m):
        rng = np.random.default_rng(m)
        for eps in COVARIANCE_EPSILONS:
            freq = rng.dirichlet(np.ones(m))
            freq[: m // 2] = 0.0  # values with no objects: at m = 2, a point mass
            freq /= freq.sum()
            _assert_matches_reference(frequency_estimate_covariance(freq, eps, 777), freq, eps, 777)

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 16, 64])
    def test_plug_in_covariance_matches_reference(self, m):
        # the plug-in is the covariance at the counts' exact decode, whose
        # entries sum to 1; the float decode's own sum is off by rounding
        rng = np.random.default_rng(100 + m)
        for eps in COVARIANCE_EPSILONS:
            counts = rng.integers(0, 3, m)
            counts[0] += 1
            est = estimate_poly(counts, eps)
            _assert_matches_reference(est.covariance, decoded_frequencies(counts, eps), eps, est.n)

    @pytest.mark.parametrize("counts", [[1, 0], [3, 5], [1, 2, 0], [0, 4, 1, 1]])
    @pytest.mark.parametrize("eps", [1e-30, 1e-20, 1e-17])
    def test_plug_in_covariance_below_double_precision(self, counts, eps):
        # decoded entries of about ±1/g have a float sum far from their exact
        # sum of 1: 0.0 at m = 2, which zeroed the whole covariance
        est = estimate_poly(counts, eps)
        _assert_matches_reference(est.covariance, decoded_frequencies(counts, eps), eps, est.n)

    def test_plug_in_covariance_at_the_smallest_epsilon(self):
        # the m = 2 diagonal is the binary variance, e^eps / (n g**2) = 1e200
        cov = estimate_poly([1, 0], MIN_EPSILON).covariance
        want = variance_binary_estimate(MIN_EPSILON, 1)
        np.testing.assert_allclose(cov, [[want, -want], [-want, want]], rtol=1e-15)

    def test_diagonal_is_the_generalized_randomized_response_variance(self):
        # Wang et al. (USENIX Security 2017): with g = e^eps - 1,
        # (e^eps + m - 2 + g (m - 2) f_j) / (n g**2)
        rng = np.random.default_rng(7)
        for m, eps in product((2, 3, 10, 1000), COVARIANCE_EPSILONS):
            freq, n = rng.dirichlet(np.ones(m)), 31
            big, g = math.exp(min(eps, EPSILON_CAP)), math.expm1(min(eps, EPSILON_CAP))
            want = (big + m - 2 + g * (m - 2) * freq) / (n * g**2)
            cov = frequency_estimate_covariance(freq, eps, n)
            np.testing.assert_allclose(np.diag(cov), want, rtol=1e-14)

    def test_binary_diagonal_is_the_binary_variance(self):
        for eps, w in product(COVARIANCE_EPSILONS, (0.0, 0.1, 0.5, 0.93, 1.0)):
            cov = frequency_estimate_covariance([w, 1.0 - w], eps, 31)
            assert np.diag(cov) == pytest.approx([variance_binary_estimate(eps, 31)] * 2, rel=1e-15)


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
    "estimate_poly": lambda eps: estimate_poly(histogram([0, 0, 1], 64), eps).covariance,
    "frequency_estimate_covariance": lambda eps: frequency_estimate_covariance([0.5] * 2, eps, 1),
    "estimate_poly-1024": lambda eps: estimate_poly(histogram([0, 0, 1], 1024), eps).covariance,
    "frequency_estimate_covariance-1024": lambda eps: frequency_estimate_covariance(
        np.ones(1024) / 1024, eps, 1
    ),
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
