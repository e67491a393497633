import copy
import math
import pickle
from itertools import combinations_with_replacement

import numpy as np
import pytest

from dprelax import mechanism
from dprelax.errors import BudgetDecreaseError, ParameterError
from dprelax.mechanism import (
    EPSILON_CAP,
    RelaxationChain,
    chain_likelihood,
    iter_chain_rounds,
    iter_log_likelihoods,
    kernel_tensor,
    relax_kernel,
    relax_step,
    relax_step_batch,
    rr_distribution,
    sample_rr_batch,
    start_chain,
)

from oracles import (
    binary_pa,
    binary_pb,
    decimal_channel,
    degradation_channel,
    dense_kernel_tensor,
    fold_marginal,
    kernel_conditional,
    poly_kernel_direct,
    reversal_kernel,
    rr_channel,
    rr_vector,
    sequence_likelihood,
)

E = math.e
GRID = [round(0.1 * i, 1) for i in range(1, 21)]


def grid_pairs(extra_next=(10.0,)):
    for i, e1 in enumerate(GRID):
        for e2 in list(GRID[i:]) + list(extra_next):
            yield e1, e2


class TestRRDistribution:
    def test_near_deterministic_limit(self):
        dist = rr_distribution(50.0, 2)
        assert abs(dist.p_retain - 1.0) <= 1e-12

    def test_binary_eps_one(self):
        dist = rr_distribution(1.0, 2)
        assert dist.p_retain == pytest.approx(0.7310585786300049, abs=1e-12)
        assert dist.p_other == pytest.approx(1.0 - 0.7310585786300049, abs=1e-12)

    @pytest.mark.parametrize("m", [3, 4, 5, 9])
    def test_log_of_m_minus_one_gives_half(self, m):
        dist = rr_distribution(math.log(m - 1), m)
        assert dist.p_retain == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0, 10.0, 50.0, 80.0])
    def test_total_mass(self, eps, m):
        dist = rr_distribution(eps, m)
        assert dist.p_retain + (m - 1) * dist.p_other == pytest.approx(1.0, abs=1e-12)
        assert dist.p_other >= 0.0

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ParameterError):
            rr_distribution(eps, 2)

    def test_bad_domain(self):
        with pytest.raises(ParameterError):
            rr_distribution(1.0, 1)


class TestSampleRR:
    def test_non_integral_values_rejected(self):
        rng = np.random.default_rng(0)
        dist = rr_distribution(1.0, 3)
        with pytest.raises(ParameterError, match="values"):
            sample_rr_batch([1.5, 0.2], dist, rng)
        with pytest.raises(ParameterError, match="values"):
            sample_rr_batch([np.nan], dist, rng)
        with pytest.raises(ParameterError, match="values"):
            sample_rr_batch([1.7], dist, rng)
        assert sample_rr_batch(np.array([2.0, 0.0]), dist, rng).dtype == np.int64

    def test_noiseless_limit(self):
        rng = np.random.default_rng(3)
        dist = rr_distribution(50.0, 2)
        hits = sum(int(sample_rr_batch([0], dist, rng)[0]) == 0 for _ in range(10_000))
        assert hits / 10_000 > 0.999

    def test_binary_retain_frequency(self):
        rng = np.random.default_rng(11)
        dist = rr_distribution(1.0, 2)
        out = sample_rr_batch(np.ones(100_000, dtype=np.int64), dist, rng)
        assert np.mean(out == 1) == pytest.approx(0.7310585786300049, abs=0.006)

    def test_polychotomous_retain_frequency(self):
        rng = np.random.default_rng(5)
        dist = rr_distribution(0.1, 5)
        out = sample_rr_batch(np.full(100_000, 2, dtype=np.int64), dist, rng)
        assert np.mean(out == 2) == pytest.approx(0.21648068905247012, abs=0.006)
        # non-retained mass spreads evenly over the other four values
        others = np.delete(np.bincount(out, minlength=5), 2)
        assert others.max() - others.min() < 1000

    def test_out_of_range(self):
        dist = rr_distribution(1.0, 3)
        with pytest.raises(ParameterError):
            sample_rr_batch([3], dist, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="true_value"):
            start_chain(3, 3, 1.0, np.random.default_rng(0))

    def test_draws_the_distribution_it_is_given(self):
        # the draw is the step from ε = 0 to ``dist.epsilon``, whose kernel
        # holds the distribution's own probabilities; a distribution at ε = 0,
        # which would draw the identity, cannot be built
        truth = np.arange(4)
        dist = rr_distribution(0.5, 4)
        kernel = mechanism._relax_kernel(0.0, 0.5, 4)
        assert (kernel.p_aa, kernel.p_ab) == (dist.p_retain, dist.p_other)
        got = sample_rr_batch(truth, dist, np.random.default_rng(2))
        expected = relax_step_batch(kernel, truth, truth, np.random.default_rng(2))
        assert np.array_equal(got, expected)
        for eps in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="^epsilon must be positive and finite"):
                mechanism.ResponseDistribution(eps, 4)

    def test_deterministic_given_seed(self):
        dist = rr_distribution(0.5, 4)
        a = sample_rr_batch(np.zeros(100, dtype=np.int64), dist, np.random.default_rng(9))
        b = sample_rr_batch(np.zeros(100, dtype=np.int64), dist, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestRelaxKernel:
    def test_table_entry_small_domain(self):
        k = relax_kernel(0.1, 0.5, 3)
        assert k.p_aa == pytest.approx(0.584, abs=5e-4)
        assert k.p_bb == pytest.approx(0.392, abs=5e-4)
        assert k.p_ba == pytest.approx(0.379, abs=5e-4)

    def test_identity_when_parameter_repeats(self):
        for m in (2, 3, 7):
            k = relax_kernel(0.7, 0.7, m)
            assert (k.p_aa, k.p_bb, k.p_ba, k.p_ab, k.p_bc) == (1.0, 1.0, 0.0, 0.0, 0.0)

    def test_binary_closed_form(self):
        k = relax_kernel(1.0, 2.0, 2)
        assert k.p_aa == pytest.approx(0.9679413967199149, abs=1e-12)
        assert k.p_bb == pytest.approx(0.3560857401120277, abs=1e-12)
        assert k.p_ba == pytest.approx(1.0 - 0.3560857401120277, abs=1e-12)

    def test_binary_reduction_matches_dedicated_formulas(self):
        for e1, e2 in grid_pairs():
            k = relax_kernel(e1, e2, 2)
            assert k.p_aa == pytest.approx(binary_pa(e1, e2), abs=1e-12)
            assert k.p_bb == pytest.approx(binary_pb(e1, e2), abs=1e-12)

    @pytest.mark.parametrize("m", [3, 5, 10])
    def test_matches_direct_transcription(self, m):
        for e1, e2 in grid_pairs(extra_next=()):
            if e1 == e2:
                continue
            p_aa, p_ba, p_bb = poly_kernel_direct(e1, e2, m)
            k = relax_kernel(e1, e2, m)
            assert k.p_aa == pytest.approx(p_aa, abs=1e-12)
            assert k.p_ba == pytest.approx(p_ba, abs=1e-12)
            assert k.p_bb == pytest.approx(p_bb, abs=1e-12)

    def test_budget_decrease_rejected(self):
        with pytest.raises(BudgetDecreaseError):
            relax_kernel(1.0, 0.5, 3)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            relax_kernel(0.0, 1.0, 3)
        with pytest.raises(ParameterError):
            relax_kernel(0.5, 1.0, 1)

    def test_support_equalities_on_grid(self):
        for m in range(2, 11):
            for e1, e2 in grid_pairs():
                k = relax_kernel(e1, e2, m)
                lhs = math.exp(e1) * k.p_aa
                rhs = math.exp(e2) * k.p_bb
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
                ba = math.exp(e1 + e2) * (1.0 - k.p_aa) / (m - 1)
                assert abs(k.p_ba - ba) <= 1e-10 * max(k.p_ba, 1e-300)
                if m > 2:
                    assert abs(k.p_ba - math.exp(e2) * k.p_bc) <= 1e-10 * max(k.p_ba, 1e-300)

    def test_all_constraints_on_grid(self):
        # marginal equation, the eight pairwise bounds, and plain probability bounds
        slack = 1e-10
        for m in (2, 3, 5, 10):
            for e1, e2 in grid_pairs():
                k = relax_kernel(e1, e2, m)
                E1, E2 = math.exp(e1), math.exp(e2)
                prev = rr_distribution(e1, m)
                lhs = (m - 1) * prev.p_other * k.p_ba + prev.p_retain * k.p_aa
                assert lhs == pytest.approx(E2 / (E2 + m - 1), abs=1e-12)
                for p in (k.p_aa, k.p_ba, k.p_bb, k.p_ab, k.p_bc):
                    assert -slack <= p <= 1.0 + slack
                assert k.p_ba + k.p_bb <= 1.0 + slack
                assert E1 * k.p_aa <= E2 * k.p_bb + slack
                assert k.p_bb <= E2 * E1 * k.p_aa + slack
                assert E1 * k.p_ab <= E2 * k.p_ba + slack
                assert k.p_ba <= E2 * E1 * k.p_ab + slack
                if m > 2:
                    assert E1 * k.p_ab <= E2 * k.p_bc + slack
                    assert k.p_bc <= E2 * E1 * k.p_ab + slack
                    assert k.p_ba <= E2 * k.p_bc + slack
                    assert k.p_bc <= E2 * k.p_ba + slack


class TestFirstReleaseStep:
    """The first release is the step from ε = 0: its kernel is the randomized
    response at the first parameter, whatever the previous output."""

    EPSILONS = (1e-12, 0.3, 1.0, 2.5, 49.9, 50.0, 60.0)

    @pytest.mark.parametrize("m", range(2, 65))
    def test_kernel_is_the_randomized_response_bit_for_bit(self, m):
        for eps in self.EPSILONS:
            kernel = mechanism._relax_kernel(0.0, eps, m)
            dist = rr_distribution(eps, m)
            keep, other = dist.p_retain.hex(), dist.p_other.hex()
            entries = (kernel.p_aa, kernel.p_ba, kernel.p_bb, kernel.p_ab, kernel.p_bc)
            third = other if m > 2 else (0.0).hex()
            assert [e.hex() for e in entries] == [keep, keep, other, other, third]
            # [x, o_prev, o_next]: row x of the channel's transpose, for every o_prev
            expected = np.broadcast_to(rr_channel(eps, m).T[:, None, :], (m, m, m))
            assert np.array_equal(kernel_tensor(kernel), expected)


class TestKernelConditional:
    """One conditional ``[x, o_prev]`` of the kernel's tensor and log table."""

    def test_identity_is_one_hot(self):
        k = relax_kernel(1.0, 1.0, 4)
        for x in range(4):
            for o_prev in range(4):
                expected = np.zeros(4)
                expected[o_prev] = 1.0
                assert np.array_equal(kernel_tensor(k)[x, o_prev], expected)
                assert np.array_equal(np.exp(k.log_table[x, o_prev]), expected)

    def test_three_level_example(self):
        k = relax_kernel(0.1, 0.5, 3)
        expected = [0.3786066137331542, 0.3917568670677096, 0.2296365191991362]
        np.testing.assert_allclose(kernel_tensor(k)[0, 1], expected, atol=1e-12)
        np.testing.assert_allclose(np.exp(k.log_table[0, 1]), expected, atol=1e-12)

    def test_binary_example(self):
        k = relax_kernel(1.0, 2.0, 2)
        expected = [1.0 - 0.3560857401120277, 0.3560857401120277]
        np.testing.assert_allclose(kernel_tensor(k)[0, 1], expected, atol=1e-12)
        np.testing.assert_allclose(np.exp(k.log_table[0, 1]), expected, atol=1e-12)

    def test_row_stochastic_on_grid(self):
        for m in range(2, 11):
            for e1, e2 in grid_pairs():
                k = relax_kernel(e1, e2, m)
                tensor = kernel_tensor(k)
                assert np.abs(tensor.sum(axis=2) - 1.0).max() <= 1e-12
                assert tensor.min() >= 0.0

    def test_gathers_equal_the_dense_tensor_bit_for_bit(self):
        # both tables of every domain with one, across tiny, repeated, capped
        # and beyond-the-cap parameters
        eps = (1e-12, 0.3, 1.0, 2.5, 49.9, 50.0, 60.0)
        pairs = [(a, b) for i, a in enumerate(eps) for b in eps[i:]]
        for m in range(2, mechanism.MAX_DOMAIN + 1):
            for eps_prev, eps_next in pairs:
                k = relax_kernel(eps_prev, eps_next, m)
                dense = dense_kernel_tensor(k)
                with np.errstate(divide="ignore"):
                    log_dense = np.log(dense)
                tensor, log_table = kernel_tensor(k), k.log_table
                assert tensor.dtype == log_table.dtype == np.float64
                assert tensor.shape == log_table.shape == (m, m, m)
                assert tensor.tobytes() == dense.tobytes()
                assert log_table.tobytes() == log_dense.tobytes()

    def test_entry_classes_are_read_only(self):
        for m in (2, 3, mechanism.MAX_DOMAIN):
            classes = mechanism._entry_classes(m)
            assert classes.shape == (m, m, m) and classes.dtype == np.intp
            with pytest.raises(ValueError):
                classes[0, 0, 0] = 1

    def test_tensor_agrees_with_conditional(self):
        # against the oracle's entry-by-entry conditional, for the tensor and
        # the log table alike
        for m in (2, 3, 6):
            for eps_prev, eps_next in ((0.3, 1.7), (0.9, 0.9)):
                k = relax_kernel(eps_prev, eps_next, m)
                tensor = kernel_tensor(k)
                for x in range(m):
                    for o_prev in range(m):
                        expected = kernel_conditional(k, x, o_prev)
                        assert np.array_equal(tensor[x, o_prev], expected)
                        with np.errstate(divide="ignore"):
                            assert np.array_equal(k.log_table[x, o_prev], np.log(expected))


class TestMarginalInvariance:
    def test_fold_matches_target_distribution_on_grid(self):
        for m in range(2, 11):
            for e1, e2 in grid_pairs():
                k = relax_kernel(e1, e2, m)
                folded = fold_marginal(k, 0, rr_vector(e1, m, 0))
                np.testing.assert_allclose(folded, rr_vector(e2, m, 0), atol=1e-12)



class TestSkipConsistency:
    def test_two_steps_compose_into_one(self):
        # Σ over o₂ of K(ε₁→ε₂)[x, o₁, o₂] · K(ε₂→ε₃)[x, o₂, o₃] = K(ε₁→ε₃)[x, o₁, o₃]:
        # relaxing through an intermediate ε releases what one step would.
        # Equal parameters take the identity step; the worst deviation is 7.8e-16.
        levels = (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
        for m in range(2, 11):
            for e1, e2, e3 in combinations_with_replacement(levels, 3):
                two = kernel_tensor(relax_kernel(e1, e2, m)) @ kernel_tensor(relax_kernel(e2, e3, m))
                one = kernel_tensor(relax_kernel(e1, e3, m))
                assert np.abs(two - one).max() <= 2e-15, (m, e1, e2, e3)


class TestBayesReversal:
    """The kernel is the Bayes reversal of degrading the ε₂ response into the
    ε₁ one: given x and an ε₁ output o₁, the ε₂ output o₂ it was degraded from
    has probability P₂[x, o₂] G[o₂, o₁] / P₁[x, o₁], where P₁ = P₂ G."""

    LEVELS = (0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0)
    # below, at and past the cap, where both channels may be capped to one
    CAPPED = (
        (EPSILON_CAP - 1.0, EPSILON_CAP),
        (1.0, EPSILON_CAP),
        (10.0, EPSILON_CAP + 10.0),
        (EPSILON_CAP, EPSILON_CAP + 10.0),
        (EPSILON_CAP + 1.0, EPSILON_CAP + 5.0),
    )

    @pytest.mark.parametrize("m", [*range(2, 11), 16, 31, 32, 63, 64])
    def test_kernel_is_the_reversal_of_the_degradation(self, m):
        # the worst deviation over every m from 2 to 64 is 1.5e-15 relative
        pairs = [(e1, e2) for i, e1 in enumerate(self.LEVELS) for e2 in self.LEVELS[i + 1 :]]
        for e1, e2 in pairs + list(self.CAPPED):
            p1, p2 = decimal_channel(e1, m), decimal_channel(e2, m)
            assert (degradation_channel(p1, p2) >= 0).all(), (m, e1, e2)
            want = reversal_kernel(p1, p2)
            got = kernel_tensor(relax_kernel(e1, e2, m))
            assert (np.abs(got - want) <= 3e-15 * want).all(), (m, e1, e2)


class TestRelaxStep:
    def test_identity_step_repeats_output(self):
        rng = np.random.default_rng(1)
        chain = start_chain(1, 3, 0.5, rng)
        stepped = relax_step(chain, 0.5, rng)
        assert stepped.outputs == chain.outputs + (chain.outputs[-1],)

    def test_marginal_after_one_step(self):
        rng = np.random.default_rng(21)
        k = relax_kernel(0.1, 0.5, 3)
        truth = np.zeros(100_000, dtype=np.int64)
        first = sample_rr_batch(truth, rr_distribution(0.1, 3), rng)
        second = relax_step_batch(k, truth, first, rng)
        assert np.mean(second == 0) == pytest.approx(0.45186276187760605, abs=0.006)

    def test_ten_step_schedule_matches_folded_marginal(self):
        from dprelax.rappor import noisy_sampling_schedule
        from oracles import fold_schedule

        schedule = noisy_sampling_schedule(1.0, 0.5, 10)
        folded = fold_schedule(schedule, 2, 1, relax_kernel)
        np.testing.assert_allclose(folded, rr_vector(schedule[-1], 2, 1), atol=1e-12)

        rng = np.random.default_rng(2)
        truth = np.ones(100_000, dtype=np.int64)
        out = sample_rr_batch(truth, rr_distribution(schedule[0], 2), rng)
        for e1, e2 in zip(schedule, schedule[1:]):
            out = relax_step_batch(relax_kernel(e1, e2, 2), truth, out, rng)
        assert np.mean(out == 1) == pytest.approx(folded[1], abs=0.006)

    def test_batch_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="same shape"):
            relax_step_batch(relax_kernel(0.5, 1.0, 3), [0, 1, 2], [0, 1], rng)
        assert rng.bit_generator.state == state

    def test_budget_decrease_rejected(self):
        rng = np.random.default_rng(0)
        chain = start_chain(0, 2, 1.0, rng)
        with pytest.raises(BudgetDecreaseError):
            relax_step(chain, 0.5, rng)

    def test_non_integral_true_value_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError, match="true_value|x"):
            start_chain(1.7, 3, 0.5, rng)
        assert start_chain(np.float64(1.0), 3, 0.5, rng).true_value == 1

    @pytest.mark.parametrize("m", [2, 5])
    def test_each_release_consumes_one_double(self, m):
        # identity, ordinary and capped steps alike
        schedule = (0.3, 0.3, 0.8, EPSILON_CAP, EPSILON_CAP + 5.0)
        rng = np.random.default_rng(10 + m)
        fresh = copy.deepcopy(rng)
        chain = None
        for releases, eps in enumerate(schedule, start=1):
            if chain is None:
                chain = start_chain(m - 1, m, eps, rng)
            else:
                chain = relax_step(chain, eps, rng)
            expected = copy.deepcopy(fresh)
            expected.bit_generator.advance(releases)
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_deterministic_given_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            chain = start_chain(2, 4, 0.1, rng)
            for eps in (0.3, 0.7, 1.5):
                chain = relax_step(chain, eps, rng)
            return chain

        assert run(77) == run(77)
        assert run(77).outputs != run(78).outputs or run(77) == run(78)


class TestChainRounds:
    """`iter_chain_rounds` draws what `sample_rr_batch`, then `relax_step_batch`
    round by round, draw from the same generator, and checks its inputs once."""

    CASES = {
        "binary": (2, (0.1, 0.5, 0.5, 2.0)),
        "identity-and-capped": (3, (0.3, 0.3, 0.8, EPSILON_CAP, EPSILON_CAP + 5.0)),
        "third-values": (5, (1e-3, 0.2, 1.0, 4.0, 4.0, 9.0)),
        "ten-values": (10, (1e-12, 0.05, 0.5, 3.0, 3.0)),
        "capped-first": (7, (EPSILON_CAP, EPSILON_CAP + 5.0, EPSILON_CAP + 5.0)),
        "above-the-cap-first": (4, (EPSILON_CAP + 1.0, EPSILON_CAP + 2.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rounds_equal_the_checked_batch_calls(self, case):
        m, schedule = self.CASES[case]
        truth = np.random.default_rng(m).integers(0, m, size=500)
        rng, reference = np.random.default_rng(30 + m), np.random.default_rng(30 + m)
        expected = [sample_rr_batch(truth, rr_distribution(schedule[0], m), reference)]
        for e1, e2 in zip(schedule, schedule[1:]):
            step = relax_kernel(e1, e2, m)
            expected.append(relax_step_batch(step, truth, expected[-1], reference))
        rounds = list(iter_chain_rounds(truth, schedule, m, rng))
        assert len(rounds) == len(schedule)
        for got, want in zip(rounds, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize(
        "eps_prev, eps_next",
        [(0.3, 1.2), (0.7, 0.7), (EPSILON_CAP, EPSILON_CAP + 5.0), (1.0, EPSILON_CAP + 1.0)],
        ids=["relaxing", "identity", "capped", "crossing-the-cap"],
    )
    def test_unmoved_objects_draw_as_in_a_batch_with_a_moved_one(self, m, eps_prev, eps_next):
        # a batch whose objects all sit at their true values takes the early
        # return; the same objects next to one moved object take both branches
        kernel = relax_kernel(eps_prev, eps_next, m)
        truth = np.random.default_rng(m).integers(0, m, size=300)
        moved_truth = np.append(truth, 0)
        moved_prev = np.append(truth, 1)
        unmoved = relax_step_batch(kernel, truth, truth, np.random.default_rng(7))
        mixed = relax_step_batch(kernel, moved_truth, moved_prev, np.random.default_rng(7))
        assert unmoved.dtype == mixed.dtype == np.int64
        assert np.array_equal(unmoved, mixed[:-1])

    def test_inputs_are_checked_once(self, count_calls):
        calls = count_calls(("check_values", "check_schedule"))
        schedule = tuple(0.1 * k for k in range(1, 21))
        rounds = list(iter_chain_rounds([0, 1, 2, 2], schedule, 3, np.random.default_rng(1)))
        assert len(rounds) == 20
        assert calls == {"check_values": 1, "check_schedule": 1}

    @pytest.mark.parametrize(
        "truth, schedule, m, error",
        [
            ([0, 3], (0.5, 1.0), 3, ParameterError),
            ([0, 1.5], (0.5, 1.0), 3, ParameterError),
            ([0, 1], (1.0, 0.5), 3, BudgetDecreaseError),
            ([0, 1], (0.5, math.nan), 3, ParameterError),
            ([0, 1], (), 3, ParameterError),
            ([0, 1], (0.5,), 1, ParameterError),
        ],
        ids=["out-of-domain", "non-integral", "decreasing", "nan", "empty", "m=1"],
    )
    def test_refused_before_any_draw(self, truth, schedule, m, error):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(error):
            next(iter_chain_rounds(truth, schedule, m, rng))
        assert rng.bit_generator.state == state


class TestChainLikelihood:
    def test_single_output_is_one_response(self):
        for eps, m in [(0.5, 2), (1.0, 5)]:
            dist = rr_distribution(eps, m)
            assert chain_likelihood([0], [eps], m, 0) == pytest.approx(dist.p_retain, abs=1e-15)
            assert chain_likelihood([1], [eps], m, 0) == pytest.approx(dist.p_other, abs=1e-15)

    def test_two_round_binary_product(self):
        got = chain_likelihood([0, 0], [1.0, 2.0], 2, 0)
        assert got == pytest.approx(0.7076218616832026, abs=1e-12)

    def test_ratio_reduces_to_last_output(self):
        # every sequence's likelihood ratio across inputs equals the ratio of
        # the final output's single-response probabilities
        from itertools import product

        schedule = [0.1, 0.5, 1.0]
        m = 3
        for outputs in product(range(m), repeat=3):
            liks = [chain_likelihood(outputs, schedule, m, x) for x in range(m)]
            for x in range(m):
                reference = sequence_likelihood(outputs, schedule, m, x)
                assert liks[x] == pytest.approx(reference, rel=1e-12)
                for y in range(m):
                    expected = rr_vector(schedule[-1], m, x)[outputs[-1]] / rr_vector(
                        schedule[-1], m, y
                    )[outputs[-1]]
                    assert liks[x] / liks[y] == pytest.approx(expected, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ParameterError):
            chain_likelihood([0, 1], [1.0], 2, 0)
        with pytest.raises(ParameterError):
            chain_likelihood([], [], 2, 0)
        with pytest.raises(ParameterError):
            chain_likelihood([2], [1.0], 2, 0)


class TestEpsilonCap:
    def test_saturated_parameters_behave_as_noiseless(self):
        # beyond the cap all distributions coincide with the noiseless limit,
        # so a capped relaxation step is the identity
        dist = rr_distribution(80.0, 4)
        assert dist.p_retain == 1.0
        k = relax_kernel(55.0, 60.0, 4)
        assert (k.p_aa, k.p_bb, k.p_ba) == (1.0, 1.0, 0.0)
        assert (k.eps_prev, k.eps_next) == (55.0, 60.0)

    def test_crossing_the_cap(self):
        k = relax_kernel(1.0, 75.0, 3)
        # entries match a relaxation to the cap itself
        capped = relax_kernel(1.0, 50.0, 3)
        assert k.p_aa == capped.p_aa and k.p_bb == capped.p_bb and k.p_ba == capped.p_ba
        assert k.eps_next == 75.0


class TestRelaxationChain:
    def test_schedule_must_be_non_decreasing(self):
        with pytest.raises(ParameterError):
            RelaxationChain(true_value=0, m=2, schedule=(1.0, 0.5), outputs=(0, 1))

    def test_lengths_must_match(self):
        with pytest.raises(ParameterError):
            RelaxationChain(true_value=0, m=2, schedule=(1.0,), outputs=(0, 1))

    def test_accessors(self):
        chain = RelaxationChain(true_value=1, m=3, schedule=(0.1, 0.4), outputs=(2, 1))
        assert chain.last_output == 1
        assert chain.last_epsilon == 0.4


class _FixedUniforms:
    """A stand-in generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert shape == self.u.shape
        return self.u


def _candidates(x, o_prev, m):
    """The inverse-CDF candidate order of `relax_step_batch`'s docstring."""
    first = [x] if o_prev == x else [x, o_prev]
    return first + [v for v in range(m) if v not in first]


class TestRelaxStepBatchLaw:
    """`relax_step_batch` draws from `kernel_tensor` for every (x, o_prev) class."""

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_chi_square_against_tensor(self, m):
        kernel = relax_kernel(0.4, 1.1, m)
        tensor = kernel_tensor(kernel)
        draws = 20_000
        pairs = [(x, o) for x in range(m) for o in range(m)]
        truth = np.repeat([x for x, _ in pairs], draws)
        prev = np.repeat([o for _, o in pairs], draws)
        out = relax_step_batch(kernel, truth, prev, np.random.default_rng(4000 + m))
        pair_index = np.repeat(np.arange(len(pairs)), draws)
        counts = np.bincount(pair_index * m + out, minlength=len(pairs) * m).reshape(-1, m)
        expected = np.array([tensor[x, o] for x, o in pairs]) * draws
        assert np.all(expected > 5.0)  # the chi-square approximation holds per cell
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = len(pairs) * (m - 1)
        # Wilson-Hilferty upper quantile at z = 5 (p < 1e-6)
        bound = dof * (1 - 2 / (9 * dof) + 5 * math.sqrt(2 / (9 * dof))) ** 3
        assert stat < bound, (stat, bound)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_inverse_cdf_boundaries_land_in_named_candidates(self, m):
        kernel = relax_kernel(0.4, 1.1, m)
        tensor = kernel_tensor(kernel)
        below_one = np.nextafter(1.0, 0.0)
        for x in range(m):
            for o_prev in range(m):
                cand = _candidates(x, o_prev, m)
                if o_prev == x:
                    named = {0.0: cand[0], kernel.p_aa: cand[1], below_one: cand[-1]}
                else:
                    # with m = 2 the previous output is the last candidate
                    named = {
                        0.0: x,
                        kernel.p_ba: o_prev,
                        kernel.p_ba + kernel.p_bb: cand[min(2, m - 1)],
                        below_one: cand[-1],
                    }
                u = list(named)
                got = relax_step_batch(
                    kernel, [x] * len(u), [o_prev] * len(u), _FixedUniforms(u)
                )
                assert got.tolist() == list(named.values()), (x, o_prev, u)
                assert np.all(tensor[x, o_prev, got] > 0.0)


def _with_neighbours(points):
    """Each point and the doubles on either side of it, kept within [0, 1)."""
    points = np.asarray(points, dtype=float)
    u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestScalarDrawEqualsBatch:
    """`start_chain` and `relax_step` draw one object by `_draw_one`; it
    equals the batch sampler on every uniform, the inverse CDF's thresholds
    and their neighbouring doubles included."""

    EPSILONS = (1e-12, 0.1, 0.5, 1.0, 2.0, 10.0, EPSILON_CAP - 0.1, EPSILON_CAP, EPSILON_CAP + 10.0)
    RANDOM = np.random.default_rng(2024).random(200)

    def _uniforms(self, thresholds):
        return np.concatenate(
            [self.RANDOM, _with_neighbours([0.0, np.nextafter(1.0, 0.0), *thresholds])]
        )

    @staticmethod
    def _assert_equal(batch, scalar):
        assert {type(o) for o in scalar} == {int}
        assert batch.tolist() == scalar

    @pytest.mark.parametrize("m", range(2, 9))
    def test_randomized_response(self, m):
        for eps in self.EPSILONS:
            dist = rr_distribution(eps, m)
            u = self._uniforms([dist.p_retain + j * dist.p_other for j in range(m)])
            for x in range(m):
                batch = sample_rr_batch(np.full(u.size, x), dist, _FixedUniforms(u))
                first = mechanism._relax_kernel(0.0, eps, m)
                scalar = [mechanism._draw_one(first, x, x, v) for v in u.tolist()]
                self._assert_equal(batch, scalar)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_relaxation_step(self, m):
        pairs = [(x, o) for x in range(m) for o in range(m)]
        for i, eps_prev in enumerate(self.EPSILONS):
            for eps_next in self.EPSILONS[i:]:  # equal steps included
                k = relax_kernel(eps_prev, eps_next, m)
                stay = k.p_ba + k.p_bb
                u = self._uniforms(
                    [k.p_aa + j * k.p_ab for j in range(m)]
                    + [k.p_ba]
                    + [stay + j * k.p_bc for j in range(m - 1)]
                )
                truth = np.repeat([x for x, _ in pairs], u.size)
                prev = np.repeat([o for _, o in pairs], u.size)
                uniforms = np.tile(u, len(pairs))
                batch = mechanism._draw_step(k, truth, prev, _FixedUniforms(uniforms))
                scalar = [
                    mechanism._draw_one(k, x, o, v)
                    for x, o, v in zip(truth.tolist(), prev.tolist(), uniforms.tolist())
                ]
                self._assert_equal(batch, scalar)


class TestStepMemo:
    """`relax_kernel`'s per-process memo, behind every step the library takes or scores."""

    CASES = [
        (0.3, 0.8, 3),
        (0.3, 0.8, 2),
        (0.5, 0.5, 4),  # repeated ε: the identity kernel, -inf entries
        (1.0, EPSILON_CAP + 25.0, 3),
        (EPSILON_CAP + 1.0, EPSILON_CAP + 9.0, 2),
    ]

    @pytest.mark.parametrize("eps_prev, eps_next, m", CASES)
    def test_cached_step_equals_a_fresh_build(self, eps_prev, eps_next, m):
        fresh_kernel = mechanism._relax_kernel.__wrapped__(eps_prev, eps_next, m)
        with np.errstate(divide="ignore"):
            fresh = np.log(kernel_tensor(fresh_kernel))
        kernels = [relax_kernel(eps_prev, eps_next, m) for _ in range(2)]  # a miss, then a hit
        assert kernels[0] is kernels[1] and kernels[0] == fresh_kernel
        cached = kernels[0].log_table
        assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)
        if eps_prev == eps_next:
            assert np.isneginf(cached).any()

    def test_cached_tensor_is_read_only(self):
        kernel = relax_kernel(0.2, 0.6, 3)
        cached = kernel.log_table
        with pytest.raises(ValueError):
            cached[0, 0, 0] = 0.0
        # the memoized kernel keeps its five logs, never an m**3 table
        arrays = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
        assert all(a.size <= 5 for a in arrays)
        # a copy gathers its own table, read-only as well
        copies = (copy.copy(kernel), copy.deepcopy(kernel), pickle.loads(pickle.dumps(kernel)))
        for copied in copies:
            assert copied == kernel
            with pytest.raises(ValueError):
                copied.log_table[0, 0, 0] = 0.0
            assert np.array_equal(copied.log_table, cached)
        # the public builder still hands out fresh, writable arrays
        assert kernel_tensor(kernel).flags.writeable

    def test_schedule_keeps_the_uncapped_epsilon(self):
        rng = np.random.default_rng(5)
        chain = start_chain(0, 3, 1.0, rng)
        for eps in (EPSILON_CAP + 10.0, EPSILON_CAP + 20.0):
            # same capped kernel entries, distinct memo keys
            chain = relax_step(chain, eps, rng)
        assert chain.schedule == (1.0, EPSILON_CAP + 10.0, EPSILON_CAP + 20.0)
        other = relax_step(start_chain(0, 3, 1.0, rng), EPSILON_CAP + 20.0, rng)
        assert other.schedule == (1.0, EPSILON_CAP + 20.0)
        assert relax_kernel(1.0, EPSILON_CAP + 10.0, 3).eps_next == EPSILON_CAP + 10.0

    def test_unhashable_epsilon_is_validated_before_the_lookup(self):
        rng = np.random.default_rng(6)
        chain = relax_step(start_chain(1, 3, 0.4, rng), np.array(0.9), rng)
        assert chain.schedule == (0.4, 0.9)
        assert type(chain.schedule[-1]) is float
        kernel = relax_kernel(np.array(0.4), np.array(0.9), np.int64(3))
        assert kernel is relax_kernel(0.4, 0.9, 3)
        assert (type(kernel.eps_prev), type(kernel.m)) == (float, int)

    def test_invalid_and_decreasing_steps_raise_every_call(self):
        rng = np.random.default_rng(7)
        chain = start_chain(0, 3, 1.0, rng)
        state = rng.bit_generator.state
        outputs = np.zeros((2, 2), dtype=np.int64)
        for _ in range(2):
            with pytest.raises(BudgetDecreaseError):
                relax_step(chain, 0.5, rng)
            assert rng.bit_generator.state == state  # a refused release draws nothing
            with pytest.raises(BudgetDecreaseError):
                relax_kernel(1.0, 0.5, 3)
            with pytest.raises(BudgetDecreaseError):
                list(iter_log_likelihoods(outputs, (1.0, 0.5), 3))
            for bad in (math.nan, math.inf, -1.0, 0.0, np.array(math.nan), "1.5"):
                with pytest.raises(ParameterError):
                    relax_step(chain, bad, rng)
                assert rng.bit_generator.state == state
                with pytest.raises(ParameterError):
                    relax_kernel(bad, 1.0, 3)
            with pytest.raises(ParameterError):
                relax_kernel(0.5, 1.0, 1)
        # the one entry is `start_chain`'s first release, the step (0, 1.0)
        assert mechanism._relax_kernel.cache_info().currsize == 1

    def test_memo_is_bounded(self):
        info = mechanism._relax_kernel.cache_info()
        assert info.maxsize is not None and info.maxsize >= 128
        for k in range(info.maxsize + 10):
            relax_kernel(0.1, 0.2 + 0.01 * k, 2)
        assert mechanism._relax_kernel.cache_info().currsize == info.maxsize

    def test_scalar_kernel_of_a_large_domain_builds_no_table(self, monkeypatch):
        # `relax_kernel` and the kernel table stay unbounded in m: they read
        # only the named entries, never the m**3 table
        def no_table(m):
            raise AssertionError("entry pattern built")

        from dprelax.experiments import kernel_table_rows

        monkeypatch.setattr(mechanism, "_entry_classes", no_table)
        kernel = relax_kernel(0.1, 0.2, 1000)
        assert kernel.m == 1000 and 0.0 < kernel.p_aa < 1.0
        assert not any(isinstance(v, np.ndarray) for v in vars(kernel).values())
        row = (1000, 0.1, 0.2, kernel.p_aa, kernel.p_bb, kernel.p_ba)
        assert kernel_table_rows((0.1, 0.2), (1000,)) == [row]

    def test_domain_above_the_limit_has_no_table(self, monkeypatch):
        limit = mechanism.MAX_DOMAIN
        assert relax_kernel(0.1, 0.2, limit).log_table.shape == (limit,) * 3
        assert kernel_tensor(relax_kernel(0.1, 0.2, limit)).shape == (limit,) * 3

        class NoGrid:
            def __getitem__(self, key):
                raise AssertionError("entry pattern built")

        monkeypatch.setattr(np, "ogrid", NoGrid())  # a pattern build would fail
        kernel = relax_kernel(0.1, 0.2, limit + 1)
        for _ in range(2):
            with pytest.raises(ParameterError, match=f"^m must be at most {limit}, got {limit + 1}$"):
                kernel.log_table
        # 10**15 entries: refused by m, before any allocation
        with pytest.raises(ParameterError, match=f"^m must be at most {limit}, got 100000$"):
            kernel_tensor(relax_kernel(0.1, 0.2, 10**5))

    @pytest.mark.parametrize("m", [mechanism.MAX_DOMAIN + 1, 2**40])
    def test_a_chain_above_the_limit_is_refused_by_m(self, monkeypatch, m):
        # a one-release chain, opened, built or scored, is refused naming m
        # before any draw, any allocation of its size or any memo entry
        class NoGrid:
            def __getitem__(self, key):
                raise AssertionError("entry pattern built")

        def no_arange(*args, **kwargs):
            raise AssertionError("array allocated")

        monkeypatch.setattr(np, "ogrid", NoGrid())
        monkeypatch.setattr(np, "arange", no_arange)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        calls = (
            lambda: start_chain(0, m, 0.5, rng),
            lambda: RelaxationChain(0, m, (0.5,), (0,)),
            lambda: mechanism.chain_log_likelihoods([[0]], (0.5,), m),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=f"^m must be at most {mechanism.MAX_DOMAIN}, got {m}$"):
                call()
        assert rng.bit_generator.state == state
        assert mechanism._relax_kernel.cache_info().currsize == 0
        # ε, m and the true value are still checked first, in that order
        with pytest.raises(ParameterError, match="epsilon"):
            start_chain(m, m, 0.0, rng)
        with pytest.raises(ParameterError, match="true_value"):
            start_chain(m, m, 0.5, rng)
        with pytest.raises(ParameterError, match="m must be"):
            start_chain(0, 2**53 + 1, 0.5, rng)
        assert rng.bit_generator.state == state
