import copy
import hashlib
import math
import pickle
from itertools import product
from unittest import mock

import numpy as np
import pytest

from dprelax import inference, mechanism
from dprelax.errors import ParameterError
from dprelax.inference import (
    ATTACK_METHODS,
    _running_guesses,
    attack_guesses_matrix,
    balanced_subset,
    iter_attack_guesses,
    min_error_rate,
    posterior,
    uniform_prior,
)
from dprelax.mechanism import (
    EPSILON_CAP,
    RelaxationChain,
    _plan,
    chain_log_likelihoods,
    iter_log_likelihoods,
    kernel_tensor,
    relax_kernel,
    relax_step,
    rr_distribution,
    start_chain,
)

from oracles import attack_guesses, prefix_log_likelihoods, sequence_likelihood

E = math.e


def chain(outputs, schedule, m=3, true_value=0):
    return RelaxationChain(true_value=true_value, m=m, schedule=tuple(schedule), outputs=tuple(outputs))


def guess(method, outputs, schedule, m=3):
    """One chain's guess: a one-row call of the batch scorer."""
    return int(attack_guesses_matrix([outputs], schedule, m)[method][0])


class TestPosterior:
    def test_single_output_uniform_prior(self):
        c = chain([1], [1.0], m=2, true_value=0)
        post = posterior(c, uniform_prior(2))
        assert post[1] == pytest.approx(E / (E + 1), abs=1e-12)

    def test_one_hot_prior_is_absorbing(self):
        c = chain([2, 1], [0.5, 1.0], m=3)
        post = posterior(c, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(post, [0.0, 1.0, 0.0], atol=1e-15)

    def test_normalization(self):
        c = chain([0, 2, 1], [0.3, 0.6, 1.1], m=4)
        post = posterior(c, uniform_prior(4))
        assert float(post.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(post >= 0.0)

    def test_depends_only_on_last_output(self):
        prior = np.array([0.5, 0.3, 0.2])
        for outputs in product(range(3), repeat=3):
            full = chain(outputs, [0.2, 0.8, 1.3], m=3)
            last_only = chain(outputs[-1:], [1.3], m=3)
            np.testing.assert_allclose(
                posterior(full, prior), posterior(last_only, prior), atol=1e-10
            )

    def test_bad_prior(self):
        c = chain([0], [1.0], m=2)
        with pytest.raises(ParameterError):
            posterior(c, np.array([0.7, 0.7]))
        with pytest.raises(ParameterError):
            posterior(c, np.array([1.5, -0.5]))
        for bad in ([math.nan, 0.5, 0.5], [math.inf, 0.0]):
            with pytest.raises(ParameterError, match="finite"):
                posterior(chain([0], [1.0], m=len(bad)), bad)

    def test_unlikely_chain_is_normalised_in_log_space(self):
        # 400 releases alternating between outputs 1 and 2: every value's
        # likelihood is near e**-3195, which underflows a double to zero
        schedule = tuple(0.5 + 0.001 * i for i in range(400))
        c = chain([1 + i % 2 for i in range(400)], schedule, m=5)
        loglik = c._log_likelihood
        assert np.all(np.exp(loglik) == 0.0)
        post = posterior(c, uniform_prior(5))
        assert np.all(np.isfinite(post)) and float(post.sum()) == pytest.approx(1.0, abs=1e-15)
        assert int(np.argmax(post)) == 2
        reference = np.exp(loglik - loglik.max())
        np.testing.assert_allclose(post, reference / reference.sum(), rtol=0, atol=1e-12)
        # the shift is taken on the prior's support alone
        np.testing.assert_array_equal(posterior(c, np.eye(5)[0]), np.eye(5)[0])

    def test_impossible_sequence_is_still_refused(self):
        # a repeated parameter repeats its output, so no value produces (0, 1)
        c = chain([0, 1], [1.0, 1.0], m=3)
        for prior in (uniform_prior(3), np.eye(3)[2]):
            with pytest.raises(ParameterError, match="zero probability"):
                posterior(c, prior)

    def test_online_posteriors_build_each_step_once(self):
        # each step's kernel is built once per process, however many chains
        # and posteriors reach it
        m, schedule = 5, tuple(round(0.1 * k, 1) for k in range(1, 11))
        rng = np.random.default_rng(12)
        for x in range(200):
            c = start_chain(x % m, m, schedule[0], rng)
            posterior(c, uniform_prior(m))
            for eps in schedule[1:]:
                c = relax_step(c, eps, rng)
                posterior(c, uniform_prior(m))
        steps = len(schedule)  # the first release is the step from ε = 0
        assert mechanism._relax_kernel.cache_info().misses == steps


def _online_pass(objects, schedule, m, seed):
    """Relax ``objects`` chains release by release with a posterior after each;
    returns every chain state, posterior and last output in release order."""
    rng = np.random.default_rng(seed)
    chains, posteriors = [], []
    for x in range(objects):
        c = start_chain(x % m, m, schedule[0], rng)
        for eps in (None, *schedule[1:]):
            if eps is not None:
                c = relax_step(c, eps, rng)
            chains.append(c)
            posteriors.append(posterior(c, uniform_prior(m)))
    outputs = np.array([c.last_output for c in chains], dtype=np.int64)
    return chains, np.array(posteriors), outputs


class TestOnlineRelease:
    """`start_chain`/`relax_step` carry each chain's log-likelihood forward."""

    SCHEDULE = tuple(round(0.1 * k, 1) for k in range(1, 11))
    # sha256 of the float64 posteriors and int64 outputs of `_online_pass(200,
    # SCHEDULE, 5, seed=12)`, recorded while `posterior` still re-scored
    # every chain from its first output.
    GOLDEN = (
        "31a8147bd7a1caf779e4654be299ac079001089bc28869aedb87671c954dfbf6",
        "d9464199991667f73b64ebb81a9c33192b5f569d06d18040baee0524ead05011",
    )
    # m -> schedule of the branches the m = 5 pass misses: no third value
    # (m = 2), identity steps, and steps at and above `EPSILON_CAP`; from 8
    # values on (m = 9 and 64), numpy sums a posterior's normaliser pairwise
    # rather than left to right
    BRANCH_CASES = {
        2: (0.1, 0.5, 0.5, 2.0, 2.0),
        3: (0.3, 0.3, 1.0, EPSILON_CAP, EPSILON_CAP + 10.0, 2 * EPSILON_CAP),
        9: (0.2, 0.7, 0.7, 1.5, 4.0, EPSILON_CAP + 5.0),
        64: (0.5, 1.0, 1.0, 3.0, EPSILON_CAP + 1.0),
    }
    # the same digests of `_online_pass(20, BRANCH_CASES[m], m, seed=m)`,
    # recorded while each release drew through the batch sampler on one-row
    # arrays (m = 2, 3) and while the prior rule reduced the prior with numpy
    # (m = 9, 64)
    BRANCH_GOLDEN = {
        2: (
            "c4a96727088f60c96a44a5808714812b5a048f5a97a8537be705c2516a43b9a6",
            "492cdc24b22e7ff8f66944308b412d756833f3d4b63f55e6ee0e4cc7b3655ebd",
        ),
        3: (
            "da8e3a1ada653807c3548a5b701f01f0ef88cc70a195b350006669c2ee852c05",
            "6e64e626f1cfd520529d58d8c6f0330fa7a1475aaeb5900721ac1a315b3b95d2",
        ),
        9: (
            "9116bd47ba9bd52571ff5cc8c06bd14cbb8cc0483e37281ce1c1a1fd2f9ec612",
            "381fd8f82d87ba0c0054f218e92f0ce2b63fc3930c548288b79ac1d11bfadd73",
        ),
        64: (
            "4facbebf12ee759dbdd4d8e76ddc88ada31d950a1b10a56e52090f609ec1254a",
            "c1ceb6818139a96d9c728644170cf09ab456dae7b27587407f6c91e39d898e5e",
        ),
    }

    @staticmethod
    def _digests(objects, schedule, m, seed):
        _, posteriors, outputs = _online_pass(objects, schedule, m, seed)
        return tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (posteriors, outputs))

    def test_online_pass_matches_golden_digests(self):
        assert self._digests(200, self.SCHEDULE, 5, seed=12) == self.GOLDEN

    @pytest.mark.parametrize("m", sorted(BRANCH_CASES))
    def test_online_pass_matches_golden_digests_on_other_branches(self, m):
        assert self._digests(20, self.BRANCH_CASES[m], m, seed=m) == self.BRANCH_GOLDEN[m]

    def test_carried_likelihood_equals_rescoring(self):
        chains = []
        for m, schedule in [(5, self.SCHEDULE), *self.BRANCH_CASES.items()]:
            chains += _online_pass(20, schedule, m, seed=m)[0]
        # a directly built chain that a repeated ε makes impossible (-inf for
        # every value), then extended online
        rng = np.random.default_rng(4)
        impossible = RelaxationChain(true_value=0, m=3, schedule=(1.0, 1.0), outputs=(0, 1))
        chains += [impossible, relax_step(impossible, 2.0, rng)]
        for c in chains:
            rescored = chain_log_likelihoods([c.outputs], c.schedule, c.m)[0]
            assert np.array_equal(c._log_likelihood, rescored)
        assert np.all(chains[-1]._log_likelihood == -np.inf)

    def test_work_per_release_does_not_grow_with_rounds(self, count_calls):
        calls = count_calls(("iter_log_likelihoods", "check_schedule", "check_next_epsilon"))
        objects = 20
        for rounds in (10, 40):
            schedule = tuple(0.1 * k for k in range(1, rounds + 1))
            steps = rounds - 1
            mechanism._relax_kernel.cache_clear()
            # a cold memo builds, and so checks, each of the rounds' distinct
            # steps once (the first from ε = 0); a warm one builds none
            for built in (rounds, 0):
                calls.update(iter_log_likelihoods=0, check_schedule=0, check_next_epsilon=0)
                _online_pass(objects, schedule, 4, seed=rounds)
                assert calls["iter_log_likelihoods"] == 0  # no release re-scores its chain
                assert calls["check_schedule"] == 0  # nor re-checks the chain's own ε
                # one per relax_step, and one per kernel built
                assert calls["check_next_epsilon"] == objects * steps + built

    def test_carried_likelihood_is_read_only(self):
        rng = np.random.default_rng(5)
        started = start_chain(1, 3, 0.5, rng)
        extended = relax_step(started, 1.0, rng)
        copies = (copy.copy(extended), copy.deepcopy(extended), pickle.loads(pickle.dumps(extended)))
        for c in (started, extended, chain([0, 2], [0.5, 1.0]), *copies):
            with pytest.raises(ValueError):
                c._log_likelihood[0] = 0.0
        for c in copies:
            assert c == extended
            assert np.array_equal(c._log_likelihood, extended._log_likelihood)

    def test_equality_hash_and_repr_ignore_the_carried_likelihood(self):
        rng = np.random.default_rng(6)
        online = relax_step(start_chain(1, 3, 0.5, rng), 1.0, rng)
        fields = (1, 3, (0.5, 1.0), online.outputs)
        direct = RelaxationChain(*fields)
        assert online == direct
        assert hash(online) == hash(direct) == hash(fields)
        assert repr(online) == repr(direct) == (
            f"RelaxationChain(true_value=1, m=3, schedule=(0.5, 1.0), outputs={online.outputs!r})"
        )
        other = (online.outputs[0], (online.outputs[1] + 1) % 3)
        assert online != RelaxationChain(1, 3, (0.5, 1.0), other)

    @pytest.mark.parametrize("not_a_chain", [None, (0, 3, (0.5,), (0,)), "chain"])
    def test_non_chain_is_rejected(self, not_a_chain):
        with pytest.raises(ParameterError, match="RelaxationChain"):
            relax_step(not_a_chain, 1.0, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="RelaxationChain"):
            posterior(not_a_chain, uniform_prior(3))


class TestAttackFunctions:
    def test_last_output(self):
        assert guess("last_output", [0, 1, 2], [0.1, 0.5, 1.0]) == 2
        assert guess("last_output", [1], [0.5]) == 1

    def test_mle_single_round_returns_output(self):
        for v in range(3):
            assert guess("mle", [v], [0.7]) == v

    def test_mle_two_round_example(self):
        assert guess("mle", [1, 0], [0.1, 0.5]) == 0

    def test_mle_agrees_with_likelihood_argmax(self):
        sched = (0.2, 0.9)
        for outputs in product(range(3), repeat=2):
            liks = [sequence_likelihood(outputs, sched, 3, x) for x in range(3)]
            assert guess("mle", outputs, sched) == int(np.argmax(liks))

    def test_mle_equals_last_output_exhaustively(self):
        for m in (2, 3, 4):
            for sched in [(0.1,), (0.1, 0.5), (0.1, 0.5, 2.0)]:
                for outputs in product(range(m), repeat=len(sched)):
                    assert guess("mle", outputs, sched, m) == guess("last_output", outputs, sched, m)

    def test_highest_frequency(self):
        assert guess("highest_frequency", [1, 1, 0], [0.1, 0.2, 0.3]) == 1
        assert guess("highest_frequency", [0, 1], [0.1, 0.2]) == 0  # tie -> smallest
        assert guess("highest_frequency", [2, 2, 2], [0.1, 0.2, 0.3]) == 2

    def test_weighted_highest_frequency(self):
        assert guess("weighted_highest_frequency", [0, 1], [0.1, 1.0], m=2) == 1
        assert guess("weighted_highest_frequency", [2, 2], [0.1, 0.5]) == 2
        # weights 2 + 3 = 5 for value 0 beat weight 1 for value 1
        assert guess("weighted_highest_frequency", [1, 0, 0], [1.0, 2.0, 3.0], m=2) == 0

    def test_matrix_helper_agrees_with_scalar_attacks(self):
        # each row of a batch is scored as if it were alone, and the MLE row
        # matches the oracle's likelihood argmax
        rng = np.random.default_rng(6)
        sched = (0.2, 0.5, 1.0, 1.5)
        chains = []
        for _ in range(60):
            c = start_chain(int(rng.integers(0, 4)), 4, sched[0], rng)
            for eps in sched[1:]:
                c = relax_step(c, eps, rng)
            chains.append(c)
        outputs = np.array([c.outputs for c in chains])
        guesses = attack_guesses_matrix(outputs, sched, 4)
        for i, c in enumerate(chains):
            for method in ATTACK_METHODS:
                assert guesses[method][i] == guess(method, c.outputs, sched, 4)
            liks = [sequence_likelihood(c.outputs, sched, 4, x) for x in range(4)]
            assert guesses["mle"][i] == int(np.argmax(liks))
            assert guesses["last_output"][i] == c.last_output


def _sampled_chains(m, schedule, count, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        c = start_chain(int(rng.integers(0, m)), m, schedule[0], rng)
        for eps in schedule[1:]:
            c = relax_step(c, eps, rng)
        rows.append(c.outputs)
    return np.array(rows)


def _every_sequence(m, rounds):
    """Every output sequence, the impossible ones (-inf likelihood) included."""
    return np.array(list(product(range(m), repeat=rounds)))


class TestRunningEngine:
    """The running scorer against a from-scratch evaluation of every prefix."""

    CASES = {
        "repeated-eps": (3, (0.3, 0.3, 0.8, 0.8, 1.5)),
        "at-and-above-cap": (3, (1.0, EPSILON_CAP, EPSILON_CAP + 10.0, 2 * EPSILON_CAP)),
        "binary": (2, (0.1, 0.5, 0.5, 2.0, 2.0)),
        "weighted-ties": (3, (0.5, 0.5, 1.0, 1.0)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_prefix_matches_oracle(self, case):
        m, schedule = self.CASES[case]
        outputs = np.concatenate(
            [_every_sequence(m, len(schedule)), _sampled_chains(m, schedule, 20, seed=len(case))]
        )
        running = zip(
            iter_log_likelihoods(outputs, schedule, m), iter_attack_guesses(outputs, schedule, m)
        )
        seen_infinite = False
        for r, (loglik, guesses) in enumerate(running):
            prefix, sched = outputs[:, : r + 1], schedule[: r + 1]
            expected = prefix_log_likelihoods(prefix, sched, m)
            finite = np.isfinite(expected)
            seen_infinite |= not finite.all()
            assert np.array_equal(np.isfinite(loglik), finite)
            assert np.all(loglik[~finite] == -np.inf)
            np.testing.assert_allclose(loglik[finite], expected[finite], rtol=0.0, atol=1e-12)
            oracle = attack_guesses(prefix, sched, m)
            for method in ATTACK_METHODS:
                assert np.array_equal(guesses[method], oracle[method]), (method, r)
        if case != "weighted-ties":
            assert seen_infinite  # the identity kernel was exercised

    def test_long_sampled_schedule_matches_oracle(self):
        schedule = tuple(0.1 * k for k in range(1, 13))
        outputs = _sampled_chains(5, schedule, 40, seed=11)
        for r, guesses in enumerate(iter_attack_guesses(outputs, schedule, 5)):
            oracle = attack_guesses(outputs[:, : r + 1], schedule[: r + 1], 5)
            for method in ATTACK_METHODS:
                assert np.array_equal(guesses[method], oracle[method]), (method, r)

    def test_weighted_ties_break_toward_smallest_index(self):
        outputs = np.array([[2, 2, 1], [0, 2, 1], [1, 1, 0]])
        # weights (value: total): row 0 {1: 1.0, 2: 1.0}, row 1 {0: .5, 1: 1.0, 2: .5},
        # row 2 {0: 1.0, 1: 1.0}
        guesses = list(iter_attack_guesses(outputs, (0.5, 0.5, 1.0), 3))[-1]
        assert guesses["weighted_highest_frequency"].tolist() == [1, 1, 0]
        assert guesses["highest_frequency"].tolist() == [2, 0, 1]
        # 0.1 + 0.2 rounds above 0.3: rows 0 and 2 have no tie at this schedule
        guesses = list(iter_attack_guesses(outputs, (0.1, 0.2, 0.3), 3))[-1]
        assert guesses["weighted_highest_frequency"].tolist() == [2, 1, 1]

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 9, 33, 63, 64])
    def test_highest_frequency_is_the_argmax_of_the_counts(self, m):
        # the packed count key against `np.argmax` of counts tallied afresh,
        # after every round of chains built to tie: the values in turn, up,
        # down and from the middle, so each round ties every value seen;
        # random orders of each value twice; two values in turn, tied at every
        # other round; and the largest value alone
        rounds = 2 * m
        rng = np.random.default_rng(m)
        up = np.arange(rounds) % m
        rows = [up, m - 1 - up, (up + m // 2) % m]
        rows += [rng.permutation(np.repeat(np.arange(m), 2)) for _ in range(6)]
        rows += [np.resize(rng.choice(m, size=2, replace=False), rounds) for _ in range(6)]
        rows.append(np.full(rounds, m - 1))
        outputs = np.array(rows)
        schedule = tuple(0.05 * (k + 1) for k in range(rounds))
        counts = np.zeros((len(rows), m), dtype=np.int64)
        for r, guesses in enumerate(iter_attack_guesses(outputs, schedule, m)):
            counts[np.arange(len(rows)), outputs[:, r]] += 1
            assert np.array_equal(guesses["highest_frequency"], np.argmax(counts, axis=1)), r

    def test_memoized_states_equal_a_freshly_built_loop(self):
        schedule = (0.2, 0.2, 0.7, 1.3, 60.0)
        outputs = _sampled_chains(4, schedule, 30, seed=3)
        dist = rr_distribution(schedule[0], 4)
        loglik = np.where(
            outputs[:, :1] == np.arange(4), np.log(dist.p_retain), np.log(dist.p_other)
        )
        fresh = [loglik.copy()]
        for i in range(1, len(schedule)):
            with np.errstate(divide="ignore"):
                log_tensor = np.log(kernel_tensor(relax_kernel(schedule[i - 1], schedule[i], 4)))
            loglik += log_tensor[:, outputs[:, i - 1], outputs[:, i]].T
            fresh.append(loglik.copy())
        mechanism._relax_kernel.cache_clear()  # sampling filled it
        for _ in range(2):  # a cold memo, then a warm one
            memoized = [g.copy() for g in iter_log_likelihoods(outputs, schedule, 4)]
            assert len(memoized) == len(fresh)
            assert all(np.array_equal(a, b) for a, b in zip(memoized, fresh))

    def test_yielded_rounds_stay_unchanged_as_iteration_moves_on(self):
        # the running state is updated in place; each yielded round is a copy
        schedule = (0.3, 0.3, 0.9, 2.0, 2.0, 5.0)
        outputs = _sampled_chains(3, schedule, 30, seed=9)
        rounds = iter_attack_guesses(outputs, schedule, 3)
        kept = [next(rounds)]
        snapshot = {method: guess.copy() for method, guess in kept[0].items()}
        for guess in kept[0].values():
            guess[:] = -1  # a caller writing into a round leaves the scoring alone
        kept += list(rounds)
        assert all(np.all(guess == -1) for guess in kept[0].values())
        kept[0] = snapshot
        for r, guesses in enumerate(kept):
            fresh = attack_guesses_matrix(outputs[:, : r + 1], schedule[: r + 1], 3)
            for method in ATTACK_METHODS:
                assert np.array_equal(guesses[method], fresh[method]), (method, r)

    def test_last_output_below_the_maximum_disagrees(self):
        # the recurrence stubbed with rows [0, -1e-9, -5], [0, -1e-13, -5] and
        # [-5, -1e-9, 0] at last outputs 1, 1, 2: within 1e-12 of the maximum
        # counts as the MLE, 1e-9 below it does not
        loglik = np.array([[0.0, -1e-9, -5.0], [0.0, -1e-13, -5.0], [-5.0, -1e-9, 0.0]])
        rounds = [(np.array([1, 1, 2]), loglik)]
        with mock.patch.object(inference, "_running_log_likelihoods", lambda *_: iter(rounds)):
            [(_, last_is_mle, guesses)] = _running_guesses(None, _plan((1.0,)), 3, np.arange(3))
        assert last_is_mle.tolist() == [False, True, True]
        assert guesses["mle"].tolist() == [0, 0, 2]  # the guess itself takes no slack

    def test_matrix_is_final_round(self):
        schedule = (0.4, 0.9, 0.9, 2.0)
        outputs = _sampled_chains(3, schedule, 25, seed=8)
        final = list(iter_attack_guesses(outputs, schedule, 3))[-1]
        whole = attack_guesses_matrix(outputs, schedule, 3)
        for method in ATTACK_METHODS:
            assert np.array_equal(final[method], whole[method])


class TestMinErrorRate:
    def test_binary_at_one(self):
        assert min_error_rate(1.0, 2) == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_vanishes_for_large_epsilon(self):
        assert min_error_rate(45.0, 2) < 1e-12

    def test_experiment_floor(self):
        assert min_error_rate(0.9843257572199207, 2) == pytest.approx(
            0.2720343026130907, abs=1e-12
        )

    def test_uniform_guess_limit(self):
        # epsilon near zero leaves nearly uniform responses
        assert min_error_rate(1e-9, 4) == pytest.approx(0.75, abs=1e-6)


class TestBalancedSubset:
    def test_equal_counts(self):
        truth = np.repeat([0, 1, 2], [10, 4, 7])
        subset = balanced_subset(truth, 3, np.random.default_rng(0))
        picked = truth[subset]
        assert np.all(np.bincount(picked, minlength=3) == 4)
        assert len(set(subset.tolist())) == len(subset)

    def test_missing_value_rejected(self):
        with pytest.raises(ParameterError, match="value 2 has no objects"):
            balanced_subset(np.array([0, 0, 1]), 3, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        truth = np.repeat([0, 1], [50, 30])
        a = balanced_subset(truth, 2, np.random.default_rng(12))
        b = balanced_subset(truth, 2, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)


class TestEvaluateAttacks:
    """Balanced-subset error rates of `attack_guesses_matrix`, scored as the runner does."""

    @staticmethod
    def _scored(eps, m, truth, rng, rounds=1):
        chains = []
        for x in truth:
            c = start_chain(int(x), m, eps, rng)
            for _ in range(rounds - 1):
                c = relax_step(c, eps, rng)
            chains.append(c)
        subset = balanced_subset(truth, m, rng)
        guesses = attack_guesses_matrix([c.outputs for c in chains], (eps,) * rounds, m)
        errors = {k: float(np.mean(g[subset] != truth[subset])) for k, g in guesses.items()}
        return guesses, errors, subset

    def test_noiseless_limit_has_zero_error(self):
        rng = np.random.default_rng(1)
        truth = np.repeat([0, 1], [5, 8])
        guesses, errors, subset = self._scored(50.0, 2, truth, rng)
        assert list(guesses) == list(ATTACK_METHODS)
        assert all(rate == 0.0 for rate in errors.values())
        assert len(subset) == 10
        assert all(len(g) == len(truth) for g in guesses.values())

    def test_error_rates_respect_floor_statistically(self):
        rng = np.random.default_rng(44)
        truth = np.repeat([0, 1], [300, 300])
        _, errors, _ = self._scored(1.0, 2, truth, rng)
        floor = min_error_rate(1.0, 2)
        slack = 3 * math.sqrt(floor * (1 - floor) / 600)
        for rate in errors.values():
            assert rate >= floor - slack
