import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dprelax import inference
from dprelax.estimation import MIN_EPSILON, estimate_poly
from dprelax.inference import ATTACK_METHODS, _running_guesses, balanced_subset, iter_attack_guesses
from dprelax.mechanism import (
    EPSILON_CAP,
    _plan,
    chain_log_likelihoods,
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
from dprelax.rappor import eps_noisy_sampling, rappor_params

from oracles import attack_guesses, prefix_log_likelihoods, rr_channel, sequence_likelihood

epsilons = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
domains = st.integers(min_value=2, max_value=12)


@settings(deadline=None)
@given(e1=epsilons, bump=st.floats(min_value=0.0, max_value=5.0), m=domains)
def test_kernel_rows_are_distributions(e1, bump, m):
    kernel = relax_kernel(e1, e1 + bump, m)
    tensor = kernel_tensor(kernel)
    assert tensor.min() >= 0.0
    assert np.abs(tensor.sum(axis=2) - 1.0).max() <= 1e-12


@settings(deadline=None)
@given(e1=epsilons, bump=st.floats(min_value=1e-6, max_value=5.0), m=domains)
def test_kernel_support_equalities(e1, bump, m):
    e2 = e1 + bump
    kernel = relax_kernel(e1, e2, m)
    lhs = np.exp(e1) * kernel.p_aa
    rhs = np.exp(e2) * kernel.p_bb
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
    if m > 2 and kernel.p_ba > 0:
        assert abs(kernel.p_ba - np.exp(e2) * kernel.p_bc) <= 1e-10 * kernel.p_ba


@settings(deadline=None)
@given(e1=epsilons, bump=st.floats(min_value=0.0, max_value=5.0), m=domains)
def test_kernel_preserves_response_marginal(e1, bump, m):
    e2 = e1 + bump
    kernel = relax_kernel(e1, e2, m)
    tensor = kernel_tensor(kernel)
    prev, nxt = rr_distribution(e1, m), rr_distribution(e2, m)
    for x in (0, m - 1):
        start = np.full(m, prev.p_other)
        start[x] = prev.p_retain
        target = np.full(m, nxt.p_other)
        target[x] = nxt.p_retain
        assert np.abs(start @ tensor[x] - target).max() <= 1e-12


@settings(deadline=None)
@given(
    eps=st.floats(min_value=0.05, max_value=6.0),
    m=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_decoder_inverts_exact_expectations(eps, m, data):
    weights = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m).filter(
            lambda w: sum(w) > 1e-3
        )
    )
    freq = np.asarray(weights) / sum(weights)
    counts = 1_000 * (rr_channel(eps, m) @ freq)
    assert np.abs(estimate_poly(counts, eps).estimate - freq).max() <= 1e-9


@settings(deadline=None)
@given(eps_alpha=epsilons, eps_beta=epsilons, k=st.integers(min_value=1, max_value=50))
def test_noisy_sampling_parameter_monotone(eps_alpha, eps_beta, k):
    params = rappor_params(eps_alpha, eps_beta)
    here, there = eps_noisy_sampling(k, params), eps_noisy_sampling(k + 1, params)
    assert there <= eps_alpha
    # monotone up to ulp noise in the saturated tail, strictly before it
    assert there >= here - 4 * math.ulp(max(here, 1.0))
    if eps_alpha - there > 1e-9:
        assert here < there


@settings(deadline=None)
@given(
    m=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_likelihood_ratio_collapses_to_last_output(m, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    raw = data.draw(st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=n, max_size=n))
    schedule = sorted(raw)
    outputs = data.draw(st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    liks = [sequence_likelihood(outputs, schedule, m, x) for x in range(m)]
    with np.errstate(divide="ignore"):
        expected = np.log(liks)
    np.testing.assert_allclose(
        chain_log_likelihoods([outputs], schedule, m)[0], expected, rtol=0.0, atol=1e-12
    )
    if min(liks) == 0.0:
        return  # sequence impossible under a repeated-parameter step
    dist = rr_distribution(schedule[-1], m)
    for x in range(m):
        for y in range(m):
            px = dist.p_retain if outputs[-1] == x else dist.p_other
            py = dist.p_retain if outputs[-1] == y else dist.p_other
            assert abs(liks[x] / liks[y] - px / py) <= 1e-9 * (px / py)


def _assert_log_close(actual, expected):
    # 1e-12 in log space, with -inf (an impossible sequence) at the same places
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(actual), finite)
    assert np.all(actual[~finite] == -np.inf)
    assert np.all(np.abs(actual[finite] - expected[finite]) <= 1e-12)


# ordinary parameters mixed with ones at and above the cap, where the kernel
# saturates, and at the estimators' smallest ε; repeats give identity steps
online_epsilons = st.one_of(
    epsilons,
    st.sampled_from(
        [MIN_EPSILON, 2 * MIN_EPSILON, 0.5, EPSILON_CAP, EPSILON_CAP + 10.0, 4 * EPSILON_CAP]
    ),
)


@settings(deadline=None)
@given(
    m=st.integers(min_value=2, max_value=4),
    raw=st.lists(online_epsilons, min_size=1, max_size=6),
    repeat=st.booleans(),
    true_value=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_online_likelihood_matches_oracle(m, raw, repeat, true_value, seed):
    schedule = sorted(raw + raw[:1] if repeat else raw)
    rng = np.random.default_rng(seed)
    chain = start_chain(true_value % m, m, schedule[0], rng)
    for r, eps in enumerate(schedule):
        if r:
            chain = relax_step(chain, eps, rng)
        expected = prefix_log_likelihoods([chain.outputs], chain.schedule, m)[0]
        _assert_log_close(chain._log_likelihood, expected)


def _tied_rows(schedule, a, b, c):
    """Two output rows that tie values ``a`` and ``b``.

    The first alternates a, b, so their counts tie after every even round.
    The second alternates a, b within each run of equal parameters (an odd
    run's last round goes to ``c``), so a and b gain the same parameters in
    the same order and their weighted counts tie bit for bit.
    """
    alternating = [(a, b)[r % 2] for r in range(len(schedule))]
    by_run, start = [], 0
    for r, eps in enumerate(schedule):
        if r + 1 == len(schedule) or schedule[r + 1] != eps:
            run = r + 1 - start
            by_run += [(a, b)[i % 2] for i in range(run - run % 2)] + [c] * (run % 2)
            start = r + 1
    return [alternating, by_run]


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(min_value=2, max_value=5),
    raw=st.lists(online_epsilons, min_size=1, max_size=5),
    data=st.data(),
)
def test_batch_scorer_matches_oracle(m, raw, data):
    # repeats of drawn parameters give identity steps and weighted-count ties
    schedule = sorted(raw + data.draw(st.lists(st.sampled_from(raw), max_size=8 - len(raw))))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    truth = rng.integers(0, m, size=6)
    column = sample_rr_batch(truth, rr_distribution(schedule[0], m), rng)
    sampled = [column]
    for eps_prev, eps_next in zip(schedule, schedule[1:]):
        column = relax_step_batch(relax_kernel(eps_prev, eps_next, m), truth, column, rng)
        sampled.append(column)
    rows = np.array(sampled).T.tolist()
    value = st.integers(min_value=0, max_value=m - 1)
    ties = st.tuples(value, value, value).filter(lambda t: t[0] != t[1])
    for a, b, c in data.draw(st.lists(ties, min_size=1, max_size=3)):
        rows += _tied_rows(schedule, a, b, c)
    outputs = np.array(rows)

    running = zip(
        iter_log_likelihoods(outputs, schedule, m), iter_attack_guesses(outputs, schedule, m)
    )
    for r, (loglik, guesses) in enumerate(running):
        prefix, sched = outputs[:, : r + 1], schedule[: r + 1]
        expected_loglik = prefix_log_likelihoods(prefix, sched, m)
        _assert_log_close(loglik, expected_loglik)
        oracle = attack_guesses(prefix, sched, m)
        assert list(guesses) == list(oracle)
        for method, expected in oracle.items():
            if method == "mle":
                _assert_mle_close(guesses[method], expected_loglik)
            else:
                assert np.array_equal(guesses[method], expected), (method, r)


def _assert_mle_close(guesses, expected_loglik):
    # MLE guesses against the oracle's log-likelihoods, to the same 1e-12 as
    # `_assert_log_close`.  Below about ε = 1e-16 every value's likelihood
    # ties to within an ulp, and the library's sum of logs and the oracle's
    # log of a product may break the tie differently: a maximum ahead of its
    # runner-up by more than 1e-12 must be found exactly, a closer one only
    # reached to within 1e-12.
    for guess, ll in zip(guesses, expected_loglik):
        runner_up, best = np.sort(ll)[-2:]
        if best == -np.inf or best - runner_up > 1e-12:  # all impossible: both take 0
            assert guess == np.argmax(ll), (guess, ll)
        else:
            assert ll[guess] >= best - 1e-12, (guess, ll)


@settings(deadline=None, max_examples=60)
@given(
    counts=st.integers(min_value=2, max_value=5).flatmap(
        lambda m: st.lists(st.integers(min_value=1, max_value=12), min_size=m, max_size=m)
    ).filter(lambda counts: len(set(counts)) > 1),
    raw=st.lists(online_epsilons, min_size=1, max_size=6),
    repeat=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_subset_scoring_equals_full_scoring_at_its_rows(counts, raw, repeat, seed):
    # the runner carries the count attacks on the balanced subset alone; its
    # guesses must be the whole population's, gathered at the subset's rows
    m = len(counts)
    schedule = tuple(sorted(raw + raw[:1] if repeat else raw))
    truth = np.repeat(np.arange(m), counts)
    rows = balanced_subset(truth, m, np.random.default_rng(seed))
    columns = list(iter_chain_rounds(truth, schedule, m, np.random.default_rng(seed + 1)))
    everyone = _running_guesses(iter(columns), _plan(schedule), m, np.arange(truth.size))
    subset = _running_guesses(iter(columns), _plan(schedule), m, rows)
    for r, (full, picked) in enumerate(zip(everyone, subset, strict=True)):
        (last_full, agree_full, guesses_full), (last, last_is_mle, guesses) = full, picked
        # the decoded column and the MLE agreement stay population-wide
        assert np.array_equal(last, columns[r]) and np.array_equal(last_full, columns[r])
        assert np.array_equal(last_is_mle, agree_full) and last_is_mle.shape == (truth.size,)
        assert list(guesses) == list(ATTACK_METHODS)
        for method in ATTACK_METHODS:
            assert np.array_equal(guesses[method], guesses_full[method][rows]), (method, r)


# log-likelihood levels that tie often, with both zeros (the restored own entry
# must keep its sign bit) and the smallest subnormal
loglik_levels = st.sampled_from([-math.inf, -2.5, -1.0, -0.0, 0.0, 5e-324])


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    m=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=10),
    n_rounds=st.integers(min_value=1, max_value=3),
)
def test_running_mle_is_the_argmax_and_keeps_the_likelihood(data, m, n, n_rounds):
    # `_running_guesses` fed drawn (last, log-likelihood) rounds in place of
    # the recurrence: exact ties, an all -inf row and a -inf own entry forced
    rounds = []
    for _ in range(n_rounds):
        last = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        row = st.lists(loglik_levels, min_size=m, max_size=m)
        loglik = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        loglik[data.draw(st.integers(0, n - 1))] = -math.inf
        lost = data.draw(st.integers(0, n - 1))
        loglik[lost, last[lost]] = -math.inf
        rounds.append((last, loglik))
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    kept = [loglik.tobytes() for _, loglik in rounds]
    schedule = tuple(float(r + 1) for r in range(n_rounds))
    with mock.patch.object(inference, "_running_log_likelihoods", lambda *_: iter(rounds)):
        running = list(_running_guesses(None, _plan(schedule), m, rows))
    others = [np.where(np.arange(m) == last[:, None], -math.inf, ll) for last, ll in rounds]
    for (last, loglik), before, rest, (_, last_is_mle, guesses) in zip(
        rounds, kept, others, running, strict=True
    ):
        assert loglik.tobytes() == before
        assert np.array_equal(guesses["mle"], np.argmax(loglik[rows], axis=1))
        own = loglik[np.arange(n), last]
        assert np.array_equal(last_is_mle, own >= rest.max(axis=1) - 1e-12)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    m=st.integers(min_value=2, max_value=5),
    raw=st.lists(st.floats(min_value=1e-300, max_value=1e-16), min_size=1, max_size=4),
    repeat=st.booleans(),
)
def test_running_mle_below_double_precision_is_the_argmax(data, m, raw, repeat):
    # below ε = 1e-16 every value's likelihood ties to an ulp, and arbitrary
    # outputs under a repeated ε contradict its identity step: all -inf rows
    schedule = tuple(sorted(raw + raw[:1] if repeat else raw))
    cells = st.lists(st.integers(0, m - 1), min_size=len(schedule), max_size=len(schedule))
    outputs = np.array(data.draw(st.lists(cells, min_size=1, max_size=12)))
    expected = [loglik.copy() for loglik in iter_log_likelihoods(outputs, schedule, m)]
    rows = np.arange(outputs.shape[0])
    running = _running_guesses(iter(outputs.T), _plan(schedule), m, rows)
    for loglik, (last, last_is_mle, guesses) in zip(expected, running, strict=True):
        assert np.array_equal(guesses["mle"], np.argmax(loglik, axis=1))
        rest = np.where(np.arange(m) == last[:, None], -math.inf, loglik)
        assert np.array_equal(last_is_mle, loglik[rows, last] >= rest.max(axis=1) - 1e-12)
