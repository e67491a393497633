import gc
import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dprelax import audit, mechanism
from dprelax.audit import (
    BOUND_TOL,
    _chain_log_probs,
    _worst_log_ratios,
    audit_composition_ldp,
    audit_noisy_sampling_epsilon,
    audit_step_epsilon,
    chain_log_probs,
    run_standard_audits,
)
from dprelax.errors import EnumerationLimitError, ParameterError
from dprelax.mechanism import (
    EPSILON_CAP,
    RelaxKernel,
    _plan,
    _running_log_likelihoods,
    relax_kernel,
    rr_distribution,
)
from dprelax.rappor import eps_noisy_sampling, rappor_params

from oracles import (
    enumerate_chain_distribution,
    enumerated_output_marginal,
    kernel_conditional,
    rr_vector,
    sequence_likelihood,
    unbatched_chain_log_probs,
    worst_log_ratio,
)


@st.composite
def schedule_batches(draw):
    """(m, schedules): one to five schedules of one length, with repeated ε
    (identity steps) and ε above `EPSILON_CAP` drawn often."""
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    eps = st.one_of(
        st.sampled_from((0.1, 0.5, 2.0, EPSILON_CAP, EPSILON_CAP + 1.0, EPSILON_CAP + 10.0)),
        st.floats(min_value=1e-3, max_value=2 * EPSILON_CAP),
    )
    schedule = st.lists(eps, min_size=n, max_size=n).map(lambda s: tuple(sorted(s)))
    return m, draw(st.lists(schedule, min_size=1, max_size=5))


class TestEnumerateChainDistribution:
    def test_single_round_equals_response_distribution(self):
        dist = rr_distribution(0.8, 4)
        table = enumerate_chain_distribution([0.8], 4, 1)
        assert table[(1,)] == pytest.approx(dist.p_retain, abs=1e-15)
        for v in (0, 2, 3):
            assert table[(v,)] == pytest.approx(dist.p_other, abs=1e-15)

    def test_binary_two_rounds(self):
        table = enumerate_chain_distribution([1.0, 2.0], 2, 0)
        assert len(table) == 4
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_scalar_likelihood(self):
        # the enumeration and the oracle's per-sequence product are independent routes
        schedule = [0.1, 0.5, 1.0]
        for x in range(3):
            table = enumerate_chain_distribution(schedule, 3, x)
            for outputs, prob in table.items():
                expected = sequence_likelihood(outputs, schedule, 3, x)
                assert prob == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_total_mass(self):
        for schedule, m in [([0.1, 0.5, 1.0], 3), ([0.5] * 4, 2), ([0.2, 0.2, 1.5], 4)]:
            for x in range(m):
                table = enumerate_chain_distribution(schedule, m, x)
                assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_size_cap(self):
        with pytest.raises(EnumerationLimitError):
            chain_log_probs([0.1] * 7, 10)

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            chain_log_probs([1.0, 0.5], 2)
        with pytest.raises(ParameterError):
            chain_log_probs([], 2)

    @pytest.mark.parametrize("m", [mechanism.MAX_DOMAIN + 1, 1000])
    def test_one_round_above_the_table_limit_is_refused_by_m(self, m):
        # the first round is the step from ε = 0, a step table like any other
        limit = mechanism.MAX_DOMAIN
        with pytest.raises(ParameterError, match=f"^m must be at most {limit}, got {m}$"):
            chain_log_probs([0.5], m)
        assert chain_log_probs([0.5], limit).shape == (limit, limit)


class TestEnumeratedMarginal:
    def test_matches_target_distribution(self):
        for m, schedule in [(3, [0.1, 0.5, 1.0]), (2, [1.0, 2.0]), (5, [0.3, 0.3, 0.9])]:
            target = rr_distribution(schedule[-1], m)
            for x in range(m):
                marg = enumerated_output_marginal(schedule, m, x)
                expected = np.full(m, target.p_other)
                expected[x] = target.p_retain
                np.testing.assert_allclose(marg, expected, atol=1e-12)


class TestCompositionAudit:
    def test_single_round_attains_parameter(self):
        for eps, m in [(0.5, 2), (1.0, 5)]:
            report = audit_composition_ldp([eps], m)
            assert report.max_log_ratio == pytest.approx(eps, abs=1e-10)
            assert report.attained

    def test_binary_two_round(self):
        report = audit_composition_ldp([1.0, 2.0], 2)
        assert report.max_log_ratio == pytest.approx(2.0, abs=1e-10)
        assert report.attained

    def test_identity_step_changes_nothing(self):
        base = audit_composition_ldp([1.0, 2.0], 2)
        extended = audit_composition_ldp([1.0, 2.0, 2.0], 2)
        assert extended.max_log_ratio == pytest.approx(base.max_log_ratio, abs=1e-12)
        assert extended.attained

    def test_any_sequence_gives_the_same_report(self):
        # the schedule is read once: an iterator is not consumed before its
        # last entry is taken as the target
        want = audit_composition_ldp([0.1, 0.2], 2)
        for schedule in (iter([0.1, 0.2]), (eps for eps in (0.1, 0.2)), np.array([0.1, 0.2])):
            assert audit_composition_ldp(schedule, 2) == want
        assert want.epsilon_target == 0.2

    def test_exhaustive_small_scope(self):
        for m in (2, 3, 4):
            for n in range(1, 5):
                for schedule in combinations_with_replacement((0.1, 0.5, 1.0, 2.0), n):
                    report = audit_composition_ldp(schedule, m)
                    assert report.max_log_ratio <= schedule[-1] + 1e-10
                    assert report.attained


class TestBatchedEnumeration:
    @settings(deadline=None, max_examples=200)
    @given(case=schedule_batches())
    def test_rows_equal_one_schedule_enumeration(self, case):
        m, schedules = case
        batch = _chain_log_probs([_plan(schedule) for schedule in schedules], m)
        assert batch.shape == (len(schedules), m, m ** len(schedules[0]))
        worst = _worst_log_ratios(batch)
        for schedule, row, row_worst in zip(schedules, batch, worst):
            assert np.array_equal(row, chain_log_probs(schedule, m))
            assert np.array_equal(row, unbatched_chain_log_probs(schedule, m))
            assert row_worst == worst_log_ratio(row)


class TestWorstLogRatio:
    # rows are inputs, columns outcomes; a zero probability is a -inf log
    def test_column_impossible_for_every_input_is_ignored(self):
        with np.errstate(divide="ignore"):
            logp = np.log([[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]])
        assert _worst_log_ratios(logp[None])[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_mixed_support_is_unbounded(self):
        with np.errstate(divide="ignore"):
            logp = np.log([[0.5, 0.1, 0.4], [0.25, 0.0, 0.75]])
        assert _worst_log_ratios(logp[None])[0] == math.inf

    def test_each_array_of_a_stack_keeps_its_own_support(self):
        with np.errstate(divide="ignore"):
            logp = np.log(
                [
                    [[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]],  # supported and impossible columns
                    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # nothing possible: 0
                    [[0.5, 0.1, 0.4], [0.25, 0.0, 0.75]],  # mixed support: inf
                ]
            )
        worst = _worst_log_ratios(logp)
        assert worst.tolist() == [worst_log_ratio(a) for a in logp] == [math.log(2.0), 0.0, math.inf]

    @settings(deadline=None, max_examples=200)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shape=st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=2, max_value=4),
            st.integers(min_value=1, max_value=6),
        ),
        dead=st.floats(min_value=0.0, max_value=1.0),
        holes=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_equals_the_per_array_rule(self, seed, shape, dead, holes):
        # columns impossible for every row with probability ``dead``, single
        # impossible entries (mixed support) with probability ``holes``
        rng = np.random.default_rng(seed)
        logp = rng.normal(scale=3.0, size=shape)
        logp[(rng.random((shape[0], 1, shape[2])) < dead) | (rng.random(shape) < holes)] = -math.inf
        worst = _worst_log_ratios(logp)
        assert worst.shape == (shape[0],)
        assert worst.tolist() == [worst_log_ratio(a) for a in logp]


class TestStepEpsilon:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_brute_force_over_output_pairs(self, m):
        for eps_prev, eps_next in [
            (0.3, 2.0),
            (0.7, 0.7),
            (1.0, EPSILON_CAP + 10.0),
            (EPSILON_CAP + 1.0, EPSILON_CAP + 10.0),
        ]:
            kernel = relax_kernel(eps_prev, eps_next, m)
            worst = 0.0
            for o_prev, o_next in product(range(m), repeat=2):
                probs = [kernel_conditional(kernel, x, o_prev)[o_next] for x in range(m)]
                if max(probs) == 0.0:
                    continue
                assert min(probs) > 0.0  # the relaxation never has mixed support
                logs = [math.log(p) for p in probs]
                worst = max(worst, max(logs) - min(logs))
            got = audit_step_epsilon(eps_prev, eps_next, m)
            assert got == pytest.approx(worst, abs=1e-12), (eps_prev, eps_next)

    def test_binary_sum_of_parameters(self):
        assert audit_step_epsilon(1.0, 2.0, 2) == pytest.approx(3.0, abs=1e-10)

    def test_binary_grid(self):
        grid = [round(0.1 * i, 1) for i in range(1, 21)]
        for i, e1 in enumerate(grid):
            for e2 in grid[i:]:
                expected = 0.0 if e1 == e2 else e1 + e2
                assert audit_step_epsilon(e1, e2, 2) == pytest.approx(expected, abs=1e-10)

    def test_identity_step_is_free(self):
        assert audit_step_epsilon(0.7, 0.7, 5) == 0.0

    def test_exceeds_target_parameter(self):
        assert audit_step_epsilon(0.5, 0.6, 3) >= 0.6


class TestNoisySamplingAudit:
    def test_matches_closed_form(self):
        for eps_alpha in (0.5, 1.0, 2.0):
            for eps_beta in [round(0.1 * i, 1) for i in range(1, 11)]:
                params = rappor_params(eps_alpha, eps_beta)
                for K in range(1, 11):
                    enum = audit_noisy_sampling_epsilon(params, K)
                    closed = eps_noisy_sampling(K, params)
                    assert enum == pytest.approx(closed, abs=1e-10)

    def test_finite_where_the_mixtures_underflow(self):
        # at large K a mixture's terms underflow to 0, and above ε ≈ 37 the
        # noisy sample's flip probability is 0 in double precision: the
        # enumeration must still hold to the closed form
        grid = (1e-8, 0.01, 0.5, 1.0, 2.0, 10.0, 40.0, 60.0)
        for eps_alpha, eps_beta in product(grid, repeat=2):
            params = rappor_params(eps_alpha, eps_beta)
            for K in (1, 2, 10, 200, 2000, 100_000):
                enum = audit_noisy_sampling_epsilon(params, K)
                closed = eps_noisy_sampling(K, params)
                assert math.isfinite(enum)
                assert abs(enum - closed) <= 1e-9, (eps_alpha, eps_beta, K)


class TestFreshPlan:
    # a plan whose every step is from ε = 0 re-randomizes each release afresh:
    # the enumerator and the likelihood recurrence take it as they take a
    # relaxation plan, and it composes to the sum of its ε, not the last one
    schedule = (0.1, 0.5, 1.0)
    fresh = tuple((0.0, eps) for eps in schedule)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_enumerated_worst_case_is_the_sum(self, m):
        worst = _worst_log_ratios(_chain_log_probs([self.fresh, _plan(self.schedule)], m))
        assert abs(worst[0] - sum(self.schedule)) <= BOUND_TOL
        assert abs(worst[1] - self.schedule[-1]) <= BOUND_TOL

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_likelihood_is_the_sum_of_fresh_responses(self, m):
        outputs = np.array(list(product(range(m), repeat=len(self.schedule))))
        for _, loglik in _running_log_likelihoods(iter(outputs.T), self.fresh, m):
            pass
        for row, sequence in zip(loglik, outputs):
            for x in range(m):
                expected = sum(
                    math.log(rr_vector(eps, m, x)[o]) for eps, o in zip(self.schedule, sequence)
                )
                assert row[x] == pytest.approx(expected, abs=1e-12)


class TestSequenceRatioIdentity:
    def test_full_sequence_ratio_equals_last_output_ratio(self):
        for m in (2, 3, 4):
            for schedule in [(0.1, 0.5), (0.5, 0.5, 2.0), (0.1, 0.5, 1.0, 2.0)]:
                logp = chain_log_probs(schedule, m)
                valid = np.isfinite(logp).all(axis=0)
                last = np.arange(logp.shape[1]) % m
                dist = rr_distribution(schedule[-1], m)
                log_rr = np.full((m, m), math.log(dist.p_other))
                np.fill_diagonal(log_rr, math.log(dist.p_retain))
                for x, y in product(range(m), repeat=2):
                    got = logp[x, valid] - logp[y, valid]
                    expected = log_rr[x, last[valid]] - log_rr[y, last[valid]]
                    assert np.abs(got - expected).max() <= 1e-10


class TestSamplerAgainstEnumeration:
    def test_joint_sequence_frequencies_match_exact_distribution(self):
        # drive the vectorized sampler through a three-step schedule and
        # compare every sequence's empirical frequency with the enumeration
        from dprelax.mechanism import relax_kernel, relax_step_batch, rr_distribution, sample_rr_batch

        m, schedule, x, n = 3, [0.1, 0.5, 1.0], 1, 200_000
        rng = np.random.default_rng(2718)
        truth = np.full(n, x, dtype=np.int64)
        outputs = np.empty((n, 3), dtype=np.int64)
        outputs[:, 0] = sample_rr_batch(truth, rr_distribution(schedule[0], m), rng)
        for i in range(1, 3):
            kernel = relax_kernel(schedule[i - 1], schedule[i], m)
            outputs[:, i] = relax_step_batch(kernel, truth, outputs[:, i - 1], rng)
        codes = outputs[:, 0] * 9 + outputs[:, 1] * 3 + outputs[:, 2]
        freq = np.bincount(codes, minlength=27) / n
        exact = enumerate_chain_distribution(schedule, m, x)
        for seq, p in exact.items():
            code = seq[0] * 9 + seq[1] * 3 + seq[2]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq[code] - p) <= 4 * sigma + 1e-12, seq


class TestStandardAudits:
    def test_battery_passes(self):
        checks = run_standard_audits()
        names = {c.name for c in checks}
        assert names == {
            "composition-ldp-bound",
            "composition-ldp-tightness",
            "marginal-invariance",
            "single-step-epsilon-binary",
            "noisy-sampling-epsilon",
        }
        for check in checks:
            assert check.passed, f"{check.name}: worst={check.worst} bound={check.bound}"

    def test_second_battery_builds_no_step(self):
        # the step memo keeps a whole battery, so a second call only looks up
        first = run_standard_audits()
        info = mechanism._relax_kernel.cache_info()
        assert info.currsize == info.misses < info.maxsize
        assert run_standard_audits() == first
        assert mechanism._relax_kernel.cache_info().misses == info.misses

    def test_builds_each_distinct_response_once_per_batch(self, monkeypatch, count_calls):
        # a battery's randomized responses: one per distinct ε of each
        # marginal-invariance `_rr_matrices` batch, one per distinct first
        # step from ε = 0 the memo builds (4 levels and 20 grid values over
        # m = 2 to 4, then 20 grid values over m = 5 to 10), plus two per
        # `rappor_params` of the noisy-sampling grid; not one per case
        batches = []
        matrices = audit._rr_matrices

        def recorded(epsilons, m):
            batches.append((len(epsilons), len(set(epsilons))))
            return matrices(epsilons, m)

        monkeypatch.setattr(audit, "_rr_matrices", recorded)
        calls = count_calls(("rr_distribution",))
        run_standard_audits()
        cases, distinct = map(sum, zip(*batches))
        assert (cases, distinct) == (2070, 671)
        first_steps = 3 * 20 + 6 * 20
        assert calls["rr_distribution"] == distinct + first_steps + 2 * 3 * 10

    def test_reads_every_step_from_the_memo(self, count_calls):
        # the battery's grid is valid by construction: no step is re-validated
        # through `relax_kernel`
        calls = count_calls(("relax_kernel",))
        run_standard_audits()
        assert calls == {"relax_kernel": 0}

    def test_first_round_is_the_step_from_zero(self, monkeypatch):
        # `_rr_matrices` only serves the marginal-invariance check
        def no_matrices(epsilons, m):
            raise AssertionError("first round built from _rr_matrices")

        monkeypatch.setattr(audit, "_rr_matrices", no_matrices)
        for n in (1, 2, 3):
            schedules = [(0.1,) * n, (0.5,) * (n - 1) + (EPSILON_CAP + 1.0,)]
            plans = [_plan(schedule) for schedule in schedules]
            for schedule, row in zip(schedules, _chain_log_probs(plans, 3)):
                assert np.array_equal(row, unbatched_chain_log_probs(schedule, 3))

    def test_memoized_kernels_hold_no_table(self):
        run_standard_audits()
        kernels = [o for o in gc.get_objects() if type(o) is RelaxKernel]
        assert len(kernels) >= mechanism._relax_kernel.cache_info().currsize
        arrays = [v for k in kernels for v in vars(k).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.size for a in arrays) <= 5

    def test_enumerates_in_batches(self, monkeypatch):
        # one enumeration call per batch of a (domain size, length) group, not
        # one per case, and no batch's array above the cap
        shapes = []
        core = audit._chain_log_probs

        def counted(schedules, m):
            logp = core(schedules, m)
            shapes.append(logp.shape)
            return logp

        monkeypatch.setattr(audit, "_chain_log_probs", counted)
        run_standard_audits()
        grid_pairs = 20 * 21 // 2
        # (m, length, cases): the exhaustive composition scope over four
        # levels and the grid pairs, then the marginal pairs
        groups = [(m, n, math.comb(n + 3, n)) for m in (2, 3, 4) for n in range(1, 5)]
        groups += [(m, 2, grid_pairs) for m in (2, 3, 4)]
        groups += [(m, 2, grid_pairs + 20) for m in range(2, 11)]
        batches = sum(
            math.ceil(cases / max(1, audit._BATCH_DOUBLES // m ** (n + 1))) for m, n, cases in groups
        )
        assert len(shapes) == batches
        assert batches < 100 < sum(cases for _, _, cases in groups)
        assert sum(shape[0] for shape in shapes) == sum(cases for _, _, cases in groups)
        assert max(math.prod(shape) for shape in shapes) <= audit._BATCH_DOUBLES
