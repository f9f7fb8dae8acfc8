"""Indicators, joint probabilities, and the component-wise optimizer."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarginal import (
    Ar1Params,
    DecisionConfig,
    GroupStructure,
    InvalidSpec,
    PosteriorIndicators,
    PriorConfig,
    TestSpec,
    additive_rule,
    additive_rule_at_penalty,
    alternative_indicators,
    connected_components,
    generate_design,
    gibbs_sample,
    joint_correct_probs,
    marginal_probs,
    optimize_decisions,
    penalized_objective,
    simulate,
)
from nonmarginal import decisions
from nonmarginal.model_ar1 import PosteriorDraws


def _indicators_from_matrix(matrix):
    matrix = np.asarray(matrix, dtype=bool)
    h = matrix.shape[1]
    spec = (
        TestSpec(num_covariates=h - 2, include_rho_test=True)
        if h >= 3
        else TestSpec(num_covariates=h - 1, include_rho_test=False)
    )
    assert spec.num_hypotheses == h
    return PosteriorIndicators(matrix, spec)


def _component_hits(indicators, groups, members):
    """C(d) = sum_j d_j c_j(d) at every code of a sorted set of hypotheses that
    contains every group it touches, counted with masks in int64.  Bit
    ``k-1-j`` of a code holds the decision on ``members[j]``, so code order is
    lexicographic order."""
    ind = indicators.ind[:, members]
    k = len(members)
    bits = (np.arange(1 << k, dtype=np.int64)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    hits = np.zeros(1 << k, dtype=np.int64)
    for j, hyp in enumerate(members):
        others = np.searchsorted(members, groups.others(hyp))
        weights = 1 << np.arange(len(others), dtype=np.int64)
        counts = np.bincount(ind[ind[:, j]][:, others].astype(np.int64) @ weights,
                             minlength=1 << len(others))
        hits += bits[:, j] * counts[bits[:, others] @ weights]
    return hits


def _brute_force(indicators, groups, penalty):
    """Exact brute force over the whole family, independent of the solver: the
    largest objective as a Fraction, then the fewest rejections, then the
    first vector in lexicographic order."""
    h = indicators.num_hypotheses
    hits = _component_hits(indicators, groups, list(range(h))).tolist()
    beta = Fraction(penalty)
    best_key, best_code = None, None
    for code, c in enumerate(hits):
        key = (Fraction(c, indicators.num_draws) - beta * code.bit_count(), -code.bit_count())
        if best_key is None or key > best_key:
            best_key, best_code = key, code
    bits = [(best_code >> (h - 1 - j)) & 1 for j in range(h)]
    return DecisionConfig(np.array(bits, dtype=bool)), best_key[0]


def _exact_objective(config, indicators, groups, penalty):
    """The objective of one configuration as a Fraction, by masks."""
    correct = indicators.ind == config.bits
    hits = sum(int(correct[:, sorted(groups.groups[i])].all(axis=1).sum())
               for i in np.flatnonzero(config.bits))
    return Fraction(hits, indicators.num_draws) - Fraction(penalty) * config.rejection_count


def _mask_oracle(indicators, groups, config):
    """w_i(d) by masking draws directly, independent of the optimizer's tables."""
    ind = indicators.ind
    bits = config.bits
    out = np.empty(indicators.num_hypotheses)
    for i in range(indicators.num_hypotheses):
        others = groups.others(i)
        match = (ind[:, others] == bits[others]).all(axis=1)
        out[i] = (ind[:, i] & match).mean()
    return out


def _chain_problem(blocks, draws, seed):
    """Chain groups (i-1, i, i+1 inside each block) over random indicators."""
    rng = np.random.default_rng(seed)
    groups, start = [], 0
    for size in blocks:
        for i in range(start, start + size):
            groups.append(frozenset(j for j in (i - 1, i, i + 1) if start <= j < start + size))
        start += size
    ind = _indicators_from_matrix(rng.random((draws, start)) < rng.uniform(0.05, 0.95, start))
    structure = GroupStructure(tuple(groups))
    return ind, structure, connected_components(structure)


def _random_problem(rng, max_h=10):
    h = int(rng.integers(2, max_h + 1))
    s = int(rng.integers(8, 48))
    ind = _indicators_from_matrix(rng.random((s, h)) < rng.uniform(0.1, 0.9, h))
    groups = []
    for i in range(h):
        extra = rng.choice(h, size=int(rng.integers(0, min(4, h))), replace=False)
        groups.append(frozenset({i, *map(int, extra)}))
    return ind, GroupStructure(tuple(groups)), float(rng.uniform(0.0, 0.9))


class TestIndicators:
    spec = TestSpec(num_covariates=1, null_radius=0.1)

    def _draws(self, rows):
        return PosteriorDraws(np.array(rows, dtype=float), burn_in=0, thinning=1)

    def test_stationary_draw_is_not_flagged(self):
        draws = self._draws([[0.99, 1.0, 0.0, 0.0]])
        ind = alternative_indicators(draws, self.spec)
        assert not ind.ind[0, 0]

    def test_boundary_coefficient_stays_null(self):
        draws = self._draws([[0.0, 1.0, 0.1, 0.2]])
        ind = alternative_indicators(draws, self.spec)
        assert not ind.ind[0, 1]  # exactly at the boundary
        assert ind.ind[0, 2]

    def test_hand_written_draws(self):
        draws = self._draws(
            [
                [1.2, 1.0, 0.0, 0.5],
                [-1.0, 2.0, 0.2, -0.05],
                [0.5, 0.5, -0.11, 0.0],
                [0.0, 1.0, 0.1, 0.10001],
            ]
        )
        ind = alternative_indicators(draws, self.spec)
        expected = np.array(
            [
                [True, False, True],
                [True, True, False],
                [False, True, False],
                [False, False, True],
            ]
        )
        np.testing.assert_array_equal(ind.ind, expected)

    def test_dimension_check(self):
        draws = self._draws([[0.0, 1.0, 0.0]])
        with pytest.raises(InvalidSpec):
            alternative_indicators(draws, self.spec)


class TestMarginals:
    def test_all_true_column(self):
        ind = _indicators_from_matrix(np.ones((5, 3), dtype=bool))
        np.testing.assert_array_equal(marginal_probs(ind), 1.0)

    def test_alternating_column(self):
        ind = _indicators_from_matrix(np.array([[1, 1], [0, 1], [1, 1], [0, 1]], dtype=bool))
        assert marginal_probs(ind)[0] == 0.5

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((20, 4)) < 0.4
        ind = _indicators_from_matrix(matrix)
        shuffled = _indicators_from_matrix(matrix[rng.permutation(20)])
        np.testing.assert_array_equal(marginal_probs(ind), marginal_probs(shuffled))


class TestJointProbs:
    def test_singleton_groups_equal_marginals_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            matrix = rng.random((30, 5)) < rng.uniform(0.1, 0.9, 5)
            ind = _indicators_from_matrix(matrix)
            groups = GroupStructure.singletons(5)
            config = DecisionConfig(rng.random(5) < 0.5)
            np.testing.assert_array_equal(
                joint_correct_probs(ind, groups, config), marginal_probs(ind)
            )

    def test_hand_enumerated_pair(self):
        ind = _indicators_from_matrix([[1, 1], [1, 0], [0, 1], [1, 1]])
        groups = GroupStructure((frozenset({0, 1}), frozenset({1})))
        config = DecisionConfig([False, True])
        w = joint_correct_probs(ind, groups, config)
        # hypothesis 0 requires its own alternative and a correct rejection of 1:
        # rows (1,1) and (1,1) match -> 2/4
        assert w[0] == 0.5
        assert w[1] == marginal_probs(ind)[1]

    def test_decisions_outside_the_group_are_irrelevant(self):
        rng = np.random.default_rng(2)
        ind = _indicators_from_matrix(rng.random((40, 4)) < 0.5)
        groups = GroupStructure(
            (frozenset({0, 1}), frozenset({1}), frozenset({2}), frozenset({3}))
        )
        base = np.array([True, False, False, False])
        flipped = base.copy()
        flipped[3] = True  # hypothesis 3 is outside group 0
        w_base = joint_correct_probs(ind, groups, DecisionConfig(base))
        w_flip = joint_correct_probs(ind, groups, DecisionConfig(flipped))
        assert w_base[0] == w_flip[0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_mask_oracle_exactly(self, data):
        h = data.draw(st.integers(2, 9), label="h")
        s = data.draw(st.integers(1, 40), label="draws")
        matrix = data.draw(
            st.lists(st.lists(st.booleans(), min_size=h, max_size=h), min_size=s, max_size=s),
            label="indicators",
        )
        groups = GroupStructure(
            tuple(
                frozenset({i}) | data.draw(
                    st.frozensets(st.integers(0, h - 1), max_size=4), label=f"group {i}"
                )
                for i in range(h)
            )
        )
        config = DecisionConfig(data.draw(st.lists(st.booleans(), min_size=h, max_size=h)))
        ind = _indicators_from_matrix(matrix)
        w = joint_correct_probs(ind, groups, config)
        assert w.tobytes() == _mask_oracle(ind, groups, config).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_joint_bounded_by_marginal(self, seed):
        rng = np.random.default_rng(seed)
        ind, groups, _ = _random_problem(rng, max_h=8)
        config = DecisionConfig(rng.random(ind.num_hypotheses) < 0.5)
        w = joint_correct_probs(ind, groups, config)
        v = marginal_probs(ind)
        assert np.all(w <= v + 1e-15)
        assert np.all(w >= 0.0) and np.all(v <= 1.0)


class TestObjective:
    def test_empty_rejection_is_zero(self):
        ind = _indicators_from_matrix(np.ones((4, 3), dtype=bool))
        groups = GroupStructure.singletons(3)
        assert penalized_objective(DecisionConfig.all_accept(3), ind, groups, 0.5) == 0.0

    def test_singleton_arithmetic(self):
        ind = _indicators_from_matrix(
            np.column_stack([np.arange(10) < 9, np.arange(10) < 2])
        )
        groups = GroupStructure.singletons(2)
        assert penalized_objective(DecisionConfig([True, False]), ind, groups, 0.5) == pytest.approx(0.4)
        assert penalized_objective(DecisionConfig([True, True]), ind, groups, 0.5) == pytest.approx(0.1)

    def test_zero_penalty_certain_alternatives(self):
        ind = _indicators_from_matrix(np.ones((6, 4), dtype=bool))
        groups = GroupStructure.singletons(4)
        assert penalized_objective(DecisionConfig.all_reject(4), ind, groups, 0.0) == 4.0

    def test_penalty_range(self):
        ind = _indicators_from_matrix(np.ones((2, 2), dtype=bool))
        with pytest.raises(InvalidSpec):
            penalized_objective(DecisionConfig.all_accept(2), ind, GroupStructure.singletons(2), 1.0)


class TestAdditiveRule:
    def test_unit_cost_threshold_is_half(self):
        v = np.array([0.49, 0.5, 0.51])
        config = additive_rule(v, 1.0)
        assert config.bits.tolist() == [False, False, True]  # strict inequality

    def test_threshold_value_not_rejected(self):
        v = np.array([0.25])
        assert not additive_rule(v, 1.0 / 3.0).bits[0]  # c/(1+c) = 0.25 exactly

    def test_zero_penalty_limit_rejects_any_alternative_mass(self):
        v = np.array([0.0, 1e-4, 0.9])
        config = additive_rule_at_penalty(v, 0.0)
        assert config.bits.tolist() == [False, True, True]

    def test_cost_must_be_positive(self):
        with pytest.raises(InvalidSpec):
            additive_rule(np.array([0.5]), 0.0)


class TestOptimizer:
    def test_singleton_groups_reduce_to_additive_rule(self):
        rng = np.random.default_rng(3)
        ind = _indicators_from_matrix(rng.random((50, 6)) < rng.uniform(0.1, 0.9, 6))
        groups = GroupStructure.singletons(6)
        partition = connected_components(groups)
        found = optimize_decisions(ind, groups, partition, 0.35)
        expected = additive_rule_at_penalty(marginal_probs(ind), 0.35)
        assert found == expected

    def test_singleton_compares_the_exact_share_with_the_float_penalty(self):
        # 1200/4000 is exactly 3/10, above the double nearest 0.3; as floats the
        # share and the penalty are the same double, so the additive rule accepts
        matrix = np.zeros((4000, 3), dtype=bool)
        matrix[:1200, 1] = True
        ind = _indicators_from_matrix(matrix)
        groups = GroupStructure.singletons(3)
        found = optimize_decisions(ind, groups, connected_components(groups), 0.3)
        assert found.bits.tolist() == [False, True, False]
        assert not additive_rule_at_penalty(marginal_probs(ind), 0.3).bits[1]

    def test_two_hypotheses_joint_case_matches_enumeration(self):
        ind = _indicators_from_matrix([[1, 1], [1, 0], [0, 1], [1, 1]])
        groups = GroupStructure((frozenset({0, 1}), frozenset({0, 1})))
        partition = connected_components(groups)
        found = optimize_decisions(ind, groups, partition, 0.3)
        oracle, oracle_value = _brute_force(ind, groups, 0.3)
        assert found == oracle
        assert _exact_objective(found, ind, groups, 0.3) == oracle_value

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ind, groups, penalty = _random_problem(rng)
            partition = connected_components(groups)
            found = optimize_decisions(ind, groups, partition, penalty)
            oracle, oracle_value = _brute_force(ind, groups, penalty)
            assert _exact_objective(found, ind, groups, penalty) == oracle_value
            assert found == oracle

    def test_tie_breaks_prefer_fewer_rejections_then_lexicographic(self):
        # two identical hypotheses: rejecting either one alone scores the same
        ind = _indicators_from_matrix(np.array([[1, 1], [1, 1], [0, 0], [1, 1]]))
        groups = GroupStructure.singletons(2)
        partition = connected_components(groups)
        found = optimize_decisions(ind, groups, partition, 0.75)
        assert found.bits.tolist() == [False, False]  # 0.75 == both marginals: accept

        # now make rejection profitable; both single rejections tie, take the first
        joint = GroupStructure((frozenset({0, 1}), frozenset({0, 1})))
        matrix = np.array([[1, 0], [0, 1], [1, 0], [0, 1]])
        tied = _indicators_from_matrix(matrix)
        partition = connected_components(joint)
        best = optimize_decisions(tied, joint, partition, 0.1)
        oracle, _ = _brute_force(tied, joint, 0.1)
        assert best == oracle

    @pytest.mark.parametrize(
        "matrix, groups, penalty, expected",
        [
            # a float sum of the terms puts rejecting hypothesis 1 above its exact 0
            (
                [[0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [1, 0, 1, 0, 0], [1, 0, 0, 0, 1],
                 [0, 0, 0, 0, 1], [0, 1, 1, 0, 1], [0, 0, 0, 0, 1], [0, 1, 0, 0, 1],
                 [1, 0, 1, 0, 1], [1, 0, 1, 0, 1], [0, 0, 1, 0, 1], [0, 0, 1, 0, 1]],
                [[0, 3, 4], [1], [0, 2, 3, 4], [1, 3], [0, 1, 2, 4]],
                0.0,
                [0, 0, 1, 0, 1],
            ),
            # four rejections sum to exactly zero, the value of accepting everything
            (
                [[0, 0, 0, 0, 1, 0], [0, 1, 0, 1, 1, 1], [1, 0, 1, 1, 1, 1],
                 [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 0, 0]],
                [[0, 5], [1], [0, 2], [3, 4, 5], [0, 1, 2, 4], [0, 1, 4, 5]],
                0.25,
                [0, 0, 0, 0, 0, 0],
            ),
        ],
        ids=["zero_penalty", "quarter_penalty"],
    )
    def test_exact_ties_follow_the_tie_rule(self, matrix, groups, penalty, expected):
        ind = _indicators_from_matrix(matrix)
        structure = GroupStructure(tuple(frozenset(g) for g in groups))
        found = optimize_decisions(ind, structure, connected_components(structure), penalty)
        assert found.bits.astype(int).tolist() == expected
        assert found == _brute_force(ind, structure, penalty)[0]

    @pytest.mark.parametrize("num_draws", [20, 1])
    def test_all_configurations_tie_at_zero_penalty_and_accept_all(self, num_draws):
        # columns 0-3 are never alternative: every configuration of their component scores zero
        matrix = np.zeros((num_draws, 5), dtype=bool)
        matrix[:, 4] = True
        ind = _indicators_from_matrix(matrix)
        groups = GroupStructure(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2, 3}),
             frozenset({3}), frozenset({4}))
        )
        partition = connected_components(groups)
        found = optimize_decisions(ind, groups, partition, 0.0)
        assert found.bits.tolist() == [False, False, False, False, True]

    def test_decomposition_matches_enumeration_at_fourteen_hypotheses(self):
        rng = np.random.default_rng(14)
        h = 14
        ind = _indicators_from_matrix(rng.random((24, h)) < rng.uniform(0.1, 0.9, h))
        groups = []
        for i in range(h):
            extra = rng.choice(h, size=int(rng.integers(0, 3)), replace=False)
            groups.append(frozenset({i, *map(int, extra)}))
        structure = GroupStructure(tuple(groups))
        partition = connected_components(structure)
        found = optimize_decisions(ind, structure, partition, 0.4)
        oracle, oracle_value = _brute_force(ind, structure, 0.4)
        assert found == oracle
        assert _exact_objective(found, ind, structure, 0.4) == oracle_value

    def test_rejection_count_monotone_in_penalty(self):
        rng = np.random.default_rng(7)
        grid = [0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9]
        for _ in range(50):
            ind, groups, _ = _random_problem(rng, max_h=8)
            partition = connected_components(groups)
            counts = [
                optimize_decisions(ind, groups, partition, b).rejection_count for b in grid
            ]
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_ladder_over_the_table_budget_is_rejected(self):
        # chains plus rungs {i, 47 - i}: in index order the frontier reaches 25 decisions
        k = 48
        groups = GroupStructure(tuple(
            frozenset({j for j in (i - 1, i, i + 1) if 0 <= j < k} | {k - 1 - i}) for i in range(k)
        ))
        ind = _indicators_from_matrix(np.random.default_rng(48).random((100, k)) < 0.5)
        with pytest.raises(InvalidSpec, match="48-member component starting at hypothesis 0"):
            optimize_decisions(ind, groups, connected_components(groups), 0.5)

    def test_seventy_member_chain_decides_twenty_penalties_at_its_profile_maximum(self):
        ind, groups, partition = _chain_problem((70,), 4000, seed=70)
        penalties = np.linspace(0.0, 0.95, 20).tolist()
        start = time.perf_counter()
        found = [optimize_decisions(ind, groups, partition, b) for b in penalties]
        assert time.perf_counter() - start < 1.0
        best = decisions._tables(ind, groups).profile(partition.components[0]).best
        for penalty, config in zip(penalties, found):
            attainable = max(Fraction(c, 4000) - Fraction(penalty) * r for r, c in enumerate(best))
            assert _exact_objective(config, ind, groups, penalty) == attainable


class TestTermTables:
    """The solver against exact brute force, and the reuse of its tables."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_values_and_decisions_match_the_reference_exactly(self, data):
        h = data.draw(st.integers(2, 12), label="h")
        s = data.draw(st.integers(1, 40), label="draws")
        matrix = data.draw(
            st.lists(st.lists(st.booleans(), min_size=h, max_size=h), min_size=s, max_size=s),
            label="indicators",
        )
        groups = GroupStructure(
            tuple(
                frozenset({i}) | data.draw(
                    st.frozensets(st.integers(0, h - 1), max_size=4), label=f"group {i}"
                )
                for i in range(h)
            )
        )
        penalty = data.draw(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 0.95)), label="penalty"
        )
        ind = _indicators_from_matrix(matrix)
        found = optimize_decisions(ind, groups, connected_components(groups), penalty)
        oracle, oracle_value = _brute_force(ind, groups, penalty)
        assert found == oracle
        assert _exact_objective(found, ind, groups, penalty) == oracle_value

    @pytest.mark.parametrize("penalty", [0.0, 0.1, 0.5])
    def test_eighteen_member_chain_enumerates_like_the_reference(self, penalty):
        ind, groups, partition = _chain_problem((18,), 4000, seed=18)
        comp = list(partition.components[0])
        hits = _component_hits(ind, groups, comp)
        popcount = np.bitwise_count(np.arange(1 << 18, dtype=np.int64))
        best = [int(hits[popcount == r].max()) for r in range(19)]
        assert decisions._tables(ind, groups).profile(partition.components[0]).best == best
        scores = [Fraction(c, 4000) - Fraction(penalty) * r for r, c in enumerate(best)]
        r = scores.index(max(scores))
        code = int(np.flatnonzero((popcount == r) & (hits == best[r]))[0])
        found = optimize_decisions(ind, groups, partition, penalty)
        assert found.bits.tolist() == [bool((code >> (17 - j)) & 1) for j in range(18)]

    def test_tables_are_built_once_per_group_structure(self):
        ind, groups, partition = _chain_problem((5, 3), 200, seed=1)
        first = decisions._tables(ind, groups)
        optimize_decisions(ind, groups, partition, 0.3)
        profiles = dict(first.profiles)
        assert set(profiles) == set(partition.components)
        optimize_decisions(ind, groups, partition, 0.6)
        joint_correct_probs(ind, groups, DecisionConfig.all_reject(8))
        assert decisions._tables(ind, groups) is first
        assert all(first.profiles[c] is p for c, p in profiles.items())
        assert decisions._tables(ind, GroupStructure.singletons(8)) is not first


class TestAllEncompassingGroups:
    def test_joint_probability_concentrates_at_scale(self):
        # every group spans all hypotheses: the winning configuration's joint
        # correctness probability approaches one once the posterior collapses
        n, m = 2000, 3
        design = generate_design(n, m, seed=8)
        spec = TestSpec(num_covariates=m)
        params = Ar1Params(0.5, 1.0, np.array([0.0, 1.5, 0.0, -1.5]))
        data = simulate(params, design, n, seed=9)
        draws = gibbs_sample(data, PriorConfig(), num_draws=1200, burn_in=300, seed=10)
        ind = alternative_indicators(draws, spec)
        h = spec.num_hypotheses
        groups = GroupStructure(tuple(frozenset(range(h)) for _ in range(h)))
        partition = connected_components(groups)
        config = optimize_decisions(ind, groups, partition, 0.5)
        w = joint_correct_probs(ind, groups, config)
        assert np.all(w[config.bits] >= 0.95)
