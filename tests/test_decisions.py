"""Indicators, joint probabilities, and the component-wise optimizer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarginal import (
    Ar1Params,
    DecisionConfig,
    GroupStructure,
    InvalidSpec,
    OptimizerConfig,
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


def _brute_force(indicators, groups, penalty):
    best_key, best_bits = None, None
    for assignment in itertools.product((False, True), repeat=indicators.num_hypotheses):
        bits = np.array(assignment, dtype=bool)
        value = penalized_objective(DecisionConfig(bits), indicators, groups, penalty)
        key = (value, -int(bits.sum()), tuple(-int(b) for b in bits))
        if best_key is None or key > best_key:
            best_key, best_bits = key, bits
    return DecisionConfig(best_bits), best_key[0]


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

    def test_two_hypotheses_joint_case_matches_enumeration(self):
        ind = _indicators_from_matrix([[1, 1], [1, 0], [0, 1], [1, 1]])
        groups = GroupStructure((frozenset({0, 1}), frozenset({0, 1})))
        partition = connected_components(groups)
        found = optimize_decisions(ind, groups, partition, 0.3)
        oracle, oracle_value = _brute_force(ind, groups, 0.3)
        assert found == oracle
        assert penalized_objective(found, ind, groups, 0.3) == pytest.approx(oracle_value)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ind, groups, penalty = _random_problem(rng)
            partition = connected_components(groups)
            found = optimize_decisions(ind, groups, partition, penalty, OptimizerConfig(seed=0))
            oracle, oracle_value = _brute_force(ind, groups, penalty)
            assert abs(penalized_objective(found, ind, groups, penalty) - oracle_value) <= 1e-12
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

    @pytest.mark.parametrize("exact_limit", [20, 1])
    def test_all_configurations_tie_at_zero_penalty_and_accept_all(self, exact_limit):
        # columns 0-3 are never alternative: every configuration of their component scores zero
        matrix = np.zeros((6, 5), dtype=bool)
        matrix[:, 4] = True
        ind = _indicators_from_matrix(matrix)
        groups = GroupStructure(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2, 3}),
             frozenset({3}), frozenset({4}))
        )
        partition = connected_components(groups)
        config = OptimizerConfig(exact_component_limit=exact_limit)
        found = optimize_decisions(ind, groups, partition, 0.0, config)
        assert found.bits.tolist() == [False, False, False, False, True]

    def test_annealing_agrees_with_exact_on_forced_fallback(self):
        rng = np.random.default_rng(5)
        agree = 0
        trials = 20
        for k in range(trials):
            ind, groups, penalty = _random_problem(rng, max_h=12)
            partition = connected_components(groups)
            exact = optimize_decisions(ind, groups, partition, penalty, OptimizerConfig(seed=k))
            annealed = optimize_decisions(
                ind, groups, partition, penalty,
                OptimizerConfig(exact_component_limit=1, seed=k),
            )
            exact_value = penalized_objective(exact, ind, groups, penalty)
            annealed_value = penalized_objective(annealed, ind, groups, penalty)
            assert annealed_value <= exact_value + 1e-12
            if abs(annealed_value - exact_value) <= 1e-12:
                agree += 1
        assert agree >= trials - 1

    def test_annealing_is_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        ind, groups, penalty = _random_problem(rng, max_h=10)
        partition = connected_components(groups)
        cfg = OptimizerConfig(exact_component_limit=1, seed=77)
        a = optimize_decisions(ind, groups, partition, penalty, cfg)
        b = optimize_decisions(ind, groups, partition, penalty, cfg)
        assert a == b

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
        assert penalized_objective(found, ind, structure, 0.4) == pytest.approx(oracle_value)

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
