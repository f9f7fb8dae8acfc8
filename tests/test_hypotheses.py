"""Hypothesis family, truth, groups, and components."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonmarginal import (
    Ar1Params,
    CovariateDesign,
    GroupStructure,
    InvalidSpec,
    PosteriorDraws,
    TestSpec,
    TruthAssignment,
    alternative_indicators,
    build_groups,
    connected_components,
    feasible_alpha,
    generate_design,
    read_group_file,
    truth_from_params,
    truth_proportions,
    write_group_file,
    write_truth_file,
)


class TestTestSpec:
    def test_hypothesis_count_and_layout(self):
        spec = TestSpec(num_covariates=3, include_rho_test=True)
        assert spec.num_hypotheses == 5
        assert spec.coefficient_hypothesis(0) == 1
        assert spec.coefficient_of_hypothesis(0) is None
        assert spec.coefficient_of_hypothesis(4) == 3

        bare = TestSpec(num_covariates=3, include_rho_test=False)
        assert bare.num_hypotheses == 4
        assert bare.coefficient_hypothesis(2) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.booleans())
    def test_alternatives_are_the_absolute_value_comparisons(self, data, with_rho):
        spec = TestSpec(num_covariates=3, null_radius=0.25, include_rho_test=with_rho)
        entries = st.one_of(st.sampled_from([0.25, -0.25, 0.0, -0.0]), st.floats())
        rows = data.draw(st.integers(1, 6))
        beta = np.array(data.draw(st.lists(entries, min_size=4 * rows, max_size=4 * rows)))
        beta = beta.reshape(rows, 4)
        rho = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)))
        expected = np.abs(beta) > 0.25
        if with_rho:
            expected = np.column_stack((np.abs(rho) >= spec.rho_null_bound, expected))
        assert np.array_equal(spec.alternatives(rho, beta), expected)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            TestSpec(num_covariates=0)
        with pytest.raises(InvalidSpec):
            TestSpec(num_covariates=2, null_radius=0.0)
        with pytest.raises(InvalidSpec):
            TestSpec(num_covariates=2, rho_null_bound=-1.0)


class TestTruthFromParams:
    spec = TestSpec(num_covariates=2, null_radius=0.1)

    def test_single_active_coefficient(self):
        params = Ar1Params(rho=0.5, sigma2=1.0, beta=np.array([0.0, 1.5, 0.05]))
        truth = truth_from_params(params, self.spec)
        assert truth.alt_true.tolist() == [False, False, True, False]
        assert truth.true_config.bits.tolist() == [False, False, True, False]

    def test_explosive_rho_only(self):
        params = Ar1Params(rho=1.2, sigma2=1.0, beta=np.zeros(3))
        truth = truth_from_params(params, self.spec)
        assert truth.alt_true.tolist() == [True, False, False, False]

    def test_boundary_belongs_to_null(self):
        params = Ar1Params(rho=0.5, sigma2=1.0, beta=np.array([0.0, 0.1, 0.0]))
        truth = truth_from_params(params, self.spec)
        assert not truth.alt_true[2]

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec):
            truth_from_params(Ar1Params(0.0, 1.0, np.zeros(5)), self.spec)

    def test_stable_under_small_perturbations(self):
        base = np.array([0.0, 1.5, 0.05])
        reference = truth_from_params(Ar1Params(0.5, 1.0, base), self.spec)
        rng = np.random.default_rng(0)
        for _ in range(50):
            jitter = rng.uniform(-0.04, 0.04, size=3)  # smaller than every boundary gap
            perturbed = truth_from_params(Ar1Params(0.5, 1.0, base + jitter), self.spec)
            assert perturbed == reference

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_indicators_of_a_one_draw_posterior(self, data):
        spec = TestSpec(
            num_covariates=data.draw(st.integers(1, 4)),
            include_rho_test=data.draw(st.booleans()),
            null_radius=data.draw(st.sampled_from([0.1, 0.25, 1.0])),
            rho_null_bound=data.draw(st.sampled_from([0.5, 1.0])),
        )

        def values(bound):  # the boundary itself, in both signs, and around it
            return st.one_of(st.sampled_from([-bound, bound, 0.0]),
                             st.floats(-3.0 * bound, 3.0 * bound))

        rho = data.draw(values(spec.rho_null_bound))
        beta = data.draw(st.lists(values(spec.null_radius), min_size=spec.num_covariates + 1,
                                  max_size=spec.num_covariates + 1))
        truth = truth_from_params(Ar1Params(rho, 1.0, np.array(beta)), spec)
        draws = PosteriorDraws(np.array([[rho, 1.0, *beta]]))
        (row,) = alternative_indicators(draws, spec).ind
        expected = [abs(rho) >= spec.rho_null_bound] * spec.include_rho_test
        expected += [abs(b) > spec.null_radius for b in beta]
        assert truth.alt_true.tolist() == row.tolist() == expected


class TestBuildGroups:
    def test_threshold_one_gives_singletons(self):
        design = generate_design(200, 4, seed=1)
        spec = TestSpec(num_covariates=4)
        groups = build_groups(design, spec, threshold=1.0)
        assert all(len(g) == 1 for g in groups.groups)

    def test_threshold_zero_gives_full_groups_capped(self):
        design = generate_design(200, 4, seed=1)
        spec = TestSpec(num_covariates=4)
        groups = build_groups(design, spec, threshold=0.0, max_group_size=3)
        assert len(groups.groups[0]) == 1  # autoregression test stays alone
        for i in range(1, spec.num_hypotheses):
            assert len(groups.groups[i]) == 3

        uncapped = build_groups(design, spec, threshold=0.0, max_group_size=10)
        for i in range(1, spec.num_hypotheses):
            assert len(uncapped.groups[i]) == 5  # every covariate, intercept included

    def test_duplicated_column_is_grouped(self):
        design = generate_design(150, 3, seed=2)
        z = np.array(design.z)
        z[:, 2] = z[:, 1]  # duplicate covariates 1 and 2: correlation exactly 1
        spec = TestSpec(num_covariates=3)
        groups = build_groups(CovariateDesign(z, centered=True), spec, threshold=0.9)
        h1, h2 = spec.coefficient_hypothesis(1), spec.coefficient_hypothesis(2)
        assert h2 in groups.groups[h1]
        assert h1 in groups.groups[h2]

    def test_invalid_threshold(self):
        design = generate_design(50, 2, seed=0)
        spec = TestSpec(num_covariates=2)
        with pytest.raises(InvalidSpec):
            build_groups(design, spec, threshold=1.5)

    def test_groups_contain_self(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            m = int(rng.integers(1, 6))
            design = generate_design(60, m, seed=trial)
            spec = TestSpec(num_covariates=m)
            groups = build_groups(design, spec, threshold=float(rng.uniform(0, 1)))
            for i, g in enumerate(groups.groups):
                assert i in g


def _components_oracle(groups):
    """Components by brute-force transitive closure of the symmetrized group graph."""
    h = len(groups.groups)
    reach = np.eye(h, dtype=bool)
    for i, g in enumerate(groups.groups):
        for j in g:
            reach[i, j] = reach[j, i] = True
    for k in range(h):  # Warshall: allow paths through hypothesis k
        reach |= reach[:, [k]] & reach[[k], :]
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


@st.composite
def _group_structures(draw):
    """Each hypothesis plus up to three arbitrary members, so membership is often one-sided."""
    h = draw(st.integers(1, 12))
    extra = st.lists(st.integers(0, h - 1), max_size=3)
    return GroupStructure(tuple(frozenset({i, *draw(extra)}) for i in range(h)))


class TestConnectedComponents:
    def test_all_singletons(self):
        partition = connected_components(GroupStructure.singletons(4))
        assert partition.components == ((0,), (1,), (2,), (3,))

    def test_one_shared_edge(self):
        groups = GroupStructure((frozenset({0, 1}), frozenset({1}), frozenset({2})))
        partition = connected_components(groups)
        assert partition.components == ((0, 1), (2,))
        assert partition.component_of.tolist() == [0, 0, 1]

    def test_chain_collapses_to_one_component(self):
        k = 9
        groups = GroupStructure(
            tuple(frozenset({i, min(i + 1, k - 1)}) for i in range(k))
        )
        partition = connected_components(groups)
        assert partition.components == (tuple(range(k)),)
        assert _components_oracle(groups) == [tuple(range(k))]

    @settings(max_examples=200, deadline=None)
    @given(_group_structures())
    @example(GroupStructure.singletons(1))
    @example(GroupStructure.singletons(7))
    @example(GroupStructure((frozenset({0, 3}), frozenset({1}), frozenset({2, 1}), frozenset({3}))))
    def test_matches_transitive_closure_on_random_structures(self, structure):
        partition = connected_components(structure)
        assert list(partition.components) == _components_oracle(structure)
        for cid, members in enumerate(partition.components):
            assert partition.component_of[list(members)].tolist() == [cid] * len(members)
        assert connected_components(structure).components == partition.components

    def test_requires_self_membership(self):
        with pytest.raises(InvalidSpec):
            GroupStructure((frozenset({1}), frozenset({1})))
        with pytest.raises(InvalidSpec):
            GroupStructure((frozenset({0, 5}),))


def _chain_rows(blocks):
    """The chain group file of the grouped benchmarks: rho alone, then each
    coefficient with its neighbours inside its block."""
    rows, start = [[0]], 0
    for size in blocks:
        stop = start + size
        for i in range(start, stop):
            rows.append([1 + j for j in (i - 1, i, i + 1) if start <= j < stop])
        start = stop
    return rows


class TestGroupTableBudget:
    def test_one_shared_24_member_group_is_rejected(self, tmp_path):
        path = tmp_path / "groups.txt"
        path.write_text("".join(" ".join(map(str, range(24))) + "\n" for _ in range(24)))
        with pytest.raises(InvalidSpec, match="24 members"):
            read_group_file(path, 24)

    def test_wide_correlation_groups_are_rejected(self):
        design = generate_design(60, 30, seed=3)
        spec = TestSpec(num_covariates=30)
        with pytest.raises(InvalidSpec, match="budget"):
            build_groups(design, spec, threshold=0.0, max_group_size=24)

    @pytest.mark.parametrize("blocks", [(18, 16, 7), (24, 17)])
    def test_benchmark_chain_groups_fit(self, tmp_path, blocks):
        path = tmp_path / "groups.txt"
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in _chain_rows(blocks)))
        assert read_group_file(path, 42).num_hypotheses == 42


class TestTruthProportions:
    def test_half_and_half(self):
        groups = GroupStructure.singletons(4)
        truth = TruthAssignment(np.array([False, True, True, False]))
        shares = truth_proportions(groups, truth)
        assert shares.alt_share == 0.5
        assert shares.signal_group_share == 0.5
        assert shares.null_share == 0.5
        assert feasible_alpha(shares.alt_share, shares.signal_group_share) == (0.0, 0.5)

    def test_all_nulls_true(self):
        groups = GroupStructure.singletons(3)
        truth = TruthAssignment(np.zeros(3, dtype=bool))
        shares = truth_proportions(groups, truth)
        assert (shares.alt_share, shares.signal_group_share, shares.null_share) == (0, 0, 1)
        with pytest.raises(InvalidSpec):  # without an alternative no target is constrained
            feasible_alpha(shares.alt_share, shares.signal_group_share)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=12), st.randoms(use_true_random=False))
    def test_ceiling_stays_in_unit_interval(self, alts, rnd):
        h = len(alts)
        groups = []
        for i in range(h):
            members = {i, rnd.randrange(h)}
            groups.append(frozenset(members))
        shares = truth_proportions(
            GroupStructure(tuple(groups)), TruthAssignment(np.array(alts, dtype=bool))
        )
        p, q = shares.alt_share, shares.signal_group_share
        assert p <= q  # every alternative's own group touches it
        if 0.0 < p and q < 1.0:
            assert 0.0 < feasible_alpha(p, q)[1] <= 1.0
        else:
            with pytest.raises(InvalidSpec):
                feasible_alpha(p, q)


class TestFiles:
    def test_group_file_round_trip(self, tmp_path):
        groups = GroupStructure((frozenset({0, 2}), frozenset({1}), frozenset({0, 2})))
        path = tmp_path / "groups.txt"
        write_group_file(path, groups)
        assert read_group_file(path, 3).groups == groups.groups
        with pytest.raises(InvalidSpec):
            read_group_file(path, 4)

    @pytest.mark.parametrize("row", ["1 x", "1 2.5"])
    def test_malformed_group_file_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "groups.txt"
        path.write_text(f"0\n\n{row}\n2\n")
        with pytest.raises(InvalidSpec, match=rf"{path}, line 3"):
            read_group_file(path, 3)

    def test_truth_file_round_trip(self, tmp_path):
        truth = TruthAssignment(np.array([True, False, True]))
        path = tmp_path / "truth.txt"
        write_truth_file(path, truth)
        assert path.read_text() == "101\n"
        assert TruthAssignment([bit == "1" for bit in path.read_text().strip()]) == truth
