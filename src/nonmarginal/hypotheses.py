"""Hypothesis family, truth assignments, dependency groups, and decision vectors.

The testing problem has one hypothesis per regression coefficient (intercept
included) plus, optionally, a leading stationarity test on the autoregressive
coefficient.  Hypothesis 0 is the autoregression test when enabled; coefficient
``i`` maps to hypothesis ``i + 1`` in that case and to hypothesis ``i``
otherwise.  This fixed ordering is part of the on-disk file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _graph_components

from .exceptions import InvalidSpec

if TYPE_CHECKING:  # pragma: no cover
    from .model_ar1 import Ar1Params, CovariateDesign

# The joint-probability tables of a group structure hold sum_i 2^(|g_i| - 1)
# entries, one per decision pattern on the rest of each group; at 8 bytes an
# entry this caps them at 32 MiB.
GROUP_TABLE_BUDGET = 1 << 22


def _frozen_bool_array(values) -> np.ndarray:
    arr = np.array(values, dtype=bool)
    if arr.ndim != 1:
        raise InvalidSpec(f"expected a 1-d bit vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TestSpec:
    """Layout and null regions of the hypothesis family.

    ``num_covariates`` counts the covariates beyond the intercept, so there are
    ``num_covariates + 1`` coefficient hypotheses.  ``null_radius`` is the
    half-width of the null neighborhood of zero for every coefficient; the
    coefficient null is closed (``|b| == null_radius`` belongs to the null) while
    the autoregression null ``|rho| < rho_null_bound`` is open at the boundary.
    """

    __test__ = False  # not a pytest class, despite the name

    num_covariates: int
    include_rho_test: bool = True
    null_radius: float = 0.1
    rho_null_bound: float = 1.0

    def __post_init__(self):
        if self.num_covariates < 1:
            raise InvalidSpec("num_covariates must be a positive integer")
        if not self.null_radius > 0:
            raise InvalidSpec("null_radius must be positive")
        if not self.rho_null_bound > 0:
            raise InvalidSpec("rho_null_bound must be positive")

    @property
    def num_hypotheses(self) -> int:
        return int(self.include_rho_test) + self.num_covariates + 1

    def coefficient_hypothesis(self, coefficient: int) -> int:
        """Hypothesis index of coefficient ``coefficient`` (0 = intercept)."""
        if not 0 <= coefficient <= self.num_covariates:
            raise InvalidSpec(f"coefficient index {coefficient} out of range")
        return coefficient + 1 if self.include_rho_test else coefficient

    def coefficient_of_hypothesis(self, hypothesis: int) -> int | None:
        """Coefficient index for a hypothesis, or None for the autoregression test."""
        if not 0 <= hypothesis < self.num_hypotheses:
            raise InvalidSpec(f"hypothesis index {hypothesis} out of range")
        if self.include_rho_test:
            return None if hypothesis == 0 else hypothesis - 1
        return hypothesis


@dataclass(frozen=True, eq=False)
class DecisionConfig:
    """A joint decision: ``bits[i]`` is True when hypothesis ``i`` is rejected."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _frozen_bool_array(self.bits))

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, DecisionConfig):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())

    @property
    def rejection_count(self) -> int:
        return int(self.bits.sum())

    @classmethod
    def all_accept(cls, num_hypotheses: int) -> "DecisionConfig":
        return cls(np.zeros(num_hypotheses, dtype=bool))

    @classmethod
    def all_reject(cls, num_hypotheses: int) -> "DecisionConfig":
        return cls(np.ones(num_hypotheses, dtype=bool))


@dataclass(frozen=True, eq=False)
class TruthAssignment:
    """Which alternatives hold under the generating parameters.

    ``true_config`` is the error-free decision configuration.  It equals the
    alternative indicator vector because the fitted model class contains the
    generating model; a deliberately misspecified study would decouple the two.
    """

    alt_true: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alt_true", _frozen_bool_array(self.alt_true))

    def __len__(self) -> int:
        return self.alt_true.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthAssignment):
            return NotImplemented
        return np.array_equal(self.alt_true, other.alt_true)

    @property
    def true_config(self) -> DecisionConfig:
        return DecisionConfig(self.alt_true.copy())


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Per-hypothesis dependency groups; ``groups[i]`` always contains ``i``."""

    groups: tuple[frozenset[int], ...]

    def __post_init__(self):
        groups = tuple(frozenset(g) for g in self.groups)
        h = len(groups)
        for i, g in enumerate(groups):
            if i not in g:
                raise InvalidSpec(f"group {i} does not contain its own hypothesis")
            if any(not 0 <= j < h for j in g):
                raise InvalidSpec(f"group {i} references an out-of-range hypothesis")
        entries = sum(1 << (len(g) - 1) for g in groups)
        if entries > GROUP_TABLE_BUDGET:
            largest = max(range(h), key=lambda i: len(groups[i]))
            raise InvalidSpec(
                f"group tables need {entries} entries, over the budget of {GROUP_TABLE_BUDGET}; "
                f"the largest group is hypothesis {largest}'s with {len(groups[largest])} members"
            )
        object.__setattr__(self, "groups", groups)

    @property
    def num_hypotheses(self) -> int:
        return len(self.groups)

    def others(self, i: int) -> np.ndarray:
        """Sorted members of group ``i`` excluding ``i`` itself."""
        return np.array(sorted(self.groups[i] - {i}), dtype=int)

    @classmethod
    def singletons(cls, num_hypotheses: int) -> "GroupStructure":
        return cls(tuple(frozenset({i}) for i in range(num_hypotheses)))


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Connected components of the group-overlap graph.

    Components are ordered by their smallest member and each component lists its
    members in increasing order, so the partition is deterministic.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.component_of, dtype=int).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "component_of", arr)

    @property
    def num_hypotheses(self) -> int:
        return self.component_of.size


@dataclass(frozen=True)
class TruthProportions:
    """Population shares controlling how much false discovery is attainable.

    ``fdr_ceiling`` is the supremum of the modified positive Bayesian FDR that
    any penalty can incur: ``(1 - signal_group_share) / (1 + alt_share -
    signal_group_share)``.
    """

    alt_share: float
    signal_group_share: float
    null_share: float
    fdr_ceiling: float


def truth_from_params(params: "Ar1Params", spec: TestSpec) -> TruthAssignment:
    """Evaluate which alternatives hold at the generating parameters.

    The autoregression alternative is ``|rho| >= rho_null_bound``; the
    coefficient alternative is ``|b_i| > null_radius`` (the boundary belongs to
    the null).
    """
    beta = np.asarray(params.beta, dtype=float)
    if beta.size != spec.num_covariates + 1:
        raise InvalidSpec(
            f"parameter vector has {beta.size} coefficients, spec wants {spec.num_covariates + 1}"
        )
    alt = np.zeros(spec.num_hypotheses, dtype=bool)
    if spec.include_rho_test:
        alt[0] = abs(params.rho) >= spec.rho_null_bound
    for i in range(spec.num_covariates + 1):
        alt[spec.coefficient_hypothesis(i)] = abs(beta[i]) > spec.null_radius
    return TruthAssignment(alt)


def _column_correlations(z: np.ndarray) -> np.ndarray:
    """Pairwise column correlations with zero-variance columns mapped to 0."""
    z = np.asarray(z, dtype=float)
    centered = z - z.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    ok = norms > 0
    safe = np.where(ok, norms, 1.0)
    unit = centered / safe
    corr = unit.T @ unit
    corr[~ok, :] = 0.0
    corr[:, ~ok] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def build_groups(
    design: "CovariateDesign | np.ndarray",
    spec: TestSpec,
    threshold: float = 0.5,
    max_group_size: int = 5,
) -> GroupStructure:
    """Group each coefficient hypothesis with its most correlated covariates.

    Coefficient ``i`` is grouped with every ``j`` whose column correlation
    satisfies ``|corr| >= threshold``, truncated to ``max_group_size`` members
    keeping the largest ``|corr|``.  The autoregression hypothesis stays a
    singleton; explicit group files override this rule entirely.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidSpec("correlation threshold must lie in [0, 1]")
    if max_group_size < 1:
        raise InvalidSpec("max_group_size must be at least 1")
    z = design.z if hasattr(design, "z") else np.asarray(design, dtype=float)
    if z.shape[1] != spec.num_covariates + 1:
        raise InvalidSpec(
            f"design has {z.shape[1]} columns, spec wants {spec.num_covariates + 1}"
        )
    corr = _column_correlations(z)

    groups: list[frozenset[int]] = []
    if spec.include_rho_test:
        groups.append(frozenset({0}))
    for i in range(spec.num_covariates + 1):
        strength = np.abs(corr[i])
        candidates = [j for j in range(spec.num_covariates + 1) if j != i and strength[j] >= threshold]
        candidates.sort(key=lambda j: (-strength[j], j))
        members = {i, *candidates[: max_group_size - 1]}
        groups.append(frozenset(spec.coefficient_hypothesis(j) for j in members))
    return GroupStructure(tuple(groups))


def connected_components(structure: GroupStructure) -> ComponentPartition:
    """Partition hypotheses into connected components of the group graph.

    Hypotheses ``i`` and ``j`` are adjacent when either group contains the
    other's index; components are the transitive closure of that relation.
    """
    h = structure.num_hypotheses
    rows, cols = [], []
    for i, g in enumerate(structure.groups):
        for j in g:
            rows.append(i)
            cols.append(j)
    adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(h, h))
    _, labels = _graph_components(adjacency, directed=False)

    members: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        members.setdefault(int(lab), []).append(i)
    ordered = sorted(members.values(), key=lambda m: m[0])
    component_of = np.empty(h, dtype=int)
    for cid, m in enumerate(ordered):
        component_of[m] = cid
    return ComponentPartition(tuple(tuple(m) for m in ordered), component_of)


def truth_proportions(structure: GroupStructure, truth: TruthAssignment) -> TruthProportions:
    """Shares of alternatives, signal-bearing groups, and nulls, plus the FDR ceiling."""
    h = structure.num_hypotheses
    if len(truth) != h:
        raise InvalidSpec("group structure and truth assignment disagree on the hypothesis count")
    alt = truth.alt_true
    alt_share = float(alt.sum()) / h
    signal_groups = sum(1 for g in structure.groups if any(alt[j] for j in g))
    signal_group_share = signal_groups / h
    null_share = float((~alt).sum()) / h
    ceiling = (1.0 - signal_group_share) / (1.0 + alt_share - signal_group_share)
    return TruthProportions(alt_share, signal_group_share, null_share, ceiling)


def write_group_file(path, structure: GroupStructure) -> None:
    """One line per hypothesis: space-separated 0-based member indices."""
    with open(path, "w") as fh:
        for g in structure.groups:
            fh.write(" ".join(str(j) for j in sorted(g)) + "\n")


def read_group_file(path, num_hypotheses: int | None = None) -> GroupStructure:
    groups = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            groups.append(frozenset(int(tok) for tok in line.split()))
    if num_hypotheses is not None and len(groups) != num_hypotheses:
        raise InvalidSpec(
            f"group file has {len(groups)} lines, expected {num_hypotheses}"
        )
    return GroupStructure(tuple(groups))


def write_truth_file(path, truth: TruthAssignment) -> None:
    """Single line of 0/1 bits, one per hypothesis."""
    with open(path, "w") as fh:
        fh.write("".join("1" if b else "0" for b in truth.alt_true) + "\n")


def read_truth_file(path) -> TruthAssignment:
    with open(path) as fh:
        line = fh.read().strip()
    if not line or any(ch not in "01" for ch in line):
        raise InvalidSpec("truth file must contain a single line of 0/1 bits")
    return TruthAssignment(np.array([ch == "1" for ch in line], dtype=bool))
