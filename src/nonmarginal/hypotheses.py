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

from ._blas import one_blas_thread
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

    def alternatives(self, rho, beta) -> np.ndarray:
        """Which alternatives hold at each of S parameter points: an S x H bit matrix.

        ``rho`` has shape (S,) and ``beta`` (S, num_covariates + 1).  The
        autoregression alternative is ``|rho| >= rho_null_bound``; coefficient
        alternatives are ``|b_i| > null_radius``, the boundary kept in the null.
        """
        beta = np.asarray(beta, dtype=float)
        if beta.ndim != 2 or beta.shape[1] != self.num_covariates + 1:
            raise InvalidSpec(
                f"coefficients of shape {beta.shape}, spec wants {self.num_covariates + 1} per point"
            )
        # filled in place: stacking the parts raised a 4-chain, p = 41 batch's peak RSS by 4 MB
        alt = np.empty((beta.shape[0], self.num_hypotheses), dtype=bool)
        first = int(self.include_rho_test)
        # |b| > r as b > r or b < -r, so no float copy of beta is made
        coefficients = alt[:, first:]
        np.greater(beta, self.null_radius, out=coefficients)
        coefficients |= beta < -self.null_radius
        if self.include_rho_test:
            np.greater_equal(np.abs(rho), self.rho_null_bound, out=alt[:, 0])
        return alt


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
    """Population shares controlling how much false discovery is attainable;
    ``calibration.feasible_alpha`` turns them into the FDR ceiling."""

    alt_share: float
    signal_group_share: float
    null_share: float


def truth_from_params(params: "Ar1Params", spec: TestSpec) -> TruthAssignment:
    """Which alternatives hold at the generating parameters (``TestSpec.alternatives``)."""
    return TruthAssignment(spec.alternatives([params.rho], params.beta[None, :])[0])


def _column_correlations(z: np.ndarray) -> np.ndarray:
    """Pairwise column correlations with zero-variance columns mapped to 0."""
    z = np.asarray(z, dtype=float)
    centered = z - z.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    ok = norms > 0
    safe = np.where(ok, norms, 1.0)
    unit = centered / safe
    with one_blas_thread():
        corr = unit.T @ unit
    corr[~ok, :] = 0.0
    corr[:, ~ok] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def check_group_rule(threshold: float, max_group_size: int) -> None:
    """Raise ``InvalidSpec`` unless ``build_groups`` accepts the rule."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidSpec("correlation threshold must lie in [0, 1]")
    if max_group_size < 1:
        raise InvalidSpec("max_group_size must be at least 1")


def build_groups(
    design: "CovariateDesign",
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
    check_group_rule(threshold, max_group_size)
    z = design.z
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
    root = list(range(h))  # union-find forest with path halving

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, g in enumerate(structure.groups):
        for j in g:
            root[find(j)] = find(i)
    members: dict[int, list[int]] = {}  # in order of each component's least member
    for i in range(h):
        members.setdefault(find(i), []).append(i)
    component_of = np.empty(h, dtype=int)
    for cid, m in enumerate(members.values()):
        component_of[m] = cid
    return ComponentPartition(tuple(map(tuple, members.values())), component_of)


def truth_proportions(structure: GroupStructure, truth: TruthAssignment) -> TruthProportions:
    """Shares of alternatives, signal-bearing groups, and nulls."""
    h = structure.num_hypotheses
    if len(truth) != h:
        raise InvalidSpec("group structure and truth assignment disagree on the hypothesis count")
    alt = truth.alt_true
    alt_share = float(alt.sum()) / h
    signal_groups = sum(1 for g in structure.groups if any(alt[j] for j in g))
    signal_group_share = signal_groups / h
    null_share = float((~alt).sum()) / h
    return TruthProportions(alt_share, signal_group_share, null_share)


def write_group_file(path, structure: GroupStructure) -> None:
    """One line per hypothesis: space-separated 0-based member indices."""
    with open(path, "w") as fh:
        for g in structure.groups:
            fh.write(" ".join(str(j) for j in sorted(g)) + "\n")


def read_group_file(path, num_hypotheses: int | None = None) -> GroupStructure:
    groups = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                groups.append(frozenset(int(tok) for tok in line.split()))
            except ValueError:
                raise InvalidSpec(
                    f"group file {path}, line {number}: members must be integers, got {line!r}"
                ) from None
    if num_hypotheses is not None and len(groups) != num_hypotheses:
        raise InvalidSpec(
            f"group file has {len(groups)} lines, expected {num_hypotheses}"
        )
    return GroupStructure(tuple(groups))


def bit_string(bits) -> str:
    """A boolean vector as a string of 0/1 characters, one per hypothesis."""
    return "".join("1" if b else "0" for b in bits)


def write_truth_file(path, truth: TruthAssignment) -> None:
    """Single line of 0/1 bits, one per hypothesis."""
    with open(path, "w") as fh:
        fh.write(bit_string(truth.alt_true) + "\n")

