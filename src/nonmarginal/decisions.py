"""Turning posterior draws into joint decisions.

The objective being maximized is

    sum_i d_i * (w_i(d) - penalty),

where ``w_i(d)`` is the posterior probability that hypothesis ``i``'s
alternative holds jointly with every other decision in its dependency group
being correct.  Each summand depends on ``d`` only through the group of ``i``,
so the maximization splits exactly across connected components of the group
graph.  Every ``w_i(d)`` is a count of the same ``N`` draws divided by ``N``,
so each component is solved once in integers for every rejection count, and a
penalty then picks its rejection count by an exact rational comparison.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidSpec
from .hypotheses import (
    GROUP_TABLE_BUDGET,
    ComponentPartition,
    DecisionConfig,
    GroupStructure,
    TestSpec,
)
from .model_ar1 import PosteriorDraws


@dataclass(frozen=True, eq=False)
class PosteriorIndicators:
    """Boolean S x H matrix: draw s lies in the alternative region of hypothesis i."""

    ind: np.ndarray
    spec: TestSpec
    # (groups, _JointTables) of the last group structure these draws were decided under
    _tables: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ind = np.array(self.ind, dtype=bool)
        if ind.ndim != 2:
            raise InvalidSpec("indicator matrix must be 2-d (draws x hypotheses)")
        if ind.shape[1] != self.spec.num_hypotheses:
            raise InvalidSpec("indicator columns and hypothesis count disagree")
        ind.setflags(write=False)
        object.__setattr__(self, "ind", ind)

    @property
    def num_draws(self) -> int:
        return self.ind.shape[0]

    @property
    def num_hypotheses(self) -> int:
        return self.ind.shape[1]


class OptimizerConfig:
    """Read only by the benchmark tracer under ``bench/``: every component is
    solved exactly, so no component reaches the limit and nothing is
    annealed.  Delete it with the benchmark change that retires
    ``components_annealed``, ``anneal_steps`` and ``enumerated_configs``."""

    exact_component_limit = sys.maxsize
    restarts = 0
    annealing_iterations = 0


def alternative_indicators(draws: PosteriorDraws, spec: TestSpec) -> PosteriorIndicators:
    """Mark, per draw, which hypotheses' alternatives the draw satisfies
    (``TestSpec.alternatives``)."""
    return PosteriorIndicators(spec.alternatives(draws.rho, draws.beta), spec)


def marginal_probs(indicators: PosteriorIndicators) -> np.ndarray:
    """Posterior probability of each alternative: column means of the indicators."""
    return indicators.ind.mean(axis=0)


def joint_correct_probs(
    indicators: PosteriorIndicators,
    groups: GroupStructure,
    config: DecisionConfig,
) -> np.ndarray:
    """Posterior probability, per hypothesis, of its alternative jointly with
    the correctness of the other decisions in its group.

    For a singleton group this is exactly the marginal probability.
    """
    return _tables(indicators, groups).w(config.bits)


def penalized_objective(
    config: DecisionConfig,
    indicators: PosteriorIndicators,
    groups: GroupStructure,
    penalty: float,
) -> float:
    """sum_i d_i * (w_i(d) - penalty); zero for the all-accept configuration.

    The terms are added in hypothesis order, starting from 0.0.
    """
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    total = 0.0
    for d, w in zip(config.bits.tolist(), _tables(indicators, groups).w(config.bits).tolist()):
        total = total + d * (w - penalty)
    return total


def additive_rule_at_penalty(marginals: np.ndarray, penalty: float) -> DecisionConfig:
    """Reject every hypothesis whose marginal alternative probability exceeds the penalty.

    At the penalty ``c / (1 + c)`` this minimizes the posterior risk of a loss
    that charges ``c`` per false discovery and one per missed discovery.
    """
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    return DecisionConfig(np.asarray(marginals) > penalty)


# ---------------------------------------------------------------------------
# exact component-wise maximization
# ---------------------------------------------------------------------------

class _JointTables:
    """The draw counts behind w_i(d) for every hypothesis of a family.

    ``counts[i]`` has one axis of length two per member of ``others[i]``, in
    increasing order, and counts the draws where the alternative of ``i``
    holds and the indicators of ``others[i]`` equal the decisions indexing it.
    None of this depends on the penalty, and neither do the component
    profiles kept in ``profiles``.
    """

    def __init__(self, ind: np.ndarray, groups: GroupStructure):
        columns = ind.T.astype(np.int64)
        self.num_draws = ind.shape[0]
        self.others, self.counts = [], []
        self.profiles: dict[tuple[int, ...], _Profile] = {}
        for i in range(groups.num_hypotheses):
            others = groups.others(i)
            n = len(others)
            patterns = (1 << np.arange(n - 1, -1, -1, dtype=np.int64)) @ columns[others]
            self.others.append(others.tolist())
            self.counts.append(np.bincount(patterns[ind[:, i]], minlength=1 << n).reshape((2,) * n))

    def w(self, bits: np.ndarray) -> np.ndarray:
        """w_i(d) of every hypothesis at the decision vector ``bits``."""
        if len(bits) != len(self.counts):
            raise InvalidSpec("indicators, groups, and decision vector disagree on length")
        d = np.asarray(bits, dtype=np.intp)
        hits = [count[tuple(d[others])] for count, others in zip(self.counts, self.others)]
        return np.array(hits, dtype=np.int64) / self.num_draws

    def profile(self, component: tuple[int, ...]) -> "_Profile":
        if component not in self.profiles:
            self.profiles[component] = _Profile(self, list(component))
        return self.profiles[component]


def _tables(indicators: PosteriorIndicators, groups: GroupStructure) -> _JointTables:
    """The table set of ``indicators`` under ``groups``: built on first use and
    kept on the indicators, so every penalty and rule decided on the same draws
    reads the same tables and profiles."""
    if groups.num_hypotheses != indicators.num_hypotheses:
        raise InvalidSpec("indicators and groups disagree on length")
    cached = indicators._tables
    if cached is None or cached[0] is not groups:
        cached = (groups, _JointTables(indicators.ind, groups))
        object.__setattr__(indicators, "_tables", cached)
    return cached[1]


class _Profile:
    """One component solved at every penalty at once.

    On a component with local positions ``0..k-1`` the objective times ``N``
    is ``C(d) - N*penalty*|d|`` with the integer ``C(d) = sum_j d_j c_j(d)``.
    ``best[r]`` is ``C*_r = max{C(d) : |d| = r}``.  It comes from a backward
    pass in index order: the term of ``j`` is charged at the last position of
    its scope, and the state at position ``j`` is the decisions on the
    frontier ``F_j`` plus the rejections still to make.  ``zero_ok[j]`` marks
    the states where ``d_j = 0`` still reaches the optimum, so the forward
    decode in ``decision`` returns the lexicographically smallest optimal
    vector with a given rejection count.
    """

    def __init__(self, tables: _JointTables, comp: list[int]):
        k = len(comp)
        self.num_draws = tables.num_draws
        # components are sorted and contain every group they touch, so local
        # order is global order and count axes stay in scope order
        scopes = [np.searchsorted(comp, sorted([h, *tables.others[h]])).tolist() for h in comp]
        ending = [[] for _ in comp]
        for i, scope in enumerate(scopes):
            ending[scope[-1]].append(i)
        # F_j: the positions before j that a term charged at j or later reads
        self.frontiers, frontier = [None] * k, set()
        for j in reversed(range(k)):
            for i in ending[j]:
                frontier.update(scopes[i])
            frontier.discard(j)
            self.frontiers[j] = sorted(frontier)
        # both branches of d_j, over the frontier states and the rejection counts
        entries = sum((2 << len(f)) * (k - j + 1) for j, f in enumerate(self.frontiers))
        if entries > GROUP_TABLE_BUDGET:
            raise InvalidSpec(
                f"the {k}-member component starting at hypothesis {comp[0]} needs {entries} "
                f"decision table entries (largest frontier {max(map(len, self.frontiers))}), "
                f"over the budget of {GROUP_TABLE_BUDGET}"
            )
        self.zero_ok = [None] * k
        value, value_axes = np.zeros(1, dtype=np.int64), []
        for j in reversed(range(k)):
            axes = self.frontiers[j] + [j]
            gain = np.zeros((2,) * len(axes), dtype=np.int64)
            for i in ending[j]:
                count = tables.counts[comp[i]]
                term = np.stack((np.zeros_like(count), count), axis=scopes[i].index(i))
                gain += term.reshape([2 if a in scopes[i] else 1 for a in axes])
            later = value.reshape([2 if a in value_axes else 1 for a in axes] + [k - j])
            # when d_j is not in F_{j+1}, its axis in later has one row, for both branches
            stay = gain[..., 0, None] + later[..., 0, :]
            take = gain[..., 1, None] + later[..., -1, :]
            # C(d) >= 0, so -1 marks a rejection count that cannot be reached
            unreachable = np.full(stay.shape[:-1] + (1,), -1, dtype=np.int64)
            stay = np.concatenate((stay, unreachable), axis=-1)
            value = np.maximum(stay, np.concatenate((unreachable, take), axis=-1))
            self.zero_ok[j] = stay == value
            value_axes = self.frontiers[j]
        self.best = value.tolist()

    def rejections(self, penalty: float) -> int:
        """``argmax_r C*_r - N*penalty*r``, exact for the float ``penalty``;
        the fewest rejections win a tie."""
        p, q = float(penalty).as_integer_ratio()
        scores = [q * c - p * self.num_draws * r for r, c in enumerate(self.best)]
        return scores.index(max(scores))

    def decision(self, r: int) -> list[int]:
        """The lexicographically smallest ``d`` with ``|d| = r`` and ``C(d) = C*_r``."""
        bits = []
        for j, frontier in enumerate(self.frontiers):
            bit = 0 if self.zero_ok[j][(*(bits[a] for a in frontier), r)] else 1
            bits.append(bit)
            r -= bit
        return bits


def optimize_decisions(
    indicators: PosteriorIndicators,
    groups: GroupStructure,
    partition: ComponentPartition,
    penalty: float,
) -> DecisionConfig:
    """Maximize the penalized objective exactly, component by component.

    Ties go to the configuration with fewest rejections, then the
    lexicographically smallest bit vector.  The singletons are decided at
    once: at ``penalty = p/q`` exactly, ``i`` is rejected when its alternative
    count has ``count_i*q > p*N``, that is ``count_i > (p*N) // q``, so a tie
    accepts, as in ``_Profile.rejections``.  A component whose decision tables
    would exceed ``GROUP_TABLE_BUDGET`` entries raises ``InvalidSpec``.
    """
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    h = indicators.num_hypotheses
    if partition.num_hypotheses != h:
        raise InvalidSpec("indicators, groups, and partition disagree on length")
    tables = _tables(indicators, groups)
    bits = np.zeros(h, dtype=bool)
    singles = [component[0] for component in partition.components if len(component) == 1]
    p, q = float(penalty).as_integer_ratio()
    bits[singles] = np.array([tables.counts[i] for i in singles]) > p * tables.num_draws // q
    for component in partition.components:
        if len(component) > 1:
            profile = tables.profile(component)
            bits[list(component)] = profile.decision(profile.rejections(penalty))
    return DecisionConfig(bits)
