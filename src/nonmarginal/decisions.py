"""Turning posterior draws into joint decisions.

The objective being maximized is

    sum_i d_i * (w_i(d) - penalty),

where ``w_i(d)`` is the posterior probability that hypothesis ``i``'s
alternative holds jointly with every other decision in its dependency group
being correct.  Each summand depends on ``d`` only through the group of ``i``,
so the maximization splits exactly across connected components of the group
graph: small components are enumerated, large ones fall back to simulated
annealing over bit flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidSpec
from .hypotheses import ComponentPartition, DecisionConfig, GroupStructure, TestSpec
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Exact-enumeration threshold and annealing schedule for large components."""

    exact_component_limit: int = 20
    annealing_iterations: int = 4000
    initial_temperature: float = 1.0
    cooling_factor: float = 0.995
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.exact_component_limit <= 24:
            raise InvalidSpec("exact_component_limit must lie in [1, 24] (enumeration memory)")
        if not 0.0 < self.cooling_factor < 1.0:
            raise InvalidSpec("cooling_factor must lie inside (0, 1)")
        if self.annealing_iterations < 1 or self.restarts < 1:
            raise InvalidSpec("annealing needs at least one iteration and one restart")


def alternative_indicators(draws: PosteriorDraws, spec: TestSpec) -> PosteriorIndicators:
    """Mark, per draw, which hypotheses' alternatives the draw satisfies.

    The autoregression alternative is ``|rho| >= rho_null_bound``; coefficient
    alternatives are ``|b_i| > null_radius`` with the boundary kept in the null.
    """
    if draws.num_coefficients != spec.num_covariates + 1:
        raise InvalidSpec("draw columns and spec dimensions disagree")
    s = draws.num_draws
    ind = np.zeros((s, spec.num_hypotheses), dtype=bool)
    if spec.include_rho_test:
        ind[:, 0] = np.abs(draws.rho) >= spec.rho_null_bound
    for i in range(spec.num_covariates + 1):
        ind[:, spec.coefficient_hypothesis(i)] = np.abs(draws.beta[:, i]) > spec.null_radius
    return PosteriorIndicators(ind, spec)


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
    """Reject every hypothesis whose marginal alternative probability exceeds the penalty."""
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    return DecisionConfig(np.asarray(marginals) > penalty)


def additive_rule(marginals: np.ndarray, cost: float) -> DecisionConfig:
    """Marginal thresholding rule: reject when the alternative probability
    exceeds cost / (1 + cost), the posterior-risk minimizer under a loss that
    charges ``cost`` per false discovery and one per missed discovery.
    """
    if not cost > 0:
        raise InvalidSpec("cost must be positive")
    return additive_rule_at_penalty(marginals, cost / (1.0 + cost))


# ---------------------------------------------------------------------------
# component-wise maximization
# ---------------------------------------------------------------------------

def _encode(bits) -> int:
    """Integer code of a bit vector: bit k-1-j holds d_j, so integer order is
    lexicographic order of (d_0, d_1, ...)."""
    code = 0
    for b in bits:
        code = (code << 1) | bool(b)
    return code


def _decode(code: int, k: int) -> np.ndarray:
    return np.array([(code >> s) & 1 for s in range(k - 1, -1, -1)], dtype=bool)


class _JointTables:
    """w_i(d) for every hypothesis of a family, as tables over its group.

    ``scopes[i]`` is ``sorted({i} | others_i)``.  ``shares[i]`` has one axis of
    length two per member of ``others_i``, in increasing order, and holds the
    share of draws where the alternative of ``i`` holds and the indicators of
    ``others_i`` equal the decisions indexing it.  None of this depends on the
    penalty.
    """

    def __init__(self, ind: np.ndarray, groups: GroupStructure):
        columns = ind.T.astype(np.int64)
        self.scopes, self.shares = [], []
        for i in range(groups.num_hypotheses):
            others = groups.others(i)
            n = len(others)
            patterns = (1 << np.arange(n - 1, -1, -1, dtype=np.int64)) @ columns[others]
            counts = np.bincount(patterns[ind[:, i]], minlength=1 << n)
            self.scopes.append(sorted([i, *others.tolist()]))
            self.shares.append((counts / ind.shape[0]).reshape((2,) * n))

    def w(self, bits: np.ndarray) -> np.ndarray:
        """w_i(d) of every hypothesis at the decision vector ``bits``."""
        if len(bits) != len(self.shares):
            raise InvalidSpec("indicators, groups, and decision vector disagree on length")
        d = np.asarray(bits, dtype=np.intp)
        return np.array([
            share[tuple(d[j] for j in scope if j != i)]
            for i, (scope, share) in enumerate(zip(self.scopes, self.shares))
        ])

    def terms(self, i: int, penalty: float) -> np.ndarray:
        """The term table T_i = d_i * (w_i - penalty), one axis per member of ``scopes[i]``."""
        gap = self.shares[i] - penalty
        return np.stack((0.0 * gap, gap), axis=self.scopes[i].index(i))


def _tables(indicators: PosteriorIndicators, groups: GroupStructure) -> _JointTables:
    """The table set of ``indicators`` under ``groups``: built on first use and
    kept on the indicators, so every penalty and rule decided on the same draws
    reads the same tables."""
    if groups.num_hypotheses != indicators.num_hypotheses:
        raise InvalidSpec("indicators and groups disagree on length")
    cached = indicators._tables
    if cached is None or cached[0] is not groups:
        cached = (groups, _JointTables(indicators.ind, groups))
        object.__setattr__(indicators, "_tables", cached)
    return cached[1]


def _local_scopes(tables: _JointTables, comp: list[int]) -> list[list[int]]:
    # components are sorted and contain every group they touch
    return [np.searchsorted(comp, tables.scopes[i]).tolist() for i in comp]


def _component_values(tables: _JointTables, comp: list[int], penalty: float) -> np.ndarray:
    """The objective at every configuration of one component.

    Axis ``j`` of the (2,)*k result holds d_{comp[j]}, so the flat index of a
    configuration is its code.  Each term table is broadcast onto the axes of
    its scope and added in component order, starting from 0.0.
    """
    k = len(comp)
    values = np.zeros((2,) * k)
    for i, scope in zip(comp, _local_scopes(tables, comp)):
        shape = [1] * k
        for j in scope:
            shape[j] = 2
        values += tables.terms(i, penalty).reshape(shape)
    return values


def _enumerate_component(values: np.ndarray) -> int:
    """Exact maximization over all 2^k codes of one component.

    Ties are broken toward fewer rejections, then the lexicographically
    smallest bit vector, so the result is deterministic.
    """
    k = values.ndim
    flat = values.reshape(-1)
    tied = np.flatnonzero(flat == flat.max())
    return int(tied[np.argmin((np.bitwise_count(tied).astype(np.int64) << k) | tied)])


def _anneal_component(
    tables: _JointTables,
    comp: list[int],
    warm_start: np.ndarray,
    penalty: float,
    config: OptimizerConfig,
    component_id: int,
) -> int:
    """Simulated annealing over single-bit flips; returns the best code visited.

    Restart 0 starts from the marginal thresholding warm start, the remaining
    restarts from random configurations.  Proposals are accepted with
    probability exp(delta / T) under a geometric cooling schedule.
    """
    k = len(comp)
    terms = [tables.terms(i, penalty).ravel().tolist() for i in comp]
    # masks[i][j]: the bit of d_j in the flat index of term i
    masks = [{j: 1 << (len(scope) - 1 - a) for a, j in enumerate(scope)}
             for scope in _local_scopes(tables, comp)]
    # the terms that change when d_j flips: j itself and every i grouped with j
    affected = []
    for j in range(k):
        grouped = [j] + [i for i in range(k) if i != j and j in masks[i]]
        affected.append([(i, masks[i][j]) for i in grouped])
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, component_id]))
    best_key = (math.inf,)
    for restart in range(config.restarts):
        bits = warm_start if restart == 0 else rng.random(k) < 0.5
        code = _encode(bits)
        patterns = [sum(m for j, m in mask.items() if bits[j]) for mask in masks]
        value = 0.0
        for term, pattern in zip(terms, patterns):
            value = value + term[pattern]
        best_key = min(best_key, (-value, code.bit_count(), code))
        temperature = config.initial_temperature
        for _ in range(config.annealing_iterations):
            flip = int(rng.integers(k))
            proposal = code ^ (1 << (k - 1 - flip))
            after = before = 0.0
            for i, m in affected[flip]:
                after = after + terms[i][patterns[i] ^ m]
                before = before + terms[i][patterns[i]]
            delta = after - before
            best_key = min(best_key, (-(value + delta), proposal.bit_count(), proposal))
            if delta > 0 or rng.random() < math.exp(min(delta / max(temperature, 1e-300), 0.0)):
                code = proposal
                value += delta
                for i, m in affected[flip]:
                    patterns[i] ^= m
            temperature *= config.cooling_factor
    return best_key[2]


def optimize_decisions(
    indicators: PosteriorIndicators,
    groups: GroupStructure,
    partition: ComponentPartition,
    penalty: float,
    config: OptimizerConfig | None = None,
) -> DecisionConfig:
    """Maximize the penalized objective component by component.

    Components up to ``exact_component_limit`` hypotheses are solved by
    exhaustive enumeration; larger ones by seeded simulated annealing.  Ties go
    to the configuration with fewest rejections, then the lexicographically
    smallest bit vector.
    """
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    h = indicators.num_hypotheses
    if partition.num_hypotheses != h:
        raise InvalidSpec("indicators, groups, and partition disagree on length")
    tables = _tables(indicators, groups)
    config = config or OptimizerConfig()
    marginals = marginal_probs(indicators)
    bits = np.zeros(h, dtype=bool)
    for cid, component in enumerate(partition.components):
        comp = list(component)
        k = len(comp)
        if k <= config.exact_component_limit:
            code = _enumerate_component(_component_values(tables, comp, penalty))
        else:
            code = _anneal_component(tables, comp, marginals[comp] > penalty, penalty, config, cid)
        bits[comp] = _decode(code, k)
    return DecisionConfig(bits)
