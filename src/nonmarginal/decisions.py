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
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidSpec
from .hypotheses import ComponentPartition, DecisionConfig, GroupStructure, TestSpec
from .model_ar1 import PosteriorDraws


@dataclass(frozen=True, eq=False)
class PosteriorIndicators:
    """Boolean S x H matrix: draw s lies in the alternative region of hypothesis i."""

    ind: np.ndarray
    spec: TestSpec

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
    tables, code = _whole_family(indicators, groups, config)
    return np.array([tables.w(i, code) for i in range(len(config))])


def penalized_objective(
    config: DecisionConfig,
    indicators: PosteriorIndicators,
    groups: GroupStructure,
    penalty: float,
) -> float:
    """sum_i d_i * (w_i(d) - penalty); zero for the all-accept configuration."""
    if not 0.0 <= penalty < 1.0:
        raise InvalidSpec("penalty must lie in [0, 1)")
    tables, code = _whole_family(indicators, groups, config)
    return float(tables.objective(code, penalty, range(len(config))))


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
    """w_i(d) and the penalized objective for k hypotheses, with d an integer code.

    Table ``i`` is indexed by the pattern of decisions on ``others[i]`` (bit
    ``b`` holds the decision on ``others[i][b]``) and holds the share of draws
    where the alternative of ``i`` holds and the indicators of ``others[i]``
    match that pattern.  ``w`` and ``objective`` take either one Python int or
    an int64 array of codes.
    """

    def __init__(self, ind: np.ndarray, others: list[np.ndarray]):
        k = ind.shape[1]
        self.shift = [k - 1 - j for j in range(k)]
        self.others = [[int(j) for j in o] for o in others]
        self.tables = []
        columns = ind.T.astype(np.int64)
        for i, o in enumerate(others):
            patterns = (1 << np.arange(len(o), dtype=np.int64)) @ columns[o]
            counts = np.bincount(patterns, weights=columns[i], minlength=1 << len(o))
            self.tables.append(counts / ind.shape[0])

    def w(self, i: int, code):
        pattern = 0
        for b, j in enumerate(self.others[i]):
            pattern = pattern | (((code >> self.shift[j]) & 1) << b)
        return self.tables[i][pattern]

    def objective(self, code, penalty: float, hyps):
        """sum over ``hyps`` of d_i * (w_i(d) - penalty), summed in ``hyps`` order."""
        total = 0.0
        for i in hyps:
            total = total + ((code >> self.shift[i]) & 1) * (self.w(i, code) - penalty)
        return total


def _whole_family(indicators: PosteriorIndicators, groups: GroupStructure,
                  config: DecisionConfig) -> tuple[_JointTables, int]:
    h = indicators.num_hypotheses
    if groups.num_hypotheses != h or len(config) != h:
        raise InvalidSpec("indicators, groups, and decision vector disagree on length")
    others = [groups.others(i) for i in range(h)]
    return _JointTables(indicators.ind, others), _encode(config.bits)


def _enumerate_component(tables: _JointTables, k: int, penalty: float) -> int:
    """Exact maximization over all 2^k codes of one component.

    Ties are broken toward fewer rejections, then the lexicographically
    smallest bit vector, so the result is deterministic.
    """
    codes = np.arange(1 << k, dtype=np.int64)
    values = tables.objective(codes, penalty, range(k))
    tied = codes[values == values.max()]
    return int(tied[np.argmin((np.bitwise_count(tied).astype(np.int64) << k) | tied)])


def _anneal_component(
    tables: _JointTables,
    k: int,
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
    # the terms that change when d_j flips: j itself and every i grouped with j
    affected = [[j] + [i for i in range(k) if j in tables.others[i]] for j in range(k)]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, component_id]))
    best_key = (math.inf,)
    for restart in range(config.restarts):
        code = _encode(warm_start if restart == 0 else rng.random(k) < 0.5)
        value = tables.objective(code, penalty, range(k))
        best_key = min(best_key, (-value, code.bit_count(), code))
        temperature = config.initial_temperature
        for _ in range(config.annealing_iterations):
            flip = int(rng.integers(k))
            proposal = code ^ (1 << tables.shift[flip])
            terms = affected[flip]
            delta = (tables.objective(proposal, penalty, terms)
                     - tables.objective(code, penalty, terms))
            best_key = min(best_key, (-(value + delta), proposal.bit_count(), proposal))
            if delta > 0 or rng.random() < math.exp(min(delta / max(temperature, 1e-300), 0.0)):
                code = proposal
                value += delta
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
    if groups.num_hypotheses != h or partition.num_hypotheses != h:
        raise InvalidSpec("indicators, groups, and partition disagree on length")
    config = config or OptimizerConfig()
    marginals = marginal_probs(indicators)
    bits = np.zeros(h, dtype=bool)
    for cid, component in enumerate(partition.components):
        comp = list(component)
        # components are sorted and contain every group they touch
        others = [np.searchsorted(comp, groups.others(hyp)) for hyp in comp]
        tables = _JointTables(indicators.ind[:, comp], others)
        k = len(comp)
        if k <= config.exact_component_limit:
            code = _enumerate_component(tables, k, penalty)
        else:
            code = _anneal_component(tables, k, marginals[comp] > penalty, penalty, config, cid)
        bits[comp] = _decode(code, k)
    return DecisionConfig(bits)
