"""Desk-scale acceptance checks for the whole pipeline.

Each criterion returns a result record with a one-line summary; the pytest
suite asserts them and the CLI ``check`` subcommand turns them into an exit
code.  Heavy posterior ensembles are built once per sample size and shared
across criteria through the context object — the sharing is what makes the
common-random-numbers assertions (monotone curves, calibration) exact rather
than statistical.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calibration import calibrate_penalty, feasible_alpha, mpbfdr_curve
from .decisions import (
    PosteriorIndicators,
    joint_correct_probs,
    marginal_probs,
    optimize_decisions,
)
from .error_rates import posterior_rates, rate_fit
from .experiments import DecisionEnsemble, ScenarioConfig, design_for, seed_for
from .hypotheses import (
    DecisionConfig,
    GroupStructure,
    TestSpec,
    connected_components,
)
from .model_ar1 import (
    Ar1Params,
    estimate_error_exponent,
    kl_divergence_rate,
    log_likelihood_ratio,
    quadratic_limits,
    simulate,
)

NONMARGINAL_PENALTY = 0.5
ADDITIVE_PENALTY = 0.5  # cost 1 <=> threshold 1/2


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.name}): {status} - {self.details}"


class AcceptanceContext:
    """Caches the expensive shared state: one posterior ensemble per sample size.

    ``ensembles`` seeds the cache with ensembles already built from ``cfg``,
    such as those of a ``run_scenario`` result.
    """

    def __init__(self, cfg: ScenarioConfig | None = None, workers: int | None = None,
                 ensembles: dict[int, DecisionEnsemble] | None = None):
        self.cfg = cfg if cfg is not None else ScenarioConfig()
        self.workers = workers
        self._ensembles: dict[int, DecisionEnsemble] = dict(ensembles or {})
        self._exponent = None
        self._decay = None

    def ensemble(self, n: int) -> DecisionEnsemble:
        if n not in self._ensembles:
            self._ensembles[n] = DecisionEnsemble(self.cfg, n, workers=self.workers)
        return self._ensembles[n]

    @property
    def failures(self) -> list:
        """Replicates that failed in every ensemble built so far."""
        return [f for ensemble in self._ensembles.values() for f in ensemble.failures]

    @property
    def exponent(self):
        if self._exponent is None:
            n_max = self.cfg.n_grid[-1]
            ensemble = self.ensemble(n_max)
            self._exponent = estimate_error_exponent(
                self.cfg.params_for(self.cfg.m_for(n_max)), ensemble.spec, ensemble.design
            )
        return self._exponent

    def decay_fits(self):
        """Rate fits of the conditional means of the modified posterior rates."""
        if self._decay is None:
            reports = {n: self.ensemble(n).frequentist(NONMARGINAL_PENALTY) for n in self.cfg.n_grid}
            mfdr = [reports[n].mpbfdr if reports[n].mpbfdr is not None else 0.0 for n in self.cfg.n_grid]
            mfnr = [reports[n].mpbfnr if reports[n].mpbfnr is not None else 0.0 for n in self.cfg.n_grid]
            self._decay = {
                "reports": reports,
                "mfdr_fit": rate_fit("mfdr_xn_mean", mfdr, self.cfg.n_grid, self.exponent.value),
                "mfnr_fit": rate_fit("mfnr_xn_mean", mfnr, self.cfg.n_grid, self.exponent.value),
            }
        return self._decay


# ---------------------------------------------------------------------------
# criterion 1: optimizer equals global enumeration
# ---------------------------------------------------------------------------

def _random_instance(rng: np.random.Generator):
    h = int(rng.integers(2, 13))
    s = int(rng.integers(16, 65))
    probs = rng.uniform(0.05, 0.95, size=h)
    ind = rng.random((s, h)) < probs
    groups = []
    for i in range(h):
        extra = rng.integers(0, min(4, h))
        members = {i, *rng.choice(h, size=int(extra), replace=False).tolist()}
        groups.append(frozenset(int(j) for j in members))
    structure = GroupStructure(tuple(groups))
    spec = TestSpec(num_covariates=h - 2, include_rho_test=True) if h >= 3 else TestSpec(
        num_covariates=1, include_rho_test=False
    )
    penalty = float(rng.uniform(0.0, 0.9))
    return PosteriorIndicators(ind, spec), structure, penalty


def _exact_objective(bits, indicators, structure, penalty) -> Fraction:
    """sum_i d_i (w_i(d) - penalty) in exact arithmetic.

    For a rejected ``i``, ``w_i(d)`` is the share of draws on which every
    decision of group ``i`` is correct.
    """
    correct = indicators.ind == bits
    hits = sum(int(correct[:, sorted(structure.groups[i])].all(axis=1).sum())
               for i in np.flatnonzero(bits))
    return Fraction(hits, indicators.num_draws) - Fraction(penalty) * int(bits.sum())


def _global_argmax(indicators, structure, penalty):
    """Brute force over every configuration, exact values, identical tie-breaking:
    the largest objective, then the fewest rejections, then the first vector
    in lexicographic order."""
    best_key, best_bits = None, None
    for assignment in itertools.product((False, True), repeat=indicators.num_hypotheses):
        bits = np.array(assignment, dtype=bool)
        key = (_exact_objective(bits, indicators, structure, penalty), -int(bits.sum()))
        if best_key is None or key > best_key:
            best_key, best_bits = key, bits
    return DecisionConfig(best_bits), best_key[0]


def criterion_1_oracle_equivalence(instances: int = 100, seed: int = 7) -> CriterionResult:
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    same_value = 0
    same_config = 0
    for _ in range(instances):
        indicators, structure, penalty = _random_instance(rng)
        partition = connected_components(structure)
        found = optimize_decisions(indicators, structure, partition, penalty)
        found_value = _exact_objective(found.bits, indicators, structure, penalty)
        oracle_config, oracle_value = _global_argmax(indicators, structure, penalty)
        same_value += found_value == oracle_value
        same_config += found == oracle_config
    elapsed = time.perf_counter() - t0
    passed = same_value == same_config == instances and elapsed < 60.0
    return CriterionResult(
        1,
        "optimizer equals global enumeration",
        passed,
        f"objective matches {same_value}/{instances}, configuration matches "
        f"{same_config}/{instances}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: consistency across the sample-size grid
# ---------------------------------------------------------------------------

def criterion_2_consistency(ctx: AcceptanceContext) -> CriterionResult:
    rows = {}
    ok = True
    for rule, penalty in (("nonmarginal", NONMARGINAL_PENALTY), ("additive", ADDITIVE_PENALTY)):
        fracs = []
        for n in ctx.cfg.n_grid:
            fracs.append(ctx.ensemble(n).consistency_fraction(penalty, rule))
        for (p_lo, se_lo), (p_hi, se_hi) in zip(fracs, fracs[1:]):
            slack = 2.0 * math.hypot(se_lo, se_hi)
            if p_hi < p_lo - slack:
                ok = False
        if fracs[-1][0] < 0.95:
            ok = False
        rows[rule] = [round(p, 3) for p, _ in fracs]
    return CriterionResult(
        2,
        "consistency of both rules",
        ok,
        f"fraction of exact recoveries by n {dict(rows)} (needs monotone within 2se, >=0.95 at the end)",
    )


# ---------------------------------------------------------------------------
# criterion 3: exponential decay of the modified posterior rates
# ---------------------------------------------------------------------------

def _sci(value: float | None) -> str:
    return "None" if value is None else f"{value:.2e}"


def criterion_3_error_decay(ctx: AcceptanceContext) -> CriterionResult:
    decay = ctx.decay_fits()
    mfdr_fit, mfnr_fit = decay["mfdr_fit"], decay["mfnr_fit"]
    final = decay["reports"][ctx.cfg.n_grid[-1]]
    ok = True
    for fit in (mfdr_fit, mfnr_fit):
        if fit.degenerate or not fit.slope < 0 or not fit.r_squared >= 0.8:
            ok = False
    for value in (final.mpbfdr, final.mpbfnr):
        if value is None or not value < 0.02:
            ok = False
    return CriterionResult(
        3,
        "error decay",
        ok,
        f"slope(mfdr)={mfdr_fit.slope:.2e} R2={mfdr_fit.r_squared:.3f} over {mfdr_fit.n_used} pts; "
        f"slope(mfnr)={mfnr_fit.slope:.2e} R2={mfnr_fit.r_squared:.3f} over {mfnr_fit.n_used} pts; "
        f"final mpbfdr={_sci(final.mpbfdr)} mpbfnr={_sci(final.mpbfnr)}",
    )


# ---------------------------------------------------------------------------
# criterion 4: equipartition of the log likelihood ratio
# ---------------------------------------------------------------------------

def _equipartition_deviation(ctx: AcceptanceContext, theta: Ar1Params, n: int, reps: int) -> float:
    cfg = ctx.cfg
    design = design_for(cfg, n)
    theta0 = cfg.params_for(cfg.m_for(n))
    moments = quadratic_limits(theta.beta, theta0.beta, design)
    rate = kl_divergence_rate(theta, theta0, moments)
    devs = []
    for rep in range(reps):
        data = simulate(theta0, design, n, seed=seed_for(cfg.master_seed, n, rep, 7))
        devs.append(abs(log_likelihood_ratio(theta, theta0, data) / n + rate))
    return float(np.mean(devs))


def criterion_4_equipartition(ctx: AcceptanceContext, reps: int = 20) -> CriterionResult:
    cfg = ctx.cfg
    theta0 = cfg.params_for(cfg.m_for(cfg.n_grid[0]))
    perturbed = [
        replace_sigma2(theta0, 1.3 * theta0.sigma2),
        replace_rho(theta0, theta0.rho + 0.2),
        replace_coefficient(theta0, cfg.active_indices[0], theta0.beta[cfg.active_indices[0]] + 0.3),
    ]
    ok = True
    details = []
    for k, theta in enumerate(perturbed):
        small = _equipartition_deviation(ctx, theta, 250, reps)
        large = _equipartition_deviation(ctx, theta, 4000, reps)
        if not (large < 0.05 and large < small):
            ok = False
        details.append(f"theta{k}: 250->{small:.4f}, 4000->{large:.4f}")
    return CriterionResult(4, "equipartition", ok, "; ".join(details))


def replace_sigma2(theta: Ar1Params, sigma2: float) -> Ar1Params:
    return Ar1Params(theta.rho, sigma2, theta.beta.copy())


def replace_rho(theta: Ar1Params, rho: float) -> Ar1Params:
    return Ar1Params(rho, theta.sigma2, theta.beta.copy())


def replace_coefficient(theta: Ar1Params, index: int, value: float) -> Ar1Params:
    beta = theta.beta.copy()
    beta[index] = value
    return Ar1Params(theta.rho, theta.sigma2, beta)


# ---------------------------------------------------------------------------
# criterion 5: divergence-rate and exponent sanity
# ---------------------------------------------------------------------------

def _on_wrong_side(theta: Ar1Params, theta0: Ar1Params, spec: TestSpec, hypothesis: int) -> bool:
    """Whether theta lies in the closure of the region deciding ``hypothesis`` wrongly.

    The closure matters because two wrong regions are open (|b| > null_radius
    for a true coefficient null, |rho| < rho_null_bound for a true
    autoregression alternative), so the exponent's infimum sits on the boundary.
    """
    coef = spec.coefficient_of_hypothesis(hypothesis)
    if coef is None:
        value, value0, bound = abs(theta.rho), abs(theta0.rho), spec.rho_null_bound
        alternative_true = value0 >= bound
    else:
        value, value0, bound = abs(theta.beta[coef]), abs(theta0.beta[coef]), spec.null_radius
        alternative_true = value0 > bound
    return bool(value <= bound if alternative_true else value >= bound)


def criterion_5_exponent_sanity(ctx: AcceptanceContext) -> CriterionResult:
    cfg = ctx.cfg
    n_max = cfg.n_grid[-1]
    ensemble = ctx.ensemble(n_max)
    theta0 = cfg.params_for(cfg.m_for(n_max))
    moments = quadratic_limits(theta0.beta, theta0.beta, ensemble.design)
    h_at_truth = kl_divergence_rate(theta0, theta0, moments)
    exponent = ctx.exponent
    argmin = exponent.argmin
    h_at_argmin = kl_divergence_rate(
        argmin, theta0, quadratic_limits(argmin.beta, theta0.beta, ensemble.design)
    )
    attained = abs(h_at_argmin - exponent.value) <= 1e-12
    wrong = _on_wrong_side(argmin, theta0, ensemble.spec, exponent.argmin_hypothesis)
    decay = ctx.decay_fits()
    slope = decay["mfdr_fit"].slope
    ok = (
        h_at_truth == 0.0
        and exponent.value >= -1e-9
        and attained
        and wrong
        and (decay["mfdr_fit"].degenerate or slope <= 0)
    )
    return CriterionResult(
        5,
        "divergence rate and exponent sanity",
        ok,
        f"h(theta0)={h_at_truth}, J={exponent.value:.6f}, |h(argmin)-J|="
        f"{abs(h_at_argmin - exponent.value):.2e}, argmin wrong on hypothesis "
        f"{exponent.argmin_hypothesis}: {wrong}, slope+J={slope + exponent.value:.2e} (informational)",
    )


# ---------------------------------------------------------------------------
# criterion 6: alpha control via penalty calibration
# ---------------------------------------------------------------------------

def criterion_6_alpha_control(ctx: AcceptanceContext, target: float = 0.1) -> CriterionResult:
    cfg = ctx.cfg
    ok = True
    betas = []
    details = []
    proportions = ctx.ensemble(cfg.n_grid[0]).proportions
    lo, hi = feasible_alpha(proportions.alt_share, proportions.signal_group_share)
    if not lo < target < hi:
        return CriterionResult(
            6, "alpha control", False, f"target {target} outside feasible interval (0, {hi:.3f})"
        )
    for n in cfg.n_grid:
        result = calibrate_penalty(
            target,
            ctx.ensemble(n),
            tolerance=cfg.calibration_tolerance,
            max_iterations=cfg.calibration_max_iterations,
        )
        achieved = math.nan if result.achieved is None else result.achieved
        if result.infeasible or abs(achieved - target) > cfg.calibration_tolerance:
            ok = False
        betas.append(result.beta_hat)
        details.append(f"n={n}: beta={result.beta_hat:.4f}, mpbfdr={achieved:.4f}")
    slack = 0.05  # tolerance in the rate maps to roughly this much penalty near the root
    if any(b2 > b1 + slack for b1, b2 in zip(betas, betas[1:])):
        ok = False
    return CriterionResult(6, "alpha control", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: reject-everything limit of the marginal rule
# ---------------------------------------------------------------------------

def criterion_7_reject_all_limit(ctx: AcceptanceContext) -> CriterionResult:
    cfg = ctx.cfg
    n = cfg.n_grid[-1]
    ensemble = ctx.ensemble(n)
    report = ensemble.frequentist(0.0, rule="all_reject")
    target = ensemble.proportions.null_share
    value = report.pbfdr if report.pbfdr is not None else math.nan
    ok = abs(value - target) <= 0.05
    return CriterionResult(
        7,
        "reject-all limit of the marginal rule",
        ok,
        f"pbfdr={value:.4f} vs null share {target:.4f} at n={n} (tolerance 0.05)",
    )


# ---------------------------------------------------------------------------
# criterion 8: monotone rate curve under common random numbers
# ---------------------------------------------------------------------------

def criterion_8_monotone_curve(ctx: AcceptanceContext, n: int | None = None) -> CriterionResult:
    cfg = ctx.cfg
    n = n if n is not None else cfg.n_grid[-2]
    grid = [k / 10 for k in range(10)]
    curve = mpbfdr_curve(ctx.ensemble(n), grid)
    values = [p.value for p in curve]
    if any(v is None for v in values):
        return CriterionResult(
            8, "monotone curve", False, f"conditioning event empty at some penalty: {values}"
        )
    ok = all(b <= a for a, b in zip(values, values[1:]))
    return CriterionResult(
        8,
        "monotone curve",
        ok,
        f"n={n}, mpbfdr over penalties 0.0..0.9: " + ", ".join(f"{v:.4f}" for v in values),
    )


# ---------------------------------------------------------------------------
# criterion 9: exact arithmetic spot checks
# ---------------------------------------------------------------------------

def criterion_9_exact_suite() -> CriterionResult:
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(3)

    # antisymmetry of the log likelihood ratio
    cfg = ScenarioConfig(n_grid=(40, 80, 120), replicates=1)
    design = design_for(cfg, 40)
    theta0 = cfg.params_for(cfg.m_for(40))
    data = simulate(theta0, design, 40, seed=1)
    for _ in range(25):
        theta = Ar1Params(
            rho=float(rng.uniform(-0.9, 0.9)),
            sigma2=float(rng.uniform(0.3, 3.0)),
            beta=rng.normal(0, 1, theta0.beta.size),
        )
        forward = log_likelihood_ratio(theta, theta0, data)
        backward = log_likelihood_ratio(theta0, theta, data)
        if abs(forward + backward) > 1e-10 * max(1.0, abs(forward)):
            problems.append("log likelihood ratio antisymmetry")
            break

    # singleton groups make the joint and marginal probabilities identical
    spec = TestSpec(num_covariates=3)
    ind = PosteriorIndicators(rng.random((64, spec.num_hypotheses)) < 0.4, spec)
    singles = GroupStructure.singletons(spec.num_hypotheses)
    any_config = DecisionConfig(rng.random(spec.num_hypotheses) < 0.5)
    if not np.array_equal(
        joint_correct_probs(ind, singles, any_config), marginal_probs(ind)
    ):
        problems.append("singleton joint probabilities differ from marginals")

    # denominator guards: degenerate configurations never divide by zero
    v = np.array([0.9, 0.8, 0.1])
    w = v.copy()
    none_rejected = posterior_rates(v, w, DecisionConfig.all_accept(3))
    all_rejected = posterior_rates(v, w, DecisionConfig.all_reject(3))
    if none_rejected.fdr_xn != 0.0 or all_rejected.fnr_xn != 0.0:
        problems.append("denominator guard")

    # frozen arithmetic: posterior rates on a hand example
    report = posterior_rates(v, w, DecisionConfig([True, True, False]))
    if not (math.isclose(report.fdr_xn, 0.15) and math.isclose(report.fnr_xn, 0.1)):
        problems.append("posterior rate arithmetic")

    # frozen arithmetic: divergence rate with only the variance changed
    moments_zero = quadratic_limits(
        np.zeros(theta0.beta.size), np.zeros(theta0.beta.size), design
    )
    h = kl_divergence_rate(
        Ar1Params(0.0, 2.0, np.zeros(theta0.beta.size)),
        Ar1Params(0.0, 1.0, np.zeros(theta0.beta.size)),
        moments_zero,
    )
    if abs(h - (0.5 * math.log(2.0) - 0.25)) > 1e-12:
        problems.append("divergence rate closed form")

    # exact exponential input recovers its decay slope
    fit = rate_fit("synthetic", [math.exp(-0.1 * n) for n in (100, 200, 400)], (100, 200, 400), 0.1)
    if abs(fit.slope + 0.1) > 1e-10:
        problems.append("rate fit on exact exponential")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    detail = "all exact spot checks hold" if not problems else "; ".join(problems)
    return CriterionResult(9, "exact arithmetic suite", ok, f"{detail} ({elapsed:.1f}s)")


CRITERIA = {
    1: lambda ctx: criterion_1_oracle_equivalence(),
    2: criterion_2_consistency,
    3: criterion_3_error_decay,
    4: criterion_4_equipartition,
    5: criterion_5_exponent_sanity,
    6: criterion_6_alpha_control,
    7: criterion_7_reject_all_limit,
    8: criterion_8_monotone_curve,
    9: lambda ctx: criterion_9_exact_suite(),
}


def run_all(ctx: AcceptanceContext | None = None, numbers=None) -> list[CriterionResult]:
    ctx = ctx or AcceptanceContext()
    wanted = sorted(CRITERIA) if numbers is None else sorted(numbers)
    return [CRITERIA[number](ctx) for number in wanted]
