"""Config-driven experiment orchestration.

A scenario fixes the generating parameters, the prior, the hypothesis family,
the covariate-count growth rule across a grid of sample sizes, and the
replication budget.  Every random stream is derived from
(master_seed, n, replicate_id, stage), so results are bit-identical no matter
how the replicate map is parallelized, and any single replicate can be
regenerated in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _package_version
from ._blas import blas_version
from .calibration import CalibrationResult, CurvePoint, calibrate_penalty
from .decisions import (
    OptimizerConfig,
    PosteriorIndicators,
    additive_rule_at_penalty,
    alternative_indicators,
    joint_correct_probs,
    marginal_probs,
    optimize_decisions,
)
from .error_rates import (
    RATE_FIELDS,
    FrequentistErrorReport,
    PosteriorErrorReport,
    RateFit,
    error_shares,
    frequentist_rates,
    posterior_rates,
    rate_fit,
)
from .exceptions import InvalidSpec
from .hypotheses import (
    DecisionConfig,
    GroupStructure,
    TestSpec,
    bit_string,
    build_groups,
    check_group_rule,
    connected_components,
    read_group_file,
    truth_from_params,
    truth_proportions,
)
from .model_ar1 import (
    Ar1Params,
    CovariateDesign,
    Dataset,
    ErrorExponent,
    PriorConfig,
    _floats_per_chain,
    check_design_rule,
    estimate_error_exponent,
    generate_design,
    gibbs_sample,
    simulate,
)

# stage tags for seed derivation
_STAGE_DESIGN = 0
_STAGE_SIMULATE = 1
_STAGE_GIBBS = 2

# Floats that one sampling batch may hold at once (32 MiB): per chain its
# draws, a sigma2 per draw and a basis; a batch of more chains is split.
BATCH_FLOAT_BUDGET = 2**22

# a replicate, its decision, and then its (fdp, fnp, posterior report) row
REPLICATE_CSV_COLUMNS = ("replicate_id", "n", "beta", "d_hat_bits", "fdp", "fnp",
                         *(f.name for f in fields(PosteriorErrorReport)))

RATE_FIT_METRICS = ("mpbfdr", "mpbfnr", "pbfdr", "pbfnr")


def _known_keys(cls, payload: dict, what: str) -> dict:
    """``payload``, after checking that every key names a field of dataclass ``cls``."""
    unknown = set(payload) - set(cls.__dataclass_fields__)
    if unknown:
        raise InvalidSpec(f"unknown {what} keys: {sorted(unknown)}")
    return payload


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool,
          "PriorConfig": PriorConfig, "None": type(None)}


def _admits(annotation: str, value) -> bool:
    """Whether ``value`` fits a ``ScenarioConfig`` annotation such as ``float | None``.

    A bool is no number, and a ``tuple`` field is a list of integers.
    """
    if annotation == "tuple":
        return isinstance(value, (list, tuple)) and all(_admits("int", v) for v in value)
    if isinstance(value, bool):
        return annotation == "bool"
    return any(isinstance(value, _KINDS[kind]) for kind in annotation.split(" | "))


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one experiment end to end."""

    n_grid: tuple = (250, 500, 1000, 2000)
    growth: str = "fixed_m"  # fixed_m | sublinear | ultra
    growth_exponent: float = 0.5  # sublinear: m_n = ceil(n ** a), a < 1
    growth_coefficient: float = 0.005  # ultra: m_n = ceil(c * n * log n)
    num_covariates: int = 10
    rho0: float = 0.5
    sigma0_sq: float = 1.0
    active_indices: tuple = (1, 5, 9)
    active_magnitude: float = 1.5
    null_radius: float = 0.1
    rho_null_bound: float = 1.0
    include_rho_test: bool = True
    design_generator: str = "iid_gaussian_bounded"
    design_scale: float = 1.0
    prior: PriorConfig = field(default_factory=PriorConfig)
    group_threshold: float = 0.5
    group_max_size: int = 5
    group_file: str | None = None
    penalty: float = 0.5
    additive_cost: float = 1.0
    target_alpha: float | None = None
    calibration_tolerance: float = 0.03
    calibration_max_iterations: int = 30
    replicates: int = 200
    num_draws: int = 4000
    burn_in: int = 1000  # checked, but unread: the sampler needs no burn-in
    master_seed: int = 20260809
    workers: int = 0  # 0 = all usable cores

    def __post_init__(self):
        if isinstance(self.prior, dict):
            self.prior = PriorConfig(**_known_keys(PriorConfig, self.prior, "prior"))
        for f in fields(self):
            if not _admits(f.type, getattr(self, f.name)):
                expected = {"tuple": "a list of integers",
                            "PriorConfig": "a mapping of prior settings"}.get(f.type, f.type)
                raise InvalidSpec(f"{f.name} must be {expected}, not {getattr(self, f.name)!r}")
        self.n_grid = tuple(int(n) for n in self.n_grid)
        self.active_indices = tuple(int(i) for i in self.active_indices)
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidSpec("n_grid must be non-empty and strictly increasing")
        if self.growth not in ("fixed_m", "sublinear", "ultra"):
            raise InvalidSpec(f"unknown growth rule {self.growth!r}")
        if self.growth == "sublinear" and not 0.0 < self.growth_exponent < 1.0:
            raise InvalidSpec("sublinear growth exponent must lie in (0, 1)")
        if self.replicates < 1:
            raise InvalidSpec("need at least one replicate")
        if self.master_seed < 0:
            raise InvalidSpec("master_seed must be non-negative")
        if not 0.0 <= self.penalty < 1.0:
            raise InvalidSpec("penalty must lie in [0, 1)")
        if not self.additive_cost > 0:
            raise InvalidSpec("additive_cost must be positive")
        if self.target_alpha is not None and not 0.0 < self.target_alpha < 1.0:
            raise InvalidSpec("target_alpha must lie strictly inside (0, 1)")
        if not self.calibration_tolerance > 0:
            raise InvalidSpec("calibration_tolerance must be positive")
        if self.calibration_max_iterations < 1:
            raise InvalidSpec("calibration_max_iterations must be at least 1")
        if self.num_draws < 1 or self.burn_in < 0:
            raise InvalidSpec("need num_draws >= 1 and burn_in >= 0")
        if self.workers < 0:
            raise InvalidSpec("workers must be non-negative (0 = all usable cores)")
        m_min = self.m_for(self.n_grid[0])
        if any(not 0 <= i <= m_min for i in self.active_indices):
            raise InvalidSpec("active indices must fit the smallest covariate count on the grid")
        # the checks each value meets where it is used, run before anything is generated
        self.spec_for(m_min)
        self.params_for(m_min)
        check_design_rule(self.design_generator, self.design_scale)
        check_group_rule(self.group_threshold, self.group_max_size)
        if self.growth == "ultra" and self.prior.family == "independent_gaussian":
            warnings.warn(
                "ultra growth with an independent Gaussian coefficient prior: the "
                "summed coefficient scales are unbounded, so the decay-rate guarantees "
                "do not cover this combination",
                stacklevel=2,
            )

    def m_for(self, n: int) -> int:
        if self.growth == "fixed_m":
            return self.num_covariates
        if self.growth == "sublinear":
            return max(1, math.ceil(n**self.growth_exponent))
        return max(1, math.ceil(self.growth_coefficient * n * math.log(n)))

    def spec_for(self, num_covariates: int) -> TestSpec:
        return TestSpec(
            num_covariates=num_covariates,
            include_rho_test=self.include_rho_test,
            null_radius=self.null_radius,
            rho_null_bound=self.rho_null_bound,
        )

    def params_for(self, num_covariates: int) -> Ar1Params:
        beta = np.zeros(num_covariates + 1)
        for i in self.active_indices:
            beta[i] = self.active_magnitude
        return Ar1Params(rho=self.rho0, sigma2=self.sigma0_sq, beta=beta)

    def optimizer_config(self) -> OptimizerConfig:
        """Read only by ``bench/``; goes with ``OptimizerConfig``."""
        return OptimizerConfig()

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["n_grid"] = list(self.n_grid)
        payload["active_indices"] = list(self.active_indices)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        return cls(**_known_keys(cls, payload, "config"))

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    def scenario_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def seed_for(master_seed: int, n: int, replicate_id: int, stage: int) -> np.random.SeedSequence:
    """Schedule-independent stream derivation; ids, not worker order, decide."""
    return np.random.SeedSequence([master_seed, n, replicate_id, stage])


def design_for(cfg: ScenarioConfig, n: int) -> CovariateDesign:
    """The (shared) covariate design for sample size n."""
    return generate_design(
        n,
        cfg.m_for(n),
        generator=cfg.design_generator,
        scale=cfg.design_scale,
        seed=seed_for(cfg.master_seed, n, 0, _STAGE_DESIGN),
    )


def groups_for(cfg: ScenarioConfig, design: CovariateDesign, spec: TestSpec) -> GroupStructure:
    if cfg.group_file is not None:
        return read_group_file(cfg.group_file, spec.num_hypotheses)
    return build_groups(design, spec, cfg.group_threshold, cfg.group_max_size)


@dataclass(frozen=True, eq=False)
class ReplicatePosterior:
    """Cached posterior summary of one replicate: all later stages reuse it."""

    n: int
    replicate_id: int
    indicators: PosteriorIndicators
    marginals: np.ndarray


@dataclass(frozen=True)
class ReplicateFailure:
    """A replicate that raised; kept for the manifest, excluded from means."""

    n: int
    replicate_id: int
    error: str

    def __str__(self) -> str:
        return f"replicate {self.replicate_id} at n={self.n}: {self.error}"


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    """A replicate's decision with its (fdp, fnp, report) row for ``frequentist_rates``."""

    config: DecisionConfig
    fdp: float | None
    fnp: float | None
    report: PosteriorErrorReport


def simulate_replicate(cfg: ScenarioConfig, design: CovariateDesign, replicate_id: int) -> Dataset:
    """The simulated series of one replicate on its sample size's design."""
    n = design.n_obs
    return simulate(cfg.params_for(design.num_covariates), design, n,
                    seed=seed_for(cfg.master_seed, n, replicate_id, _STAGE_SIMULATE))


def _failure(n: int, replicate_id: int, exc: Exception) -> ReplicateFailure:
    return ReplicateFailure(n=n, replicate_id=replicate_id, error=f"{type(exc).__name__}: {exc}")


def _sample_batch(args) -> list[ReplicatePosterior | ReplicateFailure]:
    """simulate -> one batched posterior sample -> alternative indicators, per job.

    ``args`` is (cfg, designs by n, jobs), the jobs being (n, replicate_id)
    pairs whose designs share a width.  A replicate that fails at any step
    fails alone; the chains of the others do not depend on the batch.
    """
    cfg, designs, jobs = args
    results: dict[tuple, ReplicatePosterior | ReplicateFailure] = {}
    simulated, datasets = [], []
    for n, rid in jobs:
        try:
            datasets.append(simulate_replicate(cfg, designs[n], rid))
            simulated.append((n, rid))
        except Exception as exc:  # noqa: BLE001 - a failed replicate must not sink the batch
            results[(n, rid)] = _failure(n, rid, exc)
    if simulated:
        seeds = [seed_for(cfg.master_seed, n, rid, _STAGE_GIBBS) for n, rid in simulated]
        try:
            chains = gibbs_sample(datasets, cfg.prior, num_draws=cfg.num_draws,
                                  seeds=seeds).chains
        except Exception as exc:  # noqa: BLE001 - reported once per replicate of the batch
            chains = [exc] * len(simulated)
        for (n, rid), draws in zip(simulated, chains):
            if isinstance(draws, Exception):
                results[(n, rid)] = _failure(n, rid, draws)
                continue
            try:
                indicators = alternative_indicators(draws, cfg.spec_for(cfg.m_for(n)))
                results[(n, rid)] = ReplicatePosterior(
                    n=n, replicate_id=rid, indicators=indicators,
                    marginals=marginal_probs(indicators),
                )
            except Exception as exc:  # noqa: BLE001 - a failed replicate must not sink the batch
                results[(n, rid)] = _failure(n, rid, exc)
    return [results[job] for job in jobs]


def _batches(cfg: ScenarioConfig, designs: dict, jobs: list) -> list[list]:
    """Split jobs into contiguous batches of one design width each, every
    batch holding at most ``BATCH_FLOAT_BUDGET`` floats of draws, sigma2 and
    bases."""
    by_width: dict[int, list] = {}
    for job in jobs:
        by_width.setdefault(designs[job[0]].z.shape[1], []).append(job)
    batches = []
    for width, group in by_width.items():
        fits = BATCH_FLOAT_BUDGET // _floats_per_chain(width, cfg.num_draws)
        count = math.ceil(len(group) / max(1, fits))
        bounds = [len(group) * i // count for i in range(count + 1)]
        batches += [group[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return batches


def build_replicate_posterior(cfg: ScenarioConfig, n: int,
                              replicate_id: int) -> ReplicatePosterior | ReplicateFailure:
    """One replicate regenerated in isolation: a batch of one, with the same bits."""
    (result,) = _sample_batch((cfg, {n: design_for(cfg, n)}, [(n, replicate_id)]))
    return result


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _resolve_workers(cfg_workers: int, override: int | None) -> int:
    """``override`` if given, else ``cfg_workers``; 0 means every usable core."""
    workers = cfg_workers if override is None else override
    if workers < 0:
        raise InvalidSpec("workers must be non-negative (0 = all usable cores)")
    if workers > 0:
        return workers
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def extend_ensembles(ensembles: list, count: int, workers: int) -> list[int]:
    """Bring every ensemble to ``count`` requested replicates in one dispatch.

    The new (n, replicate_id) jobs of all sample sizes are sampled in batches
    (``_batches``), each one ``gibbs_sample`` call, on one process pool (in
    this process when there is one batch).  New replicate ids are appended;
    existing replicates stay untouched.  Returns the chain count of each batch.
    """
    growing = [e for e in ensembles if count > e.attempted]
    if not growing:
        return []
    cfg = growing[0].cfg
    jobs = [(e.n, rid) for e in growing for rid in range(e.attempted, count)]
    designs = {e.n: e.design for e in growing}
    for design in designs.values():
        design.ztz  # cached here, so it is pickled with the design instead of recomputed per batch
    items = [(cfg, {n: designs[n] for n in dict.fromkeys(n for n, _ in batch)}, batch)
             for batch in _batches(cfg, designs, jobs)]
    by_n = {e.n: e for e in growing}
    for part in _parallel_map(_sample_batch, items, workers):
        for item in part:  # batches are contiguous, so each n's replicates arrive in id order
            ensemble = by_n[item.n]
            if isinstance(item, ReplicateFailure):
                ensemble.failures.append(item)
            else:
                ensemble.replicates.append(item)
    for ensemble in growing:
        ensemble._decision_cache.clear()
        if not ensemble.replicates:
            raise InvalidSpec(f"every replicate failed at n={ensemble.n}: {ensemble.failures[:3]}")
    return [len(batch) for _, _, batch in items]


class DecisionEnsemble:
    """Replicate posteriors for one sample size, reusable across penalties.

    This is the common-random-numbers device: the datasets and posterior draws
    are sampled once, and every penalty (or decision rule) is evaluated on the
    same cached indicator sets.  The joint tables and component profiles of a
    replicate are built at its first decision and kept with its indicators,
    so every later penalty and rule reads them.  ``grow`` doubles the
    replicate budget by appending new replicate ids, leaving existing
    replicates untouched.  ``replicates=0`` builds the ensemble empty, for
    ``extend_ensembles`` to sample together with others.
    """

    def __init__(self, cfg: ScenarioConfig, n: int, replicates: int | None = None,
                 workers: int | None = None):
        self.cfg = cfg
        self.n = n
        self.workers = _resolve_workers(cfg.workers, workers)
        m = cfg.m_for(n)
        self.spec = cfg.spec_for(m)
        self.design = design_for(cfg, n)
        self.groups = groups_for(cfg, self.design, self.spec)
        self.partition = connected_components(self.groups)
        self.truth = truth_from_params(cfg.params_for(m), self.spec)
        self.proportions = truth_proportions(self.groups, self.truth)
        self.replicates: list[ReplicatePosterior] = []
        self.failures: list[ReplicateFailure] = []
        self._decision_cache: dict[tuple, list[MethodOutcome]] = {}
        extend_ensembles([self], cfg.replicates if replicates is None else replicates, self.workers)

    @property
    def replicate_count(self) -> int:
        return len(self.replicates)

    @property
    def attempted(self) -> int:
        """Replicate ids sampled so far, the failed ones included."""
        return len(self.replicates) + len(self.failures)

    def grow(self) -> None:
        extend_ensembles([self], 2 * self.attempted, self.workers)

    def _decide_one(self, rep: ReplicatePosterior, rule: str, penalty: float) -> MethodOutcome:
        if rule == "nonmarginal":
            config = optimize_decisions(rep.indicators, self.groups, self.partition, penalty)
        elif rule == "additive":
            config = additive_rule_at_penalty(rep.marginals, penalty)
        elif rule == "all_reject":
            config = DecisionConfig.all_reject(self.spec.num_hypotheses)
        else:
            raise InvalidSpec(f"unknown decision rule {rule!r}")
        joint = joint_correct_probs(rep.indicators, self.groups, config)
        return MethodOutcome(config, *error_shares(config.bits, self.truth.alt_true),
                             posterior_rates(rep.marginals, joint, config))

    def decide(self, penalty: float, rule: str = "nonmarginal") -> list[MethodOutcome]:
        key = (rule, round(float(penalty), 15))
        if key not in self._decision_cache:
            self._decision_cache[key] = [
                self._decide_one(rep, rule, penalty) for rep in self.replicates
            ]
        return self._decision_cache[key]

    def frequentist(self, penalty: float, rule: str = "nonmarginal") -> FrequentistErrorReport:
        return frequentist_rates([(o.fdp, o.fnp, o.report) for o in self.decide(penalty, rule)])

    def evaluate(self, penalty: float, objective: str = "mpbfdr",
                 rule: str = "nonmarginal") -> CurvePoint:
        if objective not in RATE_FIT_METRICS:
            raise InvalidSpec(f"unknown calibration objective {objective!r}")
        report = self.frequentist(penalty, rule)
        return CurvePoint(penalty=float(penalty), value=getattr(report, objective),
                          se=report.standard_errors[objective],
                          n_conditioning=getattr(report, RATE_FIELDS[objective]))

    def consistency_fraction(self, penalty: float, rule: str = "nonmarginal") -> tuple[float, float]:
        """Share of replicates whose decision equals the truth, with its MC error."""
        outcomes = self.decide(penalty, rule)
        hits = np.array([o.config == self.truth.true_config for o in outcomes], dtype=float)
        p = float(hits.mean())
        se = math.sqrt(p * (1.0 - p) / hits.size)
        return p, se


# ---------------------------------------------------------------------------
# scenario-level artifacts
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Reproducibility record: hashes, seeds, versions, outputs, timings.

    ``sampling`` is the posterior dispatch: the number of ``gibbs_sample``
    batches and the chains in each.  Every replicate's streams follow from
    ``master_seed`` by ``seed_for``.  Wall-clock entries are informational;
    every other field is a pure function of the configuration.
    """

    scenario_hash: str
    master_seed: int
    n_grid: list
    versions: dict
    outputs: list
    wallclock: dict
    failures: list
    sampling: dict

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True))


def write_exponent(out: Path, exponent: ErrorExponent, n: int) -> dict:
    """Write ``exponent.json``, the record of an error exponent computed at
    sample size n, and return the record."""
    payload = {
        "value": exponent.value,
        "argmin_hypothesis": exponent.argmin_hypothesis,
        "per_hypothesis": exponent.per_hypothesis.tolist(),
        "argmin": {
            "rho": exponent.argmin.rho,
            "sigma2": exponent.argmin.sigma2,
            "beta": exponent.argmin.beta.tolist(),
        },
        "n": n,
    }
    (out / "exponent.json").write_text(json.dumps(payload, indent=2))
    return payload


def rate_fits(reports: dict, exponent: float) -> dict[tuple[str, str], RateFit]:
    """Decay fits of ``RATE_FIT_METRICS`` for every rule reported at three or more sizes.

    ``reports`` maps (n, rule) to a ``FrequentistErrorReport``; an undefined
    rate enters the fit as zero.
    """
    fits: dict[tuple[str, str], RateFit] = {}
    for rule in dict.fromkeys(rule for _, rule in reports):
        ns = sorted(n for n, r in reports if r == rule)
        if len(ns) >= 3:
            for metric in RATE_FIT_METRICS:
                values = [getattr(reports[(n, rule)], metric) for n in ns]
                fits[(rule, metric)] = rate_fit(metric, values, ns, exponent)
    return fits


def _cell(value: float | None) -> str:
    """A CSV field of a rounded float; empty for an undefined one."""
    return "" if value is None else f"{value:.12g}"


def write_reports(out: Path, reports: dict, fits: dict[tuple[str, str], RateFit],
                  m_for) -> list[str]:
    """Write the long table ``rates.csv``, every report of ``reports`` in its
    order, and ``rate_fits.json`` when there are ``fits``; return the names
    written.  ``m_for`` maps n to m_n."""
    names = ["rates.csv"]
    with open(out / "rates.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m_n", "method", "metric", "value", "se", "n_conditioning",
                         "n_replicates"])
        for (n, rule), report in reports.items():
            for metric, value, se, count in report.rows():
                writer.writerow([n, m_for(n), rule, metric, _cell(value), _cell(se), count,
                                 report.n_replicates])
    if fits:
        (out / "rate_fits.json").write_text(json.dumps(
            {f"{rule}.{metric}": fit.payload() for (rule, metric), fit in fits.items()},
            indent=2, sort_keys=True))
        names.append("rate_fits.json")
    return names


def write_replicate_csv(path, ensemble: DecisionEnsemble, outcomes: list[MethodOutcome],
                        penalty: float) -> None:
    """One ``REPLICATE_CSV_COLUMNS`` row per replicate; an undefined fdp or fnp is empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLICATE_CSV_COLUMNS)
        for rep, outcome in zip(ensemble.replicates, outcomes):
            rates = (outcome.fdp, outcome.fnp, *astuple(outcome.report))
            writer.writerow([rep.replicate_id, rep.n, _cell(penalty), bit_string(outcome.config.bits),
                             *("" if x is None else repr(float(x)) for x in rates)])


def write_calibrations(out: Path, scenario: Scenario,
                       target: float) -> dict[int, CalibrationResult]:
    """Calibrate the penalty to ``target`` at every n of the grid, write each
    bisection trace to ``calibration_n{n}.csv``, and return the results by n."""
    results = {}
    for n in scenario.cfg.n_grid:
        result = results[n] = scenario.calibrate(n, target)
        with open(out / f"calibration_n{n}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "beta_lo", "beta_hi", "beta_mid", "mpbfdr", "se", "n_conditioning"]
            )
            for step in result.history:
                values = (step.beta_lo, step.beta_hi, step.beta_mid, step.value, step.se)
                writer.writerow([step.iteration, *map(_cell, values), step.n_conditioning])
    return results


class Scenario:
    """The sample-size grid of one config and every quantity derived from it.

    Each quantity is computed at its first read and kept: ``ensembles`` in one
    ``extend_ensembles`` dispatch, ``reports`` under each rule at its
    ``penalties`` entry, ``exponent`` on ``n_max``'s design, and ``fits`` of
    the reports against it.  A budget that ``calibrate`` grows stays with its
    ensemble; the reports keep the replicates they were computed on.
    ``run_scenario`` writes all of it and sets ``manifest``.
    """

    def __init__(self, cfg: ScenarioConfig, workers: int | None = None):
        self.cfg = cfg
        self.workers = _resolve_workers(cfg.workers, workers)
        self.penalties = {
            "nonmarginal": cfg.penalty,
            "additive": cfg.additive_cost / (1.0 + cfg.additive_cost),
        }
        self.batch_chains: list[int] = []  # chains per gibbs_sample batch of the dispatch
        self.manifest: RunManifest | None = None
        self._ensembles: dict[int, DecisionEnsemble] | None = None

    @property
    def ensembles(self) -> dict[int, DecisionEnsemble]:
        if self._ensembles is None:
            ensembles = {n: DecisionEnsemble(self.cfg, n, replicates=0, workers=self.workers)
                         for n in self.cfg.n_grid}
            self.batch_chains = extend_ensembles(list(ensembles.values()), self.cfg.replicates,
                                                 self.workers)
            self._ensembles = ensembles
        return self._ensembles

    @property
    def failures(self) -> list[ReplicateFailure]:
        """The replicates that failed so far; reading them samples nothing."""
        return [f for ensemble in (self._ensembles or {}).values() for f in ensemble.failures]

    @cached_property
    def reports(self) -> dict[tuple[int, str], FrequentistErrorReport]:
        return {(n, rule): ensemble.frequentist(penalty, rule)
                for n, ensemble in self.ensembles.items()
                for rule, penalty in self.penalties.items()}

    @cached_property
    def exponent(self) -> ErrorExponent:
        ensemble = self.ensembles[self.cfg.n_grid[-1]]
        return estimate_error_exponent(self.cfg.params_for(ensemble.spec.num_covariates),
                                       ensemble.spec, ensemble.design)

    @cached_property
    def fits(self) -> dict[tuple[str, str], RateFit]:
        return rate_fits(self.reports, self.exponent.value)

    def calibrate(self, n: int, target: float) -> CalibrationResult:
        """The penalty at which the ensemble at ``n`` reaches ``target``, under
        the config's tolerance and iteration cap."""
        return calibrate_penalty(target, self.ensembles[n], tolerance=self.cfg.calibration_tolerance,
                                 max_iterations=self.cfg.calibration_max_iterations)


def run_scenario(cfg: ScenarioConfig, out_dir, workers: int | None = None) -> Scenario:
    """Run the full grid and persist plot-ready artifacts.

    Per sample size: replicate CSVs for both decision rules, and their
    aggregates in one ``rates.csv``; across sizes: decay-rate fits against the
    estimated error exponent, plus penalty calibration traces when a target
    level is set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out / "config.json")
    scenario = Scenario(cfg, workers)
    wallclock: dict[str, float] = {}
    outputs: list[str] = []

    t0 = time.perf_counter()
    ensembles = scenario.ensembles
    wallclock["posterior_sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for n, rule in scenario.reports:
        penalty = scenario.penalties[rule]
        path = out / f"replicates_{rule}_n{n}.csv"
        write_replicate_csv(path, ensembles[n], ensembles[n].decide(penalty, rule), penalty)
        outputs.append(path.name)
    wallclock["decisions_and_rates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_exponent(out, scenario.exponent, cfg.n_grid[-1])
    outputs.append("exponent.json")
    wallclock["error_exponent"] = time.perf_counter() - t0

    outputs += write_reports(out, scenario.reports, scenario.fits, cfg.m_for)

    infeasible = []
    if cfg.target_alpha is not None:
        t0 = time.perf_counter()
        for n, result in write_calibrations(out, scenario, cfg.target_alpha).items():
            outputs.append(f"calibration_n{n}.csv")
            if result.infeasible:
                infeasible.append(f"calibration at n={n}: {result.reason}")
        wallclock["calibration"] = time.perf_counter() - t0

    scenario.manifest = RunManifest(
        scenario_hash=cfg.scenario_hash(),
        master_seed=cfg.master_seed,
        n_grid=list(cfg.n_grid),
        versions={
            "package": _package_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_version(),
        },
        outputs=sorted(outputs),
        wallclock=wallclock,
        # read after calibration, which may have grown an ensemble by failing replicates
        failures=[str(failure) for failure in scenario.failures] + infeasible,
        sampling={"batches": len(scenario.batch_chains), "chains": scenario.batch_chains},
    )
    scenario.manifest.to_json(out / "manifest.json")
    return scenario


def aggregate_replicate_csv(path) -> FrequentistErrorReport:
    """Recompute the replicate-averaged report from a persisted replicate CSV.

    The empty fdp / fnp fields mark replicates outside the respective
    conditioning events, so the aggregation semantics survive the round trip.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(REPLICATE_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InvalidSpec(f"replicate CSV misses columns: {sorted(missing)}")
        for row in reader:
            fdp, fnp = (None if row[name] == "" else float(row[name]) for name in ("fdp", "fnp"))
            report = PosteriorErrorReport(*(float(row[f.name]) for f in fields(PosteriorErrorReport)))
            rows.append((fdp, fnp, report))
    if not rows:
        raise InvalidSpec(f"replicate CSV {path} is empty")
    return frequentist_rates(rows)
