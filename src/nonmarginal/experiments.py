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
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _package_version
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
    FrequentistErrorReport,
    PosteriorErrorReport,
    RateFit,
    conditional_report,
    false_discovery_proportion,
    false_nondiscovery_proportion,
    frequentist_rates,
    posterior_rates,
    rate_fit,
)
from .exceptions import InvalidSpec
from .hypotheses import (
    DecisionConfig,
    GroupStructure,
    TestSpec,
    build_groups,
    connected_components,
    read_group_file,
    truth_from_params,
    truth_proportions,
)
from .model_ar1 import (
    Ar1Params,
    CovariateDesign,
    ErrorExponent,
    PriorConfig,
    estimate_error_exponent,
    generate_design,
    gibbs_sample,
    simulate,
)

# stage tags for seed derivation
_STAGE_DESIGN = 0
_STAGE_SIMULATE = 1
_STAGE_GIBBS = 2

REPLICATE_CSV_COLUMNS = (
    "replicate_id",
    "n",
    "beta",
    "d_hat_bits",
    "fdp",
    "fnp",
    "fdr_xn",
    "fnr_xn",
    "mfdr_xn",
    "mfnr_xn",
)

RATE_FIT_METRICS = ("mpbfdr", "mpbfnr", "pbfdr", "pbfnr")


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
    burn_in: int = 1000
    thinning: int = 1
    master_seed: int = 20260809
    workers: int = 0  # 0 = all available cores

    def __post_init__(self):
        self.n_grid = tuple(int(n) for n in self.n_grid)
        self.active_indices = tuple(int(i) for i in self.active_indices)
        if isinstance(self.prior, dict):
            self.prior = PriorConfig(**self.prior)
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
        m_min = self.m_for(self.n_grid[0])
        if any(not 0 <= i <= m_min for i in self.active_indices):
            raise InvalidSpec("active indices must fit the smallest covariate count on the grid")
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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise InvalidSpec(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

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
    config: DecisionConfig
    report: PosteriorErrorReport


def _posterior_worker(args) -> ReplicatePosterior | ReplicateFailure:
    cfg_dict, n, replicate_id = args
    cfg = ScenarioConfig.from_dict(cfg_dict)
    try:
        return build_replicate_posterior(cfg, n, replicate_id)
    except Exception as exc:  # noqa: BLE001 - a failed replicate must not sink the batch
        return ReplicateFailure(n=n, replicate_id=replicate_id, error=f"{type(exc).__name__}: {exc}")


def build_replicate_posterior(cfg: ScenarioConfig, n: int, replicate_id: int) -> ReplicatePosterior:
    """simulate -> posterior sample -> alternative indicators, one replicate."""
    m = cfg.m_for(n)
    spec = cfg.spec_for(m)
    design = design_for(cfg, n)
    params = cfg.params_for(m)
    data = simulate(params, design, n, seed=seed_for(cfg.master_seed, n, replicate_id, _STAGE_SIMULATE))
    draws = gibbs_sample(
        data,
        cfg.prior,
        num_draws=cfg.num_draws,
        burn_in=cfg.burn_in,
        thinning=cfg.thinning,
        seed=seed_for(cfg.master_seed, n, replicate_id, _STAGE_GIBBS),
    )
    indicators = alternative_indicators(draws, spec)
    return ReplicatePosterior(
        n=n,
        replicate_id=replicate_id,
        indicators=indicators,
        marginals=marginal_probs(indicators),
    )


def _parallel_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (8 * workers))))


def _resolve_workers(cfg_workers: int, override: int | None) -> int:
    if override is not None:
        return max(1, override)
    if cfg_workers > 0:
        return cfg_workers
    return os.cpu_count() or 1


class DecisionEnsemble:
    """Replicate posteriors for one sample size, reusable across penalties.

    This is the common-random-numbers device: the datasets and posterior draws
    are sampled once, and every penalty (or decision rule) is evaluated on the
    same cached indicator sets.  The joint tables and component profiles of a
    replicate are built at its first decision and kept with its indicators,
    so every later penalty and rule reads them.  ``grow`` doubles the
    replicate budget by appending new replicate ids, leaving existing
    replicates untouched.
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
        self._requested = 0
        self._decision_cache: dict[tuple, list[MethodOutcome]] = {}
        self._report_cache: dict[tuple, FrequentistErrorReport] = {}
        self.extend_to(replicates if replicates is not None else cfg.replicates)

    @property
    def replicate_count(self) -> int:
        return len(self.replicates)

    def extend_to(self, count: int) -> None:
        if count <= self._requested:
            return
        jobs = [(self.cfg.to_dict(), self.n, rid) for rid in range(self._requested, count)]
        self._requested = count
        for item in _parallel_map(_posterior_worker, jobs, self.workers):
            if isinstance(item, ReplicateFailure):
                self.failures.append(item)
            else:
                self.replicates.append(item)
        if not self.replicates:
            raise InvalidSpec(f"every replicate failed at n={self.n}: {self.failures[:3]}")
        self._decision_cache.clear()
        self._report_cache.clear()

    def grow(self) -> None:
        self.extend_to(2 * self._requested)

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
        return MethodOutcome(config, posterior_rates(rep.marginals, joint, config))

    def decide(self, penalty: float, rule: str = "nonmarginal") -> list[MethodOutcome]:
        key = (rule, round(float(penalty), 15))
        if key not in self._decision_cache:
            self._decision_cache[key] = [
                self._decide_one(rep, rule, penalty) for rep in self.replicates
            ]
        return self._decision_cache[key]

    def frequentist(self, penalty: float, rule: str = "nonmarginal") -> FrequentistErrorReport:
        key = (rule, round(float(penalty), 15))
        if key not in self._report_cache:
            outcomes = self.decide(penalty, rule)
            self._report_cache[key] = frequentist_rates(
                [(o.config, self.truth, o.report) for o in outcomes]
            )
        return self._report_cache[key]

    def evaluate(self, penalty: float, objective: str = "mpbfdr",
                 rule: str = "nonmarginal") -> CurvePoint:
        if objective not in ("mpbfdr", "pbfdr", "mpbfnr", "pbfnr"):
            raise InvalidSpec(f"unknown calibration objective {objective!r}")
        report = self.frequentist(penalty, rule)
        value = getattr(report, objective)
        se = report.standard_errors[objective]
        count = report.n_conditioning_fdr if objective.endswith("fdr") else report.n_conditioning_fnr
        return CurvePoint(penalty=float(penalty), value=value, se=se, n_conditioning=count)

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

    Wall-clock entries are informational; every other field is a pure function
    of the configuration.
    """

    scenario_hash: str
    master_seed: int
    n_grid: list
    replicate_seeds: dict
    versions: dict
    outputs: list
    wallclock: dict
    failures: list

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True))


def _report_payload(report: FrequentistErrorReport) -> dict:
    return {
        "pfdr": report.pfdr,
        "pfnr": report.pfnr,
        "pbfdr": report.pbfdr,
        "pbfnr": report.pbfnr,
        "mpbfdr": report.mpbfdr,
        "mpbfnr": report.mpbfnr,
        "standard_errors": report.standard_errors,
        "n_replicates": report.n_replicates,
        "n_conditioning_fdr": report.n_conditioning_fdr,
        "n_conditioning_fnr": report.n_conditioning_fnr,
    }


def _fit_payload(fit: RateFit) -> dict:
    def clean(x):
        if isinstance(x, float) and not math.isfinite(x):
            return repr(x)
        return x

    return {
        "metric": fit.metric,
        "ns": list(fit.ns),
        "values": [clean(v) for v in fit.values],
        "normalized_log": [clean(v) for v in fit.normalized_log],
        "slope": clean(fit.slope),
        "intercept": clean(fit.intercept),
        "r_squared": clean(fit.r_squared),
        "exponent_reference": fit.exponent_reference,
        "bound_slack": clean(fit.bound_slack),
        "degenerate": fit.degenerate,
        "n_used": fit.n_used,
    }


def exponent_payload(exponent: ErrorExponent, n: int) -> dict:
    """The ``exponent.json`` record of an error exponent computed at sample size n."""
    return {
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


def write_rate_fits(path, fits: dict[tuple[str, str], RateFit]) -> None:
    Path(path).write_text(
        json.dumps(
            {f"{rule}.{metric}": _fit_payload(fit) for (rule, metric), fit in fits.items()},
            indent=2,
            sort_keys=True,
        )
    )


def write_replicate_csv(path, ensemble: DecisionEnsemble, outcomes: list[MethodOutcome],
                        penalty: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLICATE_CSV_COLUMNS)
        for rep, outcome in zip(ensemble.replicates, outcomes):
            fdp = false_discovery_proportion(outcome.config, ensemble.truth)
            fnp = false_nondiscovery_proportion(outcome.config, ensemble.truth)
            writer.writerow(
                [
                    rep.replicate_id,
                    rep.n,
                    f"{penalty:.12g}",
                    "".join("1" if b else "0" for b in outcome.config.bits),
                    "" if fdp is None else repr(float(fdp)),
                    "" if fnp is None else repr(float(fnp)),
                    repr(float(outcome.report.fdr_xn)),
                    repr(float(outcome.report.fnr_xn)),
                    repr(float(outcome.report.mfdr_xn)),
                    repr(float(outcome.report.mfnr_xn)),
                ]
            )


def write_calibration_trace(path, result: CalibrationResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "beta_lo", "beta_hi", "beta_mid", "mpbfdr", "se", "n_conditioning"]
        )
        for step in result.history:
            writer.writerow(
                [
                    step.iteration,
                    f"{step.beta_lo:.12g}",
                    f"{step.beta_hi:.12g}",
                    f"{step.beta_mid:.12g}",
                    "" if step.value is None else f"{step.value:.12g}",
                    "" if step.se is None else f"{step.se:.12g}",
                    step.n_conditioning,
                ]
            )


@dataclass
class ScenarioResult:
    ensembles: dict
    reports: dict
    fits: dict
    calibrations: dict
    exponent_value: float
    manifest: RunManifest


def run_scenario(cfg: ScenarioConfig, out_dir, workers: int | None = None) -> ScenarioResult:
    """Run the full grid and persist plot-ready artifacts.

    Per sample size: replicate CSVs and aggregate JSON reports for both
    decision rules; across sizes: decay-rate fits against the estimated error
    exponent, plus penalty calibration traces when a target level is set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out / "config.json")
    wallclock: dict[str, float] = {}
    outputs: list[str] = []
    failures: list[str] = []
    rules = ("nonmarginal", "additive")
    penalties = {
        "nonmarginal": cfg.penalty,
        "additive": cfg.additive_cost / (1.0 + cfg.additive_cost),
    }

    ensembles: dict[int, DecisionEnsemble] = {}
    reports: dict[tuple, FrequentistErrorReport] = {}
    t0 = time.perf_counter()
    for n in cfg.n_grid:
        ensembles[n] = DecisionEnsemble(cfg, n, workers=workers)
        failures.extend(str(failure) for failure in ensembles[n].failures)
    wallclock["posterior_sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for n, ensemble in ensembles.items():
        for rule in rules:
            outcomes = ensemble.decide(penalties[rule], rule)
            path = out / f"replicates_{rule}_n{n}.csv"
            write_replicate_csv(path, ensemble, outcomes, penalties[rule])
            outputs.append(path.name)
            report = ensemble.frequentist(penalties[rule], rule)
            reports[(n, rule)] = report
            rpath = out / f"report_{rule}_n{n}.json"
            rpath.write_text(json.dumps(_report_payload(report), indent=2, sort_keys=True))
            outputs.append(rpath.name)
    wallclock["decisions_and_rates"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    n_max = cfg.n_grid[-1]
    exponent = estimate_error_exponent(
        cfg.params_for(cfg.m_for(n_max)), ensembles[n_max].spec, ensembles[n_max].design
    )
    epath = out / "exponent.json"
    epath.write_text(json.dumps(exponent_payload(exponent, n_max), indent=2))
    outputs.append(epath.name)
    wallclock["error_exponent"] = time.perf_counter() - t0

    fits = rate_fits(reports, exponent.value)
    if fits:
        fpath = out / "rate_fits.json"
        write_rate_fits(fpath, fits)
        outputs.append(fpath.name)

    calibrations: dict[int, CalibrationResult] = {}
    if cfg.target_alpha is not None:
        t0 = time.perf_counter()
        for n, ensemble in ensembles.items():
            result = calibrate_penalty(
                cfg.target_alpha,
                ensemble,
                tolerance=cfg.calibration_tolerance,
                max_iterations=cfg.calibration_max_iterations,
            )
            calibrations[n] = result
            tpath = out / f"calibration_n{n}.csv"
            write_calibration_trace(tpath, result)
            outputs.append(tpath.name)
            if result.infeasible:
                failures.append(f"calibration at n={n}: {result.reason}")
        wallclock["calibration"] = time.perf_counter() - t0

    # plot-ready long-format table
    ppath = out / "rates.csv"
    with open(ppath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m_n", "method", "metric", "value", "se"])
        for n in cfg.n_grid:
            for rule in rules:
                report = reports[(n, rule)]
                for metric in ("pfdr", "pfnr", "pbfdr", "pbfnr", "mpbfdr", "mpbfnr"):
                    value = getattr(report, metric)
                    se = report.standard_errors[metric]
                    writer.writerow(
                        [
                            n,
                            cfg.m_for(n),
                            rule,
                            metric,
                            "" if value is None else f"{value:.12g}",
                            "" if se is None else f"{se:.12g}",
                        ]
                    )
    outputs.append(ppath.name)

    manifest = RunManifest(
        scenario_hash=cfg.scenario_hash(),
        master_seed=cfg.master_seed,
        n_grid=list(cfg.n_grid),
        replicate_seeds={
            str(n): [[cfg.master_seed, n, rid] for rid in range(cfg.replicates)]
            for n in cfg.n_grid
        },
        versions={
            "package": _package_version,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        outputs=sorted(outputs),
        wallclock=wallclock,
        failures=failures,
    )
    manifest.to_json(out / "manifest.json")
    return ScenarioResult(
        ensembles=ensembles,
        reports=reports,
        fits=fits,
        calibrations=calibrations,
        exponent_value=exponent.value,
        manifest=manifest,
    )


def aggregate_replicate_csv(path) -> FrequentistErrorReport:
    """Recompute the replicate-averaged report from a persisted replicate CSV.

    The empty fdp / fnp fields mark replicates outside the respective
    conditioning events, so the aggregation semantics survive the round trip.
    """
    fdp, fnp = [], []
    fdr_x, fnr_x, mfdr_x, mfnr_x = [], [], [], []
    total = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(REPLICATE_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise InvalidSpec(f"replicate CSV misses columns: {sorted(missing)}")
        for row in reader:
            total += 1
            if row["fdp"] != "":
                fdp.append(float(row["fdp"]))
                fdr_x.append(float(row["fdr_xn"]))
                mfdr_x.append(float(row["mfdr_xn"]))
            if row["fnp"] != "":
                fnp.append(float(row["fnp"]))
                fnr_x.append(float(row["fnr_xn"]))
                mfnr_x.append(float(row["mfnr_xn"]))
    if total == 0:
        raise InvalidSpec(f"replicate CSV {path} is empty")
    return conditional_report((fdp, fnp, fdr_x, fnr_x, mfdr_x, mfnr_x), total)
