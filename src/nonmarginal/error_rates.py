"""Posterior and frequentist error rates, and decay-rate regression.

Data-conditional rates come in two flavors: the plain posterior false
discovery / non-discovery rates built from marginal alternative probabilities,
and their modified versions built from the joint group-correctness
probabilities.  Replicate-averaged (frequentist) rates condition on the
relevant denominator being positive; empty conditioning events are reported as
undefined (None), never imputed as zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .exceptions import InvalidSpec
from .hypotheses import DecisionConfig, TruthAssignment

RATE_FIELDS = ("pfdr", "pfnr", "pbfdr", "pbfnr", "mpbfdr", "mpbfnr")


def _json_ready(value):
    """``value`` with every non-finite float written as its repr string, so
    that the files a record is written to stay valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))  # a numpy float's repr names its type
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


@dataclass(frozen=True)
class PosteriorErrorReport:
    """Data-conditional rates for one decision configuration.

    ``fdr_xn``/``fnr_xn`` use marginal alternative probabilities; the modified
    ``mfdr_xn``/``mfnr_xn`` replace them with joint group-correctness
    probabilities.  Denominators are guarded by max(., 1).
    """

    fdr_xn: float
    fnr_xn: float
    mfdr_xn: float
    mfnr_xn: float


@dataclass(frozen=True)
class FrequentistErrorReport:
    """Replicate-averaged rates with conditioning counts and Monte Carlo errors.

    A rate is None when its conditioning event never occurred; standard errors
    are sample-sd / sqrt(count) and None whenever fewer than two replicates
    condition.
    """

    pfdr: float | None
    pfnr: float | None
    pbfdr: float | None
    pbfnr: float | None
    mpbfdr: float | None
    mpbfnr: float | None
    standard_errors: dict
    n_replicates: int
    n_conditioning_fdr: int
    n_conditioning_fnr: int

    def payload(self) -> dict:
        """Every field, as JSON data."""
        return _json_ready(asdict(self))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(metric) against the sample size.

    ``slope`` is the fitted decay exponent per observation; theory predicts it
    stays below -(exponent_reference - eps) eventually, so ``bound_slack =
    slope + exponent_reference`` is reported instead of testing a sharp
    inequality.  Only strictly positive metric values enter the fit; if fewer
    than two remain the fit is flagged degenerate with slope -inf (all zero)
    or nan (a single usable point).
    """

    metric: str
    ns: tuple
    values: tuple
    normalized_log: tuple
    slope: float
    intercept: float
    r_squared: float
    exponent_reference: float
    bound_slack: float
    degenerate: bool
    n_used: int

    def payload(self) -> dict:
        """Every field, as JSON data."""
        return _json_ready(asdict(self))


def posterior_rates(
    marginals: np.ndarray,
    joint_probs: np.ndarray,
    config: DecisionConfig,
) -> PosteriorErrorReport:
    """Posterior error rates of a decision configuration.

    Truth plays no role here: every ingredient is a posterior probability
    evaluated at the chosen configuration.
    """
    v = np.asarray(marginals, dtype=float)
    w = np.asarray(joint_probs, dtype=float)
    d = config.bits.astype(float)
    if v.size != d.size or w.size != d.size:
        raise InvalidSpec("rate inputs disagree on the hypothesis count")
    rejections = d.sum()
    denom_r = max(rejections, 1.0)
    denom_a = max(d.size - rejections, 1.0)
    return PosteriorErrorReport(
        fdr_xn=float(np.dot(d, 1.0 - v) / denom_r),
        fnr_xn=float(np.dot(1.0 - d, v) / denom_a),
        mfdr_xn=float(np.dot(d, 1.0 - w) / denom_r),
        mfnr_xn=float(np.dot(1.0 - d, w) / denom_a),
    )


def _check_lengths(config: DecisionConfig, truth: TruthAssignment) -> None:
    if len(config) != len(truth):
        raise InvalidSpec("decision and truth vectors disagree on length")


def false_discovery_proportion(config: DecisionConfig, truth: TruthAssignment) -> float | None:
    """Share of rejections that hit true nulls; None without any rejection."""
    _check_lengths(config, truth)
    d = config.bits
    rejections = int(d.sum())
    if rejections == 0:
        return None
    return float((d & ~truth.alt_true).sum()) / rejections


def false_nondiscovery_proportion(config: DecisionConfig, truth: TruthAssignment) -> float | None:
    """Share of acceptances that miss true alternatives; None without any acceptance."""
    _check_lengths(config, truth)
    a = ~config.bits
    acceptances = int(a.sum())
    if acceptances == 0:
        return None
    return float((a & truth.alt_true).sum()) / acceptances


def _conditional_mean(values: list[float]) -> tuple[float | None, float | None]:
    count = len(values)
    if count == 0:
        return None, None
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(count)) if count > 1 else None
    return mean, se


def frequentist_rates(
    replicates: Sequence[tuple[float | None, float | None, PosteriorErrorReport]],
) -> FrequentistErrorReport:
    """Average per-replicate rates over their positive-denominator events.

    Each replicate is its (fdp, fnp, posterior report) row.  A replicate with
    at least one rejection (fdp not None) conditions the FDR rates, one with
    at least one acceptance (fnp not None) the FNR rates.
    """
    if len(replicates) == 0:
        raise InvalidSpec("need at least one replicate")
    # each event's replicates as (proportion, posterior rate, modified posterior rate)
    events = {"fdr": [(fdp, r.fdr_xn, r.mfdr_xn) for fdp, _, r in replicates if fdp is not None],
              "fnr": [(fnp, r.fnr_xn, r.mfnr_xn) for _, fnp, r in replicates if fnp is not None]}
    stats = {prefix + event: _conditional_mean([row[k] for row in rows])
             for event, rows in events.items() for k, prefix in enumerate(("p", "pb", "mpb"))}
    return FrequentistErrorReport(
        **{name: mean for name, (mean, _) in stats.items()},
        standard_errors={name: se for name, (_, se) in stats.items()},
        n_replicates=len(replicates),
        n_conditioning_fdr=len(events["fdr"]),
        n_conditioning_fnr=len(events["fnr"]),
    )


def rate_fit(
    metric: str,
    values: Sequence[float],
    ns: Sequence[int],
    exponent_reference: float,
) -> RateFit:
    """Regress log(metric) on n over the strictly positive entries."""
    ns = tuple(int(n) for n in ns)
    if len(ns) < 3:
        raise InvalidSpec("need at least three sample sizes")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidSpec("sample sizes must be strictly increasing")
    if len(values) != len(ns):
        raise InvalidSpec("values and sample sizes disagree on length")
    vals = tuple(float(v) if v is not None else 0.0 for v in values)
    normalized = tuple(
        math.log(v) / n if v > 0 else math.nan for v, n in zip(vals, ns)
    )
    usable = [(n, v) for n, v in zip(ns, vals) if v > 0 and math.isfinite(v)]
    if len(usable) < 2:
        slope = -math.inf if not usable else math.nan
        return RateFit(
            metric=metric,
            ns=ns,
            values=vals,
            normalized_log=normalized,
            slope=slope,
            intercept=math.nan,
            r_squared=math.nan,
            exponent_reference=exponent_reference,
            bound_slack=math.nan,
            degenerate=True,
            n_used=len(usable),
        )
    xs = np.array([n for n, _ in usable], dtype=float)
    ys = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    total = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 if total == 0.0 else 1.0 - float((residuals**2).sum()) / total
    return RateFit(
        metric=metric,
        ns=ns,
        values=vals,
        normalized_log=normalized,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        exponent_reference=exponent_reference,
        bound_slack=float(slope) + exponent_reference,
        degenerate=False,
        n_used=len(usable),
    )
