"""Posterior and frequentist error rates, and decay-rate regression.

Every rate is one pair of shares of a decision ``d`` against a probability
vector ``p`` (``error_shares``): the realized false discovery / non-discovery
proportions when ``p`` is the truth, the posterior rates when ``p`` holds the
marginal alternative probabilities, and their modified versions when ``p``
holds the joint group-correctness probabilities.  Replicate-averaged
(frequentist) rates condition on the relevant denominator being positive;
empty conditioning events are reported as undefined (None), never imputed as
zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .exceptions import InvalidSpec
from .hypotheses import DecisionConfig

# each replicate-averaged rate, with the report field counting its conditioning replicates
RATE_FIELDS = {"pfdr": "n_conditioning_fdr", "pfnr": "n_conditioning_fnr",
               "pbfdr": "n_conditioning_fdr", "pbfnr": "n_conditioning_fnr",
               "mpbfdr": "n_conditioning_fdr", "mpbfnr": "n_conditioning_fnr"}


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
    probabilities.  A rate with an empty denominator is 0.0.
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

    def rows(self) -> list[tuple]:
        """``(metric, value, se, n_conditioning)`` of every rate, in ``RATE_FIELDS`` order."""
        record = asdict(self)
        return [(metric, record[metric], self.standard_errors[metric], record[count])
                for metric, count in RATE_FIELDS.items()]


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


def error_shares(bits: np.ndarray, p) -> tuple[float | None, float | None]:
    """``(Σd(1−p)/Σd, Σ(1−d)p/Σ(1−d))`` for decision bits ``d``.

    With ``p`` the truth bits these are the false discovery and false
    non-discovery proportions; with posterior probabilities of the
    alternatives, the posterior rates.  A share is None when its denominator
    (the rejections, or the acceptances) is empty.
    """
    d = np.asarray(bits, dtype=float)
    p = np.asarray(p, dtype=float)
    if p.shape != d.shape:
        raise InvalidSpec(f"decision and probability vectors disagree on length: {d.size} != {p.size}")
    rejections = d.sum()
    acceptances = d.size - rejections
    return (float(np.dot(d, 1.0 - p) / rejections) if rejections else None,
            float(np.dot(1.0 - d, p) / acceptances) if acceptances else None)


def posterior_rates(
    marginals: np.ndarray,
    joint_probs: np.ndarray,
    config: DecisionConfig,
) -> PosteriorErrorReport:
    """Posterior error rates of a decision configuration, 0.0 when undefined.

    Truth plays no role here: every ingredient is a posterior probability
    evaluated at the chosen configuration.
    """
    rates = (*error_shares(config.bits, marginals), *error_shares(config.bits, joint_probs))
    return PosteriorErrorReport(*(0.0 if rate is None else rate for rate in rates))


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
    degenerate = len(usable) < 2
    if degenerate:
        slope = -math.inf if not usable else math.nan
        intercept = r_squared = bound_slack = math.nan
    else:
        xs = np.array([n for n, _ in usable], dtype=float)
        ys = np.log([v for _, v in usable])
        slope, intercept = (float(c) for c in np.polyfit(xs, ys, 1))
        residuals = ys - (slope * xs + intercept)
        total = float(((ys - ys.mean()) ** 2).sum())
        r_squared = 1.0 if total == 0.0 else 1.0 - float((residuals**2).sum()) / total
        bound_slack = slope + exponent_reference
    return RateFit(
        metric=metric,
        ns=ns,
        values=vals,
        normalized_log=normalized,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        exponent_reference=exponent_reference,
        bound_slack=bound_slack,
        degenerate=degenerate,
        n_used=len(usable),
    )
