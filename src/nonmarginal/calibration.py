"""Choosing the rejection penalty to hit a target false discovery level.

The replicate-averaged modified FDR is continuous and non-increasing in the
penalty, and its attainable maximum (at penalty zero) has a known population
ceiling, so the calibration problem is a monotone root find: bisect the
penalty until the estimated rate matches the target.  Sound bisection at
finite replicate counts requires common random numbers: the ensemble must
reuse the same datasets and posterior draws for every penalty it is asked to
evaluate, which turns the population monotonicity into a property of the
estimator itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from .exceptions import InvalidSpec


def feasible_alpha(alt_share: float, signal_group_share: float) -> tuple[float, float]:
    """Open interval of asymptotically attainable modified-FDR targets.

    The ceiling (1 - q) / (1 + p - q), with p the share of true alternatives
    and q the share of groups touching one, shrinks to zero as q approaches
    one and grows toward one as p approaches zero.  With singleton groups
    (q = p) it is the null share 1 - p, the ceiling of the additive rule.
    Callers must pick a target strictly inside the interval.
    """
    if not 0.0 < alt_share < 1.0 or not 0.0 < signal_group_share < 1.0:
        raise InvalidSpec("shares must lie strictly inside (0, 1)")
    ceiling = (1.0 - signal_group_share) / (1.0 + alt_share - signal_group_share)
    return (0.0, ceiling)


@dataclass(frozen=True)
class CurvePoint:
    """One evaluated penalty: estimate, Monte Carlo error, conditioning count.

    ``value`` is None when the conditioning event was empty at this penalty.
    """

    penalty: float
    value: float | None
    se: float | None
    n_conditioning: int


class RateEnsemble(Protocol):  # pragma: no cover - structural type only
    """What calibration needs from a replicate ensemble.

    ``evaluate`` gives the replicate-averaged mpbfdr at a penalty and must use
    common random numbers: repeated calls at different penalties reuse the
    same replicates.  ``grow`` doubles the replicate budget and may be a
    no-op for closed-form stand-ins.
    """

    def evaluate(self, penalty: float) -> CurvePoint: ...

    def grow(self) -> None: ...


def mpbfdr_curve(
    ensemble: RateEnsemble,
    penalty_grid: Sequence[float],
) -> list[CurvePoint]:
    """Evaluate the replicate-averaged rate on an ascending penalty grid.

    With common random numbers the resulting curve is non-increasing up to
    ties; points whose conditioning event is empty carry value None.
    """
    grid = [float(b) for b in penalty_grid]
    if any(not 0.0 <= b < 1.0 for b in grid):
        raise InvalidSpec("penalties must lie in [0, 1)")
    if any(b >= c for b, c in zip(grid, grid[1:])):
        raise InvalidSpec("penalty grid must be strictly ascending")
    return [ensemble.evaluate(b) for b in grid]


@dataclass(frozen=True)
class CalibrationStep:
    iteration: int
    beta_lo: float
    beta_hi: float
    beta_mid: float
    value: float | None
    se: float | None
    n_conditioning: int


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the penalty bisection.

    ``infeasible`` is set when the target exceeds the attainable maximum (the
    rate at penalty zero), when precision or conditioning failed, or when the
    iteration cap expired before reaching the tolerance.
    """

    target_alpha: float
    beta_hat: float
    achieved: float | None
    iterations: int
    infeasible: bool
    reason: str
    history: tuple[CalibrationStep, ...]


def calibrate_penalty(
    target_alpha: float,
    ensemble: RateEnsemble,
    tolerance: float,
    max_iterations: int = 40,
) -> CalibrationResult:
    """Bisect the penalty so the replicate-averaged rate matches the target.

    Maintains a bracket [lo, hi] with rate(lo) >= target >= rate(hi); an
    undefined rate (empty conditioning event) is treated as zero for
    bracketing only.  If the first evaluation is noisier than tolerance/2 the
    replicate budget is doubled once before proceeding.
    """
    if not 0.0 < target_alpha < 1.0:
        raise InvalidSpec("target must lie strictly inside (0, 1)")
    if not tolerance > 0:
        raise InvalidSpec("tolerance must be positive")

    history: list[CalibrationStep] = []

    def record(iteration: int, lo: float, hi: float, mid: float, point: CurvePoint):
        history.append(
            CalibrationStep(iteration, lo, hi, mid, point.value, point.se, point.n_conditioning)
        )

    at_zero = ensemble.evaluate(0.0)
    needs_precision = at_zero.se is not None and at_zero.se > tolerance / 2.0
    if at_zero.value is None or needs_precision:
        ensemble.grow()  # one automatic budget doubling, then flag if still short
        at_zero = ensemble.evaluate(0.0)
    record(0, 0.0, 1.0, 0.0, at_zero)

    if at_zero.value is None:
        return CalibrationResult(
            target_alpha, 0.0, None, 0, True,
            "conditioning event empty at penalty zero", tuple(history),
        )
    if at_zero.se is not None and at_zero.se > tolerance / 2.0:
        return CalibrationResult(
            target_alpha, 0.0, at_zero.value, 0, True,
            "Monte Carlo error exceeds tolerance/2 even after growing the budget",
            tuple(history),
        )
    if at_zero.value < target_alpha - tolerance:
        return CalibrationResult(
            target_alpha, 0.0, at_zero.value, 0, True,
            "target exceeds the attainable maximum at penalty zero", tuple(history),
        )
    if abs(at_zero.value - target_alpha) <= tolerance:
        return CalibrationResult(
            target_alpha, 0.0, at_zero.value, 0, False, "converged", tuple(history)
        )

    lo, hi = 0.0, 1.0 - 1e-9
    best: tuple[float, float, CurvePoint] = (abs(at_zero.value - target_alpha), 0.0, at_zero)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        mid = 0.5 * (lo + hi)
        point = ensemble.evaluate(mid)
        record(iterations, lo, hi, mid, point)
        effective = 0.0 if point.value is None else point.value
        if point.value is not None:
            gap = abs(point.value - target_alpha)
            if gap < best[0]:
                best = (gap, mid, point)
            if gap <= tolerance:
                return CalibrationResult(
                    target_alpha, mid, point.value, iterations, False,
                    "converged", tuple(history),
                )
        if effective >= target_alpha:
            lo = mid
        else:
            hi = mid
    gap, beta_hat, point = best
    return CalibrationResult(
        target_alpha, beta_hat, point.value, iterations, gap > tolerance,
        "iteration cap reached", tuple(history),
    )

