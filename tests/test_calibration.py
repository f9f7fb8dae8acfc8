"""Feasible targets, the penalty bisection, and curve monotonicity."""

import math

import numpy as np
import pytest

from nonmarginal import (
    InvalidSpec,
    calibrate_penalty,
    feasible_alpha,
    mpbfdr_curve,
    rate_fit,
)
from nonmarginal.calibration import CurvePoint


class TestFeasibleAlpha:
    def test_balanced_case(self):
        assert feasible_alpha(0.5, 0.5) == (0.0, pytest.approx(0.5))

    def test_saturated_groups_leave_no_room(self):
        _, hi = feasible_alpha(0.5, 1.0 - 1e-9)
        assert hi < 1e-8

    def test_sparse_alternatives_allow_almost_anything(self):
        _, hi = feasible_alpha(1e-9, 0.3)
        assert hi > 0.999

    def test_ceiling_decreases_in_both_shares(self):
        grid = np.linspace(0.05, 0.95, 10)
        for p in grid:
            ceilings = [feasible_alpha(p, q)[1] for q in grid]
            assert all(b < a for a, b in zip(ceilings, ceilings[1:]))
        for q in grid:
            ceilings = [feasible_alpha(p, q)[1] for p in grid]
            assert all(b < a for a, b in zip(ceilings, ceilings[1:]))

    def test_endpoints_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lo, hi = feasible_alpha(float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
            assert 0.0 <= lo < hi <= 1.0

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            feasible_alpha(0.0, 0.5)
        with pytest.raises(InvalidSpec):
            feasible_alpha(0.5, 1.0)


class TestAdditiveFeasibleAlpha:
    """Singleton groups make the signal-group share the alternative share, and
    the ceiling the null share."""

    def test_half_nulls(self):
        assert feasible_alpha(0.5, 0.5) == (0.0, 0.5)

    def test_no_nulls_empty_interval(self):
        with pytest.raises(InvalidSpec):
            feasible_alpha(1.0, 1.0)  # nothing is attainable

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            feasible_alpha(0.0, 0.0)


class _LinearEnsemble:
    """Closed-form stand-in: rate(penalty) = peak * (1 - penalty), exact."""

    def __init__(self, peak=0.6, se=0.001):
        self.peak = peak
        self.se = se
        self.grow_calls = 0

    def evaluate(self, penalty):
        return CurvePoint(penalty, self.peak * (1.0 - penalty), self.se, 100)

    def grow(self):
        self.grow_calls += 1
        self.se /= math.sqrt(2.0)


class _EmptyEnsemble:
    def evaluate(self, penalty):
        return CurvePoint(penalty, None, None, 0)

    def grow(self):
        pass


class TestCalibratePenalty:
    def test_closed_form_root(self):
        result = calibrate_penalty(0.24, _LinearEnsemble(), tolerance=0.005)
        assert not result.infeasible
        assert result.beta_hat == pytest.approx(1.0 - 0.24 / 0.6, abs=0.01)
        assert abs(result.achieved - 0.24) <= 0.005

    def test_target_met_at_zero_takes_zero_iterations(self):
        result = calibrate_penalty(0.6, _LinearEnsemble(), tolerance=0.01)
        assert result.beta_hat == 0.0
        assert result.iterations == 0
        assert not result.infeasible

    def test_unattainable_target_is_infeasible(self):
        result = calibrate_penalty(0.7, _LinearEnsemble(), tolerance=0.01)
        assert result.infeasible
        assert result.beta_hat == 0.0
        assert "attainable maximum" in result.reason

    def test_empty_conditioning_is_infeasible(self):
        result = calibrate_penalty(0.1, _EmptyEnsemble(), tolerance=0.01)
        assert result.infeasible
        assert "empty" in result.reason

    def test_noisy_ensemble_grows_once(self):
        ensemble = _LinearEnsemble(se=0.02)
        calibrate_penalty(0.24, ensemble, tolerance=0.01)
        assert ensemble.grow_calls == 1

    def test_bracket_halves_and_terminates(self):
        result = calibrate_penalty(0.24, _LinearEnsemble(se=1e-9), tolerance=1e-6, max_iterations=25)
        widths = [step.beta_hi - step.beta_lo for step in result.history[1:]]
        for a, b in zip(widths, widths[1:]):
            assert b == pytest.approx(a / 2.0)
        assert result.iterations <= 25

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            calibrate_penalty(0.0, _LinearEnsemble(), tolerance=0.01)
        with pytest.raises(InvalidSpec):
            calibrate_penalty(0.1, _LinearEnsemble(), tolerance=0.0)


class _StepEnsemble:
    """Deterministic non-increasing staircase with an empty tail."""

    def evaluate(self, penalty):
        if penalty >= 0.8:
            return CurvePoint(penalty, None, None, 0)
        value = 0.5 if penalty < 0.3 else 0.2
        return CurvePoint(penalty, value, 0.01, 50)

    def grow(self):
        pass


class TestCurve:
    def test_monotone_with_ties_and_flagged_tail(self):
        points = mpbfdr_curve(_StepEnsemble(), [0.0, 0.2, 0.4, 0.6, 0.8])
        values = [p.value for p in points]
        assert values == [0.5, 0.5, 0.2, 0.2, None]
        defined = [v for v in values if v is not None]
        assert all(b <= a for a, b in zip(defined, defined[1:]))
        assert points[-1].n_conditioning == 0

    def test_left_endpoint_is_the_maximum(self):
        points = mpbfdr_curve(_LinearEnsemble(), [0.0, 0.3, 0.6])
        assert points[0].value == max(p.value for p in points)

    def test_grid_must_ascend(self):
        with pytest.raises(InvalidSpec):
            mpbfdr_curve(_LinearEnsemble(), [0.4, 0.2])
        with pytest.raises(InvalidSpec):
            mpbfdr_curve(_LinearEnsemble(), [0.1, 1.0])


class TestFnrUnderAlphaControl:
    """The FNR at calibrated penalties is fitted like any other rate."""

    def test_synthetic_exponential(self):
        ns = (100, 200, 400)
        fit = rate_fit("pbfnr", [math.exp(-0.05 * n) for n in ns], ns, 0.05)
        assert abs(fit.slope + 0.05) < 1e-10

    def test_perfect_tail_goes_degenerate(self):
        ns = (100, 200, 400)
        fit = rate_fit("pbfnr", [0.0 for _ in ns], ns, 0.05)
        assert fit.degenerate

    def test_length_mismatch(self):
        with pytest.raises(InvalidSpec):
            rate_fit("pbfnr", [0.1], (100, 200, 300), 0.0)
