"""Acceptance suite: every criterion at its stated scale and tolerance.

The default scenario (10 covariates + intercept + autoregression test, three
active coefficients of magnitude 1.5, 200 replicates, 4000 retained draws,
n in {250, 500, 1000, 2000}) is expensive: posterior ensembles are built once
per sample size and shared across criteria through a session fixture.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import math
from types import SimpleNamespace

import pytest

from nonmarginal import FrequentistErrorReport, rate_fit
from nonmarginal.acceptance import (
    AcceptanceContext,
    criterion_1_oracle_equivalence,
    criterion_2_consistency,
    criterion_3_error_decay,
    criterion_4_equipartition,
    criterion_5_exponent_sanity,
    criterion_6_alpha_control,
    criterion_7_reject_all_limit,
    criterion_8_monotone_curve,
    criterion_9_exact_suite,
    NONMARGINAL_PENALTY,
)


@pytest.fixture(scope="session")
def ctx():
    return AcceptanceContext()


def _finish(result):
    print("\n" + result.line())
    assert result.passed, result.details


def test_criterion_1_oracle_equivalence():
    _finish(criterion_1_oracle_equivalence())


def test_criterion_2_consistency(ctx):
    _finish(criterion_2_consistency(ctx))


def test_criterion_3_error_decay(ctx):
    _finish(criterion_3_error_decay(ctx))


def test_criterion_3_fails_on_an_undefined_final_rate():
    ns = (250, 500, 1000)
    fit = rate_fit("m", [math.exp(-0.01 * n) for n in ns], ns, 0.01)
    final = FrequentistErrorReport(
        pfdr=None, pfnr=0.0, pbfdr=None, pbfnr=1e-3, mpbfdr=None, mpbfnr=1e-3,
        standard_errors={}, n_replicates=3, n_conditioning_fdr=0, n_conditioning_fnr=3,
    )
    stub = SimpleNamespace(
        cfg=SimpleNamespace(n_grid=ns),
        decay_fits=lambda: {"mpbfdr": fit, "mpbfnr": fit},
        ensemble=lambda n: SimpleNamespace(frequentist=lambda penalty: final),
    )
    result = criterion_3_error_decay(stub)
    assert not result.passed
    assert "mpbfdr=None" in result.details


def test_criterion_4_equipartition(ctx):
    _finish(criterion_4_equipartition(ctx))


def test_criterion_5_exponent_sanity(ctx):
    _finish(criterion_5_exponent_sanity(ctx))


def test_criterion_6_alpha_control(ctx):
    _finish(criterion_6_alpha_control(ctx))


def test_criterion_7_reject_all_limit(ctx):
    _finish(criterion_7_reject_all_limit(ctx))


def test_criterion_8_monotone_curve(ctx):
    _finish(criterion_8_monotone_curve(ctx))


def test_criterion_9_exact_suite():
    _finish(criterion_9_exact_suite())


def test_modified_rates_also_decay_monotonically(ctx):
    """Conditional means of the modified rates fall with n (within 2 MC errors)."""
    reports = [ctx.ensemble(n).frequentist(NONMARGINAL_PENALTY) for n in ctx.cfg.n_grid]
    for field in ("mpbfdr", "mpbfnr"):
        values = [getattr(r, field) for r in reports]
        errors = [r.standard_errors[field] or 0.0 for r in reports]
        assert values[-1] is not None and values[-1] < 0.02
        for (v1, e1), (v2, e2) in zip(zip(values, errors), zip(values[1:], errors[1:])):
            assert v2 <= v1 + 2.0 * math.hypot(e1, e2), field


def test_fnr_declines_under_calibrated_penalties(ctx):
    """With the penalty calibrated to 0.1 at each n, the averaged posterior FNR
    trends to zero and its log-decay slope against n is negative."""
    from nonmarginal import calibrate_penalty

    reports = []
    for n in ctx.cfg.n_grid:
        result = calibrate_penalty(
            0.1, ctx.ensemble(n),
            tolerance=ctx.cfg.calibration_tolerance,
            max_iterations=ctx.cfg.calibration_max_iterations,
        )
        reports.append(ctx.ensemble(n).frequentist(result.beta_hat))
    fit = rate_fit("pbfnr", [r.pbfnr for r in reports], ctx.cfg.n_grid, ctx.exponent.value)
    first, last = reports[0].pbfnr, reports[-1].pbfnr
    assert last is not None and first is not None and last < first
    assert fit.degenerate or fit.slope < 0.0
    print(f"\npbfnr under calibrated penalties: first={first:.4f}, last={last:.6f}, "
          f"slope={fit.slope:.2e}")
