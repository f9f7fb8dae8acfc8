"""Acceptance suite: every criterion at its stated scale and tolerance.

The default scenario (10 covariates + intercept + autoregression test, three
active coefficients of magnitude 1.5, 200 replicates, 4000 retained draws,
n in {250, 500, 1000, 2000}) is expensive: its ``Scenario`` samples the
grid's posterior ensembles once and is shared across criteria through a
session fixture.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
line per criterion.
"""

import math
from types import SimpleNamespace

import pytest

from nonmarginal import FrequentistErrorReport, ScenarioConfig, rate_fit
from nonmarginal.acceptance import (
    criterion_1_oracle_equivalence,
    criterion_2_consistency,
    criterion_3_error_decay,
    criterion_4_equipartition,
    criterion_5_exponent_sanity,
    criterion_6_alpha_control,
    criterion_7_reject_all_limit,
    criterion_8_monotone_curve,
    criterion_9_exact_suite,
)
from nonmarginal.experiments import Scenario


@pytest.fixture(scope="session")
def scenario():
    return Scenario(ScenarioConfig())


def _finish(result):
    print("\n" + result.line())
    assert result.passed, result.details


def test_criterion_1_oracle_equivalence():
    _finish(criterion_1_oracle_equivalence())


def test_criterion_2_consistency(scenario):
    _finish(criterion_2_consistency(scenario))


def test_criterion_3_error_decay(scenario):
    _finish(criterion_3_error_decay(scenario))


def test_criterion_3_fails_on_an_undefined_final_rate():
    ns = (250, 500, 1000)
    fit = rate_fit("m", [math.exp(-0.01 * n) for n in ns], ns, 0.01)
    final = FrequentistErrorReport(
        pfdr=None, pfnr=0.0, pbfdr=None, pbfnr=1e-3, mpbfdr=None, mpbfnr=1e-3,
        standard_errors={}, n_replicates=3, n_conditioning_fdr=0, n_conditioning_fnr=3,
    )
    stub = SimpleNamespace(
        cfg=SimpleNamespace(n_grid=ns),
        fits={("nonmarginal", "mpbfdr"): fit, ("nonmarginal", "mpbfnr"): fit},
        reports={(ns[-1], "nonmarginal"): final},
    )
    result = criterion_3_error_decay(stub)
    assert not result.passed
    assert "mpbfdr=None" in result.details


def test_criterion_4_equipartition(scenario):
    _finish(criterion_4_equipartition(scenario))


def test_criterion_5_exponent_sanity(scenario):
    _finish(criterion_5_exponent_sanity(scenario))


def test_criterion_6_alpha_control(scenario):
    _finish(criterion_6_alpha_control(scenario))


def test_criterion_7_reject_all_limit(scenario):
    _finish(criterion_7_reject_all_limit(scenario))


def test_criterion_8_monotone_curve(scenario):
    _finish(criterion_8_monotone_curve(scenario))


def test_criterion_9_exact_suite():
    _finish(criterion_9_exact_suite())


def test_modified_rates_also_decay_monotonically(scenario):
    """Conditional means of the modified rates fall with n (within 2 MC errors)."""
    reports = [scenario.reports[(n, "nonmarginal")] for n in scenario.cfg.n_grid]
    for field in ("mpbfdr", "mpbfnr"):
        values = [getattr(r, field) for r in reports]
        errors = [r.standard_errors[field] or 0.0 for r in reports]
        assert values[-1] is not None and values[-1] < 0.02
        for (v1, e1), (v2, e2) in zip(zip(values, errors), zip(values[1:], errors[1:])):
            assert v2 <= v1 + 2.0 * math.hypot(e1, e2), field


def test_fnr_declines_under_calibrated_penalties(scenario):
    """With the penalty calibrated to 0.1 at each n, the averaged posterior FNR
    trends to zero and its log-decay slope against n is negative."""
    reports = []
    for n, ensemble in scenario.ensembles.items():
        reports.append(ensemble.frequentist(scenario.calibrate(n, 0.1).beta_hat))
    fit = rate_fit("pbfnr", [r.pbfnr for r in reports], scenario.cfg.n_grid,
                   scenario.exponent.value)
    first, last = reports[0].pbfnr, reports[-1].pbfnr
    assert last is not None and first is not None and last < first
    assert fit.degenerate or fit.slope < 0.0
    print(f"\npbfnr under calibrated penalties: first={first:.4f}, last={last:.6f}, "
          f"slope={fit.slope:.2e}")
