"""Posterior/frequentist error functionals and the decay-rate regression."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarginal import (
    DecisionConfig,
    InvalidSpec,
    TruthAssignment,
    error_shares,
    frequentist_rates,
    posterior_rates,
    rate_fit,
)


class TestPosteriorRates:
    def test_no_rejection_guard(self):
        v = np.array([0.2, 0.9, 0.5])
        report = posterior_rates(v, v, DecisionConfig.all_accept(3))
        assert report.fdr_xn == 0.0
        assert report.fnr_xn == pytest.approx(v.sum() / 3)

    def test_no_acceptance_guard(self):
        v = np.array([0.2, 0.9, 0.5])
        report = posterior_rates(v, v, DecisionConfig.all_reject(3))
        assert report.fnr_xn == 0.0
        assert report.fdr_xn == pytest.approx((1 - v).sum() / 3)

    def test_hand_example(self):
        v = np.array([0.9, 0.8, 0.1])
        report = posterior_rates(v, v, DecisionConfig([True, True, False]))
        assert report.fdr_xn == pytest.approx(0.15)
        assert report.fnr_xn == pytest.approx(0.1)

    def test_singleton_groups_collapse_modified_rates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = int(rng.integers(1, 9))
            v = rng.random(h)
            config = DecisionConfig(rng.random(h) < 0.5)
            report = posterior_rates(v, v, config)  # singleton groups: w == v
            assert report.mfdr_xn == report.fdr_xn
            assert report.mfnr_xn == report.fnr_xn

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rates_bounded_and_ordered(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 10))
        v = rng.random(h)
        w = v * rng.random(h)  # joint events are never more likely than marginals
        config = DecisionConfig(rng.random(h) < 0.5)
        report = posterior_rates(v, w, config)
        for value in (report.fdr_xn, report.fnr_xn, report.mfdr_xn, report.mfnr_xn):
            assert 0.0 <= value <= 1.0
        assert report.mfdr_xn >= report.fdr_xn - 1e-12
        assert report.mfnr_xn <= report.fnr_xn + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(InvalidSpec):
            posterior_rates(np.zeros(3), np.zeros(3), DecisionConfig.all_accept(2))


class TestProportions:
    """``error_shares`` against the truth bits: the realized proportions."""

    truth = np.array([True, False, True, False])

    def test_false_discovery_proportion(self):
        assert error_shares(DecisionConfig([1, 1, 0, 0]).bits, self.truth)[0] == 0.5
        assert error_shares(DecisionConfig.all_accept(4).bits, self.truth)[0] is None

    def test_false_nondiscovery_proportion(self):
        assert error_shares(DecisionConfig([0, 0, 1, 1]).bits, self.truth)[1] == 0.5
        assert error_shares(DecisionConfig.all_reject(4).bits, self.truth)[1] is None

    @pytest.mark.parametrize("bits, p", [(np.ones(3, bool), truth), (np.ones(4, bool), truth[:3])],
                             ids=["short_bits", "short_p"])
    def test_length_mismatch(self, bits, p):
        with pytest.raises(InvalidSpec, match="disagree on length"):
            error_shares(bits, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_truth_shares_are_exact_count_ratios(self, seed):
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 40))
        d, t = rng.random(h) < 0.5, rng.random(h) < 0.5
        fdp, fnp = error_shares(d, t)
        rejections, acceptances = int(d.sum()), int((~d).sum())
        assert fdp == (int((d & ~t).sum()) / rejections if rejections else None)
        assert fnp == (int((~d & t).sum()) / acceptances if acceptances else None)


def _row(config, truth, v):
    """A replicate's (fdp, fnp, posterior report) row, marginals ``v`` as joints."""
    v = np.asarray(v, dtype=float)
    return (*error_shares(config.bits, truth.alt_true), posterior_rates(v, v, config))


class TestFrequentistRates:
    truth = TruthAssignment(np.array([True, False, True]))

    def test_perfect_decisions(self):
        config = self.truth.true_config
        rows = [_row(config, self.truth, [0.99, 0.01, 0.98])] * 3
        report = frequentist_rates(rows)
        assert report.pfdr == 0.0
        assert report.pfnr == 0.0
        assert report.n_conditioning_fdr == 3

    def test_two_replicate_average(self):
        c1 = DecisionConfig([True, True, True, True, True])
        t1 = TruthAssignment(np.array([True, True, True, True, False]))
        c2 = DecisionConfig([True, True, True, True, True])
        t2 = TruthAssignment(np.array([True, True, True, False, False]))
        rows = [
            _row(c1, t1, [0.9] * 5),
            _row(c2, t2, [0.9] * 5),
        ]
        report = frequentist_rates(rows)
        assert report.pfdr == pytest.approx(0.3)  # mean of 0.2 and 0.4
        assert report.pfnr is None  # nothing was ever accepted
        assert report.n_conditioning_fnr == 0

    def test_empty_conditioning_is_flagged_not_zero(self):
        config = DecisionConfig.all_accept(3)
        rows = [_row(config, self.truth, [0.5, 0.5, 0.5])] * 4
        report = frequentist_rates(rows)
        assert report.pfdr is None
        assert report.pbfdr is None
        assert report.mpbfdr is None
        assert report.standard_errors["pfdr"] is None
        assert report.n_conditioning_fdr == 0
        assert report.n_replicates == 4
        assert {metric: count for metric, _, _, count in report.rows()} == {
            "pfdr": 0, "pfnr": 4, "pbfdr": 0, "pbfnr": 4, "mpbfdr": 0, "mpbfnr": 4}

    def test_standard_errors(self):
        c = DecisionConfig([True, False, False])
        rows = [
            _row(c, self.truth, v)
            for v in ([0.9, 0.1, 0.5], [0.7, 0.1, 0.5], [0.5, 0.1, 0.5])
        ]
        report = frequentist_rates(rows)
        values = [0.1, 0.3, 0.5]  # fdr_xn of each replicate
        assert report.pbfdr == pytest.approx(np.mean(values))
        assert report.standard_errors["pbfdr"] == pytest.approx(
            np.std(values, ddof=1) / math.sqrt(3)
        )

    def test_needs_at_least_one_replicate(self):
        with pytest.raises(InvalidSpec):
            frequentist_rates([])


class TestRateFit:
    def test_exact_exponential(self):
        ns = (100, 200, 400)
        fit = rate_fit("m", [math.exp(-0.1 * n) for n in ns], ns, 0.1)
        assert abs(fit.slope + 0.1) < 1e-10
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.bound_slack == pytest.approx(0.0, abs=1e-10)
        assert not fit.degenerate

    def test_constant_metric(self):
        fit = rate_fit("m", [0.25, 0.25, 0.25], (10, 20, 30), 0.0)
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_all_zero_is_degenerate(self):
        fit = rate_fit("m", [0.0, 0.0, 0.0], (10, 20, 30), 0.05)
        assert fit.degenerate
        assert fit.slope == -math.inf
        assert fit.n_used == 0

    def test_zeros_are_excluded(self):
        ns = (100, 200, 400, 800)
        values = [math.exp(-0.02 * n) for n in ns[:3]] + [0.0]
        fit = rate_fit("m", values, ns, 0.02)
        assert fit.n_used == 3
        assert abs(fit.slope + 0.02) < 1e-10
        assert math.isnan(fit.normalized_log[-1])

    def test_single_positive_value_is_degenerate(self):
        fit = rate_fit("m", [0.5, 0.0, 0.0], (10, 20, 30), 0.0)
        assert fit.degenerate
        assert math.isnan(fit.slope)

    def test_normalized_log_values(self):
        ns = (10, 20, 30)
        fit = rate_fit("m", [0.5, 0.25, 0.125], ns, 0.0)
        for value, n, norm in zip(fit.values, ns, fit.normalized_log):
            assert norm == pytest.approx(math.log(value) / n)

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            rate_fit("m", [0.1, 0.1], (10, 20), 0.0)
        with pytest.raises(InvalidSpec):
            rate_fit("m", [0.1, 0.1, 0.1], (10, 30, 20), 0.0)
        with pytest.raises(InvalidSpec):
            rate_fit("m", [0.1, 0.1], (10, 20, 30), 0.0)
