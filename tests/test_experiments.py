"""Scenario configuration, seeded orchestration, ensembles, and artifacts."""

import json
import math

import numpy as np
import pytest

from nonmarginal import (
    DecisionEnsemble,
    InvalidSpec,
    PriorConfig,
    ScenarioConfig,
    run_scenario,
)
from nonmarginal.experiments import (
    aggregate_replicate_csv,
    build_replicate_posterior,
    growth_vanishing_table,
)


class TestScenarioConfig:
    def test_round_trip(self, tiny_cfg, tmp_path):
        path = tmp_path / "config.json"
        tiny_cfg.to_json(path)
        back = ScenarioConfig.from_json(path)
        assert back.to_dict() == tiny_cfg.to_dict()
        assert back.scenario_hash() == tiny_cfg.scenario_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidSpec):
            ScenarioConfig.from_dict({"bogus_knob": 1})

    def test_grid_validation(self):
        with pytest.raises(InvalidSpec):
            ScenarioConfig(n_grid=(100, 100))
        with pytest.raises(InvalidSpec):
            ScenarioConfig(replicates=0)

    def test_active_indices_must_fit_smallest_m(self):
        with pytest.raises(InvalidSpec):
            ScenarioConfig(
                n_grid=(16, 32), growth="sublinear", growth_exponent=0.5,
                active_indices=(7,),
            )

    def test_growth_rules(self):
        fixed = ScenarioConfig(num_covariates=4, active_indices=(1, 2))
        assert fixed.m_for(1000) == 4
        sub = ScenarioConfig(growth="sublinear", growth_exponent=0.5, active_indices=(1,))
        assert sub.m_for(400) == 20
        ultra = ScenarioConfig(
            growth="ultra", growth_coefficient=0.01, active_indices=(1,),
            prior=PriorConfig(family="gp_decay"),
        )
        assert ultra.m_for(1000) == math.ceil(0.01 * 1000 * math.log(1000))

    def test_ultra_with_gaussian_prior_warns(self):
        with pytest.warns(UserWarning):
            ScenarioConfig(growth="ultra", growth_coefficient=0.001, active_indices=(1,))

    def test_growth_vanishes_against_exponentials(self, tiny_cfg):
        for cfg in (
            tiny_cfg,
            ScenarioConfig(
                n_grid=(250, 500, 1000, 2000), growth="ultra", growth_coefficient=0.01,
                active_indices=(1,), prior=PriorConfig(family="gp_decay"),
            ),
        ):
            table = growth_vanishing_table(cfg, rates=(0.05, 0.5))
            for values in table.values():
                assert values[-1] == min(values)
                assert values[-1] < 1e-2


class TestGroupFileOverride:
    def test_explicit_group_file_wins_over_correlation_rule(self, tiny_cfg, tmp_path):
        from nonmarginal.experiments import design_for, groups_for

        spec = tiny_cfg.spec_for(tiny_cfg.num_covariates)
        path = tmp_path / "groups.txt"
        lines = [f"{i}" for i in range(spec.num_hypotheses)]
        lines[1] = "1 2"
        lines[2] = "2 1"
        path.write_text("\n".join(lines) + "\n")
        cfg = ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "group_file": str(path)})
        groups = groups_for(cfg, design_for(cfg, 40), spec)
        assert groups.groups[1] == frozenset({1, 2})
        assert groups.groups[2] == frozenset({1, 2})
        assert all(groups.groups[i] == frozenset({i}) for i in (0, 3, 4))


class TestDeterminism:
    def test_replicate_is_bit_identical(self, tiny_cfg):
        a = build_replicate_posterior(tiny_cfg, 40, 1)
        b = build_replicate_posterior(tiny_cfg, 40, 1)
        assert np.array_equal(a.indicators.ind, b.indicators.ind)
        assert np.array_equal(a.marginals, b.marginals)

    def test_one_replicate_ensemble_deterministic_and_decisive_when_noiseless(self, tiny_cfg):
        cfg = ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "sigma0_sq": 1e-6})
        first = DecisionEnsemble(cfg, 40, replicates=1, workers=1)
        second = DecisionEnsemble(cfg, 40, replicates=1, workers=1)
        assert first.decide(cfg.penalty)[0].config == second.decide(cfg.penalty)[0].config
        assert np.array_equal(first.replicates[0].marginals, second.replicates[0].marginals)
        # overwhelming signal: both rules recover the truth exactly
        additive_penalty = cfg.additive_cost / (1.0 + cfg.additive_cost)
        assert first.decide(cfg.penalty)[0].config == first.truth.true_config
        assert first.decide(additive_penalty, "additive")[0].config == first.truth.true_config

    def test_scenario_outputs_identical_across_runs_and_workers(self, tiny_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(tiny_cfg, out1, workers=1)
        run_scenario(tiny_cfg, out2, workers=2)
        for name in sorted(p.name for p in out1.glob("*.csv")):
            assert (out1 / name).read_text() == (out2 / name).read_text(), name
        for name in ("report_nonmarginal_n40.json", "report_additive_n120.json", "rate_fits.json"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for key in ("scenario_hash", "master_seed", "replicate_seeds", "outputs", "failures"):
            assert m1[key] == m2[key]


class TestDecisionEnsemble:
    def test_caches_and_common_random_numbers(self, tiny_cfg):
        ensemble = DecisionEnsemble(tiny_cfg, 40, workers=1)
        first = ensemble.decide(0.5)
        again = ensemble.decide(0.5)
        assert first is again  # cached
        before = [rep.indicators.ind.copy() for rep in ensemble.replicates]
        ensemble.grow()
        assert ensemble.replicate_count == 2 * tiny_cfg.replicates
        for old, rep in zip(before, ensemble.replicates):
            assert np.array_equal(old, rep.indicators.ind)  # prefix untouched

    def test_evaluate_exposes_conditioning_counts(self, tiny_cfg):
        ensemble = DecisionEnsemble(tiny_cfg, 40, workers=1)
        point = ensemble.evaluate(0.5)
        assert point.n_conditioning <= ensemble.replicate_count
        with pytest.raises(InvalidSpec):
            ensemble.evaluate(0.5, objective="nonsense")

    def test_consistency_fraction_increases_with_signal(self, tiny_cfg):
        quiet = ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "sigma0_sq": 1e-6})
        ensemble = DecisionEnsemble(quiet, 40, workers=1)
        frac, se = ensemble.consistency_fraction(0.5)
        assert frac == 1.0 and se == 0.0

    def test_failed_replicates_are_recorded_not_fatal(self, tiny_cfg, replicate_1_fails):
        ensemble = DecisionEnsemble(tiny_cfg, 40, workers=1)
        assert ensemble.replicate_count == tiny_cfg.replicates - 1
        assert len(ensemble.failures) == 1
        assert "synthetic failure" in ensemble.failures[0].error
        report = ensemble.frequentist(0.5)
        assert report.n_replicates == tiny_cfg.replicates - 1


class TestArtifacts:
    def test_scenario_directory_layout(self, tiny_cfg, tmp_path):
        result = run_scenario(tiny_cfg, tmp_path / "out", workers=1)
        out = tmp_path / "out"
        for n in tiny_cfg.n_grid:
            for rule in ("nonmarginal", "additive"):
                assert (out / f"replicates_{rule}_n{n}.csv").exists()
                assert (out / f"report_{rule}_n{n}.json").exists()
        assert (out / "rates.csv").exists()
        assert (out / "rate_fits.json").exists()
        assert (out / "exponent.json").exists()
        assert (out / "manifest.json").exists()
        assert result.exponent_value >= 0.0
        header = (out / "replicates_nonmarginal_n40.csv").read_text().splitlines()[0]
        assert header == "replicate_id,n,beta,d_hat_bits,fdp,fnp,fdr_xn,fnr_xn,mfdr_xn,mfnr_xn"
        rates_header = (out / "rates.csv").read_text().splitlines()[0]
        assert rates_header == "n,m_n,method,metric,value,se"

    def test_aggregate_round_trip_matches_in_memory_report(self, tiny_cfg, tmp_path):
        result = run_scenario(tiny_cfg, tmp_path / "out", workers=1)
        n = tiny_cfg.n_grid[0]
        from_csv = aggregate_replicate_csv(tmp_path / "out" / f"replicates_nonmarginal_n{n}.csv")
        in_memory = result.reports[(n, "nonmarginal")]
        assert from_csv.n_replicates == in_memory.n_replicates
        assert from_csv.n_conditioning_fdr == in_memory.n_conditioning_fdr
        for field in ("pfdr", "pfnr", "pbfdr", "pbfnr", "mpbfdr", "mpbfnr"):
            a, b = getattr(from_csv, field), getattr(in_memory, field)
            if b is None:
                assert a is None
            else:
                assert a == pytest.approx(b, abs=1e-9)

    def test_calibration_artifacts_when_target_set(self, tiny_cfg, tmp_path):
        cfg = ScenarioConfig.from_dict(
            {**tiny_cfg.to_dict(), "target_alpha": 0.2, "calibration_tolerance": 0.15,
             "calibration_max_iterations": 8}
        )
        result = run_scenario(cfg, tmp_path / "out", workers=1)
        for n in cfg.n_grid:
            path = tmp_path / "out" / f"calibration_n{n}.csv"
            assert path.exists()
            header = path.read_text().splitlines()[0]
            assert header == "iteration,beta_lo,beta_hi,beta_mid,mpbfdr,se,n_conditioning"
        assert set(result.calibrations) == set(cfg.n_grid)

    def test_single_replicate_posterior_rate_is_small_at_scale(self):
        cfg = ScenarioConfig(replicates=1, num_draws=600, burn_in=200)
        outcome = DecisionEnsemble(cfg, 1000, workers=1).decide(cfg.penalty)[0]
        assert outcome.report.mfdr_xn < 0.1
