"""Scenario configuration, seeded orchestration, ensembles, and artifacts."""

import json
import math
import os

import numpy as np
import pytest

from nonmarginal import (
    Dataset,
    DecisionEnsemble,
    InvalidSpec,
    PriorConfig,
    ScenarioConfig,
    run_scenario,
)
from nonmarginal import experiments
from nonmarginal.experiments import (
    aggregate_replicate_csv,
    build_replicate_posterior,
)
from nonmarginal.model_ar1 import _floats_per_chain


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

    def test_configs_that_set_thinning_are_rejected(self, tiny_cfg):
        # every sweep after the burn-in is kept; an old config's thinning is
        # refused by name rather than ignored
        with pytest.raises(InvalidSpec, match="thinning"):
            ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "thinning": 1})

    def test_unknown_prior_keys_rejected(self):
        with pytest.raises(InvalidSpec, match="familly"):
            ScenarioConfig.from_dict({"prior": {"familly": "gp_decay"}})

    def test_grid_validation(self):
        with pytest.raises(InvalidSpec):
            ScenarioConfig(n_grid=(100, 100))
        with pytest.raises(InvalidSpec):
            ScenarioConfig(replicates=0)

    @pytest.mark.parametrize("field, value", [  # additive_cost: tests/test_decisions.py
        ("num_draws", 0), ("burn_in", -1), ("master_seed", -1), ("target_alpha", 0.0),
        ("target_alpha", 1.0), ("calibration_tolerance", 0.0), ("workers", -1),
        ("prior", "gp_decay"), ("n_grid", 250), ("n_grid", [250, 500.5]),
        ("active_indices", [1, "5"]), ("replicates", 2.5), ("num_draws", True),
        ("workers", "2"), ("penalty", "0.5"), ("include_rho_test", "no"),
    ])
    def test_fields_are_checked_at_construction(self, field, value):
        with pytest.raises(InvalidSpec, match=field):
            ScenarioConfig(**{field: value})

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

    def test_all_cores_are_the_cores_this_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert experiments._resolve_workers(0, None) == 1
        assert experiments._resolve_workers(3, None) == 3
        assert experiments._resolve_workers(0, 2) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiments._resolve_workers(0, None) == 8

    def test_workers_zero_means_every_usable_core(self, tiny_cfg, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        pools = []

        def in_process(fn, items, workers):
            pools.append(workers)
            return [fn(item) for item in items]

        monkeypatch.setattr(experiments, "_parallel_map", in_process)
        assert DecisionEnsemble(tiny_cfg, 40, replicates=1, workers=0).workers == 3
        run_scenario(tiny_cfg, tmp_path, workers=0)
        assert pools == [3, 3]


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


def _budget_for_chains(cfg, chains):
    """A ``BATCH_FLOAT_BUDGET`` that fits ``chains`` chains of ``cfg`` per batch."""
    return chains * _floats_per_chain(cfg.num_covariates + 1, cfg.num_draws)


class TestDeterminism:
    def test_replicate_is_bit_identical(self, tiny_cfg):
        a = build_replicate_posterior(tiny_cfg, 40, 1)
        b = build_replicate_posterior(tiny_cfg, 40, 1)
        assert np.array_equal(a.indicators.ind, b.indicators.ind)
        assert np.array_equal(a.marginals, b.marginals)

    def test_replicate_is_the_same_bits_in_every_path(self, tiny_cfg, tmp_path, monkeypatch):
        alone = {rid: build_replicate_posterior(tiny_cfg, 80, rid) for rid in range(3)}
        paths = {
            "ensemble": DecisionEnsemble(tiny_cfg, 80, workers=1),
            "scenario, 1 worker": run_scenario(tiny_cfg, tmp_path / "a", workers=1).ensembles[80],
        }
        # batches of two chains, on a pool
        monkeypatch.setattr(experiments, "BATCH_FLOAT_BUDGET", _budget_for_chains(tiny_cfg, 2))
        paths["scenario, 2 workers"] = run_scenario(tiny_cfg, tmp_path / "b", workers=2).ensembles[80]
        for path, ensemble in paths.items():
            for rep in ensemble.replicates:
                assert np.array_equal(rep.indicators.ind, alone[rep.replicate_id].indicators.ind)
                assert np.array_equal(rep.marginals, alone[rep.replicate_id].marginals), path

    def test_batches_over_the_float_budget_split_without_changing_replicates(
            self, tiny_cfg, monkeypatch):
        uncapped = DecisionEnsemble(tiny_cfg, 40, workers=1)
        calls = []
        real = experiments.gibbs_sample

        def counting(datasets, *args, **kwargs):
            calls.append(len(datasets))
            return real(datasets, *args, **kwargs)

        monkeypatch.setattr(experiments, "BATCH_FLOAT_BUDGET", _budget_for_chains(tiny_cfg, 2))
        monkeypatch.setattr(experiments, "gibbs_sample", counting)
        capped = DecisionEnsemble(tiny_cfg, 40, workers=1)
        assert calls == [1, 2]
        for a, b in zip(uncapped.replicates, capped.replicates, strict=True):
            assert np.array_equal(a.indicators.ind, b.indicators.ind)

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

    def test_scenario_outputs_identical_across_runs_and_workers(self, tiny_cfg, tmp_path,
                                                                monkeypatch):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(tiny_cfg, out1, workers=1)
        # batches of two chains, on a pool
        monkeypatch.setattr(experiments, "BATCH_FLOAT_BUDGET", _budget_for_chains(tiny_cfg, 2))
        run_scenario(tiny_cfg, out2, workers=2)
        for name in sorted(p.name for p in out1.glob("*.csv")):
            assert (out1 / name).read_text() == (out2 / name).read_text(), name
        for name in ("report_nonmarginal_n40.json", "report_additive_n120.json", "rate_fits.json"):
            assert (out1 / name).read_text() == (out2 / name).read_text()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for key in ("scenario_hash", "master_seed", "outputs", "failures"):
            assert m1[key] == m2[key]
        # 3 sizes x 3 replicates: one batch, then contiguous batches of at most two
        assert m1["sampling"] == {"batches": 1, "chains": [9]}
        assert m2["sampling"] == {"batches": 5, "chains": [1, 2, 2, 2, 2]}


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

    def test_non_finite_chain_fails_its_replicate_alone(self, tiny_cfg, monkeypatch):
        clean = DecisionEnsemble(tiny_cfg, 40, workers=1)
        real = experiments.simulate_replicate

        def exploding(cfg, design, replicate_id):
            data = real(cfg, design, replicate_id)
            if replicate_id == 1:
                return Dataset(data.x * 1e200, design, seed=data.seed)
            return data

        monkeypatch.setattr(experiments, "simulate_replicate", exploding)
        ensemble = DecisionEnsemble(tiny_cfg, 40, workers=1)
        assert [f.replicate_id for f in ensemble.failures] == [1]
        assert ensemble.failures[0].error == "NumericalFailure: the chain went non-finite"
        assert [rep.replicate_id for rep in ensemble.replicates] == [0, 2]
        for rep in ensemble.replicates:
            expected = clean.replicates[rep.replicate_id].indicators.ind
            assert np.array_equal(rep.indicators.ind, expected)


class TestArtifacts:
    def test_scenario_directory_layout(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        run_scenario(tiny_cfg, out, workers=1)
        for n in tiny_cfg.n_grid:
            for rule in ("nonmarginal", "additive"):
                assert (out / f"replicates_{rule}_n{n}.csv").exists()
                assert (out / f"report_{rule}_n{n}.json").exists()
        assert (out / "rates.csv").exists()
        assert (out / "rate_fits.json").exists()
        assert json.loads((out / "exponent.json").read_text())["value"] >= 0.0
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["numpy"] == np.__version__
        assert versions["blas"] == {"name": blas["name"], "version": blas["version"],
                                    "one_thread": blas["name"].startswith("scipy-openblas")}
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
        out = tmp_path / "out"
        result = run_scenario(cfg, out, workers=1)
        traces = sorted(out.glob("calibration_n*.csv"))
        assert traces == sorted(out / f"calibration_n{n}.csv" for n in cfg.n_grid)
        for path in traces:
            header, first, *_ = path.read_text().splitlines()
            assert header == "iteration,beta_lo,beta_hi,beta_mid,mpbfdr,se,n_conditioning"
            assert first.startswith("0,")
            assert path.name in result.manifest.outputs

    def test_single_replicate_posterior_rate_is_small_at_scale(self):
        cfg = ScenarioConfig(replicates=1, num_draws=600, burn_in=200)
        outcome = DecisionEnsemble(cfg, 1000, workers=1).decide(cfg.penalty)[0]
        assert outcome.report.mfdr_xn < 0.1
