"""End-to-end checks of the command-line interface (in-process)."""

import json

import numpy as np
import pytest

from nonmarginal import (
    InvalidSpec, PriorConfig, ScenarioConfig, experiments, generate_design, gibbs_sample, simulate,
)
from nonmarginal.cli import main


@pytest.fixture
def config_path(tiny_cfg, tmp_path):
    path = tmp_path / "config.json"
    tiny_cfg.to_json(path)
    return str(path)


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_grid"] == [250, 500, 1000, 2000]
    assert payload["penalty"] == 0.5
    assert "prior" in payload and payload["prior"]["family"] == "independent_gaussian"


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_simulate_writes_artifacts(config_path, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config_path, "--n", "40", "--out", str(out)]) == 0
    for name in ("design.csv", "design.csv.json", "dataset.csv", "truth.txt", "groups.txt"):
        assert (out / name).exists(), name
    assert (out / "truth.txt").read_text().strip() == "00100"


@pytest.fixture
def draws_path(tmp_path, tiny_cfg):
    """A posterior draws CSV as ``decide`` reads it."""
    design = generate_design(60, tiny_cfg.num_covariates, seed=1)
    params = tiny_cfg.params_for(tiny_cfg.num_covariates)
    data = simulate(params, design, 60, seed=2)
    draws = gibbs_sample([data], PriorConfig(), num_draws=60, seeds=[3]).chains[0]
    path = tmp_path / "draws.csv"
    np.savetxt(path, draws.draws, delimiter=",", header="rho,sigma2,beta0,beta1,beta2,beta3",
               comments="", fmt="%.17g")
    return str(path)


def test_decide_runs_on_saved_draws(config_path, tmp_path, draws_path):
    out = tmp_path / "dec"
    assert main(
        ["decide", "--config", config_path, "--draws", draws_path,
         "--cost", "1.0", "--out", str(out)]
    ) == 0
    lines = (out / "decisions.csv").read_text().splitlines()
    assert lines[0] == "d_hat_bits,objective,beta,seed,component_sizes"
    bits = lines[1].split(",")[0]
    assert len(bits) == 5 and set(bits) <= {"0", "1"}


@pytest.mark.parametrize("flag, value", [("--seed", "-5"), ("--workers", "-1")])
def test_overrides_are_checked_as_config_fields(config_path, capsys, flag, value):
    assert main(["j-estimate", "--config", config_path, "--n", "80", flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("override", [{"n_grid": 250}, {"prior": "gp_decay"}, {"replicates": 2.5}])
def test_config_of_the_wrong_type_is_an_error(tmp_path, capsys, override):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(override))
    assert main(["j-estimate", "--config", str(path), "--n", "80"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and next(iter(override)) in err


@pytest.mark.parametrize("key, value", [
    ("group_threshold", 2.0), ("group_max_size", 0), ("design_generator", "nope"),
    ("null_radius", -1), ("rho_null_bound", 0), ("sigma0_sq", 0), ("design_scale", 0.0),
    ("calibration_max_iterations", -3),
])
def test_values_checked_where_they_are_used_are_refused_when_the_config_is_built(
        tiny_cfg, tmp_path, monkeypatch, capsys, key, value):
    with pytest.raises(InvalidSpec):
        ScenarioConfig(**{key: value})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**tiny_cfg.to_dict(), key: value}))
    designs = []
    monkeypatch.setattr(experiments, "generate_design", lambda *a, **k: designs.append(a))
    out = tmp_path / "scenario"
    assert main(["replicate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert designs == [] and not out.exists()


def test_decide_rejects_conflicting_flags(config_path, tmp_path):
    assert main(
        ["decide", "--config", config_path, "--draws", "missing.csv",
         "--penalty", "0.5", "--cost", "1.0"]
    ) == 2


@pytest.mark.parametrize("cost", ["0", "-1"])
def test_decide_rejects_a_cost_that_is_not_positive(config_path, tmp_path, draws_path, cost):
    assert main(
        ["decide", "--config", config_path, "--draws", draws_path, "--cost", cost,
         "--out", str(tmp_path / "dec")]
    ) == 2


def test_replicate_then_rates_round_trip(config_path, tmp_path, capsys):
    out = tmp_path / "scenario"
    assert main(["replicate", "--config", config_path, "--out", str(out)]) == 0
    paths = [out / "rate_fits.json", out / "rates.csv"]
    before = {path.name: path.read_bytes() for path in paths}
    for path in paths:
        path.unlink()
    assert main(["rates", "--config", config_path, "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in paths} == before


def test_rates_reads_the_config_of_the_run_by_default(config_path, tmp_path):
    out = tmp_path / "scenario"
    assert main(["replicate", "--config", config_path, "--out", str(out)]) == 0
    before = (out / "rates.csv").read_bytes()  # m_n is 3 here, 10 in the default config
    assert main(["rates", "--out", str(out)]) == 0
    assert (out / "rates.csv").read_bytes() == before


def test_rates_without_an_exponent_writes_valid_json(config_path, tmp_path):
    out = tmp_path / "scenario"
    assert main(["replicate", "--config", config_path, "--out", str(out)]) == 0
    (out / "exponent.json").unlink()
    assert main(["rates", "--config", config_path, "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    fits = json.loads((out / "rate_fits.json").read_text(), parse_constant=reject)
    assert {fit["exponent_reference"] for fit in fits.values()} == {"nan"}


def test_calibrate_writes_traces(config_path, tmp_path):
    code = main(
        ["calibrate", "--config", config_path, "--alpha", "0.2", "--out", str(tmp_path / "cal")]
    )
    assert code in (0, 1)  # feasibility depends on the tiny scenario's noise
    assert (tmp_path / "cal" / "calibration_n40.csv").exists()
    assert (tmp_path / "cal" / "calibration_summary.json").exists()


def test_j_estimate_prints_value(config_path, capsys, tmp_path):
    assert main(["j-estimate", "--config", config_path, "--n", "80", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert payload["value"] >= 0.0
    assert len(payload["per_hypothesis"]) == 5
    assert (tmp_path / "exponent.json").read_text() == printed.rstrip("\n")


@pytest.fixture
def dispatches(monkeypatch):
    """The chain count of every batch, one list per sampling dispatch."""
    real = experiments._parallel_map
    seen = []

    def counting(fn, items, workers):
        seen.append([len(batch) for _, _, batch in items])
        return real(fn, items, workers)

    monkeypatch.setattr(experiments, "_parallel_map", counting)
    return seen


def test_check_subcommand_runs_fast_criteria(capsys, dispatches):
    assert main(["check", "--criteria", "9"]) == 0
    out = capsys.readouterr().out
    assert "criterion 9" in out and "PASS" in out
    assert dispatches == []


@pytest.mark.parametrize("token", ["10", "x"])
def test_unknown_criterion_is_a_usage_error(capsys, token):
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--criteria", f"9,{token}"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and repr(token) in err and "1, 2, 3, 4, 5, 6, 7, 8, 9" in err


@pytest.mark.parametrize("command", [["check", "--criteria", "2"], ["calibrate", "--alpha", "0.2"]])
def test_the_grid_is_sampled_in_one_dispatch(command, tiny_cfg, tmp_path, dispatches):
    path = tmp_path / "config.json"
    # a tolerance no Monte Carlo error of 3 replicates exceeds, so calibration never grows
    ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "calibration_tolerance": 0.9}).to_json(path)
    args = command + ["--config", str(path), "--workers", "1", "--out", str(tmp_path / "out")]
    assert main(args) in (0, 1)  # the verdicts depend on the tiny scenario's noise
    assert dispatches == [[9]]


def test_criteria_judge_the_penalty_of_the_config(tiny_cfg, tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "penalty": 0.3}).to_json(path)
    real = experiments.optimize_decisions
    penalties = set()

    def recording(indicators, groups, partition, penalty):
        penalties.add(penalty)
        return real(indicators, groups, partition, penalty)

    monkeypatch.setattr(experiments, "optimize_decisions", recording)
    args = ["replicate", "--config", str(path), "--workers", "1", "--out", str(tmp_path / "out"),
            "--check", "--criteria", "2"]
    assert main(args) in (0, 1)
    assert penalties == {0.3}


def test_criteria_without_decay_fits_fail_and_the_others_still_report(tiny_cfg, tmp_path,
                                                                      capsys):
    path = tmp_path / "config.json"
    ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "n_grid": [40, 80]}).to_json(path)
    args = ["check", "--criteria", "2,3,5", "--config", str(path), "--workers", "1"]
    assert main(args) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines] == ["criterion 2", "criterion 3", "criterion 5"]
    for line in lines[1:]:
        assert line.endswith("FAIL - the decay fits need at least three sample sizes, the grid has 2")


def test_monotone_curve_on_a_one_size_grid(tiny_cfg, tmp_path, capsys):
    path = tmp_path / "config.json"
    ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "n_grid": [40]}).to_json(path)
    assert main(["check", "--criteria", "8", "--config", str(path), "--workers", "1"]) in (0, 1)
    assert "criterion 8 (monotone curve)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command",
    [["replicate"], ["check", "--criteria", "2"], ["replicate", "--check", "--criteria", "2"]],
)
def test_failed_replicate_fails_the_run(command, config_path, tiny_cfg, tmp_path,
                                        replicate_1_fails, capsys):
    args = command + ["--config", config_path, "--workers", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    failed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("failed:")]
    assert sorted(failed) == sorted(
        f"failed: replicate 1 at n={n}: RuntimeError: synthetic failure" for n in tiny_cfg.n_grid
    )


def test_replicate_check_reuses_the_scenario_ensembles(config_path, tiny_cfg, tmp_path, monkeypatch):
    real = experiments.simulate_replicate
    built = []

    def counting(cfg, design, replicate_id):
        built.append((design.n_obs, replicate_id))
        return real(cfg, design, replicate_id)

    monkeypatch.setattr(experiments, "simulate_replicate", counting)
    args = ["replicate", "--config", config_path, "--workers", "1", "--out", str(tmp_path / "out"),
            "--check", "--criteria", "2"]
    assert main(args) in (0, 1)  # criterion 2's verdict depends on the tiny scenario's noise
    assert len(built) == len(tiny_cfg.n_grid) * tiny_cfg.replicates == 9
    assert len(set(built)) == 9


def test_replicates_that_fail_while_calibration_grows_are_counted(tiny_cfg, tmp_path, monkeypatch,
                                                                  capsys):
    real = experiments.simulate_replicate

    def flaky(cfg, design, replicate_id):  # only the ids that growing the budget adds fail
        if replicate_id >= tiny_cfg.replicates:
            raise RuntimeError("synthetic failure")
        return real(cfg, design, replicate_id)

    grown_sizes = []  # the sizes whose calibration grows the budget, in the order they grow
    real_grow = experiments.DecisionEnsemble.grow

    def recording_grow(ensemble):
        grown_sizes.append(ensemble.n)
        return real_grow(ensemble)

    monkeypatch.setattr(experiments, "simulate_replicate", flaky)
    monkeypatch.setattr(experiments.DecisionEnsemble, "grow", recording_grow)
    path = tmp_path / "config.json"
    ScenarioConfig.from_dict({**tiny_cfg.to_dict(), "target_alpha": 0.2}).to_json(path)
    out = tmp_path / "out"
    assert main(["replicate", "--config", str(path), "--workers", "1", "--out", str(out)]) == 1
    assert grown_sizes and grown_sizes == sorted(set(grown_sizes))
    grown = [f"replicate {rid} at n={n}: RuntimeError: synthetic failure"
             for n in grown_sizes for rid in (3, 4, 5)]
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures[:len(grown)] == grown
    assert [f.split(":")[0] for f in failures[len(grown):]] == [
        f"calibration at n={n}" for n in grown_sizes
    ]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"failed: {failure}" for failure in failures]
