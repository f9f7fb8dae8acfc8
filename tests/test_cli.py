"""End-to-end checks of the command-line interface (in-process)."""

import json

import pytest

from nonmarginal import PriorConfig, experiments, generate_design, gibbs_sample, simulate
from nonmarginal.cli import main
from nonmarginal.model_ar1 import save_draws


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


def test_decide_runs_on_saved_draws(config_path, tmp_path, tiny_cfg):
    design = generate_design(60, tiny_cfg.num_covariates, seed=1)
    params = tiny_cfg.params_for(tiny_cfg.num_covariates)
    data = simulate(params, design, 60, seed=2)
    draws = gibbs_sample(data, PriorConfig(), num_draws=60, burn_in=30, seed=3)
    draws_path = tmp_path / "draws.csv"
    save_draws(draws_path, draws)
    out = tmp_path / "dec"
    assert main(
        ["decide", "--config", config_path, "--draws", str(draws_path),
         "--cost", "1.0", "--out", str(out)]
    ) == 0
    lines = (out / "decisions.csv").read_text().splitlines()
    assert lines[0] == "d_hat_bits,objective,beta,seed,component_sizes"
    bits = lines[1].split(",")[0]
    assert len(bits) == 5 and set(bits) <= {"0", "1"}


def test_decide_rejects_conflicting_flags(config_path, tmp_path):
    assert main(
        ["decide", "--config", config_path, "--draws", "missing.csv",
         "--penalty", "0.5", "--cost", "1.0"]
    ) == 2


def test_replicate_then_rates_round_trip(config_path, tmp_path, capsys):
    out = tmp_path / "scenario"
    assert main(["replicate", "--config", config_path, "--out", str(out)]) == 0
    paths = sorted(out.glob("report_*.json")) + [out / "rate_fits.json"]
    before = {path.name: path.read_bytes() for path in paths}
    assert len(before) == 7
    for path in paths:
        path.unlink()
    assert main(["rates", "--config", config_path, "--out", str(out)]) == 0
    assert {path.name: path.read_bytes() for path in paths} == before


def test_calibrate_writes_traces(config_path, tmp_path):
    code = main(
        ["calibrate", "--config", config_path, "--alpha", "0.2", "--out", str(tmp_path / "cal")]
    )
    assert code in (0, 1)  # feasibility depends on the tiny scenario's noise
    assert (tmp_path / "cal" / "calibration_n40.csv").exists()
    assert (tmp_path / "cal" / "calibration_summary.json").exists()


def test_j_estimate_prints_value(config_path, capsys):
    assert main(["j-estimate", "--config", config_path, "--n", "80"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] >= 0.0
    assert len(payload["per_hypothesis"]) == 5


def test_check_subcommand_runs_fast_criteria(capsys):
    assert main(["check", "--criteria", "9"]) == 0
    out = capsys.readouterr().out
    assert "criterion 9" in out and "PASS" in out


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
    real = experiments.build_replicate_posterior
    built = []

    def counting(cfg, n, replicate_id):
        built.append((n, replicate_id))
        return real(cfg, n, replicate_id)

    monkeypatch.setattr(experiments, "build_replicate_posterior", counting)
    args = ["replicate", "--config", config_path, "--workers", "1", "--out", str(tmp_path / "out"),
            "--check", "--criteria", "2"]
    assert main(args) in (0, 1)  # criterion 2's verdict depends on the tiny scenario's noise
    assert len(built) == len(tiny_cfg.n_grid) * tiny_cfg.replicates == 9
    assert len(set(built)) == 9
