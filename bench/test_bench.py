"""Smoke test of the benchmark at a tiny size (one replicate, few draws).

    python3 -m pytest bench/test_bench.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that the output checks pass on clean output, and that they fail on corrupted
output.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run

run._import_package()

import checks  # noqa: E402  (needs the package on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _units(result) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_are_emitted(workload):
    result = run.run_workload(workload, SEED, 0.0, False, workloads.TINY[workload])
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_emitted():
    result = run.run_workload("grouped_curve", SEED, 0.0, True, workloads.TINY["grouped_curve"])
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["decisions.components_exact"] == 3
    assert metrics["calibration.evaluations"] >= 1
    assert metrics["model_ar1.gibbs_chains"] == 1


def test_report_only_metrics_stay_out_of_the_result(capsys):
    result = run.run_workload("paper_grid", SEED, 0.0, False, workloads.TINY["paper_grid"])
    printed = capsys.readouterr().out
    assert "failed_frac" not in result["metrics"]
    assert "failed_frac" in printed and "ratio" in printed
    assert run.REPORT_ONLY.isdisjoint(m["name"] for m in SPEC["per_layer"] + SPEC["end_to_end"])


def test_design_reuse_is_per_iteration(tmp_path):
    inputs = workloads.generate_inputs("paper_grid", SEED, tmp_path / "inputs",
                                       workloads.TINY["paper_grid"])
    tracer = spans.Tracer()
    for iteration in range(2):
        tracer.run = iteration
        with tracer.installed():
            workloads.run_once(inputs, 1, tmp_path / f"out{iteration}")
    metrics = {name: value for name, (value, _) in spans.layer_metrics(tracer, 2).items()}
    # one design per n, however many iterations were traced
    n_grid = len(inputs.properties["components_by_n"])
    assert metrics["model_ar1.design_reuse"] == pytest.approx(
        n_grid / metrics["model_ar1.design_calls"])


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One tiny iteration of each workload, as the checks see it."""
    out = {}
    for workload in workloads.NAMES:
        directory = tmp_path_factory.mktemp(workload)
        inputs = workloads.generate_inputs(workload, SEED, directory / "inputs",
                                           workloads.TINY[workload])
        result = workloads.run_once(inputs, 1, directory / "out")
        out[workload] = workloads.extract(inputs, result, directory / "out")
    return out


def test_checks_pass_on_clean_output(clean):
    for outputs in clean.values():
        assert checks.check(outputs) == []


def test_flipped_decision_bit_fails(clean):
    outputs = dict(clean["paper_grid"])
    first = outputs["decisions"][0]
    bits = first.nonmarginal.copy()
    bits[0] = not bits[0]
    outputs["decisions"] = [dataclasses.replace(first, nonmarginal=bits), *outputs["decisions"][1:]]
    assert any("differ" in e for e in checks.check(outputs))


def test_non_monotone_curve_fails(clean):
    outputs = dict(clean["grouped_curve"])
    curve = list(outputs["curve"])
    curve[-1] = (curve[-1][0], curve[0][1] + 1.0)
    outputs["curve"] = curve
    assert any("non-increasing" in e for e in checks.check(outputs))


@pytest.mark.parametrize("workload", ["grouped_curve", "grouped_grid"])
def test_decision_below_the_additive_rule_fails(clean, workload):
    from nonmarginal import decisions

    outputs = dict(clean[workload])
    first = next(d for d in outputs["decisions"] if d.penalty >= 0.3)
    # rejecting only the hypothesis least likely to be an alternative makes the
    # objective negative: its joint probability is at most its marginal
    marginals = decisions.marginal_probs(first.indicators)
    bits = np.zeros_like(first.nonmarginal)
    bits[int(np.argmin(marginals))] = True
    assert marginals.min() < first.penalty
    outputs["decisions"] = [dataclasses.replace(first, nonmarginal=bits)]
    assert any("objective" in e for e in checks.check(outputs))


def test_missing_artifact_fails(clean):
    outputs = dict(clean["grouped_grid"])
    out_dir, names = outputs["artifacts"]
    outputs["artifacts"] = (out_dir, [*names, "absent.csv"])
    assert any("missing" in e for e in checks.check(outputs))


def test_disagreeing_iterations_fail():
    assert checks.check_repeatable(["a", "a"]) == []
    assert checks.check_repeatable(["a", "b"]) != []


def test_chain_groups_stay_inside_blocks():
    rows = workloads.chain_groups((3, 2))
    assert rows == [[0], [1, 2], [1, 2, 3], [2, 3], [4, 5], [4, 5]]
