"""Workload inputs, entry calls and output extraction for the benchmark.

Every workload is generated from the seed alone: the seed becomes
``ScenarioConfig.master_seed``, and the program receives only the config file
and (for the grouped workloads) a chain group file, both written here.  The
entry calls go through module attributes (``experiments.run_scenario``,
``calibration.mpbfdr_curve``) so that the tracer in ``spans.py`` can wrap them.

Why each workload exists is written up in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nonmarginal import calibration, experiments, hypotheses

NAMES = ("paper_grid", "grouped_curve", "grouped_grid")

# Coefficients given a true signal on the 40-covariate workloads: two per block
# of the curve workload's chain groups, so every component holds an alternative.
GROUPED_ACTIVE = (1, 9, 20, 27, 35, 38)
CURVE_N = 1000
CURVE_BLOCKS = (18, 16, 7)
GRID_BLOCKS = (24, 17)
GRID_N = (250, 2000)
# Ascending and fixed; it includes 0.0 so calibration's first evaluation is
# answered from the curve, and it avoids the bisection midpoints.
CURVE_PENALTIES = (0.0, 0.1, 0.3, 0.6)
# Inside feasible_alpha, and near the rate at the first bisection midpoint, so
# calibration converges after one step on most seeds.
CURVE_TARGET = 0.07
# Wide enough that four replicates keep the Monte Carlo error at penalty zero
# under tolerance / 2, so calibration does not grow the ensemble.
CURVE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Size:
    """How much work one iteration of a workload does."""

    replicates: int
    num_draws: int = 4000
    burn_in: int = 1000


FULL = {
    "paper_grid": Size(replicates=2),
    "grouped_curve": Size(replicates=4),
    "grouped_grid": Size(replicates=2),
}
TINY = {name: Size(replicates=1, num_draws=60, burn_in=20) for name in NAMES}


def chain_groups(blocks) -> list[list[int]]:
    """Group file rows: coefficient hypothesis i with i-1 and i+1 inside its block.

    Hypothesis 0, the autoregression, stays a singleton; coefficient i is
    hypothesis i + 1.
    """
    rows = [[0]]
    start = 0
    for size in blocks:
        stop = start + size
        for i in range(start, stop):
            rows.append([1 + j for j in (i - 1, i, i + 1) if start <= j < stop])
        start = stop
    return rows


def scenario_config(workload: str, seed: int, size: Size, group_file: str | None):
    common = dict(
        replicates=size.replicates,
        num_draws=size.num_draws,
        burn_in=size.burn_in,
        master_seed=seed % 2**32,
    )
    if workload == "paper_grid":
        return experiments.ScenarioConfig(**common)
    grouped = dict(num_covariates=40, active_indices=GROUPED_ACTIVE, group_file=group_file)
    if workload == "grouped_curve":
        return experiments.ScenarioConfig(
            n_grid=(CURVE_N,), target_alpha=CURVE_TARGET,
            calibration_tolerance=CURVE_TOLERANCE, **grouped, **common,
        )
    if workload == "grouped_grid":
        return experiments.ScenarioConfig(n_grid=GRID_N, **grouped, **common)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Inputs:
    workload: str
    seed: int
    config_path: Path
    properties: dict = field(default_factory=dict)


def generate_inputs(workload: str, seed: int, directory: Path, size: Size) -> Inputs:
    """Write the config (and chain group file) for one workload and seed.

    Also records input properties: the component-size histogram, split into
    exactly enumerated and annealed components, and the number of
    configurations one joint decision enumerates.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    group_path = None
    blocks = {"grouped_curve": CURVE_BLOCKS, "grouped_grid": GRID_BLOCKS}.get(workload)
    if blocks is not None:
        group_path = directory / "groups.txt"
        group_path.write_text("".join(" ".join(map(str, row)) + "\n" for row in chain_groups(blocks)))
    cfg = scenario_config(workload, seed, size, None if group_path is None else str(group_path))
    config_path = directory / "config.json"
    cfg.to_json(config_path)

    limit = cfg.optimizer_config().exact_component_limit
    histogram, enumerated = {}, {}
    for n in cfg.n_grid:
        spec = cfg.spec_for(cfg.m_for(n))
        if group_path is not None:
            groups = hypotheses.read_group_file(group_path, spec.num_hypotheses)
        else:
            groups = experiments.groups_for(cfg, experiments.design_for(cfg, n), spec)
        sizes = [len(c) for c in hypotheses.connected_components(groups).components]
        histogram[str(n)] = {
            "singleton": _count(s for s in sizes if s == 1),
            "exact": _count(s for s in sizes if 1 < s <= limit),
            "annealed": _count(s for s in sizes if s > limit),
        }
        enumerated[str(n)] = sum(1 << s for s in sizes if 1 < s <= limit)
    properties = {"components_by_n": histogram, "enumerated_configs_per_decision": enumerated,
                  "replicates": size.replicates, "num_draws": size.num_draws}
    return Inputs(workload, seed, config_path, properties)


def _count(sizes) -> dict:
    """Histogram {component size: number of components}, keys as strings."""
    return {str(k): v for k, v in sorted(Counter(sizes).items())}


# ---------------------------------------------------------------------------
# entry calls: everything between the first call into the package and the
# last return is the timed interval
# ---------------------------------------------------------------------------

@dataclass
class CurveResult:
    ensemble: object
    curve: list
    additive: list
    calibration: object


def run_once(inputs: Inputs, workers: int, out_dir: Path):
    cfg = experiments.ScenarioConfig.from_json(inputs.config_path)
    if inputs.workload in ("paper_grid", "grouped_grid"):
        return experiments.run_scenario(cfg, out_dir, workers=workers)
    ensemble = experiments.DecisionEnsemble(cfg, CURVE_N, workers=workers)
    curve = calibration.mpbfdr_curve(ensemble, CURVE_PENALTIES)
    additive = [ensemble.evaluate(b, rule="additive") for b in CURVE_PENALTIES]
    result = calibration.calibrate_penalty(
        cfg.target_alpha, ensemble,
        tolerance=cfg.calibration_tolerance, max_iterations=cfg.calibration_max_iterations,
    )
    return CurveResult(ensemble, curve, additive, result)


# ---------------------------------------------------------------------------
# outputs: plain data the checks in checks.py read, extracted after timing
# ---------------------------------------------------------------------------

@dataclass
class Decision:
    """One replicate's decision at one penalty, with what the checks need."""

    n: int
    replicate_id: int
    penalty: float
    nonmarginal: np.ndarray
    additive: np.ndarray | None
    indicators: object
    groups: object


def _decisions(ensemble, penalty: float, additive_penalty: float | None) -> list[Decision]:
    nonmarginal = ensemble.decide(penalty, "nonmarginal")
    additive = (ensemble.decide(additive_penalty, "additive")
                if additive_penalty is not None else [None] * len(nonmarginal))
    return [
        Decision(rep.n, rep.replicate_id, penalty, nm.config.bits.copy(),
                 None if ad is None else ad.config.bits.copy(), rep.indicators, ensemble.groups)
        for rep, nm, ad in zip(ensemble.replicates, nonmarginal, additive)
    ]


def extract(inputs: Inputs, result, out_dir: Path) -> dict:
    """Everything the output checks and the input properties need from one run."""
    cfg = experiments.ScenarioConfig.from_json(inputs.config_path)
    out: dict = {"workload": inputs.workload, "requested": cfg.replicates, "decisions": []}
    if isinstance(result, CurveResult):
        ens = result.ensemble
        ensembles = {ens.n: ens}
        for b in CURVE_PENALTIES:
            out["decisions"] += _decisions(ens, b, None)
        out["curve"] = [(p.penalty, p.value) for p in result.curve]
        out["additive_curve"] = [(p.penalty, p.value) for p in result.additive]
        lo, hi = calibration.feasible_alpha(ens.proportions.alt_share,
                                            ens.proportions.signal_group_share)
        out["calibration"] = {
            "target": cfg.target_alpha, "feasible": [lo, hi],
            "beta_hat": result.calibration.beta_hat, "achieved": result.calibration.achieved,
            "infeasible": result.calibration.infeasible, "reason": result.calibration.reason,
            "evaluations": len(result.calibration.history),
            "grew": ens.replicate_count + len(ens.failures) > cfg.replicates,
        }
        out["failures"] = len(ens.failures)
        out["attempted"] = ens.replicate_count + len(ens.failures)
    else:
        ensembles = result.ensembles
        additive_penalty = cfg.additive_cost / (1.0 + cfg.additive_cost)
        for n, ens in ensembles.items():
            out["decisions"] += _decisions(ens, cfg.penalty, additive_penalty)
        out["artifacts"] = (str(out_dir), ["config.json", "manifest.json", *result.manifest.outputs])
        out["n_replicates"] = [(n, rule, r.n_replicates) for (n, rule), r in result.reports.items()]
        out["failures"] = max(len(result.manifest.failures),
                              sum(len(e.failures) for e in ensembles.values()))
        out["attempted"] = sum(e.replicate_count + len(e.failures) for e in ensembles.values())

    out["unique_rows_frac"] = {
        str(n): float(np.mean([unique_rows(r.indicators.ind) / r.indicators.num_draws
                               for r in e.replicates]))
        for n, e in ensembles.items()
    }
    out["digest"] = digest(out)
    return out


def unique_rows(ind: np.ndarray) -> int:
    """Number of distinct rows of a boolean draws x hypotheses matrix."""
    packed = np.packbits(ind, axis=1)
    return int(np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel()).size)


def digest(outputs: dict) -> str:
    """Hash of every decision and curve value, to compare repeated iterations."""
    h = hashlib.sha256()
    for d in outputs["decisions"]:
        h.update(f"{d.n}/{d.replicate_id}/{d.penalty!r}".encode())
        h.update(np.packbits(d.nonmarginal).tobytes())
        if d.additive is not None:
            h.update(np.packbits(d.additive).tobytes())
    h.update(json.dumps([outputs.get("curve"), outputs.get("additive_curve")]).encode())
    return h.hexdigest()
