"""Span tracer for the traced benchmark run, and the per-layer report.

The tracer wraps the package's public functions at the module attributes
their callers look up (``nonmarginal.experiments.gibbs_sample`` and so on)
and restores them afterwards; nothing under ``src/`` is edited.  It only sees
calls made in this process, so traced runs use ``workers=1``.  Spans (name,
start, end, parent, run id) and counts are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from nonmarginal import calibration, decisions, experiments
from workloads import unique_rows

LAYERS = ("model_ar1", "decisions", "hypotheses", "error_rates", "calibration", "experiments")

# (module, attribute, span name); the span name's prefix is its layer.
_FUNCTIONS = (
    (experiments, "generate_design", "model_ar1.generate_design"),
    (experiments, "simulate", "model_ar1.simulate"),
    (experiments, "gibbs_sample", "model_ar1.gibbs_sample"),
    (experiments, "estimate_error_exponent", "model_ar1.estimate_error_exponent"),
    (experiments, "alternative_indicators", "decisions.alternative_indicators"),
    (experiments, "marginal_probs", "decisions.marginal_probs"),
    (experiments, "optimize_decisions", "decisions.optimize_decisions"),
    (experiments, "joint_correct_probs", "decisions.joint_correct_probs"),
    (experiments, "posterior_rates", "error_rates.posterior_rates"),
    (experiments, "frequentist_rates", "error_rates.frequentist_rates"),
    (experiments, "read_group_file", "hypotheses.read_group_file"),
    (experiments, "build_groups", "hypotheses.build_groups"),
    (experiments, "connected_components", "hypotheses.connected_components"),
    (calibration, "calibrate_penalty", "calibration.calibrate_penalty"),
    (calibration, "mpbfdr_curve", "calibration.mpbfdr_curve"),
    (experiments, "run_scenario", "experiments.run_scenario"),
    (experiments, "build_replicate_posterior", "experiments.build_replicate_posterior"),
    (experiments, "write_replicate_csv", "experiments.write_artifact"),
    (experiments.RunManifest, "to_json", "experiments.write_artifact"),
    (experiments.ScenarioConfig, "to_json", "experiments.write_artifact"),
    (experiments.DecisionEnsemble, "__init__", "experiments.DecisionEnsemble"),
    (experiments.DecisionEnsemble, "grow", "calibration.grow"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    error: str = ""

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans and counts for one traced benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.run = 0
        self.hook_s = 0.0  # time spent taking counts outside the wrapped calls
        self._stack: list[int] = []
        self._designs: dict[int, set[str]] = defaultdict(set)  # per run id
        self._design_calls: Counter = Counter()  # per run id
        self._seen: set[tuple] = set()
        self._unique: dict[int, list[float]] = defaultdict(list)
        self._n: int | None = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = Span(len(self.spans), name, time.perf_counter(), math.nan,
                      self._stack[-1] if self._stack else None, self.run)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        before = getattr(self, "_before_" + fn.__name__.strip("_"), None)
        after = getattr(self, "_after_" + fn.__name__.strip("_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if before is not None:
                before(*args, **kwargs)
            t1 = time.perf_counter()
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if after is not None:
                after(record, result, *args, **kwargs)
            self.hook_s += (t1 - t0) + (time.perf_counter() - record.end)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in _FUNCTIONS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            ensemble = experiments.DecisionEnsemble
            original = ensemble.__dict__["evaluate"]
            originals.append((ensemble, "evaluate", original))
            setattr(ensemble, "evaluate", self._counting_evaluate(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _counting_evaluate(self, fn):
        @functools.wraps(fn)
        def evaluate(ensemble, penalty, objective="mpbfdr", rule="nonmarginal"):
            key = (self.run, id(ensemble), ensemble.replicate_count, rule,
                   round(float(penalty), 15))
            if any(self.spans[s].name == "calibration.calibrate_penalty" for s in self._stack):
                self.counts["calibration.evaluations"] += 1
                self.counts["calibration.cache_hits"] += key in self._seen
            self._seen.add(key)
            return fn(ensemble, penalty, objective=objective, rule=rule)

        return evaluate

    # -- counts taken at the same boundaries as the spans ------------------

    def _after_generate_design(self, record, design, *args, **kwargs):
        self._designs[self.run].add(hashlib.sha1(design.z.tobytes()).hexdigest())
        self.counts["model_ar1.design_calls"] += 1
        self._design_calls[self.run] += 1

    def _after_gibbs_sample(self, record, draws, *args, **kwargs):
        sweeps = draws.diagnostics["sweeps"]
        self.counts["model_ar1.gibbs_chains"] += 1
        self.counts["model_ar1.gibbs_sweeps"] += sweeps
        self.samples["model_ar1.gibbs_chain_ms"].append(record.duration * 1e3)
        self.samples["model_ar1.gibbs_sweep_us"].append(record.duration * 1e6 / sweeps)

    def _after_alternative_indicators(self, record, indicators, *args, **kwargs):
        self._unique[self._n].append(unique_rows(indicators.ind) / indicators.num_draws)

    def _before_build_replicate_posterior(self, cfg, n, replicate_id):
        self._n = n

    def _after_optimize_decisions(self, record, result, *args, **kwargs):
        partition = args[2] if len(args) > 2 else kwargs["partition"]
        optimizer = (args[4] if len(args) > 4 else kwargs.get("config")) or decisions.OptimizerConfig()
        limit = optimizer.exact_component_limit
        sizes = [len(c) for c in partition.components]
        exact = [k for k in sizes if 1 < k <= limit]
        annealed = [k for k in sizes if k > limit]
        self.counts["decisions.optimize_calls"] += 1
        self.counts["decisions.components_singleton"] += sizes.count(1)
        self.counts["decisions.components_exact"] += len(exact)
        self.counts["decisions.components_annealed"] += len(annealed)
        self.counts["decisions.enumerated_configs"] += sum(1 << k for k in exact)
        self.counts["decisions.anneal_steps"] += (
            optimizer.restarts * optimizer.annealing_iterations * len(annealed)
        )
        self.samples["decisions.optimize_ms"].append(record.duration * 1e3)

    def _after_connected_components(self, record, partition, *args, **kwargs):
        biggest = max(len(c) for c in partition.components)
        self.counts["hypotheses.max_component"] = max(self.counts["hypotheses.max_component"], biggest)

    def _after_estimate_error_exponent(self, record, result, *args, **kwargs):
        self.counts["model_ar1.exponent_calls"] += 1

    def _after_grow(self, record, result, ensemble, *args, **kwargs):
        self.counts["calibration.grow_calls"] += 1

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def foreign_time(self, span_id: int) -> float:
        """Time inside a span spent in spans of other layers (nearest ones only)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        layer = self.spans[span_id].layer

        def walk(sid):
            total = 0.0
            for child in children[sid]:
                total += child.duration if child.layer != layer else walk(child.id)
            return total

        return walk(span_id)

    def by_name(self) -> dict[str, dict]:
        selfs = self.self_times()
        table: dict[str, dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.id]
            row["errors"] += bool(s.error)
        return table

    def unique_rows_frac(self) -> dict[int, float]:
        return {n: float(np.mean(v)) for n, v in sorted(self._unique.items())}

    def design_reuse(self) -> float:
        """Distinct designs over generate_design calls, averaged over iterations."""
        ratios = [len(self._designs[run]) / calls for run, calls in self._design_calls.items()]
        return float(np.mean(ratios)) if ratios else 0.0


def percentile_tail(samples) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest whole percentile
    with at least ten samples above it, or the median when there are under 20."""
    if not samples:
        return 0.0, 0.0, 0.0
    values = np.asarray(samples, dtype=float)
    median = float(np.median(values))
    if values.size < 20:
        return median, median, 50.0
    pct = math.floor(100.0 * (1.0 - 10.0 / values.size))
    return median, float(np.percentile(values, pct)), float(pct)


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as totals per traced iteration unless named per call."""
    table = tracer.by_name()
    counts = tracer.counts

    def total(*names):
        return sum(table.get(name, {}).get("total_s", 0.0) for name in names) / iterations

    def per_iter(name):
        return counts[name] / iterations

    chain_p50, chain_tail, chain_pct = percentile_tail(tracer.samples["model_ar1.gibbs_chain_ms"])
    sweep_p50, sweep_tail, _ = percentile_tail(tracer.samples["model_ar1.gibbs_sweep_us"])
    opt_p50, opt_tail, opt_pct = percentile_tail(tracer.samples["decisions.optimize_ms"])
    calls = counts["decisions.optimize_calls"]
    per_call = (lambda name: counts[name] / calls) if calls else (lambda name: 0.0)
    evaluations = counts["calibration.evaluations"]
    unique = tracer.unique_rows_frac()
    ensembles = [s for s in tracer.spans if s.name == "experiments.DecisionEnsemble"]
    replicates = table.get("experiments.build_replicate_posterior", {})
    metrics: dict[str, tuple[float, str]] = {
        "model_ar1.gibbs_s": (total("model_ar1.gibbs_sample"), "s"),
        "model_ar1.gibbs_chain_ms": (chain_p50, "ms"),
        "model_ar1.gibbs_chain_ms_tail": (chain_tail, "ms"),
        "model_ar1.gibbs_chain_ms_tail_pct": (chain_pct, "%"),
        "model_ar1.gibbs_sweep_us": (sweep_p50, "us"),
        "model_ar1.gibbs_sweep_us_tail": (sweep_tail, "us"),
        "model_ar1.gibbs_chains": (per_iter("model_ar1.gibbs_chains"), "count"),
        "model_ar1.gibbs_sweeps": (per_iter("model_ar1.gibbs_sweeps"), "count"),
        "model_ar1.design_s": (total("model_ar1.generate_design"), "s"),
        "model_ar1.design_calls": (per_iter("model_ar1.design_calls"), "count"),
        "model_ar1.design_reuse": (tracer.design_reuse(), "ratio"),
        "model_ar1.simulate_s": (total("model_ar1.simulate"), "s"),
        "model_ar1.exponent_s": (total("model_ar1.estimate_error_exponent"), "s"),
        "model_ar1.exponent_calls": (per_iter("model_ar1.exponent_calls"), "count"),
        "decisions.optimize_s": (total("decisions.optimize_decisions"), "s"),
        "decisions.optimize_ms": (opt_p50, "ms"),
        "decisions.optimize_ms_tail": (opt_tail, "ms"),
        "decisions.optimize_ms_tail_pct": (opt_pct, "%"),
        "decisions.optimize_calls": (per_iter("decisions.optimize_calls"), "count"),
        "decisions.components_singleton": (per_call("decisions.components_singleton"), "count"),
        "decisions.components_exact": (per_call("decisions.components_exact"), "count"),
        "decisions.components_annealed": (per_call("decisions.components_annealed"), "count"),
        "decisions.enumerated_configs": (per_iter("decisions.enumerated_configs"), "count"),
        "decisions.anneal_steps": (per_iter("decisions.anneal_steps"), "count"),
        "decisions.joint_s": (total("decisions.joint_correct_probs"), "s"),
        "decisions.indicators_s": (
            total("decisions.alternative_indicators", "decisions.marginal_probs"), "s"),
        "decisions.unique_rows_frac_nmin": (unique[min(unique)] if unique else 0.0, "ratio"),
        "decisions.unique_rows_frac_nmax": (unique[max(unique)] if unique else 0.0, "ratio"),
        "error_rates.posterior_s": (total("error_rates.posterior_rates"), "s"),
        "error_rates.frequentist_s": (total("error_rates.frequentist_rates"), "s"),
        "calibration.bisection_s": (total("calibration.calibrate_penalty"), "s"),
        "calibration.curve_s": (total("calibration.mpbfdr_curve"), "s"),
        "calibration.evaluations": (per_iter("calibration.evaluations"), "count"),
        "calibration.grow_calls": (per_iter("calibration.grow_calls"), "count"),
        "calibration.cache_hit_frac": (
            counts["calibration.cache_hits"] / evaluations if evaluations else 0.0, "ratio"),
        "experiments.ensemble_s": (total("experiments.DecisionEnsemble"), "s"),
        "experiments.ensemble_self_s": (
            sum(s.duration - tracer.foreign_time(s.id) for s in ensembles) / iterations, "s"),
        "experiments.artifacts_s": (total("experiments.write_artifact"), "s"),
        "experiments.replicates_sampled": (replicates.get("calls", 0) / iterations, "count"),
        "experiments.failed_replicates": (replicates.get("errors", 0) / iterations, "count"),
        "hypotheses.groups_s": (
            total("hypotheses.read_group_file", "hypotheses.build_groups",
                  "hypotheses.connected_components"), "s"),
        "hypotheses.max_component": (float(counts["hypotheses.max_component"]), "count"),
        "trace.hook_s": (tracer.hook_s / iterations, "s"),
    }
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in table.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (own / iterations, "s")
    return metrics


# Which end-to-end metric each per-layer metric should move, and where.  Later
# changes check their claims against this table.
PREDICTIONS = (
    ("model_ar1.gibbs_s, gibbs_chain_ms, gibbs_sweep_us, gibbs_chains, gibbs_sweeps",
     "wall_s, cpu_s", "paper_grid most; grouped_grid (~30%); grouped_curve (~25%)"),
    ("model_ar1.design_s, design_calls, design_reuse", "cpu_s (slightly)", "paper_grid"),
    ("model_ar1.simulate_s", "cpu_s (negligibly)", "all"),
    ("model_ar1.exponent_s, exponent_calls", "wall_s", "grouped_grid (~7%); paper_grid (~2%)"),
    ("decisions.optimize_s, optimize_ms, optimize_calls", "wall_s",
     "grouped_curve (exact), grouped_grid (annealed); no change on paper_grid"),
    ("decisions.components_singleton, components_exact, components_annealed",
     "(work description)", "all"),
    ("decisions.enumerated_configs, anneal_steps", "wall_s (what bucket elimination removes)",
     "grouped_curve, grouped_grid"),
    ("decisions.joint_s, indicators_s", "wall_s", "grouped_curve, grouped_grid"),
    ("decisions.unique_rows_frac_nmin, unique_rows_frac_nmax", "wall_s (unique-row storage)",
     "grouped_grid at n=2000 only"),
    ("error_rates.posterior_s, frequentist_s", "none (regression guard)", "all"),
    ("calibration.bisection_s, curve_s, evaluations, grow_calls, cache_hit_frac", "wall_s",
     "grouped_curve"),
    ("experiments.ensemble_s, ensemble_self_s, artifacts_s, replicates_sampled, "
     "failed_replicates", "wall_s, failed_frac", "all"),
    ("hypotheses.groups_s, max_component", "setup_s (the input generator reads the group file), "
     "wall_s (each ensemble reads it again)", "grouped_curve, grouped_grid"),
)


def write_trace(path, tracer: Tracer, extra: dict) -> None:
    payload = {
        "spans": [vars(s) for s in tracer.spans],
        "counts": dict(tracer.counts),
        "by_name": tracer.by_name(),
        **extra,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))


def report(tracer: Tracer, iterations: int, metrics: dict, header: str) -> str:
    """Markdown per-layer report: per span name, then per layer, then predictions."""
    lines = [header, "", "| span | calls | total s | self s |", "|---|---:|---:|---:|"]
    for name, row in sorted(tracer.by_name().items()):
        lines.append(f"| {name} | {row['calls'] / iterations:g} | "
                     f"{row['total_s'] / iterations:.4f} | {row['self_s'] / iterations:.4f} |")
    lines += ["", "Per traced iteration.", "", "| metric | value | unit |", "|---|---:|---|"]
    for name, (value, unit) in metrics.items():
        lines.append(f"| {name} | {value:.6g} | {unit} |")
    lines += ["", "| per-layer metrics | should move | on |", "|---|---|---|"]
    lines += [f"| {a} | {b} | {c} |" for a, b, c in PREDICTIONS]
    return "\n".join(lines) + "\n"
