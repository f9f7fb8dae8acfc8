"""Benchmark of the nonmarginal pipeline, end to end and layer by layer.

    python3 bench/run.py --workload grouped_curve --seed 1 --seconds 34 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in turn.
With ``--trace 0`` each iteration of the workload runs with ``workers`` set to
the number of usable cores and the end-to-end metrics are printed; with
``--trace 1`` untraced and traced iterations alternate at ``workers=1`` and the
per-layer metrics are printed, with the tracing overhead.  ``--workload all``
runs each workload in a child process of its own, so that ``peak_rss_mb``
belongs to the workload it is named for.  The last line of standard output is
one JSON object with the result.  Traces, per-layer reports and input
properties are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh-import samples behind setup_s.  One is taken before the iterations and
# the others after rounds, spread evenly over ``--seconds`` (at most one after
# any round); any still missing are taken at the end.
SETUP_SAMPLES = 7
# Printed and written to the reports, but left out of the JSON result and of
# BENCHMARK.json: zero by design on every workload (a bound relative to 0
# means nothing), host noise, or a percentile fixed by the sample count.
REPORT_ONLY = frozenset({
    "failed_frac",
    "calibration.grow_calls",
    "experiments.failed_replicates",
    "trace.overhead_pct",
    "model_ar1.gibbs_chain_ms_tail_pct",
    "decisions.optimize_ms_tail_pct",
})


def _import_package() -> None:
    """Import nonmarginal from this checkout's sources and nowhere else."""
    package = SRC / "nonmarginal"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no package sources at {package}")
    sys.path.insert(0, str(SRC))
    import nonmarginal

    if Path(nonmarginal.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported nonmarginal from {nonmarginal.__file__}, not {package}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


class Setup:
    """Set-up samples: a fresh-process import of the package, then input generation."""

    def __init__(self, workload: str, seed: int, size, workdir: Path):
        self.workload, self.seed, self.size, self.workdir = workload, seed, size, workdir
        self.imports: list[float] = []
        self.generation: list[float] = []

    def sample(self):
        """Take one sample and return the inputs it generated."""
        import workloads

        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nonmarginal"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        self.imports.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        inputs = workloads.generate_inputs(self.workload, self.seed,
                                           self.workdir / f"inputs{len(self.generation)}", self.size)
        self.generation.append(time.perf_counter() - t0)
        return inputs

    def seconds(self) -> float:
        """Median import time plus median input-generation time."""
        while len(self.imports) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.imports) + statistics.median(self.generation)


def iterate(inputs, seconds: float, workdir: Path, modes, setup=None):
    """Repeat rounds of the workload until the next round would overrun ``seconds``.

    A round runs the entry calls once per mode, a mode being (workers, tracer or
    None), and then takes a set-up sample when ``setup`` is given and its
    samples lag behind the schedule.  One untimed pass at the tiny size first
    lets lazy imports and first-call set-up finish.  Returns per-mode (wall,
    cpu) samples, check errors and per-iteration output summaries.
    """
    import checks
    import workloads

    warmup = workloads.generate_inputs(inputs.workload, inputs.seed, workdir / "warmup",
                                       workloads.TINY[inputs.workload])
    workloads.run_once(warmup, modes[0][0], workdir / "warmup-out")
    samples = [[] for _ in modes]
    errors, digests, summaries = [], [], []
    start = time.perf_counter()
    round_no = 0
    while True:
        round_start = time.perf_counter()
        for index, (workers, tracer) in enumerate(modes):
            out_dir = workdir / f"round{round_no}-{index}"
            wall0, cpu0 = time.perf_counter(), _cpu_seconds()
            if tracer is None:
                result = workloads.run_once(inputs, workers, out_dir)
            else:
                tracer.run = round_no
                with tracer.installed(), tracer.span("bench.iteration"):
                    result = workloads.run_once(inputs, workers, out_dir)
            samples[index].append((time.perf_counter() - wall0, _cpu_seconds() - cpu0))
            outputs = workloads.extract(inputs, result, out_dir)
            del result
            errors += checks.check(outputs)
            digests.append(outputs["digest"])
            summaries.append({k: outputs[k] for k in
                              ("attempted", "failures", "unique_rows_frac", "calibration")
                              if k in outputs})
            shutil.rmtree(out_dir, ignore_errors=True)
        if setup is not None and seconds > 0:
            share = (time.perf_counter() - start) / seconds
            if len(setup.imports) < min(1 + (SETUP_SAMPLES - 1) * share, SETUP_SAMPLES):
                setup.sample()
        round_no += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    errors += checks.check_repeatable(digests)
    return samples, errors, summaries


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Run one workload and return the result object printed as JSON."""
    import spans
    import workloads

    size = size or workloads.FULL[workload]
    workdir = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup = Setup(workload, seed, size, workdir)
        inputs = setup.sample()
        if trace:
            tracer = spans.Tracer()
            samples, errors, summaries = iterate(inputs, seconds, workdir, [(1, None), (1, tracer)])
            plain = statistics.median(w for w, _ in samples[0])
            traced = statistics.median(w for w, _ in samples[1])
            metrics = spans.layer_metrics(tracer, len(samples[1]))
            metrics["trace.untraced_wall_s"] = (plain, "s")
            metrics["trace.traced_wall_s"] = (traced, "s")
            metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
        else:
            samples, errors, summaries = iterate(inputs, seconds, workdir,
                                                 [(usable_cores(), None)], setup)
            metrics = {
                "wall_s": (statistics.median(w for w, _ in samples[0]), "s"),
                "cpu_s": (statistics.median(c for _, c in samples[0]), "s"),
                "setup_s": (setup.seconds(), "s"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failures"] for s in summaries)
    metrics["failed_frac"] = (failed / attempted, "ratio")
    properties = dict(inputs.properties, samples=samples, **summaries[0])
    if not trace:
        properties.update(setup_import_s=setup.imports, setup_generation_s=setup.generation)
    properties["calibration_grew"] = any(s.get("calibration", {}).get("grew") for s in summaries)
    stem = f"{workload}_seed{seed}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"inputs_{stem}.json").write_text(json.dumps(properties, indent=1, sort_keys=True))
    if trace:
        header = (f"# Per-layer report: {workload}, seed {seed}, {len(samples[1])} traced "
                  f"iteration(s) at workers=1, tracing overhead "
                  f"{metrics['trace.overhead_pct'][0]:.1f}%")
        spans.write_trace(OUT / f"trace_{stem}.json", tracer,
                          {"metrics": metrics, "inputs": properties})
        (OUT / f"layers_{stem}.md").write_text(spans.report(tracer, len(samples[1]), metrics, header))

    print(f"{workload} seed {seed}: {len(samples[0])} iteration(s) per mode, "
          f"{attempted} replicates attempted, {failed} failed")
    print(f"  inputs: {json.dumps(properties, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                    if name not in REPORT_ONLY},
    }


def run_in_child(workload: str, args) -> dict:
    """Run one workload in a process of its own and return its JSON result.

    Max-RSS covers a process's whole life, so each workload of ``--workload all``
    gets a fresh process for its ``peak_rss_mb``.
    """
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"run.py: {workload} exited with code {child.returncode} and no result")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    import workloads

    if args.workload in workloads.NAMES:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    elif args.workload == "all":
        results = {name: run_in_child(name, args) for name in workloads.NAMES}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
