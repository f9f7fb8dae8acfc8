"""Command-line entry points.

Subcommands: ``simulate`` (design + dataset + truth + groups), ``decide``
(posterior draws -> joint decisions), ``replicate`` (full scenario grid),
``calibrate`` (penalty bisection per sample size), ``rates`` (re-aggregate
persisted replicate CSVs), ``j-estimate`` (error exponent), ``check``
(acceptance criteria; exit code 1 on any failure, failed replicates included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
import sys
from pathlib import Path

from .acceptance import CRITERIA, run_all
from .decisions import (
    alternative_indicators,
    optimize_decisions,
    penalized_objective,
)
from .exceptions import InvalidSpec
from .experiments import (
    Scenario,
    ScenarioConfig,
    aggregate_replicate_csv,
    design_for,
    groups_for,
    rate_fits,
    run_scenario,
    seed_for,
    write_calibrations,
    write_exponent,
    write_reports,
)
from .hypotheses import (
    GroupStructure,
    bit_string,
    connected_components,
    read_group_file,
    write_group_file,
    write_truth_file,
    truth_from_params,
)
from .model_ar1 import (
    estimate_error_exponent,
    load_draws,
    save_dataset,
    save_design,
    simulate,
)


def _load_config(args) -> ScenarioConfig:
    """The config file's scenario (or the default) with the --seed and
    --workers overrides, checked as any other config is."""
    cfg = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
    overrides = {"master_seed": getattr(args, "seed", None),
                 "workers": getattr(args, "workers", None)}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _criteria(text: str) -> set[int]:
    """The criterion numbers of a comma list such as ``1,9``."""
    tokens = text.split(",")
    unknown = [t for t in tokens if not (t.strip().isdigit() and int(t) in CRITERIA)]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown criteria {unknown}; the criteria are {', '.join(map(str, CRITERIA))}")
    return {int(t) for t in tokens}


def _add_common(parser):
    parser.add_argument("--config", type=str, default=None, help="scenario config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--workers", type=int, default=None, help="parallel worker count (0 = all usable cores)")
    parser.add_argument("--out", type=str, default="out", help="output directory")


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    n = args.n or cfg.n_grid[0]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    m = cfg.m_for(n)
    spec = cfg.spec_for(m)
    design = design_for(cfg, n)
    params = cfg.params_for(m)
    data = simulate(params, design, n, seed=seed_for(cfg.master_seed, n, args.replicate, 1))
    save_design(out / "design.csv", design)
    save_dataset(out / "dataset.csv", data)
    write_truth_file(out / "truth.txt", truth_from_params(params, spec))
    write_group_file(out / "groups.txt", groups_for(cfg, design, spec))
    print(f"wrote design/dataset/truth/groups for n={n}, m={m} to {out}")
    return 0


def _cmd_decide(args) -> int:
    cfg = _load_config(args)
    if args.penalty is not None and args.cost is not None:
        raise InvalidSpec("give either --penalty or --cost, not both")
    if args.cost is not None and not args.cost > 0:
        raise InvalidSpec("--cost must be positive")
    draws = load_draws(args.draws)
    spec = cfg.spec_for(draws.num_coefficients - 1)
    if args.cost is not None:
        penalty = args.cost / (1.0 + args.cost)
    elif args.penalty is not None:
        penalty = args.penalty
    else:
        penalty = cfg.penalty
    groups = (
        read_group_file(args.groups, spec.num_hypotheses)
        if args.groups
        else GroupStructure.singletons(spec.num_hypotheses)
    )
    partition = connected_components(groups)
    indicators = alternative_indicators(draws, spec)
    config = optimize_decisions(indicators, groups, partition, penalty)
    objective = penalized_objective(config, indicators, groups, penalty)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "decisions.csv"
    sizes = "|".join(str(len(c)) for c in partition.components)
    bits = bit_string(config.bits)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d_hat_bits", "objective", "beta", "seed", "component_sizes"])
        writer.writerow([bits, f"{objective:.12g}", f"{penalty:.12g}", cfg.master_seed, sizes])
    print(f"decision {bits} (objective {objective:.6g})")
    print(f"wrote {path}")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    scenario = run_scenario(cfg, args.out, workers=args.workers)
    print(f"scenario {scenario.manifest.scenario_hash} finished; artifacts in {args.out}")
    for (n, rule), report in sorted(scenario.reports.items()):  # the keys are distinct
        print(f"  n={n} {rule}: mpbfdr={report.mpbfdr!r} mpbfnr={report.mpbfnr!r} "
              f"(conditioning {report.n_conditioning_fdr}/{report.n_conditioning_fnr})")
    for failure in scenario.manifest.failures:
        print(f"failed: {failure}", file=sys.stderr)
    code = _cmd_check(args, scenario) if args.check else 0
    return 1 if scenario.manifest.failures else code


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    target = args.alpha if args.alpha is not None else (cfg.target_alpha or 0.1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = write_calibrations(out, Scenario(cfg, workers=args.workers), target)
    for n, result in results.items():
        print(f"n={n}: beta_hat={result.beta_hat:.5f} achieved={result.achieved} ({result.reason})")
    summary = {str(n): {"beta_hat": r.beta_hat, "achieved": r.achieved, "iterations": r.iterations,
                        "infeasible": r.infeasible, "reason": r.reason}
               for n, r in results.items()}
    (out / "calibration_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if any(result.infeasible for result in results.values()) else 0


def _cmd_rates(args) -> int:
    out = Path(args.out)
    if args.config is None and (out / "config.json").exists():
        args.config = str(out / "config.json")  # the replicate run's own, for its m_n
    cfg = _load_config(args)
    pattern = re.compile(r"replicates_(?P<rule>\w+)_n(?P<n>\d+)\.csv$")
    found = {}
    for path in sorted(out.glob("replicates_*_n*.csv")):
        match = pattern.search(path.name)
        if match:
            found[(int(match.group("n")), match.group("rule"))] = path
    if not found:
        print(f"no replicate CSVs under {out}", file=sys.stderr)
        return 1
    exponent_path = out / "exponent.json"
    exponent = (
        json.loads(exponent_path.read_text())["value"] if exponent_path.exists() else float("nan")
    )
    # the replicate run's rule order, so rates.csv comes back as it wrote it; samples nothing
    rank = {rule: i for i, rule in enumerate(Scenario(cfg).penalties)}
    reports = {}
    for n, rule in sorted(found, key=lambda key: (key[0], rank.get(key[1], len(rank)), key[1])):
        report = reports[(n, rule)] = aggregate_replicate_csv(found[(n, rule)])
        print(f"n={n} {rule}: mpbfdr={report.mpbfdr!r} mpbfnr={report.mpbfnr!r}")
    fits = rate_fits(reports, exponent)
    write_reports(out, reports, fits, cfg.m_for)
    if fits:
        print(f"wrote rate fits for {sorted(f'{rule}.{metric}' for rule, metric in fits)}")
    return 0


def _cmd_j_estimate(args) -> int:
    cfg = _load_config(args)
    n = args.n or cfg.n_grid[-1]
    m = cfg.m_for(n)
    exponent = estimate_error_exponent(cfg.params_for(m), cfg.spec_for(m), design_for(cfg, n))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(write_exponent(out, exponent, n), indent=2))
    return 0


def _cmd_check(args, scenario: Scenario | None = None) -> int:
    """Run the acceptance criteria, on the ``scenario`` of a ``replicate`` run
    when given: that run has already printed its failures."""
    reported = [] if scenario is None else scenario.failures
    scenario = scenario or Scenario(_load_config(args), workers=args.workers)
    results = run_all(scenario, numbers=args.criteria)
    for result in results:
        print(result.line())
    for failure in scenario.failures:
        if failure not in reported:
            print(f"failed: {failure}", file=sys.stderr)
    return 0 if all(r.passed for r in results) and not scenario.failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nonmarginal", description=__doc__)
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the full default scenario configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="generate design, dataset, truth, and groups")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replicate", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("decide", help="optimize decisions from posterior draws")
    _add_common(p)
    p.add_argument("--draws", type=str, required=True, help="posterior draws CSV")
    p.add_argument("--groups", type=str, default=None, help="group file (default: singletons)")
    p.add_argument("--penalty", type=float, default=None, help="rejection penalty in [0,1)")
    p.add_argument("--cost", type=float, default=None, help="false-discovery cost (penalty = c/(1+c))")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("replicate", help="run the full scenario grid")
    _add_common(p)
    p.add_argument("--check", action="store_true", help="run acceptance checks afterwards")
    p.add_argument("--criteria", type=_criteria, default=None, help="comma list for --check")
    p.set_defaults(fn=_cmd_replicate)

    p = sub.add_parser("calibrate", help="bisect the penalty to a target level")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=None, help="target level (default from config)")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("rates", help="re-aggregate persisted replicate CSVs")
    _add_common(p)
    p.set_defaults(fn=_cmd_rates)

    p = sub.add_parser("j-estimate", help="estimate the error exponent")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=_cmd_j_estimate)

    p = sub.add_parser("check", help="run acceptance criteria (exit 1 on failure)")
    _add_common(p)
    p.add_argument("--criteria", type=_criteria, default=None, help="comma-separated criterion numbers")
    p.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    if args.print_config:
        print(json.dumps(ScenarioConfig().to_dict(), indent=2, sort_keys=True))
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except (InvalidSpec, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
