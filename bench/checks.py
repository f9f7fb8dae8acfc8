"""Output checks, run after the timed interval.

They use only properties that survive a change of the random-stream layout:
files the manifest lists exist, replicate counts match the request, singleton
groups make the joint rule equal the additive one, the curve is non-increasing
under common random numbers, and the joint optimum is never worse than the
additive rule on the objective it maximizes.
"""

from __future__ import annotations

from pathlib import Path

from nonmarginal import decisions, hypotheses

OBJECTIVE_SLACK = 1e-9


def check(outputs: dict) -> list[str]:
    """Return one message per violated property; empty when the output is correct."""
    errors: list[str] = []
    workload = outputs["workload"]
    if "artifacts" in outputs:
        out_dir, names = outputs["artifacts"]
        missing = [name for name in names if not (Path(out_dir) / name).is_file()]
        if missing:
            errors.append(f"listed artifacts missing: {missing}")
    for n, rule, count in outputs.get("n_replicates", ()):
        if count != outputs["requested"]:
            errors.append(f"n={n} {rule}: {count} replicates, {outputs['requested']} requested")
    if workload == "paper_grid":
        for d in outputs["decisions"]:
            if (d.nonmarginal != d.additive).any():
                errors.append(
                    f"n={d.n} replicate {d.replicate_id}: joint and additive decisions differ "
                    "although every group is a singleton"
                )
    else:
        errors += _objective_errors(outputs["decisions"])
    if workload == "grouped_curve":
        values = [v for _, v in outputs["curve"]]
        if any(v is None for v in values):
            errors.append(f"curve has an empty conditioning event: {outputs['curve']}")
        elif any(b > a for a, b in zip(values, values[1:])):
            errors.append(f"curve is not non-increasing in the penalty: {outputs['curve']}")
    return errors


def _objective_errors(records) -> list[str]:
    errors = []
    for d in records:
        joint = decisions.penalized_objective(
            hypotheses.DecisionConfig(d.nonmarginal), d.indicators, d.groups, d.penalty
        )
        additive = decisions.penalized_objective(
            decisions.additive_rule_at_penalty(decisions.marginal_probs(d.indicators), d.penalty),
            d.indicators, d.groups, d.penalty,
        )
        if joint < -OBJECTIVE_SLACK or joint < additive - OBJECTIVE_SLACK:
            errors.append(
                f"n={d.n} replicate {d.replicate_id} penalty {d.penalty}: joint objective "
                f"{joint:.12g} is below max(0, additive {additive:.12g})"
            )
    return errors


def check_repeatable(digests: list[str]) -> list[str]:
    """Iterations of one run use the same inputs, so they must decide the same."""
    if len(set(digests)) > 1:
        return [f"iterations disagree: {len(set(digests))} distinct outputs over {len(digests)}"]
    return []
