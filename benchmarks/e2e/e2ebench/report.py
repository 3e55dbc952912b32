"""Printing: every metric by name, with its unit and sample count."""

from __future__ import annotations

from typing import Dict, List

from . import spec


def _row(name: str, value: float, samples) -> str:
    count = "" if samples is None else f"  n={samples}"
    return f"  {name:<34} {value:>14.4f} {spec.UNITS[name]:<6}{count}"


def print_run(runs, harness, trace: bool) -> None:
    phases = harness.seconds
    print(
        f"model {harness.model_path.name} (fit {harness.train_fit_s:.2f} s); "
        f"seed {harness.seed}; per round: warm-up {phases['warmup']:.2f} s of the rate's requests, "
        f"rate phase {phases['rate']:.2f} s, saturation phase {phases['sat']:.2f} s"
    )
    for run in runs:
        workload, summary = run.workload, run.summary
        print(f"\n== {workload.name} ==  {workload.why}")
        print(
            f"  serve {' '.join(workload.serve_args)}; open loop at "
            f"{workload.rate:g} rps; inputs built in {run.build_s:.2f} s"
        )
        print(f"  end to end ({len(run.rounds)} rounds, each a fresh server; windows pooled):")
        for metric in spec.END_TO_END:
            if metric.name in summary.e2e:
                print(_row(metric.name, summary.e2e[metric.name],
                           summary.samples.get(metric.name)))
        per_round = "; ".join(
            " ".join(f"{rps:.0f}" for rps in r.sat_rps) for r in run.rounds
        )
        print(f"  saturation windows by round (rps): {per_round}")
        if trace:
            print("  per layer:")
            for metric in spec.PER_LAYER:
                print(_row(metric.name, summary.layers.get(metric.name, 0.0), None))
        for problem in summary.problems:
            print(f"  PROBLEM: {problem}")


def result_document(runs, trace: bool) -> dict:
    """The driver's last line: correct / attempted / failed / metrics."""
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    metrics: Dict[str, dict] = {}
    problems: List[str] = []
    attempted = failed = 0
    for run in runs:
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        values = run.summary.layers if trace else run.summary.e2e
        for metric in wanted:
            if metric.name in values or trace:
                metrics[prefix + metric.name] = {
                    "value": values.get(metric.name, 0.0),
                    "unit": metric.unit,
                }
        attempted += run.summary.attempted
        failed += run.summary.failed
        problems.extend(run.summary.problems)
    complete = all(
        len(run.summary.e2e) == len(spec.END_TO_END) for run in runs
    )
    return {
        "correct": bool(complete and not failed and not problems),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }
