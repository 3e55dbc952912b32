"""Overhead of shadow scoring on the live serving path.

Replays a FinOrg-shaped traffic window through two high-throughput
runtimes — one bare, one with a rollout in shadow stage mirroring half
the live traffic to a candidate model — and asserts the deployment
claims of the rollout subsystem:

* shadow scoring is off the latency-critical path: the live replay
  keeps most of its bare throughput while every mirrored comparison is
  scored asynchronously;
* an identical candidate produces **zero** disagreements (the report is
  a faithful comparator, not a noise source).

The two arms are fed in alternating slices (bare, shadow, bare, …) and
each arm's rate is its best slice, so a burst of load from another
process on the host slows a slice of each arm, not one whole arm.  A
slice is the whole window under fresh session ids, replayed from an
empty verdict cache — what a freshly started runtime sees — and the
shadow backlog is drained after every shadow slice, outside the timed
region, so the bare arm never competes with mirrored work.

Also runnable directly for a quick smoke pass (CI uses this mode);
results are persisted through the shared ``BENCH_*.json`` writer::

    PYTHONPATH=src python benchmarks/bench_rollout.py --sessions 1500
"""

import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPLAY = int(os.environ.get("REPRO_ROLLOUT_REPLAY", "12000"))

# Slices per arm, each a full replay of the window under fresh session
# ids; each arm's rate is the best of its slices.
SLICES = 5

# Shadow throughput must stay within this factor of the bare runtime.
# The bound is deliberately loose: CI boxes are noisy, and the claim
# under test is "same order of magnitude", not a precise ratio.
MAX_SLOWDOWN = 3.0


@dataclass
class RolloutOverheadReport:
    sessions: int
    slices: int
    bare_rate: float
    shadow_rate: float
    comparisons: int
    shed: int
    disagreement_rate: float

    @property
    def slowdown(self) -> float:
        return self.bare_rate / self.shadow_rate if self.shadow_rate else 0.0

    def render(self) -> str:
        return "\n".join(
            [
                "Shadow-scoring overhead on the live path",
                f"  sessions replayed      {self.sessions} per slice, "
                f"{self.slices} alternating slices per arm",
                f"  bare runtime           {self.bare_rate:,.0f} sessions/s (best slice)",
                f"  with shadow attached   {self.shadow_rate:,.0f} sessions/s (best slice)",
                f"  slowdown               {self.slowdown:.2f}x",
                f"  shadow comparisons     {self.comparisons} "
                f"({self.shed} shed)",
                f"  disagreement rate      {self.disagreement_rate:.4f}",
            ]
        )


def _fresh_wires(dataset, prefix, limit):
    from repro.traffic.replay import iter_payloads

    wires = []
    for idx, payload in enumerate(iter_payloads(dataset, limit)):
        body = json.loads(payload.to_wire().decode())
        body["sid"] = f"{prefix}-{idx}"
        wires.append(json.dumps(body, separators=(",", ":")).encode())
    return wires


def _rate(runtime, wires) -> float:
    """Sessions/s of one cold-cache replay of ``wires``."""
    runtime.cache.invalidate(runtime.polygraph.model_generation)
    started = time.perf_counter()
    for wire in wires:
        runtime.score_wire(wire)
    return len(wires) / (time.perf_counter() - started)


def run_rollout_overhead_benchmark(
    n_sessions: int,
    seed: int = 7,
    polygraph=None,
    dataset=None,
    shadow_sample_rate: float = 0.5,
) -> RolloutOverheadReport:
    import tempfile

    from repro.core.pipeline import BrowserPolygraph
    from repro.core.retraining import ModelRegistry
    from repro.rollout import GuardrailConfig, RolloutConfig, RolloutManager
    from repro.runtime.service import RuntimeScoringService
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    if dataset is None:
        dataset = TrafficSimulator(
            TrafficConfig(seed=seed).scaled(n_sessions)
        ).generate()
    if polygraph is None:
        polygraph = BrowserPolygraph().fit(dataset)

    with tempfile.TemporaryDirectory(prefix="bench-rollout-") as root:
        registry = ModelRegistry(root)
        registry.promote(polygraph, date(2023, 7, 1), "bootstrap")
        registry.stage_candidate(polygraph, date(2023, 8, 1), "candidate")

        bare_runtime = RuntimeScoringService(registry.load(1)).start()
        shadow_runtime = RuntimeScoringService(registry.load(1)).start()
        manager = RolloutManager(
            registry,
            runtime=shadow_runtime,
            config=RolloutConfig(
                stages=(1.0,), shadow_sample_rate=shadow_sample_rate
            ),
            guardrails=GuardrailConfig(min_comparisons=10_000_000),
        )
        try:
            manager.start(2, salt="bench-rollout")
            bare_rate = shadow_rate = 0.0
            for number in range(SLICES):
                bare = _fresh_wires(dataset, f"bare{number}", n_sessions)
                shadowed = _fresh_wires(dataset, f"shadow{number}", n_sessions)
                bare_rate = max(bare_rate, _rate(bare_runtime, bare))
                shadow_rate = max(shadow_rate, _rate(shadow_runtime, shadowed))
                manager.drain_shadow(timeout=60.0)
            report = manager.report
            return RolloutOverheadReport(
                sessions=n_sessions,
                slices=SLICES,
                bare_rate=bare_rate,
                shadow_rate=shadow_rate,
                comparisons=report.comparisons,
                shed=report.shed,
                disagreement_rate=report.disagreement_rate,
            )
        finally:
            manager.close()
            bare_runtime.shutdown()
            shadow_runtime.shutdown()


def test_shadow_overhead(benchmark):
    from conftest import run_and_print
    from repro.analysis.experiments import trained_pipeline, training_dataset

    report = run_and_print(
        benchmark,
        run_rollout_overhead_benchmark,
        REPLAY,
        polygraph=trained_pipeline(),
        dataset=training_dataset(),
    )
    assert report.comparisons > 0
    assert report.disagreement_rate == 0.0, "identical candidate disagreed"
    assert report.slowdown <= MAX_SLOWDOWN, (
        f"shadow scoring slowed the live path {report.slowdown:.2f}x "
        f"(> {MAX_SLOWDOWN}x)"
    )


def _write_report(report, output, args) -> None:
    from repro.analysis.benchio import write_bench_json

    write_bench_json(
        output,
        benchmark="rollout_overhead",
        config={
            "n_sessions": args.sessions,
            "seed": args.seed,
            "shadow_sample_rate": args.shadow_sample,
            "slices": report.slices,
        },
        cells=[
            {
                "cell": "bare",
                "sessions": report.sessions,
                "sessions_per_s": round(report.bare_rate, 1),
            },
            {
                "cell": "shadow",
                "sessions": report.sessions,
                "sessions_per_s": round(report.shadow_rate, 1),
                "comparisons": report.comparisons,
                "shed": report.shed,
            },
        ],
        extra={
            "slowdown": round(report.slowdown, 3),
            "disagreement_rate": report.disagreement_rate,
        },
    )


def _main(argv):
    import argparse

    parser = argparse.ArgumentParser(
        description="Smoke-run the shadow-scoring overhead benchmark"
    )
    parser.add_argument("--sessions", type=int, default=REPLAY)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shadow-sample", type=float, default=0.5)
    parser.add_argument("--output", default="BENCH_rollout.json")
    args = parser.parse_args(argv)
    report = run_rollout_overhead_benchmark(
        args.sessions, seed=args.seed, shadow_sample_rate=args.shadow_sample
    )
    print(report.render())
    _write_report(report, args.output, args)
    print(f"wrote {args.output}")
    if report.disagreement_rate != 0.0:
        print("FAIL: identical candidate produced disagreements")
        return 1
    if report.comparisons == 0:
        print("FAIL: shadow scorer never ran")
        return 1
    if report.slowdown > MAX_SLOWDOWN:
        print(f"FAIL: slowdown {report.slowdown:.2f}x > {MAX_SLOWDOWN}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
