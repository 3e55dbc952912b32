"""Verdict fusion vs cluster-only: parity, Cat-4 catch, cost.

Three questions, each a gate:

1. **Parity** — the fusion arm is additive-only: with it attached, the
   cluster verdict fields ``(session id, accepted, flagged, risk
   factor, reject reason)`` must be *bit-identical* to the plain
   :class:`ScoringService` scoring the same wires, and with fusion off
   every provenance field must stay ``None``.  The fused cell is also
   replayed through the batched :class:`RuntimeScoringService` that
   ``serve`` runs, one wire per ``score_wire`` call (each row has its
   own day and tags): every verdict field but the latency, and the
   arm's counters, must equal the per-request replay's
   (``runtime_parity``).
2. **Catch** — Category-3/4 fraud (stolen-profile replay on a real or
   matched engine) is invisible to the cluster-mismatch verdict by
   construction; the second-opinion arm must flag a fixed minimum of
   Cat-4 sessions through the ``second_opinion_only`` agreement cell.
3. **Cost** — the fused path (node lookup + calibration + policy on
   top of the cluster verdict) must keep at least half the cluster-only
   throughput (full runs only; CI's ``--smoke`` skips the timing gate).

Ground-truth ``truth_category`` is consumed here for *evaluation
accounting only* — the serve path sees fingerprints, user-agents, days,
and the infrastructure tags the risk engine would supply.  Results land
in ``BENCH_fusion.json``::

    PYTHONPATH=src python benchmarks/bench_fusion.py
"""

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.benchio import write_bench_json  # noqa: E402
from repro.core.pipeline import BrowserPolygraph  # noqa: E402
from repro.fusion import FusionArm, FusionModel  # noqa: E402
from repro.fusion.labels import weak_labels  # noqa: E402
from repro.fusion.policy import AgreementCell, FusionGuardrailConfig  # noqa: E402
from repro.runtime.service import RuntimeScoringService  # noqa: E402
from repro.service.scoring import ScoringService  # noqa: E402
from repro.traffic.generator import TrafficConfig, TrafficSimulator  # noqa: E402
from repro.traffic.replay import iter_wire_payloads  # noqa: E402

THROUGHPUT_GATE = 0.5  # fused wires/s vs cluster-only wires/s
MIN_CAT4_CAUGHT = 5  # second-opinion-only catches at the default scale
FRAUD_CATEGORIES = (1, 2, 3, 4)


def _essence(verdict) -> tuple:
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
    )


def _fields(verdict) -> tuple:
    """Every verdict field but the latency."""
    return _essence(verdict) + (
        verdict.fused_flagged,
        verdict.fusion_cell,
        verdict.second_probability,
        verdict.second_lift,
        verdict.inferred_release,
        verdict.inferred_distance,
    )


def run_benchmark(n_sessions: int, seed: int, smoke: bool = False) -> dict:
    dataset = TrafficSimulator(
        TrafficConfig(seed=seed).scaled(n_sessions)
    ).generate()
    polygraph = BrowserPolygraph().fit(dataset)
    fusion_model = FusionModel.train(dataset, polygraph.cluster_model)

    # Full runs serve behind the *default* guardrails — part of the
    # claim is that they do not trip at deployment scale.  Smoke-sized
    # models are legitimately noisy (few nodes, higher flag rate), and
    # the guardrail disabling the arm there is it working as designed;
    # smoke only asserts parity, so it lifts the rate limits.
    guardrails = (
        FusionGuardrailConfig(min_verdicts=n_sessions + 1) if smoke else None
    )

    # Serve-side inputs: the wire bytes, the session day, and the risk
    # engine's infrastructure tags (via the sanctioned accessor).  The
    # ato tag is the training target and is never passed to scoring.
    labels = weak_labels(dataset)
    days = dataset.days.astype("datetime64[D]").astype(object)
    wires = list(iter_wire_payloads(dataset))

    # --- cell 1: cluster-only baseline ---------------------------------
    cluster_only = ScoringService(polygraph)
    started = time.perf_counter()
    base_verdicts = [cluster_only.score_wire(w) for w in wires]
    cluster_elapsed = time.perf_counter() - started
    cluster_eps = len(wires) / cluster_elapsed

    provenance_clean = all(
        v.fused_flagged is None
        and v.fusion_cell is None
        and v.second_probability is None
        and v.second_lift is None
        for v in base_verdicts
    )

    # --- cell 2: cluster + fusion arm ----------------------------------
    tags = [
        (bool(labels.untrusted_ip[idx]), bool(labels.untrusted_cookie[idx]))
        for idx in range(len(wires))
    ]
    fused_service = ScoringService(
        polygraph, fusion=FusionArm(fusion_model, guardrails=guardrails)
    )
    started = time.perf_counter()
    fused_verdicts = [
        fused_service.score_wire(wire, day=days[idx], tags=tags[idx])
        for idx, wire in enumerate(wires)
    ]
    fused_elapsed = time.perf_counter() - started
    fused_eps = len(wires) / fused_elapsed
    arm_status = fused_service.fusion.status_dict()

    # --- the fused cell again, on the runtime `serve` runs -------------
    runtime = RuntimeScoringService(polygraph)
    runtime.attach_fusion(FusionArm(fusion_model, guardrails=guardrails))
    runtime_verdicts = [
        runtime.score_wire(wire, day=days[idx], tags=tags[idx])
        for idx, wire in enumerate(wires)
    ]
    runtime.shutdown()
    runtime_mismatches = sum(
        1
        for fused, replayed in zip(fused_verdicts, runtime_verdicts)
        if _fields(fused) != _fields(replayed)
    )
    runtime_counters_equal = runtime.fusion.status_dict() == arm_status

    # --- gate 1: bit-identical cluster verdicts ------------------------
    mismatches = sum(
        1
        for base, fused in zip(base_verdicts, fused_verdicts)
        if _essence(base) != _essence(fused)
    )

    # --- gate 2: second-opinion-only catch vs ground truth -------------
    second_only = AgreementCell.SECOND_ONLY.value
    categories = dataset.truth_category
    cluster_by_cat = {int(c): 0 for c in range(5)}
    catch_by_cat = {int(c): 0 for c in range(5)}
    for idx, verdict in enumerate(fused_verdicts):
        category = int(categories[idx])
        if verdict.flagged:
            cluster_by_cat[category] += 1
        if (
            verdict.fused_flagged
            and not verdict.flagged
            and verdict.fusion_cell == second_only
        ):
            catch_by_cat[category] += 1

    fused_flag_count = sum(1 for v in fused_verdicts if v.fused_flagged)
    cells = [
        {
            "cell": "cluster_only",
            "requests": len(wires),
            "elapsed_s": round(cluster_elapsed, 4),
            "wires_per_s": round(cluster_eps, 1),
            "flagged": sum(1 for v in base_verdicts if v.flagged),
        },
        {
            "cell": "fusion_on",
            "requests": len(wires),
            "elapsed_s": round(fused_elapsed, 4),
            "wires_per_s": round(fused_eps, 1),
            "flagged": sum(1 for v in fused_verdicts if v.flagged),
            "fused_flagged": fused_flag_count,
            "cells": arm_status["cells"],
            "arm_enabled": arm_status["enabled"],
        },
    ]
    return {
        "config": {
            "n_sessions": n_sessions,
            "seed": seed,
            "n_nodes": fusion_model.n_nodes,
            "base_rate": fusion_model.base_rate,
            "converged": fusion_model.converged,
        },
        "cells": cells,
        "throughput_ratio": round(fused_eps / cluster_eps, 3),
        "cluster_parity": {
            "checked": len(wires),
            "mismatches": mismatches,
            "bit_identical": mismatches == 0,
            "fusion_off_provenance_clean": provenance_clean,
        },
        "runtime_parity": {
            "checked": len(wires),
            "mismatches": runtime_mismatches,
            "identical": runtime_mismatches == 0 and runtime_counters_equal,
            "arm_counters_equal": runtime_counters_equal,
        },
        "second_opinion_catch": {
            "cluster_flagged_by_category": cluster_by_cat,
            "second_only_by_category": catch_by_cat,
            "cat4_caught": catch_by_cat[4],
            "cat3_caught": catch_by_cat[3],
            "fraud_caught": sum(
                catch_by_cat[c] for c in FRAUD_CATEGORIES
            ),
        },
    }


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", default="BENCH_fusion.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload, no catch-count or timing gates (parity "
        "gates always apply)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.sessions = min(args.sessions, 6_000)

    result = run_benchmark(
        n_sessions=args.sessions, seed=args.seed, smoke=args.smoke
    )

    cluster_cell, fusion_cell = result["cells"]
    parity = result["cluster_parity"]
    runtime_parity = result["runtime_parity"]
    catch = result["second_opinion_catch"]
    print(
        f"cluster-only: {cluster_cell['wires_per_s']:.0f} wires/s "
        f"({cluster_cell['flagged']} flagged)"
    )
    print(
        f"fusion on: {fusion_cell['wires_per_s']:.0f} wires/s "
        f"({fusion_cell['fused_flagged']} fused-flagged, "
        f"arm enabled={fusion_cell['arm_enabled']})"
    )
    print(
        f"throughput ratio: {result['throughput_ratio']:.2f}x "
        f"(gate: >= {THROUGHPUT_GATE}x)"
    )
    print(
        f"cluster parity: {parity['checked']} checked, "
        f"{parity['mismatches']} mismatches; fusion-off provenance "
        f"clean={parity['fusion_off_provenance_clean']}"
    )
    print(
        f"runtime parity: {runtime_parity['checked']} checked, "
        f"{runtime_parity['mismatches']} mismatches; arm counters "
        f"equal={runtime_parity['arm_counters_equal']}"
    )
    print(
        "second-opinion-only catch by category: "
        + ", ".join(
            f"cat{c}={catch['second_only_by_category'][c]}"
            for c in range(5)
        )
    )
    print(
        "cluster flags by category: "
        + ", ".join(
            f"cat{c}={catch['cluster_flagged_by_category'][c]}"
            for c in range(5)
        )
    )

    write_bench_json(
        args.output,
        benchmark="fusion",
        config=result["config"],
        cells=result["cells"],
        extra={
            "throughput_ratio": result["throughput_ratio"],
            "cluster_parity": parity,
            "runtime_parity": runtime_parity,
            "second_opinion_catch": catch,
        },
    )
    print(f"wrote {args.output}")

    failures = []
    if not parity["bit_identical"]:
        failures.append(
            f"fusion arm changed {parity['mismatches']} cluster verdicts"
        )
    if not parity["fusion_off_provenance_clean"]:
        failures.append(
            "fusion-off verdicts carried non-None provenance fields"
        )
    if not runtime_parity["identical"]:
        failures.append(
            f"the runtime's fusion arm differed on "
            f"{runtime_parity['mismatches']} verdicts (arm counters equal: "
            f"{runtime_parity['arm_counters_equal']})"
        )
    if not args.smoke:
        if not fusion_cell["arm_enabled"]:
            failures.append(
                "fusion arm disabled itself during the replay "
                "(default guardrails tripped at full scale)"
            )
        if catch["cat4_caught"] < MIN_CAT4_CAUGHT:
            failures.append(
                f"second opinion caught {catch['cat4_caught']} Cat-4 "
                f"sessions (< {MIN_CAT4_CAUGHT})"
            )
        if result["throughput_ratio"] < THROUGHPUT_GATE:
            failures.append(
                f"fused throughput {result['throughput_ratio']:.2f}x "
                f"below {THROUGHPUT_GATE}x gate"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
