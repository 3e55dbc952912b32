"""One round = one fresh server process, measured from outside.

yardstick up → spawn → first correct answer (``setup_s``) → closed-loop
warm-up → open-loop rate phase (latency, CPU at rate) → closed-loop
saturation phase (throughput, CPU) → scrape, PSS, SIGTERM, leak check.

Run-to-run variance lives *between* server processes, so a workload run
is several rounds.  Timings are read per quarter-second window, each
scaled to the reference host by the yardstick's reading of that same
window (see :mod:`.yardstick`), pooled over the rounds and reduced by
:func:`favourable`; set-up time and memory are medians over the rounds.
CPU per request at a fixed rate is the one timing left as measured:
there a slower host forms larger batches and spends the same CPU per
request.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import spec
from .loadgen import Lane, LoadGenerator, PhaseResult
from .server import RoundFailure, ServerProcess, labelled
from .workloads import SAT_DEPTH, Workload
from .yardstick import Yardstick

N_ROUNDS = 3
WARMUP_CAP_S = 3.0  # the warm-up is a request count; this only bounds a stall


def phase_seconds(run_seconds: float) -> Dict[str, float]:
    """Split a run's measured seconds over rounds and phases.

    The saturation phase carries the gated timings and gets 7/12 of a
    round, the rate phase 5/12.  ``warmup`` is what the unmeasured
    warm-up would last at the workload's rate; it is sent closed-loop
    as that number of requests.
    """
    per_round = run_seconds / N_ROUNDS
    return {"warmup": 1.5, "rate": per_round * 5 / 12, "sat": per_round * 7 / 12}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (0 for no values).

    Deliberately not ``repro.runtime.stats.percentile``: the yardstick
    must not change when the program's own telemetry code does.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(len(ordered) * p / 100.0)
    return float(ordered[min(len(ordered), max(1, rank)) - 1])


class RoundResult:
    """One round's raw material; also the shape of a run's summary."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        # Per quarter-second window of the measured phases, scaled to
        # the reference host -- except ``rate_cpu_ms`` and ``raw``, which
        # holds the same series as measured.
        self.sat_rps: List[float] = []
        self.sat_cpu_ms: List[float] = []
        self.rate_p50_ms: List[float] = []
        self.rate_p99_ms: List[float] = []
        self.rate_cpu_ms: List[float] = []
        self.stretch: List[float] = []  # the yardstick's reading per window
        self.raw: Dict[str, List[float]] = {
            "sat_rps": [], "sat_cpu_ms": [], "rate_p50_ms": [], "rate_p99_ms": [],
        }
        self.rate_attempted = 0
        self.rate_within_budget = 0
        self.attempted = 0
        self.correct = 0
        self.failed = 0
        self.problems: List[str] = []  # why this round cannot be counted
        # The generator, not the server, spoiled the round: worth one retry.
        self.generator_invalid = False


def derive(
    final: Dict[str, float], cluster: Optional[dict], warm: Dict[str, float]
) -> Dict[str, float]:
    """Layer counters out of the last ``/metrics`` scrape (and ``/cluster``).

    The server is fresh each round, so lifetime counters are the
    round's counts.  The cache hit ratio is taken over the measured
    phases only (``warm`` is the scrape after the warm-up, which is
    there to fill the caches).
    """
    out: Dict[str, float] = {}
    clustered = "polygraph_cluster_shards" in final

    def since_warm(metric: str) -> float:
        return sum(labelled(final, metric)) - sum(labelled(warm, metric))

    if clustered:
        hits = since_warm("polygraph_transport_cache_hits_total")
        misses = sum(labelled(final, "polygraph_transport_cache_misses_total"))
        entries = sum(
            stats.get("cache_entries", 0)
            for stats in (cluster or {}).get("transport_stats", {}).values()
        )
        # Every miss is scored and put; what is no longer held was evicted.
        out["cache.evictions"] = max(0.0, misses - entries)
        misses = since_warm("polygraph_transport_cache_misses_total")
    else:
        hits = since_warm("polygraph_runtime_cache_hits")
        misses = since_warm("polygraph_runtime_cache_misses")
        out["cache.evictions"] = final.get("polygraph_runtime_cache_evictions", 0.0)
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["transport.ring_occupancy_peak"] = max(
        labelled(final, "polygraph_transport_ring_occupancy_peak"), default=0.0
    )
    for name in ("zero_copy_rows", "backpressure_pauses", "pickle_fallbacks"):
        out[f"transport.{name}"] = sum(labelled(final, f"polygraph_transport_{name}_total"))
    out["router.failovers"] = final.get("polygraph_cluster_failovers_total", 0.0)
    out["aingest.backpressure_pauses"] = final.get(
        "polygraph_ingest_backpressure_pauses", 0.0
    )
    batches = final.get("polygraph_runtime_batches_total", 0.0)
    out["runtime.batch_size_mean"] = (
        final.get("polygraph_runtime_batched_requests_total", 0.0) / batches
        if batches
        else 0.0
    )
    out["runtime.queue_depth_peak"] = final.get(
        "polygraph_runtime_queue_depth_peak", 0.0
    )
    out["runtime.shed_total"] = final.get("polygraph_runtime_requests_shed", 0.0)
    out["sessions.revisions_total"] = final.get(
        "polygraph_session_revisions_total", 0.0
    )
    out["sessions.tracked_peak"] = final.get("polygraph_session_active", 0.0)
    observed = sum(labelled(final, "polygraph_coverage_observed_total"))
    out["coverage.unknown_ratio"] = (
        sum(labelled(final, "polygraph_coverage_unknown_total")) / observed
        if observed
        else 0.0
    )
    collected = final.get("polygraph_ingest_collect_requests", 0.0)
    out["fastingest.reject_ratio"] = (
        final.get("polygraph_payloads_rejected", 0.0) / collected if collected else 0.0
    )
    return out


def _batch_rows_mean(before: Dict[str, float], after: Dict[str, float]) -> float:
    batches = after.get("polygraph_ingest_batches", 0.0) - before.get(
        "polygraph_ingest_batches", 0.0
    )
    rows = after.get("polygraph_ingest_batch_rows", 0.0) - before.get(
        "polygraph_ingest_batch_rows", 0.0
    )
    return rows / batches if batches else 0.0


def check_properties(
    workload: Workload, layers: Dict[str, float], final: Dict[str, float],
    sent_per_lane: Sequence[int],
) -> List[str]:
    """The workload's defining property, asserted from the server's counters."""
    values = dict(layers)
    details: Dict[str, str] = {}
    if workload.reject_prefix is not None:
        expected = workload.expected_rejects(sent_per_lane)
        counted = {
            name[name.index('reason="') + 8 : -2]: int(value)
            for name, value in final.items()
            if name.startswith("polygraph_payloads_rejected_by_reason{")
        }
        values["rejects.unexplained"] = sum(
            abs(counted.get(reason, 0) - expected.get(reason, 0))
            for reason in set(counted) | set(expected)
        )
        details["rejects.unexplained"] = f"(sent {expected}, server counted {counted})"
    violations = []
    for name, (low, high) in workload.properties.items():
        value = values.get(name, 0.0)
        if not low <= value <= high:
            violations.append(
                f"{workload.name}: {name} = {value:g} outside [{low:g}, {high:g}] "
                f"{details.get(name, '')}".rstrip()
            )
    return violations


def run_round(
    workload: Workload,
    repo_root: Path,
    model_path: Path,
    out_dir: Path,
    seconds: Dict[str, float],
    label: str,
) -> RoundResult:
    result = RoundResult()
    server = ServerProcess(
        repo_root, model_path, workload.serve_args,
        out_dir / f"server-{workload.name}-{label}.log",
    )
    yardstick = Yardstick(out_dir / f"yardstick-{workload.name}-{label}.txt")
    lanes = [Lane(requests, workload.counter_by_pass) for requests in workload.lanes]
    try:
        yardstick.start()
        yardstick.wait_started()
        server.spawn()
        setup_s = server.wait_ready(
            workload.path,
            workload.ready_body,
            lambda status, doc: status == 202 and doc.get("accepted") is True,
        )
        with LoadGenerator(
            server.port, lanes, workload.extract, probe=server.cpu_seconds
        ) as generator:
            # A fixed number of requests, not a fixed time: with the rate
            # phase's fixed count it makes the memory reading below one
            # after the same work on a fast host and a slow one.
            generator.closed_loop(
                WARMUP_CAP_S, SAT_DEPTH,
                max_requests=int(seconds["warmup"] * workload.rate),
            )
            scrape0 = server.scrape()
            rate = generator.open_loop(
                seconds["rate"], workload.rate, late_ms=spec.MAX_LATE_MS
            )
            scrape1 = server.scrape()
            pss = server.pss_mb()
            cpu1 = server.cpu_seconds()
            sat = generator.closed_loop(seconds["sat"], SAT_DEPTH)
            cpu2 = server.cpu_seconds()
            final = server.scrape()
            cluster = server.get_json("/cluster")
            sent = [lane.sent for lane in lanes]
    except (RoundFailure, OSError) as exc:
        yardstick.stop()
        result.problems.append(f"{workload.name} {label}: {exc}")
        result.problems.extend(server.stop())
        return result
    except BaseException:
        # Interrupted or broken in a way no round explains: neither child
        # may outlive the harness.
        yardstick.stop()
        server.stop()
        raise
    yardstick.stop()
    result.problems.extend(f"{workload.name} {label}: {p}" for p in server.stop())

    result.e2e["setup_s"] = setup_s / yardstick.stretch(
        server.spawned_at, server.spawned_at + setup_s
    )
    _fill_windows(result, rate, sat, pss, yardstick)
    layers = result.layers
    layers.update(derive(final, cluster, scrape0))
    layers["aingest.batch_rows_mean_rate"] = _batch_rows_mean(scrape0, scrape1)
    layers["aingest.batch_rows_mean_sat"] = _batch_rows_mean(scrape1, final)
    layers["loadgen.cpu_share"] = max(
        rate.loadgen_cpu_s / rate.elapsed_s, sat.loadgen_cpu_s / sat.elapsed_s
    )
    layers["loadgen.server_cores_sat"] = (cpu2 - cpu1) / sat.elapsed_s
    layers["loadgen.late_ms_max"] = rate.late_ms_max
    layers["loadgen.latency_p90_ms"] = percentile(rate.latencies_ms, 90)
    layers["loadgen.latency_p999_ms"] = percentile(rate.latencies_ms, 99.9)
    layers["loadgen.sat_latency_p50_ms"] = percentile(sat.latencies_ms, 50)
    layers["loadgen.raw_setup_s"] = setup_s

    for phase in (rate, sat):
        result.problems.extend(
            f"{workload.name} {label} {phase.kind} loop: {text}"
            for text in phase.mismatches
        )
    result.problems.extend(check_properties(workload, layers, final, sent))
    late_share = rate.late_requests / max(1, rate.attempted)
    if layers["loadgen.late_ms_max"] > spec.MAX_LATE_MS:
        result.generator_invalid = True  # worth one retry; stands after that
    if late_share > spec.MAX_LATE_SHARE:
        result.problems.append(
            f"{workload.name} {label}: generator sent {late_share:.1%} of the rate "
            f"phase more than {spec.MAX_LATE_MS:g} ms late (worst "
            f"{rate.late_ms_max:.1f} ms); it fell behind, the run is invalid, not slow"
        )
    if layers["loadgen.cpu_share"] > spec.MAX_LOADGEN_CPU_SHARE:
        result.generator_invalid = True
        result.problems.append(
            f"{workload.name} {label}: generator used "
            f"{layers['loadgen.cpu_share']:.2f} core; it may be the bottleneck"
        )
    return result


def _fill_windows(
    result: RoundResult, rate: PhaseResult, sat: PhaseResult, pss_mb: float,
    yardstick: Yardstick,
) -> None:
    raw = result.raw
    for latencies, cpu_s, start, end in sat.windows():
        if not latencies:
            continue  # a stalled window has no per-request cost to read
        stretch = yardstick.stretch(start, end)
        rps = len(latencies) / (end - start)
        cpu_ms = 1000.0 * cpu_s / len(latencies)
        raw["sat_rps"].append(rps)
        raw["sat_cpu_ms"].append(cpu_ms)
        result.sat_rps.append(rps * stretch)
        result.sat_cpu_ms.append(cpu_ms / stretch)
        result.stretch.append(stretch)
    for latencies, cpu_s, start, end in rate.windows():
        if not latencies:
            continue
        stretch = yardstick.stretch(start, end)
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        raw["rate_p50_ms"].append(p50)
        raw["rate_p99_ms"].append(p99)
        result.rate_p50_ms.append(p50 / stretch)
        result.rate_p99_ms.append(p99 / stretch)
        result.rate_cpu_ms.append(1000.0 * cpu_s / len(latencies))
        result.stretch.append(stretch)
    result.e2e["server_pss_mb"] = pss_mb
    result.rate_attempted = rate.attempted
    result.rate_within_budget = sum(
        1 for ms in rate.latencies_ms if ms <= spec.BUDGET_MS
    )
    result.attempted = rate.attempted + sat.attempted
    result.correct = rate.correct + sat.correct
    result.failed = rate.failed + sat.failed


def favourable(values: Sequence[float], better: str) -> float:
    """The quartile on the good side of pooled per-window readings.

    A server that flips between a fast and a slow regime for seconds at
    a time (the single-process runtime does, see README) makes a median
    of windows land on either side at random.  The favourable quartile
    reads the regime the server reaches in at least a quarter of the
    windows; it still moves when the code gets faster or slower, and
    over ten runs it spread half as much as the median on the worst
    workload and no more on the others.
    """
    return percentile(values, 75.0 if better == "higher" else 25.0)


def summarise(rounds: Sequence[RoundResult]) -> RoundResult:
    """One run's numbers: windows pooled over the rounds, the rest by median."""
    total = RoundResult()
    for r in rounds:
        total.problems.extend(r.problems)
        total.attempted += r.attempted
        total.correct += r.correct
        total.failed += r.failed
        total.rate_attempted += r.rate_attempted
        total.rate_within_budget += r.rate_within_budget
        total.sat_rps.extend(r.sat_rps)
        total.sat_cpu_ms.extend(r.sat_cpu_ms)
        total.rate_p50_ms.extend(r.rate_p50_ms)
        total.rate_p99_ms.extend(r.rate_p99_ms)
        total.rate_cpu_ms.extend(r.rate_cpu_ms)
        total.stretch.extend(r.stretch)
        for name, values in r.raw.items():
            total.raw[name].extend(values)
    good = [r for r in rounds if r.sat_rps and r.rate_p50_ms]
    if not good:
        return total
    median = statistics.median
    e2e = total.e2e
    e2e["setup_s"] = median(r.e2e["setup_s"] for r in good)
    e2e["throughput_rps"] = favourable(total.sat_rps, "higher")
    e2e["cpu_ms_per_req"] = favourable(total.sat_cpu_ms, "lower")
    e2e["server_pss_mb"] = median(r.e2e["server_pss_mb"] for r in good)
    e2e["success_ratio"] = total.correct / max(1, total.attempted)
    e2e["budget_met_ratio"] = total.rate_within_budget / max(1, total.rate_attempted)
    total.samples = {
        "setup_s": len(good),
        "throughput_rps": len(total.sat_rps),
        "cpu_ms_per_req": len(total.sat_cpu_ms),
        "server_pss_mb": len(good),
        "success_ratio": total.attempted,
        "budget_met_ratio": total.rate_attempted,
    }
    layers = total.layers
    for name in good[0].layers:
        layers[name] = median(r.layers[name] for r in good)
    # The generator's worst moment bounds validity, so take worst, not median.
    for name in ("loadgen.late_ms_max", "loadgen.cpu_share"):
        layers[name] = max(r.layers[name] for r in good)
    layers["loadgen.server_cores_sat"] = min(
        r.layers["loadgen.server_cores_sat"] for r in good
    )
    per_round = [median(r.sat_rps) for r in good]
    layers["loadgen.round_spread"] = (max(per_round) - min(per_round)) / median(per_round)
    layers["loadgen.latency_p50_ms"] = median(total.rate_p50_ms)
    layers["loadgen.latency_p99_ms"] = median(total.rate_p99_ms)
    # As measured, and by its favourable decile: the single-process
    # runtime flips between a cheap and a dear regime for seconds at a
    # time (README), and a median lands on either at random.
    layers["loadgen.cpu_ms_per_req_at_rate"] = percentile(total.rate_cpu_ms, 10.0)
    layers["loadgen.host_stretch"] = median(total.stretch)
    layers["loadgen.raw_throughput_rps"] = favourable(total.raw["sat_rps"], "higher")
    layers["loadgen.raw_cpu_ms_per_req"] = favourable(total.raw["sat_cpu_ms"], "lower")
    layers["loadgen.raw_latency_p50_ms"] = median(total.raw["rate_p50_ms"])
    layers["loadgen.raw_latency_p99_ms"] = median(total.raw["rate_p99_ms"])
    return total
