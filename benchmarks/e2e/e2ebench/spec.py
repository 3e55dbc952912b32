"""Metric names, units, directions and bounds — fixed here, used everywhere.

``BENCHMARK.json`` repeats these for the driver; ``tests/test_smoke.py``
keeps the two in step.  Later PRs are judged by these names.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

WORKLOADS = ("repeat_heavy", "all_miss", "session_events", "single_mixed")

# The paper's Section 3 scoring budget; the only latency limit kept.
BUDGET_MS = 100.0

# A run whose generator was the bottleneck measured the generator.  One
# late moment (a pause of the guest) has the round redone once; a run
# fails when more than this share of a rate phase was sent late.
MAX_LATE_MS = 50.0
MAX_LATE_SHARE = 0.02
MAX_LOADGEN_CPU_SHARE = 0.5
MIN_SERVER_CORES_SAT = 0.7


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float  # end-to-end only: tolerated worsening, share of the parent's median


# The timings are scaled to the reference host by the yardstick
# (yardstick.py); the readings as measured are the ``loadgen.raw_*``
# per-layer metrics.  Bounds are about three times the spread
# (interquartile range over median of the runs of one set, each on its
# own seed) seen on the 2-vCPU guest this was built on, in hours when the
# host's speed stepped by a factor of 1.5; README.md has the per-workload
# spreads.  The rate phase's timings (``latency_p50_ms``, ``latency_p99_ms``,
# ``cpu_ms_per_req_at_rate``) follow the host's speed neither fully nor not
# at all, read 25-30 % apart between a slow hour and a fast one scaled
# or not, and are the per-layer ``loadgen.*`` metrics of those names.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.20),
    Metric("cpu_ms_per_req", "ms", "lower", 0.20),
    Metric("server_pss_mb", "MB", "lower", 0.05),
    Metric("success_ratio", "ratio", "higher", 0.001),
    Metric("budget_met_ratio", "ratio", "higher", 0.02),
]

_PER_LAYER = """
loadgen.cpu_share ratio lower
loadgen.server_cores_sat count higher
loadgen.late_ms_max ms lower
loadgen.latency_p50_ms ms lower
loadgen.latency_p90_ms ms lower
loadgen.latency_p99_ms ms lower
loadgen.latency_p999_ms ms lower
loadgen.sat_latency_p50_ms ms lower
loadgen.round_spread ratio lower
loadgen.host_stretch ratio lower
loadgen.raw_setup_s s lower
loadgen.raw_throughput_rps 1/s higher
loadgen.raw_cpu_ms_per_req ms lower
loadgen.cpu_ms_per_req_at_rate ms lower
loadgen.raw_latency_p50_ms ms lower
loadgen.raw_latency_p99_ms ms lower
aingest.batch_rows_mean_rate count higher
aingest.batch_rows_mean_sat count higher
aingest.backpressure_pauses count lower
aingest.front_us_per_req us lower
fastingest.ingest_us_per_wire us lower
fastingest.reject_ratio ratio lower
cache.hit_ratio ratio higher
cache.evictions count lower
cache.get_us_per_key us lower
cache.put_us_per_key us lower
ring.route_us_per_wire us lower
core.transform_us_per_row us lower
core.detect_us_per_row us lower
core.detect_single_us us lower
transport.roundtrip_us_per_row us lower
transport.ring_occupancy_peak count lower
transport.zero_copy_rows count lower
transport.backpressure_pauses count lower
transport.pickle_fallbacks count lower
router.score_many_us_per_wire us lower
router.failovers count lower
router.unattributed_share ratio lower
runtime.batch_size_mean count higher
runtime.queue_depth_peak count lower
runtime.shed_total count lower
scoring.score_wire_us us lower
sessions.observe_us_per_event us lower
sessions.revisions_total count higher
sessions.tracked_peak count lower
coverage.observe_us_per_row us lower
coverage.unknown_ratio ratio lower
setup.train_fit_s s lower
setup.model_load_s s lower
setup.shard_spawn_s s lower
trace.spans count higher
"""

PER_LAYER: List[Metric] = [
    Metric(name, unit, better, 0.0)
    for name, unit, better in (line.split() for line in _PER_LAYER.split("\n") if line)
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
