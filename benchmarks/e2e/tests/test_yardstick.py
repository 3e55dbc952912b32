"""The host-speed yardstick: sample selection, scaling, and a live child.

Run on demand (not part of the repo's tier-1 suite):

    python3 -m unittest discover -s benchmarks/e2e/tests -v
"""

from __future__ import annotations

import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2ebench import rounds  # noqa: E402
from e2ebench.loadgen import PhaseResult  # noqa: E402
from e2ebench.yardstick import REFERENCE_MS, Yardstick  # noqa: E402


def _with_samples(samples) -> Yardstick:
    yardstick = Yardstick(Path("unused"))
    yardstick._at = [at for at, _ in samples]
    yardstick._ms = [ms for _, ms in samples]
    return yardstick


class SampleSelection(unittest.TestCase):
    def test_median_of_the_samples_inside_the_interval(self):
        yardstick = _with_samples(
            [(0.00, 9.0), (0.05, 0.4), (0.10, 0.5), (0.15, 0.6), (0.20, 9.0)]
        )
        self.assertEqual(yardstick.kernel_ms(0.05, 0.20), 0.5)
        self.assertAlmostEqual(yardstick.stretch(0.05, 0.20), 0.5 / REFERENCE_MS)

    def test_an_interval_without_samples_takes_its_neighbours(self):
        yardstick = _with_samples([(0.0, 0.4), (1.0, 0.8)])
        self.assertAlmostEqual(yardstick.kernel_ms(0.4, 0.6), 0.6)
        self.assertAlmostEqual(yardstick.kernel_ms(5.0, 6.0), 0.8)

    def test_no_sample_at_all_is_an_error(self):
        with self.assertRaises(ValueError):
            _with_samples([]).kernel_ms(0.0, 1.0)


class Scaling(unittest.TestCase):
    """A host twice as slow reads the same once scaled."""

    def _phase(self, per_window: int, latency_ms: float, cpu_s: float) -> PhaseResult:
        phase = PhaseResult("closed", 0.25)
        phase.marks.append((0, 0.0, 0.0))
        for index in range(1, 5):
            phase.latencies_ms.extend([latency_ms] * per_window)
            phase.marks.append((index * per_window, index * cpu_s, index * 0.25))
        phase.attempted = phase.correct = 4 * per_window
        return phase

    def _reduced(self, slowdown: float):
        samples = [(i * 0.05, REFERENCE_MS * slowdown) for i in range(21)]
        result = rounds.RoundResult()
        result.e2e["setup_s"] = 1.0
        result.layers["loadgen.late_ms_max"] = result.layers["loadgen.cpu_share"] = 0.0
        result.layers["loadgen.server_cores_sat"] = 1.0
        rounds._fill_windows(
            result,
            rate=self._phase(int(1000 / slowdown), 4.0 * slowdown, 0.1),
            sat=self._phase(int(4000 / slowdown), 30.0 * slowdown, 0.2),
            pss_mb=50.0,
            yardstick=_with_samples(samples),
        )
        summary = rounds.summarise([result])
        return {**summary.layers, **summary.e2e}

    def test_slow_host_and_reference_host_agree(self):
        reference, slow = self._reduced(1.0), self._reduced(2.0)
        for name in ("throughput_rps", "cpu_ms_per_req", "loadgen.latency_p50_ms"):
            self.assertAlmostEqual(slow[name], reference[name], delta=reference[name] * 0.01)
        self.assertAlmostEqual(reference["throughput_rps"], 16000.0)
        self.assertAlmostEqual(reference["loadgen.latency_p50_ms"], 4.0)
        self.assertAlmostEqual(slow["loadgen.host_stretch"], 2.0)
        # What was measured is kept beside what is reported.
        self.assertAlmostEqual(slow["loadgen.raw_throughput_rps"], 8000.0)
        self.assertAlmostEqual(slow["loadgen.raw_latency_p50_ms"], 8.0)
        # CPU per request at a fixed rate is reported as measured.
        self.assertAlmostEqual(
            slow["loadgen.cpu_ms_per_req_at_rate"],
            2.0 * reference["loadgen.cpu_ms_per_req_at_rate"],
            delta=1e-3,
        )


class LiveChild(unittest.TestCase):
    def test_it_samples_on_schedule_and_leaves_nothing_behind(self):
        with tempfile.TemporaryDirectory() as scratch:
            yardstick = Yardstick(Path(scratch) / "samples.txt")
            yardstick.start()
            child = yardstick.process
            try:
                yardstick.wait_started()
                started = time.perf_counter()
                time.sleep(0.6)
            finally:
                yardstick.stop()
            self.assertIsNotNone(child.returncode)  # ended and waited for
            self.assertFalse((Path(scratch) / "samples.txt").exists())
            inside = [ms for at, ms in yardstick.samples if at >= started]
            self.assertGreaterEqual(len(inside), 8)  # one per 50 ms
            self.assertTrue(all(0.05 < ms < 50.0 for ms in inside), inside)
            self.assertGreater(yardstick.stretch(started, started + 0.6), 0.0)


if __name__ == "__main__":
    unittest.main()
