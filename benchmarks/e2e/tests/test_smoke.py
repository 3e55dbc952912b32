"""Short rounds against the real server, one per workload.

Run on demand (not part of the repo's tier-1 suite; takes about a minute):

    python3 -m unittest discover -s benchmarks/e2e/tests -v
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
E2E = HERE.parent
REPO_ROOT = E2E.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(E2E))

from e2ebench import report, rounds, spec  # noqa: E402
from e2ebench.harness import Harness, WorkloadRun  # noqa: E402

_SECONDS = {"warmup": 0.3, "rate": 1.0, "sat": 1.0}


class SmokeRounds(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness = Harness(REPO_ROOT, E2E / "out", seed=11, seconds=6.0)

    def _round(self, name: str, workload=None) -> WorkloadRun:
        run = WorkloadRun(workload or self.harness.workload(name))
        run.rounds.append(
            rounds.run_round(
                run.workload, REPO_ROOT, self.harness.model_path,
                self.harness.out_dir, _SECONDS, label="smoke",
            )
        )
        run.summary = rounds.summarise(run.rounds)
        return run

    def test_every_workload_emits_every_metric_and_is_correct(self):
        for name in spec.WORKLOADS:
            with self.subTest(workload=name):
                run = self._round(name)
                self.assertEqual(run.summary.problems, [])
                self.assertEqual(run.summary.failed, 0)
                document = report.result_document([run], trace=False)
                self.assertTrue(document["correct"])
                self.assertEqual(
                    sorted(document["metrics"]), sorted(m.name for m in spec.END_TO_END)
                )
                for metric in spec.END_TO_END:
                    entry = document["metrics"][metric.name]
                    self.assertEqual(entry["unit"], metric.unit)
                    self.assertGreater(entry["value"], 0.0, metric.name)
                    self.assertGreater(run.summary.samples[metric.name], 0, metric.name)
                self.assertEqual(run.summary.e2e["success_ratio"], 1.0)
                layered = report.result_document([run], trace=True)
                self.assertEqual(
                    sorted(layered["metrics"]), sorted(m.name for m in spec.PER_LAYER)
                )

    def test_a_wrong_reference_drops_success_ratio(self):
        honest = self.harness.workload("repeat_heavy")
        wrong = dataclasses.replace(
            honest,
            properties={},
            lanes=[
                [r._replace(expect=(b"299", r.expect[1])) if i % 2 else r
                 for i, r in enumerate(lane)]
                for lane in honest.lanes
            ],
        )
        run = self._round("repeat_heavy", workload=wrong)
        self.assertLess(run.summary.e2e["success_ratio"], 0.75)
        self.assertGreater(run.summary.failed, 0)
        self.assertFalse(report.result_document([run], trace=False)["correct"])

    def test_a_broken_property_fails_the_run(self):
        impossible = dataclasses.replace(
            self.harness.workload("repeat_heavy"),
            properties={"cache.hit_ratio": (0.0, 0.01)},
        )
        run = self._round("repeat_heavy", workload=impossible)
        self.assertTrue(any("cache.hit_ratio" in p for p in run.summary.problems))


def _session_members(session: int) -> dict:
    """pid → (state, command line) of every process in ``session``, zombies too."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/stat").read_text()
            fields = raw[raw.rindex(")") + 2 :].split()
            if int(fields[3]) == session:
                command = Path(f"/proc/{entry}/cmdline").read_bytes()
                members[int(entry)] = (fields[0], command.replace(b"\0", b" ")[:80])
        except OSError:
            continue
    return members


class NothingOutlivesTheRun(unittest.TestCase):
    """The instant run.py has exited, no process it started exists."""

    def _run(self, trace: str, stop_after=None) -> int:
        process = subprocess.Popen(
            [sys.executable, str(E2E / "run.py"), "--workload", "repeat_heavy",
             "--seed", "5", "--seconds", "3", "--trace", trace],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # servers, shards, trackers stay in it
        )
        try:
            process.wait(timeout=stop_after)
        except subprocess.TimeoutExpired:
            process.terminate()
            process.wait(timeout=60)
        self.assertEqual(_session_members(process.pid), {})
        return process.returncode

    def test_after_end_to_end_rounds(self):
        self.assertEqual(self._run("0"), 0)

    def test_after_the_traced_replay(self):
        self.assertEqual(self._run("1"), 0)

    def test_after_sigterm_mid_round(self):
        self.assertEqual(self._run("0", stop_after=4.0), 128 + 15)


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_spec(self):
        declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [w["name"] for w in declared["workloads"]], list(spec.WORKLOADS)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]],
            [tuple(m) for m in spec.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]],
            [tuple(m[:3]) for m in spec.PER_LAYER],
        )
        self.assertEqual(declared["paths"], ["benchmarks/e2e"])


if __name__ == "__main__":
    unittest.main()
