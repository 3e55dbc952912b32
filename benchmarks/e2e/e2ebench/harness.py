"""Ties the pieces together: model → workloads → interleaved rounds → trace."""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Sequence

from . import rounds
from .model import ensure_model
from .workloads import BUILDERS, Workload


class WorkloadRun:
    """Everything one workload produced in one invocation."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.rounds: List[rounds.RoundResult] = []
        self.summary = rounds.RoundResult()
        self.build_s = 0.0
        self.retried = False


class Harness:
    def __init__(self, repo_root: Path, out_dir: Path, seed: int, seconds: float) -> None:
        self.repo_root = repo_root
        self.out_dir = out_dir
        self.seed = seed
        self.run_seconds = seconds
        self.seconds = rounds.phase_seconds(seconds)
        self.model_path, self.train_fit_s = ensure_model(repo_root, out_dir)
        self._workloads: Dict[str, Workload] = {}

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = BUILDERS[name](self.seed, self.model_path)
        return self._workloads[name]

    def run(self, names: Sequence[str], trace: bool = False) -> List[WorkloadRun]:
        runs = []
        for name in names:
            started = time.perf_counter()
            run = WorkloadRun(self.workload(name))
            run.build_s = time.perf_counter() - started
            runs.append(run)
        # Interleave rounds across workloads (w1r1, w2r1, ..., w1r2, ...):
        # a slow episode on the host then costs each workload at most
        # one round, and the median over rounds rejects it.
        for index in range(rounds.N_ROUNDS):
            for run in runs:
                result = self._round(run, f"r{index + 1}")
                if result.generator_invalid and not run.retried:
                    # The generator ran late (a pause of this process or
                    # of the whole guest): the round says nothing about
                    # the server.  Redo it once; a second time stands.
                    run.retried = True
                    result = self._round(run, f"r{index + 1}-again")
                run.rounds.append(result)
        for run in runs:
            run.summary = rounds.summarise(run.rounds)
            self._dump_windows(run)
        if trace:
            from .trace import traced_replay

            traces = {run.workload.name: traced_replay(run, self) for run in runs}
            (self.out_dir / "trace.json").write_text(json.dumps(traces))
        return runs

    def _round(self, run: WorkloadRun, label: str) -> rounds.RoundResult:
        return rounds.run_round(
            run.workload, self.repo_root, self.model_path, self.out_dir,
            self.seconds, label=label,
        )

    def _dump_windows(self, run: WorkloadRun) -> None:
        """Per-round, per-window readings behind the run's numbers."""
        document = {
            "workload": run.workload.name,
            "seed": self.seed,
            "rounds": [
                {
                    "setup_s": r.e2e.get("setup_s"),
                    "sat_rps": r.sat_rps,
                    "sat_cpu_ms": r.sat_cpu_ms,
                    "rate_p50_ms": r.rate_p50_ms,
                    "rate_p99_ms": r.rate_p99_ms,
                    "rate_cpu_ms": r.rate_cpu_ms,
                    "host_stretch": r.stretch,
                    "as_measured": r.raw,
                    "problems": r.problems,
                }
                for r in run.rounds
            ],
        }
        path = self.out_dir / f"windows-{run.workload.name}.json"
        path.write_text(json.dumps(document, indent=1))
