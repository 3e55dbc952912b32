"""Host speed, sampled while a round runs.

The machines this benchmark runs on are a few cores of a shared host.
Their speed is not constant: a fixed single-threaded kernel read 8.7,
11.2 and 14.5 ms here within an hour, in CPU time as much as in wall
time, for seconds or minutes at a stretch, with no steal time showing
in the guest.  A server that is CPU-bound reads 40 % slower in such a
minute, and no statistic over one run's windows can tell that from
slower code.

So a round carries a yardstick: a child process that every 50 ms runs a
small fixed kernel (JSON decode/encode, tuple and dict work, a small
matrix product -- the server's own kind of work), three times in a
row, and notes the CPU time of the fastest of the three beside the
clock.  About 2.5 % of one core.  A timing taken over ``[t0, t1)`` is
then scaled by :data:`REFERENCE_MS` over the median sample of that
interval: it reads what it would have read on a host where the kernel
takes :data:`REFERENCE_MS`.  The kernel and the reference are part of
the benchmark and change with no PR.
"""

from __future__ import annotations

import bisect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

PERIOD_S = 0.05
# What the kernel takes on the build host when nothing disturbs it.
REFERENCE_MS = 0.40

_WIRE = json.dumps(
    {
        "sid": "c0" + "0" * 10,
        "ua": (
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/118.0.0.0 Safari/537.36"
        ),
        "values": list(range(100, 128)),
        "service_time_ms": 0.0,
    }
).encode("ascii")


def _make_kernel():
    import numpy as np

    matrix = np.arange(28 * 28, dtype=float).reshape(28, 28) / 100.0
    rows = np.arange(64 * 28, dtype=float).reshape(64, 28)
    loads, dumps = json.loads, json.dumps

    def kernel() -> float:
        memo = {}
        for i in range(40):
            doc = loads(_WIRE)
            key = (tuple(doc["values"]), doc["ua"])
            memo[key, i] = len(dumps(doc))
        return float((rows @ matrix).sum()) + len(memo)

    return kernel


def _child(path: str) -> None:
    kernel = _make_kernel()
    clock, cpu_clock = time.perf_counter, time.process_time
    with open(path, "w") as out:
        due = clock()
        while True:
            started = clock()
            best = float("inf")
            for _ in range(3):
                cpu0 = cpu_clock()
                kernel()
                best = min(best, cpu_clock() - cpu0)
            out.write(f"{started:.6f} {best * 1000.0:.5f}\n")
            out.flush()
            due += PERIOD_S
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            else:
                due = clock()  # fell behind (a stalled host): start afresh


class Yardstick:
    """The sampler child of one round, and its samples afterwards."""

    def __init__(self, samples_path: Path) -> None:
        self.samples_path = samples_path
        self.process: Optional[subprocess.Popen] = None
        self._at: List[float] = []
        self._ms: List[float] = []

    def start(self) -> None:
        self.samples_path.parent.mkdir(parents=True, exist_ok=True)
        package_parent = str(Path(__file__).resolve().parents[1])
        self.process = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; sys.path.insert(0, sys.argv[1]); "
                "from e2ebench.yardstick import _child; _child(sys.argv[2])",
                package_parent, str(self.samples_path),
            ],
            stdin=subprocess.DEVNULL,
        )

    def stop(self) -> None:
        """End the child, wait for it, and read what it noted."""
        process, self.process = self.process, None
        if process is None:
            return
        process.kill()
        process.wait()
        try:
            text = self.samples_path.read_text()
            self.samples_path.unlink()
        except OSError:
            text = ""
        # Whatever follows the last newline was cut short by the kill.
        for line in text.split("\n")[:-1]:
            at, ms = line.split()
            self._at.append(float(at))
            self._ms.append(float(ms))

    def wait_started(self, timeout: float = 10.0) -> None:
        """Block until the child has noted its first samples.

        Its start-up (interpreter, numpy) must not compete with the
        server's, which is being timed.
        """
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if self.samples_path.read_text().count("\n") >= 2:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("the yardstick child noted nothing; is numpy importable?")

    @property
    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self._at, self._ms))

    def kernel_ms(self, t0: float, t1: float) -> float:
        """Median sample of ``[t0, t1)`` on the ``perf_counter`` clock.

        An interval too short to hold a sample takes the two nearest.
        """
        if not self._ms:
            raise ValueError("the yardstick noted no sample")
        low = bisect.bisect_left(self._at, t0)
        high = bisect.bisect_left(self._at, t1)
        if high - low < 2:
            low, high = max(0, low - 1), min(len(self._ms), high + 1)
        return statistics.median(self._ms[low:high])

    def stretch(self, t0: float, t1: float) -> float:
        """How much longer than on the reference host things took in ``[t0, t1)``."""
        return self.kernel_ms(t0, t1) / REFERENCE_MS

