"""One round's server process: spawn, observe from outside, tear down.

The server is the real ``python -m repro serve ...`` child.  Everything
this module learns about it comes from outside the program: its HTTP
endpoints, ``/proc`` (CPU time and PSS of the process tree) and
``/dev/shm`` (segments it leaves behind).
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


class RoundFailure(RuntimeError):
    """A round that cannot be counted: the server broke or leaked."""


def free_port() -> int:
    """A TCP port nobody is listening on right now (bind to 0, read it back)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def mapped_shm(pids: Sequence[int]) -> Set[str]:
    """Names of the ``/dev/shm`` segments the given processes have mapped.

    Ownership is read from the server's own ``/proc/<pid>/maps`` so a
    segment another program creates meanwhile is never blamed on (or
    removed for) the server.
    """
    names: Set[str] = set()
    prefix = str(_SHM_DIR) + "/"
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            at = line.find(prefix)
            if at >= 0:
                names.add(line[at + len(prefix) :].replace(" (deleted)", ""))
    return names


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it, from ``/proc`` ppid links."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = [root]
    frontier = [root]
    while frontier:
        frontier = [pid for pid, parent in parent_of.items() if parent in frontier]
        tree.extend(frontier)
    return tree


def adopt_orphans() -> bool:
    """Make this process the parent of every orphan below it.

    The server's shards and its multiprocessing resource tracker outlive
    it by a moment; without this they are re-parented to init, where the
    harness can neither wait for them nor reap them, and one may still
    be there when the benchmark has exited.  As a child subreaper the
    harness inherits them and :func:`wait_gone` waits each one out.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _reap_children() -> None:
    """Collect every child (own or adopted) that has already exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_gone(pids: Sequence[int] = (), grace: float = 3.0) -> List[int]:
    """Wait until ``pids`` and everything below this process have ended.

    What is still alive after ``grace`` seconds is killed (the resource
    tracker ignores SIGTERM, so SIGKILL) and waited for; those pids are
    returned.  Only call this when no child's exit status is still
    wanted: it reaps all of them.
    """
    me = os.getpid()
    killed: List[int] = []
    deadline = time.perf_counter() + grace
    give_up = deadline + 2 * grace  # a process SIGKILL cannot end
    while time.perf_counter() < give_up:
        _reap_children()
        live = [
            pid
            for pid in set(pids) | set(descendants(me))
            if pid != me and _alive(pid)
        ]
        if not live:
            return killed
        if time.perf_counter() >= deadline:
            for pid in live:
                if pid not in killed:
                    killed.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = give_up
        time.sleep(0.01)
    return killed


def stop_own_resource_tracker() -> None:
    """End this process's multiprocessing resource tracker, if it has one.

    In-process shards (the traced replay) start it as a child that lives
    until this process's end of a pipe closes, that is until after exit.
    Its ``_stop`` closes the pipe and waits; a later use restarts it.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass


def _process_cpu_clock(pid: int) -> int:
    """The clock id of another process's CPU-time clock (``clock_getcpuclockid``)."""
    return ((~pid) << 3) | 2  # glibc's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)


def tree_cpu_seconds(pids: Sequence[int]) -> float:
    """CPU time used by ``pids``, threads that have ended included.

    Read from each process's CPU-time clock, to the nanosecond;
    ``/proc/<pid>/stat`` says the same in 10 ms ticks, which is 4 % of a
    quarter-second window.  Dead processes contribute nothing.
    """
    total = 0.0
    for pid in pids:
        try:
            total += time.clock_gettime(_process_cpu_clock(pid))
        except OSError:
            fields = _stat_fields(pid)
            if fields is not None:
                total += (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
    return total


def tree_pss_mb(pids: Sequence[int]) -> float:
    """Proportional set size of the tree: shared pages counted once."""
    kib = 0
    for pid in pids:
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in rollup.splitlines():
            if line.startswith("Pss:"):
                kib += int(line.split()[1])
                break
    return kib / 1024.0


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name{labels}`` → value for every sample line of a scrape."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def labelled(samples: Dict[str, float], metric: str) -> List[float]:
    """One metric's values over all its label sets (e.g. one per shard)."""
    return [
        value
        for name, value in samples.items()
        if name == metric or name.startswith(metric + "{")
    ]


class ServerProcess:
    """The serving process of one round."""

    def __init__(
        self,
        repo_root: Path,
        model_path: Path,
        serve_args: Sequence[str],
        log_path: Path,
    ) -> None:
        self.repo_root = repo_root
        self.model_path = model_path
        self.serve_args = list(serve_args)
        self.log_path = log_path
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0
        self._log = None
        self._shm_owned: Set[str] = set()
        self._tree: List[int] = []

    def spawn(self) -> None:
        self.port = free_port()
        env = dict(os.environ)
        src = str(self.repo_root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # String hashing is the largest between-process variance source
        # the harness can remove (dict/set layouts differ per launch).
        env["PYTHONHASHSEED"] = "0"
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(self.log_path, "wb")
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(self.model_path),
                "--host", "127.0.0.1", "--port", str(self.port),
                *self.serve_args,
            ],
            cwd=str(self.repo_root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    # -- observation ----------------------------------------------------

    def http(self, method: str, path: str, body: Optional[bytes] = None,
             timeout: float = 5.0):
        """One request on a fresh connection: ``(status, body bytes)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_ready(self, path: str, body: bytes, accept, timeout: float = 60.0) -> float:
        """Poll until ``accept(status, document)`` holds; seconds since spawn.

        This is the round's set-up time: process start, imports, model
        load, shard spawn and shm handshake, listener up, first verdict.
        """
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RoundFailure(
                    f"server exited with {self.process.returncode} during "
                    f"set-up; see {self.log_path}"
                )
            try:
                status, raw = self.http("POST", path, body, timeout=2.0)
            except (OSError, http.client.HTTPException):
                time.sleep(0.01)
                continue
            if accept(status, json.loads(raw)):
                ready = time.perf_counter() - self.spawned_at
                self._tree = descendants(self.process.pid)
                self._shm_owned = mapped_shm(self._tree)
                return ready
            raise RoundFailure(
                f"first response was wrong: {status} {raw[:200]!r}"
            )
        raise RoundFailure(f"server not ready within {timeout:.0f}s")

    def scrape(self) -> Dict[str, float]:
        status, raw = self.http("GET", "/metrics")
        if status != 200:
            raise RoundFailure(f"/metrics answered {status}")
        return parse_prometheus(raw.decode("utf-8"))

    def get_json(self, path: str) -> Optional[dict]:
        status, raw = self.http("GET", path)
        return json.loads(raw) if status == 200 else None

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self._tree)

    def pss_mb(self) -> float:
        return tree_pss_mb(self._tree)

    @property
    def n_processes(self) -> int:
        return len(self._tree)

    # -- teardown -------------------------------------------------------

    def stop(self) -> List[str]:
        """SIGTERM, then SIGKILL; returns what the server left behind.

        A non-empty list (surviving children, shared-memory segments, a
        non-zero exit) makes the round a failed round.
        """
        problems: List[str] = []
        process = self.process
        if process is None:
            return problems
        tree = self._tree
        if process.poll() is None:
            tree = descendants(process.pid)
            self._shm_owned |= mapped_shm(tree)
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                problems.append("server ignored SIGTERM for 15s; killed")
                process.kill()
                process.wait(timeout=10.0)
        if process.returncode != 0 and not problems:
            problems.append(f"server exited with {process.returncode}")
        # Shards and the resource tracker exit on their own a moment
        # after the parent; nothing of the round may outlive this call.
        others = [pid for pid in tree if pid != process.pid]
        for pid in wait_gone(others):
            problems.append(f"child process {pid} survived the server; killed")
        leaked = sorted(n for n in self._shm_owned if (_SHM_DIR / n).exists())
        for name in leaked:
            problems.append(f"/dev/shm/{name} left behind")
            try:
                (_SHM_DIR / name).unlink()
            except OSError:
                pass
        if self._log is not None:
            self._log.close()
            self._log = None
        self.process = None
        return problems


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"
