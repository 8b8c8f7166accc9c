"""Shared pieces of the benchmark: paths, child processes, statistics.

Everything here is independent of the program under test, so the
harness measures the same way on every commit it is pointed at.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: the checkout the benchmark runs in (the directory holding ``perfbench``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the program's sources, run straight from the tree
SRC = os.path.join(ROOT, "src")
#: every file the benchmark writes lives under here (git-ignored)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
#: temp dir handed to the program, so its native kernels compile here
TMP = os.path.join(WORK, "tmp")

#: samples a tail percentile must leave beyond it
TAIL_SAMPLES_BEYOND = 10
#: how long past ``--seconds`` a run may keep going to reach the
#: sample count its tail percentile needs before it fails instead
EXTENSION_S = 60.0


class BenchError(Exception):
    """A run that cannot produce a result (setup failed, too few samples)."""


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def prepare_environment() -> None:
    """Point this process (and its children) at the checkout's sources
    and temp dir, and drop ``REPRO_*`` settings the caller may have.

    Called before anything imports the program.
    """
    os.makedirs(TMP, exist_ok=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["TMPDIR"] = TMP
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR on next use
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """The environment every program process runs with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = TMP
    return env


@dataclass
class ChildRun:
    """One finished child process."""

    code: int
    stdout: bytes
    stderr: str
    maxrss_mb: float


def run_child(argv: List[str], timeout: float = 120.0) -> ChildRun:
    """Run *argv* to completion and return its output and peak RSS.

    The peak RSS comes from ``wait4`` on this very child, so nothing
    else the benchmark ran (a compiler, another op) can leak into it.
    """
    err_path = os.path.join(WORK, f"child-{os.getpid()}.err")
    with open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    os.unlink(err_path)
    return ChildRun(proc.returncode, out, stderr, usage.ru_maxrss / 1024.0)


def die_with_parent() -> None:
    """``preexec_fn`` for long-lived children: the kernel sends them
    SIGTERM if the benchmark dies without stopping them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, 15)  # PR_SET_PDEATHSIG, SIGTERM


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ---- seeds -------------------------------------------------------------

def seed_stream(seed: int, salt: int) -> Iterator[int]:
    """Distinct program seeds derived from the benchmark's *seed*.

    Each workload gets its own *salt*, so one benchmark seed never
    hands two workloads the same inputs.
    """
    base = 1 + ((seed * 1_000_003 + salt * 7_919) % 10_000_000) * 64
    n = 0
    while True:
        yield base + n
        n += 1


# ---- percentiles -------------------------------------------------------

def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank *pct* percentile of *n*."""
    return n - math.ceil(pct * n / 100.0)


def min_samples(pct: float) -> int:
    """The fewest samples that leave ``TAIL_SAMPLES_BEYOND`` beyond *pct*."""
    n = 1
    while samples_beyond(n, pct) < TAIL_SAMPLES_BEYOND:
        n += 1
    return n


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile: the value with ``ceil(pct*n/100)``
    samples at or below it.  Raises when the tail is too thin."""
    n = len(values)
    if samples_beyond(n, pct) < TAIL_SAMPLES_BEYOND:
        raise BenchError(f"p{pct:g} needs {min_samples(pct)} samples, "
                         f"got {n}")
    return sorted(values)[max(0, math.ceil(pct * n / 100.0) - 1)]


# ---- the closed loop ---------------------------------------------------

@dataclass
class Sample:
    """One timed op: its input, latency and whether it was correct."""

    seed: int
    latency_s: float
    ok: bool = True
    why: str = ""
    #: what the op produced, for checks made after the timed window
    output: object = None

    def fail(self, why: str) -> None:
        """Count this op as failed (it still counts in the latencies)."""
        self.ok = False
        self.why = self.why or why


@dataclass
class Window:
    """The timed window of one run."""

    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def failures(self) -> List[str]:
        return [f"seed {s.seed}: {s.why}" for s in self.samples if not s.ok]


def closed_loop(op: Callable[[int], Tuple[bool, str, object]],
                seeds: Iterator[int], seconds: float, need: int,
                on_sample: Optional[Callable[[int], None]] = None
                ) -> Window:
    """Run *op* from one client, each op starting when the previous
    one has returned.

    Ops start while *seconds* have not elapsed; if fewer than *need*
    samples have completed by then, ops keep starting until they have,
    for at most ``EXTENSION_S`` more.  *op(seed)* returns ``(ok, why,
    output)``.  *on_sample* is called with the completed count after
    each op.
    """
    window = Window()
    t0 = time.perf_counter()
    soft_end = t0 + seconds
    hard_end = soft_end + EXTENSION_S
    while True:
        now = time.perf_counter()
        if now >= hard_end or (now >= soft_end and window.attempted >= need):
            break
        window.samples.append(timed_op(op, next(seeds)))
        window.wall_s = time.perf_counter() - t0
        if on_sample is not None:
            on_sample(window.attempted)
    return window


def timed_op(op: Callable[[int], Tuple[bool, str, object]],
             seed: int) -> Sample:
    """Run ``op(seed)`` once; an exception counts as a failed op."""
    start = time.perf_counter()
    try:
        ok, why, output = op(seed)
    except Exception as exc:  # noqa: BLE001 -- a failed op
        ok, why, output = False, f"{type(exc).__name__}: {exc}", None
    return Sample(seed, time.perf_counter() - start, ok, why, output)


def latency_summary(window: Window, tail_pct: float) -> Dict[str, float]:
    """``op_p50_ms``, ``op_tail_ms`` and ``ops_per_s`` of *window*.

    Failed ops count in the latencies; only correct ops count as
    completed.  Raises :class:`BenchError` when the tail is too thin.
    """
    lat = [s.latency_s * 1000.0 for s in window.samples]
    if not lat:
        raise BenchError("no op completed")
    return {
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": percentile(lat, tail_pct),
        "ops_per_s": (window.attempted - window.failed) / window.wall_s,
    }
