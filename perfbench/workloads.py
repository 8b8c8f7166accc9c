"""The workloads: how each sets up, runs one op and checks it.

Every workload runs one analysis on one suite workload with fresh
seeds, so its ops all do the same kind of work:

- ``cli-cold``: a fresh ``repro breakdown`` process per op;
- ``serve-warm``: requests to a warmed ``repro serve`` daemon.

Each class also replays its ops through the library path under a
:class:`~tracer.Tracer` for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    ROOT,
    WORK,
    BenchError,
    Sample,
    Window,
    child_env,
    die_with_parent,
    run_child,
    seed_stream,
    vm_hwm_mb,
)

PY = sys.executable
#: obs counters that each count one longest-path sweep of the graph
SWEEP_COUNTERS = ("engine.naive.sweep", "engine.batched.sweep.full",
                  "engine.batched.worklist")


def ensure_kernels() -> None:
    """Build (or find) both native kernels the program compiles on first
    use, in a child process, so no timed op pays a compile and no
    measured process carries the compiler's memory."""
    probe = ("from repro.graph.engine import native_kernel\n"
             "from repro.uarch.fastcore import sim_native_kernel\n"
             "raise SystemExit(0 if native_kernel() is not None and "
             "sim_native_kernel() is not None else 1)")
    run = run_child([PY, "-c", probe], timeout=300.0)
    if run.code != 0:
        raise BenchError(f"native kernels unavailable: {run.stderr[-500:]}")


def fail_sampled(window: Window, differs, why: str) -> None:
    """Check a deterministic sample of the window's ops -- the first and
    the middle one -- and fail each for which ``differs(sample)``."""
    sampled = window.samples[:1]
    if window.attempted > 1:
        sampled.append(window.samples[window.attempted // 2])
    for sample in sampled:
        if sample.ok and differs(sample):
            sample.fail(why)


def parse(name: str, argv: List[str]):
    """``(analysis, args)``: *argv* parsed by a registered analysis's
    own argument declarations, as the CLI and the daemon parse it."""
    from repro.session.registry import REGISTRY

    analysis = REGISTRY[name]
    parser = argparse.ArgumentParser(prog=name, add_help=False)
    analysis.configure(parser)
    return analysis, parser.parse_args(argv)


def run_library(name: str, argv: List[str]):
    """One registered analysis through the library path: ``make_session``
    then ``run``; returns ``(analysis, args, result)`` for ``render``."""
    analysis, args = parse(name, argv)
    session = analysis.make_session(args)
    try:
        result = analysis.run(session, args)
    finally:
        session.close()
    return analysis, args, result


class Workload:
    """Base class; subclasses fill in the workload-specific parts."""

    name = ""
    #: the fixed tail percentile reported as ``op_tail_ms``
    tail_pct = 50.0
    #: set-up is repeated this many times per run; ``setup_s`` is the
    #: median round (an odd count, so the median is one round's time).
    #: A one-op round varies as much as one op, so it takes many.
    setup_rounds = 11
    #: keeps the program seeds of each workload apart
    salt = 0
    #: timed ops after which ``peak_rss_mb`` is read: memory grows
    #: with ops served (the daemon's job history, the program's trace
    #: memo), so it compares only at a fixed op count
    need = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rss_at_need: Optional[float] = None
        self.seeds: Iterator[int] = seed_stream(seed, self.salt)
        #: untimed seeds for set-up and warm-up ops
        self.setup_seeds: Iterator[int] = seed_stream(seed, self.salt + 50)

    def argv(self, seed: int) -> List[str]:
        raise NotImplementedError

    def setup_round(self, keep: bool) -> None:
        """Bring the workload up from scratch (and tear it down again
        unless *keep*, the round whose state the timed window uses)."""
        raise NotImplementedError

    def op(self, seed: int) -> Tuple[bool, str, object]:
        raise NotImplementedError

    def measured_pid(self) -> int:
        """The process that runs the program's ops."""
        raise NotImplementedError

    def on_sample(self, done: int) -> None:
        """Called after each timed op with the completed count."""
        if done == self.need:
            self.rss_at_need = vm_hwm_mb(self.measured_pid())

    def peak_rss_mb(self, window: Window) -> float:
        if self.rss_at_need is None:
            raise BenchError("peak RSS was not sampled")
        return self.rss_at_need

    def check_after(self, window: Window) -> None:
        """Output checks too slow for the timed window; a mismatch
        fails the op it concerns."""

    def replay(self, tracer, op_id: int, seed: int) -> Dict[str, object]:
        """One op through the library path, under *tracer*."""
        raise NotImplementedError

    def window_layers(self, window: Window) -> Dict[str, float]:
        """Per-layer numbers measured on the timed ops themselves."""
        return {}

    def compare_replay(self, seed: int, replayed: Dict[str, object]) -> str:
        """Why the traced replay of *seed* disagrees with the untraced op
        on the same seed ('' when it agrees)."""
        raise NotImplementedError

    def prepare_replay(self) -> None:
        """Untimed work that puts this process in the state the
        workload's ops run in."""

    def close(self) -> None:
        """Stop whatever the workload started."""


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 60.0
    salt = 1

    def argv(self, seed: int) -> List[str]:
        return ["gcc", "--focus", "dl1", "--json", "--seed", str(seed)]

    def command(self, seed: int, *extra: str) -> List[str]:
        return [PY, "-m", "repro", "breakdown", *self.argv(seed), *extra]

    def setup_round(self, keep: bool) -> None:
        ok, why, _ = self.op(next(self.setup_seeds))
        if not ok:
            raise BenchError(f"warm-up op failed: {why}")

    def op(self, seed: int) -> Tuple[bool, str, object]:
        run = run_child(self.command(seed))
        if run.code != 0:
            return False, f"exit {run.code}: {run.stderr[-300:]}", run
        try:
            doc = json.loads(run.stdout)
        except ValueError:
            return False, "stdout is not JSON", run
        if not doc.get("entries") or not doc.get("total_cycles", 0) > 0:
            return False, "breakdown has no rows or no cycles", run
        return True, "", run

    def on_sample(self, done: int) -> None:
        """Each op is its own process; its peak comes from ``wait4``."""

    def peak_rss_mb(self, window: Window) -> float:
        return max(s.output.maxrss_mb for s in window.samples
                   if s.output is not None)

    def check_after(self, window: Window, reference=None) -> None:
        """Byte-compare sampled ops with the reference simulator core."""
        reference = reference or (
            lambda seed: run_child(self.command(
                seed, "--sim-engine", "reference")).stdout)
        fail_sampled(window,
                     lambda s: reference(s.seed) != s.output.stdout,
                     "output differs from the reference core")

    def replay(self, tracer, op_id: int, seed: int) -> Dict[str, object]:
        with tracer.span("op", op=op_id):
            with tracer.span("cli.import"):
                run = run_child([PY, "-c", "import repro.cli"])
            if run.code != 0:
                raise BenchError(f"import repro.cli failed: {run.stderr}")
            analysis, args, result = run_library("breakdown",
                                                 self.argv(seed))
            with tracer.span("session.render"):
                analysis.render(result, args)
        return {"total_cycles": result.breakdown.total_cycles}

    def compare_replay(self, seed: int, replayed) -> str:
        ok, why, run = self.op(seed)
        if not ok:
            return why
        got = json.loads(run.stdout)["total_cycles"]
        if got != replayed["total_cycles"]:
            return f"total_cycles {got} vs traced {replayed['total_cycles']}"
        return ""


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------

class ServeWarm(Workload):
    """Requests to a warmed ``repro serve`` daemon (2 workers).

    One client: the workers share one interpreter lock, so a second
    client doubles the latency without adding throughput, and the lock
    hand-offs made run-to-run spread twice as wide.
    """

    name = "serve-warm"
    tail_pct = 80.0
    #: a round boots a daemon and warms all inputs (about 8 s)
    setup_rounds = 3
    salt = 2
    #: fixed inputs the client loops over
    n_inputs = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs = list(itertools.islice(self.seeds, self.n_inputs))
        self.seeds = itertools.cycle(self.inputs)
        self.proc: Optional[subprocess.Popen] = None
        self.cache_dir = ""
        self.etags: Dict[int, str] = {}
        self.conn: Optional[http.client.HTTPConnection] = None
        self.rss_after_setup = 0.0
        self.counters_before: Dict[str, float] = {}

    def argv(self, seed: int) -> List[str]:
        return ["gcc", "--focus", "dl1", "--seed", str(seed)]

    # ---- the daemon -------------------------------------------------------

    def _boot(self) -> None:
        self.cache_dir = os.path.join(
            WORK, f"serve-cache-{os.getpid()}-{time.monotonic_ns()}")
        self.proc = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--port", "0", "--workers", "2",
             "--cache-dir", self.cache_dir, "--no-ledger"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            preexec_fn=die_with_parent)
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match is None:
            raise BenchError(f"daemon did not start: {line!r}")
        self.conn = http.client.HTTPConnection(
            match.group(1), int(match.group(2)), timeout=180)

    def _stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None:
            try:
                self._request("POST", "/v1/shutdown", {})
            except (OSError, http.client.HTTPException):
                pass
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        try:
            self.conn.request(method, path, body=data,
                              headers={"Content-Type": "application/json"})
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # the next request reconnects
            raise

    def _submit(self, seed: int) -> dict:
        status, raw = self._request(
            "POST", "/v1/jobs",
            {"analysis": "breakdown", "argv": self.argv(seed),
             "reuse": False, "wait": 120})
        doc = json.loads(raw) if raw else {}
        if status != 200 or "etag" not in doc:
            raise BenchError(f"HTTP {status}: {doc.get('error', doc)}")
        return doc

    def counters(self) -> Dict[str, float]:
        """The daemon's obs counters, from ``GET /metrics``."""
        status, raw = self._request("GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        out = {}
        for line in raw.decode().splitlines():
            match = re.match(r"repro_(\w+)_total (\S+)$", line)
            if match:
                out[match.group(1)] = float(match.group(2))
        return out

    def setup_round(self, keep: bool) -> None:
        self._boot()  # a failed warm-up is stopped by close()
        etags = {seed: self._submit(seed)["etag"] for seed in self.inputs}
        if not keep:
            self._stop()
            return
        self.etags = etags
        self.rss_after_setup = vm_hwm_mb(self.proc.pid)
        self.counters_before = self.counters()

    # ---- ops ----------------------------------------------------------------

    def op(self, seed: int) -> Tuple[bool, str, object]:
        doc = self._submit(seed)
        if doc["etag"] != self.etags.get(seed):
            return False, "ETag differs from the one set-up recorded", doc
        return True, "", {"etag": doc["etag"], "job": doc["job"]}

    def measured_pid(self) -> int:
        return self.proc.pid

    def job_ms(self, job: str) -> float:
        """A finished job's server-side wall time, from its status: the
        analysis, manifest, ETag, render and result JSON."""
        status, raw = self._request("GET", f"/v1/jobs/{job}")
        if status != 200:
            raise BenchError(f"GET /v1/jobs/{job} answered {status}")
        return float(json.loads(raw)["wall_ms"])

    def window_layers(self, window: Window) -> Dict[str, float]:
        """Daemon-side per-layer numbers over the timed window.

        The daemon's trace memo holds every input after set-up, so a
        trace generated in the window is counted as a failed op.
        """
        after = self.counters()
        rss = vm_hwm_mb(self.proc.pid)
        if "workload_trace_generated" not in self.counters_before:
            raise BenchError("the daemon's /metrics has no "
                             "workload.trace.generated counter")
        delta = {k: v - self.counters_before.get(k, 0.0)
                 for k, v in after.items()}
        generated = delta.get("workload_trace_generated", 0.0)
        per_op = generated / window.attempted
        if generated:
            window.samples.append(Sample(
                -1, 0.0, False, f"the daemon generated {generated:g} "
                "traces in the timed window, not 0"))
        hits = sum(v for k, v in delta.items()
                   if k.startswith("pipeline_cache_") and k.endswith("_hit"))
        misses = sum(v for k, v in delta.items()
                     if k.startswith("pipeline_cache_")
                     and k.endswith("_miss"))
        done = [s for s in window.samples if s.ok]
        job_ms = [self.job_ms(s.output["job"]) for s in done]
        return {
            "workloads.generated_per_op": per_op,
            "pipeline.cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "serve.job_ms": statistics.median(job_ms),
            "serve.overhead_ms": statistics.median(
                s.latency_s * 1000.0 - ms for s, ms in zip(done, job_ms)),
            "serve.rss_growth_mb": rss - self.rss_after_setup,
        }

    def replay(self, tracer, op_id: int, seed: int) -> Dict[str, object]:
        import repro.obs as obs
        from repro.obs.ledger import build_manifest
        from repro.serve.jobs import result_etag
        from repro.session.session import AnalysisSession

        with tracer.span("op", op=op_id):
            t0 = time.perf_counter()
            analysis, args = parse("breakdown", self.argv(seed))
            probe = analysis.make_session(args)
            session = AnalysisSession(probe.run, cache=self.cache)
            try:
                result = analysis.run(session, args)
                with tracer.span("obs.manifest"):
                    manifest = build_manifest(
                        "breakdown", session, result,
                        collector=obs.collector(),
                        wall_s=time.perf_counter() - t0)
                    etag = result_etag(manifest)
                with tracer.span("session.render"):
                    analysis.render(result, args)
            finally:
                session.close()
        return {"etag": etag}

    def prepare_replay(self) -> None:
        """Match the daemon's warm state: open its artifact cache and
        memoise the traces, as the daemon has."""
        from repro.pipeline import open_cache
        from repro.workloads import get_workload

        self.cache = open_cache(self.cache_dir, False)
        for seed in self.inputs:
            get_workload("gcc", 1.0, seed)

    def compare_replay(self, seed: int, replayed) -> str:
        if self.etags.get(seed) != replayed["etag"]:
            return "traced replay's ETag differs from the daemon's"
        return ""

    def close(self) -> None:
        self._stop()


WORKLOADS = {cls.name: cls for cls in (CliCold, ServeWarm)}
