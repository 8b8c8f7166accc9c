"""Same-host end-to-end benchmark of the ``repro`` analysis toolkit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics; ``--trace 1`` replays the same kind of ops through
the program's layers under in-memory spans and prints the per-layer
metrics.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads, metrics and rules.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import sys
import time
from typing import Dict, List, Tuple

import common
from common import (
    BenchError,
    closed_loop,
    latency_summary,
    min_samples,
    timed_op,
)
from tracer import Tracer, share_table

#: fewest traced replays a ``--trace 1`` run makes
MIN_REPLAYS = 5

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.import_ms": "ms",
    "workloads.trace_ms": "ms",
    "workloads.insts": "count",
    "workloads.generated_per_op": "count",
    "uarch.simulate_ms": "ms",
    "uarch.kinst_per_s": "kinst/s",
    "uarch.cycles": "cycles",
    "session.provider_ms": "ms",
    "graph.build_ms": "ms",
    "graph.cost_ms": "ms",
    "graph.sweeps_per_op": "count",
    "pipeline.cache_hit_ratio": "ratio",
    "serve.job_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.rss_growth_mb": "MB",
    "obs.manifest_ms": "ms",
    "session.render_ms": "ms",
    "obs.trace_overhead_pct": "%",
}


def measure(wl, seconds: float) -> Tuple[common.Window, Dict[str, float]]:
    """Set up, run the timed window and check it (tracing off)."""
    from workloads import ensure_kernels

    # a compile happens only on a checkout's first run, so it is timed
    # apart from the rounds
    t0 = time.perf_counter()
    ensure_kernels()
    kernels_s = time.perf_counter() - t0
    rounds: List[float] = []
    t0 = time.perf_counter()
    for i in range(wl.setup_rounds):
        wl.setup_round(keep=i == wl.setup_rounds - 1)
        now = time.perf_counter()
        rounds.append(now - t0)
        t0 = now
    need = min_samples(wl.tail_pct)
    wl.need = need
    window = closed_loop(wl.op, wl.seeds, seconds, need,
                         on_sample=wl.on_sample)
    metrics = {"setup_s": statistics.median(rounds),
               **latency_summary(window, wl.tail_pct),
               "peak_rss_mb": wl.peak_rss_mb(window)}
    wl.check_after(window)
    print(f"{wl.name}: native kernels ready in {kernels_s:.2f} s "
          "(not in setup_s); set-up rounds "
          + ", ".join(f"{r:.2f}" for r in rounds) + " s")
    counts = {"setup_s": len(rounds)}
    for name, value in metrics.items():
        n = counts.get(name, window.attempted)
        extra = f", p{wl.tail_pct:g}" if name == "op_tail_ms" else ""
        print(f"  {name:<14}{value:>12.4f} {END_TO_END_UNITS[name]:<4}"
              f" (n={n}{extra})")
    return window, metrics


def trace(wl, seconds: float) -> Tuple[common.Window, Dict[str, float]]:
    """Alternate untraced ops with traced replays of the next seed, so
    host drift hits both alike."""
    import repro.obs as obs
    from repro.obs.core import Collector
    from workloads import ensure_kernels

    ensure_kernels()
    wl.setup_round(keep=True)
    wl.prepare_replay()
    tracer = Tracer()
    collector = Collector()
    replayed: Dict[int, dict] = {}
    op_ids = itertools.count()

    def replay_op(seed: int):
        # shims and obs counters are on only while a replay runs
        obs.enable(collector)
        tracer.install()
        try:
            replayed[seed] = wl.replay(tracer, next(op_ids), seed)
        finally:
            tracer.uninstall()
            obs.disable()
        return True, "", None

    window, replays = common.Window(), common.Window()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or replays.attempted < MIN_REPLAYS:
        window.samples.append(timed_op(wl.op, next(wl.seeds)))
        replays.samples.append(timed_op(replay_op, next(wl.seeds)))
    if replays.failed:
        raise BenchError(f"traced replay failed: {replays.failures()[0]}")
    untraced_p50 = statistics.median(
        s.latency_s * 1000.0 for s in window.samples)
    daemon = wl.window_layers(window)

    # traced and untraced ops must agree on the same inputs
    order = [s.seed for s in replays.samples]
    for seed in sorted({order[0], order[len(order) // 2]}):
        why = wl.compare_replay(seed, replayed[seed])
        if why:
            window.samples.append(common.Sample(seed, 0.0, False, why))

    metrics = layer_metrics(tracer, collector.counters, untraced_p50)
    metrics.update(daemon)
    path = os.path.join(common.WORK, f"trace-{wl.name}-seed{wl.seed}.json")
    tracer.write_chrome(path)
    print(f"{wl.name}: {window.attempted} untraced ops, op_p50 "
          f"{untraced_p50:.1f} ms; {replays.attempted} traced replays; "
          f"spans written to {path}")
    for name, value in metrics.items():
        n = window.attempted if name in daemon else replays.attempted
        print(f"  {name:<30}{value:>14.4f} {PER_LAYER_UNITS[name]:<8}"
              f"(n={n})")
    print(f"{wl.name}: layer self time as a share of the untraced op_p50 "
          f"({untraced_p50:.1f} ms, n={window.attempted})")
    for line in share_table(tracer, untraced_p50):
        print(line)
    return window, metrics


def layer_metrics(tracer, counters: Dict[str, float],
                  untraced_p50: float) -> Dict[str, float]:
    """The per-layer metrics of the replayed ops.

    Times are medians over the ops of the time spent in a layer's calls
    (0 when the ops never call it); counts come from the program's obs
    *counters* over the replay.
    """
    from workloads import SWEEP_COUNTERS

    def med(name: str) -> float:
        return statistics.median(tracer.per_op_ms(name))

    def value_of(name: str):  # what the first op's call returned
        return next(s.value for s in tracer.ops()[0] if s.name == name)

    n_ops = len(tracer.ops())
    insts = len(value_of("workloads.trace").insts)
    sim_ms = [ms for ms in tracer.per_op_ms("uarch.simulate") if ms > 0]
    sweeps = sum(counters.get(name, 0) for name in SWEEP_COUNTERS) / n_ops
    hits = sum(v for k, v in counters.items()
               if k.startswith("pipeline.cache.") and k.endswith(".hit"))
    misses = sum(v for k, v in counters.items()
                 if k.startswith("pipeline.cache.") and k.endswith(".miss"))
    return {
        "cli.import_ms": med("cli.import"),
        "workloads.trace_ms": med("workloads.trace"),
        "workloads.insts": float(insts),
        "workloads.generated_per_op":
            counters.get("workload.trace.generated", 0) / n_ops,
        "uarch.simulate_ms": med("uarch.simulate"),
        "uarch.kinst_per_s": statistics.median(
            insts / ms for ms in sim_ms) if sim_ms else 0.0,
        "uarch.cycles": float(value_of("session.provider").result.cycles),
        "session.provider_ms": med("session.provider"),
        "graph.build_ms": med("graph.build"),
        "graph.cost_ms": med("graph.cost"),
        "graph.sweeps_per_op": sweeps,
        "pipeline.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "serve.job_ms": 0.0,
        "serve.overhead_ms": 0.0,
        "serve.rss_growth_mb": 0.0,
        "obs.manifest_ms": med("obs.manifest"),
        "session.render_ms": med("session.render"),
        "obs.trace_overhead_pct": (med("op") / untraced_p50 - 1.0) * 100.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the ``finally`` that stops the daemon
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not common.program_present():
        print(f"no program sources under {common.SRC}", file=sys.stderr)
        return 2
    common.prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    try:
        window, metrics = (trace if args.trace else measure)(
            wl, args.seconds)
    except BenchError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        wl.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for why in window.failures():
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps({
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
