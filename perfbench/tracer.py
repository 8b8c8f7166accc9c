"""In-memory spans around calls into the program's layers.

The traced run wraps a fixed list of the program's public functions
with timing shims installed from the benchmark's own code, replays a
workload's ops through the library path, and keeps one span per call:
name, start, end, parent span and op id.  Nothing inside the program
changes; the shims are removed when the replay ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name): the layer entry points the
#: replays go through.  Modules that bind a function at import time
#: are listed too, so every call site on the op's path is covered.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads", "get_workload", "workloads.trace"),
    ("repro.workloads.registry", "get_workload", "workloads.trace"),
    ("repro.session.session", "_simulate", "uarch.simulate"),
    ("repro.session.session", "AnalysisSession.provider",
     "session.provider"),
    ("repro.graph.builder", "GraphBuilder.build", "graph.build"),
    ("repro.core", "interaction_breakdown", "graph.cost"),
)


@dataclass
class Span:
    name: str
    start_s: float
    end_s: float
    parent: int  # index of the parent span, -1 for an op's root
    op: int
    #: what the call returned, kept for the first op only (a metric
    #: reads its trace and simulation result)
    value: object = None

    @property
    def ms(self) -> float:
        return (self.end_s - self.start_s) * 1000.0


class Tracer:
    """Records the spans of ops replayed one at a time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []  # indices of the open spans
        self._patched: List[Tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Span]:
        """Time the body as one span, nested under the open one."""
        parent = self._open[-1] if self._open else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else -1
        record = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end_s = time.perf_counter()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self._open:  # outside a replayed op
                return fn(*args, **kwargs)
            with self.span(name) as record:
                value = fn(*args, **kwargs)
                if record.op == 0:
                    record.value = value
                return value
        return timed

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_CALLS`."""
        for module_name, path, name in LAYER_CALLS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- reading the spans back ------------------------------------------

    def ops(self) -> Dict[int, List[Span]]:
        """Spans grouped by op id (root first)."""
        grouped: Dict[int, List[Span]] = {}
        for record in self.spans:
            grouped.setdefault(record.op, []).append(record)
        return grouped

    def per_op_ms(self, name: str) -> List[float]:
        """Total time of spans called *name* in each op (0 if none)."""
        totals = []
        for spans in self.ops().values():
            totals.append(sum((s.ms for s in spans if s.name == name), 0.0))
        return totals

    def self_ms(self) -> Dict[str, List[float]]:
        """Per layer, each op's exclusive time: span time minus the time
        its child spans cover."""
        child_ms = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                child_ms[record.parent] += record.ms
        names = sorted({s.name for s in self.spans})
        per_op: Dict[int, Dict[str, float]] = {}
        for i, record in enumerate(self.spans):
            totals = per_op.setdefault(record.op, dict.fromkeys(names, 0.0))
            totals[record.name] += record.ms - child_ms[i]
        return {name: [totals[name] for totals in per_op.values()]
                for name in names}

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto)."""
        events = []
        for i, record in enumerate(self.spans):
            events.append({
                "name": record.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((record.start_s - self.t0) * 1e6, 3),
                "dur": round(record.ms * 1000.0, 3),
                "args": {"span": i, "parent": record.parent,
                         "op": record.op},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


def share_table(tracer: Tracer, op_p50_ms: float) -> List[str]:
    """Each layer's median self time as a share of *op_p50_ms*, with
    the remainder no layer covers (the replayed op's own code included)."""
    rows = []
    for name, values in tracer.self_ms().items():
        if name != "op":
            rows.append((statistics.median(values), name))
    lines = [f"  {'layer (self time)':<28}{'p50 ms':>10}{'share':>9}"]
    for ms, name in sorted(rows, reverse=True):
        lines.append(f"  {name:<28}{ms:>10.1f}{ms / op_p50_ms:>9.1%}")
    rest = op_p50_ms - sum(ms for ms, _ in rows)
    lines.append(f"  {'(no layer: uncovered)':<28}{rest:>10.1f}"
                 f"{rest / op_p50_ms:>9.1%}")
    return lines
