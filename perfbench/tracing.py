"""Span recorder for the traced run.

The traced run calls the program's own entry points.  Spans come from
wrapping, for the duration of the run, the module and class attributes
those entry points look up at call time, plus a root span per operation
around the benchmark's own call.  They nest, carry
name / start / end / parent / request id, stay in memory, and are
written once at exit as Chrome trace-event JSON (loadable in Perfetto)
next to a per-layer self-time table.  A span's self time is its duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: a span name, or ``(call args, return value) -> name``
SpanName = Union[str, Callable[[tuple, object], str]]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request_id: Optional[str]


class Tracer:
    """In-memory span recorder (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.request_id: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the yielded one-item list may rename it."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        label = [name]
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield label
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = Span(label[0], start, end, parent,
                                   self.request_id)

    @contextlib.contextmanager
    def wrapped(self, targets: Sequence[Tuple[object, str, SpanName]]):
        """Wrap ``owner.attr`` with a span for each target, for as long as
        the block runs.

        The program keeps calling its own functions; it finds the wrapper
        because it looks the attribute up at call time.  ``name`` is the
        span name, or a function of the call's positional arguments and
        its return value that names the span once the call returns.
        """
        saved = []
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: SpanName):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name if isinstance(name, str) else "?") as label:
                result = fn(*args, **kwargs)
                if not isinstance(name, str):
                    label[0] = name(args, result)
                return result

        return wrapper

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_ms", "self_ms"}}`` over every span."""
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        table: Dict[str, Dict[str, float]] = {}
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            dur = s.end_ns - s.start_ns
            row = table.setdefault(
                s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns[idx]) / 1e6
        return table

    def root_coverage(self, root: str) -> float:
        """Share of the ``root`` spans' time covered by their children."""
        table = self.self_times()
        row = table.get(root)
        if not row or row["total_ms"] <= 0:
            return 0.0
        return 1.0 - row["self_ms"] / row["total_ms"]

    def write(self, path: Path, extra: Dict[str, object]) -> None:
        """Chrome trace-event JSON plus the self-time table."""
        events = []
        t0 = min((s.start_ns for s in self.spans if s is not None),
                 default=0)
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start_ns - t0) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": idx, "parent": s.parent,
                         "request_id": s.request_id},
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "selfTimes": self.self_times(),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def mean_self_ms(table: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean self time of ``name`` per call in a self-time table (0 when
    the span never ran)."""
    row = table.get(name)
    if not row or not row["calls"]:
        return 0.0
    return row["self_ms"] / row["calls"]
