"""In-memory spans recorded from outside the program.

The ledger times the calls *into* each layer's public functions with
proxies set as instance attributes (``server.serve_batch = proxy``), so the
program itself is not edited.  A span is ``[layer, start, end, parent, tag]``
with ``parent`` the index of the enclosing span (-1 for a root) and ``tag``
the request/batch id current when it opened.  A layer's *self time* is its
spans' duration minus the part their direct children cover.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Spans written per trace file; the aggregates cover all of them.
SPAN_SAMPLE = 2000


class Recorder:
    """Span store for one process; not thread-safe (one thread records)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Request/batch id stamped onto spans opened from now on.
        self.tag: int = -1
        #: Proxies call straight through while this is False.
        self.enabled = True
        #: Cyclic-GC pauses while enabled.  They fall *inside* whatever
        #: span was open, so this is an overlay, not one more tree node.
        self.gc_ms = 0.0
        self._gc_started = 0.0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self.enabled:
            self.gc_ms += (time.perf_counter() - self._gc_started) * 1000.0

    def begin(self, layer: str) -> int:
        """Open a span under the currently open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.tag])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned."""
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def clear(self) -> None:
        """Forget every closed span (phase boundary)."""
        self.spans = []
        self._stack = []
        self.gc_ms = 0.0

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``total_ms`` and ``self_ms``."""
        child_ms = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        out: Dict[str, Dict[str, float]] = {}
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(layer, {"calls": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
            duration = (end - start) * 1000.0
            row["calls"] += 1
            row["total_ms"] += duration
            row["self_ms"] += duration - child_ms[index]
        return out

    def calls(self, layer: str, under: str) -> int:
        """Spans of ``layer`` whose direct parent is an ``under`` span."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == layer and parent >= 0
                   and self.spans[parent][0] == under)

    def report(self) -> Dict[str, Any]:
        """Aggregates plus the first :data:`SPAN_SAMPLE` spans, file form."""
        return {"layers": self.layers(), "gc_ms": self.gc_ms,
                "embedded": self.calls("core.request_embedding",
                                       "serving.server"),
                "spans": [{"layer": layer, "start": start, "end": end,
                           "parent": parent, "id": tag}
                          for layer, start, end, parent, tag
                          in self.spans[:SPAN_SAMPLE]]}


def wrap(recorder: Recorder, obj: Any, attr: str, layer: str,
         after: Optional[Callable[[Any], None]] = None) -> None:
    """Shadow ``obj.attr`` with a proxy that records a ``layer`` span.

    ``after(result)`` runs inside the span once the call returned (used to
    re-wrap objects the call replaced).
    """
    inner = getattr(obj, attr)

    def proxy(*args, **kwargs):
        if not recorder.enabled:
            return inner(*args, **kwargs)
        index = recorder.begin(layer)
        try:
            result = inner(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        finally:
            recorder.end(index)

    setattr(obj, attr, proxy)


@contextmanager
def span(recorder: Optional[Recorder], layer: str) -> Iterator[None]:
    """A ``layer`` span around the block; a no-op without a live recorder."""
    if recorder is None or not recorder.enabled:
        yield
        return
    index = recorder.begin(layer)
    try:
        yield
    finally:
        recorder.end(index)
