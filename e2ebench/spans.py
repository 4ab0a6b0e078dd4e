"""Layer spans for the traced benchmark run, and their analysis.

The launcher (``launch.py``) wraps the public functions of each layer of
``repro`` with :meth:`Tracer.wrap` before handing control to the CLI.  A
wrapped call pushes a frame on a per-thread stack; when it returns, its
self time is its duration minus the time its wrapped children took.

Two kinds of layer:

* coarse layers (compile, execute, store, service, ...) keep one span per
  call: ``(layer, start, end, self_s, parent, request, hot, counters)``;
* hot layers (the entanglement service, called per remote gate) keep no
  span of their own.  Their self time and call count add up in the
  ``hot`` table of the innermost coarse span around them, so tracing
  stays cheap and they still fall inside that span's time window.

Counters (:meth:`Tracer.count`) land in the innermost coarse span too.
Spans stay in memory and are written as one JSON file per process at
exit.  :func:`layer_table` and :func:`sum_counters` fold those files back
into per-layer totals for ``run.py``, optionally only for the
spans that start inside the measured phase.  Times come from
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), which every process
on the host shares, so spans from the CLI, the daemon and the workers
line up on one time axis.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: Layer whose spans always count, whenever they start: a process's
#: import happens before the phase for the daemon and the workers.
IMPORT = "import"


class Tracer:
    """Per-process span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Hot totals and counters recorded outside any coarse span.
        self._roots: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            root = (defaultdict(lambda: [0.0, 0]), defaultdict(float))
            with self._lock:
                self._roots.append(root)
            stack = self._local.stack = [["", 0.0, *root]]
        return stack

    def request(self) -> str:
        """The request id of the calling thread (job id or cell)."""
        return getattr(self._local, "request", "")

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the innermost coarse span."""
        self._stack()[-1][3][name] += amount

    def wrap(self, fn: Callable, layer: Any, *, hot: bool = False,
             request: Optional[Callable[..., str]] = None) -> Callable:
        """Wrap ``fn`` so every call records a ``layer`` span.

        ``layer`` is a name, or a callable of the parent layer name that
        returns one (so one function can count under different layers
        depending on who calls it).  ``request`` derives a request id
        from the call's arguments.  The outermost layer that names a
        request sets it for the whole call tree below it, so spans of one
        service job share the job's id and spans of a CLI cell the cell's.
        """
        tracer = self
        perf_counter = time.perf_counter
        local = self._local

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1]
            name = layer(parent[0]) if callable(layer) else layer
            owns_request = request is not None and not tracer.request()
            if owns_request:
                local.request = request(*args, **kwargs)
            if hot:
                # Shares the enclosing coarse span's tables.
                frame = [name, 0.0, parent[2], parent[3]]
            else:
                frame = [name, 0.0, defaultdict(lambda: [0.0, 0]),
                         defaultdict(float)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                if hot:
                    totals = frame[2][name]
                    totals[0] += duration - frame[1]
                    totals[1] += 1
                else:
                    tracer.spans.append([name, start, end,
                                         duration - frame[1], parent[0],
                                         tracer.request(), frame[2],
                                         frame[3]])
                if owns_request:
                    local.request = ""

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside a wrapper (e.g. the import)."""
        self.spans.append([name, start, end, end - start, "", "", {}, {}])

    def dump(self, path: Path, **extra: Any) -> None:
        """Write this process's spans (and root totals) as JSON."""
        hot: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        counters: Dict[str, float] = defaultdict(float)
        with self._lock:
            for root_hot, root_counters in self._roots:
                for name, (self_s, calls) in list(root_hot.items()):
                    hot[name][0] += self_s
                    hot[name][1] += calls
                for name, value in list(root_counters.items()):
                    counters[name] += value
        payload = {"pid": os.getpid(), "spans": self.spans, "hot": hot,
                   "counters": counters, **extra}
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# analysis (the run.py side)
# ----------------------------------------------------------------------
def load_spans(directory: Path) -> List[Dict[str, Any]]:
    """Every per-process span file written into ``directory``."""
    return [json.loads(path.read_text())
            for path in sorted(directory.glob("*.json"))]


def phase_spans(processes: Iterable[Dict[str, Any]], start: Optional[float],
                end: Optional[float]) -> Iterator[list]:
    """Spans that start inside ``[start, end]``, plus every import."""
    for process in processes:
        for span in process["spans"]:
            if start is None or span[0] == IMPORT \
                    or start <= span[1] <= end:
                yield span


def layer_table(processes: Iterable[Dict[str, Any]],
                start: Optional[float] = None,
                end: Optional[float] = None) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``total_s`` and ``calls``."""
    processes = list(processes)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})

    def add_hot(hot: Dict[str, List[float]]) -> None:
        for name, (self_s, calls) in hot.items():
            table[name]["self_s"] += self_s
            table[name]["total_s"] += self_s
            table[name]["calls"] += calls

    for name, s_start, s_end, self_s, _parent, _req, hot, _c in phase_spans(
            processes, start, end):
        row = table[name]
        row["self_s"] += self_s
        row["total_s"] += s_end - s_start
        row["calls"] += 1
        add_hot(hot)
    for process in processes:
        add_hot(process["hot"])
    return dict(table)


def sum_counters(processes: Iterable[Dict[str, Any]],
                 start: Optional[float] = None,
                 end: Optional[float] = None) -> Dict[str, float]:
    processes = list(processes)
    totals: Dict[str, float] = defaultdict(float)
    for span in phase_spans(processes, start, end):
        for name, value in span[7].items():
            totals[name] += value
    for process in processes:
        for name, value in process["counters"].items():
            totals[name] += value
    return dict(totals)


def covered_seconds(processes: Iterable[Dict[str, Any]], start: float,
                    end: float) -> float:
    """Length of ``[start, end]`` that at least one span covers."""
    intervals = sorted(
        (max(span[1], start), min(span[2], end))
        for process in processes for span in process["spans"]
        if span[2] > start and span[1] < end
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
