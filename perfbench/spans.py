"""In-memory span recording around the public functions of each layer.

A span is ``(id, parent, name, start, end, value)``: ``start``/``end``
come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans
recorded in a server process line up with the benchmark's own clock),
``parent`` is the enclosing span on the same thread (0 at top level)
and ``value`` is an optional size the wrapper measured on the result.

:func:`install` wraps the objects the program's callers actually hold
(the ``METHODS`` table entry, the names ``repro.service.state``
imported, class attributes), so nothing inside ``repro`` changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[float]]

class SpanRecorder:
    """Collects spans from any thread; nothing leaves memory until dumped."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None):
        """``fn`` recording one ``name`` span per call."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            span_id = next(recorder._ids)
            stack.append(span_id)
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = float(measure(result))
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end, value))

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public entry points with ``recorder`` spans."""
    import repro.index.grid as grid
    import repro.live.repair as repair
    import repro.requests as requests
    import repro.service.registry as registry
    import repro.service.state as state
    from repro.graph.blocked import BlockedNeighborhood
    from repro.graph.csr import CSRNeighborhood
    from repro.live.dataset import MutableDataset

    def patch(owner, attr, name, measure=None):
        if isinstance(owner, dict):
            owner[attr] = recorder.wrap(name, owner[attr], measure)
        else:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), measure))

    patch(registry, "clustered_dataset", "datasets.generate")
    patch(grid.GridIndex, "__init__", "index.build")
    patch(grid, "build_grid_auto", "graph.adjacency_build", lambda csr: csr.nbytes)
    for cls in (CSRNeighborhood, BlockedNeighborhood):
        patch(cls, "decrement", "graph.decrement")
    patch(requests.METHODS, "greedy", "core.greedy")
    patch(state, "zoom_in", "core.zoom_in")
    patch(state, "zoom_out", "core.zoom_out")
    patch(MutableDataset, "apply", "live.apply")
    patch(MutableDataset, "adjacency_snapshot_for_mask", "live.snapshot")
    patch(repair, "repair_selection_delta", "live.repair")


def load(path: str, id_offset: int = 0) -> List[Span]:
    """Spans written by :meth:`SpanRecorder.dump`, ids shifted by ``id_offset``."""
    with open(path, encoding="utf-8") as handle:
        return [
            (span_id + id_offset, parent + id_offset if parent else 0, *rest)
            for span_id, parent, *rest in json.load(handle)
        ]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children run on their parent's thread, one after another, so the
    covered part is the sum of their durations.
    """
    spans = list(spans)
    own = {span[0]: span[4] - span[3] for span in spans}
    for span_id, parent, _name, start, end, _value in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def summarize(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: call count, total and mean self time, values."""
    own = self_times(spans)
    out: Dict[str, dict] = {}
    for span_id, _parent, name, _start, _end, value in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "values": []})
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        if value is not None:
            entry["values"].append(value)
    for entry in out.values():
        entry["mean_self_s"] = entry["self_s"] / entry["calls"]
    return out


def roots_in(spans: List[Span], start: float, end: float) -> float:
    """Total duration of top-level spans that lie inside ``[start, end]``."""
    return sum(
        s_end - s_start
        for _id, parent, _name, s_start, s_end, _value in spans
        if parent == 0 and s_start >= start and s_end <= end
    )
