"""In-memory spans for the benchmark's traced run.

Spans are recorded here, in the benchmark's own files, around each
public call the traced run makes; nothing inside ``repro`` is
instrumented. Every span has a name, a layer (the ``repro`` module the
call belongs to, or ``None`` for a span that only groups others), a
start, an end and the span that was open when it began. Garbage
collector pauses, read from ``gc.callbacks``, become child spans of
whatever span was open when the collector ran, so a layer's self time
excludes the collections that interrupted it.

A layer's self time is its spans' durations minus the parts of those
intervals that child spans cover. ``coverage`` is the share of a root
span's wall time that named layers account for.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder"]

GC_LAYER = "gc"


class SpanRecorder:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index] per span.
        self.spans: List[list] = []
        self._open: List[int] = []
        self._gc_started: Optional[float] = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: Optional[str] = None) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None:
            return
        generation = info.get("generation", 0)
        parent = self._open[-1] if self._open else None
        self.spans.append([
            f"gc.gen{generation}", GC_LAYER, self._gc_started,
            time.perf_counter(), parent,
        ])
        self._gc_started = None

    @contextmanager
    def gc_pauses(self) -> Iterator[None]:
        """Record collector pauses as spans for the ``with`` body."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    # -- analysis ----------------------------------------------------------

    def duration(self, index: int) -> float:
        _name, _layer, start, end, _parent = self.spans[index]
        return end - start

    def self_times(self) -> List[float]:
        """Per span: its duration minus its children's durations."""
        out = [self.duration(i) for i in range(len(self.spans))]
        for i, span in enumerate(self.spans):
            if span[4] is not None:
                out[span[4]] -= self.duration(i)
        return out

    def subtree(self, root: int) -> List[int]:
        """Indices of ``root`` and every span opened inside it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][4] in inside:
                inside.add(i)
        return sorted(inside)

    def layer_table(self, root: int) -> Dict[str, dict]:
        """``{layer: {"self_s", "spans"}}`` over ``root``'s subtree;
        grouping spans (no layer) pool under ``"(unattributed)"``."""
        selfs = self.self_times()
        table: Dict[str, dict] = {}
        for i in self.subtree(root):
            layer = self.spans[i][1] or "(unattributed)"
            row = table.setdefault(layer, {"self_s": 0.0, "spans": 0})
            row["self_s"] += selfs[i]
            row["spans"] += 1
        return table

    def named_self(self, root: int, name: str) -> float:
        """Summed self time of every span called ``name`` under
        ``root``: the call's own time, collector pauses excluded."""
        selfs = self.self_times()
        return sum(
            selfs[i] for i in self.subtree(root) if self.spans[i][0] == name
        )

    def coverage(self, root: int) -> float:
        wall = self.duration(root)
        if wall <= 0:
            return 0.0
        table = self.layer_table(root)
        attributed = sum(
            row["self_s"] for layer, row in table.items()
            if layer != "(unattributed)"
        )
        return attributed / wall

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> List[dict]:
        """Chrome trace-event ``X`` events (µs since the first span)."""
        if not self.spans:
            return []
        origin = min(span[2] for span in self.spans)
        selfs = self.self_times()
        return [
            {
                "name": name,
                "cat": layer or "group",
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"self_us": selfs[i] * 1e6},
            }
            for i, (name, layer, start, end, _parent) in enumerate(
                self.spans
            )
        ]

    def write_chrome(self, path: Path, tables: Dict[str, dict]) -> None:
        """Chrome trace-event JSON; the per-layer self-time tables ride
        along under ``otherData`` (ignored by trace viewers)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"layers": tables},
        }) + "\n", "utf-8")
