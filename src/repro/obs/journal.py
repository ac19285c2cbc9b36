"""Flight recorder: a bounded ring of structured events per worker.

When the :class:`~repro.core.parallel.WorkerWatchdog` kills a hung
worker, the process's state dies with it — metrics show *that* it
hung, never *what it was doing*. A :class:`FlightRecorder` fixes the
post-mortem gap: supervised workers record coarse structured events
(task start, periodic progress, task end) into a bounded ring and
flush the new entries over the existing duplex supervisor pipe on a
heartbeat cadence. The parent keeps the last
:data:`DEFAULT_JOURNAL_CAPACITY` events per VP, so when a worker is
killed for hanging or crashes outright, its final journal tail is
already parent-side — and lands in the quarantine manifest as the
black-box recording of the VP's last moments.

Events are plain dicts (pickle- and JSON-friendly)::

    {"seq": int, "wall": unix_seconds, "kind": str, ...fields}

``seq`` is monotonically increasing per recorder and survives ring
truncation, so a reader can tell events were lost. Recording is a
dict append into a ``deque`` — cheap enough for the supervised paths
it runs on (it is never on the per-probe hot path; progress events are
recorded every :data:`JOURNAL_PROGRESS_EVERY` destinations).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Optional

__all__ = [
    "FlightRecorder",
    "DEFAULT_JOURNAL_CAPACITY",
    "JOURNAL_PROGRESS_EVERY",
]

#: Ring capacity, worker-side and per-VP parent-side.
DEFAULT_JOURNAL_CAPACITY = 256

#: Destinations between periodic in-task progress events (and their
#: piggybacked pipe flushes) in the supervised worker.
JOURNAL_PROGRESS_EVERY = 8


class FlightRecorder:
    """A bounded ring buffer of structured journal events."""

    def __init__(self, capacity: int = DEFAULT_JOURNAL_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._seq = 0

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, **fields: object) -> dict:
        """Append one event; returns it (handy for tests)."""
        self._seq += 1
        event: dict = {"seq": self._seq, "wall": time.time(),
                       "kind": kind}
        event.update(fields)
        self._events.append(event)
        return event

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def last_seq(self) -> int:
        return self._seq

    @property
    def dropped(self) -> int:
        """Events discarded by ring truncation."""
        return self._seq - len(self._events)

    def tail(self, n: Optional[int] = None) -> List[dict]:
        """The most recent ``n`` events (all, for ``None``) as copies."""
        events = list(self._events)
        if n is not None:
            events = events[-n:]
        return [dict(event) for event in events]

    def since(self, seq: int) -> List[dict]:
        """Events with ``seq`` greater than ``seq`` — the incremental
        flush unit: the supervisor pipe ships only what the parent has
        not yet seen."""
        return [dict(event) for event in self._events
                if event["seq"] > seq]

    def clear(self) -> None:
        self._events.clear()
        # seq keeps counting: event numbers stay unique per recorder.

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self._events)}/{self.capacity} events, "
            f"seq={self._seq})"
        )
