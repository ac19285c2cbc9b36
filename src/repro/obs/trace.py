"""Opt-in per-hop packet tracing for the simulated dataplane.

The paper's whole argument is about *where on the path* things happen:
which router wrote RR slot 4, which provider AS silently ate the
options packet, where a TTL-limited probe expired (§4.2). Aggregate
counters cannot answer those questions; a :class:`PacketTracer`
attached to a :class:`~repro.sim.network.Network` records one
structured :class:`TraceEvent` per interesting dataplane moment —

* ``send`` / ``deliver`` / ``drop`` — packet lifecycle and verdicts;
* ``hop`` — each router traversal (AS, role, direction);
* ``rr_stamp`` / ``ts_stamp`` — a router or host writing an option
  slot (``direction="rev"`` marks reverse-path stamps, the mechanism
  reverse traceroute builds on);
* ``ttl_expired`` — the probe dying at a router, with whether a Time
  Exceeded error was emitted;
* ``host_reply`` / ``port_unreach`` — the destination answering —

into a bounded ring buffer, renderable as a human-readable hop trace
(``python -m repro probe ... --trace``).

The events come from the hop-by-hop walk (``Network._walk``), so a
tracer records the probes that walk: ``repro probe --trace``, the
per-probe :class:`~repro.probing.prober.Prober` methods, and the
walked fallbacks of a batch (see ``Prober._resolve_targets``).
Attaching one never changes which path runs. A probe replayed from a
compiled stamp plan records no hops; only ``Network._lost`` still
emits its ``drop`` event, and that event carries the batch's start
time, because replay keeps the sim clock in a local variable.

Tracing is strictly opt-in: when no tracer is attached the dataplane
pays a single ``is None`` check per guard point and allocates nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from repro.net.addr import int_to_addr
from repro.obs.metrics import CounterFamily, MetricsRegistry, REGISTRY

__all__ = [
    "TraceEvent",
    "PacketTracer",
    "DEFAULT_TRACE_CAPACITY",
    "trace_dropped_counter",
]

#: Ring-buffer size: plenty for interactive traces, bounded for
#: accidentally-left-on campaign runs.
DEFAULT_TRACE_CAPACITY = 4096

#: Events that terminate a packet's walk (render as the verdict line).
_VERDICTS = ("deliver", "drop", "ttl_expired", "port_unreach")


def trace_dropped_counter(
    registry: MetricsRegistry = REGISTRY,
) -> CounterFamily:
    """Ring-truncation counter for attached packet tracers.

    Ring overflow used to be visible only on the tracer object itself
    (``dropped_events``); registering it here surfaces it in
    ``repro stats`` next to the dataplane drop counters.
    """
    return registry.counter(
        "trace_dropped_events_total",
        "Packet-trace events discarded by ring-buffer truncation.",
        labelnames=("net",),
    )


@dataclass(frozen=True)
class TraceEvent:
    """One structured dataplane event.

    ``seq`` is a monotonically increasing event number (survives ring
    truncation, so renderers can tell events were lost); ``t`` is the
    sim-clock time; ``addr`` is the most relevant address for the
    event (stamp address for stamps, ICMP source for expiries, packet
    destination for sends).
    """

    seq: int
    t: float
    kind: str
    direction: str = "fwd"
    addr: Optional[int] = None
    asn: Optional[int] = None
    role: Optional[str] = None
    detail: str = ""

    def render(self) -> str:
        parts: List[str] = [f"t={self.t:9.3f}", f"[{self.direction}]",
                            f"{self.kind:<12}"]
        if self.asn is not None:
            where = f"AS{self.asn}"
            if self.role:
                where += f"/{self.role}"
            parts.append(f"{where:<14}")
        if self.addr is not None:
            parts.append(int_to_addr(self.addr))
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class PacketTracer:
    """A bounded ring buffer of :class:`TraceEvent` records.

    Attach with :meth:`repro.sim.network.Network.attach_tracer`; the
    hop-by-hop walk then calls :meth:`emit` at each guard point, and
    replayed probes emit nothing but loss ``drop`` events (see the
    module docstring). The ring keeps the most recent ``capacity``
    events; ``dropped_events`` counts what truncation discarded.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        net_id: str = "",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        # Truncation counter: registered only when the tracer knows
        # which network it watches, so bare test tracers stay silent.
        self._drop_counter = (
            trace_dropped_counter(
                REGISTRY if registry is None else registry
            ).labels(net_id)
            if net_id
            else None
        )

    # -- recording ---------------------------------------------------

    def emit(
        self,
        kind: str,
        t: float,
        direction: str = "fwd",
        addr: Optional[int] = None,
        asn: Optional[int] = None,
        role: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self._seq += 1
        if (
            self._drop_counter is not None
            and len(self._events) == self.capacity
        ):
            self._drop_counter.inc()
        self._events.append(
            TraceEvent(
                seq=self._seq,
                t=t,
                kind=kind,
                direction=direction,
                addr=addr,
                asn=asn,
                role=role,
                detail=detail,
            )
        )

    # -- reading ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._events))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    @property
    def dropped_events(self) -> int:
        """Events discarded by ring truncation."""
        return self._seq - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        # seq keeps counting: event numbers stay unique per tracer.

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        wanted = set(kinds)
        return [event for event in self._events if event.kind in wanted]

    def packets(self) -> List[List[TraceEvent]]:
        """Events grouped per traced packet (split at ``send``)."""
        groups: List[List[TraceEvent]] = []
        current: List[TraceEvent] = []
        for event in self._events:
            if event.kind == "send" and current:
                groups.append(current)
                current = []
            current.append(event)
        if current:
            groups.append(current)
        return groups

    # -- rendering ---------------------------------------------------

    def render(self, last: Optional[int] = None) -> str:
        """A human-readable hop trace of the buffered events.

        ``last`` limits output to the final N *packets* (default all).
        """
        groups = self.packets()
        if last is not None:
            groups = groups[-last:]
        lines: List[str] = []
        if self.dropped_events:
            lines.append(
                f"... {self.dropped_events} earlier event(s) "
                "truncated by the ring buffer"
            )
        for group in groups:
            for event in group:
                indent = "" if event.kind == "send" else "  "
                lines.append(indent + event.render())
            verdict = _verdict_of(group)
            if verdict is not None:
                lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _verdict_of(group: List[TraceEvent]) -> Optional[str]:
    """The packet's fate, from its terminal event."""
    for event in reversed(group):
        if event.kind == "deliver":
            return "delivered"
        if event.kind == "drop":
            cause = event.detail or "unknown"
            return f"dropped ({cause})"
        if event.kind == "ttl_expired":
            return (
                "ttl expired ("
                + (event.detail or "no error sent")
                + ")"
            )
        if event.kind == "port_unreach":
            return "port unreachable returned"
    return None
