"""Exporters: metrics snapshots, span trees, and packet traces.

* Metrics: render a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as JSONL or
  Prometheus text (the text exposition format: ``# HELP`` /
  ``# TYPE`` preamble, ``_bucket`` / ``_sum`` / ``_count`` histogram
  series with cumulative ``le`` labels).
* Spans: render a :meth:`~repro.obs.spans.SpanTracer.snapshot` as
  span JSONL, as an indented span tree (``repro trace``), or as
  Chrome trace-event JSON — ``X`` (complete) events with microsecond
  ``ts``/``dur``, one track per vantage point — loadable in
  ``chrome://tracing`` or Perfetto.
* Packet traces: persist :class:`~repro.obs.trace.TraceEvent` rings
  as JSONL with an integrity trailer (``probe --trace-output``),
  through the shared atomic-write + sha256 helpers in
  :mod:`repro.integrity`.

Everything operates on plain data, so artifacts persisted earlier
(e.g. next to benchmark output) re-export without live objects. Pure
stdlib.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry, REGISTRY
from repro.obs.trace import TraceEvent
from repro.integrity import (
    atomic_write_text,
    checksum_of,
    embed_checksum,
    split_checksum,
)

__all__ = [
    "to_jsonl",
    "to_prometheus",
    "write_jsonl",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "trace_events_to_jsonl",
    "write_trace_jsonl",
    "load_trace_jsonl",
]

Snapshot = Dict[str, dict]


def _resolve(
    snapshot: Optional[Union[Snapshot, MetricsRegistry]]
) -> Snapshot:
    if snapshot is None:
        return REGISTRY.snapshot()
    if isinstance(snapshot, MetricsRegistry):
        return snapshot.snapshot()
    return snapshot


# -- JSONL ---------------------------------------------------------------


def to_jsonl(
    snapshot: Optional[Union[Snapshot, MetricsRegistry]] = None
) -> str:
    """One JSON object per line, one line per labelled series.

    Counter/gauge lines: ``{"name", "type", "labels", "value"}``;
    histogram lines add ``"count"``, ``"sum"``, and cumulative
    ``"buckets"`` (``le=null`` means +Inf). Stable ordering: family
    name, then label values.
    """
    data = _resolve(snapshot)
    lines: List[str] = []
    for name in sorted(data):
        family = data[name]
        for series in family["series"]:
            record = {"name": name, "type": family["type"]}
            record.update(series)
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def write_jsonl(
    path,
    snapshot: Optional[Union[Snapshot, MetricsRegistry]] = None,
) -> None:
    """Write :func:`to_jsonl` output to ``path`` (trailing newline)."""
    text = to_jsonl(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + ("\n" if text else ""))


# -- Prometheus text format ------------------------------------------------


def _label_text(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(
    snapshot: Optional[Union[Snapshot, MetricsRegistry]] = None
) -> str:
    """Render the snapshot in the Prometheus text exposition format."""
    data = _resolve(snapshot)
    out: List[str] = []
    for name in sorted(data):
        family = data[name]
        if family.get("help"):
            out.append(f"# HELP {name} {_escape(family['help'])}")
        out.append(f"# TYPE {name} {family['type']}")
        for series in family["series"]:
            labels = series["labels"]
            if family["type"] == "histogram":
                for bound, count in series["buckets"]:
                    le = "+Inf" if bound is None else _fmt(float(bound))
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = le
                    out.append(
                        f"{name}_bucket{_label_text(bucket_labels)} {count}"
                    )
                out.append(
                    f"{name}_sum{_label_text(labels)} {_fmt(series['sum'])}"
                )
                out.append(
                    f"{name}_count{_label_text(labels)} {series['count']}"
                )
            else:
                out.append(
                    f"{name}{_label_text(labels)} {_fmt(series['value'])}"
                )
    return "\n".join(out) + ("\n" if out else "")


# -- Span JSONL ------------------------------------------------------------


def spans_to_jsonl(spans: Sequence[dict]) -> str:
    """One JSON object per line, one line per completed span.

    Input is a :meth:`~repro.obs.spans.SpanTracer.snapshot`; span dicts
    are emitted verbatim (sorted keys, compact separators) in buffer
    order, which is completion order within a process and VP-index
    order after a parent-side merge.
    """
    return "\n".join(
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in spans
    )


def write_spans_jsonl(path, spans: Sequence[dict]) -> None:
    """Atomically write :func:`spans_to_jsonl` output to ``path``."""
    text = spans_to_jsonl(spans)
    atomic_write_text(path, text + ("\n" if text else ""))


# -- Chrome trace-event JSON -----------------------------------------------


def _span_track(record: dict, by_id: Dict[int, dict]) -> Optional[str]:
    """The VP a span belongs to: its own ``vp`` label, or the nearest
    ancestor's. ``None`` means the campaign-level main track."""
    seen = set()
    current: Optional[dict] = record
    while current is not None and current["id"] not in seen:
        seen.add(current["id"])
        vp = current.get("labels", {}).get("vp")
        if vp is not None:
            return str(vp)
        parent = current.get("parent")
        current = None if parent is None else by_id.get(parent)
    return None


def to_chrome_trace(spans: Sequence[dict]) -> dict:
    """Render spans as a Chrome trace-event document.

    ``X`` (complete) events with microsecond ``ts``/``dur`` relative
    to the earliest span start, ``pid`` 1, and one ``tid`` per vantage
    point (``tid`` 0 is the campaign main track) — so each VP's
    attempts nest correctly on their own row. Loadable in
    ``chrome://tracing`` and Perfetto. Sim-clock times and span status
    ride along in ``args``.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    by_id = {record["id"]: record for record in spans}
    ordered = sorted(
        spans, key=lambda r: (r["wall_start"], r["id"])
    )
    t0 = ordered[0]["wall_start"]
    tids: Dict[Optional[str], int] = {None: 0}
    for record in ordered:
        track = _span_track(record, by_id)
        if track not in tids:
            tids[track] = len(tids)
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": "main" if track is None else track},
            }
        )
    for record in ordered:
        args: dict = {
            "status": record.get("status", "ok"),
            "sim_start": record.get("sim_start"),
            "sim_end": record.get("sim_end"),
        }
        labels = record.get("labels") or {}
        if labels:
            args.update(labels)
        if record.get("events"):
            args["events"] = record["events"]
        if record.get("events_dropped"):
            args["events_dropped"] = record["events_dropped"]
        events.append(
            {
                "name": record["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round((record["wall_start"] - t0) * 1e6, 3),
                "dur": round(
                    max(record["wall_end"] - record["wall_start"], 0.0)
                    * 1e6,
                    3,
                ),
                "pid": 1,
                "tid": tids[_span_track(record, by_id)],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: Sequence[dict]) -> None:
    """Atomically write :func:`to_chrome_trace` output to ``path``."""
    atomic_write_text(
        path, json.dumps(to_chrome_trace(spans), sort_keys=True) + "\n"
    )


# -- Span tree -------------------------------------------------------------


def _span_line(record: dict, depth: int) -> str:
    labels = record.get("labels") or {}
    label_text = "".join(
        f" {key}={labels[key]}" for key in sorted(labels)
    )
    wall_ms = (record["wall_end"] - record["wall_start"]) * 1e3
    parts = [f"{'  ' * depth}{record['name']}{label_text}"]
    parts.append(f"wall {wall_ms:.1f}ms")
    sim_start = record.get("sim_start")
    sim_end = record.get("sim_end")
    if sim_start is not None and sim_end is not None:
        parts.append(f"sim {sim_end - sim_start:.3f}s")
    status = record.get("status", "ok")
    if status != "ok":
        parts.append(f"[{status}]")
    if record.get("events"):
        parts.append(f"{len(record['events'])} events")
    if record.get("events_dropped"):
        parts.append(f"(+{record['events_dropped']} dropped)")
    return "  ".join(parts)


def render_span_tree(spans: Sequence[dict]) -> str:
    """An indented, depth-first text rendering of a span buffer.

    Roots are spans whose parent is ``None`` or absent from the
    buffer (e.g. a capacity-dropped ancestor); siblings order by
    ``(wall_start, id)``.
    """
    if not spans:
        return "(no spans)"
    by_id = {record["id"]: record for record in spans}
    children: Dict[Optional[int], List[dict]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r["wall_start"], r["id"]))
    lines: List[str] = []
    stack = [(record, 0) for record in reversed(children.get(None, []))]
    while stack:
        record, depth = stack.pop()
        lines.append(_span_line(record, depth))
        for child in reversed(children.get(record["id"], [])):
            stack.append((child, depth + 1))
    return "\n".join(lines)


# -- Packet-trace JSONL ----------------------------------------------------


def trace_events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """`TraceEvent`s as JSONL with an integrity trailer.

    One compact JSON object per event in ring order, then a trailer
    line carrying the event count, the sha256 of the event lines, and
    (via :func:`~repro.integrity.embed_checksum`) the
    trailer's own content digest — so a reader can detect both a
    corrupted body and a corrupted trailer.
    """
    lines = [
        json.dumps(asdict(event), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    body = "\n".join(lines)
    trailer = embed_checksum(
        {
            "kind": "trace_jsonl",
            "events": len(lines),
            "body_sha256": hashlib.sha256(
                body.encode("utf-8")
            ).hexdigest(),
        }
    )
    lines.append(
        json.dumps(trailer, sort_keys=True, separators=(",", ":"))
    )
    return "\n".join(lines)


def write_trace_jsonl(path, events: Iterable[TraceEvent]) -> None:
    """Atomically write :func:`trace_events_to_jsonl` to ``path``."""
    atomic_write_text(path, trace_events_to_jsonl(events) + "\n")


def load_trace_jsonl(path) -> List[TraceEvent]:
    """Read a :func:`write_trace_jsonl` artifact, verifying integrity.

    Raises ``ValueError`` when the trailer is missing or malformed,
    when either digest mismatches, or when the event count disagrees.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    if not lines:
        raise ValueError(f"{path}: empty trace artifact")
    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: bad trailer: {exc}") from None
    if (
        not isinstance(trailer, dict)
        or trailer.get("kind") != "trace_jsonl"
    ):
        raise ValueError(f"{path}: missing trace_jsonl trailer")
    body_lines = lines[:-1]
    body, stored = split_checksum(trailer)
    if stored is None or stored != checksum_of(body):
        raise ValueError(f"{path}: trailer checksum mismatch")
    digest = hashlib.sha256(
        "\n".join(body_lines).encode("utf-8")
    ).hexdigest()
    if digest != body["body_sha256"]:
        raise ValueError(f"{path}: event body checksum mismatch")
    if len(body_lines) != body["events"]:
        raise ValueError(
            f"{path}: event count mismatch: trailer says "
            f"{body['events']}, found {len(body_lines)}"
        )
    return [TraceEvent(**json.loads(line)) for line in body_lines]
