"""Artifact integrity primitives: atomic writes, content checksums and
append-only line logs.

Every artifact this repository persists — survey JSON (plain or
gzipped), campaign checkpoints, service streams, JSONL result stores —
represents hours of (simulated) probing. A half-written or bit-rotted
file must therefore never masquerade as data. Three primitives, shared
by every writer (the first two live in the leaf :mod:`repro.integrity`
and are re-exported here):

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the single
  write-rename helper. Content lands in a same-directory temp file,
  is flushed and fsynced, then atomically ``os.replace``d over the
  destination, so readers (and crashed writers) only ever observe a
  complete old file or a complete new file, never a torn one.
* :func:`embed_checksum` / :func:`split_checksum` /
  :func:`checksum_of` — an embedded sha256 over the *canonical* JSON
  bytes of the record (sorted keys, compact separators, checksum field
  excluded). Writers embed it (:func:`checksummed_json_bytes`
  serialises the record once); loaders recompute and compare, so
  corruption that still parses as JSON (a truncated-then-padded copy,
  a flipped digit) is caught before it poisons an analysis. Artifacts
  written before checksums existed simply lack the field and still
  load.
* The line-log codec — :func:`record_line`, :func:`append_text_line`,
  :func:`verified_record`, :func:`verified_prefix` and
  :func:`truncate_log` — for artifacts that grow one record at a time
  (checkpoints, per-spec service streams): each line is a checksummed
  canonical record appended with fsync, and recovery keeps the
  verified prefix and cuts the torn or corrupt tail off in place.
  Checkpoints add a header line (:func:`start_checkpoint`,
  :func:`read_checkpoint`) and :func:`cut_checkpoint_tail`.

Verification outcomes are counted in the process-wide metrics
registry (``artifact_checksum_verified_total`` /
``artifact_checksum_failures_total`` by artifact kind, and
``checkpoint_repairs_total`` by checkpoint kind) and surface in
``repro stats --health``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.integrity import (
    CHECKSUM_KEY,
    atomic_write_bytes,
    atomic_write_text,
    canonical_json_bytes,
    checksum_of,
    checksummed_json_bytes,
    embed_checksum,
    split_checksum,
)
from repro.obs.metrics import CounterFamily, MetricsRegistry, REGISTRY

__all__ = [
    "CHECKSUM_KEY",
    "SurveyFormatError",
    "append_text_line",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json_bytes",
    "checksum_of",
    "checksummed_json_bytes",
    "cut_checkpoint_tail",
    "embed_checksum",
    "read_checkpoint",
    "record_line",
    "split_checksum",
    "start_checkpoint",
    "truncate_log",
    "verified_prefix",
    "verified_record",
    "verify_embedded_checksum",
    "checksum_verified_counter",
    "checksum_failure_counter",
    "checkpoint_repair_counter",
]

#: The version every checkpoint log's header line carries.
CHECKPOINT_VERSION = 2


class SurveyFormatError(ValueError):
    """A survey or checkpoint on disk is unreadable: raised with its
    path and a human-readable reason instead of leaking
    ``json.JSONDecodeError`` / ``EOFError`` / gzip internals."""

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        super().__init__(str(path), reason)
        self.path = str(path)
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


def checksum_verified_counter(registry: MetricsRegistry) -> CounterFamily:
    """``artifact_checksum_verified_total{kind}`` — loads that checked out."""
    return registry.counter(
        "artifact_checksum_verified_total",
        "Artifact loads whose embedded content checksum verified.",
        ("kind",),
    )


def checksum_failure_counter(registry: MetricsRegistry) -> CounterFamily:
    """``artifact_checksum_failures_total{kind}`` — corruption caught."""
    return registry.counter(
        "artifact_checksum_failures_total",
        "Artifact loads rejected for an embedded-checksum mismatch.",
        ("kind",),
    )


def checkpoint_repair_counter(registry: MetricsRegistry) -> CounterFamily:
    """``checkpoint_repairs_total{kind}`` — bad checkpoint tails cut."""
    return registry.counter(
        "checkpoint_repairs_total",
        "Resumed checkpoints whose torn or corrupt tail was dropped.",
        ("kind",),
    )


def verify_embedded_checksum(
    record: Dict, kind: str = "artifact"
) -> Tuple[Dict, Optional[str]]:
    """Verify ``record``'s embedded digest, if present.

    Returns ``(body, error_reason)``: ``error_reason`` is ``None``
    when the digest matched (or was absent — legacy artifacts), else a
    human-readable mismatch description. Outcomes are counted in the
    metrics registry by ``kind``.
    """
    body, stored = split_checksum(record)
    if stored is None:
        return body, None
    actual = checksum_of(body)
    if actual != stored:
        checksum_failure_counter(REGISTRY).labels(kind).inc()
        return body, (
            "content checksum mismatch: artifact is corrupt "
            f"(embedded {str(stored)[:12]}…, computed {actual[:12]}…)"
        )
    checksum_verified_counter(REGISTRY).labels(kind).inc()
    return body, None


# ---------------------------------------------------------------------------
# Append-only line logs: one checksummed canonical record per line.
# ---------------------------------------------------------------------------


def record_line(record: Dict) -> str:
    """``record`` as one log line (newline excluded): its canonical
    JSON with the embedded sha256."""
    return checksummed_json_bytes(record).decode("utf-8")


def append_text_line(
    path: Union[str, Path], line: str, encoding: str = "utf-8"
) -> None:
    """Durably append one line to a streaming artifact.

    The record-at-a-time sibling of :func:`atomic_write_text`: flush +
    fsync after each line, so a crash can truncate the file mid-line
    at worst — never reorder or interleave records. Readers pair this
    with :func:`verified_prefix` and :func:`truncate_log`, which drop
    a torn final line.
    """
    with open(path, "a", encoding=encoding, newline="") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def verified_record(line: Union[str, bytes]) -> Optional[Dict]:
    """Parse + verify one log line; ``None`` for anything torn,
    tampered, or without an embedded checksum."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    body, stored = split_checksum(record)
    if stored is None or checksum_of(body) != stored:
        return None
    return body


def verified_prefix(path: Union[str, Path]) -> List[Tuple[bytes, Dict]]:
    """The good head of a line log, as ``(line, body)`` pairs.

    Reading stops at the first line that is not newline-terminated or
    does not verify: a crash mid-append tears at most the final line,
    and lines after a bad one cannot be trusted to continue the log.
    Read-only; :func:`truncate_log` cuts the file back.
    """
    kept: List[Tuple[bytes, Dict]] = []
    # The last split piece is an unterminated tail (or empty).
    for line in Path(path).read_bytes().split(b"\n")[:-1]:
        body = verified_record(line)
        if body is None:
            break
        kept.append((line, body))
    return kept


def truncate_log(path: Union[str, Path], lines: Sequence[bytes]) -> bool:
    """Cut a line log back to ``lines``, a prefix of its own lines.

    In place and fsynced, so the file keeps its inode and the next
    :func:`append_text_line` continues it. Returns whether a tail was
    dropped.
    """
    size = sum(len(line) + 1 for line in lines)
    with open(path, "r+b") as fh:
        if os.fstat(fh.fileno()).st_size == size:
            return False
        fh.truncate(size)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def start_checkpoint(path: Union[str, Path], header: Dict) -> None:
    """Atomically replace ``path`` with a log holding only ``header``
    (at :data:`CHECKPOINT_VERSION`)."""
    atomic_write_text(
        path, record_line(dict(header, version=CHECKPOINT_VERSION)) + "\n"
    )


def read_checkpoint(path: Union[str, Path]) -> List[Tuple[bytes, Dict]]:
    """A checkpoint log's verified prefix, header first, or
    :class:`SurveyFormatError` if the header is torn or corrupt or of
    another version. A v1 checkpoint, one whole JSON object, has no
    verified line: it is verified whole so it fails on its version."""
    lines = verified_prefix(path)
    header = lines[0][1] if lines else verified_record(Path(path).read_bytes())
    if header is not None and header.get("version") != CHECKPOINT_VERSION:
        raise SurveyFormatError(
            path,
            f"unsupported checkpoint version: {header.get('version')!r}",
        )
    if not lines:
        raise SurveyFormatError(path, "checkpoint header is torn or corrupt")
    return lines


def cut_checkpoint_tail(
    path: Union[str, Path],
    lines: Sequence[bytes],
    kind: str,
    registry: MetricsRegistry,
) -> bool:
    """:func:`truncate_log` for a resumed checkpoint, counting a
    dropped tail in ``checkpoint_repairs_total{kind}``."""
    repaired = truncate_log(path, lines)
    if repaired:
        checkpoint_repair_counter(registry).labels(kind).inc()
    return repaired
