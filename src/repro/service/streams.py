"""Per-spec result streams: append-only checksummed JSONL.

Each admitted spec owns one stream file
(``<stream_dir>/<tenant>/<spec>.jsonl``). Every completed unit
appends exactly one line — the unit record in canonical JSON with an
embedded per-line sha256 (:func:`repro.probing.artifacts.record_line`)
— durably (flush + fsync) via :func:`append_text_line`. When the spec
finishes, a trailer line seals the stream: record count plus a
``body_sha256`` over all record lines, itself checksummed.

Byte-identity argument: a unit record's content is a deterministic
function of (scenario, seed, spec, unit index); units are flushed in
strictly increasing unit-index order within a spec regardless of
global scheduling interleave or worker count; the trailer is computed
from the records alone (no timestamps). Hence the full stream file is
byte-identical across worker counts, pauses, and kill→resume.

Crash recovery (:meth:`TenantStream.open`): keep the verified prefix
(:func:`repro.probing.artifacts.verified_prefix`), so a torn/invalid
tail goes; drop any trailer (the daemon re-finalizes finished specs —
the trailer is deterministic so re-sealing rewrites identical bytes);
and cut back to the checkpoint's flushed-unit count — a crash after
flush but before checkpoint leaves one extra valid record, which
resume rewinds and replays identically. The check
(:meth:`TenantStream.recover`) writes nothing and the cut
(:meth:`TenantStream.settle`) comes after it, so a resume can check
every stream before it cuts any.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.probing.artifacts import (
    append_text_line,
    record_line,
    truncate_log,
    verified_prefix,
    verified_record,
)

__all__ = [
    "STREAM_VERSION",
    "TRAILER_RECORD",
    "UNIT_RECORD",
    "StreamFormatError",
    "TenantStream",
    "load_stream",
]

STREAM_VERSION = 1
UNIT_RECORD = "unit"
TRAILER_RECORD = "tenant_stream_trailer"


class StreamFormatError(ValueError):
    """A stream failed verification on a *strict* load."""

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = str(path)
        self.reason = reason


class TenantStream:
    """One spec's append-only result stream."""

    def __init__(self, path: Union[str, Path], tenant: str, spec: str) -> None:
        self.path = Path(path)
        self.tenant = tenant
        self.spec = spec
        self.records = 0
        self.finalized = False
        self._body_hash = hashlib.sha256()
        self._kept: List[bytes] = []

    # -- creation / recovery ----------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        tenant: str,
        spec: str,
        expect_records: Optional[int] = None,
    ) -> "TenantStream":
        """Open (creating or recovering) a stream for appending:
        :meth:`recover`, then :meth:`settle`."""
        stream = cls.recover(path, tenant, spec, expect_records)
        stream.settle()
        return stream

    @classmethod
    def recover(
        cls,
        path: Union[str, Path],
        tenant: str,
        spec: str,
        expect_records: Optional[int] = None,
    ) -> "TenantStream":
        """Check a stream can be resumed, writing nothing.

        ``expect_records`` is the checkpoint's flushed-unit count: the
        stream keeps exactly that many valid record lines (extra valid
        records mean the crash hit between flush and checkpoint;
        invalid tails mean it hit mid-write). A trailer, if present, is
        dropped — callers re-finalize finished specs. Raises
        :class:`StreamFormatError` if fewer valid records survive than
        the checkpoint requires (that means lost data, not a clean
        crash). :meth:`settle` then cuts the file to what was kept.
        """
        stream = cls(path, tenant, spec)
        kept: List[bytes] = []
        if not stream.path.exists():
            if expect_records:
                raise StreamFormatError(
                    path,
                    f"stream missing but checkpoint recorded "
                    f"{expect_records} flushed units",
                )
        else:
            for line, body in verified_prefix(stream.path):
                if body.get("record") == TRAILER_RECORD or (
                    expect_records is not None
                    and len(kept) >= expect_records
                ):
                    # Trailer or unrecorded units: everything from
                    # here on is rewritten by the resumed run.
                    break
                kept.append(line)
            if expect_records is not None and len(kept) < expect_records:
                raise StreamFormatError(
                    path,
                    f"only {len(kept)} valid records recovered; "
                    f"checkpoint recorded {expect_records} flushed units",
                )
        for line in kept:
            stream._body_hash.update(line + b"\n")
        stream.records = len(kept)
        stream._kept = kept
        return stream

    def settle(self) -> None:
        """Cut the file back to the records :meth:`recover` kept,
        creating it (and its directory) if it is missing."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            truncate_log(self.path, self._kept)
        else:
            self.path.write_text("", encoding="utf-8")
        self._kept = []

    # -- appending ---------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one unit record (checksummed canonical JSON)."""
        if self.finalized:
            raise StreamFormatError(self.path, "stream already finalized")
        line = record_line(record)
        append_text_line(self.path, line)
        self._body_hash.update((line + "\n").encode("utf-8"))
        self.records += 1

    def finalize(self) -> None:
        """Seal the stream with a deterministic trailer line."""
        if self.finalized:
            return
        trailer = {
            "record": TRAILER_RECORD,
            "version": STREAM_VERSION,
            "tenant": self.tenant,
            "spec": self.spec,
            "records": self.records,
            "body_sha256": self._body_hash.hexdigest(),
        }
        append_text_line(self.path, record_line(trailer))
        self.finalized = True


def load_stream(
    path: Union[str, Path], require_trailer: bool = True
) -> Tuple[List[dict], Optional[dict]]:
    """Strictly load a stream: ``(unit_records, trailer_or_None)``.

    Every line must verify; the trailer (mandatory unless
    ``require_trailer=False``) must match the record count and body
    hash. Raises :class:`StreamFormatError` on any mismatch.
    """
    text = Path(path).read_text("utf-8")
    records: List[dict] = []
    trailer: Optional[dict] = None
    body_hash = hashlib.sha256()
    for index, line in enumerate(text.splitlines()):
        body = verified_record(line)
        if body is None:
            raise StreamFormatError(
                path, f"line {index + 1}: invalid or tampered record"
            )
        if body.get("record") == TRAILER_RECORD:
            trailer = body
            break
        records.append(body)
        body_hash.update((line + "\n").encode("utf-8"))
    if trailer is None:
        if require_trailer:
            raise StreamFormatError(path, "missing stream trailer")
        return records, None
    if trailer.get("records") != len(records):
        raise StreamFormatError(
            path,
            f"trailer records {trailer.get('records')} != "
            f"{len(records)} records present",
        )
    if trailer.get("body_sha256") != body_hash.hexdigest():
        raise StreamFormatError(path, "stream body hash mismatch")
    return records, trailer
