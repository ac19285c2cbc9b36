"""Byte-level artifact integrity: atomic writes and embedded checksums.

The two primitives every persisted artifact rests on, in a leaf module
(standard library only) so any layer can use them without importing
the probing package — the obs exporters write packet traces through
them too:

* :func:`atomic_write_bytes` / :func:`atomic_write_text` — the single
  write-rename helper;
* :func:`embed_checksum` / :func:`split_checksum` /
  :func:`checksum_of` — an embedded sha256 over a record's canonical
  JSON bytes (:func:`canonical_json_bytes`);
  :func:`checksummed_json_bytes` writes such a record in one pass.

:mod:`repro.probing.artifacts` builds verification counters, the
line-log codec and checkpoints on top, and re-exports these names.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "CHECKSUM_KEY",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json_bytes",
    "checksum_of",
    "checksummed_json_bytes",
    "embed_checksum",
    "split_checksum",
]

#: The reserved top-level key carrying the embedded content digest.
CHECKSUM_KEY = "sha256"


# ---------------------------------------------------------------------------
# The one atomic write-rename helper.
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses a filesystem boundary. The file descriptor is
    fsynced before the rename; a crash at any point leaves either the
    previous complete file or the new complete file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        # A crash between write and replace leaves the temp file; a
        # success leaves nothing. Either way, don't litter.
        if tmp.exists():  # pragma: no cover - crash-path hygiene
            try:
                tmp.unlink()
            except OSError:
                pass


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomic text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))


# ---------------------------------------------------------------------------
# Embedded content checksums over canonical JSON bytes.
# ---------------------------------------------------------------------------


def canonical_json_bytes(record: Dict) -> bytes:
    """The canonical serialisation checksums are computed over.

    Sorted keys + compact separators: any dict that parses back to the
    same data canonicalises to the same bytes, so a load can recompute
    the digest of what it parsed and compare against the embedded one.
    """
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def checksum_of(record: Dict) -> str:
    """sha256 hex digest of ``record``'s canonical bytes (checksum
    field excluded, if present)."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    return hashlib.sha256(canonical_json_bytes(body)).hexdigest()


def embed_checksum(record: Dict) -> Dict:
    """A copy of ``record`` carrying its own content digest."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    out = dict(body)
    out[CHECKSUM_KEY] = checksum_of(body)
    return out


def checksummed_json_bytes(record: Dict) -> bytes:
    """``canonical_json_bytes(embed_checksum(record))``, serialised once.

    The body's keys that sort before :data:`CHECKSUM_KEY` and those
    that sort after it are encoded as two canonical halves. Joined,
    they are the body's canonical bytes, which the digest covers; the
    ``"sha256":"<hex>"`` member is then spliced between them, where a
    sorted encoding of the whole record puts it. A stale digest in
    ``record`` is dropped, as :func:`embed_checksum` drops it.
    """
    head: Dict = {}
    tail: Dict = {}
    for key, value in record.items():
        if key < CHECKSUM_KEY:
            head[key] = value
        elif key > CHECKSUM_KEY:
            tail[key] = value
    members = [
        canonical_json_bytes(half)[1:-1] for half in (head, tail) if half
    ]
    digest = hashlib.sha256(b"{" + b",".join(members) + b"}").hexdigest()
    member = f'"{CHECKSUM_KEY}":"{digest}"'.encode("utf-8")
    members.insert(1 if head else 0, member)
    return b"{" + b",".join(members) + b"}"


def split_checksum(record: Dict) -> Tuple[Dict, Optional[str]]:
    """``(body, stored_digest)`` — digest is ``None`` for legacy
    artifacts written before checksums existed."""
    if CHECKSUM_KEY not in record:
        return record, None
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    return body, record[CHECKSUM_KEY]
