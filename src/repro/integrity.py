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
  :func:`checksummed_json_bytes` writes such a record in one pass, and
  :func:`checksummed_members_bytes` splices one from members whose
  values are already canonical bytes (:func:`canonical_members_bytes`
  without the digest), so a value encoded elsewhere — in a pool
  worker — is never decoded or encoded again.

:mod:`repro.probing.artifacts` builds verification counters, the
line-log codec and checkpoints on top, and re-exports these names.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "CHECKSUM_KEY",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json_bytes",
    "canonical_members_bytes",
    "checksum_of",
    "checksummed_json_bytes",
    "checksummed_members_bytes",
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


#: One encoder for every canonical value (``json.dumps`` with these
#: options would build a new one per call).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json_bytes(value: object) -> bytes:
    """The canonical serialisation checksums are computed over.

    Sorted keys + compact separators: any value that parses back to the
    same data canonicalises to the same bytes, so a load can recompute
    the digest of what it parsed and compare against the embedded one.
    """
    return _CANONICAL(value).encode("utf-8")


def _sorted_members(members: Dict[str, bytes]) -> List[bytes]:
    """``"key":value`` for each member, in canonical (sorted key)
    order."""
    return [
        _CANONICAL(key).encode("utf-8") + b":" + value
        for key, value in sorted(members.items())
    ]


def canonical_members_bytes(members: Dict[str, bytes]) -> bytes:
    """The canonical bytes of a map given its members' canonical bytes.

    ``members`` maps each string key to its value's
    :func:`canonical_json_bytes`; the result equals the canonical bytes
    of the decoded map, and no value is decoded or re-encoded.
    """
    return b"{" + b",".join(_sorted_members(members)) + b"}"


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


def checksummed_members_bytes(members: Dict[str, bytes]) -> bytes:
    """A checksummed record spliced from its members' canonical bytes.

    ``members`` is as for :func:`canonical_members_bytes`. The digest
    covers the members' canonical map, and the ``"sha256":"<hex>"``
    member is spliced in where a sorted encoding of the whole record
    puts it, so the result is ``canonical_json_bytes(embed_checksum(
    record))`` of the decoded record. A stale :data:`CHECKSUM_KEY`
    member is dropped, as :func:`embed_checksum` drops it.
    """
    body = {k: v for k, v in members.items() if k != CHECKSUM_KEY}
    encoded = _sorted_members(body)
    digest = hashlib.sha256(b"{" + b",".join(encoded) + b"}").hexdigest()
    encoded.insert(
        sum(1 for key in body if key < CHECKSUM_KEY),
        f'"{CHECKSUM_KEY}":"{digest}"'.encode("utf-8"),
    )
    return b"{" + b",".join(encoded) + b"}"


def checksummed_json_bytes(record: Dict) -> bytes:
    """``canonical_json_bytes(embed_checksum(record))``, serialised once
    (:func:`checksummed_members_bytes` over each member's encoding)."""
    return checksummed_members_bytes(
        {key: canonical_json_bytes(value) for key, value in record.items()}
    )


def split_checksum(record: Dict) -> Tuple[Dict, Optional[str]]:
    """``(body, stored_digest)`` — digest is ``None`` for legacy
    artifacts written before checksums existed."""
    if CHECKSUM_KEY not in record:
        return record, None
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    return body, record[CHECKSUM_KEY]
