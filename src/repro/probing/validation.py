"""Structural validation and quarantine of RR probe replies.

The paper's §3.5/§4 caveat is that Record Route data arrives from
routers and hosts that may ignore, mangle, or fake the option — and
operational platforms (RIPE Atlas's "zombie probes") show misbehaving
vantage points are a first-class failure mode at scale. This module is
the trust boundary between the dataplane and the survey: every reply
is checked against structural invariants *before* it may contribute a
row, and everything that fails is quarantined with a machine-readable
reason code instead of silently poisoning the artifact.

Invariants (checked in order; the first failure wins):

1. **Wire sanity** — a reply carrying raw option bytes must re-decode
   through :meth:`RecordRouteOption.from_bytes`; any
   :class:`OptionDecodeError` is ``option_malformed``.
2. **Duplicate detection** — a ``(rr, dest_slot)`` pair with a
   non-None slot seen for two *distinct* destinations is impossible in
   an honest world (slot ``dest_slot`` must hold each destination's
   own address), so every occurrence is ``duplicate_reply``. The
   non-None-slot requirement keeps the rule sound: two same-/24
   destinations more than nine hops out legitimately share an
   identical full header with no destination stamp.
3. **Source plausibility** — a reply whose source is not the probed
   destination is ``spoofed_source``.
4. **Slot accounting** — more recorded stamps than allocated slots is
   ``too_many_stamps``.
5. **Stamp consistency** — a claimed ``dest_slot`` must index into the
   header and hold the destination's own address, else
   ``stamp_mismatch``.
6. **Option echo** — a response without the RR option echoed is merely
   *suspect* (``rr_absent``): RFC-ignoring hosts do this in the clean
   world (the paper's non-participation case), so it is never
   quarantined — it simply contributes no row, exactly as before.

Verdicts are ``valid`` / ``suspect`` / ``invalid``. Only **invalid**
replies are quarantined, retried, and — when they stay invalid past
the retry budget — degraded to plain ping (the paper's framing: RR is
*an* option, not the only one). The clean path therefore produces
zero invalid verdicts and byte-identical survey artifacts with
validation on or off.

Determinism: validation is a pure function of the collected replies —
it runs once over a VP's *complete* probe sequence (never per
dispatch chunk, so span-tracing's batch size cannot leak into
verdicts), and its outputs are sorted before they land in artifacts.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.net.options import OptionDecodeError, RecordRouteOption
from repro.obs.metrics import (
    CounterFamily,
    MetricsRegistry,
    dataplane_seconds_counter,
)

__all__ = [
    "INVALID",
    "SUSPECT",
    "VALID",
    "QUARANTINE_REASONS",
    "REASON_DUPLICATE",
    "REASON_OPTION_MALFORMED",
    "REASON_RR_ABSENT",
    "REASON_SPOOFED",
    "REASON_STAMP_MISMATCH",
    "REASON_TOO_MANY_STAMPS",
    "ReplyValidator",
    "empty_quality",
    "merge_quality",
    "quarantine_counter",
    "rr_degradation_counter",
    "validation_verdict_counter",
]

VALID = "valid"
SUSPECT = "suspect"
INVALID = "invalid"

REASON_OPTION_MALFORMED = "option_malformed"
REASON_DUPLICATE = "duplicate_reply"
REASON_SPOOFED = "spoofed_source"
REASON_TOO_MANY_STAMPS = "too_many_stamps"
REASON_STAMP_MISMATCH = "stamp_mismatch"
REASON_RR_ABSENT = "rr_absent"

#: Reasons that quarantine a reply (``rr_absent`` is suspect-only).
QUARANTINE_REASONS: Tuple[str, ...] = (
    REASON_OPTION_MALFORMED,
    REASON_DUPLICATE,
    REASON_SPOOFED,
    REASON_TOO_MANY_STAMPS,
    REASON_STAMP_MISMATCH,
)


def validation_verdict_counter(registry: MetricsRegistry) -> CounterFamily:
    """``validation_verdicts_total{net, verdict}`` — replies by verdict."""
    return registry.counter(
        "validation_verdicts_total",
        "RR replies checked by the validation pipeline, by verdict "
        "(valid, suspect, invalid).",
        ("net", "verdict"),
    )


def quarantine_counter(registry: MetricsRegistry) -> CounterFamily:
    """``quarantine_records_total{net, reason}`` — quarantined replies."""
    return registry.counter(
        "quarantine_records_total",
        "Replies quarantined by the validation pipeline, by reason code.",
        ("net", "reason"),
    )


def rr_degradation_counter(registry: MetricsRegistry) -> CounterFamily:
    """``rr_degraded_total{net, reason}`` — RR→ping degradations."""
    return registry.counter(
        "rr_degraded_total",
        "Destinations degraded from RR to plain ping after persistently "
        "invalid replies, by final reason code.",
        ("net", "reason"),
    )


def empty_quality() -> dict:
    """The zero-valued per-VP quality summary (stable schema)."""
    return {
        "checked": 0,
        "verdicts": {VALID: 0, SUSPECT: 0, INVALID: 0},
        "reasons": {},
        "invalid_dests": 0,
        "quarantined": [],
        "degraded": [],
    }


def merge_quality(total: dict, part: Optional[dict]) -> dict:
    """Accumulate one VP's quality summary into a campaign-level total.

    ``quarantined``/``degraded`` record lists concatenate (callers
    append per-VP in VP order, so the merged order is deterministic);
    scalar counters add.
    """
    if not part:
        return total
    total["checked"] += part.get("checked", 0)
    for verdict, count in part.get("verdicts", {}).items():
        total["verdicts"][verdict] = (
            total["verdicts"].get(verdict, 0) + count
        )
    for reason, count in part.get("reasons", {}).items():
        total["reasons"][reason] = total["reasons"].get(reason, 0) + count
    total["invalid_dests"] += part.get("invalid_dests", 0)
    total["quarantined"].extend(part.get("quarantined", ()))
    total["degraded"].extend(part.get("degraded", ()))
    return total


def _decodes(wire: bytes) -> bool:
    """Whether raw option bytes re-decode as a Record Route option."""
    try:
        RecordRouteOption.from_bytes(wire)
    except OptionDecodeError:
        return False
    return True


#: ``check_batch`` results, shared instead of built per reply.
_UNANSWERED: Tuple[None, None] = (None, None)
_VALID = (VALID, None)
_RR_ABSENT = (SUSPECT, REASON_RR_ABSENT)
_INVALID = {reason: (INVALID, reason) for reason in QUARANTINE_REASONS}


class ReplyValidator:
    """One vantage point's reply-validation pipeline.

    Stateful across retry rounds: the duplicate registry accumulates
    every ``(rr, dest_slot)`` signature it has seen for this VP, so a
    zombie's canned reply stays flagged even when a retry re-probes a
    single destination. All counters land in the supplied registry
    (worker registries merge home through the usual snapshot path).
    """

    def __init__(
        self,
        vp_name: str,
        slots: int,
        position: Dict[int, int],
        registry: MetricsRegistry,
        net_id: str,
    ) -> None:
        self.vp_name = vp_name
        self.slots = int(slots)
        self.position = position
        verdicts = validation_verdict_counter(registry)
        self._verdict_counters = {
            verdict: verdicts.labels(net_id, verdict)
            for verdict in (VALID, SUSPECT, INVALID)
        }
        self._quarantine_family = quarantine_counter(registry)
        self._seconds = dataplane_seconds_counter(registry).labels(
            net_id, "validate"
        )
        self._net_id = net_id
        #: The duplicate registry: each (rr tuple, dest_slot) signature's
        #: first claimant, and the signatures a second, distinct
        #: destination has claimed too.
        self._dup_first: Dict[Tuple, int] = {}
        self._dup_keys: Set[Tuple] = set()
        self.checked = 0
        self.verdict_counts = {VALID: 0, SUSPECT: 0, INVALID: 0}
        self.reason_counts: Dict[str, int] = {}
        self.quarantined: List[dict] = []
        self._invalid_dests: Set[int] = set()

    # -- checking ----------------------------------------------------------

    def check_batch(
        self, pairs: Sequence[Tuple], round_no: int = 0
    ) -> List[Tuple[Optional[str], Optional[str]]]:
        """Validate ``(dest, outcome)`` pairs; returns aligned verdicts.

        Each result is ``(verdict, reason)``; ``(None, None)`` marks an
        unanswered probe (nothing to validate). Must be called with a
        *complete* round — the duplicate pre-scan needs to see every
        reply of the round before judging any of them.

        One loop applies the module's checks in order, first failure
        wins; verdicts are counted per batch and added once.
        """
        began = perf_counter()
        # Pre-scan: register this round's signatures so the *first*
        # occurrence of a duplicated reply is flagged too.
        first = self._dup_first
        dups = self._dup_keys
        for dest, outcome in pairs:
            if outcome.rr_responsive and outcome.dest_slot is not None:
                key = (outcome.rr, outcome.dest_slot)
                if first.setdefault(key, dest.addr) != dest.addr:
                    dups.add(key)
        slots = self.slots
        results: List[Tuple[Optional[str], Optional[str]]] = []
        append = results.append
        valid = suspect = 0
        invalid: List[Tuple] = []
        for dest, outcome in pairs:
            if not outcome.responded:
                append(_UNANSWERED)
                continue
            if outcome.wire is not None and not _decodes(outcome.wire):
                reason = REASON_OPTION_MALFORMED
            # The pre-scan registers no signature with a None slot, so
            # the lookup needs no slot test of its own.
            elif (
                dups
                and outcome.rr_responsive
                and (outcome.rr, outcome.dest_slot) in dups
            ):
                reason = REASON_DUPLICATE
            elif (
                outcome.reply_src is not None
                and outcome.reply_src != dest.addr
            ):
                reason = REASON_SPOOFED
            elif not outcome.reply_has_rr:
                suspect += 1
                append(_RR_ABSENT)
                continue
            else:
                rr = outcome.rr
                slot = outcome.dest_slot
                if len(rr) > slots:
                    reason = REASON_TOO_MANY_STAMPS
                # dest_slot is the 1-based RR slot claimed to hold the
                # destination's own address (the survey's row value).
                elif slot is not None and (
                    slot < 1 or slot > len(rr) or rr[slot - 1] != dest.addr
                ):
                    reason = REASON_STAMP_MISMATCH
                else:
                    valid += 1
                    append(_VALID)
                    continue
            invalid.append((dest, outcome, reason))
            append(_INVALID[reason])
        self._count(valid, suspect, invalid, round_no)
        self._seconds.inc(perf_counter() - began)
        return results

    def _count(
        self, valid: int, suspect: int, invalid: List[Tuple], round_no: int
    ) -> None:
        """Add one batch's verdicts: counts, reasons, quarantine."""
        self.checked += valid + suspect + len(invalid)
        counts = self.verdict_counts
        reasons = self.reason_counts
        if valid:
            counts[VALID] += valid
            self._verdict_counters[VALID].inc(valid)
        if suspect:
            counts[SUSPECT] += suspect
            self._verdict_counters[SUSPECT].inc(suspect)
            reasons[REASON_RR_ABSENT] = (
                reasons.get(REASON_RR_ABSENT, 0) + suspect
            )
        if not invalid:
            return
        counts[INVALID] += len(invalid)
        self._verdict_counters[INVALID].inc(len(invalid))
        quarantined: Dict[str, int] = {}
        for dest, outcome, reason in invalid:
            quarantined[reason] = quarantined.get(reason, 0) + 1
            self._invalid_dests.add(dest.addr)
            self.quarantined.append(
                self._record(dest, outcome, reason, round_no)
            )
        for reason, count in quarantined.items():
            reasons[reason] = reasons.get(reason, 0) + count
            self._quarantine_family.labels(self._net_id, reason).inc(count)

    def _record(self, dest, outcome, reason: str, round_no: int) -> dict:
        """One quarantine sidecar record (JSON-roundtrippable)."""
        return {
            "vp": self.vp_name,
            "dest": dest.addr,
            "dest_index": self.position[dest.addr],
            "round": round_no,
            "reason": reason,
            "rr": list(outcome.rr),
            "dest_slot": outcome.dest_slot,
            "reply_src": outcome.reply_src,
            "wire": None if outcome.wire is None else outcome.wire.hex(),
        }

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """This VP's quality block for rows/checkpoints/manifests.

        Quarantine records sort by ``(dest_index, round)`` so the
        sidecar bytes never depend on probe order or retry schedule.
        """
        return {
            "checked": self.checked,
            "verdicts": dict(self.verdict_counts),
            "reasons": {
                reason: self.reason_counts[reason]
                for reason in sorted(self.reason_counts)
            },
            "invalid_dests": len(self._invalid_dests),
            "quarantined": sorted(
                self.quarantined,
                key=lambda r: (r["dest_index"], r["round"]),
            ),
            "degraded": [],
        }
