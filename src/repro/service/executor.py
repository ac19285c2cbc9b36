"""Unit execution: the service's bridge onto the probing substrate.

A unit task is a picklable tuple

    ``(key, label, vp_name, kind, target_offset, target_count,
       slots, pps)``

whose ``label`` is ``<spec label>#<unit index>``, interpreted by
:func:`service_unit_body` — the ``task_body`` the executor
(:class:`~repro.core.parallel.WorkerWatchdog`) runs: resolve the VP
and hitlist slice worker-side (both are fixed by the scenario, so
tasks stay tiny on the pipe), run the exact deterministic per-VP probe
session the survey engine uses, and encode the unit's stream record
where it ran. The daemon gets back one finished line (plus the quality
counts it folds into tenant totals), so its own per-unit work is
bookkeeping and the two durable appends, not decoding row lists and
hashing records on the dispatch path. The daemon runs it in-process
at ``jobs=1`` and on a persistent supervised pool at ``jobs>=2``, warm
across scheduler rounds — what a long-running daemon wants (no
per-round fork storm), with the watchdog's hang/crash recovery for
every tenant.
"""

from __future__ import annotations

from repro.core.survey import probe_vp_rr
from repro.probing.artifacts import record_line
from repro.probing.scheduler import ProbeOrder
from repro.scenarios.internet import Scenario
from repro.service.specs import PING_COUNT, probes_per_unit
from repro.service.streams import STREAM_VERSION, UNIT_RECORD

__all__ = ["make_unit_task", "service_unit_body"]


def make_unit_task(
    key: int,
    label: str,
    vp_name: str,
    kind: str,
    target_offset: int,
    target_count: int,
    slots: int,
    pps: float,
) -> tuple:
    return (key, label, vp_name, kind, target_offset, target_count,
            slots, pps)


def service_unit_body(state: dict, task: tuple, heartbeat=None) -> dict:
    """Execute one unit against ``state['scenario']``; returns
    ``{"line": <the unit's stream record line>}``, plus the record's
    ``quality`` counts for an rr unit. Deterministic per (scenario,
    seed, task) — see streams.py."""
    scenario: Scenario = state["scenario"]
    _key, label, vp_name, kind, offset, count, slots, pps = task
    vp = scenario.vp_by_name(vp_name)
    targets = list(scenario.hitlist)[offset : offset + count]
    record = {
        "record": UNIT_RECORD,
        "version": STREAM_VERSION,
        "unit": int(label.rpartition("#")[2]),
        "vp": vp_name,
        "kind": kind,
        "targets": len(targets),
        "probes": probes_per_unit(kind, len(targets)),
    }
    if kind == "rr":
        position = {dest.addr: i for i, dest in enumerate(targets)}
        rows, inprefix, quality = probe_vp_rr(
            scenario,
            vp,
            targets,
            position,
            order=ProbeOrder.RANDOM,
            slots=slots,
            pps=pps,
            heartbeat=heartbeat,
        )
        counts = {
            "checked": quality["checked"],
            "verdicts": quality["verdicts"],
            "reasons": quality["reasons"],
            "invalid_dests": quality["invalid_dests"],
            "quarantined": len(quality["quarantined"]),
            "degraded": len(quality["degraded"]),
        }
        record["rows"] = [[index, slot] for index, slot in rows]
        record["inprefix"] = [
            [index, list(addrs)] for index, addrs in inprefix
        ]
        record["quality"] = counts
        return {"line": record_line(record), "quality": counts}
    network = scenario.network
    # Ping units get their own session namespace so a tenant's ping
    # spec and an rr spec on the same VP draw independent (but each
    # deterministic) loss streams.
    network.begin_vp_session(f"{vp.name}/service-ping")
    try:
        results = scenario.prober.probe_batch_ping(
            vp, targets, count=PING_COUNT, pps=pps, heartbeat=heartbeat
        )
    finally:
        network.end_vp_session()
    record["rows"] = [
        [index, bool(result.responded)]
        for index, result in enumerate(results)
    ]
    return {"line": record_line(record)}
