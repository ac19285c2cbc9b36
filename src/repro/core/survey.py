"""The two measurement studies of §3.1.

* The **ping survey**: three plain pings to every hitlist destination
  from a single origin machine (the paper's USC host), defining
  *ping-responsive*.
* The **RR survey**: one ``ping-RR`` from every vantage point to every
  destination at a paced 20 pps in per-VP random order, defining
  *RR-responsive* (some VP got an Echo Reply with the option copied)
  and *RR-reachable* (the destination's address appears in the RR
  header — the paper's test, false negatives and all).

:class:`RRSurvey` stores, per destination, a compact map from VP index
to the destination's 1-based RR slot (or None when the destination
address is absent from the header), plus any same-/24 addresses seen
in RR headers (the §3.3 alias-candidate pool). All downstream analyses
— Table 1, Figures 1/2, greedy VP selection, reclassification — read
from this structure.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.parallel import SurveyWorkerError, WorkerWatchdog
from repro.net.addr import parse_prefix, same_slash24
from repro.probing.artifacts import (
    atomic_write_bytes,
    canonical_json_bytes,
    embed_checksum,
    verify_embedded_checksum,
)
from repro.obs.spans import TRACER
from repro.obs.timing import timed
from repro.probing.prober import DEFAULT_PPS
from repro.probing.scheduler import (
    ProbeOrder,
    order_destinations,
    split_round_robin,
)
from repro.probing.vantage import Platform, VantagePoint
from repro.scenarios.internet import Scenario
from repro.topology.hitlist import Destination

__all__ = [
    "PingSurvey",
    "RRSurvey",
    "SurveyFormatError",
    "run_ping_survey",
    "run_rr_survey",
    "save_survey",
    "load_survey",
    "PING_SHARDS",
]


class SurveyFormatError(ValueError):
    """A survey (or checkpoint) artifact on disk is unreadable.

    Raised with the offending path and a human-readable reason instead
    of leaking ``json.JSONDecodeError`` / ``EOFError`` / gzip internals
    to the caller — load-bearing once ``--resume`` reads checkpoints
    written by possibly-killed campaigns.
    """

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        super().__init__(str(path), reason)
        self.path = str(path)
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"

#: Fixed shard count for the ping survey. Destinations are dealt
#: round-robin into this many shards regardless of ``jobs``, so every
#: ``jobs`` value produces identical results (each shard is one
#: deterministic loss-stream session; see DESIGN.md).
PING_SHARDS = 8

#: Destinations per ``probe_batch`` span when tracing is enabled.
#: With tracing off, a VP's whole walk is one batch, so the loop costs
#: a single no-op context entry — spans never touch the per-probe path.
PROBE_BATCH_SPAN = 256

#: One VP's compact survey contribution:
#: ``(rows, inprefix, quality)`` where rows = [(dest_index,
#: slot-or-None), ...] in probe order, inprefix = [(dest_index,
#: (addr, ...)), ...], and quality is the validation summary dict
#: (see :func:`repro.probing.validation.empty_quality`): verdict and
#: reason counters plus the quarantined/degraded record lists. Rows
#: only ever contain validated replies — quarantined destinations
#: live exclusively in the quality block.
VPRows = Tuple[
    List[Tuple[int, Optional[int]]],
    List[Tuple[int, Tuple[int, ...]]],
    dict,
]


@dataclass
class PingSurvey:
    """Plain-ping responsiveness from the origin host."""

    origin_name: str
    responsive: Dict[int, bool] = field(default_factory=dict)

    def is_responsive(self, addr: int) -> bool:
        return self.responsive.get(addr, False)

    @property
    def responsive_count(self) -> int:
        return sum(1 for answered in self.responsive.values() if answered)


@dataclass
class RRSurvey:
    """The all-VPs ping-RR matrix, in analysis-ready form."""

    vps: List[VantagePoint]
    dests: List[Destination]
    #: Per destination: vp_index -> destination slot (1-based) for every
    #: VP that received an RR-copying Echo Reply; None = dest absent.
    responses: List[Dict[int, Optional[int]]] = field(default_factory=list)
    #: Per destination: other same-/24 addresses seen in its RR replies.
    inprefix_addrs: List[Set[int]] = field(default_factory=list)
    rr_slots: int = 9

    # -- indexing ---------------------------------------------------------

    def index_of_addr(self, addr: int) -> int:
        try:
            return self._addr_index[addr]
        except AttributeError:
            self._addr_index = {
                dest.addr: i for i, dest in enumerate(self.dests)
            }
            return self._addr_index[addr]

    def vp_indices(
        self,
        platform: Optional[Platform] = None,
        sites: Optional[Iterable[str]] = None,
        names: Optional[Iterable[str]] = None,
        include_filtered: bool = True,
    ) -> List[int]:
        """Select VP indices by platform, site, or name."""
        wanted_sites = None if sites is None else set(sites)
        wanted_names = None if names is None else set(names)
        picked = []
        for index, vp in enumerate(self.vps):
            if platform is not None and vp.platform is not platform:
                continue
            if wanted_sites is not None and vp.site not in wanted_sites:
                continue
            if wanted_names is not None and vp.name not in wanted_names:
                continue
            if not include_filtered and vp.local_filtered:
                continue
            picked.append(index)
        return picked

    # -- per-destination views ------------------------------------------------

    def rr_responsive(self, dest_index: int) -> bool:
        """§3.1: at least one VP received an RR-copying Echo Reply."""
        return bool(self.responses[dest_index])

    def responding_vp_count(self, dest_index: int) -> int:
        return len(self.responses[dest_index])

    def min_slot(
        self, dest_index: int, vp_indices: Optional[Sequence[int]] = None
    ) -> Optional[int]:
        """Closest-VP RR distance: the smallest slot the destination's
        address occupies across the selected VPs (None = unreachable)."""
        observed = self.responses[dest_index]
        best: Optional[int] = None
        indices = observed.keys() if vp_indices is None else vp_indices
        for vp_index in indices:
            slot = observed.get(vp_index)
            if slot is not None and (best is None or slot < best):
                best = slot
        return best

    def reachable(
        self, dest_index: int, vp_indices: Optional[Sequence[int]] = None
    ) -> bool:
        return self.min_slot(dest_index, vp_indices) is not None

    def slot_from_vp(self, dest_index: int, vp_index: int) -> Optional[int]:
        return self.responses[dest_index].get(vp_index)

    # -- aggregate views ---------------------------------------------------

    def rr_responsive_indices(self) -> List[int]:
        return [
            index
            for index in range(len(self.dests))
            if self.responses[index]
        ]

    def reachable_indices(
        self, vp_indices: Optional[Sequence[int]] = None
    ) -> List[int]:
        return [
            index
            for index in range(len(self.dests))
            if self.min_slot(index, vp_indices) is not None
        ]

    def reachable_from_vp(self, vp_index: int) -> List[int]:
        """Destinations whose address this VP saw in an RR header."""
        return [
            index
            for index in range(len(self.dests))
            if self.responses[index].get(vp_index) is not None
        ]


def _is_gzip_path(path: Union[str, Path]) -> bool:
    """Auto-detect compressed survey artifacts by the ``.gz`` suffix."""
    return str(path).endswith(".gz")


def save_survey(survey: RRSurvey, path: Union[str, Path]) -> None:
    """Persist a completed RR survey as JSON (gzipped for ``*.gz``).

    Campaigns are the expensive artifact; saving them lets analyses
    (and future sessions) run without re-probing. Everything needed to
    reconstruct the survey — VPs, destinations, per-destination
    observations — is stored; the scenario itself is not (surveys are
    measurement data, independent of the world that produced them).

    A ``.json.gz`` (or any ``.gz``) path writes a deterministic gzip
    stream (``mtime=0``), so large campaign artifacts stay small and
    byte-comparable across runs.

    Integrity: the record carries an embedded sha256 over its
    canonical JSON bytes (verified by :func:`load_survey`), and the
    file lands through the shared atomic write-rename helper, so a
    crashed save can never leave a torn artifact behind.
    """
    record = {
        "version": 1,
        "rr_slots": survey.rr_slots,
        "vps": [
            {
                "name": vp.name,
                "site": vp.site,
                "platform": vp.platform.value,
                "asn": vp.asn,
                "addr": vp.addr,
                "local_filtered": vp.local_filtered,
            }
            for vp in survey.vps
        ],
        "dests": [
            {
                "addr": dest.addr,
                "prefix": str(dest.prefix),
                "asn": dest.asn,
            }
            for dest in survey.dests
        ],
        "responses": [
            {str(vp_index): slot for vp_index, slot in observed.items()}
            for observed in survey.responses
        ],
        "inprefix_addrs": [
            sorted(addrs) for addrs in survey.inprefix_addrs
        ],
    }
    data = canonical_json_bytes(embed_checksum(record))
    if _is_gzip_path(path):
        # mtime=0 keeps the compressed bytes deterministic, so the
        # parallel-vs-serial parity bar applies to .json.gz too.
        atomic_write_bytes(path, gzip.compress(data, mtime=0))
    else:
        atomic_write_bytes(path, data)


def load_json_artifact(
    path: Union[str, Path], kind: str = "artifact"
) -> dict:
    """Read + parse a (possibly gzipped) JSON artifact, or raise
    :class:`SurveyFormatError` with the path and a clear reason.

    Shared by :func:`load_survey` and the campaign checkpoint loader:
    truncated gzip streams (``EOFError``), corrupt gzip headers
    (``gzip.BadGzipFile``), truncated/garbage JSON
    (``json.JSONDecodeError``), and non-UTF-8 bytes all surface as the
    same well-labelled error. A missing file stays a
    ``FileNotFoundError`` — absence and corruption are different
    failures.

    If the record carries an embedded content checksum (every artifact
    written since checksums existed does), it is recomputed over the
    parsed record's canonical bytes and compared; a mismatch raises
    :class:`SurveyFormatError` and is counted in
    ``artifact_checksum_failures_total{kind}``. The checksum field is
    stripped from the returned record.
    """
    raw = Path(path).read_bytes()
    if _is_gzip_path(path):
        try:
            raw = gzip.decompress(raw)
        except EOFError:
            raise SurveyFormatError(
                path, "truncated gzip stream (file cut short?)"
            ) from None
        except (gzip.BadGzipFile, zlib.error, OSError) as exc:
            raise SurveyFormatError(
                path, f"corrupt gzip data: {exc}"
            ) from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SurveyFormatError(path, f"not UTF-8: {exc}") from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "truncated JSON" if not text.strip() else f"invalid JSON: {exc}"
        raise SurveyFormatError(path, reason) from None
    if not isinstance(record, dict):
        raise SurveyFormatError(
            path, f"expected a JSON object, got {type(record).__name__}"
        )
    body, checksum_error = verify_embedded_checksum(record, kind=kind)
    if checksum_error is not None:
        raise SurveyFormatError(path, checksum_error)
    return body


def load_survey(path: Union[str, Path]) -> RRSurvey:
    """Load a survey written by :func:`save_survey` (``.gz`` aware).

    Raises :class:`SurveyFormatError` (with path + reason) on
    truncated, corrupt, checksum-mismatched, or wrong-version
    artifacts.
    """
    record = load_json_artifact(path, kind="survey")
    if record.get("version") != 1:
        raise SurveyFormatError(
            path,
            f"unsupported survey file version {record.get('version')!r}",
        )
    try:
        vps = [
            VantagePoint(
                name=vp["name"],
                site=vp["site"],
                platform=Platform(vp["platform"]),
                asn=vp["asn"],
                addr=vp["addr"],
                local_filtered=vp["local_filtered"],
            )
            for vp in record["vps"]
        ]
        dests = [
            Destination(
                addr=dest["addr"],
                prefix=parse_prefix(dest["prefix"]),
                asn=dest["asn"],
            )
            for dest in record["dests"]
        ]
        return RRSurvey(
            vps=vps,
            dests=dests,
            responses=[
                {int(vp_index): slot for vp_index, slot in observed.items()}
                for observed in record["responses"]
            ],
            inprefix_addrs=[
                set(addrs) for addrs in record["inprefix_addrs"]
            ],
            rr_slots=record["rr_slots"],
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        if isinstance(exc, SurveyFormatError):
            raise
        raise SurveyFormatError(
            path, f"malformed survey record: {type(exc).__name__}: {exc}"
        ) from exc


#: Re-probe rounds granted to a destination whose RR replies fail
#: validation before it degrades to plain ping.
RR_INVALID_RETRIES = 2


def probe_vp_rr(
    scenario: Scenario,
    vp: VantagePoint,
    targets: Sequence[Destination],
    position: Dict[int, int],
    order: ProbeOrder = ProbeOrder.RANDOM,
    slots: int = 9,
    pps: float = DEFAULT_PPS,
    heartbeat: Optional[Callable[[], None]] = None,
    validate: bool = True,
    rr_invalid_retries: int = RR_INVALID_RETRIES,
) -> VPRows:
    """One vantage point's complete ping-RR probe sequence.

    This is the unit of work the executor shards: the VP's full
    destination walk runs inside its own deterministic probe session
    (fresh token buckets, a per-VP loss stream seeded from
    ``(seed, vp.name)``), so the result rows are byte-identical whether
    this executes in-process or in a worker process — the engine's
    determinism contract (see DESIGN.md).

    ``heartbeat``, if given, is invoked once per destination *before*
    the probe is issued — the supervision layer's per-task progress
    ping (see :mod:`repro.faults.supervisor`). It must not touch
    network state; the default ``None`` keeps the hot loop free of
    even the call overhead.

    ``validate`` runs every collected reply through the
    :class:`~repro.probing.validation.ReplyValidator` *after* the full
    walk (never per dispatch chunk, so span-tracing's batch size
    cannot leak into verdicts). Invalid replies are quarantined into
    the returned quality block instead of the rows, re-probed up to
    ``rr_invalid_retries`` times (non-sticky misbehavior can recover),
    and finally degraded to a plain ping with a recorded reason — the
    paper's framing that RR is *an* option, not the only one. On a
    clean network validation finds nothing, so rows and in-prefix
    bytes are identical with it on or off.
    """
    from repro.probing.validation import (
        INVALID,
        ReplyValidator,
        empty_quality,
        rr_degradation_counter,
    )

    network = scenario.network
    network.begin_vp_session(vp.name)
    pairs: List[Tuple[Destination, object]] = []
    quality = empty_quality()
    replaced: Dict[int, object] = {}
    invalid: Dict[int, Tuple[Destination, str]] = {}
    try:
        with TRACER.span(
            "vp_probe", clock=network.clock,
            vp=vp.name, targets=len(targets),
        ):
            with timed("rr_survey_vp"):
                ordered = order_destinations(
                    targets, order, seed=scenario.seed, salt=vp.name
                )
                # Identical walk either way: batching only changes how
                # often the (possibly no-op) span context is entered.
                step = (
                    PROBE_BATCH_SPAN
                    if TRACER.enabled
                    else max(len(ordered), 1)
                )
                for start in range(0, len(ordered), step):
                    chunk = ordered[start:start + step]
                    with TRACER.span(
                        "probe_batch", clock=network.clock,
                        batch=start // step, size=len(chunk),
                    ):
                        # One dispatch per chunk: the prober replays
                        # compiled stamp plans (or walks hop-by-hop on
                        # the fallback paths) and hands back outcomes
                        # with slot/in-prefix views precomputed.
                        pairs.extend(scenario.prober.probe_batch_rows(
                            vp, chunk, slots=slots, pps=pps,
                            heartbeat=heartbeat,
                        ))
                if validate:
                    validator = ReplyValidator(
                        vp.name, slots, position,
                        network.registry, network.net_id,
                    )
                    verdicts = validator.check_batch(pairs, round_no=0)
                    for (dest, _outcome), (verdict, reason) in zip(
                        pairs, verdicts
                    ):
                        if verdict == INVALID:
                            invalid[dest.addr] = (dest, reason)
                    # Retry rounds: re-probe only the invalid
                    # destinations, in probe order. A non-sticky
                    # misbehavior re-rolls per round, so a retry can
                    # come back clean and reclaim its row.
                    for round_no in range(1, max(rr_invalid_retries, 0) + 1):
                        if not invalid:
                            break
                        retry = scenario.prober.probe_batch_rows(
                            vp,
                            [dest for dest, _ in invalid.values()],
                            slots=slots, pps=pps, heartbeat=heartbeat,
                            round_no=round_no,
                        )
                        retry_verdicts = validator.check_batch(
                            retry, round_no=round_no
                        )
                        still: Dict[int, Tuple[Destination, str]] = {}
                        for (dest, outcome), (verdict, reason) in zip(
                            retry, retry_verdicts
                        ):
                            if verdict == INVALID:
                                still[dest.addr] = (dest, reason)
                            else:
                                replaced[dest.addr] = outcome
                        invalid = still
                    quality = validator.summary()
                    # Degradation: destinations whose RR replies never
                    # validated fall back to one plain ping — still a
                    # liveness datapoint, recorded with its reason but
                    # never a survey row.
                    degraded_family = rr_degradation_counter(
                        network.registry
                    )
                    for dest, reason in invalid.values():
                        if heartbeat is not None:
                            heartbeat()
                        result = scenario.prober.ping(
                            vp, dest.addr, count=1, pps=pps
                        )
                        quality["degraded"].append({
                            "vp": vp.name,
                            "dest": dest.addr,
                            "dest_index": position[dest.addr],
                            "reason": reason,
                            "rounds": max(rr_invalid_retries, 0) + 1,
                            "ping_responded": result.responded,
                        })
                        degraded_family.labels(
                            network.net_id, reason
                        ).inc()
                    quality["degraded"].sort(
                        key=lambda r: r["dest_index"]
                    )
    finally:
        network.end_vp_session()
    rows: List[Tuple[int, Optional[int]]] = []
    inprefix: Dict[int, Set[int]] = {}
    for dest, outcome in pairs:
        if dest.addr in invalid:
            continue  # quarantined (and possibly degraded) — no row
        outcome = replaced.get(dest.addr, outcome)
        if not outcome.rr_responsive:
            continue
        dest_index = position[dest.addr]
        rows.append((dest_index, outcome.dest_slot))
        if outcome.inprefix:
            inprefix.setdefault(dest_index, set()).update(outcome.inprefix)
    packed = sorted(
        (dest_index, tuple(sorted(addrs)))
        for dest_index, addrs in inprefix.items()
    )
    return rows, packed, quality


def probe_ping_shard(
    scenario: Scenario,
    shard_index: int,
    targets: Sequence[Destination],
    count: int = 3,
    pps: float = DEFAULT_PPS,
) -> List[Tuple[int, bool]]:
    """One fixed shard of the origin plain-ping study.

    Sharding uses :data:`PING_SHARDS` deterministic loss-stream
    sessions regardless of worker count, so any parallel degree yields
    the same survey.
    """
    origin = scenario.origin
    assert origin is not None
    network = scenario.network
    network.begin_vp_session(f"{origin.name}/ping-shard-{shard_index}")
    try:
        with TRACER.span(
            "ping_shard", clock=network.clock,
            shard=shard_index, targets=len(targets),
        ):
            results = scenario.prober.probe_batch_ping(
                origin, list(targets), count=count, pps=pps
            )
            out = [
                (dest.addr, result.responded)
                for dest, result in zip(targets, results)
            ]
    finally:
        network.end_vp_session()
    return out


def _rr_body(state: dict, task: tuple, heartbeat) -> VPRows:
    """Executor task body: one VP's ping-RR sequence.

    ``task`` is ``(vp_index, vp_name)``. ``probe_vp_rr`` is looked up
    at call time, so a patched module attribute reaches every worker.
    """
    return probe_vp_rr(
        state["scenario"],
        state["vps"][task[0]],
        state["targets"],
        state["position"],
        order=state["order"],
        slots=state["slots"],
        pps=state["pps"],
        heartbeat=heartbeat,
        validate=state["validate"],
    )


def _ping_body(state: dict, task: tuple, heartbeat) -> List[Tuple[int, bool]]:
    """Executor task body: one destination shard of the ping study
    (``task`` is ``(shard_index, label)``)."""
    return probe_ping_shard(
        state["scenario"],
        task[0],
        state["shards"][task[0]],
        count=state["count"],
        pps=state["pps"],
    )


def _run_survey_tasks(
    scenario: Scenario, jobs: int, payload: dict, tasks: List[tuple],
    kind: str,
) -> list:
    """Results of survey ``tasks`` on the executor, in key order.

    A failed task raises :class:`SurveyWorkerError` for the first
    failed key, chained from the original exception when the body ran
    in-process.
    """
    with WorkerWatchdog(scenario, payload, jobs) as executor:
        outcomes = executor.run_tasks(tasks)
    results = []
    for key, label in tasks:
        result, status, error = outcomes[key]
        if status != "ok":
            raise SurveyWorkerError(
                kind, key, label, error
            ) from executor.exceptions.get(key)
        results.append(result)
    return results


def run_ping_survey(
    scenario: Scenario,
    dests: Optional[Sequence[Destination]] = None,
    count: int = 3,
    pps: float = DEFAULT_PPS,
    jobs: int = 1,
) -> PingSurvey:
    """The origin-host plain-ping study (§3.1's second study).

    Destinations are dealt round-robin into :data:`PING_SHARDS` fixed
    shards, one executor task each, so every ``jobs`` value runs the
    same per-shard loss sessions and produces identical results.
    """
    if scenario.origin is None:
        raise ValueError("scenario has no origin vantage point")
    targets = list(scenario.hitlist) if dests is None else list(dests)
    survey = PingSurvey(origin_name=scenario.origin.name)
    shards = (
        split_round_robin(targets, min(PING_SHARDS, len(targets)))
        if targets
        else []
    )
    payload = {
        "task_body": _ping_body, "shards": shards, "count": count,
        "pps": pps,
    }
    tasks = [(index, f"shard-{index}") for index in range(len(shards))]
    with TRACER.span(
        "ping_survey", clock=scenario.network.clock,
        targets=len(targets), jobs=jobs or 1,
    ):
        with timed("ping_survey"):
            for rows in _run_survey_tasks(
                scenario, jobs, payload, tasks, "ping"
            ):
                for addr, responded in rows:
                    survey.responsive[addr] = responded
    return survey


def run_rr_survey(
    scenario: Scenario,
    dests: Optional[Sequence[Destination]] = None,
    vps: Optional[Sequence[VantagePoint]] = None,
    pps: float = DEFAULT_PPS,
    order: ProbeOrder = ProbeOrder.RANDOM,
    slots: int = 9,
    jobs: int = 1,
    validate: bool = True,
) -> RRSurvey:
    """The all-VPs ping-RR study (§3.1's first study).

    Every VP (locally-filtered ones included — they simply never
    answer, as in the real study) probes every destination once, in
    its own random order, at ``pps``.

    Each VP's full probe sequence is one executor task: ``jobs=1``
    (default) runs them in-process; ``jobs >= 2`` runs them on a
    worker pool and merges the compact result rows plus each worker's
    metrics-registry snapshot back into the parent. Both run each VP
    inside the same deterministic probe session, so the resulting
    :func:`save_survey` JSON is **byte-identical** for any ``jobs``
    value on the same seed.

    ``validate=False`` skips the reply-validation pass entirely — the
    benchmark baseline for the validation-overhead gate. On a clean
    network the survey bytes are identical either way.
    """
    targets = list(scenario.hitlist) if dests is None else list(dests)
    vp_list = list(scenario.vps) if vps is None else list(vps)
    survey = RRSurvey(
        vps=vp_list,
        dests=targets,
        responses=[{} for _ in targets],
        inprefix_addrs=[set() for _ in targets],
        rr_slots=slots,
    )
    payload = {
        "task_body": _rr_body,
        "targets": targets,
        "position": {dest.addr: index for index, dest in enumerate(targets)},
        "vps": vp_list,
        "order": order,
        "slots": slots,
        "pps": pps,
        "validate": validate,
    }
    tasks = [(index, vp.name) for index, vp in enumerate(vp_list)]
    with TRACER.span(
        "rr_survey", clock=scenario.network.clock,
        vps=len(vp_list), targets=len(targets), jobs=jobs or 1,
    ):
        with timed("rr_survey"):
            per_vp = _run_survey_tasks(scenario, jobs, payload, tasks, "rr")
        # Merge in VP order so per-destination dict insertion order (and
        # therefore the persisted JSON) is independent of completion
        # order.
        for vp_index, (rows, inprefix, _quality) in enumerate(per_vp):
            for dest_index, slot in rows:
                survey.responses[dest_index][vp_index] = slot
            for dest_index, addrs in inprefix:
                survey.inprefix_addrs[dest_index].update(addrs)
    return survey
