"""Resilient, resumable survey campaigns over the parallel engine.

The paper's campaigns ran for days against real infrastructure, which
means they survived (or died to) exactly the adversity
:mod:`repro.faults.specs` models: vantage points that vanish
mid-survey, probing sessions that silently rot, and operators killing
the driver script halfway through. :class:`CampaignRunner` is the
driver that survives it:

* **per-VP unit of work** — the same sharding the parallel engine
  uses; a VP either contributes its complete row set or is retried
  whole, so partial sessions never leak into the merged survey;
* **bounded retries with simulated backoff** — failed VPs are retried
  in rounds, with exponential backoff accounted in *simulated*
  seconds (no real sleeping: the simulator's clock is free);
* **a campaign budget** — wall-clock elapsed plus simulated backoff is
  charged against ``budget_seconds``; when it runs out, the campaign
  degrades gracefully instead of spinning;
* **graceful degradation** — VPs that exhaust their retries are listed
  in the result manifest (``partial=True``) rather than raised;
* **checkpoint/resume** — the checkpoint is an append-only log: a
  header line, then one fsynced, checksummed line per completed VP; a
  killed campaign restarted with ``resume=True`` drops a torn tail,
  skips completed VPs and produces **byte-identical** merged output
  (per-VP sessions are self-contained, so partial execution order
  cannot leak into the rows).

The checkpoint is guarded by a fingerprint over everything that shapes
the campaign's bytes (scenario, targets, VPs, pacing, probe order,
slot count, fault plan); resuming against a mismatched checkpoint
raises :class:`~repro.core.survey.SurveyFormatError` rather than
silently merging apples into oranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.parallel import WorkerWatchdog
from repro.core.survey import RRSurvey, SurveyFormatError, VPRows
from repro.faults.injector import fault_event_counter
from repro.faults.specs import FaultPlan, VpChurn
from repro.faults.supervisor import (
    SupervisionConfig,
    VpHealthTracker,
    vp_attempt_body,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.spans import TRACER
from repro.obs.status import CampaignStatusWriter, sum_counter
from repro.probing.artifacts import (
    append_text_line,
    atomic_write_bytes,
    checksummed_json_bytes,
    cut_checkpoint_tail,
    read_checkpoint,
    record_line,
    start_checkpoint,
)
from repro.probing.validation import empty_quality, merge_quality
from repro.probing.prober import DEFAULT_PPS
from repro.probing.scheduler import ProbeOrder
from repro.probing.vantage import VantagePoint
from repro.rng import stable_u64
from repro.scenarios.internet import Scenario
from repro.topology.hitlist import Destination

__all__ = [
    "CampaignInterrupted",
    "CampaignResult",
    "CampaignRunner",
    "load_checkpoint",
]


class CampaignInterrupted(RuntimeError):
    """The campaign was deliberately killed mid-run (``kill_after_vps``).

    Raised *after* the final completed VP's checkpoint line has been
    appended, so a subsequent ``resume=True`` run picks up cleanly.
    The CI chaos-smoke job uses this to simulate an operator's ^C.
    """

    def __init__(self, completed: int, checkpoint_path: str) -> None:
        super().__init__(completed, checkpoint_path)
        self.completed = completed
        self.checkpoint_path = checkpoint_path

    def __str__(self) -> str:
        return (
            f"campaign interrupted after {self.completed} completed "
            f"VP(s); checkpoint at {self.checkpoint_path}"
        )


def campaign_attempt_counter(registry: MetricsRegistry):
    """``campaign_vp_attempts_total{net, outcome}`` — ok/failed/dark."""
    return registry.counter(
        "campaign_vp_attempts_total",
        "Per-VP campaign attempts, by outcome "
        "(ok, failed, dark = VP churned away).",
        ("net", "outcome"),
    )


def campaign_retry_counter(registry: MetricsRegistry):
    return registry.counter(
        "campaign_retries_total",
        "Retry rounds the campaign runner scheduled.",
        ("net",),
    )


def campaign_resume_counter(registry: MetricsRegistry):
    return registry.counter(
        "campaign_resumed_vps_total",
        "VPs restored from a checkpoint instead of re-probed.",
        ("net",),
    )


@dataclass
class CampaignResult:
    """Manifest of one resilient campaign run."""

    survey: RRSurvey
    partial: bool
    failed_vps: List[str] = field(default_factory=list)
    attempts: Dict[str, int] = field(default_factory=dict)
    retry_rounds: int = 0
    backoff_sim_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    resumed_vps: int = 0
    probed_vps: int = 0
    checkpoint_path: Optional[str] = None
    supervised: bool = False
    quarantined: Dict[str, dict] = field(default_factory=dict)
    breaker_states: Dict[str, str] = field(default_factory=dict)
    hangs_detected: int = 0
    workers_respawned: int = 0
    checkpoint_repairs: int = 0
    #: Merged reply-quality totals across every VP that contributed
    #: (completed VPs plus the final garbage attempt of VPs rejected
    #: for emitting garbage): verdict/reason counters and the
    #: quarantined/degraded record lists (see
    #: :func:`repro.probing.validation.empty_quality`).
    quality: dict = field(default_factory=empty_quality)
    quarantine_sidecar: Optional[str] = None
    #: Per-VP flight-recorder history from the supervised run (empty
    #: unsupervised). Not part of :meth:`manifest` — quarantine reasons
    #: embed their own journal tails; the full map is the
    #: ``--journal-output`` artifact.
    journals: Dict[str, List[dict]] = field(default_factory=dict)

    def manifest(self) -> dict:
        """Plain-data summary (what ``repro chaos`` prints as JSON)."""
        return {
            "partial": self.partial,
            "vps": len(self.survey.vps),
            "probed_vps": self.probed_vps,
            "resumed_vps": self.resumed_vps,
            "failed_vps": sorted(self.failed_vps),
            "attempts": dict(sorted(self.attempts.items())),
            "retry_rounds": self.retry_rounds,
            "backoff_sim_seconds": round(self.backoff_sim_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checkpoint": self.checkpoint_path,
            "supervised": self.supervised,
            "quarantined_vps": {
                name: self.quarantined[name]
                for name in sorted(self.quarantined)
            },
            "breaker_states": dict(sorted(self.breaker_states.items())),
            "hangs_detected": self.hangs_detected,
            "workers_respawned": self.workers_respawned,
            "checkpoint_repairs": self.checkpoint_repairs,
            "quality": {
                "checked": self.quality["checked"],
                "verdicts": dict(self.quality["verdicts"]),
                "reasons": {
                    reason: self.quality["reasons"][reason]
                    for reason in sorted(self.quality["reasons"])
                },
                "invalid_dests": self.quality["invalid_dests"],
                "quarantined_replies": len(self.quality["quarantined"]),
                "degraded_dests": [
                    {
                        "vp": entry["vp"],
                        "dest": entry["dest"],
                        "reason": entry["reason"],
                        "ping_responded": entry["ping_responded"],
                    }
                    for entry in self.quality["degraded"]
                ],
                "quarantine_sidecar": self.quarantine_sidecar,
            },
        }


# ---------------------------------------------------------------------------
# Checkpoint I/O: an append-only log of checksummed lines.
# ---------------------------------------------------------------------------


def _expect(
    path: Union[str, Path], what: str, value: object, kind: type, label: str
) -> None:
    """Raise :class:`SurveyFormatError` unless ``value`` is a ``kind``
    (booleans never pass, so ``int`` means a real integer)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SurveyFormatError(
            path,
            f"checkpoint {what} must be {label}, "
            f"got {type(value).__name__}",
        )


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Load + structurally validate a campaign checkpoint log.

    The first line is the header (``version``, ``fingerprint``); each
    later line records one completed VP as ``{"completed": {name:
    {"rows", "inprefix", "quality"}}, "attempts": {...}}`` — the whole
    attempts map at that moment. Only the verified prefix counts
    (:func:`~repro.probing.artifacts.verified_prefix`): a torn or
    corrupt line and everything after it are ignored. Returns the
    folded state — ``fingerprint``, every ``completed`` entry, the last
    line's ``attempts`` — plus ``lines``, the verified lines a resumed
    run cuts the file back to.

    Raises :class:`SurveyFormatError` with the path and reason when the
    header is unreadable or of another version, or a verified line
    breaks the schema (a hand-edited file, a record from a future
    version), instead of exploding deep inside the resume path.
    """
    lines = read_checkpoint(path)
    header = lines[0][1]
    _expect(path, "'fingerprint'", header.get("fingerprint"), str, "a string")
    data = {
        "fingerprint": header["fingerprint"],
        "completed": {},
        "attempts": {},
        "lines": [line for line, _body in lines],
    }
    for number, (_line, entry) in enumerate(lines[1:], start=2):
        where = f"line {number}"
        completed, attempts = entry.get("completed"), entry.get("attempts")
        _expect(path, f"{where} 'completed'", completed, dict, "a map")
        _expect(path, f"{where} 'attempts'", attempts, dict, "a map")
        for name, vp_entry in completed.items():
            what = f"{where} completed[{name!r}]"
            _expect(path, what, vp_entry, dict, "a map")
            for key, kind, label in (
                ("rows", list, "a list"),
                ("inprefix", list, "a list"),
                ("quality", dict, "a map"),
            ):
                _expect(path, f"{what}.{key}", vp_entry.get(key), kind, label)
        for name, count in attempts.items():
            _expect(
                path, f"{where} attempts[{name!r}]", count, int, "an integer"
            )
        data["completed"].update(completed)
        data["attempts"] = attempts
    return data


class CampaignRunner:
    """Drives a fault-tolerant, resumable all-VPs RR campaign.

    Runs the same per-VP unit of work as the RR survey on one
    executor (:class:`~repro.core.parallel.WorkerWatchdog`) for the
    whole run, adding the retry/backoff/budget/checkpoint machinery
    described in the module docstring.

    Determinism: because each VP session is self-contained and every
    fault decision keys off ``(plan seed, vp name, session time)``,
    the merged survey bytes are invariant under ``jobs``, retry
    schedules, kill points, and resume — the property
    ``tests/test_faults.py`` and the CI chaos-smoke job pin down.
    """

    def __init__(
        self,
        scenario: Scenario,
        plan: Optional[FaultPlan] = None,
        jobs: int = 1,
        pps: float = DEFAULT_PPS,
        order: ProbeOrder = ProbeOrder.RANDOM,
        slots: int = 9,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        budget_seconds: Optional[float] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        kill_after_vps: Optional[int] = None,
        supervision: Optional[SupervisionConfig] = None,
        status_path: Optional[Union[str, Path]] = None,
        quarantine_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {max_retries}")
        if jobs < 1:
            raise ValueError(f"jobs must be positive: {jobs}")
        self.scenario = scenario
        self.plan = plan if plan is not None else FaultPlan(seed=0)
        self.jobs = int(jobs)
        self.pps = float(pps)
        self.order = order
        self.slots = int(slots)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.budget_seconds = budget_seconds
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.kill_after_vps = kill_after_vps
        self.supervision = supervision
        self.status_path = (
            None if status_path is None else Path(status_path)
        )
        self.quarantine_path = (
            None if quarantine_path is None else Path(quarantine_path)
        )
        net_id = scenario.network.net_id
        self._attempts_ok = campaign_attempt_counter(REGISTRY).labels(
            net_id, "ok"
        )
        self._attempts_failed = campaign_attempt_counter(REGISTRY).labels(
            net_id, "failed"
        )
        self._attempts_dark = campaign_attempt_counter(REGISTRY).labels(
            net_id, "dark"
        )
        self._attempts_hung = campaign_attempt_counter(REGISTRY).labels(
            net_id, "hung"
        )
        self._attempts_crashed = campaign_attempt_counter(REGISTRY).labels(
            net_id, "crashed"
        )
        self._attempts_garbage = campaign_attempt_counter(REGISTRY).labels(
            net_id, "garbage"
        )
        self._retries = campaign_retry_counter(REGISTRY).labels(net_id)
        self._resumed = campaign_resume_counter(REGISTRY).labels(net_id)
        self._ev_churn = fault_event_counter(REGISTRY).labels(
            net_id, VpChurn.KIND
        )

    # -- identity ----------------------------------------------------------

    def fingerprint(
        self,
        targets: Sequence[Destination],
        vps: Sequence[VantagePoint],
    ) -> str:
        """Digest of everything that shapes the campaign's bytes."""
        return "{:016x}".format(
            stable_u64(
                "campaign",
                self.scenario.name,
                self.scenario.seed,
                tuple(dest.addr for dest in targets),
                tuple(vp.name for vp in vps),
                self.pps,
                self.order.value,
                self.slots,
                self.plan.fingerprint(),
            )
        )

    # -- checkpointing -----------------------------------------------------

    def _load_resume_state(
        self, fingerprint: str, vps: Sequence[VantagePoint]
    ) -> Tuple[Dict[str, VPRows], Dict[str, int], int]:
        """The checkpoint's completed VPs and attempts, plus 1 if a torn
        or corrupt tail was cut off the log (before any append)."""
        path = self.checkpoint_path
        assert path is not None
        data = load_checkpoint(path)
        if data["fingerprint"] != fingerprint:
            raise SurveyFormatError(
                path,
                "checkpoint fingerprint mismatch: it records a different "
                "campaign (scenario/targets/VPs/pacing/fault plan) "
                f"[{data['fingerprint']} != {fingerprint}]",
            )
        stray = set(data["completed"]) - {vp.name for vp in vps}
        if stray:
            raise SurveyFormatError(
                path,
                "checkpoint names unknown VPs: " + ", ".join(sorted(stray)),
            )
        completed: Dict[str, VPRows] = {}
        try:
            for name, entry in data["completed"].items():
                rows = [
                    (int(dest_index), None if slot is None else int(slot))
                    for dest_index, slot in entry["rows"]
                ]
                inprefix = [
                    (int(dest_index), tuple(int(a) for a in addrs))
                    for dest_index, addrs in entry["inprefix"]
                ]
                completed[name] = (rows, inprefix, entry["quality"])
            attempts = {
                str(name): int(count)
                for name, count in data["attempts"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise SurveyFormatError(
                path,
                f"malformed checkpoint record: {type(exc).__name__}: {exc}",
            ) from exc
        return completed, attempts, int(cut_checkpoint_tail(
            path, data["lines"], "campaign", REGISTRY
        ))

    # -- execution ---------------------------------------------------------

    def run(
        self,
        targets: Optional[Sequence[Destination]] = None,
        vps: Optional[Sequence[VantagePoint]] = None,
        resume: bool = False,
    ) -> CampaignResult:
        scenario = self.scenario
        target_list = (
            list(scenario.hitlist) if targets is None else list(targets)
        )
        vp_list = list(scenario.vps) if vps is None else list(vps)
        position = {
            dest.addr: index for index, dest in enumerate(target_list)
        }
        horizon = max(len(target_list) / self.pps, 1e-9)
        fingerprint = self.fingerprint(target_list, vp_list)

        completed: Dict[str, VPRows] = {}
        attempts: Dict[str, int] = {}
        resumed = 0
        checkpoint_repairs = 0
        checkpoint = self.checkpoint_path
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        if resume and checkpoint.exists():
            completed, attempts, checkpoint_repairs = (
                self._load_resume_state(fingerprint, vp_list)
            )
            resumed = len(completed)
            if resumed:
                self._resumed.inc(resumed)
        elif checkpoint is not None:
            start_checkpoint(checkpoint, {"fingerprint": fingerprint})

        dark = self.plan.churned_vps([vp.name for vp in vp_list])
        pending: List[int] = [
            index
            for index, vp in enumerate(vp_list)
            if vp.name not in completed
        ]
        failed: Set[str] = set()
        start = time.monotonic()
        sim_backoff = 0.0
        retry_rounds = 0
        completed_this_run = 0
        killed: Optional[CampaignInterrupted] = None

        # One executor for every round; supervision (opt-in) is its
        # config plus a health tracker making quarantine and breaker
        # decisions in the parent.
        tracker: Optional[VpHealthTracker] = None
        if self.supervision is not None:
            tracker = VpHealthTracker(
                self.supervision, scenario.network.net_id
            )
        executor = WorkerWatchdog(
            scenario,
            {
                "task_body": vp_attempt_body,
                "targets": target_list,
                "position": position,
                "vps": vp_list,
                "order": self.order,
                "slots": self.slots,
                "pps": self.pps,
                "plan": self.plan,
                "horizon": horizon,
            },
            self.jobs,
            self.supervision,
        )

        # Live status: atomically published snapshots any observer
        # (``repro top``) can poll mid-run. Reads only parent-side
        # state, so publishing cannot perturb results.
        status = (
            None
            if self.status_path is None
            else CampaignStatusWriter(self.status_path)
        )

        def publish(
            state: str,
            force: bool = False,
            heartbeat_ages: Optional[Dict[str, float]] = None,
        ) -> None:
            if status is None:
                return
            fields: dict = {
                "scenario": scenario.name,
                "seed": scenario.seed,
                "supervised": self.supervision is not None,
                "total_vps": len(vp_list),
                "completed_vps": len(completed),
                "pending_vps": len(pending),
                "retry_round": retry_rounds,
                "probes_sent": sum_counter(REGISTRY, "probe_sent_total"),
                "elapsed_seconds": time.monotonic() - start,
            }
            if state != "running":
                # Mid-run, pending VPs are simply not-yet-probed; only
                # a terminal snapshot may call them failed.
                fields["failed_vps"] = sorted(
                    vp_list[index].name for index in pending
                )
            if tracker is not None:
                fields["quarantined_vps"] = sorted(tracker.quarantined)
                fields["breaker_states"] = tracker.breaker_states()
            if heartbeat_ages:
                fields["heartbeat_ages"] = {
                    name: round(age, 3)
                    for name, age in heartbeat_ages.items()
                }
            status.update(state, force=force, **fields)

        if self.supervision is not None:
            executor.on_poll = lambda wd: publish(
                "running", heartbeat_ages=wd.heartbeat_ages()
            )

        _OUTCOME_COUNTERS = {
            "failed": self._attempts_failed,
            "hang": self._attempts_hung,
            "crash": self._attempts_crashed,
            "garbage": self._attempts_garbage,
        }
        # The final garbage attempt's quality per rejected VP — its
        # rows never merge, but the quarantine sidecar still documents
        # *why* the VP was rejected. Keyed by name; merged in VP order.
        garbage_quality: Dict[str, dict] = {}

        clock = scenario.network.clock
        campaign_span = TRACER.begin(
            "campaign",
            clock=clock,
            scenario=scenario.name,
            seed=scenario.seed,
            vps=len(vp_list),
            targets=len(target_list),
            supervised=self.supervision is not None,
        )
        publish("running", force=True)
        try:
            round_index = 0
            while pending:
                if round_index > self.max_retries:
                    break
                if round_index > 0:
                    # Exponential backoff (doubling per round),
                    # charged in simulated seconds — the scenario
                    # clock is free, so we account rather than sleep.
                    # The budget is checked *before* the round
                    # commits: a retry that would blow it never starts.
                    backoff = self.backoff_base * 2.0 ** (round_index - 1)
                    if (
                        self.budget_seconds is not None
                        and (time.monotonic() - start)
                        + sim_backoff
                        + backoff
                        > self.budget_seconds
                    ):
                        break
                    sim_backoff += backoff
                    retry_rounds += 1
                    self._retries.inc()
                    if tracker is not None:
                        tracker.start_round()
                elif (
                    self.budget_seconds is not None
                    and time.monotonic() - start > self.budget_seconds
                ):
                    break

                round_span = TRACER.begin(
                    "round", clock=clock, round=round_index
                )
                publish("running", force=True)
                # VpChurn: dark VPs fail fast in the parent — the unit
                # of work never probes, exactly like a disconnected
                # Atlas probe timing out at the controller. Open
                # circuit breakers likewise hold their VP back without
                # consuming an attempt.
                runnable: List[int] = []
                for index in pending:
                    name = vp_list[index].name
                    if attempts.get(name, 0) < dark.get(name, 0):
                        attempts[name] = attempts.get(name, 0) + 1
                        self._attempts_dark.inc()
                        self._ev_churn.inc()
                    elif tracker is not None and not tracker.allows(name):
                        continue  # breaker open — stays pending
                    else:
                        runnable.append(index)

                tasks = [
                    (
                        index,
                        vp_list[index].name,
                        attempts.get(vp_list[index].name, 0) + 1,
                    )
                    for index in runnable
                ]
                try:
                    outcomes = executor.run_tasks(
                        tasks, [vp_list[index].asn for index in runnable]
                    )
                    still_pending: List[int] = []
                    for index in pending:
                        name = vp_list[index].name
                        if index not in outcomes:
                            # Dark or breaker-deferred this round.
                            still_pending.append(index)
                            continue
                        attempts[name] = attempts.get(name, 0) + 1
                        rows, kind, _error = outcomes[index]
                        if (
                            kind == "ok"
                            and rows is not None
                            and tracker is not None
                        ):
                            # Validation gate: an attempt whose reply
                            # stream was mostly garbage is poison, not
                            # progress — reject the rows and feed the
                            # breaker/quarantine machinery.
                            ratio = rows[2].get("invalid_dests", 0) / max(
                                1, len(target_list)
                            )
                            if ratio >= self.supervision.garbage_ratio:
                                garbage_quality[name] = rows[2]
                                rows = None
                                kind = "garbage"
                        if kind == "ok":
                            assert rows is not None
                            completed[name] = rows
                            self._attempts_ok.inc()
                            if tracker is not None:
                                tracker.record(name, "ok")
                            if checkpoint is not None:
                                found, inprefix, quality = rows
                                append_text_line(checkpoint, record_line({
                                    "completed": {name: {
                                        "rows": found,
                                        "inprefix": inprefix,
                                        "quality": quality,
                                    }},
                                    "attempts": attempts,
                                }))
                            completed_this_run += 1
                            if (
                                self.kill_after_vps is not None
                                and completed_this_run
                                >= self.kill_after_vps
                            ):
                                # Simulated ^C: later results from this
                                # round are discarded, exactly as a
                                # real kill would.
                                killed = CampaignInterrupted(
                                    completed_this_run,
                                    str(self.checkpoint_path),
                                )
                                break
                        else:
                            _OUTCOME_COUNTERS.get(
                                kind, self._attempts_failed
                            ).inc()
                            reason = None
                            if tracker is not None:
                                reason = tracker.record(name, kind)
                            if reason is None:
                                still_pending.append(index)
                            else:
                                # Quarantined: drops out of pending. Embed
                                # the poisoned VP's flight-recorder tail
                                # as the post-mortem. The reason dict is
                                # the object the tracker stores, so the
                                # manifest sees the journal too.
                                reason["last_journal"] = (
                                    executor.journal_tail(index, 32)
                                )
                    if killed is not None:
                        raise killed
                finally:
                    TRACER.end(
                        round_span,
                        status=(
                            "interrupted" if killed is not None else None
                        ),
                        clock=clock,
                    )
                pending = still_pending
                round_index += 1
        finally:
            executor.close()
            TRACER.end(
                campaign_span,
                status="interrupted" if killed is not None else None,
                clock=clock,
            )
            publish(
                "interrupted" if killed is not None else "done",
                force=True,
            )

        failed = {vp_list[index].name for index in pending}
        survey = RRSurvey(
            vps=vp_list,
            dests=target_list,
            responses=[{} for _ in target_list],
            inprefix_addrs=[set() for _ in target_list],
            rr_slots=self.slots,
        )
        # Merge in VP order — identical to run_rr_survey's merge, so a
        # fully-recovered churn-only campaign is byte-identical to an
        # unfaulted run. Quality totals accumulate in the same VP
        # order (completed VPs contribute their checkpointed quality;
        # garbage-rejected VPs contribute their final rejected
        # attempt's), so the sidecar bytes are schedule-independent.
        quality_total = empty_quality()
        for vp_index, vp in enumerate(vp_list):
            entry = completed.get(vp.name)
            if entry is None:
                merge_quality(quality_total, garbage_quality.get(vp.name))
                continue
            rows, inprefix, vp_quality = entry
            merge_quality(quality_total, vp_quality)
            for dest_index, slot in rows:
                survey.responses[dest_index][vp_index] = slot
            for dest_index, addrs in inprefix:
                survey.inprefix_addrs[dest_index].update(addrs)
        sidecar = self._write_quarantine_sidecar(quality_total)
        quarantined = {} if tracker is None else dict(tracker.quarantined)
        return CampaignResult(
            survey=survey,
            partial=bool(failed or quarantined),
            failed_vps=sorted(failed),
            attempts=attempts,
            retry_rounds=retry_rounds,
            backoff_sim_seconds=sim_backoff,
            elapsed_seconds=time.monotonic() - start,
            resumed_vps=resumed,
            probed_vps=completed_this_run,
            checkpoint_path=(
                None
                if self.checkpoint_path is None
                else str(self.checkpoint_path)
            ),
            supervised=self.supervision is not None,
            quarantined=quarantined,
            breaker_states=(
                {} if tracker is None else tracker.breaker_states()
            ),
            hangs_detected=executor.hangs_detected,
            workers_respawned=executor.workers_respawned,
            checkpoint_repairs=checkpoint_repairs,
            quality=quality_total,
            quarantine_sidecar=sidecar,
            journals=executor.journals_by_name(),
        )

    def _write_quarantine_sidecar(
        self, quality: dict
    ) -> Optional[str]:
        """Persist the quarantine/degradation sidecar (checksummed).

        Written whenever a ``quarantine_path`` was configured — an
        empty record list is still a statement ("validation ran and
        found nothing"), and writing unconditionally keeps the CI
        assertion simple. Record order is VP-merge order then
        ``(dest_index, round)``, so the bytes are invariant under
        jobs, retry schedules, and resume.
        """
        path = self.quarantine_path
        if path is None:
            return None
        record = {
            "version": 1,
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "plan": self.plan.describe(),
            "reasons": {
                reason: quality["reasons"][reason]
                for reason in sorted(quality["reasons"])
            },
            "records": quality["quarantined"],
            "degraded": quality["degraded"],
        }
        atomic_write_bytes(path, checksummed_json_bytes(record))
        return str(path)
