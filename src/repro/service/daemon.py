"""The measurement daemon: admission → scheduling → execution → streams.

One :class:`MeasurementDaemon` wraps one scenario and serves many
tenants. Its run loop is round-based and deterministic end to end:

1. accrue credits (:meth:`CreditLedger.accrue_round`) and advance
   per-tenant circuit breakers one round;
2. plan a fair-share batch of units (:class:`CreditScheduler`) —
   pure state, no clocks;
3. execute the batch on the executor
   (:class:`~repro.core.parallel.WorkerWatchdog`: in-process for
   ``jobs=1``, persistent supervised pool for ``jobs>=2``);
4. fold outcomes **in plan order** (never completion order): charge
   credits, append stream records, advance spec state, checkpoint,
   publish status.

Because unit *content* is deterministic per (scenario, seed, spec,
unit index) and fold order is plan order, the per-tenant stream files
are byte-identical for any worker count and across kill→resume — the
repo's campaign invariant, lifted to the serving layer.

Isolation: each tenant gets its own
:class:`~repro.faults.supervisor.CircuitBreaker`. A tenant whose
units keep crashing or hanging trips its breaker and is skipped for a
cooldown round, so one abusive tenant cannot monopolise the pool's
retry budget; the other tenants' plans (and bytes) are unaffected.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.parallel import WorkerWatchdog
from repro.faults.supervisor import CircuitBreaker, SupervisionConfig
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.status import CampaignStatusWriter
from repro.probing.artifacts import (
    SurveyFormatError,
    append_text_line,
    cut_checkpoint_tail,
    read_checkpoint,
    record_line,
    start_checkpoint,
)
from repro.scenarios.internet import Scenario
from repro.service.credits import CreditLedger, TenantQuota
from repro.service.executor import make_unit_task, service_unit_body
from repro.service.scheduler import (
    ACTIVE,
    CreditScheduler,
    DONE,
    FAILED,
    PAUSED,
    REJECTED,
    SpecState,
)
from repro.service.specs import MeasurementSpec, SpecError, parse_spec
from repro.service.streams import TenantStream
from repro.service.telemetry import (
    specs_rejected_counter,
    tenant_degraded_counter,
    tenant_probes_counter,
    tenant_quality_counter,
    units_counter,
)

__all__ = [
    "CHECKPOINT_KIND",
    "MeasurementDaemon",
    "ServiceConfig",
    "ServiceInterrupted",
]

CHECKPOINT_KIND = "service_checkpoint"

#: Seconds an idle daemon under a control socket sleeps before it
#: looks for new submissions again.
_POLL_SECONDS = 0.1


class ServiceInterrupted(RuntimeError):
    """The daemon was killed mid-run (``kill_after_units`` test hook or
    an operator shutdown with work outstanding); the checkpoint and
    streams are consistent and ``restore()`` then ``run()`` continue them."""

    def __init__(
        self,
        message: str,
        units_flushed: int,
        checkpoint: Optional[Path],
    ) -> None:
        super().__init__(message)
        self.units_flushed = units_flushed
        self.checkpoint = checkpoint


@dataclass
class ServiceConfig:
    """Everything a daemon needs beyond the scenario itself."""

    stream_dir: Union[str, Path]
    jobs: int = 1
    quota: TenantQuota = field(default_factory=TenantQuota)
    quota_overrides: Dict[str, TenantQuota] = field(default_factory=dict)
    checkpoint_path: Optional[Union[str, Path]] = None
    status_path: Optional[Union[str, Path]] = None
    control_path: Optional[Union[str, Path]] = None
    max_rounds: Optional[int] = None
    kill_after_units: Optional[int] = None
    supervision: Optional[SupervisionConfig] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive: {self.jobs}")
        if self.kill_after_units is not None and self.kill_after_units < 1:
            raise ValueError(
                f"kill_after_units must be >= 1: {self.kill_after_units}"
            )
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1: {self.max_rounds}")


class MeasurementDaemon:
    """The multi-tenant measurement service over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        config: ServiceConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config
        registry = REGISTRY if registry is None else registry
        self._registry = registry
        self.ledger = CreditLedger(
            config.quota, config.quota_overrides, registry
        )
        self.scheduler = CreditScheduler(self.ledger, registry)
        self._rejected = specs_rejected_counter(registry)
        self._probes = tenant_probes_counter(registry)
        self._units = units_counter(registry)
        self._quality_counter = tenant_quality_counter(registry)
        self._degraded_counter = tenant_degraded_counter(registry)
        #: tenant -> run-scoped reply-quality totals (see
        #: :meth:`_fold_quality`; re-derivable from stream records, so
        #: intentionally not checkpointed).
        self._tenant_quality: Dict[str, Dict[str, int]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.RLock()
        self._shutdown = False
        self._units_this_run = 0
        self._started: Optional[float] = None
        self._status: Optional[CampaignStatusWriter] = None
        #: The checkpoint log's header, its spec records by label and
        #: last (rounds, balances); ``None`` until a log is started or
        #: resumed.
        self._header = {"kind": CHECKPOINT_KIND, "scenario": scenario.name,
                        "seed": scenario.seed}
        self._logged: Optional[Dict[str, dict]] = None
        self._logged_totals: Optional[dict] = None
        self._checkpoint_repairs = 0
        Path(config.stream_dir).mkdir(parents=True, exist_ok=True)

    # -- tenant isolation --------------------------------------------------

    def _breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            supervision = self.config.supervision or SupervisionConfig()
            breaker = CircuitBreaker(
                supervision.breaker_window,
                supervision.breaker_threshold,
                supervision.breaker_cooldown_rounds,
            )
            self._breakers[tenant] = breaker
        return breaker

    def _tenant_allowed(self, tenant: str) -> bool:
        return self._breaker(tenant).allows()

    # -- reply-quality accounting ------------------------------------------

    @staticmethod
    def _empty_tenant_quality() -> Dict[str, int]:
        return {
            "checked": 0,
            "valid": 0,
            "suspect": 0,
            "invalid": 0,
            "quarantined": 0,
            "degraded": 0,
        }

    def _fold_quality(self, tenant: str, quality: dict) -> None:
        """Accumulate one unit's validation summary (the counts block
        :func:`~repro.service.executor.service_unit_body` emits) into
        the tenant's running totals and the ``service_*`` metrics."""
        totals = self._tenant_quality.setdefault(
            tenant, self._empty_tenant_quality()
        )
        totals["checked"] += int(quality.get("checked", 0))
        for verdict, count in quality.get("verdicts", {}).items():
            count = int(count)
            totals[verdict] = totals.get(verdict, 0) + count
            if count:
                self._quality_counter.labels(tenant, verdict).inc(count)
        totals["quarantined"] += int(quality.get("quarantined", 0))
        degraded = int(quality.get("degraded", 0))
        totals["degraded"] += degraded
        if degraded:
            self._degraded_counter.labels(tenant).inc(degraded)

    # -- submission (CLI spec files and control socket both land here) -----

    def stream_path(self, spec: MeasurementSpec) -> Path:
        return Path(self.config.stream_dir) / spec.tenant / f"{spec.name}.jsonl"

    def _recover_stream(self, state: SpecState) -> TenantStream:
        """Attach a spec's stream, checked at its flushed units but not
        yet cut (see :meth:`TenantStream.recover`)."""
        spec = state.spec
        state.stream = TenantStream.recover(
            self.stream_path(spec), spec.tenant, spec.name,
            expect_records=state.next_unit,
        )
        return state.stream

    def submit(self, record: object) -> dict:
        """Admit or reject one submission; returns the machine-readable
        response. Thread-safe (the control server calls in)."""
        with self._lock:
            try:
                spec = parse_spec(record)
            except SpecError as err:
                tenant = (
                    record.get("tenant", "?")
                    if isinstance(record, dict)
                    else "?"
                )
                self._rejected.labels(str(tenant), err.reason).inc()
                return err.to_response()
            response, state = self.scheduler.submit(spec, self.scenario)
            if state is not None:
                self._recover_stream(state).settle()
            self._write_checkpoint()
            return response

    def request_shutdown(self) -> None:
        self._shutdown = True

    # -- status ------------------------------------------------------------

    def _tenant_rows(self) -> Dict[str, dict]:
        rows: Dict[str, dict] = {}
        for tenant in self.scheduler.tenants():
            states = [
                state
                for state in self.scheduler.specs.values()
                if state.spec.tenant == tenant
            ]
            account = self.ledger.account(tenant)
            rows[tenant] = {
                "specs_total": len(states),
                "specs_done": sum(s.status == DONE for s in states),
                "specs_paused": sum(s.status == PAUSED for s in states),
                "specs_failed": sum(s.status == FAILED for s in states),
                "specs_rejected": sum(
                    s.status == REJECTED for s in states
                ),
                "units_done": sum(s.next_unit for s in states),
                "units_total": sum(s.units_total for s in states),
                "probes": sum(s.probes_done for s in states),
                "credits": round(account.balance, 6),
                "credits_spent": round(account.spent, 6),
                "breaker": self._breaker(tenant).state,
                "quality": dict(
                    self._tenant_quality.get(
                        tenant, self._empty_tenant_quality()
                    )
                ),
            }
        return rows

    def _publish_status(self, state: str, force: bool = False) -> None:
        if self._status is None:
            return
        elapsed = (
            0.0
            if self._started is None
            else time.monotonic() - self._started
        )
        self._status.update(
            state,
            force=force,
            service=True,
            scenario=self.scenario.name,
            seed=self.scenario.seed,
            round=self.scheduler.rounds,
            probes_sent=sum(
                s.probes_done for s in self.scheduler.specs.values()
            ),
            elapsed_seconds=round(elapsed, 3),
            tenants=self._tenant_rows(),
        )

    def status_snapshot(
        self,
        tenant: Optional[str] = None,
        spec: Optional[str] = None,
    ) -> dict:
        """The control socket's ``status`` answer (optionally filtered)."""
        with self._lock:
            specs = {}
            for state in self.scheduler.states_in_order():
                if tenant is not None and state.spec.tenant != tenant:
                    continue
                if spec is not None and state.spec.name != spec:
                    continue
                specs[state.spec.label] = self._spec_row(state)
            return {
                "ok": True,
                "state": "running",
                "round": self.scheduler.rounds,
                "tenants": self._tenant_rows()
                if tenant is None and spec is None
                else {},
                "specs": specs,
            }

    def _spec_row(self, state: SpecState) -> dict:
        return {
            "tenant": state.spec.tenant,
            "name": state.spec.name,
            "kind": state.spec.kind,
            "status": state.status,
            "reason": state.reason,
            "units_done": state.next_unit,
            "units_total": state.units_total,
            "probes": state.probes_done,
            "credits_spent": round(state.credits_spent, 6),
            "stream": (
                None
                if state.status == REJECTED
                else str(self.stream_path(state.spec))
            ),
        }

    # -- checkpointing -----------------------------------------------------

    def _write_checkpoint(self) -> None:
        """Append the rounds, balances and changed spec records as one
        log line, if anything changed; a fresh daemon first starts the
        log, replacing any old file."""
        path = self.config.checkpoint_path
        if path is None:
            return
        if self._logged is None:
            start_checkpoint(path, self._header)
            self._logged = {}
        specs = []
        for state in self.scheduler.states_in_order():
            record = state.to_record()
            if self._logged.get(state.spec.label) != record:
                self._logged[state.spec.label] = record
                specs.append(record)
        totals = {"rounds": self.scheduler.rounds,
                  "balances": self.ledger.balances()}
        if specs or totals != self._logged_totals:
            self._logged_totals = totals
            append_text_line(path, record_line(dict(totals, specs=specs)))

    def restore(self) -> bool:
        """Restore checkpointed state before any submissions (so spec
        files re-passed on a resume command line dedup against it).

        Folds the log's verified lines (spec records by key, last one
        wins), checking each, and then every stream, before any stream
        or the log's bad tail is cut: a refused resume
        (:class:`SurveyFormatError` naming the file and line, or
        :class:`StreamFormatError` naming the stream) leaves every file
        as it found it.
        """
        path = self.config.checkpoint_path
        if path is None or not Path(path).exists():
            return False
        with self._lock:
            lines = read_checkpoint(path)
            found = {key: lines[0][1].get(key) for key in self._header}
            if found != self._header:
                raise SurveyFormatError(
                    path, f"checkpoint header {found} does not match "
                    f"this daemon's {self._header}",
                )
            for number, (_line, entry) in enumerate(lines[1:], start=2):
                try:
                    self.scheduler.rounds = int(entry["rounds"])
                    self.ledger.restore(entry["balances"])
                    for record in entry["specs"]:
                        self.scheduler.restore_state(
                            record, self.scenario, parse_spec(record["spec"])
                        )
                except (
                    AttributeError, KeyError, TypeError, ValueError
                ) as exc:
                    raise SurveyFormatError(
                        path,
                        f"malformed checkpoint line {number}: "
                        f"{type(exc).__name__}: {exc}",
                    ) from exc
            # Every stream is checked before any is cut.
            live = [
                state for state in self.scheduler.states_in_order()
                if state.status != REJECTED
            ]
            for state in live:
                self._recover_stream(state)
            for state in live:
                state.stream.settle()
                if state.status == DONE:
                    state.stream.finalize()
            self._checkpoint_repairs = int(cut_checkpoint_tail(
                path, [line for line, _body in lines], "service",
                self._registry,
            ))
            # The next line restates every spec once.
            self._logged, self._logged_totals = {}, None
            return True

    # -- the run loop ------------------------------------------------------

    def run(self) -> dict:
        """Serve until all specs are terminal (or shutdown/kill); returns
        the manifest. Raises :class:`ServiceInterrupted` on a kill.

        The manifest's ``state`` is ``done``, or ``capped`` when
        ``max_rounds`` stopped the daemon with specs still active."""
        config = self.config
        self._started = time.monotonic()
        self._units_this_run = 0
        self._status = (
            CampaignStatusWriter(config.status_path)
            if config.status_path is not None
            else None
        )
        executor = WorkerWatchdog(
            self.scenario,
            {"task_body": service_unit_body},
            config.jobs,
            None
            if config.jobs == 1
            else config.supervision or SupervisionConfig(),
        )
        control = None
        state = "done"
        try:
            if config.control_path is not None:
                from repro.service.control import ControlServer

                control = ControlServer(self, config.control_path)
                control.start()
            self._publish_status("running", force=True)
            while not self._shutdown:
                if (
                    config.max_rounds is not None
                    and self.scheduler.rounds >= config.max_rounds
                ):
                    with self._lock:
                        if self.scheduler.has_work():
                            state = "capped"
                    break
                with self._lock:
                    has_work = self.scheduler.has_work()
                if not has_work:
                    if control is None:
                        break
                    time.sleep(_POLL_SECONDS)
                    continue
                with self._lock:
                    accrued = self.ledger.accrue_round()
                    for tenant in self.scheduler.tenants():
                        self._breaker(tenant).start_round()
                    plan = self.scheduler.plan_round(
                        allows=self._tenant_allowed
                    )
                    tasks = [
                        make_unit_task(
                            index,
                            f"{state_spec.spec.label}#{unit_index}",
                            state_spec.vp_names[unit_index],
                            state_spec.spec.kind,
                            state_spec.spec.target_offset,
                            state_spec.spec.target_count,
                            state_spec.spec.slots,
                            state_spec.spec.pps,
                        )
                        for index, (state_spec, unit_index) in enumerate(
                            plan
                        )
                    ]
                if not plan:
                    if accrued <= 0.0:
                        # No credits were (or ever will be) granted:
                        # every blocked spec is starved for good.
                        # Under a control socket, keep serving — a new
                        # submission could still arrive.
                        if control is None:
                            break
                    if control is not None:
                        time.sleep(_POLL_SECONDS)
                    continue
                # Probing runs outside the lock: control-socket
                # submissions land concurrently and join next round.
                outcomes = executor.run_tasks(tasks)
                with self._lock:
                    self._fold_round(plan, tasks, outcomes)
        except ServiceInterrupted:
            self._publish_status("interrupted", force=True)
            raise
        finally:
            executor.close()
            if control is not None:
                control.stop()
        with self._lock:
            self._write_checkpoint()
            self._publish_status(state, force=True)
            return self._manifest(state)

    def _fold_round(
        self,
        plan: List[Tuple[SpecState, int]],
        tasks: List[tuple],
        outcomes: Dict[int, tuple],
    ) -> None:
        """Fold one round's outcomes back, strictly in plan order."""
        config = self.config
        for (state_spec, unit_index), task in zip(plan, tasks):
            result, kind, error = outcomes.get(
                task[0], (None, "failed", "worker returned no outcome")
            )
            tenant = state_spec.spec.tenant
            if kind == "ok" and result is not None:
                if (
                    state_spec.status != ACTIVE
                    or unit_index != state_spec.next_unit
                ):
                    # A unit planned after one that failed this round:
                    # its bytes are deterministic, so discarding and
                    # re-running later rewrites them identically.
                    self._units.labels(tenant, "discarded").inc()
                    continue
                if not self.ledger.charge(tenant, state_spec.unit_cost):
                    # Planning reserved this spend; only external
                    # balance tampering could land here.
                    self.scheduler.record_failure(
                        state_spec, "credit reservation lost"
                    )
                    continue
                record = {
                    "record": "unit",
                    "version": 1,
                    "unit": unit_index,
                    "vp": task[2],
                    "kind": state_spec.spec.kind,
                    "targets": state_spec.targets_count,
                    "probes": state_spec.unit_probes,
                }
                record.update(result)
                quality = result.get("quality")
                if isinstance(quality, dict):
                    self._fold_quality(tenant, quality)
                state_spec.stream.append(record)
                self.scheduler.record_success(state_spec)
                self._units.labels(tenant, "ok").inc()
                self._probes.labels(tenant).inc(state_spec.unit_probes)
                self._breaker(tenant).record(True)
                self._units_this_run += 1
                if state_spec.next_unit >= state_spec.units_total:
                    state_spec.stream.finalize()
                    state_spec.status = DONE
                self._write_checkpoint()
                self._publish_status("running")
                if (
                    config.kill_after_units is not None
                    and self._units_this_run >= config.kill_after_units
                ):
                    raise ServiceInterrupted(
                        f"killed after {self._units_this_run} units "
                        "(kill_after_units)",
                        self._units_this_run,
                        None
                        if config.checkpoint_path is None
                        else Path(config.checkpoint_path),
                    )
            else:
                self.scheduler.record_failure(state_spec, error)
                self._units.labels(tenant, kind).inc()
                self._breaker(tenant).record(False)
        self._write_checkpoint()

    # -- manifest ----------------------------------------------------------

    def _manifest(self, state: str) -> dict:
        specs = {
            spec_state.spec.label: self._spec_row(spec_state)
            for spec_state in self.scheduler.states_in_order()
        }
        return {
            "service": True,
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "state": state,
            "rounds": self.scheduler.rounds,
            "units_flushed": sum(
                s.next_unit for s in self.scheduler.specs.values()
            ),
            "balances": self.ledger.balances(),
            "checkpoint_repairs": self._checkpoint_repairs,
            "quality": {
                tenant: dict(totals)
                for tenant, totals in sorted(
                    self._tenant_quality.items()
                )
            },
            "specs": specs,
        }
