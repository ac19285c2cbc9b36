"""Deterministic fair-share scheduling of spec units across tenants.

Planning is a pure function of scheduler state — no clocks, no
randomness, no completion-order inputs — so the sequence of planned
units for a fixed submitted spec set is identical on every run and
every worker count. The fair-share rule is Atlas-shaped round-robin:

* Tenants are visited in sorted-name order; each full pass over the
  tenants takes at most **one** unit per tenant (so a tenant with one
  small spec is never starved behind a tenant with fifty).
* Within a tenant, the schedulable spec with the lowest
  ``(priority, submission_seq)`` wins; a spec's per-round unit cap
  (``units_per_round``) rate-limits how much of a round it may claim.
* Affordability is checked against the tenant's balance minus what
  this round's plan has already reserved; an unaffordable next unit
  *pauses* the spec (it resumes automatically once accrual catches
  up) — charging itself happens at flush time in the daemon.

Unit failures (worker crash/hang under supervision, or a body error)
consume one of :data:`MAX_UNIT_TRIES` tries and re-plan the same unit
index; the spec fails terminally when the budget is gone. Because a
re-run unit produces identical bytes, retries never perturb streams.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.scenarios.internet import Scenario
from repro.service.credits import CreditLedger
from repro.service.specs import (
    MeasurementSpec,
    SpecError,
    probes_per_unit,
    resolve_targets,
    resolve_vps,
    spec_costs,
)
from repro.service.telemetry import (
    scheduler_rounds_counter,
    specs_accepted_counter,
    specs_paused_counter,
    specs_rejected_counter,
)

__all__ = ["CreditScheduler", "MAX_UNIT_TRIES", "SpecState"]

#: Execution attempts per unit before its spec fails terminally.
MAX_UNIT_TRIES = 3

#: Spec lifecycle states.
ACTIVE = "active"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

_TERMINAL = (DONE, FAILED, REJECTED)


class SpecState:
    """One admitted (or rejected) spec's scheduler-side lifecycle."""

    __slots__ = (
        "spec",
        "seq",
        "status",
        "reason",
        "vp_names",
        "unit_probes",
        "unit_cost",
        "next_unit",
        "tries",
        "credits_spent",
        "probes_done",
        "stream",
    )

    def __init__(self, spec: MeasurementSpec, seq: int) -> None:
        self.spec = spec
        self.seq = seq
        self.status = ACTIVE
        self.reason: Optional[dict] = None
        self.vp_names: Tuple[str, ...] = ()
        self.unit_probes = 0
        self.unit_cost = 0.0
        self.next_unit = 0
        self.tries = 0
        self.credits_spent = 0.0
        self.probes_done = 0
        self.stream = None  # TenantStream, attached by the daemon

    @property
    def units_total(self) -> int:
        return len(self.vp_names)

    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def to_record(self) -> dict:
        """Checkpoint shape; everything needed to resume exactly."""
        return {
            "spec": self.spec.to_record(),
            "seq": self.seq,
            "status": self.status,
            "reason": self.reason,
            "next_unit": self.next_unit,
            "tries": self.tries,
            "credits_spent": self.credits_spent,
            "probes_done": self.probes_done,
        }


class CreditScheduler:
    """Admission + deterministic fair-share unit planning."""

    def __init__(
        self,
        ledger: CreditLedger,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.ledger = ledger
        registry = REGISTRY if registry is None else registry
        self._accepted = specs_accepted_counter(registry)
        self._rejected = specs_rejected_counter(registry)
        self._rounds = scheduler_rounds_counter(registry)
        self._paused = specs_paused_counter(registry)
        self.specs: Dict[Tuple[str, str], SpecState] = {}
        self.rounds = 0
        self._next_seq = 0

    # -- admission ---------------------------------------------------------

    def submit(
        self, spec: MeasurementSpec, scenario: Scenario
    ) -> Tuple[dict, Optional[SpecState]]:
        """Admit or reject one spec; returns ``(response, state)``.

        Rejected submissions are *recorded* (status ``rejected`` with
        the reason) so manifests, status rows, and checkpoints all
        report them — a resumed daemon must not silently re-admit a
        spec it deterministically refused.
        """
        state = SpecState(spec, self._next_seq)
        try:
            if spec.key in self.specs:
                raise SpecError(
                    "duplicate_spec",
                    f"spec {spec.label!r} was already submitted",
                )
            vps = resolve_vps(spec, scenario)
            targets = resolve_targets(spec, scenario)
            quota = self.ledger.quota_for(spec.tenant)
            unit_cost, total_cost = spec_costs(
                spec, vps, targets, quota.cost_per_probe
            )
            active = sum(
                1
                for other in self.specs.values()
                if other.spec.tenant == spec.tenant and not other.terminal
            )
            self.ledger.check_admission(spec, total_cost, active)
        except SpecError as err:
            if err.reason != "duplicate_spec":
                # Duplicates are a client error, not a new submission;
                # everything else occupies a (terminal) scheduler slot.
                state.status = REJECTED
                state.reason = err.to_response()
                self.specs[spec.key] = state
                self._next_seq += 1
            self._rejected.labels(spec.tenant, err.reason).inc()
            return dict(err.to_response(), tenant=spec.tenant, spec=spec.name), None
        state.vp_names = tuple(vp.name for vp in vps)
        state.unit_probes = probes_per_unit(spec.kind, len(targets))
        state.unit_cost = unit_cost
        self.specs[spec.key] = state
        self._next_seq += 1
        self._accepted.labels(spec.tenant).inc()
        return (
            {
                "ok": True,
                "tenant": spec.tenant,
                "spec": spec.name,
                "units": state.units_total,
                "unit_cost": unit_cost,
                "total_cost": total_cost,
                "balance": self.ledger.available(spec.tenant),
            },
            state,
        )

    # -- queries -----------------------------------------------------------

    def has_work(self) -> bool:
        return any(not state.terminal for state in self.specs.values())

    def states_in_order(self) -> List[SpecState]:
        return sorted(self.specs.values(), key=lambda state: state.seq)

    def tenants(self) -> List[str]:
        return sorted({key[0] for key in self.specs})

    # -- planning ----------------------------------------------------------

    def plan_round(
        self, allows: Optional[Callable[[str], bool]] = None
    ) -> List[Tuple[SpecState, int]]:
        """One fair-share round: ``[(spec_state, unit_index), ...]``.

        ``allows(tenant)`` is the per-tenant circuit-breaker gate; a
        denied tenant is skipped whole this round. The returned order
        is the dispatch *and* flush order.
        """
        self.rounds += 1
        self._rounds.inc()
        plan: List[Tuple[SpecState, int]] = []
        reserved: Dict[str, float] = {}
        planned_units: Dict[Tuple[str, str], int] = {}
        blocked: set = set()
        tenants = [
            tenant
            for tenant in self.tenants()
            if allows is None or allows(tenant)
        ]
        progress = True
        while progress:
            progress = False
            for tenant in tenants:
                state = self._pick_spec(tenant, planned_units, blocked)
                if state is None:
                    continue
                key = state.spec.key
                budget = self.ledger.available(tenant) - reserved.get(
                    tenant, 0.0
                )
                if budget < state.unit_cost:
                    if state.status == ACTIVE:
                        state.status = PAUSED
                        self._paused.labels(tenant).inc()
                    blocked.add(key)
                    continue
                if state.status == PAUSED:
                    state.status = ACTIVE
                unit_index = state.next_unit + planned_units.get(key, 0)
                plan.append((state, unit_index))
                reserved[tenant] = (
                    reserved.get(tenant, 0.0) + state.unit_cost
                )
                planned_units[key] = planned_units.get(key, 0) + 1
                progress = True
        return plan

    def _pick_spec(
        self,
        tenant: str,
        planned_units: Dict[Tuple[str, str], int],
        blocked: set,
    ) -> Optional[SpecState]:
        """The tenant's schedulable spec with lowest (priority, seq)."""
        best: Optional[SpecState] = None
        for state in self.specs.values():
            if state.spec.tenant != tenant or state.terminal:
                continue
            key = state.spec.key
            if key in blocked:
                continue
            already = planned_units.get(key, 0)
            if already >= state.spec.units_per_round:
                continue
            if state.next_unit + already >= state.units_total:
                continue
            if best is None or (
                (state.spec.priority, state.seq)
                < (best.spec.priority, best.seq)
            ):
                best = state
        return best

    # -- outcomes (fed by the daemon, in plan order) -----------------------

    def record_success(self, state: SpecState) -> None:
        state.next_unit += 1
        state.tries = 0
        state.probes_done += state.unit_probes
        state.credits_spent += state.unit_cost

    def record_failure(self, state: SpecState, error: Optional[str]) -> None:
        state.tries += 1
        if state.tries >= MAX_UNIT_TRIES:
            state.status = FAILED
            state.reason = {
                "ok": False,
                "reason": "unit_failed",
                "detail": (
                    f"unit {state.next_unit} failed {state.tries} times; "
                    f"last error: {error}"
                ),
            }

    # -- persistence -------------------------------------------------------

    def restore_state(
        self, record: dict, scenario: Scenario, spec: MeasurementSpec
    ) -> SpecState:
        """Rebuild one checkpointed :class:`SpecState` exactly."""
        state = SpecState(spec, int(record["seq"]))
        state.status = record["status"]
        state.reason = record.get("reason")
        state.next_unit = int(record.get("next_unit", 0))
        state.tries = int(record.get("tries", 0))
        state.credits_spent = float(record.get("credits_spent", 0.0))
        state.probes_done = int(record.get("probes_done", 0))
        if state.status != REJECTED:
            vps = resolve_vps(spec, scenario)
            targets = resolve_targets(spec, scenario)
            quota = self.ledger.quota_for(spec.tenant)
            state.vp_names = tuple(vp.name for vp in vps)
            state.unit_probes = probes_per_unit(spec.kind, len(targets))
            state.unit_cost, _total = spec_costs(
                spec, vps, targets, quota.cost_per_probe
            )
        self.specs[spec.key] = state
        self._next_seq = max(self._next_seq, state.seq + 1)
        return state
