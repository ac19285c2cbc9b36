"""Supervision policy for the executor.

The campaign runner (PR 3) retries *failures* — tasks that die with an
exception. Real measurement platforms face two nastier pathologies
("A Day in the Life of RIPE Atlas"): workers that *wedge* — still
alive, never progressing — and vantage points that fail the same way
every time, burning the retry budget round after round. Supervision is
a :class:`SupervisionConfig` handed to the one executor,
:class:`~repro.core.parallel.WorkerWatchdog`, plus the parent-side
policy in this module:

* **Heartbeats** — :func:`~repro.core.survey.probe_vp_rr` pings a
  per-worker shared double (``multiprocessing.Value('d')``, the
  monotonic clock) once per destination. Heartbeats are writes to an
  8-byte aligned slot; the hot loop pays one attribute store per
  destination, nothing more.
* **The supervised pool** — given a config, the executor scans
  heartbeat ages on every poll: a busy worker silent for longer than
  ``hang_timeout`` is killed and respawned, its task re-queued up to a
  per-task try budget. A worker that dies outright (its pipe hits EOF
  mid-task) is treated the same way. Either way the doomed attempt
  contributes *nothing* — no rows, no metrics — so the engine's
  byte-parity contract survives supervision untouched.
* **:class:`CircuitBreaker` / :class:`VpHealthTracker`** — per-VP
  health accounting in the parent. A VP whose recent attempts fail at
  ``breaker_threshold`` over a full ``breaker_window`` trips its
  breaker open; open breakers skip ``breaker_cooldown_rounds`` retry
  rounds, then half-open for one probe attempt (success → closed,
  failure → open again). A VP that hangs or crashes
  ``quarantine_after`` times is *quarantined*: dropped from the
  campaign with a machine-readable reason in the manifest instead of
  stalling it. All decisions are pure functions of the seed and the
  event order — rounds process VPs in index order — so
  ``jobs ∈ {1, 2, 4}`` byte-parity holds for every non-quarantined VP.

Fault injection hooks: :class:`~repro.faults.specs.VpHang` and
:class:`~repro.faults.specs.VpCrash` specs are realised here —
:func:`run_vp_attempt` wraps the heartbeat callback so the task
wedges (stops heartbeating, then sleeps) or raises after the
configured number of destinations, and :func:`vp_attempt_body` (the
campaign's executor task body) turns an injected crash into a real
process death under supervision. Unsupervised contexts set
``allow_hang=False`` and receive an immediate :class:`InjectedHang` or
:class:`InjectedCrash` failure instead of an actual stall or death.

Everything observable lands in the metrics registry (``supervisor_*``
families below and in :mod:`repro.core.parallel`) and surfaces in
``repro stats --health``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.survey import VPRows, probe_vp_rr
from repro.faults.injector import FaultInjector
from repro.faults.specs import FaultPlan, VpCrash, VpHang
from repro.integrity import canonical_json_bytes, canonical_members_bytes
from repro.obs.metrics import CounterFamily, MetricsRegistry, REGISTRY
from repro.obs.spans import TRACER

__all__ = [
    "SupervisionConfig",
    "CircuitBreaker",
    "VpHealth",
    "VpHealthTracker",
    "InjectedHang",
    "InjectedCrash",
    "encode_attempt",
    "run_vp_attempt",
    "vp_attempt_body",
    "supervisor_quarantine_counter",
    "breaker_transition_counter",
    "breaker_skip_counter",
]


# ---------------------------------------------------------------------------
# Metric families (idempotently registered, shared with the CLI).
# ---------------------------------------------------------------------------


def supervisor_quarantine_counter(
    registry: MetricsRegistry,
) -> CounterFamily:
    return registry.counter(
        "supervisor_quarantines_total",
        "Vantage points quarantined as poison, by failure kind.",
        ("net", "kind"),
    )


def breaker_transition_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_breaker_transitions_total",
        "Per-VP circuit-breaker state transitions, by destination state.",
        ("net", "to"),
    )


def breaker_skip_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_breaker_skips_total",
        "Attempts skipped because a VP's circuit breaker was open.",
        ("net",),
    )


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupervisionConfig:
    """Tuning knobs for the watchdog, quarantine, and breaker.

    ``hang_timeout`` is the no-heartbeat deadline after which a busy
    worker is presumed wedged; ``task_tries`` is the per-task budget of
    watchdog-level tries (kill/respawn/re-queue cycles) before the
    task is reported hung/crashed for the round; ``quarantine_after``
    is the K of poison-VP quarantine (total hang+crash+garbage
    attempts). ``garbage_ratio`` is the fraction of a VP's validated
    replies that may be *invalid* before the whole attempt is treated
    as garbage (a RIPE-Atlas-style zombie probe) and fed to the
    breaker/quarantine machinery like a crash.
    """

    hang_timeout: float = 30.0
    poll_interval: float = 0.05
    task_tries: int = 2
    quarantine_after: int = 3
    breaker_window: int = 4
    breaker_threshold: float = 0.75
    breaker_cooldown_rounds: int = 1
    garbage_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.hang_timeout <= 0:
            raise ValueError(
                f"hang_timeout must be positive: {self.hang_timeout}"
            )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive: {self.poll_interval}"
            )
        if self.task_tries < 1:
            raise ValueError(f"task_tries must be >= 1: {self.task_tries}")
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1: {self.quarantine_after}"
            )
        if self.breaker_window < 1:
            raise ValueError(
                f"breaker_window must be >= 1: {self.breaker_window}"
            )
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError(
                "breaker_threshold must be in (0, 1]: "
                f"{self.breaker_threshold}"
            )
        if self.breaker_cooldown_rounds < 1:
            raise ValueError(
                "breaker_cooldown_rounds must be >= 1: "
                f"{self.breaker_cooldown_rounds}"
            )
        if not 0.0 < self.garbage_ratio <= 1.0:
            raise ValueError(
                f"garbage_ratio must be in (0, 1]: {self.garbage_ratio}"
            )


# ---------------------------------------------------------------------------
# Injected pathologies (realised from VpHang / VpCrash specs).
# ---------------------------------------------------------------------------


class InjectedHang(RuntimeError):
    """An injected hang surfaced as a failure (unsupervised context, or
    a hang that outlived the watchdog)."""


class InjectedCrash(RuntimeError):
    """An injected worker crash (``VpCrash``): under supervision the
    worker process dies; unsupervised it is an ordinary task failure."""


class _FaultingHeartbeat:
    """Heartbeat wrapper that realises VpHang/VpCrash mid-session.

    Counts destinations; when the count reaches the spec's
    ``after_targets`` the task wedges (stops forwarding heartbeats,
    sleeps) or raises. The wedge happens *before* the inner heartbeat
    fires, so the watchdog sees the silence immediately.
    """

    __slots__ = ("inner", "hang", "crash", "allow_hang", "count")

    def __init__(
        self,
        inner: Optional[Callable[[], None]],
        hang: Optional[VpHang],
        crash: Optional[VpCrash],
        allow_hang: bool,
    ) -> None:
        self.inner = inner
        self.hang = hang
        self.crash = crash
        self.allow_hang = allow_hang
        self.count = 0

    def __call__(self) -> None:
        if self.crash is not None and self.count == self.crash.after_targets:
            raise InjectedCrash(
                f"injected crash after {self.count} destination(s)"
            )
        if self.hang is not None and self.count == self.hang.after_targets:
            if self.allow_hang:
                # Wedge: no heartbeat, no progress. The watchdog kills
                # this process long before the sleep elapses; if no
                # watchdog is listening the sleep bounds the damage and
                # the hang degrades into a failure.
                time.sleep(self.hang.hang_seconds)
            raise InjectedHang(
                f"injected hang after {self.count} destination(s)"
            )
        self.count += 1
        if self.inner is not None:
            self.inner()


def run_vp_attempt(
    scenario,
    vp,
    attempt: int,
    plan: Optional[FaultPlan],
    targets,
    position,
    order,
    slots: int,
    pps: float,
    horizon: float,
    heartbeat: Optional[Callable[[], None]] = None,
    allow_hang: bool = True,
) -> VPRows:
    """One VP campaign attempt with faults (incl. hang/crash) injected.

    What the campaign's task body (:func:`vp_attempt_body`) runs:
    attaches the fault injector for the session, arms VpHang/VpCrash
    specs that apply to ``(vp, attempt)``, and runs the full probe
    sequence. The executor owns metrics isolation.

    ``allow_hang=False`` converts an armed hang into an immediate
    :class:`InjectedHang` — the honest stand-in for "stuck forever" in
    contexts with no watchdog to recover the worker.
    """
    network = scenario.network
    with TRACER.span(
        "vp_attempt", clock=network.clock, vp=vp.name, attempt=attempt
    ):
        injector: Optional[FaultInjector] = None
        if plan is not None and not plan.is_empty:
            injector = FaultInjector(network, plan, horizon=horizon)
            # Non-sticky misbehavior re-rolls per campaign attempt as
            # well as per intra-attempt validation round.
            injector.attempt = attempt
            network.attach_injector(injector)
        beat: Optional[Callable[[], None]] = heartbeat
        if plan is not None:
            hang = plan.hang_profile(vp.name, attempt)
            crash = plan.crash_profile(vp.name, attempt)
            if hang is not None or crash is not None:
                beat = _FaultingHeartbeat(
                    heartbeat, hang, crash, allow_hang
                )
        try:
            return probe_vp_rr(
                scenario,
                vp,
                targets,
                position,
                order=order,
                slots=slots,
                pps=pps,
                heartbeat=beat,
            )
        finally:
            if injector is not None:
                network.detach_injector()


#: Exit status a worker uses for an injected crash (distinguishable
#: from Python tracebacks' status 1 in logs; the parent treats any
#: death the same).
_CRASH_EXIT_STATUS = 13


#: What :func:`encode_attempt` returns: the canonical JSON of a VP's
#: checkpoint entry and of its quarantined and degraded record lists.
AttemptBytes = Tuple[bytes, bytes, bytes]


def encode_attempt(rows: VPRows) -> AttemptBytes:
    """``(entry, quarantined, degraded)``: the canonical JSON of one
    VP's checkpoint entry ``{"inprefix", "quality", "rows"}`` and of its
    quality block's ``quarantined`` and ``degraded`` record lists.

    Each list is encoded once; the entry's quality block splices those
    same bytes in, and the campaign splices them again into its
    quarantine sidecar. So the parent never re-encodes what a worker
    already encoded.
    """
    found, inprefix, quality = rows
    members = {
        key: canonical_json_bytes(value) for key, value in quality.items()
    }
    entry = canonical_members_bytes({
        "inprefix": canonical_json_bytes(inprefix),
        "quality": canonical_members_bytes(members),
        "rows": canonical_json_bytes(found),
    })
    return entry, members["quarantined"], members["degraded"]


def vp_attempt_body(
    state: dict, task: tuple, heartbeat
) -> Tuple[VPRows, Optional[AttemptBytes]]:
    """The campaign's executor task body: one faulted VP attempt.

    ``task`` is ``(vp_index, vp_name, attempt)`` — the attempt number
    lets the fault plan arm attempt-scoped pathologies
    (``VpHang``/``VpCrash``) deterministically. Only a supervised
    worker passes a heartbeat; there an injected hang wedges for real
    and an injected crash kills the process, because a crashing worker
    does not get to report its own death: the pipe EOF *is* the
    report, exactly as for a real segfault. With no watchdog to
    recover the worker, both are ordinary failures.

    Returns the attempt's rows and, when the campaign persists them
    (``state["encode"]``: a checkpoint or a quarantine sidecar), their
    :func:`encode_attempt` bytes, so a pooled attempt arrives encoded.
    """
    vp_index, _name, attempt = task
    supervised = heartbeat is not None
    try:
        rows = run_vp_attempt(
            state["scenario"],
            state["vps"][vp_index],
            attempt,
            state["plan"],
            state["targets"],
            state["position"],
            state["order"],
            state["slots"],
            state["pps"],
            state["horizon"],
            heartbeat=heartbeat,
            allow_hang=supervised,
        )
    except InjectedCrash:
        if not supervised:
            raise
        os._exit(_CRASH_EXIT_STATUS)
    return rows, encode_attempt(rows) if state.get("encode") else None


# ---------------------------------------------------------------------------
# Circuit breaker + per-VP health.
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Per-VP failure-rate breaker: closed → open → half-open → closed.

    Pure event machine — no clocks, no randomness — so its behaviour
    is a function of the attempt-outcome sequence alone:

    * **closed**: outcomes feed a sliding window of the last
      ``window`` attempts; once the window is full and the failure
      fraction reaches ``threshold``, the breaker opens.
    * **open**: the VP is skipped; each skipped retry round burns one
      unit of ``cooldown_rounds``; at zero the breaker half-opens.
    * **half-open**: exactly one probe attempt is admitted. Success
      closes the breaker (window cleared — the VP re-earns its
      history); failure re-opens it with a fresh cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("window", "threshold", "cooldown_rounds", "state",
                 "_events", "_cooldown_left")

    def __init__(
        self, window: int, threshold: float, cooldown_rounds: int
    ) -> None:
        self.window = int(window)
        self.threshold = float(threshold)
        self.cooldown_rounds = int(cooldown_rounds)
        self.state = self.CLOSED
        self._events: deque = deque(maxlen=self.window)
        self._cooldown_left = 0

    def allows(self) -> bool:
        """May the VP attempt this round? (Open breakers say no.)"""
        return self.state != self.OPEN

    def start_round(self) -> Optional[str]:
        """Advance cooldown at a retry-round boundary.

        Returns the new state if a transition happened (``half_open``),
        else ``None``.
        """
        if self.state != self.OPEN:
            return None
        self._cooldown_left -= 1
        if self._cooldown_left > 0:
            return None
        self.state = self.HALF_OPEN
        return self.HALF_OPEN

    def record(self, success: bool) -> Optional[str]:
        """Feed one attempt outcome; returns the new state on
        transition (``open`` / ``closed``), else ``None``."""
        if self.state == self.HALF_OPEN:
            if success:
                self.state = self.CLOSED
                self._events.clear()
                return self.CLOSED
            self.state = self.OPEN
            self._cooldown_left = self.cooldown_rounds
            return self.OPEN
        self._events.append(bool(success))
        if self.state == self.CLOSED and len(self._events) == self.window:
            failures = sum(1 for ok in self._events if not ok)
            if failures / self.window >= self.threshold:
                self.state = self.OPEN
                self._cooldown_left = self.cooldown_rounds
                return self.OPEN
        return None


@dataclass
class VpHealth:
    """One VP's supervision record."""

    ok: int = 0
    failed: int = 0
    crashes: int = 0
    hangs: int = 0
    garbage: int = 0
    breaker: Optional[CircuitBreaker] = None

    @property
    def poison_events(self) -> int:
        return self.crashes + self.hangs + self.garbage


class VpHealthTracker:
    """Parent-side per-VP health: quarantine decisions + breakers.

    Deterministic by construction: the campaign feeds outcomes in VP
    index order and consults the tracker at fixed points (round start,
    pre-dispatch, post-outcome), so the set of quarantined VPs and
    every breaker state is a function of the seed and event order —
    never of worker scheduling.
    """

    def __init__(
        self,
        config: SupervisionConfig,
        net_id: str,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.net_id = net_id
        registry = REGISTRY if registry is None else registry
        self._records: Dict[str, VpHealth] = {}
        self.quarantined: Dict[str, dict] = {}
        self._quarantine_counter = supervisor_quarantine_counter(registry)
        self._transitions = breaker_transition_counter(registry)
        self._skips = breaker_skip_counter(registry).labels(net_id)

    def health(self, name: str) -> VpHealth:
        record = self._records.get(name)
        if record is None:
            record = VpHealth(
                breaker=CircuitBreaker(
                    self.config.breaker_window,
                    self.config.breaker_threshold,
                    self.config.breaker_cooldown_rounds,
                )
            )
            self._records[name] = record
        return record

    # -- round hooks -------------------------------------------------------

    def start_round(self) -> None:
        """Advance every open breaker's cooldown (retry rounds only)."""
        for name in sorted(self._records):
            transition = self._records[name].breaker.start_round()
            if transition is not None:
                self._transitions.labels(self.net_id, transition).inc()

    def allows(self, name: str) -> bool:
        """Gate one attempt; counts a breaker skip when denied."""
        if name in self.quarantined:
            return False
        if not self.health(name).breaker.allows():
            self._skips.inc()
            return False
        return True

    # -- outcomes ----------------------------------------------------------

    def record(self, name: str, kind: str) -> Optional[dict]:
        """Feed one attempt outcome (``ok``/``failed``/``crash``/
        ``hang``/``garbage``); returns a quarantine reason dict if this
        outcome pushed the VP over the threshold, else ``None``.

        ``garbage`` is the validation layer's verdict — the attempt
        completed but too many of its replies were structurally
        invalid. It is poison like a crash or a hang: it feeds the
        breaker as a failure and counts toward quarantine.
        """
        record = self.health(name)
        if kind == "ok":
            record.ok += 1
        elif kind == "failed":
            record.failed += 1
        elif kind == "crash":
            record.crashes += 1
        elif kind == "hang":
            record.hangs += 1
        elif kind == "garbage":
            record.garbage += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown outcome kind: {kind!r}")
        transition = record.breaker.record(kind == "ok")
        if transition is not None:
            self._transitions.labels(self.net_id, transition).inc()
        if (
            kind in ("crash", "hang", "garbage")
            and name not in self.quarantined
            and record.poison_events >= self.config.quarantine_after
        ):
            return self._quarantine(name, record)
        return None

    def _quarantine(self, name: str, record: VpHealth) -> dict:
        kinds = [
            label
            for label, count in (
                ("hang", record.hangs),
                ("crash", record.crashes),
                ("garbage", record.garbage),
            )
            if count
        ]
        kind = kinds[0] if len(kinds) == 1 else "mixed"
        reason = {
            "vp": name,
            "kind": kind,
            "hangs": record.hangs,
            "crashes": record.crashes,
            "garbage": record.garbage,
            "failed": record.failed,
            "threshold": self.config.quarantine_after,
            "reason": (
                f"poison VP: {record.hangs} hang(s) + "
                f"{record.crashes} crash(es) + "
                f"{record.garbage} garbage attempt(s) reached the "
                f"quarantine threshold of {self.config.quarantine_after}"
            ),
        }
        self.quarantined[name] = reason
        self._quarantine_counter.labels(self.net_id, kind).inc()
        return reason

    # -- reporting ---------------------------------------------------------

    def breaker_states(self) -> Dict[str, str]:
        """``{vp: state}`` for every breaker not in the closed state."""
        return {
            name: record.breaker.state
            for name, record in sorted(self._records.items())
            if record.breaker.state != CircuitBreaker.CLOSED
        }
