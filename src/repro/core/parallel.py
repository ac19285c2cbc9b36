"""The executor: one way to run keyed task bodies, in-process or pooled.

The paper's headline artifact is an all-VPs × all-prefixes ping-RR
campaign (§3.1). Its parallelism structure is exactly the one real
platforms exploit (each RIPE-Atlas/M-Lab vantage point paces and
probes independently): one VP's complete probe sequence shares no
*order-sensitive* state with any other VP's, so the campaign shards
cleanly across worker processes with one VP per task.

Determinism contract (enforced by ``Network.begin_vp_session`` and
tested byte-for-byte in ``tests/test_parallel_survey.py``):

* each VP probes its destinations in its own seeded order
  (``order_destinations(seed, salt=vp.name)``);
* each VP's sequence runs against **fresh token buckets** (rate-limiter
  state is per-worker by design, matching the paper's independent-VP
  pacing) and a **per-VP loss stream** seeded from ``(seed, vp.name)``;
* everything else the dataplane walk touches — router policies, hosts,
  routes, forward-path expansions — is value-deterministic, so
  warm caches change speed, never results.

Under those rules in-process and pooled execution produce the same
rows, and ``save_survey`` output is byte-identical for any ``jobs``.

:class:`WorkerWatchdog` is the only executor. Surveys, fault campaigns
and the measurement service all hand it *task bodies*: a payload dict
whose ``task_body`` is a module-level callable ``body(state, task,
heartbeat) -> result`` (``state`` is the payload plus ``scenario``),
and tasks that are picklable tuples ``(key, label, *args)``. Outcomes
come back as ``{key: (result_or_None, kind, error_or_None)}``, ``kind``
one of ``ok`` / ``failed`` / ``crash`` / ``hang``. Supervision is
config, not a second engine:

* **in-process** (``jobs=1``, ``config=None``): bodies run on the live
  scenario with ``heartbeat=None``; telemetry lands in the parent
  registry directly. The only place a body runs in-process.
* **unsupervised pool** (``jobs>=2``, ``config=None``): persistent
  workers, ``heartbeat=None``, no hang scan and no ``supervisor_*``
  series. A worker that dies is respawned and its task reported
  ``crash``.
* **supervised pool** (a
  :class:`~repro.faults.supervisor.SupervisionConfig`; one worker at
  ``jobs=1``): per-destination heartbeats, hung workers killed and
  respawned, their tasks re-queued within ``task_tries``, process
  deaths reported ``crash``, and per-task flight-recorder journals.

Pool plumbing: under the default ``fork`` start method workers inherit
the parent's scenario copy-on-write (zero rebuild cost); under
``spawn`` each worker rebuilds it from its
:class:`~repro.scenarios.internet.ScenarioParams` (bit-identical by
construction). Workers follow the parent's span-tracing setting and
its ``Prober.batching``, the walk-as-reference switch the parity tests
flip; both are read when the executor is built, so a worker walks or
replays alike under either start method. Each task ships home its
result plus a pruned metrics-registry snapshot, its span buffer, the
per-AS options-load delta and its probe sessions' elapsed simulated
times; the parent folds them in key order, so totals — and the
parent's clock — never depend on completion order. A killed attempt
ships nothing. Tasks may name an affinity group (a VP's ASN), and an
idle worker keeps to the groups it owns (:class:`_TaskQueue`), so a
pool resolves each ingress AS's routes and plans once; it steals a
task of a group it never ran only when that saves time
(:class:`_GroupTimes`).

Collector discipline: every task body, wherever it runs, runs with
automatic collection off (:func:`_collector_paused`). Right before the
body and again right after it, the executor calls ``gc.freeze()``;
then it restores the caller's setting, also when the body raises. The
freeze before covers what is older than a first body — the scenario
and, in a worker, the heap inherited at fork or rebuilt at spawn. The
freeze after covers what the body left, its resolved routes, stamp
plans and result included: without it, the first allocation after the
collector comes back on would start a collection over all of them, once
per task. So no collection runs during a body, and none afterwards
walks a body's leftovers. Frozen objects that fall out of use are still
freed by reference counting; only cyclic garbage would wait, and the
dataplane makes none (``tests/test_collector.py``). :meth:`close`
unfreezes what an in-process executor froze; workers exit at close.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.journal import DEFAULT_JOURNAL_CAPACITY, FlightRecorder
from repro.obs.metrics import (
    CounterFamily,
    HistogramFamily,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.spans import TRACER
from repro.scenarios.internet import Scenario, build_scenario

if TYPE_CHECKING:  # imported for annotations only: faults builds on core
    from repro.faults.supervisor import SupervisionConfig

__all__ = [
    "SurveyWorkerError",
    "WorkerWatchdog",
    "heartbeat_age_histogram",
    "supervisor_crash_counter",
    "supervisor_hang_counter",
    "supervisor_respawn_counter",
]

#: ``{key: (result_or_None, kind, error_or_None)}``.
Outcomes = Dict[object, Tuple[object, str, Optional[str]]]


class SurveyWorkerError(RuntimeError):
    """A survey task failed, attributed to the unit of work that owned it.

    Raw exceptions crossing a process boundary arrive in the parent
    stripped of any clue *which* task died — useless for a campaign
    that needs to retry (or report) the right vantage point. Survey
    callers therefore raise this error for a failed task, naming the
    task kind (``"rr"`` / ``"ping"``), the task index, and the owning
    VP (or shard).

    All constructor arguments are forwarded to ``RuntimeError`` so the
    exception round-trips through pickle (``BaseException`` pickles by
    re-calling ``__init__(*args)``).
    """

    def __init__(
        self, task_kind: str, index: int, name: str, message: str
    ) -> None:
        super().__init__(task_kind, index, name, message)
        self.task_kind = task_kind
        self.index = index
        self.name = name
        self.message = message

    def __str__(self) -> str:
        return (
            f"{self.task_kind} worker task {self.index} "
            f"({self.name}) failed: {self.message}"
        )


# ---------------------------------------------------------------------------
# Metric families (idempotently registered; supervised pools only).
# ---------------------------------------------------------------------------


def supervisor_hang_counter(registry: MetricsRegistry) -> CounterFamily:
    """``supervisor_hangs_total{net}`` — hung tasks the watchdog killed."""
    return registry.counter(
        "supervisor_hangs_total",
        "Worker tasks killed for missing their heartbeat deadline.",
        ("net",),
    )


def supervisor_crash_counter(registry: MetricsRegistry) -> CounterFamily:
    """``supervisor_worker_crashes_total{net}`` — workers that died."""
    return registry.counter(
        "supervisor_worker_crashes_total",
        "Worker processes that died mid-task (pipe EOF).",
        ("net",),
    )


def supervisor_respawn_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "supervisor_respawns_total",
        "Worker processes respawned by the watchdog.",
        ("net",),
    )


def heartbeat_age_histogram(registry: MetricsRegistry) -> HistogramFamily:
    """``supervisor_heartbeat_age_seconds{net}`` — observed at each
    watchdog poll for every busy worker."""
    return registry.histogram(
        "supervisor_heartbeat_age_seconds",
        "Age of busy workers' most recent heartbeat at watchdog polls.",
        ("net",),
        buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0),
    )


# ---------------------------------------------------------------------------
# Collector discipline (every mode; see the module docstring).
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Run one task body with automatic collection off, between a
    freeze of what is older and a freeze of what it left; restore the
    caller's setting, also when the body raises."""
    enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Worker side.
#
# ``_PARENT_SCENARIO`` is the fork-inheritance handoff: the parent sets
# it just while starting a worker; forked children see it and reuse the
# inherited (copy-on-write) scenario. Spawned children re-import this
# module, find it ``None``, and rebuild from the params.
# ---------------------------------------------------------------------------

_PARENT_SCENARIO: Optional[Scenario] = None


@contextlib.contextmanager
def _parent_scenario(scenario: Scenario) -> Iterator[None]:
    global _PARENT_SCENARIO
    _PARENT_SCENARIO = scenario
    try:
        yield
    finally:
        _PARENT_SCENARIO = None


def _compact_snapshot(snapshot: Dict[str, dict]) -> Dict[str, dict]:
    """Prune a worker snapshot before shipping it to the parent.

    Zero-valued series carry no information; gauges are process-local
    levels (cache sizes of a throwaway worker) whose last-write-wins
    merge semantics would stomp the parent's own values, so workers
    never ship them.
    """
    out: Dict[str, dict] = {}
    for name, family in snapshot.items():
        if family["type"] == "gauge":
            continue
        if family["type"] == "histogram":
            series = [s for s in family["series"] if s["count"]]
        else:
            series = [s for s in family["series"] if s["value"]]
        if series:
            out[name] = dict(family, series=series)
    return out


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_main(payload, setup, conn, heartbeat_value) -> None:
    """Long-lived worker loop: recv task, run the body, send result.

    ``heartbeat_value`` is the supervised pool's shared slot (``None``
    unsupervised). Supervised, it is bumped when a task is picked up,
    each time the body heartbeats (once per destination for probe
    bodies), and once more just before the (potentially large) result
    send — so a worker blocked handing bytes to a busy parent is never
    mistaken for a hung one.

    Flight recording (supervised only): each task's start and first
    destination are journalled into a :class:`FlightRecorder` and
    flushed at once, *incrementally*, over this same pipe as a tagged
    ``("journal", key, events)`` message. After that the body's
    heartbeats record and flush a ``progress`` event (destinations so
    far) at most once per the watchdog's ``poll_interval`` — the
    watchdog polls no faster, so fresher progress would go unread —
    and the task's end rides home with its result. So when the
    watchdog kills this process, the parent already holds its final
    recorded moments for the quarantine manifest, and the pipe carries
    messages per task and per poll, never per destination.
    """
    params, spans, batching, poll_interval = setup
    scenario = _PARENT_SCENARIO
    if scenario is None:
        scenario = build_scenario(params)
    scenario.prober.batching = batching
    network = scenario.network
    session_times: List[float] = []
    network.session_times = session_times
    TRACER.configure(spans)
    state = dict(payload, scenario=scenario)
    body = payload["task_body"]
    recorder = None if heartbeat_value is None else FlightRecorder()
    flushed_seq = 0

    def beat() -> float:
        now = time.monotonic()
        heartbeat_value.value = now
        return now

    def flush_journal(key) -> None:
        nonlocal flushed_seq
        delta = recorder.since(flushed_seq)
        if not delta:
            return
        try:
            conn.send(("journal", key, delta))
        except (OSError, BrokenPipeError):  # pragma: no cover
            return  # parent gone; the recv below will notice
        flushed_seq = recorder.last_seq

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        if task is None:  # orderly shutdown
            conn.close()
            return
        key, label = task[0], str(task[1])
        REGISTRY.reset()
        TRACER.reset()
        network.reset_options_load()
        session_times.clear()
        destinations = 0
        task_beat: Optional[Callable[[], None]] = None
        if recorder is not None:
            progress_due = beat() + poll_interval
            recorder.record(
                "task_start", vp=label, vp_index=key, args=list(task[2:])
            )
            flush_journal(key)

            def task_beat() -> None:
                nonlocal destinations, progress_due
                now = beat()
                destinations += 1
                if destinations == 1:
                    recorder.record("first_destination", vp=label)
                elif now >= progress_due:
                    recorder.record(
                        "progress", vp=label, destinations=destinations
                    )
                else:
                    return
                flush_journal(key)
                progress_due = now + poll_interval

        error: Optional[str] = None
        result = None
        try:
            with _collector_paused():
                result = body(state, task, task_beat)
        except Exception as exc:  # noqa: BLE001 — shipped to the parent
            error = _describe(exc)
        journal: List[dict] = []
        if recorder is not None:
            recorder.record(
                "task_end",
                vp=label,
                status="failed" if error else "ok",
                error=error,
                destinations=destinations,
            )
            beat()  # about to block in send; still alive
            journal = recorder.since(flushed_seq)
            flushed_seq = recorder.last_seq
        conn.send(
            (
                key,
                result,
                _compact_snapshot(REGISTRY.snapshot()),
                dict(network.options_load),
                session_times,
                error,
                TRACER.snapshot(),
                journal,
            )
        )


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "heartbeat", "task", "tries")

    def __init__(self, process, conn, heartbeat) -> None:
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat  # shared slot; None unsupervised
        self.task: Optional[tuple] = None
        self.tries = 0  # watchdog-level tries consumed by current task


class _GroupTimes:
    """What a pool has measured of its affinity groups' tasks.

    Every duration runs from dispatch to result on the parent's
    monotonic clock. A group's *cold* time is its first measured task's,
    which ran on a worker that had never run the group and so resolved
    its routes and compiled its plans; its *warm* time is the last one
    measured on a worker that had run the group before. ``ran`` maps
    each worker to the groups it has finished a task of, and
    ``running`` each busy worker to its task's ``(group, warm,
    dispatched)``. Only a task that returns a result counts: a failed
    or killed attempt records nothing, and a respawned worker starts
    with no history. Workers are plain keys here, never read.
    """

    def __init__(self) -> None:
        self.cold: Dict[Hashable, float] = {}
        self.warm: Dict[Hashable, float] = {}
        #: The last warm time measured in any group.
        self.last_warm: Optional[float] = None
        self.ran: Dict[object, set] = {}
        self.running: Dict[object, Tuple[Hashable, bool, float]] = {}

    def start(self, worker: object, group: Hashable, now: float) -> None:
        self.running[worker] = (
            group, group in self.ran.get(worker, ()), now
        )

    def finish(self, worker: object, now: float, ok: bool) -> None:
        group, warm, dispatched = self.running.pop(worker)
        if not ok or group is None:
            return
        if warm:
            self.warm[group] = self.last_warm = now - dispatched
        else:
            self.cold.setdefault(group, now - dispatched)
        self.ran.setdefault(worker, set()).add(group)

    def forget(self, worker: object) -> None:
        """Drop a killed worker's history and running task."""
        self.ran.pop(worker, None)
        self.running.pop(worker, None)

    def expected(self, group: Hashable, warm: bool) -> Optional[float]:
        """A task's expected duration: on a worker that ran its group,
        the group's warm time (until one is measured, the last warm time
        of any group, else the group's cold time); otherwise the group's
        cold time. ``None`` if that is not measured either."""
        if warm:
            estimate = self.warm.get(group, self.last_warm)
            if estimate is not None:
                return estimate
        return self.cold.get(group)


class _TaskQueue:
    """One round's queued tasks, handed to idle workers by group.

    A group is what the caller names per task — a VP's ASN, since
    every task of one ingress AS reads the same routes and stamp plans
    — and ``owners`` maps each group to the worker whose caches hold
    it. An idle worker takes the first of:

    1. the oldest queued task of a group it owns;
    2. the oldest task of the unowned group with the most queued
       tasks, and owns that group from then on;
    3. the newest queued task of any group it may steal from (the
       thief warms that group's caches once, so no worker idles while
       a task waits that it can finish sooner than the owner).

    ``times`` (:class:`_GroupTimes`; default: none measured) holds the
    pool's durations. A thief that never ran a group steals from it
    only when the group's cold time is below its owner's *drain time*:
    what remains of the owner's running task plus each task queued in
    the owner's groups times that group's warm time. It steals
    regardless when the group's cold time or a duration the drain needs
    is not measured yet, or when the owner's running task has already
    run longer than that cold time (a hung owner's queue still drains
    before the watchdog fires). A thief that may steal from no group
    takes nothing and waits; ``recheck`` says when the first owner it
    waited on would turn overdue.

    Ungrouped tasks (group ``None``) are never owned, so a round
    without groups is dispatched first in, first out.
    """

    def __init__(
        self,
        tasks: List[tuple],
        groups: Optional[Sequence[Hashable]],
        owners: Dict[Hashable, _WorkerHandle],
        times: Optional[_GroupTimes] = None,
    ) -> None:
        self._owners = owners
        self._times = _GroupTimes() if times is None else times
        #: group -> its queued ``(sequence, task)``s, oldest first.
        self._queues: Dict[Hashable, deque] = {}
        for seq, task in enumerate(tasks):
            group = None if groups is None else groups[seq]
            self._queues.setdefault(group, deque()).append((seq, task))
        self._size = len(tasks)
        #: When the owner of a steal :meth:`take` declined turns overdue
        #: (parent monotonic time; the earliest such), so the pool can
        #: wake then and ask again.
        self.recheck: Optional[float] = None

    def __bool__(self) -> bool:
        return self._size > 0

    def take(
        self, handle: _WorkerHandle, now: Optional[float] = None
    ) -> Optional[Tuple[Hashable, tuple]]:
        """``(group, (sequence, task))`` for idle ``handle``, or ``None``
        when it should wait (step 3 found nothing worth stealing);
        ``now`` is the parent's monotonic time (default: read it)."""
        owners = self._owners
        queued = [(g, q) for g, q in self._queues.items() if q]
        mine = [(g, q) for g, q in queued if owners.get(g) is handle]
        if mine:
            group, queue = min(mine, key=lambda gq: gq[1][0][0])
            item = queue.popleft()
        else:
            free = [(g, q) for g, q in queued if g not in owners]
            if free:
                group, queue = max(
                    free, key=lambda gq: (len(gq[1]), -gq[1][0][0])
                )
                if group is not None:
                    owners[group] = handle
                item = queue.popleft()
            else:
                now = time.monotonic() if now is None else now
                queued = [
                    (g, q) for g, q in queued
                    if self._may_steal(handle, g, now)
                ]
                if not queued:
                    return None
                group, queue = max(queued, key=lambda gq: gq[1][-1][0])
                item = queue.pop()
        self._size -= 1
        return group, item

    def _may_steal(self, thief: object, group: Hashable, now: float) -> bool:
        """Step 3's condition for ``thief`` and another worker's
        ``group`` (see the class docstring)."""
        times = self._times
        cold = times.cold.get(group)
        if cold is None or group in times.ran.get(thief, ()):
            return True
        owner = self._owners[group]
        drain = 0.0
        since = now  # when the owner's running task started
        running = times.running.get(owner)
        if running is not None:
            own_group, warm, since = running
            elapsed = now - since
            expected = times.expected(own_group, warm)
            if elapsed > cold or expected is None:
                return True
            drain = max(expected - elapsed, 0.0)
        for other, queue in self._queues.items():
            if queue and self._owners.get(other) is owner:
                expected = times.expected(other, True)
                if expected is None:
                    return True
                drain += len(queue) * expected
        if cold < drain:
            return True
        if self.recheck is None or since + cold < self.recheck:
            self.recheck = since + cold
        return False

    def put_back(self, group: Hashable, item: tuple) -> None:
        """Requeue a taken ``item`` where it was (its send failed)."""
        queue = self._queues[group]
        queue.insert(sum(1 for queued in queue if queued[0] < item[0]), item)
        self._size += 1


class WorkerWatchdog:
    """The executor: runs keyed task bodies in-process or on a pool.

    ``config`` is a :class:`~repro.faults.supervisor.SupervisionConfig`
    or ``None`` (see the module docstring for the three modes). Pool
    workers start on the first :meth:`run_tasks` and persist until
    :meth:`close`, so a campaign's retry rounds or a daemon's
    scheduler rounds reuse warm workers.

    Telemetry (metrics snapshots, span buffers, per-AS options load,
    probe-session clock time) from *successful and failed* pooled
    attempts is merged into the parent in key order — independent of
    completion order. Killed attempts ship nothing.

    Pooled dispatch follows the groups :meth:`run_tasks` is handed
    (see :class:`_TaskQueue`). Ownership and the groups' measured
    durations (:class:`_GroupTimes`) live on the executor, so a
    campaign's retry rounds reuse them; a respawned worker's groups
    become unowned and its history goes, because its caches died with
    it.
    """

    def __init__(
        self,
        scenario: Scenario,
        payload: dict,
        jobs: int,
        config: Optional["SupervisionConfig"] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be positive: {jobs}")
        self.scenario = scenario
        self.payload = payload
        self.jobs = int(jobs)
        self.config = config
        self._ctx = multiprocessing.get_context()
        registry = REGISTRY if registry is None else registry
        self._registry = registry
        #: Worker setup the executor owns: how to rebuild the scenario
        #: (spawn), the parent's span-tracing and walk-as-reference
        #: switches, and the watchdog's poll interval, which paces
        #: supervised workers' journal progress.
        self._setup = (
            scenario.params,
            TRACER.enabled,
            scenario.prober.batching,
            None if config is None else config.poll_interval,
        )
        if config is not None:
            net_id = scenario.network.net_id
            self._hangs = supervisor_hang_counter(registry).labels(net_id)
            self._crashes = supervisor_crash_counter(registry).labels(net_id)
            self._respawns = supervisor_respawn_counter(registry).labels(
                net_id
            )
            self._hb_ages = heartbeat_age_histogram(registry).labels(net_id)
        self._workers: List[_WorkerHandle] = []
        #: Affinity group -> the live worker that owns it.
        self._owners: Dict[Hashable, _WorkerHandle] = {}
        self._times = _GroupTimes()
        self.hangs_detected = 0
        self.workers_respawned = 0
        #: Per-key flight-recorder mirror (supervised only): the last
        #: :data:`~repro.obs.journal.DEFAULT_JOURNAL_CAPACITY` journal
        #: events each key's workers flushed over their pipes, plus
        #: synthetic ``watchdog_kill`` entries the parent adds when it
        #: kills a worker. Survives :meth:`close` — quarantine
        #: manifests read it after the pool is gone.
        self.journals: Dict[object, deque] = {}
        #: Task key → display label (``task[1]``).
        self._labels: Dict[object, str] = {}
        #: The original exception of each task that failed in-process
        #: during the last :meth:`run_tasks` (pooled failures cross the
        #: pipe as strings only).
        self.exceptions: Dict[object, Exception] = {}
        #: Optional per-poll observer ``callback(watchdog)`` of the
        #: supervised pool — the campaign's live status publisher.
        self.on_poll: Optional[Callable[["WorkerWatchdog"], None]] = None
        #: Whether an in-process body ran since the last :meth:`close`,
        #: so this executor froze the parent's heap.
        self._frozen = False

    # -- lifecycle ---------------------------------------------------------

    def _spawn_worker(self) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = None
        if self.config is not None:
            heartbeat = self._ctx.Value("d", time.monotonic(), lock=False)
        with _parent_scenario(self.scenario):
            process = self._ctx.Process(
                target=_worker_main,
                args=(self.payload, self._setup, child_conn, heartbeat),
                daemon=True,
            )
            process.start()
        child_conn.close()  # our copy; the worker holds the live end
        return _WorkerHandle(process, parent_conn, heartbeat)

    def _kill_worker(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join(timeout=5.0)
        else:
            process.join(timeout=5.0)

    def _respawn(self, handle: _WorkerHandle) -> _WorkerHandle:
        self._kill_worker(handle)
        for group in [g for g, h in self._owners.items() if h is handle]:
            del self._owners[group]
        self._times.forget(handle)
        fresh = self._spawn_worker()
        index = self._workers.index(handle)
        self._workers[index] = fresh
        if self.config is not None:
            self._respawns.inc()
        self.workers_respawned += 1
        return fresh

    def close(self) -> None:
        """Orderly shutdown: ask politely, then terminate stragglers;
        unfreeze what in-process bodies froze."""
        for handle in self._workers:
            try:
                handle.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=2.0)
            self._kill_worker(handle)
        self._workers = []
        self._owners.clear()
        self._times = _GroupTimes()
        if self._frozen:
            gc.unfreeze()
            self._frozen = False

    def __enter__(self) -> "WorkerWatchdog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- flight recorder / liveness views ----------------------------------

    def _store_journal(self, key, events: List[dict]) -> None:
        store = self.journals.get(key)
        if store is None:
            store = deque(maxlen=DEFAULT_JOURNAL_CAPACITY)
            self.journals[key] = store
        store.extend(events)

    def journal_tail(self, key, n: Optional[int] = None) -> List[dict]:
        """The last ``n`` (default all kept) journal events for a key —
        what the quarantine manifest embeds as the post-mortem."""
        store = self.journals.get(key)
        if not store:
            return []
        events = list(store)
        if n is not None:
            events = events[-n:]
        return [dict(event) for event in events]

    def journals_by_name(self) -> Dict[str, List[dict]]:
        """``{task_label: events}`` for every task with journal history
        (VP names for campaign tasks)."""
        return {
            self._labels.get(key, str(key)): [
                dict(event) for event in store
            ]
            for key, store in sorted(self.journals.items())
            if store
        }

    def heartbeat_ages(self) -> Dict[str, float]:
        """``{task_label: seconds}`` since each busy worker's last beat."""
        now = time.monotonic()
        return {
            self._labels.get(
                handle.task[0], str(handle.task[0])
            ): max(now - handle.heartbeat.value, 0.0)
            for handle in self._workers
            if handle.task is not None and handle.heartbeat is not None
        }

    # -- execution ---------------------------------------------------------

    def run_tasks(
        self,
        tasks: List[tuple],
        groups: Optional[Sequence[Hashable]] = None,
    ) -> Outcomes:
        """Execute one round of ``(key, label, *args)`` tasks.

        ``groups``, if given, names each task's affinity group (one per
        task, ``None`` for none); a pool keeps each group's tasks on
        the worker that owns it. It changes which worker runs a task,
        never an outcome.
        """
        self.exceptions = {}
        if not tasks:
            return {}
        if self.config is None and self.jobs == 1:
            return self._run_in_process(tasks)
        return self._run_pooled(tasks, groups)

    def _run_in_process(self, tasks: List[tuple]) -> Outcomes:
        outcomes: Outcomes = {}
        state = dict(self.payload, scenario=self.scenario)
        body = self.payload["task_body"]
        for task in tasks:
            self._frozen = True
            try:
                with _collector_paused():
                    result = body(state, task, None)
                outcomes[task[0]] = (result, "ok", None)
            except Exception as exc:  # noqa: BLE001 — reported
                self.exceptions[task[0]] = exc
                outcomes[task[0]] = (None, "failed", _describe(exc))
        return outcomes

    def _run_pooled(
        self, tasks: List[tuple], groups: Optional[Sequence[Hashable]]
    ) -> Outcomes:
        outcomes: Outcomes = {}
        supervised = self.config is not None
        for task in tasks:
            self._labels[task[0]] = str(task[1])
        want = max(1, min(self.jobs, len(tasks)))
        while len(self._workers) < want:
            self._workers.append(self._spawn_worker())

        group_times = self._times
        queue = _TaskQueue(tasks, groups, self._owners, group_times)
        raw_results: List[tuple] = []
        in_flight = 0

        def send(handle: _WorkerHandle, task: tuple) -> bool:
            handle.task = task
            if handle.heartbeat is not None:
                handle.heartbeat.value = time.monotonic()
            try:
                handle.conn.send(task)
                return True
            except (OSError, BrokenPipeError):
                handle.task = None
                handle.tries = 0
                return False

        def dispatch() -> None:
            nonlocal in_flight
            queue.recheck = None
            for handle in self._workers:
                if not queue:
                    return
                if handle.task is not None:
                    continue
                taken = queue.take(handle)
                if taken is None:
                    continue  # nothing worth stealing; its owner runs it
                group, item = taken
                handle.tries += 1
                if not send(handle, item[1]):
                    # Died between tasks; revive and retry dispatch.
                    queue.put_back(group, item)
                    self._respawn(handle)
                    return
                group_times.start(handle, group, time.monotonic())
                in_flight += 1

        def fail_task(
            handle: _WorkerHandle, kind: str, detail: str
        ) -> None:
            """Task's worker hung/died: supervised, re-queue within the
            try budget; otherwise report the outcome for this round."""
            nonlocal in_flight
            task = handle.task
            assert task is not None
            if supervised:
                # The kill itself becomes the journal's final entry —
                # the parent-side epilogue to whatever the worker last
                # flushed.
                self._store_journal(
                    task[0],
                    [
                        {
                            "seq": None,
                            "wall": time.time(),
                            "kind": "watchdog_kill",
                            "reason": kind,
                            "detail": detail,
                        }
                    ],
                )
            tries = handle.tries
            handle.task = None
            in_flight -= 1
            group = group_times.running[handle][0]
            fresh = self._respawn(handle)
            if supervised and tries < self.config.task_tries:
                fresh.tries = tries + 1  # budget follows the task
                if send(fresh, task):
                    group_times.start(fresh, group, time.monotonic())
                    in_flight += 1
                    return
            outcomes[task[0]] = (None, kind, detail)

        dispatch()
        while in_flight or queue:
            if not in_flight:
                # A worker died at dispatch; the queue still holds its
                # task and a fresh worker is up — try again.
                dispatch()
                continue
            busy = {
                handle.conn: handle
                for handle in self._workers
                if handle.task is not None
            }
            timeout = self.config.poll_interval if supervised else None
            if queue.recheck is not None:
                # A declined steal turns overdue then: dispatch again.
                wake = max(queue.recheck - time.monotonic(), 0.0)
                timeout = wake if timeout is None else min(timeout, wake)
            ready = _mp_wait(list(busy), timeout=timeout)
            now = time.monotonic()
            for conn in ready:
                handle = busy[conn]
                if handle.task is None:  # pragma: no cover - raced
                    continue
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-task: a crash.
                    if supervised:
                        self._crashes.inc()
                    fail_task(
                        handle,
                        "crash",
                        "worker process died mid-task "
                        f"(exitcode {handle.process.exitcode})",
                    )
                    continue
                if message[0] == "journal":
                    # Incremental flight-recorder flush; not a result.
                    _tag, key, events = message
                    self._store_journal(key, events)
                    continue
                raw_results.append(message)
                key, result, _snap, _load, _times, error, _spans, journal = (
                    message
                )
                if journal:
                    self._store_journal(key, journal)
                outcomes[key] = (
                    result, "ok" if error is None else "failed", error
                )
                group_times.finish(handle, now, error is None)
                handle.task = None
                handle.tries = 0
                in_flight -= 1
            if supervised:
                # Hang scan: every busy worker's heartbeat age.
                for handle in list(self._workers):
                    if handle.task is None:
                        continue
                    age = now - handle.heartbeat.value
                    self._hb_ages.observe(max(age, 0.0))
                    if age > self.config.hang_timeout:
                        self._hangs.inc()
                        self.hangs_detected += 1
                        fail_task(
                            handle,
                            "hang",
                            f"no heartbeat for {age:.2f}s "
                            f"(deadline {self.config.hang_timeout}s)",
                        )
                if self.on_poll is not None:
                    self.on_poll(self)
            dispatch()

        # Merge telemetry in key order so parent totals are independent
        # of completion order. Span buffers merge under the currently
        # open span (the dispatching survey or round).
        raw_results.sort(key=lambda item: item[0])
        network = self.scenario.network
        options_load = network.options_load
        for (
            _key, _result, snapshot, load_delta, times, _e, spans, _j
        ) in raw_results:
            self._registry.merge(snapshot)
            TRACER.merge(spans)
            for asn, count in load_delta.items():
                options_load[asn] = options_load.get(asn, 0) + count
            # The additions end_vp_session makes in-process, in the
            # same order.
            for elapsed in times:
                network.clock.advance(elapsed)
        return outcomes
