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
  routing trees, forward-path expansions — is value-deterministic, so
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
construction). Workers follow the parent's span-tracing and
batched-dataplane settings, read when the executor is built. Each task
ships home its result plus a pruned metrics-registry snapshot, its
span buffer and the per-AS options-load delta; the parent folds them
in key order, so totals never depend on completion order. A killed
attempt ships nothing.

Collector discipline: right before every task body the executor calls
``gc.freeze()``, wherever the body runs. Everything older than the task
— the scenario, its routing trees and stamp plans, earlier tasks'
results and, in a worker, the heap inherited at fork — moves to the
permanent generation, so collections during the task walk only what
the task allocated. Frozen objects that fall out of use are still
freed by reference counting; only cyclic garbage would wait, and the
dataplane makes none (``tests/test_collector.py``). :meth:`close`
unfreezes what an in-process executor froze; workers exit at close.
While bodies run, one ``gc.callbacks`` hook counts collections and
their pauses into ``gc_collections_total{generation}`` and
``gc_pause_seconds_total{generation}`` — per-process measurements,
summed home from workers like every other counter.
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
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.journal import (
    DEFAULT_JOURNAL_CAPACITY,
    JOURNAL_PROGRESS_EVERY,
    FlightRecorder,
)
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
# Collector telemetry (every mode; see "Collector discipline" above).
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _collector_telemetry(registry: MetricsRegistry) -> Iterator[None]:
    """Count every collection in the ``with`` body into
    ``gc_collections_total{generation}`` and its pause into
    ``gc_pause_seconds_total{generation}``.

    The hook can fire inside any allocation, a registry snapshot's
    iteration included, so its series are bound up front and it only
    ever adds to them.
    """
    collections = registry.counter(
        "gc_collections_total",
        "Cyclic-collector runs while executor task bodies ran.",
        ("generation",),
    )
    pauses = registry.counter(
        "gc_pause_seconds_total",
        "Wall seconds of cyclic-collector runs while executor task "
        "bodies ran.",
        ("generation",),
    )
    series = [
        (collections.labels(str(gen)), pauses.labels(str(gen)))
        for gen in range(3)
    ]
    started = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
            return
        count, pause = series[info["generation"]]
        count.inc()
        pause.inc(time.perf_counter() - started)

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


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
    """A pool worker's whole life, with its collections counted."""
    with _collector_telemetry(REGISTRY):
        _worker_serve(payload, setup, conn, heartbeat_value)


def _worker_serve(payload, setup, conn, heartbeat_value) -> None:
    """Long-lived worker loop: recv task, run the body, send result.

    ``heartbeat_value`` is the supervised pool's shared slot (``None``
    unsupervised). Supervised, it is bumped when a task is picked up,
    each time the body heartbeats (once per destination for probe
    bodies), and once more just before the (potentially large) result
    send — so a worker blocked handing bytes to a busy parent is never
    mistaken for a hung one.

    Flight recording (supervised only): every task start, first
    destination, every
    :data:`~repro.obs.journal.JOURNAL_PROGRESS_EVERY`-th destination,
    and every task end is journalled into a :class:`FlightRecorder`
    and flushed *incrementally* over this same pipe as a tagged
    ``("journal", key, events)`` message — so when the watchdog kills
    this process, the parent already holds its final recorded moments
    for the quarantine manifest.
    """
    params, spans, batch = setup
    scenario = _PARENT_SCENARIO
    if scenario is None:
        scenario = build_scenario(params)
    TRACER.configure(spans)
    scenario.prober.batching = batch
    state = dict(payload, scenario=scenario)
    body = payload["task_body"]
    recorder = None if heartbeat_value is None else FlightRecorder()
    flushed_seq = 0

    def beat() -> None:
        heartbeat_value.value = time.monotonic()

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
        scenario.network.options_load.clear()
        destinations = 0
        task_beat: Optional[Callable[[], None]] = None
        if recorder is not None:
            beat()
            recorder.record(
                "task_start", vp=label, vp_index=key, args=list(task[2:])
            )
            flush_journal(key)

            def task_beat() -> None:
                nonlocal destinations
                beat()
                destinations += 1
                if destinations == 1:
                    recorder.record("first_destination", vp=label)
                    flush_journal(key)
                elif destinations % JOURNAL_PROGRESS_EVERY == 0:
                    recorder.record(
                        "progress", vp=label, destinations=destinations
                    )
                    flush_journal(key)

        error: Optional[str] = None
        result = None
        gc.freeze()
        try:
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
                dict(scenario.network.options_load),
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


class WorkerWatchdog:
    """The executor: runs keyed task bodies in-process or on a pool.

    ``config`` is a :class:`~repro.faults.supervisor.SupervisionConfig`
    or ``None`` (see the module docstring for the three modes). Pool
    workers start on the first :meth:`run_tasks` and persist until
    :meth:`close`, so a campaign's retry rounds or a daemon's
    scheduler rounds reuse warm workers.

    Telemetry (metrics snapshots, span buffers, per-AS options load)
    from *successful and failed* pooled attempts is merged into the
    parent in key order — independent of completion order. Killed
    attempts ship nothing.
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
        #: (spawn) and the parent's tracing and dataplane switches.
        self._setup = (
            scenario.params, TRACER.enabled, scenario.prober.batching
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

    def run_tasks(self, tasks: List[tuple]) -> Outcomes:
        """Execute one round of ``(key, label, *args)`` tasks."""
        self.exceptions = {}
        if not tasks:
            return {}
        if self.config is None and self.jobs == 1:
            return self._run_in_process(tasks)
        return self._run_pooled(tasks)

    def _run_in_process(self, tasks: List[tuple]) -> Outcomes:
        outcomes: Outcomes = {}
        state = dict(self.payload, scenario=self.scenario)
        body = self.payload["task_body"]
        with _collector_telemetry(self._registry):
            for task in tasks:
                gc.freeze()
                self._frozen = True
                try:
                    outcomes[task[0]] = (body(state, task, None), "ok", None)
                except Exception as exc:  # noqa: BLE001 — reported
                    self.exceptions[task[0]] = exc
                    outcomes[task[0]] = (None, "failed", _describe(exc))
        return outcomes

    def _run_pooled(self, tasks: List[tuple]) -> Outcomes:
        outcomes: Outcomes = {}
        supervised = self.config is not None
        for task in tasks:
            self._labels[task[0]] = str(task[1])
        want = max(1, min(self.jobs, len(tasks)))
        while len(self._workers) < want:
            self._workers.append(self._spawn_worker())

        queue: deque = deque(tasks)
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
            for handle in self._workers:
                if not queue:
                    return
                if handle.task is not None:
                    continue
                task = queue.popleft()
                handle.tries += 1
                if not send(handle, task):
                    # Died between tasks; revive and retry dispatch.
                    queue.appendleft(task)
                    self._respawn(handle)
                    return
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
            fresh = self._respawn(handle)
            if supervised and tries < self.config.task_tries:
                fresh.tries = tries + 1  # budget follows the task
                if send(fresh, task):
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
            ready = _mp_wait(
                list(busy),
                timeout=self.config.poll_interval if supervised else None,
            )
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
                key, result, _snap, _load, error, _spans, journal = message
                if journal:
                    self._store_journal(key, journal)
                outcomes[key] = (
                    result, "ok" if error is None else "failed", error
                )
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
        options_load = self.scenario.network.options_load
        for _key, _result, snapshot, load_delta, _e, spans, _j in raw_results:
            self._registry.merge(snapshot)
            TRACER.merge(spans)
            for asn, count in load_delta.items():
                options_load[asn] = options_load.get(asn, 0) + count
        return outcomes
