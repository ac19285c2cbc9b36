"""The executor's collector discipline.

Every task body, in-process or in a pool worker, runs with automatic
collection off, between a freeze of every older object and a freeze of
what the body left (``gc.freeze``); the caller's setting comes back
afterwards, also when the body raises. :meth:`close` unfreezes what an
in-process executor froze. Pinned here:

* bodies run with a non-empty permanent generation, from a worker's
  first task on, and the parent's is empty again after ``close``;
* bodies see the collector off in-process, in an unsupervised and a
  supervised pool, and in spawned workers; the caller's setting is back
  after ``run_tasks``, whichever it was, and what a body left is frozen;
* the premise the discipline relies on: a survey, a faulted campaign, a
  daemon, a full study, a traced survey and the walk reference leave no
  cyclic garbage behind, so pausing and freezing delay no memory from
  being freed;
* the executor is the only module with a GC policy.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import multiprocessing
import tempfile
import types
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import parallel
from repro.core.study import run_full_study
from repro.core.survey import run_ping_survey, run_rr_survey
from repro.faults import (
    CampaignRunner,
    FaultPlan,
    SupervisionConfig,
    WorkerWatchdog,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import TRACER
from repro.scenarios.faults import FAULT_PRESETS
from repro.scenarios.presets import get_preset
from repro.service.credits import TenantQuota
from repro.service.daemon import MeasurementDaemon, ServiceConfig


def _freeze_count_body(state: dict, task: tuple, heartbeat) -> int:
    """Executor task body: the permanent generation's size."""
    return gc.get_freeze_count()


def _collector_on_body(state: dict, task: tuple, heartbeat) -> bool:
    """Executor task body: whether automatic collection is on; a task
    whose args say ``raise`` fails after looking."""
    enabled = gc.isenabled()
    if "raise" in task[2:]:
        raise RuntimeError(f"collector on: {enabled}")
    return enabled


#: What :func:`_leftover_body` keeps alive past its task.
_LEFTOVERS: list = []


def _leftover_body(state: dict, task: tuple, heartbeat) -> None:
    """Executor task body: keeps 1,000 new tracked objects alive."""
    _LEFTOVERS.append([[] for _ in range(1000)])


@pytest.fixture(scope="module")
def world():
    """A private tiny Internet for this module (seed 7)."""
    return get_preset("tiny", 7)


@contextlib.contextmanager
def _collector(enabled: bool):
    """The caller's collector setting for the ``with`` body."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestFreeze:
    def test_in_process_bodies_run_frozen(self, world):
        before = gc.get_freeze_count()
        with WorkerWatchdog(
            world, {"task_body": _freeze_count_body}, 1
        ) as executor:
            outcomes = executor.run_tasks([(0, "a"), (1, "b"), (2, "c")])
        assert all(kind == "ok" for _r, kind, _e in outcomes.values())
        assert all(outcomes[key][0] > 0 for key in range(3))
        assert before == 0 and gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "jobs, config",
        [(2, None), (1, SupervisionConfig())],
        ids=["pool", "supervised"],
    )
    def test_pool_bodies_run_frozen(self, world, jobs, config):
        """A worker freezes before its first task too; the parent,
        which runs no body, never freezes."""
        with WorkerWatchdog(
            world, {"task_body": _freeze_count_body}, jobs, config
        ) as executor:
            outcomes = executor.run_tasks([(i, str(i)) for i in range(4)])
            assert gc.get_freeze_count() == 0
        assert all(outcomes[key][1] == "ok" for key in range(4))
        assert all(outcomes[key][0] > 0 for key in range(4))
        assert gc.get_freeze_count() == 0


class TestPausedCollector:
    @pytest.mark.parametrize(
        "jobs, config",
        [(1, None), (2, None), (1, SupervisionConfig())],
        ids=["in-process", "pool", "supervised"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_bodies_run_paused_and_caller_setting_returns(
        self, world, jobs, config, enabled
    ):
        """The last task raises, so the setting the caller gets back
        is the one a failed body left."""
        tasks = [(0, "a"), (1, "b"), (2, "c", "raise")]
        with _collector(enabled):
            with WorkerWatchdog(
                world, {"task_body": _collector_on_body}, jobs, config
            ) as executor:
                outcomes = executor.run_tasks(tasks)
                assert gc.isenabled() is enabled
            assert gc.isenabled() is enabled
        assert outcomes[0] == (False, "ok", None)
        assert outcomes[1] == (False, "ok", None)
        assert outcomes[2][1:] == (
            "failed", "RuntimeError: collector on: False"
        )

    def test_spawned_workers_run_bodies_paused(self, world, monkeypatch):
        """A spawned worker starts with the collector on, like any
        fresh interpreter; its bodies still run with it off."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            parallel, "multiprocessing",
            types.SimpleNamespace(get_context=lambda: spawn),
        )
        with WorkerWatchdog(
            world, {"task_body": _collector_on_body}, 2
        ) as executor:
            outcomes = executor.run_tasks([(i, str(i)) for i in range(4)])
        assert all(outcomes[key] == (False, "ok", None) for key in range(4))
        assert gc.isenabled()

    def test_in_process_bodies_leave_their_objects_frozen(self, world):
        """Unfrozen, the body's leftovers would be the young heap the
        next collection walks. ``gc.get_objects()`` lists every tracked
        object outside the permanent generation."""
        try:
            with WorkerWatchdog(
                world, {"task_body": _leftover_body}, 1
            ) as executor:
                executor.run_tasks([(0, "a")])
                collectable = {id(obj) for obj in gc.get_objects()}
            (left,) = _LEFTOVERS
            assert all(gc.is_tracked(obj) for obj in [left, *left])
            assert not any(id(obj) in collectable for obj in [left, *left])
        finally:
            _LEFTOVERS.clear()


# ---------------------------------------------------------------------------
# The acyclic-heap premise.
# ---------------------------------------------------------------------------

SPECS = [
    {"tenant": "alice", "name": "rr-a", "kind": "rr", "target_count": 8,
     "vp_policy": "mlab", "vp_limit": 2},
    {"tenant": "bob", "name": "ping-b", "kind": "ping",
     "target_count": 5, "vp_policy": "planetlab", "vp_limit": 1},
]


def _survey(world, tmp: Path) -> None:
    run_rr_survey(world, dests=list(world.hitlist)[:60], jobs=1)


def _campaign(world, tmp: Path) -> None:
    CampaignRunner(
        world,
        plan=FaultPlan(
            seed=11,
            specs=FAULT_PRESETS["chaos"] + FAULT_PRESETS["misbehave"],
        ),
        max_retries=3,
        checkpoint_path=tmp / "campaign.ckpt",
        quarantine_path=tmp / "sidecar.json",
    ).run(targets=list(world.hitlist)[:40], vps=list(world.vps)[:6])


def _daemon(world, tmp: Path) -> None:
    daemon = MeasurementDaemon(
        world,
        ServiceConfig(
            stream_dir=tmp / "streams",
            jobs=1,
            quota=TenantQuota(
                initial_credits=120.0, accrual_per_round=40.0,
                balance_cap=240.0, max_probes_per_spec=200,
            ),
            checkpoint_path=tmp / "service.ckpt",
        ),
        registry=MetricsRegistry(),
    )
    for record in SPECS:
        assert daemon.submit(record)["ok"]
    daemon.run()


def _study(world, tmp: Path) -> None:
    """Both §3.1 studies: the ping survey's shards, then the RR survey."""
    run_full_study(world)


def _traced_survey(world, tmp: Path) -> None:
    TRACER.configure(True)
    try:
        run_rr_survey(world, dests=list(world.hitlist)[:60], jobs=1)
    finally:
        TRACER.configure(False)
        TRACER.reset()


def _walk_reference(world, tmp: Path) -> None:
    """The walk the parity tests compare replay against."""
    world.prober.batching = False
    dests = list(world.hitlist)[:60]
    run_rr_survey(world, dests=dests, jobs=1)
    run_ping_survey(world, dests=dests, jobs=1)


@pytest.mark.parametrize(
    "run",
    [_survey, _campaign, _daemon, _study, _traced_survey, _walk_reference],
)
def test_runs_leave_no_cyclic_repro_garbage(run):
    """A fresh world, run with the collector off, then one collection
    that keeps (``DEBUG_SAVEALL``) whatever it finds unreachable, of
    any type."""
    world = get_preset("tiny", 7)
    gc.collect()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run(world, Path(tmp))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic, cyclic


# ---------------------------------------------------------------------------
# One place with a GC policy.
# ---------------------------------------------------------------------------

#: The ``gc`` calls that change what the collector does or when.
POLICY_CALLS = frozenset(
    {"freeze", "unfreeze", "disable", "enable", "collect", "set_threshold"}
)


def _policy_calls(path: Path) -> list:
    """``line: gc.<call>`` for every policy call in ``path``, however
    the ``gc`` module or its functions were imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules = {"gc"}
    functions = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "gc"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            functions.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name in POLICY_CALLS
            )
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
            and func.attr in POLICY_CALLS
        ) or (isinstance(func, ast.Name) and func.id in functions):
            found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def test_only_the_executor_has_a_gc_policy():
    root = Path(repro.__file__).parent
    executor = root / "core" / "parallel.py"
    offenders = {
        str(path.relative_to(root)): calls
        for path in sorted(root.rglob("*.py"))
        if path != executor
        for calls in [_policy_calls(path)]
        if calls
    }
    assert not offenders, offenders
    assert _policy_calls(executor)
