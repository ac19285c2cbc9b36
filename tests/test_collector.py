"""The executor's collector discipline.

Right before every task body, in-process or in a pool worker, the
executor freezes every older object (``gc.freeze``), so collections
during the task walk only what the task allocated; :meth:`close`
unfreezes what an in-process executor froze. While bodies run, one
``gc.callbacks`` hook counts collections and their pauses into the
registry. Pinned here:

* bodies run with a non-empty permanent generation, from a worker's
  first task on, and the parent's is empty again after ``close``;
* the collector counters exist after in-process and pooled surveys,
  and the hook is gone once the executor closes;
* the premise the freeze relies on: a survey, a faulted campaign and
  a daemon leave no cyclic garbage of ``repro`` objects behind, so
  freezing them delays no memory from being freed.
"""

from __future__ import annotations

import gc
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.survey import run_rr_survey
from repro.faults import (
    CampaignRunner,
    FaultPlan,
    SupervisionConfig,
    WorkerWatchdog,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.scenarios.faults import FAULT_PRESETS
from repro.scenarios.presets import get_preset
from repro.service.credits import TenantQuota
from repro.service.daemon import MeasurementDaemon, ServiceConfig


def _freeze_count_body(state: dict, task: tuple, heartbeat) -> int:
    """Executor task body: the permanent generation's size."""
    return gc.get_freeze_count()


@pytest.fixture(scope="module")
def world():
    """A private tiny Internet for this module (seed 7)."""
    return get_preset("tiny", 7)


def _collections(snapshot: dict) -> int:
    family = snapshot.get("gc_collections_total")
    return sum(s["value"] for s in family["series"]) if family else 0


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


class TestCollectorTelemetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_survey_counts_collections(self, jobs, capsys):
        """A cold survey (trees and plans built in the bodies)."""
        world = get_preset("tiny", 7)
        hooks = len(gc.callbacks)
        before = _collections(REGISTRY.snapshot())
        run_rr_survey(world, jobs=jobs)
        snapshot = REGISTRY.snapshot()
        assert "gc_collections_total" in snapshot
        assert "gc_pause_seconds_total" in snapshot
        assert _collections(snapshot) > before
        assert len(gc.callbacks) == hooks
        assert main(["stats", "--preset", "tiny"]) == 0
        assert "collector (" in capsys.readouterr().out


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


@pytest.mark.parametrize("run", [_survey, _campaign, _daemon])
def test_runs_leave_no_cyclic_repro_garbage(run):
    """A fresh world, run with the collector off, then one collection
    that keeps (``DEBUG_SAVEALL``) whatever it finds unreachable."""
    world = get_preset("tiny", 7)
    gc.collect()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run(world, Path(tmp))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = Counter(
            f"{obj.__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if str(getattr(obj, "__module__", "")).startswith("repro")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic, cyclic
