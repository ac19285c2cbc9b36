"""Parallel survey engine: determinism, caching, and persistence.

The hard contract under test: ``run_rr_survey(..., jobs=N)`` must
produce **byte-identical** ``save_survey`` output to the serial path,
for any seed and any worker count — the per-VP probe sessions
(rebased clock, fresh token buckets, per-VP loss streams) make one
VP's sequence independent of every other VP's.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.core.parallel import WorkerWatchdog, _TaskQueue
from repro.core.study import run_full_study
from repro.core.survey import (
    load_survey,
    run_ping_survey,
    run_rr_survey,
    save_survey,
)
from repro.faults import CampaignRunner
from repro.probing.prober import _MX_CACHE_MAX
from repro.scenarios.internet import Scenario
from repro.scenarios.presets import get_preset

#: Parity runs use a subset of the tiny world so the matrix of
#: (seed x jobs) stays fast; the contract is per-(VP, dest) so a
#: subset exercises it fully.
N_VPS = 5
N_DESTS = 40


def _campaign_bytes(seed: int, jobs: int) -> bytes:
    """One RR campaign on a fresh tiny world, as persisted JSON."""
    scenario = get_preset("tiny", seed)
    targets = list(scenario.hitlist)[:N_DESTS]
    vps = list(scenario.vps)[:N_VPS]
    survey = run_rr_survey(scenario, dests=targets, vps=vps, jobs=jobs)
    from pathlib import Path
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "survey.json"
        save_survey(survey, out)
        return out.read_bytes()


class TestByteParity:
    @pytest.mark.parametrize("seed", [2016, 7])
    def test_parallel_matches_serial(self, seed):
        serial = _campaign_bytes(seed, jobs=1)
        for jobs in (2, 4):
            assert _campaign_bytes(seed, jobs=jobs) == serial, (
                f"jobs={jobs} diverged from serial at seed={seed}"
            )

    def test_serial_rerun_is_stable(self):
        assert _campaign_bytes(2016, jobs=1) == _campaign_bytes(
            2016, jobs=1
        )

    def test_ping_survey_parallel_matches(self):
        results = []
        for jobs in (1, 2, 4):
            scenario = get_preset("tiny", 2016)
            targets = list(scenario.hitlist)[:N_DESTS]
            survey = run_ping_survey(scenario, dests=targets, jobs=jobs)
            results.append(survey.responsive)
        assert results[0] == results[1] == results[2]

    def test_options_load_matches_serial(self):
        """Worker options-load deltas fold back to the serial totals."""
        loads = []
        for jobs in (1, 2):
            scenario = get_preset("tiny", 2016)
            targets = list(scenario.hitlist)[:N_DESTS]
            vps = list(scenario.vps)[:N_VPS]
            run_rr_survey(scenario, dests=targets, vps=vps, jobs=jobs)
            loads.append(dict(scenario.network.options_load))
        assert loads[0] == loads[1]
        assert sum(loads[0].values()) > 0


def _faulted_campaign_bytes(seed: int, jobs: int) -> bytes:
    """One *faulted* RR campaign on a fresh tiny world, as JSON.

    Uses a packet-perturbing plan (flap + burst + storm — every family
    except churn, which is attempt-level and tested separately in
    ``test_faults.py``) so the parity bar covers the injector's
    dataplane hooks, not just the happy path.
    """
    from pathlib import Path
    import tempfile

    from repro.faults import (
        CampaignRunner,
        FaultPlan,
        LinkFlap,
        LossBurst,
        RateLimitStorm,
    )

    scenario = get_preset("tiny", seed)
    targets = list(scenario.hitlist)[:N_DESTS]
    vps = list(scenario.vps)[:N_VPS]
    plan = FaultPlan(
        seed=4242,
        specs=(
            LinkFlap(count=2, start=0.25, duration=0.5),
            LossBurst(p_enter=0.05, p_exit=0.2, drop_prob=0.9),
            RateLimitStorm(scale=0.1, start=0.2, duration=0.6),
        ),
    )
    result = CampaignRunner(scenario, plan=plan, jobs=jobs).run(
        targets=targets, vps=vps
    )
    assert not result.partial
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "survey.json"
        save_survey(result.survey, out)
        return out.read_bytes()


class TestFaultedByteParity:
    """The injector must not break the engine's determinism contract:
    fault decisions key off (plan seed, vp name, session time) only,
    so a faulted campaign's bytes are invariant under worker count
    and under kill-at-checkpoint + resume."""

    def test_faulted_campaign_invariant_under_jobs(self):
        serial = _faulted_campaign_bytes(2016, jobs=1)
        for jobs in (2, 4):
            assert _faulted_campaign_bytes(2016, jobs=jobs) == serial, (
                f"faulted campaign diverged at jobs={jobs}"
            )

    def test_faulted_differs_from_unfaulted(self):
        """The plan above actually perturbs packets (otherwise the
        parity assertions would be vacuous)."""
        assert _faulted_campaign_bytes(2016, jobs=1) != _campaign_bytes(
            2016, jobs=1
        )

    def test_kill_resume_matches_uninterrupted(self, tmp_path):
        from repro.faults import CampaignInterrupted, CampaignRunner
        from repro.scenarios.faults import build_fault_plan

        def fresh_runner(**kwargs):
            scenario = get_preset("tiny", 2016)
            plan = build_fault_plan("chaos", scenario_seed=2016)
            return scenario, CampaignRunner(
                scenario, plan=plan, jobs=2, max_retries=4, **kwargs
            )

        scenario, runner = fresh_runner()
        targets = list(scenario.hitlist)[:N_DESTS]
        full = runner.run(targets=targets)
        a = tmp_path / "full.json"
        save_survey(full.survey, a)

        ck = tmp_path / "ck.json"
        scenario, runner = fresh_runner(
            checkpoint_path=ck, kill_after_vps=2
        )
        targets = list(scenario.hitlist)[:N_DESTS]
        with pytest.raises(CampaignInterrupted):
            runner.run(targets=targets)

        scenario, runner = fresh_runner(checkpoint_path=ck)
        targets = list(scenario.hitlist)[:N_DESTS]
        resumed = runner.run(targets=targets, resume=True)
        assert resumed.resumed_vps >= 2
        b = tmp_path / "resumed.json"
        save_survey(resumed.survey, b)
        assert a.read_bytes() == b.read_bytes()


class TestRunner:
    def test_rejects_nonpositive_jobs(self):
        scenario = get_preset("tiny", 2016)
        for run in (run_rr_survey, run_ping_survey, run_full_study,
                    CampaignRunner):
            with pytest.raises(ValueError, match="jobs must be positive"):
                run(scenario, jobs=0)

    def test_pool_never_exceeds_task_count(self):
        """jobs > #VPs still works (pool is clamped to the task count)."""
        scenario = get_preset("tiny", 2016)
        targets = list(scenario.hitlist)[:10]
        vps = list(scenario.vps)[:2]
        survey = run_rr_survey(scenario, dests=targets, vps=vps, jobs=8)
        assert len(survey.vps) == 2


class TestGzipPersistence:
    def test_roundtrip_and_autodetect(self, tmp_path):
        scenario = get_preset("tiny", 2016)
        targets = list(scenario.hitlist)[:N_DESTS]
        vps = list(scenario.vps)[:N_VPS]
        survey = run_rr_survey(scenario, dests=targets, vps=vps)

        plain = tmp_path / "survey.json"
        packed = tmp_path / "survey.json.gz"
        save_survey(survey, plain)
        save_survey(survey, packed)

        # Compressed artifact holds exactly the plain bytes.
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert packed.stat().st_size < plain.stat().st_size

        loaded = load_survey(packed)
        assert loaded.responses == survey.responses
        assert loaded.inprefix_addrs == survey.inprefix_addrs
        assert [vp.name for vp in loaded.vps] == [
            vp.name for vp in survey.vps
        ]

    def test_gzip_bytes_are_deterministic(self, tmp_path):
        """mtime=0 keeps the parity bar meaningful for .json.gz too."""
        scenario = get_preset("tiny", 2016)
        targets = list(scenario.hitlist)[:10]
        vps = list(scenario.vps)[:2]
        survey = run_rr_survey(scenario, dests=targets, vps=vps)
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        save_survey(survey, a)
        save_survey(survey, b)
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture()
def mutable_scenario() -> Scenario:
    """A private tiny world this module may mutate (the shared
    session fixture's topology must stay pristine)."""
    return get_preset("tiny", 99)


class TestPathCacheInvalidation:
    def test_probe_populates_cache(self, mutable_scenario):
        scenario = mutable_scenario
        network = scenario.network
        vp = scenario.working_vps[0]
        dest = list(scenario.hitlist)[0]
        assert not network._trunks
        scenario.prober.ping_rr(vp, dest.addr)
        assert (vp.asn, dest.asn) in network._trunks

    def test_invalidate_routes_clears_everything(self, mutable_scenario):
        scenario = mutable_scenario
        network = scenario.network
        vp = scenario.working_vps[0]
        dests = list(scenario.hitlist)[:5]
        for dest in dests:
            scenario.prober.ping_rr(vp, dest.addr)
        scenario.prober.probe_batch_rows(vp, dests)
        assert network._trunks
        assert network._tails
        assert network._plans
        assert scenario.routing.cache_len > 0

        network.invalidate_routes()

        assert network._trunks == {}
        assert network._tails == {}
        assert len(network._plans) == 0
        assert scenario.routing.cache_len == 0

    def test_topology_mutation_takes_effect(self, mutable_scenario):
        """After add_peering + invalidate_routes the dataplane routes
        over the mutated topology (a direct peer path appears)."""
        scenario = mutable_scenario
        network = scenario.network
        routing = scenario.routing
        vp = scenario.working_vps[0]

        # Find a destination the VP reaches over >= 3 ASes.
        chosen = None
        for dest in scenario.hitlist:
            path = routing.as_path(vp.asn, dest.asn)
            if path is not None and len(path) >= 3:
                if dest.asn not in scenario.graph.neighbors_of(vp.asn):
                    chosen = dest
                    break
        assert chosen is not None, "tiny world has no long path to test"
        old_path = routing.as_path(vp.asn, chosen.asn)
        scenario.prober.ping_rr(vp, chosen.addr)  # warm the caches
        old_trunk = network._trunks[(vp.asn, chosen.asn)]

        scenario.graph.add_peering(vp.asn, chosen.asn)
        network.invalidate_routes()

        new_path = routing.as_path(vp.asn, chosen.asn)
        assert new_path != old_path
        assert new_path == [vp.asn, chosen.asn]
        # The dataplane rebuilds its trunk from the new route.
        assert (vp.asn, chosen.asn) not in network._trunks
        scenario.prober.ping_rr(vp, chosen.addr)
        new_trunk = network._trunks[(vp.asn, chosen.asn)]
        assert new_trunk is not None
        assert new_trunk != old_trunk
        assert {hop.router.asn for hop in new_trunk} == {vp.asn, chosen.asn}

    def test_cache_counters_track_lookups(self, mutable_scenario):
        """A flow's first batched probe compiles its plan (a miss); the
        next one replays it (a hit)."""
        scenario = mutable_scenario
        network = scenario.network
        vp = scenario.working_vps[0]
        dest = list(scenario.hitlist)[1]
        hits0 = network._plan_hits.value
        misses0 = network._plan_misses.value
        scenario.prober.probe_batch_rows(vp, [dest])
        assert network._plan_misses.value == misses0 + 1
        assert network._plan_hits.value == hits0
        scenario.prober.probe_batch_rows(vp, [dest])
        assert network._plan_misses.value == misses0 + 1
        assert network._plan_hits.value == hits0 + 1


class TestProberMetricsCache:
    def test_cache_keyed_by_network(self, mutable_scenario):
        """Re-pointing a prober at a new network counts under the new
        net label — no stale children."""
        scenario = mutable_scenario
        prober = scenario.prober
        old_net = prober.network
        metrics_old = prober._metrics_for("ping")

        other = get_preset("tiny", 98)
        prober.network = other.network
        try:
            metrics_new = prober._metrics_for("ping")
            assert metrics_new is not metrics_old
            assert (other.network.net_id, "ping") in prober._mx
        finally:
            prober.network = old_net

    def test_cache_growth_is_bounded(self, mutable_scenario):
        prober = mutable_scenario.prober
        prober._mx.clear()
        for fake_id in range(_MX_CACHE_MAX + 10):

            class _FakeNet:
                net_id = f"fake-{fake_id}"

            real = prober.network
            try:
                prober.network = _FakeNet()
                prober._metrics_for("ping")
            finally:
                prober.network = real
        assert len(prober._mx) <= _MX_CACHE_MAX
        prober._mx.clear()


class TestStudyPlumbing:
    def test_full_study_jobs_kwarg(self):
        from repro.core.study import run_full_study

        scenario = get_preset("tiny", 2016)
        data = run_full_study(scenario, jobs=2)
        serial = run_full_study(get_preset("tiny", 2016), jobs=1)
        assert data.ping_survey.responsive == serial.ping_survey.responsive

        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            a = Path(tmp) / "a.json"
            b = Path(tmp) / "b.json"
            save_survey(data.rr_survey, a)
            save_survey(serial.rr_survey, b)
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_pooled_study_is_one_round_on_one_pool(
        self, jobs, monkeypatch, tmp_path
    ):
        """Both §3.1 surveys share one round: ``jobs`` workers, one
        ``run_tasks``, and the in-process run's ping table, saved RR
        survey, clock (bit for bit) and options load."""
        calls = {}
        spawn = WorkerWatchdog._spawn_worker
        run_tasks = WorkerWatchdog.run_tasks

        def spy_spawn(self):
            calls["spawn"] += 1
            return spawn(self)

        def spy_round(self, *args, **kwargs):
            calls["round"] += 1
            return run_tasks(self, *args, **kwargs)

        monkeypatch.setattr(WorkerWatchdog, "_spawn_worker", spy_spawn)
        monkeypatch.setattr(WorkerWatchdog, "run_tasks", spy_round)
        left = {}
        for n in (1, jobs):
            calls.update(spawn=0, round=0)
            scenario = get_preset("tiny", 2016)
            data = run_full_study(scenario, jobs=n)
            assert calls == {"spawn": 0 if n == 1 else n, "round": 1}, n
            path = tmp_path / f"survey-{n}.json"
            save_survey(data.rr_survey, path)
            network = scenario.network
            left[n] = (
                data.ping_survey.responsive,
                path.read_bytes(),
                network.clock.now.hex(),
                dict(network.options_load),
            )
        assert left[jobs] == left[1]


def _pid_body(state, task, heartbeat):
    """A task body that only says which process ran it."""
    return os.getpid()


class TestAffinityDispatch:
    """Pooled dispatch by affinity group (``_TaskQueue``): own groups
    first, then the largest unowned group, then a steal."""

    @staticmethod
    def _keys(queue, handle, count):
        return [queue.take(handle)[1][1][0] for _ in range(count)]

    def test_owned_then_largest_unowned_then_newest(self):
        a, b = object(), object()
        owners = {}
        tasks = [(key, f"t{key}") for key in range(7)]
        groups = [10, 20, 20, 10, 30, 20, 30]
        queue = _TaskQueue(tasks, groups, owners)
        # a claims 20, the unowned group with the most queued tasks;
        # b claims 10, which ties 30 and has the older head.
        assert self._keys(queue, a, 1) == [1]
        assert self._keys(queue, b, 1) == [0]
        assert owners == {20: a, 10: b}
        # Each drains its own group, oldest first.
        assert self._keys(queue, a, 2) == [2, 5]
        assert self._keys(queue, b, 1) == [3]
        # b's group is empty: it claims unowned 30.
        assert self._keys(queue, b, 1) == [4]
        assert owners[30] is b
        # a has nothing of its own and nothing is unowned: it steals
        # the newest queued task, and ownership stays put.
        assert self._keys(queue, a, 1) == [6]
        assert owners == {20: a, 10: b, 30: b}
        assert not queue

    def test_ungrouped_round_is_fifo(self):
        a, b = object(), object()
        owners = {}
        queue = _TaskQueue([(k, "t") for k in range(5)], None, owners)
        assert self._keys(queue, a, 2) == [0, 1]
        assert self._keys(queue, b, 3) == [2, 3, 4]
        assert owners == {}

    def test_put_back_restores_the_order(self):
        a = object()
        queue = _TaskQueue([(k, "t") for k in range(4)], [1] * 4, {})
        group, item = queue.take(a)
        queue.take(a)
        queue.put_back(group, item)
        assert self._keys(queue, a, 3) == [0, 2, 3]

    def test_ownership_outlives_rounds_not_workers(self):
        scenario = get_preset("tiny", 2016)
        executor = WorkerWatchdog(scenario, {"task_body": _pid_body}, 2)
        try:
            tasks = [(key, f"t{key}") for key in range(4)]
            outcomes = executor.run_tasks(tasks, [10, 10, 20, 20])
            assert all(kind == "ok" for _r, kind, _e in outcomes.values())
            first, second = executor._workers
            assert executor._owners == {10: first, 20: second}
            executor.run_tasks(tasks[:2], [20, 10])
            assert executor._owners[10] is first
            assert executor._owners[20] is second
            executor._respawn(first)
            assert 10 not in executor._owners
            assert executor._owners[20] is second
        finally:
            executor.close()
        assert executor._owners == {}


class TestParentClock:
    """A pooled run leaves the parent's clock where an in-process run
    leaves it: the executor adds each shipped session's elapsed time
    in key order, the same float additions ``end_vp_session`` makes."""

    @staticmethod
    def _clocks(jobs: int) -> list:
        from repro.scenarios.faults import build_fault_plan

        scenario = get_preset("tiny", 2016)
        clock = scenario.network.clock
        targets = list(scenario.hitlist)[:N_DESTS]
        vps = list(scenario.vps)[:N_VPS]
        seen = []
        run_rr_survey(scenario, dests=targets, vps=vps, jobs=jobs)
        seen.append(clock.now)
        run_ping_survey(scenario, dests=targets, jobs=jobs)
        seen.append(clock.now)
        CampaignRunner(
            scenario, plan=build_fault_plan("chaos", scenario_seed=2016),
            jobs=jobs, max_retries=4,
        ).run(targets=targets, vps=list(scenario.vps))
        seen.append(clock.now)
        return [value.hex() for value in seen]

    def test_pooled_clock_equals_in_process(self):
        serial = self._clocks(1)
        assert float.fromhex(serial[0]) > 0.0
        assert float.fromhex(serial[1]) > float.fromhex(serial[0])
        assert float.fromhex(serial[2]) > float.fromhex(serial[1])
        for jobs in (2, 4):
            assert self._clocks(jobs) == serial, jobs
