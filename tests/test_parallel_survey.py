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

import pytest

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
        assert not network._fwd_paths
        scenario.prober.ping_rr(vp, dest.addr)
        assert network._fwd_paths  # at least (vp AS, dest prefix)

    def test_invalidate_routes_clears_everything(self, mutable_scenario):
        scenario = mutable_scenario
        network = scenario.network
        vp = scenario.working_vps[0]
        for dest in list(scenario.hitlist)[:5]:
            scenario.prober.ping_rr(vp, dest.addr)
        assert network._fwd_paths
        assert scenario.routing.cache_len > 0
        before = network._path_invalidations.value

        network.invalidate_routes()

        assert network._fwd_paths == {}
        assert network._trunks == {}
        assert network._tails == {}
        assert scenario.routing.cache_len == 0
        assert network._path_invalidations.value == before + 1

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

        scenario.graph.add_peering(vp.asn, chosen.asn)
        network.invalidate_routes()

        new_path = routing.as_path(vp.asn, chosen.asn)
        assert new_path != old_path
        assert new_path == [vp.asn, chosen.asn]
        # The dataplane rebuilds its forward path from the new route.
        misses_before = network._path_misses.value
        scenario.prober.ping_rr(vp, chosen.addr)
        assert network._path_misses.value == misses_before + 1
        cached = network._fwd_paths[(vp.asn, chosen.prefix.base)]
        assert cached is not None

    def test_cache_counters_track_lookups(self, mutable_scenario):
        scenario = mutable_scenario
        network = scenario.network
        vp = scenario.working_vps[0]
        dest = list(scenario.hitlist)[1]
        hits0 = network._path_hits.value
        misses0 = network._path_misses.value
        scenario.prober.ping_rr(vp, dest.addr)
        assert network._path_misses.value > misses0
        misses1 = network._path_misses.value
        scenario.prober.ping_rr(vp, dest.addr)
        assert network._path_misses.value == misses1
        assert network._path_hits.value > hits0


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
