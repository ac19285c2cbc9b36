"""Fault-injection subsystem + resilient campaign driver.

The load-bearing properties:

* every fault decision is a pure function of ``(plan seed, vp name,
  session-relative time)`` — so faulted campaigns keep the parallel
  engine's byte-parity across worker counts, kill points, and resume;
* a churn-only campaign with enough retries recovers output
  **byte-identical** to an unfaulted run (dark VPs never half-probe);
* failure surfaces are civil: corrupt artifacts raise
  ``SurveyFormatError`` with path+reason, worker crashes arrive as
  ``SurveyWorkerError`` naming the owning VP, and exhausted retries
  degrade to a ``partial=True`` manifest instead of an exception.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import pickle
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.parallel import SurveyWorkerError
from repro.core.survey import (
    SurveyFormatError,
    load_survey,
    run_rr_survey,
    save_survey,
)
from repro.faults import (
    CampaignInterrupted,
    CampaignRunner,
    FaultInjector,
    FaultPlan,
    LinkFlap,
    LossBurst,
    RateLimitStorm,
    VpChurn,
)
from repro.faults.campaign import load_checkpoint
from repro.faults.specs import ZombieVp
from repro.faults.supervisor import SupervisionConfig
from repro.probing.artifacts import (
    embed_checksum,
    record_line,
    verified_record,
)
from repro.scenarios.faults import FAULT_PRESETS, build_fault_plan
from repro.scenarios.presets import get_preset
from repro.sim.rate_limiter import TokenBucket

N_DESTS = 30


@pytest.fixture(scope="module")
def world():
    """A private tiny Internet for this module (seed 7)."""
    return get_preset("tiny", 7)


@pytest.fixture(scope="module")
def targets(world):
    return list(world.hitlist)[:N_DESTS]


def _survey_bytes(survey, tmp_path, name):
    path = tmp_path / name
    save_survey(survey, path)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# Specs: validation + seeded determinism.
# ---------------------------------------------------------------------------


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            VpChurn(prob=1.5)
        with pytest.raises(ValueError):
            VpChurn(max_dark_attempts=0)
        with pytest.raises(ValueError):
            LinkFlap(count=0)
        with pytest.raises(ValueError):
            LinkFlap(duration=0.0)
        with pytest.raises(ValueError):
            LossBurst(p_exit=0.0)
        with pytest.raises(ValueError):
            RateLimitStorm(scale=-0.1)

    def test_churn_is_deterministic_per_vp(self):
        spec = VpChurn(prob=0.5, max_dark_attempts=3)
        draws = [spec.dark_attempts(42, f"vp-{i}") for i in range(50)]
        assert draws == [
            spec.dark_attempts(42, f"vp-{i}") for i in range(50)
        ]
        assert any(d > 0 for d in draws)
        assert any(d == 0 for d in draws)
        assert all(0 <= d <= 3 for d in draws)
        # A different seed reshuffles who churns.
        assert draws != [
            spec.dark_attempts(43, f"vp-{i}") for i in range(50)
        ]

    def test_plan_fingerprint_tracks_content(self):
        a = FaultPlan(seed=1, specs=(VpChurn(),))
        b = FaultPlan(seed=1, specs=(VpChurn(),))
        c = FaultPlan(seed=2, specs=(VpChurn(),))
        d = FaultPlan(seed=1, specs=(VpChurn(prob=0.1),))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != d.fingerprint()

    def test_plan_pickles(self):
        plan = build_fault_plan("chaos", scenario_seed=7)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.fingerprint() == plan.fingerprint()

    def test_churned_vps_maps_only_dark(self):
        plan = FaultPlan(
            seed=5, specs=(VpChurn(prob=0.5, max_dark_attempts=2),)
        )
        names = [f"vp-{i}" for i in range(40)]
        dark = plan.churned_vps(names)
        assert dark  # with 40 names and p=0.5, some churn
        assert all(1 <= n <= 2 for n in dark.values())
        assert set(dark) < set(names)

    def test_presets_resolve(self):
        for name in FAULT_PRESETS:
            plan = build_fault_plan(name, scenario_seed=7)
            assert plan.is_empty == (name == "none")
        with pytest.raises(ValueError):
            build_fault_plan("earthquake")


# ---------------------------------------------------------------------------
# Token-bucket refill scaling (the RateLimitStorm hook).
# ---------------------------------------------------------------------------


class TestRateScale:
    def test_scale_slows_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.rate_scale = lambda now: 0.1
        assert bucket.allow(0.0) and bucket.allow(0.0)
        # At full rate t=0.1 would have refilled one token; at 10%
        # it has refilled only 0.1 of one.
        assert not bucket.allow(0.1)
        assert bucket.peek(1.0) == pytest.approx(1.0)

    def test_scale_none_is_identity(self):
        a = TokenBucket(rate=10.0, burst=1.0)
        b = TokenBucket(rate=10.0, burst=1.0)
        b.rate_scale = lambda now: 1.0
        for t in (0.0, 0.05, 0.1, 0.2, 0.35):
            assert a.allow(t) == b.allow(t)


# ---------------------------------------------------------------------------
# Injector + dataplane integration.
# ---------------------------------------------------------------------------


class TestInjector:
    def test_attach_detach_roundtrip(self, world):
        plan = FaultPlan(seed=1, specs=(LossBurst(),))
        injector = FaultInjector(world.network, plan, horizon=1.0)
        world.network.attach_injector(injector)
        assert world.network.injector is injector
        assert world.network.detach_injector() is injector
        assert world.network.injector is None

    def test_flap_windows_respect_session_clock(self, world):
        plan = FaultPlan(
            seed=3, specs=(LinkFlap(count=2, start=0.5, duration=0.25),)
        )
        injector = FaultInjector(world.network, plan, horizon=100.0)
        assert injector.active_flap_edges(0.0) is None
        mid = injector.active_flap_edges(60.0)
        assert mid is not None and len(mid) == 2
        assert injector.active_flap_edges(80.0) is None
        # Edge choice is a function of the plan seed, not call order.
        again = FaultInjector(world.network, plan, horizon=100.0)
        assert again.active_flap_edges(60.0) == mid

    def test_burst_chain_is_per_session_deterministic(self, world):
        plan = FaultPlan(
            seed=9,
            specs=(LossBurst(p_enter=0.2, p_exit=0.3, drop_prob=0.9),),
        )

        def draws(name, n=200):
            injector = FaultInjector(world.network, plan)
            injector.begin_session(name)
            try:
                return [injector.burst_lost() for _ in range(n)]
            finally:
                injector.end_session()

        assert draws("vp-a") == draws("vp-a")
        assert draws("vp-a") != draws("vp-b")
        assert any(draws("vp-a"))

    def test_storm_scale_applies_in_window(self, world):
        plan = FaultPlan(
            seed=4,
            specs=(RateLimitStorm(scale=0.25, start=0.0, duration=0.5),),
        )
        injector = FaultInjector(world.network, plan, horizon=10.0)
        injector.begin_session("vp-x")
        try:
            assert injector._storm_scale(1.0) == 0.25
            assert injector._storm_scale(7.0) == 1.0
            # The network installed the refill hook for its buckets.
            assert world.network._rate_scale is not None
        finally:
            injector.end_session()
        assert world.network._rate_scale is None

    def test_fault_drops_counted(self, world, targets):
        """A heavy loss-burst plan visibly kills packets, and the
        drops land in the fault counters."""
        from repro.faults.injector import fault_drop_counter
        from repro.obs.metrics import REGISTRY

        drops = fault_drop_counter(REGISTRY).labels(
            world.network.net_id, LossBurst.KIND
        )
        before = drops.value
        plan = FaultPlan(
            seed=11,
            specs=(LossBurst(p_enter=0.5, p_exit=0.1, drop_prob=1.0),),
        )
        injector = FaultInjector(world.network, plan)
        world.network.attach_injector(injector)
        try:
            vp = world.working_vps[0]
            # Loss chains are per-session state: probe inside one,
            # like the survey path does.
            world.network.begin_vp_session(vp.name)
            try:
                for dest in targets[:10]:
                    world.prober.ping_rr(vp, dest.addr)
            finally:
                world.network.end_vp_session()
        finally:
            world.network.detach_injector()
        assert drops.value > before


# ---------------------------------------------------------------------------
# Campaign resilience.
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_churn_recovers_unfaulted_bytes(self, world, targets,
                                            tmp_path):
        baseline = _survey_bytes(
            run_rr_survey(world, dests=targets), tmp_path, "base.json"
        )
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world, plan=plan, max_retries=3
        ).run(targets=targets)
        assert not result.partial
        assert result.retry_rounds >= 1
        assert any(n > 1 for n in result.attempts.values())
        assert _survey_bytes(
            result.survey, tmp_path, "churn.json"
        ) == baseline

    def test_exhausted_retries_degrade_to_partial(self, world, targets):
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world, plan=plan, max_retries=0
        ).run(targets=targets)
        assert result.partial
        dark = plan.churned_vps([vp.name for vp in world.vps])
        assert set(result.failed_vps) == set(dark)
        # Failed VPs contribute nothing, everyone else fully merged.
        manifest = result.manifest()
        assert manifest["partial"] is True
        assert manifest["failed_vps"] == sorted(dark)

    def test_budget_exhaustion_stops_retrying(self, world, targets):
        plan = FaultPlan(
            seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
        )
        result = CampaignRunner(
            world,
            plan=plan,
            max_retries=5,
            backoff_base=1000.0,  # first retry round blows the budget
            budget_seconds=10.0,
        ).run(targets=targets)
        assert result.partial
        assert result.retry_rounds == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_and_resume_is_byte_identical(
        self, world, targets, tmp_path, jobs
    ):
        plan = build_fault_plan("chaos", scenario_seed=7)
        uninterrupted = CampaignRunner(
            world, plan=plan, jobs=jobs, max_retries=4
        ).run(targets=targets)
        expect = _survey_bytes(
            uninterrupted.survey, tmp_path, f"full-{jobs}.json"
        )

        ck = tmp_path / f"ck-{jobs}.json"
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(
                world,
                plan=plan,
                jobs=jobs,
                max_retries=4,
                checkpoint_path=ck,
                kill_after_vps=3,
            ).run(targets=targets)
        assert ck.exists()
        resumed = CampaignRunner(
            world, plan=plan, jobs=jobs, max_retries=4,
            checkpoint_path=ck,
        ).run(targets=targets, resume=True)
        assert resumed.resumed_vps >= 3
        assert _survey_bytes(
            resumed.survey, tmp_path, f"resumed-{jobs}.json"
        ) == expect

    def test_resume_requires_checkpoint_path(self, world, targets):
        with pytest.raises(ValueError):
            CampaignRunner(world).run(targets=targets, resume=True)

    def test_resume_with_missing_file_starts_fresh(
        self, world, targets, tmp_path
    ):
        ck = tmp_path / "never-written.json"
        result = CampaignRunner(
            world, checkpoint_path=ck
        ).run(targets=targets, resume=True)
        assert result.resumed_vps == 0
        assert not result.partial
        assert ck.exists()  # got written along the way

    def test_fingerprint_guards_resume(self, world, targets, tmp_path):
        ck = tmp_path / "ck.json"
        CampaignRunner(
            world,
            plan=build_fault_plan("loss-burst", scenario_seed=7),
            checkpoint_path=ck,
        ).run(targets=targets)
        other = build_fault_plan("chaos", scenario_seed=7)
        with pytest.raises(SurveyFormatError) as err:
            CampaignRunner(
                world, plan=other, checkpoint_path=ck
            ).run(targets=targets, resume=True)
        assert "fingerprint mismatch" in str(err.value)

    def test_checkpoint_corruption_is_civil(self, world, targets,
                                            tmp_path):
        ck = tmp_path / "ck.json"
        runner = CampaignRunner(world, checkpoint_path=ck)
        header = {
            "version": 2,
            "fingerprint": runner.fingerprint(targets, list(world.vps)),
        }
        entry = {
            "completed": {
                "nope": {"rows": [], "inprefix": [], "quality": {}}
            },
            "attempts": {"nope": 1},
        }
        for content, needle in [
            ("{\"version\": 1, \"trunc", "header"),
            (
                json.dumps(embed_checksum(
                    {"version": 1, "fingerprint": header["fingerprint"],
                     "completed": {}, "attempts": {}}
                )),
                "version: 1",
            ),
            (record_line(dict(header, version=99)) + "\n", "version: 99"),
            (
                record_line(header) + "\n" + record_line(entry) + "\n",
                "unknown VPs: nope",
            ),
        ]:
            ck.write_text(content, "utf-8")
            with pytest.raises(SurveyFormatError) as err:
                runner.run(targets=targets, resume=True)
            assert str(ck) in str(err.value) and needle in str(err.value)
            # A refused resume leaves the file as it found it.
            assert ck.read_text("utf-8") == content

    def test_validation(self, world):
        with pytest.raises(ValueError):
            CampaignRunner(world, max_retries=-1)
        with pytest.raises(ValueError):
            CampaignRunner(world, jobs=0)


# ---------------------------------------------------------------------------
# Randomised kill, tear and resume.
# ---------------------------------------------------------------------------


class TestKillTearResume:
    """Kill after k of n VPs, optionally tear the log's last line or
    corrupt an earlier entry line, then resume: the survey and sidecar
    bytes equal the uninterrupted run's, the repair is counted exactly
    when a line was dropped, and the log left behind verifies."""

    N_VPS = 5
    PLAN = FaultPlan(
        seed=11, specs=FAULT_PRESETS["chaos"] + FAULT_PRESETS["misbehave"]
    )

    @pytest.fixture(scope="class")
    def baseline(self, world):
        vps = list(world.vps)[: self.N_VPS]
        targets = list(world.hitlist)[:40]
        with tempfile.TemporaryDirectory() as tmp:
            out = self._run(world, targets, vps, Path(tmp))
        return targets, vps, out

    def _run(self, world, targets, vps, tmp, resume=False, **kwargs):
        result = CampaignRunner(
            world, plan=self.PLAN, quarantine_path=tmp / "sidecar.json",
            **kwargs,
        ).run(targets=targets, vps=vps, resume=resume)
        save_survey(result.survey, tmp / "survey.json")
        return {
            "result": result,
            "survey": (tmp / "survey.json").read_bytes(),
            "sidecar": (tmp / "sidecar.json").read_bytes(),
        }

    @settings(max_examples=25, deadline=None)
    @given(
        kill=st.integers(1, N_VPS - 1),
        tear=st.sampled_from(["none", "cut", "flip"]),
        where=st.integers(0, 2**20),
    )
    @example(kill=3, tear="cut", where=8)  # CI's torn last line
    @example(kill=2, tear="cut", where=0)  # only the newline is gone
    @example(kill=3, tear="flip", where=0)  # corrupt first entry line
    def test_random_kill_tear_resume(
        self, world, baseline, kill, tear, where
    ):
        targets, vps, expect = baseline
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            ck = tmp / "ck.log"
            with pytest.raises(CampaignInterrupted):
                self._run(
                    world, targets, vps, tmp,
                    checkpoint_path=ck, kill_after_vps=kill,
                )
            log = ck.read_bytes()
            lines = log.splitlines(keepends=True)
            assert len(lines) == 1 + kill
            survivors = kill
            if tear == "cut":
                # Cut inside the last line; cutting all of it leaves a
                # clean log one entry shorter.
                log = log[: -(1 + where % len(lines[-1]))]
                survivors = kill - 1
            elif tear == "flip":
                # Flip a bit in entry line ``line``, newline excluded.
                line = 1 + where % kill
                offset = sum(map(len, lines[:line])) + (
                    where // kill % (len(lines[line]) - 1)
                )
                log = (
                    log[:offset] + bytes([log[offset] ^ 1])
                    + log[offset + 1:]
                )
                survivors = line - 1
            ck.write_bytes(log)
            dropped = not log.endswith(b"\n") or tear == "flip"
            out = self._run(
                world, targets, vps, tmp, resume=True, checkpoint_path=ck
            )
            result = out["result"]
            assert out["survey"] == expect["survey"]
            assert out["sidecar"] == expect["sidecar"]
            assert result.checkpoint_repairs == int(dropped)
            assert result.resumed_vps == survivors
            log = ck.read_bytes()
            assert log.endswith(b"\n")
            for line in log.splitlines():
                assert verified_record(line) is not None
            assert len(log.splitlines()) == 1 + len(
                load_checkpoint(ck)["completed"]
            )


class TestPinnedCampaignBytes:
    """Attempts arrive encoded and the parent splices them: the
    checkpoint, quarantine sidecar and survey bytes of a supervised
    chaos + misbehave campaign with one zombie VP (the garbage gate
    quarantines it, so its last attempt's lists reach the sidecar) are
    the digests pinned when the parent encoded every record whole —
    at jobs 1 and 2, and after a kill, a torn last line and a resume at
    jobs 2, where the restored VPs' lists are encoded in the parent."""

    CHECKPOINT = (
        "3f9662c6022851eb8e50bc4ee1a280e77abe0c3b2b7267d9d28db6415cfd3f6a"
    )
    RESUMED_CHECKPOINT = (
        "2de224ed02aeb6430548aa6cee4df16e00b0c0681b54c7a0ca957f7a8e88117e"
    )
    SIDECAR = (
        "1b830ef3afed993eabef35f4b0fb4f74f3471071c3660f14f5f7fbd2ff580e75"
    )
    SURVEY = (
        "a88584bacf8688c307cd512552fdc01e690c7e6d4bc3a528e27b2bd388a7047e"
    )

    @staticmethod
    def _run(tmp, jobs, resume=False, **kwargs):
        world = get_preset("tiny", 7)
        vps = list(world.vps)[:6]
        plan = FaultPlan(
            seed=11,
            specs=FAULT_PRESETS["chaos"] + FAULT_PRESETS["misbehave"]
            + (ZombieVp(vps=(vps[2].name,)),),
        )
        result = CampaignRunner(
            world, plan=plan, jobs=jobs, max_retries=3,
            supervision=SupervisionConfig(quarantine_after=2),
            checkpoint_path=tmp / "ck.log",
            quarantine_path=tmp / "q.json", **kwargs,
        ).run(targets=list(world.hitlist)[:60], vps=vps, resume=resume)
        save_survey(result.survey, tmp / "s.json")
        digests = [
            hashlib.sha256((tmp / name).read_bytes()).hexdigest()
            for name in ("ck.log", "q.json", "s.json")
        ]
        return result, digests

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_uninterrupted(self, tmp_path, jobs):
        result, digests = self._run(tmp_path, jobs)
        assert list(result.quarantined) == ["mlab-den"]
        assert result.quality["quarantined"] and result.quality["degraded"]
        assert digests == [self.CHECKPOINT, self.SIDECAR, self.SURVEY]

    def test_kill_tear_resume(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            self._run(tmp_path, 2, kill_after_vps=3)
        log = tmp_path / "ck.log"
        log.write_bytes(log.read_bytes()[:-9])
        result, digests = self._run(tmp_path, 2, resume=True)
        assert (result.resumed_vps, result.checkpoint_repairs) == (2, 1)
        assert digests == [
            self.RESUMED_CHECKPOINT, self.SIDECAR, self.SURVEY
        ]


# ---------------------------------------------------------------------------
# Satellite: civil failure surfaces.
# ---------------------------------------------------------------------------


class TestSurveyFormatError:
    def _rt(self, world, targets, tmp_path, name):
        survey = run_rr_survey(world, dests=targets[:5],
                               vps=list(world.vps)[:2])
        path = tmp_path / name
        save_survey(survey, path)
        return path

    def test_truncated_json(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert str(path) in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "truncated JSON" in str(err.value)

    def test_truncated_gzip(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json.gz")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "gzip" in str(err.value)

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "s.json.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(SurveyFormatError):
            load_survey(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"version": 42}), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "version" in str(err.value)

    def test_malformed_record(self, world, targets, tmp_path):
        path = self._rt(world, targets, tmp_path, "s.json")
        data = json.loads(path.read_text("utf-8"))
        data["vps"][0] = {"bogus": True}
        path.write_text(json.dumps(data), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "malformed" in str(err.value)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2, 3]", "utf-8")
        with pytest.raises(SurveyFormatError):
            load_survey(path)

    def test_missing_file_is_not_format_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_survey(tmp_path / "nope.json")


class TestSurveyWorkerError:
    def test_pickle_roundtrip(self):
        err = SurveyWorkerError("rr", 3, "mlab-nyc", "KeyError: 'x'")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.task_kind == "rr"
        assert clone.index == 3
        assert clone.name == "mlab-nyc"
        assert "mlab-nyc" in str(clone)

    def test_worker_failure_names_the_vp(self, monkeypatch, targets):
        """A failing VP task arrives attributed at every ``jobs``:
        raised in-process, raised in a worker, or killing its worker."""
        import repro.core.survey as survey_mod

        world = get_preset("tiny", 13)
        victim = world.vps[1].name
        real = survey_mod.probe_vp_rr
        test_pid = os.getpid()
        failure = "raise"

        def sabotaged(scenario, vp, *args, **kwargs):
            if vp.name == victim:
                if failure == "exit" and os.getpid() != test_pid:
                    os._exit(1)
                raise RuntimeError("synthetic probe failure")
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(survey_mod, "probe_vp_rr", sabotaged)
        for jobs, failure in ((1, "raise"), (2, "raise"), (2, "exit")):
            with _deadline(30), pytest.raises(SurveyWorkerError) as err:
                run_rr_survey(
                    world, dests=targets[:5], vps=list(world.vps)[:3],
                    jobs=jobs,
                )
            assert err.value.name == victim, (jobs, failure)
            if failure == "exit":
                assert "died mid-task" in err.value.message
            else:
                assert "synthetic probe failure" in err.value.message
            if jobs == 1:
                assert isinstance(err.value.__cause__, RuntimeError)

    def test_campaign_retries_worker_failures(self, monkeypatch,
                                              targets):
        """The campaign driver treats a failing VP as retryable and
        degrades to partial when it never heals — whether the attempt
        raises in-process (jobs=1) or kills its worker (jobs=2)."""
        import repro.faults.supervisor as supervisor_mod

        world = get_preset("tiny", 13)
        victim = world.vps[1].name
        real = supervisor_mod.probe_vp_rr
        test_pid = os.getpid()

        def sabotaged(scenario, vp, *args, **kwargs):
            if vp.name == victim:
                if os.getpid() != test_pid:
                    os._exit(1)
                raise RuntimeError("permanently broken")
            return real(scenario, vp, *args, **kwargs)

        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", sabotaged)
        for jobs in (1, 2):
            with _deadline(30):
                result = CampaignRunner(
                    world, jobs=jobs, max_retries=1
                ).run(targets=targets[:5], vps=list(world.vps)[:3])
            assert result.partial, jobs
            assert result.failed_vps == [victim], jobs
            assert result.attempts[victim] == 2, jobs  # initial + 1 retry


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail instead of hanging when the body outlives ``seconds``."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


class TestChaosCli:
    def test_kill_then_resume(self, tmp_path, capsys):
        from repro.cli import EXIT_INTERRUPTED, main

        ck = tmp_path / "ck.json"
        out = tmp_path / "survey.json"
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "chaos", "--dests", "20",
            "--checkpoint", str(ck), "--kill-after-vps", "2",
        ])
        assert code == EXIT_INTERRUPTED
        capsys.readouterr()
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "chaos", "--dests", "20",
            "--checkpoint", str(ck), "--resume",
            "--save-survey", str(out),
        ])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["resumed_vps"] >= 2
        assert manifest["partial"] is False
        assert out.exists()

    def test_bad_checkpoint_exits_2(self, tmp_path, capsys):
        """``chaos`` and ``study`` report an unusable ``--resume``
        checkpoint on stderr and exit 2, as ``serve`` does."""
        from repro.cli import EXIT_INTERRUPTED, main

        ck = tmp_path / "ck.json"
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7", "--dests", "30",
            "--checkpoint", str(ck), "--kill-after-vps", "2",
        ])
        assert code == EXIT_INTERRUPTED
        torn = tmp_path / "torn.json"
        torn.write_text("{\"version\": 1, \"tr", "utf-8")
        for command, path, needle in [
            ("chaos", ck, "fingerprint mismatch"),
            ("chaos", torn, "header"),
            ("study", ck, "fingerprint mismatch"),
            ("study", torn, "header"),
        ]:
            capsys.readouterr()
            args = [
                command, "--preset", "tiny", "--seed", "7",
                "--faults", "chaos", "--checkpoint", str(path), "--resume",
            ]
            if command == "chaos":
                args += ["--dests", "40"]
            else:
                args += ["--experiment", "table1"]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert f"{command}: {path}: " in err and needle in err
            assert "Traceback" not in err

    def test_stats_faults_flag_populates_counters(self, capsys):
        from repro.cli import main
        from repro.core.study import clear_study_cache

        clear_study_cache()
        code = main([
            "stats", "--preset", "tiny", "--seed", "7",
            "--faults", "loss-burst",
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "fault injection (by kind)" in rendered
        assert "loss_burst" in rendered
        assert "campaign resilience" in rendered
