"""Supervised execution: watchdog, quarantine, breakers, integrity.

The load-bearing properties pinned here:

* a campaign containing a permanently hanging VP and a crash-looping
  VP **terminates unattended**, quarantining both with machine-
  readable reasons, and the healthy VPs' merged bytes are identical
  across ``jobs in {1, 2, 4}``;
* a worker killed *mid-VP* contributes nothing — the retried attempt
  starts a fresh probe session, so recovered output is byte-identical
  to an unfaulted run;
* a campaign checkpoint is an append-only log — one checksummed line
  per completed VP, appended to the same file — and a resume drops a
  torn or corrupt tail (counting the repair) and still reproduces the
  uninterrupted bytes;
* every persisted artifact embeds a content checksum that is verified
  on load, and all writers share one atomic write-rename helper.
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.parallel import SurveyWorkerError
from repro.core.survey import (
    SurveyFormatError,
    load_survey,
    probe_vp_rr,
    run_rr_survey,
    save_survey,
)
from repro.faults import (
    CampaignInterrupted,
    CampaignRunner,
    CircuitBreaker,
    FaultPlan,
    SupervisionConfig,
    VpCrash,
    VpHang,
    VpHealthTracker,
    WorkerWatchdog,
    load_checkpoint,
)
from repro.faults.supervisor import (
    InjectedHang,
    run_vp_attempt,
    vp_attempt_body,
)
from repro.integrity import (
    canonical_members_bytes,
    checksummed_members_bytes,
)
from repro.probing.artifacts import (
    CHECKSUM_KEY,
    atomic_write_text,
    canonical_json_bytes,
    checksum_of,
    checksummed_json_bytes,
    embed_checksum,
    record_line,
    split_checksum,
    truncate_log,
    verified_record,
    verify_embedded_checksum,
)
from repro.probing.prober import DEFAULT_PPS
from repro.probing.scheduler import ProbeOrder
from repro.scenarios.faults import FAULT_PRESETS
from repro.scenarios.presets import get_preset

N_DESTS = 15
N_VPS = 6

#: Fast supervision knobs for test campaigns: a hang is "discovered"
#: in half a second and a single watchdog-level try is granted.
FAST = dict(
    hang_timeout=0.5, poll_interval=0.02, task_tries=1, quarantine_after=2
)


@pytest.fixture(scope="module")
def world():
    return get_preset("tiny", 7)


@pytest.fixture(scope="module")
def targets(world):
    return list(world.hitlist)[:N_DESTS]


@pytest.fixture(scope="module")
def vp_list(world):
    return list(world.vps)[:N_VPS]


def _survey_bytes(survey, tmp_path, name):
    path = tmp_path / name
    save_survey(survey, path)
    return path.read_bytes()


def _log_lines(path):
    """A checkpoint log's lines; asserts every one verifies and is
    newline-terminated."""
    data = path.read_bytes()
    assert data.endswith(b"\n")
    lines = data.splitlines()
    for line in lines:
        assert verified_record(line) is not None, line[:60]
    return lines


def _write_log(path, *records):
    """A checkpoint log of checksummed lines, one per record."""
    path.write_text(
        "".join(record_line(record) + "\n" for record in records), "utf-8"
    )
    return path


def _watchdog_payload(world, targets, vp_list, plan):
    position = {dest.addr: index for index, dest in enumerate(targets)}
    return {
        "task_body": vp_attempt_body,
        "targets": targets,
        "position": position,
        "vps": vp_list,
        "order": ProbeOrder.RANDOM,
        "slots": 9,
        "pps": DEFAULT_PPS,
        "plan": plan,
        "horizon": max(len(targets) / DEFAULT_PPS, 1e-9),
    }


# ---------------------------------------------------------------------------
# Configuration + circuit-breaker state machine (pure units).
# ---------------------------------------------------------------------------


class TestSupervisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(hang_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisionConfig(poll_interval=-1.0)
        with pytest.raises(ValueError):
            SupervisionConfig(task_tries=0)
        with pytest.raises(ValueError):
            SupervisionConfig(quarantine_after=0)
        with pytest.raises(ValueError):
            SupervisionConfig(breaker_threshold=0.0)
        with pytest.raises(ValueError):
            SupervisionConfig(breaker_window=0)
        with pytest.raises(ValueError):
            SupervisionConfig(breaker_cooldown_rounds=0)


class TestCircuitBreaker:
    def test_opens_at_threshold_over_full_window(self):
        breaker = CircuitBreaker(window=4, threshold=0.75, cooldown_rounds=1)
        assert breaker.record(False) is None  # window not full yet
        assert breaker.record(False) is None
        assert breaker.record(True) is None
        assert breaker.allows()
        assert breaker.record(False) == CircuitBreaker.OPEN
        assert not breaker.allows()

    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(window=4, threshold=0.75, cooldown_rounds=1)
        for ok in (False, True, False, True, False, True):
            assert breaker.record(ok) is None
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_success_closes_and_clears_history(self):
        breaker = CircuitBreaker(window=2, threshold=1.0, cooldown_rounds=1)
        breaker.record(False)
        assert breaker.record(False) == CircuitBreaker.OPEN
        assert breaker.start_round() == CircuitBreaker.HALF_OPEN
        assert breaker.allows()
        assert breaker.record(True) == CircuitBreaker.CLOSED
        # History cleared: one failure doesn't instantly re-open.
        assert breaker.record(False) is None
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(window=2, threshold=1.0, cooldown_rounds=2)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.start_round() is None  # cooldown 2 -> 1
        assert not breaker.allows()
        assert breaker.start_round() == CircuitBreaker.HALF_OPEN
        assert breaker.record(False) == CircuitBreaker.OPEN
        assert breaker.start_round() is None  # fresh cooldown burning
        assert breaker.start_round() == CircuitBreaker.HALF_OPEN


class TestVpHealthTracker:
    def _tracker(self, **overrides):
        config = SupervisionConfig(**{**FAST, **overrides})
        return VpHealthTracker(config, "test-net")

    def test_quarantines_after_k_poison_events(self):
        tracker = self._tracker(quarantine_after=2)
        assert tracker.record("vp-a", "hang") is None
        assert tracker.allows("vp-a")
        reason = tracker.record("vp-a", "hang")
        assert reason is not None
        assert reason["kind"] == "hang"
        assert reason["hangs"] == 2
        assert reason["threshold"] == 2
        assert "poison VP" in reason["reason"]
        assert not tracker.allows("vp-a")
        assert tracker.quarantined == {"vp-a": reason}

    def test_mixed_kind_and_failed_not_poison(self):
        tracker = self._tracker(quarantine_after=2)
        tracker.record("vp-b", "failed")
        tracker.record("vp-b", "failed")
        assert tracker.quarantined == {}  # plain failures never poison
        tracker.record("vp-b", "crash")
        reason = tracker.record("vp-b", "hang")
        assert reason is not None
        assert reason["kind"] == "mixed"
        assert reason["failed"] == 2

    def test_breaker_opens_and_skips_are_counted(self):
        tracker = self._tracker(
            breaker_window=2, breaker_threshold=1.0,
            breaker_cooldown_rounds=2, quarantine_after=99,
        )
        tracker.record("vp-c", "failed")
        tracker.record("vp-c", "failed")
        assert tracker.breaker_states() == {
            "vp-c": CircuitBreaker.OPEN
        }
        assert not tracker.allows("vp-c")  # skip counted
        tracker.start_round()  # cooldown 2 -> 1, still open
        assert not tracker.allows("vp-c")
        tracker.start_round()  # half-open
        assert tracker.allows("vp-c")
        tracker.record("vp-c", "ok")
        assert tracker.breaker_states() == {}


# ---------------------------------------------------------------------------
# Heartbeats + injected pathologies in the task body.
# ---------------------------------------------------------------------------


class TestHeartbeat:
    def test_probe_vp_rr_beats_once_per_destination(self, world, targets):
        position = {d.addr: i for i, d in enumerate(targets)}
        beats = []
        probe_vp_rr(
            world, world.working_vps[0], targets, position,
            heartbeat=lambda: beats.append(1),
        )
        assert len(beats) == len(targets)

    def test_unsupervised_hang_degrades_to_fast_failure(
        self, world, targets
    ):
        vp = world.working_vps[0]
        plan = FaultPlan(
            seed=1,
            specs=(VpHang(vps=(vp.name,), after_targets=0,
                          hang_seconds=60.0),),
        )
        position = {d.addr: i for i, d in enumerate(targets)}
        started = time.monotonic()
        with pytest.raises(InjectedHang):
            run_vp_attempt(
                world, vp, 1, plan, targets, position,
                ProbeOrder.RANDOM, 9, DEFAULT_PPS, 1.0,
                allow_hang=False,
            )
        # The honest stand-in for "stuck forever" must not stall tests.
        assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# The watchdog itself (deliberately wedged / dying workers).
# ---------------------------------------------------------------------------


class TestWorkerWatchdog:
    def test_hung_worker_is_killed_and_task_reported(
        self, world, targets, vp_list
    ):
        victim = vp_list[1].name
        plan = FaultPlan(
            seed=2,
            specs=(VpHang(vps=(victim,), after_targets=0,
                          hang_seconds=60.0),),
        )
        config = SupervisionConfig(**FAST)
        payload = _watchdog_payload(world, targets, vp_list, plan)
        with WorkerWatchdog(world, payload, 2, config) as watchdog:
            outcomes = watchdog.run_tasks(
                [(i, vp_list[i].name, 1) for i in range(3)]
            )
        assert outcomes[1][1] == "hang"
        assert "no heartbeat" in outcomes[1][2]
        assert outcomes[0][1] == "ok" and outcomes[2][1] == "ok"
        assert watchdog.hangs_detected >= 1
        assert watchdog.workers_respawned >= 1

    def test_task_tries_budget_bounds_respawn_cycles(
        self, world, targets, vp_list
    ):
        """Regression: a permanently hanging task must exhaust its
        watchdog-level try budget, not cycle kill/respawn forever."""
        victim_index = 1
        plan = FaultPlan(
            seed=2,
            specs=(VpHang(vps=(vp_list[victim_index].name,),
                          after_targets=0, hang_seconds=60.0),),
        )
        config = SupervisionConfig(**{**FAST, "task_tries": 2})
        payload = _watchdog_payload(world, targets, vp_list, plan)
        with WorkerWatchdog(world, payload, 1, config) as watchdog:
            outcomes = watchdog.run_tasks(
                [(victim_index, vp_list[victim_index].name, 1)]
            )
        assert outcomes[victim_index][1] == "hang"
        assert watchdog.hangs_detected == 2  # initial try + 1 re-queue
        assert watchdog.workers_respawned == 2

    def test_dead_worker_is_a_crash(self, world, targets, vp_list):
        victim = vp_list[2].name
        plan = FaultPlan(
            seed=3,
            specs=(VpCrash(vps=(victim,), after_targets=0),),
        )
        config = SupervisionConfig(**FAST)
        payload = _watchdog_payload(world, targets, vp_list, plan)
        with WorkerWatchdog(world, payload, 2, config) as watchdog:
            outcomes = watchdog.run_tasks(
                [(i, vp_list[i].name, 1) for i in range(4)]
            )
        assert outcomes[2][1] == "crash"
        assert "died mid-task" in outcomes[2][2]
        healthy = [i for i in range(4) if i != 2]
        assert all(outcomes[i][1] == "ok" for i in healthy)

    def test_validation(self, world, targets, vp_list):
        payload = _watchdog_payload(
            world, targets, vp_list, FaultPlan(seed=0)
        )
        with pytest.raises(ValueError):
            WorkerWatchdog(world, payload, 0, SupervisionConfig())


# ---------------------------------------------------------------------------
# Flight-recorder cadence: journal traffic grows with tasks and time.
# ---------------------------------------------------------------------------


def _beat_then_wedge_body(state, task, heartbeat):
    """Heartbeat a few times, each beat more than the poll interval
    after the last, then wedge without beating again."""
    for _ in range(4):
        heartbeat()
        time.sleep(state["gap"])
    time.sleep(60.0)


class TestJournalCadence:
    def test_quiet_task_journals_start_first_destination_end(
        self, world, vp_list
    ):
        """A task that finishes inside one poll interval journals its
        start, first destination and end — nothing per destination —
        while ``task_end`` still counts every destination."""
        dests = list(world.hitlist)[:300]
        config = SupervisionConfig(hang_timeout=60.0, poll_interval=30.0)
        payload = _watchdog_payload(
            world, dests, vp_list, FaultPlan(seed=0)
        )
        with WorkerWatchdog(world, payload, 2, config) as watchdog:
            outcomes = watchdog.run_tasks(
                [(i, vp_list[i].name, 1) for i in range(3)]
            )
        assert all(outcome[1] == "ok" for outcome in outcomes.values())
        for key in range(3):
            tail = watchdog.journal_tail(key)
            assert [event["kind"] for event in tail] == [
                "task_start", "first_destination", "task_end"
            ], key
            assert tail[-1]["destinations"] == len(dests)

    def test_killed_task_keeps_its_progress(self, world):
        """Progress flushed on the heartbeat clock is parent-side
        before the watchdog shoots a wedged worker."""
        config = SupervisionConfig(
            hang_timeout=0.5, poll_interval=0.02, task_tries=1
        )
        payload = {"task_body": _beat_then_wedge_body, "gap": 0.1}
        with WorkerWatchdog(world, payload, 1, config) as watchdog:
            outcomes = watchdog.run_tasks([(0, "wedged")])
        assert outcomes[0][1] == "hang"
        tail = watchdog.journal_tail(0)
        assert tail[-1]["kind"] == "watchdog_kill"
        progress = [event for event in tail if event["kind"] == "progress"]
        assert progress and progress[0]["destinations"] >= 1


# ---------------------------------------------------------------------------
# Supervised campaigns: the acceptance properties.
# ---------------------------------------------------------------------------


class TestSupervisedCampaign:
    def test_poison_vps_quarantined_bytes_parity_jobs_124(
        self, world, targets, vp_list, tmp_path
    ):
        """One permanently hanging VP + one crash-looping VP: the
        campaign terminates unattended, quarantines both with reasons,
        and healthy VPs' bytes are identical across worker counts."""
        hang_vp = vp_list[1].name
        crash_vp = vp_list[3].name
        plan = FaultPlan(
            seed=4,
            specs=(
                VpHang(vps=(hang_vp,), after_targets=3,
                       hang_seconds=60.0),
                VpCrash(vps=(crash_vp,), after_targets=2),
            ),
        )
        payloads = {}
        for jobs in (1, 2, 4):
            result = CampaignRunner(
                world, plan=plan, jobs=jobs, max_retries=3,
                supervision=SupervisionConfig(**FAST),
            ).run(targets=targets, vps=vp_list)
            assert result.partial
            assert result.supervised
            assert result.failed_vps == []  # quarantined, not failed
            assert set(result.quarantined) == {hang_vp, crash_vp}
            assert result.quarantined[hang_vp]["kind"] == "hang"
            assert result.quarantined[crash_vp]["kind"] == "crash"
            assert result.hangs_detected >= 2
            assert result.workers_respawned >= 2
            manifest = result.manifest()
            assert manifest["supervised"] is True
            assert set(manifest["quarantined_vps"]) == {
                hang_vp, crash_vp
            }
            payloads[jobs] = _survey_bytes(
                result.survey, tmp_path, f"sup-{jobs}.json"
            )
        assert payloads[1] == payloads[2] == payloads[4]

    def test_mid_vp_kill_recovers_byte_identical(
        self, world, targets, vp_list, tmp_path
    ):
        """A worker killed mid-VP (transient hang after 3 targets)
        contributes nothing; the retry's fresh probe session recovers
        output byte-identical to an unfaulted run."""
        baseline = _survey_bytes(
            run_rr_survey(world, dests=targets, vps=vp_list),
            tmp_path, "base.json",
        )
        victim = vp_list[2].name
        plan = FaultPlan(
            seed=5,
            specs=(VpHang(vps=(victim,), attempts=1, after_targets=3,
                          hang_seconds=60.0),),
        )
        result = CampaignRunner(
            world, plan=plan, jobs=2, max_retries=2,
            supervision=SupervisionConfig(**FAST),
        ).run(targets=targets, vps=vp_list)
        assert not result.partial
        assert result.quarantined == {}
        assert result.hangs_detected >= 1
        assert result.attempts[victim] == 2
        assert _survey_bytes(
            result.survey, tmp_path, "healed.json"
        ) == baseline

    def test_breaker_holds_back_failing_vp(
        self, monkeypatch, world, targets, vp_list
    ):
        """A VP that plain-fails (no hang/crash) trips its breaker:
        open rounds skip it without consuming attempts, a half-open
        probe re-tests it, and the manifest reports the open state."""
        import repro.faults.supervisor as supervisor_mod

        victim = vp_list[0].name
        real = supervisor_mod.probe_vp_rr

        def sabotaged(scenario, vp, *args, **kwargs):
            if vp.name == victim:
                raise RuntimeError("permanently broken")
            return real(scenario, vp, *args, **kwargs)

        # Fork-based workers spawned after the patch inherit it.
        monkeypatch.setattr(supervisor_mod, "probe_vp_rr", sabotaged)
        config = SupervisionConfig(
            **{**FAST, "quarantine_after": 99},
            breaker_window=2, breaker_threshold=1.0,
            breaker_cooldown_rounds=2,
        )
        result = CampaignRunner(
            world, jobs=2, max_retries=3, supervision=config,
        ).run(targets=targets, vps=vp_list)
        assert result.partial
        assert result.failed_vps == [victim]
        assert result.quarantined == {}
        assert result.breaker_states == {victim: CircuitBreaker.OPEN}
        # Rounds 0+1 fail and open the breaker; round 2 is skipped
        # (cooldown); round 3 half-opens and fails once more.
        assert result.attempts[victim] == 3


# ---------------------------------------------------------------------------
# Append-only checkpoint log, schema validation, auto-repair.
# ---------------------------------------------------------------------------


_MISBEHAVING = FaultPlan(
    seed=5, specs=FAULT_PRESETS["chaos"] + FAULT_PRESETS["misbehave"]
)


class TestCheckpointIntegrity:
    def _interrupted(self, world, targets, vp_list, ck):
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(
                world, checkpoint_path=ck, kill_after_vps=3,
            ).run(targets=targets, vps=vp_list)

    def test_appends_not_rewrites(
        self, world, targets, vp_list, tmp_path, monkeypatch
    ):
        """Every completed VP appends one canonical checksummed line to
        the same file: the previous bytes stay, the inode stays, and no
        ``.1`` sibling ever appears."""
        import repro.faults.campaign as campaign_mod

        ck = tmp_path / "camp.ckpt"
        real_append = campaign_mod.append_text_line
        inodes = []

        def spy(path, line):
            before = ck.read_bytes()
            inodes.append(ck.stat().st_ino)
            real_append(path, line)
            assert ck.read_bytes() == before + line.encode() + b"\n"
            assert ck.stat().st_ino == inodes[-1]
            assert [p.name for p in tmp_path.iterdir()] == [ck.name]

        monkeypatch.setattr(campaign_mod, "append_text_line", spy)
        result = CampaignRunner(
            world, plan=_MISBEHAVING, checkpoint_path=ck
        ).run(targets=targets, vps=vp_list)
        assert result.retry_rounds >= 1  # attempts change between lines
        completed = len(vp_list) - len(result.failed_vps)
        assert len(inodes) == completed
        assert set(inodes) == {ck.stat().st_ino}
        lines = _log_lines(ck)
        assert len(lines) == 1 + completed
        for line in lines:
            assert line.decode() == record_line(verified_record(line))
        data = load_checkpoint(ck)
        assert data["fingerprint"] == CampaignRunner(
            world, plan=_MISBEHAVING
        ).fingerprint(targets, vp_list)
        assert set(data["completed"]) == (
            {vp.name for vp in vp_list} - set(result.failed_vps)
        )

    def test_resumed_run_appends_to_killed_log(
        self, world, targets, vp_list, tmp_path
    ):
        """A clean resume appends to the killed run's log in place; the
        folded log equals an uninterrupted run's."""
        full = tmp_path / "full.ckpt"
        CampaignRunner(world, plan=_MISBEHAVING, checkpoint_path=full).run(
            targets=targets, vps=vp_list
        )
        ck = tmp_path / "camp.ckpt"
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(
                world, plan=_MISBEHAVING, checkpoint_path=ck,
                kill_after_vps=3,
            ).run(targets=targets, vps=vp_list)
        killed, inode = ck.read_bytes(), ck.stat().st_ino
        assert len(_log_lines(ck)) == 1 + 3
        resumed = CampaignRunner(
            world, plan=_MISBEHAVING, checkpoint_path=ck
        ).run(targets=targets, vps=vp_list, resume=True)
        assert resumed.resumed_vps == 3
        assert resumed.checkpoint_repairs == 0
        assert ck.read_bytes().startswith(killed)
        assert ck.stat().st_ino == inode
        _log_lines(ck)
        assert (
            load_checkpoint(ck)["completed"]
            == load_checkpoint(full)["completed"]
        )

    def test_corrupt_newest_auto_repaired(
        self, world, targets, vp_list, tmp_path
    ):
        from repro.obs.metrics import REGISTRY
        from repro.probing.artifacts import checkpoint_repair_counter

        baseline = _survey_bytes(
            CampaignRunner(world).run(
                targets=targets, vps=vp_list
            ).survey,
            tmp_path, "base.json",
        )
        ck = tmp_path / "camp.ckpt"
        self._interrupted(world, targets, vp_list, ck)
        ck.write_bytes(ck.read_bytes()[:-9])  # torn final line
        repairs = checkpoint_repair_counter(REGISTRY).labels("campaign")
        before = repairs.value
        resumed = CampaignRunner(
            world, checkpoint_path=ck,
        ).run(targets=targets, vps=vp_list, resume=True)
        assert resumed.checkpoint_repairs == 1
        assert repairs.value == before + 1
        assert resumed.resumed_vps == 2  # the torn third line is gone
        assert not resumed.partial
        assert _survey_bytes(
            resumed.survey, tmp_path, "repaired.json"
        ) == baseline
        # The torn line was cut off before the first append.
        assert len(_log_lines(ck)) == 1 + len(vp_list)
        assert set(load_checkpoint(ck)["completed"]) == {
            vp.name for vp in vp_list
        }

    def test_prefix_loader_semantics(self, tmp_path):
        header = {"version": 2, "fingerprint": "f" * 16}
        entries = [
            {
                "completed": {
                    name: {"rows": [[0, 3]], "inprefix": [], "quality": {}}
                },
                "attempts": attempts,
            }
            for name, attempts in (
                ("a", {"a": 1}),
                ("b", {"a": 1, "b": 2, "c": 1}),
            )
        ]
        ck = _write_log(tmp_path / "x.ckpt", header, *entries)
        good = ck.read_bytes()
        data = load_checkpoint(ck)
        assert data["fingerprint"] == "f" * 16
        assert set(data["completed"]) == {"a", "b"}
        assert data["attempts"] == {"a": 1, "b": 2, "c": 1}
        assert data["lines"] == good.splitlines()
        assert not truncate_log(ck, data["lines"])
        # A torn tail, or a whole last line missing its newline, is
        # not part of the log; cutting it keeps the inode.
        for tail in (b'{"completed":{"c"', record_line(entries[0]).encode()):
            ck.write_bytes(good + tail)
            inode = ck.stat().st_ino
            data = load_checkpoint(ck)
            assert data["lines"] == good.splitlines()
            assert truncate_log(ck, data["lines"])
            assert ck.read_bytes() == good and ck.stat().st_ino == inode
        # A corrupt line ends the log there, even before good lines.
        corrupt = bytearray(good)
        corrupt[good.index(b"\n") + 5] ^= 0x01
        ck.write_bytes(bytes(corrupt))
        data = load_checkpoint(ck)
        assert data["completed"] == {} and data["attempts"] == {}
        assert len(data["lines"]) == 1
        # An unreadable header is an error, good lines after it or not.
        for broken in (b"", b"garbage\n" + good):
            ck.write_bytes(broken)
            with pytest.raises(SurveyFormatError) as err:
                load_checkpoint(ck)
            assert str(ck) in str(err.value) and "header" in str(err.value)

    def test_schema_validation(self, tmp_path):
        def write(record, name="s.ckpt"):
            header = {
                key: record[key]
                for key in ("version", "fingerprint")
                if key in record
            }
            entry = {
                key: record[key]
                for key in ("completed", "attempts")
                if key in record
            }
            return _write_log(tmp_path / name, header, entry)

        valid = {
            "version": 2,
            "fingerprint": "ab",
            "completed": {
                "vp": {"rows": [], "inprefix": [], "quality": {}}
            },
            "attempts": {"vp": 1},
        }
        load_checkpoint(write(valid))  # sanity
        for mutate, needle in [
            (lambda d: d.pop("fingerprint"), "fingerprint"),
            (lambda d: d.pop("attempts"), "attempts"),
            (lambda d: d.update(fingerprint=7), "fingerprint"),
            (lambda d: d.update(completed=[1]), "completed"),
            (lambda d: d["completed"]["vp"].pop("rows"), "rows"),
            (
                lambda d: d["completed"]["vp"].update(inprefix=3),
                "inprefix",
            ),
            (lambda d: d.update(attempts={"vp": True}), "integer"),
            (lambda d: d.update(attempts={"vp": "2"}), "integer"),
        ]:
            record = json.loads(json.dumps(valid))
            mutate(record)
            with pytest.raises(SurveyFormatError) as err:
                load_checkpoint(write(record))
            assert needle in str(err.value)


# ---------------------------------------------------------------------------
# Artifact checksums + the shared atomic writer.
# ---------------------------------------------------------------------------


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
#: Top-level keys around the checksum's sorted place, the stale
#: checksum key itself, and arbitrary text.
_KEYS = st.sampled_from(
    ("", "a", "s", "sha", "sha25", "sha256", "sha2560", "sha257",
     "shb", "z", "SHA256", "\u00e9")
) | st.text(max_size=8)


class TestArtifactIntegrity:
    @settings(max_examples=300)
    @given(st.dictionaries(_KEYS, _JSON, max_size=8))
    @example({})
    @example({CHECKSUM_KEY: "stale"})
    @example({"a": 1, CHECKSUM_KEY: "0" * 64, "z": {CHECKSUM_KEY: 2}})
    def test_one_pass_encoding_equals_two_pass(self, record):
        """Keys on both sides of the checksum's sorted place, nested
        look-alikes and a stale digest all encode as the two-pass
        ``canonical_json_bytes(embed_checksum(record))``."""
        data = checksummed_json_bytes(record)
        assert data == canonical_json_bytes(embed_checksum(record))
        assert record_line(record) == data.decode("utf-8")

    @staticmethod
    def _spliced(value):
        """``value``'s canonical bytes, with every nested map spliced
        from its members' bytes as a pool worker splices an attempt."""
        if isinstance(value, dict):
            return canonical_members_bytes(
                {key: TestArtifactIntegrity._spliced(v)
                 for key, v in value.items()}
            )
        return canonical_json_bytes(value)

    @settings(max_examples=300)
    @given(st.dictionaries(_KEYS, _JSON, max_size=8))
    @example({})
    @example({CHECKSUM_KEY: "stale"})
    @example({
        "attempts": {"mlab-iad": 2, "\u00e9t\u00e9": 1},
        "completed": {"mlab-iad": {
            "inprefix": [], "rows": [[0, None], [1, 3]],
            "quality": {"checked": 2, "degraded": [],
                        "quarantined": [{"rtt": 0.25, "vp": "\u00e9"}]},
        }},
        "z": [None, -1.5e-300, {"a": {}}],
    })
    def test_member_splice_equals_whole_record(self, record):
        """A record spliced from pre-encoded members — nested maps
        spliced too — is byte for byte the record encoded whole, by
        the two-pass oracle, ``checksummed_json_bytes`` and
        ``record_line``."""
        members = {key: self._spliced(value) for key, value in record.items()}
        data = checksummed_members_bytes(members)
        assert data == canonical_json_bytes(embed_checksum(record))
        assert data == checksummed_json_bytes(record)
        assert data.decode("utf-8") == record_line(record)
        body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
        assert canonical_members_bytes(
            {k: v for k, v in members.items() if k != CHECKSUM_KEY}
        ) == canonical_json_bytes(body)

    @given(st.lists(st.lists(_JSON, max_size=3), max_size=4))
    @example([[], [{"vp": "a"}], [], [None, 0.5, "\u00e9"]])
    def test_joined_lists_equal_the_concatenation(self, lists):
        """The sidecar's ``records``/``degraded`` splice: per-VP list
        bytes joined in order are the concatenated list's bytes."""
        from repro.faults.campaign import _joined_lists

        whole = [item for part in lists for item in part]
        assert _joined_lists(
            [canonical_json_bytes(part) for part in lists]
        ) == canonical_json_bytes(whole)

    def test_checksum_roundtrip(self):
        record = {"b": 2, "a": [1, 2]}
        sealed = embed_checksum(record)
        assert sealed[CHECKSUM_KEY] == checksum_of(record)
        body, stored = split_checksum(sealed)
        assert body == record and stored == sealed[CHECKSUM_KEY]
        verified, error = verify_embedded_checksum(sealed)
        assert error is None and verified == record
        # Legacy records (no checksum) pass through untouched.
        body, error = verify_embedded_checksum(record)
        assert error is None and body == record

    def test_tamper_is_detected(self):
        sealed = embed_checksum({"a": 1})
        sealed["a"] = 2
        _body, error = verify_embedded_checksum(sealed)
        assert error is not None and "mismatch" in error

    def test_atomic_write_leaves_no_droppings(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text("utf-8") == "second"
        assert list(tmp_path.iterdir()) == [path]

    def test_saved_survey_embeds_verified_checksum(
        self, world, targets, tmp_path
    ):
        from repro.obs.metrics import REGISTRY
        from repro.probing.artifacts import checksum_verified_counter

        survey = run_rr_survey(
            world, dests=targets[:5], vps=list(world.vps)[:2]
        )
        path = tmp_path / "s.json"
        save_survey(survey, path)
        record = json.loads(path.read_text("utf-8"))
        assert record[CHECKSUM_KEY] == checksum_of(record)
        verified = checksum_verified_counter(REGISTRY).labels("survey")
        before = verified.value
        load_survey(path)
        assert verified.value == before + 1

    def test_corrupted_survey_fails_checksum(
        self, world, targets, tmp_path
    ):
        survey = run_rr_survey(
            world, dests=targets[:5], vps=list(world.vps)[:2]
        )
        path = tmp_path / "s.json"
        save_survey(survey, path)
        record = json.loads(path.read_text("utf-8"))
        record[CHECKSUM_KEY] = "0" * 64  # bit-rot stand-in
        path.write_text(json.dumps(record), "utf-8")
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert "checksum" in str(err.value)


# ---------------------------------------------------------------------------
# Spawn-compatibility of the worker error type.
# ---------------------------------------------------------------------------


def _spawn_child_send_error(conn):  # module-level: pickled by reference
    conn.send(SurveyWorkerError("rr", 3, "mlab-nyc", "KeyError: 'x'"))
    conn.close()


class TestSpawnCompat:
    def test_worker_error_roundtrips_under_spawn(self):
        """``SurveyWorkerError`` crosses a *spawn*-context pipe intact
        (spawn re-imports the module and re-pickles everything, the
        strictest of the start methods)."""
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_spawn_child_send_error, args=(child_conn,)
        )
        process.start()
        child_conn.close()
        try:
            err = parent_conn.recv()
        finally:
            process.join(timeout=30.0)
        assert process.exitcode == 0
        assert isinstance(err, SurveyWorkerError)
        assert err.task_kind == "rr"
        assert err.index == 3
        assert err.name == "mlab-nyc"
        assert "mlab-nyc" in str(err)


# ---------------------------------------------------------------------------
# CLI surface: --supervise and the quarantine exit code.
# ---------------------------------------------------------------------------


class TestSuperviseCli:
    def test_supervised_chaos_exits_4_and_writes_health(
        self, tmp_path, capsys
    ):
        from repro.cli import EXIT_QUARANTINED, main
        from repro.obs.metrics import REGISTRY

        REGISTRY.reset()  # the health summary is process-wide
        stats = tmp_path / "health.json"
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "none", "--dests", "15", "--jobs", "2",
            "--supervise", "--hang-timeout", "0.5",
            "--quarantine-after", "2",
            "--hang-vp", "mlab-lax", "--crash-vp", "mlab-mia",
            "--stats-output", str(stats),
        ])
        assert code == EXIT_QUARANTINED == 4
        manifest = json.loads(capsys.readouterr().out)
        assert set(manifest["quarantined_vps"]) == {
            "mlab-lax", "mlab-mia"
        }
        assert manifest["quarantined_vps"]["mlab-lax"]["kind"] == "hang"
        assert manifest["supervised"] is True
        payload = json.loads(stats.read_text("utf-8"))
        assert payload["manifest"]["partial"] is True
        health = payload["health"]
        assert health["hangs_detected"] >= 1
        assert health["workers_respawned"] >= 1
        assert health["quarantines"]["hang"] == 1
        assert health["quarantines"]["crash"] == 1

    def test_unknown_hang_vp_is_rejected(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--dests", "5", "--supervise", "--hang-vp", "nonesuch",
        ])
        assert code == 2
        assert "nonesuch" in capsys.readouterr().err
