"""The multi-tenant measurement service: admission, credits, fair-share
scheduling, streams, daemon determinism, checkpoint log, control
socket, CLI.

The load-bearing properties pinned here:

* admission control rejects with machine-readable reasons, in a fixed
  order, and a zero-credit tenant is refused outright;
* per-tenant result streams are byte-identical for jobs in {1, 2, 4}
  and across kill→resume, and an over-quota spec is rejected
  identically on every run;
* mid-campaign credit exhaustion *pauses* a spec without corrupting
  its stream, and accrual later resumes it to completion;
* resume restores credit balances exactly as checkpointed;
* the checkpoint is an append-only log whose fold equals the whole
  state at every write; a resume drops (and counts) a torn or corrupt
  tail, and refuses a bad header or entry without touching any file;
* stream recovery drops torn tails and re-seals deterministically,
  while strict loads refuse tampered bytes;
* the status renderer tolerates legacy / partial snapshots.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.parallel import WorkerWatchdog
from repro.core.survey import probe_vp_rr
from repro.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.probing.artifacts import (
    CHECKPOINT_VERSION,
    SurveyFormatError,
    checkpoint_repair_counter,
    embed_checksum,
    record_line,
    verified_prefix,
    verified_record,
)
from repro.obs.status import render_status
from repro.probing.prober import DEFAULT_PPS
from repro.probing.scheduler import ProbeOrder
from repro.rng import derive_seed
from repro.scenarios.faults import build_fault_plan
from repro.scenarios.presets import get_preset
from repro.scenarios.service import demo_quota, demo_spec_records
from repro.service import (
    CreditLedger,
    MeasurementDaemon,
    ServiceConfig,
    ServiceInterrupted,
    SpecError,
    TenantQuota,
    load_stream,
    parse_spec,
)
from repro.service.control import (
    ControlError,
    _recv_line,
    control_request,
    control_session,
)
from repro.service.scheduler import (
    ACTIVE,
    CreditScheduler,
    DONE,
    PAUSED,
    REJECTED,
)
from repro.service.executor import make_unit_task, service_unit_body
from repro.service.specs import resolve_targets, resolve_vps, spec_costs
from repro.service.streams import StreamFormatError, TenantStream


SPECS = [
    {"tenant": "alice", "name": "rr-a", "kind": "rr", "target_count": 8,
     "vp_policy": "mlab", "vp_limit": 2},
    {"tenant": "bob", "name": "ping-b", "kind": "ping",
     "target_count": 5, "vp_policy": "planetlab", "vp_limit": 1},
    {"tenant": "carol", "name": "rr-c", "kind": "rr", "target_count": 6,
     "target_offset": 3, "vp_policy": "working", "vp_limit": 2,
     "priority": 0},
    # Over the 200-probe budget below on every run: rejected
    # deterministically at admission.
    {"tenant": "carol", "name": "flood", "kind": "rr",
     "target_count": 60, "vp_policy": "working"},
]

QUOTA = TenantQuota(
    initial_credits=120.0,
    accrual_per_round=40.0,
    balance_cap=240.0,
    max_probes_per_spec=200,
)


def _registry() -> MetricsRegistry:
    return MetricsRegistry()


def _scenario():
    return get_preset("tiny", seed=7)


def _config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        stream_dir=tmp_path / "streams",
        jobs=1,
        quota=QUOTA,
        checkpoint_path=tmp_path / "service.ckpt",
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _run_daemon(tmp_path: Path, **overrides):
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path, **overrides), registry=_registry()
    )
    responses = [daemon.submit(record) for record in SPECS]
    manifest = daemon.run()
    return responses, manifest


def _stream_hashes(stream_dir: Path) -> dict:
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(Path(stream_dir).rglob("*.jsonl"))
    }


# -- specs -----------------------------------------------------------------


def test_parse_spec_roundtrip():
    spec = parse_spec(SPECS[0])
    assert spec.tenant == "alice" and spec.kind == "rr"
    assert parse_spec(spec.to_record()) == spec


@pytest.mark.parametrize(
    "mutation, reason",
    [
        ({"tenant": None}, "missing_field"),
        ({"kind": "traceroute"}, "unknown_kind"),
        ({"name": "no spaces allowed"}, "bad_name"),
        ({"vp_policy": "quantum"}, "unknown_vp_policy"),
        ({"target_count": 0}, "bad_field"),
        ({"frobnicate": 1}, "unknown_field"),
    ],
)
def test_parse_spec_rejections(mutation, reason):
    record = dict(SPECS[0])
    for key, value in mutation.items():
        if value is None:
            record.pop(key, None)
        else:
            record[key] = value
    with pytest.raises(SpecError) as err:
        parse_spec(record)
    assert err.value.reason == reason
    assert err.value.to_response()["ok"] is False


def test_spec_costs_count_every_probe(tiny_scenario):
    spec = parse_spec(SPECS[1])  # ping: 3 packets per target
    vps = resolve_vps(spec, tiny_scenario)
    targets = resolve_targets(spec, tiny_scenario)
    unit_cost, total_cost = spec_costs(spec, vps, targets, 1.0)
    assert unit_cost == len(targets) * 3
    assert total_cost == unit_cost * len(vps)


# -- credits and admission -------------------------------------------------


def test_zero_credit_tenant_is_rejected(tiny_scenario):
    ledger = CreditLedger(
        TenantQuota(initial_credits=0.0, balance_cap=100.0),
        registry=_registry(),
    )
    scheduler = CreditScheduler(ledger, registry=_registry())
    response, state = scheduler.submit(parse_spec(SPECS[0]), tiny_scenario)
    assert response["ok"] is False
    assert response["reason"] == "insufficient_credits"
    assert state is None
    # The rejection occupies a terminal slot: no work, but reported.
    assert not scheduler.has_work()
    assert scheduler.specs[("alice", "rr-a")].status == REJECTED


def test_admission_rejection_order(tiny_scenario):
    quota = TenantQuota(
        initial_credits=5.0, balance_cap=10.0, max_probes_per_spec=10,
        max_active_specs=1,
    )
    ledger = CreditLedger(quota, registry=_registry())
    scheduler = CreditScheduler(ledger, registry=_registry())
    small = {"tenant": "t", "name": "s1", "kind": "rr",
             "target_count": 1, "vp_policy": "mlab", "vp_limit": 2}
    response, state = scheduler.submit(parse_spec(small), tiny_scenario)
    assert response["ok"], response
    # Concurrency limit outranks the budget check.
    over = dict(small, name="s2", target_count=50)
    response, _ = scheduler.submit(parse_spec(over), tiny_scenario)
    assert response["reason"] == "too_many_active_specs"
    state.status = DONE
    response, _ = scheduler.submit(
        parse_spec(dict(over, name="s3")), tiny_scenario
    )
    assert response["reason"] == "spec_budget_exceeds_quota"
    response, _ = scheduler.submit(
        parse_spec(dict(small, name="s1")), tiny_scenario
    )
    assert response["reason"] == "duplicate_spec"


def test_accrual_caps_and_signals_starvation():
    ledger = CreditLedger(
        TenantQuota(
            initial_credits=90.0, accrual_per_round=40.0,
            balance_cap=100.0,
        ),
        registry=_registry(),
    )
    account = ledger.account("t")
    assert ledger.accrue_round() == 10.0  # clipped to the cap
    assert account.balance == 100.0
    assert ledger.accrue_round() == 0.0  # at cap: starvation signal
    assert ledger.charge("t", 250.0) is False  # refuses, never negative
    assert ledger.charge("t", 60.0) is True
    assert account.balance == 40.0 and account.spent == 60.0


def test_ledger_restore_is_exact():
    ledger = CreditLedger(QUOTA, registry=_registry())
    ledger.account("a").balance = 12.345678901
    ledger.account("a").spent = 7.0
    snapshot = ledger.balances()
    other = CreditLedger(QUOTA, registry=_registry())
    other.restore(snapshot)
    assert other.balances() == snapshot


# -- fair-share planning ---------------------------------------------------


def test_plan_round_is_fair_and_priority_ordered(tiny_scenario):
    ledger = CreditLedger(
        TenantQuota(initial_credits=1000.0, balance_cap=1000.0,
                    max_probes_per_spec=2000),
        registry=_registry(),
    )
    scheduler = CreditScheduler(ledger, registry=_registry())
    for record in SPECS[:3]:
        response, _ = scheduler.submit(parse_spec(record), tiny_scenario)
        assert response["ok"], response
    plan = scheduler.plan_round(allows=None)
    order = [state.spec.label for state, _unit in plan]
    # Pass 1 visits tenants alphabetically, one unit each; carol's
    # priority-0 spec still cannot jump ahead of other *tenants*.
    assert order[:3] == ["alice/rr-a", "bob/ping-b", "carol/rr-c"]
    # Unit indexes within one spec ascend across passes.
    rr_a_units = [u for s, u in plan if s.spec.label == "alice/rr-a"]
    assert rr_a_units == sorted(rr_a_units)


def test_breaker_gate_skips_tenant(tiny_scenario):
    ledger = CreditLedger(QUOTA, registry=_registry())
    scheduler = CreditScheduler(ledger, registry=_registry())
    for record in SPECS[:2]:
        scheduler.submit(parse_spec(record), tiny_scenario)
    plan = scheduler.plan_round(allows=lambda tenant: tenant != "alice")
    assert all(s.spec.tenant != "alice" for s, _ in plan)
    assert any(s.spec.tenant == "bob" for s, _ in plan)


# -- streams ---------------------------------------------------------------


def test_stream_recovery_drops_torn_tail(tmp_path):
    path = tmp_path / "t" / "s.jsonl"
    stream = TenantStream.open(path, "t", "s")
    stream.append({"record": "unit", "unit": 0, "x": 1})
    stream.append({"record": "unit", "unit": 1, "x": 2})
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"record": "unit", "unit": 2, "torn')
    recovered = TenantStream.open(path, "t", "s")
    assert recovered.records == 2
    records, trailer = load_stream(path, require_trailer=False)
    assert [r["unit"] for r in records] == [0, 1]
    assert trailer is None


def test_stream_truncates_to_checkpointed_count(tmp_path):
    path = tmp_path / "s.jsonl"
    stream = TenantStream.open(path, "t", "s")
    for unit in range(3):
        stream.append({"record": "unit", "unit": unit})
    # Crash hit between flushing unit 2 and checkpointing it: resume
    # rewinds to the checkpoint's 2 records.
    recovered = TenantStream.open(path, "t", "s", expect_records=2)
    assert recovered.records == 2
    with pytest.raises(StreamFormatError):
        TenantStream.open(path, "t", "s", expect_records=5)


def test_stream_trailer_seals_and_detects_tamper(tmp_path):
    path = tmp_path / "s.jsonl"
    stream = TenantStream.open(path, "t", "s")
    stream.append({"record": "unit", "unit": 0, "rows": [[0, 3]]})
    stream.finalize()
    records, trailer = load_stream(path)
    assert trailer["records"] == 1 and len(records) == 1
    lines = path.read_text("utf-8").splitlines()
    body = json.loads(lines[0])
    body["rows"] = [[0, 4]]  # tamper but keep the old checksum
    path.write_text(
        json.dumps(body, sort_keys=True) + "\n" + lines[1] + "\n",
        "utf-8",
    )
    with pytest.raises(StreamFormatError):
        load_stream(path)


# -- daemon determinism (the gate) -----------------------------------------


def test_streams_byte_identical_across_worker_counts(tmp_path):
    hashes = {}
    rejects = {}
    for jobs in (1, 2, 4):
        workdir = tmp_path / f"jobs{jobs}"
        responses, manifest = _run_daemon(workdir, jobs=jobs)
        hashes[jobs] = _stream_hashes(workdir / "streams")
        rejects[jobs] = [r for r in responses if not r.get("ok")]
        assert manifest["specs"]["carol/flood"]["status"] == "rejected"
    assert hashes[1] == hashes[2] == hashes[4]
    assert len(hashes[1]) == 3  # flood never gets a stream
    # The over-quota rejection is itself deterministic.
    assert rejects[1] == rejects[2] == rejects[4]
    assert rejects[1][0]["reason"] == "spec_budget_exceeds_quota"


def test_kill_resume_is_byte_identical_and_restores_balances(tmp_path):
    _responses, _manifest = _run_daemon(tmp_path / "base")
    baseline = _stream_hashes(tmp_path / "base" / "streams")

    workdir = tmp_path / "killed"
    daemon = MeasurementDaemon(
        _scenario(),
        _config(workdir, kill_after_units=3),
        registry=_registry(),
    )
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()

    last = verified_prefix(workdir / "service.ckpt")[-1][1]
    resumed = MeasurementDaemon(
        _scenario(), _config(workdir), registry=_registry()
    )
    assert resumed.restore() is True
    # Balances come back exactly as the log's last line holds them —
    # not re-derived.
    assert resumed.ledger.balances() == last["balances"]
    # The rejected spec stays rejected without being re-admitted.
    flood = resumed.scheduler.specs[("carol", "flood")]
    assert flood.status == REJECTED
    assert flood.reason["reason"] == "spec_budget_exceeds_quota"
    manifest = resumed.run()
    assert manifest["state"] == "done"
    assert _stream_hashes(workdir / "streams") == baseline


def test_resume_after_crash_between_flush_and_checkpoint(tmp_path):
    responses, _manifest = _run_daemon(tmp_path / "base")
    baseline = _stream_hashes(tmp_path / "base" / "streams")

    workdir = tmp_path / "torn"
    daemon = MeasurementDaemon(
        _scenario(),
        _config(workdir, kill_after_units=2),
        registry=_registry(),
    )
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()
    # Simulate the flush-then-crash window: append one extra valid
    # record beyond what the checkpoint recorded; resume must rewind
    # and replay it identically.
    streams = sorted((workdir / "streams").rglob("*.jsonl"))
    victim = next(p for p in streams if p.stat().st_size > 0)
    first_line = victim.read_text("utf-8").splitlines()[0]
    with open(victim, "a", encoding="utf-8") as fh:
        fh.write(first_line + "\n")
    resumed = MeasurementDaemon(
        _scenario(), _config(workdir), registry=_registry()
    )
    resumed.restore()
    assert resumed.run()["state"] == "done"
    assert _stream_hashes(workdir / "streams") == baseline


# -- quota exhaustion mid-campaign -----------------------------------------


def test_exhaustion_pauses_then_accrual_resumes(tmp_path):
    # Enough to admit (balance > 0) but not to fund every unit up
    # front: the spec must pause mid-campaign, then resume as accrual
    # catches up, and still finish with a sealed, valid stream.
    quota = TenantQuota(
        initial_credits=10.0, accrual_per_round=2.0, balance_cap=60.0,
        max_probes_per_spec=200,
    )
    registry = _registry()
    daemon = MeasurementDaemon(
        _scenario(),
        _config(tmp_path, quota=quota),
        registry=registry,
    )
    response = daemon.submit(SPECS[0])  # 8 credits per unit, 2 units
    assert response["ok"], response
    manifest = daemon.run()
    spec_row = manifest["specs"]["alice/rr-a"]
    assert spec_row["status"] == "done"
    assert spec_row["units_done"] == 2
    paused = registry.counter(
        "service_specs_paused_total", "", ["tenant"]
    ).totals(by="tenant")
    assert paused.get("alice", 0) >= 1
    records, trailer = load_stream(spec_row["stream"])
    assert len(records) == 2 and trailer["records"] == 2


def test_starved_spec_parks_without_corrupting_stream(tmp_path):
    # No accrual at all: after the first affordable unit the spec can
    # never progress; the daemon must terminate (not spin) and leave a
    # valid, recoverable stream behind.
    quota = TenantQuota(
        initial_credits=10.0, accrual_per_round=0.0, balance_cap=10.0,
        max_probes_per_spec=200,
    )
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path, quota=quota), registry=_registry()
    )
    assert daemon.submit(SPECS[0])["ok"]  # 8 credits/unit, 2 units
    manifest = daemon.run()
    spec_row = manifest["specs"]["alice/rr-a"]
    assert spec_row["status"] == PAUSED
    assert spec_row["units_done"] == 1
    records, trailer = load_stream(
        spec_row["stream"], require_trailer=False
    )
    assert len(records) == 1 and trailer is None
    assert manifest["balances"]["alice"]["balance"] == pytest.approx(2.0)


# -- scheduling determinism without probing --------------------------------


def test_plan_sequence_reproducible(tiny_scenario):
    def plan_all():
        ledger = CreditLedger(QUOTA, registry=_registry())
        scheduler = CreditScheduler(ledger, registry=_registry())
        for record in SPECS:
            scheduler.submit(parse_spec(record), tiny_scenario)
        sequence = []
        while scheduler.has_work() and scheduler.rounds < 50:
            ledger.accrue_round()
            plan = scheduler.plan_round(allows=None)
            for state, unit in plan:
                sequence.append((state.spec.label, unit))
                ledger.charge(state.spec.tenant, state.unit_cost)
                scheduler.record_success(state)
                if state.next_unit >= state.units_total:
                    state.status = DONE
        return sequence

    first = plan_all()
    assert first == plan_all()
    assert first, "expected a non-empty plan sequence"


# -- control socket --------------------------------------------------------


def test_control_socket_round_trip(tmp_path):
    config = _config(
        tmp_path, control_path=tmp_path / "ctl.sock",
        checkpoint_path=None,
    )
    daemon = MeasurementDaemon(
        _scenario(), config, registry=_registry()
    )
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(manifest=daemon.run())
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not config.control_path.exists():
            assert time.monotonic() < deadline, "control socket missing"
            time.sleep(0.05)
        assert control_request(
            config.control_path, {"op": "ping"}
        ) == {"ok": True, "op": "ping"}
        accepted = control_request(
            config.control_path, {"op": "submit", "spec": SPECS[0]}
        )
        assert accepted["ok"], accepted
        rejected = control_request(
            config.control_path, {"op": "submit", "spec": SPECS[3]}
        )
        assert rejected["reason"] == "spec_budget_exceeds_quota"
        unknown = control_request(
            config.control_path, {"op": "frobnicate"}
        )
        assert unknown["reason"] == "unknown_op"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            status = control_request(
                config.control_path,
                {"op": "status", "tenant": "alice"},
            )
            if all(
                row["status"] == "done"
                for row in status["specs"].values()
            ) and status["specs"]:
                break
            time.sleep(0.1)
        assert status["specs"]["alice/rr-a"]["status"] == "done"
        control_request(config.control_path, {"op": "shutdown"})
    finally:
        daemon.request_shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert result["manifest"]["specs"]["alice/rr-a"]["status"] == "done"
    with pytest.raises(ControlError):
        control_request(config.control_path, {"op": "ping"})


def _start_control_daemon(tmp_path):
    """A daemon serving its control socket on a background thread."""
    config = _config(
        tmp_path, control_path=tmp_path / "ctl.sock",
        checkpoint_path=None,
    )
    daemon = MeasurementDaemon(
        _scenario(), config, registry=_registry()
    )
    result = {}
    thread = threading.Thread(
        target=lambda: result.update(manifest=daemon.run())
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while not config.control_path.exists():
        assert time.monotonic() < deadline, "control socket missing"
        time.sleep(0.05)
    return daemon, config, thread


def test_control_session_many_requests_one_connection(tmp_path):
    """A connection is a session: many requests, answered in order."""
    daemon, config, thread = _start_control_daemon(tmp_path)
    try:
        responses = control_session(
            config.control_path,
            [
                {"op": "ping"},
                {"op": "submit", "spec": SPECS[0]},
                {"op": "status", "tenant": "alice"},
                {"op": "frobnicate"},
                {"op": "ping"},
            ],
        )
        assert responses[0] == {"ok": True, "op": "ping"}
        assert responses[1]["ok"], responses[1]
        assert "alice/rr-a" in responses[2]["specs"]
        assert responses[3]["reason"] == "unknown_op"
        assert responses[4] == {"ok": True, "op": "ping"}
    finally:
        daemon.request_shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive()


def test_control_socket_split_writes_and_pipelining(tmp_path):
    """The server reassembles fragmented writes and preserves bytes
    that arrive beyond one request's newline for the next request."""
    daemon, config, thread = _start_control_daemon(tmp_path)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    try:
        sock.connect(str(config.control_path))
        # A large (~40 KB of legal JSON whitespace) request, written
        # in 1 KB fragments: the old one-recv server truncated this.
        big = b'{"op": "ping"' + b" " * 40000 + b"}\n"
        for start in range(0, len(big), 1024):
            sock.sendall(big[start : start + 1024])
        line, buffer = _recv_line(sock, b"")
        assert json.loads(line) == {"ok": True, "op": "ping"}
        # Two requests pipelined in ONE write: the second must not be
        # discarded with the first one's trailing bytes.
        sock.sendall(
            json.dumps({"op": "ping"}).encode("utf-8") + b"\n"
            + json.dumps({"op": "status"}).encode("utf-8") + b"\n"
        )
        line, buffer = _recv_line(sock, buffer)
        assert json.loads(line) == {"ok": True, "op": "ping"}
        line, buffer = _recv_line(sock, buffer)
        assert json.loads(line)["ok"] is True
        # A malformed request answers bad_request but keeps the
        # session alive for the next one.
        sock.sendall(b"this is not json\n")
        line, buffer = _recv_line(sock, buffer)
        assert json.loads(line)["reason"] == "bad_request"
        sock.sendall(json.dumps({"op": "ping"}).encode("utf-8") + b"\n")
        line, buffer = _recv_line(sock, buffer)
        assert json.loads(line) == {"ok": True, "op": "ping"}
    finally:
        sock.close()
        daemon.request_shutdown()
        thread.join(timeout=60.0)
    assert not thread.is_alive()


# -- pooled units: finished lines, dispatched by target window -------------


def _parent_line(scenario, task: tuple, unit: int) -> str:
    """A unit's stream line as the daemon built it before unit bodies
    encoded their own: the body returned the row payload, and the
    parent folded it into the record and encoded that."""
    _key, _label, vp_name, kind, offset, count, slots, pps = task
    vp = scenario.vp_by_name(vp_name)
    targets = list(scenario.hitlist)[offset : offset + count]
    if kind == "rr":
        rows, inprefix, quality = probe_vp_rr(
            scenario, vp, targets,
            {dest.addr: i for i, dest in enumerate(targets)},
            order=ProbeOrder.RANDOM, slots=slots, pps=pps,
        )
        result = {
            "rows": [[index, slot] for index, slot in rows],
            "inprefix": [[index, list(addrs)] for index, addrs in inprefix],
            "quality": {
                "checked": quality["checked"],
                "verdicts": quality["verdicts"],
                "reasons": quality["reasons"],
                "invalid_dests": quality["invalid_dests"],
                "quarantined": len(quality["quarantined"]),
                "degraded": len(quality["degraded"]),
            },
        }
    else:
        network = scenario.network
        network.begin_vp_session(f"{vp.name}/service-ping")
        try:
            results = scenario.prober.probe_batch_ping(
                vp, targets, count=3, pps=pps
            )
        finally:
            network.end_vp_session()
        result = {
            "rows": [
                [index, bool(res.responded)]
                for index, res in enumerate(results)
            ],
        }
    record = {
        "record": "unit",
        "version": 1,
        "unit": unit,
        "vp": vp_name,
        "kind": kind,
        "targets": len(targets),
        "probes": len(targets) * (3 if kind == "ping" else 1),
    }
    record.update(result)
    return record_line(record)


@pytest.mark.parametrize("faults", [None, "misbehave"])
@pytest.mark.parametrize("kind", ["rr", "ping"])
def test_unit_line_equals_parent_record(tmp_path, kind, faults):
    """The line a unit body returns is the line the parent used to
    encode from its result, clean and under lying data, and a stream
    of them loads back."""
    scenario = _scenario()
    spec = parse_spec({
        "tenant": "alice", "name": kind, "kind": kind,
        "target_count": 40, "target_offset": 3, "vp_policy": "working",
        "vp_limit": 6,
    })
    if faults is not None:
        scenario.network.attach_injector(FaultInjector(
            scenario.network, build_fault_plan(faults, scenario_seed=7),
            horizon=spec.target_count / DEFAULT_PPS,
        ))
    stream = TenantStream.open(tmp_path / "s.jsonl", "alice", kind)
    invalid = 0
    vps = resolve_vps(spec, scenario)
    for unit, vp in enumerate(vps):
        task = make_unit_task(
            unit, f"{spec.label}#{unit}", vp.name, kind,
            spec.target_offset, spec.target_count, spec.slots, spec.pps,
        )
        result = service_unit_body({"scenario": scenario}, task)
        assert result["line"] == _parent_line(scenario, task, unit)
        record = verified_record(result["line"])
        assert result.get("quality") == record.get("quality")
        if kind == "rr":
            invalid += record["quality"]["verdicts"]["invalid"]
        stream.append_line(result["line"])
    stream.finalize()
    records, trailer = load_stream(tmp_path / "s.jsonl")
    assert [r["unit"] for r in records] == list(range(len(vps)))
    assert trailer["records"] == len(vps)
    # The misbehaving world really taints replies the validator sees.
    assert (invalid > 0) == (kind == "rr" and faults is not None)


def _smoke_service(scenario, seed: int = 2016):
    """``(specs, quota)``: the e2e benchmark's smoke-scale service
    inputs. Eight tenants each ask for an rr and a ping spec over 40
    destinations, their windows staggered by 20 from a seeded base;
    each tenant's credits cover exactly its two specs."""
    hitlist = len(scenario.hitlist)
    base = random.Random(derive_seed(seed, "e2e-tenants")).randrange(
        hitlist - 7 * 20 - 40 + 1
    )
    specs = [
        {"tenant": f"tenant{t}", "name": f"{kind}-{t}", "kind": kind,
         "vp_policy": "working", "vp_limit": 3, "target_count": 40,
         "target_offset": base + t * 20}
        for t in range(8)
        for kind in ("rr", "ping")
    ]
    budget = float(3 * 40 * (1 + 3))
    quota = TenantQuota(
        initial_credits=budget, accrual_per_round=0.0, balance_cap=budget,
        max_probes_per_spec=3 * 40 * 3, max_active_specs=2,
    )
    return specs, quota


def test_daemon_leaves_parent_clock_bit_equal_across_jobs(tmp_path):
    """A pooled daemon merges each unit's session time in key order,
    and ``jobs=1`` runs the units in that order: the parent's clock
    ends bit-equal at every ``jobs``, as for surveys and campaigns."""
    clocks, hashes = {}, {}
    for jobs in (1, 2, 4):
        scenario = get_preset("tiny", 2016)
        specs, quota = _smoke_service(scenario)
        daemon = MeasurementDaemon(
            scenario,
            ServiceConfig(stream_dir=tmp_path / f"jobs{jobs}", jobs=jobs,
                          quota=quota),
            registry=_registry(),
        )
        for record in specs:
            assert daemon.submit(record)["ok"]
        assert daemon.run()["state"] == "done"
        clocks[jobs] = scenario.network.clock.now.hex()
        hashes[jobs] = _stream_hashes(tmp_path / f"jobs{jobs}")
    assert float.fromhex(clocks[1]) > 0.0
    assert clocks[1] == clocks[2] == clocks[4]
    assert len(hashes[1]) == 16
    assert hashes[1] == hashes[2] == hashes[4]


def test_units_dispatch_in_window_order_grouped_by_vp_asn(
    tmp_path, monkeypatch
):
    """Each round reaches the executor sorted by target window and
    keyed in that order, each unit grouped under its VP's ASN."""
    calls = []
    run_tasks = WorkerWatchdog.run_tasks

    def spy(self, tasks, groups=None):
        calls.append((list(tasks), groups))
        return run_tasks(self, tasks, groups)

    monkeypatch.setattr(WorkerWatchdog, "run_tasks", spy)
    scenario = _scenario()
    daemon = MeasurementDaemon(
        scenario, _config(tmp_path, jobs=2), registry=_registry()
    )
    for record in SPECS:
        daemon.submit(record)
    assert daemon.run()["state"] == "done"
    assert calls
    reordered = False
    for tasks, groups in calls:
        assert [task[0] for task in tasks] == list(range(len(tasks)))
        assert groups == [scenario.vp_by_name(task[2]).asn for task in tasks]
        windows = [(task[4], task[5]) for task in tasks]
        assert windows == sorted(windows)
        # Plan order visits tenants by name; alice's window is not
        # the lowest, so some round is handed over reordered.
        labels = [task[1].partition("/")[0] for task in tasks]
        reordered |= labels != sorted(labels)
    assert reordered


# -- per-tenant reply quality ----------------------------------------------


def test_rr_unit_records_carry_quality_counts(tmp_path):
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    )
    assert daemon.submit(SPECS[0])["ok"]
    manifest = daemon.run()
    records, _trailer = load_stream(
        tmp_path / "streams" / "alice" / "rr-a.jsonl"
    )
    assert records
    checked = 0
    for record in records:
        quality = record["quality"]
        # Clean world: the validator runs but quarantines nothing.
        assert quality["verdicts"]["invalid"] == 0
        assert quality["invalid_dests"] == 0
        assert quality["quarantined"] == 0
        assert quality["degraded"] == 0
        checked += quality["checked"]
    assert manifest["quality"]["alice"]["checked"] == checked
    assert manifest["quality"]["alice"]["invalid"] == 0


# -- checkpoint integrity --------------------------------------------------


def test_checkpoint_rejects_wrong_scenario(tmp_path):
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    )
    daemon.submit(SPECS[0])
    other = MeasurementDaemon(
        get_preset("tiny", seed=8), _config(tmp_path),
        registry=_registry(),
    )
    with pytest.raises(ValueError, match="seed"):
        other.restore()


def test_checkpoint_rejects_tamper(tmp_path):
    """A tampered entry line fails its checksum: it is dropped, its
    balance is never restored and the repair is counted. A tampered
    header still refuses the resume."""
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    )
    daemon.submit(SPECS[0])
    path = tmp_path / "service.ckpt"
    header, entry = path.read_text("utf-8").splitlines()
    body = json.loads(entry)
    body["balances"]["alice"]["balance"] = 1e9  # keeps the old sha256
    path.write_text(
        header + "\n" + json.dumps(body, sort_keys=True) + "\n", "utf-8"
    )
    registry = _registry()
    fresh = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=registry
    )
    assert fresh.restore() is True
    assert "alice" not in fresh.ledger.balances()
    assert fresh.scheduler.specs == {}
    assert checkpoint_repair_counter(registry).labels("service").value == 1
    assert path.read_text("utf-8") == header + "\n"
    assert fresh.run()["checkpoint_repairs"] == 1

    tampered = json.loads(header)
    tampered["seed"] = 8
    path.write_text(json.dumps(tampered, sort_keys=True) + "\n", "utf-8")
    fresh = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    )
    with pytest.raises(SurveyFormatError, match="header is torn"):
        fresh.restore()


def test_checkpoint_errors_name_the_file(tmp_path):
    """Each unusable checkpoint raises naming the file (and the line),
    and a refused resume leaves the log and every stream as it found
    them — here a stream holding a record past the log, which an
    accepted resume would cut."""
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path, kill_after_units=2),
        registry=_registry(),
    )
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()
    streams = sorted((tmp_path / "streams").rglob("*.jsonl"))
    victim = next(p for p in streams if p.stat().st_size > 0)
    with open(victim, "a", encoding="utf-8") as fh:
        fh.write(victim.read_text("utf-8").splitlines()[0] + "\n")
    stream_bytes = {p: p.read_bytes() for p in streams}

    path = tmp_path / "service.ckpt"
    log = path.read_text("utf-8")
    bad = len(log.splitlines()) + 1  # the number of an appended line
    last = verified_record(log.splitlines()[-1])

    def appended(mutate) -> str:
        body = copy.deepcopy(last)
        mutate(body)
        return log + record_line(body) + "\n"

    for content, needle in [
        (log[:60], "checkpoint header is torn or corrupt"),
        (
            record_line({"version": CHECKPOINT_VERSION, "fingerprint": "f"})
            + "\n",
            "does not match",  # a campaign checkpoint
        ),
        (
            appended(lambda body: body["specs"].append({"seq": 9})),
            f"malformed checkpoint line {bad}: KeyError: 'spec'",
        ),
        (
            appended(lambda body: body["balances"]["alice"].pop("balance")),
            f"malformed checkpoint line {bad}: KeyError: 'balance'",
        ),
        (
            appended(lambda body: body.update(balances=[1.0, 2.0])),
            f"malformed checkpoint line {bad}: AttributeError",
        ),
        (
            appended(lambda body: body.update(rounds="x")),
            f"malformed checkpoint line {bad}: ValueError",
        ),
    ]:
        path.write_text(content, "utf-8")
        fresh = MeasurementDaemon(
            _scenario(), _config(tmp_path), registry=_registry()
        )
        with pytest.raises(SurveyFormatError) as err:
            fresh.restore()
        assert str(path) in str(err.value) and needle in str(err.value)
        assert path.read_text("utf-8") == content
        assert {p: p.read_bytes() for p in streams} == stream_bytes


def test_refused_stream_leaves_every_stream_untouched(tmp_path):
    """A resume refused for one stream cuts no other: every stream is
    checked before any is cut. Here alice's stream holds a record past
    the log, which an accepted resume would cut, and carol's, which
    comes later, lost its flushed records."""
    daemon = MeasurementDaemon(
        _scenario(), _config(tmp_path, kill_after_units=3),
        registry=_registry(),
    )
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()
    streams = tmp_path / "streams"
    alice = streams / "alice" / "rr-a.jsonl"
    carol = streams / "carol" / "rr-c.jsonl"
    assert alice.stat().st_size and carol.stat().st_size
    with open(alice, "a", encoding="utf-8") as fh:
        fh.write(alice.read_text("utf-8").splitlines()[0] + "\n")
    carol.write_text("", "utf-8")
    files = sorted(streams.rglob("*.jsonl")) + [tmp_path / "service.ckpt"]
    before = {path: path.read_bytes() for path in files}

    fresh = MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    )
    with pytest.raises(StreamFormatError) as err:
        fresh.restore()
    assert err.value.path == str(carol)
    assert {path: path.read_bytes() for path in files} == before


def _fold(path: Path) -> dict:
    """The state a checkpoint log holds: its header, spec records by
    label (last one wins), rounds and balances from the last line."""
    lines = [body for _line, body in verified_prefix(path)]
    state = dict(lines[0], rounds=0, balances={}, specs={})
    for entry in lines[1:]:
        state.update(rounds=entry["rounds"], balances=entry["balances"])
        for record in entry["specs"]:
            spec = record["spec"]
            state["specs"][f"{spec['tenant']}/{spec['name']}"] = record
    state["specs"] = list(state["specs"].values())
    return state


def _whole_record(daemon: MeasurementDaemon) -> dict:
    """The whole-file record a checkpoint used to rewrite on each
    write, at the log's version."""
    return {
        "kind": "service_checkpoint",
        "version": CHECKPOINT_VERSION,
        "scenario": daemon.scenario.name,
        "seed": daemon.scenario.seed,
        "rounds": daemon.scheduler.rounds,
        "balances": daemon.ledger.balances(),
        "specs": [
            state.to_record()
            for state in daemon.scheduler.states_in_order()
        ],
    }


def test_checkpoint_fold_equals_whole_state(tmp_path):
    """After every checkpoint write, of a killed run and of its
    resume, folding the log gives the whole state."""
    path = tmp_path / "service.ckpt"
    writes = []

    def checked(daemon: MeasurementDaemon) -> MeasurementDaemon:
        write = daemon._write_checkpoint

        def write_and_fold() -> None:
            write()
            writes.append(path.stat().st_size)
            assert _fold(path) == _whole_record(daemon)

        daemon._write_checkpoint = write_and_fold
        return daemon

    daemon = checked(MeasurementDaemon(
        _scenario(), _config(tmp_path, kill_after_units=2),
        registry=_registry(),
    ))
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()
    killed = len(writes)
    resumed = checked(MeasurementDaemon(
        _scenario(), _config(tmp_path), registry=_registry()
    ))
    assert resumed.restore() is True
    for record in SPECS:
        resumed.submit(record)
    assert resumed.run()["state"] == "done"
    assert killed >= len(SPECS) + 2 and len(writes) > killed


def test_checkpoint_appends_in_place(tmp_path):
    """A run writes the header plus at most one line per submission,
    flushed unit and round, plus one at run end; a clean resume
    appends to the killed log in place and repairs nothing."""
    _responses, manifest = _run_daemon(tmp_path / "full")
    lines = verified_prefix(tmp_path / "full" / "service.ckpt")
    assert len(lines) <= (
        1 + len(SPECS) + manifest["units_flushed"] + manifest["rounds"] + 1
    )
    assert (tmp_path / "full" / "service.ckpt").read_bytes() == b"".join(
        line + b"\n" for line, _body in lines
    )

    workdir = tmp_path / "killed"
    daemon = MeasurementDaemon(
        _scenario(), _config(workdir, kill_after_units=3),
        registry=_registry(),
    )
    for record in SPECS:
        daemon.submit(record)
    with pytest.raises(ServiceInterrupted):
        daemon.run()
    path = workdir / "service.ckpt"
    killed, inode = path.read_bytes(), path.stat().st_ino
    assert len(killed.splitlines()) == 1 + len(SPECS) + 3
    resumed = MeasurementDaemon(
        _scenario(), _config(workdir), registry=_registry()
    )
    resumed.restore()
    for record in SPECS:
        resumed.submit(record)
    manifest = resumed.run()
    assert manifest["checkpoint_repairs"] == 0
    assert path.read_bytes().startswith(killed)
    assert path.stat().st_ino == inode
    assert _fold(path) == _whole_record(resumed)


class TestKillTearResume:
    """Kill the daemon after k units, optionally tear the checkpoint
    log's last line or corrupt an entry line, then resume: the streams
    equal an uninterrupted run's, the restored state is the fold of
    the surviving lines, the repair is counted exactly when a line was
    dropped, and every line left on disk verifies."""

    @pytest.fixture(scope="class")
    def baseline(self):
        with tempfile.TemporaryDirectory() as tmp:
            _responses, manifest = _run_daemon(Path(tmp))
            return manifest["units_flushed"], _stream_hashes(
                Path(tmp) / "streams"
            )

    @settings(max_examples=25, deadline=None)
    @given(
        kill=st.integers(1, 4),
        tear=st.sampled_from(["none", "cut", "flip"]),
        where=st.integers(0, 2**20),
        jobs=st.just(1),
    )
    @example(kill=3, tear="cut", where=8, jobs=1)  # CI's torn last line
    @example(kill=2, tear="cut", where=0, jobs=1)  # only the newline is gone
    @example(kill=3, tear="flip", where=0, jobs=1)  # corrupt first entry line
    # Pooled units encode their own stream lines; killed and resumed
    # on a pool, they still rewrite the uninterrupted bytes.
    @example(kill=3, tear="cut", where=8, jobs=2)
    def test_random_kill_tear_resume(
        self, baseline, kill, tear, where, jobs
    ):
        units, expect = baseline
        assert kill < units
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / "service.ckpt"
            daemon = MeasurementDaemon(
                _scenario(), _config(tmp, kill_after_units=kill, jobs=jobs),
                registry=_registry(),
            )
            for record in SPECS:
                daemon.submit(record)
            with pytest.raises(ServiceInterrupted):
                daemon.run()
            log = path.read_bytes()
            lines = log.splitlines(keepends=True)
            if tear == "cut":
                # Cut inside the last line; cutting all of it leaves a
                # clean log one entry shorter.
                log = log[: -(1 + where % len(lines[-1]))]
            elif tear == "flip":
                # Flip a bit in an entry line, newline excluded.
                line = 1 + where % (len(lines) - 1)
                offset = sum(map(len, lines[:line])) + (
                    where // len(lines) % (len(lines[line]) - 1)
                )
                log = (
                    log[:offset] + bytes([log[offset] ^ 1])
                    + log[offset + 1:]
                )
            path.write_bytes(log)
            dropped = not log.endswith(b"\n") or tear == "flip"
            survivors = _fold(path)

            registry = _registry()
            resumed = MeasurementDaemon(
                _scenario(), _config(tmp, jobs=jobs), registry=registry
            )
            assert resumed.restore() is True
            assert resumed.scheduler.rounds == survivors["rounds"]
            assert resumed.ledger.balances() == survivors["balances"]
            assert [
                state.to_record()
                for state in resumed.scheduler.states_in_order()
            ] == survivors["specs"]
            for record in SPECS:
                resumed.submit(record)
            manifest = resumed.run()
            assert manifest["state"] == "done"
            assert _stream_hashes(tmp / "streams") == expect
            assert manifest["checkpoint_repairs"] == int(dropped)
            assert checkpoint_repair_counter(registry).labels(
                "service"
            ).value == int(dropped)
            log = path.read_bytes()
            assert log.endswith(b"\n")
            for line in log.splitlines():
                assert verified_record(line) is not None
            assert _fold(path) == _whole_record(resumed)


# -- status rendering (satellite: legacy tolerance) ------------------------


def test_render_status_service_snapshot():
    rendered = render_status(
        {
            "state": "running",
            "service": True,
            "scenario": "tiny",
            "seed": 7,
            "round": 3,
            "probes_sent": 120,
            "tenants": {
                "alice": {
                    "specs_total": 2, "specs_done": 1,
                    "units_done": 3, "units_total": 5,
                    "probes": 80, "credits": 42.5,
                    "probes_per_sec": 10.0, "breaker": "closed",
                },
                "carol": {
                    "specs_total": 1, "specs_rejected": 1,
                    "units_done": 0, "units_total": 0,
                    "probes": 0, "credits": 120.0, "breaker": "open",
                },
            },
        }
    )
    assert "service tiny" in rendered
    assert "alice" in rendered and "carol" in rendered
    assert "rejected" in rendered and "breaker:open" in rendered


def test_render_status_tolerates_legacy_and_partial_snapshots():
    # A legacy campaign snapshot (no service fields) still renders.
    legacy = render_status(
        {"state": "done", "scenario": "tiny", "seed": 7,
         "completed_vps": 3, "total_vps": 5}
    )
    assert "campaign tiny" in rendered_ok(legacy)
    # Partial garbage in tenant rows must never raise.
    mangled = render_status(
        {
            "state": "running",
            "service": True,
            "tenants": {
                "x": {"probes": "not-a-number", "credits": None},
                "y": "not-even-a-dict",
            },
        }
    )
    assert "x" in mangled


def rendered_ok(text: str) -> str:
    assert isinstance(text, str) and text
    return text


# -- metrics satellite -----------------------------------------------------


def test_counter_totals_grouping():
    registry = _registry()
    family = registry.counter(
        "service_tenant_probes_total", "", ["tenant"]
    )
    family.labels("a").inc(3)
    family.labels("a").inc(2)
    family.labels("b").inc(7)
    assert family.totals(by="tenant") == {"a": 5.0, "b": 7.0}
    assert family.totals() == {"": 12.0}
    with pytest.raises(ValueError):
        family.totals(by="nope")


# -- demo pack / CLI -------------------------------------------------------


def test_round_cap_with_work_left_reports_capped(tmp_path):
    """A daemon stopped by ``max_rounds`` with specs still active says
    so in its manifest and status; one whose specs all finish inside
    the cap is ``done``."""
    _responses, full = _run_daemon(tmp_path / "full")
    assert full["state"] == "done" and full["rounds"] >= 2
    status = tmp_path / "status.json"
    _responses, manifest = _run_daemon(
        tmp_path / "capped", max_rounds=full["rounds"] - 1,
        status_path=status,
    )
    assert manifest["state"] == "capped"
    assert manifest["rounds"] == full["rounds"] - 1
    assert any(
        row["status"] == "active" for row in manifest["specs"].values()
    )
    assert json.loads(status.read_text())["state"] == "capped"
    _responses, roomy = _run_daemon(
        tmp_path / "roomy", max_rounds=full["rounds"]
    )
    assert roomy["state"] == "done"
    assert roomy["units_flushed"] == full["units_flushed"]
    with pytest.raises(ValueError, match="max_rounds"):
        _config(tmp_path, max_rounds=0)


def test_demo_pack_rejects_exactly_one_spec(tmp_path):
    quota, overrides = demo_quota()
    daemon = MeasurementDaemon(
        _scenario(),
        ServiceConfig(
            stream_dir=tmp_path, jobs=1, quota=quota,
            quota_overrides=overrides,
        ),
        registry=_registry(),
    )
    responses = [daemon.submit(r) for r in demo_spec_records()]
    rejected = [r for r in responses if not r.get("ok")]
    assert len(rejected) == 1
    assert rejected[0]["reason"] == "spec_budget_exceeds_quota"


def test_cli_serve_with_spec_file(tmp_path, capsys):
    from repro.cli import main

    spec_file = tmp_path / "specs.jsonl"
    spec_file.write_text(
        "\n".join(json.dumps(record) for record in SPECS[:2]) + "\n",
        "utf-8",
    )
    code = main([
        "serve", "--preset", "tiny", "--seed", "7",
        "--spec", str(spec_file),
        "--stream-dir", str(tmp_path / "streams"),
        "--max-probes-per-spec", "200",
    ])
    out = capsys.readouterr().out
    assert code == 0
    manifest = json.loads(out)
    assert manifest["specs"]["alice/rr-a"]["status"] == "done"
    records, trailer = load_stream(
        tmp_path / "streams" / "alice" / "rr-a.jsonl"
    )
    assert trailer["records"] == len(records) > 0


def test_cli_serve_kill_then_resume_matches(tmp_path, capsys):
    from repro.cli import EXIT_INTERRUPTED, main

    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps(SPECS[:3]), "utf-8")
    base_args = [
        "serve", "--preset", "tiny", "--seed", "7",
        "--spec", str(spec_file),
        "--max-probes-per-spec", "200",
    ]
    assert main(base_args + [
        "--stream-dir", str(tmp_path / "base"),
    ]) == 0
    capsys.readouterr()
    baseline = _stream_hashes(tmp_path / "base")

    killed = base_args + [
        "--stream-dir", str(tmp_path / "killed"),
        "--checkpoint", str(tmp_path / "ckpt.json"),
    ]
    assert main(killed + ["--kill-after-units", "2"]) == EXIT_INTERRUPTED
    capsys.readouterr()
    assert main(killed + ["--resume"]) == 0
    capsys.readouterr()
    assert _stream_hashes(tmp_path / "killed") == baseline


def test_cli_serve_bad_checkpoint_exits_2(tmp_path, capsys):
    """``serve --resume`` reports an unusable checkpoint on stderr and
    exits 2, as ``chaos`` does, leaving the file as it was."""
    from repro.cli import EXIT_INTERRUPTED, main

    spec_file = tmp_path / "specs.json"
    spec_file.write_text(json.dumps(SPECS[:3]), "utf-8")
    ck = tmp_path / "ckpt.log"
    args = [
        "serve", "--preset", "tiny", "--spec", str(spec_file),
        "--max-probes-per-spec", "200",
        "--stream-dir", str(tmp_path / "streams"), "--checkpoint", str(ck),
    ]
    assert main(args + ["--seed", "7", "--kill-after-units", "2"]) == (
        EXIT_INTERRUPTED
    )
    log = ck.read_text("utf-8")
    last = verified_record(log.splitlines()[-1])
    v1 = embed_checksum({
        "kind": "service_checkpoint", "version": 1, "scenario": "tiny",
        "seed": 7, "rounds": 0, "balances": {}, "specs": [],
    })
    bad = len(log.splitlines()) + 1
    for content, seed, reason in [
        (log[:60], 7, "checkpoint header is torn or corrupt"),
        (log, 8, "checkpoint header {'kind': 'service_checkpoint', "),
        (
            json.dumps(v1, indent=2, sort_keys=True) + "\n", 7,
            "unsupported checkpoint version: 1\n",
        ),
        (
            log + record_line(dict(last, balances=[1.0])) + "\n", 7,
            f"malformed checkpoint line {bad}: AttributeError",
        ),
    ]:
        ck.write_text(content, "utf-8")
        capsys.readouterr()
        assert main(args + ["--seed", str(seed), "--resume"]) == 2
        err = capsys.readouterr().err
        assert f"serve: {ck}: {reason}" in err
        assert "Traceback" not in err
        assert ck.read_text("utf-8") == content
