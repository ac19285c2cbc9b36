"""Span tracing, flight recorder, and live status: the observability
contract.

The load-bearing properties pinned here:

* span tracing is **inert**: with tracing on, ``save_survey`` bytes
  are identical across ``jobs in {1, 2, 4}`` *and* identical to a
  spans-off run — spans read the sim clock and touch no RNG stream;
* worker span buffers merged parent-side preserve the hierarchy:
  ``probe_batch`` under ``vp_probe`` under ``vp_attempt`` under
  ``round`` under ``campaign`` (the merge is two-pass because buffers
  complete child-before-parent);
* a supervised campaign that quarantines a hung VP embeds that VP's
  flight-recorder tail (``last_journal``) in the quarantine reason,
  so the manifest explains *what the worker was doing* when killed;
* the Chrome trace export nests correctly per track, and the status
  writer publishes torn-proof snapshots ``repro top`` can render.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.study import run_resilient_study
from repro.core.survey import run_rr_survey, save_survey
from repro.faults import (
    CampaignRunner,
    FaultPlan,
    SupervisionConfig,
    VpHang,
)
from repro.obs.export import (
    render_span_tree,
    spans_to_jsonl,
    to_chrome_trace,
)
from repro.obs.journal import (
    DEFAULT_JOURNAL_CAPACITY,
    FlightRecorder,
)
from repro.obs.spans import MAX_SPAN_EVENTS, TRACER, SpanTracer
from repro.obs.status import (
    CampaignStatusWriter,
    load_status,
    render_status,
)
from repro.scenarios.presets import get_preset

N_DESTS = 15
N_VPS = 4

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


@pytest.fixture()
def tracing():
    """Enable the process-wide tracer for one test, then restore."""
    TRACER.configure(True)
    TRACER.reset()
    yield TRACER
    TRACER.configure(False)
    TRACER.reset()


def _survey_bytes(survey, tmp_path, name):
    path = tmp_path / name
    save_survey(survey, path)
    return path.read_bytes()


def _children(spans, parent_id):
    return [s for s in spans if s["parent"] == parent_id]


# ---------------------------------------------------------------------------
# SpanTracer as a pure unit.
# ---------------------------------------------------------------------------


class TestSpanTracer:
    def test_disabled_tracer_is_inert(self):
        tracer = SpanTracer()
        assert tracer.begin("x") is None
        with tracer.span("y") as span:
            assert span is None
        tracer.event("probe")  # no open span, no crash
        tracer.end(None)
        assert len(tracer) == 0

    def test_nesting_and_labels(self):
        tracer = SpanTracer()
        tracer.configure(True)
        outer = tracer.begin("outer", vp="a")
        inner = tracer.begin("inner")
        assert inner.parent_id == outer.span_id
        assert tracer.current is inner
        tracer.end(inner)
        tracer.end(outer)
        spans = tracer.snapshot()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["labels"] == {"vp": "a"}
        assert by_name["outer"]["status"] == "ok"

    def test_context_manager_marks_errors(self):
        tracer = SpanTracer()
        tracer.configure(True)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.snapshot()
        assert span["status"] == "error"

    def test_sim_clock_read_not_advanced(self):
        class Clock:
            now = 4.5

        tracer = SpanTracer()
        tracer.configure(True)
        with tracer.span("s", clock=Clock()):
            pass
        (span,) = tracer.snapshot()
        assert span["sim_start"] == 4.5
        assert span["sim_end"] == 4.5

    def test_event_cap_counts_overflow(self):
        tracer = SpanTracer()
        tracer.configure(True)
        with tracer.span("busy"):
            for index in range(MAX_SPAN_EVENTS + 5):
                tracer.event("probe", dst=index)
        (span,) = tracer.snapshot()
        assert len(span["events"]) == MAX_SPAN_EVENTS
        assert span["events_dropped"] == 5

    def test_capacity_bounds_completed_spans(self):
        tracer = SpanTracer(capacity=2)
        tracer.configure(True)
        for index in range(4):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped_spans == 2

    def test_merge_preserves_hierarchy_child_first(self):
        """Regression: worker buffers complete child-before-parent, so
        merge must build the full ID mapping before rewriting parent
        links — a one-pass merge flattens sub-spans onto the round."""
        worker = SpanTracer()
        worker.configure(True)
        with worker.span("vp_probe"):
            with worker.span("probe_batch"):
                pass
        shipped = worker.snapshot()
        assert shipped[0]["name"] == "probe_batch"  # child first

        parent = SpanTracer()
        parent.configure(True)
        round_span = parent.begin("round")
        parent.merge(shipped)
        parent.end(round_span)
        spans = parent.snapshot()
        by_name = {s["name"]: s for s in spans}
        assert by_name["vp_probe"]["parent"] == by_name["round"]["id"]
        assert (
            by_name["probe_batch"]["parent"] == by_name["vp_probe"]["id"]
        )

    def test_merge_explicit_parent_and_id_remap(self):
        worker = SpanTracer()
        worker.configure(True)
        with worker.span("w"):
            pass
        parent = SpanTracer()
        parent.configure(True)
        anchor = parent.begin("anchor")
        other = parent.begin("other")
        parent.merge(worker.snapshot(), parent=anchor)
        parent.end(other)
        parent.end(anchor)
        spans = parent.snapshot()
        by_name = {s["name"]: s for s in spans}
        assert by_name["w"]["parent"] == by_name["anchor"]["id"]
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))

    def test_merge_disabled_or_empty_is_noop(self):
        tracer = SpanTracer()
        tracer.merge([{"id": 1, "parent": None, "name": "x"}])
        assert len(tracer) == 0
        tracer.configure(True)
        tracer.merge([])
        assert len(tracer) == 0


# ---------------------------------------------------------------------------
# Flight recorder ring.
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_records_are_sequenced_and_stamped(self):
        recorder = FlightRecorder()
        recorder.record("task_start", vp="a")
        recorder.record("progress", destinations=8)
        events = recorder.tail(10)
        assert [e["seq"] for e in events] == [1, 2]
        assert events[0]["kind"] == "task_start"
        assert events[0]["vp"] == "a"
        assert all("wall" in e for e in events)
        assert recorder.last_seq == 2

    def test_ring_keeps_newest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("e", i=index)
        events = recorder.tail(99)
        assert [e["i"] for e in events] == [7, 8, 9]
        assert recorder.dropped == 7
        assert recorder.last_seq == 10

    def test_since_is_incremental(self):
        recorder = FlightRecorder()
        recorder.record("a")
        recorder.record("b")
        mark = recorder.last_seq
        assert [e["kind"] for e in recorder.since(0)] == ["a", "b"]
        recorder.record("c")
        assert [e["kind"] for e in recorder.since(mark)] == ["c"]
        assert recorder.since(recorder.last_seq) == []

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=40),
        before_clear=st.integers(min_value=0, max_value=60),
        after_clear=st.one_of(st.none(), st.integers(0, 60)),
        mark=st.integers(min_value=-3, max_value=125),
    )
    @example(capacity=3, before_clear=10, after_clear=None, mark=2)
    @example(capacity=3, before_clear=10, after_clear=None, mark=8)
    @example(capacity=4, before_clear=9, after_clear=2, mark=5)
    def test_since_equals_the_ring_filter(
        self, capacity, before_clear, after_clear, mark
    ):
        """``since`` slices the ring's tail instead of filtering it;
        the filter stays here as the oracle — wrapped rings, marks
        older than the ring, past its end, and rings cleared midway
        (``seq`` keeps counting) included."""
        recorder = FlightRecorder(capacity=capacity)
        for index in range(before_clear):
            recorder.record("e", i=index)
        if after_clear is not None:
            recorder.clear()
            for index in range(after_clear):
                recorder.record("e", i=before_clear + index)
        ring = recorder.tail()
        expected = [event for event in ring if event["seq"] > mark]
        got = recorder.since(mark)
        assert got == expected
        for event in got:  # copies: a reader cannot edit the ring
            event["kind"] = "edited"
        assert recorder.tail() == ring

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_JOURNAL_CAPACITY


# ---------------------------------------------------------------------------
# Status snapshots: writer, loader, renderer.
# ---------------------------------------------------------------------------


class TestCampaignStatus:
    def test_roundtrip_and_render(self, tmp_path):
        path = tmp_path / "status.json"
        writer = CampaignStatusWriter(path, min_interval=0.0)
        assert writer.update(
            "running", force=True, scenario="tiny", seed=7,
            total_vps=4, completed_vps=1, pending_vps=3,
            probes_sent=100, elapsed_seconds=2.0,
            quarantined_vps=["mlab-lax"],
        )
        status = load_status(path)
        assert status["state"] == "running"
        assert status["version"] >= 1
        rendered = render_status(status)
        assert "campaign tiny (seed 7)" in rendered
        assert "1/4 VPs complete" in rendered
        assert "quarantined  mlab-lax" in rendered

    def test_probes_per_sec_from_successive_samples(self, tmp_path):
        writer = CampaignStatusWriter(
            tmp_path / "s.json", min_interval=0.0
        )
        writer.update("running", force=True, probes_sent=0)
        writer.update("running", force=True, probes_sent=500)
        status = load_status(tmp_path / "s.json")
        assert status["probes_per_sec"] is not None
        assert status["probes_per_sec"] > 0

    def test_throttle_skips_unforced_writes(self, tmp_path):
        writer = CampaignStatusWriter(
            tmp_path / "s.json", min_interval=3600.0
        )
        assert writer.update("running", force=True)
        assert not writer.update("running")
        assert writer.update("done", force=True)
        assert writer.writes == 2

    def test_load_rejects_non_snapshots(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_status(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json", "utf-8")
        with pytest.raises(ValueError):
            load_status(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"no_state": true}', "utf-8")
        with pytest.raises(ValueError):
            load_status(wrong)

    def test_campaign_publishes_terminal_snapshot(
        self, world, targets, vp_list, tmp_path
    ):
        path = tmp_path / "status.json"
        CampaignRunner(world, jobs=1, status_path=path).run(
            targets=targets, vps=vp_list
        )
        status = load_status(path)
        assert status["state"] == "done"
        assert status["completed_vps"] == len(vp_list)
        assert status["pending_vps"] == 0
        assert status["probes_sent"] > 0


# ---------------------------------------------------------------------------
# Traced campaigns: the acceptance properties.
# ---------------------------------------------------------------------------


class TestTracedCampaign:
    def test_spans_on_byte_parity_jobs_124(
        self, world, targets, vp_list, tmp_path, tracing
    ):
        """Tracing must not perturb a single survey byte, serial or
        pooled — and must match a spans-off run exactly."""
        TRACER.configure(False)
        baseline = _survey_bytes(
            run_rr_survey(world, dests=targets, vps=vp_list),
            tmp_path, "off.json",
        )
        TRACER.configure(True)
        for jobs in (1, 2, 4):
            TRACER.reset()
            survey = run_rr_survey(
                world, dests=targets, vps=vp_list, jobs=jobs
            )
            assert _survey_bytes(
                survey, tmp_path, f"on-{jobs}.json"
            ) == baseline
            assert len(TRACER) > 0

    def test_campaign_span_tree_nests(
        self, world, targets, vp_list, tracing
    ):
        CampaignRunner(world, jobs=2).run(targets=targets, vps=vp_list)
        spans = TRACER.snapshot()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (campaign,) = by_name["campaign"]
        assert campaign["parent"] is None
        rounds = by_name["round"]
        assert all(r["parent"] == campaign["id"] for r in rounds)
        round_ids = {r["id"] for r in rounds}
        attempts = by_name["vp_attempt"]
        assert len(attempts) == len(vp_list)
        assert all(a["parent"] in round_ids for a in attempts)
        attempt_ids = {a["id"] for a in attempts}
        probes = by_name["vp_probe"]
        assert all(p["parent"] in attempt_ids for p in probes)
        probe_ids = {p["id"] for p in probes}
        assert all(
            b["parent"] in probe_ids for b in by_name["probe_batch"]
        )
        tree = render_span_tree(spans)
        assert tree.splitlines()[0].startswith("campaign")
        assert "    vp_attempt" in tree

    def test_resilient_study_span_tree(self, tracing):
        """A resilient study is one ``full_study`` span, like
        ``run_full_study``'s, over its campaign and its ping survey."""
        run_resilient_study(get_preset("tiny", 7))
        spans = TRACER.snapshot()
        (study,) = [s for s in spans if s["name"] == "full_study"]
        assert study["parent"] is None
        for name in ("campaign", "ping_survey"):
            (span,) = [s for s in spans if s["name"] == name]
            assert span["parent"] == study["id"], name

    def test_chrome_trace_nests_per_track(
        self, world, targets, vp_list, tracing
    ):
        CampaignRunner(world, jobs=2).run(targets=targets, vps=vp_list)
        doc = to_chrome_trace(TRACER.snapshot())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        assert json.loads(json.dumps(doc))  # JSON-serialisable
        by_tid = {}
        for event in events:
            assert event["dur"] >= 0
            by_tid.setdefault(event["tid"], []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
        assert len(by_tid) > 1  # main track + per-VP tracks
        for intervals in by_tid.values():
            for a in intervals:
                for b in intervals:
                    if a is b:
                        continue
                    assert (
                        a[1] <= b[0]
                        or b[1] <= a[0]
                        or (a[0] <= b[0] and b[1] <= a[1])
                        or (b[0] <= a[0] and a[1] <= b[1])
                    ), (a, b)

    def test_spans_jsonl_is_line_parseable(
        self, world, targets, vp_list, tracing
    ):
        CampaignRunner(world, jobs=1).run(targets=targets, vps=vp_list)
        text = spans_to_jsonl(TRACER.snapshot())
        parsed = [json.loads(line) for line in text.splitlines()]
        assert len(parsed) == len(TRACER)
        assert all("name" in span and "id" in span for span in parsed)

    def test_probe_sampling_attaches_events(
        self, world, targets, vp_list, tracing
    ):
        world.prober.span_sample = 5
        try:
            run_rr_survey(world, dests=targets, vps=vp_list[:1])
        finally:
            world.prober.span_sample = 0
        events = [
            event
            for span in TRACER.snapshot()
            for event in span["events"]
        ]
        assert events
        assert all(event["name"] == "probe" for event in events)
        assert all("dst" in event and "replied" in event
                   for event in events)


class TestQuarantineJournal:
    def test_quarantined_vp_embeds_flight_recorder_tail(
        self, world, targets, vp_list, tracing
    ):
        """The acceptance property: a supervised campaign with an
        injected hang quarantines the VP and the quarantine reason
        carries the killed worker's last journal events."""
        victim = vp_list[1].name
        plan = FaultPlan(
            seed=6,
            specs=(VpHang(vps=(victim,), after_targets=3,
                          hang_seconds=60.0),),
        )
        result = CampaignRunner(
            world, plan=plan, jobs=2, max_retries=3,
            supervision=SupervisionConfig(**FAST),
        ).run(targets=targets, vps=vp_list)
        assert set(result.quarantined) == {victim}
        reason = result.quarantined[victim]
        assert reason["kind"] == "hang"
        tail = reason["last_journal"]
        assert tail
        kinds = [event["kind"] for event in tail]
        assert "task_start" in kinds
        assert "watchdog_kill" in kinds
        kill = next(e for e in tail if e["kind"] == "watchdog_kill")
        assert kill["reason"] == "hang"
        # The same tail must survive into the JSON manifest.
        manifest = result.manifest()
        assert manifest["quarantined_vps"][victim]["last_journal"]
        # And the campaign keeps full per-VP journals, healthy included.
        assert victim in result.journals
        healthy = vp_list[0].name
        assert healthy in result.journals
        assert any(
            event["kind"] == "task_end"
            for event in result.journals[healthy]
        )
        # Worker vp_attempt spans merged home despite the chaos.
        attempts = [
            span for span in TRACER.snapshot()
            if span["name"] == "vp_attempt"
        ]
        assert any(
            span["labels"]["vp"] == healthy for span in attempts
        )
