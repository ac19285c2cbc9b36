"""Tests for repro.obs: registry, tracer, exporters."""

import json

import pytest

from repro.obs.export import to_jsonl, to_prometheus, write_jsonl
from repro.obs.metrics import MetricsRegistry, REGISTRY, get_registry
from repro.obs.trace import PacketTracer


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounters:
    def test_inc_and_value(self, registry):
        counter = registry.counter("c_total").labels()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labelled_children_are_distinct(self, registry):
        family = registry.counter("drops_total", labelnames=("cause",))
        family.labels("ttl").inc()
        family.labels(cause="filtered").inc(2)
        assert family.labels("ttl").value == 1
        assert family.labels("filtered").value == 2

    def test_same_labels_same_child(self, registry):
        family = registry.counter("x_total", labelnames=("a",))
        assert family.labels("1") is family.labels(a="1")

    def test_reregistration_is_idempotent(self, registry):
        first = registry.counter("again_total", labelnames=("k",))
        second = registry.counter("again_total", labelnames=("k",))
        assert first is second

    def test_schema_mismatch_rejected(self, registry):
        registry.counter("kindred_total")
        with pytest.raises(ValueError):
            registry.gauge("kindred_total")
        registry.counter("labelled_total", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("labelled_total", labelnames=("b",))

    def test_wrong_label_arity_rejected(self, registry):
        family = registry.counter("arity_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")
        with pytest.raises(ValueError):
            family.labels(a="1", wrong="2")

    def test_unlabelled_convenience(self, registry):
        family = registry.counter("plain_total")
        family.inc(3)
        assert family.labels().value == 3


class TestGauges:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g").labels()
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5


class TestHistograms:
    def test_observe_buckets_cumulative(self, registry):
        hist = registry.histogram(
            "h_seconds", buckets=(0.1, 1.0, 10.0)
        ).labels()
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(56.05)
        cumulative = dict(hist.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 3
        assert cumulative[10.0] == 4
        assert cumulative[float("inf")] == 5

    def test_boundary_value_is_inclusive(self, registry):
        hist = registry.histogram("hb", buckets=(1.0, 2.0)).labels()
        hist.observe(1.0)  # le="1.0" bucket, Prometheus semantics
        assert dict(hist.cumulative())[1.0] == 1

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("he", buckets=())


class TestSnapshotAndReset:
    def test_snapshot_shape(self, registry):
        registry.counter(
            "s_total", "help text", labelnames=("k",)
        ).labels("v").inc(7)
        snap = registry.snapshot()
        family = snap["s_total"]
        assert family["type"] == "counter"
        assert family["help"] == "help text"
        assert family["series"] == [{"labels": {"k": "v"}, "value": 7}]

    def test_snapshot_isolated_from_later_updates(self, registry):
        child = registry.counter("iso_total").labels()
        child.inc()
        snap = registry.snapshot()
        child.inc(100)
        assert snap["iso_total"]["series"][0]["value"] == 1
        assert registry.to_dict()["iso_total"]["series"][0]["value"] == 101

    def test_reset_zeroes_but_keeps_families(self, registry):
        counter = registry.counter("r_total", labelnames=("k",)).labels("v")
        hist = registry.histogram("r_seconds", buckets=(1.0,)).labels()
        counter.inc(9)
        hist.observe(0.5)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0 and hist.sum == 0.0
        assert "r_total" in registry.snapshot()

    def test_registries_are_independent(self, registry):
        other = MetricsRegistry()
        registry.counter("ind_total").inc(5)
        assert other.get("ind_total") is None

    def test_default_registry_is_processwide(self):
        assert get_registry() is REGISTRY


class TestMerge:
    """Registry.merge(): the parallel engine's metrics protocol."""

    def test_counters_sum(self, registry):
        other = MetricsRegistry()
        registry.counter("m_total", labelnames=("k",)).labels("a").inc(3)
        other.counter("m_total", labelnames=("k",)).labels("a").inc(4)
        other.counter("m_total", labelnames=("k",)).labels("b").inc(1)

        registry.merge(other.snapshot())

        family = registry.get("m_total")
        assert family.labels("a").value == 7
        assert family.labels("b").value == 1

    def test_gauges_last_write_wins(self, registry):
        other = MetricsRegistry()
        registry.gauge("depth").set(10)
        other.gauge("depth").set(3)
        registry.merge(other.snapshot())
        assert registry.get("depth").labels().value == 3

    def test_histograms_sum_buckets(self, registry):
        bounds = (0.1, 1.0)
        mine = registry.histogram("h_seconds", buckets=bounds).labels()
        other = MetricsRegistry()
        theirs = other.histogram("h_seconds", buckets=bounds).labels()
        mine.observe(0.05)
        mine.observe(5.0)
        theirs.observe(0.5)
        theirs.observe(0.5)
        theirs.observe(50.0)

        registry.merge(other.snapshot())

        assert mine.count == 5
        assert mine.sum == pytest.approx(56.05)
        cumulative = dict(mine.cumulative())
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 3
        assert cumulative[float("inf")] == 5

    def test_histogram_bucket_mismatch_rejected(self, registry):
        registry.histogram("hm_seconds", buckets=(1.0,)).labels().observe(
            0.5
        )
        other = MetricsRegistry()
        other.histogram("hm_seconds", buckets=(2.0,)).labels().observe(0.5)
        with pytest.raises(ValueError):
            registry.merge(other.snapshot())

    def test_merge_into_fresh_registry_reconstructs(self, registry):
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(4)
        registry.histogram("h_seconds", buckets=(1.0,)).labels().observe(
            0.5
        )
        fresh = MetricsRegistry()
        fresh.merge(registry.snapshot())
        assert fresh.snapshot() == registry.snapshot()

    def test_merge_is_associative_for_counters(self, registry):
        """Folding worker snapshots one-by-one equals a serial run."""
        workers = []
        for value in (1, 2, 3):
            worker = MetricsRegistry()
            worker.counter("probes_total").inc(value)
            workers.append(worker.snapshot())
        for snap in workers:
            registry.merge(snap)
        assert registry.get("probes_total").labels().value == 6

    def test_empty_histogram_family_skipped(self, registry):
        other = MetricsRegistry()
        other.histogram("lonely_seconds", buckets=(1.0,))
        registry.merge(other.snapshot())  # no series: bounds unknown
        assert registry.get("lonely_seconds") is None


class TestTracer:
    def test_ring_buffer_truncates_oldest(self):
        tracer = PacketTracer(capacity=3)
        for index in range(10):
            tracer.emit("hop", float(index))
        assert len(tracer) == 3
        assert [event.t for event in tracer.events] == [7.0, 8.0, 9.0]
        assert tracer.dropped_events == 7
        assert "truncated" in tracer.render()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            PacketTracer(capacity=0)

    def test_events_of_filters_by_kind(self):
        tracer = PacketTracer()
        tracer.emit("send", 0.0)
        tracer.emit("rr_stamp", 0.0, addr=1)
        tracer.emit("deliver", 0.0)
        assert [e.kind for e in tracer.events_of("rr_stamp")] == ["rr_stamp"]

    def test_packets_grouping_and_verdicts(self):
        tracer = PacketTracer()
        tracer.emit("send", 0.0, addr=1)
        tracer.emit("drop", 0.0, detail="filtered")
        tracer.emit("send", 1.0, addr=2)
        tracer.emit("deliver", 1.0)
        groups = tracer.packets()
        assert [len(group) for group in groups] == [2, 2]
        rendered = tracer.render()
        assert "verdict: dropped (filtered)" in rendered
        assert "verdict: delivered" in rendered

    def test_render_last_n_packets(self):
        tracer = PacketTracer()
        for index in range(3):
            tracer.emit("send", float(index), addr=index + 1)
            tracer.emit("deliver", float(index))
        rendered = tracer.render(last=1)
        assert rendered.count("send") == 1


class TestExporters:
    @pytest.fixture()
    def populated(self, registry):
        registry.counter(
            "e_total", "counts things", labelnames=("kind",)
        ).labels("x").inc(3)
        registry.histogram(
            "e_seconds", "times things", buckets=(0.5, 1.0)
        ).labels().observe(0.7)
        return registry

    def test_jsonl_lines_parse(self, populated):
        lines = to_jsonl(populated).splitlines()
        records = [json.loads(line) for line in lines]
        by_name = {record["name"]: record for record in records}
        assert by_name["e_total"]["value"] == 3
        assert by_name["e_total"]["labels"] == {"kind": "x"}
        hist = by_name["e_seconds"]
        assert hist["count"] == 1
        assert hist["buckets"][-1][0] is None  # +Inf is JSON null
        assert hist["buckets"][-1][1] == 1

    def test_jsonl_file_roundtrip(self, populated, tmp_path):
        path = tmp_path / "metrics.jsonl"
        write_jsonl(path, populated)
        lines = path.read_text("utf-8").strip().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_prometheus_text_shape(self, populated):
        text = to_prometheus(populated)
        assert "# TYPE e_total counter" in text
        assert "# HELP e_total counts things" in text
        assert 'e_total{kind="x"} 3' in text
        assert "# TYPE e_seconds histogram" in text
        assert 'e_seconds_bucket{le="+Inf"} 1' in text
        assert "e_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self, registry):
        registry.counter("esc_total", labelnames=("v",)).labels(
            'a"b\\c'
        ).inc()
        text = to_prometheus(registry)
        assert 'esc_total{v="a\\"b\\\\c"} 1' in text

    def test_exporters_accept_snapshots(self, populated):
        snap = populated.snapshot()
        assert to_jsonl(snap) == to_jsonl(populated)
        assert to_prometheus(snap) == to_prometheus(populated)
