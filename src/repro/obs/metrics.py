"""A process-wide metrics registry: counters, gauges, histograms.

Every layer of the reproduction — the dataplane walk, token-bucket
rate limiters, the prober, the campaign orchestration — reports into
one :class:`MetricsRegistry` (module-level :data:`REGISTRY` by
default), so a single snapshot answers the questions the paper's
analysis turns on: *where* probes die (filtered at a provider AS,
policed on the slow path, expired at TTL) and *how fast* campaigns
ran.

Design constraints, in order:

* **O(1), allocation-free hot path.** Instruments are resolved to
  bound child objects once (``family.labels(...)``); incrementing a
  child is a single attribute update. Nothing on the per-packet path
  builds tuples, dicts, or strings.
* **Pure stdlib.** No ``prometheus_client`` dependency; the exporters
  in :mod:`repro.obs.export` render the registry's snapshot in
  Prometheus text format and JSONL themselves.
* **Snapshot isolation.** :meth:`MetricsRegistry.snapshot` returns
  plain data (dicts/lists/numbers) decoupled from the live
  instruments; later increments never mutate an earlier snapshot.

Thread safety: CPython attribute increments on the hot path are
effectively atomic under the GIL; registration paths are guarded by a
lock so lazily-built scenarios in threads cannot corrupt the family
table. This matches the simulator's single-writer usage.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "dataplane_seconds_counter",
    "DEFAULT_TIME_BUCKETS",
]

#: Wall-clock / sim-clock second buckets used by phase timers and the
#: probe RTT histogram (upper bounds; +Inf is implicit).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """A monotonically increasing counter child. O(1) ``inc``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A value that can go up and down (cache sizes, load levels)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket histogram child.

    ``observe`` is O(log n_buckets) via bisect and allocates nothing;
    bucket counts are stored *non*-cumulatively internally and rendered
    cumulatively (Prometheus style) at snapshot time.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        # One slot per finite bound plus the +Inf overflow slot.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_all(self, values: Sequence[float]) -> None:
        """``observe`` each of ``values`` (real numbers, no NaN).

        Counts come from one sort: a value lands in the first bucket
        whose bound is not below it, so each bucket takes the values
        up to its bound less those up to the bound before. The sum
        still adds the values one by one in order, so it is bit-equal
        to the per-value path (float addition does not associate).
        """
        ordered = sorted(values)
        counts = self.counts
        below = 0
        for index, bound in enumerate(self.bounds):
            upto = bisect_right(ordered, bound)
            counts[index] += upto - below
            below = upto
        counts[-1] += len(ordered) - below
        self.sum = reduce(add, values, self.sum)
        self.count += len(ordered)

    def reset(self) -> None:
        for index in range(len(self.counts)):
            self.counts[index] = 0
        self.sum = 0.0
        self.count = 0

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.sum:.6g})"


class _Family:
    """A named metric plus its labelled children."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: object, **kv: object):
        """Resolve (creating on first use) the child for a label set.

        Accepts positional values in ``labelnames`` order or keyword
        values; resolve once and keep the returned child for hot paths.
        """
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as missing:
                raise ValueError(
                    f"{self.name}: missing label {missing}"
                ) from None
            if len(kv) != len(self.labelnames):
                raise ValueError(
                    f"{self.name}: unexpected labels "
                    f"{sorted(set(kv) - set(self.labelnames))}"
                )
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {len(values)} value(s)"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    values, self._make_child()
                )
        return child

    # Unlabelled convenience: family acts as its own default child.

    def _default(self):
        return self.labels()

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return list(self._children.items())

    def reset(self) -> None:
        for child in self._children.values():
            child.reset()


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, amount: int = 1) -> None:
        self._default().inc(amount)

    def totals(self, by: Optional[str] = None) -> Dict[str, float]:
        """Live child sums, optionally grouped by one label name.

        ``totals()`` returns ``{"": grand_total}``; ``totals(by="x")``
        returns ``{x_value: sum}`` over children sharing that label
        value. Reads bound children directly (no snapshot), which is
        what status publishers sampling per-tenant counters every
        round need.
        """
        if by is None:
            index = None
        else:
            try:
                index = self.labelnames.index(by)
            except ValueError:
                raise ValueError(
                    f"{self.name}: no label {by!r} in {self.labelnames}"
                ) from None
        out: Dict[str, float] = {}
        for values, child in self.children():
            key = "" if index is None else values[index]
            out[key] = out.get(key, 0.0) + child.value
        return out


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"{name}: histogram needs at least one bucket")
        self.buckets = bounds

    def _make_child(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """The process-wide table of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: calling
    them again with the same name returns the existing family (and
    raises if the kind or label schema disagrees), so any module can
    declare the instruments it needs without import-order choreography.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
            if (
                existing.kind != family.kind
                or existing.labelnames != family.labelnames
            ):
                raise ValueError(
                    f"metric {family.name!r} re-registered with a "
                    f"different schema: {existing.kind}{existing.labelnames}"
                    f" vs {family.kind}{family.labelnames}"
                )
            return existing

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> CounterFamily:
        return self._register(CounterFamily(name, help, tuple(labelnames)))

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
    ) -> GaugeFamily:
        return self._register(GaugeFamily(name, help, tuple(labelnames)))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> HistogramFamily:
        return self._register(
            HistogramFamily(name, help, tuple(labelnames), buckets)
        )

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- lifecycle ---------------------------------------------------

    def reset(self) -> None:
        """Zero every child of every family (families stay registered)."""
        for family in self._families.values():
            family.reset()

    def clear(self) -> None:
        """Drop every family entirely (tests wanting a blank slate)."""
        with self._lock:
            self._families.clear()

    # -- snapshots ---------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A point-in-time copy as plain data, isolated from later
        updates. Shape::

            {name: {"type": ..., "help": ..., "labelnames": [...],
                    "series": [{"labels": {...}, ...values...}]}}

        Counter/gauge series carry ``"value"``; histogram series carry
        ``"count"``, ``"sum"``, and cumulative ``"buckets"``
        ``[[le, count], ...]`` with ``le=null`` for +Inf (JSON-safe).
        """
        out: Dict[str, dict] = {}
        for family in self.families():
            series = []
            for values, child in sorted(family.children()):
                labels = dict(zip(family.labelnames, values))
                if family.kind == "histogram":
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                [None if bound == float("inf") else bound,
                                 count]
                                for bound, count in child.cumulative()
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series,
            }
        return out

    def to_dict(self) -> Dict[str, dict]:
        """Alias for :meth:`snapshot` (symmetry with other repo APIs)."""
        return self.snapshot()

    # -- merging ---------------------------------------------------

    def merge(self, snapshot: Dict[str, dict]) -> None:
        """Fold a :meth:`snapshot` (possibly from another process) into
        the live registry.

        This is the parent side of the parallel survey engine's
        metrics protocol: each worker probes with its own process-local
        registry, snapshots it, and ships the plain-data snapshot back;
        the parent merges every worker snapshot so campaign totals look
        exactly as they would have from a serial run.

        Semantics per instrument kind:

        * **counter** — values are summed (``child.inc(value)``);
        * **gauge** — last write wins (the snapshot's value replaces
          the local one);
        * **histogram** — per-bucket counts, ``sum`` and ``count`` are
          summed; bucket bounds must match or ``ValueError`` is raised.

        Families and children absent locally are registered on the
        fly, so merging into a fresh registry reconstructs the
        snapshot exactly.
        """
        for name, family_data in snapshot.items():
            kind = family_data["type"]
            labelnames = tuple(family_data["labelnames"])
            help_text = family_data.get("help", "")
            series_list = family_data["series"]
            if kind == "counter":
                family = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                family = self.gauge(name, help_text, labelnames)
            elif kind == "histogram":
                if not series_list:
                    continue  # no children: bounds unknown, nothing to add
                bounds = tuple(
                    bound
                    for bound, _count in series_list[0]["buckets"]
                    if bound is not None
                )
                family = self.histogram(
                    name, help_text, labelnames, buckets=bounds
                )
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown metric kind {kind!r} in snapshot")
            for series in series_list:
                values = tuple(
                    series["labels"][label] for label in labelnames
                )
                child = family.labels(*values)
                if kind == "counter":
                    child.inc(series["value"])
                elif kind == "gauge":
                    child.set(series["value"])
                else:
                    self._merge_histogram(name, child, series)

    @staticmethod
    def _merge_histogram(name: str, child: "Histogram", series: dict) -> None:
        bounds = tuple(
            bound for bound, _count in series["buckets"] if bound is not None
        )
        if bounds != child.bounds:
            raise ValueError(
                f"histogram {name!r}: snapshot buckets {bounds} do not "
                f"match local buckets {child.bounds}"
            )
        # Snapshot buckets are cumulative; de-cumulate into the child's
        # non-cumulative internal slots.
        previous = 0
        for index, (_bound, cumulative) in enumerate(series["buckets"]):
            child.counts[index] += cumulative - previous
            previous = cumulative
        child.sum += series["sum"]
        child.count += series["count"]

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._families)} families)"


#: The process-wide default registry.
REGISTRY = MetricsRegistry()


def dataplane_seconds_counter(registry: MetricsRegistry) -> CounterFamily:
    """``dataplane_seconds_total{net, stage}``: wall seconds per stage.

    Timed once per batch, never per probe: ``replay`` around each
    ``Prober._replay`` call, ``validate`` around each
    ``ReplyValidator.check_batch``.
    """
    return registry.counter(
        "dataplane_seconds_total",
        "Wall-clock seconds spent in each per-batch dataplane stage "
        "(replay, validate).",
        ("net", "stage"),
    )


def get_registry() -> MetricsRegistry:
    """The process-wide registry (indirection point for tests)."""
    return REGISTRY
