"""Per-batch bookkeeping around the replay loop's gates.

The replay loop runs each probe's rate and loss gates; everything else
a probe used to pay for is settled once per batch. These tests hold
each rewritten path to the per-probe code it replaced:

* ``ReplyValidator.check_batch`` against a copy of the per-reply
  validator, over clean and tainted replies across retry rounds;
* ``Histogram.observe_all`` against per-value ``observe``;
* ``Network.options_load`` (pending outcome tallies) against the
  per-outcome fold, across evictions, invalidation, resets and pools;
* the flap-window lookup against a lookup per attempt;
* ``dataplane_seconds_total``, the per-batch stage timers.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.survey import run_rr_survey
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.net.options import OptionDecodeError, RecordRouteOption
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    REGISTRY,
    Histogram,
    MetricsRegistry,
)
from repro.probing.prober import DEFAULT_PPS
from repro.probing.validation import (
    INVALID,
    REASON_DUPLICATE,
    REASON_OPTION_MALFORMED,
    REASON_RR_ABSENT,
    REASON_SPOOFED,
    REASON_STAMP_MISMATCH,
    REASON_TOO_MANY_STAMPS,
    SUSPECT,
    VALID,
    ReplyValidator,
    quarantine_counter,
    validation_verdict_counter,
)
from repro.scenarios.presets import get_preset
from repro.sim.stampplan import Outcome
from repro.topology.hitlist import Destination


# ---------------------------------------------------------------------------
# The validator against the per-reply code it replaced.
# ---------------------------------------------------------------------------


class _ReferenceValidator:
    """The per-reply validator: one ``_check_one`` call, one set per
    duplicate signature and one counter increment per reply."""

    def __init__(self, vp_name, slots, position, registry, net_id):
        self.vp_name = vp_name
        self.slots = int(slots)
        self.position = position
        verdicts = validation_verdict_counter(registry)
        self._verdict_counters = {
            verdict: verdicts.labels(net_id, verdict)
            for verdict in (VALID, SUSPECT, INVALID)
        }
        self._quarantine_family = quarantine_counter(registry)
        self._net_id = net_id
        self._dup_seen = {}
        self.checked = 0
        self.verdict_counts = {VALID: 0, SUSPECT: 0, INVALID: 0}
        self.reason_counts = {}
        self.quarantined = []
        self._invalid_dests = set()

    def check_batch(self, pairs, round_no=0):
        dup_seen = self._dup_seen
        for dest, outcome in pairs:
            if outcome.rr_responsive and outcome.dest_slot is not None:
                key = (outcome.rr, outcome.dest_slot)
                dup_seen.setdefault(key, set()).add(dest.addr)
        results = []
        for dest, outcome in pairs:
            verdict, reason = self._check_one(dest, outcome)
            if verdict is not None:
                self.checked += 1
                self.verdict_counts[verdict] += 1
                self._verdict_counters[verdict].inc()
                if reason is not None:
                    self.reason_counts[reason] = (
                        self.reason_counts.get(reason, 0) + 1
                    )
                if verdict == INVALID:
                    self._invalid_dests.add(dest.addr)
                    self.quarantined.append(
                        self._record(dest, outcome, reason, round_no)
                    )
                    self._quarantine_family.labels(
                        self._net_id, reason
                    ).inc()
            results.append((verdict, reason))
        return results

    def _check_one(self, dest, outcome):
        if not outcome.responded:
            return None, None
        if outcome.wire is not None:
            try:
                RecordRouteOption.from_bytes(outcome.wire)
            except OptionDecodeError:
                return INVALID, REASON_OPTION_MALFORMED
        if outcome.rr_responsive and outcome.dest_slot is not None:
            key = (outcome.rr, outcome.dest_slot)
            if len(self._dup_seen.get(key, ())) >= 2:
                return INVALID, REASON_DUPLICATE
        if outcome.reply_src is not None and outcome.reply_src != dest.addr:
            return INVALID, REASON_SPOOFED
        if outcome.reply_has_rr:
            if len(outcome.rr) > self.slots:
                return INVALID, REASON_TOO_MANY_STAMPS
            if outcome.dest_slot is not None:
                if (
                    outcome.dest_slot < 1
                    or outcome.dest_slot > len(outcome.rr)
                    or outcome.rr[outcome.dest_slot - 1] != dest.addr
                ):
                    return INVALID, REASON_STAMP_MISMATCH
            return VALID, None
        return SUSPECT, REASON_RR_ABSENT

    def _record(self, dest, outcome, reason, round_no):
        return {
            "vp": self.vp_name,
            "dest": dest.addr,
            "dest_index": self.position[dest.addr],
            "round": round_no,
            "reason": reason,
            "rr": list(outcome.rr),
            "dest_slot": outcome.dest_slot,
            "reply_src": outcome.reply_src,
            "wire": None if outcome.wire is None else outcome.wire.hex(),
        }

    def summary(self):
        return {
            "checked": self.checked,
            "verdicts": dict(self.verdict_counts),
            "reasons": {
                reason: self.reason_counts[reason]
                for reason in sorted(self.reason_counts)
            },
            "invalid_dests": len(self._invalid_dests),
            "quarantined": sorted(
                self.quarantined,
                key=lambda r: (r["dest_index"], r["round"]),
            ),
            "degraded": [],
        }


DESTS = tuple(SimpleNamespace(addr=0x0B000001 + 256 * i) for i in range(6))
POSITION = {dest.addr: index for index, dest in enumerate(DESTS)}
#: An off-path address for spoofed sources and foreign stamps.
OTHER = 0x0C000001
#: Canned headers a zombie replays for every destination it is asked
#: about: claimed by two destinations, a signature is a duplicate.
CANNED = ((0x0A000001, 0x0A000002, 0x0A000003), (0x0A000009,))
GOOD_WIRE = RecordRouteOption(slots=3).to_bytes()
BAD_WIRES = (b"\x07", b"\x07\x07\x03\x00\x00\x00\x00")


@st.composite
def _honest(draw, dest):
    """A clean RR reply: the destination's stamp at its slot."""
    slot = draw(st.integers(min_value=1, max_value=4))
    rr = tuple(0x0A000100 + hop for hop in range(slot - 1)) + (dest.addr,)
    return Outcome(
        replied=True, responded=True, reply_has_rr=True, rr=rr,
        dest_slot=draw(st.sampled_from([slot, None])),
    )


@st.composite
def _zombie(draw, dest):
    """A canned reply: the same header whatever was asked."""
    return Outcome(
        replied=True, responded=True, reply_has_rr=True,
        rr=draw(st.sampled_from(CANNED)),
        dest_slot=draw(st.sampled_from([1, 2, None])),
    )


@st.composite
def _tainted(draw, dest):
    """Any mix of fields: unanswered, no echo, spoofed, mangled, too
    many stamps, a bad slot, or several at once (first check wins)."""
    responded = draw(st.booleans())
    return Outcome(
        replied=responded,
        responded=responded,
        reply_has_rr=draw(st.booleans()),
        rr=draw(st.sampled_from([
            (), (dest.addr,), (OTHER, dest.addr), (OTHER,),
            CANNED[0], tuple(range(0x0A000200, 0x0A00020C)),
        ])),
        dest_slot=draw(st.sampled_from([None, 0, 1, 2, 3, 13])),
        reply_src=draw(st.sampled_from([None, dest.addr, OTHER])),
        wire=draw(st.sampled_from((None, GOOD_WIRE) + BAD_WIRES)),
    )


@st.composite
def _pair(draw):
    dest = draw(st.sampled_from(DESTS))
    outcome = draw(st.one_of(_honest(dest), _zombie(dest), _tainted(dest)))
    return dest, outcome


def _families(registry):
    snapshot = registry.snapshot()
    return {
        name: snapshot.get(name)
        for name in ("validation_verdicts_total", "quarantine_records_total")
    }


class TestValidatorOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        slots=st.sampled_from([3, 9]),
        rounds=st.lists(
            st.lists(_pair(), max_size=12), min_size=1, max_size=3
        ),
    )
    def test_check_batch_equals_per_reply_reference(self, slots, rounds):
        fast_registry, slow_registry = MetricsRegistry(), MetricsRegistry()
        fast = ReplyValidator("vp", slots, POSITION, fast_registry, "n")
        slow = _ReferenceValidator("vp", slots, POSITION, slow_registry, "n")
        for round_no, pairs in enumerate(rounds):
            assert fast.check_batch(pairs, round_no) == slow.check_batch(
                pairs, round_no
            )
        assert fast.checked == slow.checked
        assert fast.verdict_counts == slow.verdict_counts
        assert fast.reason_counts == slow.reason_counts
        assert fast.quarantined == slow.quarantined
        assert fast.summary() == slow.summary()
        assert _families(fast_registry) == _families(slow_registry)

    def test_duplicates_within_and_across_rounds(self):
        first, second, third = DESTS[:3]
        canned = Outcome(
            replied=True, responded=True, reply_has_rr=True,
            rr=CANNED[0], dest_slot=1,
        )
        validator = ReplyValidator("vp", 9, POSITION, MetricsRegistry(), "n")
        # One claimant: not (yet) a duplicate.
        assert validator.check_batch([(first, canned)]) == [
            (INVALID, REASON_STAMP_MISMATCH)
        ]
        # A second destination claims it in a later round, then a third
        # within one round: every claim after the first is a duplicate.
        assert validator.check_batch([(second, canned)], 1) == [
            (INVALID, REASON_DUPLICATE)
        ]
        assert validator.check_batch(
            [(first, canned), (third, canned)], 2
        ) == [(INVALID, REASON_DUPLICATE)] * 2


# ---------------------------------------------------------------------------
# The RTT histogram: one call per batch.
# ---------------------------------------------------------------------------


def _near_bounds(rng, count):
    """Values on both sides of (and on) every bucket bound, plus RTTs
    as the replay loop computes them and a uniform spread."""
    values = []
    bounds = DEFAULT_TIME_BUCKETS
    now = rng.uniform(0.0, 50.0)
    for _ in range(count):
        pick = rng.randrange(4)
        bound = rng.choice(bounds)
        if pick == 0:
            values.append(rng.choice([
                math.nextafter(bound, 0.0), bound,
                math.nextafter(bound, math.inf),
            ]))
        elif pick == 1:
            start, now = now, now + 1.0 / DEFAULT_PPS
            values.append(now - start)
        elif pick == 2:
            values.append(rng.uniform(-1.0, 200.0))
        else:
            values.append(rng.choice([0.0, 1e-300, 1e-17, 123.456789]))
    return values


class TestObserveAll:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_per_value_observe(self, seed):
        rng = random.Random(seed)
        earlier = _near_bounds(rng, 50)
        values = _near_bounds(rng, 2000)
        step = 1.0 / DEFAULT_PPS
        assert any(value < step for value in values)
        assert any(value > step for value in values)
        one, batched = (Histogram(DEFAULT_TIME_BUCKETS) for _ in range(2))
        for value in earlier:
            one.observe(value)
            batched.observe(value)
        for value in values:
            one.observe(value)
        batched.observe_all(values)
        batched.observe_all([])
        assert batched.counts == one.counts
        assert batched.count == one.count
        assert float.hex(batched.sum) == float.hex(one.sum)

    def test_infinities_land_in_the_end_buckets(self):
        values = [math.inf, -math.inf, DEFAULT_TIME_BUCKETS[-1], 0.0]
        one, batched = (Histogram(DEFAULT_TIME_BUCKETS) for _ in range(2))
        for value in values:
            one.observe(value)
        batched.observe_all(values)
        assert batched.counts == one.counts
        assert batched.counts[0] == 2 and batched.counts[-1] == 1


# ---------------------------------------------------------------------------
# Options load: a tally of outcomes, expanded before every read.
# ---------------------------------------------------------------------------


def _eager_fold(network):
    """Give ``network`` the per-outcome fold: every replayed batch's
    load is added at once, probe by probe."""
    def add_replayed_load(outcomes):
        load = network.options_load
        for outcome in outcomes:
            for asn, count in outcome.load:
                load[asn] = load.get(asn, 0) + count
    network.add_replayed_load = add_replayed_load


def _live_outcomes(network):
    """Every outcome a cached plan's templates can replay."""
    live = set()
    for plan in network._plans.values():
        for template in plan._templates.values():
            live.add(template.final)
            live.update(op[3] for op in template.ops)
    return live


def _load_steps(world):
    """Run the load scenario on ``world``; yield after every step."""
    net, prober = world.network, world.prober
    vp = world.working_vps[0]
    dests = list(world.hitlist)[:24]
    # Addresses beside hitlist entries walk (no plan is theirs).
    strays = [
        Destination(dest.addr + 1, dest.prefix, dest.asn)
        for dest in dests[:6]
    ]

    def batch(targets):
        net.begin_vp_session(vp.name)
        try:
            prober.probe_batch_rows(vp, targets)
        finally:
            net.end_vp_session()

    batch(dests[:8])
    yield "replayed"
    prober.batching = False
    batch(dests[4:12])
    prober.batching = True
    yield "walked"
    mixed = [d for pair in zip(dests[8:14], strays) for d in pair]
    batch(mixed)
    yield "mixed"
    net.plan_cache_cap = 4
    batch(dests[:16])
    yield "evicted"
    batch(dests[10:20])
    yield "evicted again"
    net.invalidate_routes()
    yield "invalidated"
    batch(dests[12:24])
    yield "after invalidation"
    net.reset_options_load()
    yield "reset"
    batch(dests[:6] + strays[:3])
    yield "after reset"


class TestOptionsLoad:
    def test_every_read_equals_the_per_outcome_fold(self):
        lazy, eager = get_preset("tiny", 2016), get_preset("tiny", 2016)
        _eager_fold(eager.network)
        evictions = lazy.network._plan_evictions
        for step, _ in zip(_load_steps(lazy), _load_steps(eager)):
            # Pending counts name only outcomes of cached plans...
            pending = set(lazy.network._pending_load)
            assert pending <= _live_outcomes(lazy.network), step
            # ...and every read sees the eager values, in its order.
            assert list(lazy.network.options_load.items()) == list(
                eager.network.options_load.items()
            ), step
            assert not lazy.network._pending_load
        assert evictions.value > 0
        assert lazy.network.options_load

    def test_pooled_merge_equals_the_per_outcome_fold(self):
        loads = []
        for jobs, eager in ((1, False), (2, False), (1, True), (2, True)):
            world = get_preset("tiny", 2016)
            if eager:
                _eager_fold(world.network)
            run_rr_survey(world, dests=list(world.hitlist)[:40], jobs=jobs)
            loads.append(list(world.network.options_load.items()))
        assert loads[0]
        assert all(load == loads[0] for load in loads), [
            len(load) for load in loads
        ]


# ---------------------------------------------------------------------------
# Flap windows: one lookup per bound crossed, not one per attempt.
# ---------------------------------------------------------------------------


#: Flaps dense enough to change outcomes on ``tiny`` flows.
FLAP_DENSE = FaultPlan(
    seed=3, specs=(LinkFlap(count=300, start=0.0, duration=1.0),)
)
#: Two windows with four bounds inside a session.
FLAP_WINDOWS = FaultPlan(
    seed=3,
    specs=(
        LinkFlap(count=300, start=0.2, duration=0.25),
        LinkFlap(count=300, start=0.6, duration=0.2),
    ),
)


def _flap_session(seed, plan, stretch, dests, kind, per_attempt):
    """One replayed session under ``plan``: what the probes returned,
    the loss stream's state after them, and how many flap lookups the
    batch made. ``per_attempt`` makes every attempt look the set up."""
    world = get_preset("tiny", seed)
    net = world.network
    vp = world.working_vps[0]
    targets = list(world.hitlist)[:dests]
    injector = FaultInjector(
        net, plan, horizon=stretch * dests / DEFAULT_PPS
    )
    lookups = []
    flap_span = injector.flap_span

    def counted(now):
        lookups.append(now)
        active, until = flap_span(now)
        return active, (now if per_attempt else until)

    injector.flap_span = counted
    net.attach_injector(injector)
    net.begin_vp_session(vp.name)
    try:
        if kind == "rr":
            rows = [
                (outcome.responded, outcome.rr, outcome.dest_slot,
                 outcome.ttl_exceeded, outcome.error_source)
                for _dest, outcome in world.prober.probe_batch_rows(
                    vp, targets
                )
            ]
        else:
            rows = world.prober.probe_batch_ping(vp, targets, count=2)
        state = net._loss_rng.getstate()
    finally:
        net.end_vp_session()
        net.detach_injector()
    return rows, state, lookups, injector._flap_bounds


class TestFlapLookups:
    def test_one_lookup_per_bound_crossed(self):
        dests = 40
        rows, _state, lookups, bounds = _flap_session(
            2016, FLAP_WINDOWS, 1.0, dests, "rr", per_attempt=False
        )
        # The send times: the session clock starts at 0 and advances
        # one pacing step per probe (ping-RR sends one each).
        now, sends = 0.0, []
        for _ in range(dests):
            now += 1.0 / DEFAULT_PPS
            sends.append(now)
        crossings = sum(
            1
            for before, after in zip(sends, sends[1:])
            if any(before < bound <= after for bound in bounds)
        )
        assert len(bounds) == 4 and crossings == 4
        assert len(lookups) == 1 + crossings
        assert len(rows) == dests

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.sampled_from([2016, 3, 1, 7]),
        plan=st.sampled_from([FLAP_DENSE, FLAP_WINDOWS]),
        stretch=st.sampled_from([0.3, 0.5, 0.8, 1.0, 1.5]),
        dests=st.integers(min_value=10, max_value=50),
        kind=st.sampled_from(["rr", "ping"]),
    )
    def test_outcomes_equal_per_attempt_lookups(
        self, seed, plan, stretch, dests, kind
    ):
        batched = _flap_session(seed, plan, stretch, dests, kind, False)
        each = _flap_session(seed, plan, stretch, dests, kind, True)
        assert batched[:2] == each[:2]
        assert len(batched[2]) <= len(each[2])


# ---------------------------------------------------------------------------
# Stage timers.
# ---------------------------------------------------------------------------


def _stage_seconds():
    family = REGISTRY.get("dataplane_seconds_total")
    return {} if family is None else family.totals(by="stage")


class TestStageSeconds:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_both_stages_count_after_a_survey(self, jobs):
        world = get_preset("tiny", 2016)
        before = _stage_seconds()
        run_rr_survey(world, dests=list(world.hitlist)[:40], jobs=jobs)
        after = _stage_seconds()
        for stage in ("replay", "validate"):
            assert after.get(stage, 0.0) > before.get(stage, 0.0), stage
