"""Hostile-dataplane hardening: misbehavior faults, reply validation,
quarantine, and graceful RR→ping degradation.

The acceptance bar pinned here:

* under every misbehavior preset the merged survey bytes are invariant
  across ``jobs ∈ {1,2,4}`` and batched-vs-legacy dataplanes;
* invalid replies never reach the survey — they land (only) in the
  checksummed quarantine sidecar with machine-readable reason codes;
* a zombie VP's garbage attempts trip its circuit breaker and the
  quarantine machinery retires it with ``kind="garbage"``;
* a destination whose RR replies stay invalid past the retry budget
  degrades to plain ping, with the reason recorded in the manifest;
* the clean path produces byte-identical output with validation on or
  off (the validator is invisible in an honest world);
* the transform, which tests each spec's precondition before drawing,
  taints exactly what the draw-first reference taints.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import json
import sys
from enum import IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.survey import run_rr_survey, save_survey
from repro.faults.campaign import CampaignInterrupted, CampaignRunner
from repro.faults.injector import FaultInjector, fault_event_counter
from repro.faults.specs import (
    FaultPlan,
    MISBEHAVIOR_KINDS,
    OptionStrip,
    SpoofedReply,
    StampCorruption,
    TruncatedOption,
    ZombieVp,
)
from repro.faults.supervisor import SupervisionConfig, VpHealthTracker
from repro.net.options import RecordRouteOption
from repro.obs.metrics import MetricsRegistry
from repro.probing.artifacts import verify_embedded_checksum
from repro.probing.validation import (
    INVALID,
    QUARANTINE_REASONS,
    REASON_DUPLICATE,
    REASON_OPTION_MALFORMED,
    REASON_RR_ABSENT,
    REASON_SPOOFED,
    REASON_STAMP_MISMATCH,
    REASON_TOO_MANY_STAMPS,
    ReplyValidator,
    SUSPECT,
    VALID,
    empty_quality,
    merge_quality,
)
from repro.rng import StablePrefix, stable_u64, stable_uniform
from repro.scenarios.faults import FAULT_PRESETS, build_fault_plan
from repro.scenarios.presets import get_preset
from repro.sim.stampplan import Outcome

DESTS = 40


def _scenario():
    return get_preset("tiny", seed=7)


def _campaign(plan, jobs=1, dests=DESTS, **kw):
    scenario = _scenario()
    targets = list(scenario.hitlist)[:dests]
    runner = CampaignRunner(scenario, plan=plan, jobs=jobs, **kw)
    return scenario, runner.run(targets=targets)


def _survey_bytes(survey, tmp_path, tag):
    path = tmp_path / f"{tag}.json"
    save_survey(survey, path)
    return path.read_bytes()


# -- specs and presets -----------------------------------------------------


class TestMisbehaviorSpecs:
    def test_presets_exist(self):
        assert "misbehave" in FAULT_PRESETS
        assert "hostile" in FAULT_PRESETS
        build_fault_plan("misbehave")
        build_fault_plan("hostile")

    def test_describe_names_every_misbehavior_kind(self):
        description = build_fault_plan("hostile").describe()
        for kind in (
            "stamp_corruption",
            "option_strip",
            "truncated_option",
            "spoofed_reply",
            "zombie_vp",
        ):
            assert kind in description, description

    def test_misbehavior_kinds_registered(self):
        assert set(MISBEHAVIOR_KINDS) == {
            "stamp_corruption",
            "option_strip",
            "truncated_option",
            "spoofed_reply",
            "zombie_vp",
        }

    def test_plan_partitions_misbehavior_specs(self):
        hostile = build_fault_plan("hostile")
        assert hostile.has_misbehavior
        assert len(hostile.misbehavior_specs()) == 5
        chaos = build_fault_plan("chaos")
        assert not chaos.has_misbehavior
        assert chaos.misbehavior_specs() == ()

    def test_sticky_draw_is_round_invariant(self):
        spec = StampCorruption(prob=0.5)
        for dest in range(50):
            decisions = {
                spec.applies_to(11, "vp", dest, round_no=r)
                for r in range(4)
            }
            assert len(decisions) == 1, f"sticky draw varied: {dest}"

    def test_non_sticky_draw_varies_with_round(self):
        spec = TruncatedOption(prob=0.5, sticky=False)
        varied = any(
            len({
                spec.applies_to(11, "vp", dest, round_no=r)
                for r in range(8)
            }) > 1
            for dest in range(50)
        )
        assert varied, "non-sticky draws never varied across rounds"


# -- per-batch selectors -----------------------------------------------------


def _reference_applies_to(spec, seed, vp_name, dest, round_no=0):
    """The per-reply selection as it was before per-batch selectors:
    every draw hashes its full key."""
    if isinstance(spec, ZombieVp):
        if not spec.vp_applies(seed, vp_name):
            return False
        prob = spec.dup_frac
    else:
        if spec.vps and vp_name not in spec.vps:
            return False
        if spec.prob <= 0.0:
            return False
        prob = spec.prob
    when = stable_uniform(seed, "when", vp_name, dest)
    if not (spec.start <= when < spec.start + spec.duration):
        return False
    if prob >= 1.0:
        return True
    salt = 0 if spec.sticky else round_no
    return stable_uniform(seed, "hit", vp_name, dest, salt) < prob


_PARTS = st.one_of(
    st.integers(),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=4)),
)
_VP_NAMES = ("mlab-lax", "mlab-nyc", "mlab-mia")
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_MISBEHAVIOR_CLASSES = (
    StampCorruption, OptionStrip, TruncatedOption, SpoofedReply, ZombieVp,
)


@st.composite
def _misbehavior_specs(draw):
    cls = draw(st.sampled_from(_MISBEHAVIOR_CLASSES))
    kwargs = dict(
        vps=draw(st.lists(st.sampled_from(_VP_NAMES), unique=True)),
        prob=draw(st.one_of(st.sampled_from((0.0, 1.0)), _UNIT)),
        start=draw(_UNIT),
        duration=draw(st.floats(min_value=0.01, max_value=1.0)),
        sticky=draw(st.booleans()),
    )
    if cls is ZombieVp:
        kwargs["dup_frac"] = draw(st.floats(min_value=0.01, max_value=1.0))
    return cls(**kwargs)


class TestPerBatchSelectors:
    @given(
        st.lists(_PARTS, max_size=5),
        st.one_of(
            st.lists(_PARTS, max_size=5),
            st.lists(st.integers(), max_size=5),
        ),
    )
    def test_prefix_hasher_equals_stable_u64(self, prefix, rest):
        hasher = StablePrefix(*prefix)
        assert hasher.u64(*rest) == stable_u64(*prefix, *rest)

    def test_bool_and_int_subclass_take_the_repr_path(self):
        """``%d`` would format ``True`` and an ``int`` subclass as the
        plain int; ``repr`` does not, so a draw keyed by one differs
        from a draw keyed by the plain int."""

        class Port(int):
            def __repr__(self):
                return f"Port({int(self)})"

        class Color(IntEnum):
            RED = 1

        prefix = (7, "hit", "mlab-lax")
        hasher = StablePrefix(*prefix)
        for part in (True, False, Port(5), Color.RED):
            assert hasher.u64(part, 3) == stable_u64(*prefix, part, 3)
            assert hasher.u64(3, part) == stable_u64(*prefix, 3, part)
            assert hasher.u64(part, 3) != hasher.u64(int(part), 3)

    @settings(max_examples=200)
    @given(
        spec=_misbehavior_specs(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        vp_name=st.sampled_from(_VP_NAMES),
        round_no=st.integers(min_value=0, max_value=5000),
        dests=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=1, max_size=40,
        ),
    )
    @example(
        spec=ZombieVp(vps=("mlab-lax",), start=0.3, duration=0.4,
                      dup_frac=0.5, sticky=False),
        seed=11, vp_name="mlab-lax", round_no=3, dests=list(range(40)),
    )
    def test_selector_equals_reference(
        self, spec, seed, vp_name, round_no, dests
    ):
        select = spec.selector(seed, vp_name, round_no)
        for dest in dests:
            expected = _reference_applies_to(
                spec, seed, vp_name, dest, round_no
            )
            assert (select is not None and select(dest)) == expected
            assert spec.applies_to(seed, vp_name, dest, round_no) == \
                expected

    @pytest.mark.parametrize("cls", _MISBEHAVIOR_CLASSES)
    @pytest.mark.parametrize("sticky", [True, False])
    @pytest.mark.parametrize("vps", [(), ("mlab-lax",)])
    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.25, 0.5)])
    def test_every_class_selects_like_reference(
        self, cls, sticky, vps, window
    ):
        """Deterministic coverage of each class × stickiness × VP
        restriction × window shape, hits and misses both seen."""
        kwargs = dict(
            vps=vps, prob=0.4, start=window[0], duration=window[1],
            sticky=sticky,
        )
        if cls is ZombieVp:
            kwargs.update(prob=0.0 if vps else 1.0, dup_frac=0.4)
        spec = cls(**kwargs)
        outcomes = set()
        for vp_name in _VP_NAMES:
            for round_no in (0, 1, 1025):
                select = spec.selector(7, vp_name, round_no)
                for dest in range(0, 200 * 251, 251):
                    expected = _reference_applies_to(
                        spec, 7, vp_name, dest, round_no
                    )
                    got = select is not None and select(dest)
                    assert got == expected, (vp_name, round_no, dest)
                    outcomes.add(got)
        assert outcomes == {True, False}


# -- the transform against its draw-first reference ------------------------


def _reference_taint(spec, seed, vp_name, dest, outcome, slots):
    """One spec's transform as it was when selection drew first and the
    precondition sat inside the transform: ``None`` = precondition
    unmet, so a later spec may still apply. Every draw hashes its full
    key."""
    if isinstance(spec, ZombieVp):
        rr = tuple(
            stable_u64(seed, "zombie-rr", vp_name, i) & 0xFFFFFFFF
            for i in range(min(slots, 4))
        )
        return Outcome(
            replied=True, responded=True, reply_has_rr=True, rr=rr,
            dest_slot=1, inprefix=(), counters=outcome.counters,
            load=outcome.load,
        )
    if isinstance(spec, StampCorruption):
        if not outcome.rr_responsive or outcome.dest_slot is None:
            return None
        rr = []
        for i in range(len(outcome.rr)):
            addr = stable_u64(seed, "addr", vp_name, dest.addr, i)
            addr &= 0xFFFFFFFF
            if addr == dest.addr:
                addr ^= 1
            rr.append(addr)
        return Outcome(
            replied=outcome.replied, responded=True, reply_has_rr=True,
            rr=tuple(rr), dest_slot=outcome.dest_slot, inprefix=(),
            counters=outcome.counters, load=outcome.load,
        )
    if isinstance(spec, OptionStrip):
        if not outcome.rr_responsive:
            return None
        return Outcome(
            replied=outcome.replied, responded=True, reply_has_rr=False,
            counters=outcome.counters, load=outcome.load,
        )
    if isinstance(spec, TruncatedOption):
        if not outcome.rr_responsive:
            return None
        wire = bytearray(
            RecordRouteOption(slots=slots, recorded=list(outcome.rr))
            .to_bytes()
        )
        mode = stable_u64(seed, "mangle", vp_name, dest.addr) % 3
        if mode == 0:
            wire = wire[:2]
        elif mode == 1:
            wire[1] ^= 0x5A
        else:
            wire[2] = 2
        return Outcome(
            replied=outcome.replied, responded=True, reply_has_rr=True,
            rr=outcome.rr, dest_slot=outcome.dest_slot, inprefix=(),
            counters=outcome.counters, load=outcome.load,
            wire=bytes(wire),
        )
    assert isinstance(spec, SpoofedReply)
    if not outcome.responded:
        return None
    src = stable_u64(seed, "src", vp_name, dest.addr) & 0xFFFFFFFF
    if src == dest.addr:
        src ^= 1
    return Outcome(
        replied=outcome.replied, responded=True,
        reply_has_rr=outcome.reply_has_rr, rr=outcome.rr,
        dest_slot=outcome.dest_slot, inprefix=(),
        counters=outcome.counters, load=outcome.load, reply_src=src,
    )


def _reference_misbehave(plan, attempt, vp_name, pairs, slots, round_no):
    """``misbehave_pairs`` drawing first: per pair, the first spec in
    plan order whose selection draws hit *and* whose transform accepts
    the outcome wins. Returns the pairs and the taints per kind."""
    salt_round = (attempt - 1) * 1024 + round_no
    tainted = {}
    out = []
    for dest, outcome in pairs:
        for index, spec in plan.misbehavior_specs():
            seed = plan.spec_seed(index)
            if not _reference_applies_to(
                spec, seed, vp_name, dest.addr, salt_round
            ):
                continue
            result = _reference_taint(
                spec, seed, vp_name, dest, outcome, slots
            )
            if result is None:
                continue
            outcome = result
            tainted[spec.KIND] = tainted.get(spec.KIND, 0) + 1
            break
        out.append((dest, outcome))
    return out, tainted


def _fields(outcome):
    return tuple(getattr(outcome, name) for name in Outcome.__slots__)


#: Outcome shapes the transform sees: never answered (a loss or a
#: filter drop), a Time Exceeded, an answer without RR data, and an RR
#: answer with and without the destination's own stamp.
_SHAPES = ("silent", "ttl_exceeded", "no_rr", "rr", "rr_no_slot")


def _outcome(shape, addr, rr=(), slot=1, counters=(), load=()):
    """A ``shape`` outcome for a probe to ``addr``; ``rr`` holds the
    stamps before the destination's own (placed at ``slot``)."""
    if shape == "silent":
        return Outcome(counters=counters, load=load)
    if shape == "ttl_exceeded":
        return Outcome(
            replied=True, ttl_exceeded=True, error_source=addr ^ 0xFF,
            quoted=tuple(rr), counters=counters, load=load,
        )
    if shape == "no_rr":
        return Outcome(
            replied=True, responded=True, counters=counters, load=load,
        )
    rr = [stamp for stamp in rr if stamp != addr]
    dest_slot = None
    if shape == "rr":
        dest_slot = min(slot, len(rr) + 1)
        rr.insert(dest_slot - 1, addr)
    return Outcome(
        replied=True, responded=True, reply_has_rr=True, rr=tuple(rr),
        dest_slot=dest_slot, counters=counters, load=load,
    )


@st.composite
def _transform_inputs(draw):
    slots = draw(st.integers(min_value=1, max_value=9))
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        addr = draw(st.integers(min_value=0, max_value=2**32 - 1))
        stamps = draw(st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            max_size=slots - 1,
        ))
        pairs.append((_dest(addr), _outcome(
            draw(st.sampled_from(_SHAPES)), addr, stamps,
            slot=draw(st.integers(min_value=1, max_value=slots)),
            counters=draw(st.sampled_from(((), ("sent",), ("sent", "x")))),
            load=draw(st.sampled_from(((), ((3, 1),), ((3, 1), (9, 2))))),
        )))
    return slots, pairs


@pytest.fixture(scope="module")
def oracle_network():
    return _scenario().network


def _transform_matches_reference(
    network, plan, attempt, vp_name, pairs, slots, round_no
):
    """Run the injector's transform and the reference on one batch;
    assert equal pairs and equal ``faults_injected_total{kind}``
    increments, and return the reference's taint counts."""
    events = fault_event_counter(network.registry)
    kinds = {spec.KIND for _index, spec in plan.misbehavior_specs()}
    before = {k: events.labels(network.net_id, k).value for k in kinds}
    injector = FaultInjector(network, plan)
    injector.attempt = attempt
    got = injector.misbehave_pairs(vp_name, pairs, slots, round_no)
    want, tainted = _reference_misbehave(
        plan, attempt, vp_name, pairs, slots, round_no
    )
    assert [dest for dest, _ in got] == [dest for dest, _ in want]
    assert [_fields(o) for _, o in got] == [_fields(o) for _, o in want]
    counted = {
        k: events.labels(network.net_id, k).value - before[k] for k in kinds
    }
    assert counted == {k: tainted.get(k, 0) for k in kinds}
    return tainted


class TestTransformOracle:
    """The transform tests each spec's precondition before its draws;
    the reference draws first. Both must pick the same spec for every
    pair, so outcomes and event counts match field for field."""

    @settings(max_examples=150, deadline=None)
    @given(
        specs=st.lists(_misbehavior_specs(), min_size=1, max_size=5),
        plan_seed=st.integers(min_value=0, max_value=2**64 - 1),
        vp_name=st.sampled_from(_VP_NAMES),
        attempt=st.integers(min_value=1, max_value=3),
        round_no=st.integers(min_value=0, max_value=3),
        batch=_transform_inputs(),
    )
    def test_transform_equals_draw_first_reference(
        self, oracle_network, specs, plan_seed, vp_name, attempt,
        round_no, batch,
    ):
        slots, pairs = batch
        _transform_matches_reference(
            oracle_network, FaultPlan(seed=plan_seed, specs=specs),
            attempt, vp_name, pairs, slots, round_no,
        )

    @pytest.mark.parametrize("spec,shape,winner", [
        (StampCorruption(prob=1.0), "rr", "stamp_corruption"),
        (StampCorruption(prob=1.0), "rr_no_slot", "zombie_vp"),
        (OptionStrip(prob=1.0), "rr", "option_strip"),
        (OptionStrip(prob=1.0), "no_rr", "zombie_vp"),
        (TruncatedOption(prob=1.0), "rr", "truncated_option"),
        (TruncatedOption(prob=1.0), "no_rr", "zombie_vp"),
        (SpoofedReply(prob=1.0), "no_rr", "spoofed_reply"),
        (SpoofedReply(prob=1.0), "ttl_exceeded", "zombie_vp"),
        (None, "silent", "zombie_vp"),
    ], ids=lambda value: getattr(value, "KIND", value))
    def test_precondition_pins(self, oracle_network, spec, shape, winner):
        """Each class's precondition at its edge, with a zombie that
        selects every reply behind it: widening or narrowing the
        precondition changes which spec wins. The zombie alone must
        still taint a probe nobody answered."""
        zombie = ZombieVp(vps=("mlab-lax",), dup_frac=1.0)
        specs = (zombie,) if spec is None else (spec, zombie)
        pairs = [
            (_dest(addr), _outcome(shape, addr, (11, 12), slot=2))
            for addr in range(1000, 1020)
        ]
        tainted = _transform_matches_reference(
            oracle_network, FaultPlan(seed=5, specs=specs),
            1, "mlab-lax", pairs, 9, 0,
        )
        assert tainted == {winner: len(pairs)}

    def test_no_draw_for_a_reply_no_spec_can_taint(self, oracle_network):
        """Selection draws only for replies the spec can taint: without
        a live zombie, a probe nobody answered is never drawn for."""
        calls = []

        class Counted(SpoofedReply):
            def selector(self, seed, vp_name, round_no=0):
                select = super().selector(seed, vp_name, round_no)
                return lambda dest: calls.append(dest) or select(dest)

        plan = FaultPlan(seed=5, specs=(Counted(prob=0.5),))
        pairs = [
            (_dest(addr), _outcome(shape, addr, (11,)))
            for addr, shape in enumerate(_SHAPES * 4)
        ]
        injector = FaultInjector(oracle_network, plan)
        injector.misbehave_pairs("mlab-lax", pairs, 9)
        assert calls == [
            dest.addr for dest, outcome in pairs if outcome.responded
        ]


class TestInlineDraws:
    """A selection and a transform's per-reply draws hash inline: the
    selector is the only Python frame a selection runs, a transform
    calls nothing in ``repro.rng``, and every draw still equals
    ``stable_uniform``/``stable_u64`` of its full key, salt included."""

    @staticmethod
    def _python_calls(fn, *args):
        """``fn(*args)`` and the code of every Python frame it ran.
        The collector is paused meanwhile: a collection would run
        ``gc.callbacks`` (hypothesis registers one) inside the call."""
        calls = []

        def profile(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code)

        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return result, calls

    @settings(max_examples=300)
    @given(
        spec=_misbehavior_specs(),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        vp_name=st.one_of(st.sampled_from(_VP_NAMES), st.text(max_size=8)),
        round_no=st.one_of(
            st.integers(min_value=0, max_value=3 * 1024),
            st.integers(min_value=0, max_value=2**64),
        ),
        dest=st.one_of(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(),
            st.booleans(),
        ),
    )
    @example(
        spec=StampCorruption(prob=0.5, sticky=False), seed=7,
        vp_name="mlab-lax", round_no=2 * 1024 + 1, dest=True,
    )
    def test_selection_is_one_frame_equal_to_stable_uniform(
        self, spec, seed, vp_name, round_no, dest
    ):
        expected = _reference_applies_to(
            spec, seed, vp_name, dest, round_no
        )
        select = spec.selector(seed, vp_name, round_no)
        if select is None:
            assert not expected
            return
        got, calls = self._python_calls(select, dest)
        assert got == expected
        assert calls == [select.__code__]

    @settings(max_examples=150, deadline=None)
    @given(
        cls=st.sampled_from((StampCorruption, TruncatedOption, SpoofedReply)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        vp_name=st.one_of(st.sampled_from(_VP_NAMES), st.text(max_size=8)),
        slots=st.integers(min_value=1, max_value=9),
        addr=st.integers(min_value=0, max_value=2**32 - 1),
        stamps=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=8
        ),
    )
    def test_transform_draws_inline_equal_to_stable_u64(
        self, cls, seed, vp_name, slots, addr, stamps
    ):
        spec = cls(prob=1.0)
        dest = _dest(addr)
        outcome = _outcome("rr", addr, stamps[: slots - 1], slot=slots)
        _can_taint, taint = FaultInjector._taint(spec, seed, vp_name, slots)
        got, calls = self._python_calls(taint, dest, outcome)
        want = _reference_taint(spec, seed, vp_name, dest, outcome, slots)
        assert _fields(got) == _fields(want)
        assert not [
            code.co_name for code in calls
            if code.co_filename.endswith("rng.py")
        ]


# -- the validator (unit) --------------------------------------------------


def _dest(addr):
    return SimpleNamespace(addr=addr)


def _validator(dests, slots=9):
    position = {dest.addr: i for i, dest in enumerate(dests)}
    return ReplyValidator(
        "test-vp", slots, position, MetricsRegistry(), "testnet"
    )


def _reply(dest, slot=1, rr=None, **kw):
    """A structurally honest RR reply for ``dest`` (overridable)."""
    if rr is None:
        rr = tuple(0x0A000000 + i for i in range(slot - 1)) + (dest.addr,)
    return Outcome(
        replied=True, responded=True, reply_has_rr=True,
        rr=tuple(rr), dest_slot=slot, **kw,
    )


class TestReplyValidator:
    def test_honest_reply_is_valid(self):
        dest = _dest(1000)
        validator = _validator([dest])
        [(verdict, reason)] = validator.check_batch([(dest, _reply(dest))])
        assert (verdict, reason) == (VALID, None)
        assert validator.summary()["quarantined"] == []

    def test_dest_slot_is_one_based(self):
        # rr[1] holds the destination and dest_slot claims slot 2:
        # valid under 1-based indexing, a mismatch under the 0-based
        # off-by-one this test exists to prevent.
        dest = _dest(2000)
        validator = _validator([dest])
        outcome = _reply(dest, slot=2, rr=(123, dest.addr))
        [(verdict, _)] = validator.check_batch([(dest, outcome)])
        assert verdict == VALID

    def test_zero_dest_slot_is_mismatch(self):
        dest = _dest(2000)
        validator = _validator([dest])
        outcome = _reply(dest, slot=1, rr=(dest.addr,))
        outcome = Outcome(
            replied=True, responded=True, reply_has_rr=True,
            rr=(dest.addr,), dest_slot=0,
        )
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_STAMP_MISMATCH)

    def test_stamp_mismatch_wrong_address(self):
        dest = _dest(3000)
        validator = _validator([dest])
        outcome = _reply(dest, slot=1, rr=(dest.addr + 1,))
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_STAMP_MISMATCH)

    def test_dest_slot_beyond_header_is_mismatch(self):
        dest = _dest(3000)
        validator = _validator([dest])
        outcome = _reply(dest, slot=5, rr=(dest.addr,))
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_STAMP_MISMATCH)

    def test_too_many_stamps(self):
        dest = _dest(4000)
        validator = _validator([dest], slots=3)
        outcome = _reply(dest, slot=4, rr=(1, 2, 3, dest.addr))
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_TOO_MANY_STAMPS)

    def test_spoofed_source(self):
        dest = _dest(5000)
        validator = _validator([dest])
        outcome = _reply(dest, reply_src=dest.addr ^ 1)
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_SPOOFED)

    def test_own_source_is_not_spoofed(self):
        dest = _dest(5000)
        validator = _validator([dest])
        outcome = _reply(dest, reply_src=dest.addr)
        [(verdict, _)] = validator.check_batch([(dest, outcome)])
        assert verdict == VALID

    def test_malformed_wire_bytes(self):
        dest = _dest(6000)
        validator = _validator([dest])
        wire = bytearray(
            RecordRouteOption(slots=9, recorded=[dest.addr]).to_bytes()
        )
        wire[1] ^= 0x5A  # mangle the length byte
        outcome = _reply(dest, wire=bytes(wire))
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (INVALID, REASON_OPTION_MALFORMED)

    def test_valid_wire_bytes_pass(self):
        dest = _dest(6000)
        validator = _validator([dest])
        wire = RecordRouteOption(slots=9, recorded=[dest.addr]).to_bytes()
        outcome = _reply(dest, wire=wire)
        [(verdict, _)] = validator.check_batch([(dest, outcome)])
        assert verdict == VALID

    def test_rr_absent_is_suspect_never_quarantined(self):
        dest = _dest(7000)
        validator = _validator([dest])
        outcome = Outcome(replied=True, responded=True)
        [(verdict, reason)] = validator.check_batch([(dest, outcome)])
        assert (verdict, reason) == (SUSPECT, REASON_RR_ABSENT)
        summary = validator.summary()
        assert summary["quarantined"] == []
        assert summary["invalid_dests"] == 0

    def test_unanswered_probe_is_not_checked(self):
        dest = _dest(8000)
        validator = _validator([dest])
        [(verdict, reason)] = validator.check_batch(
            [(dest, Outcome(replied=False, responded=False))]
        )
        assert (verdict, reason) == (None, None)
        assert validator.summary()["checked"] == 0

    def test_duplicate_flags_both_occurrences(self):
        # Two distinct destinations claiming the same (rr, dest_slot)
        # signature is impossible honestly — the pre-scan must flag
        # the FIRST occurrence too, not just the second.
        a, b = _dest(9000), _dest(9001)
        validator = _validator([a, b])
        canned = Outcome(
            replied=True, responded=True, reply_has_rr=True,
            rr=(1, 2, 3), dest_slot=1,
        )
        results = validator.check_batch([(a, canned), (b, canned)])
        assert results == [
            (INVALID, REASON_DUPLICATE),
            (INVALID, REASON_DUPLICATE),
        ]

    def test_duplicate_detector_is_stateful_across_rounds(self):
        a, b = _dest(9100), _dest(9101)
        validator = _validator([a, b])
        canned = Outcome(
            replied=True, responded=True, reply_has_rr=True,
            rr=(4, 5, 6), dest_slot=1,
        )
        validator.check_batch([(a, canned)], round_no=0)
        [(verdict, reason)] = validator.check_batch(
            [(b, canned)], round_no=1
        )
        assert (verdict, reason) == (INVALID, REASON_DUPLICATE)

    def test_shared_header_without_dest_slot_is_not_duplicate(self):
        # Two same-/24 destinations beyond the RR horizon legitimately
        # share the full header with no destination stamp.
        a, b = _dest(9200), _dest(9201)
        validator = _validator([a, b])
        shared = Outcome(
            replied=True, responded=True, reply_has_rr=True,
            rr=(7, 8, 9), dest_slot=None,
        )
        results = validator.check_batch([(a, shared), (b, shared)])
        assert results == [(VALID, None), (VALID, None)]

    def test_summary_sorted_and_merge_accumulates(self):
        a, b = _dest(9300), _dest(9301)
        validator = _validator([a, b])
        validator.check_batch(
            [
                (b, _reply(b, slot=1, rr=(b.addr ^ 1,))),
                (a, _reply(a, slot=1, rr=(a.addr ^ 1,))),
            ]
        )
        summary = validator.summary()
        indices = [r["dest_index"] for r in summary["quarantined"]]
        assert indices == sorted(indices)
        total = merge_quality(empty_quality(), summary)
        total = merge_quality(total, summary)
        assert total["checked"] == 2 * summary["checked"]
        assert len(total["quarantined"]) == 2 * len(summary["quarantined"])
        assert merge_quality(total, None) is total


# -- clean-path invisibility -----------------------------------------------


class TestCleanPath:
    def test_validation_on_off_byte_identical(self, tmp_path):
        scenario = _scenario()
        targets = list(scenario.hitlist)[:DESTS]
        on = run_rr_survey(_scenario(), dests=targets, vps=None)
        off = run_rr_survey(
            _scenario(),
            dests=list(_scenario().hitlist)[:DESTS],
            validate=False,
        )
        assert _survey_bytes(on, tmp_path, "on") == _survey_bytes(
            off, tmp_path, "off"
        )

    def test_clean_campaign_quality_is_empty(self):
        _, result = _campaign(plan=None)
        assert result.quality["verdicts"][INVALID] == 0
        assert result.quality["quarantined"] == []
        assert result.quality["degraded"] == []
        assert result.quality["checked"] > 0


# -- byte parity under misbehavior -----------------------------------------


class TestMisbehaviorParity:
    @pytest.mark.parametrize("preset", ["misbehave", "hostile"])
    def test_jobs_parity(self, preset, tmp_path):
        plan = build_fault_plan(preset, scenario_seed=7)
        reference = None
        for jobs in (1, 2, 4):
            _, result = _campaign(plan, jobs=jobs)
            data = _survey_bytes(result.survey, tmp_path, f"j{jobs}")
            if reference is None:
                reference = data
            assert data == reference, f"jobs={jobs} diverged"

    @pytest.mark.parametrize("preset", ["misbehave", "hostile"])
    def test_batched_vs_legacy_parity(self, preset, tmp_path):
        plan = build_fault_plan(preset, scenario_seed=7)
        # 60 is the slice CI's misbehavior-smoke ``chaos`` runs probe.
        for dests in (DESTS, 60):
            scenario = _scenario()
            batched = CampaignRunner(scenario, plan=plan).run(
                targets=list(scenario.hitlist)[:dests]
            )
            legacy_scenario = _scenario()
            legacy_scenario.prober.batching = False
            replays = legacy_scenario.network._plan_replays
            before = replays.value
            legacy = CampaignRunner(legacy_scenario, plan=plan).run(
                targets=list(legacy_scenario.hitlist)[:dests]
            )
            assert replays.value == before, "the legacy side replayed plans"
            assert _survey_bytes(
                batched.survey, tmp_path, f"batched-{dests}"
            ) == _survey_bytes(
                legacy.survey, tmp_path, f"legacy-{dests}"
            ), dests

    def test_quality_totals_match_across_jobs(self):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        _, serial = _campaign(plan, jobs=1)
        _, pooled = _campaign(plan, jobs=2)
        assert serial.quality == pooled.quality


# -- invalid replies never reach the survey --------------------------------


class TestQuarantineContainment:
    def test_degraded_dests_have_no_rows(self):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        _, result = _campaign(plan)
        survey = result.survey
        names = [vp.name for vp in survey.vps]
        degraded = result.quality["degraded"]
        assert degraded, "expected degradations under misbehave"
        for record in degraded:
            vp_index = names.index(record["vp"])
            dest_index = record["dest_index"]
            assert vp_index not in survey.responses[dest_index], record

    def test_quarantine_records_carry_reason_codes(self):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        _, result = _campaign(plan)
        records = result.quality["quarantined"]
        assert records
        for record in records:
            assert record["reason"] in QUARANTINE_REASONS, record
            assert {"vp", "dest", "dest_index", "round"} <= set(record)
        assert result.quality["verdicts"][INVALID] == len(records)

    def test_manifest_quality_block(self):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        _, result = _campaign(plan)
        manifest = result.manifest()
        quality = manifest["quality"]
        assert quality["quarantined_replies"] == len(
            result.quality["quarantined"]
        )
        assert quality["degraded_dests"]
        for row in quality["degraded_dests"]:
            assert set(row) == {"vp", "dest", "reason", "ping_responded"}


# -- RR→ping degradation ---------------------------------------------------


class TestDegradation:
    def test_sticky_corruption_degrades_every_invalid_dest(self):
        scenario = _scenario()
        vp = scenario.working_vps[0].name
        plan = FaultPlan(
            seed=11, specs=(StampCorruption(prob=1.0, vps=(vp,)),)
        )
        targets = list(scenario.hitlist)[:DESTS]
        result = CampaignRunner(scenario, plan=plan).run(targets=targets)
        quality = result.quality
        assert quality["invalid_dests"] > 0
        # Sticky misbehavior never heals on retry: every invalid dest
        # must end in the degradation log, with the reason recorded.
        assert len(quality["degraded"]) == quality["invalid_dests"]
        for record in quality["degraded"]:
            assert record["vp"] == vp
            assert record["reason"] == REASON_STAMP_MISMATCH
            assert record["rounds"] >= 1
            assert isinstance(record["ping_responded"], bool)

    def test_non_sticky_corruption_recovers_on_retry(self):
        scenario = _scenario()
        vp = scenario.working_vps[0].name
        plan = FaultPlan(
            seed=11,
            specs=(
                TruncatedOption(prob=0.4, sticky=False, vps=(vp,)),
            ),
        )
        targets = list(scenario.hitlist)[:DESTS]
        result = CampaignRunner(scenario, plan=plan).run(targets=targets)
        quality = result.quality
        assert quality["invalid_dests"] > 0
        # A re-draw per retry round heals most destinations, so some
        # invalid dests must recover instead of degrading.
        assert len(quality["degraded"]) < quality["invalid_dests"]

    def test_option_strip_yields_suspect_not_invalid(self):
        scenario = _scenario()
        vp = scenario.working_vps[0].name
        plan = FaultPlan(
            seed=11, specs=(OptionStrip(prob=1.0, vps=(vp,)),)
        )
        targets = list(scenario.hitlist)[:DESTS]
        result = CampaignRunner(scenario, plan=plan).run(targets=targets)
        quality = result.quality
        # Stripping the option mimics non-participation: suspect, not
        # quarantined — exactly the paper's §3.5 non-stamping case.
        assert quality["reasons"].get(REASON_RR_ABSENT, 0) > 0
        assert not any(
            r["vp"] == vp for r in quality["quarantined"]
        )

    def test_spoofed_replies_are_quarantined(self):
        scenario = _scenario()
        vp = scenario.working_vps[0].name
        plan = FaultPlan(
            seed=11, specs=(SpoofedReply(prob=1.0, vps=(vp,)),)
        )
        targets = list(scenario.hitlist)[:DESTS]
        result = CampaignRunner(scenario, plan=plan).run(targets=targets)
        reasons = {
            r["reason"] for r in result.quality["quarantined"]
            if r["vp"] == vp
        }
        assert reasons == {REASON_SPOOFED}


# -- zombie containment ----------------------------------------------------


class TestZombieContainment:
    def _zombie_result(self, jobs=1):
        scenario = _scenario()
        vp = scenario.working_vps[0].name
        plan = FaultPlan(seed=11, specs=(ZombieVp(vps=(vp,)),))
        supervision = SupervisionConfig(
            breaker_window=2,
            breaker_threshold=0.5,
            quarantine_after=2,
            hang_timeout=10.0,
        )
        targets = list(scenario.hitlist)[:DESTS]
        result = CampaignRunner(
            scenario, plan=plan, jobs=jobs, supervision=supervision
        ).run(targets=targets)
        return vp, result

    def test_zombie_vp_is_quarantined_as_garbage(self):
        vp, result = self._zombie_result()
        assert vp in result.quarantined
        assert result.quarantined[vp]["kind"] == "garbage"
        assert result.quarantined[vp]["garbage"] >= 2
        assert "garbage" in result.quarantined[vp]["reason"]

    def test_zombie_trips_its_breaker(self):
        vp, result = self._zombie_result()
        manifest = result.manifest()
        assert manifest["breaker_states"][vp] == "open"

    def test_zombie_contributes_zero_rows(self):
        vp, result = self._zombie_result()
        names = [v.name for v in result.survey.vps]
        zombie_index = names.index(vp)
        assert all(
            zombie_index not in responses
            for responses in result.survey.responses
        )

    def test_zombie_duplicates_are_quarantined(self):
        vp, result = self._zombie_result()
        reasons = {
            r["reason"] for r in result.quality["quarantined"]
            if r["vp"] == vp
        }
        assert REASON_DUPLICATE in reasons

    def test_garbage_feeds_quarantine_like_crashes(self):
        tracker = VpHealthTracker(
            SupervisionConfig(quarantine_after=2), ["vp"]
        )
        tracker.record("vp", "garbage")
        assert "vp" not in tracker.quarantined
        tracker.record("vp", "garbage")
        assert "vp" in tracker.quarantined
        assert tracker.quarantined["vp"]["kind"] == "garbage"

    def test_garbage_ratio_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(garbage_ratio=0.0)
        with pytest.raises(ValueError):
            SupervisionConfig(garbage_ratio=1.5)


# -- sidecar + checkpoint/resume -------------------------------------------


class TestSidecarAndResume:
    def test_sidecar_checksummed_and_deterministic(self, tmp_path):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        paths = []
        for jobs in (1, 2):
            path = tmp_path / f"quarantine-j{jobs}.json"
            _campaign(plan, jobs=jobs, quarantine_path=path)
            paths.append(path)
        body, error = verify_embedded_checksum(
            json.loads(paths[0].read_text("utf-8"))
        )
        assert error is None, error
        assert body["records"]
        assert body["plan"] == plan.describe()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_clean_run_writes_empty_sidecar(self, tmp_path):
        path = tmp_path / "quarantine.json"
        _campaign(plan=None, quarantine_path=path)
        body, error = verify_embedded_checksum(
            json.loads(path.read_text("utf-8"))
        )
        assert error is None, error
        assert body["records"] == []
        assert body["degraded"] == []

    def test_kill_resume_preserves_bytes_and_quality(self, tmp_path):
        plan = build_fault_plan("misbehave", scenario_seed=7)
        _, baseline = _campaign(plan)
        checkpoint = tmp_path / "campaign.ckpt"
        scenario = _scenario()
        targets = list(scenario.hitlist)[:DESTS]
        with pytest.raises(CampaignInterrupted):
            CampaignRunner(
                scenario, plan=plan, checkpoint_path=checkpoint,
                kill_after_vps=3,
            ).run(targets=targets)
        resumed_scenario = _scenario()
        resumed = CampaignRunner(
            resumed_scenario, plan=plan, checkpoint_path=checkpoint,
        ).run(
            targets=list(resumed_scenario.hitlist)[:DESTS], resume=True
        )
        assert _survey_bytes(
            baseline.survey, tmp_path, "base"
        ) == _survey_bytes(resumed.survey, tmp_path, "resumed")
        assert resumed.quality == baseline.quality


class TestHostileCli:
    """``repro chaos`` in a hostile world, through the CLI: stamp
    corruption, option stripping, truncation and spoofing, plus a
    zombie VP replaying one canned answer. CI's misbehavior smoke job
    runs this test."""

    #: sha256 of the saved survey's JSON payload (gzip's own bytes
    #: depend on the zlib build) and of the quarantine sidecar.
    SURVEY_SHA256 = (
        "e71d465401c58dada57abf9bee421603b4af9fd085abe62b83b9791daca1fdff"
    )
    SIDECAR_SHA256 = (
        "6e313e7d8f4613e13eb42da3ee082825ee8ceeeaf8abde8adabdc555943a217e"
    )

    def test_hostile_campaign_quarantines_and_degrades(
        self, tmp_path, capsys
    ):
        from repro.cli import EXIT_QUARANTINED, main

        sidecar = tmp_path / "quarantine.json"
        survey = tmp_path / "hostile.json.gz"
        code = main([
            "chaos", "--preset", "tiny", "--seed", "7",
            "--faults", "hostile", "--dests", "60", "--jobs", "2",
            "--supervise", "--quarantine-output", str(sidecar),
            "--save-survey", str(survey),
        ])
        out = capsys.readouterr().out
        (tmp_path / "manifest.json").write_text(out, "utf-8")
        # The zombie is quarantined as garbage: exit code 4.
        assert code == EXIT_QUARANTINED == 4
        body, err = verify_embedded_checksum(
            json.loads(sidecar.read_text("utf-8"))
        )
        assert err is None, err
        assert body["records"], "no quarantine records"
        reasons = {record["reason"] for record in body["records"]}
        assert reasons <= set(QUARANTINE_REASONS), reasons
        manifest = json.loads(out)
        quality = manifest["quality"]
        # Every invalid verdict produced exactly one sidecar record.
        assert quality["verdicts"]["invalid"] == len(body["records"])
        # Persistently invalid destinations degraded RR→ping, with the
        # final reason recorded in the manifest.
        assert quality["degraded_dests"], "no RR→ping degradations"
        for row in quality["degraded_dests"]:
            assert row["reason"] in QUARANTINE_REASONS, row
        quarantined = manifest["quarantined_vps"]
        assert any(
            vp["kind"] == "garbage" for vp in quarantined.values()
        ), quarantined
        payload = gzip.decompress(survey.read_bytes())
        assert hashlib.sha256(payload).hexdigest() == self.SURVEY_SHA256
        assert (
            hashlib.sha256(sidecar.read_bytes()).hexdigest()
            == self.SIDECAR_SHA256
        )
