"""Batched stamp-plan dataplane: parity, invalidation, cache bounds.

The replay engine's contract is *byte-identity*: a survey probed
through compiled stamp plans must serialize to exactly the bytes the
legacy per-hop walk produces — across seeds, worker counts, fault
presets, span sampling, and cache pressure. These tests pin that
contract down, plus the invalidation story (route churn and flap
windows must never replay a stale template).
"""

from __future__ import annotations

import multiprocessing
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main as cli_main
from repro.core import parallel
from repro.core.survey import run_rr_survey, save_survey
from repro.faults import CampaignRunner, FaultInjector, FaultPlan, LinkFlap
from repro.obs.metrics import REGISTRY
from repro.obs.spans import TRACER
from repro.probing.prober import DEFAULT_PPS
from repro.scenarios.faults import build_fault_plan
from repro.scenarios.presets import get_preset
from repro.sim.stampplan import (
    _UNRESOLVED,
    KIND_PING,
    KIND_RR,
    OutcomeCounters,
    SegmentPlan,
    crossed_flaps,
)

N_DESTS = 30
#: Worlds the flap differential runs on; each has two working VPs
#: behind one ingress AS with some asymmetric routes.
FLAP_SEEDS = (2016, 3, 1)
#: Destinations per flap session, per kind (asymmetric routes, then
#: the hitlist head). ``tiny`` has ~450 AS adjacencies and these flows
#: cross few of them, so only flap counts in the hundreds reliably
#: change outcomes.
FLAP_DESTS = 40


def _survey_bytes(survey, tmp_path, name):
    path = tmp_path / name
    save_survey(survey, path)
    return path.read_bytes()


def _campaign_bytes(seed, faults, jobs, batch, tmp_path, name):
    """One fresh-world campaign's ``save_survey`` bytes.

    The legacy side must really walk: it replays no plan, so a parity
    check cannot pass by comparing replay with replay.
    """
    world = get_preset("tiny", seed)
    world.prober.batching = batch
    replays = world.network._plan_replays
    before = replays.value
    targets = list(world.hitlist)[:N_DESTS]
    plan = build_fault_plan(faults, scenario_seed=seed)
    result = CampaignRunner(
        world, plan=plan, jobs=jobs, max_retries=3
    ).run(targets=targets)
    if not batch:
        assert replays.value == before, "the legacy side replayed plans"
    return _survey_bytes(result.survey, tmp_path, name)


def _flap_inputs(world):
    """Two working VPs behind one ingress AS, plus destinations.

    The destinations lead with those whose reverse AS path is not the
    forward one reversed: only there can the reverse leg cross a
    flapped adjacency the forward leg does not. Of the ingress ASes
    with two VPs, the one with the most such routes is used.
    """
    by_asn = {}
    for vp in world.working_vps:
        by_asn.setdefault(vp.addr >> 16, []).append(vp)
    routing = world.routing
    best = None
    for asn, vps in by_asn.items():
        if len(vps) < 2:
            continue
        asymmetric = []
        for dest in world.hitlist:
            fwd = routing.as_path(asn, dest.asn)
            rev = routing.as_path(dest.asn, asn)
            if fwd and rev and list(fwd) != list(reversed(rev)):
                asymmetric.append(dest)
        if best is None or len(asymmetric) > len(best[1]):
            best = (vps[:2], asymmetric)
    vps, asymmetric = best
    assert asymmetric, "no asymmetric route to exercise the reverse leg"
    head = [
        dest for dest in list(world.hitlist)[:FLAP_DESTS]
        if dest not in asymmetric
    ]
    return vps, asymmetric[:FLAP_DESTS] + head


def _flap_session(world, plan, vp, dests, stretch=1.0):
    """One VP session under ``plan``'s flaps: the outcome fields the
    legacy walk's results carry too (it has no ``replied``).

    The horizon is the session's own length times ``stretch``, so at
    the default every flap window opens inside the probe sequence.
    """
    net = world.network
    injector = FaultInjector(
        net, plan, horizon=stretch * len(dests) / DEFAULT_PPS
    )
    net.attach_injector(injector)
    net.begin_vp_session(vp.name)
    try:
        rows = world.prober.probe_batch_rows(vp, dests)
    finally:
        net.end_vp_session()
        net.detach_injector()
    return [
        (
            dest.addr,
            outcome.responded,
            outcome.reply_has_rr,
            outcome.rr,
            outcome.dest_slot,
            outcome.inprefix,
            outcome.ttl_exceeded,
            outcome.error_source,
            outcome.quoted,
        )
        for dest, outcome in rows
    ]


# ---------------------------------------------------------------------------
# The parity matrix: seeds x jobs x fault presets, batched vs legacy.
# ---------------------------------------------------------------------------


class TestParityMatrix:
    @pytest.mark.parametrize("faults", ["none", "link-flap", "chaos"])
    @pytest.mark.parametrize("seed", [2016, 7])
    def test_batched_equals_legacy_across_jobs(
        self, seed, faults, tmp_path
    ):
        legacy = _campaign_bytes(
            seed, faults, jobs=1, batch=False,
            tmp_path=tmp_path, name="legacy.json",
        )
        for jobs in (1, 2, 4):
            batched = _campaign_bytes(
                seed, faults, jobs=jobs, batch=True,
                tmp_path=tmp_path, name=f"batched-{jobs}.json",
            )
            assert batched == legacy, (seed, faults, jobs)


class TestWalkReference:
    def test_batching_off_replays_and_compiles_nothing(self):
        """``batching`` off really selects the walk: the survey adds
        nothing to the replay and compile counters, while its batched
        twin adds to both."""
        added = {}
        for batching in (False, True):
            world = get_preset("tiny", 2016)
            world.prober.batching = batching
            net = world.network
            before = (net._plan_replays.value, net._plan_compiles.value)
            run_rr_survey(world, dests=list(world.hitlist)[:N_DESTS])
            added[batching] = (
                net._plan_replays.value - before[0],
                net._plan_compiles.value - before[1],
            )
        assert added[False] == (0, 0), added
        replays, compiles = added[True]
        assert replays > 0 and compiles > 0, added

    def test_switch_reaches_spawned_workers(self, monkeypatch):
        """A spawned worker rebuilds its scenario, prober included, from
        the params; the executor ships ``batching`` so it still walks
        like a forked one. Replays are summed over every network's
        series: a rebuilt network counts under its own ``net`` label."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            parallel, "multiprocessing",
            types.SimpleNamespace(get_context=lambda: spawn),
        )

        def replays():
            family = REGISTRY.snapshot().get("plan_replays_total")
            return sum(s["value"] for s in family["series"]) if family else 0

        added = {}
        for batching in (False, True):
            world = get_preset("tiny", 2016)
            world.prober.batching = batching
            before = replays()
            run_rr_survey(
                world, dests=list(world.hitlist)[:N_DESTS], jobs=2
            )
            added[batching] = replays() - before
        assert added[False] == 0, added
        assert added[True] > 0, added


#: The :class:`Outcome` fields the walk reports too (it has no
#: ``replied``).
WALK_FIELDS = (
    "responded", "reply_has_rr", "rr", "dest_slot", "inprefix",
    "ttl_exceeded", "error_source", "quoted",
)


#: Oracle fault draws beyond the presets: none, and flaps dense enough
#: to land on the hop where a TTL expires (the presets flap too few
#: adjacencies for that).
ORACLE_PLANS = {
    "none": None,
    "flap-dense": FaultPlan(
        seed=3, specs=(LinkFlap(count=300, start=0.0, duration=1.0),)
    ),
}


def _oracle_sides(seed, faults, first, vps, start, dests, probe):
    """``probe(prober, vp, targets)`` once per VP session, replayed
    and then walked, on fresh ``tiny`` worlds. ``targets`` is
    ``dests`` hitlist entries from ``start`` on, wrapping around.

    Each side lists, per session, the VP, what ``probe`` returned and
    the session's loss-stream state. The state is read before
    ``end_vp_session`` restores the shared stream, so a draw replay
    skips shows even where no outcome moved. The walked side must
    replay nothing and the replayed side must replay.
    """
    sides = []
    for batching in (True, False):
        world = get_preset("tiny", seed)
        world.prober.batching = batching
        net = world.network
        replays = net._plan_replays.value
        plan = (
            ORACLE_PLANS[faults] if faults in ORACLE_PLANS
            else build_fault_plan(faults, scenario_seed=seed)
        )
        hitlist = list(world.hitlist)
        start %= len(hitlist)
        targets = (hitlist[start:] + hitlist[:start])[:dests]
        working = world.working_vps
        side = []
        for index in range(first, first + vps):
            vp = working[index % len(working)]
            if plan is not None:
                net.attach_injector(FaultInjector(
                    net, plan, horizon=len(targets) / DEFAULT_PPS
                ))
            net.begin_vp_session(vp.name)
            try:
                rows = probe(world.prober, vp, targets)
                state = net._loss_rng.getstate()
            finally:
                net.end_vp_session()
                if plan is not None:
                    net.detach_injector()
            side.append((vp.name, rows, state))
        replayed = net._plan_replays.value - replays
        assert (replayed > 0) == batching, (batching, replayed)
        sides.append(side)
    return sides


ORACLE_DRAWS = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    first=st.integers(min_value=0, max_value=9),
    faults=st.sampled_from(["none", "link-flap", "chaos", "flap-dense"]),
    vps=st.integers(min_value=1, max_value=3),
    start=st.integers(min_value=0, max_value=399),
    dests=st.integers(min_value=10, max_value=60),
)


class TestWalkOracle:
    """The walk is the oracle: a replayed VP session equals the same
    session walked, probe for probe and draw for draw, over drawn
    worlds, VPs, fault presets, TTLs and ping counts."""

    @settings(max_examples=20, deadline=None)
    @given(
        ttl=st.one_of(st.integers(min_value=1, max_value=20), st.just(64)),
        **ORACLE_DRAWS,
    )
    # A forward Time Exceeded's loss draw, once skipped by replay.
    @example(
        seed=2016, first=0, faults="none", ttl=5, vps=3, start=0, dests=60
    )
    @example(
        seed=3, first=0, faults="none", ttl=5, vps=3, start=0, dests=60
    )
    # TTL 3 expires on an options-filtering hop: the TTL check wins.
    @example(
        seed=2016, first=0, faults="none", ttl=3, vps=1, start=100, dests=10
    )
    # A flap and a TTL expiry on one hop: the flap check wins.
    @example(
        seed=0, first=0, faults="flap-dense", ttl=2, vps=2, start=5, dests=11
    )
    def test_ping_rr_replay_equals_walk(
        self, seed, first, faults, ttl, vps, start, dests
    ):
        def probe(prober, vp, targets):
            return [
                tuple(getattr(outcome, name) for name in WALK_FIELDS)
                for _dest, outcome in prober.probe_batch_rows(
                    vp, targets, ttl=ttl
                )
            ]

        replayed, walked = _oracle_sides(
            seed, faults, first, vps, start, dests, probe
        )
        assert replayed == walked

    @settings(max_examples=12, deadline=None)
    @given(count=st.integers(min_value=1, max_value=3), **ORACLE_DRAWS)
    def test_ping_replay_equals_walk(
        self, seed, first, faults, count, vps, start, dests
    ):
        def probe(prober, vp, targets):
            return prober.probe_batch_ping(vp, targets, count=count)

        replayed, walked = _oracle_sides(
            seed, faults, first, vps, start, dests, probe
        )
        assert replayed == walked


def _lengthen_reverse(world, vp, dest):
    """Make the reply's trunk from ``dest`` to ``vp`` 64 copies long,
    for the walk and the compiler alike (both read ``_trunk``), so the
    reply's own TTL of 64 runs out on the way back."""
    net = world.network
    key = (dest.asn, vp.addr >> 16)
    net._trunks.pop(key, None)  # idempotent: lengthen the routed trunk
    net._trunks[key] = net._trunk(*key) * 64


class TestTimeExceededGate:
    """A Time Exceeded's error reply faces one loss draw, which the
    template holds as its last op, behind the leg's rate gates. A
    builder that froze ``ops`` before appending it would still return
    the right outcome, and replay would silently skip that draw."""

    @staticmethod
    def _session(batching, dest, ttl, lengthen):
        """One session of the first working VP probing ``dest`` on a
        fresh ``tiny`` world: the walk-visible outcome fields, the
        loss-stream state, and (replayed) the template the probe ran."""
        world = get_preset("tiny", 2016)
        world.prober.batching = batching
        vp = world.working_vps[0]
        if lengthen:
            _lengthen_reverse(world, vp, dest)
        net = world.network
        net.begin_vp_session(vp.name)
        try:
            rows = world.prober.probe_batch_rows(vp, [dest], ttl=ttl)
            state = net._loss_rng.getstate()
        finally:
            net.end_vp_session()
        fields = [
            tuple(getattr(outcome, name) for name in WALK_FIELDS)
            for _dest, outcome in rows
        ]
        template = None
        if batching:
            plan = net._plans[(vp.addr >> 16, dest.addr)]
            template = plan.template(net, KIND_RR, 9, ttl, None)
        return fields, state, template, net._mx

    @staticmethod
    def _expiring_flow(ttl, lengthen):
        """The first hitlist destination whose ping-RR from the first
        working VP ends in a Time Exceeded at ``ttl``."""
        world = get_preset("tiny", 2016)
        vp = world.working_vps[0]
        net = world.network
        for dest in world.hitlist:
            if dest.asn == vp.addr >> 16:
                continue
            if lengthen:
                _lengthen_reverse(world, vp, dest)
            plan, _hit = net.plan_for(vp.addr >> 16, dest)
            template = plan.template(net, KIND_RR, 9, ttl, None)
            if template.final.ttl_exceeded:
                return dest
        raise AssertionError("no flow ends in a Time Exceeded")

    @pytest.mark.parametrize(
        "ttl, lengthen", [(2, False), (64, True)], ids=["forward", "reverse"]
    )
    def test_error_reply_gate_is_last_and_replay_equals_walk(
        self, ttl, lengthen
    ):
        dest = self._expiring_flow(ttl, lengthen)
        replayed, state, template, mx = self._session(
            True, dest, ttl, lengthen
        )
        walked, walked_state, _none, _mx = self._session(
            False, dest, ttl, lengthen
        )
        assert template.final.ttl_exceeded
        # A reverse expiry comes after the host-arrival draw, a forward
        # one before the probe reaches the host.
        arrivals = [
            op for op in template.ops
            if op[0] is None and op[3].counters == (mx.sent,)
        ]
        assert len(arrivals) == int(lengthen)
        router, _pps, _limiter, fail = template.ops[-1]
        assert router is None  # a loss gate, not a rate gate
        assert fail.counters == (mx.sent, mx.ttl_exceeded_sent)
        assert replayed == walked
        assert state == walked_state


class TestOptionsLoadParity:
    def test_per_asn_options_load_identical(self):
        """The per-batch load fold must reproduce the legacy walk's
        per-AS options-load tallies exactly, not just in total."""
        batched = get_preset("tiny", 2016)
        legacy = get_preset("tiny", 2016)
        legacy.prober.batching = False
        run_rr_survey(batched, dests=list(batched.hitlist)[:N_DESTS])
        run_rr_survey(legacy, dests=list(legacy.hitlist)[:N_DESTS])
        assert batched.network.options_load  # the survey loaded ASes
        assert batched.network.options_load == legacy.network.options_load


# ---------------------------------------------------------------------------
# Invalidation: route churn and flap windows drop / bypass plans.
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_invalidate_routes_drops_plans(self):
        world = get_preset("tiny", 2016)
        net = world.network
        run_rr_survey(world, dests=list(world.hitlist)[:10])
        assert net._plans
        before = net._plan_invalidations.value
        net.invalidate_routes()
        assert not net._plans
        assert net._plan_invalidations.value == before + 1

    @settings(max_examples=12, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=300),
        start=st.floats(min_value=0.0, max_value=1.0),
        duration=st.floats(min_value=0.05, max_value=1.0),
    )
    @example(count=3, start=0.0, duration=1.0)
    @example(count=300, start=0.25, duration=0.5)
    def test_flap_window_never_replays_placid_template(
        self, count, start, duration
    ):
        """Plans compiled before an injector attaches must not leak
        their placid templates into a flap window, and the per-leg
        flap restriction must be exact: two flap sessions from one
        ingress AS on a warm world see the legacy walk's outcomes,
        and neither drops or recompiles a plan."""
        plan = FaultPlan(
            seed=3,
            specs=(
                LinkFlap(count=count, start=start, duration=duration),
            ),
        )
        for seed in FLAP_SEEDS:
            warm = get_preset("tiny", seed)
            legacy = get_preset("tiny", seed)
            legacy.prober.batching = False
            vps, dests = _flap_inputs(warm)

            # Warm world only: compile plans under placid skies.
            warm.prober.probe_batch_rows(vps[0], dests)
            compiles = warm.network._plan_compiles
            before = compiles.value
            assert before

            for vp in vps:
                assert _flap_session(warm, plan, vp, dests) == \
                    _flap_session(legacy, plan, vp, dests), (seed, vp.name)
            assert compiles.value == before, seed

    def test_crossed_flaps_covers_segment_boundaries(self):
        def seg(*asns):
            edges = tuple(
                (index, (min(a, b), max(a, b)))
                for index, (a, b) in enumerate(zip(asns, asns[1:]), 1)
                if a != b
            )
            return SegmentPlan(
                n=len(asns), asns=asns, edges=edges, decr=(),
                filter_idx=None, rate=(), stamps=(), load_full=(),
            )

        leg = (seg(1, 1, 2), seg(), seg(3, 3))
        flaps = frozenset({(1, 2), (2, 3), (4, 5)})
        assert crossed_flaps(flaps, leg) == {(1, 2), (2, 3)}
        assert crossed_flaps(frozenset({(4, 5)}), leg) is None
        assert crossed_flaps(None, leg) is None
        assert crossed_flaps(flaps, None) is None

    def test_flap_restriction_shares_placid_templates(self):
        """Flows that cross no flapped adjacency replay their placid
        template object under a flap window; flows that cross one get
        their own template."""
        world = get_preset("tiny", 7)
        vp = world.working_vps[0]
        dests = list(world.hitlist)[:60]
        plan = FaultPlan(
            seed=3,
            specs=(LinkFlap(count=160, start=0.0, duration=1.0),),
        )
        world.prober.probe_batch_rows(vp, dests)
        # Stretched so the window still covers the last probe.
        _flap_session(world, plan, vp, dests, stretch=2.0)
        shared = own = 0
        for dest in dests:
            plan_ = world.network._plans[(vp.addr >> 16, dest.addr)]
            by_flaps = {
                key[3]: tpl for key, tpl in plan_._templates.items()
            }
            placid = by_flaps.pop(None)
            assert len(by_flaps) == 1
            (flapped,) = by_flaps.values()
            if flapped is placid:
                shared += 1
            else:
                own += 1
        assert shared and own, (shared, own)


    def test_reverse_only_flap_keeps_placid_pre_reply_template(self):
        """A flap on the reverse leg alone moves only the flows that
        reach the reply, even once another template of the plan has
        resolved that leg: the RR probe that stops before the reply
        keeps its placid template object, the ping that is answered
        gets its own."""
        world = get_preset("tiny", 7)
        net = world.network
        vp = world.vp_by_name("planetlab-lax")
        dests = list(world.hitlist)
        world.prober.probe_batch_ping(vp, dests, count=1)
        world.prober.probe_batch_rows(vp, dests)
        # A flap outcome counts on the injector's flap counter.
        net.attach_injector(
            FaultInjector(net, FaultPlan(seed=3, specs=()), horizon=1.0)
        )
        checked = 0
        for dest in dests:
            plan = net._plans[(vp.addr >> 16, dest.addr)]
            placid = {
                key[0]: (key, tpl)
                for key, tpl in plan._templates.items() if key[3] is None
            }
            if not isinstance(plan.rev, tuple) or KIND_RR not in placid:
                continue
            rr_key, rr_placid = placid[KIND_RR]
            ping_key, ping_placid = placid[KIND_PING]
            if rr_placid.final.responded or not ping_placid.final.responded:
                continue
            for sp in plan.rev:
                for _index, edge in sp.edges:
                    flaps = frozenset({edge})
                    if crossed_flaps(flaps, plan.fwd) is not None:
                        continue
                    rr = plan.template(net, *rr_key[:3], flaps)
                    ping = plan.template(net, *ping_key[:3], flaps)
                    assert rr is rr_placid, dest
                    assert ping is not ping_placid, dest
                    checked += 1
            # A flap no leg crosses leaves the answered ping placid.
            elsewhere = frozenset({(-2, -1)})
            assert plan.template(net, *ping_key[:3], elsewhere) is ping_placid
        net.detach_injector()
        assert checked


class TestLazyReverseLeg:
    def test_reverse_leg_resolves_on_first_echo_reply(self):
        """Only a flow that reaches the Echo Reply expands its reply
        trunk: a plan whose RR probe stops at a forward options filter
        (or finds no route) never resolves its reverse leg, placid or
        under a flap window, and a plan whose template delivers a
        reply has."""
        world = get_preset("tiny", 2016)
        vp = world.working_vps[0]
        dests = list(world.hitlist)
        world.prober.probe_batch_rows(vp, dests)
        flaps = FaultPlan(
            seed=3, specs=(LinkFlap(count=160, start=0.0, duration=1.0),)
        )
        _flap_session(world, flaps, vp, dests, stretch=2.0)
        plans = world.network._plans
        filtered = replied = 0
        for dest in dests:
            plan = plans[(vp.addr >> 16, dest.addr)]
            if plan.fwd is None or any(
                sp.filter_idx is not None for sp in plan.fwd
            ):
                filtered += 1
                assert plan.rev is _UNRESOLVED, dest
            if any(t.final.responded for t in plan._templates.values()):
                replied += 1
                assert isinstance(plan.rev, tuple), dest
        assert filtered and replied, (filtered, replied)


class TestInternedCounters:
    def test_outcomes_share_the_networks_counter_tuples(self):
        """Every outcome of a placid RR or ping template carries one of
        the network's counter tuples, that very object, so the tuples
        are built once per network, not once per outcome."""
        world = get_preset("tiny", 2016)
        vp = world.working_vps[0]
        dests = list(world.hitlist)
        world.prober.probe_batch_rows(vp, dests)
        world.prober.probe_batch_ping(vp, dests)
        interned = world.network._outcome_counters
        shared = {
            id(getattr(interned, name)) for name in OutcomeCounters.__slots__
        }
        seen = set()
        for plan in world.network._plans.values():
            for template in plan._templates.values():
                for outcome in [op[3] for op in template.ops] + [
                    template.final
                ]:
                    assert id(outcome.counters) in shared, outcome.counters
                    seen.add(id(outcome.counters))
        assert len(seen) >= 5, len(seen)


# ---------------------------------------------------------------------------
# Cache bounds + observability toggles.
# ---------------------------------------------------------------------------


class TestPlanCacheBounds:
    def test_lru_eviction_under_small_cap_keeps_parity(self, tmp_path):
        squeezed = get_preset("tiny", 2016)
        squeezed.network.plan_cache_cap = 4
        legacy = get_preset("tiny", 2016)
        legacy.prober.batching = False
        a = run_rr_survey(
            squeezed, dests=list(squeezed.hitlist)[:N_DESTS]
        )
        b = run_rr_survey(legacy, dests=list(legacy.hitlist)[:N_DESTS])
        assert len(squeezed.network._plans) <= 4
        assert squeezed.network._plan_evictions.value > 0
        assert _survey_bytes(a, tmp_path, "squeezed.json") == \
            _survey_bytes(b, tmp_path, "legacy.json")


class TestSpanParity:
    def test_span_sampling_does_not_change_bytes(self, tmp_path):
        plain = get_preset("tiny", 2016)
        traced = get_preset("tiny", 2016)
        traced.prober.span_sample = 3
        baseline = run_rr_survey(
            plain, dests=list(plain.hitlist)[:N_DESTS]
        )
        TRACER.configure(True)
        try:
            sampled = run_rr_survey(
                traced, dests=list(traced.hitlist)[:N_DESTS]
            )
        finally:
            TRACER.configure(False)
        assert _survey_bytes(sampled, tmp_path, "spans.json") == \
            _survey_bytes(baseline, tmp_path, "plain.json")


class TestStatsCli:
    def test_stats_dataplane_section(self, capsys):
        code = cli_main(["stats", "--preset", "tiny", "--dataplane"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batched dataplane (stamp plans)" in out
        assert "plan_replays_total" in out
        assert "plan_compiles_total" in out
        assert "stage seconds" in out
        for stage in ("replay", "validate"):
            line = next(
                line for line in out.splitlines()
                if line.split()[:1] == [stage]
            )
            assert float(line.split()[1]) > 0, line
