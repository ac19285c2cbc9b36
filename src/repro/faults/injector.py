"""The fault injector: a :class:`FaultPlan` compiled against one network.

The dataplane stays fault-agnostic: :class:`~repro.sim.network.Network`
exposes three narrow hooks (session begin/end, a per-walk flap lookup,
a loss-overlay draw) plus a token-bucket refill scale, and everything
chaotic lives here. Attach with ``network.attach_injector(injector)``;
detach restores the placid world.

Determinism contract (the same one the parallel engine enforces):
every decision the injector makes is a function of ``(plan seed,
session name, session-relative time)`` — flap windows and storm
windows are positions on the session clock (which
``begin_vp_session`` rebases to 0), and the Gilbert–Elliott loss
chain is re-seeded per session from ``(plan seed, vp name)``. Warm
caches, worker counts, and resume points therefore change speed,
never bytes.

Every injected event is counted in the process-wide metrics registry
(``faults_injected_total`` by kind, ``fault_drops_total`` for
per-packet kills) and surfaces in ``repro stats``; worker processes
ship their counts home through the usual snapshot merge.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.faults.specs import (
    FaultPlan,
    LinkFlap,
    LossBurst,
    OptionStrip,
    RateLimitStorm,
    SpoofedReply,
    StampCorruption,
    TruncatedOption,
    ZombieVp,
)
from repro.net.options import RecordRouteOption
from repro.obs.metrics import CounterFamily, MetricsRegistry
from repro.rng import StablePrefix, stable_rng, stable_u64
from repro.sim.stampplan import Outcome

__all__ = ["FaultInjector", "fault_event_counter", "fault_drop_counter"]


def fault_event_counter(registry: MetricsRegistry) -> CounterFamily:
    """The (idempotently registered) injected-event counter family.

    Shared by the injector and the campaign runner so the schema can
    never drift between the two writers.
    """
    return registry.counter(
        "faults_injected_total",
        "Fault events injected by the chaos subsystem, by kind.",
        ("net", "kind"),
    )


def fault_drop_counter(registry: MetricsRegistry) -> CounterFamily:
    return registry.counter(
        "fault_drops_total",
        "Packets killed by an injected fault, by kind.",
        ("net", "kind"),
    )


def _pick_flaps(
    plan: FaultPlan, graph
) -> Tuple[Tuple[LinkFlap, FrozenSet], ...]:
    """Each LinkFlap spec with its flapped ``(a, b)`` adjacencies
    (``a < b``), drawn deterministically from the graph's edges."""
    flap_specs = [
        (index, spec)
        for index, spec in enumerate(plan.specs)
        if isinstance(spec, LinkFlap)
    ]
    if not flap_specs:
        return ()
    edges = sorted((min(a, b), max(a, b)) for a, b, _rel in graph.edges())
    if not edges:
        return ()
    return tuple(
        (
            spec,
            frozenset(
                stable_rng(plan.seed, "link-flap", index).sample(
                    edges, min(spec.count, len(edges))
                )
            ),
        )
        for index, spec in flap_specs
    )


def _rr_reply(outcome: Outcome) -> bool:
    """A reply carrying RR data: what stripping or truncating needs."""
    return outcome.rr_responsive


class _GilbertElliott:
    """One session's correlated-loss chain (Good/Bad two-state)."""

    __slots__ = ("rng", "bad", "p_enter", "p_exit", "drop_prob", "events")

    def __init__(
        self, spec: LossBurst, rng: random.Random, events
    ) -> None:
        self.rng = rng
        self.bad = False
        self.p_enter = spec.p_enter
        self.p_exit = spec.p_exit
        self.drop_prob = spec.drop_prob
        self.events = events

    def step(self) -> bool:
        """Advance one draw; True = this chain kills the packet."""
        rng = self.rng
        if self.bad:
            if rng.random() < self.p_exit:
                self.bad = False
        elif rng.random() < self.p_enter:
            self.bad = True
            self.events.inc()  # one event per burst entered
        if self.bad and rng.random() < self.drop_prob:
            return True
        return False


class FaultInjector:
    """A compiled fault plan, ready to be attached to a ``Network``.

    ``horizon`` is the session horizon in simulated seconds — the
    expected duration of one VP's probe sequence
    (``len(targets) / pps``) — against which the fractional
    ``start``/``duration`` windows of :class:`LinkFlap` and
    :class:`RateLimitStorm` specs are resolved. It must be the same
    for every worker of a campaign (it is: the campaign computes it
    once from the target list and ships it in the worker payload).
    """

    def __init__(
        self,
        network,
        plan: FaultPlan,
        horizon: float = 1.0,
    ) -> None:
        self.network = network
        self.plan = plan
        self.horizon = max(float(horizon), 1e-9)
        registry = network.registry
        net_id = network.net_id
        events = fault_event_counter(registry)
        drops = fault_drop_counter(registry)
        self._ev_flap = events.labels(net_id, LinkFlap.KIND)
        self._ev_burst = events.labels(net_id, LossBurst.KIND)
        self._ev_storm = events.labels(net_id, RateLimitStorm.KIND)
        self.drops_flap = drops.labels(net_id, LinkFlap.KIND)
        self.drops_burst = drops.labels(net_id, LossBurst.KIND)

        #: (t0, t1, frozenset of flapped (a, b) AS adjacencies, a < b).
        self._flap_windows: List[Tuple[float, float, FrozenSet]] = []
        #: Every window's bounds, sorted: the live flap set can change
        #: only where the session clock reaches one of them.
        self._flap_bounds: List[float] = []
        self._compile_flaps()
        #: Memoised union of currently-active flap edge sets, keyed by
        #: the active-window bitmask (walks are hot; unions are not).
        self._flap_union: Dict[int, Optional[FrozenSet]] = {}

        self._loss_specs = plan.by_kind(LossBurst)
        self._loss_spec_indices = [
            index
            for index, spec in enumerate(plan.specs)
            if isinstance(spec, LossBurst)
        ]
        self._storm_specs = [
            (index, spec)
            for index, spec in enumerate(plan.specs)
            if isinstance(spec, RateLimitStorm)
        ]

        # Misbehavior (lying-data) specs with their seeds, in plan
        # order: the first matching spec per (vp, dest, round) wins, so
        # plan order is a priority order. Event counter children are
        # pre-resolved per kind present in the plan.
        self._misbehaviors = [
            (spec, plan.spec_seed(index))
            for index, spec in plan.misbehavior_specs()
        ]
        self._ev_misbehavior = {
            spec.KIND: events.labels(net_id, spec.KIND)
            for spec, _seed in self._misbehaviors
        }
        #: Campaign attempt this injector serves (set by
        #: ``run_vp_attempt``). Folded into the non-sticky hit-draw
        #: salt so distinct attempts re-roll independently of the
        #: intra-attempt validation-retry rounds.
        self.attempt: int = 1

        # Per-session state.
        self.session_name: Optional[str] = None
        self._chains: List[_GilbertElliott] = []
        self._storm_windows: List[Tuple[float, float, float]] = []

    # -- compilation ---------------------------------------------------------

    def _compile_flaps(self) -> None:
        """Place each LinkFlap spec's window on this session horizon.

        The flapped adjacencies themselves depend only on the plan and
        the graph, so the network keeps them per plan: every attempt
        of a campaign in one process shares one pick.
        """
        picks = self.network._flap_picks.get(self.plan)
        if picks is None:
            picks = _pick_flaps(self.plan, self.network.graph)
            self.network._flap_picks[self.plan] = picks
        for spec, chosen in picks:
            t0 = spec.start * self.horizon
            t1 = t0 + spec.duration * self.horizon
            self._flap_windows.append((t0, t1, chosen))
        self._flap_bounds = sorted(
            {bound for t0, t1, _edges in self._flap_windows
             for bound in (t0, t1)}
        )

    # -- session lifecycle ---------------------------------------------------

    def begin_session(self, name: str) -> None:
        """Called by ``Network.begin_vp_session`` (session clock = 0)."""
        self.session_name = name
        # Correlated-loss chains: one per LossBurst spec, re-seeded
        # from (plan seed, spec index, vp name).
        self._chains = [
            _GilbertElliott(
                spec,
                random.Random(
                    stable_u64(self.plan.seed, "loss-burst", index, name)
                ),
                self._ev_burst,
            )
            for index, spec in zip(self._loss_spec_indices, self._loss_specs)
        ]
        # Rate-limit storms: resolve this session's active windows and
        # install the refill scale on the network's token buckets.
        self._storm_windows = []
        for index, spec in self._storm_specs:
            if spec.applies_to(self.plan.spec_seed(index), name):
                t0 = spec.start * self.horizon
                t1 = t0 + spec.duration * self.horizon
                self._storm_windows.append((t0, t1, spec.scale))
                self._ev_storm.inc()
        self.network._set_rate_scale(
            self._storm_scale if self._storm_windows else None
        )
        # Link flaps need no cache invalidation: templates are keyed
        # by the flap set live at send time, so compiled plans stay
        # valid across sessions.
        if self._flap_windows:
            self._ev_flap.inc(len(self._flap_windows))

    def end_session(self) -> None:
        self.session_name = None
        self._chains = []
        self._storm_windows = []
        self.network._set_rate_scale(None)

    # -- dataplane hooks ---------------------------------------------------

    def active_flap_edges(self, now: float) -> Optional[FrozenSet]:
        """Flapped adjacencies live at session time ``now`` (or None)."""
        windows = self._flap_windows
        if not windows:
            return None
        mask = 0
        for bit, (t0, t1, _edges) in enumerate(windows):
            if t0 <= now < t1:
                mask |= 1 << bit
        if not mask:
            return None
        union = self._flap_union.get(mask)
        if union is None:
            merged = frozenset().union(
                *(
                    edges
                    for bit, (_t0, _t1, edges) in enumerate(windows)
                    if mask & (1 << bit)
                )
            )
            self._flap_union[mask] = merged
            union = merged
        return union

    def flap_span(self, now: float) -> Tuple[Optional[FrozenSet], float]:
        """``(active_flap_edges(now), until)``: the flap set holds for
        every send time from ``now`` up to, not including, ``until``,
        the first window bound after ``now`` (``inf`` past the last).

        A window is live for ``t0 <= t < t1``, so between two adjacent
        bounds no window opens or closes; the replay loop looks the
        set up again only once its clock reaches ``until``.
        """
        bounds = self._flap_bounds
        index = bisect_right(bounds, now)
        until = bounds[index] if index < len(bounds) else float("inf")
        return self.active_flap_edges(now), until

    def burst_lost(self) -> bool:
        """Advance every loss chain one draw; True = packet killed.

        All chains advance on every call (no short-circuit) so the
        draw streams stay aligned regardless of outcomes.
        """
        lost = False
        for chain in self._chains:
            if chain.step():
                lost = True
        return lost

    def _storm_scale(self, now: float) -> float:
        """Token-bucket refill multiplier at session time ``now``."""
        scale = 1.0
        for t0, t1, collapse in self._storm_windows:
            if t0 <= now < t1 and collapse < scale:
                scale = collapse
        return scale

    # -- misbehavior (lying-data) transforms -------------------------------

    @property
    def has_misbehavior(self) -> bool:
        return bool(self._misbehaviors)

    def misbehave_pairs(
        self,
        vp_name: str,
        pairs: List[Tuple],
        slots: int,
        round_no: int = 0,
    ) -> List[Tuple]:
        """Taint finished ``(dest, outcome)`` pairs with lying data.

        Runs *after* the dataplane (batched or legacy) and after all
        deferred accounting, so it can only replace outcome objects —
        never perturb counters, pacing, or the loss draw stream. Every
        decision is a pure function of ``(spec seed, vp name, dest
        addr, attempt/round)``, so the taint is byte-identical across
        jobs counts, batched-vs-legacy, and kill→resume.

        Per pair, the specs are tried in plan order and the first one
        that selects the pair wins. A spec selects a pair when its
        draw-free precondition holds (what its transform needs of the
        outcome; only a zombie's holds for a probe nobody answered),
        then its hit draw, then its window. All three are pure, so
        testing the precondition first changes which hashes run, never
        which spec wins.

        Transformed outcomes are fresh :class:`Outcome` instances that
        copy ``counters``/``load`` from the original (templates are
        shared objects; accounting already happened).
        """
        if not self._misbehaviors:
            return pairs
        # Distinct campaign attempts must re-roll non-sticky draws
        # independently of intra-attempt validation-retry rounds.
        salt_round = (self.attempt - 1) * 1024 + round_no
        # One selector and one transform per spec per batch: the VP-
        # and round-level parts of every draw are hashed here, not
        # once per reply.
        live = []
        for spec, seed in self._misbehaviors:
            select = spec.selector(seed, vp_name, salt_round)
            if select is not None:
                can_taint, taint = self._taint(spec, seed, vp_name, slots)
                live.append((can_taint, select, taint, spec.KIND))
        if not live:
            return pairs
        tainted: Dict[str, int] = {}
        out = []
        for dest, outcome in pairs:
            for can_taint, select, taint, kind in live:
                if can_taint(outcome) and select(dest.addr):
                    outcome = taint(dest, outcome)
                    tainted[kind] = tainted.get(kind, 0) + 1
                    break
            out.append((dest, outcome))
        for kind, count in tainted.items():
            self._ev_misbehavior[kind].inc(count)
        return out

    @staticmethod
    def _taint(
        spec, seed: int, vp_name: str, slots: int,
    ) -> Tuple[
        Callable[[Outcome], bool], Callable[[object, Outcome], Outcome]
    ]:
        """``spec``'s ``(can_taint, taint)`` for one batch of
        ``vp_name``'s replies: ``can_taint(outcome)``, draw-free, says
        whether ``taint(dest, outcome)`` applies to it at all. The
        transform's per-reply draws hash under prefixes resolved here,
        once per batch."""
        if isinstance(spec, ZombieVp):
            # Zombie VPs answer *unconditionally* — even destinations
            # that never replied get the canned stale measurement: its
            # garbage RR with ``dest_slot=1``, so it is at once a
            # duplicate and a stamp mismatch.
            canned = tuple(
                stable_u64(seed, "zombie-rr", vp_name, i) & 0xFFFFFFFF
                for i in range(min(slots, 4))
            )
            return (lambda outcome: True), lambda dest, outcome: Outcome(
                replied=True,
                responded=True,
                reply_has_rr=True,
                rr=canned,
                dest_slot=1,
                inprefix=(),
                counters=outcome.counters,
                load=outcome.load,
            )
        if isinstance(spec, StampCorruption):
            garbage = StablePrefix(seed, "addr", vp_name).u64

            def corrupt(dest, outcome: Outcome) -> Outcome:
                rr = []
                for i in range(len(outcome.rr)):
                    addr = garbage(dest.addr, i) & 0xFFFFFFFF
                    if addr == dest.addr:
                        addr ^= 1
                    rr.append(addr)
                return Outcome(
                    replied=outcome.replied,
                    responded=True,
                    reply_has_rr=True,
                    rr=tuple(rr),
                    dest_slot=outcome.dest_slot,
                    inprefix=(),
                    counters=outcome.counters,
                    load=outcome.load,
                )

            # An RR reply carrying the destination's own stamp.
            return (
                lambda outcome: outcome.rr_responsive
                and outcome.dest_slot is not None
            ), corrupt
        if isinstance(spec, OptionStrip):
            return _rr_reply, lambda dest, outcome: Outcome(
                replied=outcome.replied,
                responded=True,
                reply_has_rr=False,
                counters=outcome.counters,
                load=outcome.load,
            )
        if isinstance(spec, TruncatedOption):
            mangle = StablePrefix(seed, "mangle", vp_name).u64

            def truncate(dest, outcome: Outcome) -> Outcome:
                wire = bytearray(
                    RecordRouteOption(
                        slots=slots, recorded=list(outcome.rr)
                    ).to_bytes()
                )
                mode = mangle(dest.addr) % 3
                if mode == 0:
                    wire = wire[:2]  # shorter than the 3-byte header
                elif mode == 1:
                    wire[1] ^= 0x5A  # length byte != actual option size
                else:
                    wire[2] = 2  # pointer below the first slot
                return Outcome(
                    replied=outcome.replied,
                    responded=True,
                    reply_has_rr=True,
                    rr=outcome.rr,
                    dest_slot=outcome.dest_slot,
                    inprefix=(),
                    counters=outcome.counters,
                    load=outcome.load,
                    wire=bytes(wire),
                )

            return _rr_reply, truncate
        if isinstance(spec, SpoofedReply):
            source = StablePrefix(seed, "src", vp_name).u64

            def spoof(dest, outcome: Outcome) -> Outcome:
                src = source(dest.addr) & 0xFFFFFFFF
                if src == dest.addr:
                    src ^= 1
                return Outcome(
                    replied=outcome.replied,
                    responded=True,
                    reply_has_rr=outcome.reply_has_rr,
                    rr=outcome.rr,
                    dest_slot=outcome.dest_slot,
                    inprefix=(),
                    counters=outcome.counters,
                    load=outcome.load,
                    reply_src=src,
                )

            # Any answered probe, RR or not.
            return (lambda outcome: outcome.responded), spoof
        raise TypeError(f"not a misbehavior spec: {spec!r}")

    def __repr__(self) -> str:
        return (
            f"FaultInjector({self.plan.describe()}, "
            f"horizon={self.horizon:.3g}s)"
        )
