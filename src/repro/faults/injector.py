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
from typing import Dict, FrozenSet, List, Optional, Tuple

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
from repro.rng import stable_rng, stable_u64
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
            (index, spec, plan.spec_seed(index))
            for index, spec in plan.misbehavior_specs()
        ]
        self._ev_misbehavior = {
            spec.KIND: events.labels(net_id, spec.KIND)
            for _index, spec, _seed in self._misbehaviors
        }
        #: Campaign attempt this injector serves (set by
        #: ``run_vp_attempt``). Folded into the non-sticky hit-draw
        #: salt so distinct attempts re-roll independently of the
        #: intra-attempt validation-retry rounds.
        self.attempt: int = 1
        #: Canned zombie replies, keyed ``(spec index, vp, slots)``.
        self._zombie_cache: Dict[Tuple[int, str, int], Outcome] = {}

        # Per-session state.
        self.session_name: Optional[str] = None
        self._chains: List[_GilbertElliott] = []
        self._storm_windows: List[Tuple[float, float, float]] = []

    # -- compilation ---------------------------------------------------------

    def _compile_flaps(self) -> None:
        """Pick the flapped adjacencies deterministically from the graph."""
        flap_specs = [
            (index, spec)
            for index, spec in enumerate(self.plan.specs)
            if isinstance(spec, LinkFlap)
        ]
        if not flap_specs:
            return
        edges = sorted(
            (min(a, b), max(a, b))
            for a, b, _rel in self.network.graph.edges()
        )
        if not edges:
            return
        for index, spec in flap_specs:
            rng = stable_rng(self.plan.seed, "link-flap", index)
            chosen = frozenset(
                rng.sample(edges, min(spec.count, len(edges)))
            )
            t0 = spec.start * self.horizon
            t1 = t0 + spec.duration * self.horizon
            self._flap_windows.append((t0, t1, chosen))

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

        The first matching spec in plan order wins per pair.
        Transformed outcomes are fresh :class:`Outcome` instances that
        copy ``counters``/``load`` from the original (templates are
        shared objects; accounting already happened).
        """
        if not self._misbehaviors:
            return pairs
        # Distinct campaign attempts must re-roll non-sticky draws
        # independently of intra-attempt validation-retry rounds.
        salt_round = (self.attempt - 1) * 1024 + round_no
        # One selector per spec per batch: the VP- and round-level
        # parts of every draw are hashed here, not once per reply.
        selectors = []
        for index, spec, seed in self._misbehaviors:
            select = spec.selector(seed, vp_name, salt_round)
            if select is not None:
                selectors.append((index, spec, seed, select))
        if not selectors:
            return pairs
        out = []
        for dest, outcome in pairs:
            addr = dest.addr
            for index, spec, seed, select in selectors:
                if not select(addr):
                    continue
                tainted = self._taint(
                    index, spec, seed, vp_name, dest, outcome, slots
                )
                if tainted is None:
                    continue  # precondition unmet — next spec may apply
                outcome = tainted
                self._ev_misbehavior[spec.KIND].inc()
                break
            out.append((dest, outcome))
        return out

    def _taint(
        self, index: int, spec, seed: int, vp_name: str, dest,
        outcome: Outcome, slots: int,
    ) -> Optional[Outcome]:
        """Apply the ``index``-th plan spec's transform; None =
        precondition unmet."""
        if isinstance(spec, ZombieVp):
            # Zombie VPs answer *unconditionally* — even destinations
            # that never replied get the canned stale measurement.
            return self._zombie_outcome(index, seed, vp_name, outcome, slots)
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
                replied=outcome.replied,
                responded=True,
                reply_has_rr=True,
                rr=tuple(rr),
                dest_slot=outcome.dest_slot,
                inprefix=(),
                counters=outcome.counters,
                load=outcome.load,
            )
        if isinstance(spec, OptionStrip):
            if not outcome.rr_responsive:
                return None
            return Outcome(
                replied=outcome.replied,
                responded=True,
                reply_has_rr=False,
                counters=outcome.counters,
                load=outcome.load,
            )
        if isinstance(spec, TruncatedOption):
            if not outcome.rr_responsive:
                return None
            wire = bytearray(
                RecordRouteOption(
                    slots=slots, recorded=list(outcome.rr)
                ).to_bytes()
            )
            mode = stable_u64(seed, "mangle", vp_name, dest.addr) % 3
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
        if isinstance(spec, SpoofedReply):
            if not outcome.responded:
                return None
            src = stable_u64(seed, "src", vp_name, dest.addr) & 0xFFFFFFFF
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
        return None

    def _zombie_outcome(
        self, index: int, seed: int, vp_name: str, outcome: Outcome,
        slots: int,
    ) -> Outcome:
        """The canned stale reply a zombie VP returns for everything.

        The cached template carries the garbage RR with ``dest_slot=0``
        (so it is simultaneously a duplicate *and* a stamp mismatch);
        per-pair instances copy the original outcome's accounting.
        ``index`` is the zombie spec's position in the plan.
        """
        key = (index, vp_name, slots)
        canned = self._zombie_cache.get(key)
        if canned is None:
            rr = tuple(
                stable_u64(seed, "zombie-rr", vp_name, i) & 0xFFFFFFFF
                for i in range(min(slots, 4))
            )
            canned = Outcome(
                replied=True,
                responded=True,
                reply_has_rr=True,
                rr=rr,
                dest_slot=1,
                inprefix=(),
            )
            self._zombie_cache[key] = canned
        return Outcome(
            replied=True,
            responded=True,
            reply_has_rr=True,
            rr=canned.rr,
            dest_slot=1,
            inprefix=(),
            counters=outcome.counters,
            load=outcome.load,
        )

    def __repr__(self) -> str:
        return (
            f"FaultInjector({self.plan.describe()}, "
            f"horizon={self.horizon:.3g}s)"
        )
