"""Stamp-plan compilation: the batched dataplane's compiler half.

PR 2's forward-path cache proved that everything a probe encounters on
its way to a destination is invariant per (ingress AS, destination
prefix): the router list, each router's policy draws, the host's
behaviour, the reverse trunk. Yet the legacy walk re-derives every one
of those decisions per probe, hop by hop, through ``Network._walk`` —
packet serialisation and option byte-twiddling included.

This module compiles that invariant structure at three granularities.
A :class:`SegmentPlan` per cached hop segment (a trunk, an access
tail) holds the expensive pass that resolves every hop's policy —
done once per segment *object*, so the long trunk shared by every
destination behind an AS (and every VP in an ingress AS) is walked
exactly once rather than once per flow. Alongside the per-hop facts it
precomputes whole-segment aggregates (per-AS options load, stamp
addresses in order, rate loci with their cumulative-load prefixes), so
assembling a flow's program costs a few tuple merges instead of
another per-hop pass. A :class:`FlowProgram` per (forward path,
options-shape, TTL, flap set) then performs the symbolic round-trip
walk once for *every destination sharing the prefix* — the stop-point
resolution, the gate-op emission, the load/stamp accumulation — and a
:class:`RoundTripPlan` per (ingress AS, destination) finishes each
destination with only the host-specific facts (does this host answer?
does it stamp the reply? which Record Route does the reply carry?),
memoising the resulting :class:`Template`. Replay touches only the
*genuinely sequential* per-probe state:

* token-bucket ``allow(now)`` draws at each rate-limited locus;
* the per-VP loss-stream draws (``Network._lost``), including the
  Gilbert–Elliott burst-overlay chains, in exactly the order the
  legacy walk performs them;
* the live clock (pacing) and, for plain pings, the host's IP-ID.

Everything else — which hops stamp, where the first options filter
sits, where the TTL dies, how the host copies the RR option, which
same-/24 addresses the reply carries — is precomputed into shared
:class:`Outcome` objects whose metric-counter children and per-AS
options-load contributions are folded in one per-batch add.

The reverse leg of a program resolves lazily: only a flow that
survives to the Echo Reply expands the reply trunk, which is exactly
when the legacy walk first touches it — the options-filtered majority
of an RR survey never pays for one.

Determinism argument (the byte-parity contract): a replayed probe
consumes *exactly* the draw sequence the legacy walk would — rate
gates appear in hop order and only before the first deterministic
stop (flap < TTL < filter, matching the walk's within-hop order), and
loss draws appear exactly where ``_lost()`` is called (ICMP-error
emission, host arrival, reverse delivery). Deterministic drops consume
no draw in either implementation. Plans and programs contain no random
state, so sharing them across VPs or compiling them per worker cannot
change a single byte.

Fault keying: a template is resolved per ``(kind, slots, ttl,
flapset)`` where ``flapset`` is the injector's memoised frozenset of
flapped adjacencies at the probe's send time — a plan compiled while a
LinkFlap window is open can never be replayed against a placid world
(or vice versa), because the key differs. Each leg then sees only the
flapped adjacencies it crosses (:func:`crossed_flaps`): the forward
restriction keys the :class:`FlowProgram`, the reverse one keys the
continuation, and a flow that crosses none reuses its placid template
object. The symbolic walk tests no other edge, so the restriction
cannot change an outcome; it keeps plans retained across flap
sessions from duplicating their templates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.net.addr import same_slash24
from repro.net.options import RecordRouteOption
from repro.topology.routers import Hop, RouterNode

__all__ = [
    "KIND_RR",
    "KIND_PING",
    "FlowProgram",
    "Outcome",
    "RoundTripPlan",
    "SegmentPlan",
    "Template",
    "compile_segment",
    "crossed_flaps",
    "build_program",
    "build_template",
]

#: Template kinds: the two options-shapes the batch engine replays.
KIND_RR = 0
KIND_PING = 1

# Deterministic stop causes for one direction's symbolic walk, in
# within-hop precedence order (the flap check precedes the TTL check
# precedes the options/filter processing in ``Network._walk``).
_ARRIVE = 0
_FLAP = 1
_TTL = 2
_FILTER = 3

# Continuation kinds for a program's reverse-leg resolution (see
# ``_continuation``): a fully shared template, a reverse TTL expiry
# whose quote embeds the destination-specific Record Route, or a
# delivered reply needing per-destination final assembly.
_C_TPL = 0
_C_QUOTED = 1
_C_ARRIVE = 2


class Outcome:
    """One precomputed probe fate, shared by every probe that meets it.

    ``counters`` holds the pre-resolved registry children this outcome
    increments once per occurrence (``sent`` always included); ``load``
    holds the per-AS options-load contribution as ``(asn, count)``
    pairs. Both are folded per batch, not per probe — the replay loop
    counts occurrences per outcome *object* and multiplies at fold
    time. Loss-gate drops are the exception: ``Network._lost``
    increments its own counters at draw time, so lost outcomes carry
    only the deterministic part.

    ``reply_src`` and ``wire`` are taint channels for the misbehavior
    fault family: a spoofed reply carries the off-path source address
    it claimed (``None`` means the source was the destination, the
    normal case), and a mangled option carries the corrupted wire
    bytes for the validator to re-decode. Clean-world outcomes always
    leave both ``None`` — template outcomes are shared, so the
    misbehavior transform builds fresh instances rather than mutating.
    """

    __slots__ = (
        "replied",
        "responded",
        "reply_has_rr",
        "rr_responsive",
        "rr",
        "dest_slot",
        "inprefix",
        "ttl_exceeded",
        "error_source",
        "quoted",
        "counters",
        "load",
        "reply_src",
        "wire",
    )

    def __init__(
        self,
        replied: bool = False,
        responded: bool = False,
        reply_has_rr: bool = False,
        rr: Tuple[int, ...] = (),
        dest_slot: Optional[int] = None,
        inprefix: Tuple[int, ...] = (),
        ttl_exceeded: bool = False,
        error_source: Optional[int] = None,
        quoted: Tuple[int, ...] = (),
        counters: Tuple = (),
        load: Tuple[Tuple[int, int], ...] = (),
        reply_src: Optional[int] = None,
        wire: Optional[bytes] = None,
    ) -> None:
        self.replied = replied
        self.responded = responded
        self.reply_has_rr = reply_has_rr
        self.rr_responsive = responded and reply_has_rr
        self.rr = rr
        self.dest_slot = dest_slot
        self.inprefix = inprefix
        self.ttl_exceeded = ttl_exceeded
        self.error_source = error_source
        self.quoted = quoted
        self.counters = counters
        self.load = load
        self.reply_src = reply_src
        self.wire = wire


class Template:
    """One options-shape's replay program: gate ops + final outcome.

    ``ops`` is evaluated in order per probe; each op is a 4-slot list
    ``[router, pps, limiter, fail_outcome]`` for a rate gate (the
    limiter slot is resolved lazily through ``Network._limiter_of`` on
    first use, so bucket creation time — and therefore refill metrics —
    matches the legacy walk's first traversal), or
    ``[None, None, None, fail_outcome]`` for a loss-lottery draw. The
    first failing gate yields its outcome; surviving every gate yields
    ``final``. Op lists are shared across the templates of one
    :class:`FlowProgram` — the only mutation ever applied (limiter
    resolution) is idempotent.
    """

    __slots__ = ("ops", "final")

    def __init__(self, ops: Tuple[list, ...], final: Outcome) -> None:
        self.ops = ops
        self.final = final


class SegmentPlan:
    """One hop segment's policy-resolved facts plus aggregates.

    Compiled once per segment object and shared by every plan whose
    direction includes that segment (the network memoises these by
    segment identity), so trunk resolution amortises across all the
    destinations — and all the ingress VP ASes — that route over it.

    Per-hop facts (``asns``, ``edges``, ``decr``, ``filter_idx``,
    ``rate``, ``stamps``) drive stop-point resolution; the aggregates
    (``load_full``, ``stamp_addrs``, per-rate-locus cumulative load
    prefixes inside ``rate``) let the template builder consume a whole
    segment as a few tuple merges. ``partial(idx)`` memoises the same
    aggregates truncated at a stop index — the filter locus is fixed
    per segment and TTL stops are fixed per probe TTL, so each index
    computes once.
    """

    __slots__ = (
        "n", "asns", "edges", "decr", "filter_idx", "rate", "stamps",
        "load_full", "stamp_addrs", "_partial",
    )

    def __init__(
        self,
        n: int,
        asns: Tuple[int, ...],
        edges: Tuple[Tuple[int, Tuple[int, int]], ...],
        decr: Tuple[Tuple[int, bool, int], ...],
        filter_idx: Optional[int],
        rate: Tuple[
            Tuple[int, RouterNode, float, Tuple[Tuple[int, int], ...]], ...
        ],
        stamps: Tuple[Tuple[int, int], ...],
        load_full: Tuple[Tuple[int, int], ...],
    ) -> None:
        self.n = n
        self.asns = asns
        self.edges = edges
        self.decr = decr
        self.filter_idx = filter_idx
        self.rate = rate
        self.stamps = stamps
        self.load_full = load_full
        self.stamp_addrs = tuple(addr for _idx, addr in stamps)
        self._partial: Dict[int, tuple] = {}

    def partial(self, idx: int) -> tuple:
        """Aggregates for hops ``[0, idx)``: (load, n_stamps, n_rate).

        ``load`` is a ``((asn, count), ...)`` tuple; ``n_stamps`` and
        ``n_rate`` count how many of this segment's stamps / rate loci
        sit strictly before ``idx``. Memoised per index — stop indices
        are deterministic per (segment, options-shape, TTL), so each
        is computed once per segment lifetime.
        """
        cached = self._partial.get(idx)
        if cached is not None:
            return cached
        load: Dict[int, int] = {}
        for asn in self.asns[:idx]:
            load[asn] = load.get(asn, 0) + 1
        n_stamps = 0
        for stamp_idx, _addr in self.stamps:
            if stamp_idx >= idx:
                break
            n_stamps += 1
        n_rate = 0
        for entry in self.rate:
            if entry[0] >= idx:
                break
            n_rate += 1
        result = (tuple(load.items()), n_stamps, n_rate)
        self._partial[idx] = result
        return result


def crossed_flaps(
    flapset: Optional[FrozenSet], segplans
) -> Optional[FrozenSet]:
    """The part of ``flapset`` a leg over ``segplans`` can cross.

    ``_Walker.leg`` tests only the AS adjacencies inside each segment
    and at the boundaries between consecutive non-empty segments, so
    restricting the flap set to those edges leaves the leg's stop
    unchanged. ``None`` when the leg crosses no flapped adjacency.
    """
    if not flapset or segplans is None:
        return None
    crossed = []
    prev = None
    for sp in segplans:
        if sp.n == 0:
            continue
        first = sp.asns[0]
        if prev is not None and prev != first:
            edge = (prev, first) if prev < first else (first, prev)
            if edge in flapset:
                crossed.append(edge)
        for _index, edge in sp.edges:
            if edge in flapset:
                crossed.append(edge)
        prev = sp.asns[-1]
    return frozenset(crossed) if crossed else None


def compile_segment(network, hops: Sequence[Hop]) -> SegmentPlan:
    """Resolve one hop segment into a :class:`SegmentPlan`.

    A single pass over the hop list captures, in hop order: the
    per-hop ASN (options-load accounting), intra-segment AS
    adjacencies (LinkFlap loci), TTL-decrementing hops with their
    error behaviour, the first options-filtering hop, rate-limited
    loci (each with the cumulative per-AS load up to and including its
    own hop — the snapshot its fail outcome reports), and RR-stamping
    interfaces. Policies resolve through ``network.policy_of`` — the
    same seeded draws the legacy walk uses, cached on the network.
    """
    asns: List[int] = []
    edges: List[Tuple[int, Tuple[int, int]]] = []
    decr: List[Tuple[int, bool, int]] = []
    rate: List[tuple] = []
    stamps: List[Tuple[int, int]] = []
    filter_idx: Optional[int] = None
    prev_asn: Optional[int] = None
    running: Dict[int, int] = {}
    for index, hop in enumerate(hops):
        router = hop.router
        policy = network.policy_of(router)
        asn = router.asn
        asns.append(asn)
        running[asn] = running.get(asn, 0) + 1
        if prev_asn is not None and prev_asn != asn:
            edges.append((
                index,
                (prev_asn, asn) if prev_asn < asn else (asn, prev_asn),
            ))
        prev_asn = asn
        if policy.decrements_ttl:
            decr.append((index, policy.sends_ttl_exceeded, hop.icmp_addr))
        if filter_idx is None and policy.drops_options:
            filter_idx = index
        if policy.rate_limit_pps is not None:
            rate.append((
                index,
                router,
                policy.rate_limit_pps,
                tuple(running.items()),
            ))
        if policy.stamps_rr:
            stamps.append((index, hop.stamp_addr))
    return SegmentPlan(
        n=len(asns),
        asns=tuple(asns),
        edges=tuple(edges),
        decr=tuple(decr),
        filter_idx=filter_idx,
        rate=tuple(rate),
        stamps=tuple(stamps),
        load_full=tuple(running.items()),
    )


class RoundTripPlan:
    """The compiled round trip for one (ingress AS, destination).

    ``fwd`` is a tuple of shared :class:`SegmentPlan` references in
    traversal order (``None`` when the forward path has no route); it
    doubles as the identity that locates the flow's shared
    :class:`FlowProgram` on the network. Templates (per options-shape
    and flap set) are memoised on the plan and die with it — every
    invalidation that drops the plan drops its templates too.
    ``fast_key``/``fast_tpl`` are the batch loop's one-entry template
    memo: within a batch the (kind, slots, ttl, flapset) key is
    constant in the placid case, so the hot lookup is two attribute
    reads, no dict or tuple hashing.
    """

    __slots__ = (
        "src_asn", "dest", "host", "fwd",
        "fast_key", "fast_tpl", "_templates",
    )

    def __init__(self, src_asn, dest, host, fwd) -> None:
        self.src_asn = src_asn
        self.dest = dest
        self.host = host
        self.fwd = fwd
        self.fast_key = None
        self.fast_tpl = None
        self._templates: Dict[tuple, Template] = {}

    def template(
        self,
        network,
        kind: int,
        slots: int,
        ttl: int,
        flapset: Optional[FrozenSet],
    ) -> Template:
        key = (kind, slots, ttl, flapset)
        if key == self.fast_key:
            return self.fast_tpl
        template = self._templates.get(key)
        if template is None:
            template = build_template(network, self, kind, slots, ttl, flapset)
            self._templates[key] = template
        self.fast_key = key
        self.fast_tpl = template
        return template


class FlowProgram:
    """The prefix-shared half of a template.

    One symbolic round-trip walk per (forward path, options-shape,
    TTL, forward flap set), shared by every destination behind the
    prefix — and therefore by every plan whose ``fwd`` tuple matches.
    When the forward leg stops deterministically (no route, flap,
    filter, TTL) the fate is host-independent and ``whole`` holds one
    template every destination shares outright. Otherwise the program
    keeps the surviving forward state (``ops_fwd``/``ops_arrived``,
    ``load_fwd``, ``rr_fwd``, ``decr_fwd``) plus lazily-built shared
    templates for the host-side deterministic drops, and resolves
    reverse-leg continuations on demand, keyed by the only facts the
    reply's reverse traversal depends on: whether it carries an RR
    option, how many slots that option has consumed, and which flapped
    adjacencies the reverse leg crosses.
    """

    __slots__ = (
        "slots",
        "whole", "ops_fwd", "ops_arrived", "load_fwd", "rr_fwd",
        "decr_fwd", "silent_tpl", "optdrop_tpl", "noresp_tpl",
        "rev", "rev_resolved", "conts",
    )

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.whole: Optional[Template] = None
        self.ops_fwd: Tuple[list, ...] = ()
        self.ops_arrived: Tuple[list, ...] = ()
        self.load_fwd: Tuple[Tuple[int, int], ...] = ()
        self.rr_fwd: Tuple[int, ...] = ()
        self.decr_fwd = 0
        self.silent_tpl: Optional[Template] = None
        self.optdrop_tpl: Optional[Template] = None
        self.noresp_tpl: Optional[Template] = None
        self.rev = None
        self.rev_resolved = False
        self.conts: Dict[tuple, tuple] = {}


class _Walker:
    """One direction's symbolic walk state (compile-time only).

    Accumulates the replay ops, the per-AS options load, and the RR
    stamp list while resolving the earliest deterministic stop.
    Reverse legs seed ``rr`` with ``rr_len`` placeholders standing in
    for the (destination-specific) slots the reply option already
    carries — the walk only ever consults the list's *length*, and the
    continuation splits off the appended suffix afterwards.
    """

    __slots__ = ("network", "mx", "flapset", "slots", "ops", "load", "rr")

    def __init__(
        self,
        network,
        slots: int,
        flapset: Optional[FrozenSet],
        ops: Optional[list] = None,
        load: Optional[dict] = None,
        rr_len: int = 0,
    ) -> None:
        self.network = network
        self.mx = network._mx
        self.flapset = flapset
        self.slots = slots
        self.ops: List[list] = [] if ops is None else ops
        self.load: Dict[int, int] = {} if load is None else load
        self.rr: List[Optional[int]] = [None] * rr_len

    def timeout(self, *extra) -> Outcome:
        return Outcome(
            counters=(self.mx.sent,) + extra,
            load=tuple(self.load.items()),
        )

    def add_rate_ops(self, sp: SegmentPlan, upto_rate: int) -> None:
        """Append the first ``upto_rate`` rate gates of a segment.

        Each gate's fail outcome reports the per-AS load as of its own
        hop (inclusive): the pre-segment accumulation plus the locus's
        precompiled in-segment prefix — the exact snapshot the legacy
        walk would have in ``options_load`` at that drop.
        """
        if not upto_rate:
            return
        mx = self.mx
        load = self.load
        for entry in sp.rate[:upto_rate]:
            _idx, router, pps, prefix = entry
            at_gate = dict(load)
            for asn, count in prefix:
                at_gate[asn] = at_gate.get(asn, 0) + count
            self.ops.append([
                router,
                pps,
                None,
                Outcome(
                    counters=(mx.sent, mx.dropped_rate_limited),
                    load=tuple(at_gate.items()),
                ),
            ])

    def add_stamps(self, addrs: Sequence[int]) -> None:
        rr = self.rr
        free = self.slots - len(rr)
        if free > 0:
            rr.extend(addrs[:free])

    def emit_full(self, sp: SegmentPlan) -> None:
        """Fold a fully-traversed segment into the options-packet state."""
        self.add_rate_ops(sp, len(sp.rate))
        load = self.load
        for asn, count in sp.load_full:
            load[asn] = load.get(asn, 0) + count
        self.add_stamps(sp.stamp_addrs)

    def emit_partial(self, sp: SegmentPlan, idx: int, bump_stop: bool) -> None:
        """Fold hops ``[0, idx)`` of the stop segment; ``bump_stop``
        adds the stop hop's own load (the filtering hop processed the
        options packet before dropping it)."""
        part_load, n_stamps, n_rate = sp.partial(idx)
        self.add_rate_ops(sp, n_rate)
        load = self.load
        for asn, count in part_load:
            load[asn] = load.get(asn, 0) + count
        self.add_stamps(sp.stamp_addrs[:n_stamps])
        if bump_stop:
            asn = sp.asns[idx]
            load[asn] = load.get(asn, 0) + 1

    def leg(self, segplans, ttl_in: int, has_options: bool):
        """One direction's symbolic walk; returns (stop_kind, info).

        Finds the earliest deterministic stop across the direction's
        segments as a ``(segment, hop, precedence)`` triple — the
        precedence ranks encode the walk's within-hop check order
        (flap before TTL before filter), so ties at one hop resolve
        exactly as the legacy walk does — then appends the leg's rate
        gates to ``ops`` and advances the main-line RR / options-load
        state up to that stop.
        """
        best = None
        flapset = self.flapset
        if flapset:
            prev = None
            for seg_i, sp in enumerate(segplans):
                if sp.n == 0:
                    continue
                first = sp.asns[0]
                if prev is not None and prev != first:
                    # The adjacency straddling the segment boundary.
                    edge = (prev, first) if prev < first else (first, prev)
                    if edge in flapset:
                        best = (seg_i, 0, _FLAP, None)
                        break
                found = None
                for index, edge in sp.edges:
                    if edge in flapset:
                        found = (seg_i, index, _FLAP, None)
                        break
                if found is not None:
                    best = found
                    break
                prev = sp.asns[-1]
        remaining = ttl_in
        for seg_i, sp in enumerate(segplans):
            if len(sp.decr) >= remaining:
                index, sends, icmp_addr = sp.decr[remaining - 1]
                cand = (seg_i, index, _TTL, (sends, icmp_addr))
                if best is None or cand[:3] < best[:3]:
                    best = cand
                break
            remaining -= len(sp.decr)
        if has_options:
            for seg_i, sp in enumerate(segplans):
                if sp.filter_idx is not None:
                    cand = (seg_i, sp.filter_idx, _FILTER, None)
                    if best is None or cand[:3] < best[:3]:
                        best = cand
                    break
            stop_seg = len(segplans) if best is None else best[0]
            for seg_i in range(stop_seg):
                self.emit_full(segplans[seg_i])
            if best is not None:
                self.emit_partial(
                    segplans[stop_seg], best[1], best[2] == _FILTER
                )
        if best is None:
            return _ARRIVE, None
        return best[2], best[3]


def _stop_outcome(walker: _Walker, stop_kind: int, stop_info) -> Outcome:
    """The outcome for a leg's deterministic stop; appends the
    error-reply loss gate when a Time Exceeded fires. Only valid when
    the walker's RR list holds no reverse-leg placeholders (the quoted
    stamps embed its contents verbatim) — reverse TTL expiry with a
    live RR option is assembled per destination by the continuation.
    """
    mx = walker.mx
    if stop_kind == _FLAP:
        return walker.timeout(
            mx.dropped_fault, walker.network._injector.drops_flap
        )
    if stop_kind == _FILTER:
        return walker.timeout(mx.dropped_filtered)
    sends, icmp_addr = stop_info
    if not sends:
        return walker.timeout(mx.dropped_ttl)
    # Time Exceeded quoting the offending header: the quote includes
    # the full IP header (options and all), so the quoted RR is the
    # stamps accumulated strictly before the expiry hop. The error
    # reply itself faces one loss draw.
    walker.ops.append([None, None, None, walker.timeout(mx.ttl_exceeded_sent)])
    return Outcome(
        replied=True,
        ttl_exceeded=True,
        error_source=icmp_addr,
        quoted=tuple(walker.rr),
        counters=(mx.sent, mx.ttl_exceeded_sent),
        load=tuple(walker.load.items()),
    )


def build_program(
    network,
    fwd,
    kind: int,
    slots: int,
    ttl: int,
    flapset: Optional[FrozenSet],
) -> FlowProgram:
    """Run the shared (per-prefix) half of the symbolic walk once.

    Mirrors ``Network._walk``'s forward direction decision-for-decision
    — the within-hop order (flap check, TTL, options-load, filter,
    rate gate, stamp) and the options-load boundary per stop cause —
    consuming segment aggregates rather than re-walking hops: a full
    segment folds in as one load-tuple merge, a stamp-tuple extend,
    and its precompiled rate loci; only the stop segment is truncated
    (via the memoised ``SegmentPlan.partial``).
    """
    mx = network._mx
    program = FlowProgram(slots)
    if fwd is None:
        program.whole = Template(
            (), Outcome(counters=(mx.sent, mx.dropped_no_route))
        )
        return program
    walker = _Walker(network, slots, flapset)
    stop_kind, stop_info = walker.leg(fwd, ttl, kind == KIND_RR)
    if stop_kind != _ARRIVE:
        # The stop outcome first: a Time Exceeded appends its loss gate.
        final = _stop_outcome(walker, stop_kind, stop_info)
        program.whole = Template(tuple(walker.ops), final)
        return program
    program.ops_fwd = tuple(walker.ops)
    program.load_fwd = tuple(walker.load.items())
    program.rr_fwd = tuple(walker.rr)
    program.decr_fwd = sum(len(sp.decr) for sp in fwd)
    # Host-arrival loss draw (``_deliver_to_host`` calls ``_lost()``
    # before the protocol dispatch, unresponsive hosts included).
    arrival = [
        None, None, None,
        Outcome(counters=(mx.sent,), load=program.load_fwd),
    ]
    program.ops_arrived = program.ops_fwd + (arrival,)
    return program


def _reverse_of(network, program: FlowProgram, plan: RoundTripPlan):
    """The program's reverse segment plans (None: no route back).

    Resolved lazily, on the first reply that needs it — the point
    where the legacy walk first touches the reverse trunk; any plan
    sharing the program may supply the destination (reverse routing is
    a prefix fact, not a host fact).
    """
    if not program.rev_resolved:
        trunk = network._trunk(plan.host.asn, plan.src_asn)
        if trunk is not None:
            program.rev = (
                network._segment_plan(network._access_of(plan.dest)),
                network._segment_plan(trunk),
            )
        program.rev_resolved = True
    return program.rev


def _continuation(
    network, program: FlowProgram, rev_has_options: bool,
    n_recorded: int, rev_flaps: Optional[FrozenSet],
) -> tuple:
    """The reverse-leg continuation for one reply shape, memoised.

    Keyed by the only reply facts the reverse traversal depends on:
    whether the Echo Reply carries the RR option (filter loci apply),
    how many slots it has consumed (how many reverse stamps fit), and
    the flapped adjacencies the reverse leg crosses (``rev_flaps``,
    already restricted by :func:`crossed_flaps`). The caller resolves
    ``program.rev`` first (:func:`_reverse_of`).
    """
    key = (rev_has_options, n_recorded, rev_flaps)
    cont = program.conts.get(key)
    if cont is not None:
        return cont
    mx = network._mx
    if program.rev is None:
        cont = (_C_TPL, Template(
            program.ops_arrived,
            Outcome(
                counters=(mx.sent, mx.dropped_no_route),
                load=program.load_fwd,
            ),
        ))
        program.conts[key] = cont
        return cont
    walker = _Walker(
        network, program.slots, rev_flaps,
        ops=list(program.ops_arrived), load=dict(program.load_fwd),
        rr_len=n_recorded,
    )
    stop_kind, stop_info = walker.leg(program.rev, 64, rev_has_options)
    if stop_kind == _ARRIVE:
        # Reverse-arrival loss draw, then delivery.
        walker.ops.append([None, None, None, walker.timeout()])
        cont = (
            _C_ARRIVE,
            tuple(walker.ops),
            tuple(walker.rr[n_recorded:]),
            tuple(walker.load.items()),
            [None],  # lazily-built shared template for RR-less replies
        )
    elif stop_kind == _TTL and stop_info[0]:
        # Reverse Time Exceeded: the quote embeds the reply's RR,
        # whose leading slots are destination-specific — store the
        # shared suffix and assemble the outcome per destination.
        walker.ops.append(
            [None, None, None, walker.timeout(mx.ttl_exceeded_sent)]
        )
        cont = (
            _C_QUOTED,
            tuple(walker.ops),
            stop_info[1],
            tuple(walker.rr[n_recorded:]),
            tuple(walker.load.items()),
        )
    else:
        final = _stop_outcome(walker, stop_kind, stop_info)
        cont = (_C_TPL, Template(tuple(walker.ops), final))
    program.conts[key] = cont
    return cont


def build_template(
    network,
    plan: RoundTripPlan,
    kind: int,
    slots: int,
    ttl: int,
    flapset: Optional[FrozenSet],
) -> Template:
    """Finish one destination's template from the shared flow program.

    The program already performed the per-prefix symbolic walk; what
    remains is exactly the host-specific part of
    ``_deliver_to_host`` / ``_host_icmp``: the silent-TTL and
    options-dropping checks, responsiveness, the reply's RR stamping,
    and the final Record Route bookkeeping (destination slot, same-/24
    addresses). Deterministic host drops and RR-less replies collapse
    to templates shared by every destination that behaves alike.

    ``flapset`` is restricted per leg (:func:`crossed_flaps`); a flow
    that crosses no flapped adjacency in either direction gets its
    placid template itself.
    """
    fwd_flaps = crossed_flaps(flapset, plan.fwd)
    program = network._program_for(plan.fwd, kind, slots, ttl, fwd_flaps)
    if program.whole is not None:
        return program.whole
    mx = network._mx
    host = plan.host
    if host.silent_hops and ttl - program.decr_fwd <= host.silent_hops:
        tpl = program.silent_tpl
        if tpl is None:
            tpl = program.silent_tpl = Template(
                program.ops_fwd,
                Outcome(
                    counters=(mx.sent, mx.dropped_ttl),
                    load=program.load_fwd,
                ),
            )
        return tpl
    has_rr = kind == KIND_RR
    if has_rr and host.drops_options:
        tpl = program.optdrop_tpl
        if tpl is None:
            tpl = program.optdrop_tpl = Template(
                program.ops_fwd,
                Outcome(
                    counters=(mx.sent, mx.dropped_host),
                    load=program.load_fwd,
                ),
            )
        return tpl
    if not host.ping_responsive:
        tpl = program.noresp_tpl
        if tpl is None:
            tpl = program.noresp_tpl = Template(
                program.ops_arrived,
                Outcome(
                    counters=(mx.sent, mx.dropped_host),
                    load=program.load_fwd,
                ),
            )
        return tpl

    # -- the Echo Reply -----------------------------------------------------
    if has_rr:
        reply_rr = host.stamp_reply(
            RecordRouteOption(slots=slots, recorded=list(program.rr_fwd))
        )
        rev_has_options = reply_rr is not None
        recorded = (
            tuple(reply_rr.recorded) if reply_rr is not None else ()
        )
    else:
        rev_has_options = False
        recorded = ()
    rev_flaps = crossed_flaps(flapset, _reverse_of(network, program, plan))
    if flapset and fwd_flaps is None and rev_flaps is None:
        return plan.template(network, kind, slots, ttl, None)
    cont = _continuation(
        network, program, rev_has_options, len(recorded), rev_flaps
    )
    ckind = cont[0]
    if ckind == _C_TPL:
        return cont[1]
    if ckind == _C_QUOTED:
        _ck, ops, icmp_addr, suffix, load = cont
        return Template(ops, Outcome(
            replied=True,
            ttl_exceeded=True,
            error_source=icmp_addr,
            quoted=recorded + suffix,
            counters=(mx.sent, mx.ttl_exceeded_sent),
            load=load,
        ))
    _ck, ops, rev_stamps, load, shared = cont
    rr_final = recorded + rev_stamps
    if not rr_final:
        tpl = shared[0]
        if tpl is None:
            tpl = shared[0] = Template(ops, Outcome(
                replied=True,
                responded=True,
                reply_has_rr=rev_has_options,
                counters=(mx.sent, mx.delivered),
                load=load,
            ))
        return tpl
    dest_addr = plan.dest.addr
    slot: Optional[int] = None
    for index, addr in enumerate(rr_final):
        if addr == dest_addr:
            slot = index + 1
            break
    seen = set()
    inprefix: List[int] = []
    for addr in rr_final:
        if (
            addr != dest_addr
            and addr not in seen
            and same_slash24(addr, dest_addr)
        ):
            seen.add(addr)
            inprefix.append(addr)
    final = Outcome(
        replied=True,
        responded=True,
        reply_has_rr=rev_has_options,
        rr=rr_final,
        dest_slot=slot,
        inprefix=tuple(inprefix),
        counters=(mx.sent, mx.delivered),
        load=load,
    )
    return Template(ops, final)
