"""Stamp-plan compilation: the batched dataplane's compiler half.

Everything a probe encounters on its way to a destination is
invariant per (ingress AS, destination): the router list, each
router's policy draws, the host's behaviour, the reverse trunk. Yet
the legacy walk re-derives every one of those decisions per probe,
hop by hop, through ``Network._walk`` — packet serialisation and
option byte-twiddling included.

This module compiles that invariant structure at two cached levels.
A :class:`SegmentPlan` per cached hop segment (a trunk, an access
tail) holds the expensive pass that resolves every hop's policy —
done once per segment *object*, so the long trunk shared by every
destination behind an AS (and every VP in an ingress AS) is walked
exactly once rather than once per flow. Alongside the per-hop facts it
precomputes whole-segment aggregates (per-AS options load, stamp
addresses in order, rate loci with their cumulative-load prefixes), so
a flow's symbolic walk consumes a segment as a few tuple merges
instead of another per-hop pass. A :class:`RoundTripPlan` per (ingress
AS, destination) then memoises one :class:`Template` per
options-shape, TTL and flap set, each compiled by
:func:`build_template` in one pass: the forward leg's stop-point
resolution, the host's checks, the reply's Record Route and the
reverse leg. The hitlist holds one destination per prefix, so nothing
between a segment and a destination has anything to share. Replay
touches only the *genuinely sequential* per-probe state:

* token-bucket ``allow(now)`` draws at each rate-limited locus;
* the per-VP loss-stream draws (``Network._lost``), including the
  Gilbert–Elliott burst-overlay chains, in exactly the order the
  legacy walk performs them;
* the live clock (pacing) and, for plain pings, the host's IP-ID.

Everything else — which hops stamp, where the first options filter
sits, where the TTL dies, how the host copies the RR option, which
same-/24 addresses the reply carries — is precomputed into the
template's :class:`Outcome` objects, whose metric-counter children
and per-AS options-load contributions are folded in one per-batch
pass.

The reverse leg resolves lazily, on the plan: only a flow that
survives to the Echo Reply expands the reply trunk, which is exactly
when the legacy walk first touches it — the options-filtered majority
of an RR survey never pays for one.

Determinism argument (the byte-parity contract): a replayed probe
consumes *exactly* the draw sequence the legacy walk would — rate
gates appear in hop order and only before the first deterministic
stop (flap < TTL < filter, matching the walk's within-hop order), and
loss draws appear exactly where ``_lost()`` is called (ICMP-error
emission, host arrival, reverse delivery). Deterministic drops consume
no draw in either implementation. Segment plans and templates contain
no random state, so sharing them across VPs or compiling them per
worker cannot change a single byte.

Fault keying: a template is resolved per ``(kind, slots, ttl,
flapset)`` where ``flapset`` is the injector's memoised frozenset of
flapped adjacencies at the probe's send time — a plan compiled while a
LinkFlap window is open can never be replayed against a placid world
(or vice versa), because the key differs. Each leg then sees only the
flapped adjacencies it crosses (:func:`crossed_flaps`), and a flow
that crosses none on either leg reuses its placid template object.
The symbolic walk tests no other edge, so the restriction cannot
change an outcome; it keeps plans retained across flap sessions from
duplicating their templates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.topology.routers import Hop, RouterNode

__all__ = [
    "KIND_RR",
    "KIND_PING",
    "Outcome",
    "OutcomeCounters",
    "RoundTripPlan",
    "SegmentPlan",
    "Template",
    "compile_segment",
    "crossed_flaps",
    "build_template",
]

#: Template kinds: the two options-shapes the batch engine replays.
KIND_RR = 0
KIND_PING = 1

# Deterministic stop causes for one direction's symbolic walk, in
# within-hop precedence order (the flap check precedes the TTL check
# precedes the options/filter processing in ``Network._walk``).
# ``_leg`` ranks stops as ``hop * 4 + cause``, so they stay below 4.
_ARRIVE = 0
_FLAP = 1
_TTL = 2
_FILTER = 3

#: ``RoundTripPlan.rev`` before the first Echo Reply resolves it.
_UNRESOLVED = object()


class Outcome:
    """One precomputed probe fate: a template's final or a gate's fail.

    ``counters`` holds the pre-resolved registry children this outcome
    increments once per occurrence (``sent`` always included); ``load``
    holds the per-AS options-load contribution as ``(asn, count)``
    pairs. Both are folded per batch, not per probe — the replay loop
    lists each attempt's outcome and adds the list up once, at the
    batch's end. Loss-gate drops are the exception: ``Network._lost``
    increments its own counters at draw time, so lost outcomes carry
    only the deterministic part.

    ``reply_src`` and ``wire`` are taint channels for the misbehavior
    fault family: a spoofed reply carries the off-path source address
    it claimed (``None`` means the source was the destination, the
    normal case), and a mangled option carries the corrupted wire
    bytes for the validator to re-decode. Clean-world outcomes always
    leave both ``None`` — a template's outcomes are replayed by every
    probe of its flow, so the misbehavior transform builds fresh
    instances rather than mutating.
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


class OutcomeCounters:
    """The counter tuples compiled outcomes carry, one per fate.

    A network has about ten distinct ``Outcome.counters`` tuples; it
    builds them once (``Network._outcome_counters``) so every outcome
    shares one instead of allocating its own. A flap drop's tuple
    names the injector's own counter, so it is built per outcome.
    """

    __slots__ = (
        "sent", "delivered", "no_route", "filtered", "rate_limited",
        "ttl", "host", "ttl_exceeded",
    )

    def __init__(self, mx) -> None:
        sent = mx.sent
        self.sent = (sent,)
        self.delivered = (sent, mx.delivered)
        self.no_route = (sent, mx.dropped_no_route)
        self.filtered = (sent, mx.dropped_filtered)
        self.rate_limited = (sent, mx.dropped_rate_limited)
        self.ttl = (sent, mx.dropped_ttl)
        self.host = (sent, mx.dropped_host)
        self.ttl_exceeded = (sent, mx.ttl_exceeded_sent)


class Template:
    """One options-shape's replay program: gate ops + final outcome.

    ``ops`` is evaluated in order per probe; each op is a 4-slot list
    ``[router, pps, limiter, fail_outcome]`` for a rate gate (the
    limiter slot is resolved lazily through ``Network._limiter_of`` on
    first use, so bucket creation time — and therefore refill metrics —
    matches the legacy walk's first traversal), or
    ``[None, None, None, fail_outcome]`` for a loss-lottery draw. The
    first failing gate yields its outcome; surviving every gate yields
    ``final``. The only mutation ever applied to an op (limiter
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
    (``stamp_addrs``, per-rate-locus cumulative load prefixes inside
    ``rate``, and ``partial``'s per-AS load) let the template builder
    consume a segment as a few tuple merges. ``partial(idx)`` memoises
    them for the hops before a stop index — the filter locus is fixed
    per segment and TTL stops are fixed per probe TTL, so each index
    computes once; ``partial(n)``, the whole segment, is seeded from
    ``load_full``.
    """

    __slots__ = (
        "n", "asns", "edges", "decr", "filter_idx", "rate", "stamps",
        "stamp_addrs", "_partial",
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
        self.stamp_addrs = tuple(addr for _idx, addr in stamps)
        self._partial: Dict[int, tuple] = {
            n: (load_full, self.stamp_addrs, rate),
        }

    def partial(self, idx: int) -> tuple:
        """Aggregates for hops ``[0, idx)``: (load, stamps, rate).

        ``load`` is a ``((asn, count), ...)`` tuple; ``stamps`` and
        ``rate`` are the stamp addresses and rate loci that sit
        strictly before ``idx``. Memoised per index — stop indices
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
        result = (
            tuple(load.items()),
            self.stamp_addrs[:n_stamps],
            self.rate[:n_rate],
        )
        self._partial[idx] = result
        return result


def crossed_flaps(
    flapset: Optional[FrozenSet], segplans
) -> Optional[FrozenSet]:
    """The part of ``flapset`` a leg over ``segplans`` can cross.

    A leg's flap check tests only the edges :func:`_leg_edges` lists,
    so restricting the flap set to those leaves the leg's stop
    unchanged. ``None`` when the leg crosses no flapped adjacency.
    """
    if not flapset or segplans is None:
        return None
    return frozenset(
        edge for _hop, edge in _leg_edges(segplans) if edge in flapset
    ) or None


def _leg_edges(segplans) -> Iterator[Tuple[int, Tuple[int, int]]]:
    """``(hop, edge)`` for every AS adjacency a leg crosses, in order:
    inside each segment and at the boundary between consecutive
    non-empty segments; ``hop`` counts from the leg's first hop, and an
    adjacency belongs to the hop it enters."""
    base = 0
    prev = None
    for sp in segplans:
        if sp.n:
            first = sp.asns[0]
            if prev is not None and prev != first:
                yield base, (prev, first) if prev < first else (first, prev)
            for index, edge in sp.edges:
                yield base + index, edge
            prev = sp.asns[-1]
        base += sp.n


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
    traversal order (``None`` when the forward path has no route).
    ``rev`` is the reply's (access, trunk) pair, which
    :meth:`reverse` resolves on the first template that reaches an
    Echo Reply (``None``: no route back). Templates (per options-shape
    and flap set) are memoised on the plan and die with it — every
    invalidation that drops the plan drops its templates too.
    ``fast_key``/``fast_tpl`` are the batch loop's one-entry template
    memo: within a batch the (kind, slots, ttl, flapset) key is
    constant in the placid case, so the hot lookup is two attribute
    reads, no dict or tuple hashing.
    """

    __slots__ = (
        "src_asn", "dest", "host", "fwd", "rev",
        "fast_key", "fast_tpl", "_templates",
    )

    def __init__(self, src_asn, dest, host, fwd) -> None:
        self.src_asn = src_asn
        self.dest = dest
        self.host = host
        self.fwd = fwd
        self.rev = _UNRESOLVED
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

    def reverse(self, network):
        """The reply's segment plans (``None``: no route back).

        Resolved on first use — where the legacy walk first touches
        the reverse trunk — so a plan whose templates all stop before
        the Echo Reply never expands one.
        """
        rev = self.rev
        if rev is _UNRESOLVED:
            trunk = network._trunk(self.host.asn, self.src_asn)
            rev = self.rev = None if trunk is None else (
                network._segment_plan(network._access_of(self.dest)),
                network._segment_plan(trunk),
            )
        return rev


def _leg(
    network,
    ops: List[list],
    load: Dict[int, int],
    rr: List[int],
    slots: int,
    segs: Tuple[SegmentPlan, SegmentPlan],
    ttl: int,
    has_options: bool,
    flapset: Optional[FrozenSet],
) -> Optional[Outcome]:
    """One direction's symbolic walk; the outcome of its deterministic
    stop, or ``None`` when the packet arrives.

    ``segs`` is the leg's two segments in traversal order: the forward
    (trunk, tail) or the reply's (access, trunk). The earliest stop is
    found as ``hop * 4 + cause``, hops counted over the whole leg, so
    at one hop the walk's within-hop order decides (flap before TTL
    before filter). An options packet then folds the hops before the
    stop into the template under construction: their rate gates onto
    ``ops``, each failing with the per-AS load as of its own hop
    (inclusive); their load into ``load``, plus the stop hop's own when
    it filters (it processed the options before dropping them); their
    stamps into ``rr`` while slots are free. A Time Exceeded appends
    its error reply's loss gate after them.
    """
    first, second = segs
    n1 = first.n
    stop = (n1 + second.n) * 4 + _ARRIVE
    if flapset:
        for hop, edge in _leg_edges(segs):
            if edge in flapset:
                stop = hop * 4 + _FLAP
                break
    ttl_left = ttl - len(first.decr)
    if ttl_left <= 0:
        index, sends, icmp_addr = first.decr[ttl - 1]
        stop = min(stop, index * 4 + _TTL)
    elif ttl_left <= len(second.decr):
        index, sends, icmp_addr = second.decr[ttl_left - 1]
        stop = min(stop, (n1 + index) * 4 + _TTL)
    if has_options:
        index = first.filter_idx
        if index is None and second.filter_idx is not None:
            index = n1 + second.filter_idx
        if index is not None:
            stop = min(stop, index * 4 + _FILTER)
    hop, cause = divmod(stop, 4)
    counters = network._outcome_counters
    if has_options:
        for sp, upto in ((first, min(hop, n1)), (second, hop - n1)):
            if upto <= 0:
                continue
            seg_load, stamps, rate = sp.partial(upto)
            # With nothing loaded before the segment (a forward trunk),
            # a gate's load is its locus's own prefix tuple, and the
            # segment's load is copied in order: both as the merge
            # would build them, shared by every template over it.
            for _index, router, pps, prefix in rate:
                if load:
                    at_gate = dict(load)
                    for asn, count in prefix:
                        at_gate[asn] = at_gate.get(asn, 0) + count
                    prefix = tuple(at_gate.items())
                ops.append([router, pps, None, Outcome(
                    counters=counters.rate_limited, load=prefix,
                )])
            if load:
                for asn, count in seg_load:
                    load[asn] = load.get(asn, 0) + count
            else:
                load.update(seg_load)
            free = slots - len(rr)
            if free > 0:
                rr.extend(stamps[:free])
        if cause == _FILTER:
            asn = first.asns[hop] if hop < n1 else second.asns[hop - n1]
            load[asn] = load.get(asn, 0) + 1
    if cause == _ARRIVE:
        return None
    at_stop = tuple(load.items())
    if cause == _FLAP:
        mx = network._mx
        return Outcome(
            counters=(mx.sent, mx.dropped_fault, network._injector.drops_flap),
            load=at_stop,
        )
    if cause == _FILTER:
        return Outcome(counters=counters.filtered, load=at_stop)
    if not sends:
        return Outcome(counters=counters.ttl, load=at_stop)
    # Time Exceeded quoting the offending header: the quote includes
    # the full IP header (options and all), so the quoted RR is the
    # stamps accumulated strictly before the expiry hop — on the
    # reverse leg, the reply's Record Route so far. The error reply
    # itself faces one loss draw.
    ops.append([None, None, None, Outcome(
        counters=counters.ttl_exceeded, load=at_stop
    )])
    return Outcome(
        replied=True,
        ttl_exceeded=True,
        error_source=icmp_addr,
        quoted=tuple(rr),
        counters=counters.ttl_exceeded,
        load=at_stop,
    )


def build_template(
    network,
    plan: RoundTripPlan,
    kind: int,
    slots: int,
    ttl: int,
    flapset: Optional[FrozenSet],
) -> Template:
    """Compile one destination's round trip into a :class:`Template`.

    Mirrors ``Network._walk``, ``_deliver_to_host``, ``_host_icmp``
    and ``_reverse_deliver`` decision-for-decision — the within-hop
    order (flap check, TTL, options-load, filter, rate gate, stamp),
    the options-load boundary per stop cause, the host's silent-TTL,
    options-dropping and responsiveness checks, the reply's RR
    stamping — consuming segment aggregates rather than re-walking
    hops: each segment folds in, up to its leg's stop, as one
    load-tuple merge, a stamp-tuple extend and its precompiled rate
    loci (the memoised ``SegmentPlan.partial``). One pass builds the
    template into local ``ops``, ``load`` and ``rr`` lists, one
    :func:`_leg` call per direction; a gate and an outcome that see
    the same load share its snapshot tuple.

    ``flapset`` is restricted per leg (:func:`crossed_flaps`). A flow
    whose forward leg crosses no flapped adjacency gets its placid
    template itself unless its reply crosses one; a plan whose reverse
    leg is still unresolved has never reached an Echo Reply, so
    resolving it is never needed to decide.
    """
    fwd = plan.fwd
    placid = fwd_flaps = None
    if flapset:
        fwd_flaps = crossed_flaps(flapset, fwd)
        if fwd_flaps is None:
            placid = plan.template(network, kind, slots, ttl, None)
            rev = plan.rev
            if rev is _UNRESOLVED or crossed_flaps(flapset, rev) is None:
                return placid
    counters = network._outcome_counters
    if fwd is None:
        return Template((), Outcome(counters=counters.no_route))
    ops: List[list] = []
    load: Dict[int, int] = {}
    rr: List[int] = []
    has_rr = kind == KIND_RR
    host = plan.host
    # A stop's outcome comes back after its gates (a Time Exceeded's
    # loss gate included), so ``ops`` is frozen only once it is whole.
    final = _leg(network, ops, load, rr, slots, fwd, ttl, has_rr, fwd_flaps)
    if final is None:
        arrived = tuple(load.items())
        if host.silent_hops and (
            ttl - len(fwd[0].decr) - len(fwd[1].decr) <= host.silent_hops
        ):
            final = Outcome(counters=counters.ttl, load=arrived)
        elif has_rr and host.drops_options:
            final = Outcome(counters=counters.host, load=arrived)
        else:
            # Host-arrival loss draw (``_deliver_to_host`` calls
            # ``_lost()`` before the protocol dispatch, unresponsive
            # hosts included).
            ops.append([None, None, None, Outcome(
                counters=counters.sent, load=arrived
            )])
            if not host.ping_responsive:
                final = Outcome(counters=counters.host, load=arrived)
    if final is not None:
        # Stopped before the reply: with a placid forward leg, the
        # reverse leg's flaps cannot touch this flow.
        return placid or Template(tuple(ops), final)

    # -- the Echo Reply -----------------------------------------------------
    has_options = has_rr and host.stamp_reply_rr(rr, slots)
    if not has_options:
        rr = []
    rev = plan.reverse(network)
    if rev is None:
        return Template(tuple(ops), Outcome(
            counters=counters.no_route, load=arrived
        ))
    final = _leg(
        network, ops, load, rr, slots, rev, 64, has_options,
        crossed_flaps(flapset, rev) if flapset else None,
    )
    if final is not None:
        return Template(tuple(ops), final)
    # Reverse-arrival loss draw, then delivery.
    delivered = tuple(load.items())
    ops.append([None, None, None, Outcome(
        counters=counters.sent, load=delivered
    )])
    rr = tuple(rr)
    dest_addr = plan.dest.addr
    slot = rr.index(dest_addr) + 1 if dest_addr in rr else None
    # Other addresses of the destination's /24 (``same_slash24``), each
    # once, in stamping order.
    net24 = dest_addr >> 8
    inprefix: List[int] = []
    for addr in rr:
        if addr >> 8 == net24 and addr != dest_addr and addr not in inprefix:
            inprefix.append(addr)
    return Template(tuple(ops), Outcome(
        replied=True,
        responded=True,
        reply_has_rr=has_options,
        rr=rr,
        dest_slot=slot,
        inprefix=tuple(inprefix),
        counters=counters.delivered,
        load=delivered,
    ))
