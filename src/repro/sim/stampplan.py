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

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.net.addr import same_slash24
from repro.net.options import RecordRouteOption
from repro.topology.routers import Hop, RouterNode

__all__ = [
    "KIND_RR",
    "KIND_PING",
    "Outcome",
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


class _Walker:
    """One round trip's symbolic walk state (compile-time only).

    Accumulates the replay ops, the per-AS options load, and the RR
    stamp list while resolving each leg's earliest deterministic
    stop. The reverse leg carries on from the forward one's state,
    with ``rr`` swapped for the Echo Reply's Record Route and
    ``flapset`` for the reverse restriction.
    """

    __slots__ = ("network", "mx", "flapset", "slots", "ops", "load", "rr")

    def __init__(
        self, network, slots: int, flapset: Optional[FrozenSet]
    ) -> None:
        self.network = network
        self.mx = network._mx
        self.flapset = flapset
        self.slots = slots
        self.ops: List[list] = []
        self.load: Dict[int, int] = {}
        self.rr: List[int] = []

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
    """The outcome for a leg's deterministic stop, forward or reverse;
    appends the error-reply loss gate when a Time Exceeded fires."""
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
    # stamps accumulated strictly before the expiry hop — on the
    # reverse leg, the reply's Record Route so far. The error reply
    # itself faces one loss draw.
    walker.ops.append([None, None, None, walker.timeout(mx.ttl_exceeded_sent)])
    return Outcome(
        replied=True,
        ttl_exceeded=True,
        error_source=icmp_addr,
        quoted=tuple(walker.rr),
        counters=(mx.sent, mx.ttl_exceeded_sent),
        load=tuple(walker.load.items()),
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
    hops: a full segment folds in as one load-tuple merge, a
    stamp-tuple extend, and its precompiled rate loci; only a stop
    segment is truncated (via the memoised ``SegmentPlan.partial``).

    ``flapset`` is restricted per leg (:func:`crossed_flaps`). A flow
    whose forward leg crosses no flapped adjacency gets its placid
    template itself unless its reply crosses one; a plan whose reverse
    leg is still unresolved has never reached an Echo Reply, so
    resolving it is never needed to decide.
    """
    fwd = plan.fwd
    fwd_flaps = crossed_flaps(flapset, fwd)
    placid = None
    if flapset and fwd_flaps is None:
        placid = plan.template(network, kind, slots, ttl, None)
        rev = plan.rev
        if rev is _UNRESOLVED or crossed_flaps(flapset, rev) is None:
            return placid
    mx = network._mx
    if fwd is None:
        return Template((), Outcome(counters=(mx.sent, mx.dropped_no_route)))
    walker = _Walker(network, slots, fwd_flaps)
    ops = walker.ops
    has_rr = kind == KIND_RR
    host = plan.host
    stop_kind, stop_info = walker.leg(fwd, ttl, has_rr)
    if stop_kind != _ARRIVE:
        # The stop outcome first: a Time Exceeded appends its loss gate.
        final = _stop_outcome(walker, stop_kind, stop_info)
    elif host.silent_hops and (
        ttl - sum(len(sp.decr) for sp in fwd) <= host.silent_hops
    ):
        final = walker.timeout(mx.dropped_ttl)
    elif has_rr and host.drops_options:
        final = walker.timeout(mx.dropped_host)
    else:
        # Host-arrival loss draw (``_deliver_to_host`` calls
        # ``_lost()`` before the protocol dispatch, unresponsive hosts
        # included).
        ops.append([None, None, None, walker.timeout()])
        final = (
            None if host.ping_responsive
            else walker.timeout(mx.dropped_host)
        )
    if final is not None:
        # Stopped before the reply: with a placid forward leg, the
        # reverse leg's flaps cannot touch this flow.
        return placid or Template(tuple(ops), final)

    # -- the Echo Reply -----------------------------------------------------
    has_options = False
    if has_rr:
        reply_rr = host.stamp_reply(
            RecordRouteOption(slots=slots, recorded=walker.rr)
        )
        has_options = reply_rr is not None
        walker.rr = reply_rr.recorded if has_options else []
    rev = plan.reverse(network)
    if rev is None:
        return Template(tuple(ops), walker.timeout(mx.dropped_no_route))
    walker.flapset = crossed_flaps(flapset, rev)
    stop_kind, stop_info = walker.leg(rev, 64, has_options)
    if stop_kind != _ARRIVE:
        final = _stop_outcome(walker, stop_kind, stop_info)
        return Template(tuple(ops), final)
    # Reverse-arrival loss draw, then delivery.
    ops.append([None, None, None, walker.timeout()])
    rr = tuple(walker.rr)
    dest_addr = plan.dest.addr
    slot: Optional[int] = None
    for index, addr in enumerate(rr):
        if addr == dest_addr:
            slot = index + 1
            break
    seen = set()
    inprefix: List[int] = []
    for addr in rr:
        if (
            addr != dest_addr
            and addr not in seen
            and same_slash24(addr, dest_addr)
        ):
            seen.add(addr)
            inprefix.append(addr)
    return Template(tuple(ops), Outcome(
        replied=True,
        responded=True,
        reply_has_rr=has_options,
        rr=rr,
        dest_slot=slot,
        inprefix=tuple(inprefix),
        counters=(mx.sent, mx.delivered),
        load=tuple(walker.load.items()),
    ))
