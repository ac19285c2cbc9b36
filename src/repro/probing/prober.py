"""The prober: this repository's scamper.

Every measurement the paper issues exists here as a method:

* :meth:`Prober.ping` — plain ICMP echo rounds (the USC study);
* :meth:`Prober.ping_rr` — ping with the Record Route option, with a
  configurable initial TTL (§4.2) and slot count;
* :meth:`Prober.ping_rr_udp` — UDP to a high port with RR enabled, to
  harvest quoted headers from port-unreachable errors (§3.3);
* :meth:`Prober.traceroute` — one ICMP probe per TTL (§3.5, §3.6).

Probes are serialised to real packet bytes and replies parsed back
from bytes, so the wire formats in :mod:`repro.net` are exercised by
every single measurement. Pacing advances the simulated clock by
``1/pps`` per probe, which is what router token buckets see.

A locally-filtered VP (site firewall drops options packets) sends
plain pings fine but gets nothing back for any probe carrying options
— the paper's "filtered locally" case.

Surveys and experiments probe in batches: :meth:`Prober.probe_batch_rows`
(ping-RR) and :meth:`Prober.probe_batch_ping` (ping) replay one VP's
sequence through compiled stamp plans, a paced batch at a chosen pps.
"""

from __future__ import annotations

from collections import Counter as _Tally
from operator import attrgetter
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_TIME_EXCEEDED,
    CODE_PORT_UNREACH,
    IcmpDecodeError,
    IcmpEcho,
    IcmpError,
    ICMP_ECHO_REQUEST,
    parse_icmp,
)
from repro.net.options import RR_MAX_SLOTS, RecordRouteOption
from repro.net.packet import (
    DEFAULT_TTL,
    IPv4Packet,
    PROTO_ICMP,
    PROTO_UDP,
    PacketDecodeError,
)
from repro.net.udp import HIGH_PORT_FLOOR, UdpDatagram
from repro.net.timestamp import TimestampOption, TsFlag
from repro.obs.metrics import REGISTRY
from repro.obs.spans import TRACER as _TRACER
from repro.probing.results import (
    PingResult,
    RRPingResult,
    RRUdpResult,
    TracerouteResult,
    TsPingResult,
)
from repro.probing.vantage import VantagePoint
from repro.net.addr import same_slash24
from repro.sim.network import Network
from repro.sim.stampplan import KIND_PING, KIND_RR, Outcome
from repro.topology.hitlist import Destination

__all__ = ["Prober", "DEFAULT_PPS"]

#: The paper's main-study probing rate (§3.1).
DEFAULT_PPS = 20.0

#: Abort a traceroute after this many consecutive silent hops.
_GAP_LIMIT = 6

#: Upper bound on the per-(network, probe-type) metrics cache. Probe
#: types are a small closed set, but fixtures that re-point one prober
#: at many networks would otherwise grow the cache without limit.
_MX_CACHE_MAX = 64

#: The shared outcome of a probe that never reaches the network. A
#: locally-filtered VP's site firewall eats every options probe it
#: "sends", so no counter moves and no draw is consumed (the walk's
#: early return).
_SILENT = Outcome()

#: A flap-window bound no send time reaches.
_NEVER = float("inf")

_counters_of = attrgetter("counters")


def _walk_rr(prober, vp, addr, slots, ttl, count, pps) -> Outcome:
    """One ping-RR walked hop-by-hop, in the replay's outcome shape.

    A probe :meth:`Prober._resolve_targets` pairs with ``None`` walks;
    wrapping its :class:`RRPingResult` lets survey code consume one
    shape. Counters were already incremented inline by the walk, so
    the outcome carries none.
    """
    result = prober.ping_rr(vp, addr, slots=slots, ttl=ttl, pps=pps)
    inprefix: List[int] = []
    seen = set()
    for hop in result.rr_hops:
        if hop != addr and hop not in seen and same_slash24(hop, addr):
            seen.add(hop)
            inprefix.append(hop)
    return Outcome(
        responded=result.responded,
        reply_has_rr=result.reply_has_rr,
        rr=tuple(result.rr_hops),
        dest_slot=result.dest_slot(),
        inprefix=tuple(inprefix),
        ttl_exceeded=result.ttl_exceeded,
        error_source=result.error_source,
        quoted=tuple(result.quoted_rr_hops),
    )


def _walk_ping(prober, vp, addr, slots, ttl, count, pps) -> PingResult:
    return prober.ping(vp, addr, count=count, pps=pps)


class _Kind:
    """One replayable probe kind: what the replay loop reads of it.

    ``code`` keys its templates (``KIND_RR`` or ``KIND_PING``),
    ``ptype`` labels its metrics and span events, ``options`` says
    whether it carries an IP option (which a locally-filtered VP's
    firewall eats), and ``walk`` sends one target's probes hop-by-hop
    and returns the kind's own result.
    """

    __slots__ = ("code", "ptype", "options", "walk")

    def __init__(self, code: int, ptype: str, options: bool, walk) -> None:
        self.code = code
        self.ptype = ptype
        self.options = options
        self.walk = walk


_RR = _Kind(KIND_RR, "rr", True, _walk_rr)
_PING = _Kind(KIND_PING, "ping", False, _walk_ping)


class _ProbeMetrics:
    """Pre-resolved registry children for one (network, probe-type).

    Resolving labels once per type keeps the per-probe cost at plain
    bound-method increments — no label lookups, no allocations.
    """

    __slots__ = ("probes", "replies", "timeouts", "rtt")

    def __init__(self, net_id: str, ptype: str) -> None:
        self.probes = REGISTRY.counter(
            "probe_sent_total",
            "Probes issued, by probe type.",
            ("net", "type"),
        ).labels(net_id, ptype)
        self.replies = REGISTRY.counter(
            "probe_replies_total",
            "Probe replies successfully parsed, by probe type.",
            ("net", "type"),
        ).labels(net_id, ptype)
        self.timeouts = REGISTRY.counter(
            "probe_timeouts_total",
            "Probes that produced no (parseable) reply, by probe type.",
            ("net", "type"),
        ).labels(net_id, ptype)
        self.rtt = REGISTRY.histogram(
            "probe_rtt_sim_seconds",
            "Sim-clock seconds from probe issue (pacing included) to "
            "reply; pacing-dominated until propagation delay is modeled.",
            ("net", "type"),
        ).labels(net_id, ptype)


class Prober:
    """Issues probes from vantage points through a simulated network."""

    def __init__(self, network: Network, default_pps: float = DEFAULT_PPS):
        if default_pps <= 0:
            raise ValueError(f"pps must be positive: {default_pps}")
        self.network = network
        self.default_pps = default_pps
        #: The walk-as-reference switch, read only by
        #: :meth:`_resolve_targets`: off, every batch probe walks
        #: hop-by-hop instead of replaying a compiled stamp plan. The
        #: bytes are identical either way; the parity tests and the
        #: survey-scale benchmark's legacy leg flip it, in-process.
        self.batching = True
        self._ident = 0
        self._seq = 0
        #: Per-probe span events are sampled: 0 (default) records
        #: none; N records one event per N probes onto the innermost
        #: open span. Costs one falsy check per probe when off.
        self.span_sample = 0
        self._span_seen = 0
        #: (net_id, probe type) -> pre-resolved registry children.
        #: Keyed by the network's *label value*, not the object, so a
        #: prober re-pointed at a new ``Network`` (or back at an old
        #: one) always counts against the right ``net`` label and
        #: never keeps the previous network alive through a stale
        #: reference. Bounded: see :data:`_MX_CACHE_MAX`.
        self._mx: dict = {}

    # -- plumbing ---------------------------------------------------------

    def _next_ids(self) -> tuple:
        self._ident = (self._ident + 1) & 0xFFFF
        self._seq = (self._seq + 1) & 0xFFFF
        return self._ident, self._seq

    def _metrics_for(self, ptype: str) -> _ProbeMetrics:
        """Per-(network, probe-type) registry children.

        The key includes ``network.net_id`` so swapping ``.network``
        (as some fixtures do) re-resolves the children under the new
        label instead of silently incrementing the old network's
        series. Growth is bounded: the cache is cleared wholesale if a
        pathological caller cycles through many networks (children
        re-resolve from the registry in O(1), so this is cheap).
        """
        key = (self.network.net_id, ptype)
        metrics = self._mx.get(key)
        if metrics is None:
            if len(self._mx) >= _MX_CACHE_MAX:
                self._mx.clear()
            metrics = _ProbeMetrics(self.network.net_id, ptype)
            self._mx[key] = metrics
        return metrics

    def _roundtrip(
        self, pkt: IPv4Packet, pps: Optional[float], ptype: str = "ping"
    ) -> Optional[IPv4Packet]:
        """Pace, serialise, inject, and parse any reply."""
        metrics = self._metrics_for(ptype)
        rate = self.default_pps if pps is None else pps
        clock = self.network.clock
        start = clock.now
        clock.advance(1.0 / rate)
        metrics.probes.inc()
        reply: Optional[IPv4Packet] = None
        reply_bytes = self.network.send_wire(pkt.to_bytes())
        if reply_bytes is None:
            metrics.timeouts.inc()
        else:
            try:
                reply = IPv4Packet.from_bytes(reply_bytes)
            except PacketDecodeError:  # pragma: no cover - defensive
                metrics.timeouts.inc()
            else:
                metrics.replies.inc()
                metrics.rtt.observe(clock.now - start)
        if self.span_sample and _TRACER.enabled:
            self._span_seen += 1
            if self._span_seen >= self.span_sample:
                self._span_seen = 0
                _TRACER.event(
                    "probe",
                    sim=clock.now,
                    ptype=ptype,
                    dst=pkt.dst,
                    replied=reply is not None,
                )
        return reply

    # -- plain ping ---------------------------------------------------------

    def ping(
        self,
        vp: VantagePoint,
        dst: int,
        count: int = 3,
        pps: Optional[float] = None,
    ) -> PingResult:
        """Send ``count`` plain Echo Requests; stop early on a reply."""
        replies = 0
        reply_ident: Optional[int] = None
        reply_time: Optional[float] = None
        sent = 0
        for _ in range(count):
            ident, seq = self._next_ids()
            pkt = IPv4Packet(
                src=vp.addr,
                dst=dst,
                proto=PROTO_ICMP,
                ttl=DEFAULT_TTL,
                ident=ident,
                payload=IcmpEcho(ICMP_ECHO_REQUEST, ident, seq).to_bytes(),
            )
            sent += 1
            reply = self._roundtrip(pkt, pps, "ping")
            if reply is None or reply.proto != PROTO_ICMP:
                continue
            try:
                kind, _message = parse_icmp(reply.payload)
            except IcmpDecodeError:
                continue
            if kind == ICMP_ECHO_REPLY:
                replies += 1
                reply_ident = reply.ident
                reply_time = self.network.clock.now
                break
        return PingResult(
            vp_name=vp.name,
            dst=dst,
            sent=sent,
            replies=replies,
            reply_ident=reply_ident,
            reply_time=reply_time,
        )

    # -- ping-RR ---------------------------------------------------------

    def ping_rr(
        self,
        vp: VantagePoint,
        dst: int,
        slots: int = RR_MAX_SLOTS,
        ttl: int = DEFAULT_TTL,
        pps: Optional[float] = None,
    ) -> RRPingResult:
        """One Echo Request carrying a Record Route option."""
        if vp.local_filtered:
            return RRPingResult(
                vp_name=vp.name, dst=dst, responded=False, rr_slots=slots
            )
        ident, seq = self._next_ids()
        pkt = IPv4Packet(
            src=vp.addr,
            dst=dst,
            proto=PROTO_ICMP,
            ttl=ttl,
            ident=ident,
            options=[RecordRouteOption(slots=slots)],
            payload=IcmpEcho(ICMP_ECHO_REQUEST, ident, seq).to_bytes(),
        )
        reply = self._roundtrip(pkt, pps, "rr")
        if reply is None or reply.proto != PROTO_ICMP:
            return RRPingResult(
                vp_name=vp.name, dst=dst, responded=False, rr_slots=slots
            )
        try:
            kind, message = parse_icmp(reply.payload)
        except IcmpDecodeError:  # pragma: no cover - defensive
            return RRPingResult(
                vp_name=vp.name, dst=dst, responded=False, rr_slots=slots
            )
        if kind == ICMP_ECHO_REPLY:
            rr = reply.record_route
            return RRPingResult(
                vp_name=vp.name,
                dst=dst,
                responded=True,
                rr_hops=list(rr.recorded) if rr is not None else [],
                rr_slots=slots,
                reply_has_rr=rr is not None,
            )
        if kind == ICMP_TIME_EXCEEDED and isinstance(message, IcmpError):
            quoted = message.quoted_packet()
            quoted_rr = quoted.record_route if quoted is not None else None
            return RRPingResult(
                vp_name=vp.name,
                dst=dst,
                responded=False,
                rr_slots=slots,
                ttl_exceeded=True,
                error_source=reply.src,
                quoted_rr_hops=(
                    list(quoted_rr.recorded) if quoted_rr is not None else []
                ),
            )
        return RRPingResult(
            vp_name=vp.name, dst=dst, responded=False, rr_slots=slots
        )

    # -- ping-TS ---------------------------------------------------------

    def ping_ts(
        self,
        vp: VantagePoint,
        dst: int,
        flag: TsFlag = TsFlag.TS_ONLY,
        slots: Optional[int] = None,
        prespecified: Optional[Sequence[int]] = None,
        pps: Optional[float] = None,
    ) -> TsPingResult:
        """One Echo Request carrying an IP Timestamp option.

        With ``flag=TS_PRESPEC`` pass the addresses to prespecify; a
        filled slot in the result confirms the named device sits on the
        round-trip path (reverse traceroute's on-path test [11]).
        """
        if vp.local_filtered:
            return TsPingResult(
                vp_name=vp.name, dst=dst, responded=False, flag=int(flag)
            )
        if flag is TsFlag.TS_PRESPEC:
            if not prespecified:
                raise ValueError("TS_PRESPEC needs prespecified addresses")
            option = TimestampOption.prespecified(list(prespecified))
        else:
            default_slots = 9 if flag is TsFlag.TS_ONLY else 4
            option = TimestampOption(
                flag=flag, slots=slots or default_slots
            )
        ident, seq = self._next_ids()
        pkt = IPv4Packet(
            src=vp.addr,
            dst=dst,
            proto=PROTO_ICMP,
            ttl=DEFAULT_TTL,
            ident=ident,
            options=[option],
            payload=IcmpEcho(ICMP_ECHO_REQUEST, ident, seq).to_bytes(),
        )
        reply = self._roundtrip(pkt, pps, "ts")
        if reply is None or reply.proto != PROTO_ICMP:
            return TsPingResult(
                vp_name=vp.name, dst=dst, responded=False, flag=int(flag)
            )
        try:
            kind, _message = parse_icmp(reply.payload)
        except IcmpDecodeError:  # pragma: no cover - defensive
            kind = None
        if kind != ICMP_ECHO_REPLY:
            return TsPingResult(
                vp_name=vp.name, dst=dst, responded=False, flag=int(flag)
            )
        reply_ts = reply.timestamp_option
        return TsPingResult(
            vp_name=vp.name,
            dst=dst,
            responded=True,
            flag=int(flag),
            entries=(
                [list(entry) for entry in reply_ts.entries]
                if reply_ts is not None
                else []
            ),
            overflow=reply_ts.overflow if reply_ts is not None else 0,
            reply_has_ts=reply_ts is not None,
        )

    # -- ping-RRudp ---------------------------------------------------------

    def ping_rr_udp(
        self,
        vp: VantagePoint,
        dst: int,
        slots: int = RR_MAX_SLOTS,
        pps: Optional[float] = None,
    ) -> RRUdpResult:
        """UDP to a high port with RR enabled; reads the quoted error."""
        if vp.local_filtered:
            return RRUdpResult(vp_name=vp.name, dst=dst, got_unreachable=False)
        ident, seq = self._next_ids()
        datagram = UdpDatagram(
            src_port=40000 + (ident % 20000),
            dst_port=HIGH_PORT_FLOOR + (seq % 1000),
        )
        pkt = IPv4Packet(
            src=vp.addr,
            dst=dst,
            proto=PROTO_UDP,
            ttl=DEFAULT_TTL,
            ident=ident,
            options=[RecordRouteOption(slots=slots)],
            payload=datagram.to_bytes(vp.addr, dst),
        )
        reply = self._roundtrip(pkt, pps, "rrudp")
        if reply is None or reply.proto != PROTO_ICMP:
            return RRUdpResult(vp_name=vp.name, dst=dst, got_unreachable=False)
        try:
            kind, message = parse_icmp(reply.payload)
        except IcmpDecodeError:  # pragma: no cover - defensive
            return RRUdpResult(vp_name=vp.name, dst=dst, got_unreachable=False)
        if (
            kind != ICMP_DEST_UNREACH
            or not isinstance(message, IcmpError)
            or message.code != CODE_PORT_UNREACH
        ):
            return RRUdpResult(vp_name=vp.name, dst=dst, got_unreachable=False)
        quoted = message.quoted_packet()
        quoted_rr = quoted.record_route if quoted is not None else None
        return RRUdpResult(
            vp_name=vp.name,
            dst=dst,
            got_unreachable=True,
            quoted_rr_hops=(
                list(quoted_rr.recorded) if quoted_rr is not None else []
            ),
            quoted_slots=quoted_rr.slots if quoted_rr is not None else None,
            error_source=reply.src,
        )

    # -- traceroute ---------------------------------------------------------

    def traceroute(
        self,
        vp: VantagePoint,
        dst: int,
        max_ttl: int = 32,
        attempts: int = 2,
        pps: Optional[float] = None,
    ) -> TracerouteResult:
        """ICMP traceroute: one (retryable) probe per TTL."""
        hops: List[Optional[int]] = []
        gap = 0
        for ttl in range(1, max_ttl + 1):
            hop_addr: Optional[int] = None
            reached = False
            for _attempt in range(attempts):
                ident, seq = self._next_ids()
                pkt = IPv4Packet(
                    src=vp.addr,
                    dst=dst,
                    proto=PROTO_ICMP,
                    ttl=ttl,
                    ident=ident,
                    payload=IcmpEcho(
                        ICMP_ECHO_REQUEST, ident, seq
                    ).to_bytes(),
                )
                reply = self._roundtrip(pkt, pps, "trace")
                if reply is None or reply.proto != PROTO_ICMP:
                    continue
                try:
                    kind, _message = parse_icmp(reply.payload)
                except IcmpDecodeError:  # pragma: no cover - defensive
                    continue
                if kind == ICMP_ECHO_REPLY:
                    hop_addr = reply.src
                    reached = True
                elif kind == ICMP_TIME_EXCEEDED:
                    hop_addr = reply.src
                if hop_addr is not None:
                    break
            hops.append(hop_addr)
            if reached:
                return TracerouteResult(
                    vp_name=vp.name, dst=dst, hops=hops, reached=True
                )
            gap = gap + 1 if hop_addr is None else 0
            if gap >= _GAP_LIMIT:
                break
        return TracerouteResult(
            vp_name=vp.name, dst=dst, hops=hops, reached=False
        )

    # -- batched dataplane -------------------------------------------------

    def _replay(
        self,
        vp: VantagePoint,
        kind: _Kind,
        addrs: Sequence[int],
        resolved: Sequence[Optional[Destination]],
        slots: int,
        ttl: int,
        count: int,
        pps: Optional[float],
        heartbeat: Optional[Callable[[], None]],
    ) -> Tuple[list, list, list, list]:
        """Replay one VP's probes of one kind through compiled plans.

        ``addrs`` and ``resolved`` come from :meth:`_resolve_targets`:
        an address paired with its hitlist ``Destination`` replays that
        plan, one paired with ``None`` walks hop-by-hop (``kind.walk``).
        Each target gets up to ``count`` attempts and stops at the
        first response. Every replayed probe consumes exactly the clock
        advance, token-bucket draws, and loss-stream draws the walk
        would, in the same order, so mixing replayed and walked probes
        within one batch cannot shift a single byte.

        Returns four lists, ``(outcomes, sents, ats, plans)``, with one
        entry per target: the last attempt's outcome, the attempts
        sent, the clock after the last one and its plan. A target that
        never replays (walked, or eaten by a locally-filtered VP's
        firewall) has the kind's own result as its outcome and ``None``
        in the other three. Parallel lists rather than a row tuple per
        target keep ping-RR's hot loop at appends.

        Per attempt the loop runs the gates and lists the outcome (and
        a reply's RTT); everything else is per batch. The template key
        is rebuilt only when the clock reaches the next flap-window
        bound (never without an injector), and with no injector or
        tracer attached a loss gate draws the plain lottery inline.
        Counters, RTTs, ident/seq draws and per-AS options load are
        folded once per batch by :meth:`_fold`, in a ``finally``: a
        supervision heartbeat raising mid-batch (injected hangs)
        leaves exactly the completed probes' state behind, as the walk
        would.
        """
        if kind.options and vp.local_filtered:
            for _addr in addrs:
                if heartbeat is not None:
                    heartbeat()
            none = [None] * len(addrs)
            return [_SILENT] * len(addrs), none, none, none
        began = perf_counter()
        network = self.network
        outcomes: list = []
        sents: list = []
        ats: list = []
        used: list = []
        out_append = outcomes.append
        sent_append = sents.append
        at_append = ats.append
        used_append = used.append
        src_asn = vp.addr >> 16
        metrics = self._metrics_for(kind.ptype)
        clock = network.clock
        injector = network._injector
        lost = network._lost
        # Network._lost's plain lottery, drawn inline when neither an
        # injector (burst overlay) nor a tracer (drop events) hooks it.
        plain_loss = injector is None and network._tracer is None
        loss_draw = network._loss_rng.random
        loss_prob = network.params.loss_prob
        loss_on = not loss_prob <= 0  # _lost's own test: NaN draws
        dt = 1.0 / (self.default_pps if pps is None else pps)
        span_on = bool(self.span_sample) and _TRACER.enabled
        plans = network._plans
        code = kind.code
        # The template key holds until the send time reaches ``until``:
        # for good without an injector, else up to the next flap-window
        # bound (``FaultInjector.flap_span``).
        tkey = (code, slots, ttl, None)
        until = _NEVER if injector is None else -_NEVER
        walk = kind.walk
        attempts = range(1, count + 1)
        misses = losses = 0
        fates: list = []
        fate_append = fates.append
        rtts: list = []
        rtt_append = rtts.append
        # A replayed target's values; with no attempts (count < 1)
        # every one keeps these.
        sent, outcome, plan = 0, _SILENT, None
        # The sim clock stays in a local for the whole batch (same
        # float additions as SimClock.advance, so bit-equal times) and
        # is written back around walked probes and in the finally: an
        # exception mid-batch leaves the clock exactly where the walk
        # would have.
        now = clock.now
        try:
            for addr, dest in zip(addrs, resolved):
                if heartbeat is not None:
                    heartbeat()
                if dest is None:
                    clock._now = now
                    out_append(walk(self, vp, addr, slots, ttl, count, pps))
                    now = clock.now
                    sent_append(None)
                    at_append(None)
                    used_append(None)
                    continue
                key = (src_asn, addr)
                for sent in attempts:
                    start = now
                    now += dt
                    plan = plans.get(key)
                    if plan is None:
                        plan = network._plan_miss(key, src_asn, dest)
                        misses += 1
                    else:
                        plans.move_to_end(key)
                    if now >= until:
                        flapset, until = injector.flap_span(now)
                        tkey = (code, slots, ttl, flapset or None)
                    if tkey == plan.fast_key:
                        template = plan.fast_tpl
                    else:
                        template = plan.template(
                            network, code, slots, ttl, tkey[3]
                        )
                    outcome = template.final
                    ops = template.ops
                    if ops:
                        for op in ops:
                            router = op[0]
                            if router is None:
                                if plain_loss:
                                    if loss_on and loss_draw() < loss_prob:
                                        losses += 1
                                        outcome = op[3]
                                        break
                                elif lost():
                                    outcome = op[3]
                                    break
                            else:
                                limiter = op[2]
                                if limiter is None:
                                    limiter = network._limiter_of(
                                        router, op[1]
                                    )
                                    op[2] = limiter
                                if not limiter.allow(now):
                                    outcome = op[3]
                                    break
                    fate_append(outcome)
                    if outcome.replied:
                        rtt_append(now - start)
                    if span_on:
                        self._span_seen += 1
                        if self._span_seen >= self.span_sample:
                            self._span_seen = 0
                            _TRACER.event(
                                "probe",
                                sim=now,
                                ptype=kind.ptype,
                                dst=addr,
                                replied=outcome.replied,
                            )
                    if outcome.responded:
                        break
                out_append(outcome)
                sent_append(sent)
                at_append(now)
                used_append(plan)
        finally:
            clock._now = now
            if fates:
                self._fold(metrics, network, fates, rtts, misses, losses)
            network._replay_seconds.inc(perf_counter() - began)
        return outcomes, sents, ats, used

    def _fold(
        self,
        metrics: _ProbeMetrics,
        network: Network,
        fates: list,
        rtts: list,
        misses: int,
        losses: int,
    ) -> None:
        """One batch's deferred accounting, applied as single adds.

        ``fates`` lists each replayed attempt's :class:`Outcome` and
        ``rtts`` each reply's RTT, in probe order; ``misses`` counts
        the attempts that compiled their plan and ``losses`` the
        inlined loss-lottery drops. Outcomes share about ten interned
        counter tuples, so one tally of the tuples gives every counter
        its add; the RTT histogram takes the batch in one call that
        still sums in probe order; the options load is tallied per
        outcome and expanded on the next read
        (:meth:`Network.add_replayed_load`). All of it is commutative
        integer arithmetic, except the RTT sum, so deferring it cannot
        change any total the per-probe path produces, only the number
        of registry increments.
        """
        n = len(fates)
        replied_n = len(rtts)
        metrics.probes.inc(n)
        if replied_n:
            metrics.replies.inc(replied_n)
            metrics.rtt.observe_all(rtts)
        if n > replied_n:
            metrics.timeouts.inc(n - replied_n)
        # Each replayed probe would have drawn one (ident, seq) pair.
        self._ident = (self._ident + n) & 0xFFFF
        self._seq = (self._seq + n) & 0xFFFF
        network._plan_hits.inc(n - misses)
        network._plan_misses.inc(misses)
        network._plan_replays.inc(n)
        if losses:
            network._mx.dropped_loss.inc(losses)
        for counters, count in _Tally(map(_counters_of, fates)).items():
            for counter in counters:
                counter.inc(count)
        network.add_replayed_load(fates)

    def _resolve_targets(
        self, vp: VantagePoint, dests: Sequence[Destination]
    ) -> Tuple[List[int], List[Optional[Destination]]]:
        """Decide, per probed destination, whether it replays or walks.

        The one place that picks the dataplane. Returns two aligned
        lists, the probed addresses and what each resolved to. An
        address paired with its hitlist ``Destination`` replays that
        destination's compiled plan; one paired with ``None`` walks
        hop-by-hop. ``None`` goes to every address when ``batching`` is
        off (the walk is the reference) or when the source AS is
        outside the graph (the walk drops such a packet at injection,
        which plans don't model), and to any address outside the
        hitlist (routers or voids).

        Resolution goes through the hitlist's address index, the same
        lookup ``send_packet`` performs, so a plan is always compiled
        for the *stored* destination, even if a caller hands in a
        look-alike.
        """
        network = self.network
        addrs = [dest.addr for dest in dests]
        if not self.batching or vp.addr >> 16 not in network.graph:
            return addrs, [None] * len(addrs)
        return addrs, list(map(network.hitlist._by_addr.get, addrs))

    def probe_batch_rows(
        self,
        vp: VantagePoint,
        dests: Sequence[Destination],
        slots: int = RR_MAX_SLOTS,
        ttl: int = DEFAULT_TTL,
        pps: Optional[float] = None,
        heartbeat: Optional[Callable[[], None]] = None,
        round_no: int = 0,
    ) -> List[Tuple[Destination, Outcome]]:
        """The survey-facing batch: raw outcomes, no result objects.

        Returns ``(dest, outcome)`` pairs in probe order; outcomes
        carry precomputed ``rr_responsive`` / ``dest_slot`` /
        ``inprefix`` so the survey loop does dict appends and nothing
        else. Walked probes (see :meth:`_resolve_targets`) come back
        wrapped in the same shape.

        ``round_no`` is the caller's retry round; misbehavior specs
        with ``sticky=False`` re-roll their hit decision per round, so
        a re-probe can legitimately come back clean.

        Misbehavior transform: when a :class:`FaultInjector` with
        misbehavior specs is attached, the finished pairs are run
        through :meth:`FaultInjector.misbehave_pairs` — a single choke
        point after every probe, replayed or walked, and after all
        deferred accounting, so the taint is byte-identical either way
        and never perturbs counters.
        """
        addrs, resolved = self._resolve_targets(vp, dests)
        outcomes = self._replay(
            vp, _RR, addrs, resolved, slots, ttl, 1, pps, heartbeat
        )[0]
        pairs = list(zip(dests, outcomes))
        injector = self.network._injector
        if injector is not None and injector.has_misbehavior:
            pairs = injector.misbehave_pairs(vp.name, pairs, slots, round_no)
        return pairs

    def probe_batch_ping(
        self,
        vp: VantagePoint,
        dests: Sequence[Destination],
        count: int = 3,
        pps: Optional[float] = None,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> List[PingResult]:
        """Batched plain-ping rounds over hitlist destinations: up to
        ``count`` Echo Requests each, stopping at the first reply."""
        addrs, resolved = self._resolve_targets(vp, dests)
        rows = self._replay(
            vp, _PING, addrs, resolved, 0, DEFAULT_TTL, count, pps,
            heartbeat,
        )
        results: List[PingResult] = []
        for addr, outcome, sent, at, plan in zip(addrs, *rows):
            if isinstance(outcome, PingResult):
                results.append(outcome)  # walked
            elif outcome.responded:
                results.append(PingResult(
                    vp_name=vp.name,
                    dst=addr,
                    sent=sent,
                    replies=1,
                    reply_ident=plan.host.ipid(at),
                    reply_time=at,
                ))
            else:
                results.append(PingResult(
                    vp_name=vp.name, dst=addr, sent=sent, replies=0
                ))
        return results
