"""The dataplane: walking packets hop-by-hop across the simulated Internet.

:class:`Network` is where every mechanism the paper measures actually
executes:

* forward and reverse paths come from valley-free routing (and can be
  asymmetric, because each direction uses its own routing tree);
* every traversed router applies its policy — TTL decrement, options
  filtering, slow-path rate limiting against the simulated clock, and
  RR stamping of its outgoing interface while slots remain;
* destination hosts answer pings, copy the RR option into Echo Replies
  (stamping themselves, an alias, or nothing, per host), and emit
  port-unreachable errors with quoted headers for ``ping-RRudp``;
* Echo Replies carrying the copied RR option walk the reverse path,
  where routers keep stamping into the remaining slots — the mechanism
  reverse traceroute builds on [11] — and remain subject to filters;
* TTL expiry produces Time Exceeded errors quoting the offending
  header, RR contents included, which is what makes §4.2's TTL-limited
  probing able to recover measurements from expired probes.

Two documented shortcuts keep the walk affordable: ICMP *error*
messages (which never carry options themselves, so no mechanism under
study acts on them) are delivered straight back to the prober, and
control-plane pings to router interfaces (used only by alias
resolution) are answered without a path walk.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter as _Tally, OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.net.addr import Prefix
from repro.net.icmp import (
    ICMP_ECHO_REQUEST,
    IcmpDecodeError,
    IcmpEcho,
    IcmpError,
)
from repro.net.packet import IPv4Packet, PROTO_ICMP, PROTO_UDP
from repro.net.udp import HIGH_PORT_FLOOR, UdpDatagram, UdpDecodeError
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    REGISTRY,
    dataplane_seconds_counter,
)
from repro.obs.trace import PacketTracer
from repro.rng import derive_seed, stable_u64
from repro.sim.clock import SimClock
from repro.sim.host import SimHost, build_host
from repro.sim.policies import RouterPolicy, SimParams, build_router_policy
from repro.sim.rate_limiter import BucketMetrics, TokenBucket
from repro.sim.stampplan import (
    OutcomeCounters,
    RoundTripPlan,
    SegmentPlan,
    compile_segment,
)
from repro.topology.generator import GeneratedTopology
from repro.topology.hitlist import Destination, Hitlist
from repro.topology.routers import Hop, RouterFabric, RouterNode
from repro.topology.routing import RoutingSystem

__all__ = ["NetworkStats", "Network", "MIN_QUOTE", "FULL_QUOTE"]

#: Quote sizes: the RFC 792 minimum and "the whole packet" [16].
MIN_QUOTE = 8
FULL_QUOTE = 1 << 16

#: Distinguishes each Network's series in the process-wide registry.
_NET_IDS = itertools.count()


class NetworkStats:
    """Drop/delivery counters, for tests and diagnostics.

    Formerly a plain dataclass of ints; now a *façade* over
    per-network counters in the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry`, keeping the exact
    attribute API (read ``stats.sent``, call ``stats.reset()``) while
    the registry remains the single source of truth for exporters and
    ``python -m repro stats``. ``reset()`` zeroes only the declared
    counter fields — never auxiliary attributes — so the façade can
    safely grow non-counter state later.

    Constructing ``NetworkStats()`` standalone (no registry children)
    still works and is backed by private, unregistered counters.
    """

    _FIELDS = (
        "sent",
        "delivered",
        "dropped_no_route",
        "dropped_filtered",
        "dropped_rate_limited",
        "dropped_ttl",
        "dropped_host",
        "dropped_loss",
        "dropped_fault",
        "ttl_exceeded_sent",
        "port_unreach_sent",
    )

    def __init__(
        self, children: Optional[Dict[str, Counter]] = None
    ) -> None:
        if children is None:
            children = {name: Counter() for name in self._FIELDS}
        self._children = children

    def __getattr__(self, name: str) -> int:
        try:
            return self.__dict__["_children"][name].value
        except KeyError:
            raise AttributeError(name) from None

    def reset(self) -> None:
        """Zero the declared counter fields (and nothing else)."""
        children = self._children
        for name in self._FIELDS:
            children[name].reset()

    @property
    def dropped_total(self) -> int:
        """All drops, across every cause."""
        children = self._children
        return sum(
            children[name].value
            for name in self._FIELDS
            if name.startswith("dropped_")
        )

    def to_dict(self) -> Dict[str, int]:
        children = self._children
        return {name: children[name].value for name in self._FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}={value}" for name, value in self.to_dict().items()
        )
        return f"NetworkStats({body})"


class _NetMetrics:
    """Hot-path bundle: one pre-resolved counter child per event.

    Resolved once per :class:`Network`; incrementing is a single
    bound-method call with no label lookup and no allocation.
    """

    __slots__ = NetworkStats._FIELDS

    def __init__(self, registry: MetricsRegistry, net_id: str) -> None:
        sent = registry.counter(
            "net_sent_total",
            "Packets injected into the simulated dataplane.",
            ("net",),
        )
        delivered = registry.counter(
            "net_delivered_total",
            "Reply packets delivered back to the prober.",
            ("net",),
        )
        dropped = registry.counter(
            "net_dropped_total",
            "Packets dropped in the dataplane, by cause.",
            ("net", "cause"),
        )
        icmp = registry.counter(
            "net_icmp_sent_total",
            "ICMP errors generated by the dataplane, by kind.",
            ("net", "kind"),
        )
        self.sent = sent.labels(net_id)
        self.delivered = delivered.labels(net_id)
        self.dropped_no_route = dropped.labels(net_id, "no_route")
        self.dropped_filtered = dropped.labels(net_id, "filtered")
        self.dropped_rate_limited = dropped.labels(net_id, "rate_limited")
        self.dropped_ttl = dropped.labels(net_id, "ttl")
        self.dropped_host = dropped.labels(net_id, "host")
        self.dropped_loss = dropped.labels(net_id, "loss")
        self.dropped_fault = dropped.labels(net_id, "fault")
        self.ttl_exceeded_sent = icmp.labels(net_id, "ttl_exceeded")
        self.port_unreach_sent = icmp.labels(net_id, "port_unreach")

    def as_children(self) -> Dict[str, Counter]:
        return {name: getattr(self, name) for name in self.__slots__}


# Walk outcomes.
_ARRIVED = 0
_DROPPED = 1
_ERROR = 2


class Network:
    """The simulated Internet's dataplane."""

    def __init__(
        self,
        topo: GeneratedTopology,
        routing: RoutingSystem,
        fabric: RouterFabric,
        hitlist: Hitlist,
        params: SimParams,
    ) -> None:
        self.topo = topo
        self.graph = topo.graph
        self.routing = routing
        self.fabric = fabric
        self.hitlist = hitlist
        self.params = params
        self.clock = SimClock()
        #: This network's label value in the process-wide registry.
        self.net_id = str(next(_NET_IDS))
        self.registry = REGISTRY
        self._mx = _NetMetrics(self.registry, self.net_id)
        self._outcome_counters = OutcomeCounters(self._mx)
        self.stats = NetworkStats(self._mx.as_children())
        #: Opt-in per-hop tracer; ``None`` keeps the walk allocation-free.
        self._tracer: Optional[PacketTracer] = None
        #: Opt-in fault injector (``repro.faults``); ``None`` keeps the
        #: dataplane fault-agnostic at the cost of one check per walk.
        self._injector = None
        #: Injectors' flapped-adjacency picks, per fault plan: they
        #: read the graph, so they go with the route caches.
        self._flap_picks: Dict = {}
        #: Current token-bucket refill scale (RateLimitStorm hook);
        #: installed on every live limiter and on new ones at creation.
        self._rate_scale = None
        self._bucket_metrics: Dict[str, BucketMetrics] = {}
        #: Per-router policies, keyed by router object identity (the
        #: fabric pins every router for the network's lifetime; the
        #: value re-pins it so the id can never be recycled). Identity
        #: keying keeps the segment compiler's per-hop lookup off the
        #: tuple-hashing path.
        self._policies: Dict[int, Tuple[RouterNode, RouterPolicy]] = {}
        self._limiters: Dict[Tuple, TokenBucket] = {}
        self._hosts: Dict[int, SimHost] = {}
        self._alias_owner: Dict[int, SimHost] = {}
        self._trunks: Dict[Tuple[int, int], Optional[Tuple[Hop, ...]]] = {}
        self._tails: Dict[int, Tuple[Hop, ...]] = {}
        #: Stamp-plan cache: (ingress AS, destination address) -> the
        #: compiled :class:`RoundTripPlan` the batch replay engine
        #: executes instead of the per-hop walk. A bounded LRU beside
        #: ``_trunks`` and ``_tails``, invalidated whenever they are.
        self._plans: "OrderedDict[Tuple[int, int], RoundTripPlan]" = (
            OrderedDict()
        )
        #: LRU bound for ``_plans``; tests shrink this to force
        #: evictions. Sized to hold a full survey's working set (every
        #: ingress AS x destination pair) at the benchmark scales —
        #: an evicted plan recompiles from warm segment plans, so
        #: overflowing is a throughput cliff, never a correctness one.
        self.plan_cache_cap = 262144
        #: Per-segment compiled plans, keyed by the *identity* of the
        #: cached hop tuple (trunks in ``_trunks``, tails in
        #: ``_tails``, access chains in ``_access_tails`` — all
        #: long-lived cache entries). The value keeps the segment
        #: tuple alive so its id can never be reused while the entry
        #: exists. This is where compilation amortises: the trunk
        #: shared by every destination behind an AS resolves once, not
        #: once per flow.
        self._seg_plans: Dict[int, Tuple[Tuple[Hop, ...], SegmentPlan]] = {}
        #: Reverse-access chains (the "access" hops of a prefix tail),
        #: cached per prefix base so the compiled reverse direction
        #: reuses one tuple identity.
        self._access_tails: Dict[int, Tuple[Hop, ...]] = {}
        plan_lookups = self.registry.counter(
            "plan_cache_lookups_total",
            "Stamp-plan cache lookups (batched dataplane), by result.",
            ("net", "result"),
        )
        self._plan_hits = plan_lookups.labels(self.net_id, "hit")
        self._plan_misses = plan_lookups.labels(self.net_id, "miss")
        self._plan_evictions = self.registry.counter(
            "plan_cache_evictions_total",
            "Stamp plans evicted by the LRU bound.",
            ("net",),
        ).labels(self.net_id)
        self._plan_compiles = self.registry.counter(
            "plan_compiles_total",
            "Stamp-plan compilations (first probe per VP-AS/destination).",
            ("net",),
        ).labels(self.net_id)
        self._plan_invalidations = self.registry.counter(
            "plan_invalidations_total",
            "Stamp-plan cache invalidations (route churn, topology "
            "or policy mutation).",
            ("net",),
        ).labels(self.net_id)
        self._plan_replays = self.registry.counter(
            "plan_replays_total",
            "Probes replayed through compiled stamp plans.",
            ("net",),
        ).labels(self.net_id)
        self._replay_seconds = dataplane_seconds_counter(
            self.registry
        ).labels(self.net_id, "replay")
        self._loss_rng = random.Random(derive_seed(params.seed, "loss"))
        #: The shared (legacy) loss stream, restored when a per-VP
        #: probe session ends.
        self._base_loss_rng = self._loss_rng
        #: Saved outer clock value while a per-VP session has the clock
        #: rebased to 0.0 (see :meth:`begin_vp_session`).
        self._session_outer = 0.0
        #: When a list, :meth:`end_vp_session` appends each session's
        #: elapsed time to it. Pool workers keep one per task and ship
        #: it home, so the parent's clock adds up as in-process.
        self.session_times: Optional[List[float]] = None
        #: Per-AS slow-path load, as read through :attr:`options_load`.
        self._options_load: Dict[int, int] = {}
        #: Replayed outcomes whose load is not yet in ``_options_load``,
        #: with how often each was replayed (see :meth:`_flush_load`).
        self._pending_load: "_Tally[object]" = _Tally()
        #: Set by a plan eviction: the batch in flight may have replayed
        #: the evicted plan, so its outcomes are expanded on arrival.
        self._flush_due = False

    # -- tracing ---------------------------------------------------------

    @property
    def tracer(self) -> Optional[PacketTracer]:
        return self._tracer

    def attach_tracer(
        self, tracer: Optional[PacketTracer] = None
    ) -> PacketTracer:
        """Enable per-hop event tracing; returns the active tracer.

        The default tracer carries this network's ``net_id``, so its
        ring-truncation drops surface as the labelled
        ``trace_dropped_events_total`` counter in ``repro stats``.
        """
        self._tracer = (
            PacketTracer(net_id=self.net_id) if tracer is None else tracer
        )
        return self._tracer

    def detach_tracer(self) -> Optional[PacketTracer]:
        """Disable tracing; returns the tracer that was attached."""
        tracer, self._tracer = self._tracer, None
        return tracer

    # -- fault injection ---------------------------------------------------

    @property
    def injector(self):
        return self._injector

    def attach_injector(self, injector) -> None:
        """Enable fault injection (a ``repro.faults.FaultInjector``).

        The dataplane stays fault-agnostic: the injector is consulted
        through three narrow hooks (session begin/end, the per-walk
        flap lookup, the loss-overlay draw) plus the token-bucket
        refill scale. Detaching restores the placid world exactly.
        """
        self._injector = injector

    def detach_injector(self):
        """Disable fault injection; returns the detached injector."""
        injector, self._injector = self._injector, None
        self._set_rate_scale(None)
        return injector

    def _set_rate_scale(self, scale_fn) -> None:
        """Install (or clear) the refill-rate multiplier on every
        token bucket — live ones now, future ones at creation."""
        self._rate_scale = scale_fn
        for limiter in self._limiters.values():
            limiter.rate_scale = scale_fn

    def _drop_plans(self) -> None:
        """Drop every compiled stamp plan (and its templates with it)."""
        if self._plans:
            self._flush_load()
            self._plan_invalidations.inc()
            self._plans.clear()

    # -- slow-path load ----------------------------------------------------

    @property
    def options_load(self) -> Dict[int, int]:
        """Slow-path load: options packets processed per AS, i.e. the
        route-processor work [10] that §4.2's TTL limiting exists to
        reduce and that the conclusion worries operators will react
        to. Counted per router traversal of an options packet; reading
        it first folds in every replayed probe still pending."""
        if self._pending_load:
            self._flush_load()
        return self._options_load

    def add_replayed_load(self, outcomes: Iterable) -> None:
        """Count replayed outcomes toward :attr:`options_load`, lazily.

        One batch's outcomes go into a tally in one pass; their
        ``load`` pairs are added when the load is next read, once per
        distinct outcome. Outcomes recur across the VPs behind one
        ingress AS, so most of a survey's probes add nothing but a
        count.
        """
        self._pending_load.update(outcomes)
        if self._flush_due:
            self._flush_load()

    def _flush_load(self) -> None:
        """Add every pending outcome's load to ``_options_load``.

        Runs before each read, reset, plan eviction and plan drop (and
        after a batch that evicted a plan), so no pending count
        outlives the plan whose template owns its outcome. Plans are
        only dropped between batches. Integer products equal the
        per-probe sums, and expanding outcomes in first-tally order
        inserts each AS where the probe that first loaded it would
        have.
        """
        load = self._options_load
        for outcome, count in self._pending_load.items():
            for asn, hops in outcome.load:
                load[asn] = load.get(asn, 0) + hops * count
        self._pending_load.clear()
        self._flush_due = False

    # -- entity resolution ---------------------------------------------------

    def host_for(self, dest: Destination) -> SimHost:
        """The (lazily built, cached) host behind a hitlist destination."""
        host = self._hosts.get(dest.addr)
        if host is None:
            host = build_host(self.params, self.graph, dest)
            self._hosts[dest.addr] = host
            if host.alias_addr is not None:
                self._alias_owner[host.alias_addr] = host
        return host

    def host_of_addr(self, addr: int) -> Optional[SimHost]:
        """Find the host owning ``addr`` (probed address or alias)."""
        dest = self.hitlist.by_addr(addr)
        if dest is not None:
            return self.host_for(dest)
        owner = self._alias_owner.get(addr)
        if owner is not None:
            return owner
        # The alias interface of a host we have not built yet: find the
        # /24's destination, build it, and re-check.
        dest = self.hitlist.by_prefix(Prefix.containing(addr, 24))
        if dest is not None:
            host = self.host_for(dest)
            if host.alias_addr == addr:
                return host
        return None

    def policy_of(self, router: RouterNode) -> RouterPolicy:
        entry = self._policies.get(id(router))
        if entry is None:
            policy = build_router_policy(self.params, self.graph, router)
            self._policies[id(router)] = (router, policy)
            return policy
        return entry[1]

    def _bucket_metrics_for(self, role: str) -> BucketMetrics:
        """Per-router-class token-bucket counters (resolved once)."""
        metrics = self._bucket_metrics.get(role)
        if metrics is None:
            accepted = self.registry.counter(
                "ratelimit_accepted_total",
                "Options packets admitted by slow-path token buckets.",
                ("net", "role"),
            )
            rejected = self.registry.counter(
                "ratelimit_rejected_total",
                "Options packets policed away by slow-path token buckets.",
                ("net", "role"),
            )
            refills = self.registry.counter(
                "ratelimit_refill_events_total",
                "Token-bucket refill events (time advanced between probes).",
                ("net", "role"),
            )
            metrics = BucketMetrics(
                accepted=accepted.labels(self.net_id, role),
                rejected=rejected.labels(self.net_id, role),
                refills=refills.labels(self.net_id, role),
            )
            self._bucket_metrics[role] = metrics
        return metrics

    def _limiter_of(self, router: RouterNode, pps: float) -> TokenBucket:
        limiter = self._limiters.get(router.key)
        if limiter is None:
            limiter = TokenBucket(
                pps,
                self.params.rate_limit_burst,
                start=self.clock.now,
                metrics=self._bucket_metrics_for(router.key[1]),
            )
            limiter.rate_scale = self._rate_scale
            self._limiters[router.key] = limiter
        return limiter

    def reset_limiters(self) -> None:
        """Refill every token bucket (between independent probing runs)."""
        for limiter in self._limiters.values():
            limiter.reset(self.clock.now)

    def reset_options_load(self) -> None:
        """Zero the per-AS slow-path counters (between epochs)."""
        self._pending_load.clear()
        self._flush_due = False
        self._options_load.clear()

    def set_as_options_filter(self, asn: int, filters: bool) -> None:
        """Flip an AS's options-filtering policy at runtime.

        Models an operator reacting to options traffic (the concern
        the paper's conclusion raises). Cached per-router policies for
        that AS are invalidated so the change takes effect on the next
        packet.
        """
        self.graph[asn].filters_options = filters
        stale = [
            key
            for key, (router, _policy) in self._policies.items()
            if router.asn == asn
        ]
        for key in stale:
            del self._policies[key]
        # Compiled stamp plans (round-trip and per-segment) baked the
        # old policy's filter locus in.
        self._drop_plans()
        self._seg_plans.clear()
        # Hosts inherit nothing from the AS filter directly (their
        # drops_options was drawn independently), so host caches stay.

    # -- chains ---------------------------------------------------------

    def _trunk(self, src_asn: int, dst_asn: int) -> Optional[Tuple[Hop, ...]]:
        key = (src_asn, dst_asn)
        if key in self._trunks:
            return self._trunks[key]
        as_path = self.routing.as_path(src_asn, dst_asn)
        trunk = (
            None if as_path is None else tuple(self.fabric.expand_trunk(as_path))
        )
        self._trunks[key] = trunk
        return trunk

    def _tail(self, dest: Destination) -> Tuple[Hop, ...]:
        tail = self._tails.get(dest.prefix.base)
        if tail is None:
            tail = tuple(self.fabric.tail_hops(dest.asn, dest.prefix))
            self._tails[dest.prefix.base] = tail
        return tail

    def _forward_path(
        self, src_asn: int, dest: Destination
    ) -> Optional[Tuple[Tuple[Hop, ...], ...]]:
        """The router-level forward path: the AS trunk, then the
        destination prefix's access tail, or ``None`` (no route).

        Both halves come from their own caches (``None`` is cached as
        a trunk too), so the pair holds the very tuples that
        ``_seg_plans`` keys by identity.
        """
        trunk = self._trunk(src_asn, dest.asn)
        return None if trunk is None else (trunk, self._tail(dest))

    def clear_caches(self) -> None:
        self._trunks.clear()
        self._tails.clear()
        self._drop_plans()
        self._seg_plans.clear()
        self._access_tails.clear()
        self._flap_picks.clear()

    def invalidate_routes(self) -> None:
        """Explicitly invalidate every route-derived cache.

        Call after mutating the AS graph (adding/removing links,
        re-homing prefixes): drops the compiled stamp plans, the
        trunk/tail expansions, and the routing system's cached routes
        so the next packet re-derives its path from the mutated
        topology.
        """
        self.clear_caches()
        self.routing.clear_cache()

    # -- stamp plans (batched dataplane) ---------------------------------

    def plan_for(
        self, src_asn: int, dest: Destination
    ) -> Tuple[RoundTripPlan, bool]:
        """The compiled round-trip plan for (ingress AS, destination).

        Returns ``(plan, hit)``; ``hit`` tells the caller whether this
        lookup rode the cache. The replay loops inline the hit path and
        call :meth:`_plan_miss` directly.
        """
        key = (src_asn, dest.addr)
        plan = self._plans.get(key)
        if plan is not None:
            self._plan_hits.inc()
            self._plans.move_to_end(key)
            return plan, True
        self._plan_misses.inc()
        return self._plan_miss(key, src_asn, dest), False

    def _plan_miss(
        self, key: Tuple[int, int], src_asn: int, dest: Destination
    ) -> RoundTripPlan:
        """Compile-and-insert path for a plan-cache miss.

        The batch replay loop probes ``_plans`` directly (hit/miss
        counters fold once per batch); this covers only the slow path:
        compile, insert, evict past the cap.
        """
        plan = self._compile_plan(src_asn, dest)
        self._plans[key] = plan
        if len(self._plans) > self.plan_cache_cap:
            self._flush_load()
            self._plans.popitem(last=False)
            self._plan_evictions.inc()
            self._flush_due = True
        return plan

    def _compile_plan(self, src_asn: int, dest: Destination) -> RoundTripPlan:
        """Compile the invariant round-trip structure for one flow.

        Pure policy/topology resolution — consumes no RNG draws, so
        compilation order cannot perturb any stochastic stream.
        """
        self._plan_compiles.inc()
        host = self.host_for(dest)
        segments = self._forward_path(src_asn, dest)
        if segments is None:
            fwd = None
        else:
            # Inlined _segment_plan hit path: trunks repeat across
            # every destination of an ingress AS, so the id-keyed hit
            # is the common case and worth skipping a frame for.
            seg_plans = self._seg_plans
            trunk, tail = segments
            entry = seg_plans.get(id(trunk))
            trunk_plan = (
                entry[1] if entry is not None else self._segment_plan(trunk)
            )
            entry = seg_plans.get(id(tail))
            tail_plan = (
                entry[1] if entry is not None else self._segment_plan(tail)
            )
            fwd = (trunk_plan, tail_plan)
        # The symbolic walk runs per template (``build_template``),
        # on the first probe of each options-shape; the reverse leg
        # resolves on the first Echo Reply.
        return RoundTripPlan(
            src_asn=src_asn, dest=dest, host=host, fwd=fwd
        )

    def _segment_plan(self, segment: Tuple[Hop, ...]) -> SegmentPlan:
        """The compiled plan for one cached hop segment, by identity.

        Identity keying is sound because every segment handed in is a
        long-lived cache entry (``_trunks`` / ``_tails`` /
        ``_access_tails``) and the map value pins the tuple, so an id
        can never be recycled while its entry exists. Policy changes
        clear this map (``set_as_options_filter`` / ``clear_caches``);
        evicting a round-trip plan keeps it — segment facts derive
        from policies and hop lists, not from route selection.
        """
        key = id(segment)
        entry = self._seg_plans.get(key)
        if entry is not None:
            return entry[1]
        plan = compile_segment(self, segment)
        self._seg_plans[key] = (segment, plan)
        return plan

    def _access_of(self, dest: Destination) -> Tuple[Hop, ...]:
        """The reverse leg's access chain for a destination's prefix,
        as one cached tuple (stable identity for ``_segment_plan``).
        Mirrors ``_reverse_deliver``'s filter over the prefix tail."""
        access = self._access_tails.get(dest.prefix.base)
        if access is None:
            access = tuple(
                hop
                for hop in self._tail(dest)
                if hop.router.key[1] == "access"
            )
            self._access_tails[dest.prefix.base] = access
        return access

    # -- per-VP probe sessions ---------------------------------------------

    def begin_vp_session(self, name: str) -> None:
        """Enter the deterministic per-VP probing context.

        The parallel survey engine's determinism contract: a vantage
        point's probe sequence must produce the same results whether it
        runs in the shared serial process or in its own worker. Three
        pieces of network state are order-sensitive across VPs and are
        therefore scoped per session:

        * **the clock** is rebased to ``0.0`` so every probe lands on
          the exact float timestamps a fresh process would see —
          token-bucket refill maths (``(now - last) * rate``) round
          differently on large absolute floats, and even one flipped
          allow/deny breaks the byte-parity contract;
        * **token buckets** are refilled at session time 0 (each VP
          faces fresh slow-path policers, exactly as in the paper where
          VPs probe independently and their 20 pps streams do not share
          fate);
        * **the loss stream** is re-seeded from ``(seed, name)`` so the
          k-th loss draw of a VP's sequence is the same regardless of
          which — or how many — other VPs probed before it.

        Everything else the walk touches (policies, hosts, paths) is
        value-deterministic, so warm caches change speed, never bytes.
        """
        self._session_outer = self.clock.rebase(0.0)
        self.reset_limiters()
        self._loss_rng = random.Random(
            stable_u64(self.params.seed, "vp-loss", name)
        )
        if self._injector is not None:
            self._injector.begin_session(name)

    def end_vp_session(self) -> None:
        """Leave the per-VP context, restoring shared network state.

        The clock resumes at ``outer + elapsed`` so simulated time
        still adds up across sessions from the outside — in a pooled
        run too, where the executor makes the same additions to the
        parent's clock from :attr:`session_times`.
        """
        if self._injector is not None:
            self._injector.end_session()
        elapsed = self.clock.now
        self.clock.rebase(self._session_outer + elapsed)
        self._session_outer = 0.0
        if self.session_times is not None:
            self.session_times.append(elapsed)
        self._loss_rng = self._base_loss_rng

    # -- the walk ---------------------------------------------------------

    def _walk(
        self,
        pkt: IPv4Packet,
        segments: Tuple[Tuple[Hop, ...], ...],
        direction: str = "fwd",
    ) -> Tuple[int, Optional[IPv4Packet]]:
        """Advance ``pkt`` across the hop segments, in order.

        Returns ``(_ARRIVED, None)``, ``(_DROPPED, None)``, or
        ``(_ERROR, reply)`` when a router generated an ICMP error.
        ``direction`` labels trace events ("fwd" toward the
        destination, "rev" for the reply's walk back).
        """
        now = self.clock.now
        now_ms = int(now * 1000)
        rr = pkt.record_route
        ts = pkt.timestamp_option
        has_options = pkt.has_options
        # Read once: the property folds in pending replayed load first,
        # so this walk's additions land after it, in probe order.
        options_load = self.options_load if has_options else None
        mx = self._mx
        tracer = self._tracer
        injector = self._injector
        # Flapped adjacencies live at this instant (clock is constant
        # for the duration of a walk); None keeps the loop lean.
        flapped = (
            injector.active_flap_edges(now) if injector is not None else None
        )
        prev_asn: Optional[int] = None
        for segment in segments:
            for hop in segment:
                if flapped is not None:
                    asn = hop.router.asn
                    if prev_asn is not None and prev_asn != asn:
                        edge = (
                            (prev_asn, asn)
                            if prev_asn < asn
                            else (asn, prev_asn)
                        )
                        if edge in flapped:
                            mx.dropped_fault.inc()
                            injector.drops_flap.inc()
                            if tracer is not None:
                                tracer.emit(
                                    "drop",
                                    now,
                                    direction=direction,
                                    addr=hop.icmp_addr,
                                    asn=asn,
                                    role=hop.router.key[1],
                                    detail=(
                                        f"fault link_flap {edge[0]}-"
                                        f"{edge[1]}"
                                    ),
                                )
                            return _DROPPED, None
                    prev_asn = asn
                policy = self.policy_of(hop.router)
                if tracer is not None:
                    tracer.emit(
                        "hop",
                        now,
                        direction=direction,
                        addr=hop.icmp_addr,
                        asn=hop.router.asn,
                        role=hop.router.key[1],
                        detail=f"ttl={pkt.ttl}",
                    )
                if policy.decrements_ttl:
                    if pkt.ttl <= 1:
                        pkt.ttl = 0
                        if policy.sends_ttl_exceeded:
                            mx.ttl_exceeded_sent.inc()
                            if tracer is not None:
                                tracer.emit(
                                    "ttl_expired",
                                    now,
                                    direction=direction,
                                    addr=hop.icmp_addr,
                                    asn=hop.router.asn,
                                    role=hop.router.key[1],
                                    detail="time-exceeded sent",
                                )
                            return _ERROR, self._icmp_error_reply(
                                IcmpError.time_exceeded(
                                    pkt, self._quote_bytes(policy.quote_full)
                                ),
                                src=hop.icmp_addr,
                                dst=pkt.src,
                            )
                        mx.dropped_ttl.inc()
                        if tracer is not None:
                            tracer.emit(
                                "ttl_expired",
                                now,
                                direction=direction,
                                addr=hop.icmp_addr,
                                asn=hop.router.asn,
                                role=hop.router.key[1],
                                detail="silent",
                            )
                        return _DROPPED, None
                    pkt.ttl -= 1
                if has_options:
                    asn = hop.router.asn
                    options_load[asn] = options_load.get(asn, 0) + 1
                    if policy.drops_options:
                        mx.dropped_filtered.inc()
                        if tracer is not None:
                            tracer.emit(
                                "drop",
                                now,
                                direction=direction,
                                addr=hop.icmp_addr,
                                asn=asn,
                                role=hop.router.key[1],
                                detail="filtered",
                            )
                        return _DROPPED, None
                    if policy.rate_limit_pps is not None:
                        limiter = self._limiter_of(
                            hop.router, policy.rate_limit_pps
                        )
                        if not limiter.allow(now):
                            mx.dropped_rate_limited.inc()
                            if tracer is not None:
                                tracer.emit(
                                    "drop",
                                    now,
                                    direction=direction,
                                    addr=hop.icmp_addr,
                                    asn=asn,
                                    role=hop.router.key[1],
                                    detail=(
                                        "rate_limited "
                                        f"{policy.rate_limit_pps:g}pps"
                                    ),
                                )
                            return _DROPPED, None
                    if policy.stamps_rr:
                        if rr is not None:
                            if rr.stamp(hop.stamp_addr) and tracer is not None:
                                tracer.emit(
                                    "rr_stamp",
                                    now,
                                    direction=direction,
                                    addr=hop.stamp_addr,
                                    asn=asn,
                                    role=hop.router.key[1],
                                    detail=f"slot {len(rr.recorded)}",
                                )
                        if ts is not None:
                            # Routers that honor RR honor Timestamp too
                            # (both ride the same slow path).
                            ts.stamp(hop.router.addrs, now_ms)
                            if tracer is not None:
                                tracer.emit(
                                    "ts_stamp",
                                    now,
                                    direction=direction,
                                    asn=asn,
                                    role=hop.router.key[1],
                                )
        return _ARRIVED, None

    @staticmethod
    def _quote_bytes(full: bool) -> int:
        return FULL_QUOTE if full else MIN_QUOTE

    def _icmp_error_reply(
        self, error: IcmpError, src: int, dst: int
    ) -> Optional[IPv4Packet]:
        """Deliver an ICMP error straight back to the prober.

        Errors never carry IP options of their own, so none of the
        mechanisms under study can act on them; skipping the reverse
        walk is a documented simulation shortcut.
        """
        if self._lost():
            return None
        return IPv4Packet(
            src=src,
            dst=dst,
            proto=PROTO_ICMP,
            ttl=64,
            payload=error.to_bytes(),
        )

    def _lost(self) -> bool:
        injector = self._injector
        if injector is not None and injector.burst_lost():
            # Correlated (Gilbert–Elliott) loss overlay: drawn from the
            # injector's own per-session chain, so the base loss stream
            # below stays untouched by the overlay's existence.
            self._mx.dropped_fault.inc()
            injector.drops_burst.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "drop", self.clock.now, detail="fault loss_burst"
                )
            return True
        if self.params.loss_prob <= 0:
            return False
        if self._loss_rng.random() < self.params.loss_prob:
            self._mx.dropped_loss.inc()
            if self._tracer is not None:
                self._tracer.emit(
                    "drop", self.clock.now, detail="loss"
                )
            return True
        return False

    # -- sending ---------------------------------------------------------

    def send_wire(self, data: bytes) -> Optional[bytes]:
        """Wire-level entry point: bytes in, reply bytes (or None) out."""
        reply = self.send_packet(IPv4Packet.from_bytes(data))
        return None if reply is None else reply.to_bytes()

    def send_packet(self, pkt: IPv4Packet) -> Optional[IPv4Packet]:
        """Inject ``pkt`` at its source AS; returns any reply packet.

        The source AS is derived from the source address's /16 block
        (the simulator's allocation invariant); measurement-side code
        must use :mod:`repro.analysis.ip2as` instead.
        """
        self._mx.sent.inc()
        tracer = self._tracer
        if tracer is not None:
            proto = (
                "icmp" if pkt.proto == PROTO_ICMP
                else "udp" if pkt.proto == PROTO_UDP
                else str(pkt.proto)
            )
            options = (
                "+rr" if pkt.record_route is not None else ""
            ) + ("+ts" if pkt.timestamp_option is not None else "")
            tracer.emit(
                "send",
                self.clock.now,
                addr=pkt.dst,
                detail=f"{proto} ttl={pkt.ttl}{options}",
            )
        src_asn = pkt.src >> 16
        if src_asn not in self.graph:
            self._mx.dropped_no_route.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, detail="no_route (source)"
                )
            return None
        host = self.host_of_addr(pkt.dst)
        if host is not None:
            return self._deliver_to_host(pkt, host, src_asn)
        router = self.fabric.router_of_addr(pkt.dst)
        if router is not None:
            return self._deliver_to_router(pkt, router)
        self._mx.dropped_no_route.inc()
        if tracer is not None:
            tracer.emit(
                "drop", self.clock.now, detail="no_route (destination)"
            )
        return None

    def _deliver_to_host(
        self, pkt: IPv4Packet, host: SimHost, src_asn: int
    ) -> Optional[IPv4Packet]:
        dest = host.dest
        tracer = self._tracer
        segments = self._forward_path(src_asn, dest)
        if segments is None:
            self._mx.dropped_no_route.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, detail="no_route (trunk)"
                )
            return None
        outcome, error_reply = self._walk(pkt, segments)
        if outcome == _ERROR:
            return error_reply
        if outcome == _DROPPED:
            return None

        # Silent last-metre devices: decrement TTL, touch nothing else.
        if host.silent_hops:
            if pkt.ttl <= host.silent_hops:
                self._mx.dropped_ttl.inc()
                if tracer is not None:
                    tracer.emit(
                        "ttl_expired",
                        self.clock.now,
                        addr=host.addr,
                        asn=dest.asn,
                        role="silent",
                        detail="silent",
                    )
                return None
            pkt.ttl -= host.silent_hops

        if pkt.has_options and host.drops_options:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop",
                    self.clock.now,
                    addr=host.addr,
                    asn=dest.asn,
                    detail="host drops options",
                )
            return None
        if self._lost():
            return None

        if pkt.proto == PROTO_ICMP:
            return self._host_icmp(pkt, host, src_asn)
        if pkt.proto == PROTO_UDP:
            return self._host_udp(pkt, host)
        self._mx.dropped_host.inc()
        if tracer is not None:
            tracer.emit(
                "drop",
                self.clock.now,
                addr=host.addr,
                asn=dest.asn,
                detail=f"host: unsupported proto {pkt.proto}",
            )
        return None

    def _host_icmp(
        self, pkt: IPv4Packet, host: SimHost, src_asn: int
    ) -> Optional[IPv4Packet]:
        tracer = self._tracer
        try:
            echo = IcmpEcho.from_bytes(pkt.payload)
        except IcmpDecodeError:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, addr=host.addr,
                    detail="host: bad icmp",
                )
            return None
        if echo.kind != ICMP_ECHO_REQUEST or not host.ping_responsive:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, addr=host.addr,
                    detail="host unresponsive",
                )
            return None

        options = []
        rr = pkt.record_route
        if rr is not None:
            reply_rr = host.stamp_reply(rr)
            if reply_rr is not None:
                options.append(reply_rr)
            if tracer is not None:
                tracer.emit(
                    "host_reply",
                    self.clock.now,
                    direction="rev",
                    addr=host.addr,
                    asn=host.asn,
                    role="host",
                    detail=f"rr_mode={host.rr_mode.value}",
                )
                if (
                    reply_rr is not None
                    and len(reply_rr.recorded) > len(rr.recorded)
                ):
                    tracer.emit(
                        "rr_stamp",
                        self.clock.now,
                        direction="rev",
                        addr=reply_rr.recorded[-1],
                        asn=host.asn,
                        role="host",
                        detail=f"slot {len(reply_rr.recorded)}",
                    )
        elif tracer is not None:
            tracer.emit(
                "host_reply",
                self.clock.now,
                direction="rev",
                addr=host.addr,
                asn=host.asn,
                role="host",
            )
        ts = pkt.timestamp_option
        if ts is not None:
            reply_ts = host.stamp_timestamp(
                ts, int(self.clock.now * 1000)
            )
            if reply_ts is not None:
                options.append(reply_ts)
        reply = IPv4Packet(
            src=pkt.dst,
            dst=pkt.src,
            proto=PROTO_ICMP,
            ttl=64,
            ident=host.ipid(self.clock.now),
            options=options,
            payload=echo.reply().to_bytes(),
        )
        return self._reverse_deliver(reply, host, src_asn)

    def _host_udp(
        self, pkt: IPv4Packet, host: SimHost
    ) -> Optional[IPv4Packet]:
        tracer = self._tracer
        try:
            datagram = UdpDatagram.from_bytes(pkt.payload)
        except UdpDecodeError:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, addr=host.addr,
                    detail="host: bad udp",
                )
            return None
        if datagram.dst_port < HIGH_PORT_FLOOR or not host.udp_unreachable:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, addr=host.addr,
                    detail="host: udp silent",
                )
            return None
        self._mx.port_unreach_sent.inc()
        if tracer is not None:
            rr = pkt.record_route
            detail = (
                "no rr" if rr is None
                else f"quoting rr ({len(rr.recorded)} stamps)"
            )
            tracer.emit(
                "port_unreach",
                self.clock.now,
                direction="rev",
                addr=host.addr,
                asn=host.asn,
                role="host",
                detail=detail,
            )
        # The quote reflects the packet as it arrived: the RR option with
        # every slot the *path* filled, but no stamp from the host itself
        # — exactly the signal §3.3's ping-RRudp test reads.
        return self._icmp_error_reply(
            IcmpError.port_unreachable(
                pkt, self._quote_bytes(host.quote_full)
            ),
            src=host.addr,
            dst=pkt.src,
        )

    def _reverse_deliver(
        self, reply: IPv4Packet, host: SimHost, src_asn: int
    ) -> Optional[IPv4Packet]:
        """Walk a host's reply back to the prober.

        The reply retraverses the destination's access router (if any)
        and then an independently-routed trunk toward the prober's AS —
        RR options in the reply keep collecting reverse-path stamps
        while slots remain.
        """
        trunk = self._trunk(host.asn, src_asn)
        tracer = self._tracer
        if trunk is None:
            self._mx.dropped_no_route.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, direction="rev",
                    detail="no_route (reverse trunk)",
                )
            return None
        tail = self._tails.get(host.dest.prefix.base) or ()
        access = tuple(
            hop for hop in tail if hop.router.key[1] == "access"
        )
        outcome, error_reply = self._walk(
            reply, (access, trunk), direction="rev"
        )
        if outcome == _ERROR:
            return error_reply  # reply's own TTL expired (pathological)
        if outcome == _DROPPED:
            return None
        if self._lost():
            return None
        self._mx.delivered.inc()
        if tracer is not None:
            tracer.emit(
                "deliver",
                self.clock.now,
                direction="rev",
                addr=reply.src,
                detail=(
                    f"rr stamps={len(reply.record_route.recorded)}"
                    if reply.record_route is not None
                    else "no options"
                ),
            )
        return reply

    def _deliver_to_router(
        self, pkt: IPv4Packet, router: RouterNode
    ) -> Optional[IPv4Packet]:
        """Control-plane ping to a router interface (alias resolution).

        Routers answer from a shared IP-ID counter across all their
        interfaces — MIDAR's signal. Delivered without a path walk
        (documented shortcut; alias probes carry no options).
        """
        policy = self.policy_of(router)
        tracer = self._tracer
        if pkt.proto != PROTO_ICMP or not policy.ping_responsive:
            self._mx.dropped_host.inc()
            if tracer is not None:
                tracer.emit(
                    "drop", self.clock.now, addr=pkt.dst,
                    asn=router.asn, role=router.key[1],
                    detail="router unresponsive",
                )
            return None
        try:
            echo = IcmpEcho.from_bytes(pkt.payload)
        except IcmpDecodeError:
            self._mx.dropped_host.inc()
            return None
        if echo.kind != ICMP_ECHO_REQUEST:
            self._mx.dropped_host.inc()
            return None
        if self._lost():
            return None
        ident = (
            policy.ipid_seed + int(policy.ipid_velocity * self.clock.now)
        ) & 0xFFFF
        self._mx.delivered.inc()
        if tracer is not None:
            tracer.emit(
                "deliver",
                self.clock.now,
                direction="rev",
                addr=pkt.dst,
                asn=router.asn,
                role=router.key[1],
                detail="control-plane echo",
            )
        return IPv4Packet(
            src=pkt.dst,
            dst=pkt.src,
            proto=PROTO_ICMP,
            ttl=64,
            ident=ident,
            payload=echo.reply().to_bytes(),
        )
