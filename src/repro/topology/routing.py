"""Valley-free (Gao–Rexford) interdomain route computation.

BGP routes are modelled with the standard policy abstraction:

* an AS prefers routes learned from customers over routes learned from
  peers over routes learned from providers (money flows downhill);
* it breaks ties by shortest AS path, then lowest next-hop ASN (a
  deterministic stand-in for BGP's arbitrary final tie-breakers);
* it exports customer routes to everyone, but peer/provider routes only
  to customers — which is exactly what makes every usable path
  *valley-free*: zero or more customer→provider hops, at most one peer
  hop, then zero or more provider→customer hops.

Routes to a destination AS are computed for every source at once with
the classic three-phase sweep (customer BFS up, one peer step sideways,
provider Dijkstra down), and the resulting routing tree is cached, so
asking for many sources' paths to the same destination is cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional

from repro.obs.metrics import REGISTRY
from repro.topology.autsys import ASGraph

__all__ = ["RouteKind", "RouteInfo", "RoutingSystem"]

# Route preference, higher is better (Gao–Rexford).
KIND_CUSTOMER = 3
KIND_PEER = 2
KIND_PROVIDER = 1


class RouteKind:
    """Symbolic names for route-learning relationships."""

    CUSTOMER = KIND_CUSTOMER
    PEER = KIND_PEER
    PROVIDER = KIND_PROVIDER


class RouteInfo(NamedTuple):
    """One AS's selected route toward a destination."""

    kind: int  # KIND_* preference class
    length: int  # AS-path length in AS hops (dest itself: 0)
    next_hop: Optional[int]  # neighbour toward dest; None at dest


class RoutingSystem:
    """Computes and caches valley-free routing trees over an ASGraph."""

    def __init__(self, graph: ASGraph, cache_size: int = 4096) -> None:
        self._graph = graph
        self._cache_size = cache_size
        #: True LRU: most-recently-used trees live at the right end.
        self._trees: "OrderedDict[int, Dict[int, RouteInfo]]" = OrderedDict()
        lookups = REGISTRY.counter(
            "routing_tree_cache_lookups_total",
            "Routing-tree LRU cache lookups, by result.",
            ("result",),
        )
        self._cache_hits = lookups.labels("hit")
        self._cache_misses = lookups.labels("miss")
        self._cache_evictions = REGISTRY.counter(
            "routing_tree_cache_evictions_total",
            "Routing trees evicted from the LRU cache.",
        ).labels()
        #: Lazily-built adjacency snapshot: asn -> (providers, peers,
        #: sorted customers) as tuples. ``ASGraph``'s accessors copy
        #: into a fresh frozenset per call, which a tree compute hits
        #: thousands of times; snapshotting once per graph generation
        #: (dropped by ``clear_cache``) removes that from the loop.
        self._adj: Optional[Dict[int, tuple]] = None
        #: Intern table: one shared ``RouteInfo`` per distinct value
        #: across every cached tree (a ``mid`` survey's 714k routes
        #: hold 1,753 values). Dropped with the trees by
        #: ``clear_cache``.
        self._routes: Dict[tuple, RouteInfo] = {}

    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def cache_len(self) -> int:
        """Number of routing trees currently cached."""
        return len(self._trees)

    # -- routing trees -----------------------------------------------------

    def routing_tree(self, dest: int) -> Dict[int, RouteInfo]:
        """Every AS's selected route toward ``dest`` (absent = no route)."""
        cached = self._trees.get(dest)
        if cached is not None:
            self._cache_hits.inc()
            self._trees.move_to_end(dest)
            return cached
        self._cache_misses.inc()
        tree = self._compute_tree(dest)
        self._trees[dest] = tree
        if len(self._trees) > self._cache_size:
            self._trees.popitem(last=False)
            self._cache_evictions.inc()
        return tree

    def _adjacency(self) -> Dict[int, tuple]:
        adj = self._adj
        if adj is None:
            graph = self._graph
            adj = {
                asn: (
                    tuple(graph.providers_of(asn)),
                    tuple(graph.peers_of(asn)),
                    tuple(sorted(graph.customers_of(asn))),
                )
                for asn in graph.asns()
            }
            self._adj = adj
        return adj

    def _compute_tree(self, dest: int) -> Dict[int, RouteInfo]:
        if dest not in self._graph:
            raise KeyError(f"unknown destination ASN {dest}")
        adj = self._adjacency()
        # ~n routes per tree and a few comparisons per edge make this
        # the scenario-wide routing hot spot. Every route is interned:
        # a tuple *subclass* stays GC-tracked, so a survey's trees
        # would otherwise hold one tracked object per (tree, AS). New
        # values are built via ``tuple.__new__`` (skipping the
        # generated-constructor frame), and field access in the loops
        # uses indices instead of the namedtuple properties.
        table = self._routes
        table_get = table.get
        mk = tuple.__new__

        def route(key: tuple) -> RouteInfo:
            info = table_get(key)
            if info is None:
                info = table[key] = mk(RouteInfo, key)
            return info

        routes: Dict[int, RouteInfo] = {dest: route((KIND_CUSTOMER, 0, None))}

        # Phase 1 — customer routes: the destination's reachability climbs
        # provider links, so every AS on an all-uphill path learns a
        # customer route. Level-synchronous BFS keeps lengths minimal and
        # lets ties resolve to the lowest next-hop ASN.
        frontier = [dest]
        length = 0
        while frontier:
            length += 1
            candidates: Dict[int, int] = {}
            for asn in frontier:
                for provider in adj[asn][0]:
                    if provider in routes:
                        continue
                    best = candidates.get(provider)
                    if best is None or asn < best:
                        candidates[provider] = asn
            for provider, via in candidates.items():
                routes[provider] = route((KIND_CUSTOMER, length, via))
            frontier = sorted(candidates)

        # Phase 2 — peer routes: one sideways hop from any AS holding a
        # customer route (or the destination itself). Customer routes
        # always win, so only routeless ASes adopt.
        peer_routes: Dict[int, RouteInfo] = {}
        for asn, info in routes.items():
            length = info[1] + 1
            for peer in adj[asn][1]:
                if peer in routes:
                    continue
                best = peer_routes.get(peer)
                # Unrolled (length, asn) < (best.length, best.next_hop)
                # — peer routes always carry an integer next hop.
                if best is None or length < best[1] or (
                    length == best[1] and asn < best[2]
                ):
                    peer_routes[peer] = route((KIND_PEER, length, asn))
        routes.update(peer_routes)

        # Phase 3 — provider routes: every routed AS exports its selected
        # route to customers, recursively. Seed lengths differ, so this
        # is a unit-weight Dijkstra down customer links — and with unit
        # weights a bucket queue visits nodes in exactly the order a
        # ``(length, asn)`` heap would: lengths ascending, ASNs
        # ascending within a length (relaxations from bucket ``l`` only
        # ever land in bucket ``l + 1``, so each bucket is complete
        # before it is processed). Same visit order, same tie-breaks,
        # no per-edge heap churn.
        buckets: Dict[int, List[int]] = {}
        for asn, info in routes.items():
            buckets.setdefault(info[1], []).append(asn)
        settled: Dict[int, int] = {}
        routes_get = routes.get
        settled_get = settled.get
        length = 0
        while buckets:
            group = buckets.pop(length, None)
            nxt = length + 1
            if group is not None:
                group.sort()
                for asn in group:
                    if settled_get(asn, 1 << 30) <= length:
                        continue
                    settled[asn] = length
                    for customer in adj[asn][2]:
                        best = routes_get(customer)
                        # Unrolled: skip unless the candidate (nxt, asn)
                        # strictly beats a provider route (customer and
                        # peer routes always win). Provider routes carry
                        # an integer next hop, so best[2] is comparable.
                        if best is not None and (
                            best[0] > KIND_PROVIDER
                            or best[1] < nxt
                            or (best[1] == nxt and best[2] <= asn)
                        ):
                            continue
                        routes[customer] = route((KIND_PROVIDER, nxt, asn))
                        buckets.setdefault(nxt, []).append(customer)
            length = nxt
        return routes

    # -- paths ---------------------------------------------------------

    def as_path(self, src: int, dest: int) -> Optional[List[int]]:
        """The AS-level path from ``src`` to ``dest``, or None.

        The returned list starts with ``src`` and ends with ``dest``;
        a path from an AS to itself is ``[src]``.
        """
        if src == dest:
            return [src]
        tree = self.routing_tree(dest)
        info = tree.get(src)
        if info is None:
            return None
        path = [src]
        current = src
        while current != dest:
            next_hop = tree[current].next_hop
            if next_hop is None:  # pragma: no cover - defensive
                return None
            path.append(next_hop)
            current = next_hop
            if len(path) > len(self._graph) + 1:  # pragma: no cover
                raise RuntimeError("routing loop detected")
        return path

    def reachable_from(self, src: int, dest: int) -> bool:
        if src == dest:
            return True
        return src in self.routing_tree(dest)

    def path_length(self, src: int, dest: int) -> Optional[int]:
        """AS-hop count from ``src`` to ``dest`` (0 when equal)."""
        if src == dest:
            return 0
        info = self.routing_tree(dest).get(src)
        return None if info is None else info.length

    def clear_cache(self) -> None:
        """Drop every cached routing tree and its interned routes
        (call after graph mutation)."""
        self._trees.clear()
        self._routes.clear()
        self._adj = None
