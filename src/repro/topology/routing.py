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

Routes toward a destination are resolved per source, and only over the
source's *provider closure*: the source plus every AS reachable over
provider links. That is all a route can depend on. A customer route
comes from the destination's up-cone, a peer route from one sideways
step into it, and a provider route is the best of the AS's providers'
routes (length + 1, then lowest ASN), and every provider of a closure
member is itself in the closure. So a survey resolves the few ASes
near each ingress AS instead of a whole-Internet routing tree per
destination (Doubletree's observation that the part of a route worth
computing per source is the part near it), and
:meth:`RoutingSystem.routing_tree` is the same resolver run over every
AS.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

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


#: Per destination: the customer routes of its up-cone, every resolved
#: AS's route (the up-cone's included), and the resolved ASes that
#: have no route.
_DestRoutes = Tuple[Dict[int, RouteInfo], Dict[int, RouteInfo], Set[int]]


class RoutingSystem:
    """Resolves and caches valley-free routes over an ASGraph."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph
        #: destination -> its resolved routes (see ``_DestRoutes``).
        self._dests: Dict[int, _DestRoutes] = {}
        #: source -> its provider closure.
        self._closures: Dict[int, Tuple[int, ...]] = {}
        lookups = REGISTRY.counter(
            "routing_tree_cache_lookups_total",
            "Whole routing-tree lookups, by result (miss = some AS "
            "still had to be resolved).",
            ("result",),
        )
        self._cache_hits = lookups.labels("hit")
        self._cache_misses = lookups.labels("miss")
        self._resolved_total = REGISTRY.counter(
            "routing_routes_resolved_total",
            "Per-(AS, destination) routes resolved, no-route outcomes "
            "included.",
        ).labels()
        #: Lazily-built adjacency snapshot: asn -> (providers, peers,
        #: sorted customers) as tuples. ``ASGraph``'s accessors copy
        #: into a fresh frozenset per call, which resolution hits
        #: thousands of times; snapshotting once per graph generation
        #: (dropped by ``clear_cache``) removes that from the loop.
        self._adj: Optional[Dict[int, tuple]] = None
        #: Intern table: one shared ``RouteInfo`` per distinct value
        #: across every destination's routes. A route is a tuple
        #: *subclass*, so it stays GC-tracked; interning keeps that to
        #: one object per value. Dropped by ``clear_cache``.
        self._routes: Dict[tuple, RouteInfo] = {}

    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def cache_len(self) -> int:
        """Resolved (AS, destination) entries currently cached."""
        return sum(
            len(routes) + len(unrouted)
            for _customer, routes, unrouted in self._dests.values()
        )

    # -- resolution --------------------------------------------------------

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

    def _route(self, key: tuple) -> RouteInfo:
        """The interned route for ``(kind, length, next_hop)``. New
        values are built via ``tuple.__new__``, skipping the generated
        constructor's frame."""
        info = self._routes.get(key)
        if info is None:
            info = self._routes[key] = tuple.__new__(RouteInfo, key)
        return info

    def _closure(self, src: int) -> Tuple[int, ...]:
        """``src`` plus every AS reachable from it over provider links
        (cycles included: ``ASGraph`` allows them)."""
        closure = self._closures.get(src)
        if closure is None:
            adj = self._adjacency()
            seen = {src}
            stack = [src]
            while stack:
                for provider in adj[stack.pop()][0]:
                    if provider not in seen:
                        seen.add(provider)
                        stack.append(provider)
            closure = self._closures[src] = tuple(seen)
        return closure

    def _dest_routes(self, dest: int) -> _DestRoutes:
        """``dest``'s resolution state, starting with the customer
        routes of its up-cone: every AS on an all-uphill path from
        ``dest`` learns one. Level-synchronous BFS up provider links
        keeps lengths minimal and resolves ties to the lowest next-hop
        ASN, one level down."""
        state = self._dests.get(dest)
        if state is not None:
            return state
        if dest not in self._graph:
            raise KeyError(f"unknown destination ASN {dest}")
        adj = self._adjacency()
        route = self._route
        customer: Dict[int, RouteInfo] = {
            dest: route((KIND_CUSTOMER, 0, None))
        }
        frontier = [dest]
        length = 0
        while frontier:
            length += 1
            candidates: Dict[int, int] = {}
            for asn in frontier:
                for provider in adj[asn][0]:
                    if provider in customer:
                        continue
                    best = candidates.get(provider)
                    if best is None or asn < best:
                        candidates[provider] = asn
            for provider, via in candidates.items():
                customer[provider] = route((KIND_CUSTOMER, length, via))
            frontier = sorted(candidates)
        state = self._dests[dest] = (customer, dict(customer), set())
        self._resolved_total.inc(len(customer))
        return state

    def _resolve(self, state: _DestRoutes, members: Iterable[int]) -> None:
        """Resolve every unresolved AS of ``members`` toward the
        destination. ``members`` must be closed under providers
        (a provider closure, or every AS), so each member's providers
        are either members or already resolved, and nothing outside
        can change a member's route."""
        customer, routes, unrouted = state
        todo = {
            asn for asn in members
            if asn not in routes and asn not in unrouted
        }
        if not todo:
            return
        adj = self._adjacency()
        route = self._route
        found: Dict[int, RouteInfo] = {}
        buckets: Dict[int, List[int]] = {}
        for asn in todo:
            providers, peers, _customers = adj[asn]
            # Peer routes: one sideways hop into the up-cone, the
            # lowest (length, peer) winning. Customer routes always
            # win, and no member has one.
            best: Optional[Tuple[int, int]] = None
            for peer in peers:
                info = customer.get(peer)
                if info is not None and (
                    best is None or (info[1] + 1, peer) < best
                ):
                    best = (info[1] + 1, peer)
            kind = KIND_PEER
            if best is None:
                # Provider routes offered by already-resolved providers;
                # members' offers arrive through the sweep below.
                kind = KIND_PROVIDER
                for provider in providers:
                    info = routes.get(provider)
                    if info is not None and (
                        best is None or (info[1] + 1, provider) < best
                    ):
                        best = (info[1] + 1, provider)
            if best is not None:
                found[asn] = route((kind, best[0], best[1]))
                buckets.setdefault(best[0], []).append(asn)

        # Provider routes inside the members: every routed AS exports
        # its selected route to customers, recursively. Seed lengths
        # differ, so this is a unit-weight Dijkstra down customer
        # links — and with unit weights a bucket queue visits nodes in
        # exactly the order a ``(length, asn)`` heap would: lengths
        # ascending, ASNs ascending within a length (relaxations from
        # bucket ``l`` only ever land in bucket ``l + 1``, so each
        # bucket is complete before it is processed). A member seeded
        # from a resolved provider and then beaten by another member
        # sits in two buckets; the first visit settles it.
        found_get = found.get
        settled: Set[int] = set()
        length = min(buckets, default=0)
        while buckets:
            group = buckets.pop(length, None)
            nxt = length + 1
            if group is not None:
                group.sort()
                for asn in group:
                    if asn in settled:
                        continue
                    settled.add(asn)
                    for child in adj[asn][2]:
                        if child not in todo:
                            continue
                        best = found_get(child)
                        # Unrolled: skip unless the candidate (nxt, asn)
                        # strictly beats a provider route (peer routes
                        # always win). Provider routes carry an integer
                        # next hop, so best[2] is comparable.
                        if best is not None and (
                            best[0] > KIND_PROVIDER
                            or best[1] < nxt
                            or (best[1] == nxt and best[2] <= asn)
                        ):
                            continue
                        found[child] = route((KIND_PROVIDER, nxt, asn))
                        buckets.setdefault(nxt, []).append(child)
            length = nxt
        routes.update(found)
        unrouted.update(todo.difference(found))
        self._resolved_total.inc(len(todo))

    def _routes_from(self, src: int, dest: int) -> Dict[int, RouteInfo]:
        """``dest``'s resolved routes, with ``src`` (and so every AS
        on its path) among them when ``src`` has a route."""
        state = self._dest_routes(dest)
        routes = state[1]
        if src not in routes and src not in state[2]:
            if src in self._adjacency():
                self._resolve(state, self._closure(src))
        return routes

    # -- routing trees -----------------------------------------------------

    def routing_tree(self, dest: int) -> Dict[int, RouteInfo]:
        """Every AS's selected route toward ``dest`` (absent = no route).

        Resolves whatever no earlier query did; the returned mapping is
        the cached one, so repeated calls return the same object.
        """
        state = self._dest_routes(dest)
        adj = self._adjacency()
        if len(state[1]) + len(state[2]) == len(adj):
            self._cache_hits.inc()
        else:
            self._cache_misses.inc()
            self._resolve(state, adj)
        return state[1]

    # -- paths ---------------------------------------------------------

    def as_path(self, src: int, dest: int) -> Optional[List[int]]:
        """The AS-level path from ``src`` to ``dest``, or None.

        The returned list starts with ``src`` and ends with ``dest``;
        a path from an AS to itself is ``[src]``.
        """
        if src == dest:
            return [src]
        routes = self._routes_from(src, dest)
        if src not in routes:
            return None
        path = [src]
        current = src
        while current != dest:
            next_hop = routes[current].next_hop
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
        return src in self._routes_from(src, dest)

    def path_length(self, src: int, dest: int) -> Optional[int]:
        """AS-hop count from ``src`` to ``dest`` (0 when equal)."""
        if src == dest:
            return 0
        info = self._routes_from(src, dest).get(src)
        return None if info is None else info.length

    def clear_cache(self) -> None:
        """Drop every resolved route, provider closure and interned
        route (call after graph mutation)."""
        self._dests.clear()
        self._closures.clear()
        self._routes.clear()
        self._adj = None
