"""Property-based tests for valley-free routing over random graphs.

Hypothesis generates arbitrary small AS graphs (random transit DAG
plus random peerings) and the tests assert the Gao–Rexford invariants
hold for every computed path — the strongest guarantee the routing
substrate offers the rest of the system. ``TestWholeTreeOracle``
checks the per-source resolver against a whole-tree sweep kept here as
the reference, on graphs with provider cycles and in any query order.
"""

from typing import Dict, List, Optional

from hypothesis import example, given, settings, strategies as st

from repro.topology.autsys import ASGraph, ASType, AutonomousSystem, Tier
from repro.topology.routing import RouteInfo, RouteKind, RoutingSystem


@st.composite
def as_graphs(draw):
    """A random consistent AS graph.

    Transit edges always point from a higher-numbered customer to a
    lower-numbered provider, which guarantees an acyclic customer-
    provider hierarchy; peerings fill in afterwards where no transit
    relationship exists.
    """
    count = draw(st.integers(min_value=2, max_value=14))
    graph = ASGraph()
    for asn in range(1, count + 1):
        graph.add_as(
            AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2)
        )
    transit_candidates = [
        (customer, provider)
        for customer in range(2, count + 1)
        for provider in range(1, customer)
    ]
    transit = draw(
        st.lists(
            st.sampled_from(transit_candidates),
            unique=True,
            max_size=2 * count,
        )
    ) if transit_candidates else []
    for customer, provider in transit:
        graph.add_customer_provider(customer, provider)
    peer_candidates = [
        (left, right)
        for left in range(1, count + 1)
        for right in range(left + 1, count + 1)
        if graph.relationship(left, right) is None
    ]
    peers = draw(
        st.lists(
            st.sampled_from(peer_candidates),
            unique=True,
            max_size=count,
        )
    ) if peer_candidates else []
    for left, right in peers:
        if graph.relationship(left, right) is None:
            graph.add_peering(left, right)
    graph.validate()
    return graph


def classify_steps(graph, path):
    """Each step as 'up' (to provider), 'peer', or 'down' (to customer)."""
    steps = []
    for left, right in zip(path, path[1:]):
        rel = graph.relationship(left, right)
        assert rel is not None, f"path uses a non-edge {left}->{right}"
        steps.append(
            {"provider": "up", "peer": "peer", "customer": "down"}[rel.value]
        )
    return steps


class TestValleyFreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_every_path_is_valley_free(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns:
            for src in asns:
                path = routing.as_path(src, dest)
                if path is None or len(path) < 2:
                    continue
                steps = classify_steps(graph, path)
                # Valley-free regex: up* peer? down*
                descended = False
                peers = 0
                for step in steps:
                    if step == "up":
                        assert not descended, (path, steps)
                    elif step == "peer":
                        peers += 1
                        assert not descended, (path, steps)
                        descended = True
                    else:
                        descended = True
                assert peers <= 1, (path, steps)

    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_paths_are_simple_and_terminate(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns[:6]:
            for src in asns:
                path = routing.as_path(src, dest)
                if path is None:
                    continue
                assert path[0] == src and path[-1] == dest
                assert len(path) == len(set(path)), "loop in path"

    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_customer_cone_always_reachable(self, graph):
        # A provider can always reach every AS in its customer cone.
        routing = RoutingSystem(graph)

        def cone(asn):
            found = set()
            frontier = [asn]
            while frontier:
                current = frontier.pop()
                for customer in graph.customers_of(current):
                    if customer not in found:
                        found.add(customer)
                        frontier.append(customer)
            return found

        for asn in graph.asns()[:6]:
            for customer in cone(asn):
                assert routing.reachable_from(asn, customer)
                tree = routing.routing_tree(customer)
                assert tree[asn].kind == RouteKind.CUSTOMER

    @settings(max_examples=40, deadline=None)
    @given(as_graphs())
    def test_path_length_matches_route_info(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns[:5]:
            tree = routing.routing_tree(dest)
            for src in asns:
                path = routing.as_path(src, dest)
                if src == dest:
                    assert path == [src]
                    continue
                info = tree.get(src)
                if info is None:
                    assert path is None
                else:
                    assert path is not None
                    assert len(path) - 1 == info.length


class TestInternedRoutes:
    """Every tree of one system shares one ``RouteInfo`` per value."""

    @staticmethod
    def _all_routes(routing, graph):
        return [
            info
            for dest in graph.asns()
            for info in routing.routing_tree(dest).values()
        ]

    @settings(max_examples=40, deadline=None)
    @given(as_graphs())
    def test_equal_routes_are_one_object(self, graph):
        routing = RoutingSystem(graph)
        routes = self._all_routes(routing, graph)
        assert len({id(info) for info in routes}) == len(set(routes))
        for info in routes:
            assert type(info) is RouteInfo
            assert (info.kind, info.length, info.next_hop) == tuple(info)

    @settings(max_examples=20, deadline=None)
    @given(as_graphs())
    def test_clear_cache_empties_the_table(self, graph):
        routing = RoutingSystem(graph)
        before = self._all_routes(routing, graph)
        routing.clear_cache()
        assert routing.cache_len == 0 and not routing._routes
        after = self._all_routes(routing, graph)
        assert after == before
        assert not {id(info) for info in after} & {id(info) for info in before}


# ---------------------------------------------------------------------------
# The whole-tree oracle.
# ---------------------------------------------------------------------------


def oracle_tree(graph: ASGraph, dest: int) -> Dict[int, tuple]:
    """Every AS's ``(kind, length, next_hop)`` toward ``dest``: the
    three-phase sweep (customer BFS up, one peer step sideways,
    provider Dijkstra down) that computed whole routing trees before
    routes were resolved per source."""
    adj = {
        asn: (
            tuple(graph.providers_of(asn)),
            tuple(graph.peers_of(asn)),
            tuple(sorted(graph.customers_of(asn))),
        )
        for asn in graph.asns()
    }
    routes: Dict[int, tuple] = {dest: (RouteKind.CUSTOMER, 0, None)}
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
            routes[provider] = (RouteKind.CUSTOMER, length, via)
        frontier = sorted(candidates)
    peer_routes: Dict[int, tuple] = {}
    for asn, info in routes.items():
        length = info[1] + 1
        for peer in adj[asn][1]:
            if peer in routes:
                continue
            best = peer_routes.get(peer)
            if best is None or (length, asn) < best[1:]:
                peer_routes[peer] = (RouteKind.PEER, length, asn)
    routes.update(peer_routes)
    buckets: Dict[int, List[int]] = {}
    for asn, info in routes.items():
        buckets.setdefault(info[1], []).append(asn)
    settled: Dict[int, int] = {}
    length = 0
    while buckets:
        group = buckets.pop(length, None)
        nxt = length + 1
        if group is not None:
            group.sort()
            for asn in group:
                if settled.get(asn, 1 << 30) <= length:
                    continue
                settled[asn] = length
                for customer in adj[asn][2]:
                    best = routes.get(customer)
                    if best is not None and (
                        best[0] > RouteKind.PROVIDER
                        or best[1] < nxt
                        or (best[1] == nxt and best[2] <= asn)
                    ):
                        continue
                    routes[customer] = (RouteKind.PROVIDER, nxt, asn)
                    buckets.setdefault(nxt, []).append(customer)
        length = nxt
    return routes


def oracle_path(tree: Dict[int, tuple], src: int, dest: int) -> Optional[list]:
    if src == dest:
        return [src]
    if src not in tree:
        return None
    path = [src]
    while path[-1] != dest:
        path.append(tree[path[-1]][2])
    return path


@st.composite
def cyclic_graphs_and_queries(draw):
    """A consistent AS graph whose transit edges may point either way
    (so provider cycles occur), with ASNs scattered so that set order
    is not ASN order, plus every (source, destination) pair in a drawn
    order and the query positions where a whole tree is asked for."""
    count = draw(st.integers(min_value=2, max_value=12))
    asns = draw(
        st.lists(
            st.integers(min_value=1, max_value=400),
            min_size=count, max_size=count, unique=True,
        )
    )
    graph = ASGraph()
    for asn in asns:
        graph.add_as(AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2))
    if count >= 3 and draw(st.booleans()):
        # About half the graphs get a provider cycle for certain.
        first, second, third = draw(st.permutations(asns))[:3]
        for customer, provider in (
            (first, second), (second, third), (third, first)
        ):
            graph.add_customer_provider(customer, provider)
    ordered = [(a, b) for a in asns for b in asns if a != b]
    for customer, provider in draw(
        st.lists(st.sampled_from(ordered), unique=True, max_size=3 * count)
    ):
        if graph.relationship(customer, provider) is None:
            graph.add_customer_provider(customer, provider)
    for left, right in draw(
        st.lists(st.sampled_from(ordered), unique=True, max_size=2 * count)
    ):
        if graph.relationship(left, right) is None:
            graph.add_peering(left, right)
    graph.validate()
    queries = draw(st.permutations([(a, b) for a in asns for b in asns]))
    trees_at = draw(
        st.sets(st.integers(min_value=0, max_value=len(queries) - 1),
                max_size=3)
    )
    return graph, queries, trees_at


def _equal_length_ties():
    """Toward AS 5, whose providers are 2 and 9: AS 7 peers with both,
    AS 11 buys from both, and AS 13 buys from 3 and 7, which each peer
    with 2. Each of 7, 11 and 13 has two equal-length routes, and the
    lower next hop must win although ``{2, 9}`` iterates 9 first. The
    queries run from the highest source down, so 13 resolves before
    its providers do."""
    graph = ASGraph()
    for asn in (2, 3, 5, 7, 9, 11, 13):
        graph.add_as(AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2))
    for customer, provider in (
        (5, 2), (5, 9), (11, 2), (11, 9), (13, 3), (13, 7)
    ):
        graph.add_customer_provider(customer, provider)
    for left, right in ((7, 2), (7, 9), (3, 2)):
        graph.add_peering(left, right)
    asns = graph.asns()
    return graph, [(a, b) for a in reversed(asns) for b in asns], set()


class TestWholeTreeOracle:
    """Per-source resolution equals the whole-tree sweep, pair by pair."""

    @settings(max_examples=300, deadline=None)
    @given(cyclic_graphs_and_queries())
    @example(_equal_length_ties())
    def test_as_path_matches_the_oracle_in_any_order(self, drawn):
        graph, queries, trees_at = drawn
        trees = {dest: oracle_tree(graph, dest) for dest in graph.asns()}
        routing = RoutingSystem(graph)
        for position, (src, dest) in enumerate(queries):
            if position in trees_at:
                assert routing.routing_tree(dest) == trees[dest]
            want = oracle_path(trees[dest], src, dest)
            assert routing.as_path(src, dest) == want, (src, dest)
            assert routing.path_length(src, dest) == (
                None if want is None else len(want) - 1
            )
            assert routing.reachable_from(src, dest) is (want is not None)
        for dest, tree in trees.items():
            assert routing.routing_tree(dest) == tree

    @settings(max_examples=100, deadline=None)
    @given(cyclic_graphs_and_queries())
    def test_fresh_routing_tree_matches_the_oracle(self, drawn):
        graph = drawn[0]
        routing = RoutingSystem(graph)
        for dest in graph.asns():
            assert routing.routing_tree(dest) == oracle_tree(graph, dest)
