"""Property-based tests for valley-free routing over random graphs.

Hypothesis generates arbitrary small AS graphs (random transit DAG
plus random peerings) and the tests assert the Gao–Rexford invariants
hold for every computed path — the strongest guarantee the routing
substrate offers the rest of the system.
"""

from hypothesis import given, settings, strategies as st

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
