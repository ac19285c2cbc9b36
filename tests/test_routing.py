"""Tests for repro.topology.routing: valley-free route computation."""

import pytest

from repro.cli import _render_stats_table
from repro.obs.metrics import REGISTRY
from repro.topology.autsys import ASGraph, ASType, AutonomousSystem, Tier
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.routing import RouteKind, RoutingSystem


def build(edges_transit=(), edges_peer=(), count=8):
    graph = ASGraph()
    for asn in range(1, count + 1):
        graph.add_as(
            AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2)
        )
    for customer, provider in edges_transit:
        graph.add_customer_provider(customer, provider)
    for left, right in edges_peer:
        graph.add_peering(left, right)
    return RoutingSystem(graph)


class TestBasicPaths:
    def test_path_to_self(self):
        routing = build()
        assert routing.as_path(3, 3) == [3]
        assert routing.path_length(3, 3) == 0

    def test_direct_customer_route(self):
        routing = build(edges_transit=[(2, 1)])
        assert routing.as_path(1, 2) == [1, 2]
        assert routing.as_path(2, 1) == [2, 1]

    def test_unreachable_returns_none(self):
        routing = build()
        assert routing.as_path(1, 2) is None
        assert routing.path_length(1, 2) is None
        assert not routing.reachable_from(1, 2)

    def test_uphill_then_downhill(self):
        # 2 and 3 are customers of 1: classic valley path via provider.
        routing = build(edges_transit=[(2, 1), (3, 1)])
        assert routing.as_path(2, 3) == [2, 1, 3]

    def test_single_peer_hop(self):
        routing = build(edges_transit=[(3, 2)], edges_peer=[(1, 2)])
        assert routing.as_path(1, 3) == [1, 2, 3]


class TestPolicy:
    def test_customer_route_preferred_over_shorter_peer(self):
        # Destination 4: AS1 can reach via customer chain 1<-2<-4
        # (length 2) or via peer 3 (length 2). Customer must win.
        routing = build(
            edges_transit=[(2, 1), (4, 2), (4, 3)],
            edges_peer=[(1, 3)],
        )
        tree = routing.routing_tree(4)
        assert tree[1].kind == RouteKind.CUSTOMER
        assert routing.as_path(1, 4) == [1, 2, 4]

    def test_no_peer_peer_valley(self):
        # 1-2 peer, 2-3 peer; valley-free forbids 1->2->3.
        routing = build(edges_peer=[(1, 2), (2, 3)])
        assert routing.as_path(1, 3) is None

    def test_no_peer_then_provider_climb(self):
        # 1 peers with 2; 2 is a customer of 3. A route 1->2->3 would
        # require 2 to export its provider to a peer: forbidden.
        routing = build(edges_transit=[(2, 3)], edges_peer=[(1, 2)])
        assert routing.as_path(1, 3) is None

    def test_provider_route_used_as_last_resort(self):
        # 1 is 2's provider; 3 is 1's provider; dest 3 reachable from 2
        # only by climbing through 1.
        routing = build(edges_transit=[(2, 1), (1, 3)])
        assert routing.as_path(2, 3) == [2, 1, 3]
        assert routing.routing_tree(3)[2].kind == RouteKind.PROVIDER

    def test_shorter_path_wins_within_class(self):
        # Two customer routes to 5 from 1: 1<-2<-5 and 1<-3<-4<-5.
        routing = build(edges_transit=[(2, 1), (5, 2), (3, 1), (4, 3), (5, 4)])
        assert routing.as_path(1, 5) == [1, 2, 5]

    def test_tie_broken_by_lowest_next_hop(self):
        # Equal-length customer routes via 2 and 3: pick 2.
        routing = build(edges_transit=[(2, 1), (3, 1), (5, 2), (5, 3)])
        assert routing.as_path(1, 5) == [1, 2, 5]


class TestValleyFreeInvariant:
    def test_generated_topology_paths_are_valley_free(self):
        topo = generate_topology(
            TopologyParams(seed=5, num_tier1=3, num_tier2=8, num_edge=60)
        )
        routing = RoutingSystem(topo.graph)
        graph = topo.graph
        checked = 0
        for dest in topo.edges[:12]:
            for src in topo.edges[:12]:
                path = routing.as_path(src, dest)
                if path is None or len(path) < 2:
                    continue
                # Classify each step; once we go peer or down, we may
                # never go up or peer again.
                descending = False
                peers_seen = 0
                for left, right in zip(path, path[1:]):
                    rel = graph.relationship(left, right)
                    if rel.value == "provider":  # climbing
                        assert not descending, path
                    elif rel.value == "peer":
                        peers_seen += 1
                        assert not descending, path
                        descending = True
                    else:  # customer: descending
                        descending = True
                assert peers_seen <= 1, path
                checked += 1
        assert checked > 50

    def test_routes_cached(self):
        routing = build(edges_transit=[(2, 1)])
        tree_a = routing.routing_tree(1)
        tree_b = routing.routing_tree(1)
        assert tree_a is tree_b

    def test_cache_cleared(self):
        routing = build(edges_transit=[(2, 1)])
        tree_a = routing.routing_tree(1)
        routing.clear_cache()
        assert routing.routing_tree(1) is not tree_a

    def test_unknown_destination_rejected(self):
        with pytest.raises(KeyError):
            build().routing_tree(99)


def _counter(name, **labels):
    family = REGISTRY.snapshot().get(name)
    return sum(
        series["value"]
        for series in (family or {"series": []})["series"]
        if all(series["labels"].get(k) == v for k, v in labels.items())
    )


class TestResolutionAccounting:
    def test_paths_resolve_only_the_source_closure(self):
        # 2 and 3 are customers of 1; ASes 4..8 are isolated.
        routing = build(edges_transit=[(2, 1), (3, 1)])
        resolved = _counter("routing_routes_resolved_total")
        misses = _counter("routing_tree_cache_lookups_total", result="miss")
        assert routing.as_path(2, 3) == [2, 1, 3]
        # 3's up-cone (3, 1) plus the source itself; nothing else.
        assert routing.cache_len == 3
        assert _counter("routing_routes_resolved_total") == resolved + 3
        assert routing.as_path(2, 3) == [2, 1, 3]
        assert routing.cache_len == 3
        assert _counter(
            "routing_tree_cache_lookups_total", result="miss"
        ) == misses
        # A whole tree resolves the other five ASes, once.
        tree = routing.routing_tree(3)
        assert routing.cache_len == 8 and len(tree) == 3
        assert routing.routing_tree(3) is tree
        assert _counter(
            "routing_tree_cache_lookups_total", result="miss"
        ) == misses + 1
        assert _counter("routing_routes_resolved_total") == resolved + 8
        table = _render_stats_table(REGISTRY.snapshot())
        assert "routing cache" in table and "routes_resolved" in table
        routing.clear_cache()
        assert routing.cache_len == 0
