"""Micro-benchmarks for the substrate hot paths.

Not paper artifacts — these track the cost of the primitives every
experiment leans on: wire encode/decode, RR stamping, valley-free
route resolution (a whole routing tree, and the per-source paths a
survey walks), path expansion, LPM lookups, and a single end-to-end
ping-RR through the dataplane.
"""

import pytest

from repro.analysis.ip2as import build_ip2as
from repro.net.icmp import ICMP_ECHO_REQUEST, IcmpEcho
from repro.net.options import RecordRouteOption
from repro.net.packet import IPv4Packet
from repro.topology.routing import RoutingSystem


@pytest.fixture(scope="module")
def rr_packet_bytes():
    pkt = IPv4Packet(
        src=(10 << 16) | 1,
        dst=(20 << 16) | 2,
        options=[RecordRouteOption(slots=9, recorded=[1, 2, 3])],
        payload=IcmpEcho(ICMP_ECHO_REQUEST, 7, 9, b"x" * 16).to_bytes(),
    )
    return pkt, pkt.to_bytes()


def test_bench_packet_encode(benchmark, rr_packet_bytes):
    pkt, _wire = rr_packet_bytes
    assert benchmark(pkt.to_bytes)


def test_bench_packet_decode(benchmark, rr_packet_bytes):
    _pkt, wire = rr_packet_bytes
    decoded = benchmark(IPv4Packet.from_bytes, wire)
    assert decoded.record_route is not None


def test_bench_rr_stamping(benchmark):
    def stamp_full():
        rr = RecordRouteOption(slots=9)
        for addr in range(1, 12):
            rr.stamp(addr)
        return rr

    assert benchmark(stamp_full).full


def test_bench_routing_tree(benchmark, study_2016):
    scenario = study_2016.scenario
    dest = scenario.topo.edges[0]

    def compute():
        routing = RoutingSystem(scenario.graph)
        return routing.routing_tree(dest)

    tree = benchmark(compute)
    assert len(tree) > len(scenario.graph) * 0.9


def test_bench_as_path(benchmark, study_2016):
    """Every (ingress AS, destination AS) pair of the survey on a fresh
    system: the routes a cold survey resolves, and no others."""
    scenario = study_2016.scenario
    sources = sorted({vp.asn for vp in scenario.vps})
    dests = sorted({dest.asn for dest in scenario.hitlist})

    def resolve():
        routing = RoutingSystem(scenario.graph)
        return sum(
            routing.as_path(src, dest) is not None
            for src in sources
            for dest in dests
        )

    routed = benchmark(resolve)
    assert routed > 0.5 * len(sources) * len(dests)


def test_bench_path_expansion(benchmark, study_2016):
    scenario = study_2016.scenario
    src = scenario.mlab_vps[0].asn
    dest = list(scenario.hitlist)[10]
    as_path = scenario.routing.as_path(src, dest.asn)
    assert as_path is not None
    hops = benchmark(scenario.fabric.expand, as_path, dest.prefix)
    assert hops


def test_bench_ip2as_lookup(benchmark, study_2016):
    scenario = study_2016.scenario
    mapping = build_ip2as(scenario.table)
    addrs = [dest.addr for dest in list(scenario.hitlist)[:512]]

    def lookup_all():
        return [mapping.asn_of(addr) for addr in addrs]

    results = benchmark(lookup_all)
    assert all(asn is not None for asn in results)


def test_bench_single_ping_rr(benchmark, study_2016):
    scenario = study_2016.scenario
    vp = scenario.working_vps[0]
    dest = list(scenario.hitlist)[5]
    result = benchmark(scenario.prober.ping_rr, vp, dest.addr)
    assert result is not None


def test_bench_stamp_plan_compile(benchmark, study_2016):
    """Cost of compiling one flow's round-trip plan + RR template.

    Path/segment caches are warm (as on every miss after the first
    probe of an ingress AS) and every round compiles a fresh plan, so
    this times the whole per-flow compile the batched dataplane pays
    once per (VP-AS, destination) and options-shape: the plan handle,
    then the template's forward walk, host checks and, for a flow
    that gets an Echo Reply, the reverse leg."""
    from repro.net.packet import DEFAULT_TTL
    from repro.sim.stampplan import KIND_RR

    scenario = study_2016.scenario
    network = scenario.network
    src_asn = scenario.working_vps[0].addr >> 16
    dest = list(scenario.hitlist)[7]
    network.plan_for(src_asn, dest)  # warm the path/segment caches

    def compile_flow():
        plan = network._compile_plan(src_asn, dest)
        return plan.template(network, KIND_RR, 9, DEFAULT_TTL, None)

    assert benchmark(compile_flow).final is not None


def test_bench_stamp_plan_replay(benchmark, study_2016):
    """Warm-cache batch replay throughput (probes through plans)."""
    scenario = study_2016.scenario
    prober = scenario.prober
    vp = scenario.working_vps[0]
    dests = list(scenario.hitlist)[:256]
    prober.probe_batch_rows(vp, dests)  # warm the plan cache

    rows = benchmark(prober.probe_batch_rows, vp, dests)
    assert len(rows) == len(dests)
