"""Tests for repro.probing.prober: the scamper equivalent."""

import pytest

from repro.probing.prober import Prober
from repro.sim.policies import HostRRMode


def stamping_target(scenario):
    network = scenario.network
    for dest in scenario.hitlist:
        host = network.host_for(dest)
        if (
            host.ping_responsive
            and not host.drops_options
            and host.rr_mode is HostRRMode.STAMP
        ):
            return host
    pytest.skip("no suitable target")


class TestPing:
    def test_responsive_host_answers(self, tiny_scenario):
        target = stamping_target(tiny_scenario)
        result = tiny_scenario.prober.ping(
            tiny_scenario.origin, target.addr
        )
        assert result.responded
        assert result.replies == 1
        assert result.reply_ident is not None

    def test_dead_host_gets_three_attempts(self, tiny_scenario):
        network = tiny_scenario.network
        dead = next(
            host
            for dest in tiny_scenario.hitlist
            if not (host := network.host_for(dest)).ping_responsive
        )
        result = tiny_scenario.prober.ping(tiny_scenario.origin, dead.addr)
        assert not result.responded
        assert result.sent == 3

    def test_pacing_advances_clock(self, tiny_scenario):
        clock = tiny_scenario.network.clock
        before = clock.now
        tiny_scenario.prober.ping(
            tiny_scenario.origin, 1, count=1, pps=10.0
        )
        assert clock.now == pytest.approx(before + 0.1)


class TestPingRR:
    def test_reachable_target_reports_slot(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        found = None
        for dest in list(tiny_scenario.hitlist):
            result = tiny_scenario.prober.ping_rr(vp, dest.addr)
            if result.reachable:
                found = result
                break
        assert found is not None
        slot = found.dest_slot()
        assert 1 <= slot <= 9
        assert found.rr_hops[slot - 1] == found.dst
        assert found.forward_hops() == found.rr_hops[: slot - 1]

    def test_locally_filtered_vp_sees_nothing(self, tiny_scenario):
        filtered = [vp for vp in tiny_scenario.vps if vp.local_filtered]
        if not filtered:
            pytest.skip("no filtered VP in this draw")
        target = stamping_target(tiny_scenario)
        result = tiny_scenario.prober.ping_rr(filtered[0], target.addr)
        assert not result.responded and not result.rr_responsive

    def test_custom_slot_count_respected(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        target = stamping_target(tiny_scenario)
        result = tiny_scenario.prober.ping_rr(vp, target.addr, slots=3)
        if not result.rr_responsive:
            pytest.skip("pair filtered")
        assert len(result.rr_hops) <= 3

    def test_ttl_limited_probe_recovers_quote(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        target = stamping_target(tiny_scenario)
        # TTL 2 expires inside the path for any non-adjacent target.
        result = tiny_scenario.prober.ping_rr(vp, target.addr, ttl=2)
        if result.responded or not result.ttl_exceeded:
            pytest.skip("target adjacent or silent first hops")
        assert result.error_source is not None
        # Quoted RR contains at most the stamps accumulated so far.
        assert len(result.quoted_rr_hops) <= 2


class TestPingRRUdp:
    def test_quotes_reveal_remaining_slots(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        network = tiny_scenario.network
        target = next(
            host
            for dest in tiny_scenario.hitlist
            if (host := network.host_for(dest)).udp_unreachable
            and not host.drops_options
        )
        result = tiny_scenario.prober.ping_rr_udp(vp, target.addr)
        if not result.got_unreachable:
            pytest.skip("pair filtered")
        assert result.quoted_slots == 9
        assert result.slots_remaining == 9 - len(result.quoted_rr_hops)

    def test_filtered_vp_gets_nothing(self, tiny_scenario):
        filtered = [vp for vp in tiny_scenario.vps if vp.local_filtered]
        if not filtered:
            pytest.skip("no filtered VP in this draw")
        result = tiny_scenario.prober.ping_rr_udp(filtered[0], 1)
        assert not result.got_unreachable


class TestTraceroute:
    def test_reaches_responsive_target(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        target = stamping_target(tiny_scenario)
        trace = tiny_scenario.prober.traceroute(vp, target.addr)
        assert trace.reached
        assert trace.hops[-1] == target.addr
        assert trace.hop_count == len(trace.hops)

    def test_intermediate_hops_are_router_interfaces(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        target = stamping_target(tiny_scenario)
        trace = tiny_scenario.prober.traceroute(vp, target.addr)
        for addr in trace.hops[:-1]:
            if addr is None:
                continue
            assert tiny_scenario.fabric.router_of_addr(addr) is not None

    def test_unresponsive_target_not_reached(self, tiny_scenario):
        network = tiny_scenario.network
        vp = tiny_scenario.working_vps[0]
        dead = next(
            host
            for dest in tiny_scenario.hitlist
            if not (host := network.host_for(dest)).ping_responsive
        )
        trace = tiny_scenario.prober.traceroute(vp, dead.addr, max_ttl=20)
        assert not trace.reached
        assert trace.hop_count is None

    def test_max_ttl_respected(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        target = stamping_target(tiny_scenario)
        trace = tiny_scenario.prober.traceroute(vp, target.addr, max_ttl=2)
        assert len(trace.hops) <= 2


class TestBatch:
    def test_batch_preserves_order_and_length(self, tiny_scenario):
        vp = tiny_scenario.working_vps[0]
        dests = list(tiny_scenario.hitlist)[:15]
        rows = tiny_scenario.prober.probe_batch_rows(vp, dests)
        assert [dest for dest, _outcome in rows] == dests

    def test_invalid_pps_rejected(self, tiny_scenario):
        with pytest.raises(ValueError):
            Prober(tiny_scenario.network, default_pps=0)
