"""Tracer-backed dataplane regression tests.

These tie §4.2's observable behaviour — where RR stamps stop when a
TTL-limited probe expires, and what the quoted header preserves — to
the hop-level events the tracer records, so a future dataplane change
that quietly breaks the stamp/expiry ordering fails loudly here.
"""

import pytest

from repro.core.survey import run_rr_survey, save_survey
from repro.obs.trace import PacketTracer
from repro.scenarios.presets import tiny
from repro.sim.network import Network
from repro.sim.policies import HostRRMode, SimParams


@pytest.fixture(scope="module")
def quiet_scenario():
    """A tiny scenario with loss disabled, for exact assertions."""
    scenario = tiny(seed=907)
    quiet = SimParams(seed=907, loss_prob=0.0)
    scenario.network = Network(
        scenario.topo,
        scenario.routing,
        scenario.fabric,
        scenario.hitlist,
        quiet,
    )
    scenario.prober.network = scenario.network
    return scenario


def stamping_hosts(scenario):
    for dest in scenario.hitlist:
        host = scenario.network.host_for(dest)
        if (
            host.rr_mode is HostRRMode.STAMP
            and host.ping_responsive
            and not host.drops_options
        ):
            yield host


class TestTracedDelivery:
    def test_rr_stamp_events_match_reply_rr(self, quiet_scenario):
        """Every RR slot in the reply corresponds to a stamp event, in
        order: forward path, host, reverse path."""
        network = quiet_scenario.network
        vp = quiet_scenario.working_vps[0]
        prober = quiet_scenario.prober
        tracer = network.attach_tracer(PacketTracer())
        try:
            for host in stamping_hosts(quiet_scenario):
                tracer.clear()
                result = prober.ping_rr(vp, host.addr)
                if not (result.responded and result.reply_has_rr):
                    continue
                stamps = [
                    event.addr for event in tracer.events_of("rr_stamp")
                ]
                assert stamps == result.rr_hops
                rendered = tracer.render()
                assert "rr_stamp" in rendered
                assert "verdict: delivered" in rendered
                return
            pytest.skip("no RR-reachable stamping host from this VP")
        finally:
            network.detach_tracer()

    def test_detached_tracer_stops_recording(self, quiet_scenario):
        network = quiet_scenario.network
        vp = quiet_scenario.working_vps[0]
        dest = list(quiet_scenario.hitlist)[0]
        tracer = network.attach_tracer()
        assert network.detach_tracer() is tracer
        before = len(tracer)
        quiet_scenario.prober.ping_rr(vp, dest.addr)
        assert len(tracer) == before
        assert network.tracer is None


class TestTtlLimitedExpiry:
    def test_stamps_stop_exactly_at_expiry_router(self, quiet_scenario):
        """§4.2: a TTL-limited RR probe's hop trace shows stamps
        stopping exactly at the router where the TTL expired, and the
        quoted RR in the Time Exceeded error carries exactly those
        stamps."""
        network = quiet_scenario.network
        vp = quiet_scenario.working_vps[0]
        prober = quiet_scenario.prober
        tracer = network.attach_tracer(PacketTracer())
        try:
            for host in stamping_hosts(quiet_scenario):
                for ttl in (2, 3, 4):
                    tracer.clear()
                    result = prober.ping_rr(vp, host.addr, ttl=ttl)
                    if not result.ttl_exceeded:
                        continue

                    expiries = tracer.events_of("ttl_expired")
                    assert len(expiries) == 1
                    expiry = expiries[0]
                    # The error came from the router where TTL died.
                    assert expiry.addr == result.error_source
                    assert expiry.detail == "time-exceeded sent"

                    stamps = tracer.events_of("rr_stamp")
                    # No stamp event after the expiry: stamping stopped
                    # exactly at the expiry router.
                    assert all(
                        event.seq < expiry.seq for event in stamps
                    )
                    # The quoted header preserves exactly the stamps
                    # collected before expiry (the §4.2 recovery).
                    assert [
                        event.addr for event in stamps
                    ] == result.quoted_rr_hops
                    # And the expiring router is the last hop walked.
                    hops = tracer.events_of("hop")
                    assert hops[-1].asn == expiry.asn

                    rendered = tracer.render()
                    assert "ttl_expired" in rendered
                    assert "verdict: ttl expired" in rendered
                    return
            pytest.skip("no TTL-expiring path found from this VP")
        finally:
            network.detach_tracer()


class TestTracerObservesOnly:
    def test_traced_survey_replays_and_saves_same_bytes(self, tmp_path):
        """An attached tracer never switches the path: a traced survey
        still replays compiled plans and saves its untraced twin's
        bytes."""
        plain = tiny(seed=2016)
        traced = tiny(seed=2016)
        replays = traced.network._plan_replays
        baseline = run_rr_survey(plain, dests=list(plain.hitlist)[:30])
        before = replays.value
        traced.network.attach_tracer(PacketTracer())
        try:
            observed = run_rr_survey(
                traced, dests=list(traced.hitlist)[:30]
            )
        finally:
            traced.network.detach_tracer()
        assert replays.value > before
        save_survey(baseline, tmp_path / "plain.json")
        save_survey(observed, tmp_path / "traced.json")
        assert (tmp_path / "traced.json").read_bytes() == \
            (tmp_path / "plain.json").read_bytes()


class TestStatsFacadeRegistryParity:
    def test_facade_reads_registry_children(self, quiet_scenario):
        network = quiet_scenario.network
        family = network.registry.get("net_sent_total")
        child = family.labels(network.net_id)
        before = network.stats.sent
        assert child.value == before
        vp = quiet_scenario.working_vps[0]
        dest = list(quiet_scenario.hitlist)[0]
        quiet_scenario.prober.ping(vp, dest.addr, count=1)
        assert network.stats.sent == before + 1
        assert child.value == before + 1

    def test_reset_is_per_network(self):
        scenario_a = tiny(seed=31)
        scenario_b = tiny(seed=32)
        for scenario in (scenario_a, scenario_b):
            vp = scenario.working_vps[0]
            dest = list(scenario.hitlist)[0]
            scenario.prober.ping(vp, dest.addr, count=1)
        assert scenario_a.network.stats.sent > 0
        assert scenario_b.network.stats.sent > 0
        scenario_a.network.stats.reset()
        assert scenario_a.network.stats.sent == 0
        assert scenario_b.network.stats.sent > 0
