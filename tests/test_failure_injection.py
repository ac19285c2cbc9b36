"""Failure-injection tests: push the simulator into pathological
regimes and check the measurement stack degrades the way it should.

Each scenario here is an extreme parameterisation — universal options
filtering, dead hosts, draconian rate limits, total packet loss — and
the assertions pin down that every layer (dataplane, prober, studies)
reports the failure honestly instead of fabricating data.
"""

from repro.core.reachability import fraction_reachable
from repro.core.survey import run_ping_survey, run_rr_survey
from repro.core.table1 import build_table1
from repro.scenarios.internet import ScenarioParams, build_scenario
from repro.sim.policies import SimParams
from repro.topology.autsys import ASType
from repro.topology.generator import TopologyParams


def make_scenario(seed=5150, sim=None, topology=None, **scenario_kwargs):
    topology = topology or TopologyParams(
        seed=seed, num_tier1=3, num_tier2=8, num_edge=60,
        ixp_count=2, ixp_mean_members=6,
    )
    defaults = dict(
        name="failure",
        seed=seed,
        topology=topology,
        sim=sim or SimParams(seed=seed),
        prefix_scale=0.2,
        num_mlab=4,
        num_planetlab=2,
        mlab_as_pool=2,
        planetlab_as_pool=4,
    )
    defaults.update(scenario_kwargs)
    return build_scenario(ScenarioParams(**defaults))


class TestUniversalOptionsFiltering:
    def test_rr_dead_but_ping_alive(self):
        topology = TopologyParams(
            seed=5150, num_tier1=3, num_tier2=8, num_edge=60,
            ixp_count=2, ixp_mean_members=6,
            filter_prob=tuple(
                (as_type, 1.0) for as_type in ASType
            ),
            filter_core_prob=1.0,
        )
        scenario = make_scenario(topology=topology)
        ping = run_ping_survey(scenario)
        rr = run_rr_survey(scenario)
        assert ping.responsive_count > 0
        # Tier-1s never filter, so only destinations *inside* tier-1
        # ASes can still answer RR; everything else is dark.
        tier1 = set(scenario.topo.tier1)
        for index in rr.rr_responsive_indices():
            assert rr.dests[index].asn in tier1
        table = build_table1(scenario.classification, ping, rr)
        assert table.ip_rr_over_ping < 0.2


class TestDeadHosts:
    def test_nothing_responds_anywhere(self):
        sim = SimParams(
            seed=5150,
            ping_responsive=tuple((t, 0.0) for t in ASType),
        )
        scenario = make_scenario(sim=sim)
        ping = run_ping_survey(scenario)
        rr = run_rr_survey(scenario)
        assert ping.responsive_count == 0
        assert rr.rr_responsive_indices() == []
        assert fraction_reachable(rr) == 0.0


class TestDraconianRateLimits:
    def test_one_pps_everywhere_starves_batches(self):
        sim = SimParams(
            seed=5150,
            rate_limit_prob=1.0,
            rate_limit_choices=(1.0,),
            rate_limit_burst=1.0,
        )
        scenario = make_scenario(sim=sim)
        vp = scenario.working_vps[0]
        dests = list(scenario.hitlist)[:100]
        rows = scenario.prober.probe_batch_rows(vp, dests, pps=50.0)
        responded = sum(1 for _dest, o in rows if o.rr_responsive)
        # At 50x the policed rate, the vast majority must be dropped...
        assert responded < len(dests) * 0.3
        # ...and the drops must be attributed to rate limiting.
        assert scenario.network.stats.dropped_rate_limited > 0
        # Plain pings (no options) are never policed.
        ping = scenario.prober.ping(vp, dests[0].addr, count=3, pps=50.0)
        host = scenario.network.host_of_addr(dests[0].addr)
        if host is not None and host.ping_responsive:
            assert ping.responded


class TestTotalLoss:
    def test_loss_probability_one_blacks_out_everything(self):
        sim = SimParams(seed=5150, loss_prob=1.0)
        scenario = make_scenario(sim=sim)
        vp = scenario.working_vps[0]
        for dest in list(scenario.hitlist)[:20]:
            assert not scenario.prober.ping(vp, dest.addr).responded
            assert not scenario.prober.ping_rr(vp, dest.addr).rr_responsive
        assert scenario.network.stats.dropped_loss > 0


class TestNoStampWorld:
    def test_rr_responsive_but_never_reachable(self):
        # Every router forwards without stamping and every host
        # declines to stamp: replies come back with the option intact
        # but empty, so everything is RR-responsive yet nothing is
        # RR-reachable — the test's false-negative mode, maximised.
        sim = SimParams(
            seed=5150,
            router_no_stamp_prob=1.0,
            access_no_stamp_prob=1.0,
            host_alias_prob=0.0,
            host_no_stamp_prob=1.0,
            host_strip_prob=0.0,
        )
        scenario = make_scenario(sim=sim)
        rr = run_rr_survey(scenario)
        responsive = rr.rr_responsive_indices()
        assert responsive
        assert fraction_reachable(rr) == 0.0
        for index in responsive[:20]:
            assert rr.min_slot(index) is None
