"""Ablations on the design choices DESIGN.md calls out.

* **Probe order** — §4.1 randomises each VP's destination order to
  avoid bursts at destination-proximate policers; probing sorted by
  prefix at high rate re-creates those bursts.
* **Flattening** — §3.4 attributes the reachability gain to peering
  density; sweeping the generator's knob isolates that cause.
* **VP placement** — Figure 1's M-Lab-vs-PlanetLab gap is a placement
  effect; swapping the M-Lab pool onto university stubs erases it.
* **TTL limiting** — §4.2's probes trade coverage for slow-path load;
  measure both sides of the trade at TTL 10 vs 64.
"""

from repro.core.reachability import fraction_reachable
from repro.core.survey import run_rr_survey
from repro.probing.scheduler import ProbeOrder, order_destinations
from repro.probing.vantage import Platform, VantagePoint, vp_addr
from repro.rng import stable_rng
from repro.scenarios.internet import ScenarioParams, build_scenario
from repro.sim.policies import SimParams
from repro.topology.generator import TopologyParams


def _tiny_params(seed, **topology_overrides):
    topology = TopologyParams(
        seed=seed,
        num_tier1=4,
        num_tier2=12,
        num_edge=150,
        ixp_count=3,
        ixp_mean_members=8,
        **topology_overrides,
    )
    return ScenarioParams(
        name=f"ablation-{seed}",
        seed=seed,
        topology=topology,
        sim=SimParams(seed=seed),
        prefix_scale=0.25,
        num_mlab=6,
        num_planetlab=5,
        mlab_as_pool=3,
        planetlab_as_pool=10,
    )


def test_ablation_probe_order(benchmark, study_2016, write_artifact):
    """Sorted-by-prefix probing at high rate loses responses that the
    paper's randomised order keeps."""
    scenario = study_2016.scenario
    survey = study_2016.rr_survey
    vp = next(vp for vp in survey.vps if not vp.local_filtered)
    responsive = [
        survey.dests[index] for index in survey.rr_responsive_indices()
    ]
    rng = stable_rng(scenario.seed, "ablation-order")
    sample = rng.sample(responsive, min(400, len(responsive)))

    def run(order):
        scenario.network.reset_limiters()
        ordered = order_destinations(
            sample, order, seed=scenario.seed, salt="ablation"
        )
        rows = scenario.prober.probe_batch_rows(vp, ordered, pps=100.0)
        return sum(1 for _dest, outcome in rows if outcome.rr_responsive)

    random_count = benchmark.pedantic(
        run, args=(ProbeOrder.RANDOM,), rounds=1, iterations=1
    )
    sorted_count = run(ProbeOrder.BY_PREFIX)
    write_artifact(
        "ablation_probe_order",
        f"Probe-order ablation at 100 pps over {len(sample)} dests "
        f"from {vp.name}: random order {random_count} responses, "
        f"prefix-sorted {sorted_count} (randomisation avoids "
        f"destination-proximate policer bursts)",
    )
    assert sorted_count <= random_count


def test_ablation_flattening(benchmark, write_artifact):
    """Reachability rises monotonically-ish with peering density."""

    def reach_at(flattening):
        scenario = build_scenario(
            _tiny_params(4100, flattening=flattening)
        )
        survey = run_rr_survey(scenario)
        return fraction_reachable(survey)

    lo = benchmark.pedantic(reach_at, args=(0.1,), rounds=1, iterations=1)
    mid = reach_at(0.5)
    hi = reach_at(0.9)
    write_artifact(
        "ablation_flattening",
        "Flattening sweep (fraction of RR-responsive dests reachable "
        f"within 9 hops): 0.1 -> {lo:.2f}, 0.5 -> {mid:.2f}, "
        f"0.9 -> {hi:.2f}",
    )
    assert hi > lo


def test_ablation_vp_placement(benchmark, write_artifact):
    """Moving the 'M-Lab' VPs from colo transit onto university stubs
    collapses their coverage — Figure 1's placement effect isolated."""
    params = _tiny_params(4200)
    scenario = build_scenario(params)

    def coverage(vps):
        survey = run_rr_survey(scenario, vps=vps)
        return fraction_reachable(survey)

    colo_cov = benchmark.pedantic(
        coverage, args=(scenario.mlab_vps,), rounds=1, iterations=1
    )
    universities = scenario.topo.university_asns or scenario.topo.edges
    campus_vps = [
        VantagePoint(
            name=f"campus-{index}",
            site=f"campus{index}",
            platform=Platform.MLAB,
            asn=universities[index % len(universities)],
            addr=vp_addr(universities[index % len(universities)], 40 + index),
        )
        for index in range(len(scenario.mlab_vps))
    ]
    campus_cov = coverage(campus_vps)
    write_artifact(
        "ablation_vp_placement",
        f"VP placement ablation ({len(scenario.mlab_vps)} VPs): "
        f"colo transit placement reaches {colo_cov:.2f}, the same VPs "
        f"on university stubs reach {campus_cov:.2f}",
    )
    assert colo_cov > campus_cov


def test_ablation_ttl_budget(benchmark, study_2016, write_artifact):
    """TTL-limited probing: slow-path hops saved vs responses lost."""
    scenario = study_2016.scenario
    survey = study_2016.rr_survey
    vp_index = survey.vp_indices(include_filtered=False)[0]
    vp = survey.vps[vp_index]
    near = survey.reachable_from_vp(vp_index)[:60]
    dests = [survey.dests[index] for index in near]

    def respond_rate(ttl):
        rows = scenario.prober.probe_batch_rows(vp, dests, ttl=ttl)
        return sum(1 for _dest, outcome in rows if outcome.responded) / len(
            rows
        )

    limited = benchmark.pedantic(
        respond_rate, args=(10,), rounds=1, iterations=1
    )
    unlimited = respond_rate(64)
    write_artifact(
        "ablation_ttl_budget",
        f"TTL budget ablation from {vp.name} over {len(dests)} "
        f"RR-reachable dests: response rate {limited:.0%} at TTL 10 vs "
        f"{unlimited:.0%} at TTL 64; the difference is the §4.2 "
        f"coverage cost paid for expiring ineffective probes early",
    )
    assert unlimited >= limited
