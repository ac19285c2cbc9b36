"""Scenario presets: the study Internets at several scales.

``study_2016``/``study_2011`` are the shapes the paper's experiments
run against (scaled down from 510k prefixes / 141 VPs to something a
laptop walks in seconds); ``small`` is the benchmark default and
``tiny`` keeps unit tests fast. The 2011 preset differs from 2016 the
way §3.4 describes the real change: much less peering (low
``flattening``), fewer colo facilities, far fewer M-Lab sites, and a
PlanetLab-heavy VP population.
"""

from __future__ import annotations

from repro.rng import derive_seed
from repro.scenarios.internet import Scenario, ScenarioParams, build_scenario
from repro.sim.policies import SimParams
from repro.topology.generator import TopologyParams

__all__ = [
    "tiny",
    "small",
    "mid",
    "small_2011",
    "study_2016",
    "study_2011",
    "PRESETS",
    "get_preset",
]


def tiny(seed: int = 2016) -> Scenario:
    """A minimal Internet for unit tests (~hundreds of destinations)."""
    return build_scenario(
        ScenarioParams(
            name="tiny",
            seed=seed,
            topology=TopologyParams(
                seed=seed,
                num_tier1=4,
                num_tier2=12,
                num_edge=120,
                ixp_count=3,
                ixp_mean_members=8,
            ),
            sim=SimParams(seed=seed),
            prefix_scale=0.25,
            num_mlab=6,
            num_planetlab=5,
            mlab_as_pool=3,
            planetlab_as_pool=12,
        )
    )


def small(seed: int = 2016) -> Scenario:
    """The benchmark default (~1.5-2k destinations, ~30 VPs)."""
    return build_scenario(
        ScenarioParams(
            name="small",
            seed=seed,
            topology=TopologyParams(
                seed=seed,
                num_tier1=6,
                num_tier2=30,
                num_edge=450,
                ixp_count=6,
                ixp_mean_members=15,
            ),
            sim=SimParams(seed=seed),
            prefix_scale=0.3,
            num_mlab=18,
            num_planetlab=14,
            mlab_as_pool=4,
            planetlab_as_pool=30,
        )
    )


def mid(seed: int = 2016) -> Scenario:
    """The dataplane-benchmark shape (~4-5k destinations, ~100 VPs).

    Large enough that a survey's probe count — not scenario build time
    — dominates the wall clock, which is what the batched-dataplane
    speedup target is measured against; still far below ``study_2016``
    so the benchmark turns around in CI-friendly time. The VP pools
    are deliberately AS-concentrated (many sites behind few upstream
    ASes, the real M-Lab/PlanetLab deployment shape [§2.2]): all the
    VPs of one ingress AS share forward paths, which is exactly the
    redundancy both the trunk cache and the stamp-plan compiler exist
    to exploit.
    """
    return build_scenario(
        ScenarioParams(
            name="mid",
            seed=seed,
            topology=TopologyParams(
                seed=seed,
                num_tier1=6,
                num_tier2=36,
                num_edge=800,
                ixp_count=6,
                ixp_mean_members=15,
            ),
            sim=SimParams(seed=seed),
            prefix_scale=0.4,
            num_mlab=50,
            num_planetlab=50,
            mlab_as_pool=4,
            planetlab_as_pool=4,
        )
    )


def small_2011(seed: int = 2016) -> Scenario:
    """The 2011 era at ``small`` scale (for tests and the Fig 2 bench).

    Same knobs as :func:`study_2011`, shrunk to match :func:`small`:
    an extra tier-3 regional-transit layer, little peering, few colos,
    few M-Lab sites, a PlanetLab-heavy VP population.
    """
    topo_seed = derive_seed(seed, "era-2011")
    return build_scenario(
        ScenarioParams(
            name="small-2011",
            seed=topo_seed,
            topology=TopologyParams(
                seed=topo_seed,
                num_tier1=6,
                num_tier2=30,
                num_tier3=40,
                edge_via_tier3_prob=0.85,
                num_edge=450,
                flattening=0.15,
                tier2_peer_prob=0.18,
                university_peer_mean=1.0,
                university_bias=3,
                ixp_count=4,
                ixp_mean_members=10,
                colo_fraction_tier2=0.3,
                cloud_tier2_peer=(0.5, 0.35, 0.3),
                cloud_access_peer=(0.12, 0.06, 0.05),
                cloud_other_peer=(0.03, 0.02, 0.01),
            ),
            sim=SimParams(seed=topo_seed),
            prefix_scale=0.3,
            num_mlab=4,
            num_planetlab=28,
            mlab_filtered_prob=0.25,
            planetlab_filtered_prob=0.55,
            mlab_as_pool=2,
            planetlab_as_pool=28,
        )
    )


def study_2016(seed: int = 2016) -> Scenario:
    """The 2016 study shape: flattened, colo-rich, M-Lab-heavy."""
    return build_scenario(
        ScenarioParams(
            name="study-2016",
            seed=seed,
            topology=TopologyParams(seed=seed),
            sim=SimParams(seed=seed),
            prefix_scale=0.5,
            num_mlab=40,
            num_planetlab=26,
            mlab_as_pool=8,
            planetlab_as_pool=40,
        )
    )


def study_2011(seed: int = 2016) -> Scenario:
    """The 2011 counterfactual for §3.4 / Figure 2.

    Same seed lineage (so site names overlap with 2016 and "common
    VPs" are well defined) but an independent topology draw with far
    less peering, fewer colos, few M-Lab sites, and many PlanetLab
    sites — the pre-flattening Internet.
    """
    topo_seed = derive_seed(seed, "era-2011")
    return build_scenario(
        ScenarioParams(
            name="study-2011",
            seed=topo_seed,
            topology=TopologyParams(
                seed=topo_seed,
                flattening=0.15,
                num_tier3=60,
                edge_via_tier3_prob=0.85,
                tier2_peer_prob=0.18,
                university_peer_mean=1.0,
                university_bias=3,
                ixp_count=5,
                ixp_mean_members=12,
                colo_fraction_tier2=0.30,
                cloud_tier2_peer=(0.5, 0.35, 0.3),
                cloud_access_peer=(0.12, 0.06, 0.05),
                cloud_other_peer=(0.03, 0.02, 0.01),
            ),
            sim=SimParams(seed=topo_seed),
            prefix_scale=0.5,
            num_mlab=7,
            num_planetlab=60,
            mlab_filtered_prob=0.25,
            planetlab_filtered_prob=0.55,
            mlab_as_pool=3,
            planetlab_as_pool=60,
        )
    )


PRESETS = {
    "tiny": tiny,
    "small": small,
    "mid": mid,
    "small-2011": small_2011,
    "study-2016": study_2016,
    "study-2011": study_2011,
}


def get_preset(name: str, seed: int = 2016) -> Scenario:
    """Build a preset scenario by name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory(seed)
