"""Full-study orchestration and shared-campaign caching.

Several experiments read the same expensive artifact — the all-VPs RR
survey plus the origin ping survey (§3.1's two studies). ``StudyData``
bundles them with the scenario, and :func:`get_study` memoises by
(preset, seed) so a test session or benchmark run probes each
simulated Internet exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.survey import (
    PingSurvey,
    RRSurvey,
    ping_part,
    rr_part,
    run_parts,
    run_ping_survey,
)
from repro.obs.metrics import REGISTRY
from repro.obs.spans import TRACER
from repro.scenarios.internet import Scenario
from repro.scenarios.presets import get_preset

__all__ = [
    "StudyData",
    "run_full_study",
    "run_resilient_study",
    "get_study",
    "clear_study_cache",
]

_CACHE_LOOKUPS = REGISTRY.counter(
    "study_cache_lookups_total",
    "get_study() lookups, by result (hit = campaign reused).",
    ("result",),
)
_CACHE_HITS = _CACHE_LOOKUPS.labels("hit")
_CACHE_MISSES = _CACHE_LOOKUPS.labels("miss")
_CACHE_SIZE = REGISTRY.gauge(
    "study_cache_entries",
    "Completed campaigns currently memoised by get_study().",
)


@dataclass
class StudyData:
    """One scenario's completed §3.1 measurement campaigns."""

    scenario: Scenario
    ping_survey: PingSurvey
    rr_survey: RRSurvey

    @property
    def name(self) -> str:
        return self.scenario.name


def run_full_study(scenario: Scenario, jobs: int = 1) -> StudyData:
    """Run both §3.1 studies against a scenario, as one executor round.

    The origin ping survey's shards come first, then one ping-RR task
    per VP (:func:`~repro.core.survey.run_parts`), so ``jobs >= 2``
    runs both on one worker pool (see :mod:`repro.core.parallel`): the
    shards go to the worker that owns the origin's AS, which the RR
    tasks of that AS reuse. Every ``jobs`` value leaves the same
    surveys, the RR survey's persisted JSON byte for byte, and the same
    parent clock and telemetry.
    """
    targets = list(scenario.hitlist)
    vps = list(scenario.vps)
    with TRACER.span(
        "full_study", clock=scenario.network.clock,
        vps=len(vps), targets=len(targets), jobs=jobs or 1,
    ):
        ping_survey, rr_survey = run_parts(scenario, jobs, [
            ping_part(scenario, targets),
            rr_part(scenario, targets, vps),
        ])
    return StudyData(
        scenario=scenario, ping_survey=ping_survey, rr_survey=rr_survey
    )


def run_resilient_study(
    scenario: Scenario,
    plan=None,
    jobs: int = 1,
    max_retries: int = 3,
    budget_seconds=None,
    checkpoint_path=None,
    resume: bool = False,
    kill_after_vps=None,
    supervision=None,
):
    """Run both §3.1 studies with the fault-tolerant campaign driver.

    The RR survey runs under :class:`repro.faults.CampaignRunner`
    (retries, backoff budget, checkpoint/resume, graceful partial
    results); the plain-ping study runs unfaulted — the chaos model
    targets the RR slow path, and the ping survey is cheap enough to
    simply rerun. ``supervision`` (a
    :class:`repro.faults.SupervisionConfig`) opts the RR campaign into
    the watchdog/quarantine/breaker layer. Returns
    ``(StudyData, CampaignResult)``.
    """
    from repro.faults.campaign import CampaignRunner

    runner = CampaignRunner(
        scenario,
        plan=plan,
        jobs=jobs,
        max_retries=max_retries,
        budget_seconds=budget_seconds,
        checkpoint_path=checkpoint_path,
        kill_after_vps=kill_after_vps,
        supervision=supervision,
    )
    with TRACER.span(
        "full_study", clock=scenario.network.clock,
        vps=len(scenario.vps), targets=len(scenario.hitlist),
        jobs=jobs or 1,
    ):
        result = runner.run(resume=resume)
        ping_survey = run_ping_survey(scenario, jobs=jobs)
    data = StudyData(
        scenario=scenario,
        ping_survey=ping_survey,
        rr_survey=result.survey,
    )
    return data, result


_CACHE: Dict[Tuple[str, int], StudyData] = {}


def get_study(
    preset: str = "small",
    seed: int = 2016,
    factory: Optional[Callable[[], Scenario]] = None,
    jobs: int = 1,
) -> StudyData:
    """Memoised full study for a preset scenario.

    ``factory`` overrides preset lookup (still cached under
    ``(preset, seed)``) for callers with custom scenarios. ``jobs``
    sets survey fan-out on a cache miss; it is not part of the cache
    key because the RR campaign's results are invariant under it.
    """
    key = (preset, seed)
    cached = _CACHE.get(key)
    if cached is None:
        _CACHE_MISSES.inc()
        scenario = factory() if factory is not None else get_preset(
            preset, seed
        )
        cached = run_full_study(scenario, jobs=jobs)
        _CACHE[key] = cached
        _CACHE_SIZE.set(len(_CACHE))
    else:
        _CACHE_HITS.inc()
    return cached


def clear_study_cache() -> None:
    _CACHE.clear()
    _CACHE_SIZE.set(0)
