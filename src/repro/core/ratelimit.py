"""§4.1 / Figure 4: finding evidence of rate limiting.

Re-probe a sample of known RR-responsive destinations from every VP at
a low and a high packet rate (the paper used 10 and 100 pps against
100,000 destinations), in per-VP random order, and compare per-VP
response counts. VPs behind source-proximate options policers answer
fine at 10 pps and crater at 100 pps; VPs that answer almost nothing at
either rate (locally filtered) are excluded, as the paper excluded the
56 VPs with under 1,000 responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.survey import RRSurvey
from repro.probing.scheduler import ProbeOrder, order_destinations
from repro.rng import stable_rng
from repro.scenarios.internet import Scenario

__all__ = ["RateLimitStudy", "run_rate_limit_study"]


@dataclass
class VpRateRow:
    """One VP's response counts at both rates."""

    vp_name: str
    low_responses: int
    high_responses: int
    probed: int

    @property
    def drop_fraction(self) -> float:
        """Relative response loss going from the low to the high rate."""
        if self.low_responses == 0:
            return 0.0
        return max(0.0, 1.0 - self.high_responses / self.low_responses)


@dataclass
class RateLimitStudy:
    """Figure 4's per-VP series."""

    low_pps: float
    high_pps: float
    sample_size: int
    rows: List[VpRateRow] = field(default_factory=list)
    excluded: List[str] = field(default_factory=list)

    def severe_droppers(self, threshold: float = 0.25) -> List[VpRateRow]:
        """VPs losing more than ``threshold`` of responses at high rate."""
        return [row for row in self.rows if row.drop_fraction > threshold]

    def render(self) -> str:
        lines = [
            f"Figure 4 — RR responses per VP at {self.low_pps:g} vs "
            f"{self.high_pps:g} pps ({self.sample_size} destinations; "
            f"{len(self.excluded)} VPs excluded):",
            f"{'VP':>24} {'low':>7} {'high':>7} {'drop':>7}",
        ]
        for row in sorted(self.rows, key=lambda r: r.vp_name):
            lines.append(
                f"{row.vp_name:>24} {row.low_responses:>7} "
                f"{row.high_responses:>7} {row.drop_fraction:>6.0%}"
            )
        severe = self.severe_droppers()
        lines.append(
            f"{len(severe)} of {len(self.rows)} VPs drop >25% at "
            f"{self.high_pps:g} pps: "
            f"{sorted(row.vp_name for row in severe)}"
        )
        return "\n".join(lines)


def run_rate_limit_study(
    scenario: Scenario,
    survey: RRSurvey,
    sample_size: int = 400,
    low_pps: float = 10.0,
    high_pps: float = 100.0,
    exclusion_fraction: float = 0.01,
) -> RateLimitStudy:
    """Reproduce the §4.1 experiment.

    ``exclusion_fraction`` mirrors the paper's "fewer than 1000
    responses [out of 100,000]" cut: VPs under it at *either* rate are
    dropped from the figure.
    """
    rng = stable_rng(scenario.seed, "rate-study")
    responsive = survey.rr_responsive_indices()
    sample_indices = (
        rng.sample(responsive, sample_size)
        if len(responsive) > sample_size
        else list(responsive)
    )
    sample = [survey.dests[index] for index in sample_indices]
    study = RateLimitStudy(
        low_pps=low_pps, high_pps=high_pps, sample_size=len(sample)
    )
    prober = scenario.prober
    threshold = exclusion_fraction * len(sample)

    for vp in survey.vps:
        counts: Dict[float, int] = {}
        for rate in (low_pps, high_pps):
            # Each run is an independent probing campaign: refill every
            # policer before it starts.
            scenario.network.reset_limiters()
            ordered = order_destinations(
                sample,
                ProbeOrder.RANDOM,
                seed=scenario.seed,
                salt=(vp.name, rate),
            )
            rows = prober.probe_batch_rows(vp, ordered, pps=rate)
            counts[rate] = sum(
                1 for _dest, outcome in rows if outcome.rr_responsive
            )
        row = VpRateRow(
            vp_name=vp.name,
            low_responses=counts[low_pps],
            high_responses=counts[high_pps],
            probed=len(sample),
        )
        if min(counts.values()) < threshold:
            study.excluded.append(vp.name)
        else:
            study.rows.append(row)
    return study
