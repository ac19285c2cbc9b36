"""Adaptive per-VP probing rates (§4.1's closing recommendation).

"VPs with lower rate limits are easy to detect and can be configured
to use lower VP-specific probing rates to achieve high response
rates." This module implements that loop:

1. **calibrate** — from each VP, probe a small sample of known
   RR-responsive destinations at a ladder of rates (highest first) and
   measure the response rate at each;
2. **select** — pick the fastest rate whose response loss relative to
   the slowest (safest) rate stays under a tolerance;
3. **apply** — run the real batch at the per-VP rate and compare
   against the naive fixed-rate plan.

The output quantifies both sides of the §4.1 trade: responses
recovered at limited VPs, and wall-clock probing time saved at
unlimited ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.survey import RRSurvey
from repro.probing.vantage import VantagePoint
from repro.rng import stable_rng
from repro.scenarios.internet import Scenario

__all__ = ["RateCalibration", "AdaptiveRatePlan", "calibrate_rates"]

#: Default probing-rate ladder, fastest first (pps).
DEFAULT_LADDER: Tuple[float, ...] = (100.0, 50.0, 20.0, 10.0)


@dataclass
class RateCalibration:
    """One VP's measured response rate per probing rate."""

    vp_name: str
    #: rate (pps) -> (responses, probes)
    observations: Dict[float, Tuple[int, int]] = field(default_factory=dict)
    chosen_pps: Optional[float] = None

    def response_rate(self, pps: float) -> float:
        responses, probes = self.observations.get(pps, (0, 0))
        return responses / probes if probes else 0.0

    @property
    def limited(self) -> bool:
        """Did this VP have to back off below the fastest rung?"""
        if self.chosen_pps is None:
            return True
        return self.chosen_pps < max(self.observations)


@dataclass
class AdaptiveRatePlan:
    """The calibrated per-VP rates plus summary statistics."""

    ladder: Tuple[float, ...]
    tolerance: float
    calibrations: List[RateCalibration] = field(default_factory=list)
    skipped_vps: List[str] = field(default_factory=list)

    def rate_for(self, vp_name: str) -> Optional[float]:
        for calibration in self.calibrations:
            if calibration.vp_name == vp_name:
                return calibration.chosen_pps
        return None

    @property
    def limited_vps(self) -> List[str]:
        return sorted(
            calibration.vp_name
            for calibration in self.calibrations
            if calibration.limited
        )

    def speedup_vs_fixed(self, fixed_pps: float) -> float:
        """Probing-time ratio of a fixed-rate plan to this plan.

        >1 means the adaptive plan finishes faster for the same probe
        count (most VPs run at the ladder's top rung instead of the
        conservative fixed rate).
        """
        rates = [
            calibration.chosen_pps
            for calibration in self.calibrations
            if calibration.chosen_pps
        ]
        if not rates:
            return 1.0
        adaptive_time = sum(1.0 / rate for rate in rates)
        fixed_time = len(rates) / fixed_pps
        return fixed_time / adaptive_time

    def render(self) -> str:
        lines = [
            f"Adaptive rate calibration (ladder "
            f"{'/'.join(f'{r:g}' for r in self.ladder)} pps, "
            f"tolerance {self.tolerance:.0%}):",
            f"{'VP':>24} {'chosen':>8} "
            + "".join(f"{r:>8g}" for r in self.ladder),
        ]
        for calibration in sorted(
            self.calibrations, key=lambda c: c.vp_name
        ):
            rates = "".join(
                f"{calibration.response_rate(r):>8.0%}"
                for r in self.ladder
            )
            chosen = (
                f"{calibration.chosen_pps:g}"
                if calibration.chosen_pps
                else "-"
            )
            lines.append(f"{calibration.vp_name:>24} {chosen:>8} {rates}")
        lines.append(
            f"{len(self.limited_vps)} VP(s) backed off below the top "
            f"rate: {self.limited_vps}"
        )
        return "\n".join(lines)


def calibrate_rates(
    scenario: Scenario,
    survey: RRSurvey,
    ladder: Sequence[float] = DEFAULT_LADDER,
    sample_size: int = 60,
    tolerance: float = 0.10,
    vps: Optional[Sequence[VantagePoint]] = None,
    min_baseline: float = 0.2,
) -> AdaptiveRatePlan:
    """Calibrate a per-VP probing rate for every (working) VP.

    A VP whose response rate is below ``min_baseline`` even at the
    slowest rung is skipped (it is filtered, not rate limited — the
    Figure 4 exclusion, automated).
    """
    rates = tuple(sorted(set(ladder), reverse=True))
    if len(rates) < 2:
        raise ValueError("need at least two rates to calibrate")
    plan = AdaptiveRatePlan(ladder=rates, tolerance=tolerance)
    rng = stable_rng(scenario.seed, "adaptive-rate")
    responsive = survey.rr_responsive_indices()
    if not responsive:
        return plan
    sample_indices = (
        rng.sample(responsive, sample_size)
        if len(responsive) > sample_size
        else list(responsive)
    )
    sample = [survey.dests[index] for index in sample_indices]
    vp_list = list(survey.vps) if vps is None else list(vps)

    for vp in vp_list:
        calibration = RateCalibration(vp_name=vp.name)
        for rate in rates:
            scenario.network.reset_limiters()
            ordered = list(sample)
            stable_rng(scenario.seed, "adaptive-order", vp.name,
                       rate).shuffle(ordered)
            rows = scenario.prober.probe_batch_rows(vp, ordered, pps=rate)
            responses = sum(
                1 for _dest, outcome in rows if outcome.rr_responsive
            )
            calibration.observations[rate] = (responses, len(ordered))
        baseline = calibration.response_rate(rates[-1])
        if baseline < min_baseline:
            plan.skipped_vps.append(vp.name)
            continue
        # Fastest rate whose loss vs the safe baseline is tolerable.
        for rate in rates:
            if calibration.response_rate(rate) >= baseline * (
                1.0 - tolerance
            ):
                calibration.chosen_pps = rate
                break
        if calibration.chosen_pps is None:
            calibration.chosen_pps = rates[-1]
        plan.calibrations.append(calibration)
    return plan
