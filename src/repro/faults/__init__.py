"""Fault injection and resilient campaigns (``repro.faults``).

Two halves, mirroring how real measurement studies meet adversity:

* :mod:`repro.faults.specs` / :mod:`repro.faults.injector` — seeded,
  deterministic chaos: composable fault specifications compiled into a
  :class:`FaultInjector` the dataplane consults through narrow hooks.
* :mod:`repro.faults.campaign` — the survivor: a retrying, budgeted,
  checkpoint/resume campaign driver over the parallel survey engine.
* :mod:`repro.faults.supervisor` — the supervisor: worker heartbeats
  and a watchdog that kills/respawns hung workers, per-VP circuit
  breakers, and poison-VP quarantine, so a campaign with pathological
  vantage points terminates without human intervention.

Everything is keyed so that fault decisions depend only on
``(plan seed, vp name, session-relative time)`` — the same contract
that makes the parallel engine's output byte-identical across worker
counts extends to chaos runs, kill points, resumes, and supervised
recoveries.
"""

from repro.core.parallel import WorkerWatchdog
from repro.faults.campaign import (
    CampaignInterrupted,
    CampaignResult,
    CampaignRunner,
    checkpoint_generation_path,
    load_checkpoint,
    load_checkpoint_with_fallback,
)
from repro.faults.injector import FaultInjector
from repro.faults.specs import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    LinkFlap,
    LossBurst,
    RateLimitStorm,
    VpChurn,
    VpCrash,
    VpHang,
)
from repro.faults.supervisor import (
    CircuitBreaker,
    SupervisionConfig,
    VpHealthTracker,
)

__all__ = [
    "CampaignInterrupted",
    "CampaignResult",
    "CampaignRunner",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "LinkFlap",
    "LossBurst",
    "RateLimitStorm",
    "SupervisionConfig",
    "VpChurn",
    "VpCrash",
    "VpHang",
    "VpHealthTracker",
    "WorkerWatchdog",
    "checkpoint_generation_path",
    "load_checkpoint",
    "load_checkpoint_with_fallback",
]
