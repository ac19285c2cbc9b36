"""repro.service — the Atlas-style multi-tenant measurement service.

The one-shot CLI's missing serving layer (ROADMAP: "millions of
users"): a long-running daemon that accepts measurement specs from
many concurrent tenants, admits them against per-tenant credit
quotas, schedules ready specs onto the shared simulated VP fleet with
a deterministic fair-share round-robin, executes units through the
supervised worker pool, and streams per-tenant results as checksummed
JSONL — with spec-granular checkpoint/resume, so a killed daemon
recovers every in-flight measurement without perturbing a byte.

Module map:

* :mod:`repro.service.specs` — :class:`MeasurementSpec` parsing and
  validation (machine-readable rejection reasons).
* :mod:`repro.service.credits` — :class:`TenantQuota` /
  :class:`CreditLedger`: round-based accrual, spend-per-probe
  accounting, admission control.
* :mod:`repro.service.scheduler` — :class:`CreditScheduler`:
  deterministic fair-share unit planning across tenants.
* :mod:`repro.service.streams` — :class:`TenantStream`: per-spec
  append-only checksummed JSONL with crash recovery.
* :mod:`repro.service.executor` — the unit task body the executor
  (:class:`~repro.core.parallel.WorkerWatchdog`) runs.
* :mod:`repro.service.daemon` — :class:`MeasurementDaemon`: the run
  loop, per-tenant circuit breakers, checkpointing, live status.
* :mod:`repro.service.control` — line-oriented JSON control socket
  (``repro submit`` / ``repro status-spec``).
"""

from repro.service.credits import CreditLedger, TenantQuota
from repro.service.daemon import (
    MeasurementDaemon,
    ServiceConfig,
    ServiceInterrupted,
)
from repro.service.specs import MeasurementSpec, SpecError, parse_spec
from repro.service.streams import TenantStream, load_stream

__all__ = [
    "CreditLedger",
    "MeasurementDaemon",
    "MeasurementSpec",
    "ServiceConfig",
    "ServiceInterrupted",
    "SpecError",
    "TenantQuota",
    "TenantStream",
    "load_stream",
    "parse_spec",
]
