"""Live campaign status: atomic snapshot writer + ``repro top`` view.

The ROADMAP's Atlas-style service needs the obs registry "as a live
status endpoint"; this is the first slice. A running
:class:`~repro.faults.campaign.CampaignRunner` (given a
``status_path``) publishes a JSON snapshot — active VPs, retry round,
breaker states, heartbeat ages, probes/sec — through the shared
atomic write-rename helper, so any observer (``python -m repro top``,
a dashboard, ``watch cat``) always reads a complete, current file and
never a torn one.

The writer is throttled (``min_interval`` between writes, forced
writes excepted) so campaign and watchdog code can call
:meth:`CampaignStatusWriter.update` at every natural progress point
without turning the status file into an I/O hot spot. Probes/sec is
computed writer-side from successive ``probes_sent`` samples — the
reader gets a rate, not a derivative to take.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.integrity import atomic_write_text

__all__ = [
    "STATUS_VERSION",
    "CampaignStatusWriter",
    "load_status",
    "render_status",
    "sum_counter",
]

STATUS_VERSION = 1


def sum_counter(registry: MetricsRegistry, name: str) -> float:
    """Sum a counter family's children across all label sets.

    Reads live children directly (no full-registry snapshot), so the
    status writer can sample ``probe_sent_total`` on every update.
    """
    family = registry.get(name)
    if family is None:
        return 0.0
    return float(
        sum(child.value for _labels, child in family.children())
    )


class CampaignStatusWriter:
    """Throttled, atomic publisher of campaign status snapshots."""

    def __init__(
        self,
        path: Union[str, Path],
        min_interval: float = 0.2,
    ) -> None:
        if min_interval < 0:
            raise ValueError(
                f"min_interval must be >= 0: {min_interval}"
            )
        self.path = Path(path)
        self.min_interval = float(min_interval)
        self.writes = 0
        self._last_write: Optional[float] = None
        self._last_probes: Optional[tuple] = None  # (monotonic, count)
        self._probes_per_sec: Optional[float] = None
        # Per-tenant probes/sec samples: tenant -> (monotonic, count).
        self._tenant_probes: Dict[str, tuple] = {}
        self._tenant_rates: Dict[str, float] = {}

    def update(
        self, state: str, force: bool = False, **fields: object
    ) -> bool:
        """Publish a snapshot; returns False when throttled.

        ``state`` is ``running`` / ``done`` / ``interrupted``;
        ``fields`` are merged into the snapshot verbatim (they must be
        JSON-serialisable). A ``probes_sent`` field additionally feeds
        the probes/sec estimate, and a ``tenants`` field — a dict of
        per-tenant row dicts, as published by the multi-tenant service
        daemon — gets per-tenant probes/sec annotated the same way
        (from each row's ``probes`` sample).
        """
        now = time.monotonic()
        probes = fields.get("probes_sent")
        if isinstance(probes, (int, float)):
            if self._last_probes is not None:
                dt = now - self._last_probes[0]
                delta = probes - self._last_probes[1]
                if dt > 0 and delta >= 0:
                    self._probes_per_sec = delta / dt
            self._last_probes = (now, probes)
        tenants = fields.get("tenants")
        if isinstance(tenants, dict):
            annotated = {}
            for tenant, row in tenants.items():
                row = dict(row) if isinstance(row, dict) else {"row": row}
                count = row.get("probes")
                if isinstance(count, (int, float)):
                    last = self._tenant_probes.get(tenant)
                    if last is not None:
                        dt = now - last[0]
                        delta = count - last[1]
                        if dt > 0 and delta >= 0:
                            self._tenant_rates[tenant] = delta / dt
                    self._tenant_probes[tenant] = (now, count)
                rate = self._tenant_rates.get(tenant)
                row["probes_per_sec"] = (
                    None if rate is None else round(rate, 1)
                )
                annotated[tenant] = row
            fields = dict(fields, tenants=annotated)
        if (
            not force
            and self._last_write is not None
            and now - self._last_write < self.min_interval
        ):
            return False
        payload: dict = {
            "version": STATUS_VERSION,
            "state": state,
            "updated_unix": time.time(),
            "probes_per_sec": (
                None
                if self._probes_per_sec is None
                else round(self._probes_per_sec, 1)
            ),
        }
        payload.update(fields)
        atomic_write_text(
            self.path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        self._last_write = now
        self.writes += 1
        return True


def load_status(path: Union[str, Path]) -> dict:
    """Read a status snapshot; raises ``FileNotFoundError`` when the
    campaign has not published one yet and ``ValueError`` on a file
    that is not a status snapshot (wrong tool pointed at wrong file).

    Tolerant of *legacy* snapshots: any JSON object carrying either a
    ``state`` or a ``version`` field loads (older writers published
    partial snapshots without every modern key); a JSON object with
    neither is some other tool's file and is still rejected.
    """
    text = Path(path).read_text("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict) or (
        "state" not in data and "version" not in data
    ):
        raise ValueError(f"{path}: not a campaign status snapshot")
    return data


def _fmt_age(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def _num(value: object) -> Optional[float]:
    """A float, or ``None`` for anything a legacy writer mistyped."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _render_tenants(tenants: dict) -> list:
    """Per-tenant rows for the multi-tenant service status."""
    lines = []
    header = (
        f"  {'tenant':<14} {'specs':>9} {'units':>11} "
        f"{'probes':>9} {'rate':>9} {'credits':>9}  state"
    )
    lines.append(header)
    for tenant in sorted(tenants):
        row = tenants.get(tenant)
        if not isinstance(row, dict):
            row = {}
        done = int(_num(row.get("specs_done")) or 0)
        total = int(_num(row.get("specs_total")) or 0)
        units_done = int(_num(row.get("units_done")) or 0)
        units_total = int(_num(row.get("units_total")) or 0)
        probes = int(_num(row.get("probes")) or 0)
        rate = _num(row.get("probes_per_sec"))
        balance = _num(row.get("credits"))
        flags = []
        if int(_num(row.get("specs_paused")) or 0):
            flags.append("paused")
        if int(_num(row.get("specs_rejected")) or 0):
            flags.append("rejected")
        breaker = row.get("breaker")
        if isinstance(breaker, str) and breaker not in ("", "closed"):
            flags.append(f"breaker:{breaker}")
        lines.append(
            f"  {str(tenant):<14} {done:>4}/{total:<4} "
            f"{units_done:>5}/{units_total:<5} {probes:>9} "
            f"{'-' if rate is None else f'{rate:g}/s':>9} "
            f"{'-' if balance is None else f'{balance:g}':>9}  "
            f"{' '.join(flags) or 'ok'}"
        )
    return lines


def render_status(status: dict) -> str:
    """The operator view of one status snapshot (``repro top``).

    Never raises on a partial or legacy snapshot: absent keys are
    simply not rendered, mistyped values degrade to placeholders — an
    operator view must not crash because the writer predates a field.
    """
    scenario = status.get("scenario", "?")
    seed = status.get("seed", "?")
    state = status.get("state", "?")
    tag = "  [supervised]" if status.get("supervised") else ""
    header = status.get("service") and "service" or "campaign"
    lines = [f"{header} {scenario} (seed {seed}) — {state}{tag}"]

    total = _num(status.get("total_vps"))
    completed = int(_num(status.get("completed_vps")) or 0)
    if total is not None:
        pending = int(_num(status.get("pending_vps")) or 0)
        quarantined = status.get("quarantined_vps") or []
        count = len(quarantined) if isinstance(quarantined, (list, dict)) else 0
        lines.append(
            f"  progress     {completed}/{int(total)} VPs complete  "
            f"({pending} pending, {count} quarantined)"
        )
    rounds = _num(status.get("round"))
    if rounds is not None:
        lines.append(f"  round        {int(rounds)}")
    retry_round = _num(status.get("retry_round"))
    if retry_round:
        lines.append(f"  retry round  {int(retry_round)}")
    probes = _num(status.get("probes_sent"))
    if probes is not None:
        rate = _num(status.get("probes_per_sec"))
        rate_text = "" if rate is None else f"  ({rate:g}/s)"
        lines.append(f"  probes       {int(probes)} sent{rate_text}")
    elapsed = _num(status.get("elapsed_seconds"))
    updated = _num(status.get("updated_unix"))
    if elapsed is not None:
        age = (
            ""
            if updated is None
            else f"   snapshot age {_fmt_age(max(time.time() - updated, 0.0))}"
        )
        lines.append(f"  elapsed      {_fmt_age(elapsed)}{age}")
    tenants = status.get("tenants")
    if isinstance(tenants, dict) and tenants:
        lines.extend(_render_tenants(tenants))
    breakers = status.get("breaker_states")
    if isinstance(breakers, dict) and breakers:
        rendered = "  ".join(
            f"{vp}: {state_}" for vp, state_ in sorted(breakers.items())
        )
        lines.append(f"  breakers     {rendered}")
    heartbeats = status.get("heartbeat_ages")
    if isinstance(heartbeats, dict) and heartbeats:
        rendered = "  ".join(
            f"{vp}: {age:.2f}s"
            for vp, age in sorted(heartbeats.items())
            if _num(age) is not None
        )
        if rendered:
            lines.append(f"  heartbeats   {rendered}")
    quarantined = status.get("quarantined_vps") or []
    if quarantined:
        lines.append(f"  quarantined  {', '.join(sorted(quarantined))}")
    failed = status.get("failed_vps") or []
    if failed:
        lines.append(f"  failed       {', '.join(sorted(failed))}")
    return "\n".join(lines)
