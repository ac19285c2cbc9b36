"""Destination host model.

Each hitlist destination is backed by a :class:`SimHost` whose
behaviour is drawn once from the simulation seed:

* whether it answers plain pings at all (Table 1's ping-responsive);
* whether its stack drops packets carrying IP options (one of the two
  big reasons a pingable host is RR-unresponsive — the other is
  AS-level filtering on the path);
* how it handles an RR option it accepts: copy-and-stamp the probed
  address (normal), stamp a *different* interface (the alias false
  negative of §3.3), copy without stamping (the ping-RRudp-detectable
  false negative of §3.3), or strip the option entirely;
* whether UDP probes to closed high ports elicit port-unreachable
  errors, and how much of the offending packet those errors quote;
* how many silent TTL-decrementing devices sit in front of it;
* its IP-ID counter (shared across its interfaces — MIDAR's signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.options import RecordRouteOption
from repro.net.timestamp import TimestampOption
from repro.sim.policies import HostRRMode, SimParams
from repro.topology.autsys import ASGraph
from repro.topology.hitlist import Destination
from repro.rng import stable_u64, stable_uniform

__all__ = ["SimHost", "build_host"]

#: Offset between a host's probed address and its second interface.
#: Kept inside the same /24 (multihomed hosts usually number both
#: interfaces from nearby space).
_ALIAS_OFFSET = 7


@dataclass
class SimHost:
    """One destination host and its resolved behaviour."""

    dest: Destination
    ping_responsive: bool
    drops_options: bool
    rr_mode: HostRRMode
    udp_unreachable: bool
    quote_full: bool
    silent_hops: int
    alias_addr: Optional[int]
    ipid_seed: int
    ipid_velocity: float

    @property
    def addr(self) -> int:
        return self.dest.addr

    @property
    def asn(self) -> int:
        return self.dest.asn

    @property
    def addrs(self) -> List[int]:
        """All interface addresses (probed first)."""
        if self.alias_addr is None:
            return [self.addr]
        return [self.addr, self.alias_addr]

    def ipid(self, now: float) -> int:
        """The host's shared IP-ID counter value at time ``now``."""
        return (self.ipid_seed + int(self.ipid_velocity * now)) & 0xFFFF

    def stamp_reply(self, rr: RecordRouteOption) -> Optional[RecordRouteOption]:
        """Apply this host's RR handling to an arriving option.

        Returns the option to place in the Echo Reply (a fresh copy the
        reverse path keeps stamping into), or None when the host strips
        options from its replies.
        """
        recorded = list(rr.recorded)
        if not self.stamp_reply_rr(recorded, rr.slots):
            return None
        return RecordRouteOption(rr.slots, recorded)

    def stamp_reply_rr(self, recorded: List[int], slots: int) -> bool:
        """This host's RR handling, applied in place to the addresses
        an arriving ``slots``-slot option recorded: the one decision
        the walk (:meth:`stamp_reply`) and the plan compiler share.

        False means the host strips options from its replies. Else the
        list is the reply's: the probed address (or, for an ALIAS
        host, its other interface) is appended if a slot is free, and
        a NO_STAMP host leaves it untouched.
        """
        mode = self.rr_mode
        if mode is HostRRMode.STRIP:
            return False
        if len(recorded) < slots:
            if mode is HostRRMode.STAMP:
                recorded.append(self.addr)
            elif mode is HostRRMode.ALIAS:
                recorded.append(
                    self.alias_addr if self.alias_addr is not None
                    else self.addr
                )
        return True

    def stamp_timestamp(
        self, ts: TimestampOption, now_ms: int
    ) -> Optional[TimestampOption]:
        """Apply this host's options handling to a Timestamp option.

        Hosts that honor RR honor Timestamp the same way: the reply
        carries a copy with the host's own stamp (the alias interface
        for ALIAS hosts — its addresses are offered alias-first).
        None for STRIP hosts, mirroring :meth:`stamp_reply`.
        """
        if self.rr_mode is HostRRMode.STRIP:
            return None
        reply_ts = ts.copy()
        if self.rr_mode is HostRRMode.STAMP:
            reply_ts.stamp(self.addrs, now_ms)
        elif self.rr_mode is HostRRMode.ALIAS:
            reply_ts.stamp(list(reversed(self.addrs)), now_ms)
        return reply_ts


def _draw_silent_hops(params: SimParams, addr: int) -> int:
    draw = stable_uniform(params.seed, "silent", addr)
    accumulated = 0.0
    total = sum(params.silent_hop_weights)
    for count, weight in enumerate(params.silent_hop_weights):
        accumulated += weight / total
        if draw < accumulated:
            return count
    return len(params.silent_hop_weights) - 1


def _draw_rr_mode(params: SimParams, addr: int) -> HostRRMode:
    draw = stable_uniform(params.seed, "rr-mode", addr)
    if draw < params.host_alias_prob:
        return HostRRMode.ALIAS
    draw -= params.host_alias_prob
    if draw < params.host_no_stamp_prob:
        return HostRRMode.NO_STAMP
    draw -= params.host_no_stamp_prob
    if draw < params.host_strip_prob:
        return HostRRMode.STRIP
    return HostRRMode.STAMP


def build_host(
    params: SimParams, graph: ASGraph, dest: Destination
) -> SimHost:
    """Resolve the behaviour of the host at ``dest`` from seeded draws."""
    seed = params.seed
    addr = dest.addr
    as_type = graph[dest.asn].as_type

    ping_responsive = stable_uniform(seed, "ping?", addr) < params.prob_of(
        params.ping_responsive, as_type
    )
    # An operator that configures ignore-RR network-wide (§3.5's
    # "never stamp" ASes) ships the same options hardening to host
    # networks, so its hosts drop options packets outright.
    if graph[dest.asn].never_stamps:
        drops_options = True
    else:
        drops_options = stable_uniform(seed, "hopts", addr) < params.prob_of(
            params.host_drops_options, as_type
        )
    rr_mode = _draw_rr_mode(params, addr)

    alias_addr: Optional[int] = None
    if rr_mode is HostRRMode.ALIAS:
        offset = _ALIAS_OFFSET + stable_u64(seed, "alias-off", addr) % 40
        candidate = dest.prefix.base + ((addr - dest.prefix.base + offset) % 250)
        if candidate == addr:
            candidate = dest.prefix.base + ((addr - dest.prefix.base + 1) % 250)
        alias_addr = candidate

    low, high = params.ipid_velocity_range
    velocity = low + stable_uniform(seed, "hvel", addr) * (high - low) * 0.2

    return SimHost(
        dest=dest,
        ping_responsive=ping_responsive,
        drops_options=drops_options,
        rr_mode=rr_mode,
        udp_unreachable=(
            stable_uniform(seed, "udp?", addr) < params.host_udp_unreach_prob
        ),
        quote_full=(
            stable_uniform(seed, "hquote", addr) < params.quote_full_prob
        ),
        silent_hops=_draw_silent_hops(params, addr),
        alias_addr=alias_addr,
        ipid_seed=stable_u64(seed, "hipid", addr) & 0xFFFF,
        ipid_velocity=velocity,
    )
