"""Probe-order policies.

§4.1 notes that "each VP probed the destination set in random order"
to avoid hammering destination-proximate rate limiters with bursts of
probes to co-located destinations; §4.2 adds TTL limiting for "times
when it is necessary to probe sets of destinations that are similarly
located". These helpers produce the orders the studies (and the
order-sensitivity ablation bench) use.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

from repro.topology.hitlist import Destination
from repro.rng import shuffle, stable_rng

__all__ = ["ProbeOrder", "order_destinations", "split_round_robin"]


class ProbeOrder(enum.Enum):
    """How a VP walks its destination list."""

    RANDOM = "random"  # the paper's default: spreads load over the edge
    BY_PREFIX = "by_prefix"  # numerically sorted: bursts per origin AS
    AS_GIVEN = "as_given"


def order_destinations(
    dests: Sequence[Destination],
    policy: ProbeOrder,
    seed: int = 0,
    salt: object = "",
) -> List[Destination]:
    """Return ``dests`` reordered under ``policy`` (input untouched).

    ``salt`` lets each VP get its own independent random order from the
    same seed, as in the paper's per-VP randomisation.
    """
    ordered = list(dests)
    if policy is ProbeOrder.AS_GIVEN:
        return ordered
    if policy is ProbeOrder.BY_PREFIX:
        ordered.sort(key=lambda dest: (dest.prefix.base, dest.addr))
        return ordered
    shuffle(stable_rng(seed, "probe-order", salt), ordered)
    return ordered


def split_round_robin(
    dests: Sequence[Destination], ways: int
) -> List[List[Destination]]:
    """Deal destinations across ``ways`` workers, round-robin."""
    if ways <= 0:
        raise ValueError(f"ways must be positive: {ways}")
    buckets: List[List[Destination]] = [[] for _ in range(ways)]
    for index, dest in enumerate(dests):
        buckets[index % ways].append(dest)
    return buckets
