"""Seeded feed generators.

The program under test only ever receives the generated tuples; everything
random about a workload comes from the ``seed`` passed in here, so the same
seed gives the same feed in every process (the service workload's server
child regenerates the feed to map results back to their pushes).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .spec import Workload

Push = Tuple[str, Dict[str, int], float]

RELATIONS = ("R", "S", "T", "U")


def make_feed(workload: Workload, seed: int, n: int) -> List[Push]:
    """``n`` pushes ``(relation, values, ts)`` in arrival order.

    Relations are drawn uniformly, join values uniformly from
    ``[0, domain)``.  The i-th push is stamped ``i / rate``; a share
    ``straggler_share`` of pushes arrives late by a lag drawn uniformly from
    ``[0, max_lag]`` seconds of event time.  Event timestamps are unique
    across the whole feed, which lets a result be mapped back to the push
    that triggered it and keeps the verification oracle unambiguous.
    """
    rng = random.Random(seed)
    attrs = workload.attrs
    domain = workload.domain
    rate = workload.rate
    share = workload.straggler_share
    seen = set()
    feed: List[Push] = []
    for i in range(n):
        relation = RELATIONS[rng.randrange(len(RELATIONS))]
        values = {attr: rng.randrange(domain) for attr in attrs[relation]}
        ts = i / rate
        if share and rng.random() < share:
            ts -= rng.uniform(0.0, workload.max_lag)
        while ts in seen:
            ts += 1e-9
        seen.add(ts)
        feed.append((relation, values, ts))
    return feed


def position_of(feed: List[Push]) -> Dict[float, int]:
    """Event timestamp -> index of its push in the feed."""
    return {ts: i for i, (_, _, ts) in enumerate(feed)}
