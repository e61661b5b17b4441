"""Independent windowed hash-join oracle for the timestamp-ordered workloads.

``JoinSession.verify`` runs the repository's brute-force nested-loop oracle;
its cost grows with the cube of the feed length on ``chain-fanout``, so it
can only check a prefix shorter than one window.  This oracle checks every
push of a run instead, evicting windows included: it joins the whole feed
with hash indexes on the join attributes and yields, per query, the result
count and the order-independent sampled digest that a run's
:class:`~perfbench.workloads.ResultLog` records.

Semantics are those of ``repro.engine.reference``: one tuple per relation of
the query, every equality holds, and the latest and earliest component
timestamps are at most one window apart.  A result is triggered by its
latest component.  Event timestamps must be unique and pushes ordered by
them (the chain feeds are both).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Tuple

from .feeds import Push

Signature = Dict[str, Tuple[int, int]]

_MASK = (1 << 64) - 1


def _parse(equalities: Sequence[str]) -> List[Tuple[str, str, str, str]]:
    """``"R.a=S.a"`` -> ``(R, a, S, a)``."""
    out = []
    for text in equalities:
        left, right = text.split("=")
        rel_a, attr_a = left.split(".")
        rel_b, attr_b = right.split(".")
        out.append((rel_a, attr_a, rel_b, attr_b))
    return out


def results(
    equalities: Sequence[str], feed: Sequence[Push], window: float
) -> Iterator[List[float]]:
    """The component timestamps of every result of one query over ``feed``."""
    preds = _parse(equalities)
    order = [preds[0][0]]
    while len(order) < len({p[0] for p in preds} | {p[2] for p in preds}):
        for rel_a, _, rel_b, _ in preds:
            if (rel_a in order) != (rel_b in order):
                order.append(rel_b if rel_a in order else rel_a)
                break
    # per extension relation: the attribute it is indexed on, the covered
    # (relation, attribute) that looks it up, and the remaining equalities
    steps = []
    for k, rel in enumerate(order[1:], start=1):
        covered = set(order[:k])
        links = []
        for rel_a, attr_a, rel_b, attr_b in preds:
            if rel_b == rel and rel_a in covered:
                links.append((attr_b, rel_a, attr_a))
            elif rel_a == rel and rel_b in covered:
                links.append((attr_a, rel_b, attr_b))
        index: Dict[int, List[Tuple[float, Dict[str, int]]]] = defaultdict(list)
        key_attr, by_rel, by_attr = links[0]
        for relation, values, ts in feed:
            if relation == rel:
                index[values[key_attr]].append((ts, values))
        steps.append((rel, index, by_rel, by_attr, links[1:]))

    first = order[0]

    def extend(
        k: int, parts: Dict[str, Dict[str, int]], stamps: List[float], lo: float, hi: float
    ) -> Iterator[List[float]]:
        if k == len(steps):
            yield stamps
            return
        rel, index, by_rel, by_attr, checks = steps[k]
        for ts, values in index.get(parts[by_rel][by_attr], ()):
            new_lo, new_hi = min(lo, ts), max(hi, ts)
            if new_hi - new_lo > window:
                continue
            if any(values[mine] != parts[other][theirs] for mine, other, theirs in checks):
                continue
            parts[rel] = values
            yield from extend(k + 1, parts, stamps + [ts], new_lo, new_hi)
        parts.pop(rel, None)

    for relation, values, ts in feed:
        if relation == first:
            yield from extend(0, {first: values}, [ts], ts, ts)


def result_index(
    queries: Dict[str, Sequence[str]],
    feed: Sequence[Push],
    pos: Dict[float, int],
    window: float,
    sample_mask: int,
) -> Dict[str, List[Tuple[int, int]]]:
    """Per query, ``(trigger index, digest term)`` of every result over
    ``feed``.  Only results whose trigger index has no bit of
    ``sample_mask`` set are digested, as ``ResultLog`` does; the others
    contribute 0."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    for name in sorted(queries):
        entries = out[name] = []
        for stamps in results(queries[name], feed, window):
            i = pos[max(stamps)]
            entries.append((i, 0 if i & sample_mask else hash(tuple(sorted(stamps)))))
    return out


def signature(
    index: Dict[str, List[Tuple[int, int]]], end: int, keep_empty: bool = True
) -> Signature:
    """Per query ``(count, digest)`` of the results triggered by the first
    ``end`` pushes; ``keep_empty=False`` leaves out queries without any
    (as ``ResultLog.prefix_signature`` does)."""
    out: Signature = {}
    for name, entries in index.items():
        count = digest = 0
        for i, h in entries:
            if i < end:
                count += 1
                digest = (digest + h) & _MASK
        if count or keep_empty:
            out[name] = (count, digest)
    return out
