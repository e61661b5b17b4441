"""The arrival-order contract as one value object: :class:`ArrivalClock`.

Every component that ingests input tuples — the single-process runtime,
the sharded driver, each shard worker, and a session still buffering its
warmup — agrees on one stream position: the last accepted event
timestamp, every ingest stream's high-water event timestamp, and the
arrival sequence.  The clock is the only code that holds or changes that
position, so validation, lateness classification, watermark eviction,
install-time flooring, and checkpoints can never disagree about it.

Ordered mode (``bound is None``): event timestamps must be non-decreasing.
Watermark mode: a tuple may lag its *own* stream's high water by at most
``bound``; the global watermark is the minimum high water over the ingest
streams minus the bound — a lower bound on every future event timestamp.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from .tuples import StreamTuple

__all__ = ["ArrivalClock", "LateArrivalError"]


class LateArrivalError(ValueError):
    """An input violated the arrival-order contract (see
    :meth:`ArrivalClock.check`).

    A distinct type so callers with a drop-straggler policy (the session's
    ``on_late="drop"``) can suppress exactly this rejection without
    swallowing unrelated ``ValueError``\\ s from the processing cascade.
    """


class ArrivalClock:
    """Last event timestamp, per-stream high waters, and arrival seq."""

    __slots__ = ("bound", "stamps", "last_ts", "highs", "seq")

    def __init__(self, bound: Optional[float] = None) -> None:
        #: the disorder bound; ``None`` selects ordered mode
        self.bound = bound
        #: assign every accepted tuple the next arrival seq; a shard worker
        #: clears it to keep the seqs its driver assigned upstream
        self.stamps = True
        self.last_ts = float("-inf")
        self.highs: Dict[str, float] = {}
        self.seq = 0

    def check(self, trigger: str, ts: float) -> None:
        """Raise :class:`LateArrivalError` if a tuple of ``trigger`` at
        event time ``ts`` would break the contract.  A straggler beyond
        the bound would silently lose results, so it is rejected loudly;
        nothing changes until :meth:`advance`."""
        if self.bound is None:
            if ts < self.last_ts:
                raise LateArrivalError("inputs must be sorted by timestamp")
            return
        high = self.highs.get(trigger)
        if high is not None and ts < high - self.bound:
            raise LateArrivalError(
                f"tuple of {trigger!r} at τ={ts:g} arrived "
                f"{high - ts:g} behind the stream high water "
                f"{high:g}, exceeding disorder_bound={self.bound:g}"
            )

    def is_late(self, trigger: str, ts: float, bound: float) -> bool:
        """True iff ``ts`` trails its stream's high water by more than
        ``bound`` — how a session tells a grace-band straggler (accepted
        under ``disorder_bound + allowed_lateness``) from an on-time one."""
        high = self.highs.get(trigger)
        return high is not None and high - ts > bound

    def advance(self, tup: StreamTuple) -> None:
        """Make an accepted tuple the newest arrival: raise the last
        timestamp and (watermark mode) its stream's high water, and stamp
        the next arrival seq — or, with :attr:`stamps` cleared, keep the
        seq the driver assigned and catch the counter up to it."""
        ts = tup.trigger_ts
        if ts > self.last_ts:
            self.last_ts = ts
        if self.bound is not None:
            high = self.highs.get(tup.trigger)
            if high is None or ts > high:
                self.highs[tup.trigger] = ts
        if self.stamps:
            self.seq += 1
            tup.seq = self.seq
        elif tup.seq > self.seq:
            self.seq = tup.seq

    def merge(self, highs: Dict[str, float]) -> None:
        """Max-merge a high-water snapshot from the sharded driver."""
        own = self.highs
        for relation, ts in highs.items():
            current = own.get(relation)
            if current is None or ts > current:
                own[relation] = ts

    def watermark(self, ingest: Iterable[str]) -> float:
        """Low watermark over the ``ingest`` streams: no future event
        timestamp can be below it.  A stream without a tuple yet pins it
        at ``-inf`` (nothing can be evicted safely)."""
        mark = float("inf")
        for relation in ingest:
            seen = self.highs.get(relation)
            if seen is None:
                return float("-inf")
            if seen < mark:
                mark = seen
        if mark == float("inf"):
            return float("-inf")
        return mark - (self.bound or 0.0)

    def floor(self, ingest_before: Iterable[str], ingest_after: Iterable[str]) -> None:
        """Floor every stream a new plan ingests at the current watermark
        (watermark mode; called at install).

        A stream the old plan did not read — brand new, or released and
        now re-added — has no (or a stale) high water, which would pin the
        watermark at ``-inf`` (or at its pre-removal past), suspending
        eviction and accepting stragglers whose partners are long evicted.
        No stored state lies below the watermark, so a first or returning
        push must carry an event timestamp at or above it anyway.  Streams
        the old watermark already covered satisfy ``high >= mark + bound``,
        so flooring leaves them alone.
        """
        if self.bound is None:
            return
        mark = self.watermark(ingest_before)
        if mark == float("-inf"):
            return
        floor = mark + self.bound
        for relation in ingest_after:
            if self.highs.get(relation, float("-inf")) < floor:
                self.highs[relation] = floor

    def dump(self) -> Dict[str, Any]:
        """Checkpoint state (the bound and stamping mode are configuration)."""
        return {"last_ts": self.last_ts, "highs": dict(self.highs), "seq": self.seq}

    def load(self, state: Dict[str, Any]) -> None:
        """Resume from a :meth:`dump` in place (holders keep their reference)."""
        self.last_ts = float(state["last_ts"])
        self.highs = dict(state["highs"])
        self.seq = int(state["seq"])
