"""Outside-in tracer: spans around the public functions each layer exposes.

Nothing in ``src/`` knows about it.  :func:`install_layers` replaces each
traced function *where its caller resolves it* -- a class attribute, or the
module global of the module that imported the function by name (for example
``probe_batch`` inside ``repro.engine.runtime`` and ``compute_backfill``
inside ``repro.engine.rewiring`` and ``repro.engine.sharding``; patching only
the defining module would silently record nothing).

Self time is kept with a span stack: a span's self time is its duration minus
the durations of the spans it caused.  Per-function self time and call counts
are accumulated for every span; the first ``max_spans`` spans are also kept in
memory with their parent and written out by :meth:`Tracer.dump` when the
benchmark ends.

Worker processes are out of reach: a fork disables the inherited copy of the
tracer, and the workers' work is covered by the exact counts they fold back
into ``session.metrics``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import weakref
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

_LIVE: "weakref.WeakSet[Tracer]" = weakref.WeakSet()
_FORK_HOOKED = False


def _disable_after_fork() -> None:
    for tracer in list(_LIVE):
        tracer.enabled = False


class Tracer:
    """Span stack, per-function self time, and counters."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.enabled = False
        self.max_spans = max_spans
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, int] = defaultdict(int)
        self.counts: DefaultDict[str, int] = defaultdict(int)
        self.layer_of: Dict[str, str] = {}
        #: (span id, parent id or -1, function, start, end)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        self.window_wall = 0.0
        self.window_self = 0.0
        self._next_id = 0
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._window: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        target: str,
        layer: str,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``target``/``layer``.

        ``on_return`` sees the result of the outermost span of ``layer``
        only, so nested calls within one layer are counted once.
        """
        self.layer_of[target] = layer
        tracer = self
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = clock()
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][2] if stack else -1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s[target] += duration - frame[0]
                calls[target] += 1
                if len(spans) < tracer.max_spans:
                    spans.append((span_id, parent, target, start, end))
                else:
                    tracer.spans_dropped += 1
                if not stack:
                    # the tracer's own bookkeeping lands in the enclosing
                    # span; an outermost span owns its own
                    self_s[target] += clock() - end
            if on_return is not None and (not stack or stack[-1][1] != layer):
                on_return(result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        target: str,
        layer: str,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced version until :meth:`restore`."""
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, target, layer, on_return))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, target, layer, on_return))
        else:
            wrapped = self.wrap(raw, target, layer, on_return)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, own))

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Swap in an untimed counting replacement until :meth:`restore`."""
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self.enabled = False

    # ------------------------------------------------------------------
    def window_begin(self) -> None:
        """Start a region whose wall time the spans should cover."""
        self._window = (time.perf_counter(), sum(self.self_s.values()))

    def window_end(self) -> None:
        assert self._window is not None
        start, covered = self._window
        self.window_wall += time.perf_counter() - start
        self.window_self += sum(self.self_s.values()) - covered
        self._window = None

    @property
    def coverage(self) -> float:
        """Summed self time over the wall time of the traced windows."""
        return self.window_self / self.window_wall if self.window_wall else 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Copy of the accumulated totals (diff two to get one trial's)."""
        return {
            "self_s": dict(self.self_s),
            "calls": {k: float(v) for k, v in self.calls.items()},
            "counts": {k: float(v) for k, v in self.counts.items()},
        }

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the kept spans and the per-function totals as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = dict(extra)
        payload.update(
            {
                "functions": {
                    target: {
                        "layer": self.layer_of.get(target, target),
                        "self_s": self.self_s[target],
                        "calls": self.calls[target],
                    }
                    for target in sorted(self.self_s)
                },
                "counts": dict(self.counts),
                "coverage": self.coverage,
                "span_fields": ["id", "parent", "function", "start", "end"],
                "spans": self.spans,
                "spans_dropped": self.spans_dropped,
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


Totals = Dict[str, Dict[str, float]]


def diff(after: Totals, before: Totals) -> Totals:
    """``after - before`` for two :meth:`Tracer.snapshot` results."""
    return {
        kind: {
            key: value - before[kind].get(key, 0.0)
            for key, value in after[kind].items()
        }
        for kind in after
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary of the in-process engine and session."""
    global _FORK_HOOKED
    from repro.core import optimizer
    from repro.engine import (
        adaptivity,
        columnar,
        metrics,
        rewiring,
        runtime,
        sharding,
        stores,
        tuples,
    )
    from repro.session import JoinSession

    counts = tracer.counts

    def count_matches(result: Any) -> None:
        matches = result[0]
        if matches is not None:
            counts["probe.matches"] += len(matches)

    spans = (
        # session: the facade's ingestion, minus the runtime below it
        (JoinSession, "push", "JoinSession.push", "session", None),
        (JoinSession, "push_batch", "JoinSession.push_batch", "session", None),
        (JoinSession, "flush", "JoinSession.flush", "session", None),
        # plan: churn calls (catalog, ILP build, topology), optimizer, solver
        (JoinSession, "add_query", "JoinSession.add_query", "plan", None),
        (JoinSession, "remove_query", "JoinSession.remove_query", "plan", None),
        (optimizer.MultiQueryOptimizer, "optimize", "MultiQueryOptimizer.optimize", "plan", None),
        (optimizer, "solve_model", "solve_model", "plan", None),
        # ipc: ShardedRuntime (routing, pickling, log merge)
        (sharding.ShardedRuntime, "process", "ShardedRuntime.process", "ipc", None),
        (sharding.ShardedRuntime, "flush", "ShardedRuntime.flush", "ipc", None),
        # cascade: rule dispatch in the single-process runtime
        (runtime.TopologyRuntime, "process", "TopologyRuntime.process", "cascade", None),
        (runtime.TopologyRuntime, "flush", "TopologyRuntime.flush", "cascade", None),
        # probe: the name the runtime resolves, and the defining module's
        (runtime, "probe_batch", "runtime.probe_batch", "probe", count_matches),
        (stores, "probe_batch", "stores.probe_batch", "probe", count_matches),
        (columnar.ColumnarContainer, "probe_batch",
         "ColumnarContainer.probe_batch", "probe", count_matches),
        (columnar.ColumnarContainer, "probe_batch_vector",
         "ColumnarContainer.probe_batch_vector", "probe", count_matches),
        # store
        (stores.Container, "insert", "Container.insert", "store", None),
        (columnar.ColumnarContainer, "insert", "ColumnarContainer.insert", "store", None),
        (stores.Container, "evict_older_than", "Container.evict_older_than", "store", None),
        (columnar.ColumnarContainer, "evict_older_than",
         "ColumnarContainer.evict_older_than", "store", None),
        # materialize
        (tuples.StreamTuple, "merge", "StreamTuple.merge", "materialize", None),
        (columnar.VectorBatch, "materialize", "VectorBatch.materialize", "materialize", None),
        # emit (the benchmark wraps its own subscriber with emit_wrapper)
        (metrics.EngineMetrics, "on_result", "EngineMetrics.on_result", "emit", None),
        # rewire
        (rewiring.RewirableRuntime, "install", "RewirableRuntime.install", "rewire", None),
        (sharding.ShardedRuntime, "install", "ShardedRuntime.install", "rewire", None),
        (rewiring, "compute_backfill", "rewiring.compute_backfill", "rewire", None),
        (sharding, "compute_backfill", "sharding.compute_backfill", "rewire", None),
        # adaptivity
        (adaptivity.AdaptivityLoop, "advance", "AdaptivityLoop.advance", "adaptivity", None),
        (adaptivity.AdaptivityLoop, "observe", "AdaptivityLoop.observe", "adaptivity", None),
        # snapshot
        (JoinSession, "checkpoint", "JoinSession.checkpoint", "snapshot", None),
        (JoinSession, "restore", "JoinSession.restore", "snapshot", None),
    )
    for owner, attr, target, layer, on_return in spans:
        tracer.patch(owner, attr, target, layer, on_return)

    # ipc bytes and batches: pickle once and send the bytes, exactly what
    # Connection.send does, so counting adds no second pickling
    plain_send = sharding._ProcessShard.send

    def counting_send(shard: Any, msg: Any) -> None:
        if not tracer.enabled:
            plain_send(shard, msg)
            return
        buf = ForkingPickler.dumps(msg)
        counts["ipc.bytes"] += len(buf)
        if msg[0] == "batch":
            counts["ipc.batches"] += 1
        shard.conn.send_bytes(buf)

    tracer.replace(sharding._ProcessShard, "send", counting_send)

    _LIVE.add(tracer)
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_disable_after_fork)
        _FORK_HOOKED = True


def emit_wrapper(tracer: Optional[Tracer]) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator putting the benchmark's own subscriber in the emit layer."""
    if tracer is None:
        return lambda fn: fn
    return lambda fn: tracer.wrap(fn, "benchmark.subscriber", "emit")
