"""What the benchmark measures, and why.

``BENCHMARK.json`` at the repository root is the single source of the
workload names and rationales and of every metric's name, unit, direction
and bound; :func:`load` reads it and adds what that file has no room for:
every generator parameter of a workload, the definition of each end-to-end
metric, and, for each per-layer metric, the end-to-end metric it should move
and the workload on which its layer does the work.  A name in one place and
not the other is an error.

Layer names follow the modules (``repro.*``) whose public functions the
tracer wraps.

How the metrics interact (read before claiming a gain):

* ``chain-selective`` and ``chain-fanout`` are single-core closed loops: a
  faster layer saves at most its share of self time there
  (``<layer>.self_s`` over the traced wall time).
* On ``service-tcp`` the ingress queue saturates before throughput stops
  rising, so ``ingress.p99_ms`` climbs before ``push_per_s`` (the drain rate
  under a saturated queue) flattens.  That is why latency is taken in an open
  loop at one fixed rate well below capacity, and throughput in separate
  credit-gated bursts.
* Tail latencies are measured but not gated.  On a shared 2-vCPU VM the
  open loop's due-to-ack latency is set by how soon a sleeping vCPU runs
  again, which follows the host's load: over twenty runs its p99 ranged
  from 0.9 to 12 ms, and the generator's own lag p99 from 0.15 to 6 ms.
  The result-latency p99 spread by up to a third of its median between
  runs.  They are per-layer metrics of the traced run (``ingress.p50_ms``,
  ``ingress.p99_ms``, ``emit.result_p99_us``), printed by every run, not
  end-to-end metrics with a bound.
* Replans block ingestion.  A backfill or ILP gain shows in ``replan_ms``
  and ``push_per_s`` on ``churn-sharded`` and should leave every other
  workload unchanged.
* Every time is in reference seconds (:mod:`perfbench.refclock`): wall time
  scaled by the speed of a calibration kernel run right before and after
  the sample, which divides out the drift of a shared machine.  The raw
  kernel times are printed with every run (``kernel_ms``).
* ``churn-sharded`` runs two worker processes and the coordinating process
  on two cores; its per-layer numbers are counts folded back from the
  workers, and no scaling claim rests on it.

Every run reports every metric of its kind.  A layer a workload does not
exercise reports 0 (ingress outside service-tcp, ipc outside churn-sharded),
and so do the in-worker self times and in-process counts on churn-sharded
(probe, store, materialize), which the tracer cannot reach.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def _by_name(
    doc: Dict[str, Any], section: str, extra: Dict[str, Any]
) -> List[Tuple[Dict[str, Any], Any]]:
    """Entries of ``doc[section]`` in file order, each with its ``extra``."""
    entries = doc[section]
    names = [entry["name"] for entry in entries]
    if sorted(names) != sorted(extra):
        raise ValueError(
            f"{section}: BENCHMARK.json names {sorted(names)}, "
            f"perfbench/spec.py defines {sorted(extra)}"
        )
    return [(entry, extra[entry["name"]]) for entry in entries]


#: the queries shared by chain-selective, chain-fanout and service-tcp
CHAIN_QUERIES: Dict[str, Tuple[str, ...]] = {
    "q1": ("R.a=S.a", "S.b=T.b"),
    "q2": ("S.b=T.b", "T.c=U.c"),
    "q3": ("R.a=S.a", "S.b=T.b", "T.c=U.c"),
}

#: added and removed right after set-up on the workloads without churn, so
#: replan latency is measured everywhere (it shares q1's input stores)
PROBE_QUERY: Tuple[str, Tuple[str, ...]] = ("q4", ("R.a=S.a",))

#: churn-sharded: the 4-way query that stays installed
ANCHOR_QUERY: Tuple[str, Tuple[str, ...]] = (
    "anchor",
    ("R.a=S.a", "S.b=T.b", "T.c=U.c"),
)

#: churn-sharded: the pool that queries are added from and removed to
CHURN_POOL: Dict[str, Tuple[str, ...]] = {
    "p1": ("R.a=S.a", "S.b=T.b"),
    "p2": ("S.b=T.b", "T.c=U.c"),
    "p3": ("R.a=S.a",),
    "p4": ("T.c=U.c",),
    "p5": ("R.d=U.d",),
    "p6": ("T.c=U.c", "U.d=R.d"),
}

#: churn-sharded: one cycle of operations, the same for every seed so that
#: the replan mix (and with it replan_ms) does not depend on the seed;
#: the cycle ends with the pool empty again
CHURN_CYCLE: Tuple[Tuple[str, str], ...] = (
    ("add", "p1"),
    ("add", "p3"),
    ("add", "p5"),
    ("remove", "p1"),
    ("add", "p2"),
    ("remove", "p3"),
    ("add", "p4"),
    ("remove", "p5"),
    ("add", "p6"),
    ("remove", "p2"),
    ("remove", "p4"),
    ("remove", "p6"),
)

CHAIN_ATTRS = {"R": ("a",), "S": ("a", "b"), "T": ("b", "c"), "U": ("c",)}
CHURN_ATTRS = {"R": ("a", "d"), "S": ("a", "b"), "T": ("b", "c"), "U": ("c", "d")}


@dataclass(frozen=True)
class Workload:
    """One workload: its rationale and every parameter of its feed."""

    name: str
    why: str
    kind: str  # "chain", "service" or "churn"
    domain: int  # join attribute values are uniform in [0, domain)
    window: float  # seconds of event time, every relation
    rate: float  # tuples per second of event time, all relations together
    fill: int  # pushes before timing starts (the windows are full after it)
    trial_pushes: int  # timed pushes per trial (unused on service-tcp)
    verify_prefix: int  # pushes checked against the brute-force oracle
    #: pushes per timed sample: a chunk of a trial, a burst of the
    #: service-tcp flood; on churn-sharded, the pushes between two churn
    #: operations
    chunk: int
    attrs: Dict[str, Tuple[str, ...]] = field(default_factory=lambda: CHAIN_ATTRS)
    straggler_share: float = 0.0
    max_lag: float = 0.0
    #: checkpoint/restore pairs per trial (service-tcp: per round) right
    #: after the window fill; churn-sharded takes one every
    #: ``checkpoint_every`` churn operations instead
    snapshots: int = 0
    #: service-tcp: measured rounds per run, each on a fresh server session
    rounds: int = 0
    #: service-tcp: fixed offered rate of the open-loop phase (push/s)
    open_rate: float = 0.0
    #: service-tcp: bound on the server's ingress queue
    queue_depth: int = 256
    #: churn-sharded: checkpoint + restore after every n-th churn operation
    checkpoint_every: int = 0
    disorder_bound: float = 0.0
    allowed_lateness: float = 0.0
    reoptimize_every: float = 0.0
    workers: int = 1

    def params(self) -> Dict[str, object]:
        """Every parameter, for the printed report."""
        out = {
            k: v
            for k, v in self.__dict__.items()
            if k not in ("name", "why", "attrs") and v not in (0, 0.0)
        }
        out["attrs"] = {rel: list(a) for rel, a in self.attrs.items()}
        return out


#: every generator parameter, by workload name (the rationale is in
#: BENCHMARK.json).  The chain feeds' windows are full after ``fill``
#: pushes; ``verify_prefix`` is what the brute-force oracle of
#: ``JoinSession.verify`` can afford (its cost grows with the cube of the
#: prefix on chain-fanout), and the hash-join oracle of
#: :mod:`perfbench.oracle` checks every push of the chain feeds beyond it.
_PARAMS: Dict[str, Dict[str, Any]] = {
    "chain-selective": dict(
        kind="chain",
        domain=4000,
        window=8.0,
        rate=1000.0,
        fill=8000,
        trial_pushes=40000,
        verify_prefix=3000,
        chunk=4000,
        snapshots=3,
    ),
    "chain-fanout": dict(
        kind="chain",
        domain=800,
        window=8.0,
        rate=1000.0,
        fill=8000,
        trial_pushes=12000,
        verify_prefix=2500,
        chunk=1500,
        snapshots=4,
    ),
    "service-tcp": dict(
        kind="service",
        domain=4000,
        window=8.0,
        rate=1000.0,
        fill=8000,
        trial_pushes=0,
        verify_prefix=3000,
        chunk=3000,
        snapshots=3,
        rounds=4,
        open_rate=2000.0,
        queue_depth=256,
    ),
    "churn-sharded": dict(
        kind="churn",
        domain=4000,
        window=2.0,
        rate=1000.0,
        fill=2000,
        trial_pushes=len(CHURN_CYCLE) * 250,
        verify_prefix=2500,
        chunk=250,
        attrs=CHURN_ATTRS,
        straggler_share=0.2,
        max_lag=0.6,
        checkpoint_every=2,
        disorder_bound=0.3,
        allowed_lateness=0.2,
        reoptimize_every=2.0,
        workers=2,
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: what each end-to-end metric measures, in reference time; every one is
#: measured on every workload, with tracing off
_DEFINITIONS: Dict[str, str] = {
    "setup_s": (
        "session construction to the first accepted push (first ILP solve, "
        "worker pool spawn, server bind); median of at least five set-ups"
    ),
    "push_per_s": (
        "pushes per second over the timed chunks (a flush ends each chunk "
        "without churn), median over chunks; on churn-sharded over whole "
        "churn cycles, replan stalls included; on service-tcp the drain rate "
        "of bursts that keep the ingress queue saturated, median over bursts "
        "(the first burst of each round warms up)"
    ),
    "result_p50_us": (
        "start of the push() of a result's triggering tuple to the "
        "subscriber callback for that result (micro-batch deferral and "
        "shard drains included); median over chunks (bursts) of each one's "
        "percentile"
    ),
    "peak_rss_mb": (
        "peak resident memory of the process hosting the session (the "
        "server child on service-tcp, the coordinating process on churn-sharded)"
    ),
    "replan_ms": (
        "wall time of add_query/remove_query, the mean over a fixed "
        "sequence of them of each one's median over trials: the churn cycle "
        "on churn-sharded; elsewhere the probe query q4 added and removed "
        "right after each set-up (planning and rewiring, no backfill)"
    ),
    "checkpoint_ms": (
        "JoinSession.checkpoint, median over all snapshots (during churn "
        "on churn-sharded, right after each window fill elsewhere)"
    ),
    "restore_ms": (
        "JoinSession.restore of each snapshot (a fresh worker pool on "
        "churn-sharded), median"
    ),
}


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric the layer should move
    on: str  # workload where the layer does the work


#: per-layer metrics of the traced run (``--trace 1``): the end-to-end
#: metric each should move and the workload where its layer does the work.
#: Self times and in-process counts are per trial (median over the traced
#: trials); counts from ``session.metrics`` are exact.
_MOVES: Dict[str, Tuple[str, str]] = {
    # repro.service.server: server-process time outside JoinSession.push
    "ingress.self_s": ("push_per_s", "service-tcp"),
    "ingress.queue_high_water": ("push_per_s", "service-tcp"),
    "ingress.pauses": ("push_per_s", "service-tcp"),
    "ingress.generator_lag_ms": ("push_per_s", "service-tcp"),
    # due time to ack of each open-loop push, percentile over a round's
    # whole open loop, median over the untraced rounds; not gated (see above)
    "ingress.p50_ms": ("push_per_s", "service-tcp"),
    "ingress.p99_ms": ("push_per_s", "service-tcp"),
    # repro.session: push/push_batch minus the runtime's process/flush
    "session.self_s": ("push_per_s", "chain-selective"),
    "session.late_admitted": ("push_per_s", "churn-sharded"),
    "session.dead_lettered": ("push_per_s", "churn-sharded"),
    # repro.engine.sharding: the coordinating ShardedRuntime
    "ipc.self_s": ("push_per_s", "churn-sharded"),
    "ipc.batches": ("push_per_s", "churn-sharded"),
    "ipc.bytes": ("push_per_s", "churn-sharded"),
    "ipc.worker_rss_mb": ("push_per_s", "churn-sharded"),
    # repro.engine.runtime
    "cascade.self_s": ("push_per_s", "chain-selective"),
    "cascade.tuples_sent": ("push_per_s", "chain-selective"),
    # repro.engine.stores.probe_batch, ColumnarContainer.probe_batch*
    "probe.self_s": ("push_per_s", "chain-selective"),
    "probe.probes": ("push_per_s", "chain-selective"),
    "probe.comparisons": ("push_per_s", "chain-selective"),
    "probe.hit_ratio": ("push_per_s", "chain-selective"),
    # Container / ColumnarContainer insert and evict_older_than
    "store.insert_s": ("push_per_s", "chain-selective"),
    "store.evict_s": ("push_per_s", "chain-selective"),
    "store.inserts": ("push_per_s", "chain-selective"),
    "store.peak_stored_units": ("peak_rss_mb", "chain-selective"),
    # StreamTuple.merge, VectorBatch.materialize
    "materialize.self_s": ("push_per_s", "chain-fanout"),
    "materialize.merges": ("result_p50_us", "chain-fanout"),
    "materialize.merges_per_result": ("push_per_s", "chain-fanout"),
    # EngineMetrics.on_result plus the benchmark's subscriber
    "emit.self_s": ("push_per_s", "chain-fanout"),
    "emit.results": ("push_per_s", "chain-fanout"),
    # as result_p50_us, 99th percentile, from the untraced trials (rounds)
    # of the traced run; not gated (see above)
    "emit.result_p99_us": ("result_p50_us", "chain-fanout"),
    # MultiQueryOptimizer.optimize, repro.ilp.solvers.solve_model
    "plan.self_s": ("replan_ms", "churn-sharded"),
    "plan.solve_s": ("setup_s", "churn-sharded"),
    "plan.solves": ("replan_ms", "churn-sharded"),
    # RewirableRuntime.install, compute_backfill, ShardedRuntime.install
    "rewire.self_s": ("replan_ms", "churn-sharded"),
    "rewire.rewires": ("push_per_s", "churn-sharded"),
    "rewire.preserved_tuples": ("replan_ms", "churn-sharded"),
    "rewire.backfilled_tuples": ("replan_ms", "churn-sharded"),
    "rewire.migrated_tuples": ("replan_ms", "churn-sharded"),
    # AdaptivityLoop.advance/observe
    "adaptivity.self_s": ("push_per_s", "churn-sharded"),
    "adaptivity.decisions": ("push_per_s", "churn-sharded"),
    # JoinSession.checkpoint/restore
    "snapshot.bytes": ("checkpoint_ms", "churn-sharded"),
    # checks on the trace itself
    "trace.coverage": ("push_per_s", "chain-selective"),
    "trace.overhead": ("push_per_s", "chain-selective"),
}



@dataclass(frozen=True)
class Spec:
    """BENCHMARK.json joined with this module's tables, in file order."""

    workloads: Dict[str, Workload]
    end_to_end: Tuple[EndToEnd, ...]
    per_layer: Tuple[PerLayer, ...]


def load(path: str = BENCHMARK_JSON) -> Spec:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return Spec(
        workloads={
            entry["name"]: Workload(name=entry["name"], why=entry["why"], **params)
            for entry, params in _by_name(doc, "workloads", _PARAMS)
        },
        end_to_end=tuple(
            EndToEnd(entry["name"], entry["unit"], entry["better"], entry["bound"], text)
            for entry, text in _by_name(doc, "end_to_end", _DEFINITIONS)
        ),
        per_layer=tuple(
            PerLayer(entry["name"], entry["unit"], entry["better"], *moves)
            for entry, moves in _by_name(doc, "per_layer", _MOVES)
        ),
    )
