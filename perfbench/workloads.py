"""In-process workloads: chain-selective, chain-fanout and churn-sharded.

A run is a series of *trials* over the same pre-generated feed.  Each trial
builds a fresh session (timed: that is one ``setup_s`` sample), fills the
windows untimed, then times a fixed number of pushes in *chunks*.  Without
churn, a trial also times probe-query replans right after its set-up and a
few checkpoint/restore pairs right after its fill, so every kind of sample
is spread over the whole run, not taken in one burst.  With churn, every
chunk is followed by one operation of the churn cycle.

Every sample (a set-up, a chunk, a replan, a checkpoint, a restore) is
timed in reference seconds (:mod:`perfbench.refclock`): the calibration
kernel runs right before and right after it, while the program is idle.

Because every trial sees the same feed, every trial must produce the same
per-query result counts and the same order-independent digest.  Without
churn these must also equal the hash-join oracle's over the whole feed
(:mod:`perfbench.oracle`), eviction included; and a prefix of the feed is
checked against the repository's brute-force oracle (``JoinSession.verify``).

With ``trace=True`` untraced and traced trials alternate: end-to-end
numbers come from the untraced ones, per-layer numbers from the traced ones,
and the gap between the two push rates is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.session import JoinSession

from . import oracle
from . import refclock
from . import tracer as tracing
from .feeds import Push, make_feed, position_of
from .spec import (
    ANCHOR_QUERY,
    CHAIN_QUERIES,
    CHURN_CYCLE,
    CHURN_POOL,
    PROBE_QUERY,
    Workload,
)

#: counts cover every result; digests cover the results whose triggering
#: push index is a multiple of 8, so the timed path reads the components of
#: only an eighth of the results
DIGEST_SAMPLE = 7
_MASK = (1 << 64) - 1

#: trials per run (of each kind when tracing): at least two, so results
#: can be compared across trials
MIN_TRIALS = 2
MAX_TRIALS = 200

#: at least this many set-ups per run, so setup_s is a median
MIN_SETUPS = 5

#: workloads without churn: probe-query add/remove pairs timed right after
#: each trial's set-up
REPLAN_PAIRS = 3


class ResultLog:
    """One trial's per-query result counts, digests, and result latencies
    (``(push index, seconds)`` of each result a timed push triggered).

    The digest of a query is the sum (mod 2**64) of a hash of each sampled
    result's component timestamps, so it does not depend on the order in
    which results arrive.  Timestamps are unique across the feed, so they
    identify a result's component tuples.
    """

    def __init__(
        self,
        pos: Dict[float, int],
        stamps: List[float],
        timed_from: int,
        prefix: int,
    ) -> None:
        self.pos = pos
        self.stamps = stamps
        self.timed_from = timed_from
        self.prefix = prefix
        self.counts: Dict[str, int] = {}
        self.digests: Dict[str, int] = {}
        self.prefix_counts: Dict[str, int] = {}
        self.prefix_digests: Dict[str, int] = {}
        self.latencies: List[Tuple[int, float]] = []

    def subscriber(self, query: str) -> Callable[[Any], None]:
        counts, digests = self.counts, self.digests
        prefix_counts, prefix_digests = self.prefix_counts, self.prefix_digests
        for table in (counts, digests, prefix_counts, prefix_digests):
            table[query] = 0
        pos, stamps, latency = self.pos, self.stamps, self.latencies.append
        timed_from, prefix = self.timed_from, self.prefix
        clock = time.perf_counter

        def on_result(result: Any) -> None:
            now = clock()
            i = pos[result.trigger_ts]
            counts[query] += 1
            if i >= timed_from:
                latency((i, now - stamps[i]))
            if i < prefix:
                prefix_counts[query] += 1
            if not i & DIGEST_SAMPLE:
                h = self.digest_of(result)
                digests[query] = (digests[query] + h) & _MASK
                if i < prefix:
                    prefix_digests[query] = (prefix_digests[query] + h) & _MASK

        return on_result

    @staticmethod
    def digest_of(result: Any) -> int:
        return hash(tuple(sorted(result.timestamps.values())))

    def signature(self) -> Dict[str, Tuple[int, int]]:
        return {q: (self.counts[q], self.digests[q]) for q in sorted(self.counts)}

    def prefix_signature(self) -> Dict[str, Tuple[int, int]]:
        """Counts and digests of the results the feed prefix triggered
        (queries without any are left out: a trial subscribes to queries
        that only get installed after the prefix)."""
        return {
            q: (self.prefix_counts[q], self.prefix_digests[q])
            for q in sorted(self.prefix_counts)
            if self.prefix_counts[q]
        }


#: builds a trial's result log from (positions, stamps, timed_from,
#: prefix, trial index); tests substitute one that plants a wrong result
LogFactory = Callable[[Dict[float, int], List[float], int, int, int], ResultLog]


def default_log(
    pos: Dict[float, int], stamps: List[float], timed_from: int, prefix: int, trial: int
) -> ResultLog:
    return ResultLog(pos, stamps, timed_from, prefix)


@dataclass
class Trial:
    """What one trial measured; every time is in reference seconds except
    ``wall_s``."""

    traced: bool
    setup_s: float
    #: wall seconds of the timed part of the trial, calibrations and churn
    #: included (what the run's time budget counts)
    wall_s: float
    #: one ``(pushes, seconds)`` per chunk; with churn, a chunk's seconds
    #: include the churn operation that follows it
    periods: List[Tuple[int, float]]
    #: percentiles of the result latencies of each chunk
    result_p50s: List[float]
    result_p99s: List[float]
    #: results triggered by the timed pushes
    timed_results: int
    replans: List[float]
    checkpoints: List[float]
    restores: List[float]
    snapshot_bytes: List[int]
    signature: Dict[str, Tuple[int, int]]
    prefix_signature: Dict[str, Tuple[int, int]]
    #: the engine's exact counters (``metric_counts``)
    metrics: Dict[str, float]
    #: calibration kernel times (wall seconds), to report the machine's speed
    kernel_s: List[float]
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def pushes(self) -> int:
        return sum(n for n, _ in self.periods)

    @property
    def push_per_s(self) -> float:
        return self.pushes / sum(s for _, s in self.periods)


@dataclass
class Outcome:
    """A workload run: metrics, operation counts, and failed checks."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# sessions and snapshots
# ----------------------------------------------------------------------
def new_session(workload: Workload, record_streams: bool = False) -> JoinSession:
    """A session configured for ``workload`` with its initial queries."""
    if workload.kind == "churn":
        session = JoinSession(
            window=workload.window,
            disorder_bound=workload.disorder_bound,
            allowed_lateness=workload.allowed_lateness,
            on_late="dead_letter",
            reoptimize_every=workload.reoptimize_every,
            workers=workload.workers,
            worker_transport="process",
            record_streams=record_streams,
        )
        # the catalog the generator draws from, declared: plans (and with
        # them which rewires need a backfill) are then the same for every
        # seed, while the statistics are still observed and folded
        for relation in workload.attrs:
            session.with_rate(relation, workload.rate / len(workload.attrs))
        for equalities in [ANCHOR_QUERY[1], *CHURN_POOL.values()]:
            for predicate in equalities:
                session.with_selectivity(predicate, 1.0 / workload.domain)
        session.add_query(ANCHOR_QUERY[0], *ANCHOR_QUERY[1])
    else:
        session = JoinSession(window=workload.window, record_streams=record_streams)
        for name, equalities in CHAIN_QUERIES.items():
            session.add_query(name, *equalities)
    return session


def timed(
    clock: refclock.RefClock,
    op: Callable[[], Any],
    tracer: Optional[tracing.Tracer] = None,
) -> Tuple[float, Any]:
    """Reference seconds of ``op()``, after an untimed full collection so
    the operation does not pay garbage-collection debt left by earlier work;
    with a tracer, the operation is a traced window."""
    gc.collect()
    clock.rebase()
    if tracer is not None:
        tracer.window_begin()
    start = time.perf_counter()
    result = op()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.window_end()
    return wall * clock.factor(), result


def snapshot_pair(
    clock: refclock.RefClock, session: JoinSession, path: str
) -> Tuple[float, float, int]:
    """Checkpoint ``session`` to ``path`` and restore it: (ckpt s, restore s, bytes)."""
    checkpoint_s, _ = timed(clock, lambda: session.checkpoint(path))
    restore_s, restored = timed(clock, lambda: JoinSession.restore(path))
    restored.close()
    size = os.path.getsize(path)
    os.remove(path)
    return checkpoint_s, restore_s, size


def probe_replans(clock: refclock.RefClock, session: JoinSession, pairs: int) -> List[float]:
    """Add and remove the probe query ``pairs`` times; each call's time,
    adds and removes alternating.  The session ends with the queries it
    started with."""
    name, equalities = PROBE_QUERY
    out: List[float] = []
    for _ in range(pairs):
        out.append(timed(clock, lambda: session.add_query(name, *equalities))[0])
        out.append(timed(clock, lambda: session.remove_query(name))[0])
    return out


class Churn:
    """Applies the churn cycle to one session; subscribes each query once."""

    def __init__(
        self,
        session: JoinSession,
        log: ResultLog,
        emit: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        self.session = session
        self.log = log
        self.emit = emit
        self.subscribed: set = set()

    def apply(self, op_index: int) -> None:
        action, name = CHURN_CYCLE[op_index % len(CHURN_CYCLE)]
        if action == "add":
            self.session.add_query(name, *CHURN_POOL[name])
            if name not in self.subscribed:
                self.subscribed.add(name)
                self.session.subscribe(name, self.emit(self.log.subscriber(name)))
        else:
            self.session.remove_query(name)


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
def run_trial(
    workload: Workload,
    feed: List[Push],
    pos: Dict[float, int],
    workdir: str,
    index: int,
    tracer: Optional[tracing.Tracer],
    make_log: LogFactory,
) -> Trial:
    fill = workload.fill
    end = fill + workload.trial_pushes
    stamps = [0.0] * end
    log = make_log(pos, stamps, fill, workload.verify_prefix, index)
    emit = tracing.emit_wrapper(tracer)
    perf = time.perf_counter
    clock = refclock.RefClock()
    snap_path = os.path.join(workdir, f"snapshot-{os.getpid()}-{index}.bin")
    checkpoints: List[float] = []
    restores: List[float] = []
    sizes: List[int] = []
    replans: List[float] = []
    periods: List[Tuple[int, float]] = []
    #: (first push, end push, reference factor) of each chunk
    segments: List[Tuple[int, int, float]] = []
    churn_kind = workload.kind == "churn"
    initial = [ANCHOR_QUERY[0]] if churn_kind else list(CHAIN_QUERIES)

    def build() -> JoinSession:
        session = new_session(workload)
        for name in initial:
            session.subscribe(name, emit(log.subscriber(name)))
        relation, values, ts = feed[0]
        session.push(relation, values, ts)
        return session

    setup_s, session = timed(clock, build)
    try:
        push = session.push
        if not churn_kind:
            # the session just started: its stores hold one tuple, so these
            # replans are planning and rewiring, never a seed-dependent
            # backfill of full windows
            replans = probe_replans(clock, session, REPLAN_PAIRS)
        for i in range(1, fill):
            relation, values, ts = feed[i]
            push(relation, values, ts)
        if not churn_kind:
            # a few snapshots per trial, so a run's snapshots are spread
            # over its whole duration like its trials
            for _ in range(workload.snapshots):
                ck, rs, size = snapshot_pair(clock, session, snap_path)
                checkpoints.append(ck)
                restores.append(rs)
                sizes.append(size)

        churn = Churn(session, log, emit)
        gc.collect()
        began = perf()
        clock.rebase()
        for op, lo in enumerate(range(fill, end, workload.chunk)):
            hi = min(lo + workload.chunk, end)
            if tracer is not None:
                tracer.window_begin()
            start = perf()
            for i in range(lo, hi):
                relation, values, ts = feed[i]
                stamps[i] = perf()
                push(relation, values, ts)
            if not churn_kind:
                # the chunk's results are all delivered before the clock
                # calibrates (watermark mode keeps them: flushing would
                # change which stragglers are late)
                session.flush()
            chunk_wall = perf() - start
            if tracer is not None:
                tracer.window_end()
            factor = clock.factor()
            segments.append((lo, hi, factor))
            seconds = chunk_wall * factor
            if churn_kind:
                replan_s, _ = timed(clock, lambda: churn.apply(op), tracer)
                replans.append(replan_s)
                seconds += replan_s
                if (op + 1) % workload.checkpoint_every == 0:
                    ck, rs, size = snapshot_pair(clock, session, snap_path)
                    checkpoints.append(ck)
                    restores.append(rs)
                    sizes.append(size)
                gc.collect()
                clock.rebase()
            periods.append((hi - lo, seconds))
        session.flush()
        wall = perf() - began
        metrics = metric_counts(session.metrics)
    finally:
        session.close()
    p50s, p99s = segment_percentiles(log.latencies, segments)
    return Trial(
        traced=tracer is not None,
        setup_s=setup_s,
        wall_s=wall,
        periods=periods,
        result_p50s=p50s,
        result_p99s=p99s,
        timed_results=len(log.latencies),
        replans=replans,
        checkpoints=checkpoints,
        restores=restores,
        snapshot_bytes=sizes,
        signature=log.signature(),
        prefix_signature=log.prefix_signature(),
        metrics=metrics,
        kernel_s=clock.kernel_s,
    )


def segment_percentiles(
    latencies: List[Tuple[int, float]], segments: List[Tuple[int, int, float]]
) -> Tuple[List[float], List[float]]:
    """The 50th and 99th percentile of the latencies of the results each
    segment's pushes triggered, times the segment's reference factor."""
    if not latencies:
        return [], []
    pairs = np.asarray(latencies, dtype=float)
    pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
    p50s: List[float] = []
    p99s: List[float] = []
    for lo, hi, factor in segments:
        a, b = np.searchsorted(pairs[:, 0], (lo, hi))
        if b > a:
            p50, p99 = np.percentile(pairs[a:b, 1], (50, 99))
            p50s.append(float(p50) * factor)
            p99s.append(float(p99) * factor)
    return p50s, p99s


def extra_setups(workload: Workload, feed: List[Push], count: int) -> List[float]:
    """``count`` more ``setup_s`` samples: construct, first push, close."""
    clock = refclock.RefClock()
    setups: List[float] = []

    def build() -> JoinSession:
        session = new_session(workload)
        relation, values, ts = feed[0]
        session.push(relation, values, ts)
        return session

    for _ in range(count):
        setup_s, session = timed(clock, build)
        setups.append(setup_s)
        session.close()
    return setups


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def verify_prefix(
    workload: Workload,
    feed: List[Push],
    pos: Dict[float, int],
) -> Tuple[bool, str, Dict[str, Tuple[int, int]]]:
    """Run the feed prefix (and its churn) with history recorded, check it
    against the brute-force oracle; returns (ok, description, signature)."""
    prefix = workload.verify_prefix
    stamps = [0.0] * prefix
    log = ResultLog(pos, stamps, prefix, prefix)
    session = new_session(workload, record_streams=True)
    try:
        initial = [ANCHOR_QUERY[0]] if workload.kind == "churn" else list(CHAIN_QUERIES)
        for name in initial:
            session.subscribe(name, log.subscriber(name))
        churn = Churn(session, log, lambda fn: fn)
        ops = 0
        for i in range(prefix):
            relation, values, ts = feed[i]
            session.push(relation, values, ts)
            if (
                workload.kind == "churn"
                and i >= workload.fill
                and (i - workload.fill + 1) % workload.chunk == 0
            ):
                churn.apply(ops)
                ops += 1
        report = session.verify()
        session.flush()
    finally:
        session.close()
    return report.ok, report.describe(), log.prefix_signature()


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    make_log: LogFactory = default_log,
) -> Tuple[Outcome, Optional[tracing.Tracer]]:
    """Trials until ``seconds`` of timed pushes (per kind, when tracing)."""
    out = Outcome()
    began = time.perf_counter()
    feed = make_feed(workload, seed, workload.fill + workload.trial_pushes)
    pos = position_of(feed)
    tracer = tracing.Tracer() if trace else None
    trials: List[Trial] = []
    timed = {False: 0.0, True: 0.0}
    kinds = (False, True) if trace else (False,)
    while len(trials) < MAX_TRIALS:
        done = all(
            timed[k] >= seconds / len(kinds)
            and sum(t.traced == k for t in trials) >= MIN_TRIALS
            for k in kinds
        )
        if done:
            break
        traced = trace and len(trials) % 2 == 1
        active = tracer if traced else None
        before = None
        if active is not None:
            tracing.install_layers(active)
            active.enabled = True
            before = active.snapshot()
        try:
            trial = run_trial(workload, feed, pos, workdir, len(trials), active, make_log)
        finally:
            if active is not None:
                after = active.snapshot()
                active.restore()
        if active is not None:
            trial.layers = tracing.diff(after, before)
        trials.append(trial)
        timed[traced] += trial.wall_s

    plain = [t for t in trials if not t.traced]
    peak = peak_rss_mb()
    setups = [t.setup_s for t in plain]
    extra = extra_setups(workload, feed, max(0, MIN_SETUPS - len(setups)))
    setups += extra
    if workload.kind == "churn":
        # a chunk's time depends on the churn operation after it: push rate
        # over one whole cycle, each period's time its median over trials
        cycle_s = sum(by_position([[s for _, s in t.periods] for t in plain]))
        push_per_s = plain[0].pushes / cycle_s
    else:
        push_per_s = statistics.median(n / s for t in plain for n, s in t.periods)
    out.metrics.update(
        {
            "setup_s": statistics.median(setups),
            "push_per_s": push_per_s,
            "result_p50_us": 1e6 * statistics.median(_pool(plain, "result_p50s")),
            "peak_rss_mb": peak,
            "replan_ms": 1e3 * statistics.fmean(by_position([t.replans for t in plain])),
            "checkpoint_ms": 1e3 * statistics.median(_pool(plain, "checkpoints")),
            "restore_ms": 1e3 * statistics.median(_pool(plain, "restores")),
        }
    )
    # tail latency: reported, and a per-layer metric of the traced run, but
    # too unsteady across runs on a shared machine to be gated
    tails = {"emit.result_p99_us": 1e6 * statistics.median(_pool(plain, "result_p99s"))}
    out.report.update(tails)
    out.report["trials"] = len(plain)
    out.report["trial_push_per_s"] = [round(t.push_per_s) for t in plain]
    out.report["traced_trials"] = len(trials) - len(plain)
    out.report["results_per_timed_push"] = trials[0].timed_results / trials[0].pushes
    out.report["replans_per_run"] = len(_pool(plain, "replans"))
    out.report["snapshots_per_run"] = len(_pool(plain, "checkpoints"))
    out.report["kernel_ms"] = kernel_quartiles(_pool(trials, "kernel_s"))

    # operations attempted: set-ups, pushes, replans, checkpoints, restores
    for t in trials:
        out.attempted += 1 + workload.fill + t.pushes + len(t.replans) + 2 * len(t.checkpoints)
    out.attempted += len(extra)

    # every trial saw the same feed: identical counts and digests
    reference = trials[0].signature
    for t_index, t in enumerate(trials[1:], start=1):
        if t.signature != reference:
            out.problems.append(
                f"trial {t_index} results differ from trial 0: "
                f"{t.signature} != {reference}"
            )
    if not any(count for count, _ in reference.values()):
        out.problems.append("no results at all: the feed does not exercise the joins")
    if workload.kind != "churn":
        index = oracle.result_index(CHAIN_QUERIES, feed, pos, workload.window, DIGEST_SAMPLE)
        expected = oracle.signature(index, len(feed))
        out.attempted += len(expected)
        out.report["hash_oracle_pushes"] = len(feed)
        for t_index, t in enumerate(trials):
            if t.signature != expected:
                out.problems.append(
                    f"trial {t_index} results differ from the hash-join oracle "
                    f"over all {len(feed)} pushes: {t.signature} != {expected}"
                )

    ok, description, prefix_signature = verify_prefix(workload, feed, pos)
    out.report["wall_s"] = round(time.perf_counter() - began, 1)
    out.attempted += len(prefix_signature)
    if not ok:
        out.problems.append(
            f"oracle mismatch on the first {workload.verify_prefix} pushes: "
            f"{description}"
        )
    # the timed trials' results on the verified prefix are the oracle's too
    for t_index, t in enumerate(trials):
        if t.prefix_signature != prefix_signature:
            out.problems.append(
                f"trial {t_index} disagrees with the oracle-checked prefix: "
                f"{t.prefix_signature} != {prefix_signature}"
            )
    out.report["verified_prefix"] = workload.verify_prefix

    if trace and tracer is not None:
        out.metrics.update(layer_metrics(workload, trials, tracer))
        out.metrics.update(tails)
    if out.problems:
        out.failed = out.attempted
    return out, tracer


def _pool(trials: List[Trial], attr: str) -> List[float]:
    pooled: List[float] = []
    for t in trials:
        pooled.extend(getattr(t, attr))
    return pooled


def by_position(samples: List[List[float]]) -> List[float]:
    """The median over trials of each position of a fixed sequence of
    operations (a churn cycle, add-remove pairs): positions that differ by
    design are never pooled, so no percentile falls between two of them."""
    return [statistics.median(column) for column in zip(*samples)]


def kernel_quartiles(kernel_s: List[float]) -> List[float]:
    """Quartiles of the calibration kernel's wall time (ms): the machine's
    speed during the run, for the report."""
    return [round(1e3 * q, 3) for q in statistics.quantiles(kernel_s, n=4)]


#: engine counters the per-layer split reads from ``session.metrics``
METRIC_COUNTS = (
    "tuples_sent", "probes_executed", "comparisons", "peak_stored_units",
    "results_emitted", "rewires", "preserved_tuples", "backfilled_tuples",
    "migrated_tuples", "late_admitted", "dead_lettered",
)


def metric_counts(metrics: Any) -> Dict[str, float]:
    """The exact counters of an ``EngineMetrics`` (worker counts folded in)."""
    out = {name: float(getattr(metrics, name)) for name in METRIC_COUNTS}
    out["decisions"] = float(len(metrics.decisions))
    return out


def layer_row(
    spans: Dict[str, Dict[str, float]],
    layer_of: Dict[str, str],
    m: Dict[str, float],
    snapshot_bytes: List[int],
) -> Dict[str, float]:
    """One traced session's per-layer metrics, from the tracer's
    per-function totals ``spans`` and the engine's exact counters ``m``."""
    fn, calls, counts = spans["self_s"], spans["calls"], spans["counts"]
    layer: Dict[str, float] = {}
    for target, seconds in fn.items():
        name = layer_of.get(target, target)
        layer[name] = layer.get(name, 0.0) + seconds
    merges = calls.get("StreamTuple.merge", 0.0)
    inserts = ("Container.insert", "ColumnarContainer.insert")
    evicts = ("Container.evict_older_than", "ColumnarContainer.evict_older_than")
    return {
        "session.self_s": layer.get("session", 0.0),
        "session.late_admitted": m["late_admitted"],
        "session.dead_lettered": m["dead_lettered"],
        "ipc.self_s": layer.get("ipc", 0.0),
        "ipc.batches": counts.get("ipc.batches", 0.0),
        "ipc.bytes": counts.get("ipc.bytes", 0.0),
        "cascade.self_s": layer.get("cascade", 0.0),
        "cascade.tuples_sent": m["tuples_sent"],
        "probe.self_s": layer.get("probe", 0.0),
        "probe.probes": m["probes_executed"],
        "probe.comparisons": m["comparisons"],
        "probe.hit_ratio": (
            counts.get("probe.matches", 0.0) / m["comparisons"] if m["comparisons"] else 0.0
        ),
        "store.insert_s": sum(fn.get(k, 0.0) for k in inserts),
        "store.evict_s": sum(fn.get(k, 0.0) for k in evicts),
        "store.inserts": sum(calls.get(k, 0.0) for k in inserts),
        "store.peak_stored_units": m["peak_stored_units"],
        "materialize.self_s": layer.get("materialize", 0.0),
        "materialize.merges": merges,
        "materialize.merges_per_result": (
            merges / m["results_emitted"] if m["results_emitted"] else 0.0
        ),
        "emit.self_s": layer.get("emit", 0.0),
        "emit.results": m["results_emitted"],
        "plan.self_s": layer.get("plan", 0.0) - fn.get("solve_model", 0.0),
        "plan.solve_s": fn.get("solve_model", 0.0),
        "plan.solves": calls.get("solve_model", 0.0),
        "rewire.self_s": layer.get("rewire", 0.0),
        "rewire.rewires": m["rewires"],
        "rewire.preserved_tuples": m["preserved_tuples"],
        "rewire.backfilled_tuples": m["backfilled_tuples"],
        "rewire.migrated_tuples": m["migrated_tuples"],
        "adaptivity.self_s": layer.get("adaptivity", 0.0),
        "adaptivity.decisions": m["decisions"],
        "snapshot.bytes": float(statistics.median(snapshot_bytes)),
    }


def layer_metrics(
    workload: Workload, trials: List[Trial], tracer: tracing.Tracer
) -> Dict[str, float]:
    """Per-layer metrics: median over the traced trials of each trial's value."""
    rows = [
        layer_row(t.layers, tracer.layer_of, t.metrics, t.snapshot_bytes)
        for t in trials
        if t.traced
    ]
    out = {key: float(statistics.median(row[key] for row in rows)) for key in rows[0]}
    plain_rate = statistics.median(t.push_per_s for t in trials if not t.traced)
    traced_rate = statistics.median(t.push_per_s for t in trials if t.traced)
    out.update(
        {
            # the ingress layer exists only on service-tcp
            "ingress.self_s": 0.0,
            "ingress.queue_high_water": 0.0,
            "ingress.pauses": 0.0,
            "ingress.generator_lag_ms": 0.0,
            "ingress.p50_ms": 0.0,
            "ingress.p99_ms": 0.0,
            "ipc.worker_rss_mb": (
                peak_rss_mb(resource.RUSAGE_CHILDREN) if workload.workers > 1 else 0.0
            ),
            "trace.coverage": tracer.coverage,
            "trace.overhead": 1.0 - traced_rate / plain_rate,
        }
    )
    return out
