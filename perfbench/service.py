"""service-tcp: chain-selective's queries and feed behind a ``JoinServer``.

The server runs in a child process (started with ``spawn``); this process is
the load generator and drives one NDJSON-TCP connection from one thread.
Every push frame carries an ``id``, so the server acks each push once it has
drained into the session.

A run is a few *rounds*, each on a fresh server session: set-up (timed until
the first push is acked) and probe replans, an untimed credit-gated fill of
the windows, checkpoint/restore pairs of the filled session, then

* phase 1, an *open loop* at ``open_rate`` push/s, well below capacity:
  sends follow a fixed schedule that does not slow when the server does,
  latency counts from each push's due time, and the generator reports how
  late it ran;
* phase 2, a *flood* of credit-gated bursts that keep the ingress queue
  saturated: the server's drain rate is ``push_per_s``.  Each burst ends
  when its last push is acked; the generator then calibrates its reference
  clock (:mod:`perfbench.refclock`) while the server is idle.  The first
  burst of a round is a warm-up and is not measured.

Every end-to-end metric is a median over the rounds, as the in-process
workloads take medians over trials.  The child hosts the session, so it
measures result latency, peak memory, snapshots and replans, and (traced)
the per-layer split; it regenerates the feed from the seed to map results
back to their pushes.  Each round's results must equal the hash-join
oracle's over exactly the pushes it was sent.
"""

from __future__ import annotations

import asyncio
import gc
import json
import multiprocessing
import os
from multiprocessing import resource_tracker
import resource
import select
import socket
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from . import oracle
from . import refclock
from . import tracer as tracing
from .feeds import make_feed, position_of
from .spec import CHAIN_QUERIES, Workload
from .workloads import (
    DIGEST_SAMPLE,
    MIN_SETUPS,
    REPLAN_PAIRS,
    Outcome,
    ResultLog,
    by_position,
    kernel_quartiles,
    layer_row,
    metric_counts,
    new_session,
    percentile,
    probe_replans,
    segment_percentiles,
    snapshot_pair,
    verify_prefix,
)

#: the flood's frames last this many push/s until its deadline, about 3.5
#: times the fastest drain seen on a 2-vCPU machine (17k push/s); a flood
#: that runs out of frames earlier fails the run rather than quietly
#: measuring a shorter window
FLOOD_RATE = 60_000
#: frames per write during a burst
FLOOD_CHUNK = 32
#: unacked pushes a burst keeps in flight: enough to hold the server's
#: ingress queue full, few enough that the flood ends when its time is up
#: (the server's line reader would otherwise buffer megabytes of frames)
MAX_IN_FLIGHT = 1024
#: bound on any wait for acks or the child (seconds)
WAIT_S = 60.0


# ----------------------------------------------------------------------
# server child
# ----------------------------------------------------------------------
def server_main(
    conn: Any, workload: Workload, seed: int, n_feed: int, flood_from: int, workdir: str
) -> None:
    """Entry point of the server child; commands arrive on ``conn``."""
    asyncio.run(_serve(conn, workload, seed, n_feed, flood_from, workdir))


async def _recv(conn: Any) -> Any:
    loop = asyncio.get_running_loop()
    ready = loop.create_future()
    fd = conn.fileno()
    loop.add_reader(fd, lambda: ready.done() or ready.set_result(None))
    try:
        await ready
    finally:
        loop.remove_reader(fd)
    return conn.recv()


class _PushClock:
    """Per-push start stamps and the phase-2 window, via an instance-level
    wrapper around the session's ``push`` (the server's only call into it)."""

    def __init__(self, session: Any, pos: Dict[float, int], stamps: List[float],
                 flood_from: int, tracer: Optional[tracing.Tracer]) -> None:
        self.flood_wall = self.flood_cpu = self.flood_self = 0.0
        self.last_end = self.cpu_end = 0.0
        self.pushed = 0
        original = session.push
        clock = time.perf_counter
        cpu = time.process_time

        def push(relation: str, values: Any, ts: float, on_late: Optional[str] = None) -> Any:
            i = pos[ts]
            stamps[i] = now = clock()
            if i == flood_from:
                self.flood_wall = now
                self.flood_cpu = cpu()
                self.flood_self = sum(tracer.self_s.values()) if tracer else 0.0
            result = original(relation, values, ts, on_late)
            self.last_end = clock()
            if tracer is not None:
                self.cpu_end = cpu()
            self.pushed += 1
            return result

        session.push = push


async def _serve(conn: Any, workload: Workload, seed: int, n_feed: int,
                 flood_from: int, workdir: str) -> None:
    from repro.service import JoinServer

    feed = make_feed(workload, seed, n_feed)
    pos = position_of(feed)
    del feed
    ref = refclock.RefClock()
    while True:
        msg = await _recv(conn)
        if msg[0] == "exit":
            return
        traced = msg[1]
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracing.install_layers(tracer)
            tracer.enabled = True
        stamps = [0.0] * n_feed
        log = ResultLog(pos, stamps, workload.fill, workload.verify_prefix)
        emit = tracing.emit_wrapper(tracer)
        gc.collect()
        start = time.perf_counter()
        session = new_session(workload)
        for name in CHAIN_QUERIES:
            session.subscribe(name, emit(log.subscriber(name)))
        clock = _PushClock(session, pos, stamps, flood_from, tracer)
        server = JoinServer(session, queue_depth=workload.queue_depth)
        await server.start()
        conn.send(("ready", server.port, start))
        replans: List[float] = []
        snapshots: List[Tuple[float, float, int]] = []
        while True:
            msg = await _recv(conn)
            if msg[0] == "probe":
                replans = probe_replans(ref, session, REPLAN_PAIRS)
                conn.send(("probed",))
            elif msg[0] == "snapshot":
                path = os.path.join(workdir, f"snapshot-{os.getpid()}.bin")
                snapshots = [snapshot_pair(ref, session, path) for _ in range(msg[1])]
                conn.send(("snapshotted",))
            else:
                break
        if msg[0] == "discard":
            await server.stop()
            if tracer is not None:
                tracer.restore()
            conn.send(("discarded", replans))
            continue
        await server.drain()
        report: Dict[str, Any] = {
            "pushed": clock.pushed,
            "ingested": server.ingested,
            "errors": list(server.errors),
            "flood_pushes": clock.pushed - flood_from,
            "queue_high_water": server.queue_high_water,
            "pauses": server.pauses_sent,
        }
        if tracer is not None:
            window_self = sum(tracer.self_s.values()) - clock.flood_self
            busy = clock.cpu_end - clock.flood_cpu
            report["ingress_self_s"] = busy - window_self
            report["busy_s"] = busy
        session.flush()
        report["signature"] = log.signature()
        report["prefix_signature"] = log.prefix_signature()
        report["latencies"] = [pair for pair in log.latencies if pair[0] >= flood_from]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["replans"] = replans
        report["checkpoints"] = [p[0] for p in snapshots]
        report["restores"] = [p[1] for p in snapshots]
        report["snapshot_bytes"] = [p[2] for p in snapshots]
        report["metrics"] = metric_counts(session.metrics)
        await server.stop()
        if tracer is not None:
            tracer.restore()
            report["spans"] = tracer.snapshot()
            report["layer_of"] = dict(tracer.layer_of)
            trace_file = f"{workload.name}-seed{seed}.json"
            tracer.dump(
                os.path.join(os.path.dirname(workdir), "traces", trace_file),
                {"workload": workload.name, "seed": seed, "process": "server"},
            )
        conn.send(("report", report))


# ----------------------------------------------------------------------
# generator (this process)
# ----------------------------------------------------------------------
class Generator:
    """One TCP connection driven from one thread: acks and credit frames
    are read whenever the generator waits, so no second thread competes
    with the sender for the interpreter lock."""

    def __init__(self, address: Tuple[str, int], frames: List[bytes]) -> None:
        self.frames = frames
        self.ack_at = [0.0] * len(frames)
        self.acked = 0
        self.pauses = 0
        self.paused = False
        self.errors: List[Any] = []
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.pending = b""

    def read(self, timeout: float) -> bool:
        """Handle the frames that arrive within ``timeout`` seconds (0: the
        ones already here); whether any did."""
        if timeout and not select.select([self.sock], [], [], timeout)[0]:
            return False
        try:
            data = self.sock.recv(1 << 16, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        now = time.perf_counter()
        if not data:
            raise ConnectionError("the server closed the connection")
        *lines, self.pending = (self.pending + data).split(b"\n")
        for line in lines:
            frame = json.loads(line)
            kind = frame.get("kind")
            if kind == "ok":
                self.ack_at[frame["id"]] = now
                self.acked += 1
            elif kind == "pause":
                self.pauses += 1
                self.paused = True
            elif kind == "resume":
                self.paused = False
            else:
                self.errors.append(frame)
                self.paused = False
        return True

    def flood(self, lo: int, hi: int) -> None:
        """Send frames ``lo..hi`` as fast as credit allows, keeping at most
        ``MAX_IN_FLIGHT`` pushes unacked."""
        frames, sendall = self.frames, self.sock.sendall
        i = lo
        while i < hi:
            self.read(0)
            if self.paused or i - self.acked >= MAX_IN_FLIGHT:
                if not self.read(WAIT_S):
                    raise TimeoutError("the server sent nothing while the flood waited")
                continue
            j = min(i + FLOOD_CHUNK, hi)
            sendall(b"".join(frames[i:j]))
            i = j

    def open_loop(self, lo: int, hi: int, rate: float) -> Tuple[List[float], List[float]]:
        """Send frames ``lo..hi`` on a fixed schedule; (due, sent) times."""
        frames, sendall, clock = self.frames, self.sock.sendall, time.perf_counter
        n = hi - lo
        first = clock() + 0.01
        due = [first + k / rate for k in range(n)]
        sent = [0.0] * n
        k = 0
        while k < n:
            now = clock()
            if now < due[k]:
                self.read(due[k] - now)
                continue
            j = k + 1
            while j < n and due[j] <= now:
                j += 1
            sendall(b"".join(frames[lo + k : lo + j]))
            done = clock()
            for x in range(k, j):
                sent[x] = done
            k = j
        return due, sent

    def wait_acked(self, count: int) -> bool:
        deadline = time.perf_counter() + WAIT_S
        while self.acked < count and not self.errors:
            if time.perf_counter() > deadline:
                return False
            self.read(0.01)
        return self.acked >= count

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _frames(feed: List[Tuple[str, Dict[str, int], float]]) -> List[bytes]:
    return [
        json.dumps({"op": "push", "id": i, "relation": r, "values": v, "ts": ts}).encode() + b"\n"
        for i, (r, v, ts) in enumerate(feed)
    ]


def _expect(conn: Any, kind: str) -> Any:
    if not conn.poll(WAIT_S):
        raise TimeoutError(f"server child sent no {kind!r}")
    msg = conn.recv()
    if msg[0] != kind:
        raise RuntimeError(f"server child sent {msg[0]!r}, expected {kind!r}")
    return msg


def _setup(
    conn: Any, frames: List[bytes], traced: bool, clock: refclock.RefClock
) -> Tuple[Generator, float]:
    """Build a server + session in the child; time it to the first ack (in
    reference seconds), then have the child time the probe replans on the
    fresh session."""
    clock.rebase()
    conn.send(("setup", traced))
    _, port, start = _expect(conn, "ready")
    gen = Generator(("127.0.0.1", port), frames)
    gen.flood(0, 1)
    if not gen.wait_acked(1):
        raise TimeoutError("first push was never acked")
    setup_s = (gen.ack_at[0] - start) * clock.factor()
    conn.send(("probe",))
    _expect(conn, "probed")
    return gen, setup_s


def _round(conn: Any, workload: Workload, frames: List[bytes], n_open: int,
           flood_s: float, traced: bool, clock: refclock.RefClock,
           out: Outcome) -> Dict[str, Any]:
    """One measured round on a fresh server session."""
    fill = workload.fill
    gen, setup_s = _setup(conn, frames, traced, clock)
    #: (first push, end push, reference factor) of each burst
    bursts: List[Tuple[int, int, float]] = []
    rates: List[float] = []
    flood_wall = 0.0
    exhausted = False
    try:
        gen.flood(1, fill)
        lost = not gen.wait_acked(fill)
        # snapshots of the filled state, while the generator waits
        conn.send(("snapshot", workload.snapshots))
        _expect(conn, "snapshotted")
        due, sent = gen.open_loop(fill, fill + n_open, workload.open_rate)
        lost = not gen.wait_acked(fill + n_open) or lost
        end = fill + n_open
        deadline = time.perf_counter() + flood_s
        clock.rebase()
        while time.perf_counter() < deadline:
            if end + workload.chunk > len(frames):
                exhausted = True
                break
            start = time.perf_counter()
            gen.flood(end, end + workload.chunk)
            lost = not gen.wait_acked(end + workload.chunk) or lost
            wall = gen.ack_at[end + workload.chunk - 1] - start
            factor = clock.factor()
            flood_wall += wall
            if end > fill + n_open:  # the first burst of a round warms up
                bursts.append((end, end + workload.chunk, factor))
                rates.append(workload.chunk / (wall * factor))
            end += workload.chunk
    finally:
        gen.close()
    conn.send(("report",))
    _, report = _expect(conn, "report")
    out.attempted += end + 1 + len(report["replans"]) + 2 * workload.snapshots
    if lost or report["pushed"] != end:
        out.failed += end - min(gen.acked, report["pushed"])
        out.problems.append(f"{end} pushes sent, {gen.acked} acked, {report['pushed']} pushed")
    if gen.errors or report["errors"]:
        out.failed += len(gen.errors) + len(report["errors"])
        out.problems.append(f"server errors: {(gen.errors + report['errors'])[:3]}")
    if exhausted:
        out.problems.append(
            f"the flood used all {len(frames) - fill - n_open} frames before its "
            f"{flood_s:g} s deadline; raise FLOOD_RATE above {FLOOD_RATE} push/s"
        )
    ingress = [gen.ack_at[fill + k] - due[k] for k in range(n_open)]
    p50s, p99s = segment_percentiles(report.pop("latencies"), bursts)
    report.update(
        {
            "setup_s": setup_s,
            "sent": end,
            "burst_push_per_s": rates,
            "flood_wall_s": flood_wall,
            "ingress_p50": percentile(ingress, 50),
            "ingress_p99": percentile(ingress, 99),
            "lag_p99": percentile([sent[k] - due[k] for k in range(n_open)], 99),
            "result_p50s": p50s,
            "result_p99s": p99s,
        }
    )
    return report


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: str) -> Tuple[Outcome, None]:
    """Set-ups, then ``workload.rounds`` measured rounds (untraced and
    traced ones alternating with ``trace``); the child writes its own trace
    file."""
    out = Outcome()
    kinds = [False, True] if trace else [False]
    schedule = [traced for _ in range(workload.rounds) for traced in kinds]
    # each round gets its share of the time: a quarter for the open loop,
    # the rest for the flood
    per_round = seconds / len(schedule)
    n_open = int(workload.open_rate * per_round / 4)
    flood_s = 3 * per_round / 4
    flood_from = workload.fill + n_open
    n_feed = flood_from + int(FLOOD_RATE * flood_s)
    feed = make_feed(workload, seed, n_feed)
    pos = position_of(feed)
    frames = _frames(feed)

    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=server_main,
        args=(child, workload, seed, n_feed, flood_from, workdir),
        name="perfbench-server",
        daemon=True,
    )
    proc.start()
    child.close()
    reports: List[Dict[str, Any]] = []
    setups: List[float] = []
    replans: List[List[float]] = []
    clock = refclock.RefClock()
    try:
        for _ in range(MIN_SETUPS - workload.rounds):
            gen, setup_s = _setup(parent, frames, False, clock)
            gen.close()
            parent.send(("discard",))
            probed = _expect(parent, "discarded")[1]
            replans.append(probed)
            setups.append(setup_s)
            out.attempted += 1 + len(probed)
        for traced in schedule:
            report = _round(parent, workload, frames, n_open, flood_s, traced, clock, out)
            reports.append(report)
            if not traced:
                setups.append(report["setup_s"])
                replans.append(report["replans"])
        parent.send(("exit",))
        proc.join(WAIT_S)
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(WAIT_S)
        parent.close()
        # starting a spawn child also started multiprocessing's resource
        # tracker; stop and reap it too, so no helper outlives the run
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    plain = [r for r, traced in zip(reports, schedule) if not traced]
    if not all(r["burst_push_per_s"] for r in reports):
        out.problems.append("a round measured no flood burst")
        out.failed = out.attempted
        return out, None

    def median(key: str) -> float:
        return float(statistics.median(r[key] for r in plain))

    def pooled(key: str) -> float:
        return float(statistics.median(x for r in plain for x in r[key]))

    out.metrics.update(
        {
            "setup_s": statistics.median(setups),
            "push_per_s": pooled("burst_push_per_s"),
            "result_p50_us": 1e6 * pooled("result_p50s"),
            "peak_rss_mb": plain[-1]["peak_rss_mb"],
            "replan_ms": 1e3 * statistics.fmean(by_position(replans)),
            "checkpoint_ms": 1e3 * pooled("checkpoints"),
            "restore_ms": 1e3 * pooled("restores"),
        }
    )
    # the open loop's latency and the result tail: reported, and per-layer
    # metrics of the traced run, but too unsteady across runs on a shared
    # machine to be gated
    tails = {
        "ingress.p50_ms": 1e3 * median("ingress_p50"),
        "ingress.p99_ms": 1e3 * median("ingress_p99"),
        "emit.result_p99_us": 1e6 * pooled("result_p99s"),
    }
    out.report.update(tails)
    out.report.update(
        {
            "rounds": len(plain),
            "open_loop_pushes_per_round": n_open,
            "burst_push_per_s": [[round(x) for x in r["burst_push_per_s"]] for r in plain],
            "round_ingress_p99_ms": [round(1e3 * r["ingress_p99"], 3) for r in plain],
            "generator_lag_p99_ms": 1e3 * median("lag_p99"),
            "flood_pushes": [r["flood_pushes"] for r in plain],
            "kernel_ms": kernel_quartiles(clock.kernel_s),
            "queue_high_water": max(r["queue_high_water"] for r in plain),
            "pauses": [r["pauses"] for r in plain],
            "snapshots_per_run": sum(len(r["checkpoints"]) for r in plain),
            "replans_per_run": sum(len(r) for r in replans),
        }
    )

    # every round's results equal the hash-join oracle's over the pushes
    # it was sent; the verified prefix is the brute-force oracle's
    ok, description, prefix_signature = verify_prefix(workload, feed, pos)
    out.attempted += len(prefix_signature)
    if not ok:
        out.problems.append(
            f"oracle mismatch on the first {workload.verify_prefix} pushes: "
            f"{description}"
        )
    index = oracle.result_index(CHAIN_QUERIES, feed, pos, workload.window, DIGEST_SAMPLE)
    for number, report in enumerate(reports):
        expected = oracle.signature(index, report["sent"])
        if report["signature"] != expected:
            out.problems.append(
                f"round {number}: server results {report['signature']} differ "
                f"from the hash-join oracle over the same {report['sent']} pushes {expected}"
            )
        if report["prefix_signature"] != prefix_signature:
            out.problems.append(
                f"round {number}: server results on the verified prefix differ: "
                f"{report['prefix_signature']} != {prefix_signature}"
            )
    if trace:
        rows = [
            _layer_metrics(r, out.metrics["push_per_s"])
            for r, traced in zip(reports, schedule)
            if traced
        ]
        out.metrics.update(
            {key: float(statistics.median(row[key] for row in rows)) for key in rows[0]}
        )
        out.metrics.update(tails)
    if out.problems:
        out.failed = out.attempted
    return out, None


def _layer_metrics(traced: Dict[str, Any], plain_rate: float) -> Dict[str, float]:
    out = layer_row(
        traced["spans"], traced["layer_of"], traced["metrics"], traced["snapshot_bytes"]
    )
    out.update(
        {
            "ingress.self_s": traced["ingress_self_s"],
            "ingress.queue_high_water": float(traced["queue_high_water"]),
            "ingress.pauses": float(traced["pauses"]),
            "ingress.generator_lag_ms": 1e3 * traced["lag_p99"],
            "ipc.worker_rss_mb": 0.0,
            # busy time of the server process over the wall time of the bursts
            "trace.coverage": traced["busy_s"] / traced["flood_wall_s"],
            "trace.overhead": (
                1.0 - statistics.median(traced["burst_push_per_s"]) / plain_rate
            ),
        }
    )
    return out
