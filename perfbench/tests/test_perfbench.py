"""Small-scale checks of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import run as cli  # noqa: E402
from perfbench import oracle, refclock, service, spec, workloads  # noqa: E402
from perfbench.feeds import make_feed, position_of  # noqa: E402

SPEC = spec.load()

#: tiny versions of the workloads: same code paths, a second or two each
TINY = {
    "chain-selective": dict(fill=400, trial_pushes=600, verify_prefix=300, chunk=200),
    "chain-fanout": dict(fill=400, trial_pushes=300, verify_prefix=300, chunk=100),
    "service-tcp": dict(fill=300, verify_prefix=300, chunk=200),
    "churn-sharded": dict(fill=400, trial_pushes=12 * 40, verify_prefix=480, chunk=40),
}


def tiny(name: str) -> spec.Workload:
    return dataclasses.replace(SPEC.workloads[name], **TINY[name])


def run_tiny(name, tmp_path, trace=False, **kwargs):
    workload = tiny(name)
    runner = service.run if workload.kind == "service" else workloads.run
    seconds = 0.4 if workload.kind == "service" else 0.05
    return runner(workload, 7, seconds, trace, str(tmp_path), **kwargs)


@pytest.mark.parametrize("name", cli.workload_names())
def test_every_workload_runs(name, tmp_path):
    outcome, _ = run_tiny(name, tmp_path)
    assert outcome.correct, outcome.problems
    assert outcome.failed == 0 and outcome.attempted > 0
    for metric in SPEC.end_to_end:
        assert outcome.metrics[metric.name] > 0, metric.name


def test_metric_names_are_unique_and_well_formed():
    names = [m.name for m in SPEC.end_to_end + SPEC.per_layer]
    assert all(spec.NAME_RE.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC.end_to_end if m.name == "setup_s")
    assert max(m.bound for m in SPEC.end_to_end) == setup.bound


def test_hash_oracle_matches_the_brute_force_oracle_across_evictions():
    # a half-second window over 0.9 s of event time: the brute-force check
    # of JoinSession.verify covers evicting windows here
    workload = dataclasses.replace(
        SPEC.workloads["chain-fanout"], window=0.5, domain=60, verify_prefix=900
    )
    feed = make_feed(workload, 3, workload.verify_prefix)
    pos = position_of(feed)
    ok, description, expected = workloads.verify_prefix(workload, feed, pos)
    assert ok, description
    index = oracle.result_index(
        spec.CHAIN_QUERIES, feed, pos, workload.window, workloads.DIGEST_SAMPLE
    )
    assert oracle.signature(index, len(feed), keep_empty=False) == expected
    assert all(count > 100 for count, _ in expected.values()), expected


def test_trace_covers_the_timed_region(tmp_path):
    outcome, tracer = run_tiny("chain-selective", tmp_path, trace=True)
    assert outcome.correct, outcome.problems
    assert outcome.metrics["trace.coverage"] >= 0.95
    for metric in SPEC.per_layer:
        assert metric.name in outcome.metrics, metric.name
    # probe_batch is resolved in repro.engine.runtime: spans must land there
    assert outcome.metrics["probe.self_s"] > 0
    assert tracer.calls["runtime.probe_batch"] > 0
    assert outcome.metrics["materialize.merges"] > 0


def test_reference_time_divides_out_the_machine_speed(monkeypatch):
    # a machine at half the reference speed: the kernel takes twice as long
    # before and after, so a 0.5 s operation counts as 0.25 reference seconds
    monkeypatch.setattr(refclock, "kernel", lambda: 2 * refclock.REF_KERNEL_S)
    clock = refclock.RefClock()
    monkeypatch.setattr(workloads.time, "perf_counter", iter([10.0, 10.5]).__next__)
    seconds, result = workloads.timed(clock, lambda: "done")
    assert result == "done"
    assert seconds == pytest.approx(0.25)


def test_the_kernel_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    refclock.kernel()
    assert gc.isenabled()
    gc.disable()
    try:
        refclock.kernel()
        assert not gc.isenabled()
    finally:
        gc.enable()


class _PlantedLog(workloads.ResultLog):
    """Reports one wrong result combination in the second trial."""

    def __init__(self, *args, trial):
        super().__init__(*args)
        self.trial = trial
        self.planted = False

    def digest_of(self, result):
        h = super().digest_of(result)
        if self.trial == 1 and not self.planted:
            self.planted = True
            h += 1
        return h


def test_planted_wrong_result_trips_the_digest_check(tmp_path):
    def make_log(pos, stamps, timed_from, prefix, trial):
        return _PlantedLog(pos, stamps, timed_from, prefix, trial=trial)

    outcome, _ = run_tiny("chain-fanout", tmp_path, make_log=make_log)
    assert not outcome.correct
    assert any("differ from trial 0" in p for p in outcome.problems)
    assert any("hash-join oracle" in p for p in outcome.problems)
    assert outcome.failed == outcome.attempted


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-selective",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_flood_that_runs_out_of_frames_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(service, "FLOOD_RATE", 100)
    outcome, _ = run_tiny("service-tcp", tmp_path)
    assert not outcome.correct
    assert any("raise FLOOD_RATE" in p for p in outcome.problems)
