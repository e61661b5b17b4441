"""Lateness ladder: allowed-lateness admission and dead-letter side-output.

The ladder (docs/service.md): in watermark mode a push may lag its
stream's high water by ``disorder_bound`` D for free; ``allowed_lateness``
L grants a grace band (D, D+L] whose tuples are *admitted late* — the
engine's eviction watermark is held back by L so their join partners are
still stored — and everything beyond D+L hits the ``on_late`` policy,
including the new ``"dead_letter"`` routing.  Dead-lettered tuples are
invisible to results, statistics, and the history, so ``verify()``
checks the session against the oracle restricted to exactly the
admitted tuples.
"""

import pytest

from repro import JoinSession, LateTupleError
from repro.streams.adapters import replay
from repro.streams.generators import (
    StreamSpec,
    bounded_delay_feed,
    generate_streams,
    uniform_domain,
)


def ladder_session(on_late="dead_letter", **kwargs):
    kwargs.setdefault("window", 10.0)
    kwargs.setdefault("disorder_bound", 1.0)
    kwargs.setdefault("allowed_lateness", 2.0)
    session = JoinSession(on_late=on_late, **kwargs)
    return session.add_query("q1", "R.a=S.a")


class TestLadderClassification:
    def test_lag_within_disorder_bound_is_not_late(self):
        session = ladder_session()
        session.push("R", {"a": 1}, ts=2.0)
        session.push("R", {"a": 1}, ts=1.5)  # lag 0.5 <= D
        m = session.metrics
        assert m.late_admitted == 0 and m.dead_lettered == 0

    def test_lag_in_grace_band_is_admitted_and_joined(self):
        session = ladder_session()
        session.push("R", {"a": 1}, ts=5.0)
        session.push("S", {"a": 1}, ts=5.0)
        session.push("R", {"a": 1}, ts=3.0)  # lag 2.0 ∈ (D, D+L]
        m = session.metrics
        assert m.late_admitted == 1 and m.dead_lettered == 0
        # the admitted straggler still joined: an R@3.0 ⋈ S@5.0 result
        # exists only if the engine accepted it past the D bound
        results = session.results("q1")
        assert any(r.timestamps["R"] == 3.0 for r in results)
        assert session.verify().ok

    def test_lag_beyond_grace_is_dead_lettered(self):
        session = ladder_session()
        collected = []
        session.on_dead_letter(collected.append)
        session.push("R", {"a": 1}, ts=5.0)
        session.push("S", {"a": 1}, ts=5.0)
        session.push("R", {"a": 1}, ts=1.5)  # lag 3.5 > D+L
        m = session.metrics
        assert m.dead_lettered == 1 and m.late_admitted == 0
        assert [(t.trigger, t.trigger_ts) for t in session.dead_letters()] == [
            ("R", 1.5)
        ]
        assert [(t.trigger, t.trigger_ts) for t in collected] == [("R", 1.5)]
        # invisible to results and the oracle (the on-time join remains)
        assert all(
            r.timestamps["R"] != 1.5 for r in session.results("q1")
        )
        assert session.verify().ok

    def test_policy_ladder_raise_and_drop_still_apply_beyond_grace(self):
        session = ladder_session(on_late="raise")
        session.push("R", {"a": 1}, ts=5.0)
        with pytest.raises(LateTupleError):
            session.push("R", {"a": 1}, ts=1.5)
        # per-push override onto the dead-letter branch
        session.push("R", {"a": 1}, ts=1.5, on_late="dead_letter")
        assert session.metrics.dead_lettered == 1
        session.push("R", {"a": 1}, ts=1.5, on_late="drop")
        assert session.metrics.late_dropped == 1

    def test_dead_letter_during_warmup_folds_into_metrics(self):
        session = JoinSession(
            window=10.0,
            disorder_bound=0.5,
            allowed_lateness=0.5,
            on_late="dead_letter",
            warmup=10,
        ).add_query("q1", "R.a=S.a")
        session.push("R", {"a": 1}, ts=5.0)
        session.push("R", {"a": 1}, ts=1.0)  # lag 4.0 > D+L, mid-warmup
        assert session.metrics is None  # still buffering
        assert len(session.dead_letters()) == 1
        for i in range(10):
            session.push("S", {"a": 1}, ts=5.0 + i * 0.1)
        assert session.metrics.dead_lettered == 1
        assert session.verify().ok


class TestLadderValidation:
    def test_allowed_lateness_requires_watermark_mode(self):
        with pytest.raises(ValueError, match="watermark mode"):
            JoinSession(allowed_lateness=1.0)

    def test_allowed_lateness_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            JoinSession(disorder_bound=1.0, allowed_lateness=-0.5)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="dead_letter"):
            JoinSession(on_late="sidechannel")
        session = ladder_session()
        session.push("R", {"a": 1}, ts=1.0)
        with pytest.raises(ValueError, match="dead_letter"):
            session.push("R", {"a": 1}, ts=1.0, on_late="quarantine")


class TestDeadLetterParity:
    """Randomized end-to-end check of the acceptance criterion: the
    session verifies against the oracle restricted to admitted tuples,
    and the side-output contains exactly the beyond-lateness tuples."""

    @pytest.mark.parametrize("backend", ["python", "columnar"])
    def test_bounded_delay_feed_with_dead_letters(self, backend):
        bound, lateness = 0.6, 0.6
        specs = [
            StreamSpec("R", rate=8.0, attributes={"a": uniform_domain(4)}),
            StreamSpec(
                "S",
                rate=8.0,
                attributes={"a": uniform_domain(4), "b": uniform_domain(3)},
            ),
            StreamSpec("T", rate=8.0, attributes={"b": uniform_domain(3)}),
        ]
        streams, _ = generate_streams(specs, duration=12.0, seed=7)
        # shuffle harder than the ladder tolerates so some arrivals fall
        # beyond D+L and must be dead-lettered
        feed = list(bounded_delay_feed(streams, 2.5, seed=11))

        # simulate the ladder in feed order to derive the expected split
        high = {}
        expected_dead = []
        for tup in feed:
            prev = high.get(tup.trigger)
            if prev is not None and prev - tup.trigger_ts > bound + lateness:
                expected_dead.append(tup)
            else:
                high[tup.trigger] = max(prev, tup.trigger_ts) if prev else tup.trigger_ts
        assert expected_dead, "fixture must actually exercise the ladder"

        session = JoinSession(
            window=4.0,
            disorder_bound=bound,
            allowed_lateness=lateness,
            on_late="dead_letter",
            store_backend=backend,
        )
        session.add_query("q1", "R.a=S.a", "S.b=T.b")
        replay(session, feed, chunk=64)
        # exactly the beyond-lateness tuples, in arrival order
        assert [
            (t.trigger, t.trigger_ts) for t in session.dead_letters()
        ] == [(t.trigger, t.trigger_ts) for t in expected_dead]
        m = session.metrics
        assert m.dead_lettered == len(expected_dead)
        assert m.late_admitted > 0  # the grace band was used too
        # oracle restricted to admitted tuples: verify() sees only the
        # recorded history, which excludes every dead-lettered tuple
        assert session.verify().ok


class TestReregisteredStreamLateness:
    """A stream released by query expiry and re-added later resumes from
    the watermark floor the engine gives it at install, so grace-band
    stragglers on it are classified against that floor — not against the
    stale pre-removal high water — and counted in ``late_admitted``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grace_band_stragglers_on_readded_stream_are_counted(self, workers):
        session = (
            JoinSession(
                window=1.0,
                solver="scipy",
                disorder_bound=0.5,
                allowed_lateness=1.0,
                workers=workers,
                worker_transport="inline",
            )
            .add_query("q1", "R.a=S.a")
            .add_query("q2", "S.a=T.a")
        )
        with session:
            session.push("R", {"a": 1}, ts=0.0)
            session.remove_query("q1")  # R released at high water 0.0
            for i in range(40):
                session.push("S", {"a": 1}, ts=float(i))
                session.push("T", {"a": 1}, ts=float(i) + 0.25)
            session.add_query("q3", "R.a=S.a")  # R floored at 39.0
            before = session.metrics.late_admitted
            session.push("R", {"a": 1}, ts=38.0)  # lag 1.0 ∈ (D, D+L]
            session.push("R", {"a": 1}, ts=38.2)  # lag 0.8 ∈ (D, D+L]
            assert session.metrics.late_admitted - before == 2
            assert session.verify().ok
