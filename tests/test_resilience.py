"""Unit lane for :mod:`repro.api.resilience` (no sockets, no skips).

Clock-injected throughout: deadlines advance via a fake monotonic
clock, and retry sleeps are recorded, not slept — the whole lane is
deterministic and fast.
"""

from __future__ import annotations

import pytest

from repro.api.resilience import (
    FAILING,
    HEALTHY,
    Deadline,
    DeadlineExceeded,
    HealthMonitor,
    RetryPolicy,
    call_with_retries,
)


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FixedRandom:
    """A 'random' source pinned to one value in [0, 1)."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.1, multiplier=2.0,
            max_delay=0.5, jitter=0.0,
        )
        delays = [policy.delay(a) for a in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_spreads_symmetrically_and_stays_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.25, max_delay=10.0)
        assert policy.delay(0, rng=FixedRandom(0.0)) == pytest.approx(0.75)
        assert policy.delay(0, rng=FixedRandom(0.5)) == pytest.approx(1.0)
        # upper edge: (1 - j) + 2j * u for u -> 1 approaches 1 + j
        assert policy.delay(0, rng=FixedRandom(1.0)) == pytest.approx(1.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1)


class TestDeadline:
    def test_unbounded(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.require("anything")  # never raises

    def test_countdown_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="2.0s deadline"):
            deadline.require("the request")


class TestCallWithRetries:
    def test_returns_first_success_without_sleeping(self):
        sleeps: list[float] = []
        result = call_with_retries(
            lambda: 42,
            RetryPolicy(max_attempts=3),
            sleep=sleeps.append,
        )
        assert result == 42
        assert sleeps == []

    def test_retries_only_retryable_and_reraises_last(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            raise OSError(f"boom {calls['n']}")

        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)
        with pytest.raises(OSError, match="boom 3"):
            call_with_retries(flaky, policy, sleep=sleeps.append)
        assert calls["n"] == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_non_retryable_errors_propagate_immediately(self):
        calls = {"n": 0}

        def typo():
            calls["n"] += 1
            raise ValueError("bad spec")

        with pytest.raises(ValueError, match="bad spec"):
            call_with_retries(
                typo, RetryPolicy(max_attempts=5), retryable=(OSError,),
                sleep=lambda s: None,
            )
        assert calls["n"] == 1

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def eventually():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        assert (
            call_with_retries(
                eventually,
                RetryPolicy(max_attempts=5, jitter=0.0),
                sleep=lambda s: None,
            )
            == "ok"
        )
        assert calls["n"] == 3

    def test_deadline_converts_exhaustion_to_deadline_exceeded(self):
        clock = FakeClock()

        def failing():
            clock.advance(3.0)  # each attempt burns wall-clock
            raise OSError("slow failure")

        deadline = Deadline(5.0, clock=clock)
        with pytest.raises(DeadlineExceeded, match="5.0s deadline"):
            call_with_retries(
                failing,
                RetryPolicy(max_attempts=10, jitter=0.0),
                sleep=lambda s: None,
                deadline=deadline,
            )


class TestHealthMonitor:
    def test_one_failure_state_and_back(self):
        monitor = HealthMonitor(["a"])
        assert monitor.state("a") == HEALTHY
        monitor.record_failure("a", OSError("refused"))
        assert monitor.state("a") == FAILING
        monitor.record_failure("a")
        assert monitor.state("a") == FAILING
        status = monitor.status()["a"]
        assert status["consecutive_failures"] == 2
        assert status["transitions"] == 1
        assert "OSError: refused" in status["last_error"]
        monitor.record_success("a")
        assert monitor.state("a") == HEALTHY
        assert monitor.status()["a"]["consecutive_failures"] == 0
        assert monitor.status()["a"]["last_error"] is None

    def test_ranked_puts_live_replicas_first_and_is_stable(self):
        monitor = HealthMonitor(["a", "b", "c", "d"])
        for _ in range(2):
            monitor.record_failure("a")
        monitor.record_failure("c")
        ranked = monitor.ranked(["a", "b", "c", "d"])
        # healthy in listing order, then failing in listing order: a
        # longer failure streak does not push an endpoint further back
        assert ranked == ["b", "d", "a", "c"]


class TestRetryDeterminism:
    def test_seeded_rng_reproduces_the_jittered_schedule(self):
        """The PR-8 satellite: every backoff consumer threads an
        injectable rng through to ``RetryPolicy.delay``, so a seeded
        run's sleep schedule replays exactly."""
        import random

        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, jitter=0.5
        )

        def schedule(seed: int) -> list[float]:
            sleeps: list[float] = []
            attempts = {"n": 0}

            def flaky():
                attempts["n"] += 1
                if attempts["n"] < 5:
                    raise OSError("transient")
                return "ok"

            result = call_with_retries(
                flaky,
                policy,
                rng=random.Random(seed),
                sleep=sleeps.append,
            )
            assert result == "ok"
            return sleeps

        first, second = schedule(7), schedule(7)
        assert first == second
        assert len(first) == 4
        assert schedule(8) != first  # the jitter really draws
