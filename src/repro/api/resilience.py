"""Reusable resilience primitives for the serving tier.

Production OSDP serving lives or dies on operational reliability: a
release request must come back, degrade explicitly, or fail loudly —
never hang, and never charge the privacy accountant twice.  This
module is the transport-agnostic toolkit the client/cluster layers
build that behavior from:

* :class:`RetryPolicy` — bounded exponential backoff with jitter and an
  optional per-request **deadline**.  The deadline is a wall-clock
  budget for the whole logical request: every retry attempt deducts
  from it, the remaining budget rides the wire header (see
  :mod:`repro.service.rpc`), and a server refuses to start work — and
  charge budget — for a caller that has already given up.
* :class:`Deadline` — a monotonic-clock countdown shared by retry
  loops and socket timeouts.
* :func:`call_with_retries` — the one backoff loop.  The remote tier
  retries nowhere else: the TCP connect, ``RemoteBackend``'s exchange
  resends, the cluster's per-range failover sweep and its commit
  resends each hand one attempt to it.
* :class:`HealthMonitor` — per-endpoint healthy/failing tracking.  A
  failed call marks an endpoint failing, a successful one healthy
  again; :meth:`HealthMonitor.ranked` tries failing endpoints after
  healthy ones but never skips them.

None of these classes know about sockets or the wire format;
:class:`repro.api.backends.RemoteBackend` and
:class:`repro.api.cluster.ClusterBackend` wire them to the transport.
"""

from __future__ import annotations

import random as _random_module
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class DeadlineExceeded(RuntimeError):
    """A request's wall-clock budget ran out before it completed.

    Raised client-side when retries exhaust the deadline, and
    server-side (then re-raised across the wire) when a request
    arrives with its carried deadline already expired — serving it
    would spend privacy budget on a response nobody will read.
    """


class ServerOverloaded(RuntimeError):
    """An endpoint's admission gate refused the request (shed load).

    The retryable "come back later" signal of the serving tier: raised
    server-side when the bounded in-flight admission gate is full
    (:class:`repro.service.rpc.RpcServer` ``admission_limit``) and
    re-raised client-side from the wire.  ``retry_after`` is the
    server's hint, in seconds, for how long to back off before
    resending; retry loops (:func:`call_with_retries`,
    ``RemoteBackend``'s exchange retries) use it as a floor on their
    own backoff.  Unlike a transport failure, the exchange completed
    cleanly — the connection stays usable and nothing was charged.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class Deadline:
    """A monotonic countdown; ``seconds=None`` means no deadline."""

    def __init__(self, seconds: float | None, clock=time.monotonic):
        self._clock = clock
        self.total = seconds
        self._expires = None if seconds is None else clock() + seconds

    def remaining(self) -> float | None:
        """Seconds left (never negative); None when unbounded."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        return self._expires is not None and self._clock() >= self._expires

    def require(self, what: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"{what} exceeded its {self.total}s deadline"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter and an optional deadline.

    ``delay(attempt)`` for attempts 0, 1, 2, ... grows as
    ``base_delay * multiplier**attempt`` capped at ``max_delay``, then
    spread by ``jitter`` (a fraction: 0.25 means ±25%) so a fleet of
    retrying clients does not re-arrive in lockstep.  ``deadline`` is
    the whole logical request's wall-clock budget in seconds — not a
    per-attempt timeout.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def delay(self, attempt: int, rng=None) -> float:
        """The backoff before retry number ``attempt + 1``."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        if not self.jitter or base == 0.0:
            return base
        u = (rng or _random_module).random()
        return base * (1.0 - self.jitter + 2.0 * self.jitter * u)


def call_with_retries(
    fn: Callable,
    policy: RetryPolicy,
    retryable: tuple[type[BaseException], ...] = (OSError,),
    rng=None,
    sleep: Callable[[float], None] = time.sleep,
    describe: str = "call",
    deadline: Deadline | None = None,
):
    """Run ``fn`` under ``policy``; re-raise the last failure when spent.

    Only ``retryable`` exception types are retried — anything else
    propagates immediately (an application error will fail the same
    way on every attempt).  ``deadline`` may be passed in to share one
    countdown across several retried calls; by default the policy's
    own deadline (if any) starts now.  A retryable failure carrying a
    ``retry_after`` hint (:class:`ServerOverloaded`) floors the backoff
    at the server's ask — retrying sooner would just be refused again.
    """
    deadline = deadline or Deadline(policy.deadline)
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        if deadline.expired():
            break
        try:
            return fn()
        except retryable as exc:
            last = exc
            if attempt + 1 >= policy.max_attempts:
                break
            pause = policy.delay(attempt, rng)
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                pause = max(pause, float(hint))
            remaining = deadline.remaining()
            if remaining is not None:
                pause = min(pause, remaining)
            if pause > 0:
                sleep(pause)
    if deadline.expired():
        raise DeadlineExceeded(
            f"{describe} exceeded its {deadline.total}s deadline"
        ) from last
    assert last is not None
    raise last


# ----------------------------------------------------------------------
# Endpoint health
# ----------------------------------------------------------------------

HEALTHY = "healthy"
FAILING = "failing"


@dataclass
class EndpointStatus:
    """One endpoint's health as the call path last saw it."""

    state: str = HEALTHY
    consecutive_failures: int = 0
    last_error: str | None = None
    transitions: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class HealthMonitor:
    """Per-endpoint healthy/failing tracking, driven by live calls.

    An endpoint is ``failing`` from a failed call until its next
    successful one; nothing probes it in between.  The verdict only
    orders candidates (:meth:`ranked`): a failing endpoint is tried
    after the healthy ones, never skipped, so the sweep that runs out
    of healthy replicas is also the call that finds a recovered one.
    """

    def __init__(self, keys: Iterable[str]):
        self._status = {key: EndpointStatus() for key in keys}
        self._lock = threading.Lock()

    def record_success(self, key: str) -> None:
        self._record(key, HEALTHY, None)

    def record_failure(self, key: str, error: object = None) -> None:
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        self._record(key, FAILING, error)

    def _record(self, key: str, state: str, error) -> None:
        with self._lock:
            status = self._status[key]
            if status.state != state:
                status.transitions += 1
            status.state = state
            if state == HEALTHY:
                status.consecutive_failures = 0
                status.last_error = None
            else:
                status.consecutive_failures += 1
                if error is not None:
                    status.last_error = str(error)

    def state(self, key: str) -> str:
        with self._lock:
            return self._status[key].state

    def status(self) -> dict[str, dict]:
        """A snapshot of every endpoint's status (for operators)."""
        with self._lock:
            return {key: s.as_dict() for key, s in self._status.items()}

    def ranked(self, items: Sequence, key=lambda item: item) -> list:
        """``items`` stably sorted healthy-first (the failover order)."""
        with self._lock:
            return sorted(
                items, key=lambda item: self._status[key(item)].state != HEALTHY
            )
