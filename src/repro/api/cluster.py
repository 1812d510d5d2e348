"""Fault-tolerant multi-endpoint serving: one client, N curators.

A single :class:`repro.service.rpc.RpcServer` owning every shard is
both the whole serving capacity and a single point of failure.  This
module splits the data plane across N ``repro.cli serve`` endpoints —
each owning a contiguous **shard range**, each range served by one or
more **replicas** — and keeps the trust plane (noise sampling, budget
accounting) in one place, the coordinator, whose read loop is the
single server's (:class:`repro.service.server.ReleaseLoop`):

* Each release resolves to one ``hist_counts`` call per shard range:
  the endpoint answers with its merged ``(x, x_ns)`` int64 pair.
* The coordinator sums the per-range pairs —
  :meth:`repro.queries.histogram.HistogramInput.from_shard_counts`,
  the exact integer merge the in-process path performs over local
  shards — and samples noise **once** at the merge tier.  Integer
  addition is associative, so for the same request and seed a
  clustered release is **bit-identical** to a single server holding
  all the shards; the accountant (the coordinator's) is charged
  exactly once per release, just as in-process.
* When an endpoint fails mid-call (refused, reset, truncated frame,
  killed process), its range is re-served from a replica.  A failed
  call marks the endpoint failing in the
  :class:`repro.api.resilience.HealthMonitor`, so later sweeps try its
  healthy peers first; its next successful call marks it healthy
  again.  The sweeps back off through
  :func:`repro.api.resilience.call_with_retries`, the one retry loop
  of the remote tier.  A range with **no** reachable replica degrades
  to an explicit :class:`PartialClusterError` — carrying any
  already-charged responses — never a hang.

Writes are replicated by **log shipping**: ``append_records`` routes
to the tail shard range and ``expire_prefix`` walks ranges head-first
(the endpoints' listing order, which must match data order).  The
range's first live replica logs and applies each write and replies
with its seq and chain; with the payload it sent, the coordinator
ships that entry to every other replica with one op,
``apply_entries`` — one round trip per replica, and a resend is a
no-op.  A replica left short of the head is marked
**stale**, excluded from reads until a later shipment brings it back,
so reads stay bit-identical to a single server across any
interleaving of writes, kills, and retries.  See
``docs/OPERATIONS.md`` for the write path and failure modes.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.api.backends import _ONE_ATTEMPT, RemoteBackend, _append_payload
from repro.api.resilience import (
    Deadline,
    DeadlineExceeded,
    HealthMonitor,
    RetryPolicy,
    call_with_retries,
)
from repro.api.wire import RemoteError, WireError
from repro.core.accountant import PrivacyAccountant
from repro.core.policy_language import canonical_spec, policy_to_spec
from repro.queries.histogram import HistogramInput, binning_to_spec
from repro.service.server import (
    MechanismRegistry,
    ReleaseLoop,
    ReleaseRequest,
    default_registry,
)

#: Errors that mean "this endpoint, not this request": the range fails
#: over to a replica.  Application errors (bad spec, unknown mechanism,
#: budget) propagate — they would fail identically everywhere.
FAILOVER_ERRORS = (ConnectionError, OSError, EOFError, WireError, RemoteError)

#: Default range-level sweep retry: each attempt tries every candidate
#: replica once (health-ranked), with backoff between sweeps.
DEFAULT_CLUSTER_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.05, multiplier=2.0, max_delay=0.5
)


@dataclass(frozen=True)
class ClusterEndpoint:
    """One ``repro.cli serve`` process in the topology.

    ``shard_range`` is the label of the data slice this endpoint owns —
    any hashable (a ``(lo, hi)`` tuple, a string); endpoints sharing a
    label are replicas of each other and **must** serve identical data
    (the bit-identity contract is theirs to keep).
    """

    host: str
    port: int
    shard_range: object = 0
    name: str = ""

    @property
    def key(self) -> str:
        """The endpoint's identity in health bookkeeping."""
        return self.name or f"{self.host}:{self.port}"


class PartialClusterError(RuntimeError):
    """A shard range had no serving replica; the request degraded.

    ``shard_range`` names the unserved range, ``responses`` holds any
    already-produced (and already-charged) batch prefix — charged
    noise is never silently discarded, mirroring
    :class:`~repro.service.server.BatchBudgetExceededError` — and
    ``failed_request`` is the request that could not be completed.
    """

    def __init__(
        self, message: str, shard_range, responses=(), failed_request=None
    ):
        super().__init__(message)
        self.shard_range = shard_range
        self.responses = list(responses)
        self.failed_request = failed_request


class ClusterWriteError(RuntimeError):
    """A replicated write reached no replica of its shard range.

    A replica that failed after the write was sent to it may have
    logged it; it is already marked stale, so it serves no read until
    it is reset onto a peer's history.
    """

    def __init__(self, message, shard_range, write_id=None):
        super().__init__(message)
        self.shard_range = shard_range
        self.write_id = write_id


@dataclass
class ClusterStats:
    """Coordinator-side counters (see also :meth:`ClusterBackend.health`)."""

    requests: int = 0
    range_calls: int = 0
    failovers: int = 0
    sweep_retries: int = 0
    unserved_ranges: int = 0
    writes: int = 0
    stale_marks: int = 0
    resyncs: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ClusterBackend(ReleaseLoop):
    """Route one :class:`~repro.api.OsdpClient` across N endpoints.

    Implements the :class:`~repro.api.Backend` protocol over a
    replicated topology.  Reads run the single server's release loop
    (:class:`~repro.service.server.ReleaseLoop`) with the range
    fan-out as its histogram source, so noise sampling and budget
    accounting happen here, at the merge tier, with this backend's
    ``registry``/``accountant`` — endpoints only ever answer exact
    count queries, so an endpoint crash can never half-charge a
    budget.

    ``retry`` paces the per-range failover sweep (each attempt walks
    every live replica, healthy ones first) and the entry shipments;
    ``timeout`` bounds each endpoint exchange.

    ``accountant`` may be a plain
    :class:`~repro.core.accountant.PrivacyAccountant` or a
    :class:`~repro.service.budget.DurableAccountant` — with the
    latter, every coordinator charge is fsync'd to a journal before
    the release returns, so a coordinator crash and restart resumes
    with the exact spent total (exactly-once charging across
    restarts).  Requests carrying an ``analyst`` are booked under that
    analyst's quota sub-budget.
    """

    def __init__(
        self,
        endpoints: Sequence[ClusterEndpoint],
        registry: MechanismRegistry | None = None,
        accountant: PrivacyAccountant | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = 5.0,
        rng=None,
        clock=None,
    ):
        if not endpoints:
            raise ValueError("a cluster needs at least one endpoint")
        keys = [ep.key for ep in endpoints]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate endpoint keys in {keys}")
        self.endpoints = list(endpoints)
        self._by_key = {ep.key: ep for ep in self.endpoints}
        self._replicas: dict[object, list[ClusterEndpoint]] = {}
        for ep in self.endpoints:
            self._replicas.setdefault(ep.shard_range, []).append(ep)
        # Deterministic range order (merge addition is commutative, so
        # this is for readable errors/stats, not bit-identity).
        self._ranges = sorted(self._replicas, key=repr)
        # Data order for the write path: ranges as first listed in
        # ``endpoints``.  Topologies must list ranges oldest-data
        # first — appends go to the last range, expiry walks from the
        # first (the fleet launcher and docs both enforce/state this).
        self._range_order: list = []
        for ep in self.endpoints:
            if ep.shard_range not in self._range_order:
                self._range_order.append(ep.shard_range)
        self._registry = registry or default_registry()
        self.accountant = accountant
        self._retry = retry or DEFAULT_CLUSTER_RETRY
        # Seed a random.Random here to make every backoff jitter draw
        # deterministic (the fault tests' replayability hook).
        self._rng = rng
        # The temporal twin of rng=: an injectable clock
        # (repro.ingest.clock.Clock) whose sleep() paces every retry
        # backoff — a fake makes backoff-heavy fault tests instant.
        self._sleep = time.sleep if clock is None else clock.sleep
        self._timeout = timeout
        # Replicas known to have missed a write: key -> reason.  They
        # are excluded from read rotation (serving them would break
        # bit-identity) until a shipment brings them to the head.
        self._stale: dict[str, str] = {}
        self._stale_lock = threading.Lock()
        # One writer at a time per shard range: a write and the
        # shipment of its entry must not interleave with another write
        # to the same replicas (sequence numbers are per-range).
        self._write_locks = {
            shard_range: threading.Lock() for shard_range in self._replicas
        }
        self.stats = ClusterStats()
        self._stats_lock = threading.Lock()
        self._clients: dict[str, RemoteBackend] = {}
        self._clients_lock = threading.Lock()
        self._closed = False
        self._health = HealthMonitor(keys)

    # ------------------------------------------------------------------
    # Endpoint plumbing
    # ------------------------------------------------------------------
    def _client(self, endpoint: ClusterEndpoint) -> RemoteBackend:
        """The cached fail-fast connection to one endpoint.

        Deliberately ``retry=None, connect_retry=None``: the cluster's
        range-level sweep is the retry layer, and stacking per-endpoint
        retries under it would multiply every dead endpoint's cost.
        """
        with self._clients_lock:
            if self._closed:
                raise ConnectionError("cluster backend is closed")
            client = self._clients.get(endpoint.key)
        if client is not None:
            return client
        client = RemoteBackend(
            endpoint.host,
            endpoint.port,
            timeout=self._timeout,
            retry=None,
            connect_retry=None,
        )
        with self._clients_lock:
            if self._closed:
                client.close()
                raise ConnectionError("cluster backend is closed")
            other = self._clients.setdefault(endpoint.key, client)
        if other is not client:
            client.close()
        return other

    def _drop_client(self, endpoint: ClusterEndpoint) -> None:
        with self._clients_lock:
            client = self._clients.pop(endpoint.key, None)
        if client is not None:
            client.close()

    # ------------------------------------------------------------------
    # The failover core: call one shard range, walking its replicas
    # ------------------------------------------------------------------
    def _range_call(self, shard_range, fn, describe: str):
        """Run ``fn(client)`` against the first live replica that answers.

        Each sweep tries every live replica once, healthy ones first (a
        failing verdict only deprioritizes a replica, never skips it);
        the cluster retry policy paces the sweeps.  A range that no
        sweep served — every replica failed, every replica is stale, or
        the policy's deadline ran out — raises
        :class:`PartialClusterError`: bounded time, never a hang, and
        one exception for a batch to attach its charged prefix to.
        """
        live = [
            ep
            for ep in self._replicas[shard_range]
            if not self._is_stale(ep)
        ]
        if not live:
            self._bump("unserved_ranges")
            raise PartialClusterError(
                f"shard range {shard_range!r} has no serving replica for "
                f"{describe}: every replica is stale (divergent until "
                "resync(); see ClusterBackend.stale())",
                shard_range,
            )
        deadline = Deadline(self._retry.deadline)
        sweeps = itertools.count()

        def sweep():
            if next(sweeps):
                self._bump("sweep_retries")
            last: BaseException | None = None
            for endpoint in self._health.ranked(live, key=lambda ep: ep.key):
                deadline.require(describe)
                self._bump("range_calls")
                try:
                    return self._on(endpoint, fn)
                except FAILOVER_ERRORS as exc:
                    last = exc
            raise last

        try:
            return self._with_retries(sweep, describe, deadline)
        except (DeadlineExceeded, *FAILOVER_ERRORS) as exc:
            self._bump("unserved_ranges")
            raise PartialClusterError(
                f"shard range {shard_range!r} has no serving replica for "
                f"{describe} (replicas: "
                f"{[ep.key for ep in self._replicas[shard_range]]}; "
                f"last error: {type(exc).__name__}: {exc})",
                shard_range,
            ) from exc

    def _with_retries(self, fn, describe: str, deadline: Deadline, policy=None):
        """``fn`` under ``policy`` (default: the cluster's), retrying
        failovers."""
        return call_with_retries(
            fn,
            policy or self._retry,
            retryable=FAILOVER_ERRORS,
            rng=self._rng,
            sleep=self._sleep,
            describe=describe,
            deadline=deadline,
        )

    def _on(self, endpoint: ClusterEndpoint, fn):
        """``fn(client)`` on one endpoint, booking its health either way."""
        try:
            result = fn(self._client(endpoint))
        except FAILOVER_ERRORS as exc:
            self._endpoint_failed(endpoint, exc)
            raise
        self._health.record_success(endpoint.key)
        return result

    def _endpoint_failed(self, endpoint: ClusterEndpoint, exc) -> None:
        """Book one failed endpoint call and drop its connection."""
        self._bump("failovers")
        self._health.record_failure(endpoint.key, exc)
        self._drop_client(endpoint)

    # ------------------------------------------------------------------
    # The merge tier: the release loop's data hook
    # ------------------------------------------------------------------
    def _histogram(self, request: ReleaseRequest, memo: dict):
        """The cluster-wide :class:`HistogramInput` for one request.

        One ``hist_counts`` per shard range, then the canonical
        :meth:`HistogramInput.from_shard_counts` merge.  ``memo``
        (per batch) plays the role of the single server's histogram
        cache: requests sharing a ``(binning, policy)`` pair pay the
        fan-out once and report ``cache_hit`` like the in-process path.
        """
        binning, policy = self._resolve(request)
        bspec = (
            dict(request.binning)
            if isinstance(request.binning, Mapping)
            else binning_to_spec(binning)
        )
        pspec = (
            dict(request.policy)
            if isinstance(request.policy, Mapping)
            else policy_to_spec(policy)
        )
        key = canonical_spec({"binning": bspec, "policy": pspec})
        if key in memo:
            return memo[key], policy, True
        pairs = [
            self._range_call(
                shard_range,
                lambda client: client.histogram_counts(bspec, pspec),
                describe=f"hist_counts({request.label or request.mechanism})",
            )
            for shard_range in self._ranges
        ]
        hist = HistogramInput.from_shard_counts(pairs)
        hist.ns_support_sorted  # warm the release fast-path views
        memo[key] = hist
        return hist, policy, False

    def _batch_error(self, exc, responses, request):
        """An unserved range stops a batch with its charged prefix."""
        if isinstance(exc, PartialClusterError):
            return PartialClusterError(
                str(exc), exc.shard_range, responses, request
            )
        return super()._batch_error(exc, responses, request)

    # ------------------------------------------------------------------
    # The Backend surface (read path); handle / handle_batch are the
    # release loop's
    # ------------------------------------------------------------------
    def true_histogram(self, binning) -> np.ndarray:
        spec = (
            dict(binning)
            if isinstance(binning, Mapping)
            else binning_to_spec(binning)
        )
        totals = [
            self._range_call(
                shard_range,
                lambda client: client.true_histogram(spec),
                describe="true_histogram",
            )
            for shard_range in self._ranges
        ]
        return np.sum(totals, axis=0)

    # ------------------------------------------------------------------
    # The write path: one replica logs, its peers take the entry
    # ------------------------------------------------------------------
    def append_records(self, records) -> int:
        """Append through the cluster: replicated on the tail range.

        Records arrive in time order, so new rows belong to the last
        shard range (the same invariant the single server's tail-shard
        append keeps).  Returns the owning endpoints' tail shard index.
        """
        tail_range = self._range_order[-1]
        reply = self._replicated_write(
            "append_records", _append_payload(records), tail_range
        )
        return int(reply["result"])

    def expire_prefix(self, n_records: int) -> list[int]:
        """Expire the oldest records cluster-wide (retention).

        Ranges hold data in listing order, so expiry walks them
        head-first, trimming each range's share as its own replicated
        write.  Bounds are pre-checked against the cluster-wide count
        (the single server's ``ValueError`` contract); the returned
        indices are each owning endpoint's touched shard indices,
        concatenated in range order.
        """
        n = int(n_records)
        counts = {
            shard_range: int(
                self._range_call(
                    shard_range,
                    lambda client: client.ping()["n_records"],
                    describe="expire_prefix count",
                )
            )
            for shard_range in self._range_order
        }
        total = sum(counts.values())
        if not 0 <= n <= total:
            raise ValueError(f"cannot expire {n} of {total} records")
        touched: list[int] = []
        remaining = n
        for shard_range in self._range_order:
            if remaining == 0:
                break
            take = min(remaining, counts[shard_range])
            if take == 0:
                continue
            reply = self._replicated_write(
                "expire_prefix", {"n_records": take}, shard_range
            )
            touched.extend(int(i) for i in reply["result"])
            remaining -= take
        return touched

    def _replicated_write(self, wop: str, payload: dict, shard_range) -> dict:
        """One write through a range's replicas; the leader's reply.

        Under the range's write lock, the first live replica that
        answers (:meth:`_lead`) logs the write under a fresh
        ``write_id`` and replies with its ``seq`` and ``chain``; the
        entry those and the sent payload make goes to every other
        replica through :meth:`_ship`.  A leader that failed
        mid-exchange is stale and the same ``write_id`` goes to the next
        replica: equal histories give equal seqs and chains, so one that
        did log it later reports ``replayed``.
        """
        with self._write_locks[shard_range]:
            write_id = uuid.uuid4().hex
            self._bump("writes")
            leader, reply = self._lead(
                shard_range, lambda client: client.write(wop, payload, write_id)
            )
            if leader is None:
                raise ClusterWriteError(
                    f"write {wop!r} ({write_id}) reached no replica of "
                    f"shard range {shard_range!r}",
                    shard_range,
                    write_id=write_id,
                )
            entry = {
                "seq": reply["seq"],
                "write_id": write_id,
                "wop": wop,
                "payload": payload,
                "chain": reply["chain"],
            }
            head = (entry["seq"], entry["chain"])
            for follower in self._replicas[shard_range]:
                if follower is not leader:
                    self._ship(leader, follower, head, [entry])
            return reply

    def _lead(self, shard_range, fn, logs=True):
        """``(endpoint, fn(client))`` from the range's first live replica
        that answers, healthy ones first; ``(None, None)`` if none does.
        Every failure is booked; one that failed after a write (``logs``)
        was sent may have logged it, so it is also marked stale.
        """
        live = [ep for ep in self._replicas[shard_range] if not self._is_stale(ep)]
        for endpoint in self._health.ranked(live, key=lambda ep: ep.key):
            try:
                self._client(endpoint)
            except FAILOVER_ERRORS as exc:
                self._endpoint_failed(endpoint, exc)
                continue
            try:
                return endpoint, self._on(endpoint, fn)
            except FAILOVER_ERRORS as exc:
                if logs:
                    self._mark_stale(endpoint, f"failed mid-exchange: {exc}")
        return None, None

    def _ship(self, leader, follower, head, entries=()) -> str:
        """Bring ``follower`` to the leader's ``head``; its verdict.

        ``apply_entries`` carries ``entries``; a ``behind`` reply gets
        the leader's tail (``sync_range``), a ``diverged`` one its
        base, through the same op.  A resend is ``replayed``, so a
        failure mid-exchange is retried (once only for a replica already
        stale); a refused or timed-out connect is not.  Returns
        ``caught_up``, ``base_reset`` or ``unreachable``, which leaves
        the follower stale.
        """
        reason = f"did not reach seq {head[0]}"

        def ship():
            nonlocal reason
            try:
                self._client(follower)
            except FAILOVER_ERRORS as exc:
                # Nothing was sent, and a resend would wait on the same
                # dead endpoint.
                self._endpoint_failed(follower, exc)
                reason = f"{reason}: {exc}"
                return "unreachable"
            verdict, sent, base = "caught_up", entries, None
            for _ in range(3):  # the entries, the leader's tail, its base
                reply = self._on(
                    follower,
                    lambda client: client.apply_entries(*head, sent, base),
                )
                if reply["verdict"] in ("applied", "replayed"):
                    return verdict
                behind = reply["verdict"] == "behind"
                from_seq = reply["last_seq"] if behind else -1
                tail = self._on(leader, lambda client: client.sync_range(from_seq))
                sent, base = tail["entries"], tail["base"]
                if base is not None:
                    verdict = "base_reset"
            return "unreachable"

        policy = _ONE_ATTEMPT if self._is_stale(follower) else self._retry
        try:
            verdict = self._with_retries(
                ship, f"apply_entries to {follower.key}", Deadline(None), policy
            )
        except FAILOVER_ERRORS as exc:
            verdict, reason = "unreachable", f"{reason}: {exc}"
        if verdict == "unreachable":
            self._mark_stale(follower, reason)
        elif self._unmark_stale(follower):
            self._bump("resyncs")
        return verdict

    def resync(self, shard_range=None) -> dict[str, str]:
        """Ship each stale replica its range's head; ``{key: verdict}``
        (see :meth:`_ship`).

        The write's shipping loop with no new entry, from the first
        live replica that reports its head (``wal_status``).  The next
        write ships to stale replicas anyway; call this to rejoin one
        on a read-only cluster (e.g. after restarting a killed
        endpoint).
        """
        ranges = list(self._replicas) if shard_range is None else [shard_range]
        verdicts: dict[str, str] = {}
        for one_range in ranges:
            replicas = self._replicas[one_range]
            if not any(self._is_stale(ep) for ep in replicas):
                continue
            with self._write_locks[one_range]:
                leader, status = self._lead(
                    one_range, lambda client: client.wal_status(), logs=False
                )
                for endpoint in filter(self._is_stale, replicas):
                    verdicts[endpoint.key] = "unreachable"
                    if leader is not None:
                        head = (status["last_seq"], status["chain"])
                        verdicts[endpoint.key] = self._ship(leader, endpoint, head)
        return verdicts

    def _is_stale(self, endpoint: ClusterEndpoint) -> bool:
        with self._stale_lock:
            return endpoint.key in self._stale

    def _mark_stale(self, endpoint: ClusterEndpoint, reason: str) -> None:
        with self._stale_lock:
            if endpoint.key in self._stale:
                return
            self._stale[endpoint.key] = reason
        self._bump("stale_marks")

    def _unmark_stale(self, endpoint: ClusterEndpoint) -> bool:
        """Return ``endpoint`` to the read rotation; was it stale?"""
        with self._stale_lock:
            return self._stale.pop(endpoint.key, None) is not None

    def stale(self) -> dict[str, str]:
        """The currently stale replicas: ``{endpoint key: reason}``."""
        with self._stale_lock:
            return dict(self._stale)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mechanisms(self) -> list[str]:
        return self._registry.names()

    def budget(self) -> dict | None:
        """The coordinator accountant's full ledger view (None when
        unmetered) — entries, per-analyst quotas, totals."""
        return self.accountant.view() if self.accountant else None

    def health(self) -> dict[str, dict]:
        """Per-endpoint health snapshot (state, failures, last error)."""
        snapshot = self._health.status()
        with self._stale_lock:
            stale = dict(self._stale)
        for key, doc in snapshot.items():
            doc["shard_range"] = self._by_key[key].shard_range
            doc["stale"] = stale.get(key)
        return snapshot

    def cluster_stats(self) -> dict:
        with self._stats_lock:
            return self.stats.as_dict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._clients_lock:
            if self._closed:
                return
            self._closed = True
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
