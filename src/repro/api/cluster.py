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

Writes are replicated with a durable commit protocol:
``append_records`` routes to the tail shard range and
``expire_prefix`` walks ranges head-first (ranges follow the
endpoints' listing order, which must match data order), each write
running **two-phase** against the owning range's replicas — prepare
(stage + validate) on every live replica, then commit (WAL-log,
fsync, apply) under a stable ``write_id`` whose derived ``req_id``
keys make every resend an idempotent replay, so a retry after a
truncated ack applies exactly once.  A replica that misses a commit
is marked **stale**, excluded from read rotation, and resynced from a
healthy peer by sequence-number catch-up (``sync_range`` /
``sync_apply``, with a chain digest guarding against silent
divergence) before rejoining — reads stay bit-identical to a single
server across any interleaving of writes, kills, and retries.  See
``docs/OPERATIONS.md`` for topology, the write-path state machine,
and failure-mode reference.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.api.backends import RemoteBackend, _append_payload
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
    """A replicated write could not reach its shard range.

    ``ambiguous`` is the retry contract: ``False`` means no replica
    logged the write (retrying is plainly safe); ``True`` means some
    replica *may* have logged it before failing — those replicas are
    already marked stale, so a retry (under a fresh ``write_id``)
    lands only on clean peers and the stale ones are overwritten by
    resync, keeping the cluster exactly-once either way.
    """

    def __init__(self, message, shard_range, write_id=None, ambiguous=False):
        super().__init__(message)
        self.shard_range = shard_range
        self.write_id = write_id
        self.ambiguous = ambiguous


@dataclass
class ClusterStats:
    """Coordinator-side counters (see also :meth:`ClusterBackend.health`)."""

    requests: int = 0
    range_calls: int = 0
    failovers: int = 0
    sweep_retries: int = 0
    unserved_ranges: int = 0
    writes: int = 0
    write_prepares: int = 0
    write_commits: int = 0
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
    every live replica, healthy ones first) and the commit resends;
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
        # Replicas known to have missed a commit: key -> reason.  They
        # are excluded from read rotation (serving them would break
        # bit-identity) until resync() catches them back up.
        self._stale: dict[str, str] = {}
        self._stale_lock = threading.Lock()
        # One writer at a time per shard range: the commit protocol's
        # prepare->commit window must not interleave with another
        # write to the same replicas (sequence numbers are per-range).
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
                    result = fn(self._client(endpoint))
                except FAILOVER_ERRORS as exc:
                    last = exc
                    self._endpoint_failed(endpoint, exc)
                    continue
                self._health.record_success(endpoint.key)
                return result
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

    def _with_retries(self, fn, describe: str, deadline: Deadline):
        """``fn`` under the cluster retry policy, retrying failovers."""
        return call_with_retries(
            fn,
            self._retry,
            retryable=FAILOVER_ERRORS,
            rng=self._rng,
            sleep=self._sleep,
            describe=describe,
            deadline=deadline,
        )

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
    # The write path: replicated two-phase writes + stale-replica resync
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
        """Two-phase commit of one write across a range's replicas.

        Under the range's write lock: opportunistically resync any
        stale replica first (so a recovered endpoint rejoins before it
        falls further behind), then **prepare** on every live replica
        and **commit** on each that prepared.  A replica that fails
        prepare while others go on to commit — or fails/misses its
        commit — has missed a write its peers applied: it is marked
        stale and left to resync.  The returned document is the
        highest-sequence commit reply.
        """
        with self._write_locks[shard_range]:
            self._resync_range_locked(shard_range)
            write_id = uuid.uuid4().hex
            self._bump("writes")
            ranked = self._health.ranked(
                self._replicas[shard_range], key=lambda ep: ep.key
            )
            live = [ep for ep in ranked if not self._is_stale(ep)]
            prepared: list[ClusterEndpoint] = []
            prepare_failures: list[ClusterEndpoint] = []
            for endpoint in live:
                try:
                    self._client(endpoint).prepare_write(
                        write_id, wop, payload
                    )
                except FAILOVER_ERRORS as exc:
                    self._health.record_failure(endpoint.key, exc)
                    self._drop_client(endpoint)
                    prepare_failures.append(endpoint)
                    continue
                self._bump("write_prepares")
                self._health.record_success(endpoint.key)
                prepared.append(endpoint)
            if not prepared:
                raise ClusterWriteError(
                    f"write {wop!r} to shard range {shard_range!r} reached "
                    f"no replica at prepare (live: "
                    f"{[ep.key for ep in live]}); nothing was applied",
                    shard_range,
                    write_id=write_id,
                    ambiguous=False,
                )
            # From here the write will land somewhere: a replica that
            # could not even stage it is about to miss the commit.
            for endpoint in prepare_failures:
                self._mark_stale(endpoint, f"unreachable at prepare of {wop}")
            best: dict | None = None
            committed: list[tuple[ClusterEndpoint, dict]] = []
            for endpoint in prepared:
                try:
                    reply = self._commit_with_retries(endpoint, write_id)
                except KeyError as exc:
                    # The endpoint restarted between prepare and
                    # commit and lost its staging — it needs the write
                    # via resync, not via a blind re-apply.
                    self._mark_stale(endpoint, f"lost staged {wop}: {exc}")
                    continue
                except FAILOVER_ERRORS as exc:
                    # Ambiguous: the commit may have been logged before
                    # the failure.  Stale-until-resync makes either
                    # outcome safe.
                    self._mark_stale(
                        endpoint, f"commit of {wop} unacknowledged: {exc}"
                    )
                    continue
                self._bump("write_commits")
                committed.append((endpoint, reply))
                if best is None or int(reply["seq"]) > int(best["seq"]):
                    best = reply
            if best is None:
                raise ClusterWriteError(
                    f"write {wop!r} ({write_id}) to shard range "
                    f"{shard_range!r} committed on no replica; replicas "
                    "that may have logged it are marked stale, so a "
                    "retry under a fresh write_id stays exactly-once",
                    shard_range,
                    write_id=write_id,
                    ambiguous=True,
                )
            for endpoint, reply in committed:
                # Pure defense: per-range writes are serialized and
                # replicas resync before each one, so every commit
                # should land at the same seq — if one disagrees, it
                # was already divergent and must not keep serving.
                if int(reply["seq"]) != int(best["seq"]):
                    self._mark_stale(
                        endpoint,
                        f"commit seq {reply['seq']} disagrees with "
                        f"{best['seq']}",
                    )
            return best

    def _commit_with_retries(self, endpoint: ClusterEndpoint, write_id: str):
        """Commit on one replica, retrying through transport faults.

        The per-endpoint client is fail-fast (it poisons on a broken
        stream), so each retry drops it and reconnects fresh; the
        commit's stable ``req_id`` turns a retry after a truncated ack
        into an idempotent replay of the cached reply — the op itself
        runs at most once.  No deadline applies: once a write has
        prepared, finishing its commit is what keeps replicas equal.
        """

        def commit():
            try:
                return self._client(endpoint).commit_write(write_id)
            except FAILOVER_ERRORS as exc:
                self._endpoint_failed(endpoint, exc)
                raise

        return self._with_retries(commit, "commit_write", Deadline(None))

    def resync(self, shard_range=None) -> dict[str, bool]:
        """Catch stale replicas back up from their healthy peers.

        Runs automatically before every write; call it explicitly to
        rejoin replicas on a read-only cluster (e.g. after restarting
        a killed endpoint).  Returns ``{endpoint key: rejoined?}`` for
        the replicas that were stale.
        """
        ranges = (
            list(self._replicas) if shard_range is None else [shard_range]
        )
        results: dict[str, bool] = {}
        for one_range in ranges:
            with self._write_locks[one_range]:
                results.update(self._resync_range_locked(one_range))
        return results

    def _resync_range_locked(self, shard_range) -> dict[str, bool]:
        stale = [
            ep for ep in self._replicas[shard_range] if self._is_stale(ep)
        ]
        if not stale:
            return {}
        healthy = [
            ep for ep in self._replicas[shard_range] if not self._is_stale(ep)
        ]
        return {ep.key: self._resync_one(ep, healthy) for ep in stale}

    def _resync_one(
        self, endpoint: ClusterEndpoint, healthy: Sequence[ClusterEndpoint]
    ) -> bool:
        """Bring one stale replica to its peers' exact state.

        Ask the replica where it stands (``wal_status``), fetch
        catch-up material from the healthiest peer (``sync_range``),
        and have the replica adopt it (``sync_apply``).  The chain
        digest decides between the cheap path (entries after the
        replica's seq — valid only if its history up to there matches
        the peer's) and the full base reset (diverged or too far
        behind).  Still-unreachable replicas simply stay stale.
        """
        try:
            status = self._client(endpoint).wal_status()
        except FAILOVER_ERRORS:
            self._drop_client(endpoint)
            return False
        from_seq = int(status["last_seq"])
        chain = int(status.get("chain", 0))
        for peer in self._health.ranked(healthy, key=lambda ep: ep.key):
            try:
                payload = self._client(peer).sync_range(from_seq)
                base, entries = payload["base"], payload["entries"]
                if base is None:
                    chain_at = payload.get("chain_at")
                    if chain_at is None or int(chain_at) != chain:
                        # Same/overlapping seq, different history: the
                        # replica holds writes the cluster never acked.
                        # Only a full reset reconverges it.
                        payload = self._client(peer).sync_range(-1)
                        base, entries = payload["base"], payload["entries"]
                    elif int(payload["last_seq"]) == from_seq:
                        # Already at the peers' head (WAL replay after
                        # a restart restored everything) — rejoin.
                        self._unmark_stale(endpoint)
                        self._bump("resyncs")
                        return True
                applied = self._client(endpoint).sync_apply(
                    base=base, entries=entries
                )
                if int(applied["last_seq"]) != int(payload["last_seq"]):
                    continue
            except FAILOVER_ERRORS:
                self._drop_client(peer)
                self._drop_client(endpoint)
                continue
            self._unmark_stale(endpoint)
            self._bump("resyncs")
            return True
        return False

    def _is_stale(self, endpoint: ClusterEndpoint) -> bool:
        with self._stale_lock:
            return endpoint.key in self._stale

    def _mark_stale(self, endpoint: ClusterEndpoint, reason: str) -> None:
        with self._stale_lock:
            if endpoint.key in self._stale:
                return
            self._stale[endpoint.key] = reason
        self._bump("stale_marks")

    def _unmark_stale(self, endpoint: ClusterEndpoint) -> None:
        with self._stale_lock:
            self._stale.pop(endpoint.key, None)

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
