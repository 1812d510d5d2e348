"""The library-side and socket backends behind :class:`repro.api.OsdpClient`.

The :class:`Backend` protocol is the seam that makes "where does the
release run" a deployment decision instead of a call-site decision:

* :class:`ShardedBackend` — a
  :class:`repro.data.sharding.ShardedColumnarDatabase` behind the
  caching :class:`repro.service.server.ReleaseServer`, optionally with
  a shard-resident :class:`repro.data.workers.ShardWorkerPool` (one
  process per shard, specs on the pipes, failover/respawn on worker
  death).  The single-machine curator substrate.
  :class:`InProcessBackend` is its one-shard, pool-less form — the
  notebook / unit-test substrate.
* :class:`RemoteBackend` — a socket client speaking the
  :mod:`repro.api.wire` framing to a :class:`repro.service.rpc.RpcServer`
  on another process or machine.  The analyst substrate.

Both answer the same five questions (release one, release a batch,
true histogram, append, expire) with **bit-identical** results for the
same request and seed — the backends differ in *where* the histogram
pipeline runs, never in *what* it computes.
"""

from __future__ import annotations

import threading
import uuid
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.api.resilience import (
    Deadline,
    RetryPolicy,
    ServerOverloaded,
    call_with_retries,
)
from repro.service.server import (
    ReleaseRequest,
    ReleaseResponse,
    ReleaseServer,
)

#: Default connect behavior: a handful of quick retries so a client
#: starting up in a race against ``repro.cli serve`` does not fail on
#: one spurious ECONNREFUSED.  Pass ``connect_retry=None`` to fail on
#: the first refusal (the fail-fast mode the cluster tier uses).
DEFAULT_CONNECT_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=0.5
)

#: ``RemoteBackend(retry=None)``: exchanges get one attempt, and a
#: transport failure closes the backend.
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)

_UNSET = object()

_CLOSED = "rpc connection is closed or broken; open a new RemoteBackend"


@runtime_checkable
class Backend(Protocol):
    """What a release substrate must answer; see the module docstring."""

    def handle(self, request: ReleaseRequest) -> ReleaseResponse: ...

    def handle_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]: ...

    def true_histogram(self, binning) -> np.ndarray: ...

    def append_records(self, records) -> int: ...

    def expire_prefix(self, n_records: int) -> list[int]: ...

    def close(self) -> None: ...


class ShardedBackend:
    """The sharded engine, optionally on a shard-resident worker pool.

    ``workers=True`` places the shards into shared-memory segments,
    builds a :class:`ShardWorkerPool` that attaches them and installs
    it as the executor — parent and workers read one physical copy,
    requests cross as specs, and a killed worker is respawned onto the
    segments (the request degrades to a recompute, not a crash).  A
    table the segments cannot hold (object-dtype columns, attached row
    records: :func:`repro.data.workers.shard_shm_eligible`) gets no
    pool and is served from the parent — the same bytes, with
    ``store_mode == "heap"``.  The backend owns the pool and the
    segments: ``close()`` stops the one and unlinks the other.
    """

    def __init__(
        self,
        db,
        n_shards: int | None = None,
        workers: bool = False,
        registry=None,
        accountant=None,
        cache_limit: int = 128,
    ):
        from repro.data.columnar import ColumnarDatabase
        from repro.data.sharding import ShardedColumnarDatabase
        from repro.data.workers import ShardWorkerPool, shard_shm_eligible

        if not isinstance(db, ShardedColumnarDatabase):
            if not isinstance(db, ColumnarDatabase):
                db = ColumnarDatabase.from_database(db)
            db = db.shard(n_shards or _default_shards())
        elif n_shards is not None and n_shards != db.n_shards:
            raise ValueError(
                f"database already has {db.n_shards} shards; "
                f"cannot reshard to {n_shards}"
            )
        self.pool = None
        self._shared_stores: list = []
        try:
            if workers and all(map(shard_shm_eligible, db.shards)):
                # Share the shards *before* building the pool: the
                # parent-side engine then reads the exact segments the
                # workers attach — one physical copy — instead of
                # keeping heap originals next to pool-placed shm copies.
                # The backend owns these stores; close() unlinks them.
                shared_shards = []
                for shard in db.shards:
                    if shard.store is None:
                        shard = shard.share()
                        # only stores created *here* are the backend's
                        # to unlink — shards that arrived shm-backed
                        # belong to their creator
                        self._shared_stores.append(shard.store)
                    shared_shards.append(shard)
                if self._shared_stores:
                    db = ShardedColumnarDatabase(shared_shards)
                self.pool = ShardWorkerPool(db.shards)
            server = ReleaseServer(
                db,
                registry=registry,
                accountant=accountant,
                executor=self.pool,
                cache_limit=cache_limit,
            )
        except BaseException:
            # Nothing else names the segments shared above: unlink them
            # now, not whenever the cyclic GC gets to them.
            self.close()
            raise
        self.server = server

    @property
    def store_mode(self) -> str:
        """How the columns reach the release path — the operator-facing
        answer to "which storage path is live?".

        ``"shm"``: a worker pool whose workers attached shared-memory
        segments (zero-copy, one physical copy); ``"heap"``: no worker
        pool — none was asked for, or the table's shards cannot live in
        segments — and the engine reads this process's arrays directly.
        """
        return "heap" if self.pool is None else "shm"

    def handle(self, request: ReleaseRequest) -> ReleaseResponse:
        return self.server.handle(request)

    def handle_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]:
        return self.server.handle_batch(requests)

    def true_histogram(self, binning) -> np.ndarray:
        return self.server.true_histogram(binning)

    def histogram_counts(self, binning, policy) -> tuple[np.ndarray, np.ndarray]:
        return self.server.histogram_counts(binning, policy)

    def append_records(self, records) -> int:
        return self.server.append_records(records)

    def expire_prefix(self, n_records: int) -> list[int]:
        return self.server.expire_prefix(n_records)

    def stats(self) -> dict:
        return self.server.stats.as_dict()

    @property
    def budget_remaining(self) -> float | None:
        return self.server.budget_remaining

    def budget(self) -> dict | None:
        """The full ledger view (None when unmetered)."""
        return self.server.budget_view()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
        for store in self._shared_stores:
            store.unlink()
        self._shared_stores = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class InProcessBackend(ShardedBackend):
    """A :class:`ShardedBackend` with one shard and no worker pool.

    A database that arrives already sharded keeps its shards.
    """

    def __init__(
        self, db, registry=None, accountant=None, cache_limit: int = 128
    ):
        from repro.data.sharding import ShardedColumnarDatabase

        super().__init__(
            db,
            n_shards=None if isinstance(db, ShardedColumnarDatabase) else 1,
            registry=registry,
            accountant=accountant,
            cache_limit=cache_limit,
        )


def _default_shards() -> int:
    import os

    return max(1, min(8, os.cpu_count() or 1))


class RemoteBackend:
    """A release service on the other end of a socket.

    Speaks the :mod:`repro.api.wire` framing to a
    :class:`repro.service.rpc.RpcServer`.  Each *thread* gets its own
    connection, opened lazily on its first call, so one backend (or the
    :class:`~repro.api.OsdpClient` above it) shared across analyst
    threads issues truly concurrent requests — the server's
    readers-writer discipline serves them in parallel instead of
    queueing them behind a single stream.  Server-side failures
    re-raise faithfully — including
    :class:`repro.service.server.BatchBudgetExceededError` with its
    charged prefix of responses.  A mid-exchange transport failure
    (timeout, reset, truncated frame, a reply that does not decode)
    leaves a stream unsynchronized, so it poisons the whole backend:
    every subsequent call raises rather than risk pairing a reply with
    the wrong request.

    ``connect_retry`` (on by default) retries the initial TCP connect
    with backoff, so client startup racing a ``repro.cli serve`` does
    not fail on one refused connection.  ``retry`` (one attempt by
    default) upgrades *exchanges*: on a transport failure the thread's
    socket is dropped and the call re-sent on a fresh connection under
    the policy's backoff/deadline; only when every attempt is spent is
    the backend poisoned.  When resends are allowed, every effectful
    op (release, batch, append, expire) carries a stable ``req_id``,
    and the server's idempotent-reply
    cache guarantees a retry after an *ambiguous* failure (request
    executed, reply lost) re-serves the cached response — the
    accountant is charged exactly once no matter how many resends it
    takes.

    :class:`~repro.api.resilience.ServerOverloaded` — an admission-gate
    refusal from a flooded server — is also retried under ``retry``,
    but *without* dropping the socket (the exchange completed cleanly;
    nothing ran and nothing was charged), and the backoff is floored
    at the server's ``retry_after`` hint.

    ``analyst`` stamps every request message's header with a
    credential: the server books each charge under it and enforces the
    analyst's quota when one is declared (a request carrying its own
    ``analyst`` field wins over the header).
    """

    #: Ops that must not run twice across a retry — they charge the
    #: accountant or mutate data — so their resends carry a stable
    #: idempotency key.
    _EFFECTFUL_OPS = frozenset(
        {
            "release",
            "release_batch",
            "append_records",
            "expire_prefix",
        }
    )

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        connect_retry: RetryPolicy | None = _UNSET,  # type: ignore[assignment]
        retry_rng=None,
        analyst: str | None = None,
    ):
        self.address = (host, port)
        self._timeout = timeout
        self._retry = _ONE_ATTEMPT if retry is None else retry
        self._analyst = str(analyst) if analyst else None
        # A seeded random.Random here makes every backoff jitter draw
        # (connect and exchange retries) deterministic — the fault
        # tests' replayability hook.  None keeps the module-level rng.
        self._retry_rng = retry_rng
        self._connect_retry = (
            DEFAULT_CONNECT_RETRY if connect_retry is _UNSET else connect_retry
        )
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._socks: list = []
        self._closed = False
        # Open the constructing thread's connection eagerly so a bad
        # address fails here, not at the first release.
        self._local.sock = self._connect()

    def _open_socket(self):
        from repro.service.rpc import connect

        if self._connect_retry is None:
            return connect(*self.address, timeout=self._timeout)
        return call_with_retries(
            lambda: connect(*self.address, timeout=self._timeout),
            self._connect_retry,
            retryable=(OSError,),
            rng=self._retry_rng,
            describe=f"connect to {self.address[0]}:{self.address[1]}",
        )

    def _connect(self):
        sock = self._open_socket()
        with self._registry_lock:
            if self._closed:
                sock.close()
                raise ConnectionError(_CLOSED)
            # Prune connections whose threads are gone, so a long-lived
            # backend driven from short-lived threads holds one socket
            # per *live* thread, not per thread ever seen.
            live, dead = [], []
            for thread, old in self._socks:
                (live if thread.is_alive() else dead).append((thread, old))
            self._socks = live
            self._socks.append((threading.current_thread(), sock))
        for _, old in dead:
            _close_socket(old)
        return sock

    def _thread_sock(self):
        if self._closed:
            raise ConnectionError(_CLOSED)
        sock = getattr(self._local, "sock", None)
        if sock is None:
            sock = self._local.sock = self._connect()
        return sock

    def _invalidate_thread_sock(self) -> None:
        """Drop only the calling thread's socket (the retry path).

        Unlike :meth:`close`, other threads' healthy connections keep
        serving; this thread reconnects on its next exchange.
        """
        sock = getattr(self._local, "sock", None)
        self._local.sock = None
        if sock is None:
            return
        me = threading.current_thread()
        with self._registry_lock:
            self._socks = [
                (thread, s)
                for thread, s in self._socks
                if not (thread is me and s is sock)
            ]
        _close_socket(sock)

    # ------------------------------------------------------------------
    # One exchange
    # ------------------------------------------------------------------
    def _exchange_once(self, message):
        from repro.api.wire import (
            exception_from_wire,
            recv_message,
            send_message,
        )

        sock = self._thread_sock()
        send_message(sock, message)
        reply = recv_message(sock)
        if not isinstance(reply, dict) or ("ok" not in reply) == (
            "err" not in reply
        ):
            raise RuntimeError(f"malformed rpc reply: {reply!r}")
        if "err" in reply:
            raise exception_from_wire(reply["err"])
        return reply["ok"]

    def _call(self, op: str, **payload):
        """One logical request under the retry policy — the one path."""
        from repro.api.wire import WireError

        if self._closed:
            raise ConnectionError(_CLOSED)
        message = {"op": op, **payload}
        if self._analyst is not None:
            message["analyst"] = self._analyst
        policy = self._retry
        if policy.max_attempts > 1 and op in self._EFFECTFUL_OPS:
            # A stable id across every resend of this logical request:
            # the server runs the op once and replays the cached reply.
            message["req_id"] = uuid.uuid4().hex
        deadline = Deadline(policy.deadline)

        def attempt():
            remaining = deadline.remaining()
            if remaining is not None:
                message["deadline"] = remaining
            try:
                return self._exchange_once(message)
            except (OSError, EOFError, WireError):
                # A transport failure left this thread's stream
                # unsynchronized — a reply that failed to decode leaves
                # the rest of its frame, or the server's eventual reply,
                # to pair with the *next* request — so the resend goes
                # out on a fresh connection (other threads' sockets stay
                # live).  An admission-gate refusal (ServerOverloaded)
                # completed cleanly and keeps the socket.
                self._invalidate_thread_sock()
                raise

        try:
            return call_with_retries(
                attempt,
                policy,
                retryable=(ServerOverloaded, OSError, EOFError, WireError),
                rng=self._retry_rng,
                describe=f"rpc {op!r} to {self.address[0]}:{self.address[1]}",
                deadline=deadline,
            )
        except (OSError, EOFError, WireError) as exc:
            # Transport failures spent every attempt: the backend dies,
            # never to be reused (close() tears down every thread's
            # socket).  A ServerOverloaded propagates as is — the
            # backend is healthy, the server is just full.
            self.close()
            raise ConnectionError(
                f"rpc {op!r} failed mid-flight after "
                f"{policy.max_attempts} attempt(s) ({exc}); the connection "
                "has been closed"
            ) from exc

    # ------------------------------------------------------------------
    # The Backend surface
    # ------------------------------------------------------------------
    def handle(self, request: ReleaseRequest) -> ReleaseResponse:
        from repro.api.wire import request_to_wire, response_from_wire

        doc = self._call("release", request=request_to_wire(request))
        return response_from_wire(doc)

    def handle_batch(
        self, requests: Sequence[ReleaseRequest]
    ) -> list[ReleaseResponse]:
        from repro.api.wire import request_to_wire, response_from_wire

        docs = self._call(
            "release_batch",
            requests=[request_to_wire(r) for r in requests],
        )
        return [response_from_wire(doc) for doc in docs]

    def true_histogram(self, binning) -> np.ndarray:
        from repro.queries.histogram import binning_to_spec

        spec = (
            dict(binning)
            if isinstance(binning, Mapping)
            else binning_to_spec(binning)
        )
        return np.asarray(self._call("true_histogram", binning=spec))

    def histogram_counts(self, binning, policy) -> tuple[np.ndarray, np.ndarray]:
        """This endpoint's merged ``(x, x_ns)`` pair — the cluster's
        merge input (see :mod:`repro.api.cluster`)."""
        from repro.core.policy_language import policy_to_spec
        from repro.queries.histogram import binning_to_spec

        bspec = (
            dict(binning)
            if isinstance(binning, Mapping)
            else binning_to_spec(binning)
        )
        pspec = (
            dict(policy)
            if isinstance(policy, Mapping)
            else policy_to_spec(policy)
        )
        doc = self._call("hist_counts", binning=bspec, policy=pspec)
        return np.asarray(doc["x"]), np.asarray(doc["x_ns"])

    def append_records(self, records) -> int:
        return int(self._call("append_records", **_append_payload(records)))

    def expire_prefix(self, n_records: int) -> list[int]:
        return [
            int(i) for i in self._call("expire_prefix", n_records=n_records)
        ]

    # ------------------------------------------------------------------
    # Replication (the cluster coordinator's side)
    # ------------------------------------------------------------------
    def write(self, wop: str, payload: dict, write_id: str) -> dict:
        """Log and apply a cluster write here; its ``seq``, ``chain``
        and ``result``.

        The ``req_id`` derives from the write id, so a resend of the
        same write rides the server's idempotent-reply cache.
        """
        return self._call(
            wop, write_id=write_id, req_id=f"{write_id}:write", **payload
        )

    def apply_entries(self, head_seq, head_chain, entries=(), base=None) -> dict:
        """Ship a peer's entries (or base) here; the replica's verdict."""
        head = {"head_seq": int(head_seq), "head_chain": int(head_chain)}
        return self._call("apply_entries", **head, entries=list(entries), base=base)

    def wal_status(self) -> dict:
        return self._call("wal_status")

    def sync_range(self, from_seq: int) -> dict:
        return self._call("sync_range", from_seq=int(from_seq))

    # ------------------------------------------------------------------
    # Remote introspection
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._call("ping")

    def mechanisms(self) -> list[str]:
        return list(self._call("mechanisms"))

    def stats(self) -> dict:
        return self._call("stats")

    def transport_stats(self) -> dict:
        return self._call("transport_stats")

    def budget(self) -> dict | None:
        """The server's full ledger view (None when unmetered)."""
        doc = self._call("budget")
        return dict(doc) if isinstance(doc, Mapping) else doc

    @property
    def budget_remaining(self) -> float | None:
        doc = self._call("budget")
        if doc is None:
            return None
        if isinstance(doc, Mapping):
            remaining = doc.get("remaining")
            return None if remaining is None else float(remaining)
        # Pre-ledger-view servers replied with the bare remaining float.
        return float(doc)

    def close(self) -> None:
        """Tear down every thread's connection (idempotent).

        Sockets are ``shutdown()`` before ``close()``: shutdown wakes a
        thread blocked in ``recv`` on that socket (a bare close of the
        fd would not on Linux), so a mid-exchange failure in one thread
        cannot leave another hanging forever — it surfaces there as a
        transport error and the usual poisoned-backend ConnectionError.
        """
        with self._registry_lock:
            if self._closed:
                return
            self._closed = True
            socks, self._socks = self._socks, []
        for _, sock in socks:
            _close_socket(sock)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _close_socket(sock) -> None:
    """Shutdown-then-close: wakes any thread blocked in recv on it."""
    import socket as _socket

    try:
        sock.shutdown(_socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    try:
        sock.close()
    except OSError:  # pragma: no cover - platform-dependent
        pass


def _append_payload(records) -> dict:
    """Render an append for the wire: columns when columnar, else rows."""
    from repro.data.columnar import ColumnarDatabase

    if isinstance(records, ColumnarDatabase):
        columns = {}
        for name in records.column_names:
            column = np.asarray(records[name])
            if column.dtype.hasobject:
                return {"records": [dict(r) for r in records.iter_records()]}
            columns[name] = column
        return {"columns": columns}
    return {"records": [dict(r) for r in records]}
