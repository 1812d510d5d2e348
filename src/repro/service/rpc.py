"""The socket transport over :class:`repro.service.server.ReleaseServer`.

The multi-node piece the ROADMAP calls for: a curator runs
:class:`RpcServer` next to the data (``python -m repro.cli serve``);
analysts connect with :class:`repro.api.RemoteBackend` (usually via
``OsdpClient.connect``).  Everything on the wire is the canonical
format of :mod:`repro.api.wire` — length-prefixed JSON headers plus raw
ndarray frames, no pickle — so the server can treat clients, and
clients the server, as black boxes.

Protocol: each exchange is one framed request message
``{"op": <name>, ...}`` answered by one framed reply, either
``{"ok": <result>}`` or ``{"err": <error document>}``.  Ops:

=================  ====================================================
``ping``           liveness + server identification
``mechanisms``     registered mechanism names
``release``        one :class:`ReleaseRequest` -> response document
``release_batch``  a list of requests -> list of response documents;
                   a mid-batch budget overrun ships the charged prefix
                   (see ``BatchBudgetExceededError``) in the error
``true_histogram`` a binning spec -> the exact histogram (audit path)
``hist_counts``    a (binning, policy) spec pair -> this server's
                   merged ``{"x", "x_ns"}`` int64 count arrays (the
                   cluster coordinator's merge input)
``append_records`` new rows (list of records, or a columns mapping of
                   arrays) -> tail shard index; with a ``write_id`` (a
                   cluster write) -> its seq, chain and result
``expire_prefix``  drop the n oldest records -> touched shard indices
                   (or, with a ``write_id``, its seq, chain and result)
``apply_entries``  a peer's entries (and optional base), logged under
                   their own seqs toward its head ``(head_seq,
                   head_chain)`` -> ``applied`` / ``replayed`` /
                   ``behind`` / ``diverged``
``wal_status``     the endpoint's WAL cursor (``last_seq``, ``chain``,
                   ``snapshot_seq``, retained entries, record count)
``sync_range``     entries after a follower's ``from_seq`` — or the
                   full column state when the follower is too far
                   behind (or diverged ahead) — to ship to it
``stats``          the server's cache counters
``transport_stats`` the socket tier's counters (timeouts, replays,
                   drains, overload rejections, ...) plus per-op
                   latency percentiles (``op_latency``)
``budget``         the full ledger view: totals, per-entry
                   label/epsilon/policy/analyst rows, per-analyst
                   quota standing (None when unmetered)
=================  ====================================================

The five write-protocol ops, ``append_records`` through
``sync_range``, are one-line delegations to
:class:`repro.service.replica.Replica`, which owns the endpoint's WAL
and the whole durable write protocol; this module keeps the socket
loop, locking, admission, deadlines and idempotent replies.

Any request may additionally carry ``req_id`` (idempotency key: the
reply is cached and a retried id re-serves it without re-running the
op) and ``deadline`` (the client's remaining seconds of patience; an
op that would start after that budget has elapsed is refused with
``DeadlineExceeded`` instead of spending privacy budget).

Handling follows a **readers-writer discipline** (the one-big-lock
serialization of PR 4 is gone): the read-path ops — ``release``,
``release_batch``, ``true_histogram``, ``hist_counts``, ``stats``,
``budget``, ``ping``, ``mechanisms``, ``wal_status``, ``sync_range`` —
run concurrently under a shared lock, because every release is a
deterministic function of immutable column snapshots plus an rng seed
and the release server is internally thread-safe (caches behind a
short internal lock, noise sampling outside it, accountant charges
atomic).  Only the data mutations — ``append_records``,
``expire_prefix`` and ``apply_entries`` — take the exclusive side, so
an update never interleaves with an in-flight release.
``admission_limit`` (the CLI's ``--max-inflight``) is the one bound on
concurrency.  Responses remain bit-identical to calling
``ReleaseServer.handle`` in-process with the same request, which is
the contract the API tests pin; with an accountant, concurrent
analysts' charges compose in arrival order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import socket
import socketserver
import threading
import time
from collections import OrderedDict, deque

from repro.api.resilience import DeadlineExceeded, ServerOverloaded
from repro.api.wire import (
    WireError,
    error_to_wire,
    recv_frame_prefix,
    recv_message_body,
    request_from_wire,
    response_to_wire,
    send_message,
)
from repro.service.replica import Replica
from repro.service.server import ReleaseServer


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Many readers share the lock at once; a writer waits for the active
    readers to drain, holds the lock alone, and — being preferred —
    starves neither: once a writer is waiting, new readers queue
    behind it, so a steady stream of cheap reads cannot postpone an
    append forever.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Guard:
        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc_info):
            self._release()

    def read(self) -> "_Guard":
        """Context manager for the shared (read) side."""
        return self._Guard(self.acquire_read, self.release_read)

    def write(self) -> "_Guard":
        """Context manager for the exclusive (write) side."""
        return self._Guard(self.acquire_write, self.release_write)


class _Handler(socketserver.BaseRequestHandler):
    """One connection, many exchanges.

    Each exchange splits the read in two: blocking for the 4-byte
    length prefix is the connection's *idle* state (no message has been
    committed yet — a drain may cut the connection here), while reading
    the body after the prefix marks the exchange **in-flight** (the
    drain path lets it finish and be answered).  A corrupt frame gets
    an error reply and then drops the connection — after a framing
    failure the stream position is unknown, so continuing would desync
    silently.  Read timeouts bound how long a half-sent request may
    pin a handler thread.
    """

    def setup(self) -> None:
        super().setup()
        rpc: "RpcServer" = self.server.rpc  # type: ignore[attr-defined]
        if rpc.read_timeout is not None:
            self.request.settimeout(rpc.read_timeout)
        rpc._register_connection(self.request)

    def finish(self) -> None:
        self.server.rpc._unregister_connection(  # type: ignore[attr-defined]
            self.request
        )
        super().finish()

    def handle(self) -> None:
        rpc: "RpcServer" = self.server.rpc  # type: ignore[attr-defined]
        sock = self.request
        while True:
            try:
                header_len = recv_frame_prefix(sock)
            except TimeoutError:
                rpc._bump("read_timeouts")
                return
            except (WireError, EOFError, ConnectionError, OSError):
                return
            if not rpc._begin_exchange():
                return  # draining: refuse work that arrives now
            try:
                try:
                    message = recv_message_body(sock, header_len)
                except TimeoutError:
                    rpc._bump("read_timeouts")
                    return
                except WireError as exc:
                    rpc._bump("wire_errors")
                    try:
                        send_message(sock, {"err": error_to_wire(exc)})
                    except OSError:
                        pass
                    return
                except (EOFError, ConnectionError, OSError):
                    return
                reply = rpc.serve_message(message, time.monotonic())
                try:
                    send_message(sock, reply)
                except (BrokenPipeError, ConnectionError, OSError):
                    return
            finally:
                rpc._end_exchange()


class _ThreadedTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _IdemEntry:
    """A single-flight slot in the idempotent-reply cache."""

    __slots__ = ("done", "reply")

    def __init__(self):
        self.done = threading.Event()
        self.reply = None


class RpcServer:
    """Serve one :class:`ReleaseServer` on a TCP socket.

    ``port=0`` binds an ephemeral port (the loopback-test default);
    read the actual address back from :attr:`address`.  Use
    :meth:`start` for a background thread (tests, embedding) or
    :meth:`serve_forever` to block (the CLI).  The write ops go to
    :attr:`replica`, a :class:`~repro.service.replica.Replica` over
    ``server`` and ``wal``.

    Hardening knobs (all off/neutral by default so embedded and test
    uses are unchanged):

    * ``read_timeout`` — per-connection socket timeout: a peer that
      stalls mid-frame loses its connection after this many seconds
      instead of pinning a handler thread forever.
    * Requests may carry ``req_id`` (any string): the reply is cached
      and an identical ``req_id`` seen again — a client retry after an
      ambiguous transport failure — re-serves the cached reply instead
      of re-running the op, so a retried ``release`` never charges the
      accountant twice.  Concurrent duplicates are single-flighted.
      The cache keeps the most recent ``idempotency_limit`` settled
      replies.
    * Requests may carry ``deadline`` (seconds, the client's remaining
      budget at send time): if that much time has passed by the moment
      the op would start running, the server answers
      ``DeadlineExceeded`` instead of spending privacy budget on a
      response the caller has already abandoned.
    * :meth:`drain` — graceful shutdown: stop accepting, let in-flight
      exchanges finish (up to a grace period), then cut idle
      connections.  The CLI wires SIGTERM to this.
    * ``admission_limit`` — overload shedding: a bounded in-flight
      admission gate *ahead of* the readers-writer lock.  At most this
      many ops may be between admission and completion; excess work is
      refused immediately with a retryable
      :class:`~repro.api.resilience.ServerOverloaded` carrying an
      ``admission_retry_after`` hint, so a flooded endpoint degrades
      to fast refusals instead of queueing unboundedly behind the
      lock.  ``ping`` and ``transport_stats`` bypass the gate —
      operators must be able to observe an overloaded server.  An
      overload rejection is **evicted** from the idempotency cache:
      the refusal means the op never ran, so a retried ``req_id`` must
      re-attempt it rather than replay the refusal forever.
    """

    #: Recent per-op latency samples retained for the percentile view.
    LATENCY_WINDOW = 512

    #: Ops that bypass the admission gate: cheap introspection an
    #: operator needs precisely when the server is overloaded.
    ADMISSION_EXEMPT = frozenset({"ping", "transport_stats"})

    def __init__(
        self,
        server: ReleaseServer,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: float | None = None,
        idempotency_limit: int = 1024,
        wal=None,
        admission_limit: int | None = None,
        admission_retry_after: float = 0.05,
    ):
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be positive (or None)")
        if idempotency_limit < 1:
            raise ValueError("idempotency_limit must be at least 1")
        if admission_limit is not None and admission_limit < 1:
            raise ValueError("admission_limit must be at least 1 (or None)")
        if admission_retry_after <= 0:
            raise ValueError("admission_retry_after must be positive")
        self.release_server = server
        self.read_timeout = read_timeout
        # Every write — direct, a cluster write or a shipped entry —
        # goes through the replica's WAL (an in-memory one by default).
        self.replica = Replica(server, wal)
        self._lock = ReadWriteLock()
        self._tcp = _ThreadedTCPServer((host, port), _Handler)
        self._tcp.rpc = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = False
        self._closed = False
        # -- connection / in-flight bookkeeping (drain support) --------
        self._conn_cond = threading.Condition()
        self._connections: set = set()
        self._inflight = 0
        self._draining = False
        # -- idempotent replies ----------------------------------------
        self._idem_limit = idempotency_limit
        self._idem_lock = threading.Lock()
        self._idem: OrderedDict[str, _IdemEntry] = OrderedDict()
        # -- overload admission gate -----------------------------------
        self.admission_limit = admission_limit
        self.admission_retry_after = float(admission_retry_after)
        self._admission = (
            None
            if admission_limit is None
            else threading.BoundedSemaphore(admission_limit)
        )
        # -- transport counters ----------------------------------------
        self._stats_lock = threading.Lock()
        self.transport_stats: dict[str, int] = {
            "connections": 0,
            "exchanges": 0,
            "read_timeouts": 0,
            "wire_errors": 0,
            "idempotent_replays": 0,
            "deadline_rejections": 0,
            "overload_rejections": 0,
            "drains": 0,
            "aborted_in_flight": 0,
            "stuck_serve_threads": 0,
        }
        # -- per-op latency (op -> recent seconds, op -> total count) --
        self._op_latency: dict[str, deque] = {}
        self._op_counts: dict[str, int] = {}

    @property
    def wal(self):
        """The endpoint's write-ahead log (owned by :attr:`replica`)."""
        return self.replica.wal

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._stats_lock:
            self.transport_stats[counter] += by

    # ------------------------------------------------------------------
    # Connection / exchange accounting (the drain machinery)
    # ------------------------------------------------------------------
    def _register_connection(self, sock) -> None:
        self._bump("connections")
        with self._conn_cond:
            self._connections.add(sock)

    def _unregister_connection(self, sock) -> None:
        with self._conn_cond:
            self._connections.discard(sock)
            self._conn_cond.notify_all()

    def _begin_exchange(self) -> bool:
        """Claim an in-flight slot; refused once draining has begun."""
        with self._conn_cond:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def _end_exchange(self) -> None:
        with self._conn_cond:
            self._inflight -= 1
            self._conn_cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "RpcServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            name="repro-rpc-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        self._tcp.serve_forever()

    def drain(self, grace: float = 5.0) -> None:
        """Gracefully stop: finish in-flight reads, refuse new ones.

        Stops accepting connections, marks the server draining (an
        exchange whose length prefix arrives from now on is refused),
        waits up to ``grace`` seconds for in-flight exchanges to be
        answered, then cuts the remaining connections.  Exchanges still
        unfinished after the grace period are counted in
        ``transport_stats["aborted_in_flight"]``.
        """
        self._bump("drains")
        self._stop(grace)

    def close(self, grace: float = 5.0) -> None:
        """Shut down; equivalent to an unannounced :meth:`drain`."""
        self._stop(grace)

    def _stop(self, grace: float) -> None:
        with self._conn_cond:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        # shutdown() blocks forever if serve_forever never ran (its
        # completion event starts unset) — only call it when serving.
        if self._serving:
            self._tcp.shutdown()
        self._tcp.server_close()
        deadline = time.monotonic() + max(0.0, grace)
        with self._conn_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._bump("aborted_in_flight", self._inflight)
                    break
                self._conn_cond.wait(remaining)
            stragglers = list(self._connections)
        # Cut surviving connections: idle handlers blocked on a length
        # prefix wake with EOF/OSError and exit; past-grace in-flight
        # reads are severed rather than left to pin threads.
        for sock in stragglers:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                # Threads cannot be force-killed; the daemon flag means
                # it cannot outlive the process, so surface the event
                # loudly in stats instead of silently leaking it.
                self._bump("stuck_serve_threads")
            self._thread = None
        self.wal.close()

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Idempotent serving
    # ------------------------------------------------------------------
    def serve_message(self, message, received_at: float | None = None):
        """One request message -> one ``{"ok"|"err": ...}`` reply dict.

        Messages carrying a ``req_id`` are single-flighted and their
        replies cached: a duplicate (a retry after an ambiguous
        failure) waits for the original if it is still running, then
        receives the byte-identical cached reply — effectful ops run
        at most once per id.
        """
        self._bump("exchanges")
        req_id = message.get("req_id") if isinstance(message, dict) else None
        if req_id is None:
            return self._serve_once(message, received_at)
        entry, owner = None, False
        with self._idem_lock:
            entry = self._idem.get(str(req_id))
            if entry is None:
                entry, owner = _IdemEntry(), True
                self._idem[str(req_id)] = entry
            else:
                self._idem.move_to_end(str(req_id))
        if not owner:
            entry.done.wait()
            self._bump("idempotent_replays")
            return entry.reply
        try:
            entry.reply = self._serve_once(message, received_at)
        finally:
            # Two kinds of reply must not stick in the cache: a crash
            # before any reply was produced, and an overload rejection
            # — the gate refused to *run* the op, so a retried req_id
            # must re-attempt it, not replay the refusal forever.
            if entry.reply is None or _is_overload_reply(entry.reply):
                with self._idem_lock:
                    self._idem.pop(str(req_id), None)
            entry.done.set()
        self._prune_idem()
        return entry.reply

    def _serve_once(self, message, received_at: float | None):
        op = message.get("op") if isinstance(message, dict) else None
        start = time.perf_counter()
        try:
            return {"ok": self.dispatch(message, received_at=received_at)}
        except BaseException as exc:  # ship the failure, keep serving
            return {"err": error_to_wire(exc)}
        finally:
            if isinstance(op, str):
                self._record_latency(op, time.perf_counter() - start)

    def _record_latency(self, op: str, seconds: float) -> None:
        with self._stats_lock:
            window = self._op_latency.get(op)
            if window is None:
                window = self._op_latency[op] = deque(
                    maxlen=self.LATENCY_WINDOW
                )
                self._op_counts[op] = 0
            window.append(seconds)
            self._op_counts[op] += 1

    def _latency_view(self) -> dict:
        """Per-op p50/p95/p99 (seconds) over the recent sample window."""
        with self._stats_lock:
            snapshot = {
                op: (self._op_counts[op], sorted(window))
                for op, window in self._op_latency.items()
            }
        return {
            op: {
                "count": count,
                "p50": _percentile(samples, 0.50),
                "p95": _percentile(samples, 0.95),
                "p99": _percentile(samples, 0.99),
            }
            for op, (count, samples) in snapshot.items()
        }

    def _prune_idem(self) -> None:
        """Evict oldest *settled* entries beyond the cache bound.

        Pending entries are never evicted — they are the single-flight
        rendezvous between an in-progress op and its duplicates.
        """
        with self._idem_lock:
            if len(self._idem) <= self._idem_limit:
                return
            for req_id in list(self._idem):
                if len(self._idem) <= self._idem_limit:
                    break
                if self._idem[req_id].done.is_set():
                    del self._idem[req_id]

    def _check_deadline(self, message, received_at: float | None) -> None:
        budget = message.get("deadline")
        if budget is None or received_at is None:
            return
        if time.monotonic() - received_at >= float(budget):
            self._bump("deadline_rejections")
            raise DeadlineExceeded(
                f"request abandoned: its {float(budget):.3f}s deadline "
                "expired before the server could start it"
            )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    #: Ops served concurrently under the shared lock: pure functions of
    #: the current column snapshot (plus an rng seed) or counter reads.
    READ_OPS = frozenset(
        {
            "ping",
            "mechanisms",
            "release",
            "release_batch",
            "true_histogram",
            "hist_counts",
            "stats",
            "transport_stats",
            "budget",
            # wal_status and sync_range read the WAL + column state —
            # consistent under the shared side because every mutation
            # takes the exclusive side.
            "wal_status",
            "sync_range",
        }
    )
    #: Ops that mutate the data; exclusive — no release may be mid-
    #: flight while shards extend or trim.
    WRITE_OPS = frozenset({"append_records", "expire_prefix", "apply_entries"})

    def dispatch(self, message, received_at: float | None = None):
        """Serve one decoded request message; returns the ``ok`` payload.

        The admission gate (when configured) is claimed *before* the
        readers-writer lock: an op beyond the in-flight bound is
        refused in microseconds with :class:`ServerOverloaded` instead
        of joining an unbounded queue behind the lock.  The carried
        deadline (if any) is checked *after* lock acquisition: a
        request that waited out its budget behind a writer is rejected
        at the moment work — and any accountant charge — would
        otherwise begin.
        """
        if not isinstance(message, dict) or "op" not in message:
            raise ValueError("malformed message: expected {'op': ...}")
        op = message["op"]
        if op not in self.READ_OPS and op not in self.WRITE_OPS:
            raise ValueError(f"unknown op {op!r}")
        with self._admit(op):
            if op in self.READ_OPS:
                with self._lock.read():
                    self._check_deadline(message, received_at)
                    return self._dispatch_read(op, message)
            with self._lock.write():
                self._check_deadline(message, received_at)
                return self._dispatch_write(op, message)

    def _admit(self, op: str):
        """Claim an admission slot, or refuse the op outright; returns
        the context that gives the slot back."""
        gate = self._admission
        if gate is None or op in self.ADMISSION_EXEMPT:
            return _NO_GATE
        if not gate.acquire(blocking=False):
            self._bump("overload_rejections")
            raise ServerOverloaded(
                f"server overloaded: {self.admission_limit} ops already "
                f"in flight; retry after {self.admission_retry_after:.3g}s",
                retry_after=self.admission_retry_after,
            )
        admitted = contextlib.ExitStack()
        admitted.callback(gate.release)
        return admitted

    def _dispatch_read(self, op: str, message):
        server = self.release_server
        if op == "ping":
            from repro.mechanisms import kernels

            return {
                "server": "repro.service.rpc",
                "n_shards": server.n_shards,
                "n_records": len(server.db),
                # always "numpy"; kept because bench/ and
                # scripts/bench_record.py record it with the host
                "kernel_backend": kernels.active_backend(),
            }
        if op == "mechanisms":
            return server._registry.names()
        if op == "release":
            request = _stamp_analyst(
                request_from_wire(message["request"]), message
            )
            return response_to_wire(server.handle(request))
        if op == "release_batch":
            requests = [
                _stamp_analyst(request_from_wire(doc), message)
                for doc in message["requests"]
            ]
            return [
                response_to_wire(r) for r in server.handle_batch(requests)
            ]
        if op == "true_histogram":
            return server.true_histogram(message["binning"])
        if op == "hist_counts":
            x, x_ns = server.histogram_counts(
                message["binning"], message["policy"]
            )
            return {"x": x, "x_ns": x_ns}
        if op == "stats":
            return server.stats.as_dict()
        if op == "transport_stats":
            with self._stats_lock:
                stats: dict = dict(self.transport_stats)
            stats["op_latency"] = self._latency_view()
            return stats
        if op == "wal_status":
            return self.replica.wal_status()
        if op == "sync_range":
            return self.replica.sync_range(message["from_seq"])
        assert op == "budget"
        return server.budget_view()

    def _dispatch_write(self, op: str, message):
        if op == "apply_entries":
            head = (message["head_seq"], message["head_chain"])
            entries = message.get("entries") or ()
            return self.replica.apply_entries(*head, entries, message.get("base"))
        # append_records / expire_prefix: the message carries the payload
        return self.replica.write(op, message, message.get("write_id"))


#: The admission context of an ungated op (reusable: it holds nothing).
_NO_GATE = contextlib.nullcontext()


def _percentile(sorted_samples, q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return float(sorted_samples[rank - 1])


def _is_overload_reply(reply) -> bool:
    if not isinstance(reply, dict):
        return False
    err = reply.get("err")
    return isinstance(err, dict) and err.get("kind") == "server_overloaded"


def _stamp_analyst(request, message):
    """Apply the message-level ``analyst`` credential to a release
    request that does not carry its own (the request's wins)."""
    analyst = message.get("analyst")
    if analyst and not request.analyst:
        return dataclasses.replace(request, analyst=str(analyst))
    return request


def connect(host: str, port: int, timeout: float | None = None) -> socket.socket:
    """One connected TCP socket to an :class:`RpcServer` (client side)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
