"""Shard-resident worker runtime: persistent processes, specs on the wire.

Counting a :class:`repro.data.sharding.ShardedColumnarDatabase` in
other processes by shipping ``(fn, shard)`` per call re-pickles every
shard's columns on every call — at million-record scale the wire cost
dwarfs the count kernels it parallelizes.  :class:`ShardWorkerPool`
inverts the data flow:

* **Columns never cross the wire.**  Each shard's buffers live in
  :class:`repro.data.store.ColumnStore` shared-memory segments and the
  worker receives only a ~100-byte **descriptor**: it attaches the
  segments by name — zero copy, O(1) startup bytes regardless of the
  record count, and co-hosted pools over a shared database
  (``sharded.share()``) reference one physical copy.  A shard the
  segments cannot hold (:func:`shard_shm_eligible`: an object-dtype
  column, no POSIX shared memory) is refused
  with :class:`TypeError`; :class:`repro.api.backends.ShardedBackend`
  serves such a table from the parent instead.  Incremental updates
  (:meth:`append_shard_chunk`, :meth:`expire_shard_prefix`) ship **no
  rows**: an append extends the headroom segments in place (the worker
  re-reads the length headers) or remaps the shard into fresh segments
  (the worker attaches their descriptor), and an expire is a view trim
  on both sides.
* **One question, asked in specs.**  A read asks a worker for one
  thing: its shard's ``(x, x_ns)`` count pair for a binning and a
  policy, sent as their wire specs
  (:func:`repro.queries.histogram.binning_to_spec`,
  :func:`repro.core.policy_language.policy_to_spec`); the worker
  rebuilds both and counts its resident columns.  Responses are the
  O(bins) pair.  Per-request traffic is therefore independent of the
  shard size (``stats`` proves it: ``request_bytes`` vs
  ``startup_bytes``).
* **A worker holds a shard, not a cache.**  Every request evaluates
  its spec on the resident shard and returns; a write swaps the shard.
  The one cache of ``(x, x_ns)`` pairs, and the one carry of them
  across a write, belong to :class:`repro.service.server.ReleaseServer`
  — a repeat sent straight at a pool recomputes, as on every other
  database flavour.  A pair is ``_shard_histogram_counts`` on the
  shard: from its distinct rows when ``_summary_counts`` can, from one
  fused pass over the records (``_scan_counts``) otherwise — the same
  bytes; ``worker_cache_stats()`` counts pairs, routes and summaries.
* **Failover, not failure.**  The parent keeps each shard's segments
  and prefix trim; a worker that dies mid-request is respawned onto
  them and the request resent, so a killed process degrades
  to a recompute — never a crashed request.  Fan-out replies drain in
  arrival order (:func:`multiprocessing.connection.wait`) and
  reassemble into shard order, overlapping parent-side
  deserialization/merge with the slower shards' compute.

The pool plugs in behind ``ShardedColumnarDatabase.shard_counts`` as
the database's executor (:meth:`ShardWorkerPool.map_resident`).  Every
other sharded operation — masks, bin indices, selections — runs in the
parent over the shards it holds, the same bytes the workers hold; so
does a count pair whose binning or policy has no spec (an opaque
predicate never crosses the pipe).  Every pair is **bit-identical** to
the parent's: the spec round-trip is lossless and the kernels run
unchanged, just in another process.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.policy import Policy
from repro.core.policy_language import policy_from_spec, policy_to_spec
from repro.data.columnar import ColumnarDatabase
from repro.data.store import ColumnStore, placeable, shm_available

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

# Growth factor for segments created (or remapped) on the append path:
# fresh segments over-allocate by this fraction of their live size so
# subsequent appends extend in place behind the length headers
# (``ColumnStore.try_append``) instead of remapping every call.
APPEND_HEADROOM = 1.0


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


class _WorkerState:
    """One worker's resident shard plus its answer counters.

    Nothing else survives a request: the release server is the caching
    tier, so a worker's memory is its shard (and the shard's
    distinct-row summary, once an eligible request has built it).
    """

    def __init__(self, shard: ColumnarDatabase):
        self.shard = shard
        self.counters = {
            # constant: a worker caches no pair (the key stays for the
            # readers of ``worker_cache_stats()`` that divide by it)
            "counts_hits": 0,
            # count pairs computed
            "counts_misses": 0,
            # of those, pairs answered from the shard's distinct rows,
            # not a scan; summaries built (one per shard version)
            "summary_answers": 0,
            "summary_builds": 0,
        }

    def hist_counts(
        self, binning_spec: dict, policy_spec: dict
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_shard_histogram_counts`` on the shard, counting the route."""
        from repro.queries.histogram import (
            HistogramQuery,
            _scan_counts,
            _summary_counts,
            binning_from_spec,
        )

        query = HistogramQuery(binning_from_spec(binning_spec))
        policy = policy_from_spec(policy_spec)
        self.counters["counts_misses"] += 1
        built = self.shard.summary_built
        pair = _summary_counts(self.shard, query, policy)
        self.counters["summary_builds"] += self.shard.summary_built != built
        if pair is None:
            return _scan_counts(self.shard, query, policy)
        self.counters["summary_answers"] += 1
        return pair

    def expire(self, n: int) -> int:
        """Drop the first ``n`` resident records: a view slice."""
        self.shard = self.shard.slice_records(n, len(self.shard))
        return len(self.shard)


def _trimmed(full: ColumnarDatabase, trim: int) -> ColumnarDatabase:
    """The live view of a segment-backed shard: past the expired prefix.

    Expired prefixes never move bytes: the parent serves views past the
    dead records and a worker reproduces the same view by slicing what
    it attached (or refreshed).
    """
    return full.slice_records(trim, len(full)) if trim else full


def _worker_main(conn) -> None:
    """The worker loop: receive pickled requests, answer until 'stop'."""
    state: _WorkerState | None = None
    store: ColumnStore | None = None

    def swap_store(new_store: ColumnStore | None) -> None:
        nonlocal store
        if store is not None:
            store.close()  # attached, never the owner: drops views only
        store = new_store

    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except EOFError:
            swap_store(None)
            return
        op = msg[0]
        if op == "stop":
            swap_store(None)
            conn.send_bytes(pickle.dumps(("ok", None), _PICKLE_PROTOCOL))
            return
        try:
            if op == "shard_shm":
                swap_store(ColumnStore.attach(msg[1]))
                state = _WorkerState(_trimmed(store.database, msg[2]))
                result = len(state.shard)
            elif state is None:
                raise RuntimeError("worker has no resident shard")
            elif op == "append_shm":
                # The parent remapped the extended shard into fresh
                # segments; attaching them is the whole append.
                swap_store(ColumnStore.attach(msg[1]))
                state.shard = store.database
                result = len(state.shard)
            elif op == "extend_shm":
                # The parent extended the shared headroom segments in
                # place; re-reading the length headers is the whole
                # append.  msg[1] is the accumulated prefix trim.
                state.shard = _trimmed(store.refresh(), msg[1])
                result = len(state.shard)
            elif op == "hist_counts":
                result = state.hist_counts(msg[1], msg[2])
            elif op == "expire":
                result = state.expire(msg[1])
            elif op == "cache_stats":
                result = dict(state.counters)
            else:
                raise ValueError(f"unknown worker op {op!r}")
            reply = ("ok", result)
        except BaseException as exc:  # ship the failure, keep serving
            reply = ("err", f"{type(exc).__name__}: {exc}")
        conn.send_bytes(pickle.dumps(reply, _PICKLE_PROTOCOL))


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class WorkerError(RuntimeError):
    """A shard worker failed to serve a request."""


class WorkerDied(WorkerError):
    """A shard worker process went away mid-request (pipe EOF/break).

    Internal signal of the failover path: the pool catches it, respawns
    the worker from the parent's resident shard copy, and retries the
    request — the caller only ever sees it when respawning itself keeps
    failing.
    """


@dataclass
class WorkerPoolStats:
    """Wire-traffic accounting, the proof of the runtime's contract.

    ``startup_bytes`` is the startup messages — a ~100-byte segment
    descriptor per shard, plus one per respawn — so O(1)-startup claims
    are checkable; ``request_bytes`` is everything the parent sent
    after startup (specs, descriptors and trims only — it must not
    scale with the resident shard size) and ``response_bytes`` the
    result arrays that came back.
    """

    startup_bytes: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    requests: int = 0
    last_request_bytes: int = 0
    respawns: int = 0
    forced_kills: int = 0
    in_place_appends: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def shard_shm_eligible(shard: ColumnarDatabase) -> bool:
    """Can a worker pool serve this shard from shared-memory segments?

    The one eligibility rule: :class:`ShardWorkerPool` refuses a shard
    that fails it, and :class:`repro.api.backends.ShardedBackend` then
    serves the table from the parent.  POSIX shared memory must be
    available, and the shard either already backed by an open store or
    :func:`~repro.data.store.placeable` (fixed-width or ragged columns,
    no object dtype) — the columns are the whole shard, so every such
    table, a ``from_records`` or trajectory one included, gets a pool.
    """
    if not shm_available():
        return False
    if shard.store is not None and not shard.store.closed:
        return True
    return placeable(shard)


class ShardWorkerPool:
    """Persistent worker processes, one per shard, over shared segments.

    Build one from the shards (or a sharded database) and install it as
    the database's executor::

        pool = ShardWorkerPool(sharded.shards)
        db = sharded.with_executor(pool)   # shard_counts now runs on it

    See the module docstring for the wire contract.  Use as a context
    manager or call :meth:`close`.
    """

    def __init__(self, shards):
        import multiprocessing

        shard_list = tuple(getattr(shards, "shards", shards))
        if not shard_list:
            raise ValueError("need at least one shard")
        for i, shard in enumerate(shard_list):
            if not shard_shm_eligible(shard):
                raise TypeError(
                    f"shard {i} cannot live in shared-memory segments "
                    "(object-dtype columns or no POSIX shared memory); "
                    "serve it without a worker pool"
                )
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.stats = WorkerPoolStats()
        self._resident: list[ColumnarDatabase] = list(shard_list)
        # Per-shard segment state: the ColumnStore whose segments the
        # worker attached, whether this pool created it (and must
        # unlink it), and the prefix trim a respawned worker must
        # re-apply after attaching (expires are view slices, never
        # segment rewrites).
        self._stores: list[ColumnStore] = []
        self._owned: list[bool] = []
        self._trim: list[int] = [0] * len(shard_list)
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            for shard in shard_list:
                # A shard already shm-backed is referenced in place —
                # one physical copy shared with the parent and any
                # co-hosted pool — and never unlinked by this pool.
                existing = shard.store
                owned = existing is None or existing.closed
                self._stores.append(
                    ColumnStore.place(shard) if owned else existing
                )
                self._owned.append(owned)
            for _ in shard_list:
                parent_conn, proc = self._spawn_process()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            payloads = [
                self._startup_payload(i) for i in range(len(shard_list))
            ]
            self.stats.startup_bytes = sum(len(p) for p in payloads)
            for conn, payload in zip(self._conns, payloads):
                conn.send_bytes(payload)
            for conn in self._conns:
                self._receive(conn)
        except BaseException:
            self.close()
            raise

    def _startup_payload(self, index: int) -> bytes:
        """The startup message: the shard's segment descriptor and trim."""
        message = (
            "shard_shm", self._stores[index].descriptor(), self._trim[index]
        )
        return pickle.dumps(message, _PICKLE_PROTOCOL)

    def _spawn_process(self):
        """Start one worker process; returns its (parent pipe, process)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._procs)

    def close(self) -> None:
        """Stop the workers, release the pipes and the shm segments.

        Idempotent.  Only the segments this pool *created* are
        unlinked; a shard that arrived already shm-backed
        (``sharded.share()``) belongs to its own store — co-hosted
        pools and the parent keep serving from it.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send_bytes(pickle.dumps(("stop",), _PICKLE_PROTOCOL))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            self._reap(proc)
        for conn in self._conns:
            conn.close()
        for store, owned in zip(self._stores, self._owned):
            if owned:
                store.unlink()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _send_payload(self, worker: int, payload: bytes) -> None:
        if self._closed:
            raise WorkerError("pool is closed")
        try:
            self._conns[worker].send_bytes(payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(f"shard worker {worker} died mid-send") from exc
        self.stats.request_bytes += len(payload)
        self.stats.last_request_bytes = len(payload)
        self.stats.requests += 1

    def _receive(self, conn):
        status, value = self._receive_any(conn)
        if status != "ok":
            raise WorkerError(value)
        return value

    def _receive_any(self, conn) -> tuple[str, object]:
        try:
            raw = conn.recv_bytes()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise WorkerDied("shard worker died") from exc
        self.stats.response_bytes += len(raw)
        return pickle.loads(raw)

    def _reap(self, proc, grace: float = 5.0, polite: bool = True) -> None:
        """Collect one worker process, escalating instead of leaking.

        [polite] join → terminate (SIGTERM) → kill (SIGKILL), each
        bounded by ``grace`` seconds, so a wedged worker can never
        linger as a silent zombie holding its pipe and shm
        attachments; an escalation to SIGKILL is surfaced in
        ``stats.forced_kills``.  ``polite=False`` (the respawn path,
        where the worker is already presumed dead or wedged) skips the
        initial wait.
        """
        if polite:
            proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace)
        if proc.is_alive():  # pragma: no cover - needs a SIGTERM-immune child
            proc.kill()
            proc.join(timeout=grace)
            self.stats.forced_kills += 1

    def _respawn(self, index: int) -> None:
        """Replace a dead worker with a fresh process holding its shard.

        The replacement attaches the shard's segments and re-applies
        its prefix trim, so it starts from the parent's last committed
        state, degrading the retried request to a recompute — never a
        crash.
        """
        try:
            self._conns[index].close()
        except OSError:  # pragma: no cover - platform-dependent
            pass
        self._reap(self._procs[index], polite=False)
        conn, proc = self._spawn_process()
        self._conns[index] = conn
        self._procs[index] = proc
        payload = self._startup_payload(index)
        self.stats.startup_bytes += len(payload)
        conn.send_bytes(payload)
        self._receive(conn)
        self.stats.respawns += 1

    def _send_with_failover(self, worker: int, payload: bytes) -> None:
        try:
            self._send_payload(worker, payload)
        except WorkerDied:
            self._respawn(worker)
            self._send_payload(worker, payload)

    def _request_one(self, index: int, message: tuple):
        """One request/reply exchange with a single worker, with failover.

        A worker that dies mid-exchange is respawned from the parent's
        resident copy and the request is resent once.  Respawning
        resets the worker to the parent's last committed state, so a
        death *after* applying a mutating request (append/expire) but
        before replying cannot double-apply it.
        """
        payload = pickle.dumps(message, _PICKLE_PROTOCOL)
        try:
            self._send_payload(index, payload)
            return self._receive(self._conns[index])
        except WorkerDied:
            self._respawn(index)
            self._send_payload(index, payload)
            return self._receive(self._conns[index])

    def _round_trip(self, request: tuple, workers: Sequence[int]) -> list:
        """Fan one request out, drain replies as they arrive, keep order.

        The payload is pickled once and fanned out (the request is the
        same for every worker).  Replies are consumed in *arrival*
        order via :func:`multiprocessing.connection.wait` — the parent
        deserializes fast shards' responses while slow shards still
        compute — and reassembled into worker order at the end, so the
        overlap never reorders results.  A worker that dies mid-request
        is respawned from the parent's resident shard copy and the
        request resent (a retried spec request recomputes —
        bit-identical, just slower).  Every live reply is
        drained before a worker-reported failure is raised — leaving
        responses queued in a pipe would corrupt the next request's
        pairing, so one failing shard must not strand the others'.
        """
        from multiprocessing import connection as _mp_connection

        payload = pickle.dumps(request, _PICKLE_PROTOCOL)
        workers = list(workers)
        results: dict[int, object] = {}
        errors: list[str] = []
        pending = set()
        for worker in workers:
            try:
                self._send_with_failover(worker, payload)
                pending.add(worker)
            except WorkerError as exc:
                # The worker (and its replacement) could not even take
                # the request.  Record the failure and keep fanning out:
                # raising here would strand the already-sent workers'
                # replies in their pipes and desync the next request.
                errors.append(f"shard worker {worker}: {exc}")
        deaths = dict.fromkeys(workers, 0)
        while pending:
            by_conn = {self._conns[w]: w for w in pending}
            for conn in _mp_connection.wait(list(by_conn)):
                worker = by_conn[conn]
                try:
                    status, value = self._receive_any(conn)
                except WorkerDied:
                    deaths[worker] += 1
                    if deaths[worker] > 2:
                        pending.discard(worker)
                        errors.append(
                            f"shard worker {worker} kept dying after respawn"
                        )
                        continue
                    try:
                        self._respawn(worker)
                        self._send_payload(worker, payload)
                    except WorkerError as exc:
                        # Respawning (or the resend) itself failed —
                        # give up on this worker only; the others'
                        # replies must still drain.
                        pending.discard(worker)
                        errors.append(
                            f"shard worker {worker} failed to respawn: {exc}"
                        )
                    continue
                pending.discard(worker)
                if status != "ok":
                    errors.append(value)
                else:
                    results[worker] = value
        if errors:
            raise WorkerError(errors[0])
        return [results[w] for w in workers]

    def worker_cache_stats(self) -> list[dict[str, int]]:
        """Each worker's answer counters, in worker order.

        ``counts_misses`` is the pairs computed, ``summary_answers``
        those counted from the distinct rows, ``summary_builds`` the
        summaries built; ``counts_hits`` is always 0 (a worker caches
        no pair — the release server does).
        """
        return self._round_trip(("cache_stats",), range(self.n_workers))

    # ------------------------------------------------------------------
    # The executor face seen by ShardedColumnarDatabase.shard_counts
    # ------------------------------------------------------------------
    def resident_matches(self, shards: Sequence[ColumnarDatabase]) -> bool:
        """True when ``shards`` are exactly the resident shard objects."""
        return len(shards) == len(self._resident) and all(
            a is b for a, b in zip(shards, self._resident)
        )

    def map_resident(
        self,
        shards: Sequence[ColumnarDatabase],
        query,
        policy: Policy,
        indices: Sequence[int] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each resident shard's ``(x, x_ns)`` pair, from the workers.

        ``shards`` must be the pool's resident shard objects (the
        sharded database passes its own) — a pool cannot answer for
        data it does not hold.  ``indices`` restricts the request to a
        subset of workers (the refill after an incremental update).  A
        binning or policy without a wire spec raises
        :class:`repro.core.policy_language.PolicySpecError` before
        anything is sent.
        """
        from repro.queries.histogram import binning_to_spec

        shards = tuple(getattr(shards, "shards", shards))
        if not self.resident_matches(shards):
            raise WorkerError(
                "database shards are not this pool's resident shards; "
                "rebuild the pool (or route updates through the "
                "database so the pool sees them)"
            )
        request = (
            "hist_counts",
            binning_to_spec(query.binning),
            policy_to_spec(policy),
        )
        workers = range(self.n_workers) if indices is None else indices
        return self._round_trip(request, workers)

    # ------------------------------------------------------------------
    # Incremental updates (driven by ShardedColumnarDatabase)
    # ------------------------------------------------------------------
    def append_shard_chunk(
        self, index: int, chunk: ColumnarDatabase, tail: ColumnarDatabase
    ) -> ColumnarDatabase:
        """Extend worker ``index``'s shard by the appended chunk.

        ``tail`` is the parent's current last shard; the return value is
        the extended shard the database must commit — the pool records
        the same object so the residency check keeps passing after the
        update (worker and parent extend in lockstep).  No rows cross
        the pipe: the shard **extends in place** when its headroom
        segments still have capacity for the chunk — the parent writes
        the new values past the live length, bumps the length headers,
        and the worker re-reads the headers (no new segments, no
        re-attach, O(chunk) on the parent, O(1) on the worker).
        Otherwise the shard is **remapped**: the extended columns are
        placed into fresh headroom segments (``APPEND_HEADROOM`` spare
        capacity, so the *next* appends extend in place), the worker
        attaches them by descriptor and the old segments are unlinked.
        A chunk the segments cannot hold (an object-dtype column) raises
        :class:`TypeError` from :meth:`ColumnStore.place` before
        anything commits.
        """
        committed = self._extend_in_place(index, chunk)
        if committed is not None:
            return committed
        placed = ColumnStore.place(
            ColumnarDatabase.concat([tail, chunk]), headroom=APPEND_HEADROOM
        )
        try:
            n = self._request_one(index, ("append_shm", placed.descriptor()))
            if n != len(placed.database):
                raise WorkerError(
                    f"worker {index} shard has {n} records after append, "
                    f"parent expects {len(placed.database)}"
                )
        except BaseException:
            placed.unlink()
            raise
        old_store, old_owned = self._stores[index], self._owned[index]
        self._stores[index], self._owned[index] = placed, True
        self._trim[index] = 0
        self._resident[index] = placed.database
        if old_owned:
            # Existing mappings (this parent's views, other attachers)
            # stay valid after unlink; only the name goes away.
            old_store.unlink()
        return placed.database

    def _extend_in_place(
        self, index: int, chunk: ColumnarDatabase
    ) -> ColumnarDatabase | None:
        """Extend worker ``index``'s headroom segments by ``chunk``.

        Returns the committed (trim-sliced) extended shard, or ``None``
        when the segments lack headers or capacity for the chunk — the
        caller falls back to the remap path.  On a worker-reported
        failure the length headers roll back to the snapshot, so the
        segments never advance past the last committed state (the bytes
        past the rolled-back lengths are unreferenced and the next
        append overwrites them).
        """
        store = self._stores[index]
        before = store.database
        snapshot = store.length_snapshot()
        extended = store.try_append(chunk)
        if extended is None:
            return None
        trim = self._trim[index]
        committed = _trimmed(extended, trim)
        try:
            n = self._request_one(index, ("extend_shm", trim))
            if n != len(committed):
                raise WorkerError(
                    f"worker {index} shard has {n} records after extend, "
                    f"parent expects {len(committed)}"
                )
        except BaseException:
            store.restore_lengths(snapshot)
            store.database = before
            raise
        self._resident[index] = committed
        self.stats.in_place_appends += 1
        return committed

    def expire_shard_prefix(
        self, index: int, n: int, new_shard: ColumnarDatabase
    ) -> None:
        """Drop the first ``n`` records of worker ``index``'s shard.

        Pure view arithmetic on both sides: the parent's ``new_shard``
        slices past the expired prefix and the worker slices its
        resident (possibly segment-backed) arrays the same way — no
        bytes move and no segments are rewritten.  The accumulated trim
        is recorded so a respawned worker re-applies it after
        attaching.
        """
        remaining = self._request_one(index, ("expire", int(n)))
        if remaining != len(new_shard):
            raise WorkerError(
                f"worker {index} shard has {remaining} records after "
                f"expire, parent expects {len(new_shard)}"
            )
        self._trim[index] += int(n)
        self._resident[index] = new_shard
