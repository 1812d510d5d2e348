"""Shard-resident worker runtime: persistent processes, specs on the wire.

Evaluating a :class:`repro.data.sharding.ShardedColumnarDatabase` in
other processes by shipping ``(fn, shard)`` per call re-pickles every
shard's columns on every ``map_shards`` — at million-record scale the
wire cost dwarfs the mask kernels it parallelizes.
:class:`ShardWorkerPool` inverts the data flow:

* **Columns cross the wire once — or not at all.**  By default (and
  whenever the platform offers POSIX shared memory), each shard's
  buffers are placed into :class:`repro.data.store.ColumnStore`
  shared-memory segments and the worker receives only a ~100-byte
  **descriptor**: it attaches the segments by name — zero copy, O(1)
  startup bytes regardless of the record count, and co-hosted pools
  over a shared database (``sharded.share()``) reference one physical
  copy.  Columns that cannot place (object dtype) fall back to the
  one-time pickle shipment; ``shm=False`` forces it.  Incremental
  updates (:meth:`append_shard_chunk`, :meth:`expire_shard_prefix`)
  ship only what the worker lacks: a heap append ships the chunk (the
  worker has no other copy); an shm append ships **no rows** — a
  descriptor of the fresh segments when the shard was remapped, the
  prefix trim when the headroom segments were extended in place — and
  an expire is a pure view trim on both sides.
* **Requests are specs.**  A mask, bin-index, histogram or
  ``(x, x_ns)`` request is a small dict built from the policy/binning
  wire format (:func:`repro.core.policy_language.policy_to_spec`,
  :func:`repro.queries.histogram.binning_to_spec`); the worker rebuilds
  the object and evaluates it against its resident columns.  Responses
  are result arrays only.  Per-request traffic is therefore independent
  of the shard size (``stats`` proves it: ``request_bytes`` vs
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
* **Failover, not failure.**  The parent keeps the authoritative
  resident-shard copies; a worker that dies mid-request is respawned
  from its copy and the request resent, so a killed process degrades
  to a recompute — never a crashed request.  Fan-out replies drain in
  arrival order (:func:`multiprocessing.connection.wait`) and
  reassemble into shard order, overlapping parent-side
  deserialization/merge with the slower shards' compute.

The pool plugs in behind ``ShardedColumnarDatabase.map_shards`` as an
executor: callables the pool recognizes (``Policy.evaluate_batch``,
``binning.bin_indices``, the histogram partials of
:mod:`repro.queries.histogram` and :mod:`repro.data.sharding`) are
translated to spec requests; anything else falls back to pickling the
callable itself (still without re-shipping the shard).  Every result is
**bit-identical** to serial ``map_shards``: the spec round-trip is
lossless and the kernels run unchanged, just in another process.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.policy import Policy, SpecUnsupported
from repro.core.policy_language import (
    PolicySpecError,
    policy_from_spec,
    policy_to_spec,
)
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

    def mask(self, spec: dict) -> np.ndarray:
        return policy_from_spec(spec).evaluate_batch(self.shard)

    def bin_indices(self, spec: dict) -> np.ndarray:
        from repro.queries.histogram import binning_from_spec

        return binning_from_spec(spec).bin_indices(self.shard)

    def histogram(self, binning_spec: dict, n_bins: int) -> np.ndarray:
        from repro.queries.histogram import binning_from_spec

        return self.shard.histogram(binning_from_spec(binning_spec), n_bins)

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

    def append(self, chunk: ColumnarDatabase) -> int:
        """Extend the resident shard by the chunk (the heap path)."""
        self.shard = ColumnarDatabase.concat([self.shard, chunk])
        return len(self.shard)

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
            if op == "shard":
                swap_store(None)
                state = _WorkerState(msg[1])
                result = len(state.shard)
            elif op == "shard_shm":
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
                if store is None:
                    raise RuntimeError(
                        "extend_shm without attached segments"
                    )
                state.shard = _trimmed(store.refresh(), msg[1])
                result = len(state.shard)
            elif op == "mask":
                result = state.mask(msg[1])
            elif op == "bin_indices":
                result = state.bin_indices(msg[1])
            elif op == "hist_counts":
                result = state.hist_counts(msg[1], msg[2])
            elif op == "histogram":
                result = state.histogram(msg[1], msg[2])
            elif op == "call":
                result = msg[1](state.shard)
            elif op == "append":
                result = state.append(msg[1])
            elif op == "expire":
                result = state.expire(msg[1])
            elif op == "cache_stats":
                result = dict(state.counters)
            else:
                raise ValueError(f"unknown worker op {op!r}")
            reply = ("ok", result)
        except BaseException as exc:  # ship the failure, keep serving
            reply = ("err", f"{type(exc).__name__}: {exc}")
        try:
            payload = pickle.dumps(reply, _PICKLE_PROTOCOL)
        except Exception as exc:
            # An unpicklable result (possible on the generic "call"
            # path) must not kill the worker — ship the failure too.
            payload = pickle.dumps(
                ("err", f"unpicklable result: {type(exc).__name__}: {exc}"),
                _PICKLE_PROTOCOL,
            )
        conn.send_bytes(payload)


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

    ``startup_bytes`` is the one-time shard shipment — a pickled copy
    of the columns on the heap path, a ~100-byte segment descriptor per
    shard on the shared-memory path (``shm_shards`` counts the latter,
    so O(1)-startup claims are checkable); ``request_bytes`` is
    everything the parent sent after startup (specs and deltas only —
    it must not scale with the resident shard size) and
    ``response_bytes`` the result arrays that came back.
    """

    startup_bytes: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    requests: int = 0
    spec_requests: int = 0
    pickled_callables: int = 0
    last_request_bytes: int = 0
    respawns: int = 0
    shm_shards: int = 0
    forced_kills: int = 0
    in_place_appends: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


def shard_shm_eligible(shard: ColumnarDatabase, shm: bool | None) -> bool:
    """Would the pool back this shard with shared-memory segments?

    The single decision point shared by :class:`ShardWorkerPool` and
    :class:`repro.api.backends.ShardedBackend` (which pre-shares
    eligible shards so parent and workers reference one physical
    copy).  ``shm=None`` (auto) requires fixed-width columns **and** no
    attached row-record objects — records have no segment form, and
    the pickle path ships them so per-record fallbacks (opaque
    policies through the generic ``call`` request) keep working;
    ``shm=True`` insists on segments (rejecting object-dtype columns
    loudly, and knowingly dropping worker-side records — every spec
    request is unaffected); ``shm=False`` never uses segments.
    """
    if shm is False or not shm_available():
        return False
    existing = getattr(shard, "store", None)
    if existing is not None and not existing.closed:
        return True
    if not placeable(shard):
        if shm is True:
            raise TypeError(
                "shard has object-dtype columns; shared-memory backing "
                "needs fixed-width buffers"
            )
        return False
    if shm is None and getattr(shard, "_records", None) is not None:
        return False
    return True


class ShardWorkerPool:
    """Persistent worker processes, one per shard, columns shipped once.

    Build one from the shards (or a sharded database) and install it as
    the database's executor::

        pool = ShardWorkerPool(sharded.shards)
        db = sharded.with_executor(pool)   # map_shards now runs on it

    The pool recognizes the hot callables of the sharded engine and
    sends them as specs; see the module docstring for the wire
    contract.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        shards,
        mp_context: str | None = None,
        shm: bool | None = None,
    ):
        import multiprocessing

        shard_list = tuple(getattr(shards, "shards", shards))
        if not shard_list:
            raise ValueError("need at least one shard")
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self.stats = WorkerPoolStats()
        self._resident: list[ColumnarDatabase] = list(shard_list)
        # Per-shard shared-memory state: the ColumnStore whose segments
        # the worker attached (None on the pickle path), whether this
        # pool created it (and must unlink it), and the prefix-trim a
        # respawned worker must re-apply after attaching (expires are
        # view slices, never segment rewrites).
        self._stores: list[ColumnStore | None] = [None] * len(shard_list)
        self._owned: list[bool] = [False] * len(shard_list)
        self._trim: list[int] = [0] * len(shard_list)
        self._conns = []
        self._procs = []
        self._closed = False
        try:
            self._resolve_backing(shm)
            for _ in shard_list:
                parent_conn, proc = self._spawn_process()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            payloads = [
                self._startup_payload(i) for i in range(len(shard_list))
            ]
            self.stats.startup_bytes = sum(len(p) for p in payloads)
            self.stats.shm_shards = sum(
                store is not None for store in self._stores
            )
            for conn, payload in zip(self._conns, payloads):
                conn.send_bytes(payload)
            for conn in self._conns:
                self._receive(conn)
        except BaseException:
            self.close()
            raise

    def _resolve_backing(self, shm: bool | None) -> None:
        """Decide, per shard, how its columns reach the worker.

        Eligibility is :func:`shard_shm_eligible` (auto by default,
        forced either way by ``shm``).  A shard that is already
        shm-backed (``shard.store``) is referenced in place — one
        physical copy shared with the parent and any co-hosted pool —
        and is never unlinked by this pool; anything else eligible is
        placed into pool-owned segments.
        """
        if shm is True and not shm_available():  # pragma: no cover
            raise RuntimeError(
                "shared-memory backing requested but "
                "multiprocessing.shared_memory is unavailable"
            )
        for i, shard in enumerate(self._resident):
            if not shard_shm_eligible(shard, shm):
                continue
            existing = getattr(shard, "store", None)
            if existing is not None and not existing.closed:
                self._stores[i] = existing
                continue
            self._stores[i] = ColumnStore.place(shard)
            self._owned[i] = True

    def _startup_payload(self, index: int) -> bytes:
        """The one-time shard shipment: a descriptor, or the columns."""
        store = self._stores[index]
        if store is not None:
            message = ("shard_shm", store.descriptor(), self._trim[index])
        else:
            message = ("shard", self._resident[index])
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
            if store is not None and owned:
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
    def _send_payload(
        self, worker: int, payload: bytes, startup: bool = False
    ) -> None:
        if self._closed:
            raise WorkerError("pool is closed")
        try:
            self._conns[worker].send_bytes(payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(f"shard worker {worker} died mid-send") from exc
        if startup:
            self.stats.startup_bytes += len(payload)
        else:
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

        The parent keeps the authoritative resident-shard copy, so the
        replacement starts from exact data, degrading the retried
        request to a recompute — never a crash.
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
    # The executor face seen by ShardedColumnarDatabase.map_shards
    # ------------------------------------------------------------------
    def resident_matches(self, shards: Sequence[ColumnarDatabase]) -> bool:
        """True when ``shards`` are exactly the resident shard objects."""
        return len(shards) == len(self._resident) and all(
            a is b for a, b in zip(shards, self._resident)
        )

    def map_resident(
        self,
        shards: Sequence[ColumnarDatabase],
        fn: Callable,
        indices: Sequence[int] | None = None,
    ) -> list:
        """``[fn(shard) for shard in shards]`` on the resident workers.

        ``shards`` must be the pool's resident shard objects (the
        sharded database passes its own) — a pool cannot answer for
        data it does not hold.  ``indices`` restricts the call to a
        subset of workers (the incremental-update path).
        """
        shards = tuple(getattr(shards, "shards", shards))
        if not self.resident_matches(shards):
            raise WorkerError(
                "database shards are not this pool's resident shards; "
                "rebuild the pool (or route updates through the "
                "database so the pool sees them)"
            )
        request = self._request_for(fn)
        workers = (
            list(range(self.n_workers)) if indices is None else list(indices)
        )
        if request[0] == "call":
            self.stats.pickled_callables += len(workers)
        else:
            self.stats.spec_requests += len(workers)
        return self._round_trip(request, workers)

    def _request_for(self, fn: Callable) -> tuple:
        """Translate a map_shards callable into a wire request.

        Recognized shapes become pure-spec requests; everything else is
        pickled whole (the callable, never the shard).
        """
        owner = getattr(fn, "__self__", None)
        name = getattr(fn, "__name__", "")
        try:
            if owner is not None and name == "evaluate_batch" and isinstance(
                owner, Policy
            ):
                return ("mask", policy_to_spec(owner))
            if owner is not None and name == "bin_indices":
                return ("bin_indices", owner.to_spec())
            if isinstance(fn, functools.partial):
                from repro.data.sharding import _shard_histogram
                from repro.queries.histogram import (
                    _shard_histogram_counts,
                    binning_to_spec,
                )

                kw = fn.keywords or {}
                if fn.func is _shard_histogram_counts and not fn.args:
                    query, policy = kw["query"], kw["policy"]
                    return (
                        "hist_counts",
                        binning_to_spec(query.binning),
                        policy_to_spec(policy),
                    )
                if fn.func is _shard_histogram and not fn.args:
                    return (
                        "histogram",
                        binning_to_spec(kw["binning"]),
                        int(kw["n_bins"]),
                    )
        except (SpecUnsupported, PolicySpecError, AttributeError, KeyError):
            pass  # fall through to the pickled-callable path
        return ("call", fn)

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
        update (worker and parent extend in lockstep).  A heap shard
        ships the chunk, never the shard.  An shm-backed shard ships no
        rows: it **extends in place** when its headroom segments still
        have capacity for the chunk — the parent writes the new values
        past the live length, bumps the length headers, and the worker
        re-reads the headers (no new segments, no re-attach, O(chunk)
        on the parent, O(1) on the worker).  On overflow the shard is
        **remapped**: the extended columns are placed into fresh
        headroom segments (``APPEND_HEADROOM`` spare capacity, so the
        *next* appends extend in place), the worker attaches them by
        descriptor and the old segments are unlinked.
        """
        store = self._stores[index]
        if store is not None:
            committed = self._extend_in_place(index, chunk)
            if committed is not None:
                return committed
        new_shard = ColumnarDatabase.concat([tail, chunk])
        if store is None or not placeable(new_shard):
            n = self._request_one(index, ("append", chunk))
            if n != len(new_shard):
                raise WorkerError(
                    f"worker {index} shard has {n} records after append, "
                    f"parent expects {len(new_shard)}"
                )
            self._resident[index] = new_shard
            if store is not None:
                # The chunk introduced an unplaceable column; the shard
                # demotes to the heap path (the worker concatenated
                # locally, so its copy is already off the segments).
                if self._owned[index]:
                    store.unlink()
                self._stores[index] = None
                self._owned[index] = False
                self._trim[index] = 0
                self.stats.shm_shards -= 1
            return new_shard
        placed = ColumnStore.place(new_shard, headroom=APPEND_HEADROOM)
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
        if self._stores[index] is not None:
            self._trim[index] += int(n)
        self._resident[index] = new_shard
