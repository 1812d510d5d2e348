"""Shard-worker runtime: bit-identity, wire discipline, incremental updates.

Three contracts under test:

* **Equivalence** — the one thing a pool answers, each shard's
  ``(x, x_ns)`` count pair (``shard_counts``, ``HistogramInput``, full
  releases through the server), is bit-identical to the pair the parent
  counts from its own masks and bin indices; everything else a sharded
  database does runs in the parent.
* **Wire discipline** — after the one-time shard shipment, requests are
  specs: per-request bytes are small and *independent of the record
  count* (the instrumented transfer-size test), and a binning or policy
  without a spec never reaches a worker.
* **Incremental updates** — appends/expires forwarded to the workers
  keep pool results bit-identical to a from-scratch rebuild on the
  updated data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import (
    NON_SENSITIVE,
    AttributePolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.core.policy_language import compile_policy
from repro.data.columnar import ColumnarDatabase
from repro.data.sharding import ShardedColumnarDatabase
from repro.data.tippers import (
    SensitiveAPPolicy,
    TippersConfig,
    Trajectory,
    generate_tippers,
    trajectory_columns,
)
from repro.data.store import shm_available
from repro.data.workers import ShardWorkerPool, WorkerError
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
    CategoricalBinning,
    counts_from_mask,
    histogram_input_for,
)
from repro.service import ReleaseRequest, ReleaseServer


def _db(n: int = 1009, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "city": rng.choice(list("abcd"), n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


def _policy():
    return MinimumRelaxationPolicy(
        [
            SensitiveValuePolicy("city", {"a", "c"}),
            OptInPolicy(),
            compile_policy({"attr": "age", "op": "<=", "value": 17}),
        ]
    )


BINNING = IntegerBinning("age", 0, 100, 10)


def _long_trip(slots: int) -> LambdaPolicy:
    """Trajectories longer than ``slots`` are sensitive: a per-record
    predicate, read from the ``Trajectory`` rows the columns rebuild."""
    return LambdaPolicy(lambda r: r.duration_slots > slots, name="long-trip")


def _trajectory_db(n: int, n_aps: int) -> ColumnarDatabase:
    trajs = [
        Trajectory(
            user_id=i,
            day=i % 5,
            slots=tuple((j, (i + j) % n_aps) for j in range(1 + i % 4)),
        )
        for i in range(n)
    ]
    return ColumnarDatabase(trajectory_columns(trajs))


def _parent_pairs(sharded, binning, policy) -> list:
    """Each shard's pair from the parent's own masks and bin indices."""
    return [
        counts_from_mask(
            binning.bin_indices(shard),
            policy.evaluate_batch(shard) == NON_SENSITIVE,
            binning.n_bins,
        )
        for shard in sharded.shards
    ]


def _assert_same_pairs(got: list, want: list) -> None:
    assert len(got) == len(want)
    for (x, x_ns), (wx, wx_ns) in zip(got, want):
        assert x.dtype == wx.dtype and x.tobytes() == wx.tobytes()
        assert x_ns.dtype == wx_ns.dtype and x_ns.tobytes() == wx_ns.tobytes()


@pytest.fixture(scope="module")
def pooled():
    """One pool + serially-evaluated twin shared by the equivalence tests."""
    db = _db()
    sharded = db.shard(3)
    with ShardWorkerPool(sharded.shards) as pool:
        yield sharded, sharded.with_executor(pool), pool


class TestEquivalence:
    def test_masks_bit_identical(self, pooled):
        """A mask is computed in the parent; the workers' pairs agree
        with the pairs counted from it."""
        serial, on_pool, pool = pooled
        policy = _policy()
        before = pool.stats.requests
        a = serial.mask(policy)
        b = on_pool.mask(policy)
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype
        assert pool.stats.requests == before
        _assert_same_pairs(
            on_pool.shard_counts(HistogramQuery(BINNING), policy),
            _parent_pairs(serial, BINNING, policy),
        )
        assert pool.stats.requests == before + on_pool.n_shards

    def test_bin_indices_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        binning = Product2DBinning(BINNING, CategoricalBinning("city", "abcd"))
        assert np.array_equal(
            serial.bin_indices(binning), on_pool.bin_indices(binning)
        )
        _assert_same_pairs(
            on_pool.shard_counts(HistogramQuery(binning), _policy()),
            _parent_pairs(serial, binning, _policy()),
        )

    def test_histogram_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        pairs = on_pool.shard_counts(HistogramQuery(BINNING), OptInPolicy())
        x = np.sum([pair[0] for pair in pairs], axis=0, dtype=np.int64)
        assert x.tobytes() == serial.histogram(BINNING).tobytes()
        assert np.array_equal(
            serial.histogram(BINNING), on_pool.histogram(BINNING)
        )

    def test_histogram_input_bit_identical(self, pooled):
        serial, on_pool, pool = pooled
        query = HistogramQuery(BINNING)
        a = histogram_input_for(serial, query, _policy())
        before = pool.stats.requests
        b = histogram_input_for(on_pool, query, _policy())
        assert pool.stats.requests == before + on_pool.n_shards
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.x_ns, b.x_ns)
        assert np.array_equal(a.sensitive_bin_mask, b.sensitive_bin_mask)

    def test_ragged_trajectories_on_pool(self):
        db = _trajectory_db(41, n_aps=7)
        sharded = db.shard(2)
        policy = SensitiveAPPolicy({1, 5})
        binning = IntegerBinning("day", 0, 5)
        reference = histogram_input_for(sharded, HistogramQuery(binning), policy)
        with ShardWorkerPool(sharded.shards) as pool:
            got = histogram_input_for(
                sharded.with_executor(pool), HistogramQuery(binning), policy
            )
            assert pool.stats.requests == 2
        assert got.x.tobytes() == reference.x.tobytes()
        assert got.x_ns.tobytes() == reference.x_ns.tobytes()

    @pytest.mark.parametrize("table", ["from_records", "tippers"])
    def test_record_built_tables_run_pooled(self, table):
        """The columns are the whole table: a ``from_records`` table and
        a TIPPERS trace get a pool (``store_mode == "shm"``), and serve
        the bytes the heap serves — an opaque per-record policy (counted
        in the parent over the rebuilt rows) and a spec'd one alike."""
        from repro.api.backends import ShardedBackend

        if table == "tippers":
            db = generate_tippers(TippersConfig(n_users=30, n_days=5, seed=4)).columnar()
            binning, policies = IntegerBinning("day", 0, 5), [
                _long_trip(20), SensitiveAPPolicy({1, 5, 60}),
            ]
        else:
            rows = [
                {"age": i % 90, "city": "abc"[i % 3], "opt_in": i % 4 == 0}
                for i in range(300)
            ]
            db = ColumnarDatabase.from_records(rows)
            binning, policies = IntegerBinning("age", 0, 100, 10), [
                AttributePolicy("age", lambda a: a < 18), _policy(),
            ]
        with ShardedBackend(db, n_shards=2, workers=True) as pooled:
            assert pooled.pool is not None
            assert pooled.store_mode == "shm"
            with ShardedBackend(db, n_shards=2) as heap:
                assert heap.store_mode == "heap"
                for policy in policies:
                    request = ReleaseRequest(
                        "osdp_rr", 0.5, binning, policy, n_trials=3, seed=7
                    )
                    got = pooled.handle(request).estimates
                    assert got.tobytes() == heap.handle(request).estimates.tobytes()


class TestWireDiscipline:
    def test_request_bytes_independent_of_record_count(self):
        """Per-request wire traffic is specs only: the same request
        costs the same bytes on a 100x larger database.  The one-time
        startup shipment is a segment descriptor, so it does not scale
        with the data either — O(1) bytes per worker."""
        policy = _policy()
        sizes = {}
        for n in (300, 30_000):
            sharded = _db(n).shard(2)
            with ShardWorkerPool(sharded.shards) as pool:
                histogram_input_for(
                    sharded.with_executor(pool), HistogramQuery(BINNING), policy
                )
                sizes[n] = pool.stats.as_dict()
        small, large = sizes[300], sizes[30_000]
        assert large["request_bytes"] == small["request_bytes"]
        # zero-copy attach: descriptors only, whatever the size (the
        # few-byte wiggle is the shape integers' digit count)
        assert abs(large["startup_bytes"] - small["startup_bytes"]) < 100
        assert large["startup_bytes"] < 2_000
        # a count-pair request is a ~hundreds-of-bytes spec
        assert small["requests"] == large["requests"] == 2
        assert small["request_bytes"] < 2_000

    def test_opaque_policy_is_counted_in_the_parent(self):
        """A policy with no spec cannot cross the pipe: a pooled server
        counts its pairs from the parent's shard copies — the response a
        server without a pool gives, and no worker is asked."""
        db = _db()
        request = ReleaseRequest(
            "osdp_laplace_l1",
            0.5,
            BINNING,
            AttributePolicy("age", lambda v: v < 18),
            n_trials=3,
            seed=5,
        )
        serial = ReleaseServer(db.shard(2)).handle(request)
        sharded = db.shard(2)
        with ShardWorkerPool(sharded.shards) as pool:
            before = pool.stats.requests
            pooled = ReleaseServer(sharded, executor=pool).handle(request)
            assert pool.stats.requests == before
        assert pooled.estimates.tobytes() == serial.estimates.tobytes()

    def test_foreign_shards_rejected(self, pooled):
        _, _, pool = pooled
        other = _db(97, seed=5).shard(3)
        with pytest.raises(WorkerError):
            pool.map_resident(
                other.shards, HistogramQuery(BINNING), OptInPolicy()
            )


class TestIncrementalUpdates:
    def _reference(self, db, extra, expire):
        full = ColumnarDatabase.concat([db, extra]) if extra is not None else db
        return full.slice_records(expire, len(full))

    def test_append_and_expire_match_scratch_rebuild(self):
        db = _db(751, seed=3)
        sharded = db.shard(3)
        policy = _policy()
        query = HistogramQuery(BINNING)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            histogram_input_for(pooled, query, policy)  # a read before the writes
            extra = _db(48, seed=9)
            pooled.append_records(extra)
            pooled.expire_prefix(130)
            reference = self._reference(db, extra, 130)
            assert len(pooled) == len(reference)
            _assert_same_pairs(
                pooled.shard_counts(query, policy),
                _parent_pairs(pooled, BINNING, policy),
            )
            a = histogram_input_for(pooled, query, policy)
            b = histogram_input_for(reference.shard(1), query, policy)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.x_ns, b.x_ns)

    def test_expire_whole_shard_keeps_worker_count(self):
        sharded = _db(60, seed=1).shard(3)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            pooled.expire_prefix(25)  # swallows shard 0 and part of 1
            assert pooled.n_shards == 3
            assert pool.n_workers == 3
            assert len(pooled.shards[0]) == 0
            _assert_same_pairs(
                pooled.shard_counts(HistogramQuery(BINNING), OptInPolicy()),
                _parent_pairs(pooled, BINNING, OptInPolicy()),
            )

    def test_updates_ship_only_the_delta(self):
        sharded = _db(20_000, seed=2).shard(2)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            before = pool.stats.request_bytes
            pooled.append_records(_db(10, seed=4))
            appended = pool.stats.request_bytes - before
            # ten records' columns, not ten thousand
            assert appended < 5_000


class TestLifecycle:
    def test_close_is_idempotent(self):
        shards = _db(50).shard(2).shards
        pool = ShardWorkerPool(shards)
        pool.close()
        pool.close()
        with pytest.raises(WorkerError, match="closed"):
            pool.map_resident(shards, HistogramQuery(BINNING), OptInPolicy())

    def test_worker_error_reports_and_pool_survives(self, pooled):
        _, on_pool, _ = pooled
        bad = IntegerBinning("age", 0, 10)  # most ages out of range
        with pytest.raises(WorkerError, match="outside"):
            on_pool.shard_counts(HistogramQuery(bad), OptInPolicy())
        # the pool still answers afterwards
        hist = histogram_input_for(on_pool, HistogramQuery(BINNING), OptInPolicy())
        assert hist.x.sum() == len(on_pool)


class TestServerOnPool:
    def test_server_responses_bit_identical(self):
        db = _db(903, seed=7)
        policy = _policy()
        request = ReleaseRequest(
            "osdp_laplace_l1", 0.5, BINNING, policy, n_trials=3, seed=11
        )
        serial = ReleaseServer(db.shard(3)).handle(request)
        sharded = db.shard(3)
        with ShardWorkerPool(sharded.shards) as pool:
            server = ReleaseServer(sharded, executor=pool)
            response = server.handle(request)
            assert np.array_equal(response.estimates, serial.estimates)
            # histogram assembly was one count-pair request per worker,
            # and the parent built no per-record arrays
            assert pool.stats.requests == sharded.n_shards
            assert server.stats.mask_misses == server.stats.index_misses == 0

    def test_server_spec_requests_and_updates(self):
        db = _db(640, seed=8)
        policy = _policy()
        sharded = db.shard(2)
        with ShardWorkerPool(sharded.shards) as pool:
            server = ReleaseServer(sharded, executor=pool)
            wire_request = ReleaseRequest(
                "osdp_rr",
                0.5,
                BINNING.to_spec(),
                policy.to_spec(),
                n_trials=2,
                seed=3,
            )
            first = server.handle(wire_request)
            extra = _db(31, seed=10)
            server.append_records(extra)
            server.expire_prefix(100)
            updated = server.handle(wire_request)
            reference_db = ColumnarDatabase.concat([db, extra]).slice_records(
                100, len(db) + 31
            )
            reference = ReleaseServer(reference_db.shard(2)).handle(
                ReleaseRequest(
                    "osdp_rr", 0.5, BINNING, policy, n_trials=2, seed=3
                )
            )
            assert np.array_equal(updated.estimates, reference.estimates)
            assert not np.array_equal(first.estimates, updated.estimates)


# One leg: a pool is always segment-backed.  The cold count over the
# whole table in the body is the reference.
POOL_KINDS = [
    pytest.param(
        True,
        id="shm",
        marks=[
            pytest.mark.shm,
            pytest.mark.skipif(
                not shm_available(), reason="no POSIX shared memory"
            ),
        ],
    ),
]


class TestOneOwner:
    """A count pair has one owner, the release server: it caches the
    pair and carries it across writes; the workers compute it once."""

    @pytest.mark.parametrize("shm", POOL_KINDS)
    def test_the_server_caches_and_carries_the_workers_compute_once(self, shm):
        sharded = _db(1200, seed=4).shard(3)
        policy = _policy()

        def served(server) -> None:
            hist, _ = server.histogram_input(BINNING, policy)
            cold = HistogramInput.from_columnar(
                server.db.to_columnar(), HistogramQuery(BINNING), policy
            )
            assert hist.x.tobytes() == cold.x.tobytes()
            assert hist.x_ns.tobytes() == cold.x_ns.tobytes()

        with ShardWorkerPool(sharded.shards) as pool:
            server = ReleaseServer(sharded, executor=pool)
            for _ in range(3):
                served(server)
            assert server.stats.hist_hits == 2
            assert server.stats.counts_carried == 0
            server.append_records(_db(50, seed=5))  # the tail shard
            assert server.stats.counts_carried == 1
            served(server)
            touched = server.expire_prefix(450)  # shard 0 whole, 50 of shard 1
            assert touched == [0, 1]
            assert server.stats.counts_carried == 3
            served(server)
            # one read fan-out (3), the append (1) and the expire's two
            # shards (2): the reads after the writes asked no worker
            assert pool.stats.requests == 6
            for stats in pool.worker_cache_stats():
                assert stats["counts_misses"] == 1
                assert stats["counts_hits"] == 0


class TestReviewRegressions:
    def test_derived_selection_runs_serially_not_on_pool(self, pooled):
        """non_sensitive()/sensitive() shards are new objects the pool
        does not hold; the derived database must drop the pool."""
        serial, on_pool, _ = pooled
        policy = compile_policy({"attr": "age", "op": "<=", "value": 17})
        derived = on_pool.non_sensitive(policy)
        assert derived.executor is None
        reference = serial.non_sensitive(policy)
        assert len(derived) == len(reference)
        assert np.array_equal(
            derived.mask(OptInPolicy()), reference.mask(OptInPolicy())
        )

    def test_deleted_ops_are_unknown_and_workers_survive(self, pooled):
        """A worker answers count pairs and writes only: each op of the
        deleted generic-executor vocabulary is refused, not served."""
        _, on_pool, pool = pooled
        for worker, op in enumerate(["mask", "bin_indices", "histogram", "call"]):
            with pytest.raises(WorkerError, match="unknown worker op"):
                pool._request_one(worker % pool.n_workers, (op, None))
        # the workers survived and keep serving
        hist = histogram_input_for(on_pool, HistogramQuery(BINNING), OptInPolicy())
        assert hist.x.sum() == len(on_pool)

    def test_expire_commits_per_shard(self):
        """A hook failure must leave already-trimmed shards committed."""

        class FailsOnSecond:
            def __init__(self):
                self.calls = 0

            def expire_shard_prefix(self, index, n, new_shard):
                self.calls += 1
                if self.calls == 2:
                    raise WorkerError("worker died")

        db = _db(90, seed=0)
        sharded = ShardedColumnarDatabase.from_columnar(db, 3)
        sharded._executor = FailsOnSecond()
        with pytest.raises(WorkerError):
            sharded.expire_prefix(45)  # shard 0 (30) + half of shard 1
        # shard 0's trim was committed, shard 1's was not
        assert sharded.shard_versions == (1, 0, 0)
        assert len(sharded.shards[0]) == 0
        assert len(sharded) == 60


class TestCountsCacheAndFailover:
    """A worker computes and forgets (the release server is the one
    cache of count pairs — see ``TestOneOwner``); a dead one respawns."""

    def _fresh(self, n=900, n_shards=3):
        sharded = _db(n).shard(n_shards)
        pool = ShardWorkerPool(sharded.shards)
        return sharded.with_executor(pool), pool

    def test_distinct_specs_miss_separately(self):
        """``counts_misses`` is the pairs a worker computed: one per
        request, a repeat included — it caches none (``counts_hits``
        stays 0), and the repeat's bytes are the first answer's."""
        on_pool, pool = self._fresh()
        with pool:
            policy = OptInPolicy()
            first = histogram_input_for(on_pool, HistogramQuery(BINNING), policy)
            wide = IntegerBinning("age", 0, 100, 5)
            histogram_input_for(on_pool, HistogramQuery(wide), policy)
            for stats in pool.worker_cache_stats():
                assert stats["counts_misses"] == 2
            again = histogram_input_for(on_pool, HistogramQuery(BINNING), policy)
            for stats in pool.worker_cache_stats():
                assert stats["counts_misses"] == 3
                assert stats["counts_hits"] == 0
            assert np.array_equal(first.x, again.x)
            assert np.array_equal(first.x_ns, again.x_ns)

    def test_killed_worker_respawns_mid_request(self):
        import os
        import signal

        on_pool, pool = self._fresh(n=1200)
        with pool:
            policy = _policy()
            query = HistogramQuery(BINNING)
            reference = on_pool.shard_counts(query, policy)
            os.kill(pool._procs[2].pid, signal.SIGKILL)
            pool._procs[2].join()
            # the dead worker is respawned from the parent's resident
            # copy and the request answered bit-identically (a
            # recompute, never a crash)
            again = on_pool.shard_counts(query, policy)
            assert pool.stats.respawns == 1
            _assert_same_pairs(again, reference)
            # subsequent updates and requests keep working on the
            # respawned worker
            rng = np.random.default_rng(5)
            on_pool.append_records(
                ColumnarDatabase(
                    {
                        "age": rng.integers(0, 100, 30),
                        "city": rng.choice(list("abcd"), 30),
                        "opt_in": rng.integers(0, 2, 30).astype(bool),
                    }
                )
            )
            hist = histogram_input_for(on_pool, query, policy)
            assert hist.x.sum() == len(on_pool)

    def test_killed_worker_respawns_for_single_worker_ops(self):
        import os
        import signal

        on_pool, pool = self._fresh(n=600)
        with pool:
            os.kill(pool._procs[-1].pid, signal.SIGKILL)
            pool._procs[-1].join()
            rng = np.random.default_rng(9)
            on_pool.append_records(
                ColumnarDatabase(
                    {
                        "age": rng.integers(0, 100, 40),
                        "city": rng.choice(list("abcd"), 40),
                        "opt_in": rng.integers(0, 2, 40).astype(bool),
                    }
                )
            )
            assert pool.stats.respawns == 1
            reference = histogram_input_for(
                on_pool.to_columnar(), HistogramQuery(BINNING), OptInPolicy()
            )
            live = histogram_input_for(
                on_pool, HistogramQuery(BINNING), OptInPolicy()
            )
            assert np.array_equal(live.x, reference.x)
            assert np.array_equal(live.x_ns, reference.x_ns)

    def test_drain_preserves_worker_order(self):
        """The overlapped drain must reassemble results in shard order."""
        on_pool, pool = self._fresh(n=800, n_shards=4)
        with pool:
            serial = ShardedColumnarDatabase(on_pool.shards)
            wide = IntegerBinning("age", 0, 100, 5)
            for _ in range(3):
                for binning in (BINNING, wide):
                    _assert_same_pairs(
                        on_pool.shard_counts(HistogramQuery(binning), _policy()),
                        _parent_pairs(serial, binning, _policy()),
                    )
