"""Shard-worker runtime: bit-identity, wire discipline, incremental updates.

Three contracts under test:

* **Equivalence** — every ``map_shards`` consumer (masks, bin indices,
  histograms, ``HistogramInput``, full releases through the server)
  returns bit-identical results whether the sharded database runs
  serially or on a :class:`repro.data.workers.ShardWorkerPool`.
* **Wire discipline** — after the one-time shard shipment, requests are
  specs: per-request bytes are small and *independent of the record
  count* (the instrumented transfer-size test), and the recognized
  callables never fall back to pickled closures.
* **Incremental updates** — appends/expires forwarded to the workers
  keep pool results bit-identical to a from-scratch rebuild on the
  updated data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import (
    AttributePolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.core.policy_language import compile_policy
from repro.data.columnar import ColumnarDatabase
from repro.data.sharding import ShardedColumnarDatabase
from repro.data.tippers import SensitiveAPPolicy, Trajectory, trajectory_columns
from repro.data.store import shm_available
from repro.data.workers import ShardWorkerPool, WorkerError
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
    CategoricalBinning,
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


def _long_trajectory_sensitive(record) -> bool:
    """Module-level (picklable) per-record predicate over Trajectory."""
    return record.duration_slots > 2


@pytest.fixture(scope="module")
def pooled():
    """One pool + serially-evaluated twin shared by the equivalence tests."""
    db = _db()
    sharded = db.shard(3)
    with ShardWorkerPool(sharded.shards) as pool:
        yield sharded, sharded.with_executor(pool), pool


class TestEquivalence:
    def test_masks_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        policy = _policy()
        a = serial.mask(policy)
        b = on_pool.mask(policy)
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype

    def test_bin_indices_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        binning = Product2DBinning(BINNING, CategoricalBinning("city", "abcd"))
        assert np.array_equal(
            serial.bin_indices(binning), on_pool.bin_indices(binning)
        )

    def test_histogram_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        assert np.array_equal(
            serial.histogram(BINNING), on_pool.histogram(BINNING)
        )

    def test_histogram_input_bit_identical(self, pooled):
        serial, on_pool, _ = pooled
        query = HistogramQuery(BINNING)
        a = histogram_input_for(serial, query, _policy())
        b = histogram_input_for(on_pool, query, _policy())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.x_ns, b.x_ns)
        assert np.array_equal(a.sensitive_bin_mask, b.sensitive_bin_mask)

    def test_ragged_trajectories_on_pool(self):
        trajs = [
            Trajectory(
                user_id=i, day=0, slots=tuple((j, (i + j) % 7) for j in range(1 + i % 4))
            )
            for i in range(41)
        ]
        db = ColumnarDatabase(trajectory_columns(trajs), records=trajs)
        sharded = db.shard(2)
        policy = SensitiveAPPolicy({1, 5})
        reference = sharded.mask(policy)
        with ShardWorkerPool(sharded.shards) as pool:
            assert np.array_equal(
                sharded.with_executor(pool).mask(policy), reference
            )

    def test_record_carrying_shards_keep_the_pickle_path(self):
        """Auto shm must not drop row-record objects: a shard with
        attached records ships pickled (records intact), so per-record
        fallbacks — opaque policies through the generic call request —
        keep working exactly as before shm existed."""
        from repro.data.workers import shard_shm_eligible

        trajs = [
            Trajectory(
                user_id=i, day=0, slots=tuple((j, (i + j) % 5) for j in range(2))
            )
            for i in range(30)
        ]
        db = ColumnarDatabase(trajectory_columns(trajs), records=trajs)
        sharded = db.shard(2)
        assert not shard_shm_eligible(sharded.shards[0], None)
        # a picklable per-record policy: no spec, no batch form — it
        # reaches the worker as a pickled callable and iterates the
        # shipped record objects (which an shm descriptor cannot carry)
        from repro.core.policy import LambdaPolicy

        opaque = LambdaPolicy(_long_trajectory_sensitive, name="per-record")
        reference = sharded.mask(opaque)
        with ShardWorkerPool(sharded.shards) as pool:
            assert pool.stats.shm_shards == 0
            assert np.array_equal(
                sharded.with_executor(pool).mask(opaque), reference
            )

    def test_generic_callable_fallback(self, pooled):
        serial, on_pool, pool = pooled
        before = pool.stats.pickled_callables
        assert on_pool.map_shards(len) == serial.map_shards(len)
        assert pool.stats.pickled_callables == before + on_pool.n_shards


class TestWireDiscipline:
    def test_request_bytes_independent_of_record_count(self):
        """Per-request wire traffic is specs only: the same request
        costs the same bytes on a 100x larger database.  On the default
        shared-memory path the one-time startup shipment is a segment
        descriptor, so it does not scale with the data either — O(1)
        bytes per worker, the PR-5 acceptance bar."""
        policy = _policy()
        sizes = {}
        for n in (300, 30_000):
            sharded = _db(n).shard(2)
            with ShardWorkerPool(sharded.shards) as pool:
                sharded.with_executor(pool).mask(policy)
                sizes[n] = pool.stats.as_dict()
        small, large = sizes[300], sizes[30_000]
        assert large["request_bytes"] == small["request_bytes"]
        if small["shm_shards"]:
            # zero-copy attach: descriptors only, whatever the size
            # (the few-byte wiggle is the shape integers' digit count)
            assert abs(large["startup_bytes"] - small["startup_bytes"]) < 100
            assert large["startup_bytes"] < 2_000
        # a mask request is a ~hundreds-of-bytes spec
        assert small["request_bytes"] < 2_000
        assert small["pickled_callables"] == 0

    def test_pickle_startup_scales_with_data_shm_startup_does_not(self):
        """The forced pickle path still ships the columns once (its
        startup scales with the table); the shm path ships descriptors
        regardless of scale — both serve bit-identical masks."""
        policy = _policy()
        stats = {}
        for n in (300, 30_000):
            sharded = _db(n).shard(2)
            reference = sharded.mask(policy)
            for shm in (False, None):
                with ShardWorkerPool(sharded.shards, shm=shm) as pool:
                    got = sharded.with_executor(pool).mask(policy)
                    assert np.array_equal(got, reference)
                    stats[(n, shm)] = pool.stats.as_dict()
        assert (
            stats[(30_000, False)]["startup_bytes"]
            > 50 * stats[(300, False)]["startup_bytes"]
        )
        assert stats[(30_000, False)]["shm_shards"] == 0
        if stats[(300, None)]["shm_shards"]:
            assert (
                abs(
                    stats[(30_000, None)]["startup_bytes"]
                    - stats[(300, None)]["startup_bytes"]
                )
                < 100
            )
            assert stats[(30_000, None)]["startup_bytes"] < 2_000

    def test_spec_requests_counted(self, pooled):
        _, on_pool, pool = pooled
        before = pool.stats.spec_requests
        on_pool.mask(OptInPolicy())
        assert pool.stats.spec_requests == before + on_pool.n_shards

    def test_opaque_policy_cannot_cross(self, pooled):
        _, on_pool, _ = pooled
        opaque = AttributePolicy("age", lambda v: v < 18)
        with pytest.raises(Exception):
            on_pool.mask(opaque)

    def test_foreign_shards_rejected(self, pooled):
        _, _, pool = pooled
        other = _db(97, seed=5).shard(3)
        with pytest.raises(WorkerError):
            pool.map_resident(other.shards, OptInPolicy().evaluate_batch)


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
            pooled.mask(policy)  # a read before the writes
            extra = _db(48, seed=9)
            pooled.append_records(extra)
            pooled.expire_prefix(130)
            reference = self._reference(db, extra, 130)
            assert len(pooled) == len(reference)
            assert np.array_equal(
                pooled.mask(policy), policy.evaluate_batch(reference)
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
            assert np.array_equal(
                pooled.mask(OptInPolicy()),
                pooled.to_columnar().mask(OptInPolicy()),
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
        pool = ShardWorkerPool(_db(50).shard(2).shards)
        pool.close()
        pool.close()
        with pytest.raises(WorkerError):
            pool.map_resident([], OptInPolicy().evaluate_batch)

    def test_worker_error_reports_and_pool_survives(self, pooled):
        _, on_pool, _ = pooled
        bad = IntegerBinning("age", 0, 10)  # most ages out of range
        with pytest.raises(WorkerError, match="outside"):
            on_pool.bin_indices(bad)
        # the pool still answers afterwards
        assert len(on_pool.mask(OptInPolicy())) == len(on_pool)


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
            # histogram assembly went through spec requests, and the
            # parent never pulled per-record arrays
            assert pool.stats.pickled_callables == 0

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


POOL_KINDS = [
    pytest.param(False, id="heap"),
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

        with ShardWorkerPool(sharded.shards, shm=shm) as pool:
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
            for stats in pool.worker_cache_stats():
                assert stats["counts_misses"] == 1
                assert stats["counts_hits"] == 0
            assert pool.stats.pickled_callables == 0


def _return_unpicklable(shard):
    """Module-level (picklable) callable whose *result* cannot pickle."""
    return lambda: shard


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

    def test_unpicklable_result_does_not_kill_worker(self, pooled):
        _, on_pool, _ = pooled
        with pytest.raises(WorkerError, match="unpicklable"):
            on_pool.map_shards(_return_unpicklable)
        # the workers survived and keep serving
        assert len(on_pool.mask(OptInPolicy())) == len(on_pool)

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
            reference = on_pool.mask(policy)
            os.kill(pool._procs[2].pid, signal.SIGKILL)
            pool._procs[2].join()
            # the dead worker is respawned from the parent's resident
            # copy and the request answered bit-identically (a
            # recompute, never a crash)
            again = on_pool.mask(policy)
            assert pool.stats.respawns == 1
            assert np.array_equal(again, reference)
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
            assert len(on_pool.mask(policy)) == len(on_pool)

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
            for _ in range(3):
                assert np.array_equal(
                    on_pool.mask(_policy()), serial.mask(_policy())
                )
                assert np.array_equal(
                    on_pool.bin_indices(BINNING), serial.bin_indices(BINNING)
                )
