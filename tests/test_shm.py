"""Shared-memory column store: lifecycle, leak-freedom, bit-identity.

Three contracts under test:

* **Lifecycle** — explicit ``close()``/``unlink()`` semantics (owner
  unlinks, attachers only drop views, both idempotent), GC finalizers
  as the safety net, and *no leaked ``/dev/shm`` segments* after pool
  shutdown, worker death mid-run, or append-driven segment remaps
  (``tests/conftest.py`` additionally sweeps at suite exit).
* **Wire discipline** — pool startup ships ~100-byte descriptors:
  startup bytes are independent of the record count (the 100x-records
  comparison lives in ``tests/test_workers.py``).
* **Bit-identity** — a hypothesis sweep over the policy algebra pins
  shm-backed databases (place → attach round trips, pools, the release
  server) to their heap twins bit for bit.

Every test carries the ``shm`` marker and the module skips with a
reason where POSIX shared memory is unavailable; the /dev/shm
enumeration parts additionally skip on platforms that support shared
memory but do not expose it as a filesystem.
"""

from __future__ import annotations

import gc
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    AttributePolicy,
    IntersectionPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.core.policy_language import compile_policy
from repro.data.columnar import ColumnarDatabase, RaggedColumn
from repro.data.store import (
    SEGMENT_PREFIX,
    ColumnStore,
    placeable,
    shm_available,
)
from repro.data.tippers import Trajectory, trajectory_columns
from repro.data.workers import ShardWorkerPool
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    histogram_input_for,
)
from repro.service import ReleaseRequest, ReleaseServer

pytestmark = [
    pytest.mark.shm,
    pytest.mark.skipif(
        not shm_available(),
        reason="multiprocessing.shared_memory unavailable on this platform",
    ),
]

CITIES = ("amber", "blue", "coral", "dune")
MAX_EXAMPLES = 25


def _segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("/dev/shm not enumerable on this platform")
    return {
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


@pytest.fixture()
def leak_guard():
    """Assert the test released every segment it created."""
    before = _segments()
    yield
    gc.collect()
    leaked = _segments() - before
    assert not leaked, f"leaked segments: {sorted(leaked)}"


def _db(n: int = 900, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "city": rng.choice(list("abcd"), n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


def _assert_pool_counts_match(pooled, policy) -> None:
    """The workers' count pairs equal the ones counted in the parent."""
    query = HistogramQuery(IntegerBinning("age", 0, 100, 10))
    want = pooled.with_executor(None).shard_counts(query, policy)
    for got, pair in zip(pooled.shard_counts(query, policy), want):
        assert got[0].tobytes() == pair[0].tobytes()
        assert got[1].tobytes() == pair[1].tobytes()


def _policy():
    return MinimumRelaxationPolicy(
        [
            SensitiveValuePolicy("city", {"a", "c"}),
            OptInPolicy(),
            compile_policy({"attr": "age", "op": "<=", "value": 17}),
        ]
    )


BINNING = IntegerBinning("age", 0, 100, 10)


def _assert_same_columns(a: ColumnarDatabase, b: ColumnarDatabase) -> None:
    assert a.column_names == b.column_names
    for name in a.column_names:
        ca, cb = a[name], b[name]
        if isinstance(ca, RaggedColumn):
            assert np.array_equal(ca.flat, cb.flat), name
            assert np.array_equal(ca.offsets, cb.offsets), name
            assert ca.flat.dtype == cb.flat.dtype, name
        else:
            assert np.array_equal(np.asarray(ca), np.asarray(cb)), name
            assert np.asarray(ca).dtype == np.asarray(cb).dtype, name


class TestColumnStore:
    def test_place_attach_round_trip(self, leak_guard):
        db = _db()
        store = ColumnStore.place(db)
        try:
            _assert_same_columns(db, store.database)
            attached = ColumnStore.attach(store.descriptor())
            try:
                _assert_same_columns(db, attached.database)
                assert attached.database.store is attached
                assert not attached.owner and store.owner
            finally:
                attached.close()
        finally:
            store.unlink()

    def test_descriptor_is_small_plain_data(self, leak_guard):
        import json
        import pickle

        store = ColumnStore.place(_db(100_000))
        try:
            descriptor = store.descriptor()
            # ~100 bytes per flat array, independent of the row count
            assert len(json.dumps(descriptor)) < 200 * len(
                store.segment_names
            )
            assert json.loads(json.dumps(descriptor)) == descriptor
            assert pickle.loads(pickle.dumps(descriptor)) == descriptor
        finally:
            store.unlink()

    def test_ragged_and_empty_columns(self, leak_guard):
        trajs = [
            Trajectory(
                user_id=i,
                day=0,
                slots=tuple((j, (i + j) % 7) for j in range(1 + i % 4)),
            )
            for i in range(17)
        ]
        ragged = ColumnarDatabase(trajectory_columns(trajs))
        empty = ragged.slice_records(0, 0)
        for db in (ragged, empty):
            store = ColumnStore.place(db)
            try:
                attached = ColumnStore.attach(store.descriptor())
                try:
                    _assert_same_columns(db, attached.database)
                    assert len(attached.database) == len(db)
                finally:
                    attached.close()
            finally:
                store.unlink()

    def test_views_are_read_only(self, leak_guard):
        store = ColumnStore.place(_db(50))
        try:
            arr = np.asarray(store.database["age"])
            with pytest.raises(ValueError):
                arr[0] = 1
        finally:
            store.unlink()

    def test_close_and_unlink_idempotent(self, leak_guard):
        store = ColumnStore.place(_db(40))
        attached = ColumnStore.attach(store.descriptor())
        attached.close()
        attached.close()
        # an attacher's close never removes the segments
        reattached = ColumnStore.attach(store.descriptor())
        reattached.close()
        store.unlink()
        store.unlink()
        store.close()

    def test_gc_finalizer_unlinks_owned_segments(self, leak_guard):
        before = _segments()
        db = _db(60).share()
        created = _segments() - before
        assert created, "share() should have created segments"
        del db
        gc.collect()
        assert not (_segments() & created)

    def test_object_columns_are_rejected(self, leak_guard):
        db = ColumnarDatabase.from_records(
            [{"v": 5, "opt_in": True}, {"v": "NA", "opt_in": False}]
        )
        assert not placeable(db)
        with pytest.raises(TypeError, match="object-dtype"):
            ColumnStore.place(db)
        assert placeable(_db(10))

    def test_share_is_idempotent_and_pickles_heap_backed(self, leak_guard):
        import pickle

        shared = _db(30).share()
        assert shared.share() is shared
        clone = pickle.loads(pickle.dumps(shared))
        assert clone.store is None  # handles never cross a pickle
        _assert_same_columns(shared, clone)
        shared.store.unlink()


class TestPoolLifecycle:
    def test_no_leaked_segments_after_pool_close(self, leak_guard):
        sharded = _db(2_000).shard(3)
        with ShardWorkerPool(sharded.shards) as pool:
            assert all(pool._owned)  # the pool placed every shard
            sharded.with_executor(pool).mask(_policy())
            _assert_pool_counts_match(sharded.with_executor(pool), _policy())

    def test_no_leaked_segments_after_worker_death(self, leak_guard):
        sharded = _db(1_500).shard(3)
        policy = _policy()
        reference = sharded.mask(policy)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            assert np.array_equal(pooled.mask(policy), reference)
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join()
            # respawn re-attaches by descriptor — bit-identical, and no
            # segment is duplicated or dropped along the way
            _assert_pool_counts_match(pooled, policy)
            assert np.array_equal(pooled.mask(policy), reference)
            assert pool.stats.respawns == 1

    def test_append_remaps_and_unlinks_old_segments(self, leak_guard):
        db = _db(800, seed=3)
        sharded = db.shard(2)
        before = _segments()
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            pooled.mask(_policy())
            created = _segments() - before
            extra = _db(64, seed=9)
            pooled.append_records(extra)
            after_append = _segments() - before
            # the tail shard's segments were replaced, not accumulated
            assert len(after_append) == len(created)
            assert after_append != created
            pooled.expire_prefix(100)
            # expires are view trims: no segment churn at all
            assert (_segments() - before) == after_append
            reference = ColumnarDatabase.concat([db, extra]).slice_records(
                100, len(db) + len(extra)
            )
            assert np.array_equal(
                pooled.mask(_policy()), reference.mask(_policy())
            )

    def test_headroom_appends_create_zero_new_segments(self, leak_guard):
        """The streaming-tier regression: placing with capacity headroom
        makes N successive appends pure in-place extensions — no new
        ``/dev/shm`` segment per append (the old behaviour remapped and
        re-placed every column on every append) and nothing left behind
        after close."""
        db = _db(600, seed=11)
        before = _segments()
        store = ColumnStore.place(db, headroom=1.0)
        created = _segments() - before
        assert created
        try:
            chunks = [_db(40, seed=100 + i) for i in range(5)]
            current = store.database
            for chunk in chunks:
                extended = store.try_append(chunk)
                assert extended is not None  # fits inside the headroom
                current = extended
                # zero new segments across all N in-place appends
                assert (_segments() - before) == created
            reference = ColumnarDatabase.concat([db, *chunks])
            _assert_same_columns(current, reference)
            # A fresh attach reads the advanced length header and sees
            # every appended record, bit for bit.
            attached = ColumnStore.attach(store.descriptor())
            try:
                _assert_same_columns(attached.database, reference)
            finally:
                attached.close()
        finally:
            store.unlink()
        assert not (_segments() - before)  # leak-free after close

    def test_pool_appends_after_first_remap_are_in_place(self, leak_guard):
        """Through the worker pool: the first append remaps the tail
        shard into a headroom segment, and every append after that is
        in-place — zero segment churn, bit-identical masks."""
        db = _db(800, seed=13)
        sharded = db.shard(2)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            extras = [_db(32, seed=50 + i) for i in range(6)]
            pooled.append_records(extras[0])  # remap into headroom
            after_remap = _segments()
            for extra in extras[1:]:
                pooled.append_records(extra)
            assert _segments() == after_remap  # N appends, zero churn
            assert pool.stats.in_place_appends == len(extras) - 1
            reference = ColumnarDatabase.concat([db, *extras])
            assert np.array_equal(
                pooled.mask(_policy()), reference.mask(_policy())
            )

    def test_an_in_place_append_sends_no_rows(self, leak_guard):
        """The chunk reaches the worker through the segments: the
        ``extend_shm`` message is the same size for 10 rows and for
        10,000 (and the worker still serves every one of them)."""
        db = _db(800, seed=13)
        sharded = db.shard(2)
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            extras = [_db(n, seed=n) for n in (30_000, 10, 10_000)]
            pooled.append_records(extras[0])  # remap: headroom for the rest
            sent = []
            for extra in extras[1:]:
                pooled.append_records(extra)
                sent.append(pool.stats.last_request_bytes)
            assert pool.stats.in_place_appends == 2
            assert sent[0] == sent[1] < 100
            reference = ColumnarDatabase.concat([db, *extras])
            assert np.array_equal(
                pooled.mask(_policy()), reference.mask(_policy())
            )

    def test_respawn_after_expire_reapplies_the_trim(self, leak_guard):
        db = _db(900, seed=5)
        sharded = db.shard(3)
        policy = _policy()
        with ShardWorkerPool(sharded.shards) as pool:
            pooled = sharded.with_executor(pool)
            pooled.expire_prefix(400)  # swallows shard 0, trims shard 1
            reference = db.slice_records(400, 900).mask(policy)
            assert np.array_equal(pooled.mask(policy), reference)
            for index in (0, 1):
                os.kill(pool._procs[index].pid, signal.SIGKILL)
                pool._procs[index].join()
            # the respawned workers attach the untouched segments and
            # re-apply the recorded prefix trim
            _assert_pool_counts_match(pooled, policy)
            assert np.array_equal(pooled.mask(policy), reference)
            assert pool.stats.respawns == 2

    def test_the_pool_rejects_object_columns(self, leak_guard):
        db = ColumnarDatabase.from_records(
            [{"v": 5, "opt_in": True}, {"v": "NA", "opt_in": False}]
        )
        columns = ColumnarDatabase({n: db[n] for n in db.column_names})
        for table in (db, columns):  # built from records, or from columns
            with pytest.raises(TypeError, match="object-dtype"):
                ShardWorkerPool(table.shard(2).shards)

    def test_an_append_the_segments_cannot_hold_changes_nothing(
        self, leak_guard
    ):
        """A chunk that turns a column object-dtype has no segment form:
        the append raises before anything commits, and the pool keeps
        serving the shards it had."""
        db = _db(900, seed=6)
        sharded = db.shard(3)
        request = ReleaseRequest(
            "osdp_laplace_l1", 0.5, BINNING, _policy(), n_trials=3, seed=11
        )
        with ShardWorkerPool(sharded.shards) as pool:
            server = ReleaseServer(sharded, executor=pool)
            server.handle(request)
            n, versions = len(server.db), server.db.shard_versions
            resident = list(pool._resident)
            mixed = [
                {"age": 7, "city": "a", "opt_in": True},
                {"age": "NA", "city": "b", "opt_in": False},
            ]
            with pytest.raises(TypeError, match="object-dtype"):
                server.append_records(mixed)
            assert len(server.db) == n
            assert server.db.shard_versions == versions
            assert all(a is b for a, b in zip(pool._resident, resident))
            assert pool.resident_matches(server.db.shards)
            after = server.handle(request)
        reference = ReleaseServer(db.shard(3)).handle(request)
        assert after.estimates.tobytes() == reference.estimates.tobytes()

    def test_sharded_backend_serves_from_one_physical_copy(self, leak_guard):
        """The backend shares the db *before* building the pool: the
        parent engine reads the same segments the workers attach —
        never heap originals next to pool-placed copies — and close()
        unlinks them."""
        from repro.api.backends import ShardedBackend

        backend = ShardedBackend(_db(2_000), n_shards=2, workers=True)
        try:
            assert backend.store_mode == "shm"
            for shard in backend.server.db.shards:
                assert shard.store is not None
            # the pool attached the backend's stores in place; it owns
            # (and would duplicate) nothing
            assert not any(backend.pool._owned)
        finally:
            backend.close()

    def test_sharded_backend_unlinks_its_stores_when_the_pool_fails(
        self, leak_guard, monkeypatch
    ):
        """The shards are shared before the pool is built; a pool that
        fails to start must not leave them to the cyclic GC."""
        from repro.api.backends import ShardedBackend

        def no_process(self):
            raise OSError("no process for you")

        monkeypatch.setattr(ShardWorkerPool, "_spawn_process", no_process)
        before = _segments()
        gc.disable()
        try:
            with pytest.raises(OSError, match="no process"):
                ShardedBackend(_db(2_000), n_shards=2, workers=True)
            assert _segments() == before
        finally:
            gc.enable()

    def test_shared_database_feeds_cohosted_pools_one_copy(self, leak_guard):
        shared = _db(1_200).shard(2).share()
        policy = _policy()
        reference = shared.mask(policy)
        before = _segments()
        pool_a = ShardWorkerPool(shared.shards)
        pool_b = ShardWorkerPool(shared.shards)
        try:
            # neither pool placed anything: both attach the user's copy
            assert _segments() == before
            assert np.array_equal(
                shared.with_executor(pool_a).mask(policy), reference
            )
            assert np.array_equal(
                shared.with_executor(pool_b).mask(policy), reference
            )
        finally:
            pool_a.close()
            pool_b.close()
        # the pools left the user's segments alone
        assert _segments() == before
        for shard in shared.shards:
            shard.store.unlink()


class TestBitIdentity:
    def test_server_responses_bit_identical_shm_vs_heap(self, leak_guard):
        db = _db(1_100, seed=7)
        policy = _policy()
        request = ReleaseRequest(
            "osdp_laplace_l1", 0.5, BINNING, policy, n_trials=3, seed=11
        )
        heap = ReleaseServer(db.shard(3)).handle(request)
        sharded = db.shard(3)
        with ShardWorkerPool(sharded.shards) as pool:
            shm_response = ReleaseServer(
                sharded.with_executor(pool), executor=pool
            ).handle(request)
        assert np.array_equal(shm_response.estimates, heap.estimates)
        assert shm_response.estimates.dtype == heap.estimates.dtype

    def test_histogram_input_bit_identical_on_shm_pool(self, leak_guard):
        db = _db(700, seed=2)
        sharded = db.shard(2)
        query = HistogramQuery(BINNING)
        reference = histogram_input_for(db, query, _policy())
        with ShardWorkerPool(sharded.shards) as pool:
            live = histogram_input_for(
                sharded.with_executor(pool), query, _policy()
            )
        assert np.array_equal(live.x, reference.x)
        assert np.array_equal(live.x_ns, reference.x_ns)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=48),
        policy=st.recursive(
            st.one_of(
                st.integers(0, 99).map(
                    lambda t: AttributePolicy(
                        "age", lambda v, t=t: v <= t, name=f"age<={t}"
                    )
                ),
                st.sets(st.sampled_from(CITIES), max_size=len(CITIES)).map(
                    lambda vs: SensitiveValuePolicy("city", vs)
                ),
                st.just(OptInPolicy()),
                st.just(AllSensitivePolicy()),
                st.just(AllNonSensitivePolicy()),
            ),
            lambda children: st.one_of(
                st.lists(children, min_size=1, max_size=3).map(
                    MinimumRelaxationPolicy
                ),
                st.lists(children, min_size=1, max_size=3).map(
                    IntersectionPolicy
                ),
            ),
            max_leaves=6,
        ),
        width=st.sampled_from((1, 5, 10)),
        seed=st.integers(0, 2**16),
    )
    def test_shm_database_bit_identical_across_policy_algebra(
        self, n, policy, width, seed
    ):
        """place → attach preserves every mask, index and histogram the
        engine can compute, over random databases and random algebra
        policies (opaque predicate leaves included — attach is
        in-process, no spec round trip involved)."""
        rng = np.random.default_rng(seed)
        db = ColumnarDatabase(
            {
                "age": rng.integers(0, 100, n),
                "city": rng.choice(CITIES, n),
                "opt_in": rng.integers(0, 2, n).astype(bool),
            }
        )
        query = HistogramQuery(IntegerBinning("age", 0, 100, width))
        store = ColumnStore.place(db)
        try:
            attached = ColumnStore.attach(store.descriptor())
            try:
                for twin in (store.database, attached.database):
                    assert np.array_equal(
                        policy.evaluate_batch(twin), policy.evaluate_batch(db)
                    )
                    assert np.array_equal(
                        query.binning.bin_indices(twin),
                        query.binning.bin_indices(db),
                    )
                    mine = HistogramInput.from_columnar(twin, query, policy)
                    reference = HistogramInput.from_columnar(
                        db, query, policy
                    )
                    assert np.array_equal(mine.x, reference.x)
                    assert np.array_equal(mine.x_ns, reference.x_ns)
            finally:
                attached.close()
        finally:
            store.unlink()
