"""Unit tests for the sharded columnar engine.

The property suite (``test_sharding_properties.py``) covers the random
algebra; these tests pin the deterministic mechanics — slice geometry,
ragged rebasing, the executor contract, empty shards, the any-database
mechanism front door — and the real TIPPERS ragged data.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.accountant import PrivacyAccountant
from repro.core.policy import (
    AttributePolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    Policy,
    SensitiveValuePolicy,
)
from repro.data.columnar import ColumnarDatabase, RaggedColumn
from repro.data.sharding import ShardedColumnarDatabase, shard_slices
from repro.data.tippers import TippersConfig, generate_tippers
from repro.evaluation.runner import release_trials_from_database
from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
    histogram_input_for,
)


def _flat_db(n: int = 997, seed: int = 0) -> tuple[ColumnarDatabase, list]:
    rng = np.random.default_rng(seed)
    records = [
        {"age": int(a), "city": c, "opt_in": bool(o)}
        for a, c, o in zip(
            rng.integers(0, 100, n),
            rng.choice(list("abcd"), n),
            rng.integers(0, 2, n),
        )
    ]
    return ColumnarDatabase.from_records(records), records


def _policy() -> Policy:
    return MinimumRelaxationPolicy(
        [
            AttributePolicy("age", lambda v: v <= 25, name="minors"),
            SensitiveValuePolicy("city", {"a", "c"}),
            OptInPolicy(),
        ]
    )


class TestShardSlices:
    def test_balanced_cover(self):
        slices = shard_slices(10, 3)
        assert slices == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_records(self):
        slices = shard_slices(2, 5)
        assert slices[0] == (0, 1) and slices[1] == (1, 2)
        assert all(s == e for s, e in slices[2:])

    def test_sizes_differ_by_at_most_one(self):
        for n, k in ((1000, 7), (5, 5), (13, 4)):
            sizes = [e - s for s, e in shard_slices(n, k)]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_slices(10, 0)


class TestRaggedSlicing:
    def test_slice_segments_rebases_offsets(self):
        col = RaggedColumn(
            flat=np.arange(10), offsets=np.array([0, 3, 3, 7, 10])
        )
        mid = col.slice_segments(1, 3)
        assert len(mid) == 2
        assert np.array_equal(mid.flat, np.arange(3, 7))
        assert np.array_equal(mid.offsets, [0, 0, 4])

    def test_empty_slice(self):
        col = RaggedColumn(flat=np.arange(4), offsets=np.array([0, 2, 4]))
        empty = col.slice_segments(1, 1)
        assert len(empty) == 0 and len(empty.flat) == 0

    def test_out_of_range_rejected(self):
        col = RaggedColumn(flat=np.arange(4), offsets=np.array([0, 2, 4]))
        with pytest.raises(ValueError):
            col.slice_segments(0, 3)

    def test_shards_reassemble_exactly(self):
        col = RaggedColumn(
            flat=np.arange(20), offsets=np.array([0, 1, 5, 5, 12, 20])
        )
        pieces = [
            col.slice_segments(s, e) for s, e in shard_slices(len(col), 3)
        ]
        assert np.array_equal(
            np.concatenate([p.flat for p in pieces]), col.flat
        )
        assert sum(len(p) for p in pieces) == len(col)


class TestShardedDatabase:
    def test_schema_and_lengths(self):
        db, _ = _flat_db()
        sharded = db.shard(4)
        assert len(sharded) == len(db)
        assert sharded.n_shards == 4
        assert sharded.column_names == db.column_names
        assert [e - s for s, e in sharded.slices] == [
            len(s) for s in sharded.shards
        ]

    def test_mismatched_schemas_rejected(self):
        a = ColumnarDatabase({"x": np.arange(3)})
        b = ColumnarDatabase({"y": np.arange(3)})
        with pytest.raises(ValueError):
            ShardedColumnarDatabase([a, b])

    def test_to_columnar_round_trip(self):
        db, _ = _flat_db(101)
        back = db.shard(7).to_columnar()
        for name in db.column_names:
            assert np.array_equal(db[name], back[name])

    def test_iter_records_order(self):
        db, records = _flat_db(53)
        assert list(db.shard(5).iter_records()) == records

    def test_a_generic_executor_is_refused(self):
        """Execution is serial or shard-resident (``map_resident``): an
        executor that would be handed ``(fn, shard)`` pairs is a
        TypeError at installation, not a surprise at the first map."""
        sharded = _flat_db(40)[0].shard(2)
        with ThreadPoolExecutor(1) as pool:
            with pytest.raises(TypeError, match="map_resident"):
                sharded.with_executor(pool)
            with pytest.raises(TypeError, match="map_resident"):
                ShardedColumnarDatabase(sharded.shards, executor=pool)
        assert sharded.with_executor(None).executor is None

    def test_partition_shard_preserving(self):
        db, records = _flat_db(500)
        policy = _policy()
        sharded = db.shard(3)
        ns = sharded.non_sensitive(policy)
        s = sharded.sensitive(policy)
        assert isinstance(ns, ShardedColumnarDatabase)
        assert len(ns) + len(s) == len(db)
        assert len(ns) == int(
            (db.mask(policy) == 1).sum()
        )

    def test_product_binning_sharded(self):
        db, _ = _flat_db(700)
        binning = Product2DBinning(
            IntegerBinning("age", 0, 100, 10),
            IntegerBinning("age", 0, 100, 25),
        )
        assert np.array_equal(
            binning.bin_indices(db), binning.bin_indices(db.shard(6))
        )

    def test_empty_shards_are_harmless(self):
        db, records = _flat_db(3)
        sharded = db.shard(8)
        assert len(sharded) == 3
        policy = _policy()
        assert np.array_equal(sharded.mask(policy), db.mask(policy))


class TestTippersSharded:
    def test_ap_policy_masks_match(self):
        dataset = generate_tippers(TippersConfig(n_users=80, n_days=12, seed=3))
        db = dataset.columnar()
        policy = dataset.policy_for_fraction(90)
        reference = np.fromiter(
            (policy(t) for t in dataset.trajectories),
            dtype=np.int8,
            count=len(dataset.trajectories),
        )
        for k in (1, 4, 11):
            assert np.array_equal(db.shard(k).mask(policy), reference)


class TestAnyDatabaseFrontDoor:
    def test_histogram_input_for_routes_all_flavors(self):
        db, records = _flat_db(400)
        from repro.data.database import Database

        query = HistogramQuery(IntegerBinning("age", 0, 100, 10))
        policy = _policy()
        h_row = histogram_input_for(Database(records), query, policy)
        h_col = histogram_input_for(db, query, policy)
        h_shard = histogram_input_for(db.shard(5), query, policy)
        assert np.array_equal(h_row.x, h_col.x)
        assert np.array_equal(h_col.x, h_shard.x)
        assert np.array_equal(h_col.x_ns, h_shard.x_ns)

    def test_run_from_database_charges_and_releases(self):
        db, _ = _flat_db(300)
        query = HistogramQuery(IntegerBinning("age", 0, 100, 20))
        policy = _policy()
        accountant = PrivacyAccountant(1.0)
        mech = OsdpLaplaceL1Histogram(0.25, policy=policy)
        out = mech.run(
            db.shard(3), np.random.default_rng(0), query=query,
            policy=policy, accountant=accountant,
        )
        assert out.shape == (query.n_bins,)
        assert accountant.spent == pytest.approx(0.25)
        batch = mech.run(
            db.shard(3),
            np.random.default_rng(0),
            n_trials=4,
            query=query,
            policy=policy,
            accountant=accountant,
        )
        assert batch.shape == (4, query.n_bins)
        assert accountant.spent == pytest.approx(0.5)

    def test_ledger_records_the_input_policy(self):
        """A registry-style OSDP mechanism (no policy attached) must be
        charged under the policy that built x_ns, not P_all."""
        db, _ = _flat_db(200)
        query = HistogramQuery(IntegerBinning("age", 0, 100, 20))
        policy = _policy()
        accountant = PrivacyAccountant(1.0)
        mech = OsdpLaplaceL1Histogram(0.25)  # policy=None
        mech.run(
            db, np.random.default_rng(0), query=query, policy=policy,
            accountant=accountant,
        )
        assert accountant.ledger[0].policy is policy
        from repro.mechanisms.laplace import LaplaceHistogram

        LaplaceHistogram(0.25).run(
            db, np.random.default_rng(0), query=query, policy=policy,
            accountant=accountant,
        )
        assert accountant.ledger[1].policy.name == "P_all"

    def test_release_trials_from_database_matches_hist_path(self):
        db, _ = _flat_db(300)
        query = HistogramQuery(IntegerBinning("age", 0, 100, 20))
        policy = _policy()
        mech = OsdpLaplaceL1Histogram(0.5)
        via_db = release_trials_from_database(
            mech, db.shard(4), query, policy, n_trials=3, seed=11
        )
        hist = HistogramInput.from_columnar(db, query, policy)
        via_hist = mech.release_batch(hist, np.random.default_rng(11), 3)
        assert np.array_equal(via_db, via_hist)


class TestIncrementalUpdates:
    """append_records / expire_prefix vs a from-scratch reslice."""

    def _updated_reference(self, db, extra_records, n_expired):
        from repro.data.columnar import ColumnarDatabase as CD

        full = CD.concat([db, CD.from_records(extra_records)])
        return full.slice_records(n_expired, len(full))

    def test_append_matches_scratch_rebuild(self):
        db, _ = _flat_db(500)
        sharded = db.shard(3)
        policy = _policy()
        extra = [
            {"age": 17, "city": "a", "opt_in": False},
            {"age": 44, "city": "b", "opt_in": True},
        ]
        touched = sharded.append_records(extra)
        assert touched == 2  # the tail shard
        reference = self._updated_reference(db, extra, 0)
        assert len(sharded) == len(reference)
        assert np.array_equal(
            sharded.mask(policy), policy.evaluate_batch(reference)
        )
        binning = IntegerBinning("age", 0, 100, 10)
        assert np.array_equal(
            sharded.histogram(binning), reference.histogram(binning)
        )

    def test_expire_matches_scratch_rebuild(self):
        db, _ = _flat_db(500)
        sharded = db.shard(4)
        policy = _policy()
        # 125-record shards: shard 0 swallowed, shard 1 trimmed
        assert sharded.expire_plan(150) == [(0, 125), (1, 25)]
        touched = sharded.expire_prefix(150)
        assert touched == [0, 1]
        assert len(sharded.shards[0]) == 0
        # the emptied shard has nothing left to give
        assert sharded.expire_plan(101) == [(1, 100), (2, 1)]
        assert sharded.expire_plan(0) == []
        reference = db.slice_records(150, 500)
        assert len(sharded) == len(reference)
        assert np.array_equal(
            sharded.mask(policy), policy.evaluate_batch(reference)
        )

    def test_versions_bump_only_for_touched_shards(self):
        db, _ = _flat_db(300)
        sharded = db.shard(3)
        assert sharded.shard_versions == (0, 0, 0)
        sharded.append_records([{"age": 1, "city": "a", "opt_in": True}])
        assert sharded.shard_versions == (0, 0, 1)
        sharded.expire_prefix(10)
        assert sharded.shard_versions == (1, 0, 1)

    def test_histogram_input_after_updates(self):
        db, _ = _flat_db(400)
        sharded = db.shard(3)
        policy = _policy()
        query = HistogramQuery(IntegerBinning("age", 0, 100, 5))
        extra = [{"age": 3, "city": "c", "opt_in": False}] * 7
        sharded.append_records(extra)
        sharded.expire_prefix(90)
        reference = self._updated_reference(db, extra, 90)
        a = histogram_input_for(sharded, query, policy)
        b = histogram_input_for(reference, query, policy)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.x_ns, b.x_ns)
        assert np.array_equal(a.sensitive_bin_mask, b.sensitive_bin_mask)

    def test_append_ragged_trajectories(self):
        from repro.data.tippers import Trajectory, trajectory_columns

        trajs = [
            Trajectory(user_id=i, day=0, slots=((0, i % 5), (1, (i + 1) % 5)))
            for i in range(30)
        ]
        db = ColumnarDatabase(trajectory_columns(trajs), records=trajs)
        sharded = db.shard(2)
        new = [Trajectory(user_id=99, day=1, slots=((4, 2),))]
        sharded.append_records(new)
        assert len(sharded) == 31
        from repro.data.tippers import SensitiveAPPolicy

        policy = SensitiveAPPolicy({2})
        combined = trajs + new
        expected = np.fromiter(
            (policy(t) for t in combined), dtype=np.int8, count=31
        )
        assert np.array_equal(sharded.mask(policy), expected)

    def test_append_reorders_mismatched_schema(self):
        db, _ = _flat_db(50)
        sharded = db.shard(2)
        sharded.append_records([{"opt_in": True, "city": "d", "age": 30}])
        assert sharded.column_names == db.column_names
        assert len(sharded) == 51

    def test_append_rejects_wrong_schema(self):
        db, _ = _flat_db(50)
        sharded = db.shard(2)
        with pytest.raises(ValueError, match="columns"):
            sharded.append_records([{"age": 1, "city": "a"}])

    def test_expire_rejects_overdraw(self):
        db, _ = _flat_db(50)
        sharded = db.shard(2)
        with pytest.raises(ValueError):
            sharded.expire_prefix(51)
        with pytest.raises(ValueError):
            sharded.expire_prefix(-1)
        with pytest.raises(ValueError):
            sharded.expire_plan(51)

    def test_expire_everything_leaves_empty_shards(self):
        db, _ = _flat_db(40)
        sharded = db.shard(3)
        sharded.expire_prefix(40)
        assert len(sharded) == 0
        assert sharded.n_shards == 3
