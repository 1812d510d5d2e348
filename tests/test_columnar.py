"""Columnar database + vectorized policy equivalence tests.

The contract under test: for every policy class (including composed and
minimum-relaxation policies and compiled policy specs),
``evaluate_batch`` over a columnar layout is **bit-identical** to
per-record ``Policy.__call__`` — on randomized tabular data and on
trajectory data — and the columnar histogram path matches the
row-by-row reference.
"""

import numpy as np
import pytest

from repro.core.policy import (
    AllNonSensitivePolicy,
    AllSensitivePolicy,
    AttributePolicy,
    IntersectionPolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.core.policy_language import compile_policy
from repro.data.columnar import ColumnarDatabase, RaggedColumn
from repro.data.database import Database
from repro.data.tippers import TippersConfig, generate_tippers
from repro.queries.histogram import (
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    Product2DBinning,
)


def random_tabular_records(seed: int, n: int = 400) -> list[dict]:
    rng = np.random.default_rng(seed)
    cities = np.array(["irvine", "tustin", "orange", "anaheim"])
    return [
        {
            "age": int(age),
            "opt_in": bool(opt),
            "city": str(city),
            "income": float(inc),
        }
        for age, opt, city, inc in zip(
            rng.integers(0, 100, n),
            rng.random(n) < 0.4,
            cities[rng.integers(0, len(cities), n)],
            rng.lognormal(10, 1, n),
        )
    ]


def tabular_policies() -> list:
    age = AttributePolicy("age", lambda a: a <= 17)
    opt = OptInPolicy()
    city = SensitiveValuePolicy("city", {"irvine", "orange"})
    rich = AttributePolicy("income", lambda v: v > 60_000, name="rich")
    weird = LambdaPolicy(
        lambda r: (r["age"] % 7 == 0) and not r["opt_in"], name="weird"
    )
    spec = compile_policy(
        {
            "any": [
                {"attr": "age", "op": "<=", "value": 17},
                {
                    "all": [
                        {"attr": "opt_in", "op": "==", "value": False},
                        {"attr": "city", "op": "in", "value": ["irvine"]},
                    ]
                },
                {"not": {"attr": "income", "op": "<", "value": 250_000.0}},
            ]
        }
    )
    return [
        age,
        opt,
        city,
        rich,
        weird,
        spec,
        AllSensitivePolicy(),
        AllNonSensitivePolicy(),
        MinimumRelaxationPolicy([age, opt, city]),
        IntersectionPolicy([age, spec]),
        MinimumRelaxationPolicy([IntersectionPolicy([opt, rich]), spec]),
    ]


class TestRaggedColumn:
    def test_roundtrip_segments(self):
        col = RaggedColumn(
            flat=np.array([1, 2, 3, 4, 5]), offsets=np.array([0, 2, 2, 5])
        )
        assert len(col) == 3
        assert col.segment(0).tolist() == [1, 2]
        assert col.segment(1).tolist() == []
        assert col.segment(2).tolist() == [3, 4, 5]

    def test_segment_any_handles_empty_segments(self):
        col = RaggedColumn(
            flat=np.array([1, 2, 3]), offsets=np.array([0, 1, 1, 3])
        )
        hits = col.segment_any(np.array([False, True, False]))
        assert hits.tolist() == [False, False, True]

    def test_take_reorders(self):
        col = RaggedColumn(
            flat=np.array([1, 2, 3, 4]), offsets=np.array([0, 1, 3, 4])
        )
        sub = col.take(np.array([2, 0]))
        assert sub.segment(0).tolist() == [4]
        assert sub.segment(1).tolist() == [1]

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            RaggedColumn(flat=np.array([1.0]), offsets=np.array([0, 2]))


class TestTabularEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_masks_bit_identical(self, seed):
        records = random_tabular_records(seed)
        cdb = ColumnarDatabase.from_records(records)
        for policy in tabular_policies():
            reference = np.array([policy(r) for r in records], dtype=np.int8)
            batch = policy.evaluate_batch(cdb)
            assert batch.dtype == np.int8
            assert np.array_equal(batch, reference), policy.name

    def test_masks_on_plain_dict_bundle(self):
        records = random_tabular_records(3)
        columns = {
            key: np.asarray([r[key] for r in records]) for key in records[0]
        }
        for policy in tabular_policies():
            reference = np.array([policy(r) for r in records], dtype=np.int8)
            assert np.array_equal(
                policy.evaluate_batch(columns), reference
            ), policy.name

    def test_partition_matches_row_database(self):
        records = random_tabular_records(4)
        cdb = ColumnarDatabase.from_records(records)
        db = Database(records)
        policy = OptInPolicy()
        col_sens, col_ns = cdb.partition(policy)
        row_sens, row_ns = db.partition(policy)
        assert list(col_sens.iter_records()) == list(row_sens)
        assert list(col_ns.iter_records()) == list(row_ns)

    def test_non_broadcastable_predicate_falls_back(self):
        records = random_tabular_records(5)
        cdb = ColumnarDatabase.from_records(records)
        policy = AttributePolicy("city", lambda c: "vin" in c, name="substr")
        reference = np.array([policy(r) for r in records], dtype=np.int8)
        assert np.array_equal(policy.evaluate_batch(cdb), reference)

    def test_aggregate_predicate_is_evaluated_per_value(self):
        """A predicate comparing against an aggregate of its input
        broadcasts but is not elementwise.  Evaluated per value it sees
        a scalar (``mean(a) == a``), as per record; a whole-column call
        would label rows 1-3000 non-sensitive, and probes at 0, n/2 and
        n-1 all agree with it, so no spot check can tell."""
        age = np.zeros(7001, dtype=np.int64)
        age[1:3001] = 100
        cdb = ColumnarDatabase({"age": age})
        policy = AttributePolicy("age", lambda a: a <= np.mean(a), name="agg")
        reference = np.array(
            [policy(r) for r in cdb.iter_records()], dtype=np.int8
        )
        assert not reference.any()  # every record sensitive
        assert np.array_equal(policy.evaluate_batch(cdb), reference)

    def test_mixed_type_sensitive_values_fall_back(self):
        """Regression: np.asarray coerces {'a', 3} to strings, which
        would silently un-match the numeric member under np.isin."""
        records = [{"v": 3}, {"v": 4}, {"v": 5}]
        cdb = ColumnarDatabase.from_records(records)
        policy = SensitiveValuePolicy("v", {"a", 3})
        reference = np.array([policy(r) for r in records], dtype=np.int8)
        assert reference.tolist() == [0, 1, 1]
        assert np.array_equal(policy.evaluate_batch(cdb), reference)

    def test_policy_spec_in_with_mixed_members_falls_back(self):
        """Regression: compiled in/not_in specs must not trust np.isin
        when the member list dtype-coerces away from the column."""
        records = [{"age": 25}, {"age": 30}]
        cdb = ColumnarDatabase.from_records(records)
        for op in ("in", "not_in"):
            policy = compile_policy(
                {"attr": "age", "op": op, "value": [25, "unknown"]}
            )
            reference = np.array([policy(r) for r in records], dtype=np.int8)
            assert np.array_equal(
                policy.evaluate_batch(cdb), reference
            ), op

    def test_policy_spec_nan_member_falls_back(self):
        # Python set membership finds NaN by object identity; np.isin
        # (== based) never matches NaN.  With a shared NaN instance the
        # per-record path is sensitive, so batch must fall back.
        nan = float("nan")
        records = [{"x": nan}, {"x": 1.0}]
        cdb = ColumnarDatabase.from_records(records)
        policy = compile_policy({"attr": "x", "op": "in", "value": [nan]})
        reference = np.array([policy(r) for r in records], dtype=np.int8)
        assert reference.tolist() == [0, 1]
        assert np.array_equal(policy.evaluate_batch(cdb), reference)

    def test_mixed_type_columns_stay_objects(self):
        """Regression: [5, 'NA'] must not be stringified to ['5', 'NA']."""
        cdb = ColumnarDatabase.from_records([{"x": 5}, {"x": "NA"}])
        assert cdb["x"].dtype == object
        assert cdb["x"][0] == 5
        policy = compile_policy({"attr": "x", "op": "==", "value": 5})
        reference = np.array([0, 1], dtype=np.int8)
        assert np.array_equal(policy.evaluate_batch(cdb), reference)


class TestTrajectoryEquivalence:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_tippers(TippersConfig(n_users=150, n_days=25, seed=9))

    @pytest.mark.parametrize("rho", [99, 75, 25])
    def test_ap_policy_bit_identical(self, dataset, rho):
        policy = dataset.policy_for_fraction(rho)
        cdb = dataset.columnar()
        reference = np.array(
            [policy(t) for t in dataset.trajectories], dtype=np.int8
        )
        assert np.array_equal(policy.evaluate_batch(cdb), reference)

    def test_empty_sensitive_set(self, dataset):
        from repro.data.tippers import SensitiveAPPolicy

        policy = SensitiveAPPolicy([])
        cdb = dataset.columnar()
        assert np.all(policy.evaluate_batch(cdb) == 1)

    def test_composed_trajectory_policy(self, dataset):
        p99 = dataset.policy_for_fraction(99)
        p50 = dataset.policy_for_fraction(50)
        combined = MinimumRelaxationPolicy([p99, p50])
        cdb = dataset.columnar()
        reference = np.array(
            [combined(t) for t in dataset.trajectories], dtype=np.int8
        )
        assert np.array_equal(combined.evaluate_batch(cdb), reference)


class TestColumnarHistograms:
    def test_histogram_matches_row_database(self):
        records = random_tabular_records(6)
        cdb = ColumnarDatabase.from_records(records)
        db = Database(records)
        binning = Product2DBinning(
            IntegerBinning("age", 0, 100, 10),
            CategoricalBinning(
                "city", ["irvine", "tustin", "orange", "anaheim"]
            ),
        )
        query = HistogramQuery(binning)
        assert np.array_equal(query.evaluate(cdb), query.evaluate(db))

    def test_from_columnar_matches_from_database(self):
        records = random_tabular_records(7)
        cdb = ColumnarDatabase.from_records(records)
        db = Database(records)
        query = HistogramQuery(IntegerBinning("age", 0, 100))
        policy = OptInPolicy()
        col = HistogramInput.from_columnar(cdb, query, policy)
        row = HistogramInput.from_database(db, query, policy)
        assert np.array_equal(col.x, row.x)
        assert np.array_equal(col.x_ns, row.x_ns)
        assert np.array_equal(col.sensitive_bin_mask, row.sensitive_bin_mask)

    def test_out_of_domain_value_raises(self):
        cdb = ColumnarDatabase.from_records([{"age": 120}])
        query = HistogramQuery(IntegerBinning("age", 0, 100))
        with pytest.raises(ValueError, match="outside"):
            query.evaluate(cdb)

    def test_categorical_out_of_domain_raises(self):
        cdb = ColumnarDatabase.from_records([{"city": "nowhere"}])
        binning = CategoricalBinning("city", ["irvine", "tustin"])
        with pytest.raises(ValueError, match="outside the declared domain"):
            binning.bin_indices(cdb)


class TestColumnarConstruction:
    def test_from_records_requires_shared_schema(self):
        with pytest.raises(ValueError, match="schema"):
            ColumnarDatabase.from_records([{"a": 1}, {"b": 2}])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDatabase.from_records([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDatabase(
                {"a": np.arange(3), "b": np.arange(4)}
            )

    def test_roundtrip_to_database(self):
        """The rows are rebuilt from the columns, as Python values."""
        records = random_tabular_records(8, n=20)
        cdb = ColumnarDatabase.from_records(records)
        rows = list(Database(cdb.iter_records()))
        assert rows == records
        assert all(
            type(row[name]) is type(record[name])
            for row, record in zip(rows, records) for name in record
        )

    def test_from_database_with_trajectories(self):
        dataset = generate_tippers(
            TippersConfig(n_users=40, n_days=10, seed=2)
        )
        cdb = ColumnarDatabase.from_database(Database(dataset.trajectories))
        assert len(cdb) == len(dataset.trajectories)
        assert "aps" in cdb
