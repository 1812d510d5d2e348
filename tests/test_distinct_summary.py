"""The distinct-row summary: same bytes as the scan, or not used at all.

``_shard_histogram_counts`` answers a ``(binning, policy)`` that
*declares* the columns it reads from the shard's distinct value tuples
(``ColumnarDatabase.distinct_summary``) instead of from its records.
The contract checked here, on tables large enough to reach that path
(most worker/service tests use tables far below ``SUMMARY_MIN_ROWS``
and never will):

* every eligible triple counts to the scan's pair in dtype and bytes,
  and a failing one raises the scan's exception with the scan's text;
* everything else — an opaque policy, a third-party kind, a column the
  summary does not hold, a small shard — takes the scan, untouched;
* a summary never crosses a pipe, and never outlives the shard object
  it was built from: after an append, an expire, a respawn or a
  ``replace_database``, serial or on a pool, a never-seen pair equals a
  cold build over the rebuilt table.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import LambdaPolicy, OptInPolicy, Policy
from repro.core.policy_language import (
    policy_from_spec,
    register_policy_kind,
)
from repro.data.columnar import (
    SUMMARY_MIN_ROWS,
    ColumnarDatabase,
    RaggedColumn,
)
from repro.data.store import shm_available
from repro.data.tippers import SensitiveAPPolicy
from repro.data.workers import ShardWorkerPool
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
    _scan_counts,
    _shard_histogram_counts,
    _summary_counts,
    binning_from_spec,
)
from repro.service import ReleaseServer

N = 2 * SUMMARY_MIN_ROWS
CITIES = ("amber", "blue", "coral", "dune")
#: what the summary of ``_columns`` holds: 20 * 5 * 4 * 2 = 800 joint
#: cells, within N / 8; ``zip`` would multiply them past it, ``uid`` has
#: N distinct values, ``score`` is a float and ``visits`` is ragged.
SUMMARISED = {"age", "small", "city", "opt_in"}


def _columns(seed: int, n: int = N) -> dict:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 4, n)
    return {
        "age": rng.integers(0, 20, n),
        "small": rng.integers(-2, 3, n).astype(np.int8),
        "city": rng.choice(np.array(CITIES), n),
        "opt_in": rng.random(n) < 0.4,
        "zip": rng.integers(10_000, 10_300, n).astype(np.uint16),
        "uid": rng.permutation(n) * 7,
        "score": rng.random(n),
        "visits": RaggedColumn(
            flat=rng.integers(0, 9, int(lengths.sum())),
            offsets=np.concatenate([[0], np.cumsum(lengths)]),
        ),
    }


@functools.lru_cache(maxsize=None)
def _tables(seed: int) -> tuple[ColumnarDatabase, ColumnarDatabase]:
    """One table twice: free to summarise, and with no summary to use."""
    columns = _columns(seed)
    scanned = ColumnarDatabase(columns)
    scanned.__dict__["distinct_summary"] = None
    return ColumnarDatabase(columns), scanned


def _outcome(fn, *args):
    """What a call produced: its value, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_bits(got, want) -> None:
    assert len(got) == len(want) == 2
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Random specs over the whole declared algebra
# ----------------------------------------------------------------------

_INT_ATTRS = st.sampled_from(["age", "small", "zip", "uid"])
_COMPARE = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])
_INTS = st.integers(-3, 21)
_CITY_SETS = st.lists(st.sampled_from(CITIES + ("elm",)), max_size=3)

_LEAVES = st.one_of(
    st.builds(
        lambda a, op, v: {"attr": a, "op": op, "value": v},
        _INT_ATTRS, _COMPARE, _INTS,
    ),
    st.builds(
        lambda a, op, v: {"attr": a, "op": op, "value": v},
        _INT_ATTRS, st.sampled_from(["in", "not_in"]), st.lists(_INTS, max_size=6),
    ),
    st.builds(
        lambda op, v: {"attr": "city", "op": op, "value": v},
        st.sampled_from(["in", "not_in"]), _CITY_SETS,
    ),
    st.builds(
        lambda op, v: {"attr": "opt_in", "op": op, "value": v},
        st.sampled_from(["==", "!="]), st.booleans(),
    ),
    st.builds(
        lambda op, v: {"attr": "score", "op": op, "value": v},
        _COMPARE, st.floats(0, 1),
    ),
)
_PREDICATES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(lambda s: {"any": s}, st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda s: {"all": s}, st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda s: {"not": s}, inner),
    ),
    max_leaves=5,
)
_POLICY_SPECS = st.recursive(
    st.one_of(
        st.just({"kind": "opt_in"}),
        st.just({"kind": "all_sensitive"}),
        st.just({"kind": "all_non_sensitive"}),
        st.builds(
            lambda a, v: {"kind": "values", "attr": a, "values": v},
            _INT_ATTRS, st.lists(_INTS, max_size=8),
        ),
        st.builds(
            lambda v: {"kind": "values", "attr": "city", "values": v}, _CITY_SETS
        ),
        st.builds(lambda when: {"kind": "predicate", "when": when}, _PREDICATES),
    ),
    lambda inner: st.builds(
        lambda kind, policies: {"kind": kind, "policies": policies},
        st.sampled_from(["mr", "and"]),
        st.lists(inner, min_size=1, max_size=3),
    ),
    max_leaves=4,
)
_FLAT_BINNINGS = st.one_of(
    # low > 0 or high < 20 leaves values outside [low, high)
    st.builds(
        lambda low, high, width: {
            "kind": "int", "attr": "age", "low": low, "high": high, "width": width,
        },
        st.sampled_from([0, 0, 0, 0, 2]), st.sampled_from([20, 20, 20, 25, 17]),
        st.sampled_from([1, 3, 7]),
    ),
    st.just({"kind": "int", "attr": "small", "low": -2, "high": 3, "width": 1}),
    st.just({"kind": "int", "attr": "zip", "low": 10_000, "high": 10_300, "width": 50}),
    # a domain missing "dune" meets an unknown category
    st.builds(
        lambda domain: {"kind": "cat", "attr": "city", "domain": domain},
        st.sampled_from([list(CITIES), list(CITIES[::-1]), list(CITIES[:3])]),
    ),
    st.just({"kind": "cat", "attr": "opt_in", "domain": [False, True]}),
)
_BINNING_SPECS = st.one_of(
    _FLAT_BINNINGS,
    st.builds(
        lambda first, second: {"kind": "prod", "first": first, "second": second},
        _FLAT_BINNINGS, _FLAT_BINNINGS,
    ),
)


def _spec_attrs(spec) -> set:
    """Every ``attr`` named anywhere in a policy or binning spec."""
    if isinstance(spec, dict):
        found = {"opt_in"} if spec.get("kind") == "opt_in" else set()
        for key, value in spec.items():
            found |= {value} if key == "attr" else _spec_attrs(value)
        return found
    if isinstance(spec, list):
        return set().union(*map(_spec_attrs, spec)) if spec else set()
    return set()


class TestSameBytesAsTheScan:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2), _BINNING_SPECS, _POLICY_SPECS)
    def test_random_specs(self, seed, binning_spec, policy_spec):
        db, scanned = _tables(seed)
        query = HistogramQuery(binning_from_spec(binning_spec))
        policy = policy_from_spec(policy_spec)
        want = _outcome(_shard_histogram_counts, scanned, query, policy)
        got = _outcome(_shard_histogram_counts, db, query, policy)
        if isinstance(want[0], type):  # same exception, same text
            assert got == want
            assert _summary_counts(db, query, policy) is None
            return
        _assert_same_bits(got, want)
        # ...and the summary, not a second scan, produced those bytes
        # exactly when everything read is a summarised column
        eligible = _spec_attrs(binning_spec) | _spec_attrs(policy_spec) <= SUMMARISED
        answered = _summary_counts(db, query, policy)
        if answered is not None:
            assert eligible
            _assert_same_bits(answered, want)
        elif eligible:
            # only a policy falling back to per-record evaluation sends
            # an eligible triple to the scan
            with pytest.raises(TypeError, match="vectorized"):
                policy.evaluate_batch(db.distinct_summary[0])

    def test_the_summary_holds_the_small_columns_and_every_record(self):
        db, _ = _tables(0)
        rows, weights = db.distinct_summary
        assert set(rows.column_names) == SUMMARISED
        assert weights.dtype == np.int64 and weights.sum() == len(db)
        assert len(rows) == len(weights) <= 800 and weights.min() >= 1
        for name in SUMMARISED:
            assert rows[name].dtype == db[name].dtype
            assert set(rows[name].tolist()) == set(db[name].tolist())

    @pytest.mark.parametrize(
        "binning_spec, text",
        [
            (
                {"kind": "int", "attr": "age", "low": 2, "high": 20, "width": 1},
                "outside [2, 20)",
            ),
            (
                {"kind": "cat", "attr": "city", "domain": list(CITIES[:3])},
                "'dune' of attribute 'city' is outside the declared domain",
            ),
        ],
    )
    def test_out_of_domain_values_raise_the_scans_error(self, binning_spec, text):
        db, scanned = _tables(1)
        query = HistogramQuery(binning_from_spec(binning_spec))
        want = _outcome(_shard_histogram_counts, scanned, query, OptInPolicy())
        assert want[0] is ValueError and text in want[1]
        assert _outcome(_shard_histogram_counts, db, query, OptInPolicy()) == want

    @pytest.mark.parametrize("n", [0, 1, SUMMARY_MIN_ROWS - 1])
    def test_small_shards_are_scanned(self, n):
        columns = _columns(4, SUMMARY_MIN_ROWS)
        del columns["visits"]
        db = ColumnarDatabase({k: v[:n] for k, v in columns.items()})
        query = HistogramQuery(IntegerBinning("age", 0, 20))
        assert _summary_counts(db, query, OptInPolicy()) is None
        assert not db.summary_built and db.distinct_summary is None
        x, x_ns = _shard_histogram_counts(db, query, OptInPolicy())
        assert x.sum() == n and x_ns.sum() == int(db["opt_in"].sum())

    def test_a_table_of_wide_columns_has_no_summary(self):
        columns = _columns(5)
        db = ColumnarDatabase({k: columns[k] for k in ("uid", "score", "visits")})
        assert db.distinct_summary is None


# ----------------------------------------------------------------------
# Who is never served from the summary
# ----------------------------------------------------------------------


class _OddAges(Policy):
    """A third-party kind: a spec, a vectorized form, no ``attributes``."""

    name = "odd-ages"

    def __call__(self, record) -> int:
        return int(record["age"] % 2 == 0)

    def to_spec(self) -> dict:
        return {"kind": "test_odd_ages"}

    def evaluate_batch(self, columns) -> np.ndarray:
        return (np.asarray(columns["age"]) % 2 == 0).astype(np.int8)


register_policy_kind("test_odd_ages", lambda spec: _OddAges())


class TestFallsBackToTheScan:
    AGE = HistogramQuery(IntegerBinning("age", 0, 20))

    def _assert_scanned(self, db, query, policy) -> None:
        assert _summary_counts(db, query, policy) is None
        _assert_same_bits(
            _shard_histogram_counts(db, query, policy),
            _scan_counts(db, query, policy),
        )

    def test_opaque_lambda_policy(self):
        db = ColumnarDatabase(_columns(6))
        opaque = LambdaPolicy(
            lambda r: r["age"] < 5,
            sensitive_when_batch=lambda c: np.asarray(c["age"]) < 5,
        )
        assert opaque.attributes() is None
        self._assert_scanned(db, self.AGE, opaque)
        assert not db.summary_built  # not even built for it

    def test_registered_third_party_kind(self):
        db, _ = _tables(0)
        policy = policy_from_spec({"kind": "test_odd_ages"})
        assert policy.attributes() is None
        self._assert_scanned(db, self.AGE, policy)

    def test_a_combination_is_as_opaque_as_its_worst_child(self):
        db, _ = _tables(0)
        policy = policy_from_spec(
            {"kind": "mr", "policies": [{"kind": "opt_in"}, {"kind": "test_odd_ages"}]}
        )
        assert policy.attributes() is None
        self._assert_scanned(db, self.AGE, policy)

    def test_sensitive_ap_policy_reads_a_ragged_column(self):
        columns = _columns(7)
        columns["aps"] = columns.pop("visits")
        db = ColumnarDatabase(columns)
        self._assert_scanned(db, self.AGE, SensitiveAPPolicy({1, 5}))

    @pytest.mark.parametrize("attr", ["zip", "uid", "score"])
    def test_a_policy_reading_a_column_the_summary_lacks(self, attr):
        db, _ = _tables(0)
        policy = policy_from_spec({"attr": attr, "op": "<", "value": 10_100})
        assert policy.attributes() == {attr}
        self._assert_scanned(db, self.AGE, policy)

    def test_a_binning_without_declared_attributes(self):
        class Halves:
            n_bins = 2

            def bin_indices(self, columns):
                return (np.asarray(columns["age"]) >= 10).astype(np.int64)

        db, _ = _tables(0)
        self._assert_scanned(db, HistogramQuery(Halves()), OptInPolicy())

    def test_a_per_record_fallback_runs_over_the_real_records(self):
        records = [
            {"age": i % 20, "opt_in": bool(i % 3)} for i in range(SUMMARY_MIN_ROWS)
        ]
        db = ColumnarDatabase.from_records(records)
        assert _summary_counts(db, self.AGE, OptInPolicy()) is not None
        # a NaN member makes np.isin diverge from set membership, so the
        # policy evaluates record by record — which distinct rows refuse
        nan_member = policy_from_spec(
            {"kind": "values", "attr": "age", "values": [3, float("nan")]}
        )
        assert nan_member.attributes() == {"age"}
        self._assert_scanned(db, self.AGE, nan_member)


# ----------------------------------------------------------------------
# Worker pools: the summary stays home, and the counts survive writes
# ----------------------------------------------------------------------


def _flat(seed: int, n: int = 4 * N) -> ColumnarDatabase:
    """The placeable columns of ``_columns`` (no ragged column); half of
    the default ``n`` is still enough rows for a shard's summary to hold
    all of ``SUMMARISED``."""
    columns = _columns(seed, n)
    del columns["visits"]
    return ColumnarDatabase(columns)


def _never_seen(i: int, high: int = 20) -> tuple:
    """The ``i``-th of a family of distinct eligible (binning, policy)."""
    return (
        IntegerBinning("age", 0, high + i),
        policy_from_spec(
            {
                "kind": "mr",
                "policies": [
                    {"kind": "opt_in"},
                    {"kind": "values", "attr": "age", "values": [i, i + 3]},
                    {"attr": "city", "op": "in", "value": ["amber", "elm"]},
                ],
            }
        ),
    )


def _cold(db: ColumnarDatabase, pair) -> HistogramInput:
    """The pair counted cold, by the scan, over a rebuilt table."""
    binning, policy = pair
    return HistogramInput.from_shard_counts(
        [_scan_counts(db, HistogramQuery(binning), policy)]
    )


def _assert_hist(got: HistogramInput, want: HistogramInput) -> None:
    _assert_same_bits((got.x, got.x_ns), (want.x, want.x_ns))


POOL_KINDS = [
    False,
    pytest.param(
        True,
        marks=[
            pytest.mark.shm,
            pytest.mark.skipif(
                not shm_available(), reason="no POSIX shared memory"
            ),
        ],
    ),
]


@pytest.mark.parametrize("shm", POOL_KINDS)
class TestWorkerPools:
    def test_a_summary_never_travels(self, shm):
        plain, warmed = _flat(8).shard(2), _flat(8).shard(2)
        for shard in warmed.shards:
            assert shard.distinct_summary is not None
            assert not pickle.loads(pickle.dumps(shard)).summary_built
            assert len(pickle.dumps(shard)) == len(
                pickle.dumps(ColumnarDatabase(dict(shard._columns)))
            )
        binning, policy = _never_seen(0)
        traffic = []
        for sharded in (plain, warmed):
            with ShardWorkerPool(sharded.shards, shm=shm) as pool:
                HistogramInput.from_columnar(
                    sharded.with_executor(pool), HistogramQuery(binning), policy
                )
                traffic.append((pool.stats.startup_bytes, pool.stats.request_bytes))
        assert traffic[0] == traffic[1]

    def test_the_cache_stats_say_which_path_answered(self, shm):
        sharded = _flat(9).shard(2)
        with ShardWorkerPool(sharded.shards, shm=shm) as pool:
            on_pool = sharded.with_executor(pool)
            for i in range(3):
                binning, policy = _never_seen(i)
                got = HistogramInput.from_columnar(
                    on_pool, HistogramQuery(binning), policy
                )
                _assert_hist(got, _cold(sharded.to_columnar(), (binning, policy)))
            scanned = policy_from_spec({"attr": "zip", "op": "<", "value": 10_100})
            HistogramInput.from_columnar(
                on_pool, HistogramQuery(IntegerBinning("age", 0, 20)), scanned
            )
            for stats in pool.worker_cache_stats():
                assert stats["counts_misses"] == 4
                assert stats["summary_answers"] == 3
                assert stats["summary_builds"] == 1


# ----------------------------------------------------------------------
# Invalidation through every door
# ----------------------------------------------------------------------


def _chunk(seed: int, n: int) -> ColumnarDatabase:
    """Rows whose ages (20..24) no earlier summary has seen."""
    columns = _columns(seed, n)
    del columns["visits"]
    columns["age"] = columns["age"] % 5 + 20
    return ColumnarDatabase(columns)


DOORS = ["serial", "heap-pool"] + [
    pytest.param(
        "shm-pool",
        marks=[
            pytest.mark.shm,
            pytest.mark.skipif(
                not shm_available(), reason="no POSIX shared memory"
            ),
        ],
    )
]


@pytest.mark.parametrize("door", DOORS)
def test_a_never_seen_pair_is_right_after_every_write(door):
    table = _flat(11)
    sharded = table.shard(2)
    pool = None
    if door.endswith("pool"):
        pool = ShardWorkerPool(sharded.shards, shm=door == "shm-pool")
    server = ReleaseServer(sharded, executor=pool)
    fresh = iter(range(100))

    def read_never_seen() -> None:
        binning, policy = _never_seen(next(fresh), high=25)
        reference = server.db.to_columnar()
        got = HistogramInput.from_columnar(
            server.db, HistogramQuery(binning), policy
        )
        _assert_hist(got, _cold(reference, (binning, policy)))
        served, _ = server.histogram_input(binning, policy)
        _assert_hist(served, got)

    def builds() -> list[int]:
        """Summaries built so far, per shard: by the worker that holds
        it, or (no pool) on the parent's own shard objects."""
        if pool is not None:
            return [s["summary_builds"] for s in pool.worker_cache_stats()]
        return [int(shard.summary_built) for shard in server.db.shards]

    def write(step) -> None:
        """A write replaces the shards it touches, and a summary stays
        with the object it was built on: the read after the write
        builds the touched shards' summaries anew."""
        old, built = server.db.shards, builds()
        touched = step()
        touched = [touched] if isinstance(touched, int) else touched
        assert touched
        for index in touched:
            assert server.db.shards[index] is not old[index]
            assert not server.db.shards[index].summary_built
        read_never_seen()
        for index, (was, now) in enumerate(zip(built, builds())):
            if pool is None:
                assert now == (len(server.db.shards[index]) >= SUMMARY_MIN_ROWS)
            elif len(server.db.shards[index]) >= SUMMARY_MIN_ROWS:
                assert now == was + (index in touched)

    try:
        read_never_seen()
        # the shm pool remaps on the first append and extends the
        # headroom in place on the next two; the last chunk is large
        # enough to be summarised itself when the carry counts it
        for n in (300, 200, 100, SUMMARY_MIN_ROWS):
            write(lambda: server.append_records(_chunk(n, n)))
        if door == "shm-pool":
            assert pool.stats.in_place_appends >= 2
        write(lambda: server.expire_prefix(500))
        write(lambda: server.expire_prefix(len(server.db.shards[0]) + 10))
        if pool is not None:
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(timeout=5)
            read_never_seen()
            assert pool.stats.respawns == 1
            assert builds()[1] == 1  # the new worker's own, from its shard
        else:  # refused while an executor is attached
            server.replace_database(_flat(12))
            assert not any(s.summary_built for s in server.db.shards)
            read_never_seen()
    finally:
        if pool is not None:
            pool.close()
