"""The carry contract: cached count pairs survive append/expire exactly.

``ReleaseServer.append_records``/``expire_prefix`` advance every live
``(x, x_ns)`` pair of a touched shard by the counts of the rows the
write moved, instead of leaving it to a rescan.  Counts are additive
over records and the arithmetic is int64, so whatever the interleaving
of writes, reads and LRU evictions, ``histogram_input`` must equal
``HistogramInput.from_columnar`` on a table built cold from the
surviving rows — bit for bit, after every step.

Hypothesis draws the interleavings (1–4 shards, ``cache_limit`` 2–4 so
keys are evicted mid-sequence, expiries of any size: across a shard
boundary, emptying shards, down to zero rows) over a flat table and a
ragged/object trajectory table, each with several (binning, policy)
pairs including an identity-keyed ``LambdaPolicy``.  One fixed sequence
then runs on every deployment shape the carry serves: the serial heap
engine, a ``ShardWorkerPool`` over pickled and over shared-memory
shards (a remapping append, then in-place headroom appends), and across
``WriteAheadLog.recover`` (``replace_database``: caches emptied, shard
versions restarting at zero).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.policy import (
    AttributePolicy,
    LambdaPolicy,
    MinimumRelaxationPolicy,
    OptInPolicy,
    SensitiveValuePolicy,
)
from repro.data.columnar import ColumnarDatabase
from repro.data.store import shm_available
from repro.data.tippers import SensitiveAPPolicy, Trajectory
from repro.data.workers import ShardWorkerPool
from repro.queries.histogram import (
    CategoricalBinning,
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
)
from repro.service import ReleaseServer
from repro.service.wal import WriteAheadLog, apply_write

CITIES = ("amber", "blue", "coral", "dune")


def _age_divisible_by_three(record) -> bool:
    """Module-level, so the pool can ship it as a pickled callable."""
    return record["age"] % 3 == 0


def _long_trajectory(record) -> bool:
    return record.duration_slots > 2


AGE_10 = IntegerBinning("age", 0, 100, 10)
AGE_25 = IntegerBinning("age", 0, 100, 25)

#: integer binning × spec policy runs the fused kernel, the categorical
#: one the unfused path, the LambdaPolicy the per-record fallback under
#: an identity key; pairs share keys, so evicting one key kills several.
FLAT_PAIRS = (
    (AGE_10, OptInPolicy()),
    (CategoricalBinning("city", CITIES), SensitiveValuePolicy("city", {"blue"})),
    (AGE_25, LambdaPolicy(_age_divisible_by_three, name="age%3")),
    (
        AGE_10,
        MinimumRelaxationPolicy(
            [OptInPolicy(), SensitiveValuePolicy("city", {"amber", "dune"})]
        ),
    ),
)
#: a closure cannot cross a pool's pipe; everything above can (as a spec
#: or, the LambdaPolicy's module-level predicate, as a pickled callable)
HEAP_ONLY_PAIR = (AGE_25, AttributePolicy("age", lambda v: v <= 17, name="minors"))

TRAJECTORY_PAIRS = (
    (IntegerBinning("duration_slots", 1, 7), SensitiveAPPolicy({1, 5})),
    (IntegerBinning("start_slot", 0, 120, 20), SensitiveAPPolicy({0, 2, 9})),
    (
        IntegerBinning("duration_slots", 1, 7),
        LambdaPolicy(_long_trajectory, name="long"),
    ),
)


# ----------------------------------------------------------------------
# Running a sequence against a server and a cold model of the table
# ----------------------------------------------------------------------


def _assert_matches_cold(server, rows, pair) -> None:
    binning, policy = pair
    hist, _ = server.histogram_input(binning, policy)
    if rows:
        cold = HistogramInput.from_columnar(
            ColumnarDatabase.from_any_records(rows),
            HistogramQuery(binning),
            policy,
        )
        x, x_ns = cold.x, cold.x_ns
    else:  # no rows, no schema to columnarize: the empty histogram
        x = x_ns = np.zeros(binning.n_bins, dtype=np.int64)
    assert len(server.db) == len(rows)
    for got, want in ((hist.x, x), (hist.x_ns, x_ns)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(hist.sensitive_bin_mask, (x > 0) & (x_ns == 0))


def _play(server, rows, steps, pairs, write=None) -> None:
    """Apply ``steps`` to the server and to ``rows`` (the cold model),
    reading one pair after each and comparing it with a cold build.

    A step is ``("append", new_rows, pair)``, ``("expire", n, pair)``
    (``n`` clamps to the rows there are) or ``("read", None, pair)``.
    """
    write = write or (lambda op, arg: getattr(server, op)(arg))
    for op, arg, pair in steps:
        if op == "append":
            write("append_records", list(arg))
            rows.extend(arg)
        elif op == "expire":
            n = min(arg, len(rows))
            write("expire_prefix", n)
            del rows[:n]
        _assert_matches_cold(server, rows, pairs[pair % len(pairs)])
    for pair in pairs:
        _assert_matches_cold(server, rows, pair)


def _flat_row(age: int, city: int, opted: bool) -> dict:
    return {"age": age, "city": CITIES[city], "opt_in": opted}


def _flat_rows(n: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        _flat_row(int(a), int(c), bool(o))
        for a, c, o in zip(
            rng.integers(0, 100, n), rng.integers(0, 4, n), rng.integers(0, 2, n)
        )
    ]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

flat_rows = st.lists(
    st.builds(_flat_row, st.integers(0, 99), st.integers(0, 3), st.booleans()),
    min_size=1,
    max_size=12,
)


@st.composite
def trajectory_rows(draw):
    return [
        Trajectory(
            user_id=draw(st.integers(0, 50)),
            day=0,
            slots=tuple(
                (start + j, ap)
                for j, ap in enumerate(
                    draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
                )
            ),
        )
        for start in draw(st.lists(st.integers(0, 100), min_size=1, max_size=8))
    ]


def steps_of(rows):
    pair = st.integers(0, 7)
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), rows, pair),
            st.tuples(st.just("expire"), st.integers(0, 40), pair),
            st.tuples(st.just("read"), st.none(), pair),
        ),
        min_size=1,
        max_size=14,
    )


#: 24 rows over 3 shards of 8.  In order: a trim inside shard 0; an
#: append; an expiry across the 0|1 boundary (shard 0 emptied); reads
#: that evict under a small cache_limit; an expiry that empties every
#: shard but the tail's last rows; one that reaches zero rows; appends
#: onto the empty table; a last trim.
FIXED_INITIAL = _flat_rows(24, seed=7)
FIXED_STEPS = [
    ("read", None, 0),
    ("read", None, 1),
    ("expire", 3, 0),
    ("append", _flat_rows(5, seed=11), 1),
    ("read", None, 2),
    ("expire", 9, 2),
    ("read", None, 3),
    ("append", _flat_rows(40, seed=12), 0),
    ("expire", 50, 3),
    ("read", None, 0),
    ("expire", 40, 0),
    ("append", _flat_rows(6, seed=13), 1),
    ("append", _flat_rows(3, seed=14), 0),
    ("expire", 2, 1),
]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    initial=flat_rows,
    steps=steps_of(flat_rows),
    n_shards=st.integers(1, 4),
    cache_limit=st.integers(2, 4),
)
@example(initial=FIXED_INITIAL, steps=FIXED_STEPS, n_shards=3, cache_limit=3)
@example(initial=FIXED_INITIAL, steps=FIXED_STEPS, n_shards=3, cache_limit=128)
def test_flat_table_carry_equals_cold_rebuild(
    initial, steps, n_shards, cache_limit
):
    pairs = FLAT_PAIRS + (HEAP_ONLY_PAIR,)
    rows = list(initial)
    server = ReleaseServer(
        ColumnarDatabase.from_records(rows).shard(n_shards),
        cache_limit=cache_limit,
    )
    _play(server, rows, steps, pairs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    initial=trajectory_rows(),
    steps=steps_of(trajectory_rows()),
    n_shards=st.integers(1, 4),
    cache_limit=st.integers(2, 4),
)
def test_trajectory_table_carry_equals_cold_rebuild(
    initial, steps, n_shards, cache_limit
):
    rows = list(initial)
    server = ReleaseServer(
        ColumnarDatabase.from_any_records(rows).shard(n_shards),
        cache_limit=cache_limit,
    )
    _play(server, rows, steps, TRAJECTORY_PAIRS)


def test_the_fixed_sequence_exercises_the_carry():
    """The example is only worth replaying elsewhere if it carries,
    evicts, crosses a shard boundary and reaches zero rows."""
    rows = list(FIXED_INITIAL)
    server = ReleaseServer(
        ColumnarDatabase.from_records(rows).shard(3), cache_limit=3
    )
    sizes = []

    def write(op, arg):
        getattr(server, op)(arg)
        sizes.append([len(shard) for shard in server.db.shards])

    _play(server, rows, FIXED_STEPS, FLAT_PAIRS, write)
    assert server.stats.counts_carried > 0
    assert server.stats.evictions > 0
    assert [0, 0, 0] in sizes  # reached zero rows...
    assert any(s[0] == 0 and s[1] > 0 for s in sizes)  # ...shard by shard


@pytest.mark.parametrize(
    "shm",
    [
        pytest.param(
            True,
            id="shm",
            marks=[
                pytest.mark.shm,
                pytest.mark.skipif(
                    not shm_available(),
                    reason="multiprocessing.shared_memory unavailable on this platform",
                ),
            ],
        )
    ],
)
def test_fixed_sequence_on_a_worker_pool(shm):
    rows = list(FIXED_INITIAL)
    # the columns alone (a from_records table is its columns too)
    table = ColumnarDatabase.from_records(rows)
    sharded = ColumnarDatabase({n: table[n] for n in table.column_names}).shard(3)
    with ShardWorkerPool(sharded.shards) as pool:
        server = ReleaseServer(sharded, executor=pool, cache_limit=4)
        _play(server, rows, FIXED_STEPS, FLAT_PAIRS)
        assert server.stats.counts_carried > 0
        assert pool.stats.in_place_appends >= 1  # after the remap
        # A carried pair needs no fan-out: the parent evaluated the
        # moved rows itself, so the read after a write asks no worker.
        _assert_matches_cold(server, rows, FLAT_PAIRS[0])
        requests = pool.stats.requests
        written = []

        def write(op, arg):
            # an append is one request, an expire one per touched shard
            touched = getattr(server, op)(arg)
            written.append(1 if op == "append_records" else len(touched))

        _play(
            server,
            rows,
            [("append", _flat_rows(4, seed=15), 0), ("expire", 5, 0)],
            FLAT_PAIRS[:1],
            write,
        )
        assert pool.stats.requests - requests == sum(written)


def test_fixed_sequence_across_wal_recovery(tmp_path):
    """Crash mid-sequence: the recovered server starts from a snapshot
    (``replace_database`` — caches empty, versions back at zero) plus a
    replayed log tail, and carries on from there."""
    pairs = FLAT_PAIRS + (HEAP_ONLY_PAIR,)
    rows = list(FIXED_INITIAL)
    cut = 8

    def logged(server, wal):
        def write(op, arg):
            payload = {"records": arg} if op == "append_records" else {"n_records": arg}
            wal.log(op, payload)
            apply_write(server, op, payload)
            wal.maybe_compact(server)

        return write

    def base_server():
        return ReleaseServer(
            ColumnarDatabase.from_records(FIXED_INITIAL).shard(3), cache_limit=4
        )

    with WriteAheadLog(tmp_path, snapshot_every=3) as wal:
        server = base_server()
        _play(server, rows, FIXED_STEPS[:cut], pairs, logged(server, wal))
        assert wal.snapshot_seq > 0 and wal.last_seq > wal.snapshot_seq
    with WriteAheadLog(tmp_path, snapshot_every=3) as wal:
        server = base_server()
        for pair in pairs:  # warm caches the recovery must not trust
            server.histogram_input(*pair)
        report = wal.recover(server)
        assert report["snapshot_seq"] > 0 and report["replayed"] > 0
        assert max(server.db.shard_versions) <= report["replayed"]
        _play(server, rows, FIXED_STEPS[cut:], pairs, logged(server, wal))
        assert server.stats.counts_carried > 0
