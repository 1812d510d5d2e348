"""The TIPPERS generator: one columnar generator, its rows rebuilt.

``generate_tippers_columnar`` is the generator; ``generate_tippers``
wraps its table, and ``TippersDataset.trajectories`` are the
``Trajectory`` rows rebuilt from the columns
(``repro.data.tippers.trajectory_records``).  The generator is checked
against a row ``Database`` built from those rows — columnarizing the
rows again gives the same arrays, and policies and histograms agree —
and the rows against digests of the trace the row generator produced
before the two generators became one.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.columnar import ColumnarDatabase, RaggedColumn
from repro.data.database import Database
from repro.data.tippers import (
    TRAJECTORY_COLUMNS,
    TippersConfig,
    Trajectory,
    generate_tippers,
    generate_tippers_columnar,
    trajectory_columns,
    trajectory_records,
)
from repro.queries.histogram import HistogramInput, HistogramQuery, IntegerBinning


def _assert_same_arrays(a: ColumnarDatabase, b: ColumnarDatabase) -> None:
    assert len(a) == len(b)
    assert a.column_names == b.column_names
    for name in a.column_names:
        x, y = a[name], b[name]
        if isinstance(x, RaggedColumn):
            assert np.array_equal(x.flat, y.flat), name
            assert np.array_equal(x.offsets, y.offsets), name
        else:
            assert np.array_equal(x, y), name
            assert x.dtype == y.dtype, name


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_same_seed_same_arrays(seed):
    config = TippersConfig(n_users=90, n_days=20, seed=seed)
    dataset = generate_tippers(config)
    table = generate_tippers_columnar(config)
    _assert_same_arrays(dataset.columnar(), table)
    rows = Database(dataset.trajectories)
    assert all(isinstance(t, Trajectory) for t in rows)
    assert list(table.iter_records()) == list(rows)
    _assert_same_arrays(ColumnarDatabase.from_database(rows), table)


#: sha256 of ``repr(generate_tippers(config).trajectories)`` as the row
#: generator (``Trajectory`` objects built slot by slot) produced them.
ROW_GENERATOR_DIGESTS = [
    (
        TippersConfig(n_users=40, n_days=8, seed=1),
        49,
        "67e1c050096df411425dff0fab22e5adb2d1ce1cfc109b24cd3a6a83b523c956",
    ),
    (
        TippersConfig(n_users=120, n_days=21, seed=7),
        398,
        "5a9009d9699fc4fabab9c82075f22deea0c6a7d919b37af07bfd9e271035dd33",
    ),
    (
        TippersConfig(n_users=60, n_days=14, seed=3, resident_fraction=0.3),
        223,
        "0b7cf2027b80d1db0a9b3678d55411bbbadf9546ec9d30af5a328c80099c4248",
    ),
]


@pytest.mark.parametrize(
    "config,n,digest", ROW_GENERATOR_DIGESTS, ids=["small", "wide", "residents"]
)
def test_rebuilt_rows_match_the_row_generator(config, n, digest):
    trajectories = generate_tippers(config).trajectories
    assert len(trajectories) == n
    assert hashlib.sha256(repr(trajectories).encode()).hexdigest() == digest


def test_columnar_generator_feeds_policies_directly():
    config = TippersConfig(n_users=60, n_days=10, seed=5)
    dataset = generate_tippers(config)
    col = generate_tippers_columnar(config)
    policy = dataset.policy_for_fraction(90)
    reference = np.fromiter(
        (policy(t) for t in dataset.trajectories),
        dtype=np.int8,
        count=len(dataset.trajectories),
    )
    assert np.array_equal(policy.evaluate_batch(col), reference)
    # ...and it shards like any other columnar database.
    assert np.array_equal(col.shard(4).mask(policy), reference)
    # the histograms agree with the row database's
    rows = Database(dataset.trajectories)
    hour = lambda t: t.start_slot // 6  # noqa: E731
    query = HistogramQuery(IntegerBinning("start_slot", 0, 144, 6))
    cols = HistogramInput.from_columnar(col, query, policy)
    assert rows.histogram(hour, 24).tobytes() == cols.x.tobytes()
    x_ns = rows.non_sensitive(policy).histogram(hour, 24)
    assert x_ns.tobytes() == cols.x_ns.tobytes()


def test_trajectory_records_inverts_trajectory_columns():
    trajectories = [
        Trajectory(user_id=i, day=i % 3, slots=tuple(
            (start, (i + start) % 5) for start in range(10 + i, 11 + 2 * i)
        ))
        for i in range(6)
    ]
    columns = trajectory_columns(trajectories)
    assert tuple(columns) == TRAJECTORY_COLUMNS
    db = ColumnarDatabase(columns)
    assert list(trajectory_records(db)) == trajectories
    assert list(db.iter_records()) == trajectories
    assert list(db.shard(4).iter_records()) == trajectories
    # the layout keeps only start_slot, so it refuses a gap in the slots
    with pytest.raises(ValueError, match="contiguous"):
        trajectory_columns([Trajectory(user_id=0, day=0, slots=((0, 1), (2, 1)))])
    # without the layout the rows are dicts, a ragged value a tuple
    plain = ColumnarDatabase({"user_id": columns["user_id"], "aps": columns["aps"]})
    assert list(plain.iter_records()) == [
        {"user_id": t.user_id, "aps": t.aps} for t in trajectories
    ]


def test_different_seeds_differ():
    a = generate_tippers_columnar(TippersConfig(n_users=40, n_days=8, seed=1))
    b = generate_tippers_columnar(TippersConfig(n_users=40, n_days=8, seed=2))
    assert len(a) != len(b) or not np.array_equal(
        a["duration_slots"], b["duration_slots"]
    )


def test_slot_invariants():
    col = generate_tippers_columnar(TippersConfig(n_users=50, n_days=10, seed=3))
    from repro.data.tippers import SLOTS_PER_DAY

    starts = col["start_slot"]
    ends = col["end_slot"]
    durations = col["duration_slots"]
    assert (ends == starts + durations - 1).all()
    assert (ends < SLOTS_PER_DAY).all()
    assert (durations >= 1).all()
    aps = col["aps"]
    assert np.array_equal(aps.lengths, durations)
