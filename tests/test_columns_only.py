"""Columns are the only data: no row copy rides along with a table.

A :class:`~repro.data.columnar.ColumnarDatabase` holds its columns and
nothing else, so three things must hold:

* **Lossless columns.** ``from_records`` gives every value back equal
  (Python ``==``, a NaN as a NaN) from its column: numpy's inferred
  dtype where it keeps the values, an object column where it would not
  (an integer past 2**53 beside a float, ``[5, "NA"]`` stringified).
* **Rows from columns.** ``iter_records`` rebuilds the rows — Python
  scalars, a ragged value as a tuple, ``Trajectory`` objects for the
  TIPPERS layout — and they equal the records the table was built from.
* **The row form stays out of serving.** No serving module imports
  ``repro.data.database``; ``Database`` is the per-record reference the
  tests compare against.
"""

from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columnar import ColumnarDatabase

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: The serving path: no module here may import the row database.
SERVING = (
    *sorted((SRC / "service").glob("*.py")),
    *sorted((SRC / "api").glob("*.py")),
    *(SRC / "data" / f"{name}.py" for name in ("columnar", "sharding", "workers", "store")),
    SRC / "queries" / "histogram.py",
)


def _imports(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_no_serving_module_imports_the_row_database():
    assert len(SERVING) > 10
    offenders = [
        str(path.relative_to(SRC))
        for path in SERVING
        if "repro.data.database" in _imports(path)
    ]
    assert offenders == []


def _equal(a, b) -> bool:
    return a == b or (a != a and b != b)


BIG = st.sampled_from([2**53 + 1, -(2**53) - 1, 2**53, 2**62 + 1, 2**64 + 3])
VALUES = st.one_of(
    st.integers(-5, 5),
    BIG,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["", "a", "NA", "5", "a\x00"]),
    st.just(float("nan")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"v": VALUES, "w": st.one_of(st.integers(), BIG)}),
        min_size=1,
        max_size=12,
    )
)
def test_from_records_columns_give_every_value_back(records):
    db = ColumnarDatabase.from_records(records)
    for name in ("v", "w"):
        column = db[name].tolist()
        assert all(_equal(c, r[name]) for c, r in zip(column, records)), name
    rows = list(db.iter_records())
    assert all(
        _equal(row[name], record[name])
        for row, record in zip(rows, records) for name in record
    )


def test_an_integer_past_2_53_beside_a_float_keeps_its_value():
    db = ColumnarDatabase.from_records([{"x": 2**53 + 1}, {"x": 0.5}])
    assert db["x"].dtype == object
    assert db["x"].tolist() == [2**53 + 1, 0.5]
    # a column numpy keeps exact stays a numeric column
    exact = ColumnarDatabase.from_records(
        [{"x": 2**53, "y": 1, "z": math.nan}, {"x": 0.5, "y": True, "z": 1.5}]
    )
    assert [exact[n].dtype.kind for n in "xyz"] == ["f", "i", "f"]


def test_rows_are_python_values_and_ragged_values_tuples():
    rows = [
        {"n": 1, "s": "a", "f": 0.5, "b": True, "t": (1, 2)},
        {"n": 2, "s": "bb", "f": math.inf, "b": False, "t": ()},
    ]
    db = ColumnarDatabase.from_records(rows)
    assert db["t"].dtype == object
    back = list(db.iter_records())
    assert back == rows
    assert [type(v) for v in back[0].values()] == [int, str, float, bool, tuple]
    # the same rows survive a slice, a selection and a concatenation
    assert list(db.slice_records(1, 2).iter_records()) == rows[1:]
    assert list(db.select(np.array([1, 0])).iter_records()) == rows[::-1]
    assert list(ColumnarDatabase.concat([db, db]).iter_records()) == rows * 2
