"""Struct-of-arrays database for million-record OSDP workloads.

:class:`repro.data.database.Database` stores records as Python objects
and dispatches a Python call per record for policy evaluation and
binning — fine at paper scale, dominant at production scale.
:class:`ColumnarDatabase` stores one numpy array per attribute instead,
so the hot operations become single vectorized calls:

* sensitive/non-sensitive partitioning (Definition 3.1) runs through
  ``Policy.evaluate_batch`` — one ufunc pipeline over the relevant
  columns instead of ``O(n)`` ``Policy.__call__`` dispatches;
* histogram construction is ``np.bincount`` over a vectorized
  bin-index computation (see the ``bin_indices`` methods in
  :mod:`repro.queries.histogram`).

Variable-length attributes (a trajectory's AP sequence) are stored as a
:class:`RaggedColumn` — one flat array plus offsets, the layout that
lets set-membership policies run as ``np.isin`` + segmented reduction.

The row-oriented ``Database`` remains the simple reference
implementation; ``iter_records``/``to_database`` bridge the two, and
every vectorized consumer falls back to per-record evaluation for
column layouts it does not understand, so the columnar path is always
an optimization, never a semantic fork.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.policy import NON_SENSITIVE, SENSITIVE, Policy
from repro.data.database import Database


@dataclass(frozen=True)
class RaggedColumn:
    """A variable-length-per-record column: flat values plus offsets.

    Record ``i`` owns ``flat[offsets[i]:offsets[i + 1]]``; ``offsets``
    has ``n_records + 1`` entries, starting at 0 and ending at
    ``len(flat)``.
    """

    flat: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets)
        if offsets.ndim != 1 or len(offsets) < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or offsets[-1] != len(self.flat):
            raise ValueError("offsets must start at 0 and end at len(flat)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def segment(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    def segment_any(self, flag_per_value: np.ndarray) -> np.ndarray:
        """Per-record 'any value flagged' over a flat boolean array."""
        flags = np.asarray(flag_per_value, dtype=bool)
        if len(flags) != len(self.flat):
            raise ValueError("flag array must match the flat values")
        counts = np.zeros(len(self), dtype=np.int64)
        starts = np.asarray(self.offsets[:-1], dtype=np.intp)
        nonempty = self.lengths > 0
        if flags.size:
            # reduceat misbehaves on empty segments (it returns the
            # element at the repeated offset); compute on the non-empty
            # segments and leave empties at zero.
            reduced = np.add.reduceat(flags.astype(np.int64), starts[nonempty])
            counts[nonempty] = reduced
        return counts > 0

    def take(self, indices: np.ndarray) -> "RaggedColumn":
        """A new ragged column with the selected records, in order."""
        indices = np.asarray(indices)
        starts = self.offsets[:-1][indices]
        lengths = self.lengths[indices]
        new_offsets = np.concatenate([[0], np.cumsum(lengths)])
        gather = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lengths)]
        ) if len(indices) else np.empty(0, dtype=np.intp)
        return RaggedColumn(flat=self.flat[gather], offsets=new_offsets)

    def slice_segments(self, start: int, stop: int) -> "RaggedColumn":
        """Records ``[start, stop)`` as a new ragged column.

        Contiguous slices need no gather: the flat values are one slice
        and the offsets rebase by subtraction, which is what makes
        sharding a ragged column O(shard size).
        """
        offsets = np.asarray(self.offsets)
        if not 0 <= start <= stop <= len(self):
            raise ValueError(
                f"slice [{start}, {stop}) outside [0, {len(self)}]"
            )
        offs = offsets[start : stop + 1]
        return RaggedColumn(
            flat=self.flat[offs[0] : offs[-1]], offsets=offs - offs[0]
        )


Column = "np.ndarray | RaggedColumn"

# Where a distinct-row summary (``ColumnarDatabase.distinct_summary``) is
# much smaller than the rows it stands for.  Facts about the data, not
# settings: past them the answer is the same and only the route differs.
SUMMARY_MIN_ROWS = 4096  # a smaller shard is cheaper to scan
SUMMARY_MAX_VALUES = 4096  # candidate values one column may contribute
SUMMARY_MIN_ROWS_PER_CELL = 8  # joint cells of the kept columns <= n / 8


def _value_codes(column) -> tuple[np.ndarray, np.ndarray] | None:
    """``(codes, values)`` with ``values[codes] == column``, or None.

    Integers and booleans code by offset from their minimum (a range
    test, no sort), fixed-width strings by one ``np.unique``; ragged,
    float, object and wider columns have no small code.
    """
    if not isinstance(column, np.ndarray):
        return None
    if column.dtype.kind in "US":
        values, codes = np.unique(column, return_inverse=True)
        return (codes, values) if len(values) <= SUMMARY_MAX_VALUES else None
    if column.dtype.kind not in "biu":
        return None
    low, high = int(column.min()), int(column.max())
    if high - low >= SUMMARY_MAX_VALUES or high >= 2**63:
        return None
    values = (np.arange(high - low + 1) + low).astype(column.dtype)
    return column.astype(np.int64) - low, values


class ColumnarDatabase:
    """An immutable multiset of records in struct-of-arrays layout."""

    def __init__(
        self,
        columns: Mapping[str, np.ndarray | RaggedColumn],
        records: Sequence[object] | None = None,
    ):
        if not columns:
            raise ValueError("need at least one column")
        normalized: dict[str, np.ndarray | RaggedColumn] = {}
        n = None
        for name, column in columns.items():
            if not isinstance(column, RaggedColumn):
                column = np.asarray(column)
                if column.ndim != 1:
                    raise ValueError(f"column {name!r} must be 1-D")
            if n is None:
                n = len(column)
            elif len(column) != n:
                raise ValueError(
                    f"column {name!r} has {len(column)} records, expected {n}"
                )
            normalized[name] = column
        self._columns = normalized
        self._n = int(n or 0)
        self._records = tuple(records) if records is not None else None
        if self._records is not None and len(self._records) != self._n:
            raise ValueError("records must match the column length")
        # The ColumnStore owning this database's buffers, when they
        # live in shared memory (see repro.data.store); None means
        # ordinary heap arrays.  Set by ColumnStore.place()/attach().
        self._store = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> "ColumnarDatabase":
        """Columnarize mapping-style (dict) records.

        Attribute set is taken from the first record; all records must
        share it.  Values become numpy columns with inferred dtypes
        (falling back to object arrays for mixed types).
        """
        records = tuple(records)
        if not records:
            raise ValueError("cannot columnarize an empty record set")
        names = list(records[0].keys())
        columns = {}
        for name in names:
            try:
                values = [r[name] for r in records]
            except KeyError:
                raise ValueError(
                    f"record missing attribute {name!r}; records must share a schema"
                ) from None
            arr = np.asarray(values)
            if arr.dtype.kind in "US" and not all(
                isinstance(v, str) for v in values
            ):
                # np.asarray stringifies mixed-type columns (e.g.
                # [5, "NA"] -> ["5", "NA"]), which would silently change
                # values under vectorized comparisons; keep Python
                # objects so == retains per-record semantics.
                arr = np.asarray(values, dtype=object)
            columns[name] = arr
        return cls(columns, records=records)

    @classmethod
    def from_any_records(cls, records: Iterable[object]) -> "ColumnarDatabase":
        """Columnarize mapping records *or* trajectories (slot records).

        The single home of the record-kind dispatch, shared by
        :meth:`from_database` and the sharded engine's
        ``append_records`` so initial construction and incremental
        ingest can never columnarize differently.
        """
        records = tuple(records)
        if records and hasattr(records[0], "slots"):
            from repro.data.tippers import trajectory_columns

            return cls(trajectory_columns(records), records=records)
        return cls.from_records(records)  # type: ignore[arg-type]

    @classmethod
    def from_database(cls, db: Database) -> "ColumnarDatabase":
        """Columnarize a row database of mapping records or trajectories."""
        return cls.from_any_records(db.records)

    @classmethod
    def concat(
        cls, parts: Sequence["ColumnarDatabase"]
    ) -> "ColumnarDatabase":
        """Concatenate databases record-wise (shared schema required).

        Plain columns concatenate directly; ragged columns concatenate
        their flats and rebase the offsets.  Original record tuples are
        kept only when every part has them (a mixed concatenation would
        silently fabricate records).  This is the append primitive the
        incremental shard updates are built on.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        names = parts[0].column_names
        for part in parts[1:]:
            if part.column_names != names:
                raise ValueError("all parts must share a column schema")
        if len(parts) == 1:
            return parts[0]
        columns: dict[str, np.ndarray | RaggedColumn] = {}
        for name in names:
            cols = [part[name] for part in parts]
            if isinstance(cols[0], RaggedColumn):
                lengths = np.concatenate([c.lengths for c in cols])
                columns[name] = RaggedColumn(
                    flat=np.concatenate([c.flat for c in cols]),
                    offsets=np.concatenate([[0], np.cumsum(lengths)]),
                )
            else:
                columns[name] = np.concatenate(cols)
        records = None
        if all(part._records is not None for part in parts):
            records = tuple(r for part in parts for r in part._records)
        return cls(columns, records=records)

    def __getstate__(self) -> dict:
        # Shared-memory handles are process-local: a pickled database
        # ships its column *values* (numpy copies the view data) and
        # arrives heap-backed; descriptors, not pickles, are the
        # zero-copy transport (repro.data.store).
        state = self.__dict__.copy()
        state["_store"] = None
        state.pop("distinct_summary", None)  # derived: rebuilt on arrival
        return state

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __getitem__(self, name: str) -> np.ndarray | RaggedColumn:
        return self._columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def iter_records(self) -> Iterator[object]:
        """Per-record views (original records when available)."""
        if self._records is not None:
            return iter(self._records)
        names = list(self._columns)
        plain = {
            name: col
            for name, col in self._columns.items()
            if not isinstance(col, RaggedColumn)
        }
        if len(plain) != len(names):
            raise TypeError(
                "cannot reconstruct records with ragged columns; "
                "build the database with explicit records"
            )
        return (
            {name: plain[name][i] for name in names} for i in range(self._n)
        )

    def to_database(self) -> Database:
        return Database(self.iter_records())

    # ------------------------------------------------------------------
    # Policy operations (Definition 3.1, vectorized)
    # ------------------------------------------------------------------
    def mask(self, policy: Policy) -> np.ndarray:
        """Per-record {0 (sensitive), 1 (non-sensitive)} labels."""
        return policy.evaluate_batch(self)

    def sensitive_indices(self, policy: Policy) -> np.ndarray:
        return np.flatnonzero(self.mask(policy) == SENSITIVE)

    def non_sensitive_indices(self, policy: Policy) -> np.ndarray:
        return np.flatnonzero(self.mask(policy) == NON_SENSITIVE)

    def select(self, indices: np.ndarray) -> "ColumnarDatabase":
        """A new database with the given records (columns sliced)."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        columns = {
            name: col.take(indices)
            if isinstance(col, RaggedColumn)
            else col[indices]
            for name, col in self._columns.items()
        }
        records = (
            tuple(self._records[i] for i in indices.tolist())
            if self._records is not None
            else None
        )
        return ColumnarDatabase(columns, records=records)

    def slice_records(self, start: int, stop: int) -> "ColumnarDatabase":
        """Records ``[start, stop)`` with every column sliced, not copied.

        Plain columns become numpy views and ragged columns rebase their
        offsets (:meth:`RaggedColumn.slice_segments`), so slicing is the
        cheap primitive sharding is built on.
        """
        if not 0 <= start <= stop <= self._n:
            raise ValueError(f"slice [{start}, {stop}) outside [0, {self._n}]")
        columns = {
            name: col.slice_segments(start, stop)
            if isinstance(col, RaggedColumn)
            else col[start:stop]
            for name, col in self._columns.items()
        }
        records = (
            self._records[start:stop] if self._records is not None else None
        )
        return ColumnarDatabase(columns, records=records)

    def shard(self, n_shards: int):
        """Split into a :class:`repro.data.sharding.ShardedColumnarDatabase`."""
        from repro.data.sharding import ShardedColumnarDatabase

        return ShardedColumnarDatabase.from_columnar(self, n_shards)

    # ------------------------------------------------------------------
    # Shared-memory backing (see repro.data.store)
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The owning :class:`repro.data.store.ColumnStore`, or None."""
        return self._store

    def share(self, headroom: float | None = None) -> "ColumnarDatabase":
        """This database with its columns in shared-memory segments.

        Returns a value-identical database whose arrays are read-only
        views over :mod:`multiprocessing.shared_memory` segments (one
        physical copy, attachable by name from any process — the
        zero-copy substrate of :class:`repro.data.workers.ShardWorkerPool`).
        Already-shared databases return themselves.  The returned
        database's :attr:`store` owns the segments: its ``close()``/GC
        unlinks them once nothing in this process needs them.

        ``headroom`` over-allocates the segments by that growth
        fraction so streaming appends can extend the columns in place
        (see :meth:`repro.data.store.ColumnStore.try_append`).
        """
        if self._store is not None:
            return self
        from repro.data.store import ColumnStore

        return ColumnStore.place(self, headroom=headroom).database

    def non_sensitive(self, policy: Policy) -> "ColumnarDatabase":
        """``D_ns = {r in D | P(r) = 1}`` via one vectorized mask."""
        return self.select(self.non_sensitive_indices(policy))

    def sensitive(self, policy: Policy) -> "ColumnarDatabase":
        return self.select(self.sensitive_indices(policy))

    def partition(
        self, policy: Policy
    ) -> tuple["ColumnarDatabase", "ColumnarDatabase"]:
        """(sensitive, non_sensitive) split under ``policy``."""
        mask = self.mask(policy)
        return (
            self.select(np.flatnonzero(mask == SENSITIVE)),
            self.select(np.flatnonzero(mask == NON_SENSITIVE)),
        )

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def histogram_from_indices(
        self, bin_indices: np.ndarray, n_bins: int
    ) -> np.ndarray:
        """Counts per bin from a precomputed per-record index array."""
        bin_indices = np.asarray(bin_indices)
        if len(bin_indices) != self._n:
            raise ValueError("bin indices must cover every record")
        if len(bin_indices) and (
            bin_indices.min() < 0 or bin_indices.max() >= n_bins
        ):
            offender = bin_indices[
                (bin_indices < 0) | (bin_indices >= n_bins)
            ][0]
            raise ValueError(
                f"record mapped to bin {int(offender)}, outside [0, {n_bins})"
            )
        return np.bincount(bin_indices, minlength=n_bins).astype(np.int64)

    def histogram(self, binning, n_bins: int | None = None) -> np.ndarray:
        """Counts per bin; one ``np.bincount`` over vectorized indices."""
        n_bins = binning.n_bins if n_bins is None else n_bins
        return self.histogram_from_indices(binning.bin_indices(self), n_bins)

    @cached_property
    def distinct_summary(
        self,
    ) -> tuple["ColumnarDatabase", np.ndarray] | None:
        """The distinct rows of the low-cardinality plain columns.

        ``(rows, weights)``: each value tuple the kept columns take in
        this database, once (same names and dtypes), and the int64
        number of records carrying it.  A policy is a function on the
        record domain (Definition 3.1), so whatever reads only kept
        columns can be evaluated on ``rows`` and counted with
        ``weights`` — O(distinct), not O(records), to the same integers
        (``repro.queries.histogram._summary_counts``).  None when the
        ``SUMMARY_*`` constants rule it out; columns are kept smallest
        domain first while the joint cells stay within budget.

        Built on first use (about two scans) and cached on the object:
        a database is immutable — appends, expires and shared-memory
        remaps all make a new one — so the summary can never go stale,
        and it dies with the object.
        """
        if self._n < SUMMARY_MIN_ROWS:
            return None
        coded = []
        for name, column in self._columns.items():
            pair = _value_codes(column)
            if pair is not None:
                coded.append((name, *pair))
        coded.sort(key=lambda entry: len(entry[2]))
        cells, n_cells, kept = 0, 1, []
        for name, codes, values in coded:
            if n_cells * len(values) * SUMMARY_MIN_ROWS_PER_CELL > self._n:
                break
            cells = cells * len(values) + codes
            n_cells *= len(values)
            kept.append((name, values))
        if not kept:
            return None
        weights = np.bincount(cells, minlength=n_cells)
        rest = np.flatnonzero(weights)
        weights = weights[rest].astype(np.int64)
        columns = {}
        for name, values in reversed(kept):
            rest, code = np.divmod(rest, len(values))
            columns[name] = values[code]
        return _DistinctRows(columns), weights

    @property
    def summary_built(self) -> bool:
        """Has :attr:`distinct_summary` been asked for (and so cached)?"""
        return "distinct_summary" in self.__dict__

    def fused_counts(
        self, binning, ns_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(x, x_ns)`` in one fused kernel pass, or None when ineligible.

        The raw-speed count path (:mod:`repro.mechanisms.kernels`):
        for an equal-width integer binning over a plain integer column,
        bin-index computation, range validation and both bincounts run
        as a single pass per shard.  ``ns_mask`` is the boolean
        non-sensitive flags (the policy mask is the one stage that
        stays separate — the policy algebra is arbitrary).  Ineligible
        layouts (ragged or
        non-integer columns, other binning kinds) return None and the
        caller falls back to the unfused path; when a pair is returned
        it is byte-identical to ``bin_indices`` + two bincounts.
        """
        from repro.mechanisms import kernels
        from repro.queries.histogram import IntegerBinning

        if type(binning) is not IntegerBinning:
            return None
        values = self._columns.get(binning.attribute)
        if not isinstance(values, np.ndarray) or values.dtype.kind not in "iu":
            return None
        ns_mask = np.asarray(ns_mask)
        if ns_mask.shape != values.shape:
            raise ValueError(
                f"bin indices cover {values.shape[0]} records but the "
                f"policy mask covers {ns_mask.shape[0]}"
            )
        return kernels.int_bin_pair(
            values,
            binning.low,
            binning.width,
            binning.high,
            binning.n_bins,
            ns_mask,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarDatabase(n={self._n}, "
            f"columns={list(self._columns)!r})"
        )


class _DistinctRows(ColumnarDatabase):
    """A summary's rows: columns for vectorized evaluation only.

    A policy that gives up on its vectorized form must fall back over
    the real records, so the fallback fails here (and the caller scans).
    """

    def iter_records(self):
        raise TypeError("distinct rows serve vectorized evaluation only")
