"""Sharded columnar engine: split columns across workers, merge results.

The ROADMAP's million-user service target needs the columnar data path
(:mod:`repro.data.columnar`) to stop being a single in-memory block.
The policy masks and bincounts it computes are embarrassingly parallel
— each record's label and bin index depend only on that record — so the
natural scaling unit is a *shard*: a contiguous slice of every column
(including :class:`~repro.data.columnar.RaggedColumn` offsets, which
rebase for free on contiguous slices).

:class:`ShardedColumnarDatabase` holds ``k`` independent
:class:`~repro.data.columnar.ColumnarDatabase` shards and reassembles
their per-shard results:

* ``Policy.evaluate_batch`` on a sharded database evaluates per shard
  and concatenates the masks (the dispatch lives in
  :mod:`repro.core.policy`, so *every* policy — including user
  subclasses — is shard-aware for free);
* binnings' ``bin_indices`` concatenate per-shard index arrays;
* histograms and :class:`repro.queries.histogram.HistogramInput` merge
  by summing per-shard ``np.bincount`` results.

All merges are **bit-identical** to the single-node path: per-record
semantics are preserved record by record, and bincount merging is exact
integer addition.  Sharding therefore never forks the privacy
semantics; it only changes where the work runs.

Execution has two modes: with no executor, shards run serially
in-process; with a shard-resident executor — anything exposing
``map_resident``, i.e. :class:`repro.data.workers.ShardWorkerPool`:
persistent worker processes holding the shards, answering
``map_shards`` requests with policy/binning *specs* on the wire instead
of re-shipped columns — the per-shard work runs where the shards live.
A resident executor is built *from* the shard objects, so it is
installed with :meth:`ShardedColumnarDatabase.with_executor` after
sharding; databases derived from this one's shards (``non_sensitive``,
``sensitive``, ``share``) hold new objects and are always serial.

The database is no longer frozen at construction: :meth:`append_records`
extends the tail shard and :meth:`expire_prefix` trims the oldest
records in place, bumping per-shard **version counters** so the
release server's caches refresh only the affected shards instead of
forcing a full reslice; :meth:`expire_plan` names the
rows an expiry will take from each shard, for a cache that carries its
counts forward by them.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from repro.core.policy import NON_SENSITIVE, SENSITIVE, Policy
from repro.data.columnar import ColumnarDatabase

T = TypeVar("T")

ShardSlice = tuple[int, int]


def _shard_histogram(shard: ColumnarDatabase, binning, n_bins: int) -> np.ndarray:
    """Module-level per-shard histogram (a worker pool sends it as a spec)."""
    return shard.histogram(binning, n_bins)


def _shard_non_sensitive(shard: ColumnarDatabase, policy: Policy) -> ColumnarDatabase:
    """Module-level (picklable) per-shard non-sensitive selection: a
    worker pool ships it as a pickled callable, never the shard."""
    return shard.non_sensitive(policy)


def _shard_sensitive(shard: ColumnarDatabase, policy: Policy) -> ColumnarDatabase:
    """Module-level (picklable) per-shard sensitive selection."""
    return shard.sensitive(policy)


def shard_slices(n_records: int, n_shards: int) -> list[ShardSlice]:
    """Balanced contiguous ``[start, end)`` slices covering ``n_records``.

    The first ``n_records % n_shards`` shards carry one extra record, so
    shard sizes differ by at most one.  ``n_shards`` may exceed
    ``n_records``; the surplus shards are empty.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(n_records, n_shards)
    slices: list[ShardSlice] = []
    start = 0
    for i in range(n_shards):
        end = start + base + (1 if i < extra else 0)
        slices.append((start, end))
        start = end
    return slices


class ShardedColumnarDatabase:
    """``k`` contiguous column shards that answer as one database.

    Build one with :meth:`from_columnar` (or
    ``ColumnarDatabase.shard``); the shards stay in record order, so
    concatenating per-shard results reproduces the single-node answer
    exactly.
    """

    def __init__(
        self,
        shards: Sequence[ColumnarDatabase],
        executor=None,
    ):
        shards = tuple(shards)
        if not shards:
            raise ValueError("need at least one shard")
        names = shards[0].column_names
        for shard in shards[1:]:
            if shard.column_names != names:
                raise ValueError("all shards must share a column schema")
        if executor is not None and not hasattr(executor, "map_resident"):
            raise TypeError(
                "executor must be shard-resident (expose map_resident, "
                f"like ShardWorkerPool); got {type(executor).__name__}"
            )
        self._shards = shards
        self._executor = executor
        self._versions = [0] * len(shards)
        self._recompute_bounds()

    def _recompute_bounds(self) -> None:
        lengths = [len(s) for s in self._shards]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        self._slices = [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(self._shards))
        ]
        self._n = int(bounds[-1])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columnar(
        cls, db: ColumnarDatabase, n_shards: int
    ) -> "ShardedColumnarDatabase":
        """Split a columnar database into balanced contiguous shards."""
        return cls(
            [db.slice_records(s, e) for s, e in shard_slices(len(db), n_shards)]
        )

    @classmethod
    def from_records(
        cls, records: Iterable[object], n_shards: int
    ) -> "ShardedColumnarDatabase":
        return cls.from_columnar(ColumnarDatabase.from_records(records), n_shards)

    def with_executor(self, executor) -> "ShardedColumnarDatabase":
        """The same shards, mapped on a shard-resident executor (or None)."""
        return ShardedColumnarDatabase(self._shards, executor=executor)

    def share(self) -> "ShardedColumnarDatabase":
        """Every shard placed into shared-memory segments.

        Shards already backed by a :class:`repro.data.store.ColumnStore`
        are kept as-is.  Worker pools built over a shared database
        attach to the same physical segments instead of receiving
        pickled copies, and co-hosted pools share one copy of the data.
        The executor does not carry over: a shard-resident pool answers
        only for the exact shard objects it was built on.
        """
        return ShardedColumnarDatabase([s.share() for s in self._shards])

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def shards(self) -> tuple[ColumnarDatabase, ...]:
        return self._shards

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def slices(self) -> list[ShardSlice]:
        """Global ``[start, end)`` record range of each shard."""
        return list(self._slices)

    @property
    def executor(self):
        return self._executor

    @property
    def shard_versions(self) -> tuple[int, ...]:
        """Per-shard update counters.

        A shard's version bumps whenever :meth:`append_records` or
        :meth:`expire_prefix` touches it; caches keyed on
        ``(shard index, version)`` therefore invalidate exactly the
        entries the update affected.
        """
        return tuple(self._versions)

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._shards[0].column_names

    def iter_records(self):
        for shard in self._shards:
            yield from shard.iter_records()

    def to_database(self):
        from repro.data.database import Database

        return Database(self.iter_records())

    def to_columnar(self) -> ColumnarDatabase:
        """Reassemble one single-node :class:`ColumnarDatabase`."""
        return ColumnarDatabase.concat(list(self._shards))

    # ------------------------------------------------------------------
    # The sharded execution primitive
    # ------------------------------------------------------------------
    def map_shards(
        self,
        fn: Callable[[ColumnarDatabase], T],
        indices: Sequence[int] | None = None,
    ) -> list[T]:
        """``[fn(shard) for shard in shards]`` — serial or on the executor.

        The single choke point every sharded operation funnels through;
        results come back in shard order, so ``np.concatenate`` on them
        reproduces the single-node record order.  ``indices`` restricts
        the pass to a subset of shards (cache refills after an
        incremental update touch only the stale shards).

        The executor — :class:`repro.data.workers.ShardWorkerPool` —
        receives only ``fn``, translated to a spec request against its
        resident copy of the shards.
        """
        if self._executor is not None:
            return self._executor.map_resident(self._shards, fn, indices)
        shards = (
            self._shards
            if indices is None
            else [self._shards[i] for i in indices]
        )
        return [fn(shard) for shard in shards]

    # ------------------------------------------------------------------
    # Incremental updates (append new data, expire the oldest)
    # ------------------------------------------------------------------
    def _columnarize_chunk(self, records) -> ColumnarDatabase:
        chunk = (
            records
            if isinstance(records, ColumnarDatabase)
            else ColumnarDatabase.from_any_records(records)
        )
        if set(chunk.column_names) != set(self.column_names):
            raise ValueError(
                f"appended records have columns {list(chunk.column_names)}, "
                f"database has {list(self.column_names)}"
            )
        if chunk.column_names != self.column_names:
            # Same schema, different attribute order: realign so the
            # per-shard column dictionaries stay congruent.
            chunk = ColumnarDatabase(
                {name: chunk[name] for name in self.column_names},
                records=tuple(chunk.iter_records())
                if chunk._records is not None
                else None,
            )
        return chunk

    def append_records(self, records) -> int:
        """Append records to the tail shard in place; returns its index.

        ``records`` is an iterable of mapping records (or trajectories),
        or an already-columnar chunk.  Only the last shard's columns are
        extended — an O(chunk + tail shard) concatenation instead of a
        full reslice — and only that shard's version bumps, so caches
        keyed on shard versions revalidate exactly one shard.  A worker
        pool installed as the executor extends its resident copy in
        lockstep (from the chunk, or from the shared segments — never a
        re-shipped shard).
        """
        chunk = self._columnarize_chunk(records)
        index = len(self._shards) - 1
        hook = getattr(self._executor, "append_shard_chunk", None)
        new_shard = None
        if hook is not None:
            # The hook hands back the shard to commit — the worker pool
            # extends shm-backed shards in place (headroom segments) or
            # remaps them into fresh ones, and the parent must hold the
            # exact object the workers attached to (the residency
            # contract).  None falls back to the local concatenation.
            new_shard = hook(index, chunk, self._shards[index])
        if new_shard is None:
            new_shard = ColumnarDatabase.concat([self._shards[index], chunk])
        shards = list(self._shards)
        shards[index] = new_shard
        self._shards = tuple(shards)
        self._versions[index] += 1
        self._recompute_bounds()
        return index

    def expire_plan(self, n_records: int) -> list[tuple[int, int]]:
        """The ``(shard index, take)`` trims ``expire_prefix(n_records)`` makes.

        Records are stored in arrival order, so expiry walks shards from
        the front; shards with nothing to give are skipped.  A caller
        that must see the expired rows (the release server carries its
        cached counts forward by their histogram) reads
        ``shards[index].slice_records(0, take)`` *before* expiring.
        """
        if not 0 <= n_records <= self._n:
            raise ValueError(
                f"cannot expire {n_records} of {self._n} records"
            )
        plan: list[tuple[int, int]] = []
        remaining = n_records
        for index, shard in enumerate(self._shards):
            if remaining == 0:
                break
            take = min(len(shard), remaining)
            if take:
                plan.append((index, take))
                remaining -= take
        return plan

    def expire_prefix(self, n_records: int) -> list[int]:
        """Drop the ``n_records`` oldest records in place.

        Trims each shard of :meth:`expire_plan` (a shard fully covered
        by the prefix becomes an empty shard — the shard count, and
        hence any worker assignment, never changes).  Returns the
        indices of the shards that were touched; only their versions
        bump.
        """
        plan = self.expire_plan(n_records)
        hook = getattr(self._executor, "expire_shard_prefix", None)
        affected: list[int] = []
        try:
            for index, take in plan:
                shard = self._shards[index]
                new_shard = shard.slice_records(take, len(shard))
                if hook is not None:
                    hook(index, take, new_shard)
                # Commit shard by shard: if a later shard's hook fails,
                # parent and workers still agree on everything already
                # trimmed (only the failing shard is in doubt).
                shards = list(self._shards)
                shards[index] = new_shard
                self._shards = tuple(shards)
                self._versions[index] += 1
                affected.append(index)
        finally:
            self._recompute_bounds()
        return affected

    # ------------------------------------------------------------------
    # Policy operations (merged from per-shard evaluation)
    # ------------------------------------------------------------------
    def mask(self, policy: Policy) -> np.ndarray:
        """Per-record {0, 1} labels; per-shard evaluation, concatenated."""
        return policy.evaluate_batch(self)

    def sensitive_indices(self, policy: Policy) -> np.ndarray:
        return np.flatnonzero(self.mask(policy) == SENSITIVE)

    def non_sensitive_indices(self, policy: Policy) -> np.ndarray:
        return np.flatnonzero(self.mask(policy) == NON_SENSITIVE)

    def non_sensitive(self, policy: Policy) -> "ShardedColumnarDatabase":
        """Shard-preserving ``D_ns``: each shard keeps its survivors.

        The result is serial: its shards are new objects, and a resident
        executor only answers for the exact shard objects it holds.
        """
        return ShardedColumnarDatabase(
            self.map_shards(functools.partial(_shard_non_sensitive, policy=policy))
        )

    def sensitive(self, policy: Policy) -> "ShardedColumnarDatabase":
        return ShardedColumnarDatabase(
            self.map_shards(functools.partial(_shard_sensitive, policy=policy))
        )

    # ------------------------------------------------------------------
    # Histograms (merged by exact integer addition)
    # ------------------------------------------------------------------
    def bin_indices(self, binning) -> np.ndarray:
        """Per-shard vectorized bin indices, concatenated."""
        return np.concatenate(self.map_shards(binning.bin_indices))

    def histogram(self, binning, n_bins: int | None = None) -> np.ndarray:
        n_bins = binning.n_bins if n_bins is None else n_bins
        parts = self.map_shards(
            functools.partial(_shard_histogram, binning=binning, n_bins=n_bins)
        )
        return np.sum(parts, axis=0, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedColumnarDatabase(n={self._n}, "
            f"n_shards={self.n_shards}, columns={list(self.column_names)!r})"
        )
