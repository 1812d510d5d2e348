"""Zero-copy column storage: shared-memory segments behind columnar data.

Every :class:`repro.data.workers.ShardWorkerPool` worker reads its
shard through this module, never through a pickled copy of the columns.
:class:`ColumnStore` places a
:class:`~repro.data.columnar.ColumnarDatabase`'s flat buffers into
POSIX shared-memory segments (:mod:`multiprocessing.shared_memory`)
and renders the whole database as a **descriptor** — a ~100-byte plain
dict per column naming the segments and their dtypes/shapes.  Any
process (forked or spawned) rebuilds the database from the descriptor
with :meth:`ColumnStore.attach`: the arrays are read-only views over
the same physical pages, so

* pool startup ships descriptors, not arrays — O(1) bytes per worker
  regardless of the record count;
* co-hosted pools (or any number of attachers) share **one** physical
  copy of the columns;
* attaching is O(segment count), never O(records).

Lifecycle is explicit and asymmetric, mirroring POSIX semantics: every
holder calls :meth:`close` (drop this process's mapping); exactly one
owner calls :meth:`unlink` (remove the segments from the system).  The
store registers a GC finalizer as a safety net, so a leaked store
cannot leak ``/dev/shm`` segments past interpreter exit, and attachers
unregister from :mod:`multiprocessing.resource_tracker` so a dying
worker can never tear down segments its parent still serves from.

Heap backing stays the default everywhere: a database that was never
placed simply has no store (``db.store is None``) and behaves exactly
as before.  Placement is value-preserving — the placed database's
columns compare bit-identical to the originals — and read-only, which
matches the engine's copy-on-write discipline (columns are never
mutated in place; appends/expires build new arrays/views).
"""

from __future__ import annotations

import os
import secrets
import struct
import threading
import weakref
from typing import Mapping

import numpy as np

#: Prefix of every segment this module creates; the shm leak tests (and
#: operators inspecting /dev/shm) identify our segments by it.
SEGMENT_PREFIX = "osdp"

#: POSIX shm names are limited (31 bytes on macOS including the
#: leading slash); keep ours well under.
_TOKEN_BYTES = 8

#: Headroom segments carry a little-endian u64 *live element count* at
#: offset 0; data starts at this offset (16 keeps any numpy itemsize
#: aligned).  Exact-size segments have no header — the descriptor's
#: ``cap`` key is what marks a segment as headroom-shaped.
_HEADER_BYTES = 16
_LENGTH_HEADER = struct.Struct("<Q")

#: Minimum spare elements a headroom placement reserves, so tiny (or
#: empty) columns still absorb a useful number of appends before their
#: first remap.
_MIN_HEADROOM = 1024


def shm_available() -> bool:
    """True when POSIX shared memory is usable on this platform."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - platform-dependent
        return False
    return True


def placeable(db) -> bool:
    """True when every column of ``db`` has a fixed-width buffer.

    Object-dtype columns (mixed-type record values) have no raw-buffer
    form and cannot place; numeric, boolean and fixed-width string
    columns all do.
    """
    from repro.data.columnar import RaggedColumn

    for name in db.column_names:
        column = db[name]
        if isinstance(column, RaggedColumn):
            if column.flat.dtype.hasobject or column.offsets.dtype.hasobject:
                return False
        elif np.asarray(column).dtype.hasobject:
            return False
    return True


#: Serializes segment *creation* with the pre-3.13 attach fallback
#: below: the fallback briefly no-ops ``resource_tracker.register``,
#: and a concurrent ``SharedMemory(create=True)`` in another thread
#: must not land its registration inside that window (it would lose
#: the tracker's SIGKILL safety net for a segment we own).
_TRACKER_LOCK = threading.Lock()


def _attach_segment(name: str):
    """Open an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the segment with this process's
    resource tracker, which would *unlink* it when this process exits —
    destroying data the creating process still serves (bpo-38119).
    Python 3.13 grew ``track=False``; on older interpreters the
    registration is suppressed instead of undone — calling
    ``unregister`` after the fact would be wrong under ``fork``, where
    parent and worker share one tracker and the undo would also erase
    the *owner's* registration.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on interpreter
        pass
    from multiprocessing import resource_tracker

    with _TRACKER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _new_segment(nbytes: int):
    from multiprocessing import shared_memory

    # shm segments cannot be empty; 0-length columns round up to one
    # byte (the descriptor's shape, not the segment size, is truth).
    size = max(1, int(nbytes))
    for _ in range(8):
        name = f"{SEGMENT_PREFIX}_{secrets.token_hex(_TOKEN_BYTES)}"
        try:
            with _TRACKER_LOCK:  # see the lock's comment
                return shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
        except FileExistsError:  # pragma: no cover - 2^64 collision
            continue
    raise RuntimeError("could not allocate a unique shared-memory name")


def _view(
    shm, dtype: np.dtype, shape: tuple[int, ...], offset: int = 0
) -> np.ndarray:
    """A read-only ndarray over a segment's buffer."""
    count = int(np.prod(shape)) if shape else 1
    if count == 0:
        arr = np.empty(shape, dtype=dtype)
    else:
        arr = np.frombuffer(
            shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    arr.flags.writeable = False
    return arr


def _read_length(shm) -> int:
    """The live element count a headroom segment's header declares."""
    return _LENGTH_HEADER.unpack_from(shm.buf, 0)[0]


def _write_length(shm, n: int) -> None:
    _LENGTH_HEADER.pack_into(shm.buf, 0, int(n))


def _close_quietly(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # Live array views still export the mmap's buffer, so the
        # mapping cannot be unmapped yet — it dies with the process (or
        # when the last view does).  Release the file descriptor now
        # and disarm the handle so SharedMemory.__del__ does not retry
        # the doomed close at GC/interpreter exit; unlink() is
        # independent of close() and still removes the name, so nothing
        # leaks system-wide.
        try:
            if shm._fd >= 0:  # pragma: no branch
                os.close(shm._fd)
                shm._fd = -1
        except OSError:  # pragma: no cover - already closed
            pass
        shm._mmap = None
        shm._buf = None


class ColumnStore:
    """The shared-memory segments behind one columnar database.

    Build with :meth:`place` (creates segments, becomes the owner) or
    :meth:`attach` (opens an existing descriptor, never the owner);
    read the rebuilt database from :attr:`database` and the wire form
    from :meth:`descriptor`.  ``close()`` releases this process's
    mappings; ``close(unlink=True)``/``unlink()`` additionally removes
    the segments (owner only — attachers silently skip it).
    """

    def __init__(self, segments: dict[str, object], owner: bool):
        self._segments = dict(segments)
        self._owner = owner
        self._closed = False
        self.database = None  # set by place()/attach()
        self._descriptor: dict | None = None
        # GC safety net: a store that falls out of scope must not leak
        # /dev/shm segments.  The finalizer captures the segment list,
        # never the store (else it would keep the store alive forever).
        self._finalizer = weakref.finalize(
            self, ColumnStore._cleanup, dict(self._segments), owner
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def place(cls, db, headroom: float | None = None) -> "ColumnStore":
        """Copy ``db``'s column buffers into fresh shm segments.

        Returns the owning store; ``store.database`` is a new
        :class:`~repro.data.columnar.ColumnarDatabase` with the same
        column values as read-only segment views.  Raises
        :class:`TypeError` when a column has no fixed-width buffer (see
        :func:`placeable`).

        ``headroom`` over-allocates every 1-D array's segment by that
        growth fraction (at least :data:`_MIN_HEADROOM` spare elements)
        behind a live-length header, so later :meth:`try_append` calls
        extend the columns in place instead of remapping — the
        streaming-append fast path.  ``None`` (the default) keeps the
        exact-size, headerless layout.
        """
        from repro.data.columnar import ColumnarDatabase, RaggedColumn

        if not placeable(db):
            raise TypeError(
                "database has object-dtype columns; shared-memory "
                "placement needs fixed-width buffers"
            )
        segments: dict[str, object] = {}
        spec: dict[str, dict] = {}
        columns: dict[str, object] = {}
        try:
            for name in db.column_names:
                column = db[name]
                if isinstance(column, RaggedColumn):
                    flat, flat_seg = cls._place_array(
                        column.flat, segments, headroom
                    )
                    offs, offs_seg = cls._place_array(
                        np.asarray(column.offsets), segments, headroom
                    )
                    columns[name] = RaggedColumn(flat=flat, offsets=offs)
                    spec[name] = {
                        "kind": "ragged",
                        "flat": flat_seg,
                        "offsets": offs_seg,
                    }
                else:
                    arr, seg = cls._place_array(
                        np.asarray(column), segments, headroom
                    )
                    columns[name] = arr
                    spec[name] = {"kind": "plain", **seg}
        except BaseException:
            for shm in segments.values():
                _close_quietly(shm)
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            raise
        store = cls(segments, owner=True)
        store._descriptor = {"v": 1, "columns": spec}
        store.database = ColumnarDatabase(columns)
        store.database._store = store
        return store

    @staticmethod
    def _place_array(
        arr: np.ndarray, segments: dict, headroom: float | None = None
    ) -> tuple[np.ndarray, dict]:
        arr = np.ascontiguousarray(arr)
        if headroom is not None and arr.ndim == 1:
            cap = len(arr) + max(int(len(arr) * headroom), _MIN_HEADROOM)
            shm = _new_segment(_HEADER_BYTES + cap * arr.dtype.itemsize)
            segments[shm.name] = shm
            _write_length(shm, len(arr))
            if arr.size:
                np.frombuffer(
                    shm.buf,
                    dtype=arr.dtype,
                    count=arr.size,
                    offset=_HEADER_BYTES,
                )[:] = arr
            view = _view(shm, arr.dtype, arr.shape, offset=_HEADER_BYTES)
            return view, {
                "segment": shm.name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "cap": cap,
            }
        shm = _new_segment(arr.nbytes)
        segments[shm.name] = shm
        if arr.size:
            np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size)[
                :
            ] = arr.ravel()
        view = _view(shm, arr.dtype, arr.shape)
        return view, {
            "segment": shm.name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
        }

    @classmethod
    def attach(cls, descriptor: Mapping) -> "ColumnStore":
        """Open the segments a descriptor names; zero data movement.

        The returned store is **not** the owner: closing it drops this
        process's mappings and never unlinks.  Works across ``fork``
        and ``spawn`` alike — the descriptor is plain data and the
        attach is by name.
        """
        from repro.data.columnar import ColumnarDatabase

        segments: dict[str, object] = {}
        try:
            columns = cls._open_columns(descriptor["columns"], segments)
        except BaseException:
            for shm in segments.values():
                _close_quietly(shm)
            raise
        store = cls(segments, owner=False)
        store._descriptor = {
            "v": 1,
            "columns": {k: dict(v) for k, v in descriptor["columns"].items()},
        }
        store.database = ColumnarDatabase(columns)
        store.database._store = store
        return store

    @staticmethod
    def _open_columns(spec: Mapping, segments: dict) -> dict:
        """Build column views from a columns spec, opening segments.

        Headroom segments (``cap`` key) read their **live** element
        count from the length header — the descriptor's ``shape`` is
        only the length at placement time, and the owner may have
        extended the column since.
        """
        from repro.data.columnar import RaggedColumn

        def open_array(seg: Mapping) -> np.ndarray:
            name = seg["segment"]
            if name not in segments:
                segments[name] = _attach_segment(name)
            shm = segments[name]
            if "cap" in seg:
                return _view(
                    shm,
                    np.dtype(seg["dtype"]),
                    (_read_length(shm),),
                    offset=_HEADER_BYTES,
                )
            return _view(shm, np.dtype(seg["dtype"]), tuple(seg["shape"]))

        columns: dict[str, object] = {}
        for name, seg in spec.items():
            if seg["kind"] == "ragged":
                columns[name] = RaggedColumn(
                    flat=open_array(seg["flat"]),
                    offsets=open_array(seg["offsets"]),
                )
            else:
                columns[name] = open_array(seg)
        return columns

    # ------------------------------------------------------------------
    # In-place extension (headroom segments)
    # ------------------------------------------------------------------
    def try_append(self, chunk):
        """Extend the stored columns in place by ``chunk``'s records.

        The streaming-append fast path: when every column's segment
        was placed with headroom and has room for the chunk (same
        schema, same dtypes), the chunk's values are written into the
        spare capacity and the length headers bumped — no new segment,
        no remap, O(chunk) work.  The result is bit-identical to
        ``ColumnarDatabase.concat([self.database, chunk])``: plain
        tails are the chunk's own arrays, and ragged offsets rebase by
        the running total exactly as ``concat``'s cumsum computes
        them.  Attachers pick up the new length via :meth:`refresh`.

        Returns the refreshed full database on success, or ``None``
        when any column cannot extend (no headroom, schema/dtype
        mismatch, or capacity overflow) — the caller falls back to a
        remap.
        """
        from repro.data.columnar import RaggedColumn

        if self._closed or self._descriptor is None:
            return None
        spec = self._descriptor["columns"]
        if tuple(spec) != tuple(chunk.column_names):
            return None
        writes: list[tuple] = []
        for name, seg in spec.items():
            column = chunk[name]
            if seg["kind"] == "ragged":
                if not isinstance(column, RaggedColumn):
                    return None
                flat_plan = self._plan_extend(
                    seg["flat"], np.asarray(column.flat)
                )
                offs_seg = seg["offsets"]
                if flat_plan is None or "cap" not in offs_seg:
                    return None
                dtype = np.dtype(offs_seg["dtype"])
                chunk_offsets = np.asarray(column.offsets)
                if chunk_offsets.dtype != dtype:
                    return None
                shm = self._segments[offs_seg["segment"]]
                live = _read_length(shm)
                last = np.frombuffer(
                    shm.buf,
                    dtype=dtype,
                    count=1,
                    offset=_HEADER_BYTES + (live - 1) * dtype.itemsize,
                )[0]
                offs_plan = self._plan_extend(
                    offs_seg, chunk_offsets[1:] + last
                )
                if offs_plan is None:
                    return None
                writes += [flat_plan, offs_plan]
            else:
                if isinstance(column, RaggedColumn):
                    return None
                plan = self._plan_extend(seg, np.asarray(column))
                if plan is None:
                    return None
                writes.append(plan)
        for shm, dtype, live, values in writes:
            if values.size:
                np.frombuffer(
                    shm.buf,
                    dtype=dtype,
                    count=values.size,
                    offset=_HEADER_BYTES + live * dtype.itemsize,
                )[:] = values
        # Values first, headers last: a torn observer can never see a
        # length that covers unwritten bytes.  Cross-column consistency
        # is the caller's single-writer protocol (extensions run under
        # the RPC exclusive lock / the pool's append op).
        for shm, dtype, live, values in writes:
            _write_length(shm, live + len(values))
        return self.refresh()

    def _plan_extend(self, seg: Mapping, values: np.ndarray):
        """(shm, dtype, live, values) when ``values`` fit, else None."""
        if "cap" not in seg:
            return None
        dtype = np.dtype(seg["dtype"])
        if values.ndim != 1 or values.dtype != dtype:
            return None
        shm = self._segments.get(seg["segment"])
        if shm is None:
            return None
        live = _read_length(shm)
        if live + len(values) > int(seg["cap"]):
            return None
        return (shm, dtype, live, values)

    def refresh(self):
        """Rebuild the database views from the live length headers.

        Attachers call this after the owner extended the columns in
        place (:meth:`try_append`); cheap — views are rebuilt over the
        already-open segments, no attach and no copy.  Returns the
        refreshed database (also stored on :attr:`database`).
        """
        from repro.data.columnar import ColumnarDatabase

        if self._closed:
            raise RuntimeError("cannot refresh a closed store")
        columns = self._open_columns(
            self._descriptor["columns"], self._segments
        )
        self.database = ColumnarDatabase(columns)
        self.database._store = self
        return self.database

    def length_snapshot(self) -> dict[str, int]:
        """Live header lengths of every headroom segment.

        A rollback token: capture before :meth:`try_append`, hand back
        to :meth:`restore_lengths` to undo an extension whose commit
        failed downstream.
        """
        out: dict[str, int] = {}
        for seg in self._iter_array_specs():
            if "cap" in seg:
                out[seg["segment"]] = _read_length(
                    self._segments[seg["segment"]]
                )
        return out

    def restore_lengths(self, snapshot: Mapping[str, int]) -> None:
        """Roll length headers back to a :meth:`length_snapshot`.

        The bytes past the restored lengths become unreferenced spare
        capacity again; the next extension overwrites them.
        """
        for name, n in snapshot.items():
            _write_length(self._segments[name], n)

    def _iter_array_specs(self):
        for seg in (self._descriptor or {}).get("columns", {}).values():
            if seg["kind"] == "ragged":
                yield seg["flat"]
                yield seg["offsets"]
            else:
                yield seg

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(self._segments)

    def descriptor(self) -> dict:
        """The ~100-bytes-per-column wire form: segment names + layouts.

        Plain data (JSON-able, picklable); any process turns it back
        into the database with :meth:`attach`.
        """
        if self._descriptor is None:  # pragma: no cover - defensive
            raise RuntimeError("store has no descriptor")
        return {
            "v": self._descriptor["v"],
            "columns": {
                k: dict(v) for k, v in self._descriptor["columns"].items()
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, unlink: bool | None = None) -> None:
        """Release this process's mappings (idempotent).

        ``unlink`` defaults to ownership: the owner removes the
        segments from the system, attachers only drop their views.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        ColumnStore._cleanup(
            self._segments, self._owner if unlink is None else unlink
        )

    def unlink(self) -> None:
        """Remove the segments from the system (close + unlink)."""
        self.close(unlink=True)

    @staticmethod
    def _cleanup(segments: dict, unlink: bool) -> None:
        for shm in segments.values():
            _close_quietly(shm)
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:  # already removed
                    pass

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        role = "owner" if self._owner else "attached"
        return (
            f"ColumnStore({role}, segments={len(self._segments)}, "
            f"closed={self._closed})"
        )
