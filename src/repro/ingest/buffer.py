"""Client-side group-commit batching for streaming appends.

One sensor event at a time through ``append_records`` pays the full
write path per event — an exclusive lock acquisition, a WAL fsync (or
a replicated cluster write) for a single row.  :class:`IngestBuffer`
coalesces: events stage in memory and flush as **one** append — one
lock, one WAL entry, one fsync, one replicated commit — when a size or
age watermark trips (or on an explicit :meth:`flush`).  Because the
flush rides the ordinary ``append_records`` of whatever target it was
given, the same buffer batches into an in-process engine, a remote
endpoint, or a replicated cluster's write path unchanged, and the final
column state is bit-identical to a cold batch load of the same events
(appends concatenate in arrival order on every path).

Durability semantics are explicit: an event is **acked** — durable,
counted in :attr:`events_flushed` — only when the flush that carried
it returns.  Staged events live in this process's memory; a crash
before their flush loses exactly them and nothing acked, which is the
contract the WAL tests pin (replay recovers to the acked watermark).

Backpressure is a bounded queue: when staging would exceed
``max_pending`` events, :meth:`append` first tries to flush; if the
flush cannot drain (the target is down), it raises
:class:`IngestBackpressure` instead of growing without bound.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ingest.clock import SYSTEM_CLOCK, Clock


class IngestBackpressure(RuntimeError):
    """The buffer is full and could not drain; retry after a flush."""


def _columnar_batch(records: list):
    """Columnarize a flush batch when it has a plain fixed-width form.

    Columns ride the wire as raw ndarray frames (cheap); anything
    without that form — ragged trajectories, mixed-type values — ships
    as the row list instead.  Either way the receiving engine appends
    the same records in the same order.
    """
    from repro.data.columnar import ColumnarDatabase, RaggedColumn

    try:
        db = ColumnarDatabase.from_any_records(records)
    except Exception:
        return records
    for name in db.column_names:
        column = db[name]
        if isinstance(column, RaggedColumn):
            return records
        if np.asarray(column).dtype.hasobject:
            return records
    return db


class IngestBuffer:
    """Batch events client-side; flush as one append per group commit.

    ``target`` is anything with ``append_records`` — a backend, an
    :class:`~repro.api.OsdpClient`, or a live engine.  Watermarks:
    ``max_events`` flushes on size, ``max_age`` (seconds, None = off)
    flushes when the oldest staged event has waited that long (checked
    on :meth:`append` and :meth:`tick` — drive ``tick`` from a timer
    for quiet streams).  ``on_flush(records)`` runs after each
    successful flush with the events it made durable, in order — the
    retention driver hooks it to learn durable timestamps.
    """

    def __init__(
        self,
        target,
        max_events: int = 512,
        max_age: float | None = None,
        max_pending: int = 4096,
        clock: Clock | None = None,
        on_flush: Callable[[list], None] | None = None,
    ):
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        if max_pending < max_events:
            raise ValueError("max_pending must be at least max_events")
        if max_age is not None and max_age <= 0:
            raise ValueError("max_age must be positive (or None)")
        self._target = target
        self.max_events = int(max_events)
        self.max_age = max_age
        self.max_pending = int(max_pending)
        self._clock = SYSTEM_CLOCK if clock is None else clock
        self._on_flush = on_flush
        self._staged: list = []
        self._oldest_staged_at: float | None = None
        self.events_in = 0
        self.events_flushed = 0
        self.flushes = 0

    # ------------------------------------------------------------------
    # Staging
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Staged-but-unflushed (not yet durable) event count."""
        return len(self._staged)

    def append(self, record) -> dict | None:
        """Stage one event; flush if a watermark trips.

        Returns the flush report when this append triggered one, else
        None.  Raises :class:`IngestBackpressure` when the buffer is
        full and flushing could not drain it.
        """
        if len(self._staged) >= self.max_pending:
            # Full: draining is the only way forward.  A flush failure
            # here propagates as backpressure, not silent growth.
            try:
                self.flush()
            except IngestBackpressure:
                raise
            except Exception as exc:
                raise IngestBackpressure(
                    f"ingest buffer is full ({self.max_pending} events) "
                    f"and the flush that would drain it failed: {exc}"
                ) from exc
        if self._oldest_staged_at is None:
            self._oldest_staged_at = self._clock.now()
        self._staged.append(record)
        self.events_in += 1
        if len(self._staged) >= self.max_events:
            return self.flush()
        return self.tick()

    def extend(self, records) -> dict | None:
        """Stage many events; returns the last flush report, if any."""
        report = None
        for record in records:
            flushed = self.append(record)
            if flushed is not None:
                report = flushed
        return report

    def tick(self) -> dict | None:
        """Flush if the age watermark has tripped; timer-driven entry."""
        if (
            self.max_age is not None
            and self._staged
            and self._clock.now() - self._oldest_staged_at >= self.max_age
        ):
            return self.flush()
        return None

    # ------------------------------------------------------------------
    # The group commit
    # ------------------------------------------------------------------
    def flush(self) -> dict:
        """Commit every staged event as one append; returns a report.

        On failure the events stay staged (nothing is dropped before it
        is durable) and the error propagates.
        """
        if not self._staged:
            return {"events": 0, "pending": 0}
        batch = self._staged
        self._target.append_records(_columnar_batch(batch))
        # Only now — after the ack — do the events leave the buffer.
        self._staged = []
        self._oldest_staged_at = None
        self.events_flushed += len(batch)
        self.flushes += 1
        if self._on_flush is not None:
            self._on_flush(batch)
        return {"events": len(batch), "pending": 0}

    def close(self) -> dict:
        """Final flush; the buffer stays usable but should be dropped."""
        return self.flush()

    def __enter__(self) -> "IngestBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
