"""Per-endpoint write-ahead logging for the durable cluster write path.

A replicated write is only as durable as the weakest replica: the
cluster coordinator (:mod:`repro.api.cluster`) acks a write once the
first replica of its range has logged and applied it, so that replica
must survive a SIGKILL *after* the ack with the write intact.  This
module is that guarantee:

* Every write is serialized with the PR-4 wire codec
  (:func:`repro.api.wire.encode_message` — the same JSON-header +
  raw-ndarray framing the socket speaks), assigned a monotonically
  increasing per-range **sequence number**, framed and **fsync'd
  before the endpoint acks** (frame format and every durability flush:
  :mod:`repro.service.framelog`).  The sequence numbers double as the
  replica-divergence detector and the shipping cursor: a peer logs a
  shipped entry under its original number.
* On startup :meth:`WriteAheadLog.recover` replays the log onto a
  freshly built server: load the last snapshot (if any), then apply
  every entry past it, so a SIGKILL'd endpoint comes back at exactly
  its acked state.  A torn tail — the frame a crash interrupted
  mid-write — fails its length/CRC check and is truncated away; it was
  never acked, so dropping it is correct.
* **Snapshot + truncate compaction** bounds replay: every
  ``snapshot_every`` entries the full column state is written
  (tmp + fsync + atomic rename) and the log truncated, so recovery
  cost is one snapshot load plus at most ``snapshot_every`` entries,
  not the endpoint's whole write history.
* The ``applied`` map (``write_id`` → result) makes a write idempotent
  at the *protocol* level: a late copy of a cluster write whose entry
  a peer already shipped here gets the recorded result back instead
  of a double-apply, even across an endpoint restart (the map rides in
  the snapshot).

:class:`MemoryWal` is the same interface without the disk — the
default for embedded/test servers, giving them the sequence numbers
and resync machinery without tmpdir ceremony (and, deliberately, no
crash durability).

WAL methods are not internally locked: on a live endpoint the one
caller is :class:`repro.service.replica.Replica`, whose mutations run
under :class:`repro.service.rpc.RpcServer`'s exclusive write lock (or
before serving starts), which is the serialization the sequence
numbers rely on anyway.
"""

from __future__ import annotations

import os
import zlib
from collections import OrderedDict

import numpy as np

from repro.api.wire import encode_message
from repro.service.framelog import FrameError, FrameLog, decode_message

#: The write operations a WAL entry may carry.
WAL_OPS = frozenset({"append_records", "expire_prefix"})


class WalError(RuntimeError):
    """A corrupt WAL structure or a sequencing violation."""


def validate_payload(wop: str, message, db=None) -> tuple[dict, object]:
    """Read one write out of a request message or a logged payload.

    The one payload reader.  Returns ``(payload, argument)``: the WAL
    payload — only the write's own fields (``columns`` or ``records``
    for an append, ``n_records`` for an expire) — and what the server's
    write method takes (the rows to append, the count to expire).

    A malformed write is rejected here, *before* it is logged: logging
    happens before applying (log-first is the durability order), so
    anything that would make the apply fail must fail here instead — a
    logged entry that cannot apply would poison every replay.  ``db``
    (when given) additionally bounds ``expire_prefix`` against the
    current record count.
    """
    if wop not in WAL_OPS:
        raise ValueError(f"unknown write op {wop!r}; expected one of {sorted(WAL_OPS)}")
    if wop == "append_records":
        columns = message.get("columns")
        if columns is None:
            records = list(message["records"])
            return {"records": records}, records
        columns = dict(columns)
        return {"columns": columns}, _columnar(columns)
    n = int(message["n_records"])
    if n < 0:
        raise ValueError("n_records must be non-negative")
    if db is not None and n > len(db):
        raise ValueError(
            f"cannot expire {n} records; only {len(db)} are stored"
        )
    return {"n_records": n}, n


def _columnar(columns):
    """A columns mapping — wire, WAL or snapshot form — as a database."""
    from repro.data.columnar import ColumnarDatabase

    return ColumnarDatabase(
        {str(k): np.asarray(v) for k, v in dict(columns).items()}
    )


def apply_write(server, wop: str, payload):
    """Apply one WAL entry's operation to a :class:`ReleaseServer`."""
    _, argument = validate_payload(wop, payload)
    if wop == "append_records":
        return server.append_records(argument)
    return server.expire_prefix(argument)


def database_columns(db) -> dict:
    """The full column state of a (sharded) columnar database, as the
    plain contiguous arrays a snapshot or ``sync_range`` base ships.

    Raises :class:`WalError` for layouts without a portable array form
    (ragged/object columns) — callers degrade (skip compaction, refuse
    a full-state sync) rather than snapshot something unreadable.
    """
    from repro.data.columnar import ColumnarDatabase
    from repro.data.sharding import ShardedColumnarDatabase

    if isinstance(db, ShardedColumnarDatabase):
        db = db.to_columnar()
    if not isinstance(db, ColumnarDatabase):
        raise WalError(
            f"cannot export columns from {type(db).__name__}; expected a "
            "columnar database"
        )
    columns = {}
    for name in db.column_names:
        column = db[name]
        if not isinstance(column, np.ndarray) or column.dtype.hasobject:
            raise WalError(
                f"column {name!r} has no portable snapshot form "
                "(ragged/object columns cannot ride the wire codec)"
            )
        columns[name] = np.ascontiguousarray(column)
    return columns


class MemoryWal:
    """The WAL interface without the disk: sequence numbers, retained
    entries for peer resync, and the applied-write replay map — but no
    crash durability (an endpoint restart starts the log empty).
    """

    durable = False

    def __init__(self, snapshot_every: int = 256, applied_limit: int = 1024):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if applied_limit < 1:
            raise ValueError("applied_limit must be at least 1")
        self.snapshot_every = snapshot_every
        self.applied_limit = applied_limit
        #: The highest sequence number ever logged (0 = nothing yet).
        self.last_seq = 0
        #: Entries at or below this seq live only in the snapshot.
        self.snapshot_seq = 0
        #: Running CRC32 over every entry's ``(seq, wop, write_id)``
        #: identity — the divergence detector.  Two replicas at the
        #: same ``last_seq`` hold the same history iff their chains
        #: match; a replica that logged a write its peers never acked
        #: (a leader that failed before its ack) sits at an equal seq
        #: with a different chain, which a base reset resolves.
        self.chain = 0
        #: :attr:`chain` as of :attr:`snapshot_seq`.
        self.snapshot_chain = 0
        self._entries: list[dict] = []
        self._applied: OrderedDict[str, dict] = OrderedDict()

    # -- logging --------------------------------------------------------
    def log(self, wop: str, payload, write_id=None, seq=None) -> int:
        """Durably record one write; returns its sequence number.

        ``seq`` may be passed explicitly (``apply_entries`` replays a
        peer's entries under their original numbers) but must be
        exactly the next in sequence — gaps would silently desync the
        replica from its peers.
        """
        expected = self.last_seq + 1
        if seq is None:
            seq = expected
        elif int(seq) != expected:
            raise WalError(
                f"out-of-sequence wal entry: got seq {seq}, expected "
                f"{expected} (a gap here means this replica missed a "
                "write and must resync from a peer)"
            )
        entry = {
            "seq": int(seq),
            "write_id": None if write_id is None else str(write_id),
            "wop": str(wop),
            "payload": payload,
            "chain": self.next_chain(seq, wop, write_id),
        }
        self._persist(entry)
        self._entries.append(entry)
        self.last_seq = int(seq)
        self.chain = entry["chain"]
        return int(seq)

    def next_chain(self, seq, wop, write_id) -> int:
        """The chain after logging ``(seq, wop, write_id)`` here — what
        a peer's entry must carry to continue this history."""
        token = f"{int(seq)}:{wop}:{write_id}".encode()
        return zlib.crc32(token, self.chain)

    def chain_at(self, seq: int) -> int | None:
        """The chain digest as of ``seq``, or None when not retained."""
        if seq == self.snapshot_seq:
            return self.snapshot_chain
        for entry in self._entries:
            if entry["seq"] == seq:
                return entry["chain"]
        return None

    def apply(self, server, seq: int, wop: str, payload, write_id=None):
        """The post-log half of a write: apply the logged entry to the
        engine, then remember its result for idempotent replay."""
        result = apply_write(server, wop, payload)
        self.record_result(write_id, seq, result)
        return result

    def record_result(self, write_id, seq: int, result) -> None:
        """Remember a committed write's result for idempotent replay."""
        if write_id is None:
            return
        self._applied[str(write_id)] = {"seq": int(seq), "result": result}
        while len(self._applied) > self.applied_limit:
            self._applied.popitem(last=False)

    def applied_result(self, write_id) -> dict | None:
        """``{"seq", "result"}`` of an already-committed write, or None."""
        if write_id is None:
            return None
        return self._applied.get(str(write_id))

    # -- resync support -------------------------------------------------
    def entries_since(self, from_seq: int) -> list[dict]:
        """Retained entries with ``seq > from_seq`` (oldest first)."""
        return [e for e in self._entries if e["seq"] > from_seq]

    def applied_export(self) -> list[list]:
        """The applied map as ``[write_id, seq, result]`` rows (wire-safe)."""
        return [
            [wid, doc["seq"], doc["result"]]
            for wid, doc in self._applied.items()
        ]

    def install_base(self, columns, last_seq, applied, chain=0, server=None):
        """Adopt a peer's full state as this WAL's new starting point.

        The base path of ``apply_entries``, for a replica too far behind
        or diverged (same or higher seq, different history): ``server``
        (when given) takes ``columns``; the log restarts empty at
        ``last_seq``, as a snapshot of that state, and the peer's
        applied map carries over so a late copy of a write stays idempotent.
        """
        self._adopt(columns, last_seq, chain, applied, server)
        self._write_snapshot(columns)
        self._truncate_log()

    def _adopt(self, columns, last_seq, chain, applied, server=None) -> None:
        """Take a full state — a peer's resync base or this endpoint's
        own snapshot — as the current one: the engine's columns (when
        ``server`` is given), the cursor, the chain and the applied
        map; no retained entries."""
        if server is not None:
            server.replace_database(_columnar(columns))
        self.last_seq = self.snapshot_seq = int(last_seq)
        self.chain = self.snapshot_chain = int(chain)
        self._entries = []
        self._applied = OrderedDict(
            (str(wid), {"seq": int(seq), "result": result})
            for wid, seq, result in (applied or [])
        )

    def status(self) -> dict:
        return {
            "last_seq": self.last_seq,
            "snapshot_seq": self.snapshot_seq,
            "chain": self.chain,
            "log_entries": len(self._entries),
            "durable": self.durable,
        }

    # -- compaction -----------------------------------------------------
    def maybe_compact(self, server) -> bool:
        if len(self._entries) < self.snapshot_every:
            return False
        return self.compact(server)

    def compact(self, server) -> bool:
        """Snapshot the engine's current state and truncate the log.

        Returns False (leaving the log to grow) when the state has no
        portable snapshot form — correctness never depends on
        compaction, only replay cost does.
        """
        try:
            columns = database_columns(server.db)
        except WalError:
            return False
        self._write_snapshot(columns)
        self._entries = []
        self.snapshot_seq = self.last_seq
        self.snapshot_chain = self.chain
        self._truncate_log()
        return True

    def close(self) -> None:
        pass

    # -- storage hooks (memory: none) -----------------------------------
    def _persist(self, entry: dict) -> None:
        pass

    def _write_snapshot(self, columns: dict) -> None:
        pass

    def _truncate_log(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class WriteAheadLog(MemoryWal):
    """The durable WAL: ``wal.log`` (framed entries, fsync'd per write)
    plus ``snapshot.bin`` (full column state, atomically replaced) in
    one directory per endpoint.
    """

    durable = True
    LOG_NAME = "wal.log"
    SNAPSHOT_NAME = "snapshot.bin"

    def __init__(
        self,
        directory,
        snapshot_every: int = 256,
        applied_limit: int = 1024,
    ):
        super().__init__(
            snapshot_every=snapshot_every, applied_limit=applied_limit
        )
        self.directory = os.fspath(directory)
        self._frames = FrameLog(
            self.directory, self.LOG_NAME, self.SNAPSHOT_NAME
        )

    # -- storage hooks: the bytes live in the FrameLog -----------------
    def _persist(self, entry: dict) -> None:
        self._frames.append(encode_message(entry))

    def _write_snapshot(self, columns: dict) -> None:
        self._frames.write_snapshot(
            encode_message(
                {
                    "last_seq": self.last_seq,
                    "chain": self.chain,
                    "applied": self.applied_export(),
                    "columns": columns,
                }
            )
        )

    def _truncate_log(self) -> None:
        self._frames.truncate()

    def close(self) -> None:
        self._frames.close()

    # -- recovery -------------------------------------------------------
    def recover(self, server) -> dict:
        """Replay snapshot + log onto a freshly built server.

        Call once, before serving, on a server holding the same base
        data the endpoint was originally built with: a snapshot (when
        present) replaces that state wholesale, then every retained
        entry past it re-applies in sequence order.  The log's torn
        tail (if any) was never acked: the scan truncates it on disk
        and it is dropped here, only its size reported.
        """
        report = {
            "snapshot_seq": 0,
            "replayed": 0,
            "skipped": 0,
            "truncated_bytes": 0,
        }
        try:
            snapshot = self._frames.read_snapshot(decode_message)
        except FrameError as exc:
            # Unlike a torn log tail (never acked, safe to drop), a bad
            # snapshot means acked state may be unrecoverable — refuse
            # loudly rather than silently serve pre-snapshot data.
            raise WalError(
                f"{exc}; acked state cannot be reconstructed from it"
            ) from exc
        if snapshot is not None:
            self._adopt(
                snapshot["columns"],
                snapshot["last_seq"],
                snapshot.get("chain", 0),
                snapshot.get("applied"),
                server,
            )
            report["snapshot_seq"] = self.snapshot_seq
        entries, torn = self._frames.scan(decode_message)
        report["truncated_bytes"] = len(torn)
        for entry in entries:
            seq = int(entry["seq"])
            if seq <= self.last_seq:
                # Pre-snapshot leftovers: a crash between snapshot
                # rename and log truncation leaves entries the
                # snapshot already contains.
                continue
            if seq != self.last_seq + 1:
                raise WalError(
                    f"wal {self._frames.log_path} has a sequence gap: "
                    f"entry {seq} follows {self.last_seq}"
                )
            # Recompute the chain rather than trusting the stored one —
            # the link structure is what certifies an unbroken history.
            entry["chain"] = self.next_chain(
                seq, entry["wop"], entry.get("write_id")
            )
            self._entries.append(entry)
            self.last_seq = seq
            self.chain = entry["chain"]
            try:
                self.apply(
                    server, seq, entry["wop"], entry["payload"],
                    entry.get("write_id"),
                )
            except Exception:
                # The live path validates before logging, so this is a
                # poisoned entry (it failed live, too) — count it and
                # keep the sequence advancing, exactly as the live
                # server's state did.
                report["skipped"] += 1
            else:
                report["replayed"] += 1
        return report
