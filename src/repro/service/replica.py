"""One endpoint's durable write protocol, with no socket in it.

:class:`Replica` owns everything an endpoint does to change its data:
direct ``append_records`` / ``expire_prefix``, the cluster commit
protocol's ``prepare_write`` / ``commit_write`` (the coordinator side
is :mod:`repro.api.cluster`), and resync's ``wal_status`` /
``sync_range`` / ``sync_apply``.  Every write, whichever door it comes
through, is one :meth:`Replica._log_and_apply`: validate, log
(``fsync``'d by a durable WAL), apply, record the result — validation
first, so an invalid write consumes no sequence number.

:class:`repro.service.rpc.RpcServer` serves these ops, running every
mutation under the exclusive side of its readers-writer lock (the
serialization the WAL's sequence numbers rely on).  The only lock here
guards the staging table, which ``prepare_write`` touches from the
shared side.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.service.wal import MemoryWal, database_columns, validate_payload


class Replica:
    """The write side of one endpoint: a release server and its WAL.

    ``wal`` defaults to a :class:`~repro.service.wal.MemoryWal`
    (sequence numbers and resync state, no disk); a durable
    :class:`~repro.service.wal.WriteAheadLog` should have had
    ``recover`` run against ``server`` before it is handed here.
    """

    #: Most staged-but-uncommitted writes retained; a prepare evicted
    #: under this pressure surfaces to the coordinator as the same
    #: ``KeyError`` a restart produces, triggering the resync path.
    PENDING_LIMIT = 256

    def __init__(self, server, wal=None):
        self.server = server
        self.wal = MemoryWal() if wal is None else wal
        # Staged prepares: write_id -> (wop, payload), LRU-bounded.
        self._pending_lock = threading.Lock()
        self._pending: OrderedDict[str, tuple] = OrderedDict()

    def _log_and_apply(self, wop: str, payload, write_id=None, seq=None):
        """Validate, log, apply and record one write; ``(seq, result)``.

        Once logged the write is part of this endpoint's acked
        history.  ``seq`` is given only by resync, which replays a
        peer's entries under their original numbers.
        """
        payload, _ = validate_payload(wop, payload, db=self.server.db)
        seq = self.wal.log(wop, payload, write_id=write_id, seq=seq)
        return seq, self.wal.apply(self.server, seq, wop, payload, write_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, wop: str, payload):
        """A direct ``append_records`` / ``expire_prefix``; its result.

        It takes the same log-first path as a committed write, so a
        WAL-backed endpoint is durable whichever door the write came
        through.  ``payload`` may be the whole request message: only
        the write's own fields are read.
        """
        _seq, result = self._log_and_apply(wop, payload)
        self.wal.maybe_compact(self.server)
        return result

    def prepare_write(self, write_id, wop: str, payload) -> dict:
        """Validate and stage a replicated write without applying it."""
        write_id = str(write_id)
        done = self.wal.applied_result(write_id)
        if done is not None:
            # A coordinator retrying a whole write after an ambiguous
            # failure: this replica already committed it.
            return {"state": "applied", **self._reply(**done)}
        payload, _ = validate_payload(wop, payload)
        with self._pending_lock:
            self._pending[write_id] = (wop, payload)
            self._pending.move_to_end(write_id)
            while len(self._pending) > self.PENDING_LIMIT:
                self._pending.popitem(last=False)
        return {"state": "prepared", "last_seq": self.wal.last_seq}

    def commit_write(self, write_id) -> dict:
        """Apply a staged write; a retry replays the recorded result."""
        write_id = str(write_id)
        done = self.wal.applied_result(write_id)
        if done is not None:
            return self._reply(**done, replayed=True)
        with self._pending_lock:
            staged = self._pending.pop(write_id, None)
        if staged is None:
            raise KeyError(
                f"unknown write_id {write_id!r}: its prepare was not "
                "seen (endpoint restarted, or staging was evicted); "
                "the replica must resync before serving"
            )
        seq, result = self._log_and_apply(*staged, write_id=write_id)
        self.wal.maybe_compact(self.server)
        return self._reply(seq, result, replayed=False)

    def _reply(self, seq, result, **extra) -> dict:
        """A committed write's reply: its seq and result, and the
        cursor now."""
        return {"seq": seq, "result": result, "last_seq": self.wal.last_seq, **extra}

    # ------------------------------------------------------------------
    # Resync
    # ------------------------------------------------------------------
    def wal_status(self) -> dict:
        """The WAL cursor plus the record count and staged writes."""
        status = self.wal.status()
        status["n_records"] = len(self.server.db)
        with self._pending_lock:
            status["pending"] = len(self._pending)
        return status

    def sync_range(self, from_seq: int) -> dict:
        """Catch-up material for a follower at ``from_seq``.

        When the follower's cursor falls inside the retained log, ship
        just the entries after it; otherwise (fallen behind a
        compaction, or *ahead* of this peer — a diverged replica whose
        extra writes were never cluster-acked) ship the full column
        state as a base to reset onto.
        """
        from_seq = int(from_seq)
        wal = self.wal
        if wal.snapshot_seq <= from_seq <= wal.last_seq:
            chain_at = wal.chain_at(from_seq)
            if chain_at is not None:
                return {
                    "base": None,
                    "entries": wal.entries_since(from_seq),
                    "last_seq": wal.last_seq,
                    # The follower (via its coordinator) checks its own
                    # chain against this before trusting the entries —
                    # equal seq with a different history means
                    # divergence, which needs the base path below.
                    "chain_at": chain_at,
                }
        return {
            "base": {
                "columns": database_columns(self.server.db),
                "last_seq": wal.last_seq,
                "chain": wal.chain,
                "applied": wal.applied_export(),
            },
            "entries": [],
            "last_seq": wal.last_seq,
        }

    def sync_apply(self, base=None, entries=()) -> dict:
        """Adopt a peer's base state and/or replay its entries under
        their original sequence numbers (entries this log already
        holds are skipped)."""
        wal = self.wal
        if base is not None:
            wal.install_base(
                base["columns"],
                int(base["last_seq"]),
                base.get("applied"),
                chain=base.get("chain", 0),
                server=self.server,
            )
        applied_count = 0
        for entry in entries:
            seq = int(entry["seq"])
            if seq <= wal.last_seq:
                continue  # already applied (overlap with our own log)
            self._log_and_apply(
                entry["wop"], entry["payload"], entry.get("write_id"), seq
            )
            applied_count += 1
        with self._pending_lock:
            # Staged prepares predate the resync and their commits (if
            # any) arrived via the entries above; anything else will be
            # re-prepared by its coordinator.
            self._pending.clear()
        wal.maybe_compact(self.server)
        return {
            "last_seq": wal.last_seq,
            "n_records": len(self.server.db),
            "applied_entries": applied_count,
        }
