"""One endpoint's durable write protocol, with no socket in it.

:class:`Replica` owns everything an endpoint does to change its data:
a write (``append_records`` / ``expire_prefix``), which a cluster
coordinator (:mod:`repro.api.cluster`) sends to one replica of a range
under a ``write_id``, and :meth:`Replica.apply_entries`, which ships
that replica's logged entries — or its full state, as a base — to the
range's other replicas.  ``wal_status`` and ``sync_range`` are the two
reads of the log the coordinator needs besides.  Every write, whichever
door it comes through, is one :meth:`Replica._log_and_apply`: validate,
log (``fsync``'d by a durable WAL), apply, record the result —
validation first, so an invalid write consumes no sequence number.

:class:`repro.service.rpc.RpcServer` serves these ops, running every
mutation under the exclusive side of its readers-writer lock (the
serialization the WAL's sequence numbers rely on).
"""

from __future__ import annotations

from repro.service.wal import MemoryWal, database_columns, validate_payload


class Replica:
    """The write side of one endpoint: a release server and its WAL.

    ``wal`` defaults to a :class:`~repro.service.wal.MemoryWal`
    (sequence numbers and resync state, no disk); a durable
    :class:`~repro.service.wal.WriteAheadLog` should have had
    ``recover`` run against ``server`` before it is handed here.
    """

    def __init__(self, server, wal=None):
        self.server = server
        self.wal = MemoryWal() if wal is None else wal

    def _log_and_apply(self, wop: str, payload, write_id=None, seq=None):
        """Validate, log, apply and record one write; ``(seq, result)``.

        Once logged the write is part of this endpoint's acked
        history.  ``seq`` is given only by :meth:`apply_entries`, which
        replays a peer's entries under their original numbers.
        """
        payload, _ = validate_payload(wop, payload, db=self.server.db)
        seq = self.wal.log(wop, payload, write_id=write_id, seq=seq)
        return seq, self.wal.apply(self.server, seq, wop, payload, write_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, wop: str, payload, write_id=None):
        """An ``append_records`` / ``expire_prefix``: log it, apply it.

        Without a ``write_id`` (a direct client) the reply is the
        write's result.  With one (a cluster coordinator) it is the
        entry's ``seq``, ``write_id``, ``chain`` and ``result`` — the
        coordinator, which holds the ``wop`` and payload, ships the
        entry to the range's other replicas.  A ``write_id`` this log
        already holds gets its recorded ``seq`` and ``result`` back,
        flagged ``replayed``, and is not applied twice.  ``payload``
        may be the whole request message: only the write's own fields
        are read.
        """
        done = self.wal.applied_result(write_id)
        if done is not None:
            # A late copy of a write a peer's entry already brought here.
            return {**done, "replayed": True}
        seq, result = self._log_and_apply(wop, payload, write_id)
        self.wal.maybe_compact(self.server)
        if write_id is None:
            return result
        return {
            "seq": seq,
            "write_id": write_id,
            "chain": self.wal.chain,
            "result": result,
        }

    def apply_entries(self, head_seq, head_chain, entries=(), base=None) -> dict:
        """Bring this replica to a peer's head ``(head_seq, head_chain)``.

        ``base`` (a ``sync_range`` base) is installed first; then each
        entry at ``last_seq + 1`` whose ``chain`` continues this log's
        (``next_chain``) is logged and applied under its own seq, and
        entries this log already holds are skipped.  The ``verdict``:
        ``applied`` (now at the head), ``replayed`` (already there:
        every resend is a no-op), ``behind`` (short of it, nothing
        contradicted: ship the tail after ``last_seq``) or ``diverged``
        (another history: ship a base).  The reply also carries
        ``last_seq``, ``chain`` and ``n_records``.
        """
        wal = self.wal
        if base is not None:
            wal.install_base(
                base["columns"],
                int(base["last_seq"]),
                base.get("applied"),
                chain=base.get("chain", 0),
                server=self.server,
            )
        changed, contradicted = base is not None, False
        for entry in entries:
            seq = int(entry["seq"])
            if seq <= wal.last_seq:
                continue  # already logged here: the head check judges it
            write_id = entry.get("write_id")
            if seq != wal.last_seq + 1:
                break  # a gap: behind
            if wal.next_chain(seq, entry["wop"], write_id) != entry["chain"]:
                contradicted = True
                break
            self._log_and_apply(entry["wop"], entry["payload"], write_id, seq)
            changed = True
        if changed:
            wal.maybe_compact(self.server)
        if (wal.last_seq, wal.chain) == (int(head_seq), int(head_chain)):
            verdict = "applied" if changed else "replayed"
        elif wal.last_seq < int(head_seq) and not contradicted:
            verdict = "behind"
        else:
            verdict = "diverged"
        return {
            "verdict": verdict,
            "last_seq": wal.last_seq,
            "chain": wal.chain,
            "n_records": len(self.server.db),
        }

    # ------------------------------------------------------------------
    # Reads of the log
    # ------------------------------------------------------------------
    def wal_status(self) -> dict:
        """The WAL cursor plus the record count."""
        status = self.wal.status()
        status["n_records"] = len(self.server.db)
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
