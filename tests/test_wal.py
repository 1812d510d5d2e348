"""Unit lane for the write-ahead log (`repro.service.wal`).

The durability contract under test, with no sockets or subprocesses:
every logged write survives ``recover`` onto a fresh server
bit-identically; a torn tail (the frame a crash interrupted) is
truncated away; a corrupt snapshot refuses loudly; snapshot+truncate
compaction bounds replay to the entries past the snapshot; and the
``applied`` map keeps protocol-level retries idempotent across a
restart.  SIGKILL-shaped integration coverage lives in
``tests/test_cluster_writes.py``.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.api.wire import encode_message
from repro.data.columnar import ColumnarDatabase
from repro.service.framelog import frame
from repro.service.server import ReleaseServer
from repro.service.wal import (
    MemoryWal,
    WalError,
    WriteAheadLog,
    apply_write,
    database_columns,
    validate_payload,
)


def _db(n: int = 200, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


def _server(n: int = 200, seed: int = 0) -> ReleaseServer:
    return ReleaseServer(_db(n, seed).shard(2))


def _append_payload(lo: int, hi: int) -> dict:
    return {
        "columns": {
            "age": np.arange(lo, hi) % 100,
            "opt_in": np.ones(hi - lo, dtype=bool),
        }
    }


def _columns(server: ReleaseServer) -> dict:
    return database_columns(server.db)


def _assert_same_state(server: ReleaseServer, mirror: ReleaseServer) -> None:
    ours, theirs = _columns(server), _columns(mirror)
    assert sorted(ours) == sorted(theirs)
    for name, column in ours.items():
        assert np.array_equal(column, theirs[name]), name
        assert column.dtype == theirs[name].dtype, name


def _log_and_apply(wal, server, wop, payload, write_id=None):
    validate_payload(wop, payload, db=server.db)
    seq = wal.log(wop, payload, write_id=write_id)
    result = apply_write(server, wop, payload)
    wal.record_result(write_id, seq, result)
    return seq, result


# ----------------------------------------------------------------------
# MemoryWal: sequencing, chain digest, applied map
# ----------------------------------------------------------------------


class TestMemoryWal:
    def test_sequence_numbers_are_monotonic(self):
        wal = MemoryWal()
        assert wal.log("append_records", _append_payload(0, 3)) == 1
        assert wal.log("expire_prefix", {"n_records": 1}) == 2
        assert wal.last_seq == 2
        assert [e["seq"] for e in wal.entries_since(0)] == [1, 2]
        assert [e["seq"] for e in wal.entries_since(1)] == [2]

    def test_explicit_seq_must_be_next(self):
        wal = MemoryWal()
        wal.log("expire_prefix", {"n_records": 0}, seq=1)
        with pytest.raises(WalError, match="out-of-sequence"):
            wal.log("expire_prefix", {"n_records": 0}, seq=3)
        with pytest.raises(WalError, match="out-of-sequence"):
            wal.log("expire_prefix", {"n_records": 0}, seq=1)

    def test_chain_distinguishes_divergent_histories(self):
        # Two wals at the same last_seq but with different write ids
        # must disagree on the chain — that disagreement is how resync
        # detects a replica that logged a write its peers never acked.
        a, b = MemoryWal(), MemoryWal()
        a.log("append_records", _append_payload(0, 2), write_id="w1")
        b.log("append_records", _append_payload(0, 2), write_id="w2")
        assert a.last_seq == b.last_seq == 1
        assert a.chain != b.chain
        # Same history, same chain.
        c = MemoryWal()
        c.log("append_records", _append_payload(0, 2), write_id="w1")
        assert c.chain == a.chain
        assert c.chain_at(1) == a.chain_at(1)

    def test_chain_at_returns_none_when_not_retained(self):
        wal = MemoryWal()
        wal.log("expire_prefix", {"n_records": 0}, write_id="w")
        assert wal.chain_at(1) == wal.chain
        assert wal.chain_at(7) is None
        assert wal.chain_at(0) == 0  # the empty-history digest

    def test_applied_map_replays_and_evicts_oldest(self):
        wal = MemoryWal(applied_limit=2)
        wal.record_result("a", 1, 10)
        wal.record_result("b", 2, 20)
        assert wal.applied_result("a") == {"seq": 1, "result": 10}
        wal.record_result("c", 3, 30)
        assert wal.applied_result("a") is None  # evicted, oldest first
        assert wal.applied_result("b") == {"seq": 2, "result": 20}
        assert wal.applied_result(None) is None

    def test_install_base_resets_log_and_chain(self):
        wal = MemoryWal()
        wal.log("expire_prefix", {"n_records": 0}, write_id="w")
        wal.install_base(
            {"age": np.arange(3)}, last_seq=9, applied=[["w2", 9, 5]],
            chain=123,
        )
        assert wal.last_seq == wal.snapshot_seq == 9
        assert wal.chain == wal.snapshot_chain == 123
        assert wal.entries_since(0) == []
        assert wal.applied_result("w2") == {"seq": 9, "result": 5}
        assert wal.applied_result("w") is None


# ----------------------------------------------------------------------
# Payload validation / column export
# ----------------------------------------------------------------------


class TestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown write op"):
            validate_payload("drop_table", {})

    def test_expire_bounds(self):
        server = _server(n=10)
        validate_payload("expire_prefix", {"n_records": 10}, db=server.db)
        with pytest.raises(ValueError, match="non-negative"):
            validate_payload("expire_prefix", {"n_records": -1})
        with pytest.raises(ValueError, match="only 10 are stored"):
            validate_payload(
                "expire_prefix", {"n_records": 11}, db=server.db
            )

    def test_database_columns_rejects_object_columns(self):
        db = ColumnarDatabase(
            {"tags": np.array([["a"], ["b", "c"]], dtype=object)}
        )
        with pytest.raises(WalError, match="no portable snapshot form"):
            database_columns(db)


# ----------------------------------------------------------------------
# WriteAheadLog: durability round trips
# ----------------------------------------------------------------------


class TestRecovery:
    def test_recover_replays_to_bit_identical_state(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 30), "w1"
            )
            _log_and_apply(
                wal, server, "expire_prefix", {"n_records": 7}, "w2"
            )

        fresh = _server()  # the same base build a restart would do
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["replayed"] == 2
        assert report["skipped"] == 0
        assert report["truncated_bytes"] == 0
        assert wal2.last_seq == 2
        _assert_same_state(fresh, server)
        # The applied map came back too: a coordinator retry replays.
        assert wal2.applied_result("w1")["seq"] == 1
        assert wal2.applied_result("w2")["seq"] == 2

    def test_recovered_chain_matches_live_chain(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 5), "w1"
            )
            live_chain = wal.chain
        with WriteAheadLog(tmp_path) as wal2:
            wal2.recover(_server())
        assert wal2.chain == live_chain

    def test_torn_tail_is_truncated(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 10), "w1"
            )
        log_path = tmp_path / WriteAheadLog.LOG_NAME
        good_size = log_path.stat().st_size
        # A crash mid-write: a frame header promising more bytes than
        # the file holds.  It was never acked, so dropping it is right.
        with open(log_path, "ab") as handle:
            handle.write(frame(b"x" * 100)[:40])
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["replayed"] == 1
        assert report["truncated_bytes"] == 40
        assert log_path.stat().st_size == good_size
        _assert_same_state(fresh, server)
        # The truncated log accepts new appends from a clean boundary.
        with WriteAheadLog(tmp_path) as wal3:
            wal3.recover(_server())
            assert wal3.log("expire_prefix", {"n_records": 1}) == 2

    def test_crc_corruption_stops_replay(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 10), "w1"
            )
            end_of_first = (tmp_path / WriteAheadLog.LOG_NAME).stat().st_size
            _log_and_apply(
                wal, server, "append_records", _append_payload(10, 20), "w2"
            )
        log_path = tmp_path / WriteAheadLog.LOG_NAME
        data = bytearray(log_path.read_bytes())
        data[end_of_first + 12] ^= 0xFF  # flip a byte inside entry two
        log_path.write_bytes(data)
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["replayed"] == 1  # entry two is untrusted
        assert report["truncated_bytes"] > 0
        assert wal2.last_seq == 1

    def test_sequence_gap_refuses_recovery(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal._persist({"seq": 1, "write_id": None, "wop": "expire_prefix",
                      "payload": {"n_records": 0}, "chain": 0})
        wal._persist({"seq": 3, "write_id": None, "wop": "expire_prefix",
                      "payload": {"n_records": 0}, "chain": 0})
        wal.close()
        with WriteAheadLog(tmp_path) as wal2:
            with pytest.raises(WalError, match="sequence gap"):
                wal2.recover(_server())

    def test_poisoned_entry_is_skipped_but_advances_seq(self, tmp_path):
        # An entry that cannot apply (the live path validates before
        # logging, so this means it failed live too) must not halt
        # replay or desequence the replica.
        wal = WriteAheadLog(tmp_path)
        wal._persist({"seq": 1, "write_id": None, "wop": "expire_prefix",
                      "payload": {"n_records": 10**9}, "chain": 0})
        wal.close()
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report == {
            "snapshot_seq": 0, "replayed": 0, "skipped": 1,
            "truncated_bytes": 0,
        }
        assert wal2.last_seq == 1


class TestGroupCommit:
    """The streaming tier's batched ingest commit: an `IngestBuffer`
    flush is ONE multi-row `append_records` entry — a group commit *is*
    one append, so the WAL needs no merge step of its own."""

    def test_group_commit_landing_on_snapshot_boundary(self, tmp_path):
        """A group commit whose entry lands exactly at the
        ``snapshot_every`` boundary: compaction fires on the batched
        entry, and recovery from the snapshot is bit-identical."""
        server = _server()
        with WriteAheadLog(tmp_path, snapshot_every=2) as wal:
            for group in range(2):
                _log_and_apply(
                    wal, server, "append_records",
                    _append_payload(group * 20, group * 20 + 20),
                    f"g{group}",
                )
                wal.maybe_compact(server)
            # The second group commit IS the boundary entry (seq 2).
            assert wal.snapshot_seq == 2
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["snapshot_seq"] == 2
        assert report["replayed"] == 0  # all 40 events live in the snapshot
        assert len(fresh.db) == len(server.db)
        _assert_same_state(fresh, server)

    def test_torn_tail_mid_group_commit_replays_to_acked_watermark(
        self, tmp_path
    ):
        """A crash halfway through writing a group commit's frame: the
        torn group was never acked, so recovery must truncate it and
        replay exactly the previously acked groups — no partial batch
        ever becomes visible."""
        server = _server()
        log_path = tmp_path / WriteAheadLog.LOG_NAME
        first, second = _append_payload(0, 30), _append_payload(30, 70)
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(wal, server, "append_records", first, "g1")
            acked_size = log_path.stat().st_size
            _log_and_apply(wal, server, "append_records", second, "g2")
            full_size = log_path.stat().st_size
        # Cut the second group's frame in half, as the crash left it.
        torn_size = acked_size + (full_size - acked_size) // 2
        with open(log_path, "r+b") as handle:
            handle.truncate(torn_size)
        mirror = _server()  # the acked watermark: group 1 only
        apply_write(mirror, "append_records", first)
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["replayed"] == 1
        assert report["truncated_bytes"] == torn_size - acked_size
        assert wal2.last_seq == 1
        assert log_path.stat().st_size == acked_size
        _assert_same_state(fresh, mirror)
        # The log accepts the re-submitted group from a clean boundary.
        with WriteAheadLog(tmp_path) as wal3:
            wal3.recover(_server())
            assert wal3.log("append_records", second, write_id="g2") == 2


class TestCompaction:
    def test_snapshot_bounds_replay(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path, snapshot_every=2) as wal:
            for i in range(5):
                _log_and_apply(
                    wal, server, "append_records",
                    _append_payload(i * 4, i * 4 + 4), f"w{i}",
                )
                wal.maybe_compact(server)
            assert wal.snapshot_seq == 4  # compacted at entries 2 and 4
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["snapshot_seq"] == 4
        assert report["replayed"] == 1  # only the entry past the snapshot
        assert wal2.last_seq == 5
        _assert_same_state(fresh, server)

    def test_applied_map_survives_snapshot(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path, snapshot_every=1) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 8), "w1"
            )
            assert wal.maybe_compact(server)
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(_server())
        assert report["replayed"] == 0  # everything lives in the snapshot
        assert wal2.applied_result("w1")["seq"] == 1

    def test_corrupt_snapshot_refuses_loudly(self, tmp_path):
        server = _server()
        with WriteAheadLog(tmp_path, snapshot_every=1) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 8), "w1"
            )
            assert wal.maybe_compact(server)
        snap = tmp_path / WriteAheadLog.SNAPSHOT_NAME
        data = bytearray(snap.read_bytes())
        data[-1] ^= 0xFF
        snap.write_bytes(data)
        with WriteAheadLog(tmp_path) as wal2:
            with pytest.raises(WalError, match="integrity"):
                wal2.recover(_server())

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        # The rename landed but the log truncation didn't: recovery
        # must skip the pre-snapshot leftovers instead of double-applying.
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            _log_and_apply(
                wal, server, "append_records", _append_payload(0, 8), "w1"
            )
            log_bytes = (tmp_path / WriteAheadLog.LOG_NAME).read_bytes()
            assert wal.compact(server)
        # Put the already-snapshotted entry back, as the crash left it.
        (tmp_path / WriteAheadLog.LOG_NAME).write_bytes(log_bytes)
        fresh = _server()
        with WriteAheadLog(tmp_path) as wal2:
            report = wal2.recover(fresh)
        assert report["snapshot_seq"] == 1
        assert report["replayed"] == 0  # leftover skipped, not re-applied
        _assert_same_state(fresh, server)


# ----------------------------------------------------------------------
# Framing details
# ----------------------------------------------------------------------


def test_frame_is_length_then_crc():
    blob = encode_message({"seq": 1})
    framed = frame(blob)
    assert framed[8:] == blob
    length = int.from_bytes(framed[:4], "big")
    crc = int.from_bytes(framed[4:8], "big")
    assert length == len(blob)
    assert crc == zlib.crc32(blob)


def test_lazy_log_open_creates_no_file_until_first_write(tmp_path):
    wal = WriteAheadLog(tmp_path)
    assert not os.path.exists(tmp_path / WriteAheadLog.LOG_NAME)
    wal.log("expire_prefix", {"n_records": 0})
    assert os.path.exists(tmp_path / WriteAheadLog.LOG_NAME)
    wal.close()
