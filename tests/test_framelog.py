"""The one write path (`repro.service.framelog`) and its two clients.

Three things are pinned here, none of them through the helpers under
test:

* **The on-disk format.**  A WAL directory and a budget directory are
  built from *hand-packed* bytes (``struct``/``json`` in this file) and
  must recover — a directory written by any earlier commit still opens.
* **FrameLog itself** — append/scan round trip, where scanning stops,
  atomic snapshot replacement, loud refusal of a bad snapshot, and the
  exact ``fsync`` count of every operation.
* **The shared torn-tail logic**, by cutting the log at *every byte* of
  its last frame: the WAL recovers exactly the acked prefix, the charge
  journal never recovers less than the acked epsilon and counts the
  torn charge once.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.api.wire import WireError
from repro.core.accountant import LedgerEntry
from repro.core.policy import OptInPolicy
from repro.data.columnar import ColumnarDatabase
from repro.service.budget import ChargeJournal, DurableAccountant
from repro.service.framelog import FrameError, FrameLog, frame
from repro.service.server import ReleaseServer
from repro.service.wal import WriteAheadLog, database_columns


def _identity(blob: bytes) -> bytes:
    return blob


# ----------------------------------------------------------------------
# Hand-packed bytes: the format as the parent commit wrote it
# ----------------------------------------------------------------------


def _packed_frame(blob: bytes) -> bytes:
    return struct.pack(">II", len(blob), zlib.crc32(blob)) + blob


def _packed_message(body, arrays=()) -> bytes:
    """A wire-codec message: ``[u32 header length][JSON header][raw
    array bytes...]``; arrays appear in ``body`` as ``{"__array__": i}``."""
    header = json.dumps(
        {
            "v": 1,
            "arrays": [
                {
                    "dtype": a.dtype.str,
                    "shape": list(a.shape),
                    "nbytes": a.nbytes,
                }
                for a in arrays
            ],
            "body": body,
        },
        separators=(",", ":"),
    ).encode()
    return b"".join(
        [struct.pack(">I", len(header)), header, *(a.tobytes() for a in arrays)]
    )


def _packed_charge(seq: int, epsilon: float, label: str) -> bytes:
    """A charge-journal blob: 8 raw epsilon bytes, then the document."""
    return struct.pack(">d", epsilon) + _packed_message(
        {
            "seq": seq,
            "epsilon": epsilon,
            "label": label,
            "analyst": "",
            "policy": {"kind": "opt_in", "attr": "opt_in"},
            "policy_name": "opt_in",
        }
    )


def _server() -> ReleaseServer:
    return ReleaseServer(
        ColumnarDatabase(
            {"age": np.arange(10) % 7, "opt_in": np.arange(10) % 2 == 0}
        ).shard(2)
    )


class TestParentCommitDirectoriesStillOpen:
    def test_wal_directory_of_hand_packed_frames_recovers(self, tmp_path):
        ages = np.array([41, 42, 43], dtype=np.int64)
        flags = np.array([True, False, True])
        snapshot = _packed_message(
            {
                "last_seq": 2,
                "chain": 77,
                "applied": [["w2", 2, 0]],
                "columns": {
                    "age": {"__array__": 0},
                    "opt_in": {"__array__": 1},
                },
            },
            [ages, flags],
        )
        entries = [
            # A pre-snapshot leftover (seq 2), then two live entries.
            {"seq": 2, "write_id": "w2", "wop": "expire_prefix",
             "payload": {"n_records": 0}, "chain": 77},
            {"seq": 3, "write_id": "w3", "wop": "append_records",
             "payload": {"records": [{"age": 9, "opt_in": False}]},
             "chain": 0},
            {"seq": 4, "write_id": None, "wop": "expire_prefix",
             "payload": {"n_records": 1}, "chain": 0},
        ]
        (tmp_path / "snapshot.bin").write_bytes(_packed_frame(snapshot))
        (tmp_path / "wal.log").write_bytes(
            b"".join(_packed_frame(_packed_message(e)) for e in entries)
            + _packed_frame(b"never acked")[:13]  # a torn tail
        )
        server = _server()
        with WriteAheadLog(tmp_path) as wal:
            report = wal.recover(server)
            assert report == {
                "snapshot_seq": 2, "replayed": 2, "skipped": 0,
                "truncated_bytes": 13,
            }
            assert wal.last_seq == 4
            assert wal.applied_result("w2") == {"seq": 2, "result": 0}
            assert wal.applied_result("w3")["seq"] == 3
            # The recovered log takes appends from a clean boundary.
            assert wal.log("expire_prefix", {"n_records": 0}) == 5
        columns = database_columns(server.db)
        assert columns["age"].tolist() == [42, 43, 9]
        assert columns["opt_in"].tolist() == [False, True, False]

    def test_budget_directory_of_hand_packed_frames_recovers(self, tmp_path):
        snapshot = _packed_message(
            {
                "last_seq": 1,
                "entries": [
                    {"seq": 1, "epsilon": 0.5, "label": "snap",
                     "analyst": "alice", "policy": None,
                     "policy_name": "handwritten"},
                ],
            }
        )
        (tmp_path / "budget_snapshot.bin").write_bytes(_packed_frame(snapshot))
        torn = _packed_frame(_packed_charge(4, 2.0, "interrupted"))[:-5]
        (tmp_path / "budget.log").write_bytes(
            _packed_frame(_packed_charge(1, 0.5, "leftover"))
            + _packed_frame(_packed_charge(2, 0.25, "second"))
            + _packed_frame(_packed_charge(3, 0.125, "third"))
            + torn
        )
        with DurableAccountant(tmp_path, total_epsilon=10.0) as acct:
            assert acct.recovery["snapshot_seq"] == 1
            assert acct.recovery["replayed"] == 2
            assert acct.recovery["torn_bytes"] == len(torn)
            assert acct.recovery["torn_epsilon"] == 2.0
            assert acct.spent == 0.5 + 0.25 + 0.125 + 2.0
            assert acct.spent_by("alice") == 0.5
            assert [e.label for e in acct.ledger][:3] == [
                "snap", "second", "third",
            ]
        with DurableAccountant(tmp_path, total_epsilon=10.0) as again:
            assert again.spent == 2.875
            assert again.recovery["torn_bytes"] == 0


# ----------------------------------------------------------------------
# FrameLog
# ----------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls (still performing them)."""
    calls, real = [], os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestFrameLog:
    def _log(self, directory) -> FrameLog:
        return FrameLog(directory, "log", "snap")

    def test_frame_is_length_then_crc(self):
        assert frame(b"abc") == _packed_frame(b"abc")

    def test_append_scan_round_trip(self, tmp_path):
        log = self._log(tmp_path)
        assert not (tmp_path / "log").exists()  # opened on first append
        blobs = [b"", b"one", bytes(range(256)) * 5]
        for blob in blobs:
            log.append(blob)
        assert (tmp_path / "log").read_bytes() == b"".join(
            _packed_frame(b) for b in blobs
        )
        assert log.scan(_identity) == (blobs, b"")
        log.append(b"after a scan")  # the handle reopens in append mode
        assert self._log(tmp_path).scan(_identity)[0] == blobs + [
            b"after a scan"
        ]

    def test_missing_log_scans_empty(self, tmp_path):
        assert self._log(tmp_path).scan(_identity) == ([], b"")

    @pytest.mark.parametrize(
        "damage",
        ["short header", "short blob", "bad crc", "undecodable"],
    )
    def test_scan_stops_and_truncates_at_the_first_bad_frame(
        self, tmp_path, damage
    ):
        good = _packed_frame(b"good")
        tail = {
            "short header": b"\x00\x00\x00",
            "short blob": _packed_frame(b"x" * 50)[:20],
            "bad crc": struct.pack(">II", 3, 12345) + b"abc",
            "undecodable": _packed_frame(b"poison"),
        }[damage] + _packed_frame(b"after")  # untrusted once past damage
        (tmp_path / "log").write_bytes(good + tail)

        def decode(blob):
            if blob == b"poison":
                raise WireError("not a message")
            return blob

        docs, torn = self._log(tmp_path).scan(decode)
        assert docs == [b"good"]
        assert torn == tail
        assert (tmp_path / "log").read_bytes() == good

    def test_snapshot_is_old_or_new_never_partial(self, tmp_path, monkeypatch):
        log = self._log(tmp_path)
        assert log.read_snapshot(_identity) is None
        log.write_snapshot(b"old")
        # Crash while the replacement is still being written: only the
        # tmp file is touched, the real name still holds the old frame.
        (tmp_path / "snap.tmp").write_bytes(_packed_frame(b"new" * 99)[:30])
        assert log.read_snapshot(_identity) == b"old"

        # Crash at the rename itself: still the old one, whole.
        def crash(src, dst):
            raise OSError("power cut")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="power cut"):
                log.write_snapshot(b"new")
        assert log.read_snapshot(_identity) == b"old"
        log.write_snapshot(b"new")
        assert log.read_snapshot(_identity) == b"new"
        assert (tmp_path / "snap").read_bytes() == _packed_frame(b"new")
        assert not (tmp_path / "snap.tmp").exists()

    @pytest.mark.parametrize("keep", [0, 5, 8, -1])
    def test_corrupt_snapshot_raises(self, tmp_path, keep):
        log = self._log(tmp_path)
        log.write_snapshot(b"acked state")
        data = (tmp_path / "snap").read_bytes()
        if keep == -1:
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        else:
            data = data[:keep]
        (tmp_path / "snap").write_bytes(data)
        with pytest.raises(FrameError, match="integrity"):
            log.read_snapshot(_identity)

    def test_undecodable_snapshot_raises(self, tmp_path):
        log = self._log(tmp_path)
        log.write_snapshot(b"whole frame, wrong content")

        def decode(blob):
            raise WireError("not a message")

        with pytest.raises(FrameError, match="does not decode"):
            log.read_snapshot(decode)

    def test_truncate_empties_the_log(self, tmp_path):
        log = self._log(tmp_path)
        log.append(b"compacted away")
        log.truncate()
        assert (tmp_path / "log").read_bytes() == b""
        log.append(b"next")
        assert log.scan(_identity) == ([b"next"], b"")

    def test_fsync_counts(self, tmp_path, fsyncs):
        log = self._log(tmp_path)
        log.append(b"entry")
        assert len(fsyncs) == 1  # the ack contract: one per append
        log.write_snapshot(b"state")
        assert len(fsyncs) == 3  # tmp file, then the directory
        log.truncate()
        assert len(fsyncs) == 5  # emptied file, then the directory
        log.append(b"torn")
        (tmp_path / "log").write_bytes(_packed_frame(b"torn")[:-1])
        del fsyncs[:]
        log.scan(_identity)
        assert len(fsyncs) == 1  # the tail cut
        log.scan(_identity)
        assert len(fsyncs) == 1  # nothing torn, nothing flushed

    def test_clients_flush_once_per_entry(self, tmp_path, fsyncs):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.log("expire_prefix", {"n_records": 0})
            assert len(fsyncs) == 1
        with ChargeJournal(tmp_path / "budget") as journal:
            journal.append_entry(LedgerEntry(OptInPolicy(), 0.5, "charge"))
            assert len(fsyncs) == 2
            journal.compact()
            assert len(fsyncs) == 6  # snapshot + dir, truncate + dir


# ----------------------------------------------------------------------
# Crash points: cut the log at every byte of its last frame
# ----------------------------------------------------------------------


def _append(lo: int, hi: int) -> dict:
    return {
        "columns": {
            "age": np.arange(lo, hi) % 7,
            "opt_in": np.ones(hi - lo, dtype=bool),
        }
    }


class _WalCrash:
    """Two acked appends, then the append the crash interrupts."""

    LOG_NAME = WriteAheadLog.LOG_NAME

    @staticmethod
    def write(directory) -> int:
        log_path = directory / WriteAheadLog.LOG_NAME
        with WriteAheadLog(directory) as wal:
            wal.log("append_records", _append(0, 4), write_id="a")
            wal.log("append_records", _append(4, 9), write_id="b")
            acked = log_path.stat().st_size
            wal.log("append_records", _append(9, 20), write_id="c")
        return acked

    @staticmethod
    def check(directory, acked: int, torn: int) -> None:
        log_path = directory / WriteAheadLog.LOG_NAME
        for restart in range(2):
            server = _server()
            with WriteAheadLog(directory) as wal:
                report = wal.recover(server)
                assert wal.last_seq == 2
            # Exactly the acked prefix — the torn write never shows.
            assert report["replayed"] == 2
            assert len(server.db) == 10 + 9
            assert report["truncated_bytes"] == (torn if restart == 0 else 0)
            assert log_path.stat().st_size == acked


class _JournalCrash:
    """Two acked charges, then the charge the crash interrupts."""

    LOG_NAME = ChargeJournal.LOG_NAME
    TOTAL, ACKED, LAST = 10.0, 0.75, 1.0

    @classmethod
    def write(cls, directory) -> int:
        log_path = directory / ChargeJournal.LOG_NAME
        with DurableAccountant(directory, total_epsilon=cls.TOTAL) as acct:
            acct.charge(OptInPolicy(), 0.5, label="first")
            acct.charge(OptInPolicy(), 0.25, label="second")
            acked = log_path.stat().st_size
            acct.charge(OptInPolicy(), cls.LAST, label="interrupted")
        return acked

    @classmethod
    def check(cls, directory, acked: int, torn: int) -> None:
        with DurableAccountant(directory, total_epsilon=cls.TOTAL) as first:
            spent = first.spent
            assert first.recovery["replayed"] == 2
            assert first.recovery["torn_bytes"] == torn
        # Epsilon never resurrects: the acked charges always stand, and
        # a torn charge costs its epsilon once its 8 raw bytes (past
        # the 8-byte frame header) are on disk, else the whole budget.
        if torn == 0:
            assert spent == cls.ACKED
        elif torn >= 16:
            assert spent == cls.ACKED + cls.LAST
        else:
            assert spent == cls.TOTAL
        # ...and a second restart counts the torn charge exactly once.
        with DurableAccountant(directory, total_epsilon=cls.TOTAL) as second:
            assert second.spent == spent
            assert second.recovery["torn_bytes"] == 0
            assert second.recovery["replayed"] == (3 if torn else 2)


@pytest.mark.parametrize("client", [_WalCrash, _JournalCrash])
def test_crash_at_every_byte_of_the_last_frame(client, tmp_path):
    (tmp_path / "live").mkdir()
    acked = client.write(tmp_path / "live")
    data = (tmp_path / "live" / client.LOG_NAME).read_bytes()
    assert acked + 24 < len(data)
    for cut in range(acked, len(data)):
        directory = tmp_path / f"cut-{cut}"
        directory.mkdir()
        (directory / client.LOG_NAME).write_bytes(data[:cut])
        client.check(directory, acked, torn=cut - acked)
