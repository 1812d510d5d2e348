"""Unit lane for the write protocol (`repro.service.replica`), no sockets.

A :class:`Replica` over a release server and its WAL is every write an
endpoint takes: direct writes, the two-phase commit's prepare and
commit, and resync's ``sync_range`` / ``sync_apply``.  Each test runs
over an in-memory WAL and a durable one, and checks the engine's
columns against a mirror server that took the same writes directly.
The last two tests guard the split itself: the write steps are called
only from the replica and the WAL, and the replica has no socket.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data.columnar import ColumnarDatabase
from repro.service.replica import Replica
from repro.service.server import ReleaseServer
from repro.service.wal import MemoryWal, WriteAheadLog, database_columns


def _server(n: int = 120, seed: int = 0) -> ReleaseServer:
    rng = np.random.default_rng(seed)
    return ReleaseServer(
        ColumnarDatabase(
            {
                "age": rng.integers(0, 100, n),
                "opt_in": rng.integers(0, 2, n).astype(bool),
            }
        ).shard(2)
    )


def _rows(lo: int, hi: int) -> dict:
    return {
        "columns": {
            "age": np.arange(lo, hi) % 100,
            "opt_in": np.arange(lo, hi) % 3 == 0,
        }
    }


def _assert_same_columns(server, mirror) -> None:
    ours, theirs = database_columns(server.db), database_columns(mirror.db)
    assert list(ours) == list(theirs)
    for name in ours:
        assert ours[name].dtype == theirs[name].dtype, name
        assert ours[name].tobytes() == theirs[name].tobytes(), name


@pytest.fixture(params=["memory", "durable"])
def make_wal(request, tmp_path):
    """A factory of fresh WALs of one kind (each durable one in its own
    directory); every WAL it made is closed afterwards."""
    made = []

    def make(name: str = "wal"):
        if request.param == "memory":
            wal = MemoryWal(snapshot_every=3)
        else:
            wal = WriteAheadLog(tmp_path / name, snapshot_every=3)
        made.append(wal)
        return wal

    yield make
    for wal in made:
        wal.close()


class TestWrites:
    def test_direct_write_logs_then_applies(self, make_wal):
        replica, mirror = Replica(_server(), make_wal()), _server()
        assert replica.write("append_records", _rows(0, 5)) == (
            mirror.append_records(ColumnarDatabase(_rows(0, 5)["columns"]))
        )
        # a whole request message works too: only the payload is read
        message = {"op": "expire_prefix", "n_records": 9, "req_id": "r"}
        assert replica.write("expire_prefix", message) == mirror.expire_prefix(9)
        assert replica.wal.entries_since(1)[0]["payload"] == {"n_records": 9}
        records = [{"age": 7, "opt_in": True}] * 2
        assert replica.write("append_records", {"records": records}) == (
            mirror.append_records(records)
        )
        assert replica.wal.last_seq == replica.wal.snapshot_seq == 3
        _assert_same_columns(replica.server, mirror)

    def test_invalid_write_consumes_no_sequence_number(self, make_wal):
        replica = Replica(_server(n=10), make_wal())
        with pytest.raises(ValueError, match="only 10 are stored"):
            replica.write("expire_prefix", {"n_records": 11})
        with pytest.raises(ValueError, match="unknown write op"):
            replica.write("drop_table", {})
        assert replica.wal.last_seq == 0
        assert len(replica.server.db) == 10

    def test_prepare_then_commit(self, make_wal):
        replica, mirror = Replica(_server(), make_wal()), _server()
        prepared = replica.prepare_write("w1", "append_records", _rows(0, 4))
        assert prepared == {"state": "prepared", "last_seq": 0}
        assert len(replica.server.db) == 120  # staged, not applied
        assert replica.wal_status()["pending"] == 1
        reply = replica.commit_write("w1")
        expected = mirror.append_records(ColumnarDatabase(_rows(0, 4)["columns"]))
        assert reply == {
            "seq": 1, "result": expected, "last_seq": 1, "replayed": False,
        }
        assert replica.wal_status()["pending"] == 0
        _assert_same_columns(replica.server, mirror)

    def test_commit_retry_replays(self, make_wal):
        replica = Replica(_server(), make_wal())
        replica.prepare_write("w1", "expire_prefix", {"n_records": 3})
        first = replica.commit_write("w1")
        again = replica.commit_write("w1")
        assert again == {**first, "replayed": True}
        assert len(replica.server.db) == 117  # applied once
        # a re-sent prepare for a committed write reports it applied
        assert replica.prepare_write("w1", "expire_prefix", {"n_records": 3}) == {
            "state": "applied",
            "seq": first["seq"],
            "result": first["result"],
            "last_seq": 1,
        }

    def test_commit_after_evicted_prepare_raises_key_error(
        self, make_wal, monkeypatch
    ):
        monkeypatch.setattr(Replica, "PENDING_LIMIT", 2)
        replica = Replica(_server(), make_wal())
        for i in range(3):
            replica.prepare_write(f"w{i}", "expire_prefix", {"n_records": 1})
        with pytest.raises(KeyError, match="must resync"):
            replica.commit_write("w0")  # the oldest staging was evicted
        assert replica.commit_write("w2")["seq"] == 1
        with pytest.raises(KeyError, match="prepare was not seen"):
            replica.commit_write("never-prepared")


class TestResync:
    def _leader(self, make_wal, n_writes: int) -> Replica:
        leader = Replica(_server(), make_wal("leader"))
        for i in range(n_writes):
            leader.write("append_records", _rows(10 * i, 10 * i + 2 + i))
        return leader

    def test_sync_range_ships_entries_inside_the_retained_log(self, make_wal):
        leader = self._leader(make_wal, 4)  # compacted at 3: snapshot_seq 3
        shipped = leader.sync_range(3)
        assert shipped["base"] is None
        assert [e["seq"] for e in shipped["entries"]] == [4]
        assert shipped["chain_at"] == leader.wal.chain_at(3)
        assert shipped["last_seq"] == 4

    def test_sync_range_ships_a_base_behind_or_ahead(self, make_wal):
        leader = self._leader(make_wal, 4)
        for from_seq in (1, 9):  # behind the snapshot; ahead of the log
            shipped = leader.sync_range(from_seq)
            assert shipped["entries"] == []
            base = shipped["base"]
            assert base["last_seq"] == 4 and base["chain"] == leader.wal.chain
            for name, column in database_columns(leader.server.db).items():
                assert base["columns"][name].tobytes() == column.tobytes()

    def test_divergent_chain_resets_onto_the_base(self, make_wal):
        leader = self._leader(make_wal, 2)
        follower = Replica(_server(), make_wal("follower"))
        follower.write("append_records", _rows(0, 2))
        # Same seq as the leader's first entry, different history: an
        # ambiguous commit the cluster never acked.
        follower.write("expire_prefix", {"n_records": 1})
        assert follower.wal.last_seq == leader.wal.last_seq == 2
        shipped = leader.sync_range(follower.wal.last_seq)
        assert shipped["base"] is None
        assert shipped["chain_at"] != follower.wal.chain  # divergence seen
        base = leader.sync_range(leader.wal.last_seq + 1)["base"]
        reply = follower.sync_apply(base=base)
        assert reply == {
            "last_seq": 2, "n_records": len(leader.server.db),
            "applied_entries": 0,
        }
        assert follower.wal.chain == leader.wal.chain
        assert follower.wal.entries_since(0) == []
        _assert_same_columns(follower.server, leader.server)

    def test_sync_apply_over_an_overlapping_range(self, make_wal):
        leader = self._leader(make_wal, 2)
        entries = leader.sync_range(0)["entries"]
        follower = Replica(_server(), make_wal("follower"))
        assert follower.sync_apply(entries=entries[:1])["applied_entries"] == 1
        follower.prepare_write("stale", "expire_prefix", {"n_records": 1})
        # Entries 1..2: the first is already in the follower's log.
        reply = follower.sync_apply(entries=entries)
        assert reply["applied_entries"] == 1
        assert reply["last_seq"] == 2
        assert follower.wal.chain == leader.wal.chain
        assert follower.wal_status()["pending"] == 0  # staging dropped
        _assert_same_columns(follower.server, leader.server)


def test_recovery_equals_the_live_replica(tmp_path):
    replica = Replica(_server(), WriteAheadLog(tmp_path, snapshot_every=3))
    replica.write("append_records", _rows(0, 6))
    replica.prepare_write("w1", "append_records", {"records": [{"age": 1, "opt_in": True}]})
    replica.commit_write("w1")
    replica.write("expire_prefix", {"n_records": 5})  # compacts (3 entries)
    leader = Replica(_server(seed=1))
    leader.write("append_records", _rows(50, 53))
    replica.sync_apply(base=leader.sync_range(99)["base"])
    replica.prepare_write("w2", "expire_prefix", {"n_records": 2})
    replica.commit_write("w2")
    live = replica.wal.status()
    replica.wal.close()

    with WriteAheadLog(tmp_path, snapshot_every=3) as wal:
        report = wal.recover(fresh := _server())
        recovered = Replica(fresh, wal)
        assert report["replayed"] == 1 and report["skipped"] == 0
        assert wal.status() == live
        assert recovered.commit_write("w2")["replayed"] is True
        _assert_same_columns(fresh, replica.server)


# ----------------------------------------------------------------------
# The split, guarded
# ----------------------------------------------------------------------

SRC = Path(repro.__file__).parent
WRITE_STEP_MODULES = {Path("service/replica.py"), Path("service/wal.py")}
#: ``.log(`` on these names is a logarithm, not a WAL append.
MATH_MODULES = {"math", "np", "numpy"}


def _write_step_calls(source: str) -> list[int]:
    """Lines calling ``<wal>.log(``, ``apply_write(`` or ``validate_payload(``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "log":
            if not (isinstance(func.value, ast.Name) and func.value.id in MATH_MODULES):
                lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id in {"apply_write", "validate_payload"}:
            lines.append(node.lineno)
    return lines


def test_the_guard_sees_a_write_step():
    assert _write_step_calls("seq = self.wal.log(wop, payload)\n") == [1]
    assert _write_step_calls("x = apply_write(s, w, p)\ny = validate_payload(w, p)\n") == [1, 2]
    assert _write_step_calls("a = math.log(2.0)\nb = np.log(x)\n") == []


def test_write_steps_run_only_in_the_replica_and_the_wal():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative in WRITE_STEP_MODULES:
            continue
        offenders += [
            f"{relative}:{line}" for line in _write_step_calls(path.read_text())
        ]
    assert not offenders, f"write steps outside replica/wal: {offenders}"
    rpc = (SRC / "service/rpc.py").read_text()
    assert "_pending" not in rpc


def test_the_replica_holds_no_socket():
    tree = ast.parse((SRC / "service/replica.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"socket", "socketserver"}
