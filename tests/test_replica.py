"""Unit lane for the write protocol (`repro.service.replica`), no sockets.

A :class:`Replica` over a release server and its WAL is every write an
endpoint takes: direct writes, a cluster write under a ``write_id``
(whose reply is the logged entry), and ``apply_entries``, which ships
a peer's entries or base to it.  Each test runs over an in-memory WAL
and a durable one, and checks the engine's columns against a mirror
server that took the same writes directly.  A property test drives the
real cluster coordinator over three replicas behind lossy in-process
links.  The last tests guard the design itself: the write steps are
called only from the replica and the WAL, the replica has no socket,
the endpoint serves one replication op, and a cluster write is one
exchange per replica (the one test here that opens loopback sockets).
"""

from __future__ import annotations

import ast
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from clocks import FakeClock
from repro.api import (
    ClusterBackend,
    ClusterEndpoint,
    ClusterWriteError,
    PartialClusterError,
    RetryPolicy,
)
from repro.api.wire import encode_message
from repro.data.columnar import ColumnarDatabase
from repro.queries.histogram import IntegerBinning
from repro.service.framelog import decode_message
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

    def test_a_cluster_write_replies_with_its_seq_and_chain(self, make_wal):
        replica, mirror = Replica(_server(), make_wal()), _server()
        reply = replica.write("append_records", _rows(0, 4), "w1")
        expected = mirror.append_records(ColumnarDatabase(_rows(0, 4)["columns"]))
        # No payload comes back: the coordinator ships the one it sent.
        assert reply == {
            "seq": 1, "write_id": "w1", "chain": replica.wal.chain,
            "result": expected,
        }
        [entry] = replica.wal.entries_since(0)
        assert (entry["seq"], entry["chain"]) == (1, reply["chain"])
        for name, column in _rows(0, 4)["columns"].items():
            assert np.array_equal(entry["payload"]["columns"][name], column)
        _assert_same_columns(replica.server, mirror)

    def test_commit_retry_replays(self, make_wal):
        replica = Replica(_server(), make_wal())
        first = replica.write("expire_prefix", {"n_records": 3}, "w1")
        again = replica.write("expire_prefix", {"n_records": 3}, "w1")
        assert again == {"seq": 1, "result": first["result"], "replayed": True}
        assert len(replica.server.db) == 117  # applied once
        assert replica.wal.last_seq == 1
        # the entry shipped back to the replica that logged it: a no-op
        entry = {"wop": "expire_prefix", "payload": {"n_records": 3}, **first}
        reply = replica.apply_entries(first["seq"], first["chain"], [entry])
        assert reply == {
            "verdict": "replayed", "last_seq": 1, "chain": first["chain"],
            "n_records": 117,
        }


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
        # Same seq as the leader's head, different history: a write the
        # cluster never acked (a leader that failed before its ack).
        follower.write("expire_prefix", {"n_records": 1})
        assert follower.wal.last_seq == leader.wal.last_seq == 2
        head = (leader.wal.last_seq, leader.wal.chain)
        shipped = leader.sync_range(0)["entries"]
        assert follower.apply_entries(*head, shipped)["verdict"] == "diverged"
        base = leader.sync_range(-1)["base"]
        reply = follower.apply_entries(*head, base=base)
        assert reply == {
            "verdict": "applied", "last_seq": 2, "chain": leader.wal.chain,
            "n_records": len(leader.server.db),
        }
        assert follower.wal.entries_since(0) == []
        _assert_same_columns(follower.server, leader.server)

    def test_apply_entries_over_an_overlapping_range(self, make_wal):
        leader = self._leader(make_wal, 2)
        entries = leader.sync_range(0)["entries"]
        follower = Replica(_server(), make_wal("follower"))
        first = entries[0]
        reply = follower.apply_entries(first["seq"], first["chain"], entries[:1])
        assert reply["verdict"] == "applied"
        # Entries 1..2: the first is already in the follower's log.
        head = (leader.wal.last_seq, leader.wal.chain)
        reply = follower.apply_entries(*head, entries)
        assert reply["verdict"] == "applied" and reply["last_seq"] == 2
        assert follower.wal.chain == leader.wal.chain
        # A resend changes nothing.
        assert follower.apply_entries(*head, entries)["verdict"] == "replayed"
        assert follower.wal.last_seq == 2
        _assert_same_columns(follower.server, leader.server)

    def test_a_follower_short_of_the_head_is_behind(self, make_wal):
        leader = self._leader(make_wal, 2)
        follower = Replica(_server(), make_wal("follower"))
        head = (leader.wal.last_seq, leader.wal.chain)
        gap = leader.sync_range(1)["entries"]  # entry 2 only
        for entries in ([], gap):
            reply = follower.apply_entries(*head, entries)
            assert reply == {
                "verdict": "behind", "last_seq": 0, "chain": 0,
                "n_records": 120,
            }
        # the tail after its last_seq brings it to the head
        tail = leader.sync_range(reply["last_seq"])["entries"]
        assert follower.apply_entries(*head, tail)["verdict"] == "applied"
        _assert_same_columns(follower.server, leader.server)

    def test_a_follower_past_the_head_has_diverged(self, make_wal):
        leader = self._leader(make_wal, 2)
        follower = Replica(_server(), make_wal("follower"))
        entries = leader.sync_range(0)["entries"]
        follower.apply_entries(leader.wal.last_seq, leader.wal.chain, entries)
        follower.write("expire_prefix", {"n_records": 1})  # never acked
        reply = follower.apply_entries(leader.wal.last_seq, leader.wal.chain)
        assert reply["verdict"] == "diverged" and reply["last_seq"] == 3


def test_recovery_equals_the_live_replica(tmp_path):
    replica = Replica(_server(), WriteAheadLog(tmp_path, snapshot_every=3))
    replica.write("append_records", _rows(0, 6))
    replica.write("append_records", {"records": [{"age": 1, "opt_in": True}]}, "w1")
    replica.write("expire_prefix", {"n_records": 5})  # compacts (3 entries)
    leader = Replica(_server(seed=1))
    leader.write("append_records", _rows(50, 53))
    head = (leader.wal.last_seq, leader.wal.chain)
    replica.apply_entries(*head, base=leader.sync_range(99)["base"])
    head = leader.write("expire_prefix", {"n_records": 2}, "w2")
    replica.apply_entries(head["seq"], head["chain"], leader.wal.entries_since(1))
    live = replica.wal.status()
    replica.wal.close()

    with WriteAheadLog(tmp_path, snapshot_every=3) as wal:
        report = wal.recover(fresh := _server())
        recovered = Replica(fresh, wal)
        assert report["replayed"] == 1 and report["skipped"] == 0
        assert wal.status() == live
        again = recovered.write("expire_prefix", {"n_records": 2}, "w2")
        assert again["replayed"] is True
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


# ----------------------------------------------------------------------
# Convergence: the coordinator over lossy links, no sockets
# ----------------------------------------------------------------------

#: A link fault, applied to the next ``write`` / ``apply_entries`` call:
#: ``drop`` loses the request, ``dup`` delivers it twice, ``lost_ack``
#: delivers it and loses the reply, ``crash`` does that and takes the
#: link down until a ``restart`` step.
LINK_FAULTS = ("drop", "dup", "lost_ack", "crash")


def _wire(value):
    """``value`` after a round trip through the wire codec."""
    return decode_message(encode_message({"v": value}))["v"]


def _position(replica: Replica) -> tuple:
    return replica.wal.last_seq, replica.wal.chain, len(replica.server.db)


class _Link:
    """A replica behind a lossy link, shaped like the coordinator's
    ``RemoteBackend``: the replication ops take scheduled faults, the
    reads never do."""

    def __init__(self, replica: Replica):
        self.replica = replica
        self.up = True
        #: Refuses connections for one step, with nothing sent.
        self.refusing = False
        self.faults: list[str] = []
        #: ``(op, first reply, second reply, position before, after)``
        #: of every duplicated delivery.
        self.resends: list[tuple] = []

    def _deliver(self, op: str, *args):
        fault = self.faults.pop(0) if self.faults else None
        if not self.up or fault == "drop":
            raise ConnectionError(f"{op} lost on the way")
        reply = getattr(self.replica, op)(*_wire(list(args)))
        if fault == "dup":
            before = _position(self.replica)
            again = getattr(self.replica, op)(*_wire(list(args)))
            self.resends.append((op, reply, again, before, _position(self.replica)))
        if fault in ("lost_ack", "crash"):
            self.up = fault == "lost_ack"
            raise ConnectionError(f"{op} ack lost")
        return _wire(reply)

    def write(self, wop, payload, write_id):
        return self._deliver("write", wop, payload, write_id)

    def apply_entries(self, head_seq, head_chain, entries=(), base=None):
        return self._deliver("apply_entries", head_seq, head_chain, list(entries), base)

    def sync_range(self, from_seq):
        return _wire(self.replica.sync_range(from_seq))

    def wal_status(self):
        return _wire(self.replica.wal_status())

    def ping(self):
        return {"n_records": len(self.replica.server.db)}

    def true_histogram(self, spec):
        return self.replica.server.true_histogram(spec)

    def close(self):
        pass


_FAULT_PLAN = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(LINK_FAULTS)), max_size=4
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["append", "expire", "invalid"]),
            st.integers(1, 6),
            _FAULT_PLAN,
            st.integers(0, 2),
            st.booleans(),
        ),
        st.tuples(st.just("restart"), st.integers(0, 2)),
        st.tuples(st.just("resync"),),
    ),
    min_size=1,
    max_size=14,
)
_AGE_SPEC = IntegerBinning("age", 0, 100, 10).to_spec()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_STEPS)
# A write every replica it reached logged without acking, followed by
# nothing, by a resync, or by another write: those replicas diverge.
@example([("append", 2, [(1, "lost_ack"), (2, "lost_ack")], 0, True)])
@example([("append", 2, [(1, "lost_ack"), (2, "lost_ack")], 0, True), ("resync",)])
@example(
    [
        ("append", 2, [(1, "lost_ack"), (2, "lost_ack")], 0, True),
        ("append", 1, [], 0, False),
    ]
)
def test_log_shipping_converges_on_the_acked_writes(steps):
    """Three replicas of one range, driven by the real coordinator over
    links that drop, duplicate and lose acks and replicas that crash
    (after logging, before their ack) and restart.  The fault plan of a
    write spares one replica still in the read rotation — the
    ``f < n`` budget of replication — and that replica may refuse the
    connection instead, so a write can fail on every replica it reached
    (a :class:`ClusterWriteError`, never acked) while the range keeps
    one replica that holds nothing unacked.

    After every step each replica in the read rotation stands where an
    oracle server fed only the acked writes stands; after a final
    resync every replica equals it: columns, histogram,
    ``(last_seq, chain)``.  Every duplicated delivery is a no-op; an
    invalid write consumes no seq."""
    replicas = [Replica(_server(n=30), MemoryWal(snapshot_every=3)) for _ in range(3)]
    links = {f"r{i}": _Link(replica) for i, replica in enumerate(replicas)}
    oracle = Replica(_server(n=30))
    endpoints = [ClusterEndpoint("link", i, "r", name=f"r{i}") for i in range(3)]
    backend = ClusterBackend(
        endpoints,
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
        clock=FakeClock(),
    )

    def connect(endpoint):
        link = links[endpoint.key]
        if not link.up or link.refusing:
            raise ConnectionRefusedError(f"{endpoint.key} is down")
        return link

    backend._client = connect
    acked: list[dict] = []
    replicated_write = backend._replicated_write

    def recording_write(wop, payload, shard_range):
        entry = replicated_write(wop, payload, shard_range)
        acked.append(entry)
        return entry

    backend._replicated_write = recording_write

    def rotation_matches_the_oracle():
        for key, replica in zip(links, replicas):
            if key not in backend.stale():
                assert _position(replica) == _position(oracle), key

    for step in steps:
        kind = step[0]
        if kind == "restart":
            links[f"r{step[1]}"].up = True
            continue
        if kind == "resync":
            backend.resync()
            rotation_matches_the_oracle()
            continue
        _, size, plan, pick, refuse = step
        in_rotation = sorted(set(links) - set(backend.stale()))
        spared = in_rotation[pick % len(in_rotation)]
        links[spared].refusing = refuse
        for index, fault in plan:
            if f"r{index}" != spared:
                links[f"r{index}"].faults.append(fault)
        positions = [_position(r) for r in replicas]
        n_acked = len(acked)
        if kind == "invalid":
            with pytest.raises((ValueError, ClusterWriteError)):
                backend._replicated_write(
                    "expire_prefix", {"n_records": len(oracle.server.db) + size}, "r"
                )
            assert [r.wal.last_seq for r in replicas] == [p[0] for p in positions]
        else:
            if kind == "append":
                wop = "append_records"
                payload = {
                    "records": [
                        {"age": 7 * v % 100, "opt_in": v % 2 == 0} for v in range(size)
                    ]
                }
            else:
                wop = "expire_prefix"
                payload = {"n_records": min(size, len(oracle.server.db))}
            try:
                getattr(backend, wop)(*payload.values())
            except (ClusterWriteError, PartialClusterError):
                assert refuse, "a write failed with a replica to spare"
            if len(acked) > n_acked:
                oracle.write(wop, payload, acked[-1]["write_id"])
        rotation_matches_the_oracle()
        for link in links.values():
            link.refusing = False
            link.faults.clear()
            for op, first, again, before, after in link.resends:
                assert after == before, f"a resent {op} changed the replica"
                if op == "write":
                    assert again["replayed"] is True
                elif first["verdict"] in ("applied", "replayed"):
                    assert again["verdict"] == "replayed"
                else:
                    assert again == first
            link.resends.clear()

    for link in links.values():
        link.up = True
    assert set(backend.resync().values()) <= {"caught_up", "base_reset"}
    assert backend.stale() == {}
    assert [_position(r) for r in replicas] == [_position(oracle)] * 3
    for replica in replicas:
        _assert_same_columns(replica.server, oracle.server)
    assert np.array_equal(
        backend.true_histogram(_AGE_SPEC), oracle.server.true_histogram(_AGE_SPEC)
    )


# ----------------------------------------------------------------------
# Structure pins: one replication op, one exchange per replica
# ----------------------------------------------------------------------

#: Every op an endpoint serves; ``apply_entries`` is the one op the
#: replication protocol adds to the two writes and two log reads.
SERVED_OPS = {
    "ping", "mechanisms", "release", "release_batch", "true_histogram",
    "hist_counts", "stats", "transport_stats", "budget",
    "append_records", "expire_prefix", "wal_status", "sync_range",
    "apply_entries",
}
#: The names of the two-phase commit and its staging, which must not
#: come back as identifiers anywhere in ``src/``.
DELETED_NAMES = {
    "prepare_write", "commit_write", "sync_apply", "PENDING_LIMIT",
    "_commit_with_retries", "ambiguous",
}


def test_an_endpoint_serves_one_replication_op():
    from repro.service.rpc import RpcServer

    assert RpcServer.READ_OPS | RpcServer.WRITE_OPS == SERVED_OPS
    assert RpcServer.WRITE_OPS == {"append_records", "expire_prefix", "apply_entries"}


def test_the_rpc_op_table_lists_exactly_the_served_ops():
    import repro.service.rpc as rpc_module

    rule = "=================  " + "=" * 52
    _, table, _ = rpc_module.__doc__.split(rule)
    table = re.findall(r"^``(\w+)``", table, flags=re.MULTILINE)
    assert len(table) == len(set(table))
    assert set(table) == SERVED_OPS


def test_the_two_phase_commit_names_are_gone():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME and token.string in DELETED_NAMES:
                    found.append(f"{path.relative_to(SRC)}:{token.start[0]}")
    assert not found, f"two-phase commit identifiers in src/: {found}"


def test_a_cluster_append_is_one_exchange_per_replica(monkeypatch):
    """2 ranges x 2 replicas: a steady-state append sends the tail
    range's leader its write and its peer the entry — 2 exchanges."""
    from repro.service.rpc import RpcServer

    servers, endpoints = [], []
    for label in ("lo", "hi"):
        for index in range(2):
            rpc = RpcServer(_server(n=40)).start()
            servers.append(rpc)
            endpoints.append(
                ClusterEndpoint(
                    *rpc.address, shard_range=label, name=f"{label}-r{index}"
                )
            )
    ops: list[str] = []
    dispatch = RpcServer.dispatch

    def counting(self, message, received_at=None):
        ops.append(message["op"])
        return dispatch(self, message, received_at)

    try:
        with ClusterBackend(endpoints) as backend:
            backend.append_records([{"age": 1, "opt_in": True}])  # connects
            monkeypatch.setattr(RpcServer, "dispatch", counting)
            backend.append_records([{"age": 2, "opt_in": False}])
            assert sorted(ops) == ["append_records", "apply_entries"]
            assert backend.stale() == {}
    finally:
        for rpc in servers:
            rpc.close()
    assert [rpc.wal.last_seq for rpc in servers] == [0, 0, 2, 2]
