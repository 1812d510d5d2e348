"""Fault lane for the durable cluster write path (PR 8 acceptance).

What this lane pins, with real processes and injected transport faults:

* Interleaved cluster writes and reads are **bit-identical** to a
  single server taking the same writes — log shipping never lets
  replicas of a range diverge observably.
* SIGKILL of a replica mid-write: the write is still acked, the victim
  is marked stale (excluded from reads), and after a restart **WAL
  replay plus resync** returns it to the exact acked state.
* A truncated ack — on the leader's write or on an entry shipment —
  applies the write **exactly once** on every replica (a resend is a
  ``replayed`` no-op, equal sequence numbers all round).
* ``repro.cli cluster`` drains its fleet on SIGTERM, leaves
  ``/dev/shm`` clean, and a relaunch over the same WAL directories
  serves every previously acked write.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from faults import (
    ChaosProxy,
    EndpointProcess,
    loopback_skip_reason,
    make_db,
    slice_db,
)
from repro.api import (
    ClusterBackend,
    ClusterEndpoint,
    ClusterWriteError,
    PartialClusterError,
    ReleaseRequest,
    RemoteBackend,
    RetryPolicy,
)
from repro.core.accountant import PrivacyAccountant
from repro.queries.histogram import IntegerBinning
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseServer

pytestmark = pytest.mark.faults

_SKIP_REASON = loopback_skip_reason()
if _SKIP_REASON:
    pytestmark = [pytest.mark.faults, pytest.mark.skip(reason=_SKIP_REASON)]

N, SEED = 4000, 0
RETRY = RetryPolicy(max_attempts=3, base_delay=0.02, jitter=0.0)
BINNING_SPEC = IntegerBinning("age", 0, 100, 10).to_spec()


def _mirror() -> ReleaseServer:
    return ReleaseServer(
        make_db(N, SEED).shard(2), accountant=PrivacyAccountant(10.0)
    )


def _extra(lo: int, hi: int) -> list[dict]:
    return [
        {"age": int(v % 100), "opt_in": bool(v % 2)} for v in range(lo, hi)
    ]


def _request(n_bins: int = 10, seed: int = 9) -> ReleaseRequest:
    return ReleaseRequest(
        "osdp_laplace_l1",
        0.25,
        IntegerBinning("age", 0, 100, n_bins).to_spec(),
        {"kind": "opt_in", "attr": "opt_in"},
        n_trials=3,
        seed=seed,
    )


def _hist(backend_or_server) -> np.ndarray:
    return np.asarray(backend_or_server.true_histogram(BINNING_SPEC))


@pytest.fixture
def inproc_cluster():
    """Two shard ranges x two replicas on in-process RpcServers."""
    servers, endpoints = [], []
    for label, lo, hi in (("lo", 0, 2000), ("hi", 2000, 4000)):
        for replica in range(2):
            rpc = RpcServer(
                ReleaseServer(slice_db(N, SEED, lo, hi).shard(2))
            ).start()
            servers.append(rpc)
            endpoints.append(
                ClusterEndpoint(
                    *rpc.address,
                    shard_range=label,
                    name=f"{label}-r{replica}",
                )
            )
    try:
        yield endpoints, servers
    finally:
        for rpc in servers:
            rpc.close()


# ----------------------------------------------------------------------
# Writes against a healthy cluster
# ----------------------------------------------------------------------


class TestWriteSemantics:
    def test_interleaved_writes_reads_bit_identical(self, inproc_cluster):
        endpoints, servers = inproc_cluster
        mirror = _mirror()
        with ClusterBackend(
            endpoints, accountant=PrivacyAccountant(10.0), retry=RETRY
        ) as backend:
            backend.append_records(_extra(0, 40))
            mirror.append_records(_extra(0, 40))
            assert np.array_equal(_hist(backend), _hist(mirror))

            backend.expire_prefix(25)
            mirror.expire_prefix(25)
            assert np.array_equal(_hist(backend), _hist(mirror))

            backend.append_records(_extra(40, 55))
            mirror.append_records(_extra(40, 55))
            got = backend.handle(_request(20))
            want = mirror.handle(_request(20))
            assert np.array_equal(got.estimates, want.estimates)
            assert got.estimates.dtype == want.estimates.dtype

            stats = backend.cluster_stats()
            assert stats["writes"] == 3
            assert backend.stale() == {}
        # Every write logged on both replicas of its range, at the same
        # seq and chain: "lo" took the expiry, "hi" the two appends.
        for pair, last_seq in ((servers[:2], 1), (servers[2:], 2)):
            assert [(rpc.wal.last_seq, rpc.wal.chain) for rpc in pair] == [
                (last_seq, pair[0].wal.chain)
            ] * 2

    def test_expire_spans_ranges_head_first(self, inproc_cluster):
        endpoints, _ = inproc_cluster
        mirror = _mirror()
        with ClusterBackend(endpoints, retry=RETRY) as backend:
            backend.expire_prefix(2300)  # > the 2000 rows of range "lo"
            mirror.expire_prefix(2300)
            assert np.array_equal(_hist(backend), _hist(mirror))
            with pytest.raises(ValueError, match="cannot expire"):
                backend.expire_prefix(N)  # only 1700 rows remain

    def test_writes_replicate_to_every_replica(self, inproc_cluster):
        endpoints, servers = inproc_cluster
        with ClusterBackend(endpoints, retry=RETRY) as backend:
            backend.append_records(_extra(0, 10))
        # Both "hi" replicas hold the appended rows at the same seq.
        for rpc in servers[2:]:
            assert rpc.wal.last_seq == 1
            assert len(rpc.release_server.db) == 2010
        assert servers[2].wal.chain == servers[3].wal.chain


# ----------------------------------------------------------------------
# Replica death around the commit window
# ----------------------------------------------------------------------


class TestReplicaDeath:
    def test_dead_replica_marked_stale_write_still_acked(
        self, inproc_cluster
    ):
        endpoints, servers = inproc_cluster
        mirror = _mirror()
        with ClusterBackend(endpoints, retry=RETRY, timeout=5.0) as backend:
            servers[2].close()  # hi-r0 dies; hi-r1 carries the range
            backend.append_records(_extra(0, 10))
            mirror.append_records(_extra(0, 10))
            assert list(backend.stale()) == [endpoints[2].key]
            # One refused connect as leader, one as follower: a dead
            # replica gets no resends, under the range's write lock or
            # anywhere else.
            assert backend.cluster_stats()["failovers"] == 2
            # Reads exclude the stale replica and stay identical.
            assert np.array_equal(_hist(backend), _hist(mirror))
            assert servers[3].wal.last_seq == 1

    def test_no_live_replica_is_an_unambiguous_write_error(
        self, inproc_cluster
    ):
        endpoints, servers = inproc_cluster
        with ClusterBackend(endpoints, retry=RETRY, timeout=5.0) as backend:
            servers[2].close()
            servers[3].close()
            with pytest.raises(ClusterWriteError) as excinfo:
                backend.append_records(_extra(0, 10))
            assert excinfo.value.shard_range == "hi"
            assert excinfo.value.write_id
            # No connection opened, nothing sent: no replica can hold
            # the write, so none is marked stale.
            assert backend.stale() == {}
            for rpc in servers[:2]:
                assert rpc.wal.last_seq == 0  # "lo" logged nothing
            # The "lo" range itself still serves replicated writes
            # (cluster-wide expire_prefix would have to count the dead
            # range first, so drive the range write directly).
            backend._replicated_write(
                "expire_prefix", {"n_records": 5}, "lo"
            )
            assert servers[0].wal.last_seq == 1
            assert servers[1].wal.last_seq == 1

    def test_sigkill_mid_append_recovers_via_wal_and_resync(self, tmp_path):
        """Acceptance (a): SIGKILL a replica after its peer logged a
        write and before the entry is shipped to it.  The write is
        acked via the leader; the victim restarts on its old port, WAL
        replay restores what it had acked, resync ships the write it
        missed, and its state is bit-identical to its peer and to a
        single server."""
        procs = [
            EndpointProcess(
                N, SEED, 2000, 4000, wal_dir=str(tmp_path / f"r{i}")
            )
            for i in range(2)
        ]
        endpoints = [
            ClusterEndpoint(
                p.host, p.port, shard_range="hi", name=f"hi-r{i}"
            )
            for i, p in enumerate(procs)
        ]
        mirror = ReleaseServer(slice_db(N, SEED, 2000, 4000).shard(2))
        try:
            with ClusterBackend(
                endpoints, retry=RETRY, timeout=10.0
            ) as backend:
                # Write 1 lands everywhere (both WALs hold seq 1).
                backend.append_records(_extra(0, 10))
                mirror.append_records(_extra(0, 10))

                victim_key = endpoints[1].key
                original = backend._ship

                def kill_then_ship(leader, follower, head, entries=()):
                    if follower.key == victim_key:
                        procs[1].kill()
                    return original(leader, follower, head, entries)

                backend._ship = kill_then_ship
                # Write 2: the leader logs it; the victim dies before
                # the entry reaches it.
                backend.append_records(_extra(10, 20))
                mirror.append_records(_extra(10, 20))
                backend._ship = original
                assert list(backend.stale()) == [victim_key]
                assert np.array_equal(_hist(backend), _hist(mirror))

                procs[1].restart()  # same port; WAL replays seq 1
                rejoined = backend.resync()
                assert rejoined == {victim_key: "caught_up"}
                assert backend.stale() == {}
                stats = backend.cluster_stats()
                assert stats["stale_marks"] == 1
                assert stats["resyncs"] == 1

                # The recovered replica serves the full acked history.
                with RemoteBackend(
                    procs[1].host, procs[1].port, timeout=10.0
                ) as direct:
                    assert direct.wal_status()["last_seq"] == 2
                    assert np.array_equal(
                        np.asarray(direct.true_histogram(BINNING_SPEC)),
                        _hist(mirror),
                    )
                # ... and further writes replicate to it again.
                backend.append_records(_extra(20, 25))
                mirror.append_records(_extra(20, 25))
                assert np.array_equal(_hist(backend), _hist(mirror))
        finally:
            for proc in procs:
                proc.close()


# ----------------------------------------------------------------------
# Truncated acks: exactly-once across resends
# ----------------------------------------------------------------------


@pytest.fixture
def lo_pair():
    """Two "lo" replicas, one reached directly and one through a chaos
    proxy, plus the single-server mirror."""
    servers = [
        RpcServer(ReleaseServer(slice_db(N, SEED, 0, 2000).shard(2))).start()
        for _ in range(2)
    ]
    mirror = ReleaseServer(slice_db(N, SEED, 0, 2000).shard(2))
    try:
        with ChaosProxy(*servers[1].address) as proxy:
            yield servers, proxy, mirror
    finally:
        for rpc in servers:
            rpc.close()


def _assert_applied_once(servers) -> None:
    """Applied exactly once on each replica, same seq and chain."""
    for rpc in servers:
        assert rpc.wal.last_seq == 1
        assert len(rpc.release_server.db) == 2010
    assert servers[0].wal.chain == servers[1].wal.chain


class TestCommitRetry:
    def test_truncated_commit_ack_applies_exactly_once(self, lo_pair):
        """Acceptance (b): the leader logged the write and its entry
        reached the follower, but the follower's ack was cut mid-frame.
        The coordinator resends the entry; the follower answers
        ``replayed`` — every replica ends at the same sequence number
        with the write applied once."""
        servers, proxy, mirror = lo_pair
        endpoints = [
            ClusterEndpoint(*servers[0].address, shard_range="lo", name="lo-r0"),
            ClusterEndpoint(proxy.host, proxy.port, shard_range="lo", name="lo-r1"),
        ]
        with ClusterBackend(
            endpoints,
            retry=RetryPolicy(max_attempts=5, base_delay=0.02, jitter=0.0),
            timeout=10.0,
        ) as backend:
            # Forward 8 reply bytes from lo-r1, then sever: the first
            # thing it answers is the shipped entry.
            proxy.truncate_after(8, direction="s2c")
            backend.append_records(_extra(0, 10))
            mirror.append_records(_extra(0, 10))

            stats = backend.cluster_stats()
            assert stats["failovers"] >= 1  # the resend happened
            assert backend.stale() == {}
            assert np.array_equal(_hist(backend), _hist(mirror))
        _assert_applied_once(servers)
        with RemoteBackend(*servers[1].address) as direct:
            latency = direct.transport_stats()["op_latency"]
        assert latency["apply_entries"]["count"] == 2  # sent twice

    def test_truncated_leader_ack_applies_exactly_once(self, lo_pair):
        """The leader logged the write, but its ack was cut mid-frame.
        It is marked stale and the same ``write_id`` goes to the next
        replica, which logs it at the same seq; shipped that entry, the
        first leader answers ``replayed`` and rejoins."""
        servers, proxy, mirror = lo_pair
        endpoints = [
            ClusterEndpoint(proxy.host, proxy.port, shard_range="lo", name="lo-r1"),
            ClusterEndpoint(*servers[0].address, shard_range="lo", name="lo-r0"),
        ]
        with ClusterBackend(endpoints, retry=RETRY, timeout=10.0) as backend:
            proxy.truncate_after(8, direction="s2c")
            backend.append_records(_extra(0, 10))
            mirror.append_records(_extra(0, 10))

            stats = backend.cluster_stats()
            assert stats["stale_marks"] == 1 and stats["resyncs"] == 1
            assert backend.stale() == {}
            assert np.array_equal(_hist(backend), _hist(mirror))
        _assert_applied_once(servers)


class TestResyncSource:
    def test_a_failed_head_read_leaves_the_source_in_rotation(self, lo_pair):
        """resync() reads its source's head with ``wal_status``, which
        logs nothing: a source whose reply is cut is booked as failing,
        never marked stale, so the range keeps a serving replica and the
        next resync catches the stale one up."""
        servers, proxy, mirror = lo_pair
        endpoints = [
            ClusterEndpoint(*servers[0].address, shard_range="lo", name="lo-r0"),
            ClusterEndpoint(proxy.host, proxy.port, shard_range="lo", name="lo-r1"),
        ]
        with ClusterBackend(endpoints, retry=RETRY, timeout=10.0) as backend:
            backend.append_records(_extra(0, 10))
            mirror.append_records(_extra(0, 10))
            stale_key, source_key = (ep.key for ep in endpoints)
            backend._mark_stale(endpoints[0], "killed")
            proxy.truncate_after(8, direction="s2c")
            assert backend.resync() == {stale_key: "unreachable"}
            assert list(backend.stale()) == [stale_key]
            assert backend.health()[source_key]["state"] == "failing"
            assert np.array_equal(_hist(backend), _hist(mirror))
            assert backend.resync() == {stale_key: "caught_up"}
            assert backend.stale() == {}
        _assert_applied_once(servers)


# ----------------------------------------------------------------------
# The fleet launcher (full subprocess): SIGTERM drain + WAL restore
# ----------------------------------------------------------------------


def _live_shm_segments() -> set[str]:
    from repro.data.store import SEGMENT_PREFIX

    if not os.path.isdir("/dev/shm"):
        return set()
    return {
        name
        for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


def _launch_fleet(topology_path: str, env: dict):
    """Start ``repro.cli cluster`` and parse endpoint addresses from
    its banner; returns ``(proc, {name: (host, port)})``."""
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "cluster",
            "--topology", topology_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    addresses: dict[str, tuple[str, int]] = {}
    deadline = time.monotonic() + 120
    while True:
        assert time.monotonic() < deadline, "fleet never came up"
        line = proc.stdout.readline()
        assert line, "launcher exited before announcing the fleet"
        match = re.match(
            r"endpoint (\S+) serving \[\d+,\d+\) on ([\d.]+):(\d+)", line
        )
        if match:
            addresses[match.group(1)] = (
                match.group(2), int(match.group(3)),
            )
        if line.startswith("fleet up:"):
            return proc, addresses


def _stop_fleet(proc) -> str:
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=60)
    return out


class TestClusterCli:
    def test_sigterm_drains_and_wal_restores_acked_writes(self, tmp_path):
        """Acceptance (c): the supervised fleet drains on SIGTERM and
        leaves ``/dev/shm`` clean; relaunching over the same WAL
        directories restores every acked write bit-identically."""
        records = 800
        topology = {
            "table": {
                "dataset": "synthetic", "records": records, "seed": 3,
                "shards": 2,
            },
            "ranges": [
                {
                    "name": "lo", "lo": 0, "hi": 400,
                    "replicas": [
                        {"port": 0, "wal_dir": str(tmp_path / "lo-r0")},
                        {"port": 0, "wal_dir": str(tmp_path / "lo-r1")},
                    ],
                },
                {
                    "name": "hi", "lo": 400, "hi": records,
                    "replicas": [
                        {"port": 0, "wal_dir": str(tmp_path / "hi-r0")},
                        {"port": 0, "wal_dir": str(tmp_path / "hi-r1")},
                    ],
                },
            ],
        }
        topology_path = str(tmp_path / "topology.json")
        with open(topology_path, "w") as handle:
            json.dump(topology, handle)
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        before = _live_shm_segments()

        def cluster(addresses) -> ClusterBackend:
            return ClusterBackend(
                [
                    ClusterEndpoint(
                        *addresses[name],
                        shard_range=rng,
                        name=name,
                    )
                    for rng in ("lo", "hi")
                    for name in (f"{rng}-r0", f"{rng}-r1")
                ],
                retry=RETRY,
                timeout=10.0,
            )

        # The launcher's synthetic table carries a "city" column too.
        new_rows = [
            {"age": int(v % 100), "city": "x", "opt_in": bool(v % 2)}
            for v in range(30)
        ]
        proc, addresses = _launch_fleet(topology_path, env)
        try:
            with cluster(addresses) as backend:
                backend.append_records(new_rows)
                backend.expire_prefix(10)
                acked = _hist(backend)
        finally:
            out = _stop_fleet(proc)
        assert proc.returncode == 0
        assert "draining fleet" in out
        assert "fleet shutdown complete" in out
        leaked = _live_shm_segments() - before
        assert not leaked, f"fleet drain leaked shm segments: {leaked}"

        # Relaunch over the same WAL directories: replay restores the
        # acked writes on every endpoint.
        proc2, addresses2 = _launch_fleet(topology_path, env)
        try:
            with cluster(addresses2) as backend:
                assert np.array_equal(_hist(backend), acked)
            with RemoteBackend(*addresses2["hi-r0"], timeout=10.0) as direct:
                assert direct.wal_status()["last_seq"] == 1  # the append
            with RemoteBackend(*addresses2["lo-r0"], timeout=10.0) as direct:
                assert direct.wal_status()["last_seq"] == 1  # the expiry
        finally:
            out2 = _stop_fleet(proc2)
        assert proc2.returncode == 0
