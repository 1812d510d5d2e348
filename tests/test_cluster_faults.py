"""Fault-injection lane: serving survives what kills a process.

Driven by the harness in :mod:`faults` (ChaosProxy, EndpointProcess),
this lane pins the PR's acceptance contract:

* SIGKILL of any single replicated endpoint mid-``release_batch``
  yields a **bit-identical** batch via the replica — zero failed
  requests, exactly one accountant charge per release.
* A shard range with no surviving replica degrades to an explicit
  :class:`PartialClusterError` carrying the already-charged prefix —
  in bounded time, never a hang.
* A retried release after an injected frame truncation never charges
  the accountant twice (idempotent ``req_id`` replay).
* Blackholed replies end in :class:`DeadlineExceeded`, not a hang.
* ``drain()`` answers in-flight requests and refuses new ones; the
  CLI's SIGTERM path drains and leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
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
    DeadlineExceeded,
    PartialClusterError,
    ReleaseRequest,
    RemoteBackend,
    RetryPolicy,
)
from repro.api.wire import (
    encode_message,
    recv_message,
    request_to_wire,
    send_message,
)
from repro.core.accountant import PrivacyAccountant
from repro.queries.histogram import IntegerBinning
from repro.service.rpc import RpcServer, connect
from repro.service.server import ReleaseServer

pytestmark = pytest.mark.faults

_SKIP_REASON = loopback_skip_reason()
if _SKIP_REASON:
    pytestmark = [pytest.mark.faults, pytest.mark.skip(reason=_SKIP_REASON)]

#: One demo table, sliced identically by endpoints, replicas, mirrors.
N, SEED = 4000, 0
POLICY_SPEC = {"kind": "opt_in", "attr": "opt_in"}


def _request(n_bins: int = 10, epsilon: float = 0.25, seed: int = 9):
    """Distinct ``n_bins`` values force distinct cluster fan-outs."""
    return ReleaseRequest(
        "osdp_laplace_l1",
        epsilon,
        IntegerBinning("age", 0, 100, n_bins).to_spec(),
        POLICY_SPEC,
        n_trials=3,
        seed=seed,
    )


def _mirror(budget: float | None = 10.0) -> ReleaseServer:
    """A fresh single server over ALL the rows — the bit-identity
    reference for any cluster over slices of the same table."""
    accountant = PrivacyAccountant(budget) if budget is not None else None
    return ReleaseServer(make_db(N, SEED).shard(2), accountant=accountant)


def _assert_batch_identical(responses, reference):
    assert len(responses) == len(reference)
    for got, want in zip(responses, reference):
        assert np.array_equal(got.estimates, want.estimates)
        assert got.estimates.dtype == want.estimates.dtype
        assert got.epsilon_spent == want.epsilon_spent
        assert got.cache_hit == want.cache_hit


# ----------------------------------------------------------------------
# Cluster semantics over live (in-process) endpoints
# ----------------------------------------------------------------------


@pytest.fixture
def inproc_cluster():
    """Two shard ranges x two replicas, served by in-process RpcServers."""
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


class TestClusterSemantics:
    def test_cluster_releases_are_bit_identical_to_one_server(
        self, inproc_cluster
    ):
        endpoints, _ = inproc_cluster
        requests = [_request(10), _request(10, seed=11), _request(20)]
        with ClusterBackend(
            endpoints, accountant=PrivacyAccountant(10.0)
        ) as backend:
            single = backend.handle(_request(25))
            batch = backend.handle_batch(requests)
            cluster_hist = backend.true_histogram(
                IntegerBinning("age", 0, 100, 10).to_spec()
            )
            spent = backend.accountant.spent
        mirror = _mirror()
        assert np.array_equal(
            single.estimates, mirror.handle(_request(25)).estimates
        )
        # Fresh mirror for the batch: the per-batch histogram memo
        # mirrors a *cold* single server's cache pattern.
        _assert_batch_identical(batch, _mirror().handle_batch(requests))
        assert [r.cache_hit for r in batch] == [False, True, False]
        assert np.array_equal(
            cluster_hist,
            _mirror().true_histogram(
                IntegerBinning("age", 0, 100, 10).to_spec()
            ),
        )
        assert spent == pytest.approx(4 * 0.25)

    def test_cluster_tier_serves_writes(self, inproc_cluster):
        """The write path (PR 8) replaced the old read-path-only
        refusal: appends and expiries go through the replicated commit
        protocol and reads stay bit-identical to a single server that
        took the same writes.  The full fault matrix lives in
        ``tests/test_cluster_writes.py``."""
        endpoints, _ = inproc_cluster
        with ClusterBackend(endpoints) as backend:
            backend.append_records([{"age": 1, "opt_in": True}])
            backend.expire_prefix(5)
            cluster_hist = backend.true_histogram(
                IntegerBinning("age", 0, 100, 10).to_spec()
            )
        mirror = _mirror()
        mirror.append_records([{"age": 1, "opt_in": True}])
        mirror.expire_prefix(5)
        assert np.array_equal(
            cluster_hist,
            mirror.true_histogram(IntegerBinning("age", 0, 100, 10).to_spec()),
        )


# ----------------------------------------------------------------------
# SIGKILL mid-batch (real endpoint processes)
# ----------------------------------------------------------------------


def _kill_before_fanout(backend, victim, fanout_index: int):
    """SIGKILL ``victim`` right before the Nth distinct histogram
    fan-out — deterministic mid-batch endpoint death."""
    original = backend._histogram
    calls = {"n": 0}

    def hooked(request, memo):
        calls["n"] += 1
        if calls["n"] == fanout_index:
            victim.kill()
        return original(request, memo)

    backend._histogram = hooked


class TestEndpointDeath:
    def test_sigkill_mid_batch_fails_over_bit_identically(self):
        """The acceptance criterion: kill one replicated endpoint in
        the middle of a batch; every request still succeeds, estimates
        are bit-identical to a single server, the accountant is
        charged exactly once per release."""
        procs = [
            EndpointProcess(N, SEED, lo, hi)
            for lo, hi in ((0, 2000), (0, 2000), (2000, 4000), (2000, 4000))
        ]
        endpoints = [
            ClusterEndpoint(
                p.host, p.port, shard_range=label, name=f"{label}-r{i % 2}"
            )
            for p, (label, i) in zip(
                procs, (("lo", 0), ("lo", 1), ("hi", 2), ("hi", 3))
            )
        ]
        requests = [_request(10), _request(20), _request(25)]
        try:
            with ClusterBackend(
                endpoints,
                accountant=PrivacyAccountant(10.0),
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.01, jitter=0.0
                ),
                timeout=10.0,
            ) as backend:
                # Health ranking is stable, so request 1 lands on the
                # first "lo" replica; killing it between fan-outs 1 and
                # 2 forces request 2 to fail over mid-batch.
                _kill_before_fanout(backend, procs[0], fanout_index=2)
                responses = backend.handle_batch(requests)
                stats = backend.cluster_stats()
                health = backend.health()
                spent = backend.accountant.spent
        finally:
            for proc in procs:
                proc.close()
        mirror = _mirror()
        _assert_batch_identical(responses, mirror.handle_batch(requests))
        assert spent == pytest.approx(3 * 0.25)
        assert stats["failovers"] >= 1
        assert stats["unserved_ranges"] == 0
        assert health["lo-r0"]["state"] != "healthy"
        assert health["lo-r1"]["state"] == "healthy"

    def test_sole_replica_death_degrades_to_partial_error(self):
        """No replica left for a range: an explicit, prefix-carrying
        PartialClusterError in bounded time — never a hang."""
        procs = [
            EndpointProcess(N, SEED, 0, 2000),
            EndpointProcess(N, SEED, 2000, 4000),
        ]
        endpoints = [
            ClusterEndpoint(procs[0].host, procs[0].port, shard_range="lo"),
            ClusterEndpoint(procs[1].host, procs[1].port, shard_range="hi"),
        ]
        requests = [_request(10), _request(20)]
        try:
            with ClusterBackend(
                endpoints,
                accountant=PrivacyAccountant(10.0),
                retry=RetryPolicy(
                    max_attempts=2, base_delay=0.01, jitter=0.0
                ),
                timeout=5.0,
            ) as backend:
                _kill_before_fanout(backend, procs[1], fanout_index=2)
                started = time.monotonic()
                with pytest.raises(PartialClusterError) as excinfo:
                    backend.handle_batch(requests)
                elapsed = time.monotonic() - started
                spent = backend.accountant.spent
        finally:
            for proc in procs:
                proc.close()
        error = excinfo.value
        assert error.shard_range == "hi"
        assert error.failed_request is requests[1]
        assert len(error.responses) == 1  # the charged prefix survives
        mirror = _mirror()
        assert np.array_equal(
            error.responses[0].estimates,
            mirror.handle(requests[0]).estimates,
        )
        assert spent == pytest.approx(0.25)  # prefix charged, tail not
        assert elapsed < 60.0  # bounded by retry policy, not a hang


# ----------------------------------------------------------------------
# One failure state per endpoint, one failure exception per range call
# ----------------------------------------------------------------------


def _refused_port() -> int:
    reserve = socket.socket()
    reserve.bind(("127.0.0.1", 0))
    port = reserve.getsockname()[1]
    reserve.close()
    return port


@pytest.fixture
def full_table_server():
    """One in-process RpcServer over all the rows."""
    with RpcServer(ReleaseServer(make_db(N, SEED).shard(2))).start() as rpc:
        yield rpc


class TestFailoverOrder:
    def test_a_recovered_replica_is_served_while_its_peer_stays_down(
        self, full_table_server
    ):
        """Both replicas of a range fail, then one comes back: the very
        next request reaches it.  A failing replica is tried after the
        healthy ones but never skipped, so no window exists in which a
        range with a live replica goes unserved."""
        rpc = full_table_server
        gone = _refused_port()
        with ChaosProxy(*rpc.address) as proxy:
            endpoints = [
                ClusterEndpoint("127.0.0.1", gone, shard_range="all", name="gone"),
                ClusterEndpoint(proxy.host, proxy.port, shard_range="all", name="back"),
            ]
            with ClusterBackend(
                endpoints,
                accountant=PrivacyAccountant(10.0),
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
                timeout=5.0,
            ) as backend:
                proxy.upstream = ("127.0.0.1", gone)  # "back" is down too
                with pytest.raises(PartialClusterError):
                    backend.handle(_request(10))
                assert backend.health()["back"]["state"] == "failing"
                proxy.upstream = rpc.address  # ... and recovers
                response = backend.handle(_request(20))
                health = backend.health()
                spent = backend.accountant.spent
        assert np.array_equal(
            response.estimates, _mirror().handle(_request(20)).estimates
        )
        assert spent == pytest.approx(0.25)
        assert health["back"]["state"] == "healthy"
        assert health["gone"]["state"] == "failing"
        assert health["gone"]["consecutive_failures"] == 4

    def test_a_deadline_spent_mid_sweep_keeps_the_charged_prefix(
        self, full_table_server
    ):
        """The retry deadline runs out between two replicas of a sweep:
        the range is unserved, so the batch raises PartialClusterError
        with its charged prefix, as for any other unserved range."""
        rpc = full_table_server
        with ChaosProxy(*rpc.address) as first, ChaosProxy(
            *rpc.address
        ) as second:
            endpoints = [
                ClusterEndpoint(p.host, p.port, shard_range="all", name=name)
                for p, name in ((first, "r0"), (second, "r1"))
            ]
            requests = [_request(10), _request(20)]
            with ClusterBackend(
                endpoints,
                accountant=PrivacyAccountant(10.0),
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.01, jitter=0.0, deadline=0.3
                ),
                timeout=0.5,
            ) as backend:
                original = backend._histogram

                def blackhole_second_fanout(request, memo):
                    if request is requests[1]:
                        first.set_drop(True)
                        second.set_drop(True)
                    return original(request, memo)

                backend._histogram = blackhole_second_fanout
                with pytest.raises(PartialClusterError) as excinfo:
                    backend.handle_batch(requests)
                spent = backend.accountant.spent
                stats = backend.cluster_stats()
        error = excinfo.value
        assert isinstance(error.__cause__.__cause__, DeadlineExceeded)
        assert error.failed_request is requests[1]
        _assert_batch_identical(error.responses, [_mirror().handle(requests[0])])
        assert spent == pytest.approx(0.25)
        assert stats["unserved_ranges"] == 1


# ----------------------------------------------------------------------
# Truncation, retries, and the exactly-once charge
# ----------------------------------------------------------------------


@pytest.fixture
def proxied_server():
    """A metered RpcServer reached only through a ChaosProxy."""
    server = ReleaseServer(
        make_db(N, SEED).shard(2), accountant=PrivacyAccountant(10.0)
    )
    with RpcServer(server).start() as rpc:
        with ChaosProxy(*rpc.address) as proxy:
            yield rpc, server, proxy


RETRY = RetryPolicy(max_attempts=5, base_delay=0.02, jitter=0.0)


class TestTruncationNeverDoubleCharges:
    def test_truncated_reply_is_replayed_not_recharged(
        self, proxied_server
    ):
        """The ambiguous failure: the op ran, the reply was lost.  The
        retry must re-serve the cached reply — one charge, same bits."""
        rpc, server, proxy = proxied_server
        with RemoteBackend(
            proxy.host, proxy.port, timeout=10.0, retry=RETRY
        ) as backend:
            proxy.truncate_after(20, direction="s2c")
            response = backend.handle(_request())
        assert np.array_equal(
            response.estimates, _mirror().handle(_request()).estimates
        )
        assert server.accountant.spent == pytest.approx(0.25)
        assert rpc.transport_stats["idempotent_replays"] == 1

    def test_truncated_request_is_resent_without_charge(
        self, proxied_server
    ):
        """The unambiguous failure: the request never arrived whole, so
        the op never ran; the resend is the first execution."""
        rpc, server, proxy = proxied_server
        with RemoteBackend(
            proxy.host, proxy.port, timeout=10.0, retry=RETRY
        ) as backend:
            proxy.truncate_after(30, direction="c2s")
            response = backend.handle(_request())
        assert np.array_equal(
            response.estimates, _mirror().handle(_request()).estimates
        )
        assert server.accountant.spent == pytest.approx(0.25)

    def test_connection_reset_mid_conversation_recovers(
        self, proxied_server
    ):
        rpc, server, proxy = proxied_server
        with RemoteBackend(
            proxy.host, proxy.port, timeout=10.0, retry=RETRY
        ) as backend:
            assert backend.ping()["n_records"] == N
            proxy.reset_connections()
            response = backend.handle(_request())
        assert np.array_equal(
            response.estimates, _mirror().handle(_request()).estimates
        )
        assert server.accountant.spent == pytest.approx(0.25)


class TestDeadlines:
    def test_blackholed_replies_end_in_deadline_not_hang(
        self, proxied_server
    ):
        rpc, server, proxy = proxied_server
        proxy.set_drop(True, direction="s2c")
        with RemoteBackend(
            proxy.host,
            proxy.port,
            timeout=0.2,
            retry=RetryPolicy(
                max_attempts=50, base_delay=0.01, jitter=0.0, deadline=1.0
            ),
        ) as backend:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="1.0s deadline"):
                backend.ping()
            elapsed = time.monotonic() - started
        assert 0.5 <= elapsed < 30.0

    def test_server_refuses_work_past_the_carried_deadline(self):
        """A request whose client-side patience has already run out is
        rejected before any budget is spent."""
        server = ReleaseServer(
            make_db(N, SEED).shard(2), accountant=PrivacyAccountant(10.0)
        )
        with RpcServer(server).start() as rpc:
            sock = connect(*rpc.address, timeout=10.0)
            try:
                send_message(
                    sock,
                    {
                        "op": "release",
                        "request": request_to_wire(_request()),
                        "deadline": 0.0,
                    },
                )
                reply = recv_message(sock)
            finally:
                sock.close()
            assert reply["err"]["kind"] == "DeadlineExceeded"
            assert server.accountant.spent == 0.0
            assert rpc.transport_stats["deadline_rejections"] == 1


class TestIdempotentReplay:
    def test_same_req_id_runs_once_and_replays_the_reply(self):
        server = ReleaseServer(
            make_db(N, SEED).shard(2), accountant=PrivacyAccountant(10.0)
        )
        message = {
            "op": "release",
            "request": request_to_wire(_request()),
            "req_id": "retry-after-ambiguous-failure",
        }
        with RpcServer(server).start() as rpc:
            sock = connect(*rpc.address, timeout=10.0)
            try:
                send_message(sock, message)
                first = recv_message(sock)
                send_message(sock, message)
                second = recv_message(sock)
            finally:
                sock.close()
            assert rpc.transport_stats["idempotent_replays"] == 1
        assert "ok" in first and "ok" in second
        assert np.array_equal(
            first["ok"]["estimates"], second["ok"]["estimates"]
        )
        assert server.accountant.spent == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_answers_inflight_and_refuses_new_work(self):
        with RpcServer(ReleaseServer(make_db(800, SEED).shard(2))).start() as rpc:
            payload = encode_message({"op": "ping"})
            sock = connect(*rpc.address, timeout=10.0)
            try:
                # Commit an exchange: ship the length prefix plus a
                # partial body, so the handler is mid-read (in-flight).
                sock.sendall(payload[:6])
                deadline = time.monotonic() + 10.0
                while rpc._inflight == 0:
                    assert time.monotonic() < deadline, "never in-flight"
                    time.sleep(0.005)
                drainer = threading.Thread(
                    target=rpc.drain, kwargs={"grace": 10.0}
                )
                drainer.start()
                time.sleep(0.1)  # drain is now waiting on the exchange
                sock.sendall(payload[6:])  # finish the frame
                reply = recv_message(sock)  # ... and still get answered
                drainer.join(timeout=10.0)
                assert not drainer.is_alive()
            finally:
                sock.close()
            assert reply["ok"]["n_records"] == 800
            assert rpc.transport_stats["drains"] == 1
            assert rpc.transport_stats["aborted_in_flight"] == 0
            with pytest.raises(OSError):
                connect(*rpc.address, timeout=2.0)

    def test_read_timeout_unpins_a_stalled_connection(self):
        with RpcServer(
            ReleaseServer(make_db(800, SEED).shard(2)), read_timeout=0.2
        ).start() as rpc:
            payload = encode_message({"op": "ping"})
            sock = connect(*rpc.address, timeout=10.0)
            try:
                sock.sendall(payload[:6])  # stall mid-frame, forever
                deadline = time.monotonic() + 10.0
                while rpc.transport_stats["read_timeouts"] == 0:
                    assert time.monotonic() < deadline, "never timed out"
                    time.sleep(0.01)
                # The server hung up on us, not the other way round.
                sock.settimeout(5.0)
                try:
                    data = sock.recv(1)
                except OSError:  # some stacks surface the cut as a reset
                    data = b""
                assert data == b""
            finally:
                sock.close()


# ----------------------------------------------------------------------
# Connect retries (client startup racing `repro.cli serve`)
# ----------------------------------------------------------------------


class TestConnectRetry:
    def test_connect_retries_bridge_a_late_starting_server(self):
        reserve = socket.socket()
        reserve.bind(("127.0.0.1", 0))
        port = reserve.getsockname()[1]
        reserve.close()
        holder: dict = {}

        def start_late():
            time.sleep(0.4)
            holder["rpc"] = RpcServer(
                ReleaseServer(make_db(800, SEED).shard(2)), port=port
            ).start()

        starter = threading.Thread(target=start_late)
        starter.start()
        try:
            with RemoteBackend(
                "127.0.0.1",
                port,
                timeout=10.0,
                connect_retry=RetryPolicy(
                    max_attempts=10, base_delay=0.1, jitter=0.0
                ),
            ) as backend:
                assert backend.ping()["n_records"] == 800
        finally:
            starter.join(timeout=10.0)
            if "rpc" in holder:
                holder["rpc"].close()

    def test_fail_fast_mode_fails_on_the_first_refusal(self):
        reserve = socket.socket()
        reserve.bind(("127.0.0.1", 0))
        port = reserve.getsockname()[1]
        reserve.close()
        started = time.monotonic()
        with pytest.raises(OSError):
            RemoteBackend("127.0.0.1", port, connect_retry=None)
        assert time.monotonic() - started < 5.0


# ----------------------------------------------------------------------
# The CLI's SIGTERM drain (full subprocess, shm store)
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


@pytest.mark.shm
class TestCliSigtermDrain:
    def test_sigterm_drains_and_leaves_dev_shm_clean(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        before = _live_shm_segments()
        proc = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.cli",
                "serve",
                "--port", "0",
                "--records", "600",
                "--shards", "2",
                "--workers",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            address = None
            for _ in range(50):  # the banner is the first line printed
                line = proc.stdout.readline()
                assert line, "serve exited before announcing its address"
                match = re.search(
                    r"serving \d+ records on ([\d.]+):(\d+)", line
                )
                if match:
                    address = (match.group(1), int(match.group(2)))
                    break
            assert address is not None
            # the line after the banner names the live store
            store = proc.stdout.readline()
            assert store.startswith("store: shared-memory segments"), store
            # Prove it serves, then stop it the orchestrator's way.
            with RemoteBackend(*address, timeout=10.0) as backend:
                response = backend.handle(_request())
                assert response.estimates.shape == (3, 10)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "draining" in out
        assert "shutdown complete" in out
        leaked = _live_shm_segments() - before
        assert not leaked, f"SIGTERM drain leaked shm segments: {leaked}"
