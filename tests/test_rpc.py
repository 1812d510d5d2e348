"""Loopback-socket smoke lane for the RPC transport (tier-1, `rpc` mark).

The acceptance contract of the socket layer: a request built from JSON
specs, sent through :class:`repro.api.RemoteBackend` to a live
:class:`repro.service.rpc.RpcServer`, returns responses **bit-identical**
to ``ReleaseServer.handle`` and to the direct library path (same seed),
including batch-budget failures — and killing a pool worker mid-run
respawns it without changing a bit.

Every test skips with a reason where loopback sockets are unavailable
(sandboxed CI); the `rpc` marker keeps the lane addressable
(``-m rpc``) without removing it from tier-1.
"""

from __future__ import annotations

import os
import signal
import socket

import numpy as np
import pytest

from repro.api import OsdpClient, RemoteBackend, ReleaseRequest
from repro.core.accountant import BudgetExceededError, PrivacyAccountant
from repro.core.policy import OptInPolicy
from repro.data.columnar import ColumnarDatabase
from repro.data.workers import ShardWorkerPool
from repro.mechanisms.osdp_laplace import OsdpLaplaceL1Histogram
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    IntegerBinning,
)
from repro.service import BatchBudgetExceededError, ReleaseServer
from repro.service.rpc import RpcServer

pytestmark = pytest.mark.rpc


def _loopback_available() -> str | None:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:
        return f"loopback sockets unavailable: {exc}"
    return None


_SKIP_REASON = _loopback_available()
if _SKIP_REASON:
    pytestmark = [pytest.mark.rpc, pytest.mark.skip(reason=_SKIP_REASON)]


def _db(n: int = 4000, seed: int = 0) -> ColumnarDatabase:
    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


BINNING = IntegerBinning("age", 0, 100, 10)
BINNING_SPEC = BINNING.to_spec()
POLICY_SPEC = {"kind": "opt_in", "attr": "opt_in"}


def _request(epsilon=0.25, n_trials=4, seed=9, **kw) -> ReleaseRequest:
    return ReleaseRequest(
        "osdp_laplace_l1", epsilon, BINNING_SPEC, POLICY_SPEC,
        n_trials=n_trials, seed=seed, **kw,
    )


@pytest.fixture()
def served():
    """A live loopback server plus a mirror ReleaseServer on the same data.

    The mirror serves the bit-identity reference: same shards, same
    caches-from-cold state, never touched by the remote traffic.
    """
    db = _db()
    server = ReleaseServer(db.shard(2))
    mirror = ReleaseServer(_db().shard(2))
    with RpcServer(server).start() as rpc:
        host, port = rpc.address
        with OsdpClient.connect(host, port) as client:
            yield client, mirror, db


class TestRemoteBitIdentity:
    def test_release_matches_server_and_library(self, served):
        client, mirror, db = served
        request = _request()
        remote = client.release(request)
        local = mirror.handle(request)
        assert np.array_equal(remote.estimates, local.estimates)
        hist = HistogramInput.from_columnar(
            db, HistogramQuery(BINNING), OptInPolicy()
        )
        reference = OsdpLaplaceL1Histogram(0.25).release_batch(
            hist, np.random.default_rng(9), 4
        )
        assert np.array_equal(remote.estimates, reference)
        assert remote.estimates.dtype == reference.dtype
        assert remote.cache_hit == local.cache_hit
        assert remote.epsilon_spent == local.epsilon_spent

    def test_request_built_from_json_text(self, served):
        client, mirror, _ = served
        from repro.api import wire
        from repro.service.framelog import decode_message

        doc = decode_message(
            wire.encode_message(wire.request_to_wire(_request(seed=3)))
        )
        rebuilt = wire.request_from_wire(doc)
        assert np.array_equal(
            client.release(rebuilt).estimates,
            mirror.handle(_request(seed=3)).estimates,
        )

    def test_batch_matches_and_caches(self, served):
        client, mirror, _ = served
        requests = [_request(seed=s, n_trials=2) for s in (1, 2, 3)]
        remote = client.release_batch(requests)
        local = mirror.handle_batch(requests)
        for got, want in zip(remote, local):
            assert np.array_equal(got.estimates, want.estimates)
        assert [r.cache_hit for r in remote] == [r.cache_hit for r in local]

    def test_true_histogram_and_mechanisms(self, served):
        client, _, db = served
        assert np.array_equal(
            client.true_histogram(BINNING),
            db.histogram(BINNING, BINNING.n_bins),
        )
        names = client.backend.mechanisms()
        assert "osdp_laplace_l1" in names and "dawa" in names
        ping = client.backend.ping()
        assert ping["n_records"] == len(db)


class TestRemoteFailures:
    def test_batch_budget_error_reraised_with_charged_prefix(self):
        db = _db(1500)
        server = ReleaseServer(
            db.shard(2), accountant=PrivacyAccountant(total_epsilon=0.6)
        )
        mirror = ReleaseServer(
            _db(1500).shard(2), accountant=PrivacyAccountant(total_epsilon=0.6)
        )
        requests = [_request(seed=s, n_trials=1) for s in range(4)]
        local_exc = _batch_failure(mirror, requests)
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                with pytest.raises(BatchBudgetExceededError) as excinfo:
                    client.release_batch(requests)
        remote_exc = excinfo.value
        assert len(remote_exc.responses) == len(local_exc.responses) == 2
        for got, want in zip(remote_exc.responses, local_exc.responses):
            assert np.array_equal(got.estimates, want.estimates)
        assert remote_exc.failed_request.seed == 2
        # the error is also an ordinary BudgetExceededError to callers
        assert isinstance(remote_exc, BudgetExceededError)

    def test_single_release_budget_error(self):
        server = ReleaseServer(
            _db(500).shard(1), accountant=PrivacyAccountant(total_epsilon=0.1)
        )
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                with pytest.raises(BudgetExceededError):
                    client.release(_request(epsilon=0.5))
                # the connection survives a failed request
                assert client.backend.budget_remaining == pytest.approx(0.1)

    def test_unknown_mechanism_and_malformed_spec(self, served):
        client, _, _ = served
        with pytest.raises(KeyError, match="unknown mechanism"):
            client.release(
                ReleaseRequest("nope", 0.5, BINNING_SPEC, POLICY_SPEC)
            )
        from repro.core.policy_language import PolicySpecError

        with pytest.raises(PolicySpecError):
            client.release(
                ReleaseRequest(
                    "laplace", 0.5, BINNING_SPEC, {"kind": "no-such-kind"}
                )
            )


class TestBrokenConnections:
    def test_mid_exchange_failure_invalidates_the_connection(self):
        """A transport failure must kill the socket, not desync it."""
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def drop_first_connection():
            conn, _ = listener.accept()
            conn.recv(64)  # take part of the request, then hang up
            conn.close()

        thread = threading.Thread(target=drop_first_connection, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        backend = RemoteBackend(host, port)
        try:
            with pytest.raises(ConnectionError, match="mid-flight"):
                backend.ping()
            # the connection is gone for good — no request may ever
            # reuse a desynchronized stream
            with pytest.raises(ConnectionError, match="closed or broken"):
                backend.ping()
        finally:
            backend.close()
            listener.close()
            thread.join(timeout=5)

    def test_undecodable_reply_closes_the_backend(self):
        """A reply that fails to decode leaves the rest of the stream —
        here a second, valid frame — to pair with the next request: the
        default backend must close, never hand that frame to call two."""
        import threading

        from repro.api.wire import encode_message, recv_message

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer_with_junk_then_a_stale_frame():
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)
                junk = (8).to_bytes(4, "big") + b"\xff" * 8
                stale = encode_message({"ok": "STALE reply to request 1"})
                conn.sendall(junk + stale)
                try:
                    recv_message(conn)
                except (EOFError, OSError):
                    pass

        thread = threading.Thread(
            target=answer_with_junk_then_a_stale_frame, daemon=True
        )
        thread.start()
        backend = RemoteBackend(*listener.getsockname())
        try:
            with pytest.raises(ConnectionError, match="mid-flight"):
                backend.ping()
            assert backend._closed
            with pytest.raises(ConnectionError, match="closed or broken"):
                backend.ping()
        finally:
            backend.close()
            listener.close()
            thread.join(timeout=5)

    def test_close_is_idempotent(self):
        db = _db(200)
        with RpcServer(ReleaseServer(db.shard(1))).start() as rpc:
            backend = RemoteBackend(*rpc.address)
            assert backend.ping()["n_records"] == 200
            backend.close()
            backend.close()
            with pytest.raises(ConnectionError, match="closed or broken"):
                backend.ping()


def _batch_failure(mirror, requests) -> BatchBudgetExceededError:
    """The BatchBudgetExceededError a mirror server raises on `requests`."""
    with pytest.raises(BatchBudgetExceededError) as excinfo:
        mirror.handle_batch(requests)
    return excinfo.value


class TestRemoteLiveData:
    def test_append_and_expire_over_the_socket(self, served):
        client, mirror, db = served
        before = client.true_histogram(BINNING)
        chunk = [{"age": 5, "opt_in": True}] * 3
        assert client.append_records(chunk) == mirror.append_records(chunk)
        assert client.true_histogram(BINNING)[0] == before[0] + 3
        assert client.expire_prefix(7) == mirror.expire_prefix(7)
        assert np.array_equal(
            client.true_histogram(BINNING),
            mirror.true_histogram(BINNING),
        )
        # post-update releases stay bit-identical to the mirror
        request = _request(seed=21)
        assert np.array_equal(
            client.release(request).estimates,
            mirror.handle(request).estimates,
        )

    def test_columnar_append_payload(self, served):
        client, mirror, _ = served
        chunk = ColumnarDatabase(
            {
                "age": np.array([1, 2, 3]),
                "opt_in": np.array([True, False, True]),
            }
        )
        client.append_records(chunk)
        mirror.append_records(chunk)
        assert np.array_equal(
            client.true_histogram(BINNING), mirror.true_histogram(BINNING)
        )


class TestConcurrentReadPath:
    """PR-5: many analysts, one server — shared-lock reads stay exact.

    Load-insensitive correctness only (throughput is ``bench/``'s
    job): concurrent seeded releases through one *shared* client must
    be bit-identical to their serial twins, and a
    metered server must never over-subscribe its budget under
    concurrent charging.
    """

    def test_shared_client_concurrent_releases_bit_identical(self):
        import threading

        db = _db(2_000, seed=3)
        server = ReleaseServer(db.shard(2))
        mirror = ReleaseServer(_db(2_000, seed=3).shard(2))
        requests = [_request(seed=s, n_trials=2) for s in range(8)]
        expected = [mirror.handle(r).estimates for r in requests]
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                results: list = [None] * len(requests)

                def run(i: int) -> None:
                    # one OsdpClient shared across threads: each thread
                    # gets its own connection under the hood
                    results[i] = client.release(requests[i]).estimates

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(len(requests))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        for got, want in zip(results, expected):
            assert got is not None
            assert np.array_equal(got, want)

    def test_concurrent_charges_never_oversubscribe_the_budget(self):
        import threading

        total = 1.0
        server = ReleaseServer(
            _db(600).shard(1),
            accountant=PrivacyAccountant(total_epsilon=total),
        )
        n_threads, eps = 8, 0.3  # only 3 of 8 can be afforded
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                outcomes: list = [None] * n_threads

                def run(i: int) -> None:
                    try:
                        client.release(_request(epsilon=eps, seed=i))
                        outcomes[i] = "ok"
                    except BudgetExceededError:
                        outcomes[i] = "rejected"

                threads = [
                    threading.Thread(target=run, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        assert outcomes.count("ok") == 3, outcomes
        assert outcomes.count("rejected") == 5
        assert server.accountant.spent == pytest.approx(3 * eps)

    def test_release_after_concurrent_append_sees_consistent_data(self):
        import threading

        db = _db(1_000, seed=4)
        server = ReleaseServer(db.shard(2))
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                stop = threading.Event()
                failures: list = []

                def reader() -> None:
                    while not stop.is_set():
                        try:
                            hist = client.true_histogram(BINNING)
                        except Exception as exc:  # pragma: no cover
                            failures.append(exc)
                            return
                        # appends land 10 records at a time, so any
                        # snapshot a reader observes is a multiple of 10
                        assert hist.sum() % 10 == 0

                threads = [
                    threading.Thread(target=reader) for _ in range(3)
                ]
                for t in threads:
                    t.start()
                chunk = [{"age": 5, "opt_in": True}] * 10
                for _ in range(5):
                    client.append_records(chunk)
                stop.set()
                for t in threads:
                    t.join(timeout=30)
                assert not failures
                assert client.true_histogram(BINNING).sum() == 1_050


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        import threading

        from repro.service.rpc import ReadWriteLock

        lock = ReadWriteLock()
        state = {"readers": 0, "max_readers": 0, "writer_during_read": False}
        gate = threading.Barrier(3)

        def reader() -> None:
            with lock.read():
                state["readers"] += 1
                state["max_readers"] = max(
                    state["max_readers"], state["readers"]
                )
                gate.wait(timeout=10)  # both readers inside at once
                state["readers"] -= 1

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        gate.wait(timeout=10)
        for t in readers:
            t.join(timeout=10)
        assert state["max_readers"] == 2

        with lock.write():
            acquired = []

            def late_reader() -> None:
                with lock.read():
                    acquired.append(True)

            t = threading.Thread(target=late_reader)
            t.start()
            t.join(timeout=0.2)
            assert not acquired  # reader blocked behind the writer
        t.join(timeout=10)
        assert acquired


class TestWorkerFailover:
    def test_killed_worker_respawns_and_request_is_bit_identical(self):
        """The acceptance scenario: kill one pool worker mid-run."""
        db = _db(3000)
        sharded = db.shard(3)
        pool = ShardWorkerPool(sharded.shards)
        server = ReleaseServer(sharded.with_executor(pool))
        mirror = ReleaseServer(_db(3000).shard(3))
        with RpcServer(server).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                request = _request(seed=13)
                first = client.release(request)
                assert np.array_equal(
                    first.estimates, mirror.handle(request).estimates
                )
                # murder one worker between requests; the next request
                # (fresh seed, fresh binning width so caches miss) must
                # respawn it and still match the mirror bit for bit
                os.kill(pool._procs[1].pid, signal.SIGKILL)
                pool._procs[1].join()
                wide = IntegerBinning("age", 0, 100, 5).to_spec()
                request2 = ReleaseRequest(
                    "osdp_laplace_l1", 0.25, wide, POLICY_SPEC,
                    n_trials=3, seed=29,
                )
                second = client.release(request2)
                assert pool.stats.respawns == 1
                assert np.array_equal(
                    second.estimates, mirror.handle(request2).estimates
                )
                # and the pool keeps serving afterwards
                third = client.release(_request(seed=31))
                assert np.array_equal(
                    third.estimates,
                    mirror.handle(_request(seed=31)).estimates,
                )
        pool.close()


class TestIdempotencyCachePressure:
    def test_unsettled_entry_survives_eviction_pressure(self):
        """PR-8 satellite: an in-flight (unsettled) ``_IdemEntry`` must
        never be evicted, no matter how many settled entries flood in —
        evicting it would let a duplicate of a *running* effectful op
        start a second execution.  Only settled entries may be pruned."""
        import threading

        rpc = RpcServer(
            ReleaseServer(_db(200).shard(2)), idempotency_limit=4
        )
        try:
            release = threading.Event()
            running = threading.Event()
            original_dispatch = rpc.dispatch

            def gated_dispatch(message, received_at=None):
                if message.get("req_id") == "slow":
                    running.set()
                    assert release.wait(30.0)
                return original_dispatch(message, received_at=received_at)

            rpc.dispatch = gated_dispatch
            slow_replies: list = []
            worker = threading.Thread(
                target=lambda: slow_replies.append(
                    rpc.serve_message({"op": "ping", "req_id": "slow"})
                )
            )
            worker.start()
            assert running.wait(10.0)  # "slow" is in flight, unsettled
            # Flood far past the cache bound with settled entries.
            for i in range(20):
                rpc.serve_message({"op": "ping", "req_id": f"settled-{i}"})
            assert "slow" in rpc._idem  # survived every prune
            assert len(rpc._idem) <= 4 + 1  # bound holds + the pinned slot
            release.set()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
            assert slow_replies and "ok" in slow_replies[0]
            # The settled entry now replays instead of re-running.
            replays_before = rpc.transport_stats["idempotent_replays"]
            duplicate = rpc.serve_message({"op": "ping", "req_id": "slow"})
            assert duplicate is slow_replies[0]
            assert (
                rpc.transport_stats["idempotent_replays"]
                == replays_before + 1
            )
        finally:
            rpc.close()
