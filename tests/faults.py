"""Fault-injection harness for the serving tier (no test cases here).

Two tools, both driven by ``tests/test_cluster_faults.py``:

* :class:`ChaosProxy` — a loopback TCP proxy that forwards bytes
  between a client and an upstream server while injecting transport
  faults on command: per-direction **delay**, **drop** (blackhole),
  one-shot **truncate** (forward N more bytes, then abruptly close
  both sides mid-frame) and **reset** (RST every live connection via
  ``SO_LINGER(1, 0)``).  Point a ``RemoteBackend`` at the proxy's
  address and the wire sees exactly the failure you asked for.
* :class:`EndpointProcess` — one ``RpcServer`` over a deterministic
  slice of the demo table, in its own OS process (so ``SIGKILL`` is a
  real endpoint death, not a mock).  The child reports its ephemeral
  address through a pipe; replicas built from the same ``(n, seed,
  lo, hi)`` serve bit-identical data by construction.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct
import threading
import time

import numpy as np


def loopback_skip_reason() -> str | None:
    """Why socket tests cannot run here (None when they can)."""
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:
        return f"loopback sockets unavailable: {exc}"
    return None


# ----------------------------------------------------------------------
# Deterministic data slices (shared by endpoints, replicas, mirrors)
# ----------------------------------------------------------------------


def make_db(n: int = 4000, seed: int = 0):
    """The full demo table every fault test slices and mirrors."""
    from repro.data.columnar import ColumnarDatabase

    rng = np.random.default_rng(seed)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, n),
            "opt_in": rng.integers(0, 2, n).astype(bool),
        }
    )


def slice_db(n: int, seed: int, lo: int, hi: int):
    """Rows ``[lo, hi)`` of :func:`make_db` — one endpoint's slice."""
    from repro.data.columnar import ColumnarDatabase

    full = make_db(n, seed)
    return ColumnarDatabase(
        {
            name: np.asarray(full[name])[lo:hi].copy()
            for name in full.column_names
        }
    )


# ----------------------------------------------------------------------
# Endpoint-in-a-process (SIGKILL is a real death)
# ----------------------------------------------------------------------


def _endpoint_main(
    conn,
    n,
    seed,
    lo,
    hi,
    n_shards,
    wal_dir=None,
    port=0,
    budget_dir=None,
    budget_epsilon=None,
    quotas=None,
) -> None:
    from repro.service.rpc import RpcServer
    from repro.service.server import ReleaseServer

    accountant = None
    if budget_dir is not None:
        from repro.service.budget import DurableAccountant

        accountant = DurableAccountant(
            budget_dir, total_epsilon=budget_epsilon, quotas=quotas
        )
    server = ReleaseServer(
        slice_db(n, seed, lo, hi).shard(n_shards), accountant=accountant
    )
    wal = None
    if wal_dir is not None:
        from repro.service.wal import WriteAheadLog

        wal = WriteAheadLog(wal_dir)
        wal.recover(server)
    rpc = RpcServer(server, port=port, wal=wal)
    conn.send(rpc.address)
    conn.close()
    rpc.serve_forever()


class EndpointProcess:
    """One live ``repro`` serving endpoint in a child OS process.

    Endpoints are unmetered by default: in the cluster design the
    *coordinator* owns the accountant, so budget accounting survives
    any endpoint death.

    Pass ``wal_dir`` to make the endpoint durable: writes go through a
    :class:`repro.service.wal.WriteAheadLog` in that directory, and
    :meth:`restart` respawns the child *on the same port* so a
    recovered endpoint is reachable at its old address — the shape of
    a supervised production restart.

    Pass ``budget_dir`` (with ``budget_epsilon``, optionally
    ``quotas``) to meter the endpoint through a
    :class:`repro.service.budget.DurableAccountant`: every charge is
    journaled and fsync'd before its release returns, and a restarted
    child resumes from the recovered spent total.
    """

    def __init__(
        self,
        n: int,
        seed: int,
        lo: int,
        hi: int,
        n_shards: int = 2,
        wal_dir=None,
        port: int = 0,
        budget_dir=None,
        budget_epsilon=None,
        quotas=None,
    ):
        self.slice_args = (n, seed, lo, hi)
        self.n_shards = n_shards
        self.wal_dir = wal_dir
        self.budget_dir = budget_dir
        self.budget_epsilon = budget_epsilon
        self.quotas = quotas
        self._spawn(port)

    def _spawn(self, port: int) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_endpoint_main,
            args=(
                child_conn,
                *self.slice_args,
                self.n_shards,
                self.wal_dir,
                port,
                self.budget_dir,
                self.budget_epsilon,
                self.quotas,
            ),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(30):
                self.process.kill()
                raise RuntimeError(
                    "endpoint child never reported its address"
                )
            self.host, self.port = parent_conn.recv()
        except EOFError:
            self.process.join(timeout=10)
            raise RuntimeError(
                "endpoint child died before binding its port"
            ) from None
        finally:
            parent_conn.close()

    def kill(self) -> None:
        """SIGKILL — the endpoint dies without any cleanup or goodbye."""
        self.process.kill()
        self.process.join(timeout=10)

    def restart(self) -> None:
        """Respawn a (dead) endpoint on its previously bound port.

        With a ``wal_dir`` the child replays its write-ahead log on
        startup, so every write it acked before dying is served again.
        """
        if self.process.is_alive():
            self.kill()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                self._spawn(self.port)
                return
            except RuntimeError:
                # The old port can linger in TIME_WAIT briefly.
                time.sleep(0.2)
        raise RuntimeError("endpoint could not rebind its port")

    def close(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout=10)

    def __enter__(self) -> "EndpointProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The chaos proxy
# ----------------------------------------------------------------------


class _Faults:
    """Mutable per-direction fault switches (guarded by the proxy lock)."""

    def __init__(self):
        self.delay = 0.0  # seconds to sleep before forwarding a chunk
        self.drop = False  # blackhole: consume bytes, forward nothing
        self.truncate_budget: int | None = None  # one-shot byte budget


class ChaosProxy:
    """A TCP proxy that injects transport faults on command.

    Directions are named from the client's point of view: ``"c2s"``
    (requests) and ``"s2c"`` (replies); fault setters default to
    ``"both"``.  All switches are live — they apply to bytes that
    cross the proxy *after* the call — and :meth:`clear` restores
    clean forwarding.  ``truncate_after(n)`` is one-shot: after ``n``
    more forwarded bytes the proxied connection is closed abruptly in
    both directions, which a peer mid-frame observes as truncation.
    """

    def __init__(self, upstream_host: str, upstream_port: int):
        self.upstream = (upstream_host, upstream_port)
        self._lock = threading.Lock()
        self._faults = {"c2s": _Faults(), "s2c": _Faults()}
        self._closed = False
        self._conns: list[tuple[socket.socket, socket.socket]] = []
        self.bytes_forwarded = {"c2s": 0, "s2c": 0}
        self.connections_seen = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    # -- fault switches -------------------------------------------------
    def _each(self, direction: str):
        if direction == "both":
            return [self._faults["c2s"], self._faults["s2c"]]
        return [self._faults[direction]]

    def set_delay(self, seconds: float, direction: str = "both") -> None:
        with self._lock:
            for faults in self._each(direction):
                faults.delay = seconds

    def set_drop(self, dropping: bool = True, direction: str = "both") -> None:
        with self._lock:
            for faults in self._each(direction):
                faults.drop = dropping

    def truncate_after(self, nbytes: int, direction: str = "both") -> None:
        """Forward ``nbytes`` more bytes, then abruptly close (one-shot)."""
        with self._lock:
            for faults in self._each(direction):
                faults.truncate_budget = nbytes

    def clear(self) -> None:
        with self._lock:
            for faults in self._faults.values():
                faults.delay = 0.0
                faults.drop = False
                faults.truncate_budget = None

    def reset_connections(self) -> None:
        """RST every live proxied connection (SO_LINGER 1, 0)."""
        with self._lock:
            conns, self._conns = self._conns, []
        for client, upstream in conns:
            for sock in (client, upstream):
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    # -- plumbing -------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    client.close()
                    return
                self.connections_seen += 1
            try:
                upstream = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns.append((client, upstream))
            for direction, src, dst in (
                ("c2s", client, upstream),
                ("s2c", upstream, client),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(direction, src, dst, client, upstream),
                    name=f"chaos-proxy-{direction}",
                    daemon=True,
                ).start()

    def _pump(self, direction, src, dst, client, upstream) -> None:
        while True:
            try:
                chunk = src.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            with self._lock:
                faults = self._faults[direction]
                delay, drop = faults.delay, faults.drop
                budget = faults.truncate_budget
                if budget is not None:
                    if len(chunk) >= budget:
                        chunk = chunk[:budget]
                        faults.truncate_budget = None
                        drop_connection = True
                    else:
                        faults.truncate_budget = budget - len(chunk)
                        drop_connection = False
                else:
                    drop_connection = False
            if delay:
                time.sleep(delay)
            if drop:
                continue  # blackhole: swallow the bytes
            try:
                if chunk:
                    dst.sendall(chunk)
                    with self._lock:
                        self.bytes_forwarded[direction] += len(chunk)
            except OSError:
                break
            if drop_connection:
                self._sever(client, upstream)
                return
        self._sever(client, upstream)

    def _sever(self, client, upstream) -> None:
        with self._lock:
            self._conns = [
                pair for pair in self._conns if pair[0] is not client
            ]
        for sock in (client, upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # shutdown() wakes the accept loop (a bare close() of the
        # listening fd does not on Linux), so the join below is prompt.
        for end in (
            lambda: self._listener.shutdown(socket.SHUT_RDWR),
            self._listener.close,
        ):
            try:
                end()
            except OSError:
                pass
        self.reset_connections()
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
