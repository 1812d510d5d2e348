"""Spawn and supervise a cluster endpoint fleet from a topology file.

``python -m repro.cli cluster --topology fleet.json`` is the
operator's one command for the multi-endpoint story: it reads a JSON
topology (ranges × replicas × ports, WAL directories), forks one
:class:`repro.service.rpc.RpcServer` child per replica — each serving
its contiguous slice of the shared table, each recovering from its
write-ahead log first — then supervises them: a dead child is
restarted on its recorded port under
:class:`repro.api.resilience.RetryPolicy` backoff (WAL replay plus the
coordinator's resync puts it back in rotation), and SIGTERM drains the
whole fleet gracefully.

Topology file shape::

    {
      "table": {"dataset": "synthetic", "records": 4000, "seed": 0,
                "opt_in_rate": 0.5, "shards": 2},
      "host": "127.0.0.1",
      "ranges": [
        {"name": "lo", "lo": 0, "hi": 2000,
         "replicas": [{"port": 7801, "wal_dir": "/var/lib/repro/lo-r0"},
                      {"port": 7802, "wal_dir": "/var/lib/repro/lo-r1"}]},
        {"name": "hi", "lo": 2000, "hi": 4000,
         "replicas": [{"port": 7803}, {"port": 7804}]}
      ]
    }

Ranges must be listed in data order and tile ``[0, records)``
contiguously — that ordering is what makes the coordinator's
head-first ``expire_prefix`` and tail-range ``append_records`` mean
the same thing they mean on a single server.  ``port: 0`` binds an
ephemeral port (reported back through the supervisor); ``wal_dir`` is
optional — without it a replica is fast but recovers only via resync
from its peers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.api.resilience import RetryPolicy

#: Restart pacing for dead children: six tries from 200 ms up to 5 s,
#: then the supervisor gives up on that endpoint (its peers keep
#: serving; the health line says so).
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.2, multiplier=2.0, max_delay=5.0, jitter=0.25
)


def build_table(
    dataset: str = "synthetic",
    records: int = 100_000,
    seed: int = 0,
    opt_in_rate: float = 0.5,
):
    """The table a serving process exposes (shared with ``cli serve``).

    ``"synthetic"`` is a generic demo table (age, city, opt_in);
    ``"telemetry"`` is the building-sensor event schema
    (:mod:`repro.data.telemetry` — start it with ``--records 0`` as
    the empty sink for ``repro.cli stream``); a DPBench name expands
    that benchmark's histogram into one record per count with a
    synthetic opt-in column.  Deterministic in ``seed`` — every fleet
    replica building the same spec holds bit-identical columns, which
    is the replication contract's floor.
    """
    import numpy as np

    from repro.data.columnar import ColumnarDatabase

    rng = np.random.default_rng(seed)
    if dataset == "telemetry":
        from repro.data.telemetry import TelemetryConfig, telemetry_database

        return telemetry_database(
            int(records),
            TelemetryConfig(opt_in_rate=opt_in_rate, seed=seed),
        )
    if dataset == "synthetic":
        n = int(records)
        return ColumnarDatabase(
            {
                "age": rng.integers(0, 100, n),
                "city": rng.choice(list("abcd"), n),
                "opt_in": rng.random(n) < opt_in_rate,
            }
        )
    from repro.data.dpbench import generate_dpbench

    x = generate_dpbench(dataset, seed=seed)
    values = np.repeat(np.arange(len(x)), x)
    if records and records < len(values):
        values = rng.choice(values, size=int(records), replace=False)
        values.sort()
    return ColumnarDatabase(
        {
            "value": values,
            "opt_in": rng.random(len(values)) < opt_in_rate,
        }
    )


@dataclass(frozen=True)
class TableSpec:
    dataset: str = "synthetic"
    records: int = 100_000
    seed: int = 0
    opt_in_rate: float = 0.5
    shards: int = 2

    def build(self):
        return build_table(
            dataset=self.dataset,
            records=self.records,
            seed=self.seed,
            opt_in_rate=self.opt_in_rate,
        )


@dataclass(frozen=True)
class EndpointSpec:
    """One replica child: its slice, address, and durability home."""

    name: str
    range_name: str
    lo: int
    hi: int
    host: str = "127.0.0.1"
    port: int = 0
    wal_dir: str | None = None

    @property
    def shard_range(self) -> tuple[int, int]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class BudgetSpec:
    """The coordinator's privacy budget, declared with the topology.

    ``total`` is the global epsilon; ``quotas`` maps analyst names to
    per-analyst epsilon caps (they may oversubscribe ``total`` — both
    limits are enforced on every charge); ``dir`` selects the durable
    ledger: charges are fsync'd to an append-only journal there before
    each release returns, so a restarted coordinator resumes from the
    recovered spent total.
    """

    total: float
    quotas: tuple[tuple[str, float], ...] = ()
    dir: str | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "BudgetSpec":
        if "total" not in doc:
            raise ValueError("topology 'budget' section needs 'total'")
        quotas = tuple(
            (str(name), float(eps))
            for name, eps in dict(doc.get("quotas") or {}).items()
        )
        return cls(
            total=float(doc["total"]),
            quotas=quotas,
            dir=os.fspath(doc["dir"]) if doc.get("dir") else None,
        )

    def build_accountant(self):
        """The coordinator accountant this spec describes — a
        :class:`~repro.service.budget.DurableAccountant` when ``dir``
        is set, else a plain in-memory
        :class:`~repro.core.accountant.PrivacyAccountant`."""
        from repro.core.accountant import PrivacyAccountant

        quotas = dict(self.quotas) or None
        if self.dir:
            from repro.service.budget import DurableAccountant

            return DurableAccountant(
                self.dir, total_epsilon=self.total, quotas=quotas
            )
        return PrivacyAccountant(total_epsilon=self.total, quotas=quotas)


@dataclass(frozen=True)
class FleetTopology:
    table: TableSpec
    endpoints: tuple[EndpointSpec, ...]
    range_order: tuple[str, ...] = field(default=())
    budget: BudgetSpec | None = None

    def build_accountant(self):
        """The coordinator accountant from the topology's ``budget``
        section (None when the topology declares none)."""
        return self.budget.build_accountant() if self.budget else None

    @classmethod
    def from_dict(cls, doc: dict) -> "FleetTopology":
        table = TableSpec(**dict(doc.get("table") or {}))
        budget = (
            BudgetSpec.from_dict(dict(doc["budget"]))
            if doc.get("budget")
            else None
        )
        host = doc.get("host", "127.0.0.1")
        ranges = list(doc.get("ranges") or [])
        if not ranges:
            raise ValueError("topology needs at least one entry in 'ranges'")
        endpoints: list[EndpointSpec] = []
        order: list[str] = []
        cursor = 0
        for i, rng_doc in enumerate(ranges):
            name = str(rng_doc.get("name") or f"range{i}")
            lo, hi = int(rng_doc["lo"]), int(rng_doc["hi"])
            if lo != cursor:
                raise ValueError(
                    f"range {name!r} starts at {lo}, expected {cursor}: "
                    "ranges must tile [0, records) contiguously in data "
                    "order (appends go to the last range, expiry walks "
                    "from the first)"
                )
            if hi <= lo:
                raise ValueError(f"range {name!r} is empty ({lo}..{hi})")
            cursor = hi
            replicas = list(rng_doc.get("replicas") or [])
            if not replicas:
                raise ValueError(f"range {name!r} has no replicas")
            order.append(name)
            for r, rep_doc in enumerate(replicas):
                endpoints.append(
                    EndpointSpec(
                        name=f"{name}-r{r}",
                        range_name=name,
                        lo=lo,
                        hi=hi,
                        host=str(rep_doc.get("host", host)),
                        port=int(rep_doc.get("port", 0)),
                        wal_dir=(
                            os.fspath(rep_doc["wal_dir"])
                            if rep_doc.get("wal_dir")
                            else None
                        ),
                    )
                )
        if cursor != table.records:
            raise ValueError(
                f"ranges cover [0, {cursor}) but the table holds "
                f"{table.records} records; they must tile it exactly"
            )
        names = [ep.name for ep in endpoints]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate range names produce {names}")
        dirs = [ep.wal_dir for ep in endpoints if ep.wal_dir]
        if len(set(dirs)) != len(dirs):
            raise ValueError(f"replicas share a wal_dir in {dirs}")
        ports = [
            (ep.host, ep.port) for ep in endpoints if ep.port != 0
        ]
        if len(set(ports)) != len(ports):
            raise ValueError(f"replicas share an address in {ports}")
        return cls(
            table=table,
            endpoints=tuple(endpoints),
            range_order=tuple(order),
            budget=budget,
        )

    @classmethod
    def from_file(cls, path) -> "FleetTopology":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _endpoint_spec_doc(spec: EndpointSpec) -> dict:
    return {
        "name": spec.name,
        "range_name": spec.range_name,
        "lo": spec.lo,
        "hi": spec.hi,
        "host": spec.host,
        "port": spec.port,
        "wal_dir": spec.wal_dir,
    }


def _fleet_endpoint_main(conn, table_doc: dict, spec_doc: dict) -> None:
    """One replica child: build, recover, serve, drain on SIGTERM.

    Module-level so it pickles under any multiprocessing start method.
    The bound address goes back through ``conn`` only after the WAL
    has replayed and the socket is bound and listening — it is the
    supervisor's readiness signal (``health()["ready"]``), so a client
    that waits for it can connect at once; SIGTERM routes through KeyboardInterrupt so the drain
    and WAL close run exactly as they do for Ctrl-C.
    """
    from repro.service.rpc import RpcServer
    from repro.service.server import ReleaseServer
    from repro.service.wal import WriteAheadLog

    table = TableSpec(**table_doc)
    full = table.build()
    part = full.slice_records(int(spec_doc["lo"]), int(spec_doc["hi"]))
    server = ReleaseServer(part.shard(table.shards))
    wal = None
    if spec_doc.get("wal_dir"):
        wal = WriteAheadLog(spec_doc["wal_dir"])
        wal.recover(server)
    rpc = RpcServer(
        server,
        host=spec_doc.get("host", "127.0.0.1"),
        port=int(spec_doc.get("port", 0)),
        wal=wal,
    )
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        conn.send(rpc.address)
        conn.close()
        rpc.serve_forever()
    except KeyboardInterrupt:
        rpc.drain(grace=2.0)
    finally:
        rpc.close()


class _ChildState:
    __slots__ = (
        "spec",
        "process",
        "conn",
        "address",
        "ready",
        "started_at",
        "restarts",
        "attempt",
        "next_restart_at",
        "gave_up",
    )

    def __init__(self, spec: EndpointSpec):
        self.spec = spec
        self.process = None
        self.conn = None
        self.address = None
        #: True once *this* incarnation has reported its bound address.
        self.ready = False
        self.started_at = 0.0
        self.restarts = 0
        self.attempt = 0
        self.next_restart_at = None
        self.gave_up = False


class FleetSupervisor:
    """Launch a topology's children and keep them alive.

    A monitor thread polls the fleet: a child that dies is restarted
    on its recorded port after ``retry``-paced backoff (seedable via
    ``rng`` — restart schedules in tests are deterministic), and a
    child that stays up ``stable_after`` seconds earns its attempt
    counter back.  An endpoint that exhausts its restart budget is
    abandoned (``gave_up``) — its replicas keep the range serving.
    """

    def __init__(
        self,
        topology: FleetTopology,
        retry: RetryPolicy | None = None,
        rng=None,
        poll_interval: float = 0.1,
        stable_after: float = 5.0,
        start_timeout: float = 30.0,
    ):
        self.topology = topology
        self._retry = retry or DEFAULT_RESTART_POLICY
        self._rng = rng
        self._poll_interval = poll_interval
        self._stable_after = stable_after
        self._start_timeout = start_timeout
        self._children = {
            spec.name: _ChildState(spec) for spec in topology.endpoints
        }
        self._lock = threading.Lock()
        self._events: deque[str] = deque(maxlen=1000)
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._ctx = multiprocessing.get_context("fork")

    # -- events ---------------------------------------------------------
    def _event(self, line: str) -> None:
        with self._lock:
            self._events.append(line)

    def events(self, drain: bool = True) -> list[str]:
        """Supervision log lines since the last call (human-readable)."""
        with self._lock:
            lines = list(self._events)
            if drain:
                self._events.clear()
        return lines

    # -- spawning -------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """The pause before restart number ``attempt`` (0-based)."""
        return self._retry.delay(attempt, rng=self._rng)

    def _spawn(self, state: _ChildState, wait: bool) -> None:
        spec = state.spec
        state.ready = False
        if state.address is not None:
            # Restarts rebind the address clients already know.
            spec_doc = {
                **_endpoint_spec_doc(spec),
                "host": state.address[0],
                "port": state.address[1],
            }
        else:
            spec_doc = _endpoint_spec_doc(spec)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_fleet_endpoint_main,
            args=(child_conn, self.topology.table.__dict__, spec_doc),
            name=f"repro-endpoint-{spec.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.started_at = time.monotonic()
        if wait:
            self._await_address(state)

    def _await_address(self, state: _ChildState) -> bool:
        deadline = time.monotonic() + self._start_timeout
        while time.monotonic() < deadline:
            if state.conn.poll(0.05):
                try:
                    state.address = tuple(state.conn.recv())
                except (EOFError, OSError):
                    return False
                state.ready = True
                return True
            if not state.process.is_alive():
                return False
        return False

    def start(self) -> "FleetSupervisor":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for state in self._children.values():
            self._spawn(state, wait=False)
        for state in self._children.values():
            if not self._await_address(state):
                self.drain(grace=1.0)
                raise RuntimeError(
                    f"endpoint {state.spec.name} failed to report an "
                    f"address within {self._start_timeout}s"
                )
            self._event(
                f"endpoint {state.spec.name} serving "
                f"[{state.spec.lo},{state.spec.hi}) on "
                f"{state.address[0]}:{state.address[1]}"
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    # -- supervision ----------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._poll_interval):
            now = time.monotonic()
            for state in self._children.values():
                self._check_child(state, now)

    def _check_child(self, state: _ChildState, now: float) -> None:
        process = state.process
        if process is not None and process.is_alive():
            if state.attempt and now - state.started_at >= self._stable_after:
                # Survived long enough: its crash history is forgiven.
                state.attempt = 0
            return
        if state.gave_up:
            return
        if state.next_restart_at is None:
            exitcode = process.exitcode if process is not None else None
            if state.attempt >= self._retry.max_attempts:
                state.gave_up = True
                self._event(
                    f"endpoint {state.spec.name} gave up after "
                    f"{state.attempt} restarts (replicas keep the range "
                    "serving)"
                )
                return
            pause = self.backoff(state.attempt)
            state.attempt += 1
            state.next_restart_at = now + pause
            self._event(
                f"endpoint {state.spec.name} died (exit {exitcode}); "
                f"restart {state.attempt}/{self._retry.max_attempts} in "
                f"{pause:.2f}s"
            )
            return
        if now >= state.next_restart_at:
            state.next_restart_at = None
            state.restarts += 1
            self._spawn(state, wait=False)
            if self._await_address(state):
                self._event(
                    f"endpoint {state.spec.name} restarted on "
                    f"{state.address[0]}:{state.address[1]} (WAL replay "
                    "restores acked writes; stale replicas rejoin via "
                    "resync)"
                )
            else:
                self._event(
                    f"endpoint {state.spec.name} restart attempt "
                    f"{state.attempt} did not come up"
                )

    # -- introspection --------------------------------------------------
    def health(self) -> dict[str, dict]:
        """Per-endpoint liveness: the ``cluster`` subcommand's printout.

        ``alive`` is only "the process exists" — a restarted child is
        alive before it has bound its port.  ``ready`` is the state to
        wait on before connecting: the current incarnation is alive
        *and* has sent its address, which the child does after
        binding, listening and replaying its WAL.
        """
        out = {}
        for name, state in self._children.items():
            process = state.process
            alive = bool(process is not None and process.is_alive())
            out[name] = {
                "alive": alive,
                "ready": alive and state.ready,
                "address": state.address,
                "pid": process.pid if process is not None else None,
                "restarts": state.restarts,
                "shard_range": state.spec.shard_range,
                "wal_dir": state.spec.wal_dir,
                "gave_up": state.gave_up,
            }
        return out

    def endpoints(self):
        """The fleet as :class:`repro.api.cluster.ClusterEndpoint`s,
        in topology (= data) order — hand these to ``ClusterBackend``."""
        from repro.api.cluster import ClusterEndpoint

        eps = []
        for spec in self.topology.endpoints:
            state = self._children[spec.name]
            if state.address is None:
                raise RuntimeError(
                    f"endpoint {spec.name} has no address yet; call "
                    "start() first"
                )
            eps.append(
                ClusterEndpoint(
                    host=state.address[0],
                    port=state.address[1],
                    shard_range=spec.shard_range,
                    name=spec.name,
                )
            )
        return eps

    # -- shutdown -------------------------------------------------------
    def drain(self, grace: float = 5.0) -> None:
        """SIGTERM every child (their graceful path), then reap.

        Children drain in-flight requests themselves; stragglers past
        the grace period are terminated, then killed.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for state in self._children.values():
            process = state.process
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + max(0.0, grace)
        for state in self._children.values():
            process = state.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)
            if state.conn is not None:
                state.conn.close()
                state.conn = None

    def close(self) -> None:
        self.drain(grace=1.0)

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
