"""End-to-end runs: real serving processes, closed loops, verification.

Run shape (every workload): spawn the deployment, wait for a
successful ``ping``, send the fixed-count warm-up — that whole stretch
is one ``setup_s`` sample, taken :data:`SETUP_REPEATS` times — then
drive the last deployment for a fixed number of seconds, in
:data:`SLICES` slices, from at most two client threads (closed loop:
each analyst waits for its reply), reading the server tree's CPU time
and PSS per slice and probing the host's speed in the pauses between
slices; SIGTERM the deployment, and only then verify the sampled
replies against an in-process reference (so verification never
competes with the measured section for the two cores).  Times and
rates are reported at a reference host speed (see "Host speed").
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.api.backends import RemoteBackend
from repro.api.client import OsdpClient
from repro.api.cluster import ClusterBackend
from repro.core.accountant import PrivacyAccountant
from repro.data.columnar import ColumnarDatabase
from repro.data.telemetry import telemetry_events
from repro.service.fleet import FleetSupervisor, FleetTopology, build_table
from repro.service.server import ReleaseServer

from bench import workloads as wl
from bench.trace import percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Slices of the measured section (a speed probe in the pause after each).
SLICES = 15
#: Every n-th release of a client is re-run through the reference.
VERIFY_EVERY = 50
#: Upper bound on the stream writer's event log, per measured second.
STREAM_EVENTS_PER_S = 60_000

#: Every end-to-end metric an untraced run emits on every workload.
E2E_METRICS = (
    "release_p50_ms", "release_p95_ms", "release_rps",
    "server_cpu_ms_per_op", "server_pss_mb", "setup_s",
)
#: What ``stream_mixed`` reports besides (its writer's side).
WRITE_METRICS = ("write_p50_ms", "write_p95_ms", "ingest_events_per_s")
#: Reported at the reference host speed (see "Host speed" below).
TIME_METRICS = (
    "release_p50_ms", "release_p95_ms", "server_cpu_ms_per_op", "setup_s",
    "write_p50_ms", "write_p95_ms",
)
RATE_METRICS = ("release_rps", "ingest_events_per_s")

#: The generator owns the first CPU and the server tree the rest, as if
#: the analysts sat on another machine (no split on a one-CPU host).
#: Left to the scheduler, a closed-loop client and its server land on
#: one CPU or on two at random, and the two placements differ by tens
#: of percent in latency and in CPU time per op.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS, SERVER_CPUS = set(_CPUS[:1]), set(_CPUS[1:])

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SERVING = re.compile(r"serving \d+ records on ([\d.]+):(\d+)")


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/pid/stat`` from the state field on (comm may hold spaces)."""
    try:
        data = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return data[data.rindex(")") + 2 :].split()


def process_tree(roots) -> list[int]:
    """``roots`` and every live descendant."""
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent[int(entry)] = int(fields[1])
    tree = {int(pid) for pid in roots if int(pid) in parent}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return sorted(tree)


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def pss_mb(pids) -> float:
    """Sum of ``Pss`` over ``pids`` (shared-memory pages count once)."""
    kb = 0
    for pid in pids:
        try:
            rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        match = re.search(r"^Pss:\s+(\d+) kB", rollup, re.MULTILINE)
        if match:
            kb += int(match.group(1))
    return kb / 1024.0


def adopt_orphans() -> None:
    """Make this process the one that orphaned descendants fall to
    (``PR_SET_CHILD_SUBREAPER``), so that it can wait for a dead
    server's helpers itself, whatever runs above it."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def _alive(pids) -> list[int]:
    """The live processes of ``pids`` and their descendants, after
    reaping those that have ended and are this process's to reap."""
    for pid in process_tree(pids):
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass  # another process's child
    return process_tree(pids)


def outliving(pids, grace_s: float = 5.0) -> list[int]:
    """The processes of ``pids`` still alive after ``grace_s``; they are
    killed, and have ended when this returns.  Call it only once the
    owners of ``pids`` (``Popen``, multiprocessing) have waited for them.

    A reaped server's helpers (multiprocessing's resource tracker) exit
    on their own a moment after it, so survivors get a short grace.
    """
    deadline = time.monotonic() + grace_s
    while True:
        alive = _alive(pids)
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    _kill_and_wait(alive)
    return alive


def _kill_and_wait(pids, term_s: float = 5.0, patience_s: float = 30.0) -> None:
    """SIGTERM (a server then unlinks its shared memory), SIGKILL what
    ignores it for ``term_s``, and wait until all of ``pids`` have ended."""
    for signum, wait_s in ((signal.SIGTERM, term_s), (signal.SIGKILL, patience_s)):
        for pid in _alive(pids):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait_s
        while _alive(pids) and time.monotonic() < deadline:
            time.sleep(0.02)


def end_own_processes() -> list[int]:
    """Ends every process this one started and still has, and waits for each.

    Called on every path out of a run.  Returns what had to be killed
    (nothing, after a clean run).  multiprocessing's resource tracker is
    not among them: it serves this process until the end, so it is told
    to finish (it then unlinks what a killed worker leaked) and awaited.
    """
    tracker = resource_tracker._resource_tracker
    me = os.getpid()
    strays = [
        pid for pid in _alive([me])
        if pid not in (me, getattr(tracker, "_pid", None))
    ]
    _kill_and_wait(strays)
    tracker._stop()
    return strays


def pin_generator(pinned: bool) -> None:
    """Keep this process (and the client threads it starts) on its CPU
    for the length of a run; ``pinned=False`` gives it back the host."""
    if SERVER_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS if pinned else _CPUS)


def pin_servers(pids) -> None:
    """Move server processes (started single-threaded) onto the server CPUs;
    the threads and workers they start afterwards inherit the mask."""
    if SERVER_CPUS:
        for pid in pids:
            os.sched_setaffinity(pid, SERVER_CPUS)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#
# This benchmark runs on a few cores of a shared host whose speed moves
# by 25-35 % for minutes at a time (same work, more CPU time per op;
# steal is reported only in the worst phases): unnormalised, ten back-to-back runs spread by
# 0.15-0.30 of their median whenever such a phase falls among them.  So
# every run times a fixed piece of numpy work in the pauses between the
# slices of its measured section, and reports times and rates as they
# would be on a host that does that work in PROBE_REFERENCE_NS (this
# host when quiet).  The probe calls nothing of the program, so a
# change to the program moves the metrics and not the probe.

_PROBE_KEYS = np.arange(100_000, dtype=np.int64) % 97
#: One probe on this host when nothing else runs on it.
PROBE_REFERENCE_NS = 360_000.0


def _probe_once() -> int:
    """Fixed work of the kind the servers' kernels do."""
    began = time.perf_counter_ns()
    np.bincount(_PROBE_KEYS, minlength=97)
    np.cumsum(_PROBE_KEYS)
    return time.perf_counter_ns() - began


def speed_probe(repeats: int = 80) -> list[int]:
    """Times the fixed work on the server's first CPU (the calling
    thread moves there and back); call it while the servers idle."""
    home = os.sched_getaffinity(0)
    if SERVER_CPUS:
        os.sched_setaffinity(0, _CPUS[1:2])
    try:
        _probe_once()  # the move left the caches cold
        return [_probe_once() for _ in range(repeats)]
    finally:
        os.sched_setaffinity(0, home)


def slowness(probes) -> float:
    """How much slower than the reference host the probes ran (1 = as fast)."""
    return float(np.mean(probes)) / PROBE_REFERENCE_NS


def at_reference_speed(metrics: dict, slow: float) -> dict:
    """``metrics`` as a host of the reference speed would have measured them."""
    scale = {
        **dict.fromkeys(TIME_METRICS, 1.0 / slow),
        **dict.fromkeys(RATE_METRICS, slow),
    }
    return {name: value * scale.get(name, 1.0) for name, value in metrics.items()}


@dataclass
class Section:
    """What the measured section's slices add up to."""

    measured_ns: int = 0
    cpu_s: float = 0.0
    pss_mb: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    #: Per slice: ops completed (shows a workload that is not
    #: stationary) and the p95 of their latencies.
    done: list = field(default_factory=list)
    p95_ns: list = field(default_factory=list)

    def info(self) -> dict:
        return {
            "slices": SLICES,
            "slowness": slowness(self.probes),
            "probe_samples": len(self.probes),
            "done_per_slice": self.done,
            "p95_ms_per_slice": [_ms(ns) for ns in self.p95_ns],
        }


class _Client(threading.Thread):
    """One client thread for the whole section (a ``RemoteBackend``
    holds a connection per thread): runs ``loop(deadline_ns)`` once for
    every slice deadline it is handed."""

    def __init__(self, loop):
        super().__init__(daemon=True)
        self.loop = loop
        self.deadlines = queue.SimpleQueue()
        self.finished = queue.SimpleQueue()
        self.start()

    def run(self) -> None:
        for deadline_ns in iter(self.deadlines.get, None):
            try:
                self.loop(deadline_ns)
                self.finished.put(None)
            except BaseException as exc:
                self.finished.put(exc)


def run_section(pids, seconds: float, loops, logs) -> Section:
    """The measured section: ``SLICES`` equal slices, one PSS reading in
    the middle of each and one speed probe in the pause after each,
    while the servers idle.  Each of ``loops`` is one client's
    ``loop(deadline_ns)``; ``logs`` are where they log latencies."""
    section = Section(probes=speed_probe())
    slice_s = seconds / SLICES
    clients = [_Client(loop) for loop in loops]
    try:
        for _ in range(SLICES):
            marks = [len(log.latencies_ns) for log in logs]
            cpu_before = cpu_seconds(pids)
            began = time.perf_counter_ns()
            for client in clients:
                client.deadlines.put(began + int(slice_s * 1e9))
            time.sleep(slice_s / 2)
            section.pss_mb.append(pss_mb(pids))
            for client in clients:
                failure = client.finished.get()
                if failure is not None:
                    raise failure
            section.measured_ns += time.perf_counter_ns() - began
            section.cpu_s += cpu_seconds(pids) - cpu_before
            latencies = [
                ns for log, mark in zip(logs, marks) for ns in log.latencies_ns[mark:]
            ]
            section.done.append(len(latencies))
            if latencies:
                section.p95_ns.append(percentile(latencies, 0.95))
            section.probes += speed_probe()
    finally:
        for client in clients:
            client.deadlines.put(None)
        for client in clients:
            client.join()
    return section


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Deployments
# ----------------------------------------------------------------------


class ServeDeployment:
    """One ``python -m repro.cli serve`` subprocess, ready when it pings."""

    def __init__(self, workload: wl.Workload, run_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0"]
            + workload.serve_argv(run_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=ROOT,
        )
        pin_servers([self.proc.pid])
        banner = []
        self.address = None
        for line in self.proc.stdout:
            banner.append(line)
            match = _SERVING.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                break
        if self.address is None:
            self.proc.wait()
            raise RuntimeError("serve did not come up:\n" + "".join(banner))
        with RemoteBackend(*self.address) as probe:
            self.ping = probe.ping()

    def backend(self, analyst=None):
        return RemoteBackend(*self.address, analyst=analyst)

    def pids(self) -> list[int]:
        return process_tree([self.proc.pid])

    def stop(self) -> list[str]:
        """SIGTERM + wait; returns what did not shut down cleanly."""
        tree = self.pids()
        self.proc.send_signal(signal.SIGTERM)
        try:
            output, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            _kill_and_wait(tree)
            self.proc.communicate()
            return ["serve ignored SIGTERM for 30 s and was killed"]
        problems = []
        if self.proc.returncode != 0 or "shutdown complete" not in output:
            problems.append(
                f"serve exited {self.proc.returncode} without a clean "
                f"shutdown: {output[-400:]!r}"
            )
        survivors = outliving(tree)
        if survivors:
            problems.append(f"processes outlived serve: {survivors}")
        return problems


class FleetDeployment:
    """A ``FleetSupervisor`` fleet: two ranges, one replica each."""

    def __init__(self, workload: wl.Workload, run_dir: Path):
        records = workload.table["records"]
        half = records // 2
        topology = FleetTopology.from_dict(
            {
                "table": {**workload.table, "shards": 1},
                "ranges": [
                    {"name": "lo", "lo": 0, "hi": half, "replicas": [{"port": 0}]},
                    {"name": "hi", "lo": half, "hi": records, "replicas": [{"port": 0}]},
                ],
            }
        )
        self.supervisor = FleetSupervisor(topology).start()
        pin_servers(doc["pid"] for doc in self.supervisor.health().values())
        self.endpoints = self.supervisor.endpoints()
        for endpoint in self.endpoints:
            with RemoteBackend(endpoint.host, endpoint.port) as probe:
                self.ping = probe.ping()

    def backend(self, analyst=None):
        return ClusterBackend(
            self.endpoints, accountant=PrivacyAccountant(wl.BUDGET)
        )

    def pids(self) -> list[int]:
        return process_tree(
            doc["pid"] for doc in self.supervisor.health().values()
        )

    def stop(self) -> list[str]:
        tree = self.pids()
        self.supervisor.close()
        survivors = outliving(tree)
        return [f"processes outlived the fleet: {survivors}"] if survivors else []


def deploy(workload: wl.Workload, run_dir: Path):
    cls = FleetDeployment if workload.kind == "cluster" else ServeDeployment
    return cls(workload, run_dir)


def reference_table(workload: wl.Workload):
    """The table the deployment serves (``serve``'s default seed)."""
    return build_table(**workload.table, seed=0, opt_in_rate=0.5)


# ----------------------------------------------------------------------
# Closed loops
# ----------------------------------------------------------------------


@dataclass
class LoopLog:
    """What one closed-loop client saw."""

    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (request, estimates)
    poisoned: bool = False


def closed_loop(client, requests, deadline_ns: int, log: LoopLog) -> None:
    """Send the next request only after the previous reply, until the
    deadline; called once per slice with the same iterator and log."""
    while time.perf_counter_ns() < deadline_ns and not log.poisoned:
        request = next(requests)
        log.attempted += 1
        start = time.perf_counter_ns()
        try:
            response = client.release(request)
        except Exception as exc:  # a failed op is a result, not a crash
            log.errors.append(repr(exc))
            # a dead backend cannot serve later ops either
            log.poisoned = isinstance(exc, (ConnectionError, OSError))
            continue
        log.latencies_ns.append(time.perf_counter_ns() - start)
        if log.attempted % VERIFY_EVERY == 1:
            log.samples.append((request, response.estimates))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def verify_samples(table, samples, corrupt: bool = False) -> list[str]:
    """Re-run sampled requests in-process; replies must be bit-identical."""
    reference = ReleaseServer(table, n_shards=1)
    problems = []
    for i, (request, estimates) in enumerate(samples):
        expected = reference.handle(request).estimates
        if corrupt and i == 0:
            expected = expected + 1.0  # the contract test's hook
        if not _same_bits(estimates, expected):
            problems.append(
                f"release {request.mechanism} seed={request.seed} differs "
                "from the in-process reference"
            )
    return problems


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    metrics: dict = field(default_factory=dict)
    #: Metrics only this workload has (``stream_mixed``'s write side).
    extras: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


class TimedClient(OsdpClient):
    """An ``OsdpClient`` that times its acked write ops and counts releases."""

    def __init__(self, backend, analyst=None):
        super().__init__(backend, analyst)
        self.write_ns: list[int] = []
        self.releases = 0

    def append_records(self, records):
        start = time.perf_counter_ns()
        out = super().append_records(records)
        self.write_ns.append(time.perf_counter_ns() - start)
        return out

    def expire_prefix(self, n_records):
        start = time.perf_counter_ns()
        out = super().expire_prefix(n_records)
        self.write_ns.append(time.perf_counter_ns() - start)
        return out

    def release(self, *args, **kwargs):
        out = super().release(*args, **kwargs)
        self.releases += 1
        return out


class EventClock:
    """Event time: ``now`` is the timestamp of the last submitted event."""

    def __init__(self, start: float):
        self.t = float(start)

    def now(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


class StreamWriter:
    """The stream_mixed writer: a pipeline on event time over its own connection.

    Replays the seeded event log at full speed; the injected clock
    reads the last submitted event's timestamp, so flush, expiry and
    continual-release counts are a function of the events alone.
    """

    def __init__(self, backend, seed: int, n_events: int, start_ts: float):
        self.client = TimedClient(backend)
        self.events = wl.stream_event_columns(seed, n_events, start_ts)
        self._rows = telemetry_events(n_events, wl.stream_config(seed, start_ts))
        self._clock = EventClock(start_ts)
        self.stream = self.client.open_stream(
            window=wl.STREAM_WINDOW_S,
            max_events=wl.CHUNK_ROWS,
            release=wl.stream_release_schedule(seed),
            clock=self._clock,
        )

    def submit(self, n: int | None = None, deadline_ns: int | None = None) -> None:
        """Submit the next events: ``n`` of them, or until the deadline."""
        rows = self._rows if n is None else itertools.islice(self._rows, n)
        for row in rows:
            self._clock.t = row["ts"]
            self.stream.submit(row)
            if deadline_ns is not None and time.perf_counter_ns() >= deadline_ns:
                break

    def fill_window(self) -> None:
        """Stream past one retention window, so that what follows is the
        steady state (every further event ages one out)."""
        self.submit(n=wl.STREAM_FILL_EVENTS)
        del self.client.write_ns[:]

    def counts(self) -> dict:
        stream = self.stream
        return {
            "events": stream.buffer.events_in,
            "events_flushed": stream.buffer.events_flushed,
            "flushes": stream.buffer.flushes,
            "events_expired": stream.retention.events_expired,
            "expire_calls": stream.retention.expirations,
            "continual_releases": len(stream.continual.releases),
        }

    def close(self) -> None:
        self.client.close()


def _ms(ns: float) -> float:
    return ns / 1e6


def run_e2e(
    workload: wl.Workload,
    seed: int,
    seconds: float,
    *,
    setups: int = SETUP_REPEATS,
    corrupt: bool = False,
) -> RunResult:
    """One untraced end-to-end run of one workload."""
    result = RunResult(workload.name, int(seed), float(seconds))
    pin_generator(True)
    run_dir = OUT / f"run-{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    shm_before = shm_segments()
    # The stream writer continues the preloaded table's clock, so that
    # table is needed up front; the others build their reference only
    # after teardown (a fleet forks from this process, and a table held
    # here would be charged to the children's PSS).
    table = reference_table(workload) if workload.kind == "stream" else None

    setup_s, deployment, client, writer = [], None, None, None
    try:
        setup_probes = speed_probe()
        for i in range(setups):
            setup_dir = run_dir / f"setup{i}"
            setup_dir.mkdir(parents=True)
            began = time.perf_counter()
            deployment = deploy(workload, setup_dir)
            analyst = wl.STREAM_ANALYST if workload.kind == "stream" else None
            client = OsdpClient(deployment.backend(analyst), analyst)
            warmup = workload.warmup(seed)
            for request in warmup:
                client.release(request)
            if workload.kind == "stream":
                writer = StreamWriter(
                    deployment.backend(), seed,
                    wl.STREAM_FILL_EVENTS + int(seconds * STREAM_EVENTS_PER_S),
                    float(np.asarray(table["ts"])[-1]),
                )
                writer.fill_window()
            setup_s.append(time.perf_counter() - began)
            setup_probes += speed_probe()
            if i + 1 < setups:
                if writer is not None:
                    writer.close()
                client.close()
                client = writer = None
                result.problems += deployment.stop()
                deployment = None
        result.info["kernel_backend"] = deployment.ping["kernel_backend"]
        if workload.kind == "stream":
            samples, section = _measure_stream(
                workload, seed, seconds, deployment, client, writer, table,
                len(warmup), result,
            )
        else:
            samples, section = _measure_releases(
                workload, seed, seconds, deployment, client, result
            )
        result.metrics["server_pss_mb"] = float(np.median(section.pss_mb))
        setup = {"setup_s": float(np.median(setup_s))}
        result.info.update(
            section.info(),
            setup_s_samples=setup_s,
            setup_slowness=slowness(setup_probes),
            as_measured={**result.metrics, **result.extras, **setup},
        )
        slow = slowness(section.probes)
        result.metrics = {
            **at_reference_speed(result.metrics, slow),
            **at_reference_speed(setup, slowness(setup_probes)),
        }
        result.extras = at_reference_speed(result.extras, slow)
    finally:
        if writer is not None:
            writer.close()
        if client is not None:
            client.close()
        if deployment is not None:
            result.problems += deployment.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
        pin_generator(False)
    if run_dir.exists():
        result.problems.append(f"{run_dir} outlived the run")
    leaked = shm_segments() - shm_before
    if leaked:
        result.problems.append(f"/dev/shm segments outlived the run: {sorted(leaked)}")
    if table is None:
        table = reference_table(workload)
    mismatches = verify_samples(table, samples, corrupt)
    result.attempted += len(samples)
    result.failed += len(mismatches)
    result.problems += mismatches
    result.info["verified"] = len(samples)
    if set(result.metrics) != set(E2E_METRICS):
        raise RuntimeError(
            f"unplanned end-to-end metrics: {sorted(set(result.metrics) ^ set(E2E_METRICS))}"
        )
    return result


def _release_metrics(result: RunResult, latencies_ns, section: Section) -> None:
    """p50 over the section's latencies; p95 as the median of the
    slices' p95s, which a burst of host noise in a few slices leaves alone."""
    result.metrics["release_p50_ms"] = _ms(percentile(latencies_ns, 0.50))
    result.metrics["release_p95_ms"] = _ms(float(np.median(section.p95_ns)))
    result.metrics["release_rps"] = len(latencies_ns) / (section.measured_ns / 1e9)
    result.info["release_samples"] = len(latencies_ns)


def _measure_releases(workload, seed, seconds, deployment, client, result):
    """The measured section of the read workloads."""
    logs = [LoopLog() for _ in range(workload.clients)]
    loops = [
        functools.partial(closed_loop, client, workload.requests(seed, k), log=log)
        for k, log in enumerate(logs)
    ]
    section = run_section(deployment.pids(), seconds, loops, logs)
    latencies = [ns for log in logs for ns in log.latencies_ns]
    errors = [e for log in logs for e in log.errors]
    _release_metrics(result, latencies, section)
    result.metrics["server_cpu_ms_per_op"] = 1e3 * section.cpu_s / len(latencies)
    backend = client.backend
    result.info["server_counters"] = (
        backend.cluster_stats() if workload.kind == "cluster" else backend.stats()
    )

    result.attempted += sum(log.attempted for log in logs)
    result.failed += len(errors)
    result.problems += errors[:5]
    return [sample for log in logs for sample in log.samples], section


def _measure_stream(workload, seed, seconds, deployment, reader, writer, table, n_warm, result):
    """Writer pipeline beside the dashboard reader, then the end-state checks."""
    log = LoopLog()
    writer_errors: list[str] = []
    before = writer.counts()
    releases_before = writer.client.releases
    reads = workload.requests(seed, 0)

    def write(deadline_ns) -> None:
        try:
            if not writer_errors:
                writer.submit(deadline_ns=deadline_ns)
        except Exception as exc:
            writer_errors.append(repr(exc))

    read = functools.partial(closed_loop, reader, reads, log=log)
    section = run_section(deployment.pids(), seconds, [write, read], [log])
    # what the section did, before closing the stream flushes the rest
    flushed = writer.counts()["events_flushed"] - before["events_flushed"]
    write_ns = list(writer.client.write_ns)
    continual = writer.client.releases - releases_before
    try:
        writer.stream.close()
    except Exception as exc:
        writer_errors.append(repr(exc))
    after = writer.counts()
    _release_metrics(result, log.latencies_ns, section)
    result.extras = {
        "write_p50_ms": _ms(percentile(write_ns, 0.50)),
        "write_p95_ms": _ms(percentile(write_ns, 0.95)),
        "ingest_events_per_s": flushed / (section.measured_ns / 1e9),
    }
    result.info["write_samples"] = len(write_ns)
    ops = len(log.latencies_ns) + len(write_ns) + continual
    result.metrics["server_cpu_ms_per_op"] = 1e3 * section.cpu_s / ops
    result.info.update({k: after[k] - before[k] for k in after})
    result.attempted += log.attempted + len(write_ns) + continual
    result.failed += len(log.errors) + len(writer_errors)
    result.problems += (log.errors + writer_errors)[:5]

    # End state: the live columns are the preloaded table plus the
    # acked prefix of the event log, minus the expired prefix.
    flushed, expired = after["events_flushed"], after["events_expired"]
    expected = {
        name: np.concatenate(
            [np.asarray(table[name]), writer.events[name][:flushed]]
        )[expired:]
        for name in table.column_names
    }
    backend = reader.backend
    checks = {
        "n_records": (backend.ping()["n_records"], len(expected["ts"])),
        "region histogram": (
            reader.true_histogram(wl.REGION_12),
            np.bincount(expected["region"], minlength=12),
        ),
        "sensor histogram": (
            reader.true_histogram(wl.SENSOR_300),
            np.bincount(expected["sensor"], minlength=300),
        ),
        "opted-in region histogram": (
            backend.histogram_counts(wl.REGION_12, wl.OPT_IN)[1],
            np.bincount(expected["region"][expected["opt_in"]], minlength=12),
        ),
    }
    for what, (live, replayed) in checks.items():
        if not np.array_equal(np.asarray(live), np.asarray(replayed)):
            result.failed += 1
            result.problems.append(f"live {what} differs from the replayed event log")
    post = [
        (request, reader.release(request).estimates)
        for request in itertools.islice(workload.requests(seed, 97), 4)
    ]
    result.attempted += len(checks) + len(post)

    # Exactly-once charge: one ledger entry per acked release.
    acked = n_warm + len(log.latencies_ns) + writer.client.releases + len(post)
    ledger = reader.budget()
    if len(ledger["entries"]) != acked or not math.isclose(
        ledger["spent"], acked * wl.EPSILON, rel_tol=1e-9
    ):
        result.problems.append(
            f"ledger holds {len(ledger['entries'])} charges (spent "
            f"{ledger['spent']!r}) for {acked} acked releases"
        )
    # The post-section releases can be re-run: the table no longer moves.
    mismatches = verify_samples(ColumnarDatabase(expected), post)
    result.failed += len(mismatches)
    result.problems += mismatches
    return [], section
