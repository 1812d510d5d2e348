"""Per-layer attribution: the traced replay and the fixed-input probes.

A traced run of one workload does four things, all in this process:

1. replays a deterministic prefix of the workload's generated stream
   against the same stack ``serve``/the fleet assembles, built
   in-process (``RpcServer(...).start()`` on loopback, ``ShardWorkerPool``,
   ``WriteAheadLog``, ``DurableAccountant``) — once untraced, to time
   it and read the servers' public counters (the *live* metrics), and
   once with :func:`instrument`'s wrappers around the layers' public
   callables, to collect spans;
2. runs the same prefix through an in-process backend (the other end
   of the request, and the reference its replies are verified against);
3. runs the fixed-input probes (:func:`probes`) of layers whose cost is
   a function of a size, not of the traffic — a 10x4096 release, a
   charge on a 10 k-entry ledger, a 256-event WAL append;
4. reduces all of it to the per-layer metrics ``BENCHMARK.json``
   declares.  A metric whose layer the replay never entered reads 0.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.api.wire as wire_mod
import repro.mechanisms.dawa.dawa as dawa_mod
import repro.mechanisms.kernels as kernels_mod
import repro.service.rpc as rpc_mod
import repro.service.server as server_mod
from repro.api.backends import InProcessBackend, RemoteBackend, ShardedBackend
from repro.api.client import OsdpClient
from repro.api.cluster import ClusterBackend, ClusterEndpoint
from repro.cli import build_parser
from repro.core.accountant import PrivacyAccountant
from repro.core.policy import NON_SENSITIVE
from repro.core.policy_language import policy_from_spec
from repro.data.columnar import ColumnarDatabase
from repro.data.sharding import ShardedColumnarDatabase
from repro.data.store import ColumnStore
from repro.data.workers import ShardWorkerPool
from repro.ingest.buffer import IngestBuffer
from repro.ingest.continual import ContinualReleaseScheduler
from repro.ingest.pipeline import StreamingPipeline
from repro.ingest.retention import RetentionDriver
from repro.mechanisms import batch_sampling
from repro.mechanisms.osdp_rr import release_probability
from repro.queries.histogram import (
    HistogramInput,
    HistogramQuery,
    binning_from_spec,
)
from repro.service.budget import ChargeJournal, DurableAccountant
from repro.service.fleet import build_table
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseServer, default_registry
from repro.service.wal import MemoryWal, WriteAheadLog

from bench import harness, workloads as wl
from bench.trace import Recorder, self_times, write_spans

#: Events between two dashboard reads in the single-threaded stream replay.
EVENTS_PER_READ = 8
#: Requests of the prefix the in-process end is timed over (a cold scan
#: costs 60 ms there).
INPROCESS_REQUESTS = 40

#: Span-name prefix -> the module (layer) the time belongs to.
LAYERS = {
    "backends": "api.backends",
    "wire": "api.wire",
    "rpc": "service.rpc",
    "server": "service.server",
    "policy_language": "core.policy_language",
    "policy": "core.policy",
    "histogram": "queries.histogram",
    "kernels": "mechanisms.kernels",
    "workers": "data.workers",
    "store": "data.store",
    "sharding": "data.sharding",
    "mechanisms": "mechanisms",
    "accountant": "core.accountant",
    "budget": "service.budget",
    "wal": "service.wal",
    "ingest": "ingest",
    "retention": "ingest",
    "continual": "ingest",
    "cluster": "api.cluster",
}




def _sources() -> dict[str, str]:
    """Where each per-layer metric comes from.

    ``span``: the traced replay's spans and the counters taken at the
    same boundaries; ``live``: the untraced replay's servers, read over
    their public ``stats``/``transport_stats``/``wal_status`` ops (and
    the pool's and coordinator's public counters); ``stack``: timed on
    the workload's own stack outside the replay; ``probe``: a fixed-
    input call of the layer's public function, the same in every run.
    """
    groups = {
        "span": """
            backends.remote_handle_us wire.encode_request_us
            wire.decode_request_us wire.request_bytes wire.encode_response_us
            wire.decode_response_us wire.response_bytes wire.array_bytes_share
            rpc.serve_message_us rpc.socket_residual_us server.handle_self_us
            server.histogram_input_hit_us server.histogram_input_miss_ms
            policy_language.from_spec_us histogram.binning_from_spec_us
            workers.fanout_ms workers.pool_start_ms store.share_ms
            ingest.buffer_append_us ingest.flush_ms retention.tick_us
            continual.release_ms cluster.handle_us cluster.hist_counts_rtt_us
            cluster.coordinator_self_us""",
        "live": """
            rpc.server_op_p50_us rpc.overload_rejections rpc.idempotent_replays
            rpc.read_timeouts server.hist_hit_ratio server.evictions_per_kreq
            workers.request_bytes workers.startup_bytes workers.counts_hit_ratio
            wal.compactions wal.entries_per_kevent ingest.events_per_flush
            retention.expire_calls_per_kevent cluster.range_calls_per_request
            cluster.failovers""",
        "stack": """
            backends.inprocess_handle_us store.attach_ms fleet.start_ms
            trace.overhead_ratio""",
        "probe": """
            policy.evaluate_batch_ms histogram.bin_indices_ms
            histogram.from_columnar_ms columnar.fused_counts_ms
            kernels.int_bin_pair_ms kernels.hist_pair_ms
            kernels.laplace_transform_us kernels.binomial_lookup_us
            sharding.append_ms sharding.expire_us
            batch_sampling.laplace_rows_us batch_sampling.one_sided_rows_us
            batch_sampling.binomial_support_rows_us dawa.partition_ms
            accountant.charge_us accountant.charge_at_10k_us
            accountant.remaining_at_10k_us budget.durable_charge_us
            budget.journal_bytes_per_charge budget.compact_ms budget.recover_ms
            wal.log_append_us wal.log_expire_us wal.bytes_per_event
            wal.compact_ms wal.recover_ms"""
        + " ".join(
            f" mechanisms.{name}.release_batch_us" for name in wl.DPBENCH_MECHANISMS
        ),
    }
    return {
        name: source for source, names in groups.items() for name in names.split()
    }


#: Every per-layer metric a traced run emits -> its source.
SOURCES = _sources()


# ----------------------------------------------------------------------
# Instrumentation: which public callables become spans
# ----------------------------------------------------------------------


def _count_message(recorder, span, encoded, args) -> None:
    """Bytes per message, split into the JSON header and the array frames."""
    kind = "request" if span.name == "wire.encode_request" else "response"
    header = 4 + int.from_bytes(encoded[:4], "big")
    recorder.count(f"wire.{kind}s")
    recorder.count(f"wire.{kind}_bytes", len(encoded))
    recorder.count(f"wire.{kind}_array_bytes", len(encoded) - header)


def _hit_or_miss(recorder, span, result, args) -> None:
    span.name += "_hit" if result[1] else "_miss"


def _released(recorder, span, issued, args) -> None:
    if issued:
        span.name = "continual.release"


def instrument(rec: Recorder) -> None:
    """Wrap the layers' public callables, each in the namespace that uses it."""
    # api.backends / api.wire, client side: RemoteBackend imports the
    # codec from repro.api.wire at call time.
    rec.wrap(RemoteBackend, "handle", "backends.remote_handle")
    rec.wrap(RemoteBackend, "append_records", "backends.remote_append")
    rec.wrap(RemoteBackend, "expire_prefix", "backends.remote_expire")
    rec.wrap(RemoteBackend, "histogram_counts", "cluster.hist_counts_rtt")
    rec.wrap(wire_mod, "request_to_wire",
             ("wire.request_to_wire", "wire.response_to_wire"))
    rec.wrap(wire_mod, "encode_message",
             ("wire.encode_request", "wire.encode_response"), _count_message)
    rec.wrap(wire_mod, "send_message", "rpc.client_send")
    rec.wrap(wire_mod, "recv_frame_prefix", "rpc.client_wait")
    rec.wrap(wire_mod, "recv_message_body", "wire.recv_response")
    rec.wrap(wire_mod, "response_from_wire", "wire.response_from_wire")
    # service.rpc binds its own copies of the codec names.  Its idle
    # recv_frame_prefix (waiting for the next request) stays unwrapped.
    rec.wrap(rpc_mod, "recv_message_body", "wire.recv_request")
    rec.wrap(rpc_mod, "request_from_wire", "wire.request_from_wire")
    rec.wrap(rpc_mod, "response_to_wire", "wire.response_to_wire")
    rec.wrap(rpc_mod, "send_message", "rpc.server_send")
    rec.wrap(RpcServer, "serve_message", "rpc.serve_message")
    # service.server and what it calls into
    rec.wrap(ReleaseServer, "handle", "server.handle")
    rec.wrap(ReleaseServer, "histogram_input", "server.histogram_input", _hit_or_miss)
    rec.wrap(ReleaseServer, "shard_masks", "policy.shard_masks")
    rec.wrap(ReleaseServer, "shard_bin_indices", "histogram.shard_bin_indices")
    rec.wrap(server_mod, "counts_from_mask", "kernels.hist_pair")
    rec.wrap(server_mod, "policy_from_spec", "policy_language.from_spec")
    rec.wrap(server_mod, "binning_from_spec", "histogram.binning_from_spec")
    rec.wrap(ShardWorkerPool, "__init__", "workers.pool_start")
    rec.wrap(ShardWorkerPool, "map_resident", "workers.fanout")
    rec.wrap(ColumnarDatabase, "share", "store.share")
    rec.wrap(ShardedColumnarDatabase, "append_records", "sharding.append")
    rec.wrap(ShardedColumnarDatabase, "expire_prefix", "sharding.expire")
    registry = default_registry()
    for name in registry.names():
        rec.wrap(type(registry.create(name, 1.0)), "release_batch",
                 f"mechanisms.{name}.release_batch")
    # the budget
    rec.wrap(PrivacyAccountant, "charge", "accountant.charge")
    rec.wrap(PrivacyAccountant, "spent", "accountant.spent")
    rec.wrap(DurableAccountant, "charge", "budget.durable_charge")
    rec.wrap(ChargeJournal, "append_entry", "budget.journal_append")
    rec.wrap(ChargeJournal, "compact", "budget.compact")
    # the write path
    rec.wrap(MemoryWal, "log", "wal.log")
    rec.wrap(MemoryWal, "compact", "wal.compact")
    rec.wrap(StreamingPipeline, "submit", "ingest.submit")
    rec.wrap(IngestBuffer, "append", "ingest.buffer_append")
    rec.wrap(IngestBuffer, "flush", "ingest.flush")
    rec.wrap(RetentionDriver, "tick", "retention.tick")
    rec.wrap(ContinualReleaseScheduler, "tick", "continual.tick", _released)
    rec.wrap(ClusterBackend, "handle", "cluster.handle")


# ----------------------------------------------------------------------
# The in-process stacks
# ----------------------------------------------------------------------


class Stack:
    """One workload's deployment assembled in this process."""

    def __init__(self, workload: wl.Workload, run_dir: Path):
        self.workload = workload
        self.servers: list[RpcServer] = []
        self.closers: list = []
        table = harness.reference_table(workload)
        if workload.kind == "cluster":
            half = len(table) // 2
            endpoints = []
            for name, lo, hi in (("lo", 0, half), ("hi", half, len(table))):
                rpc = RpcServer(
                    ReleaseServer(table.slice_records(lo, hi).shard(1))
                ).start()
                self.servers.append(rpc)
                endpoints.append(
                    ClusterEndpoint(*rpc.address, shard_range=(lo, hi), name=name)
                )
            self.backend = None
            self.client_backend = ClusterBackend(
                endpoints, accountant=PrivacyAccountant(wl.BUDGET)
            )
        else:
            # The flags of the serve subprocess, assembled as cmd_serve does.
            args = build_parser().parse_args(
                ["serve", "--port", "0"] + workload.serve_argv(run_dir)
            )
            quotas = {
                name: float(eps)
                for name, _, eps in (q.partition("=") for q in args.quota or ())
            }
            if args.budget_dir:
                accountant = DurableAccountant(
                    args.budget_dir, total_epsilon=args.budget, quotas=quotas
                )
                self.closers.append(accountant.close)
            else:
                accountant = PrivacyAccountant(args.budget, quotas=quotas or None)
            self.backend = ShardedBackend(
                table, n_shards=args.shards, workers=args.workers,
                accountant=accountant,
            )
            self.closers.append(self.backend.close)
            wal = None
            if args.wal_dir:
                wal = WriteAheadLog(args.wal_dir)
                wal.recover(self.backend.server)
            self.servers.append(RpcServer(self.backend.server, wal=wal).start())
            analyst = wl.STREAM_ANALYST if workload.kind == "stream" else None
            self.client_backend = RemoteBackend(
                *self.servers[0].address, analyst=analyst
            )
        self.client = OsdpClient(self.client_backend)

    def close(self) -> None:
        self.client.close()
        for rpc in self.servers:
            rpc.close()
        for closer in self.closers:
            closer()

    def live(self) -> dict:
        """The servers' public counters, read over their own RPC ops."""
        stats = defaultdict(int)
        transport = defaultdict(int)
        op_p50 = 0.0
        for rpc in self.servers:
            with RemoteBackend(*rpc.address) as probe:
                for key, value in probe.stats().items():
                    stats[key] += value
                doc = probe.transport_stats()
                wal = probe.wal_status()
            latency = doc.pop("op_latency")
            for key, value in doc.items():
                transport[key] += value
            for op in ("release", "hist_counts"):
                if op in latency:
                    op_p50 = max(op_p50, latency[op]["p50"])
        lookups = stats["hist_hits"] + stats["hist_misses"]
        out = {
            "rpc.server_op_p50_us": op_p50 * 1e6,
            "rpc.overload_rejections": transport["overload_rejections"],
            "rpc.idempotent_replays": transport["idempotent_replays"],
            "rpc.read_timeouts": transport["read_timeouts"],
            "server.hist_hit_ratio": stats["hist_hits"] / lookups,
            "server.evictions_per_kreq": 1e3 * stats["evictions"] / lookups,
        }
        if self.workload.kind == "stream":
            out["wal.compactions"] = wal["snapshot_seq"] // self.servers[0].wal.snapshot_every
            out["wal.last_seq"] = wal["last_seq"]
        if self.workload.kind == "cluster":
            cluster = self.client_backend.cluster_stats()
            out["cluster.range_calls_per_request"] = (
                cluster["range_calls"] / cluster["requests"]
            )
            out["cluster.failovers"] = cluster["failovers"]
        pool = getattr(self.backend, "pool", None)
        if pool is not None:
            cache = pool.worker_cache_stats()
            hits = sum(c["counts_hits"] for c in cache)
            misses = sum(c["counts_misses"] for c in cache)
            out["workers.counts_hit_ratio"] = hits / (hits + misses)
            out["workers.request_bytes"] = (
                pool.stats.request_bytes / pool.stats.requests
            )
            out["workers.startup_bytes"] = pool.stats.startup_bytes
        return out


# ----------------------------------------------------------------------
# The replay
# ----------------------------------------------------------------------


@dataclass
class Replay:
    elapsed_s: float = 0.0
    requests: int = 0
    samples: list = field(default_factory=list)  # (request, estimates)
    info: dict = field(default_factory=dict)


def replay(stack: Stack, seed: int, rec: Recorder | None) -> Replay:
    """Drive the workload's deterministic prefix, one request at a time."""
    workload, client = stack.workload, stack.client
    out = Replay()
    for request in workload.warmup(seed):
        client.release(request)

    def tag(req) -> None:
        if rec is not None:
            rec.req = req

    if workload.kind != "stream":
        requests = list(
            itertools.islice(workload.requests(seed, 0), workload.trace_requests)
        )
        began = time.perf_counter()
        for i, request in enumerate(requests):
            tag(i)
            estimates = client.release(request).estimates
            if i % harness.VERIFY_EVERY == 0:
                out.samples.append((request, estimates))
        out.elapsed_s = time.perf_counter() - began
        out.requests = len(requests)
        tag(None)
        return out

    n_events = workload.trace_requests
    start_ts = float(np.asarray(harness.reference_table(workload)["ts"])[-1])
    writer = harness.StreamWriter(
        RemoteBackend(*stack.servers[0].address), seed,
        wl.STREAM_FILL_EVENTS + n_events, start_ts,
    )
    writer.fill_window()
    before = writer.counts()
    reads = workload.requests(seed, 0)
    blocks = n_events // EVENTS_PER_READ
    began = time.perf_counter()
    for block in range(blocks):
        tag(f"w{block}")
        writer.submit(n=EVENTS_PER_READ)
        tag(f"r{block}")
        client.release(next(reads))
    tag("close")
    writer.stream.close()
    out.elapsed_s = time.perf_counter() - began
    tag(None)
    out.requests = 2 * blocks
    after = writer.counts()
    out.info = {key: after[key] - before[key] for key in after}
    writer.close()
    return out


# ----------------------------------------------------------------------
# Fixed-input probes
# ----------------------------------------------------------------------


def _timed(fn, repeats: int) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - began)
    return float(np.median(samples))


def _probe_counting() -> dict:
    """One cold_scan shard's work: mask, bin, count over half its table."""
    records = wl.WORKLOADS["cold_scan"].table["records"] // 2
    db = build_table("synthetic", records, seed=0, opt_in_rate=0.5)
    requests = list(itertools.islice(wl.cold_requests(0, 0), 4))
    policies = [policy_from_spec(r.policy) for r in requests]
    age, product = binning_from_spec(wl.AGE_100), binning_from_spec(wl.AGE_CITY)
    ns = policies[0].evaluate_batch(db) == NON_SENSITIVE
    indices = product.bin_indices(db)
    values = np.asarray(db["age"])
    return {
        "policy.evaluate_batch_ms": 1e3 * float(np.mean(
            [_timed(lambda p=p: p.evaluate_batch(db), 3) for p in policies]
        )),
        "histogram.bin_indices_ms": 1e3 * float(np.mean(
            [_timed(lambda b=b: b.bin_indices(db), 3) for b in (age, product)]
        )),
        "histogram.from_columnar_ms": 1e3 * _timed(
            lambda: HistogramInput.from_columnar(db, HistogramQuery(age), policies[0]), 3
        ),
        "columnar.fused_counts_ms": 1e3 * _timed(lambda: db.fused_counts(age, ns), 5),
        "kernels.int_bin_pair_ms": 1e3 * _timed(
            lambda: kernels_mod.int_bin_pair(values, 0, 1, 100, 100, ns), 5
        ),
        "kernels.hist_pair_ms": 1e3 * _timed(
            lambda: kernels_mod.hist_pair(indices, ns, product.n_bins), 5
        ),
    }


def _probe_mechanisms() -> dict:
    """Every registry mechanism and the samplers under it, all at 10x4096."""
    table = build_table("searchlogs", 0, seed=0, opt_in_rate=0.5)
    hist = HistogramInput.from_columnar(
        table, HistogramQuery(binning_from_spec(wl.VALUE_4096)),
        policy_from_spec(wl.OPT_IN),
    )
    trials = wl.DPBENCH_TRIALS
    out = {}
    # Spans around the kernels the samplers call, taken while they run.
    rec = Recorder()
    rec.wrap(kernels_mod, "laplace_transform", "kernels.laplace_transform")
    rec.wrap(kernels_mod, "binomial_lookup", "kernels.binomial_lookup")
    rec.wrap(dawa_mod, "optimal_partition_batch", "dawa.partition")
    try:
        registry = default_registry()
        for name in wl.DPBENCH_MECHANISMS:
            mechanism = registry.create(name, wl.EPSILON)
            rng = np.random.default_rng(0)
            out[f"mechanisms.{name}.release_batch_us"] = 1e6 * _timed(
                lambda: mechanism.release_batch(hist, rng, trials), 7
            )
        rng = np.random.default_rng(0)
        base = np.asarray(hist.x, dtype=float)
        support, counts = hist.ns_support_sorted
        out["batch_sampling.laplace_rows_us"] = 1e6 * _timed(
            lambda: batch_sampling.laplace_rows(rng, 1.0 / wl.EPSILON, base, trials), 15
        )
        out["batch_sampling.one_sided_rows_us"] = 1e6 * _timed(
            lambda: batch_sampling.one_sided_rows(rng, 1.0 / wl.EPSILON, base, trials), 15
        )
        keep = release_probability(wl.EPSILON)
        out["batch_sampling.binomial_support_rows_us"] = 1e6 * _timed(
            lambda: batch_sampling.binomial_support_rows(rng, counts, keep, trials), 15
        )
    finally:
        rec.unwrap_all()
    durations = defaultdict(list)
    for span in rec.spans:
        durations[span.name].append(span.end_ns - span.start_ns)
    for metric, name, scale in (
        ("kernels.laplace_transform_us", "kernels.laplace_transform", 1e3),
        ("kernels.binomial_lookup_us", "kernels.binomial_lookup", 1e3),
        ("dawa.partition_ms", "dawa.partition", 1e6),
    ):
        out[metric] = float(np.median(durations[name])) / scale
    return out


def _probe_accountant() -> dict:
    """A charge on an empty ledger, then charge and read at 10 k entries."""
    policy = policy_from_spec(wl.OPT_IN)
    accountant = PrivacyAccountant(wl.BUDGET)
    first = _timed(lambda: accountant.charge(policy, wl.EPSILON), 100)
    while len(accountant.ledger) < 10_000:
        accountant.charge(policy, wl.EPSILON)
    return {
        "accountant.charge_us": 1e6 * first,
        "accountant.charge_at_10k_us": 1e6 * _timed(
            lambda: accountant.charge(policy, wl.EPSILON), 100
        ),
        "accountant.remaining_at_10k_us": 1e6 * _timed(
            lambda: accountant.remaining, 100
        ),
    }


def _probe_budget(scratch: Path) -> dict:
    """The durable ledger: fsync'd charge, compaction and recovery at 10 k."""
    from repro.core.accountant import LedgerEntry

    policy = policy_from_spec(wl.OPT_IN)
    out = {}
    with DurableAccountant(scratch / "charge", wl.BUDGET, snapshot_every=10**9) as acct:
        out["budget.durable_charge_us"] = 1e6 * _timed(
            lambda: acct.charge(policy, wl.EPSILON), 200
        )
        log = Path(acct.journal.directory) / ChargeJournal.LOG_NAME
        out["budget.journal_bytes_per_charge"] = log.stat().st_size / 200
    ledger_dir = scratch / "ledger"
    with ChargeJournal(ledger_dir, snapshot_every=10**9) as journal:
        entry = LedgerEntry(policy=policy, epsilon=wl.EPSILON, label="probe")
        for _ in range(10_000):
            journal.append_entry(entry)
        out["budget.compact_ms"] = 1e3 * _timed(journal.compact, 1)
    began = time.perf_counter()
    DurableAccountant(ledger_dir, wl.BUDGET).close()
    out["budget.recover_ms"] = 1e3 * (time.perf_counter() - began)
    return out


def _probe_writes(scratch: Path) -> dict:
    """The stream's write path at its own sizes: 200 k telemetry rows in
    two shards, 256-event chunks."""
    table = build_table("telemetry", 200_000, seed=0, opt_in_rate=0.5)
    start_ts = float(np.asarray(table["ts"])[-1])
    events = wl.stream_event_columns(0, 64 * wl.CHUNK_ROWS, start_ts)
    chunks = [
        {
            "columns": {
                name: column[i : i + wl.CHUNK_ROWS] for name, column in events.items()
            }
        }
        for i in range(0, len(events["ts"]), wl.CHUNK_ROWS)
    ]
    server = ReleaseServer(table.shard(2))
    feed = iter(chunks)
    out = {
        "sharding.append_ms": 1e3 * _timed(
            lambda: server.db.append_records(ColumnarDatabase(next(feed)["columns"])), 32
        ),
        "sharding.expire_us": 1e6 * _timed(
            lambda: server.db.expire_prefix(wl.CHUNK_ROWS), 32
        ),
    }
    wal_dir = scratch / "wal"
    with WriteAheadLog(wal_dir, snapshot_every=10**9) as wal:
        feed = iter(chunks)
        out["wal.log_append_us"] = 1e6 * _timed(
            lambda: wal.log("append_records", next(feed)), 32
        )
        log = Path(wal.directory) / WriteAheadLog.LOG_NAME
        out["wal.bytes_per_event"] = log.stat().st_size / (32 * wl.CHUNK_ROWS)
        out["wal.log_expire_us"] = 1e6 * _timed(
            lambda: wal.log("expire_prefix", {"n_records": wl.CHUNK_ROWS}), 32
        )
        out["wal.compact_ms"] = 1e3 * _timed(lambda: wal.compact(server), 3)
        for chunk in chunks[:32]:
            wal.log("append_records", chunk)
    fresh = ReleaseServer(table.shard(2))
    with WriteAheadLog(wal_dir) as wal:
        began = time.perf_counter()
        wal.recover(fresh)
        out["wal.recover_ms"] = 1e3 * (time.perf_counter() - began)
    return out


def probes(scratch: Path) -> dict:
    """Every fixed-input layer probe; ``scratch`` holds their files."""
    return {
        **_probe_counting(),
        **_probe_mechanisms(),
        **_probe_accountant(),
        **_probe_budget(scratch),
        **_probe_writes(scratch),
    }


# ----------------------------------------------------------------------
# Reduction to the declared metrics
# ----------------------------------------------------------------------


@dataclass
class TraceResult:
    workload: str
    seed: int
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: (layer, total self ms, share of the traced total), largest first
    table: list = field(default_factory=list)
    total_ms: float = 0.0
    requests: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _span_metrics(spans, counters, n_requests: int):
    """Per-layer metrics, the layer table, the traced total in ms and the
    self time in ms per span name, of one traced replay."""
    own = self_times(spans)
    self_by_name = defaultdict(int)
    durations = defaultdict(list)
    by_layer = defaultdict(int)
    total_ns = 0
    assembly = defaultdict(list)
    for span in spans:
        if span.req is None:
            # warm-up and stack assembly: timed, not attributed
            assembly[span.name].append(span.end_ns - span.start_ns)
            continue
        durations[span.name].append(span.end_ns - span.start_ns)
        self_by_name[span.name] += own[span.id]
        by_layer[LAYERS[span.name.split(".")[0]]] += own[span.id]
        if span.parent is None:
            total_ns += span.end_ns - span.start_ns

    def per_request_us(*names) -> float:
        return sum(self_by_name[n] for n in names) / n_requests / 1e3

    def mean_us(name) -> float:
        return float(np.mean(durations[name])) / 1e3 if durations[name] else 0.0

    def mean_self_us(name) -> float:
        count = len(durations[name])
        return self_by_name[name] / count / 1e3 if count else 0.0

    def assembly_ms(name) -> float:
        return float(np.mean(assembly[name])) / 1e6 if assembly[name] else 0.0

    responses = counters["wire.response_bytes"]
    metrics = {
        "backends.remote_handle_us": mean_us("backends.remote_handle"),
        "wire.encode_request_us": per_request_us("wire.request_to_wire", "wire.encode_request"),
        "wire.decode_request_us": per_request_us("wire.recv_request", "wire.request_from_wire"),
        "wire.encode_response_us": per_request_us("wire.response_to_wire", "wire.encode_response"),
        "wire.decode_response_us": per_request_us("wire.recv_response", "wire.response_from_wire"),
        "wire.request_bytes": counters["wire.request_bytes"] / max(1, counters["wire.requests"]),
        "wire.response_bytes": responses / max(1, counters["wire.responses"]),
        "wire.array_bytes_share": counters["wire.response_array_bytes"] / max(1, responses),
        "rpc.serve_message_us": per_request_us("rpc.serve_message"),
        "rpc.socket_residual_us": per_request_us("rpc.client_send", "rpc.client_wait", "rpc.server_send"),
        "server.handle_self_us": mean_self_us("server.handle"),
        "server.histogram_input_hit_us": mean_us("server.histogram_input_hit"),
        "server.histogram_input_miss_ms": mean_us("server.histogram_input_miss") / 1e3,
        "policy_language.from_spec_us": mean_us("policy_language.from_spec"),
        "histogram.binning_from_spec_us": mean_us("histogram.binning_from_spec"),
        "workers.fanout_ms": mean_us("workers.fanout") / 1e3,
        "workers.pool_start_ms": assembly_ms("workers.pool_start"),
        "store.share_ms": assembly_ms("store.share"),
        "ingest.buffer_append_us": mean_self_us("ingest.buffer_append"),
        "ingest.flush_ms": mean_us("ingest.flush") / 1e3,
        "retention.tick_us": mean_us("retention.tick"),
        "continual.release_ms": mean_us("continual.release") / 1e3,
        "cluster.handle_us": mean_us("cluster.handle"),
        "cluster.hist_counts_rtt_us": mean_us("cluster.hist_counts_rtt"),
        "cluster.coordinator_self_us": mean_self_us("cluster.handle"),
    }
    table = sorted(
        ((layer, ns / 1e6, ns / max(1, total_ns)) for layer, ns in by_layer.items()),
        key=lambda row: -row[1],
    )
    by_name = {name: ns / 1e6 for name, ns in sorted(self_by_name.items())}
    return metrics, table, total_ns / 1e6, by_name


def run_traced(workload: wl.Workload, seed: int, out_dir: Path) -> TraceResult:
    """The traced run of one workload (see the module docstring)."""
    result = TraceResult(workload.name, int(seed))
    run_dir = out_dir / f"trace-{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    shm_before = harness.shm_segments()
    # 0 stands for "this workload's replay never entered that layer".
    metrics = dict.fromkeys(SOURCES, 0.0)
    try:
        # 1. untraced, before and after the traced pass (their mean
        # cancels drift): the time to beat, and the live counters
        def untraced(name: str) -> tuple[Replay, dict]:
            (run_dir / name).mkdir(parents=True)
            stack = Stack(workload, run_dir / name)
            try:
                return replay(stack, seed, None), stack.live()
            finally:
                stack.close()

        plain, live = untraced("before")
        # 2. traced: the same prefix on a fresh stack, spans on
        (run_dir / "traced").mkdir()
        rec = Recorder()
        instrument(rec)
        try:
            stack = Stack(workload, run_dir / "traced")
            try:
                traced = replay(stack, seed, rec)
                pool = getattr(stack.backend, "pool", None)
                if pool is not None:
                    stores = [shard.store for shard in stack.backend.server.db.shards]
                    metrics["store.attach_ms"] = 1e3 * float(np.mean([
                        _timed(lambda s=s: ColumnStore.attach(s.descriptor()).close(), 5)
                        for s in stores
                    ]))
            finally:
                stack.close()
        finally:
            rec.unwrap_all()
        untraced_s = (plain.elapsed_s + untraced("after")[0].elapsed_s) / 2
        if workload.kind == "cluster":
            began = time.perf_counter()
            fleet = harness.FleetDeployment(workload, run_dir)
            metrics["fleet.start_ms"] = 1e3 * (time.perf_counter() - began)
            result.problems += fleet.stop()
        if workload.kind == "stream":
            info = plain.info
            metrics["ingest.events_per_flush"] = info["events_flushed"] / info["flushes"]
            metrics["retention.expire_calls_per_kevent"] = (
                1e3 * info["expire_calls"] / info["events"]
            )
            live["wal.entries_per_kevent"] = 1e3 * live.pop("wal.last_seq") / info["events"]
            result.info.update(info)
        # 3. the other end of the request, and the reference
        table = harness.reference_table(workload)
        inprocess_us = 0.0
        if workload.kind != "stream":
            with InProcessBackend(table, accountant=PrivacyAccountant(wl.BUDGET)) as backend:
                requests = list(
                    itertools.islice(workload.requests(seed, 0), INPROCESS_REQUESTS)
                )
                began = time.perf_counter()
                for request in requests:
                    backend.handle(request)
                inprocess_us = 1e6 * (time.perf_counter() - began) / len(requests)
        samples = plain.samples + traced.samples
        mismatches = harness.verify_samples(table, samples)
        # 4. probes and reduction
        (run_dir / "probes").mkdir()
        metrics.update(probes(run_dir / "probes"))
        span_metrics, result.table, result.total_ms, by_name = _span_metrics(
            rec.spans, rec.counters, traced.requests
        )
        result.info["self_ms_by_span"] = by_name
        metrics.update(span_metrics)
        metrics.update(live)
        metrics["backends.inprocess_handle_us"] = inprocess_us
        metrics["trace.overhead_ratio"] = traced.elapsed_s / untraced_s
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    leaked = harness.shm_segments() - shm_before
    if leaked:
        result.problems.append(f"/dev/shm segments outlived the run: {sorted(leaked)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_spans(out_dir / f"trace-{workload.name}.jsonl", rec.spans)
    if set(metrics) != set(SOURCES):
        raise RuntimeError(
            f"unplanned per-layer metrics: {sorted(set(metrics) ^ set(SOURCES))}"
        )
    result.metrics = metrics
    result.requests = traced.requests
    result.attempted = plain.requests + traced.requests + len(samples)
    result.failed = len(mismatches)
    result.problems += mismatches
    result.info.update(
        kernel_backend=kernels_mod.active_backend(),
        spans=len(rec.spans),
        verified=len(samples),
        traced_s=traced.elapsed_s,
        untraced_s=untraced_s,
        counters=dict(rec.counters),
    )
    return result


def format_table(result: TraceResult) -> str:
    """Layer self times of the traced replay; they sum to its total."""
    lines = [
        f"  layer self times over {result.requests} traced requests "
        f"({result.total_ms:.1f} ms in all, "
        f"{1e3 * result.total_ms / result.requests:.1f} us per request)"
    ]
    for layer, ms, share in result.table:
        lines.append(
            f"    {layer:<22} {ms:>10.2f} ms {100 * share:>6.1f} %"
            f" {1e3 * ms / result.requests:>10.1f} us/req"
        )
    covered = sum(ms for _, ms, _ in result.table)
    lines.append(f"    {'sum':<22} {covered:>10.2f} ms"
                 f" {100 * covered / result.total_ms:>6.1f} %")
    return "\n".join(lines)
