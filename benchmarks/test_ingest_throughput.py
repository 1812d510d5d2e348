"""Group-commit ingest throughput: batched vs singleton appends.

The streaming tier's headline: one telemetry event per
``append_records`` pays a full RPC round trip plus one WAL fsync per
event; the :class:`~repro.ingest.buffer.IngestBuffer` group commit
amortizes both across the batch.  This bench streams the same
telemetry events both ways into a durable loopback
:class:`repro.service.rpc.RpcServer` (real socket, real fsync) while a
concurrent reader hammers ``true_histogram``, and reports events/sec
plus the speedup.

The tier-1 assertions are correctness-only: the reader never observes
a torn batch (every histogram totals a whole number of flushed
events), and the final column state is bit-identical to a cold batch
load of the same stream.  The bounded measurement of group commit is
``bench/``'s ``stream_mixed`` workload and its ``wal.*`` probes.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest
from conftest import write_result

from repro.api import OsdpClient
from repro.data.telemetry import (
    TelemetryConfig,
    telemetry_database,
    telemetry_events,
)
from repro.evaluation.runner import format_table
from repro.ingest import IngestBuffer
from repro.queries.histogram import IntegerBinning
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseServer
from repro.service.wal import WriteAheadLog

CFG = TelemetryConfig(seed=5)
N_SINGLETON = 300  # per-event fsyncs are slow; keep the slow lane short
N_BATCHED = 3000
BATCH_EVENTS = 256
BINNING_SPEC = IntegerBinning("region", 0, CFG.n_regions, 1).to_spec()


def _loopback_unavailable() -> str | None:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind(("127.0.0.1", 0))
        finally:
            probe.close()
    except OSError as exc:
        return f"loopback sockets unavailable: {exc}"
    return None


_SKIP = _loopback_unavailable()
pytestmark = pytest.mark.skipif(_SKIP is not None, reason=_SKIP or "")


def _stream(wal_dir, n_events: int, batched: bool) -> dict:
    """Stream ``n_events`` into a fresh durable server; time the writes."""
    rpc = RpcServer(
        ReleaseServer(telemetry_database(0, CFG)),
        wal=WriteAheadLog(wal_dir),
    ).start()
    try:
        with OsdpClient.connect(*rpc.address) as client:
            events = list(telemetry_events(n_events, CFG))
            histograms: list[np.ndarray] = []
            stop = threading.Event()

            def read_loop() -> None:
                with OsdpClient.connect(*rpc.address) as reader:
                    while not stop.is_set():
                        histograms.append(
                            np.asarray(reader.true_histogram(BINNING_SPEC))
                        )
                        time.sleep(0.002)

            reader_thread = threading.Thread(target=read_loop, daemon=True)
            reader_thread.start()
            start = time.perf_counter()
            if batched:
                with IngestBuffer(client, max_events=BATCH_EVENTS) as buffer:
                    buffer.extend(events)
                flushes = buffer.flushes
            else:
                for event in events:
                    client.append_records([event])
                flushes = n_events
            elapsed = time.perf_counter() - start
            stop.set()
            reader_thread.join(timeout=10)

            live = rpc.release_server.db
            live = (
                live.to_columnar() if hasattr(live, "to_columnar") else live
            )
            cold = telemetry_database(n_events, CFG)
            for name in cold.column_names:
                a, b = np.asarray(live[name]), np.asarray(cold[name])
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            return {
                "events": n_events,
                "elapsed_s": elapsed,
                "events_per_s": n_events / elapsed,
                "wal_entries": rpc.wal.last_seq,
                "flushes": flushes,
                "histograms": histograms,
            }
    finally:
        rpc.close()


_RESULTS: dict[str, dict] = {}


def _measured(tmp_path_factory) -> dict[str, dict]:
    if not _RESULTS:
        base = tmp_path_factory.mktemp("ingest-bench")
        _RESULTS["singleton"] = _stream(
            base / "singleton", N_SINGLETON, batched=False
        )
        _RESULTS["batched"] = _stream(
            base / "batched", N_BATCHED, batched=True
        )
    return _RESULTS


def test_streamed_state_bit_identical_with_concurrent_reads(
    tmp_path_factory,
):
    results = _measured(tmp_path_factory)
    # _stream already asserted final-state bit-identity; here pin that
    # the concurrent reader only ever saw whole group commits.
    batched = results["batched"]
    assert batched["wal_entries"] == batched["flushes"]
    totals = {int(h.sum()) for h in batched["histograms"]}
    whole_commits = {k * BATCH_EVENTS for k in range(N_BATCHED // BATCH_EVENTS + 1)}
    whole_commits.add(N_BATCHED)  # the final partial flush
    assert totals <= whole_commits, totals - whole_commits
    # The singleton lane logged one WAL entry per event.
    assert results["singleton"]["wal_entries"] == N_SINGLETON


def test_report_ingest_throughput(tmp_path_factory):
    results = _measured(tmp_path_factory)
    single, batched = results["singleton"], results["batched"]
    speedup = batched["events_per_s"] / single["events_per_s"]
    rows = [
        [
            "singleton append",
            single["events"],
            single["wal_entries"],
            f"{single['events_per_s']:.0f}",
        ],
        [
            f"group commit ({BATCH_EVENTS}/batch)",
            batched["events"],
            batched["wal_entries"],
            f"{batched['events_per_s']:.0f}",
        ],
        [
            "speedup",
            "",
            "",
            f"{speedup:.1f}x",
        ],
    ]
    write_result(
        "ingest_throughput",
        format_table(["mode", "events", "wal entries", "events/s"], rows),
    )
    assert speedup > 1.0  # the generous tier-1 sanity floor
