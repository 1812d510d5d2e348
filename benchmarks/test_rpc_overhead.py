"""Remote-vs-in-process overhead of the release service.

The API redesign's promise is that where a release runs is a
deployment decision; this bench prices it.  One loopback
:class:`repro.service.rpc.RpcServer` and one in-process
:class:`ReleaseServer` over the same data serve the same warm-cache
request stream, and the table reports per-request latency plus the
remote/in-process ratio (the socket tax: framing, two syscalls, one
JSON header and one raw estimate buffer each way).

The assertions are correctness-only (bit-identical responses); the
ratio is a record.  The bounded measurement of this path is ``bench/``'s
``warm_small`` workload and its ``backends.remote_handle_us`` /
``backends.inprocess_handle_us`` probes.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest
from conftest import write_result

from repro.api import OsdpClient, ReleaseRequest
from repro.data.columnar import ColumnarDatabase
from repro.evaluation.runner import format_table
from repro.queries.histogram import IntegerBinning
from repro.service import ReleaseServer
from repro.service.rpc import RpcServer

N_RECORDS = 200_000
N_REQUESTS = 50

BINNING_SPEC = IntegerBinning("age", 0, 100, 10).to_spec()
POLICY_SPEC = {"kind": "opt_in", "attr": "opt_in"}


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


def _database() -> ColumnarDatabase:
    rng = np.random.default_rng(11)
    return ColumnarDatabase(
        {
            "age": rng.integers(0, 100, N_RECORDS),
            "opt_in": rng.integers(0, 2, N_RECORDS).astype(bool),
        }
    )


def _requests() -> list[ReleaseRequest]:
    return [
        ReleaseRequest(
            "osdp_laplace_l1", 0.1, BINNING_SPEC, POLICY_SPEC,
            n_trials=1, seed=s,
        )
        for s in range(N_REQUESTS)
    ]


def _time_stream(serve) -> tuple[float, list]:
    requests = _requests()
    serve(requests[0])  # warm the caches out of the timed region
    start = time.perf_counter()
    responses = [serve(r) for r in requests]
    elapsed = time.perf_counter() - start
    return elapsed / len(requests), responses


def _measure():
    db = _database()
    local = ReleaseServer(db.shard(1))
    local_per_request, local_responses = _time_stream(local.handle)
    reason = _loopback_unavailable()
    if reason:
        return local_per_request, local_responses, None, None, reason
    with RpcServer(ReleaseServer(_database().shard(1))).start() as rpc:
        with OsdpClient.connect(*rpc.address) as client:
            remote_per_request, remote_responses = _time_stream(
                client.release
            )
    return (
        local_per_request,
        local_responses,
        remote_per_request,
        remote_responses,
        None,
    )


def _report(local_us: float, remote_us: float | None) -> str:
    rows = [["in_process", f"{local_us:.1f}", "1.00"]]
    if remote_us is not None:
        rows.append(
            ["remote_loopback", f"{remote_us:.1f}", f"{remote_us / local_us:.2f}"]
        )
    table = format_table(
        ["path", "us_per_request", "vs_in_process"], rows
    )
    print("\n" + table)
    write_result("rpc_overhead", table)
    return table


def test_remote_responses_bit_identical_warm_stream():
    local_s, local_responses, remote_s, remote_responses, reason = _measure()
    _report(local_s * 1e6, None if remote_s is None else remote_s * 1e6)
    if reason:
        pytest.skip(reason)
    for got, want in zip(remote_responses, local_responses):
        assert np.array_equal(got.estimates, want.estimates)
        assert got.cache_hit == want.cache_hit
