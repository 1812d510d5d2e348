"""Cluster-vs-in-process overhead of the replicated serving tier.

The cluster tier's promise is that scale-out is a deployment decision:
a :class:`repro.api.ClusterBackend` over N endpoints returns releases
bit-identical to one server holding all the shards.  This bench prices
the coordinator's work — one ``hist_counts`` round trip per shard
range plus the merge — against the in-process path on the same data.

The assertion is correctness-only (bit-identical estimates); the
ratio is a record.  The bounded measurement of this path is
``bench/``'s ``cluster_warm`` workload.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest
from conftest import write_result

from repro.api import ClusterBackend, ClusterEndpoint, ReleaseRequest
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


def _half(db: ColumnarDatabase, lo: int, hi: int) -> ColumnarDatabase:
    return ColumnarDatabase(
        {
            name: np.asarray(db[name])[lo:hi].copy()
            for name in db.column_names
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
    local = ReleaseServer(db.shard(2))
    local_per_request, local_responses = _time_stream(local.handle)
    reason = _loopback_unavailable()
    if reason:
        return local_per_request, local_responses, None, None, reason
    mid = N_RECORDS // 2
    servers = [
        RpcServer(ReleaseServer(_half(db, 0, mid).shard(1))).start(),
        RpcServer(ReleaseServer(_half(db, mid, N_RECORDS).shard(1))).start(),
    ]
    try:
        endpoints = [
            ClusterEndpoint(*rpc.address, shard_range=i)
            for i, rpc in enumerate(servers)
        ]
        with ClusterBackend(endpoints) as backend:
            cluster_per_request, cluster_responses = _time_stream(
                backend.handle
            )
    finally:
        for rpc in servers:
            rpc.close()
    return (
        local_per_request,
        local_responses,
        cluster_per_request,
        cluster_responses,
        None,
    )


def _report(local_us: float, cluster_us: float | None) -> str:
    rows = [["in_process", f"{local_us:.1f}", "1.00"]]
    if cluster_us is not None:
        rows.append(
            [
                "cluster_2_endpoints",
                f"{cluster_us:.1f}",
                f"{cluster_us / local_us:.2f}",
            ]
        )
    table = format_table(
        ["path", "us_per_request", "vs_in_process"], rows
    )
    print("\n" + table)
    write_result("cluster_overhead", table)
    return table


def test_cluster_responses_bit_identical_warm_stream():
    local_s, local_responses, cluster_s, cluster_responses, reason = (
        _measure()
    )
    _report(local_s * 1e6, None if cluster_s is None else cluster_s * 1e6)
    if reason:
        pytest.skip(reason)
    for got, want in zip(cluster_responses, local_responses):
        assert np.array_equal(got.estimates, want.estimates)
