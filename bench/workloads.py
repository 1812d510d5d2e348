"""The five workloads: what each server holds and what each client sends.

Every request and event stream is derived from ``--seed`` through
:func:`stream_rng`; the servers receive only these generated inputs.
The *tables* the servers hold are fixed (``build_table`` with the CLI's
default ``--seed 0``) — they are deployment state, not traffic.

``BENCHMARK.json`` stores the one-sentence "why" of each workload; the
definitions below are what those sentences describe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.service.server import ReleaseRequest

#: Every server is metered: the budget is the product, and an
#: unmetered server hides the accountant.
BUDGET = 1e9
EPSILON = 1e-6

#: Events per group commit of the stream writer.
CHUNK_ROWS = 256


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """The generator of one named stream of one run."""
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


def _int_binning(attr: str, high: int, width: int = 1) -> dict:
    return {"kind": "int", "attr": attr, "low": 0, "high": high, "width": width}


AGE_10 = _int_binning("age", 100, 10)
AGE_20 = _int_binning("age", 100, 5)
AGE_100 = _int_binning("age", 100, 1)
AGE_CITY = {
    "kind": "prod",
    "first": AGE_10,
    "second": {"kind": "cat", "attr": "city", "domain": ["a", "b", "c", "d"]},
}
VALUE_4096 = _int_binning("value", 4096)
REGION_12 = _int_binning("region", 12)
SENSOR_300 = _int_binning("sensor", 300)

OPT_IN = {"kind": "opt_in"}

WARM_POLICIES = (
    OPT_IN,
    {"kind": "values", "attr": "city", "values": ["a"]},
    {
        "any": [
            {"attr": "age", "op": "<=", "value": 17},
            {"attr": "opt_in", "op": "==", "value": False},
        ]
    },
    {
        "kind": "mr",
        "policies": [
            OPT_IN,
            {"kind": "values", "attr": "age", "values": list(range(18))},
        ],
    },
)
WARM_PAIRS = tuple((b, p) for b in (AGE_10, AGE_20) for p in WARM_POLICIES)

#: The opt-in policy mixes sensitive and non-sensitive records in every
#: bin; the value policy makes the lower half of the domain
#: sensitive-only (the structure the hybrid mechanism exploits).
DPBENCH_POLICIES = (
    OPT_IN,
    {"kind": "predicate", "when": {"attr": "value", "op": "<", "value": 2048}},
)
DPBENCH_MECHANISMS = (
    "laplace",
    "osdp_laplace",
    "osdp_laplace_l1",
    "osdp_rr",
    "osdp_hybrid",
    "dawa",
    "dawaz",
)
DPBENCH_TRIALS = 10

STREAM_PAIRS = tuple(
    (b, p)
    for b in (REGION_12, SENSOR_300)
    for p in (OPT_IN, {"kind": "values", "attr": "region", "values": [0, 1, 2]})
)
STREAM_WINDOW_S = 20.0
#: Events that fill the retention window before anything is timed: the
#: log runs at 100 events per second of event time, so 2304 events
#: (nine group commits) are 23 s, just past the 20 s window.
STREAM_FILL_EVENTS = 9 * 256
STREAM_RELEASE_PERIOD_S = 1.0
STREAM_ANALYST = "dash"


def _request(mechanism, binning, policy, rng, n_trials=1) -> ReleaseRequest:
    return ReleaseRequest(
        mechanism=mechanism,
        epsilon=EPSILON,
        binning=binning,
        policy=policy,
        n_trials=n_trials,
        seed=int(rng.integers(2**31)),
    )


def warm_requests(seed: int, stream: int) -> Iterator[ReleaseRequest]:
    """Seeded draws over 8 cached (binning, policy) pairs: all cache hits."""
    rng = stream_rng(seed, stream)
    while True:
        binning, policy = WARM_PAIRS[int(rng.integers(len(WARM_PAIRS)))]
        yield _request("osdp_laplace_l1", binning, policy, rng)


def warm_warmup(seed: int) -> list[ReleaseRequest]:
    """Every pair 25 times, so each histogram is cached before timing."""
    rng = stream_rng(seed, 99)
    return [
        _request("osdp_laplace_l1", binning, policy, rng)
        for _ in range(25)
        for binning, policy in WARM_PAIRS
    ]


def _cold_policy(rng: np.random.Generator) -> dict:
    """One policy from the spec algebra; a random age set makes it unique."""
    ages = {
        "kind": "values",
        "attr": "age",
        "values": sorted(
            int(a) for a in rng.choice(100, int(rng.integers(5, 40)), replace=False)
        ),
    }
    form = int(rng.integers(4))
    if form == 0:
        return ages
    if form == 1:
        return {"kind": "mr", "policies": [ages, OPT_IN]}
    cities = {
        "kind": "values",
        "attr": "city",
        "values": sorted(
            str(c)
            for c in rng.choice(list("abcd"), int(rng.integers(1, 3)), replace=False)
        ),
    }
    if form == 2:
        return {"kind": "and", "policies": [ages, cities]}
    return {
        "kind": "predicate",
        "when": {
            "any": [
                {"attr": "age", "op": "in", "value": ages["values"]},
                {"attr": "age", "op": ">=", "value": int(rng.integers(60, 100))},
                {"attr": "opt_in", "op": "==", "value": False},
            ]
        },
    }


def cold_requests(seed: int, stream: int) -> Iterator[ReleaseRequest]:
    """Never-seen policies over two binnings: every request is a scan."""
    rng = stream_rng(seed, stream)
    seen: set[str] = set()
    i = 0
    while True:
        policy = _cold_policy(rng)
        key = json.dumps(policy, sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        binning = AGE_100 if i % 2 == 0 else AGE_CITY
        i += 1
        yield _request("osdp_laplace_l1", binning, policy, rng)


def cold_warmup(seed: int) -> list[ReleaseRequest]:
    requests = cold_requests(seed, 99)
    return [next(requests) for _ in range(10)]


def dpbench_requests(seed: int, stream: int) -> Iterator[ReleaseRequest]:
    """The paper's protocol: 4096 bins, 10 trials, every mechanism in turn."""
    rng = stream_rng(seed, stream)
    while True:
        for mechanism in DPBENCH_MECHANISMS:
            for policy in DPBENCH_POLICIES:
                yield _request(
                    mechanism, VALUE_4096, policy, rng, n_trials=DPBENCH_TRIALS
                )


def dpbench_warmup(seed: int) -> list[ReleaseRequest]:
    requests = dpbench_requests(seed, 99)
    return [next(requests) for _ in range(28)]


def stream_reads(seed: int, stream: int) -> Iterator[ReleaseRequest]:
    """The dashboard analyst: region and sensor histograms of the window."""
    rng = stream_rng(seed, stream)
    while True:
        binning, policy = STREAM_PAIRS[int(rng.integers(len(STREAM_PAIRS)))]
        yield _request("osdp_laplace_l1", binning, policy, rng)


def stream_warmup(seed: int) -> list[ReleaseRequest]:
    rng = stream_rng(seed, 99)
    return [
        _request("osdp_laplace_l1", binning, policy, rng)
        for _ in range(5)
        for binning, policy in STREAM_PAIRS
    ]


def stream_release_schedule(seed: int) -> dict:
    """The writer's continual-release schedule (``open_stream(release=)``)."""
    return {
        "mechanism": "osdp_laplace_l1",
        "epsilon": EPSILON,
        "binning": REGION_12,
        "policy": OPT_IN,
        "period": STREAM_RELEASE_PERIOD_S,
        "base_seed": int(seed),
    }


def stream_config(seed: int, start: float):
    """The writer's event log: seeded telemetry continuing at ``start``."""
    from repro.data.telemetry import TelemetryConfig

    return TelemetryConfig(seed=int(seed), start=float(start))


def stream_event_columns(seed: int, n_events: int, start: float) -> dict:
    """The event log as columns; ``telemetry_events`` of the same
    ``n_events`` and :func:`stream_config` yields it row by row."""
    from repro.data.telemetry import telemetry_database

    db = telemetry_database(n_events, stream_config(seed, start))
    return {name: np.asarray(db[name]) for name in db.column_names}


@dataclass(frozen=True)
class Workload:
    """One traffic shape against one deployment shape.

    ``kind`` picks the driver: ``serve`` (closed-loop releases against
    one ``repro.cli serve`` process), ``stream`` (a writer pipeline
    beside a reader) or ``cluster`` (a ``FleetSupervisor`` fleet behind
    a coordinating client).  ``table`` is ``build_table``'s arguments;
    ``serve`` the extra ``serve`` flags; ``trace_requests`` the length
    of the prefix the traced run replays.
    """

    name: str
    kind: str
    table: dict
    serve: tuple[str, ...]
    clients: int
    requests: Callable[[int, int], Iterator[ReleaseRequest]]
    warmup: Callable[[int], list]
    trace_requests: int

    def serve_argv(self, run_dir) -> list[str]:
        argv = [
            "--dataset", self.table["dataset"],
            "--records", str(self.table["records"]),
            "--budget", repr(BUDGET),
            *self.serve,
        ]
        if self.kind == "stream":
            argv += [
                "--quota", f"{STREAM_ANALYST}=1e8",
                "--budget-dir", str(run_dir / "budget"),
                "--wal-dir", str(run_dir / "wal"),
            ]
        return argv


SYNTHETIC_200K = {"dataset": "synthetic", "records": 200_000}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "warm_small", "serve", SYNTHETIC_200K, ("--shards", "1"),
            clients=2, requests=warm_requests, warmup=warm_warmup,
            trace_requests=1000,
        ),
        Workload(
            "cold_scan", "serve",
            {"dataset": "synthetic", "records": 1_000_000},
            ("--shards", "2", "--workers"),
            clients=1, requests=cold_requests, warmup=cold_warmup,
            trace_requests=130,
        ),
        Workload(
            "dpbench_mix", "serve", {"dataset": "searchlogs", "records": 0},
            ("--shards", "1"),
            clients=1, requests=dpbench_requests, warmup=dpbench_warmup,
            trace_requests=280,
        ),
        Workload(
            "stream_mixed", "stream",
            {"dataset": "telemetry", "records": 200_000}, ("--shards", "2"),
            clients=1, requests=stream_reads, warmup=stream_warmup,
            trace_requests=2048,  # events, after the window has filled
        ),
        Workload(
            "cluster_warm", "cluster", SYNTHETIC_200K, (),
            clients=1, requests=warm_requests, warmup=warm_warmup,
            trace_requests=1000,
        ),
    )
}
