"""The fleet launcher: topology validation, supervision, restarts.

Covers :mod:`repro.service.fleet` — the process tree behind
``repro.cli cluster``: topology files must describe a contiguous
tiling with unambiguous replica homes; the supervisor starts children
that report real addresses; a SIGKILL'd child is restarted **on its
recorded port** (clients keep their endpoint list); backoff pacing is
deterministic under a seeded rng.
"""

from __future__ import annotations

import os
import random
import signal
import time

import numpy as np
import pytest

from faults import loopback_skip_reason
from repro.api import RemoteBackend, RetryPolicy
from repro.service.fleet import (
    DEFAULT_RESTART_POLICY,
    FleetSupervisor,
    FleetTopology,
    TableSpec,
    build_table,
)

pytestmark = pytest.mark.faults

_SKIP_REASON = loopback_skip_reason()
if _SKIP_REASON:
    pytestmark = [pytest.mark.faults, pytest.mark.skip(reason=_SKIP_REASON)]


def _doc(records: int = 600, replicas: int = 1, wal_root=None) -> dict:
    half = records // 2

    def replica_docs(name):
        return [
            {
                "port": 0,
                **(
                    {"wal_dir": os.path.join(wal_root, f"{name}-r{i}")}
                    if wal_root
                    else {}
                ),
            }
            for i in range(replicas)
        ]

    return {
        "table": {"records": records, "seed": 3, "shards": 2},
        "ranges": [
            {"name": "lo", "lo": 0, "hi": half,
             "replicas": replica_docs("lo")},
            {"name": "hi", "lo": half, "hi": records,
             "replicas": replica_docs("hi")},
        ],
    }


FAST = dict(
    retry=RetryPolicy(
        max_attempts=5, base_delay=0.05, multiplier=1.0, jitter=0.0
    ),
    poll_interval=0.05,
    stable_after=0.5,
)


# ----------------------------------------------------------------------
# Topology files
# ----------------------------------------------------------------------


class TestTopology:
    def test_round_trips_a_valid_doc(self, tmp_path):
        import json

        path = tmp_path / "topology.json"
        path.write_text(json.dumps(_doc(records=600, replicas=2)))
        topology = FleetTopology.from_file(path)
        assert topology.range_order == ("lo", "hi")
        assert [ep.name for ep in topology.endpoints] == [
            "lo-r0", "lo-r1", "hi-r0", "hi-r1",
        ]
        assert topology.endpoints[0].shard_range == (0, 300)
        assert topology.endpoints[-1].shard_range == (300, 600)
        assert topology.table == TableSpec(records=600, seed=3, shards=2)

    def test_ranges_must_tile_contiguously(self):
        doc = _doc()
        doc["ranges"][1]["lo"] = 400  # gap after [0, 300)
        with pytest.raises(ValueError, match="expected 300"):
            FleetTopology.from_dict(doc)
        doc = _doc()
        doc["ranges"][1]["hi"] = 500  # short of the 600-record table
        with pytest.raises(ValueError, match="tile it exactly"):
            FleetTopology.from_dict(doc)
        doc = _doc()
        doc["ranges"][0]["hi"] = 0
        with pytest.raises(ValueError, match="empty"):
            FleetTopology.from_dict(doc)

    def test_replicas_required_and_homes_unique(self, tmp_path):
        doc = _doc()
        doc["ranges"][0]["replicas"] = []
        with pytest.raises(ValueError, match="no replicas"):
            FleetTopology.from_dict(doc)
        doc = _doc(replicas=2, wal_root=str(tmp_path))
        doc["ranges"][0]["replicas"][1]["wal_dir"] = doc["ranges"][0][
            "replicas"
        ][0]["wal_dir"]
        with pytest.raises(ValueError, match="share a wal_dir"):
            FleetTopology.from_dict(doc)
        doc = _doc(replicas=2)
        for rep in doc["ranges"][0]["replicas"]:
            rep["port"] = 7201
        with pytest.raises(ValueError, match="share an address"):
            FleetTopology.from_dict(doc)

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetTopology.from_dict({"table": {"records": 10}})


# ----------------------------------------------------------------------
# The table builder (the replication contract's floor)
# ----------------------------------------------------------------------


class TestBuildTable:
    def test_same_seed_is_bit_identical(self):
        a = build_table(records=500, seed=11)
        b = build_table(records=500, seed=11)
        assert sorted(a.column_names) == sorted(b.column_names)
        for name in a.column_names:
            assert np.array_equal(np.asarray(a[name]), np.asarray(b[name]))

    def test_different_seed_differs(self):
        a = build_table(records=500, seed=11)
        b = build_table(records=500, seed=12)
        assert not np.array_equal(np.asarray(a["age"]), np.asarray(b["age"]))


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_start_serve_drain(self):
        topology = FleetTopology.from_dict(_doc(records=600))
        with FleetSupervisor(topology, **FAST) as supervisor:
            supervisor.start()
            health = supervisor.health()
            assert set(health) == {"lo-r0", "hi-r0"}
            assert all(doc["ready"] for doc in health.values())
            endpoints = supervisor.endpoints()
            assert [ep.shard_range for ep in endpoints] == [
                (0, 300), (300, 600),
            ]
            with RemoteBackend(
                endpoints[0].host, endpoints[0].port, timeout=10.0
            ) as backend:
                assert backend.ping()["n_records"] == 300
            banner = supervisor.events()
            assert any("lo-r0 serving [0,300)" in line for line in banner)
            supervisor.drain(grace=5.0)
            assert not any(
                doc["alive"] or doc["ready"]
                for doc in supervisor.health().values()
            )

    def test_sigkilled_child_restarts_on_its_port(self):
        topology = FleetTopology.from_dict(_doc(records=600))
        with FleetSupervisor(topology, **FAST) as supervisor:
            supervisor.start()
            victim = supervisor.health()["lo-r0"]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30
            while True:
                doc = supervisor.health()["lo-r0"]
                if (
                    doc["ready"]
                    and doc["pid"] != victim["pid"]
                    and doc["restarts"] == 1
                ):
                    break
                assert time.monotonic() < deadline, "child never restarted"
                time.sleep(0.05)
            assert doc["address"] == victim["address"]  # same port
            with RemoteBackend(*doc["address"], timeout=10.0) as backend:
                assert backend.ping()["n_records"] == 300
            log = "\n".join(supervisor.events())
            assert "died" in log and "restart" in log

    def test_backoff_is_seed_deterministic(self):
        topology = FleetTopology.from_dict(_doc(records=600))
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.2, multiplier=2.0, jitter=0.25
        )
        a = FleetSupervisor(topology, retry=policy, rng=random.Random(7))
        b = FleetSupervisor(topology, retry=policy, rng=random.Random(7))
        pauses_a = [a.backoff(i) for i in range(6)]
        pauses_b = [b.backoff(i) for i in range(6)]
        assert pauses_a == pauses_b
        # The jitter actually draws from the rng (not a fixed pause).
        c = FleetSupervisor(topology, retry=policy, rng=random.Random(8))
        assert [c.backoff(i) for i in range(6)] != pauses_a

    def test_default_restart_policy_is_bounded(self):
        assert DEFAULT_RESTART_POLICY.max_attempts == 6
        assert DEFAULT_RESTART_POLICY.max_delay == 5.0
