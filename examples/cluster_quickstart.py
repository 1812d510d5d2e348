"""Cluster quickstart: durable replicated serving that survives a kill.

The serving story of the paper's curator/analyst split, scaled out:

1. launch a supervised fleet — two shard ranges x two replicas, each
   endpoint with its own write-ahead log,
2. run replicated writes (``append_records`` / ``expire_prefix``):
   one replica logs each write, its peer takes the logged entry,
3. SIGKILL one replica mid-service and watch writes keep succeeding,
4. let the supervisor restart it (WAL replay) and resync it back in,
5. verify every read along the way is **bit-identical** to a single
   server that took the same writes.

Run:  PYTHONPATH=src python examples/cluster_quickstart.py
"""

import os
import signal
import tempfile
import time

import numpy as np

from repro.api import ClusterBackend, RemoteBackend, RetryPolicy
from repro.queries.histogram import IntegerBinning
from repro.service.fleet import FleetSupervisor, FleetTopology, build_table
from repro.service.server import ReleaseServer

RECORDS, SEED = 2_000, 3
BINNING_SPEC = IntegerBinning("age", 0, 100, 10).to_spec()


def topology(wal_root: str) -> FleetTopology:
    half = RECORDS // 2
    return FleetTopology.from_dict(
        {
            "table": {"records": RECORDS, "seed": SEED, "shards": 2},
            "ranges": [
                {
                    "name": name, "lo": lo, "hi": hi,
                    "replicas": [
                        {"port": 0,
                         "wal_dir": os.path.join(wal_root, f"{name}-r{r}")}
                        for r in range(2)
                    ],
                }
                for name, lo, hi in (("lo", 0, half), ("hi", half, RECORDS))
            ],
        }
    )


def new_rows(lo: int, hi: int) -> list[dict]:
    return [
        {"age": int(v % 100), "city": "x", "opt_in": bool(v % 2)}
        for v in range(lo, hi)
    ]


def check_identical(backend: ClusterBackend, mirror: ReleaseServer) -> None:
    ours = np.asarray(backend.true_histogram(BINNING_SPEC))
    reference = np.asarray(mirror.true_histogram(BINNING_SPEC))
    assert np.array_equal(ours, reference), (ours, reference)
    print(f"   cluster histogram == single-server histogram: {ours.sum():g} "
          "records accounted for, bit-identical")


def main() -> None:
    # The bit-identity reference: one unreplicated server over the
    # same table, taking the same writes.
    mirror = ReleaseServer(build_table(records=RECORDS, seed=SEED).shard(2))

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as wal_root:
        supervisor = FleetSupervisor(
            topology(wal_root),
            retry=RetryPolicy(
                max_attempts=5, base_delay=0.1, multiplier=1.0, jitter=0.0
            ),
            poll_interval=0.05,
            stable_after=1.0,
        )
        with supervisor:
            print("1. launching the fleet (2 ranges x 2 replicas, WAL each)")
            supervisor.start()
            for line in supervisor.events():
                print(f"   {line}")

            with ClusterBackend(
                supervisor.endpoints(),
                retry=RetryPolicy(
                    max_attempts=4, base_delay=0.05, jitter=0.0
                ),
                timeout=10.0,
            ) as backend:
                print("2. replicated writes: one replica logs, its peer takes the entry")
                backend.append_records(new_rows(0, 50))
                mirror.append_records(new_rows(0, 50))
                backend.expire_prefix(20)
                mirror.expire_prefix(20)
                check_identical(backend, mirror)

                print("3. SIGKILL one replica of the tail range")
                victim = supervisor.health()["hi-r0"]
                os.kill(victim["pid"], signal.SIGKILL)
                # Writes keep landing on the surviving replica; the
                # victim is marked stale the moment it misses one.
                backend.append_records(new_rows(50, 80))
                mirror.append_records(new_rows(50, 80))
                print(f"   write acked with hi-r0 dead; stale replicas: "
                      f"{list(backend.stale()) or 'none yet'}")
                check_identical(backend, mirror)

                print("4. the supervisor restarts it; resync rejoins it")
                deadline = time.monotonic() + 60
                while True:
                    doc = supervisor.health()["hi-r0"]
                    if doc["ready"] and doc["restarts"] >= 1:
                        break
                    assert time.monotonic() < deadline, "no restart"
                    time.sleep(0.05)
                for line in supervisor.events():
                    print(f"   {line}")
                rejoined = backend.resync()
                print(f"   resync verdicts: {rejoined}")
                assert rejoined and all(
                    verdict in ("caught_up", "base_reset")
                    for verdict in rejoined.values()
                ), rejoined

                # The recovered replica serves the full acked history:
                # WAL replay restored what it had, resync the rest.
                host, port = doc["address"]
                with RemoteBackend(host, port, timeout=10.0) as direct:
                    status = direct.wal_status()
                    print(f"   hi-r0 after WAL replay + resync: "
                          f"last_seq={status['last_seq']}, "
                          f"n_records={status['n_records']}")
                backend.append_records(new_rows(80, 90))
                mirror.append_records(new_rows(80, 90))

                print("5. final bit-identity across the whole history")
                check_identical(backend, mirror)

            print("   draining the fleet...")
        print("done: every read was bit-identical to a single server, "
              "through a kill, a restart, and a resync.")


if __name__ == "__main__":
    main()
