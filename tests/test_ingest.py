"""The streaming ingestion tier, end to end.

Four layers under test, all driven by the injectable clock
(``tests/clocks.FakeClock``) so every watermark, retention window and
release period is an instant, exact assertion:

* **IngestBuffer** — size/age watermark group commits, the bounded
  queue's :class:`IngestBackpressure`, and the ack contract (a failed
  flush keeps every staged event; ``on_flush`` fires only on success).
* **RetentionDriver / ContinualReleaseScheduler** — expire-then-forget
  retry safety, one release per elapsed period, deterministic seeds.
* **Bit-identity** — a streamed telemetry ingest (with and without
  retention) lands the exact column state of a cold batch load of the
  same final window, on the in-process and socket paths alike.
* **The group commit over the wire** (``rpc`` lane) — each buffer flush
  is one ``append_records`` call and one fsync'd WAL entry, and
  (``faults`` lane) SIGKILL of a replica mid-stream loses no acked
  events: WAL replay plus resync restore the victim bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from clocks import FakeClock
from faults import EndpointProcess, loopback_skip_reason, slice_db
from repro.api import (
    ClusterBackend,
    ClusterEndpoint,
    OsdpClient,
    RemoteBackend,
    RetryPolicy,
)
from repro.data.columnar import ColumnarDatabase
from repro.data.telemetry import (
    TelemetryConfig,
    telemetry_database,
    telemetry_events,
)
from repro.ingest import (
    ContinualReleaseScheduler,
    IngestBackpressure,
    IngestBuffer,
    RetentionDriver,
)
from repro.queries.histogram import IntegerBinning
from repro.service.rpc import RpcServer
from repro.service.server import ReleaseServer
from repro.service.wal import WriteAheadLog

_SOCKET_SKIP = loopback_skip_reason()
needs_sockets = pytest.mark.skipif(
    _SOCKET_SKIP is not None, reason=_SOCKET_SKIP or ""
)

CFG = TelemetryConfig(seed=3)
REGION_BINNING = IntegerBinning("region", 0, CFG.n_regions, 1)
OPT_OUT_POLICY = {"attr": "opt_in", "op": "==", "value": False}


class RecordingTarget:
    """An append/expire sink that remembers everything, or fails on cue."""

    def __init__(self):
        self.appends: list = []
        self.expired: list[int] = []
        self.fail = False

    def append_records(self, records) -> int:
        if self.fail:
            raise ConnectionError("target down")
        self.appends.append(records)
        return 0

    def expire_prefix(self, n_records: int) -> list[int]:
        if self.fail:
            raise ConnectionError("target down")
        self.expired.append(n_records)
        return [0]


def _columnar(db) -> ColumnarDatabase:
    return db.to_columnar() if hasattr(db, "to_columnar") else db


def _live_columns(client) -> ColumnarDatabase:
    return _columnar(client.backend.server.db)


def _assert_same_columns(live, cold) -> None:
    assert list(live.column_names) == list(cold.column_names)
    for name in cold.column_names:
        a, b = np.asarray(live[name]), np.asarray(cold[name])
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# ----------------------------------------------------------------------
# IngestBuffer: watermarks, backpressure, the ack contract
# ----------------------------------------------------------------------


class TestIngestBuffer:
    def test_size_watermark_flushes_one_group(self):
        target = RecordingTarget()
        buffer = IngestBuffer(target, max_events=4, clock=FakeClock())
        reports = [buffer.append({"v": i, "opt_in": True}) for i in range(4)]
        assert reports[:3] == [None, None, None]
        assert reports[3] == {"events": 4, "pending": 0}
        # The four events went as one append (one group commit).
        assert len(target.appends) == 1
        assert buffer.events_flushed == 4 and buffer.flushes == 1

    def test_age_watermark_fires_on_tick(self):
        clock = FakeClock()
        target = RecordingTarget()
        buffer = IngestBuffer(
            target, max_events=100, max_age=5.0, clock=clock
        )
        buffer.append({"v": 1, "opt_in": True})
        clock.advance(4.9)
        assert buffer.tick() is None  # not old enough yet
        clock.advance(0.1)
        report = buffer.tick()
        assert report == {"events": 1, "pending": 0}
        # The age clock restarts with the next staged event.
        buffer.append({"v": 2, "opt_in": False})
        assert buffer.tick() is None

    def test_backpressure_when_full_and_target_down(self):
        target = RecordingTarget()
        buffer = IngestBuffer(
            target, max_events=2, max_pending=2, clock=FakeClock()
        )
        target.fail = True
        buffer.append({"v": 0})
        with pytest.raises(ConnectionError):
            buffer.append({"v": 1})  # hit max_events; the flush fails
        assert buffer.pending == 2  # ...but the events stay staged
        with pytest.raises(IngestBackpressure, match="full"):
            buffer.append({"v": 2})  # now at max_pending: backpressure
        assert buffer.pending == 2  # the refused event was not staged
        # Once the target drains, the same append goes through.
        target.fail = False
        buffer.append({"v": 2})
        assert buffer.events_flushed == 2 and buffer.pending == 1

    def test_failed_flush_keeps_events_and_skips_on_flush(self):
        acked: list = []
        target = RecordingTarget()
        buffer = IngestBuffer(
            target, max_events=10, clock=FakeClock(), on_flush=acked.extend
        )
        buffer.append({"v": 1})
        target.fail = True
        with pytest.raises(ConnectionError):
            buffer.flush()
        assert buffer.pending == 1 and not acked  # nothing acked
        target.fail = False
        buffer.flush()
        assert buffer.pending == 0 and acked == [{"v": 1}]

    def test_fixed_width_batches_columnarize_ragged_stay_rows(self):
        target = RecordingTarget()
        buffer = IngestBuffer(target, max_events=2, clock=FakeClock())
        buffer.extend([{"v": 1, "opt_in": True}, {"v": 2, "opt_in": False}])
        assert isinstance(target.appends[0], ColumnarDatabase)
        buffer.extend([{"v": 1, "opt_in": True}, {"v": "NA", "opt_in": False}])
        assert isinstance(target.appends[1], list)  # object dtype: raw rows

    def test_watermark_validation(self):
        with pytest.raises(ValueError, match="max_events"):
            IngestBuffer(RecordingTarget(), max_events=0)
        with pytest.raises(ValueError, match="max_pending"):
            IngestBuffer(RecordingTarget(), max_events=8, max_pending=4)
        with pytest.raises(ValueError, match="max_age"):
            IngestBuffer(RecordingTarget(), max_age=0.0)


# ----------------------------------------------------------------------
# RetentionDriver: sliding-window expiry from durable timestamps
# ----------------------------------------------------------------------


class TestRetentionDriver:
    def test_expires_exactly_the_aged_prefix(self):
        clock = FakeClock(start=100.0)
        target = RecordingTarget()
        driver = RetentionDriver(target, window=10.0, clock=clock)
        driver.observe([85.0, 88.0, 92.0, 99.0])
        assert driver.due() == 2  # 85 and 88 are older than 100 - 10
        assert driver.tick() == 2
        assert target.expired == [2]
        assert driver.retained == 2
        assert driver.tick() == 0  # idempotent until time moves
        clock.advance(3.0)
        assert driver.tick() == 1  # now 92 has aged out too

    def test_failed_expire_is_retried_with_the_same_prefix(self):
        clock = FakeClock(start=50.0)
        target = RecordingTarget()
        driver = RetentionDriver(target, window=5.0, clock=clock)
        driver.observe([40.0, 41.0, 49.0])
        target.fail = True
        with pytest.raises(ConnectionError):
            driver.tick()
        # Expire-then-forget: the failure kept the timestamps, so the
        # next tick retries the identical prefix — never a double trim.
        assert driver.retained == 3
        target.fail = False
        assert driver.tick() == 2
        assert target.expired == [2]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RetentionDriver(RecordingTarget(), window=0.0)


# ----------------------------------------------------------------------
# ContinualReleaseScheduler: one release per elapsed period
# ----------------------------------------------------------------------


class TestContinualRelease:
    def _scheduler(self, client, clock, **overrides):
        kwargs = dict(
            mechanism="osdp_laplace_l1",
            epsilon=0.25,
            binning=REGION_BINNING,
            policy=OPT_OUT_POLICY,
            period=10.0,
            base_seed=7,
            clock=clock,
        )
        kwargs.update(overrides)
        return ContinualReleaseScheduler(client, **kwargs)

    def test_first_tick_releases_then_one_per_period(self):
        clock = FakeClock()
        with OsdpClient.in_process(telemetry_database(500, CFG)) as client:
            sched = self._scheduler(client, clock)
            assert len(sched.tick()) == 1  # the opening publication
            assert sched.tick() == []  # nothing due yet
            clock.advance(10.0)
            assert len(sched.tick()) == 1
            # A clock jump of 3 periods yields 3 catch-up releases.
            clock.advance(30.0)
            assert len(sched.tick()) == 3
            assert len(sched.releases) == 5
            assert sched.epsilon_charged == pytest.approx(5 * 0.25)

    def test_schedule_replay_is_bit_identical(self):
        def run() -> list[np.ndarray]:
            clock = FakeClock()
            with OsdpClient.in_process(telemetry_database(500, CFG)) as c:
                sched = self._scheduler(c, clock)
                sched.tick()
                clock.advance(25.0)
                sched.tick()
                return [r.estimates.copy() for r in sched.releases]

        first, second = run(), run()
        assert len(first) == 3
        for a, b in zip(first, second):
            assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_releases_charge_the_servers_accountant(self):
        from repro.core.accountant import PrivacyAccountant

        clock = FakeClock()
        with OsdpClient.in_process(
            telemetry_database(500, CFG), accountant=PrivacyAccountant(1.0)
        ) as client:
            sched = self._scheduler(client, clock, epsilon=0.4)
            sched.tick()
            clock.advance(10.0)
            sched.tick()
            assert sched.epsilon_charged == pytest.approx(0.8)
            assert client.backend.server.accountant.remaining == (
                pytest.approx(0.2)
            )


# ----------------------------------------------------------------------
# The assembled pipeline: streamed state == cold batch load
# ----------------------------------------------------------------------


class TestStreamingPipeline:
    def test_streamed_ingest_bit_identical_to_cold_load(self):
        n = 1500
        with OsdpClient.in_process(telemetry_database(0, CFG)) as client:
            with client.open_stream(
                max_events=128, clock=FakeClock()
            ) as stream:
                for event in telemetry_events(n, CFG):
                    stream.submit(event)
            _assert_same_columns(_live_columns(client), telemetry_database(n, CFG))
            assert stream.buffer.events_flushed == n

    def test_sliding_window_matches_cold_load_of_surviving_suffix(self):
        events = list(telemetry_events(1200, CFG))
        clock = FakeClock()
        with OsdpClient.in_process(telemetry_database(0, CFG)) as client:
            with client.open_stream(
                window=4.0, max_events=100, clock=clock
            ) as stream:
                for event in events:
                    stream.submit(event)
                    clock.set(event["ts"])  # the stream tracks real time
            n_live = len(client.backend.server.db)
            cutoff = clock.now() - 4.0
            survivors = [e for e in events if e["ts"] >= cutoff]
            assert n_live == len(survivors)
            assert stream.retention.events_expired == 1200 - len(survivors)
            # The trimmed state is the cold load of the suffix, bit for bit.
            full = telemetry_database(1200, CFG)
            suffix = full.slice_records(1200 - len(survivors), 1200)
            _assert_same_columns(_live_columns(client), suffix)

    def test_pipeline_composes_retention_and_continual_release(self):
        clock = FakeClock()
        with OsdpClient.in_process(telemetry_database(0, CFG)) as client:
            with client.open_stream(
                window=6.0,
                max_events=64,
                release=dict(
                    mechanism="osdp_laplace_l1",
                    epsilon=0.5,
                    binning=REGION_BINNING,
                    policy=OPT_OUT_POLICY,
                    period=3.0,
                    base_seed=11,
                ),
                clock=clock,
            ) as stream:
                for event in telemetry_events(900, CFG):
                    stream.submit(event)
                    clock.set(event["ts"])
            assert stream.continual.releases  # the schedule actually ran
            periods_elapsed = int(clock.now() // 3.0)
            assert len(stream.continual.releases) == 1 + periods_elapsed
            assert stream.continual.epsilon_charged == pytest.approx(
                0.5 * len(stream.continual.releases)
            )
            assert stream.retention.events_expired > 0


# ----------------------------------------------------------------------
# The group commit over the wire (rpc lane)
# ----------------------------------------------------------------------


@needs_sockets
@pytest.mark.rpc
class TestRemoteGroupCommit:
    def test_each_flush_is_one_durable_wal_entry(self, tmp_path):
        """The one group-commit layer, over a socket: every
        `IngestBuffer` flush is one `append_records` call, hence one
        fsync'd WAL entry — durable from its ack, replayable alone."""
        n = 300
        server = ReleaseServer(telemetry_database(0, CFG))
        with RpcServer(server, wal=WriteAheadLog(tmp_path)).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                with client.open_stream(
                    max_events=128, clock=FakeClock()
                ) as stream:
                    for event in telemetry_events(n, CFG):
                        stream.submit(event)
                assert stream.buffer.flushes == 3  # 128 + 128 + 44
                assert client.backend.wal_status()["last_seq"] == 3
            _assert_same_columns(
                _columnar(server.db), telemetry_database(n, CFG)
            )
        fresh = ReleaseServer(telemetry_database(0, CFG))
        with WriteAheadLog(tmp_path) as wal2:
            assert wal2.recover(fresh)["replayed"] == 3
        _assert_same_columns(_columnar(fresh.db), telemetry_database(n, CFG))


# ----------------------------------------------------------------------
# Faults lane: SIGKILL of a replica mid-stream loses no acked events
# ----------------------------------------------------------------------


@needs_sockets
@pytest.mark.faults
class TestStreamFaults:
    def test_sigkill_replica_mid_stream_keeps_every_acked_event(
        self, tmp_path
    ):
        """Acceptance: a replica dies (real SIGKILL) mid-stream, right
        after logging a group commit and before its peer takes the
        entry.  Every flush is still acked — the next ones through the
        surviving replica — streaming continues, and after restart +
        resync the victim serves every acked event, bit-identical to a
        mirror that applied exactly the acked batches."""
        n_base, seed = 400, 0
        procs = [
            EndpointProcess(
                n_base, seed, 0, 200, wal_dir=str(tmp_path / f"r{i}")
            )
            for i in range(2)
        ]
        endpoints = [
            ClusterEndpoint(p.host, p.port, shard_range="all", name=f"r{i}")
            for i, p in enumerate(procs)
        ]
        mirror = ReleaseServer(slice_db(n_base, seed, 0, 200).shard(2))
        binning_spec = IntegerBinning("age", 0, 100, 10).to_spec()
        events = [
            {"age": int(v % 100), "opt_in": bool(v % 2)} for v in range(200)
        ]
        acked_batches: list[list] = []
        try:
            with ClusterBackend(
                endpoints,
                retry=RetryPolicy(max_attempts=3, base_delay=0.02, jitter=0.0),
                timeout=10.0,
            ) as backend:
                victim_key = endpoints[0].key
                original = backend._ship
                kill_at_flush = 3
                buffer = IngestBuffer(
                    backend,
                    max_events=25,
                    clock=FakeClock(),
                    on_flush=acked_batches.append,
                )

                def kill_then_ship(leader, follower, head, entries=()):
                    if (
                        leader.key == victim_key
                        and buffer.flushes + 1 == kill_at_flush
                        and procs[0].process.is_alive()
                    ):
                        procs[0].kill()  # dies holding the logged entry
                    return original(leader, follower, head, entries)

                backend._ship = kill_then_ship
                for event in events:
                    buffer.append(event)
                buffer.close()
                backend._ship = original

                # Every flush was acked despite the mid-stream death.
                assert buffer.events_flushed == len(events)
                assert len(acked_batches) == 8
                assert list(backend.stale()) == [victim_key]
                for batch in acked_batches:
                    mirror.append_records(batch)
                assert np.array_equal(
                    np.asarray(backend.true_histogram(binning_spec)),
                    np.asarray(mirror.true_histogram(binning_spec)),
                )

                # The victim restarts on its old port: WAL replay plus
                # resync return it to the exact acked watermark.
                procs[0].restart()
                assert backend.resync() == {victim_key: "caught_up"}
                assert backend.stale() == {}
                with RemoteBackend(
                    procs[0].host, procs[0].port, timeout=10.0
                ) as direct:
                    assert direct.wal_status()["last_seq"] == len(
                        acked_batches
                    )
                    assert np.array_equal(
                        np.asarray(direct.true_histogram(binning_spec)),
                        np.asarray(mirror.true_histogram(binning_spec)),
                    )
                # ...and the revived replica takes new group commits.
                buffer.extend(
                    {"age": 50, "opt_in": True} for _ in range(25)
                )
                mirror.append_records(
                    [{"age": 50, "opt_in": True} for _ in range(25)]
                )
                assert np.array_equal(
                    np.asarray(backend.true_histogram(binning_spec)),
                    np.asarray(mirror.true_histogram(binning_spec)),
                )
        finally:
            for proc in procs:
                proc.close()
