"""Tests for the experiment CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.epsilon == [1.0, 0.5, 0.1]

    def test_ngrams_n_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ngrams", "--n", "9"])

    def test_dpbench_args(self):
        args = build_parser().parse_args(
            ["dpbench", "--datasets", "adult", "--ratios", "0.5", "--trials", "1"]
        )
        assert args.datasets == ["adult"]
        assert args.ratios == [0.5]


class TestExecution:
    def test_table1_runs_and_prints(self, capsys):
        assert main(["table1", "--records", "2000", "--epsilon", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "analytic %" in out
        assert "63" in out

    def test_table1_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "t1.json"
        main(
            [
                "table1",
                "--records",
                "2000",
                "--epsilon",
                "1.0",
                "--output",
                str(out_file),
            ]
        )
        data = json.loads(out_file.read_text())
        assert "analytic" in data and "measured" in data

    def test_dpbench_small_run(self, capsys):
        code = main(
            [
                "dpbench",
                "--datasets", "adult",
                "--ratios", "0.99",
                "--trials", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average MRE-regret" in out
        assert "dawaz" in out

    def test_ngrams_small_run(self, capsys):
        code = main(
            [
                "ngrams",
                "--users", "80",
                "--days", "15",
                "--n", "4",
                "--policies", "99",
                "--epsilon", "1.0",
                "--trials", "1",
            ]
        )
        assert code == 0
        assert "MRE at epsilon = 1.0" in capsys.readouterr().out

    def test_tippers_hist_small_run(self, capsys):
        code = main(
            [
                "tippers-hist",
                "--users", "80",
                "--days", "15",
                "--policies", "99",
                "--epsilon", "1.0",
                "--trials", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rel95" in out


class TestServe:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 7777
        assert args.dataset == "synthetic"
        assert not args.workers
        assert args.budget is None

    def test_serve_database_synthetic(self):
        args = build_parser().parse_args(
            ["serve", "--records", "500", "--seed", "3"]
        )
        from repro.cli import serve_database

        db = serve_database(args)
        assert len(db) == 500
        assert set(db.column_names) == {"age", "city", "opt_in"}

    def test_serve_database_dpbench(self):
        args = build_parser().parse_args(
            ["serve", "--dataset", "adult", "--records", "1000"]
        )
        from repro.cli import serve_database

        db = serve_database(args)
        assert len(db) == 1000
        assert set(db.column_names) == {"value", "opt_in"}

    @pytest.mark.rpc
    def test_served_database_end_to_end(self):
        """The CLI's wiring, driven in-process on an ephemeral port."""
        import socket

        try:
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            probe.close()
        except OSError as exc:
            pytest.skip(f"loopback sockets unavailable: {exc}")
        from repro.api import OsdpClient
        from repro.api.backends import ShardedBackend
        from repro.cli import serve_database
        from repro.service.rpc import RpcServer

        args = build_parser().parse_args(
            ["serve", "--records", "800", "--shards", "2", "--port", "0"]
        )
        backend = ShardedBackend(serve_database(args), n_shards=args.shards)
        with RpcServer(backend.server, port=0).start() as rpc:
            with OsdpClient.connect(*rpc.address) as client:
                assert client.backend.ping()["n_records"] == 800

    def test_serve_budget_zero_fails_loudly(self):
        """--budget 0 must not silently start an unmetered server."""
        from repro.cli import cmd_serve

        args = build_parser().parse_args(["serve", "--budget", "0"])
        with pytest.raises(ValueError, match="total_epsilon"):
            cmd_serve(args)

    def test_serve_shm_and_reader_flags_parse(self):
        args = build_parser().parse_args(["serve", "--workers"])
        assert not hasattr(args, "shm") and not hasattr(args, "max_readers")
        # --max-inflight is the one concurrency bound
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-readers", "8"])

    def test_serve_shm_without_workers_fails_loudly(self):
        """A worker pool always attaches shared-memory segments: there
        is no column-transport flag to set, with or without --workers."""
        for argv in (["--shm"], ["--workers", "--shm"], ["--workers", "--no-shm"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *argv])

    def test_serve_budget_flags_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.budget_dir is None
        assert args.quota == [] or args.quota is None
        assert args.max_inflight is None
        args = build_parser().parse_args(
            [
                "serve", "--budget", "10", "--budget-dir", "/tmp/ledger",
                "--quota", "alice=2.5", "--quota", "bob=3",
                "--max-inflight", "64",
            ]
        )
        assert args.budget_dir == "/tmp/ledger"
        assert args.quota == ["alice=2.5", "bob=3"]
        assert args.max_inflight == 64

    def test_parse_quotas(self):
        from repro.cli import _parse_quotas

        assert _parse_quotas([]) is None
        assert _parse_quotas(["alice=2.5", "bob=3"]) == {
            "alice": 2.5,
            "bob": 3.0,
        }
        with pytest.raises(SystemExit, match="NAME=EPS"):
            _parse_quotas(["alice"])
        with pytest.raises(SystemExit, match="number"):
            _parse_quotas(["alice=lots"])

    def test_serve_quota_without_budget_fails_loudly(self):
        """A quota against no global budget is a configuration lie."""
        from repro.cli import cmd_serve

        args = build_parser().parse_args(["serve", "--quota", "alice=1"])
        with pytest.raises(SystemExit, match="--budget"):
            cmd_serve(args)

    def test_serve_budget_dir_without_budget_fails_loudly(self):
        from repro.cli import cmd_serve

        args = build_parser().parse_args(
            ["serve", "--budget-dir", "/tmp/ledger"]
        )
        with pytest.raises(SystemExit, match="--budget"):
            cmd_serve(args)

    def test_serve_max_inflight_validated_before_startup(self):
        from repro.cli import cmd_serve

        args = build_parser().parse_args(["serve", "--max-inflight", "0"])
        with pytest.raises(SystemExit, match="max-inflight"):
            cmd_serve(args)

    def test_serve_prints_the_live_store_mode(self, capsys):
        """Operators must be able to tell which storage path is live."""
        import threading

        from repro.cli import cmd_serve

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--records", "300", "--shards", "1"]
        )
        thread = threading.Thread(target=cmd_serve, args=(args,), daemon=True)
        # cmd_serve blocks in serve_forever; capture the startup print
        # by polling until it lands, then let the daemon die with us.
        thread.start()
        for _ in range(100):
            out = capsys.readouterr().out
            if "store:" in out:
                break
            import time

            time.sleep(0.05)
        else:  # pragma: no cover - diagnostics
            pytest.fail("serve never printed its store mode")
        assert "store: heap (in-process engine, no worker pool)" in out
        assert "concurrent readers" in out
