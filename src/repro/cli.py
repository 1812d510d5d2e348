"""Command-line interface for the reproduction experiments.

Each subcommand regenerates one of the paper's tables/figures at a
configurable scale and prints the same rows the paper reports;
``--output`` additionally writes the raw results as JSON.

Usage examples::

    python -m repro.cli table1
    python -m repro.cli fig1 --users 400 --days 50 --folds 5
    python -m repro.cli ngrams --n 4 --epsilon 1.0 0.01
    python -m repro.cli dpbench --datasets adult patent --trials 3

``serve`` is different in kind: it starts the release service — a
:class:`repro.service.rpc.RpcServer` over a (sharded) database — and
blocks, so analysts can connect with
``repro.api.OsdpClient.connect(host, port)``::

    python -m repro.cli serve --port 7777 --shards 4 --workers --budget 10
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.data.tippers import TippersConfig
from repro.evaluation.runner import format_table


def _add_tippers_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=400, help="synthetic users")
    parser.add_argument("--days", type=int, default=50, help="trace length in days")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--policies",
        type=float,
        nargs="+",
        default=[99, 90, 75, 50, 25, 10, 1],
        help="non-sensitive percentages (P_rho)",
    )
    parser.add_argument(
        "--epsilon", type=float, nargs="+", default=[1.0, 0.01],
        help="privacy budgets",
    )


def _tippers_config(args: argparse.Namespace) -> TippersConfig:
    return TippersConfig(n_users=args.users, n_days=args.days, seed=args.seed)


def _maybe_save(results, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        from repro.evaluation.reporting import save_results

        path = save_results(results, args.output)
        print(f"\nresults written to {path}")


def cmd_table1(args: argparse.Namespace) -> None:
    from repro.evaluation.experiments.table1 import (
        expected_release_percentages,
        monte_carlo_release_percentages,
    )

    analytic = expected_release_percentages(tuple(args.epsilon))
    measured = monte_carlo_release_percentages(
        tuple(args.epsilon), n_records=args.records, seed=args.seed
    )
    rows = [[eps, analytic[eps], measured[eps]] for eps in args.epsilon]
    print(format_table(["epsilon", "analytic %", "measured %"], rows))
    _maybe_save({"analytic": analytic, "measured": measured}, args)


def cmd_fig1(args: argparse.Namespace) -> None:
    from repro.evaluation.experiments.fig1_classification import (
        Fig1Config,
        run_fig1,
    )

    config = Fig1Config(
        tippers=_tippers_config(args),
        policies=tuple(args.policies),
        epsilons=tuple(args.epsilon),
        cv_folds=args.folds,
    )
    out = run_fig1(config)
    for eps, by_policy in out["errors"].items():
        print(f"\n1 - AUC at epsilon = {eps}")
        algos = ["all_ns", "osdp_rr", "objdp", "random"]
        rows = [
            [f"P{rho:g}"] + [by_policy[rho][a] for a in algos]
            for rho in args.policies
        ]
        print(format_table(["policy", *algos], rows))
    _maybe_save(out, args)


def cmd_ngrams(args: argparse.Namespace) -> None:
    from repro.evaluation.experiments.fig2_3_ngrams import (
        NGramConfig,
        run_ngram_experiment,
    )

    config = NGramConfig(
        tippers=_tippers_config(args),
        n=args.n,
        policies=tuple(args.policies),
        epsilons=tuple(args.epsilon),
        n_trials=args.trials,
    )
    out = run_ngram_experiment(config)
    print(f"{args.n}-gram domain {out['domain_size']:.3g}, "
          f"support {out['n_support']}, k* = {out['lm_kstar']}")
    for eps, by_policy in out["mre"].items():
        print(f"\nMRE at epsilon = {eps}")
        algos = ["all_ns", "osdp_rr", "lm_t1", "lm_tstar"]
        rows = [
            [f"P{rho:g}"] + [by_policy[rho][a] for a in algos]
            for rho in args.policies
        ]
        print(format_table(["policy", *algos], rows))
    _maybe_save(out, args)


def cmd_tippers_hist(args: argparse.Namespace) -> None:
    from repro.evaluation.experiments.fig4_5_tippers import (
        ALGORITHMS,
        TippersHistogramConfig,
        run_tippers_histogram,
    )

    config = TippersHistogramConfig(
        tippers=_tippers_config(args),
        policies=tuple(args.policies),
        epsilons=tuple(args.epsilon),
        n_trials=args.trials,
    )
    out = run_tippers_histogram(config)
    for eps, by_policy in out["mre"].items():
        print(f"\nMRE at epsilon = {eps}")
        rows = [
            [f"P{rho:g}"] + [by_policy[rho][a] for a in ALGORITHMS]
            for rho in args.policies
        ]
        print(format_table(["policy", *ALGORITHMS], rows))
    for metric in ("rel50", "rel95"):
        print(f"\n{metric} at epsilon = {args.epsilon[0]}")
        rows = [
            [f"P{rho:g}"] + [out[metric][rho][a] for a in ALGORITHMS]
            for rho in args.policies
        ]
        print(format_table(["policy", *ALGORITHMS], rows))
    _maybe_save(out, args)


def cmd_dpbench(args: argparse.Namespace) -> None:
    from repro.evaluation.experiments.fig6_10_dpbench import (
        DPBenchConfig,
        aggregate_regret,
        run_dpbench_sweep,
    )

    config = DPBenchConfig(
        datasets=tuple(args.datasets),
        ratios=tuple(args.ratios),
        epsilons=tuple(args.epsilon),
        n_trials=args.trials,
        seed=args.seed,
    )
    records = run_dpbench_sweep(config)
    for policy in ("close", "far"):
        by_rho = aggregate_regret(
            records, group_by="rho", where={"policy": policy}
        )
        algos = sorted(next(iter(by_rho.values())))
        rows = [
            [rho] + [by_rho[rho][a] for a in algos]
            for rho in sorted(by_rho, reverse=True)
        ]
        print(f"\naverage MRE-regret, policy = {policy}")
        print(format_table(["rho_x", *algos], rows))
    _maybe_save([dataclass_record.__dict__ for dataclass_record in records], args)


def serve_database(args: argparse.Namespace):
    """Build the table the ``serve`` subcommand exposes.

    ``--dataset synthetic`` is a generic demo table (age, city,
    opt_in); a DPBench name expands that benchmark's histogram into
    one record per count with a synthetic opt-in column, so the served
    data reproduces the paper's workloads bin for bin.  (The fleet
    launcher builds the same table per topology file — one generator,
    every serving shape.)
    """
    from repro.service.fleet import build_table

    return build_table(
        dataset=args.dataset,
        records=args.records,
        seed=args.seed,
        opt_in_rate=args.opt_in_rate,
    )


def _parse_quotas(pairs) -> dict[str, float] | None:
    """``["alice=2.5", ...]`` → ``{"alice": 2.5, ...}`` (None when empty)."""
    if not pairs:
        return None
    quotas: dict[str, float] = {}
    for pair in pairs:
        name, sep, eps = str(pair).partition("=")
        if not sep or not name:
            raise SystemExit(
                f"--quota wants NAME=EPS, got {pair!r}"
            )
        try:
            quotas[name] = float(eps)
        except ValueError:
            raise SystemExit(
                f"--quota epsilon must be a number, got {pair!r}"
            ) from None
    return quotas


def cmd_serve(args: argparse.Namespace) -> None:
    from repro.api.backends import ShardedBackend
    from repro.core.accountant import PrivacyAccountant
    from repro.service.rpc import RpcServer

    if args.shm and not args.workers:
        raise SystemExit(
            "--shm selects the worker pool's column transport; "
            "it requires --workers"
        )
    if args.wal_dir and args.workers:
        raise SystemExit(
            "--wal-dir is incompatible with --workers: WAL recovery "
            "replaces the whole database, which a pool of resident "
            "workers holding the old columns cannot follow"
        )
    if args.max_readers is not None and args.max_readers < 1:
        raise SystemExit("--max-readers must be at least 1")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise SystemExit("--max-inflight must be at least 1")
    quotas = _parse_quotas(args.quota)
    if (quotas or args.budget_dir) and args.budget is None:
        raise SystemExit("--quota and --budget-dir require --budget")
    # `is not None`, not truthiness: `--budget 0` must not silently
    # start an unmetered server (the accountant rejects it loudly).
    accountant = None
    if args.budget is not None:
        if args.budget_dir:
            from repro.service.budget import DurableAccountant

            accountant = DurableAccountant(
                args.budget_dir,
                total_epsilon=args.budget,
                quotas=quotas,
            )
            report = accountant.recovery
            print(
                f"budget ledger: {args.budget_dir} (snapshot seq "
                f"{report['snapshot_seq']}, replayed {report['replayed']} "
                f"charge{'' if report['replayed'] == 1 else 's'}"
                + (
                    f", torn tail charged {report['torn_epsilon']:g}"
                    if report.get("torn_epsilon")
                    else ""
                )
                + f") — spent {report['spent']:g}, "
                f"remaining {report['remaining']:g}"
            )
        else:
            accountant = PrivacyAccountant(
                total_epsilon=args.budget, quotas=quotas
            )
    backend = ShardedBackend(
        serve_database(args),
        n_shards=args.shards,
        workers=args.workers,
        accountant=accountant,
        shm=args.shm if args.workers else None,
    )
    wal = None
    if args.wal_dir:
        from repro.service.wal import WriteAheadLog

        wal = WriteAheadLog(args.wal_dir)
        report = wal.recover(backend.server)
        print(
            f"wal: {args.wal_dir} (snapshot seq {report['snapshot_seq']}, "
            f"replayed {report['replayed']} entr"
            f"{'y' if report['replayed'] == 1 else 'ies'}"
            + (
                f", truncated {report['truncated_bytes']} torn byte(s)"
                if report["truncated_bytes"]
                else ""
            )
            + ")"
        )
    rpc = RpcServer(
        backend.server,
        host=args.host,
        port=args.port,
        max_readers=args.max_readers,
        read_timeout=args.read_timeout,
        wal=wal,
        admission_limit=args.max_inflight,
    )
    host, port = rpc.address
    store_lines = {
        "shm": "store: shared-memory segments (zero-copy worker attach, "
        "one physical copy)",
        "pickle": "store: heap (columns pickled to the workers once)",
        "heap": "store: heap (in-process engine, no worker pool)",
    }
    readers = (
        f"up to {args.max_readers} concurrent readers"
        if args.max_readers
        else "unbounded concurrent readers"
    )
    print(
        f"serving {len(backend.server.db)} records on {host}:{port} "
        f"({backend.server.n_shards} shards"
        f"{', worker pool' if args.workers else ''}"
        f"{f', budget {args.budget}' if args.budget else ''}) — "
        f"connect with repro.api.OsdpClient.connect({host!r}, {port})"
    )
    print(f"{store_lines[backend.store_mode]}; {readers}, "
          f"exclusive appends/expires")
    try:
        # SIGTERM (an orchestrator's normal stop) must run the same
        # graceful path as Ctrl-C: the default action kills the
        # process without finally blocks or GC finalizers, which would
        # leak the worker pool's shared-memory segments past process
        # death.
        import signal

        signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:  # not on the main thread (embedded/tests)
        pass
    try:
        rpc.serve_forever()
    except KeyboardInterrupt:
        # Graceful drain: in-flight requests get their replies (up to
        # --drain-grace seconds), new ones are refused.  Running it
        # here — after serve_forever has unwound — rather than inside
        # the signal handler keeps shutdown() from deadlocking against
        # the interrupted serve loop.
        print("\ndraining (in-flight requests finish, new ones refused)")
        rpc.drain(grace=args.drain_grace)
        aborted = rpc.transport_stats["aborted_in_flight"]
        if aborted:
            print(f"drain grace expired with {aborted} request(s) aborted")
    finally:
        rpc.close()
        backend.close()
        if accountant is not None and hasattr(accountant, "close"):
            accountant.close()
        print("shutdown complete")


def cmd_stream(args: argparse.Namespace) -> None:
    """Stream synthetic building telemetry into a live release service.

    The operator-facing face of the streaming tier: connects to a
    ``serve`` endpoint, replays a deterministic ~300-sensor event
    stream through the group-commit buffer, and (optionally) runs the
    sliding-window retention and continual-release schedules while the
    stream flows.
    """
    from repro.api import OsdpClient
    from repro.data.telemetry import TelemetryConfig, telemetry_events
    from repro.queries.histogram import IntegerBinning

    import time as _time

    # Anchor the synthetic stream at the wall clock so the sliding
    # window (which the RetentionDriver measures against time.time())
    # sees current events, not epoch-0 ones that expire on arrival.
    config = TelemetryConfig(
        rate_hz=args.rate, seed=args.seed, start=_time.time()
    )
    release = None
    if args.release_period is not None:
        release = {
            "mechanism": "osdp_laplace_l1",
            "epsilon": args.epsilon,
            "binning": IntegerBinning("region", 0, config.n_regions, 1),
            # Opted-out sensors are the sensitive ones; opted-in events
            # are releasable as-is under OSDP.
            "policy": {"attr": "opt_in", "op": "==", "value": False},
            "period": args.release_period,
            "base_seed": args.seed,
        }
    with OsdpClient.connect(args.host, args.port) as client:
        stream = client.open_stream(
            window=args.window,
            release=release,
            max_events=args.batch,
            max_age=args.max_age,
        )
        for event in telemetry_events(args.events, config):
            stream.submit(event)
        report = stream.close()
        buffer = stream.buffer
        expired = (
            stream.retention.events_expired if stream.retention else 0
        )
        released = len(stream.continual.releases) if stream.continual else 0
        print(
            f"streamed {buffer.events_flushed} events in "
            f"{buffer.flushes} group commit(s); expired {expired}, "
            f"released {released} histogram(s) "
            f"(final pass: {report})"
        )


def cmd_cluster(args: argparse.Namespace) -> None:
    import time

    from repro.service.fleet import FleetSupervisor, FleetTopology

    topology = FleetTopology.from_file(args.topology)
    supervisor = FleetSupervisor(topology)
    try:
        # SIGTERM takes the same graceful path as Ctrl-C: drain every
        # child, reap, leave /dev/shm and the WAL dirs clean.
        import signal

        signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:  # not on the main thread (embedded/tests)
        pass
    try:
        supervisor.start()
        for line in supervisor.events():
            print(line, flush=True)
        health = supervisor.health()
        n_ranges = len(topology.range_order)
        print(
            f"fleet up: {len(health)} endpoints across {n_ranges} shard "
            "range(s); wire supervisor.endpoints() into "
            "repro.api.ClusterBackend — SIGTERM or Ctrl-C drains",
            flush=True,
        )
        while True:
            time.sleep(args.health_interval)
            for line in supervisor.events():
                print(line, flush=True)
    except KeyboardInterrupt:
        print(
            "\ndraining fleet (children finish in-flight requests)",
            flush=True,
        )
        supervisor.drain(grace=args.drain_grace)
    finally:
        supervisor.close()
        print("fleet shutdown complete", flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of "
        "'One-sided Differential Privacy' (ICDE 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="OsdpRR release rates (Table 1)")
    p_table1.add_argument("--epsilon", type=float, nargs="+", default=[1.0, 0.5, 0.1])
    p_table1.add_argument("--records", type=int, default=20_000)
    p_table1.add_argument("--seed", type=int, default=0)
    p_table1.add_argument("--output", help="write JSON results here")
    p_table1.set_defaults(func=cmd_table1)

    p_fig1 = sub.add_parser("fig1", help="resident classification (Fig 1)")
    _add_tippers_args(p_fig1)
    p_fig1.add_argument("--folds", type=int, default=5)
    p_fig1.add_argument("--output")
    p_fig1.set_defaults(func=cmd_fig1)

    p_ngrams = sub.add_parser("ngrams", help="n-gram histograms (Figs 2-3)")
    _add_tippers_args(p_ngrams)
    p_ngrams.add_argument("--n", type=int, default=4, choices=(2, 3, 4, 5))
    p_ngrams.add_argument("--trials", type=int, default=5)
    p_ngrams.add_argument("--output")
    p_ngrams.set_defaults(func=cmd_ngrams)

    p_hist = sub.add_parser(
        "tippers-hist", help="TIPPERS 2-D histogram (Figs 4-5)"
    )
    _add_tippers_args(p_hist)
    p_hist.add_argument("--trials", type=int, default=5)
    p_hist.add_argument("--output")
    p_hist.set_defaults(func=cmd_tippers_hist)

    p_bench = sub.add_parser("dpbench", help="DPBench regret study (Figs 6-10)")
    p_bench.add_argument(
        "--datasets", nargs="+",
        default=["adult", "nettrace", "searchlogs", "patent"],
    )
    p_bench.add_argument(
        "--ratios", type=float, nargs="+",
        default=[0.99, 0.75, 0.5, 0.25, 0.01],
    )
    p_bench.add_argument("--epsilon", type=float, nargs="+", default=[1.0])
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output")
    p_bench.set_defaults(func=cmd_dpbench)

    p_serve = sub.add_parser(
        "serve", help="run the OSDP release service on a TCP socket"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7777, help="0 binds an ephemeral port"
    )
    p_serve.add_argument(
        "--dataset", default="synthetic",
        help="'synthetic', 'telemetry' (the repro.cli stream schema), "
        "or a DPBench name (adult, patent, ...)",
    )
    p_serve.add_argument("--records", type=int, default=100_000)
    p_serve.add_argument("--opt-in-rate", type=float, default=0.5)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--shards", type=int, default=None)
    p_serve.add_argument(
        "--workers", action="store_true",
        help="shard-resident worker processes with failover",
    )
    p_serve.add_argument(
        "--shm", action=argparse.BooleanOptionalAction, default=None,
        help="force (--shm) or forbid (--no-shm) shared-memory column "
        "segments for the worker pool; default auto-detects",
    )
    p_serve.add_argument(
        "--max-readers", type=int, default=None,
        help="bound on concurrently served read requests "
        "(releases/histograms); omit for unbounded",
    )
    p_serve.add_argument(
        "--budget", type=float, default=None,
        help="total epsilon; omit for an unmetered server",
    )
    p_serve.add_argument(
        "--budget-dir", default=None,
        help="durable budget ledger directory: every charge is "
        "fsync'd to an append-only journal before its release is "
        "returned, and a restarted server resumes from the recovered "
        "spent total (requires --budget)",
    )
    p_serve.add_argument(
        "--quota", action="append", default=None, metavar="NAME=EPS",
        help="per-analyst epsilon quota (repeatable, e.g. "
        "--quota alice=2.5); requests carrying that analyst "
        "credential are refused past it (requires --budget)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission-control bound on concurrently executing "
        "requests: excess work is refused fast with a retryable "
        "overload error instead of queueing; omit for no gate",
    )
    p_serve.add_argument(
        "--read-timeout", type=float, default=None,
        help="per-connection socket read timeout in seconds: a peer "
        "stalling mid-frame loses its connection instead of pinning a "
        "handler thread; omit for no timeout",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds SIGTERM/Ctrl-C waits for in-flight requests to "
        "finish before cutting connections (default 5)",
    )
    p_serve.add_argument(
        "--wal-dir", default=None,
        help="write-ahead-log directory: every append/expire is "
        "fsync'd before its ack and replayed on restart, so a killed "
        "server recovers to exactly its acknowledged state "
        "(incompatible with --workers)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_stream = sub.add_parser(
        "stream",
        help="stream synthetic building telemetry into a live serve "
        "endpoint (group commits, optional retention + continual "
        "releases)",
    )
    p_stream.add_argument("--host", default="127.0.0.1")
    p_stream.add_argument("--port", type=int, default=7777)
    p_stream.add_argument(
        "--events", type=int, default=10_000, help="events to stream"
    )
    p_stream.add_argument(
        "--rate", type=float, default=100.0,
        help="synthetic aggregate event rate in events/sec (event "
        "timestamps, not wall pacing)",
    )
    p_stream.add_argument(
        "--batch", type=int, default=512,
        help="group-commit size watermark in events",
    )
    p_stream.add_argument(
        "--max-age", type=float, default=None,
        help="group-commit age watermark in seconds; omit for size-only",
    )
    p_stream.add_argument(
        "--window", type=float, default=None,
        help="sliding retention window in seconds of event time; "
        "omit to retain everything",
    )
    p_stream.add_argument(
        "--release-period", type=float, default=None,
        help="seconds between continual private histogram releases; "
        "omit for no release schedule",
    )
    p_stream.add_argument(
        "--epsilon", type=float, default=1.0,
        help="per-release epsilon for the continual schedule",
    )
    p_stream.add_argument("--seed", type=int, default=0)
    p_stream.set_defaults(func=cmd_stream)

    p_cluster = sub.add_parser(
        "cluster",
        help="spawn and supervise an endpoint fleet from a JSON "
        "topology file (see repro.service.fleet)",
    )
    p_cluster.add_argument(
        "--topology", required=True,
        help="JSON topology: table spec plus ranges x replicas x "
        "ports x WAL dirs (format in docs/OPERATIONS.md)",
    )
    p_cluster.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="seconds SIGTERM/Ctrl-C waits for children to drain "
        "before terminating them (default 5)",
    )
    p_cluster.add_argument(
        "--health-interval", type=float, default=0.2,
        help="seconds between supervision-event flushes (default 0.2)",
    )
    p_cluster.set_defaults(func=cmd_cluster)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
