#!/usr/bin/env python3
"""One command for the release-service benchmark.

    python3 bench/run.py                      # five workloads, untraced + traced
    python3 bench/run.py --workload cold_scan # one workload
    python3 bench/run.py --trace 0            # end-to-end metrics only
    python3 bench/run.py --trace              # per-layer (traced) run only
    python3 bench/run.py --smoke              # 1 s sections, one set-up each
    python3 bench/run.py --repeat 10          # ten seeds; spread per metric

The driver's form, ``--workload W --seed N --seconds S --trace 0|1``,
prints as its last line one JSON object ``{correct, attempted, failed,
metrics}`` holding every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) that ``BENCHMARK.json`` declares.
Exits non-zero when any output is wrong or any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench/run.py: no program to measure (src/repro is missing)")
# Running this file puts bench/ first on sys.path, where trace.py would
# shadow the standard library's module of that name; import the
# benchmark as the package ``bench`` from the repository root instead.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import harness, layers, workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def print_metrics(title: str, metrics: dict, info: dict) -> None:
    print(f"\n== {title}")
    for name, doc in metrics.items():
        print(f"  {name:<44} {doc['value']:>14.4f} {doc['unit']}")
    counts = {k: v for k, v in info.items() if k.endswith(("samples", "verified"))}
    if counts:
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def shaped(values: dict, declared: dict) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"benchmark did not measure {missing}")
    return {
        name: {"value": float(values[name]), "unit": declared[name]["unit"]}
        for name in declared
    }


def conclude(kind, workload, seed, result, metrics, load0, **more) -> dict:
    """Print a run's problems, write its provenance record to
    ``bench/out/`` and return its result line."""
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    doc = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    record = {
        "workload": workload.name,
        "seed": seed,
        "commit": commit,
        "cpus": os.cpu_count(),
        "loadavg_1m": load0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": result.info.get("kernel_backend", "unknown"),
        **doc,
        **more,
        "info": result.info,
        "problems": result.problems,
    }
    harness.OUT.mkdir(parents=True, exist_ok=True)
    path = harness.OUT / f"{kind}-{workload.name}-seed{seed}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=float))
    return doc


def run_untraced(workload, seed, seconds, args, load0) -> dict:
    smoke = {"setups": 1} if args.smoke else {}
    result = harness.run_e2e(
        workload, seed, seconds, corrupt=args.corrupt_reference, **smoke
    )
    metrics = shaped(result.metrics, END_TO_END)
    failed_share = result.failed / max(1, result.attempted)
    print_metrics(f"{workload.name} end to end (seed {seed}, {seconds:g} s)", metrics, result.info)
    for name, value in result.extras.items():
        unit = "events/s" if name.endswith("per_s") else "ms"
        print(f"  {name:<44} {value:>14.4f} {unit}   (this workload only)")
    print(f"  {'failed_share':<44} {failed_share:>14.6f} share "
          f"({result.failed} of {result.attempted})")
    return conclude(
        "run", workload, seed, result, metrics, load0,
        seconds=seconds, extras=result.extras, failed_share=failed_share,
    )


def run_traced(workload, seed, args, load0) -> dict:
    result = layers.run_traced(workload, seed, harness.OUT)
    metrics = shaped(result.metrics, PER_LAYER)
    print_metrics(f"{workload.name} per layer (seed {seed}, traced replay)", metrics, result.info)
    print(layers.format_table(result))
    return conclude("trace", workload, seed, result, metrics, load0)


def child(args, name: str, seed: int, trace: int) -> tuple[dict, str]:
    """One (workload, mode) job in a process of its own, as the driver
    runs it: a fleet forks from the generator, so what an earlier job
    left in this process's memory would be charged to its PSS.
    Returns the job's result line and its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--corrupt-reference"] if args.corrupt_reference else []
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{name} seed {seed} --trace {trace} died:\n{done.stdout}{done.stderr}"
        )
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def repeat_runs(args, names) -> tuple[list, dict]:
    """``--repeat K``: seeds N..N+K-1 of every workload, untraced;
    returns the result lines and ``{(workload, metric): [values]}``."""
    docs, runs = [], {}
    for k in range(args.repeat):
        for name in names:
            doc, _ = child(args, name, args.seed + k, 0)
            docs.append(doc)
            values = {m: v["value"] for m, v in doc["metrics"].items()}
            print(f"  {name:<13} seed {args.seed + k:<4} " + " ".join(
                f"{m.rsplit('_', 1)[0]}={v:.4g}" for m, v in values.items()
            ) + ("" if doc["correct"] else "  INCORRECT"), flush=True)
            for metric, value in values.items():
                runs.setdefault((name, metric), []).append(value)
    return docs, runs


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report_repeats(runs: dict) -> None:
    """Per metric x workload: median, quartiles, spread, halves agreement."""
    print("\n== repeatability (spread = IQR / median; halves = second "
          "median vs first, signed so that + is worse)")
    print(f"  {'workload':<13} {'metric':<22} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6} {'halves':>8}  verdict")
    for (workload, metric), values in sorted(runs.items()):
        spec = END_TO_END[metric]
        q1, med, q3 = statistics.quantiles(values, n=4)
        half = len(values) // 2
        first, second = statistics.median(values[:half]), statistics.median(values[half:])
        worse = (second - first) / first
        if spec["better"] == "higher":
            worse = -worse
        steady = spread(values) <= spec["bound"] / 3 or metric == "setup_s"
        verdict = "ok" if steady and worse <= spec["bound"] else "UNSTEADY"
        print(f"  {workload:<13} {metric:<22} {med:>12.4f} {q1:>12.4f} "
              f"{q3:>12.4f} {spread(values):>7.3f} {spec['bound']:>6.2f} "
              f"{worse:>+8.3f}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end only; 1 (or bare): traced per-layer run only",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds, args.trace = 1.0, 0
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    load0 = os.getloadavg()[0]

    modes = [0, 1] if args.trace is None else [args.trace]
    harness.adopt_orphans()
    try:
        if args.repeat > 1:
            docs, runs = repeat_runs(args, names)
            report_repeats(runs)
        elif len(names) == 1 and len(modes) == 1:
            # the driver's form: this process is the generator
            workload = wl.WORKLOADS[names[0]]
            if modes[0] == 0:
                docs = [run_untraced(workload, args.seed, args.seconds, args, load0)]
            else:
                docs = [run_traced(workload, args.seed, args, load0)]
        else:
            docs = []
            for name in names:
                for mode in modes:
                    doc, report = child(args, name, args.seed, mode)
                    print(report, flush=True)
                    docs.append(doc)
    finally:
        strays = harness.end_own_processes()

    if len(docs) == 1:
        final = docs[0]
    else:
        final = {
            "correct": all(d["correct"] for d in docs),
            "attempted": sum(d["attempted"] for d in docs),
            "failed": sum(d["failed"] for d in docs),
            "metrics": {},
        }
    if strays:
        print(f"  PROBLEM: processes outlived the run and were killed: {strays}")
        final["correct"] = False
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
