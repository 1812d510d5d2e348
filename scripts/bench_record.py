#!/usr/bin/env python3
"""Build one ``BENCH_service.jsonl`` record from ``bench/run.py`` runs.

``bench/run.py`` leaves one provenance record per run in the
``bench/out/`` of the checkout it ran in (``run-<workload>-seed<N>-
<time_ns>.json``).  Given the ``out`` directory of a parent checkout
and of a change checkout, this prints one JSON line: the host, each
side's per-workload medians with quartiles and spread, the ``slowness``
of every run, and — for each ``--claim workload:metric`` — the verdict
of the pairing rule (choosing-metrics guide §8, ``bench/README.md``
*Calibration*): runs are paired by seed, the side that ran first is read
off the records' timestamps, and a gain needs the change to win at
least nine tenths of the pairs *and* the medians to differ by more than
the distance between the parent's own quartiles.  Every other
(workload, metric) present on both sides is held to its
``BENCHMARK.json`` bound.

    python3 scripts/bench_record.py --record 2 --pr 18 --title "..." \\
        --parent-out ../parent/bench/out --change-out bench/out \\
        --claim stream_mixed:release_p50_ms >> BENCH_service.jsonl

The trajectory is append-only: never rewrite an earlier line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(out_dir: Path) -> dict[str, list[dict]]:
    """``{workload: [run record, ...]}`` in the order the runs started."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(out_dir.glob("run-*.json"), key=_started_ns):
        doc = json.loads(path.read_text())
        doc["started_ns"] = _started_ns(path)
        runs[doc["workload"]].append(doc)
    return dict(runs)


def _started_ns(path: Path) -> int:
    return int(path.stem.rsplit("-", 1)[1])


def values_of(run: dict) -> dict[str, float]:
    """A run's reported numbers: declared metrics, then the extras."""
    values = {name: cell["value"] for name, cell in run["metrics"].items()}
    values.update(run.get("extras") or {})
    return values


def summary(values: list[float]) -> dict:
    """Median, quartiles, and their distance as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    )
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def side_summary(runs: list[dict]) -> dict:
    names = sorted({name for run in runs for name in values_of(run)})
    return {
        "seeds": [run["seed"] for run in runs],
        "slowness": [round(run["info"]["slowness"], 3) for run in runs],
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "metrics": {
            name: summary([values_of(run)[name] for run in runs])
            for name in names
        },
    }


def _worse(better: str) -> float:
    """+1 when a larger value is worse, -1 when it is better."""
    return 1.0 if better == "lower" else -1.0


def pair_verdict(parent: list[dict], change: list[dict], metric: str, better: str) -> dict:
    """The pairing rule on one claimed metric, runs paired by seed."""
    worse = _worse(better)
    by_seed = {run["seed"]: run for run in change}
    pairs, wins, ties = [], 0, 0
    for p in parent:
        c = by_seed.get(p["seed"])
        if c is None:
            continue
        pv, cv = values_of(p)[metric], values_of(c)[metric]
        winner = "tie" if cv == pv else ("change" if worse * (cv - pv) < 0 else "parent")
        wins += winner == "change"
        ties += winner == "tie"
        pairs.append(
            {
                "seed": p["seed"],
                "first": "parent" if p["started_ns"] < c["started_ns"] else "change",
                "parent": pv,
                "change": cv,
                "slowness": [
                    round(p["info"]["slowness"], 3),
                    round(c["info"]["slowness"], 3),
                ],
                "winner": winner,
            }
        )
    stats_p = summary([pair["parent"] for pair in pairs])
    stats_c = summary([pair["change"] for pair in pairs])
    gap = worse * (stats_p["median"] - stats_c["median"])
    iqr = stats_p["q3"] - stats_p["q1"]
    gain = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > iqr
    return {
        "better": better,
        "pairs": pairs,
        "change_wins": wins,
        "ties": ties,
        "of": len(pairs),
        "parent_median": stats_p["median"],
        "change_median": stats_c["median"],
        "parent_quartile_distance": iqr,
        "verdict": "gain" if gain else "not shown",
    }


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """No-regression rule: the change's median may be worse than the
    parent's by at most ``bound``; a spread wider than the bound leaves
    the cell unresolved unless every change run beats every parent run."""
    worse = _worse(better)
    p, c = summary(parent), summary(change)
    worse_by = worse * (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    all_better = all(worse * (cv - pv) < 0 for cv in change for pv in parent)
    if worse_by > bound:
        verdict = "regressed"
    elif max(p["spread"], c["spread"]) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"worse_by": round(worse_by, 4), "bound": bound, "verdict": verdict}


def build(args) -> dict:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in contract["end_to_end"]}
    parent, change = load_runs(args.parent_out), load_runs(args.change_out)
    workloads = sorted(set(parent) & set(change))
    if not workloads:
        raise SystemExit("no workload has runs on both sides")
    sample = change[workloads[0]][0]
    claims = defaultdict(dict)
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        claims[workload][metric] = pair_verdict(
            parent[workload], change[workload], metric, declared[metric]["better"]
        )
    held = {}
    for workload in workloads:
        held[workload] = {
            name: bound_verdict(
                [values_of(r)[name] for r in parent[workload]],
                [values_of(r)[name] for r in change[workload]],
                spec["better"],
                spec["bound"],
            )
            for name, spec in declared.items()
            if name not in claims.get(workload, {})
        }
    return {
        "record": args.record,
        "pr": args.pr,
        "title": args.title,
        "date": datetime.date.today().isoformat(),
        "commit": {
            "parent": parent[workloads[0]][0]["commit"],
            "change": args.commit or sample["commit"],
        },
        "host": {
            "cpus": sample["cpus"],
            "kernel_backend": sample["kernel_backend"],
            "python": sample["python"],
            "numpy": sample["numpy"],
        },
        "seconds": sample["seconds"],
        "workloads": {
            w: {"parent": side_summary(parent[w]), "change": side_summary(change[w])}
            for w in workloads
        },
        "claims": claims,
        "held_to_bound": held,
        "notes": args.note,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", type=int, required=True, help="index of this record in the trajectory")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-out", type=Path, required=True)
    parser.add_argument("--change-out", type=Path, required=True)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a declared end-to-end metric this change claims to improve")
    parser.add_argument("--commit", help="identity of the change when it is not yet a commit")
    parser.add_argument("--note", action="append", default=[])
    json.dump(build(parser.parse_args(argv)), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
