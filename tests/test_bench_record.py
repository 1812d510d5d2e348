"""``scripts/bench_record.py``: the pairing rule and the bound rule that
decide what a ``BENCH_service.jsonl`` record says about a change."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _run(seed, started_ns, p50, workload="stream_mixed"):
    return {
        "workload": workload,
        "seed": seed,
        "commit": "c0ffee",
        "cpus": 2,
        "kernel_backend": "numpy",
        "python": "3.11",
        "numpy": "2.0",
        "seconds": 15,
        "failed": 0,
        "attempted": 100,
        "started_ns": started_ns,
        "info": {"slowness": 1.0 + seed / 1000},
        "extras": {"write_p50_ms": 2.0},
        "metrics": {
            "release_p50_ms": {"value": p50, "unit": "ms"},
            "release_p95_ms": {"value": 2 * p50, "unit": "ms"},
            "release_rps": {"value": 1000 / p50, "unit": "1/s"},
            "server_cpu_ms_per_op": {"value": 1.0, "unit": "ms"},
            "server_pss_mb": {"value": 70.0, "unit": "MB"},
            "setup_s": {"value": 0.6, "unit": "s"},
        },
    }


def _sides(parent_values, change_values):
    parent = [_run(s, 2 * s + s % 2, v) for s, v in enumerate(parent_values)]
    change = [_run(s, 2 * s + 1 - s % 2, v) for s, v in enumerate(change_values)]
    return parent, change


class TestPairingRule:
    def test_ten_of_ten_beyond_the_parents_quartiles_is_a_gain(self):
        parent, change = _sides(
            [4.0 + 0.02 * i for i in range(10)], [2.5 + 0.02 * i for i in range(10)]
        )
        verdict = bench_record.pair_verdict(parent, change, "release_p50_ms", "lower")
        assert verdict["verdict"] == "gain"
        assert (verdict["change_wins"], verdict["of"]) == (10, 10)
        assert [p["first"] for p in verdict["pairs"][:2]] == ["parent", "change"]

    def test_eight_of_ten_is_not_shown(self):
        parent, change = _sides([4.0] * 10, [2.5] * 8 + [4.5] * 2)
        verdict = bench_record.pair_verdict(parent, change, "release_p50_ms", "lower")
        assert verdict["change_wins"] == 8
        assert verdict["verdict"] == "not shown"

    def test_a_gap_inside_the_parents_own_spread_is_not_shown(self):
        parent, change = _sides(
            [3.0, 3.4, 3.8, 4.2, 4.6, 5.0, 5.4, 5.8, 6.2, 6.6],
            [2.9, 3.3, 3.7, 4.1, 4.5, 4.9, 5.3, 5.7, 6.1, 6.5],
        )
        verdict = bench_record.pair_verdict(parent, change, "release_p50_ms", "lower")
        assert verdict["change_wins"] == 10
        assert verdict["verdict"] == "not shown"

    def test_fewer_than_ten_pairs_cannot_show_a_gain(self):
        parent, change = _sides([4.0] * 5, [2.0] * 5)
        verdict = bench_record.pair_verdict(parent, change, "release_p50_ms", "lower")
        assert verdict["verdict"] == "not shown"

    def test_higher_is_better_flips_the_winner(self):
        parent, change = _sides([4.0] * 10, [2.5] * 10)  # 250 -> 400 releases/s
        verdict = bench_record.pair_verdict(parent, change, "release_rps", "higher")
        assert verdict["change_wins"] == 10
        assert verdict["verdict"] == "gain"


class TestBoundRule:
    @pytest.mark.parametrize(
        "parent, change, verdict",
        [
            ([1.0, 1.01, 0.99, 1.0], [1.1, 1.12, 1.09, 1.1], "within bound"),
            ([1.0, 1.01, 0.99, 1.0], [1.4, 1.41, 1.39, 1.4], "regressed"),
            ([1.0, 1.6, 0.7, 1.1], [1.0, 1.5, 0.8, 1.1], "unresolved"),
            ([1.0, 1.6, 2.0, 1.1], [0.5, 0.6, 0.9, 0.7], "within bound"),
        ],
    )
    def test_verdicts(self, parent, change, verdict):
        got = bench_record.bound_verdict(parent, change, "lower", 0.25)
        assert got["verdict"] == verdict


def test_one_json_line_from_two_out_directories(tmp_path, capsys):
    parent, change = _sides([4.0 + 0.01 * i for i in range(10)], [2.5] * 10)
    for side, runs in (("parent", parent), ("change", change)):
        (tmp_path / side).mkdir()
        for run in runs:
            name = f"run-stream_mixed-seed{run['seed']}-{run.pop('started_ns')}.json"
            (tmp_path / side / name).write_text(json.dumps(run))
    bench_record.main(
        [
            "--record", "7", "--pr", "99", "--title", "t",
            "--parent-out", str(tmp_path / "parent"),
            "--change-out", str(tmp_path / "change"),
            "--claim", "stream_mixed:release_p50_ms",
        ]
    )
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    doc = json.loads(out)
    assert doc["record"] == 7 and doc["host"]["cpus"] == 2
    assert doc["claims"]["stream_mixed"]["release_p50_ms"]["verdict"] == "gain"
    held = doc["held_to_bound"]["stream_mixed"]
    assert "release_p50_ms" not in held and held["setup_s"]["verdict"] == "within bound"
    side = doc["workloads"]["stream_mixed"]["change"]
    assert side["metrics"]["write_p50_ms"]["median"] == 2.0
    assert len(side["slowness"]) == 10


def test_the_tracked_trajectory_is_a_series():
    """One JSON object per line, numbered from 0 in order, every record
    readable along the same path."""
    lines = (SCRIPT.parent.parent / "BENCH_service.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["record"] for r in records] == list(range(len(records)))
    for record in records:
        assert record["date"] and record["host"]["cpus"] and record["commit"]["change"]
        cell = record["workloads"]["stream_mixed"]["change"]["metrics"]["release_p50_ms"]
        assert cell["median"] > 0
