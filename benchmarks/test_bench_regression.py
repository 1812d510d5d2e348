"""Kernel-regression gate: fresh BENCH_mechanisms.json vs the baseline.

``benchmarks/baselines/BENCH_mechanisms.json`` is the committed
previous-PR record of the mechanism throughput benches.  This check
compares the freshly generated
``benchmarks/out/BENCH_mechanisms.json`` against it and fails when any kernel got more than
``SLOWDOWN_TOLERANCE`` slower (min-over-rounds, the statistic robust to
scheduler noise).

It is marked ``bench_regression`` and **skipped by default** — wall
clock comparisons belong in an explicit CI lane, not in tier-1 — so the
workflow is:

    python -m pytest benchmarks/test_mechanism_throughput.py   # regenerate
    python -m pytest -m bench_regression                       # gate

(A full ``python -m pytest`` run also regenerates the JSON.)  At each
PR that intentionally changes kernel performance, refresh the records:
copy ``benchmarks/out/BENCH_mechanisms.json`` over both
``benchmarks/baselines/BENCH_mechanisms.json`` and the root
``BENCH_mechanisms.json``, and commit them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import OUT_DIR

pytestmark = pytest.mark.bench_regression

CURRENT_PATH = OUT_DIR / "BENCH_mechanisms.json"
BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_mechanisms.json"

SLOWDOWN_TOLERANCE = 1.25  # fail on >25% slowdown in any kernel


def _load(path: Path) -> dict:
    if not path.exists():
        pytest.fail(
            f"{path} missing - run the throughput benches first "
            "(python -m pytest benchmarks/test_mechanism_throughput.py)"
        )
    return json.loads(path.read_text())


def _index(payload: dict) -> dict[tuple, dict]:
    return {
        (entry["dataset"], entry["algorithm"], entry["mode"]): entry
        for entry in payload["benchmarks"]
    }


def test_no_kernel_slowdown_beyond_tolerance():
    current = _index(_load(CURRENT_PATH))
    baseline = _index(_load(BASELINE_PATH))
    missing = sorted(set(baseline) - set(current))
    assert not missing, f"kernels disappeared from the bench grid: {missing}"

    regressions = []
    for key, base_entry in sorted(baseline.items()):
        ratio = current[key]["min_s"] / base_entry["min_s"]
        if ratio > SLOWDOWN_TOLERANCE:
            regressions.append(
                f"{'/'.join(key)}: {ratio:.2f}x slower "
                f"({base_entry['min_s']:.2e}s -> {current[key]['min_s']:.2e}s)"
            )
    assert not regressions, "kernel regressions:\n" + "\n".join(regressions)


def test_batch_paths_still_beat_sequential():
    """The PR-1 headline must never silently erode.

    Measured speedups range from ~1.9x (binomial-bound searchlogs
    osdp_rr) to ~15x (support-restricted adult osdp_laplace_l1); 1.3x
    is the floor below which a batch path has effectively regressed to
    the sequential loop.
    """
    current = _load(CURRENT_PATH)
    for dataset, algorithms in current[
        "speedup_batch_over_sequential"
    ].items():
        for algorithm, stats in algorithms.items():
            assert stats["speedup"] >= 1.3, (
                f"{dataset}/{algorithm} batch speedup fell to "
                f"{stats['speedup']:.2f}x"
            )
