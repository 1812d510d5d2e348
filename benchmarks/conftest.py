"""Shared fixtures for the reproduction benchmarks.

The figure benches share two expensive artifacts, computed once per
session: the TIPPERS synthetic trace (Figs 1-5) and the DPBench regret
sweep (Figs 6-10).  Every bench writes the table it regenerates to the
git-ignored ``benchmarks/out/<name>.txt`` (and prints it; run with
``-s`` to see the output inline), so a test run leaves the tree clean.
The tracked ``benchmarks/results/`` holds the last *recorded* snapshot,
refreshed by copying from ``out/`` (docs/TESTING.md section 3).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.data.tippers import TippersConfig, generate_tippers
from repro.evaluation.experiments.fig6_10_dpbench import (
    DPBenchConfig,
    run_dpbench_sweep,
)

OUT_DIR = Path(__file__).parent / "out"

# Laptop-scale stand-in for the 585K-trajectory trace: large enough for
# stable policy fractions and classifier signal, small enough for CI.
BENCH_TIPPERS = TippersConfig(n_users=500, n_days=50, seed=7)

# Reduced DPBench grid: four datasets spanning the sparsity range
# (0.98, 0.97, 0.51, 0.06), five ratios, both policies and epsilons.
BENCH_DPBENCH = DPBenchConfig(
    datasets=("adult", "nettrace", "searchlogs", "patent"),
    ratios=(0.99, 0.75, 0.50, 0.25, 0.01),
    policies=("close", "far"),
    epsilons=(1.0, 0.01),
    n_trials=3,
    seed=11,
)


@pytest.fixture(scope="session")
def tippers_dataset():
    return generate_tippers(BENCH_TIPPERS)


@pytest.fixture(scope="session")
def dpbench_records():
    return run_dpbench_sweep(BENCH_DPBENCH)


def write_result(name: str, text: str) -> None:
    """Persist a bench's table under benchmarks/out/ and echo it."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}")
