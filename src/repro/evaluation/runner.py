"""Seeded multi-trial execution and plain-text result tables.

The paper averages every loss over 10 independent executions; the
helpers here keep that reproducible and render results as aligned text
tables for the benchmark harness output.  Two ways to seed the trials
run the same release code:

* :func:`average_over_trials` / :func:`spawn_rngs` — one spawned
  generator and one ``release`` call per trial;
* :func:`release_trials` — one generator and one ``release_batch``
  call producing the whole ``(n_trials, d)`` estimate matrix (see
  :mod:`repro.mechanisms.batch_sampling`); the sweep experiments use
  it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """``n`` statistically independent generators from one root seed."""
    if n < 1:
        raise ValueError("need at least one generator")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def average_over_trials(
    fn: Callable[[np.random.Generator], float],
    n_trials: int = 10,
    seed: int = 0,
) -> float:
    """Mean of ``fn(rng)`` over independent trials (the paper's protocol)."""
    rngs = spawn_rngs(seed, n_trials)
    return float(np.mean([fn(rng) for rng in rngs]))


def release_trials(
    mechanism,
    hist,
    n_trials: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """``n_trials`` releases of ``mechanism`` as an ``(n_trials, d)`` matrix.

    One ``release_batch`` call from a single generator seeded with
    ``seed``, so the matrix is deterministic in ``seed``.
    """
    return mechanism.release_batch(hist, np.random.default_rng(seed), n_trials)


def release_trials_from_database(
    mechanism,
    db,
    query,
    policy,
    n_trials: int = 10,
    seed: int = 0,
    accountant=None,
) -> np.ndarray:
    """:func:`release_trials` fed straight from any database flavor.

    A seeded convenience wrapper over
    :meth:`repro.mechanisms.base.HistogramMechanism.run`
    (the single front door for build-histogram + charge + release): row,
    columnar and sharded databases all work, the latter evaluating
    policy masks and bincounts per shard (on the database's worker
    pool when it has one).  One accountant charge covers the trial matrix.
    """
    return mechanism.run(
        db, np.random.default_rng(seed), n_trials=n_trials, query=query,
        policy=policy, accountant=accountant,
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.4g}",
) -> str:
    """Render an aligned plain-text table (no external dependencies)."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rendered)) if rendered else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
