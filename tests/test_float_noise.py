"""Mironov's floating-point attack on the continuous-noise releases.

Every continuous noise value comes from one of two finite lattices:
``kernels.laplace_transform`` maps a 23-bit uniform to at most 2^23
float32 Laplace values, and ``kernels.one_sided_transform`` maps a
24-bit uniform to at most 2^24 float32 one-sided values.  A release is
``post(x + w)`` computed exactly in float64, so an analyst who knows the
lattice can test whether an output is possible at all under a
neighbouring count (Mironov, "On Significance of the Least Significant
Bits for Differential Privacy", CCS 2012).

This test enumerates both lattices, draws single-bin releases at
``x = 5`` from every mechanism that adds continuous noise to a count —
``laplace``, ``osdp_laplace``, ``osdp_laplace_l1``, the hybrid's
sensitive-only part and DAWA's stage 2 — at eps in {0.01, 1}, and
measures the share of outputs that no lattice point explains under
``x - 1`` or ``x + 1``.  A mechanism whose outputs are impossible under
a neighbour with probability ``p`` is at best ``(eps, p)``-DP, so the
share must stay under ``DELTA``.

Today about 80 % of outputs are impossible under a neighbour, so the
test is a strict ``xfail`` (ROADMAP item 1).  When the noise becomes
floating-point safe it passes, the strict marker turns that into a
failure, and the marker must come off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanisms import kernels
from repro.mechanisms.dawa import Dawa
from repro.mechanisms.laplace import LaplaceHistogram
from repro.mechanisms.osdp_laplace import (
    HybridOsdpLaplace,
    OsdpLaplaceHistogram,
    OsdpLaplaceL1Histogram,
)
from repro.queries.histogram import HistogramInput

#: The largest tolerated share of outputs impossible under a neighbour.
DELTA = 1e-3
X = 5.0
N_RELEASES = 20_000
CHUNK = 1 << 21


def _laplace_lattice(scale: float) -> np.ndarray:
    """Every value ``laplace_transform`` can emit at ``scale``, sorted."""
    mantissas = np.arange(1 << 23, dtype=np.uint32)
    out = np.empty(len(mantissas), dtype=np.float32)
    for lo in range(0, len(mantissas), CHUNK):
        # The kernel keeps the top 23 bits of each raw word.
        bits = (mantissas[lo : lo + CHUNK] << np.uint32(9)).reshape(1, -1)
        out[lo : lo + CHUNK] = kernels.laplace_transform(bits, scale, np.zeros(1))[0]
    return np.sort(out)


def _one_sided_lattice(scale: float) -> np.ndarray:
    """Every value ``one_sided_transform`` can emit at ``scale``, sorted.

    ``Generator.random(dtype=np.float32)`` returns ``k * 2^-24`` for
    ``k`` in ``[0, 2^24)``.
    """
    steps = np.arange(1 << 24, dtype=np.float32)
    out = np.empty(len(steps), dtype=np.float32)
    for lo in range(0, len(steps), CHUNK):
        u = (steps[lo : lo + CHUNK] * np.float32(2.0**-24)).reshape(1, -1)
        out[lo : lo + CHUNK] = kernels.one_sided_transform(u, scale, np.zeros(1))[0]
    return np.sort(out)


def _possible(outputs, lattice, x, post, inverse) -> np.ndarray:
    """Whether each output equals ``post(x + w)`` for some lattice ``w``.

    ``inverse`` undoes ``post`` up to rounding; the lattice points
    around ``inverse(output) - x`` are then checked exactly.
    """
    target = (inverse(outputs) - x).astype(np.float32)
    idx = np.searchsorted(lattice, target)
    ok = np.zeros(len(outputs), dtype=bool)
    for step in range(-2, 3):
        w = lattice[np.clip(idx + step, 0, len(lattice) - 1)].astype(np.float64)
        ok |= post(x + w) == outputs
    return ok


def _identity(v):
    return v


def _clip(v):
    return np.maximum(v, 0.0)


def _counts(x: float) -> HistogramInput:
    return HistogramInput(x=np.array([x]), x_ns=np.array([x]))


def _sensitive_only(x: float) -> HistogramInput:
    return HistogramInput(
        x=np.array([x]), x_ns=np.zeros(1), sensitive_bin_mask=np.array([True])
    )


def _cases(epsilon: float):
    """``(name, mechanism, hist(x), lattice, post, inverse)`` per mechanism."""
    l1 = OsdpLaplaceL1Histogram(epsilon)
    c = l1.median_correction
    hybrid = HybridOsdpLaplace(epsilon)
    dawa = Dawa(epsilon)
    # The hybrid's DP share and DAWA's stage 2 both get half of epsilon.
    assert hybrid.epsilon_dp == dawa.epsilon2
    laplace = _laplace_lattice(2.0 / epsilon)
    half_eps_laplace = _laplace_lattice(2.0 / dawa.epsilon2)
    one_sided = _one_sided_lattice(1.0 / epsilon)
    return [
        ("laplace", LaplaceHistogram(epsilon), _counts,
         laplace, _identity, _identity),
        ("osdp_laplace", OsdpLaplaceHistogram(epsilon), _counts,
         one_sided, _identity, _identity),
        ("osdp_laplace_l1", l1, _counts, one_sided,
         lambda v: np.where(v > 0.0, v + c, 0.0),
         lambda o: np.where(o > 0.0, o - c, -c)),
        ("osdp_hybrid sensitive-only", hybrid, _sensitive_only,
         half_eps_laplace, _clip, _identity),
        ("dawa stage 2", dawa, _counts, half_eps_laplace, _clip, _identity),
    ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: lattice noise reveals its count",
)
def test_no_release_is_impossible_under_a_neighbouring_count():
    shares = {}
    for epsilon in (0.01, 1.0):
        for name, mech, hist, lattice, post, inverse in _cases(epsilon):
            rng = np.random.default_rng([26, int(epsilon * 100)])
            outputs = mech.release_batch(hist(X), rng, N_RELEASES)[:, 0]
            if not _possible(outputs, lattice, X, post, inverse).all():
                pytest.fail(f"{name}: the lattice does not explain its own output")
            shares[name, epsilon] = max(
                float(np.mean(~_possible(outputs, lattice, x, post, inverse)))
                for x in (X - 1.0, X + 1.0)
            )
    leaking = {key: share for key, share in shares.items() if share > DELTA}
    assert not leaking, f"outputs impossible under x +/- 1: {leaking}"
