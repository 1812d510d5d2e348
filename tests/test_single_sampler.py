"""One sampler per noise: no ``.laplace(`` / ``.exponential(`` call
outside the sampler modules.

``repro.mechanisms.batch_sampling`` draws every Laplace and one-sided
Laplace value the mechanisms, queries and experiments release, through
the transforms in ``repro.mechanisms.kernels``.  A second sampler (a
``Generator.laplace`` call, say) would carry its own floating-point
lattice that ``tests/test_float_noise.py`` does not enumerate, and a fix
to the noise could miss it.  ``repro.data.telemetry`` draws event gaps
with ``Generator.exponential``; those are traffic, not noise, and the
data package is out of scope.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
SCOPE = ("mechanisms", "queries", "evaluation")
SAMPLER_MODULES = {
    Path("mechanisms/batch_sampling.py"),
    Path("mechanisms/kernels.py"),
}
FORBIDDEN = {"laplace", "exponential"}


def _sampler_calls(source: str) -> list[int]:
    """Line numbers of ``<anything>.laplace(...)`` / ``.exponential(...)``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FORBIDDEN
    ]


def test_the_guard_sees_a_sampler_call():
    source = "import numpy as np\nx = np.random.default_rng(0).laplace(1.0)\n"
    assert _sampler_calls(source) == [2]
    assert _sampler_calls("y = rng.exponential(scale=2.0, size=3)\n") == [1]
    assert _sampler_calls("z = laplace_rows(rng, 1.0, base, 1)\n") == []


def test_noise_is_drawn_only_by_the_sampler_modules():
    offenders = []
    checked = 0
    for package in SCOPE:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = path.relative_to(SRC)
            if relative in SAMPLER_MODULES:
                continue
            checked += 1
            offenders += [
                f"{relative}:{line}" for line in _sampler_calls(path.read_text())
            ]
    assert checked > 20
    assert not offenders, f"noise drawn outside batch_sampling/kernels: {offenders}"
