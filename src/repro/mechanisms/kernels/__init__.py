"""The raw-speed kernel tier: one contract, two backends.

Every mechanism's hot loop bottoms out in the same handful of
primitives — fused ``(x, x_ns)`` histogram counting and the
inverse-transform noise samplers of
:mod:`repro.mechanisms.batch_sampling`.  This package gives those
primitives a swappable compiled backend:

* ``numpy`` — the pure-ufunc implementations (always available; the
  reference semantics).
* ``numba`` — ``@njit(nogil=True, cache=True)`` loops that fuse the
  per-record passes **and release the GIL**, which is what lets the RPC
  tier's ``--max-readers`` reader concurrency scale on real cores
  (see docs/PERFORMANCE.md §13).

Selection happens once at import time:

* ``REPRO_KERNEL=numpy`` forces the fallback (what every CI lane runs
  anyway: numba installs nowhere they do);
* ``REPRO_KERNEL=numba`` *requires* the compiled backend and raises a
  clear error when numba is not importable (install the ``[compiled]``
  extra);
* unset (or ``auto``) tries numba and silently falls back to numpy.

Tests may rebind at runtime with :func:`use_backend`.

Backend contract
----------------
Integer outputs — the fused ``(x, x_ns)`` count pairs and the binomial
inverse-CDF lookups (pure comparisons, no transcendentals) — are
**byte-identical across backends**.  The float noise transforms
(``laplace_transform``/``one_sided_transform``) are deterministic in
``(seed, backend)`` and distribution-exact, but their last-ulp bits may
differ between backends where libm and numpy's SIMD ``log`` disagree;
a seeded release is therefore byte-for-byte reproducible *per backend*,
and the ``compiled`` test lane asserts cross-backend agreement where it
is structurally guaranteed.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np

__all__ = [
    "KernelBackendError",
    "active_backend",
    "available_backends",
    "hist_pair",
    "int_bin_pair",
    "binomial_lookup",
    "laplace_transform",
    "one_sided_transform",
    "numba_available",
    "select_backend",
    "use_backend",
]

_ENV_VAR = "REPRO_KERNEL"
_BACKEND_NAMES = ("numba", "numpy")


class KernelBackendError(RuntimeError):
    """A kernel backend was requested but cannot be provided."""


# ----------------------------------------------------------------------
# Shared scratch buffers (thread-local, LRU-bounded)
# ----------------------------------------------------------------------

_MAX_SCRATCH_ENTRIES = 16
# Per-thread pools: a buffer handed to one request must never be the
# buffer another thread is concurrently filling (concurrent releases
# are the RPC tier's normal traffic shape).
_scratch_local = threading.local()


def scratch(shape: tuple[int, ...], dtype: type, slot: int = 0) -> np.ndarray:
    """A reusable uninitialized buffer (avoids per-call mmap traffic).

    The pool is LRU-bounded: a miss beyond the bound evicts only the
    oldest entry (dict insertion order), and hits are touched to the
    back — alternating request shapes recycle cold buffers instead of
    dumping the whole pool.
    """
    pool: dict[tuple, np.ndarray] | None = getattr(
        _scratch_local, "pool", None
    )
    if pool is None:
        pool = _scratch_local.pool = {}
    key = (shape, np.dtype(dtype).str, slot)
    buf = pool.pop(key, None)
    if buf is None:
        if len(pool) >= _MAX_SCRATCH_ENTRIES:
            pool.pop(next(iter(pool)))
        buf = np.empty(shape, dtype=dtype)
    pool[key] = buf
    return buf


# ----------------------------------------------------------------------
# Backend loading and selection
# ----------------------------------------------------------------------

_lock = threading.Lock()
_active = None  # the active backend module
_numba_error: str | None = None


def numba_available() -> bool:
    """True when the numba backend can be imported and compiled."""
    try:
        _load("numba")
        return True
    except KernelBackendError:
        return False


def _load(name: str):
    """Import (and memoize) a backend module by name."""
    global _numba_error
    if name == "numpy":
        from repro.mechanisms.kernels import numpy_backend

        return numpy_backend
    if name == "numba":
        if _numba_error is not None:
            raise KernelBackendError(_numba_error)
        try:
            from repro.mechanisms.kernels import numba_backend

            return numba_backend
        except ImportError as exc:
            _numba_error = (
                "the numba kernel backend is unavailable "
                f"({exc}); install the [compiled] extra or set "
                f"{_ENV_VAR}=numpy"
            )
            raise KernelBackendError(_numba_error) from exc
    raise KernelBackendError(
        f"unknown kernel backend {name!r}; choose from "
        f"{list(_BACKEND_NAMES) + ['auto']}"
    )


def select_backend(name: str | None = None) -> str:
    """Activate a backend; returns the active backend's name.

    ``None``/``"auto"`` prefers numba and falls back to numpy;
    explicit names are strict (a missing numba raises
    :class:`KernelBackendError` instead of silently degrading).
    """
    global _active
    if name is None or name == "auto" or name == "":
        try:
            module = _load("numba")
        except KernelBackendError:
            module = _load("numpy")
    else:
        module = _load(name)
    with _lock:
        _active = module
    return module.name


def active_backend() -> str:
    """The name of the backend serving the kernel calls (``numpy``/``numba``)."""
    return _active.name


def available_backends() -> tuple[str, ...]:
    """The backends importable in this environment."""
    names = ["numpy"]
    if numba_available():
        names.insert(0, "numba")
    return tuple(names)


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily rebind the active backend (tests/benchmarks only)."""
    global _active
    previous = _active
    select_backend(name)
    try:
        yield
    finally:
        with _lock:
            _active = previous


# ----------------------------------------------------------------------
# The kernel surface (dispatches to the active backend)
# ----------------------------------------------------------------------


def hist_pair(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(x, x_ns)`` int64 count pair in one pass over the records.

    ``x[b]`` counts every record in bin ``b``; ``x_ns[b]`` counts the
    records whose ``ns_mask`` entry is True.  Indices outside
    ``[0, n_bins)`` raise ``ValueError`` (a binning that silently drops
    records must fail loudly).  Byte-identical across backends.
    """
    bin_indices = np.ascontiguousarray(bin_indices, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    bad = _check_bin_range(bin_indices, n_bins)
    if bad is not None:
        raise ValueError(
            f"record mapped to bin {bad}, outside [0, {n_bins})"
        )
    return _active.hist_pair(bin_indices, ns_mask, int(n_bins))


def int_bin_pair(
    values: np.ndarray,
    low: int,
    width: int,
    high: int,
    n_bins: int,
    ns_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fully fused equal-width integer binning + ``(x, x_ns)`` counts.

    The single-pass form of ``IntegerBinning.bin_indices`` followed by
    :func:`hist_pair` — no per-record index array is materialized on
    the compiled backend.  ``values`` must lie in ``[low, high)``
    (checked against ``high`` itself, not the last bin's upper edge, so
    a ragged final bin rejects exactly what the unfused binning
    rejects).  Byte-identical across backends, and to the unfused path.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    low = int(low)
    width = int(width)
    high = int(high)
    x, x_ns, bad = _active.int_bin_pair(
        values, low, width, high, int(n_bins), ns_mask
    )
    if bad >= 0:
        offender = int(values[bad])
        raise ValueError(
            f"value {offender!r} outside [{low}, {high})"
        )
    return x, x_ns


def binomial_lookup(
    scaled: np.ndarray,
    inverse: np.ndarray,
    k_flat: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Invert the group-lifted binomial CDF table for a uniform matrix.

    ``u`` is clamped off the lattice edges, lifted by its column's
    group id, and inverted by binary search over ``scaled`` (the
    semantics of ``np.searchsorted(..., side="left")`` — pure float
    comparisons, so the result is byte-identical across backends).
    Returns float64 outcome rows; consumes ``u`` as scratch.
    """
    return _active.binomial_lookup(scaled, inverse, k_flat, u)


def laplace_transform(
    bits: np.ndarray, scale: float, base: np.ndarray
) -> np.ndarray:
    """``base + Lap(scale)`` from raw 23-bit uniforms, as float64 rows.

    ``bits`` is a ``(rows, cols)`` uint32 matrix of raw generator words
    (consumed as scratch); ``base`` broadcasts along rows.  See
    :func:`repro.mechanisms.batch_sampling.laplace_rows` for the
    transform's derivation.  Deterministic per backend.
    """
    return _active.laplace_transform(bits, float(scale), base)


def one_sided_transform(
    u: np.ndarray, scale: float, values: np.ndarray
) -> np.ndarray:
    """``values + scale * ln(u)`` (one-sided Laplace), as float64 rows.

    ``u`` is a ``(rows, cols)`` float32 uniform matrix already drawn
    from the caller's generator (consumed as scratch); ``values``
    broadcasts along rows.  Deterministic per backend.
    """
    return _active.one_sided_transform(u, float(scale), values)


def _check_bin_range(bin_indices: np.ndarray, n_bins: int) -> int | None:
    """The first out-of-range bin index, or None when all are valid."""
    if not len(bin_indices):
        return None
    lo = bin_indices.min()
    hi = bin_indices.max()
    if lo >= 0 and hi < n_bins:
        return None
    return int(lo if lo < 0 else hi)


# Import-time selection: honor REPRO_KERNEL, default to auto-detect.
_requested = os.environ.get(_ENV_VAR)
if _requested is not None and _requested not in ("", "auto"):
    if _requested not in _BACKEND_NAMES:
        raise KernelBackendError(
            f"{_ENV_VAR}={_requested!r} names no kernel backend; choose "
            f"from {list(_BACKEND_NAMES) + ['auto']}"
        )
    select_backend(_requested)
else:
    select_backend(None)
