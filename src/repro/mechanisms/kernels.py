"""The raw-speed kernel tier: fused counts and the raw-bits samplers.

Every mechanism's hot loop bottoms out in the same handful of
primitives — fused ``(x, x_ns)`` histogram counting and the
inverse-transform noise samplers of
:mod:`repro.mechanisms.batch_sampling`.  They live here as plain numpy
ufunc pipelines.  The count kernels fuse the two-bincount
``(x, x_ns)`` construction into a single ``np.bincount`` pass over
interleaved ``2*bin + mask`` codes (exact integer arithmetic, so the
fusion is byte-identical to the unfused pair).

Callers reach the kernels as attributes of this module
(``kernels.laplace_transform(...)``), which is where ``bench/layers.py``
hooks its spans.

Reproducibility
---------------
There is one implementation, so a seeded release is byte-for-byte
reproducible unconditionally on a given host.  The integer outputs —
the fused count pairs and the binomial inverse-CDF lookups (pure
comparisons, no transcendentals) — are identical on every platform;
the float noise transforms (``laplace_transform`` /
``one_sided_transform``) are distribution-exact and deterministic in
the seed, and their last ulp follows numpy's SIMD ``log`` on the host.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "active_backend",
    "hist_pair",
    "int_bin_pair",
    "binomial_guide",
    "binomial_lookup",
    "binomial_zero",
    "laplace_transform",
    "one_sided_transform",
]

# ----------------------------------------------------------------------
# Bit-level constants of the transforms
# ----------------------------------------------------------------------

_SIGN32 = np.uint32(0x80000000)
_EXP_ONE32 = np.uint32(0x3F800000)  # f32 bit pattern of 1.0
_MANTISSA_SHIFT = np.uint32(9)
_LN4_32 = np.float32(np.log(4.0))
# log(0) guards clamp the zero lattice cell to the *adjacent lattice
# point* — the natural inverse-transform behavior — rather than to an
# arbitrary tiny value (which would emit ~69-sigma outliers with the
# lattice's 2^-23 probability instead of the true ~1e-13 tail mass).
_MIN_U32 = np.float32(2.0**-24)     # rng.random(float32) lattice step
_MIN_TSQ32 = np.float32(2.0**-46)   # (2^-23)^2: smallest nonzero t^2

# Uniforms are clamped away from the exact 0/1 lattice edges so that
# ``u + group`` can never round onto a group boundary; the ~2^-26
# edge-cell distortion is below the f32 uniform granularity the other
# kernels run on.
_BINOM_U_EDGE = 2.0**-26


def active_backend() -> str:
    """``"numpy"`` — the one implementation (``ping`` and ``bench/`` report it)."""
    return "numpy"


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
# Count kernels
# ----------------------------------------------------------------------


def _count_pair(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """One fused bincount over ``2*bin + mask`` codes (validated input)."""
    fused = bin_indices << 1
    fused += ns_mask
    counts = np.bincount(fused, minlength=2 * n_bins)
    x_ns = np.ascontiguousarray(counts[1::2]).astype(np.int64, copy=False)
    x = (counts[::2] + x_ns).astype(np.int64, copy=False)
    return x, x_ns


def _check_bin_range(bin_indices: np.ndarray, n_bins: int) -> int | None:
    """The first out-of-range bin index, or None when all are valid."""
    if not len(bin_indices):
        return None
    lo = bin_indices.min()
    hi = bin_indices.max()
    if lo >= 0 and hi < n_bins:
        return None
    return int(lo if lo < 0 else hi)


def hist_pair(
    bin_indices: np.ndarray, ns_mask: np.ndarray, n_bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fused ``(x, x_ns)`` int64 count pair in one pass over the records.

    ``x[b]`` counts every record in bin ``b``; ``x_ns[b]`` counts the
    records whose ``ns_mask`` entry is True.  Indices outside
    ``[0, n_bins)`` raise ``ValueError`` (a binning that silently drops
    records must fail loudly).
    """
    bin_indices = np.ascontiguousarray(bin_indices, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    bad = _check_bin_range(bin_indices, n_bins)
    if bad is not None:
        raise ValueError(
            f"record mapped to bin {bad}, outside [0, {n_bins})"
        )
    return _count_pair(bin_indices, ns_mask, int(n_bins))


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
    :func:`hist_pair`.  ``values`` must lie in ``[low, high)`` (checked
    against ``high`` itself, not the last bin's upper edge, so a ragged
    final bin rejects exactly what the unfused binning rejects).
    Byte-identical to the unfused path.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    ns_mask = np.ascontiguousarray(ns_mask, dtype=bool)
    low = int(low)
    width = int(width)
    high = int(high)
    in_range = (values >= low) & (values < high)
    if not np.all(in_range):
        offender = int(values[np.flatnonzero(~in_range)[0]])
        raise ValueError(
            f"value {offender!r} outside [{low}, {high})"
        )
    idx = values - low
    if width != 1:
        idx //= width
    return _count_pair(idx, ns_mask, int(n_bins))


# ----------------------------------------------------------------------
# Noise transforms (the caller draws; these only transform)
# ----------------------------------------------------------------------


def _lift(u: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Clamp ``u`` (in place) and lift it by its column's group id.

    Group ``g``'s query lies strictly inside ``(g, g + 1)``: above every
    earlier group's entries, whose last is exactly ``g``.
    """
    np.clip(u, _BINOM_U_EDGE, 1.0 - _BINOM_U_EDGE, out=u)
    u += inverse[np.newaxis, :]
    return u


def _guide_cell(values: np.ndarray, cells: int) -> np.ndarray:
    """``ceil(values * cells)``, the one float operation table and query share."""
    out = values * cells  # exact: cells is a power of two
    return np.ceil(out, out=out)


def binomial_guide(scaled: np.ndarray, n_groups: int) -> tuple[np.ndarray, int]:
    """The guide index of a group-lifted CDF table, and its cells per group.

    About one cell per entry, a power of two per group.  ``guide[c]``
    counts the entries in cells below ``c``, all of them below any query
    in cell ``c``.
    """
    cells = 1 << math.ceil(math.log2(len(scaled) / n_groups))
    keys = _guide_cell(scaled, cells)
    return np.searchsorted(keys, np.arange(n_groups * cells + 1)), cells


def binomial_lookup(
    scaled: np.ndarray,
    guide: np.ndarray,
    cells: int,
    inverse: np.ndarray,
    k_flat: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Invert the group-lifted binomial CDF table for a uniform matrix.

    Each clamped, lifted query starts at its cell's guide entry, the
    answer unless an entry shares its cell; only those queries (~1e-4 at
    ε = 1e-6, a few percent at ε ≥ 0.1 on DPBench; stepping them forward
    first measured slower) go to ``np.searchsorted``.  Equals
    ``searchsorted(scaled, u + inverse, side="left")`` exactly — pure
    float comparisons, the same on every platform.  Returns float64
    outcome rows; consumes ``u`` as scratch.
    """
    q = _lift(u, inverse).ravel()
    idx = guide[_guide_cell(q, cells).astype(np.intp)]
    rest = np.flatnonzero(scaled[idx] < q)
    idx[rest] = np.searchsorted(scaled, q[rest], side="left")
    return k_flat[idx].reshape(u.shape).astype(np.float64, copy=False)


def binomial_zero(
    zero_cut: np.ndarray, inverse: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """``binomial_lookup(...) == 0`` for the same uniforms, without the lookup.

    ``zero_cut[g]`` is group ``g``'s first lifted entry if its window
    starts at outcome 0, else ``-inf``; the lookup returns that entry
    exactly when ``q <= zero_cut[g]``.  Consumes ``u`` as scratch.
    """
    return _lift(u, inverse) <= zero_cut[inverse]


def laplace_transform(
    bits: np.ndarray, scale: float, base: np.ndarray
) -> np.ndarray:
    """``base + Lap(scale)`` from raw 23-bit uniforms, as float64 rows.

    ``bits`` is a ``(rows, cols)`` uint32 matrix of raw generator words
    (consumed as scratch); ``base`` broadcasts along rows.  See
    :func:`repro.mechanisms.batch_sampling.laplace_rows` for the
    transform's derivation.
    """
    scale = float(scale)
    shape = bits.shape
    w = scratch(shape, np.float32, 1)
    np.right_shift(bits, _MANTISSA_SHIFT, out=bits)
    np.bitwise_or(bits, _EXP_ONE32, out=bits)
    t = bits.view(np.float32)                 # uniform on [1, 2)
    t -= np.float32(1.5)                      # t in [-1/2, 1/2)
    np.multiply(t, t, out=w)                  # t^2
    np.maximum(w, _MIN_TSQ32, out=w)          # guard log(0) at t = 0
    np.log(w, out=w)
    np.add(w, _LN4_32, out=w)                 # ln(4 t^2) = 2 ln|2t|
    np.multiply(w, np.float32(0.5 * scale), out=w)   # scale * ln|2t| <= 0
    tv = t.view(np.uint32)
    wv = w.view(np.uint32)
    np.bitwise_and(tv, _SIGN32, out=tv)       # sign(t) as a bit mask
    np.bitwise_xor(wv, tv, out=wv)            # random +/- magnitude
    out = np.empty(shape)
    np.add(base, w, out=out)                  # fused f32 -> f64 widen + add
    return out


def one_sided_transform(
    u: np.ndarray, scale: float, values: np.ndarray
) -> np.ndarray:
    """``values + scale * ln(u)`` (one-sided Laplace), as float64 rows.

    ``u`` is a ``(rows, cols)`` float32 uniform matrix already drawn
    from the caller's generator (consumed as scratch); ``values``
    broadcasts along rows.  ``scale * ln(u)`` runs in float32 and is
    widened in the final add.
    """
    np.maximum(u, _MIN_U32, out=u)            # guard log(0) at u = 0
    np.log(u, out=u)
    np.multiply(u, np.float32(float(scale)), out=u)  # scale * ln u <= 0
    out = np.empty(u.shape)
    np.add(values, u, out=out)
    return out
