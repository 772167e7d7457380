"""Validated complex matrices.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects with dtype
complex128.
``as_matrix`` is the single entry point that enforces the representation
invariants (two-dimensional, nonempty, every entry finite and at most
``MAX_ENTRY`` in modulus); the spectral work on validated matrices calls
numpy.linalg directly.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

# A dense matrix holds at most 2**24 entries (sequences.MAX_DENSE_ENTRIES),
# so no side of TT*, of a cross-Gram G or of G @ G sums more than 2**24
# products.  Entries of modulus <= 1e64 keep TT* and G below
# 2**24 * 1e128 ~ 1.7e135 and G @ G below 2**24 * (1.7e135)**2 ~ 4.7e277,
# so every product, square and norm the reports take stays finite.
MAX_ENTRY = 1e64
_PART_EDGE = MAX_ENTRY / np.sqrt(2.0)


def as_matrix(entries) -> np.ndarray:
    """Return a validated C-contiguous complex128 matrix, copying only when needed."""
    m = np.asarray(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {m.ndim}-D input")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    # |z| <= sqrt(2) * max(|re z|, |im z|), so real and imaginary parts
    # within MAX_ENTRY / sqrt(2) prove the bound without allocating |m|; NaN
    # fails this screen, and only a failing matrix pays for the exact test
    parts = m.view(np.float64)
    if -_PART_EDGE <= parts.min() and parts.max() <= _PART_EDGE:
        return m
    small = np.abs(m) <= MAX_ENTRY  # False for NaN and infinite entries too
    if not small.all():
        bad = int(np.sum(~(np.isfinite(m.real) & np.isfinite(m.imag))))
        if bad:
            raise ValueError(f"matrix entries must be finite ({bad} non-finite entries)")
        raise ValueError(
            f"matrix entries must be at most MAX_ENTRY = {MAX_ENTRY:g} in modulus "
            f"({int(np.sum(~small))} larger entries)"
        )
    return m
