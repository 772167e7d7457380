"""Validated complex matrices.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects with dtype
complex128.
``as_matrix`` is the single entry point that enforces the representation
invariants (two-dimensional, nonempty, every entry finite and at most
``MAX_ENTRY`` in modulus); the spectral work on validated matrices calls
numpy.linalg directly, on a matrix's float64 part when none of its entries
has a nonzero imaginary part (real LAPACK and GEMM, ~3x faster).
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10

# A dense matrix holds at most 2**24 entries (sequences.MAX_DENSE_ENTRIES),
# so no side of TT*, of a cross-Gram G or of G @ G sums more than 2**24
# products.  Entries of modulus <= 1e64 keep TT* and G below
# MAX_GRAM_ENTRY = 2**24 * 1e128 ~ 1.7e135 and G @ G below 2**24 * (1.7e135)**2
# ~ 4.7e277, so every product, square and norm the reports take stays finite.
# The block route sums at most MAX_SWEEP_TRUNCATION = 1e7 < 2**24 products.
MAX_ENTRY = 1e64
MAX_GRAM_ENTRY = float(1 << 24) * MAX_ENTRY**2


def as_matrix(entries, *, gram: bool = False) -> np.ndarray:
    """Return a validated C-contiguous complex128 matrix, copying only when
    needed; ``gram`` holds entries to ``MAX_GRAM_ENTRY``, not ``MAX_ENTRY``."""
    m = np.asarray(entries, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {m.ndim}-D input")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    _refuse(*_faults(m, MAX_GRAM_ENTRY if gram else MAX_ENTRY), gram=gram)
    return m


def _faults(m: np.ndarray, bound: float = MAX_ENTRY) -> tuple[int, int]:
    """The counts of non-finite entries of ``m`` and of those past ``bound`` in modulus."""
    # |z| <= sqrt(2) * max(|re z|, |im z|), so real and imaginary parts
    # within bound / sqrt(2) prove the bound without allocating |m|; NaN
    # fails this screen, and only a failing array pays for the exact test
    parts = m.view(np.float64)
    edge = bound / np.sqrt(2.0)
    if -edge <= parts.min() and parts.max() <= edge:
        return 0, 0
    finite = np.isfinite(m.real) & np.isfinite(m.imag)
    return int(np.sum(~finite)), int(np.sum(~(np.abs(m) <= bound)))  # NaN is not <= bound


def _refuse(non_finite: int, larger: int, *, gram: bool = False) -> None:
    """Refuse entries with these ``_faults`` counts as ``as_matrix`` does."""
    bound, name = (MAX_GRAM_ENTRY, "MAX_GRAM_ENTRY") if gram else (MAX_ENTRY, "MAX_ENTRY")
    what = "cross-Gram" if gram else "matrix"
    if non_finite:
        raise ValueError(f"{what} entries must be finite ({non_finite} non-finite entries)")
    if larger:
        raise ValueError(
            f"{what} entries must be at most {name} = {bound:g} in modulus "
            f"({larger} larger entries)"
        )
