"""Validated complex matrices and the spectral helpers built on them.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype complex128.
``as_matrix`` is the single entry point that enforces the representation
invariants (two-dimensional, nonempty, every entry finite); the remaining
functions assume validated input and delegate the numerics to LAPACK via
numpy.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10


def as_matrix(entries) -> np.ndarray:
    """Return a validated complex128 matrix, copying only when needed."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {m.ndim}-D input")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        bad = int(np.sum(~(np.isfinite(m.real) & np.isfinite(m.imag))))
        raise ValueError(f"matrix entries must be finite ({bad} non-finite entries)")
    return m


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in nonincreasing order."""
    return np.linalg.svd(m, compute_uv=False)


def hermitian_defect(m: np.ndarray) -> float:
    """||M - M*|| / max(1, ||M||) in the operator norm."""
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"hermitian defect needs a square matrix, got {m.shape}")
    num = float(np.linalg.norm(m - m.conj().T, 2))
    return num / max(1.0, float(np.linalg.norm(m, 2)))


def hermitian_eigenvalues(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix in nondecreasing order.

    The input must be Hermitian up to a relative defect of ``tol``; anything
    beyond that is rejected rather than silently symmetrized.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {m.shape}")
    defect = hermitian_defect(m)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: relative defect {defect:.3e} exceeds {tol:.3e}"
        )
    return np.linalg.eigvalsh(m)


def operator_norm(m: np.ndarray) -> float:
    return float(singular_values(m)[0])


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def min_singular(m: np.ndarray) -> float:
    """Smallest of the min(rows, cols) singular values."""
    return float(singular_values(m)[-1])


def numeric_rank(m: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of singular values above tol * sigma_max; 0 for the zero matrix."""
    return _rank_of(singular_values(m), tol)


def _rank_of(s: np.ndarray, tol: float) -> int:
    """numeric_rank read off already computed nonincreasing singular values."""
    return 0 if s[0] == 0.0 else int(np.sum(s > tol * s[0]))
