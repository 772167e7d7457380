"""Frame bounds, cross-Gram operators, and duals.

In the truncation model a sequence is its synthesis matrix T (columns are
the vectors), so the analysis operator is T*, the frame operator is TT*,
the Gram matrix is T*T, and the cross-Gram of a pair (f, g) is T_g* T_f,
whose (j, k) entry is <f_k, g_j>.  Frame bounds are read off the singular
values of T, never off the eigenvalues of TT*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, sequences
from .sequences import RealizedSequence


class NotAFrameError(ValueError):
    """A frame was required; carries the failing lower bound."""

    def __init__(self, message: str, lower: float):
        super().__init__(message)
        self.lower = lower


@dataclass(frozen=True)
class FrameBounds:
    """Optimal truncation-level frame bounds: the extreme squared singular
    values of the synthesis matrix, which are the extreme eigenvalues of
    the frame operator S = TT*."""

    lower: float
    upper: float
    spans_ambient: bool
    tol: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper, got {self.lower}, {self.upper}"
            )


def bounds_from_singular_values(s: np.ndarray, dim: int, tol: float) -> FrameBounds:
    """Frame bounds of a dim-row synthesis matrix from its nonincreasing
    singular values: B = sigma_max^2, and A = sigma_dim^2, or 0 when there
    are fewer than dim of them (fewer vectors than dimensions).

    Squaring singular values keeps A to the relative accuracy of the SVD;
    eigenvalues of S = TT* would lose every A below eps * B to rounding.
    """
    # both squares are taken by one multiplication: pow(x, 2) may differ
    # from x * x by an ulp, which would put A above B when sigma_min = sigma_max
    top, bottom = float(s[0]), float(s[-1])
    upper = top * top
    lower = bottom * bottom if len(s) == dim else 0.0
    return FrameBounds(
        lower=lower,
        upper=upper,
        spans_ambient=bool(lower > tol * upper),
        tol=tol,
    )


def cross_gram(f: RealizedSequence, g: RealizedSequence) -> np.ndarray:
    """Cross-Gram of the pair: g.count x f.count with entries <f_k, g_j>,
    refused before allocation when it exceeds ``MAX_DENSE_ENTRIES``."""
    if f.dim != g.dim:
        raise ValueError(
            f"sequences live in different ambient dimensions: {f.dim} vs {g.dim}"
        )
    sequences._check_dense(g.count, f.count, "cross-Gram")
    return g.columns.conj().T @ f.columns


def frame_bounds(seq: RealizedSequence, tol: float = linalg.DEFAULT_TOL) -> FrameBounds:
    """Optimal bounds A, B from the singular values of the synthesis matrix."""
    s = np.linalg.svd(seq.columns, compute_uv=False)
    return bounds_from_singular_values(s, seq.dim, tol)


def canonical_dual(seq: RealizedSequence, tol: float = linalg.DEFAULT_TOL) -> RealizedSequence:
    """Canonical dual sequence: columns of S^{-1} T, via a linear solve."""
    return RealizedSequence(_dual_columns(seq.columns, frame_bounds(seq, tol)))


def alternate_dual(
    f: RealizedSequence,
    seed: int,
    *,
    scale: float = 1.0,
    tol: float = linalg.DEFAULT_TOL,
) -> RealizedSequence:
    """A dual of ``f``: canonical dual plus a seeded component of the
    analysis-range complement, scaled by ``scale`` (0 gives the canonical dual)."""
    path = sequences._seed_path(seed)
    return RealizedSequence(_dual_columns(f.columns, frame_bounds(f, tol), path, scale))


def _dual_columns(t: np.ndarray, bounds: FrameBounds, path=(), scale: float = 0.0) -> np.ndarray:
    """Dual columns of the frame ``t`` with bounds ``bounds``: S^{-1} T, plus ``scale``
    times a component of the analysis-range complement drawn from ``path``."""
    if not bounds.spans_ambient:
        raise NotAFrameError(
            f"sequence is not a frame at tolerance {bounds.tol:.3e}: "
            f"lower bound {bounds.lower:.3e} against upper bound {bounds.upper:.3e}",
            lower=bounds.lower,
        )
    dual = np.linalg.solve(t @ t.conj().T, t)
    if scale != 0.0:
        # analysis range projection P = T* S^-1 T; rows outside it preserve T D* = I
        proj = t.conj().T @ dual
        y = sequences._dual_draw(path, t.shape)
        dual = dual + scale * (y @ (np.eye(t.shape[1]) - proj))
    return dual
