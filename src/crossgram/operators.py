"""Synthesis, analysis, frame, Gram, and cross-Gram operators, and duals.

In the truncation model a sequence is its synthesis matrix T (columns are
the vectors), so the analysis operator is T*, the frame operator is TT*,
the Gram matrix is T*T, and the cross-Gram of a pair (f, g) is T_g* T_f,
whose (j, k) entry is <f_k, g_j>.
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
    """Optimal truncation-level frame bounds from the frame operator spectrum."""

    lower: float
    upper: float
    spans_ambient: bool
    tol: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper, got {self.lower}, {self.upper}"
            )


def synthesis(seq: RealizedSequence) -> np.ndarray:
    """Synthesis matrix: dim x count, column k is the k-th vector."""
    return seq.columns


def analysis(seq: RealizedSequence) -> np.ndarray:
    """Analysis matrix: the adjoint of synthesis."""
    return seq.columns.conj().T


def frame_operator(seq: RealizedSequence) -> np.ndarray:
    """S = T T*, a dim x dim Hermitian PSD matrix."""
    return seq.columns @ analysis(seq)


def gram(seq: RealizedSequence) -> np.ndarray:
    """T* T, a count x count Hermitian PSD matrix."""
    return analysis(seq) @ seq.columns


def cross_gram(f: RealizedSequence, g: RealizedSequence) -> np.ndarray:
    """Cross-Gram of the pair: g.count x f.count with entries <f_k, g_j>."""
    if f.dim != g.dim:
        raise ValueError(
            f"sequences live in different ambient dimensions: {f.dim} vs {g.dim}"
        )
    return analysis(g) @ f.columns


def _bounds_of(frame_op: np.ndarray, tol: float) -> FrameBounds:
    # S = TT* is Hermitian by construction, so it needs no Hermitian check;
    # a tiny negative smallest eigenvalue is floating-point noise on a PSD
    # matrix and is clamped to zero
    evals = np.linalg.eigvalsh(frame_op)
    lower = max(float(evals[0]), 0.0)
    upper = max(float(evals[-1]), 0.0)
    return FrameBounds(
        lower=lower,
        upper=upper,
        spans_ambient=bool(lower > tol * upper),
        tol=tol,
    )


def frame_bounds(seq: RealizedSequence, tol: float = linalg.DEFAULT_TOL) -> FrameBounds:
    """Optimal bounds A, B from the frame operator eigenvalues."""
    return _bounds_of(frame_operator(seq), tol)


def canonical_dual(seq: RealizedSequence, tol: float = linalg.DEFAULT_TOL) -> RealizedSequence:
    """Canonical dual sequence: columns of S^{-1} T, via a linear solve."""
    frame_op = frame_operator(seq)
    bounds = _bounds_of(frame_op, tol)
    if not bounds.spans_ambient:
        raise NotAFrameError(
            f"sequence is not a frame at tolerance {tol:.3e}: "
            f"lower bound {bounds.lower:.3e} against upper bound {bounds.upper:.3e}",
            lower=bounds.lower,
        )
    dual = np.linalg.solve(frame_op, seq.columns)
    return RealizedSequence(
        dual, f"canonical_dual({seq.spec_ref})", seq.truncation
    )


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
    t = f.columns
    dual = canonical_dual(f, tol).columns
    if scale != 0.0:
        # analysis range projection P = T* S^-1 T; rows outside it preserve T D* = I
        proj = t.conj().T @ dual
        rng = np.random.default_rng([*path, sequences._STREAM_DUAL])
        y = sequences._complex_gaussian(rng, t.shape)
        dual = dual + scale * (y @ (np.eye(t.shape[1]) - proj))
    return RealizedSequence(
        dual,
        f"alternate_dual({f.spec_ref}, seed={seed}, scale={scale:g})",
        f.truncation,
    )


def hs_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt norm: the Frobenius norm of the matrix."""
    return linalg.frobenius_norm(m)
