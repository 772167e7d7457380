"""Frame bounds, cross-Gram operators, and duals, on two routes.

In the truncation model a sequence is its synthesis matrix T (columns are
the vectors), so the analysis operator is T*, the frame operator is TT*,
the Gram matrix is T*T, and the cross-Gram of a pair (f, g) is T_g* T_f,
whose (j, k) entry is <f_k, g_j>.  Frame bounds are read off the singular
values of T, never off the eigenvalues of TT*.  The dense route forms these
matrices; the block route reads them off term arrays with one basis index
per term, where S is diagonal and G has one rank-one block per index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    values of T, which are the extreme eigenvalues of S = TT*.  The
    sequence spans the ambient space when lower exceeds tol * upper."""

    lower: float
    upper: float
    tol: float
    spans_ambient: bool = field(init=False)

    def __post_init__(self):
        lower, upper, tol = self.lower, self.upper, self.tol
        if not 0.0 <= lower <= upper:
            raise ValueError(f"bounds must satisfy 0 <= lower <= upper, got {lower}, {upper}")
        object.__setattr__(self, "spans_ambient", bool(lower > tol * upper))


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
    lower = bottom * bottom if len(s) == dim else 0.0
    return FrameBounds(lower, top * top, tol)


def _check_pair(f_dim: int, g_dim: int, counts: tuple[int, int] | None = None) -> None:
    """Refuse a pair in two ambient dimensions, then, given ``counts``, of two counts."""
    if f_dim != g_dim:
        raise ValueError(f"sequences live in different ambient dimensions: {f_dim} vs {g_dim}")
    if counts and counts[0] != counts[1]:
        raise ValueError(f"dual-pair counts differ: {counts[0]} vs {counts[1]}")


def cross_gram(f: RealizedSequence, g: RealizedSequence) -> np.ndarray:
    """Cross-Gram of the pair: g.count x f.count with entries <f_k, g_j>,
    refused before allocation when it exceeds ``MAX_DENSE_ENTRIES``."""
    _check_pair(f.dim, g.dim)
    sequences._check_dense(g.count, f.count, "cross-Gram")
    return g.columns.conj().T @ f.columns


def frame_bounds(seq: RealizedSequence, tol: float = linalg.DEFAULT_TOL) -> FrameBounds:
    """Optimal bounds A, B from the singular values of the synthesis matrix
    (a random spec's realization keeps those its condition screen computed)."""
    s = seq._singular_values
    if s is None:
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


def _basis(base: int) -> slice:
    """The bins that stand for basis vectors: all but bin 0, and bin 0 too,
    index ``base``, which no term reaches, unless ``base`` is 0."""
    return slice(0 if base else 1, None)


def _fold(sums: np.ndarray, idx: np.ndarray, weights, stride=None) -> None:
    """Add ``weights`` into the bins ``sums``, bin i holding index i, one term
    at a time, in term order, as ``np.bincount`` does: terms folded chunk by
    chunk give the bits of ``np.bincount`` of them all.  Given the ``stride`` of
    evenly spaced ``idx``, one slice add: the indices are distinct, so each bin
    takes the one addition ``np.add.at`` would make, and the bits are the same."""
    if stride:
        sums[idx[0] : idx[-1] + 1 : stride] += weights
    else:
        np.add.at(sums, idx, weights)


def _block_spectrum(f_sq: np.ndarray, g_sq: np.ndarray, full: int, step: int):
    """op_norm, sigma_min and hs from two sides' bins of |c|^2 sums, whose products are
    the blocks' squared singular values, read ``step`` (>= 128) bins at a time; ``full``
    is min(rows, cols)."""
    total, top, least, rank = _spectrum_sums(f_sq, g_sq, 0, len(f_sq), max(step, 128))
    return float(np.sqrt(top)), float(np.sqrt(least)) if rank == full else 0.0, float(np.sqrt(total))


def _spectrum_sums(f_sq: np.ndarray, g_sq: np.ndarray, lo: int, hi: int, leaf: int):
    """Sum, max, least positive entry and number of positive entries of f_sq * g_sq
    over bins lo .. hi - 1, split as numpy's pairwise sum of a float64 array is (at
    half, down to a multiple of 8): leaves of >= 128 bins give ``np.sum``'s bits."""
    if hi - lo <= leaf:
        sq = f_sq[lo:hi] * g_sq[lo:hi]
        total, top, zero = np.add.reduce(sq), sq.max(), sq == 0.0
        rank = len(sq) - np.count_nonzero(zero)
        if rank < len(sq):  # the least positive entry is then the least one
            np.putmask(sq, zero, np.inf)
        return total, top, sq.min(), rank
    mid = lo + (hi - lo) // 2 // 8 * 8
    a, b = _spectrum_sums(f_sq, g_sq, lo, mid, leaf), _spectrum_sums(f_sq, g_sq, mid, hi, leaf)
    return a[0] + b[0], max(a[1], b[1]), min(a[2], b[2]), a[3] + b[3]


def _term_gram(fi: np.ndarray, gi: np.ndarray, a: np.ndarray, b: np.ndarray):
    """G = T_g* T_f of two term lists: conj(b_j) a_k where g's term j and f's
    term k share an index, else 0; a zero is +0.0, as a GEMM sums it, not -0.0."""
    m = np.zeros((len(gi), len(fi)), np.result_type(a, b))
    np.multiply(b.conj()[:, None], a, out=m, where=gi[:, None] == fi)
    m += 0.0
    return m


def _term_frame(fi: np.ndarray, gi: np.ndarray, a: np.ndarray, b: np.ndarray, dim: int):
    """T_f T_g* of two term lists of one count in C^dim: (d, d') sums
    a_k conj(b_k), in term order, over the terms k with f on d and g on d'."""
    r = np.zeros((dim, dim), np.result_type(a, b))
    np.add.at(r, (fi - 1, gi - 1), a * b.conj())
    return r


def _fold_pairing(p: np.ndarray, at: np.ndarray, a: np.ndarray, b: np.ndarray, stride=None) -> None:
    """Fold into the diagonal p of T_f T_g*, p_i = sum a conj(b) over bin i's terms."""
    if p.dtype == float:  # two real sides
        return _fold(p, at, a * b, stride)
    # the parts of p as separate real products, so that a = b gives Im p = 0
    _fold(p.real, at, a.real * b.real + a.imag * b.imag, stride)
    _fold(p.imag, at, a.imag * b.real - a.real * b.imag, stride)


def _fold_q(sums: np.ndarray, at: np.ndarray, a: np.ndarray, b: np.ndarray, p=None, alpha=None):
    """Fold the terms of blocks of 2+ terms into ``sums``: |a|^2, then, given p and
    those sums alpha, |r|^2 (r: b off a); q = sqrt(alpha * sum |r|^2) is
    sqrt(|a|^2 |b|^2 - |p|^2) without cancellation, and a = b gives r = 0 exactly."""
    if p is None:
        _fold(sums, at, a.real * a.real + a.imag * a.imag)
        return
    alpha_k, toward = alpha[at], np.zeros(len(at), complex)  # conj(p) / |a|^2
    np.divide(p.real[at], alpha_k, out=toward.real, where=alpha_k > 0.0)
    if p.dtype == complex:  # a float64 p has no imaginary part to read
        np.divide(-p.imag[at], alpha_k, out=toward.imag, where=alpha_k > 0.0)
    _fold(sums, at, np.abs(b - a * toward) ** 2)


def _block_square(p: np.ndarray, terms: np.ndarray, q, step: int):
    """||G - G*||, ||G^2 - G||, ||G - I|| and the least Re p over the occupied bins
    of G on a shared index array, from p, the term count and q of each bin, read
    ``step`` bins at a time (extremes are exact in any blocking); a Hermitian G
    has the eigenvalues Re p and 0."""
    herm, idem, ident, least = 0.0, 0.0, 0.0, np.inf
    for lo in range(0, len(p), step):
        pb, tb, qb = p[lo : lo + step], terms[lo : lo + step], q[lo : lo + step] if np.ndim(q) else q
        # in an orthonormal basis of a block that starts at conj(a), G is
        # [[p, 0], [q, 0]] and 0 elsewhere: G - G* is [[2i Im p, -q], [q, 0]],
        # G^2 - G is (p - 1) G, and G - I is [[p - 1, 0], [q, -1]] plus -I
        im, x, rows = np.abs(pb.imag), np.abs(pb - 1.0), tb > 0
        herm = max(herm, float((im + np.hypot(qb, im)).max()))
        idem = max(idem, float((x * np.hypot(np.abs(pb), qb)).max()))
        wide = (np.hypot(x + 1.0, qb) + np.hypot(x - 1.0, qb)) / 2.0  # blocks of 2+ terms
        ident = max(ident, float(np.max(np.where(tb == 1, x, wide), where=rows, initial=0.0)))
        least = min(least, float(np.min(pb.real, where=rows, initial=np.inf)))
    return herm, idem, ident, least
