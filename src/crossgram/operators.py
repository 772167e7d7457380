"""Frame bounds, cross-Gram operators, and duals, on two routes.

In the truncation model a sequence is its synthesis matrix T (columns are
the vectors), so the analysis operator is T*, the frame operator is TT*,
the Gram matrix is T*T, and the cross-Gram of a pair (f, g) is T_g* T_f,
whose (j, k) entry is <f_k, g_j>.  Frame bounds are read off the singular
values of T, never off the eigenvalues of TT*.  The dense route forms these
matrices; the block route folds terms with one basis index per term, where S
is diagonal and G has one rank-one block per index, into per-index bins, and
its entry points ``_block_reports`` and ``_sweep_rows`` return numbers, not bins.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
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


# the most terms the block route generates and folds at a time: a chunk (~0.2 MB of
# indices, coefficients and |c|^2) stays in cache, as does the window of bins a fold holds
# (four chunks' span, and for each pinned index its node of at most a quarter chunk), whose
# leaves of up to two chunks' bins are each read whole once final
TERM_CHUNK = 1 << 13


def _chunks(spec, count: int, start: int = 0):
    """Terms ``start`` .. ``count - 1`` of a scaled_basis or pattern spec, ``TERM_CHUNK`` at a
    time, as (indices, coefficients, ``sequences._index_stride``): the block route's one stream."""
    for lo in range(start, count, TERM_CHUNK):
        stride = sequences._index_stride(spec, lo)  # this frame holds no chunk once yielded
        yield *sequences.monomial_terms(spec, min(lo + TERM_CHUNK, count), start=lo), stride


def _fold(sums: np.ndarray, idx, weights, stride=None) -> None:
    """Add ``weights`` into the bins ``sums``, bin i holding index i, one term at a time, in term
    order, as ``np.bincount`` does: terms folded chunk by chunk give its bits for them all.  Given
    the ``stride`` of evenly spaced ``idx``, one slice add from its first to its last index: the
    indices are distinct, so each bin takes the one addition ``np.add.at`` would make."""
    if stride:
        sums[idx[0] : idx[-1] + 1 : stride] += weights
    else:
        np.add.at(sums, idx, weights)


def _fold_pairing(p: np.ndarray, at, a: np.ndarray, b: np.ndarray, stride=None) -> None:
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
        return _fold(sums, at, a.real * a.real + a.imag * a.imag)
    alpha_k, toward = alpha[at], np.zeros(len(at), complex)  # conj(p) / |a|^2
    np.divide(p.real[at], alpha_k, out=toward.real, where=alpha_k > 0.0)
    if p.dtype == complex:  # a float64 p has no imaginary part to read
        np.divide(-p.imag[at], alpha_k, out=toward.imag, where=alpha_k > 0.0)
    _fold(sums, at, np.abs(b - a * toward) ** 2)


class _Window:
    """The bins of one fold, one array per dtype, for positions 0 .. total - 1 (position j holds index
    base + j) of rows of ``ns`` bins.  The kept ones, the ``_nodes`` of the pinned positions in each
    row's tree, merged into ranges (start, end, shift) anywhere in the span, come first, at j - shift;
    the live ones lo .. hi - 1 follow them, at j - lo + ksz.  A kept bin that is live sits at its live
    place and is parked at its kept one while it is not; a bin below lo that is not kept is dropped.
    A kept range from 0 ends at khi, and lo stays past it."""

    def __init__(self, dtypes, pinned, ns, base: int):
        self.leaf, self.node = max(2 * TERM_CHUNK, 128), max(TERM_CHUNK // 4, 128)
        self.total, self.base, self.pins = max(ns), base, sorted(set(pinned))
        spans = []
        for lo, hi in sorted({node for n in set(ns) for node in _nodes(n, self.pins, self.node)}):
            if spans and lo <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], hi)
            else:
                spans.append([lo, hi])
        self.kept, self.ksz = [], 0  # (start, end, shift) of each kept range
        for lo, hi in spans:
            self.kept.append((lo, hi, lo - self.ksz))
            self.ksz += hi - lo
        self.khi = self.lo = spans[0][1] if spans and not spans[0][0] else 0
        self.others = len(spans) > (self.khi > 0)  # a kept range past 0
        self.bins = [np.zeros(0, t) for t in dtypes]
        self._widen(4 * TERM_CHUNK, 0)

    def _widen(self, cap: int, keep: int) -> None:  # all arrays in one block, which malloc keeps
        cap, old = min(self.total - self.khi, cap), self.bins
        sizes = [(self.ksz + cap) * b.itemsize for b in old]
        block = np.zeros(sum(sizes), np.uint8)
        ends = itertools.accumulate(sizes)
        self.bins = [block[end - size : end].view(b.dtype) for b, size, end in zip(old, sizes, ends)]
        for b, o in zip(self.bins, old if len(old[0]) else ()):
            b[: self.ksz], b[self.ksz : self.ksz + keep] = o[: self.ksz], o[len(o) - keep :]
        self.hi = self.lo + cap

    def _move(self, lo: int, hi: int, park: bool) -> None:
        """Copy the kept bins of positions lo .. hi - 1 from their live places to their kept ones
        (``park``), or back."""
        gap = self.lo - self.ksz
        for start, end, shift in self.kept:
            a, b = max(start, lo), min(end, hi)
            for x in self.bins if a < b else ():
                live, kept = x[a - gap : b - gap], x[a - shift : b - shift]
                (kept if park else live)[:] = live if park else kept

    def held(self, idx: np.ndarray) -> np.ndarray:
        """Whether the bins of indices ``idx`` are held: live or past them, or kept."""
        pos = idx - self.base
        if not self.kept:
            return pos >= self.lo
        starts, ends, _ = zip(*self.kept)
        at = np.searchsorted(starts, pos, "right") - 1  # the last kept range that starts at or below
        return (pos >= self.lo) | (at >= 0) & (pos < np.take(ends, at))

    def at(self, idx: np.ndarray, top: int, free: bool = False):
        """The places of the bins of indices ``idx`` (live positions below ``top``; all live, given
        ``free``, which none of them pins).  With no kept range past 0, a kept position p < khi keeps
        its place and a live one moves to p - lo + khi, in two passes once lo >= 2 khi (base 0); else
        each position off the live ones is looked up."""
        if free and (self.lo > self.khi or not self.others):  # p - lo + ksz, in one pass
            gap = self.lo - self.ksz + self.base
            return np.subtract(idx, gap) if gap else idx
        if self.others:
            out = np.subtract(idx, self.lo - self.ksz + self.base)
            away = (out < self.ksz) | (out >= len(self.bins[0]))
            if away.any():
                pos = idx[away] - self.base
                starts, shifts = zip(*((start, shift) for start, _, shift in self.kept))
                out[away] = pos - np.take(shifts, np.searchsorted(starts, pos, "right") - 1)
            return out
        pos = idx - self.base if self.base else idx
        if self.lo == self.khi or top <= self.khi:
            return pos
        out = np.subtract(idx, self.lo - self.khi + self.base)
        if self.lo < 2 * self.khi:
            return np.maximum(out, np.minimum(pos, self.khi - 1), out=out)
        u = out.view(np.uint64)  # p - lo + khi < 0 wraps past p, and a live place is below its position
        return np.minimum(u, pos.view(np.uint64), out=u).view(np.int64)

    def view(self, k: int, lo: int, hi: int) -> np.ndarray:
        """Bins lo .. hi - 1 of array k: those held, and zeros for the others, which no term has
        reached."""
        bins, gap = self.bins[k], self.lo - self.ksz
        if hi <= self.khi:
            return bins[lo:hi]
        if (self.lo <= lo or not (gap or self.others)) and hi <= self.hi:  # live, or kept from 0 and live
            return bins[lo - gap : hi - gap]
        got = np.zeros(hi - lo, bins.dtype)
        for start, end, shift in (*self.kept, (self.lo, self.hi, gap)):  # a live bin last
            a, b = max(start, lo), min(end, hi)
            if a < b:
                got[a - lo : b - lo] = bins[a - shift : b - shift]
        return got

    def reach(self, top: int, lo: int) -> None:
        """Hold positions lo .. top - 1 (top past hi), widened to twice those if they must be: the
        kept bins that leave the live ones are parked, and those that come into them unparked."""
        if self.others:  # a kept bin past 0 may leave the live ones
            self._move(self.lo, min(self.hi, lo), True)
        keep, hi, self.lo = max(0, self.hi - lo), self.hi, lo
        if top - lo > len(self.bins[0]) - self.ksz:
            self._widen(2 * (top - lo), keep)
        else:
            for b in self.bins:
                b[self.ksz : self.ksz + keep] = b[len(b) - keep :]
                b[self.ksz + keep : self.ksz + self.total - lo] = 0  # no term reaches past total
            self.hi = lo + len(self.bins[0]) - self.ksz
        if self.others:
            self._move(max(hi, lo), self.hi, False)


def _mid(lo: int, hi: int) -> int:
    """Where numpy's pairwise sum of a float64 array splits bins lo .. hi - 1 of more than 128: at
    half, rounded down to a multiple of 8."""
    return lo + (hi - lo) // 2 // 8 * 8


def _nodes(n: int, pins, size: int) -> list:
    """The least nodes of ``_tree(0, n)``'s split, of at most ``size`` bins, that hold the sorted
    positions ``pins`` below n: one descent per node."""
    got = []
    for p in pins:
        if p >= n:
            break
        if not got or p >= got[-1][1]:
            lo, hi = 0, n
            while hi - lo > size:
                mid = _mid(lo, hi)
                lo, hi = (lo, mid) if p < mid else (mid, hi)
            got.append((lo, hi))
    return got


def _holds(pins, lo: int, hi: int) -> bool:
    """Whether the sorted positions ``pins`` hold one of lo .. hi - 1."""
    i = bisect.bisect_left(pins, lo)
    return i < len(pins) and pins[i] < hi


def _split(lo: int, hi: int, size: int, pins, nodes: list):
    """Bins lo .. hi - 1 split as ``_tree`` splits them, down to the nodes of at most ``size`` bins
    that hold one of the sorted positions ``pins``: (lo, hi), or a pair of splits; each node's
    (hi, whether it holds one) is appended to ``nodes``, in order."""
    held = _holds(pins, lo, hi)
    if not held or hi - lo <= size:
        nodes.append((hi, held))
        return lo, hi
    mid = _mid(lo, hi)
    return _split(lo, mid, size, pins, nodes), _split(mid, hi, size, pins, nodes)


def _added(split, sums):
    """The sum of the nodes of ``split`` from their ``sums`` (an iterator, in order), added as the
    pairwise tree adds them."""
    return next(sums) if type(split[0]) is int else _added(split[0], sums) + _added(split[1], sums)


def _leaf(split, parts):
    """The result of a leaf ``split`` into nodes, from those of the runs of its nodes read in one go
    (``parts``, in order, or callables for them: the sum of each node, or of the one, then the rest
    of them all): the sums added as the pairwise tree adds them, the rest joined."""
    parts = [part() if callable(part) else part for part in parts]
    sums = (s for part in parts for s in (part[0] if type(part[0]) is list else (part[0],)))
    return _added(split, sums), *functools.reduce(_join, [(0, *part[1:]) for part in parts])[1:]


def _early(reduce, lo: int, hi: int, node: int, pins):
    """The result of the leaf of bins lo .. hi - 1 before the row's end, split (``_split``) at the
    nodes of at most ``node`` bins that hold one of ``pins``: ``reduce(cuts, end)`` reads each run
    of its other nodes now, in one go, and each run of kept ones at the row's end; a callable for
    it (``_leaf``), or None while ``reduce`` returns None."""
    split, parts, at = _split(lo, hi, node, pins, nodes := []), [], lo
    for kept, run in itertools.groupby(nodes, lambda x: x[1]):
        cuts = (at, *(b for b, _ in run))
        parts.append(functools.partial(reduce, cuts, True) if kept else reduce(cuts, False))
        if parts[-1] is None:
            return None
        at = cuts[-1]
    return functools.partial(_leaf, split, parts)


def _tree(lo: int, hi: int, leaf: int, pins=()):
    """Ask for the results of the leaves of bins lo .. hi - 1 in order and return them joined by the
    tree numpy's pairwise sum of a float64 array splits them by (``_mid``), down to leaves of at
    most ``leaf`` bins: ``yield (lo, hi), held`` takes a leaf's result, where
    ``held`` tells whether it holds one of the sorted positions ``pins``.  A node of >= 128 bins
    read whole gives ``np.sum``'s bits."""
    if hi - lo > leaf:
        mid = _mid(lo, hi)
        return _join((yield from _tree(lo, mid, leaf, pins)), (yield from _tree(mid, hi, leaf, pins)))
    return (yield (lo, hi), _holds(pins, lo, hi))


def _join(a, b):
    """Two results joined: sum, max, least positive, rank, then maxima; a callable, a callable."""
    if callable(a) or callable(b):
        return lambda: _join(*(x() if callable(x) else x for x in (a, b)))
    return a[0] + b[0], max(a[1], b[1]), min(a[2], b[2]), a[3] + b[3], *map(max, a[4:], b[4:])


def _slide(window: _Window, streams, rows, fold, reduce):
    """Yield, for each row (counts, n) once every stream k (make, frontier, count, top) has folded its
    count into ``window``, a chunk of ``make(start, stop)`` at a time, least ``frontier(terms folded)``
    first, by ``fold(k, chunk, where, stride)`` (where: the first and last place of a chunk on a
    ``stride``, else each term's place, ``_Window.at``), the results ``reduce(cuts, end)`` reads off
    the leaves of bins 0 .. n - 1 (the sum of each node between ``cuts`` lo, .., hi, then the rest of
    them all; None: not before the row's end), joined by ``_tree``.  A leaf is read once final, and
    while a later term may land on a pinned bin in it, that bin's node waits for the row's end
    (``_early``); ``top(idx, start)`` gives the greatest live index of a chunk on no stride, and
    whether none of its indices is pinned."""
    makes, frontiers, ends, tops = zip(*streams)
    trees = [[_tree(0, n, window.leaf, window.pins), None] for _, n in rows]
    pos, fronts = [0] * len(makes), [frontier(0) for frontier in frontiers]
    pinning = [True] * len(makes)  # whether a stream's later terms may land on a pinned index
    for tree in trees:
        tree[1] = next(tree[0])

    def settle(tree, bound, end=False):
        while tree[0]:
            (lo, hi), held = tree[1]
            got = None
            if end or hi <= bound and not (held and any(pinning)):  # whole, which gives its nodes' bits
                got = reduce((lo, hi), end)
            if got is None and held and not end:  # its kept nodes at the row's end, the others once final
                if hi - lo <= window.node:
                    got = functools.partial(reduce, (lo, hi), True)
                elif hi <= bound:
                    got = _early(reduce, lo, hi, window.node, window.pins)
            if got is None:
                return
            try:
                tree[1] = tree[0].send(got)
            except StopIteration as joined:
                tree[:] = None, joined.value

    base = window.base
    for tree, (counts, _) in zip(trees, rows):
        chunks = [make(start, stop) for make, start, stop in zip(makes, pos, counts)]
        due = [min(f, window.total) if p < c else math.inf for f, p, c in zip(fronts, pos, counts)]
        while (least := min(due)) < math.inf:  # a stream due at inf is done with this row
            k = due.index(least)
            chunk = next(chunks[k])
            idx, _, stride = chunk[0]
            top, free = (idx[-1], True) if stride else tops[k](idx, pos[k])
            top, pinning[k] = int(top) - base + 1, not free
            if top > window.hi:  # read off the final leaves and drop the bins below the rest
                for t in trees:
                    settle(t, min(fronts))
                window.reach(top, max(window.khi, min([top, *fronts] + [t[1][0][0] for t in trees if t[0]])))
            gap = window.lo - window.ksz + base  # a live index's place is index - gap
            if stride and (not window.others or idx[0] - gap >= window.ksz):  # places on one run
                fold(k, chunk, (int(idx[0]) - gap, top - 1 + base - gap), stride)
            else:
                fold(k, chunk, window.at(idx, top, free), None)
            pos[k] += len(idx)
            fronts[k] = frontiers[k](pos[k]) if pos[k] < ends[k] else math.inf
            due[k] = min(fronts[k], window.total) if pos[k] < counts[k] else math.inf
            del chunk, idx  # not held while the next chunk is made
        settle(tree, math.inf, True)
        yield tree[1]() if callable(tree[1]) else tree[1]


def _block_q(window: _Window, chunks, at: int):
    """q of each bin of a pair on one index array (p at ``at``, the term counts next, every bin of
    2+ terms still held), from two more passes over ``chunks()``."""
    p, terms = window.bins[at], window.bins[at + 1]
    alpha, r = np.zeros(len(p)), np.zeros(len(p))
    for sums in (alpha, r):
        for (fi, a, _), (_, b, _) in chunks():
            m = np.flatnonzero(window.held(fi))
            places = window.at(fi[m], window.total) if len(m) else m
            m, places = m[terms[places] > 1], places[terms[places] > 1]
            _fold_q(sums, places, a[m], b[m], *((p, alpha) if sums is r else ()))
    return np.sqrt(np.multiply(alpha, r, out=alpha), out=alpha)


def _spectrum_leaf(sq: np.ndarray, cuts=()):
    """Sum, max, least positive entry and number of positive entries of the products ``sq`` >= 0,
    the sum as one of each node, given its ``cuts`` lo, .., hi (``_tree``) past two."""
    top, zero = np.maximum.reduce(sq), sq == 0.0
    if len(cuts) > 2:
        total = [np.add.reduce(sq[a - cuts[0] : b - cuts[0]]) for a, b in itertools.pairwise(cuts)]
    else:
        total = np.add.reduce(sq)
    rank = len(sq) - np.count_nonzero(zero)
    if rank < len(sq):  # the least positive entry is then the least one
        np.putmask(sq, zero, np.inf)
    return total, top, np.minimum.reduce(sq), rank


def _block_spectrum(sums, full: int):
    """op_norm, sigma_min and hs from the ``_spectrum_leaf`` results of two sides' bins of |c|^2 sums,
    whose products are the blocks' squared singular values, joined by ``_tree``; ``full`` is
    min(rows, cols)."""
    total, top, least, rank = sums[:4]
    return float(np.sqrt(top)), float(np.sqrt(least)) if rank == full else 0.0, float(np.sqrt(total))


def _block_square(p: np.ndarray, terms: np.ndarray, q):
    """||G - G*||, ||G^2 - G||, ||G - I|| and the least Re p over the occupied bins of one leaf
    of G on a shared index array, from p, the term count and q of each bin (extremes, which
    ``_join`` takes over the leaves); a Hermitian G has the eigenvalues Re p and 0."""
    # in an orthonormal basis of a block that starts at conj(a), G is
    # [[p, 0], [q, 0]] and 0 elsewhere: G - G* is [[2i Im p, -q], [q, 0]],
    # G^2 - G is (p - 1) G, and G - I is [[p - 1, 0], [q, -1]] plus -I
    x, rows = np.abs(p - 1.0), terms > 0
    least = float(np.min(p.real, where=rows, initial=np.inf))
    if p.dtype == float and not np.ndim(q):  # q 0: hypot(y, 0) is |y| exactly, Im p is 0, no block is wide
        return 0.0, float((x * np.abs(p)).max()), float(np.max(x, where=rows, initial=0.0)), least
    im, wide = np.abs(p.imag), (np.hypot(x + 1.0, q) + np.hypot(x - 1.0, q)) / 2.0  # blocks of 2+ terms
    return (float((im + np.hypot(q, im)).max()), float((x * np.hypot(np.abs(p), q)).max()),
            float(np.max(np.where(terms == 1, x, wide), where=rows, initial=0.0)), least)


def _block_pass(sides, sources, named, cross: bool, duality: bool, shared: bool, scale=(0, 0)):
    """The joined leaf results of ``reduce`` and each side's (max, min) |c| from one pass over the
    chunks of ``sides``, each side's from its ``sources()``, into a ``_Window``, bin j holding index
    base + j (bin 0 no term): given ``cross``, each side's |c|^2 sums, 2**-2e scaled, and on one
    index array (``shared``) p and each bin's term count; ``named`` refuses a side past the entry
    bounds after the pass, f first."""
    n, at = len(sides), len(sides) * cross
    frontiers = [sequences._index_frontier(s, c) for s, c, _ in sides]
    base = min(min((frontier(0), *pins)) for frontier, pins in frontiers) - 1
    pairing = shared and (float if sides[0][0]._real and sides[1][0]._real else complex)
    pinned = [i - base for _, pins in frontiers for i in pins]
    window = _Window([float] * at + [pairing, np.int32] * shared, pinned, [sides[0][2] - base + 1], base)
    faults, moduli = np.zeros((n, 2), int), [(0.0, np.inf)] * n

    def fold(i, chunk, where, stride):
        group = groups[i]
        faults[list(group)] += [linalg._faults(c) for _, c, _ in chunk]
        if faults.any():  # a refused side folds nothing more
            return
        a, b = chunk[0][1], chunk[-1][1]
        for k, (_, c, _) in zip(group, chunk if cross else ()):
            mod = np.abs(c)
            moduli[k] = max(moduli[k][0], mod.max()), min(moduli[k][1], mod.min())
            _fold(window.bins[k], where, (np.ldexp(mod, -scale[k]) if scale[k] else mod) ** 2, stride)
        if shared:  # f's stride is g's on one index array
            _fold_pairing(window.bins[at], where, a, b, stride)
            _fold(window.bins[at + 1], where, np.int32(1), stride)  # int32: add.at's fast path

    def reduce(cuts, end):  # spectrum sums, then each side's max and -min, max|p - 1|, _block_square's
        lo, hi = cuts[0], cuts[-1]
        out = [[0.0] * (len(cuts) - 1) if len(cuts) > 2 else 0.0, 0.0, np.inf, 0]
        sq = [window.view(k, lo, hi) for k in range(len(window.bins))]
        if faults.any():  # refused after the pass
            return out
        if at == 2:
            f, g = (np.ldexp(v, 2 * e) if e else v for v, e in zip(sq, scale))
            out = [*_spectrum_leaf(f * g, cuts)]
        # bin 0 stands for index base, a basis vector no term reaches, unless base is 0
        basis = slice(0 if lo or base else 1, None)
        for v in sq[:at]:
            out += [v[basis].max(), -v[basis].min()]
        if shared:
            p, t = sq[at : at + 2]
            if duality:  # T_f T_g* - I is diagonal: p - 1 in the bins, -1 off them
                out.append(np.abs(p[basis] - 1.0).max())
            if cross:  # q of the blocks of 2+ terms, read at the end, from two more passes
                wide = (t > 1).any()
                if wide and not end:
                    return None
                if wide and len(window.bins) == at + 2:
                    window.bins.append(_block_q(window, lambda: zip(*(make() for make in sources)), at))
                herm, idem, ident, least = _block_square(p, t, window.view(at + 2, lo, hi) if wide else 0.0)
                out += [herm, idem, ident, -least]
        return out

    groups = [(0, 1)] if shared else [(k,) for k in range(n)]
    streams = [(lambda start, stop, g=g: zip(*(sources[k]() for k in g)),
                lambda pos, g=g: frontiers[g[0]][0](pos) - base, sides[g[0]][1],
                sequences._index_top(sides[g[0]][0])) for g in groups]
    got = next(_slide(window, streams, [([s[2] for s in streams], window.total)], fold, reduce))
    for nm, fault in zip(named, faults.tolist()):
        nm(linalg._refuse, *fault)
    return got, moduli


def _block_reports(sides, named, tol: float, cross: bool, duality: bool, arrays):
    """The numbers ``diagnostics.reports`` reads off the term shapes ``sides`` (f, or f and g), each
    side's one source read by every pass: given ``cross``, each side's frame bounds, completeness and
    (max, min) |c|, a pair's op_norm, sigma_min and hs, and on one index array ``_block_square``'s
    values; given ``duality``, on one index array, max|p - 1|; else None.  A side of ``TERM_CHUNK``
    terms or fewer, or a hybrid pair's term ``arrays``, is one chunk held; a longer one streams."""
    shared = not arrays and len(sides) == 2 and sides[0][1] == sides[1][1]
    sources = [functools.partial(iter, [(i, c, None)]) for i, c, _ in arrays or ()] or [
        functools.partial(iter, [*_chunks(s, c)]) if c <= TERM_CHUNK else functools.partial(_chunks, s, c)
        for s, c, _ in sides]
    got, moduli = _block_pass(sides, sources, named, cross, duality, shared)
    # |c|^2 underflows below |c| ~1e-154: a side whose largest |c| is under 2**-300 is
    # folded again, in a second full pass, as |c| 2**-e, 2**e near it, an exact scaling
    scale = [int(np.frexp(top)[1]) if 0.0 < top < 2.0**-300 else 0 for top, _ in moduli]
    sums = _block_pass(sides, sources, named, cross, False, False, scale)[0] if any(scale) else got
    gap = float(got[4 + 2 * len(sides) * cross]) if duality and shared else None
    if not cross:
        return None, None, None, gap
    classes = []
    for k, ((top, least), e) in enumerate(zip(moduli, scale)):
        hi, lo = float(sums[4 + 2 * k]), -float(sums[5 + 2 * k])
        frame = FrameBounds(math.ldexp(lo, 2 * e), math.ldexp(hi, 2 * e), tol)
        # completeness is a ratio, so it is read before the shift
        classes.append((frame, np.sqrt(lo) > tol * np.sqrt(hi), top, least))
    spectrum = _block_spectrum(sums, min(n for _, n, _ in sides)) if sides[1:] else None
    return classes, spectrum, (*got[-4:-1], -got[-1]) if shared else None, gap


def _sweep_rows(shapes):
    """Yield dim, both counts, op_norm, sigma_min, hs and both Bessel bounds of each sweep row from
    the term shapes of its (f, g): term m does not depend on n, so each row reads a prefix of the
    terms off the one ``_Window`` that ``_slide`` moves along, its first dim + 1 bins (bin i holds
    index i: every registry role starts at e1)."""
    sides = [(spec, count, sequences._index_frontier(spec, count)) for spec, count, _ in shapes[-1]]
    rows = [((fc, gc), dim + 1) for (_, fc, dim), (_, gc, _) in shapes]
    window = _Window([float, float], [i for *_, (_, pins) in sides for i in pins], [n for _, n in rows], 0)

    def fold(k, chunk, at, stride):  # the sweep owns its chunks: c * c is bit for bit |c|^2 of a real c
        c = chunk[0][1]
        _fold(window.bins[k], at, np.multiply(c, c, out=c) if c.dtype == float else np.abs(c) ** 2, stride)

    def reduce(cuts, end):
        f, g = window.view(0, cuts[0], cuts[-1]), window.view(1, cuts[0], cuts[-1])
        return *_spectrum_leaf(f * g, cuts), np.maximum.reduce(f), np.maximum.reduce(g)

    streams = [(lambda start, stop, s=spec: zip(_chunks(s, stop, start)), frontier, count,
                sequences._index_top(spec)) for spec, count, (frontier, _) in sides]
    for ((fc, gc), n), got in zip(rows, _slide(window, streams, rows, fold, reduce)):
        yield n - 1, fc, gc, *_block_spectrum(got, min(fc, gc)), float(got[4]), float(got[5])
