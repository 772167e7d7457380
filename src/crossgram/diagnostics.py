"""Classification, cross-Gram reports, duality checks, battery, and sweep.

The reports turn what ``operators`` computes on either route, dense
matrices or the block kernel, into verdicts at a tolerance; the truncation
sweep is the block route at each prefix.  The theorem battery replays the
structural facts about cross-Gram matrices on seeded random instances and
reports the worst margin per check; two negative controls feed
deliberately broken instances through the same assertions to prove the
wiring can fail.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, operators, sequences
from .linalg import DEFAULT_TOL
from .sequences import RealizedSequence

# agreement thresholds used by the battery: identity-level comparisons are
# held to TIGHT, spectral quantities (eigenvalues, idempotency, norm bounds)
# to SPECTRAL
TOL_TIGHT = 1e-10
TOL_SPECTRAL = 1e-9

# trials x max(dim_high, 8)**3 of one battery: a trial takes ~3-4 ms up to 8
# dimensions (call overhead) and grows with dim past that, so the default
# 200 x 8**3 ~ 1e5 takes under a second and the budget about a minute
MAX_BATTERY_WORK = 10**7

# the largest dim_high of one battery: a square complex Gaussian draw meets
# sequences.MAX_CONDITION = 100 with chance ~0.22 at dim 64 (so all of the
# 64 screening attempts fail with chance ~2e-7) and ~0.025 at dim 96
MAX_BATTERY_DIM = 64

# the sum of the truncations of one sweep: each row reads its block spectrum
# off bins as wide as its index span, ~0.043 s per row near 1e7 terms, so the
# slowest sweep the budget admits, 500 rows up to 1e7, took about 22 s (ex-hs
# and ex-identity alike) on one core of a 2-core x86-64 machine
MAX_SWEEP_WORK = 5 * 10**9

# the most terms the sweep and the block reports generate and fold, and bins they
# read, at a time: a chunk's indices, coefficients and squared moduli take ~0.2 MB,
# so each chunk stays in cache, and the per-index bins alone set the peak
TERM_CHUNK = 1 << 13


# --------------------------------------------------------------------------
# spectral rules


def _rank_of(s: np.ndarray, tol: float) -> int:
    """Numeric rank from nonincreasing singular values: the number above
    tol * sigma_max, and 0 for the zero matrix."""
    return 0 if s[0] == 0.0 else int(np.sum(s > tol * s[0]))


def _op_norm(m: np.ndarray) -> float:
    """||M|| as np.linalg.norm(m, 2) takes it, bit for bit: the largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _real_parts(*ms: np.ndarray) -> tuple:
    """The float64 parts of the complex128 arrays ``ms`` when none has a
    nonzero imaginary part, else ``ms`` as they are: LAPACK and GEMM then run
    in real arithmetic, ~3x faster, and the results move by ulps."""
    if not any(m.imag.any() for m in ms):
        return tuple(np.ascontiguousarray(m.real) for m in ms)
    return ms


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SequenceClassification:
    """Truncation-level verdicts for one sequence."""

    count: int
    dim: int
    bessel_bound: float
    frame: operators.FrameBounds
    complete: bool
    riesz: bool
    nba_sup: float
    nbb_inf: float
    tol: float


def classify_sequence(seq: RealizedSequence, tol: float = DEFAULT_TOL) -> SequenceClassification:
    """Classify a realized sequence from one SVD of its synthesis matrix.

    The Gram and frame operator spectra are the squared singular values, so
    the Bessel bound is sigma_max^2, the optimal lower frame bound is
    sigma_dim^2 (zero when fewer than dim vectors), completeness is full
    numeric row rank, and the Riesz verdict additionally needs count == dim
    with a Gram spectrum bounded away from zero.  A random spec's realization
    reuses the singular values its condition screen computed.
    """
    (t,) = _real_parts(seq.columns)
    return _classify(t, tol, seq._singular_values if t is seq.columns else None)


def _classify(t: np.ndarray, tol: float, s=None) -> SequenceClassification:
    """``classify_sequence`` of a synthesis matrix, in its own arithmetic, from
    its singular values ``s`` when they are given."""
    dim = len(t)
    s = np.linalg.svd(t, compute_uv=False) if s is None else s
    frame = operators.bounds_from_singular_values(s, dim, tol)
    norms = np.linalg.norm(t, axis=0)
    return _classification(dim, frame, _rank_of(s, tol) == dim, len(norms), norms.max(), norms.min())


def _classification(dim: int, frame: operators.FrameBounds, complete: bool, count: int, sup, inf):
    """The verdicts from the frame bounds, completeness, count and extreme column norms."""
    riesz = bool(complete and count == dim and frame.spans_ambient)
    return SequenceClassification(
        count, dim, frame.upper, frame, bool(complete), riesz, float(sup), float(inf), frame.tol
    )


# --------------------------------------------------------------------------
# cross-Gram report


@dataclass(frozen=True)
class CrossGramReport:
    """Spectral summary of a cross-Gram matrix.

    The square-only diagnostics (hermitian_defect, idempotency_defect,
    identity_distance) are None for rectangular input; hermitian_defect is
    ||G - G*|| / ||G||, and psd is False unless that is at most tol and the
    spectrum lies above -tol*||G||.
    """

    rows: int
    cols: int
    op_norm: float
    sigma_min: float
    hs: float
    invertible: bool
    hermitian_defect: float | None
    psd: bool
    idempotency_defect: float | None
    identity_distance: float | None
    tol: float


def analyze_cross_gram(m, tol: float = DEFAULT_TOL) -> CrossGramReport:
    """Diagnostics of a cross-Gram matrix, such as ``operators.cross_gram(f, g)``."""
    (m,) = _real_parts(linalg.as_matrix(m, gram=True))
    rows, cols = m.shape
    s = np.linalg.svd(m, compute_uv=False)
    op = float(s[0])
    fields = _square_fields(m, op, tol) if rows == cols else _RECTANGULAR
    hs = float(np.linalg.norm(m, "fro"))
    return _cross_report(rows, cols, op, float(s[-1]), hs, *fields, tol)


# the square-only fields (as _square_fields returns them) of a rectangular G
_RECTANGULAR = (None, False, None, None)


def _square_fields(m: np.ndarray, op: float, tol: float):
    """hermitian_defect, psd, idempotency_defect and identity_distance of a
    square matrix, given op = ||M||: M - M*, M @ M - M and M - I are formed
    in turn in one buffer, with the same floating-point operations as the
    plain expressions."""
    n = len(m)
    buf = np.empty_like(m)
    np.conjugate(m.T, out=buf)
    np.subtract(m, buf, out=buf)
    herm = _op_norm(buf)
    np.matmul(m, m, out=buf)
    buf -= m
    idem = _op_norm(buf)
    buf[...] = m
    buf.flat[:: n + 1] -= 1.0
    ident = _op_norm(buf)
    return (*_hermitian(herm, op, tol, lambda: np.linalg.eigvalsh(m)[0]), idem, ident)


def _hermitian(herm: float, op: float, tol: float, least) -> tuple[float, bool]:
    """hermitian_defect and psd of a square G from herm = ||G - G*||, op =
    ||G|| and ``least()``, the least eigenvalue of G read as Hermitian: the
    defect is herm / op (0 for the zero matrix), and G is psd when that is at
    most tol and the least eigenvalue at least -tol * op: both verdicts are
    relative to sigma_max, and scaling G by a power of two keeps their bits."""
    defect = herm / op if op else 0.0
    return defect, defect <= tol and bool(least() >= -tol * op)


def _cross_report(rows, cols, op, sigma_min, hs, defect, psd, idem, ident, tol):
    invertible = bool(rows == cols and op > 0.0 and sigma_min > tol * op)
    return CrossGramReport(
        rows, cols, op, sigma_min, hs, invertible, defect, psd, idem, ident, tol
    )


# --------------------------------------------------------------------------
# duality


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the three equivalent dual-pair conditions.

    g is a dual of f when T_f T_g* = I, or equally when T_g T_f* = I, so
    both reconstruction residuals are residual 3, the operator norm of
    T_f T_g* - I, which decides the verdict: ``is_dual_pair`` compares it
    with tol on the scale of ||I|| = 1.
    """

    reconstruction_residual_1: float
    reconstruction_residual_2: float
    pairing_residual_3: float
    is_dual_pair: bool
    tol: float


def check_duality(f: RealizedSequence, g: RealizedSequence, tol: float = DEFAULT_TOL) -> DualityReport:
    """Whether g is a dual of f, from one SVD of T_f T_g* - I, after the
    pair check and the residual's dense budget: the dense route of ``reports``."""
    return reports(f, g, tol=tol, duality=True, cross=False)[3]


def _duality(r: np.ndarray, tol: float) -> DualityReport:
    """``check_duality`` of a checked pair from r = T_f T_g*, made T_f T_g* - I in place."""
    r.flat[:: len(r) + 1] -= 1.0
    x = _op_norm(r)
    return DualityReport(x, x, x, x <= tol, tol)


# --------------------------------------------------------------------------
# block route


def _call(make, *args):
    """``make(*args)``: the ``named`` of a side whose errors name no file."""
    return make(*args)


def _chunks(spec, count: int, start: int = 0):
    """Terms ``start`` .. ``count - 1`` of a scaled_basis or pattern spec, at most
    ``TERM_CHUNK`` at a time, as (indices, coefficients, ``sequences._index_stride``):
    the one stream the sweep and the block reports fold, each by ``operators._fold``."""
    for lo in range(start, count, TERM_CHUNK):
        stride = sequences._index_stride(spec, lo)  # this frame holds no chunk once yielded
        yield *sequences.monomial_terms(spec, min(lo + TERM_CHUNK, count), start=lo), stride


def _block_fold(sources, dim: int, named, *, sums: bool = True, pairing=False):
    """One pass over the chunks ``sources`` make for each side, side by side, into
    bins up to ``dim``, widened at their front as chunks reach below them (bin j
    holds index base + j; bin 0 no term, as numpy's pairwise sums need): each
    side's |c|^2 given ``sums``, and given ``pairing``, the dtype of p (one index
    array), the diagonal p of T_f T_g* and each bin's term count.  A side past the
    entry bounds of a matrix is refused through its ``named`` after the pass, f
    first.  Returns the bins, base, each side's (max, min) |c| and last chunk."""
    dtypes = [float] * len(sources) * sums + ([pairing, np.int32] if pairing else [])
    bins, base = [np.zeros(1, t) for t in dtypes], dim
    faults = np.zeros((len(sources), 2), int)
    moduli = [(0.0, np.inf)] * len(sources)
    for chunk in itertools.zip_longest(*(make() for make in sources)):
        faults += [linalg._faults(terms[1]) if terms else (0, 0) for terms in chunk]
        if faults.any():  # a refused side folds nothing more
            continue
        low = min(int(terms[0].min()) for terms in chunk if terms)
        for k, b in enumerate(bins if low <= base else ()):  # one array at a time
            bins[k] = np.zeros(len(b) + base - low + 1, b.dtype)
            bins[k][base - low + 1 :] = b
        base = min(base, low - 1)
        for k, terms in enumerate(chunk if sums else ()):
            if terms:
                mod = np.abs(terms[1])
                moduli[k] = max(moduli[k][0], mod.max()), min(moduli[k][1], mod.min())
                operators._fold(bins[k], terms[0] - base, mod**2, terms[2])
        if pairing:  # f's stride is g's on one index array
            (fi, a, stride), (_, b, _) = chunk
            operators._fold_pairing(bins[-2], fi - base, a, b, stride)
            operators._fold(bins[-1], fi - base, np.int32(1), stride)  # int32: add.at's fast path
    for nm, fault in zip(named, faults.tolist()):
        nm(linalg._refuse, *fault)
    return bins, base, moduli, chunk


def _block_q(shapes, terms: np.ndarray, p: np.ndarray, base: int, last):
    """q of each bin of a pair on one index array (0 without bins of 2+ terms)
    from two more passes, reusing the first pass's chunk if it was the only one."""
    if not (terms > 1).any():
        return 0.0
    alpha, r = np.zeros(len(p)), np.zeros(len(p))
    for sums in (alpha, r):
        chunks = [last] if shapes[0][1] <= TERM_CHUNK else zip(*(_chunks(s, n) for s, n, _ in shapes))
        for (fi, a, _), (_, b, _) in chunks:
            m = np.flatnonzero(terms[fi - base] > 1)
            operators._fold_q(sums, fi[m] - base, a[m], b[m], *((p, alpha) if sums is r else ()))
    return np.sqrt(np.multiply(alpha, r, out=alpha), out=alpha)


def check_pair_budgets(f, g, *, duality: bool = False, cross: bool = True) -> bool:
    """Refuse a pair where its reports would refuse it, in the same order,
    before a term is generated, and return whether it is hybrid: two
    monomial sides in a square pair on different index arrays, whose
    residual and cross-Gram are dense, scattered from the terms.  Any other
    monomial pair takes the block route, and a pair with a dense side the
    dense route.  This is the one place a pair's route is decided, and
    ``reports`` gates every pair through it: a monomial pair before its
    pass, a dense or mixed one before its monomial side is realized.  ``f``
    and ``g`` are ``(spec, count, dim)``: a monomial side's
    ``sequences.term_shape``, or ``spec`` None for a side realized densely.
    ``duality`` asks for the duality report, ``cross`` for the cross-Gram
    report."""
    (fs, count, dim), (gs, g_count, g_dim) = f, g
    operators._check_pair(dim, g_dim, duality and (count, g_count))
    monomial = fs is not None and gs is not None
    hybrid = monomial and count == g_count and not sequences._same_indices(fs, gs, count, TERM_CHUNK)
    if hybrid or not monomial:  # the dense route
        if duality:
            sequences._check_dense(dim, dim, "dual-pair residual")
        if cross:
            sequences._check_dense(g_count, count, "cross-Gram")
    return hybrid


def reports(f, g=None, *, tol=DEFAULT_TOL, duality=False, cross=True, named=(_call, _call)):
    """The reports of f and of the pair (f, g), each side a monomial spec's
    ``sequences.term_shape`` or a ``RealizedSequence``: the classifications of
    f and g and the cross-Gram report given ``cross`` (None for g and the
    cross-Gram without g), and the duality report given ``duality``.  Every
    pair passes ``check_pair_budgets``, which gives its route.  Monomial sides
    are read off one pass over their terms into per-index bins, each dropped
    once read; a hybrid pair reads the square-only fields and the residual off
    G and T_f T_g*, scattered from its ``sequences.term_arrays``.  A pair with
    a dense side is dense: its monomial side is refused over a realization's
    budget, the pair gated, and the side realized, and the pair reports no
    classification.  ``named`` wraps each side's checks (the CLI names the
    spec file).  A side may be a callable that returns one, f called first."""
    f, g = (side() if callable(side) else side for side in (f, g))
    sides = (f,) if g is None else (f, g)
    if not all(isinstance(side, tuple) for side in sides):  # the dense route
        if g is None:
            return classify_sequence(f, tol), None, None, None
        shapes = [side if isinstance(side, tuple) else (None, side.count, side.dim) for side in sides]
        for nm, (spec, count, side_dim) in zip(named, shapes):
            if spec is not None:  # the monomial side is realized
                nm(sequences._check_dense, side_dim, count)
        check_pair_budgets(*shapes, duality=duality, cross=cross)
        f, g = (
            nm(sequences.from_terms, *nm(sequences.term_arrays, side)) if isinstance(side, tuple) else side
            for nm, side in zip(named, sides)
        )
        del sides  # each matrix is freed once its last reader is done, unless the caller holds it
        fr, gr = _real_parts(f.columns, g.columns) if duality else (None, None)
        f, g = (f.columns, g.columns.conj().T) if cross else (None, None)  # conj(g) in g's place
        m, f, g = (g @ f if cross else None), None, None  # G = T_g* T_f, as cross_gram forms it
        gr = gr.conj() if duality else None  # conj(g) in g's place
        r, fr, gr = (fr @ gr.T if duality else None), None, None  # T_f T_g*
        report = analyze_cross_gram(m, tol) if cross else None
        return None, None, report, _duality(r, tol) if duality else None
    hybrid = g is not None and check_pair_budgets(f, g, duality=duality, cross=cross)
    dim = f[2]
    square = g is not None and f[1] == g[1]
    shared, dual = square and not hybrid, None
    if hybrid:
        arrays = [nm(sequences.term_arrays, s) for nm, s in zip(named, sides)]
        (fi, a, _), (gi, b, _) = arrays
        if duality:
            dual = _duality(operators._term_frame(fi, gi, *_real_parts(a, b), dim), tol)
        if not cross:
            return None, None, None, dual
        sources = [functools.partial(iter, [(i, c, None)]) for i, c, _ in arrays]
    else:
        sources = [functools.partial(_chunks, spec, count) for spec, count, _ in sides]
    pairing = shared and (float if f[0]._real and g[0]._real else complex)  # before the pass
    bins, base, moduli, last = _block_fold(sources, dim, named, sums=cross, pairing=pairing)
    if duality and shared:  # T_f T_g* - I is diagonal: p - 1 in the bins, -1 off them
        p = bins[-2][operators._basis(base)]
        blocks = range(0, len(p), TERM_CHUNK)
        x = max(float(np.abs(p[lo : lo + TERM_CHUNK] - 1.0).max()) for lo in blocks)
        dual = DualityReport(x, x, x, x <= tol, tol)
    if not cross:
        return None, None, None, dual

    basis = operators._basis(base)
    classes = []
    for k, (top, least) in enumerate(moduli):
        s_e = bins[k]
        # |c|^2 underflows below |c| ~1e-154: a side whose largest |c| is under
        # 2**-300 is folded again as |c| 2**-e, 2**e near it, an exact scaling
        e = int(np.frexp(top)[1]) if 0.0 < top < 2.0**-300 else 0
        if e:
            s_e[:] = 0.0
            for idx, c, stride in sources[k]():
                operators._fold(s_e, idx - base, np.ldexp(np.abs(c), -e) ** 2, stride)
        hi, lo = float(s_e[basis].max()), float(s_e[basis].min())
        frame = operators.FrameBounds(math.ldexp(lo, 2 * e), math.ldexp(hi, 2 * e), tol)
        # completeness is a ratio, so it is read before the shift
        complete = np.sqrt(lo) > tol * np.sqrt(hi)
        classes.append(_classification(dim, frame, complete, sides[k][1], top, least))
        np.ldexp(s_e, 2 * e, out=s_e)
    del s_e
    if g is None:
        return classes[0], None, None, None

    op, sigma_min, hs = operators._block_spectrum(bins[0], bins[1], min(f[1], g[1]), TERM_CHUNK)
    bins[:2] = ()  # f_sq and g_sq are dropped
    if not square:
        fields = _RECTANGULAR
    elif not shared:
        fields = _square_fields(operators._term_gram(fi, gi, *_real_parts(a, b)), op, tol)
    else:
        p, terms = bins
        q = _block_q(sides, terms, p, base, last)
        herm, idem, ident, least = operators._block_square(p, terms, q, TERM_CHUNK)
        fields = (*_hermitian(herm, op, tol, lambda: least), idem, ident)
    return (*classes, _cross_report(g[1], f[1], op, sigma_min, hs, *fields, tol), dual)


# --------------------------------------------------------------------------
# theorem battery


@dataclass(frozen=True)
class CheckOutcome:
    check_id: str
    description: str
    trials: int
    failures: int
    worst_margin: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    trials: int
    dim_low: int
    dim_high: int
    tol: float
    checks: tuple
    controls: tuple
    all_passed: bool


def _entrywise_cross_gram(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Independent route: build the cross-Gram one inner product at a time."""
    out = np.empty((g.shape[1], f.shape[1]), dtype=complex)
    for j in range(g.shape[1]):
        for k in range(f.shape[1]):
            out[j, k] = np.vdot(g[:, j], f[:, k])
    return out


# the checks take the generated arrays unwrapped, with cross-Grams g.conj().T @ f;
# their draws are complex Gaussians, so they call the report kernels (_classify,
# _duality) directly and skip the real-part test _real_parts makes
def _frame(d, n, seed, tol):
    """``sequences.random_frame(d, n, seed)`` as its array and its frame
    bounds, read off the singular values its condition screen computed."""
    m, s = sequences._frame_draw(d, n, seed)
    return m, operators.bounds_from_singular_values(s, d, tol)


def _check_riesz_product(seed, t, d, tol):
    f, g = (sequences._riesz_basis(d, (seed, t, 10), role)[0] for role in "fg")
    m = g.conj().T @ f
    s = np.linalg.svd(m, compute_uv=False)
    rel = _op_norm(m - _entrywise_cross_gram(f, g)) / float(s[0])
    ok = rel <= TOL_TIGHT and s[-1] > tol * s[0]
    margin = min(TOL_TIGHT - rel, float(s[-1] / s[0]) - tol)
    return margin, ok


def _check_rank_deficit(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 11])
    nf = d + 1 + int(rng.integers(d))
    ng = d + 1 + int(rng.integers(d))
    f, _ = _frame(d, nf, (seed, t, 12), tol)
    g, _ = _frame(d, ng, (seed, t, 13), tol)
    smin = float(np.linalg.svd(g.conj().T @ f, compute_uv=False)[-1])
    return TOL_TIGHT - smin, smin <= TOL_TIGHT


def _check_riesz_transfer(seed, t, d, tol):
    (f, _), (g, g_s) = (sequences._riesz_basis(d, (seed, t, 14), role) for role in "fg")
    s = np.linalg.svd(g.conj().T @ f, compute_uv=False)
    invertible = s[-1] > tol * s[0]
    cls = _classify(g, tol, g_s)  # the singular values its condition screen computed
    margin = cls.frame.lower / cls.bessel_bound - tol
    return margin, bool(invertible and cls.riesz)


def _check_rank_count(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 15])
    n1 = d + int(rng.integers(d + 1))
    n2 = d + int(rng.integers(d + 1))
    u, _ = sequences._riesz_basis(d, (seed, t, 16))
    g1, _ = _frame(d, n1, (seed, t, 17), tol)
    m1 = g1.conj().T @ u  # Riesz f side: rank must equal f.count
    f2, _ = _frame(d, n2, (seed, t, 18), tol)
    w, _ = sequences._riesz_basis(d, (seed, t, 19))
    m2 = w.conj().T @ f2  # Riesz g side: rank must equal g.count
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    ok = _rank_of(s1, tol) == d and _rank_of(s2, tol) == d
    margin = min(float(s1[d - 1] / s1[0]) - tol, float(s2[d - 1] / s2[0]) - tol)
    return margin, ok


def _check_hs_bound(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 22])
    nf = d + int(rng.integers(d + 1))
    ng = d + int(rng.integers(d + 1))
    f, _ = _frame(d, nf, (seed, t, 20), tol)
    g, bounds = _frame(d, ng, (seed, t, 21), tol)
    hs = float(np.linalg.norm(g.conj().T @ f, "fro"))
    bound = float(np.sqrt(bounds.upper) * np.linalg.norm(f, "fro"))
    m1 = bound + TOL_SPECTRAL - hs

    # orthonormal-side variant: the Bessel bound of g is at most ||G||^2
    z = sequences._complex_gaussian(np.random.default_rng([seed, t, 23]), (d, d))
    q, _ = np.linalg.qr(z)
    op_sq = _op_norm(g.conj().T @ q) ** 2
    m2 = op_sq + TOL_SPECTRAL * max(1.0, op_sq) - bounds.upper
    return min(m1, m2), bool(m1 >= 0.0 and m2 >= 0.0)


def _check_norm_bounds(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 26])
    ng = d + int(rng.integers(d + 1))
    nf = 1 + int(rng.integers(ng))  # nf <= ng keeps sigma_min a true lower bound
    g, bounds = _frame(d, ng, (seed, t, 24), tol)
    cols = sequences._complex_gaussian(np.random.default_rng([seed, t, 25]), (d, nf))
    m = g.conj().T @ cols
    col_sq = np.linalg.norm(cols, axis=0) ** 2
    s = np.linalg.svd(m, compute_uv=False)
    op, smin = float(s[0]), float(s[-1])
    m_up = op**2 / bounds.lower + TOL_SPECTRAL - float(col_sq.max())
    m_low = float(col_sq.min()) - smin**2 / bounds.upper + TOL_SPECTRAL
    margin = min(m_up, m_low)
    return margin, margin >= 0.0


def _check_dual_idempotent(seed, t, d, tol):
    nf = d + int(np.random.default_rng([seed, t, 27]).integers(d + 1))
    f, bounds = _frame(d, nf, (seed, t, 28), tol)
    if t % 2 == 0:
        dual = operators._dual_columns(f, bounds)
    else:  # alternate_dual(f, (seed, t, 31), scale=1.0)
        dual = operators._dual_columns(f, bounds, (seed, t, 31), 1.0)
    m = dual.conj().T @ f
    idem = _op_norm(m @ m - m)
    op = _op_norm(m)
    verdict = _duality(f @ dual.conj().T, tol)
    ok = bool(idem <= TOL_SPECTRAL and op >= 1.0 - TOL_SPECTRAL and verdict.is_dual_pair)
    margin = min(TOL_SPECTRAL - idem, op - (1.0 - TOL_SPECTRAL), tol - verdict.pairing_residual_3)
    return margin, ok


def _check_canonical_projection(seed, t, d, tol):
    n = d + int(np.random.default_rng([seed, t, 33]).integers(d + 1))
    f, bounds = _frame(d, n, (seed, t, 34), tol)
    m = operators._dual_columns(f, bounds).conj().T @ f
    # M is a projection, so ||M|| is 1 up to rounding and either scale will do
    defect = _op_norm(m - m.conj().T) / max(1.0, _op_norm(m))
    evals = np.linalg.eigvalsh(m)
    eig_dist = float(np.max(np.minimum(np.abs(evals), np.abs(evals - 1.0))))
    near_one = int(np.sum(evals > 0.5))
    lam_min = float(evals[0])
    margins = [TOL_TIGHT - defect, TOL_SPECTRAL - eig_dist, lam_min + TOL_SPECTRAL]
    ok = defect <= TOL_TIGHT and eig_dist <= TOL_SPECTRAL and near_one == d
    ok = ok and lam_min >= -TOL_SPECTRAL
    if n == d:
        ident = _op_norm(m - np.eye(n))
        margins.append(TOL_TIGHT - ident)
        ok = ok and ident <= TOL_TIGHT
    return min(margins), bool(ok)


def _control_riesz_into_rank_deficit(seed, t, d, tol):
    # a Riesz pair must NOT satisfy the rank-deficit assertion
    f, g = (sequences._riesz_basis(d, (seed, t, 40), role)[0] for role in "fg")
    smin = float(np.linalg.svd(g.conj().T @ f, compute_uv=False)[-1])
    underlying_ok = smin <= TOL_TIGHT
    return smin - TOL_TIGHT, not underlying_ok


def _control_shrunk_dual(seed, t, d, tol):
    # a rescaled dual must fail both the norm floor and the duality verdict
    nf = d + int(np.random.default_rng([seed, t, 41]).integers(d + 1))
    f, bounds = _frame(d, nf, (seed, t, 42), tol)
    shrunk = 0.9 * operators._dual_columns(f, bounds)
    op = _op_norm(shrunk.conj().T @ f)
    verdict = _duality(f @ shrunk.conj().T, tol)
    underlying_ok = op >= 1.0 - TOL_SPECTRAL and verdict.is_dual_pair
    detected = (not underlying_ok) and (not verdict.is_dual_pair) and op <= 0.99
    return (1.0 - TOL_SPECTRAL) - op, detected


_CHECKS = (
    (
        "a-riesz-product",
        "cross-Gram of a Riesz pair is invertible and matches the entrywise "
        "product of the generating operators",
        TOL_TIGHT,
        _check_riesz_product,
    ),
    (
        "b-rank-deficit",
        "cross-Gram of two overcomplete frames has a vanishing smallest "
        "singular value",
        TOL_TIGHT,
        _check_rank_deficit,
    ),
    (
        "c-riesz-transfer",
        "a Bessel sequence with invertible cross-Gram against a Riesz base "
        "classifies as Riesz",
        DEFAULT_TOL,
        _check_riesz_transfer,
    ),
    (
        "d-rank-count",
        "cross-Gram numeric rank equals the vector count of the Riesz side",
        DEFAULT_TOL,
        _check_rank_count,
    ),
    (
        "e-hs-bound",
        "Hilbert-Schmidt norm is at most sqrt(B_g) * sqrt(sum ||f_k||^2), "
        "and an orthonormal side bounds the Bessel constant by ||G||^2",
        TOL_SPECTRAL,
        _check_hs_bound,
    ),
    (
        "f-norm-bounds",
        "squared column norms lie between sigma_min(G)^2/B_g and "
        "op_norm(G)^2/A_g",
        TOL_SPECTRAL,
        _check_norm_bounds,
    ),
    (
        "g-dual-idempotent",
        "dual-pair cross-Grams are idempotent with operator norm at least 1",
        TOL_SPECTRAL,
        _check_dual_idempotent,
    ),
    (
        "h-canonical-projection",
        "canonical-dual cross-Gram is the Hermitian projection of rank dim, "
        "the identity when count == dim",
        TOL_SPECTRAL,
        _check_canonical_projection,
    ),
)

_CONTROLS = (
    (
        "control-b-riesz",
        "feeding a Riesz pair through the rank-deficit assertion must fail it",
        TOL_TIGHT,
        _control_riesz_into_rank_deficit,
    ),
    (
        "control-g-shrunk",
        "a rescaled canonical dual must fail the dual-pair assertions",
        TOL_SPECTRAL,
        _control_shrunk_dual,
    ),
)


def theorem_battery(
    seed: int = 42,
    trials: int = 200,
    dims: tuple[int, int] = (2, 8),
    tol: float = DEFAULT_TOL,
) -> PropertyReport:
    """Run every structural check on ``trials`` seeded random instances.

    Trials run one after another. Each derives its own generator streams
    from (seed, trial index), so the outcome is a pure function of the
    arguments and does not depend on the order the trials run in.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lo, hi = int(dims[0]), int(dims[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"dims must satisfy 1 <= low <= high, got {dims}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if tol >= sequences.MAX_CONDITION**-2:
        raise ValueError(
            f"tol {tol:g} must lie below MAX_CONDITION**-2 = {sequences.MAX_CONDITION**-2:g}, "
            f"the least (sigma_min / sigma_max)**2 of a draw that passes the condition "
            f"screen MAX_CONDITION = {sequences.MAX_CONDITION:g}"
        )
    if trials * max(hi, 8) ** 3 > MAX_BATTERY_WORK:
        raise ValueError(
            f"battery work trials x max(dim_high, 8)**3 = {trials} x {max(hi, 8)}**3 "
            f"exceeds the budget MAX_BATTERY_WORK = {MAX_BATTERY_WORK}"
        )
    if hi > MAX_BATTERY_DIM:
        raise ValueError(
            f"dims {lo}..{hi} reach past MAX_BATTERY_DIM = {MAX_BATTERY_DIM}, above which "
            f"random draws rarely meet the condition screen MAX_CONDITION = "
            f"{sequences.MAX_CONDITION:g}"
        )

    everything = _CHECKS + _CONTROLS
    per_trial = []
    for t in range(trials):
        d = lo + int(np.random.default_rng([seed, t, 0]).integers(hi - lo + 1))
        per_trial.append([fn(seed, t, d, tol) for (_, _, _, fn) in everything])

    outcomes = []
    for (check_id, description, threshold, _), results in zip(everything, zip(*per_trial)):
        failures = sum(not ok for _, ok in results)
        worst = float(min(margin for margin, _ in results))
        outcomes.append(
            CheckOutcome(check_id, description, trials, failures, worst, threshold, failures == 0)
        )
    checks, controls = tuple(outcomes[: len(_CHECKS)]), tuple(outcomes[len(_CHECKS) :])
    passed = all(c.passed for c in outcomes)
    return PropertyReport(seed, trials, lo, hi, tol, checks, controls, passed)


# --------------------------------------------------------------------------
# truncation sweep


@dataclass(frozen=True)
class SweepRow:
    truncation: int
    dim: int
    f_count: int
    g_count: int
    op_norm: float
    sigma_min: float
    hs: float
    f_bessel: float
    g_bessel: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Cross-Gram metrics of a registry pair over increasing truncations.

    Growth flags report Bessel bounds that increase strictly and by at
    least a factor of 10 over the sweep (finite-N evidence of an unbounded
    sequence); trends label the last step of op_norm and hs as stabilizing
    when it moves by at most 1%.
    """

    example_id: str
    rows: tuple
    f_bessel_growth: bool
    g_bessel_growth: bool
    op_norm_trend: str
    hs_trend: str
    tol: float


def _grows_unbounded(values: list[float]) -> bool:
    if len(values) < 2 or values[0] <= 0.0:
        return False
    increasing = all(b > a for a, b in zip(values, values[1:]))
    return increasing and values[-1] >= 10.0 * values[0]


def _trend(values: list[float]) -> str:
    if _grows_unbounded(values):
        return "growing"
    if len(values) >= 2 and abs(values[-1] - values[-2]) <= 1e-2 * max(
        abs(values[-1]), 1e-30
    ):
        return "stabilizing"
    return "inconclusive"


def _prefix_sums(spec, counts: list[int], sums: np.ndarray):
    """Yield, for each of the nondecreasing ``counts``, the per-index sums of |c|^2
    over that many first terms of ``spec``, bin i holding index i: ``sums``,
    into which each count's new terms are folded from ``_chunks`` in term order."""
    done = 0  # terms folded so far
    for count in counts:
        for idx, coeff, stride in _chunks(spec, count, done):
            # for real values np.square is bit for bit |c|^2, in one pass
            sq = np.square(coeff) if coeff.dtype == np.float64 else np.abs(coeff) ** 2
            operators._fold(sums, idx, sq, stride)
            done += len(idx)
            del idx, coeff, sq  # not held while the other side or the next chunk is made
        yield sums


def truncation_sweep(
    example_id: str,
    truncations,
    tol: float = DEFAULT_TOL,
) -> ConvergenceTable:
    """Exact cross-Gram metrics of a registry pair at each truncation.

    Each row is the block route at a prefix of the terms: block i of the
    cross-Gram is rank one with singular value ||w_f on i|| * ||w_g on i||,
    and the Bessel bound of either side is its largest ||w on i||^2.
    Each truncation is shaped by ``sequences.term_shape``, under the term
    budget, and the sum of the truncations may not exceed ``MAX_SWEEP_WORK``.
    """
    sequences.example_entry(example_id)  # an unknown id is refused first
    ns = tuple(int(n) for n in truncations)
    if len(ns) < 2:
        raise ValueError(f"at least two truncations are required, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")
    roles = [sequences.SequenceSpec.paper_example(example_id, role) for role in ("f", "g")]
    for n in (ns[0], ns[-1]):  # min_n and the term budget refuse before the work budget
        sequences.term_shape(roles[0], n)
    if sum(ns) > MAX_SWEEP_WORK:
        raise ValueError(
            f"sweep work {sum(ns)} (the sum of the truncations) exceeds the budget "
            f"MAX_SWEEP_WORK = {MAX_SWEEP_WORK}"
        )

    # term m does not depend on n and the counts grow with n, so each row
    # reads per-index sums over a prefix of the terms, folded a chunk at a
    # time into bins over the largest truncation's span; every registry
    # role starts at e1, so a row's bins are the first dim + 1
    shapes = [[sequences.term_shape(role, n) for role in roles] for n in ns]
    (f, _, top), (g, _, _) = shapes[-1]
    # both sides' bins in one block, which malloc keeps for the next sweep rather
    # than return and fault in again (2,221 minor faults per benchmark op, then 1)
    bins = np.zeros((2, top + 1))
    f_sums = _prefix_sums(f, [fs[1] for fs, _ in shapes], bins[0])
    g_sums = _prefix_sums(g, [gs[1] for _, gs in shapes], bins[1])
    rows = []
    for n, ((_, fc, dim), (_, gc, _)), f_all, g_all in zip(ns, shapes, f_sums, g_sums):
        f_sq, g_sq = f_all[: dim + 1], g_all[: dim + 1]
        op, sigma_min, hs = operators._block_spectrum(f_sq, g_sq, min(fc, gc), TERM_CHUNK)
        bessel = float(f_sq.max()), float(g_sq.max())
        rows.append(SweepRow(n, dim, fc, gc, op, sigma_min, hs, *bessel))

    return ConvergenceTable(
        example_id=example_id,
        rows=tuple(rows),
        f_bessel_growth=_grows_unbounded([r.f_bessel for r in rows]),
        g_bessel_growth=_grows_unbounded([r.g_bessel for r in rows]),
        op_norm_trend=_trend([r.op_norm for r in rows]),
        hs_trend=_trend([r.hs for r in rows]),
        tol=tol,
    )
