"""Classification, cross-Gram reports, duality checks, battery, and sweep.

The dense route reads off one synthesis-matrix SVD or a small set of dense
matrix identities; the block route reads the same reports off the term
arrays of sequences whose terms each sit on one basis index, and the
truncation sweep is the block route at each prefix.  The theorem battery
replays the structural facts about cross-Gram matrices on seeded random
instances and reports the worst margin per check; two negative controls
feed deliberately broken instances through the same assertions to prove
the wiring can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, operators, sequences
from .linalg import DEFAULT_TOL
from .operators import FrameBounds
from .sequences import MAX_SWEEP_TRUNCATION, RealizedSequence, SequenceSpec

# agreement thresholds used by the battery: identity-level comparisons are
# held to TIGHT, spectral quantities (eigenvalues, idempotency, norm bounds)
# to SPECTRAL
TOL_TIGHT = 1e-10
TOL_SPECTRAL = 1e-9

# trials x max(dim_high, 8)**3 of one battery: a trial takes ~5 ms up to 8
# dimensions (call overhead) and grows with dim past that, so the default
# 200 x 8**3 ~ 1e5 takes about a second and the budget about two minutes
MAX_BATTERY_WORK = 10**7


# --------------------------------------------------------------------------
# spectral rules


def _rank_of(s: np.ndarray, tol: float) -> int:
    """Numeric rank from nonincreasing singular values: the number above
    tol * sigma_max, and 0 for the zero matrix."""
    return 0 if s[0] == 0.0 else int(np.sum(s > tol * s[0]))


def _hermitian_defect(m: np.ndarray, op: float) -> float:
    """||M - M*|| / max(1, ||M||) in the operator norm, given op = ||M||."""
    return float(np.linalg.norm(m - m.conj().T, 2)) / max(1.0, op)


# --------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SequenceClassification:
    """Truncation-level verdicts for one sequence."""

    count: int
    dim: int
    bessel_bound: float
    frame: FrameBounds
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
    with a Gram spectrum bounded away from zero.
    """
    t = seq.columns
    dim, count = t.shape
    s = np.linalg.svd(t, compute_uv=False)
    frame = operators.bounds_from_singular_values(s, dim, tol)
    return _classification(dim, frame, _rank_of(s, tol) == dim, np.linalg.norm(t, axis=0))


def _classification(dim: int, frame: FrameBounds, complete: bool, norms: np.ndarray):
    """The verdicts from the frame bounds, completeness and the column norms."""
    count = len(norms)
    riesz = bool(complete and count == dim and frame.spans_ambient)
    return SequenceClassification(
        count, dim, frame.upper, frame, bool(complete), riesz,
        float(norms.max()), float(norms.min()), frame.tol,
    )


# --------------------------------------------------------------------------
# cross-Gram report


@dataclass(frozen=True)
class CrossGramReport:
    """Spectral summary of a cross-Gram matrix.

    The square-only diagnostics (hermitian_defect, idempotency_defect,
    identity_distance) are None for rectangular input; psd is False unless
    the matrix is Hermitian at tolerance with spectrum above -tol*||G||.
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
    m = linalg.as_matrix(m, gram=True)
    rows, cols = m.shape
    s = np.linalg.svd(m, compute_uv=False)
    op = float(s[0])
    sigma_min = float(s[-1])
    square = rows == cols
    defect = idem = ident = None
    psd = False
    if square:
        defect = _hermitian_defect(m, op)
        idem = float(np.linalg.norm(m @ m - m, 2))
        ident = float(np.linalg.norm(m - np.eye(rows), 2))
        if defect <= tol:
            lam_min = float(np.linalg.eigvalsh(m)[0])
            psd = bool(lam_min >= -tol * op)
    hs = float(np.linalg.norm(m, "fro"))
    return _cross_report(rows, cols, op, sigma_min, hs, defect, psd, idem, ident, tol)


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

    Residuals 1 and 2 probe the two reconstruction identities on the basis
    plus ``probes`` seeded random unit vectors; residual 3 is the operator
    norm of T_f T_g* - I and decides the verdict.
    """

    reconstruction_residual_1: float
    reconstruction_residual_2: float
    pairing_residual_3: float
    is_dual_pair: bool
    probes: int
    tol: float


def check_duality(
    f: RealizedSequence,
    g: RealizedSequence,
    tol: float = DEFAULT_TOL,
    probes: int = 16,
    seed=0,
) -> DualityReport:
    if f.dim != g.dim:
        raise ValueError(
            f"sequences live in different ambient dimensions: {f.dim} vs {g.dim}"
        )
    if f.count != g.count:
        raise ValueError(f"dual-pair counts differ: {f.count} vs {g.count}")
    dim = f.dim
    sequences._check_dense(dim, dim, "dual-pair residual")
    _check_probes(dim, probes)
    r1 = f.columns @ g.columns.conj().T - np.eye(dim)
    r2 = g.columns @ f.columns.conj().T - np.eye(dim)
    pairing = float(np.linalg.norm(r1, 2))

    # the stream order of drawing each probe's real part, then its imaginary part
    rng = np.random.default_rng(list(sequences._seed_path(seed)))
    z = rng.standard_normal((probes, 2, dim))
    v = (z[:, 0] + 1j * z[:, 1]).T
    v = v / np.linalg.norm(v, axis=0)

    def worst(r: np.ndarray) -> float:
        # the basis probes r e_k are the columns of r
        basis = np.linalg.norm(r, axis=0)
        random = np.linalg.norm(r @ v, axis=0) / np.linalg.norm(v, axis=0)
        return float(np.concatenate([basis, random]).max())

    return DualityReport(worst(r1), worst(r2), pairing, bool(pairing <= tol), probes, tol)


def _check_probes(dim: int, probes: int) -> None:
    if probes < 0:
        raise ValueError(f"probes must be >= 0, got {probes}")
    if dim * probes > sequences.MAX_DENSE_ENTRIES:  # the probe block is dim x probes
        raise ValueError(
            f"{probes} probes in dimension {dim} exceed the budget "
            f"MAX_DENSE_ENTRIES = {sequences.MAX_DENSE_ENTRIES} entries"
        )


# --------------------------------------------------------------------------
# block route


def has_block_form(f, g) -> bool:
    """Whether every report of two ``sequences.term_arrays`` has a block form."""
    return len(f[0]) != len(g[0]) or bool(np.array_equal(f[0], g[0]))


def _bins(*idx: np.ndarray) -> tuple[int, int]:
    """(base, size) of bins over the joint index span: bin j holds index
    base + j, so bin 0 has no term (numpy's pairwise sums depend on it)."""
    lo = min(int(i.min()) for i in idx)
    return lo - 1, max(int(i.max()) for i in idx) - lo + 2


def _index_sums(idx: np.ndarray, weights, base: int, size: int) -> np.ndarray:
    return np.bincount(idx - base if base else idx, weights=weights, minlength=size)


def _block_spectrum(f_sq: np.ndarray, g_sq: np.ndarray, full: int) -> tuple[float, float, float]:
    """op_norm, sigma_min and hs from the singular values sqrt(f_sq * g_sq)
    of the blocks; ``full`` is min(rows, cols)."""
    block_sq = f_sq * g_sq
    active = block_sq > 0.0
    rank = int(np.count_nonzero(active))
    op = float(np.sqrt(block_sq.max())) if rank else 0.0
    sigma_min = float(np.sqrt(block_sq[active].min())) if rank == full else 0.0
    return op, sigma_min, float(np.sqrt(block_sq.sum()))


def monomial_reports(f, g=None, *, tol: float = DEFAULT_TOL, probes: int | None = None, seed=0):
    """The dense route's reports, read off ``sequences.term_arrays``.

    Returns the classifications of f and g, the cross-Gram report and, with
    ``probes``, the duality report (None where not asked).  S = TT* is
    diagonal.  A square cross-Gram needs both sides on the same index
    arrays: block i of G is then conj(b) a^T for the coefficients on index
    i, and T_f T_g* is diagonal with entries p_i = sum a conj(b).
    """
    sides, dim = ((f,) if g is None else (f, g)), f[2]
    if g is not None and g[2] != dim:
        raise ValueError(f"sequences live in different ambient dimensions: {dim} vs {g[2]}")
    if g is not None and probes is not None and len(f[0]) != len(g[0]):
        raise ValueError(f"dual-pair counts differ: {len(f[0])} vs {len(g[0])}")
    base, size = _bins(*(i for i, _, _ in sides))
    # bin 0 stands for the basis indices outside the span, if any
    basis = slice(0 if base or dim > base + size - 1 else 1, None)
    sq = [_index_sums(i, np.abs(c) ** 2, base, size) for i, c, _ in sides]
    classes = []
    for s_i, (_, c, _) in zip(sq, sides):
        upper, lower = float(s_i[basis].max()), float(s_i[basis].min())
        frame = FrameBounds(lower, upper, bool(lower > tol * upper), tol)
        complete = np.sqrt(lower) > tol * np.sqrt(upper)
        classes.append(_classification(dim, frame, complete, np.abs(c)))
    if g is None:
        return classes[0], None, None, None

    (fi, a, _), (gi, b, _) = f, g
    square = len(fi) == len(gi)
    if square and not np.array_equal(fi, gi):
        raise ValueError("a square cross-Gram has block forms only on shared index arrays")
    op, sigma_min, hs = _block_spectrum(*sq, min(len(fi), len(gi)))
    del sq
    if not square:
        cross = _cross_report(len(gi), len(fi), op, sigma_min, hs, None, False, None, None, tol)
        return (*classes, cross, None)
    # the parts of p as separate real products, so that a = b gives Im p = 0
    p = np.empty(size, complex)
    p.real = _index_sums(fi, a.real * b.real + a.imag * b.imag, base, size)
    p.imag = _index_sums(fi, a.imag * b.real - a.real * b.imag, base, size)
    terms = _index_sums(fi, None, base, size)
    # q^2 = |a|^2 |b|^2 - |p|^2 as |a|^2 |r|^2 (r: b off a) without cancellation
    # on blocks of 2+ terms, q = 0 on the rest; a = b gives r = 0 exactly
    at = fi - base
    k = np.flatnonzero(terms[at] > 1)
    at, ak = at[k], a[k]
    alpha = np.bincount(at, ak.real * ak.real + ak.imag * ak.imag, size)
    alpha_k, toward = alpha[at], np.zeros(len(k), complex)  # conj(p) / |a|^2
    np.divide(p.real[at], alpha_k, out=toward.real, where=alpha_k > 0.0)
    np.divide(-p.imag[at], alpha_k, out=toward.imag, where=alpha_k > 0.0)
    q = np.sqrt(alpha * np.bincount(at, np.abs(b[k] - ak * toward) ** 2, size))
    # in an orthonormal basis of a block that starts at conj(a), G is
    # [[p, 0], [q, 0]] and 0 elsewhere: G - G* is [[2i Im p, -q], [q, 0]],
    # G^2 - G is (p - 1) G, and G - I is [[p - 1, 0], [q, -1]] plus -I
    im, x, one, rows = np.abs(p.imag), np.abs(p - 1.0), terms == 1, terms > 0
    defect = float((im + np.hypot(q, im)).max()) / max(1.0, op)
    idem = float((x * np.hypot(np.abs(p), q)).max())
    wide = (np.hypot(x + 1.0, q) + np.hypot(x - 1.0, q)) / 2.0  # blocks of 2+ terms
    ident = float(np.where(one, x, wide)[rows].max())
    # a Hermitian G has the eigenvalues Re p (one per block) and 0
    psd = defect <= tol and bool(p.real[rows].min() >= -tol * op)
    cross = _cross_report(len(gi), len(fi), op, sigma_min, hs, defect, psd, idem, ident, tol)
    if probes is None:
        return (*classes, cross, None)

    # T_f T_g* - I is p - 1 in the bins and -1 off them; both residuals see |p - 1|
    _check_probes(dim, probes)
    pairing = worst = float(np.abs(p[basis] - 1.0).max())  # the basis probes
    rng = np.random.default_rng(list(sequences._seed_path(seed)))
    if probes:
        r_sq = np.ones(dim)
        r_sq[base : base + size - 1] = np.abs(p[1:] - 1.0) ** 2
    for _ in range(probes):
        # the dense route's stream, one probe at a time: real part, then imaginary part
        z = rng.standard_normal((2, dim))
        v_sq = z[0] ** 2 + z[1] ** 2
        worst = max(worst, float(np.sqrt(np.dot(r_sq, v_sq) / v_sq.sum())))
    return (*classes, cross, DualityReport(worst, worst, pairing, pairing <= tol, probes, tol))


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


def _entrywise_cross_gram(f: RealizedSequence, g: RealizedSequence) -> np.ndarray:
    """Independent route: build the cross-Gram one inner product at a time."""
    out = np.empty((g.count, f.count), dtype=complex)
    for j in range(g.count):
        for k in range(f.count):
            out[j, k] = np.vdot(g.columns[:, j], f.columns[:, k])
    return out


def _check_riesz_product(seed, t, d, tol):
    f, g = sequences.random_riesz_pair(d, (seed, t, 10))
    m = operators.cross_gram(f, g)
    s = np.linalg.svd(m, compute_uv=False)
    rel = float(np.linalg.norm(m - _entrywise_cross_gram(f, g), 2)) / float(s[0])
    ok = rel <= TOL_TIGHT and s[-1] > tol * s[0]
    margin = min(TOL_TIGHT - rel, float(s[-1] / s[0]) - tol)
    return margin, ok


def _check_rank_deficit(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 11])
    nf = d + 1 + int(rng.integers(d))
    ng = d + 1 + int(rng.integers(d))
    f = sequences.random_frame(d, nf, (seed, t, 12))
    g = sequences.random_frame(d, ng, (seed, t, 13))
    smin = float(np.linalg.svd(operators.cross_gram(f, g), compute_uv=False)[-1])
    return TOL_TIGHT - smin, smin <= TOL_TIGHT


def _check_riesz_transfer(seed, t, d, tol):
    f, g = sequences.random_riesz_pair(d, (seed, t, 14))
    s = np.linalg.svd(operators.cross_gram(f, g), compute_uv=False)
    invertible = s[-1] > tol * s[0]
    cls = classify_sequence(g, tol)
    margin = cls.frame.lower / cls.bessel_bound - tol
    return margin, bool(invertible and cls.riesz)


def _check_rank_count(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 15])
    n1 = d + int(rng.integers(d + 1))
    n2 = d + int(rng.integers(d + 1))
    u, _ = sequences.random_riesz_pair(d, (seed, t, 16))
    g1 = sequences.random_frame(d, n1, (seed, t, 17))
    m1 = operators.cross_gram(u, g1)  # Riesz f side: rank must equal f.count
    f2 = sequences.random_frame(d, n2, (seed, t, 18))
    w, _ = sequences.random_riesz_pair(d, (seed, t, 19))
    m2 = operators.cross_gram(f2, w)  # Riesz g side: rank must equal g.count
    s1 = np.linalg.svd(m1, compute_uv=False)
    s2 = np.linalg.svd(m2, compute_uv=False)
    ok = _rank_of(s1, tol) == d and _rank_of(s2, tol) == d
    margin = min(
        float(s1[d - 1] / s1[0]) - tol,
        float(s2[d - 1] / s2[0]) - tol,
    )
    return margin, ok


def _check_hs_bound(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 22])
    nf = d + int(rng.integers(d + 1))
    ng = d + int(rng.integers(d + 1))
    f = sequences.random_frame(d, nf, (seed, t, 20))
    g = sequences.random_frame(d, ng, (seed, t, 21))
    hs = float(np.linalg.norm(operators.cross_gram(f, g), "fro"))
    upper_g = operators.frame_bounds(g, tol).upper
    bound = float(np.sqrt(upper_g) * np.linalg.norm(f.columns, "fro"))
    m1 = bound + TOL_SPECTRAL - hs

    # orthonormal-side variant: the Bessel bound of g is at most ||G||^2
    q, _ = np.linalg.qr(
        sequences._complex_gaussian(np.random.default_rng([seed, t, 23]), (d, d))
    )
    ortho = RealizedSequence(q)
    op_sq = float(np.linalg.norm(operators.cross_gram(ortho, g), 2)) ** 2
    m2 = op_sq + TOL_SPECTRAL * max(1.0, op_sq) - upper_g
    return min(m1, m2), bool(m1 >= 0.0 and m2 >= 0.0)


def _check_norm_bounds(seed, t, d, tol):
    rng = np.random.default_rng([seed, t, 26])
    ng = d + int(rng.integers(d + 1))
    nf = 1 + int(rng.integers(ng))  # nf <= ng keeps sigma_min a true lower bound
    g = sequences.random_frame(d, ng, (seed, t, 24))
    cols = sequences._complex_gaussian(np.random.default_rng([seed, t, 25]), (d, nf))
    f = RealizedSequence(cols)
    m = operators.cross_gram(f, g)
    bounds = operators.frame_bounds(g, tol)
    col_sq = np.linalg.norm(cols, axis=0) ** 2
    s = np.linalg.svd(m, compute_uv=False)
    op = float(s[0])
    smin = float(s[-1])
    m_up = op**2 / bounds.lower + TOL_SPECTRAL - float(col_sq.max())
    m_low = float(col_sq.min()) - smin**2 / bounds.upper + TOL_SPECTRAL
    margin = min(m_up, m_low)
    return margin, margin >= 0.0


def _check_dual_idempotent(seed, t, d, tol):
    nf = d + int(np.random.default_rng([seed, t, 27]).integers(d + 1))
    f = sequences.random_frame(d, nf, (seed, t, 28))
    if t % 2 == 0:
        dual = operators.canonical_dual(f, tol)
    else:
        dual = operators.alternate_dual(f, (seed, t, 31), scale=1.0, tol=tol)
    m = operators.cross_gram(f, dual)
    idem = float(np.linalg.norm(m @ m - m, 2))
    op = float(np.linalg.norm(m, 2))
    verdict = check_duality(f, dual, tol=tol, probes=8, seed=(seed, t, 32))
    ok = bool(
        idem <= TOL_SPECTRAL
        and op >= 1.0 - TOL_SPECTRAL
        and verdict.is_dual_pair
    )
    margin = min(
        TOL_SPECTRAL - idem,
        op - (1.0 - TOL_SPECTRAL),
        tol - verdict.pairing_residual_3,
    )
    return margin, ok


def _check_canonical_projection(seed, t, d, tol):
    n = d + int(np.random.default_rng([seed, t, 33]).integers(d + 1))
    f = sequences.random_frame(d, n, (seed, t, 34))
    m = operators.cross_gram(f, operators.canonical_dual(f, tol))
    defect = _hermitian_defect(m, float(np.linalg.norm(m, 2)))
    evals = np.linalg.eigvalsh(m)
    eig_dist = float(np.max(np.minimum(np.abs(evals), np.abs(evals - 1.0))))
    near_one = int(np.sum(evals > 0.5))
    lam_min = float(evals[0])
    margins = [
        TOL_TIGHT - defect,
        TOL_SPECTRAL - eig_dist,
        lam_min + TOL_SPECTRAL,
    ]
    ok = defect <= TOL_TIGHT and eig_dist <= TOL_SPECTRAL and near_one == d
    ok = ok and lam_min >= -TOL_SPECTRAL
    if n == d:
        ident = float(np.linalg.norm(m - np.eye(n), 2))
        margins.append(TOL_TIGHT - ident)
        ok = ok and ident <= TOL_TIGHT
    return min(margins), bool(ok)


def _control_riesz_into_rank_deficit(seed, t, d, tol):
    # a Riesz pair must NOT satisfy the rank-deficit assertion
    f, g = sequences.random_riesz_pair(d, (seed, t, 40))
    smin = float(np.linalg.svd(operators.cross_gram(f, g), compute_uv=False)[-1])
    underlying_ok = smin <= TOL_TIGHT
    return smin - TOL_TIGHT, not underlying_ok


def _control_shrunk_dual(seed, t, d, tol):
    # a rescaled dual must fail both the norm floor and the duality verdict
    nf = d + int(np.random.default_rng([seed, t, 41]).integers(d + 1))
    f = sequences.random_frame(d, nf, (seed, t, 42))
    dual = operators.canonical_dual(f, tol)
    shrunk = RealizedSequence(0.9 * dual.columns)
    op = float(np.linalg.norm(operators.cross_gram(f, shrunk), 2))
    verdict = check_duality(f, shrunk, tol=tol, probes=8, seed=(seed, t, 43))
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
    if trials * max(hi, 8) ** 3 > MAX_BATTERY_WORK:
        raise ValueError(
            f"battery work trials x max(dim_high, 8)**3 = {trials} x {max(hi, 8)}**3 "
            f"exceeds the budget MAX_BATTERY_WORK = {MAX_BATTERY_WORK}"
        )

    everything = _CHECKS + _CONTROLS

    def run_trial(t: int) -> list[tuple[float, bool]]:
        d = lo + int(np.random.default_rng([seed, t, 0]).integers(hi - lo + 1))
        return [fn(seed, t, d, tol) for (_, _, _, fn) in everything]

    per_trial = [run_trial(t) for t in range(trials)]

    outcomes = []
    for pos, (check_id, description, threshold, _) in enumerate(everything):
        margins = [per_trial[t][pos][0] for t in range(trials)]
        failures = sum(1 for t in range(trials) if not per_trial[t][pos][1])
        outcomes.append(
            CheckOutcome(
                check_id=check_id,
                description=description,
                trials=trials,
                failures=failures,
                worst_margin=float(min(margins)),
                threshold=threshold,
                passed=failures == 0,
            )
        )
    checks = tuple(outcomes[: len(_CHECKS)])
    controls = tuple(outcomes[len(_CHECKS) :])
    return PropertyReport(
        seed=seed,
        trials=trials,
        dim_low=lo,
        dim_high=hi,
        tol=tol,
        checks=checks,
        controls=controls,
        all_passed=all(c.passed for c in checks) and all(c.passed for c in controls),
    )


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


def truncation_sweep(
    example_id: str,
    truncations,
    tol: float = DEFAULT_TOL,
) -> ConvergenceTable:
    """Exact cross-Gram metrics of a registry pair at each truncation.

    Each row is the block route at a prefix of the terms: block i of the
    cross-Gram is rank one with singular value ||w_f on i|| * ||w_g on i||,
    and the Bessel bound of either side is its largest ||w on i||^2.
    The largest truncation may not exceed ``MAX_SWEEP_TRUNCATION``.
    """
    entry = sequences.example_entry(example_id)
    ns = tuple(int(n) for n in truncations)
    if len(ns) < 2:
        raise ValueError(f"at least two truncations are required, got {len(ns)}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"truncations must be strictly increasing, got {ns}")
    if ns[0] < entry.min_n:
        raise ValueError(
            f"example {example_id} needs at least {entry.min_n} terms, got {ns[0]}"
        )

    if ns[-1] > MAX_SWEEP_TRUNCATION:
        raise ValueError(
            f"largest truncation {ns[-1]} exceeds the sweep budget "
            f"MAX_SWEEP_TRUNCATION = {MAX_SWEEP_TRUNCATION}"
        )

    # term m does not depend on n and the counts grow with n, so each row
    # reads a prefix of the terms generated once at the largest truncation
    fi, fw = sequences.monomial_terms(SequenceSpec.paper_example(example_id, "f"), ns[-1])
    gi, gw = sequences.monomial_terms(SequenceSpec.paper_example(example_id, "g"), ns[-1])
    fw_sq, gw_sq = np.abs(fw) ** 2, np.abs(gw) ** 2
    del fw, gw
    rows = []
    for n in ns:
        fc, gc = entry.f_count(n), entry.g_count(n)
        base, size = _bins(fi[:fc], gi[:gc])
        f_sq = _index_sums(fi[:fc], fw_sq[:fc], base, size)
        g_sq = _index_sums(gi[:gc], gw_sq[:gc], base, size)
        op, sigma_min, hs = _block_spectrum(f_sq, g_sq, min(fc, gc))
        bessel = float(f_sq.max()), float(g_sq.max())
        rows.append(SweepRow(n, base + size - 1, fc, gc, op, sigma_min, hs, *bessel))

    return ConvergenceTable(
        example_id=example_id,
        rows=tuple(rows),
        f_bessel_growth=_grows_unbounded([r.f_bessel for r in rows]),
        g_bessel_growth=_grows_unbounded([r.g_bessel for r in rows]),
        op_norm_trend=_trend([r.op_norm for r in rows]),
        hs_trend=_trend([r.hs for r in rows]),
        tol=tol,
    )
