"""Checks for sequence classification, cross-Gram reports, and duality checks.

Frozen facts: the blocked 6x4 cross-Gram has singular values
{2, sqrt(2), sqrt(2), 0} and Hilbert-Schmidt norm sqrt(8); the canonical
dual cross-Gram is a Hermitian projection; an index-weighted basis has
Bessel bound N^2 at truncation N.
"""

import inspect
import tracemalloc
import typing

import numpy as np
import pytest

from crossgram import diagnostics as diag
from crossgram import operators as ops
from crossgram import sequences as seqs
from crossgram.sequences import SequenceSpec, WeightRule, paper_example, realize


def example_shapes(example_id, n):
    """The term shapes of both roles of a registry pair, as ``example`` hands them to its reports."""
    return [seqs.term_shape(SequenceSpec.paper_example(example_id, role), n) for role in "fg"]


def example_terms(example_id, n):
    """The term arrays of both roles of a registry pair."""
    return [seqs.term_arrays(shape) for shape in example_shapes(example_id, n)]


# ------------------------------------------------------------ classification


def test_classify_orthonormal_basis_is_riesz():
    r = realize(SequenceSpec.explicit(np.eye(4).tolist()), 4)
    c = diag.classify_sequence(r)
    assert c.riesz is True
    assert c.complete is True
    assert c.frame.spans_ambient is True
    assert c.frame.lower == pytest.approx(1.0, abs=1e-13)
    assert c.frame.upper == pytest.approx(1.0, abs=1e-13)
    assert c.bessel_bound == pytest.approx(1.0, abs=1e-13)
    assert c.nba_sup == pytest.approx(1.0, abs=1e-14)
    assert c.nbb_inf == pytest.approx(1.0, abs=1e-14)


def test_classify_repeated_frame_not_riesz():
    f, _ = paper_example("ex-canonical", 4)
    c = diag.classify_sequence(f)
    assert c.frame.spans_ambient is True
    assert c.complete is True
    assert c.riesz is False  # four vectors in a 3-dim space
    assert c.frame.lower == pytest.approx(1.0, abs=1e-13)
    assert c.frame.upper == pytest.approx(2.0, abs=1e-13)


def test_classify_incomplete_sequence():
    r = realize(SequenceSpec.explicit([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2)
    c = diag.classify_sequence(r)
    assert c.complete is False
    assert c.riesz is False
    assert c.frame.spans_ambient is False


def test_classify_index_weighted_bessel_bound_grows():
    for n in (10, 100):
        g = realize(SequenceSpec.scaled_basis(WeightRule.index()), n)
        c = diag.classify_sequence(g)
        assert c.bessel_bound == pytest.approx(float(n * n), rel=1e-12)
        assert c.nba_sup == pytest.approx(float(n), rel=1e-13)
        assert c.nbb_inf == pytest.approx(1.0, rel=1e-13)
        assert c.riesz is True  # every finite truncation is a basis of its span


def test_classify_agrees_with_frame_bounds_route():
    seq = seqs.random_frame(4, 9, seed=31)
    c = diag.classify_sequence(seq)
    b = ops.frame_bounds(seq)
    assert c.frame == b
    assert c.bessel_bound == b.upper
    # against the eigenvalues of the frame operator, formed here
    evals = np.linalg.eigvalsh(seq.columns @ seq.columns.conj().T)
    assert (b.lower, b.upper) == pytest.approx((evals[0], evals[-1]), rel=1e-10)


# ------------------------------------------------------------ cross-Gram


def test_analyze_blocked_cross_gram():
    f, g = paper_example("ex-blocked", 6)
    r = diag.analyze_cross_gram(ops.cross_gram(f, g))
    assert (r.rows, r.cols) == (6, 4)
    assert r.op_norm == pytest.approx(2.0, abs=1e-13)
    assert r.sigma_min == pytest.approx(0.0, abs=1e-13)
    assert r.hs == pytest.approx(np.sqrt(8.0), abs=1e-13)
    assert r.invertible is False
    # square-only diagnostics are absent for a 6x4 matrix
    assert r.hermitian_defect is None
    assert r.idempotency_defect is None
    assert r.identity_distance is None
    assert r.psd is False


def test_analyze_identity_cross_gram():
    f, g = paper_example("ex-identity", 16)
    r = diag.analyze_cross_gram(ops.cross_gram(f, g))
    assert r.identity_distance == pytest.approx(0.0, abs=1e-12)
    assert r.invertible is True
    assert r.psd is True
    assert r.hermitian_defect == pytest.approx(0.0, abs=1e-12)
    assert r.idempotency_defect == pytest.approx(0.0, abs=1e-12)
    assert r.hs == pytest.approx(4.0, abs=1e-12)


def test_analyze_canonical_dual_projection():
    f, g = paper_example("ex-canonical", 6)
    r = diag.analyze_cross_gram(ops.cross_gram(f, g))
    assert r.hermitian_defect == pytest.approx(0.0, abs=1e-12)
    assert r.psd is True
    assert r.idempotency_defect == pytest.approx(0.0, abs=1e-12)
    # one direction is collapsed, so the projection is not the identity
    assert r.identity_distance == pytest.approx(1.0, abs=1e-12)
    assert r.invertible is False


def test_analyze_non_hermitian_square():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    r = diag.analyze_cross_gram(m)
    assert r.hermitian_defect == pytest.approx(1.0, abs=1e-13)
    assert r.psd is False
    assert r.idempotency_defect == pytest.approx(1.0, abs=1e-13)  # ||M^2 - M|| = ||M||
    assert r.invertible is False


def test_hermitian_defect_and_psd_are_relative_to_the_operator_norm():
    # one matrix at two scales: ||G - G*|| / ||G|| is 0.618 at both, and
    # neither reads as Hermitian; the zero matrix reads 0 and psd
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    for scale in (1.0, 1e-12):
        r = diag.analyze_cross_gram(scale * m)
        assert r.hermitian_defect == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)
        assert r.psd is False
    r = diag.analyze_cross_gram(np.zeros((2, 2)))
    assert (r.hermitian_defect, r.psd) == (0.0, True)


def test_hs_dominates_operator_norm():
    f = seqs.random_frame(3, 6, seed=40)
    g = seqs.random_frame(3, 5, seed=41)
    r = diag.analyze_cross_gram(ops.cross_gram(f, g))
    assert r.hs >= r.op_norm - 1e-12


# ------------------------------------------------------------ duality


def test_check_duality_canonical_pair():
    f = seqs.random_frame(4, 7, seed=50)
    g = ops.canonical_dual(f)
    r = diag.check_duality(f, g)
    assert r.is_dual_pair is True
    assert r.pairing_residual_3 <= 1e-10
    assert r.reconstruction_residual_1 <= 1e-10
    assert r.reconstruction_residual_2 <= 1e-10


def test_check_duality_registry_canonical_example():
    f, g = paper_example("ex-canonical", 8)
    r = diag.check_duality(f, g)
    assert r.is_dual_pair is True


def test_check_duality_rejects_non_dual_line():
    f, g = paper_example("ex-norm89", 32)
    r = diag.check_duality(f, g)
    assert r.is_dual_pair is False
    assert r.pairing_residual_3 > 0.1


def test_check_duality_scaled_dual_fails_all_three_residuals():
    f = seqs.random_frame(3, 5, seed=51)
    g = ops.canonical_dual(f)
    shrunk = seqs.RealizedSequence(0.9 * g.columns)
    r = diag.check_duality(f, shrunk)
    assert r.is_dual_pair is False
    # all three routes agree on the verdict at 10x tolerance
    tol = r.tol
    assert r.reconstruction_residual_1 > 10 * tol
    assert r.reconstruction_residual_2 > 10 * tol
    assert r.pairing_residual_3 > tol


def test_check_duality_residual_routes_agree_for_duals():
    for seed in range(8):
        f = seqs.random_frame(3, 6, seed=seed)
        g = ops.alternate_dual(f, seed=seed + 100)
        r = diag.check_duality(f, g)
        assert r.is_dual_pair is True
        assert r.reconstruction_residual_1 <= 10 * r.tol
        assert r.reconstruction_residual_2 <= 10 * r.tol


def test_check_duality_memory_is_quadratic_in_dim():
    f, g = paper_example("ex-identity", 256)
    tracemalloc.start()
    try:
        diag.check_duality(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each dense 256 x 256 complex matrix is 1 MB, and the residual F G* - I
    # is formed once; a dim x dim x dim intermediate would be 268 MB
    assert peak < 10 * 2**20


def test_block_route_memory_is_linear_in_terms():
    n = 10**5
    f, g = example_shapes("ex-identity", n)
    tracemalloc.start()
    try:
        diag.reports(f, g)
        diag.reports(f, g, duality=True, cross=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bins and two chunks of terms, which the reports now generate themselves
    assert peak < 120 * n


def test_block_route_duality_holds_no_probe():
    # p and |p - 1| take ~40 bytes per term; the random probes, which the
    # diagonal residual already bounds, took ~64
    n = 10**5
    f, g = example_shapes("ex-identity", n)
    diag.reports(f, g, duality=True, cross=False)  # lazy imports stay out of the peak
    tracemalloc.start()
    try:
        diag.reports(f, g, duality=True, cross=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * n


def complex_square_fields(m, op):
    """hermitian_defect, idempotency_defect and identity_distance of a
    complex128 matrix, by complex LAPACK."""
    assert m.dtype == np.complex128
    norm = lambda a: float(np.linalg.svd(a, compute_uv=False)[0])  # noqa: E731
    return norm(m - m.conj().T) / op, norm(m @ m - m), norm(m - np.eye(len(m)))


def assert_close(got, want):
    for x, y in zip(got, want):
        assert abs(x - y) <= 1e-14 * abs(y), (got, want)


@pytest.mark.parametrize("example_id", ["ex-hs", "ex-norm89"])
def test_real_pairs_agree_with_complex_lapack(example_id):
    # the real path moves the dense square fields and pairing_residual_3 by ulps only
    shapes = example_shapes(example_id, 128)
    cross = diag.reports(*shapes)[2]
    pairing = diag.reports(*shapes, duality=True, cross=False)[3].pairing_residual_3
    f, g = (seqs.term_arrays(shape) for shape in shapes)
    fm, gm = seqs.from_terms(*f).columns, seqs.from_terms(*g).columns
    m = gm.conj().T @ fm
    want = complex_square_fields(m, cross.op_norm)
    assert_close((cross.hermitian_defect, cross.idempotency_defect, cross.identity_distance), want)
    r = fm @ gm.conj().T - np.eye(len(fm))
    assert_close((pairing,), (float(np.linalg.svd(r, compute_uv=False)[0]),))


def test_real_cross_gram_agrees_with_complex_lapack():
    m = np.random.default_rng(96).standard_normal((96, 96))
    rep = diag.analyze_cross_gram(m)
    c = m.astype(np.complex128)
    s = np.linalg.svd(c, compute_uv=False)
    assert_close((rep.op_norm, rep.hs), (float(s[0]), float(np.linalg.norm(c, "fro"))))
    want = complex_square_fields(c, float(s[0]))
    assert_close((rep.hermitian_defect, rep.idempotency_defect, rep.identity_distance), want)


def test_hybrid_reports_scatter_the_cross_gram_from_the_terms():
    # a square pair on different index arrays reads its square fields off
    # G, scattered from the terms as float64 for the real ex-hs: the peak is
    # ~1.03 N^2 complex entries, G and one buffer for G - G*, G @ G - G and
    # G - I
    n = 400
    f, g = example_shapes("ex-hs", n)
    tracemalloc.start()
    try:
        diag.reports(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 16


def test_hybrid_reports_refuse_the_cross_gram_before_any_block_work():
    # a library caller hits the N x N budget before the bins are allocated
    f, g = example_shapes("ex-hs", 4097)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="4097 x 4097 cross-Gram exceeds the budget MAX_DENSE"):
            diag.reports(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_hybrid_duality_scatters_the_residual_from_the_terms():
    # T_f T_g* - I is the one dense matrix, float64 for the real ex-hs, and
    # no side is realized: the peak is ~0.51 N^2 complex entries
    n = 500
    f, g = example_shapes("ex-hs", n)
    diag.reports(*example_shapes("ex-hs", 8), duality=True, cross=False)  # lazy imports stay out of the peak
    tracemalloc.start()
    try:
        diag.reports(f, g, duality=True, cross=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * n * n * 16


def test_check_duality_requires_matching_counts():
    f = seqs.random_frame(3, 5, seed=52)
    g = seqs.random_frame(3, 6, seed=53)
    with pytest.raises(ValueError, match="5"):
        diag.check_duality(f, g)


def test_check_duality_requires_matching_ambient():
    f = seqs.random_frame(3, 5, seed=54)
    g = seqs.random_frame(4, 5, seed=55)
    with pytest.raises(ValueError, match="ambient"):
        diag.check_duality(f, g)


def test_op_norm_is_the_two_norm_bit_for_bit():
    rng = np.random.default_rng(8)
    for shape in ((6, 6), (3, 7), (7, 3), (1, 5)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        low_rank = x[:, :1] @ x[:1, :]  # rank one, square when x is
        for m in (x, low_rank, np.zeros(shape, complex)):
            assert diag._op_norm(m) == float(np.linalg.norm(m, 2))


def test_monomial_duality_on_shared_index_arrays_reads_only_the_pairing(monkeypatch):
    fs, gs = example_shapes("ex-canonical", 40)
    f, g = (seqs.term_arrays(shape) for shape in (fs, gs))
    assert np.array_equal(f[0], g[0])

    def refuse(*args, **kwargs):
        raise AssertionError("classification or cross-Gram work")

    monkeypatch.setattr(diag, "_classification", refuse)
    monkeypatch.setattr(ops, "_block_spectrum", refuse)
    got = diag.reports(fs, gs, duality=True, cross=False)[3]
    monkeypatch.undo()
    want = diag.check_duality(seqs.from_terms(*f), seqs.from_terms(*g))
    assert got.is_dual_pair is want.is_dual_pair is True
    for field in ("reconstruction_residual_1", "reconstruction_residual_2", "pairing_residual_3"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=1e-12)
    # a count or ambient mismatch names the same fault as the dense route
    for bad in ((gs[0], gs[1] - 1, gs[2]), (gs[0], gs[1], gs[2] + 1)):
        with pytest.raises(ValueError) as dense:
            diag.check_duality(seqs.from_terms(*f), seqs.from_terms(*seqs.term_arrays(bad)))
        with pytest.raises(ValueError) as alone:
            diag.reports(fs, bad, duality=True, cross=False)
        assert str(alone.value) == str(dense.value)


@pytest.mark.parametrize(
    "entry", ["cross_gram", "check_duality", "monomial_reports", "monomial_duality"]
)
def test_every_pair_entry_point_names_the_same_ambient_mismatch(entry):
    f = (SequenceSpec.scaled_basis(WeightRule.constant()), 5, 5)
    g = (SequenceSpec.scaled_basis(WeightRule.constant(2.0)), 5, 6)
    dense = seqs.from_terms(*seqs.term_arrays(f)), seqs.from_terms(*seqs.term_arrays(g))
    calls = {
        "cross_gram": lambda: ops.cross_gram(*dense),
        "check_duality": lambda: diag.check_duality(*dense),
        "monomial_reports": lambda: diag.reports(f, g),
        "monomial_duality": lambda: diag.reports(f, g, duality=True, cross=False),
    }
    with pytest.raises(ValueError) as err:
        calls[entry]()
    assert str(err.value) == "sequences live in different ambient dimensions: 5 vs 6"


def test_swapped_pair_has_the_same_operator_norm():
    for seed in range(6):
        f = seqs.random_frame(3, 5, seed=(61, seed))
        g = seqs.random_frame(3, 7, seed=(62, seed))
        a = diag.analyze_cross_gram(ops.cross_gram(f, g)).op_norm
        b = diag.analyze_cross_gram(ops.cross_gram(g, f)).op_norm
        assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_orthonormal_basis_classification_ladder():
    for d in (1, 2, 64, 512):
        basis = seqs.RealizedSequence(np.eye(d, dtype=complex))
        c = diag.classify_sequence(basis)
        assert c.riesz and c.complete
        assert c.bessel_bound == pytest.approx(1.0, abs=1e-12)
        assert c.frame.lower == pytest.approx(1.0, abs=1e-12)
        assert c.nba_sup == pytest.approx(1.0, abs=1e-12)
        assert c.nbb_inf == pytest.approx(1.0, abs=1e-12)


def test_every_annotation_names_something_its_module_can_see():
    # annotations are strings under postponed evaluation, so a name the
    # module never imports fails only when the hints are resolved
    for module in (diag, ops, seqs):
        for obj in vars(module).values():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                typing.get_type_hints(obj)
