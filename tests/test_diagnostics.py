"""Checks for sequence classification, cross-Gram reports, and duality checks.

Frozen facts: the blocked 6x4 cross-Gram has singular values
{2, sqrt(2), sqrt(2), 0} and Hilbert-Schmidt norm sqrt(8); the canonical
dual cross-Gram is a Hermitian projection; an index-weighted basis has
Bessel bound N^2 at truncation N.
"""

import tracemalloc

import numpy as np
import pytest

from crossgram import diagnostics as diag
from crossgram import operators as ops
from crossgram import sequences as seqs
from crossgram.sequences import SequenceSpec, WeightRule, paper_example, realize


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


def test_hs_dominates_operator_norm():
    f = seqs.random_frame(3, 6, seed=40)
    g = seqs.random_frame(3, 5, seed=41)
    r = diag.analyze_cross_gram(ops.cross_gram(f, g))
    assert r.hs >= r.op_norm - 1e-12


# ------------------------------------------------------------ duality


def test_check_duality_canonical_pair():
    f = seqs.random_frame(4, 7, seed=50)
    g = ops.canonical_dual(f)
    r = diag.check_duality(f, g, seed=1)
    assert r.is_dual_pair is True
    assert r.pairing_residual_3 <= 1e-10
    assert r.reconstruction_residual_1 <= 1e-10
    assert r.reconstruction_residual_2 <= 1e-10
    assert r.probes == 16


def test_check_duality_registry_canonical_example():
    f, g = paper_example("ex-canonical", 8)
    r = diag.check_duality(f, g, seed=2)
    assert r.is_dual_pair is True


def test_check_duality_rejects_non_dual_line():
    f, g = paper_example("ex-norm89", 32)
    r = diag.check_duality(f, g, seed=3)
    assert r.is_dual_pair is False
    assert r.pairing_residual_3 > 0.1


def test_check_duality_scaled_dual_fails_all_three_residuals():
    f = seqs.random_frame(3, 5, seed=51)
    g = ops.canonical_dual(f)
    shrunk = seqs.RealizedSequence(0.9 * g.columns)
    r = diag.check_duality(f, shrunk, seed=4)
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
        r = diag.check_duality(f, g, seed=seed)
        assert r.is_dual_pair is True
        assert r.reconstruction_residual_1 <= 10 * r.tol
        assert r.reconstruction_residual_2 <= 10 * r.tol


def test_check_duality_residuals_are_the_worst_probe():
    # reference: every basis vector, then each seeded probe drawn as
    # real part then imaginary part and normalized, one matrix-vector product each
    f, g = paper_example("ex-norm89", 9)
    r = diag.check_duality(f, g, probes=5, seed=(6, 1))
    dim = f.dim
    rng = np.random.default_rng([6, 1])
    vectors = list(np.eye(dim, dtype=complex).T)
    for _ in range(5):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vectors.append(v / np.linalg.norm(v))
    for res, a, b in (
        (r.reconstruction_residual_1, f, g),
        (r.reconstruction_residual_2, g, f),
    ):
        op = a.columns @ b.columns.conj().T - np.eye(dim)
        worst = max(np.linalg.norm(op @ v) / np.linalg.norm(v) for v in vectors)
        assert res == pytest.approx(worst, rel=1e-14, abs=0.0)


def test_check_duality_memory_is_quadratic_in_dim():
    f, g = paper_example("ex-identity", 256)
    tracemalloc.start()
    try:
        diag.check_duality(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each dense 256 x 256 complex matrix is 1 MB; 16 * dim^3 bytes would be 268 MB
    assert peak < 10 * 2**20


def test_block_route_memory_is_linear_in_terms():
    n = 10**5
    f, g = seqs.example_terms("ex-identity", n)
    tracemalloc.start()
    try:
        diag.monomial_reports(f, g)
        diag.monomial_duality(f, g, probes=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 98 bytes per term, in the reports; the term arrays themselves are not counted
    assert peak < 120 * n


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
    f, g = seqs.example_terms("ex-canonical", 40)
    assert np.array_equal(f[0], g[0])

    def refuse(*args, **kwargs):
        raise AssertionError("classification or cross-Gram work")

    monkeypatch.setattr(diag, "_classification", refuse)
    monkeypatch.setattr(diag, "_block_spectrum", refuse)
    got = diag.monomial_duality(f, g, probes=5, seed=3)
    monkeypatch.undo()
    want = diag.check_duality(seqs.from_terms(*f), seqs.from_terms(*g), probes=5, seed=3)
    assert got.is_dual_pair is want.is_dual_pair is True
    for field in ("reconstruction_residual_1", "reconstruction_residual_2", "pairing_residual_3"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9, abs=1e-12)
    # a count or ambient mismatch names the same fault as the dense route
    for bad in ((f[0][:-1], f[1][:-1], f[2]), (f[0], f[1], f[2] + 1)):
        with pytest.raises(ValueError) as dense:
            diag.check_duality(seqs.from_terms(*f), seqs.from_terms(*bad), probes=5)
        with pytest.raises(ValueError) as alone:
            diag.monomial_duality(f, bad, probes=5)
        assert str(alone.value) == str(dense.value)


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
