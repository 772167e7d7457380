"""Checks for the frame-bound, cross-Gram and dual operator layer.

Orientation oracle: the cross-Gram of (f, g) carries <f_k, g_j> at row j,
column k, so it equals g.columns.conj().T @ f.columns and has shape
g.count x f.count.  Frozen values come from the 4-term repeated-vector
frame (frame operator diag(2,1,1), bounds A=1, B=2) and the blocked pair.
The frame operator TT* and the Gram T*T are formed here, in the tests, as
references for the frame bounds read off the singular values of T.
"""

import numpy as np
import pytest

from crossgram import operators as ops
from crossgram import sequences as seqs
from crossgram.diagnostics import analyze_cross_gram, classify_sequence
from crossgram.sequences import SequenceSpec, WeightRule, paper_example, realize


@pytest.fixture
def repeated_frame():
    f, _ = paper_example("ex-canonical", 4)
    return f


def frame_operator(seq):
    t = seq.columns
    return t @ t.conj().T


def gram(seq):
    t = seq.columns
    return t.conj().T @ t


def test_frame_operator_frozen(repeated_frame):
    assert repeated_frame.columns.shape == (3, 4)
    np.testing.assert_allclose(frame_operator(repeated_frame), np.diag([2.0, 1.0, 1.0]), atol=0)


def test_gram_of_reciprocal_basis():
    r = realize(SequenceSpec.scaled_basis(WeightRule.inverse_index()), 3)
    np.testing.assert_allclose(gram(r), np.diag([1.0, 0.25, 1 / 9]), atol=1e-15)


def test_cross_gram_entry_orientation_oracle():
    rng = np.random.default_rng(17)
    fc = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    gc = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    f = seqs.RealizedSequence(fc)
    g = seqs.RealizedSequence(gc)
    gram = ops.cross_gram(f, g)
    assert gram.shape == (4, 5)
    for j in range(4):
        for k in range(5):
            assert gram[j, k] == pytest.approx(np.vdot(gc[:, j], fc[:, k]), abs=1e-12)


def test_cross_gram_swap_is_adjoint():
    f = seqs.random_frame(3, 5, seed=2)
    g = seqs.random_frame(3, 6, seed=3)
    np.testing.assert_allclose(
        ops.cross_gram(f, g), ops.cross_gram(g, f).conj().T, atol=1e-12
    )


def test_cross_gram_blocked_pattern():
    f, g = paper_example("ex-blocked", 6)
    expected = np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(ops.cross_gram(f, g), expected)


def test_cross_gram_rejects_ambient_mismatch():
    f = seqs.random_frame(3, 5, seed=2)
    g = seqs.random_frame(4, 5, seed=2)
    with pytest.raises(ValueError, match="ambient"):
        ops.cross_gram(f, g)


def test_gram_and_frame_operator_share_nonzero_spectrum():
    seq = seqs.random_frame(3, 6, seed=8)
    s_eigs = np.linalg.eigvalsh(frame_operator(seq))
    g_eigs = np.linalg.eigvalsh(gram(seq))
    np.testing.assert_allclose(np.sort(g_eigs)[-3:], np.sort(s_eigs), atol=1e-10)
    np.testing.assert_allclose(np.sort(g_eigs)[:3], 0.0, atol=1e-10)
    b = ops.frame_bounds(seq)
    assert (b.lower, b.upper) == pytest.approx((s_eigs[0], s_eigs[-1]), rel=1e-12)


def test_frame_bounds_frozen(repeated_frame):
    b = ops.frame_bounds(repeated_frame)
    assert b.lower == pytest.approx(1.0, abs=1e-14)
    assert b.upper == pytest.approx(2.0, abs=1e-14)
    assert b.spans_ambient is True
    assert 0.0 <= b.lower <= b.upper


def test_frame_bounds_non_spanning():
    r = realize(SequenceSpec.explicit([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2)
    b = ops.frame_bounds(r)
    assert b.spans_ambient is False
    assert b.lower == pytest.approx(0.0, abs=1e-14)
    assert b.upper == pytest.approx(1.0, abs=1e-14)


def test_frame_bounds_match_gram_norm():
    seq = seqs.random_frame(4, 9, seed=5)
    b = ops.frame_bounds(seq)
    assert b.upper == pytest.approx(np.linalg.norm(gram(seq), 2), rel=1e-12)


def test_frame_bounds_keep_relative_accuracy_at_condition_1e9():
    # T = U [diag(1, 1e-4, 1e-9) | 0] V* in C^{3 x 5}: eigenvalues of TT*
    # carry absolute errors near eps * B = 2e-16 and lose A = 1e-18 entirely
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    core = np.zeros((3, 5))
    core[[0, 1, 2], [0, 1, 2]] = (1.0, 1e-4, 1e-9)
    seq = seqs.RealizedSequence(u @ core @ v.conj().T)
    b = ops.frame_bounds(seq)
    assert b.lower == pytest.approx(1e-18, rel=1e-6, abs=0)
    assert b.upper == pytest.approx(1.0, rel=1e-12)
    assert b.spans_ambient is False  # 1e-18 <= tol * B
    assert classify_sequence(seq).frame == b
    assert ops.frame_bounds(seq, tol=1e-20).spans_ambient is True


def test_frame_bounds_one_singular_value_are_equal():
    # one row gives one singular value, so A and B are the same square;
    # this frame's sigma is one where pow(sigma, 2) and sigma * sigma differ
    f = seqs.random_frame(1, 4, 65535)
    b = ops.frame_bounds(f)
    assert b.lower == b.upper
    assert ops.canonical_dual(f).count == 4


def test_canonical_dual_frozen(repeated_frame):
    d = ops.canonical_dual(repeated_frame)
    expected = np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        dtype=complex,
    )
    np.testing.assert_allclose(d.columns, expected, atol=1e-14)


def test_canonical_dual_matches_registry_partner():
    for n in (2, 5, 9):
        f, g = paper_example("ex-canonical", n)
        d = ops.canonical_dual(f)
        np.testing.assert_allclose(d.columns, g.columns, atol=1e-13)


def test_canonical_dual_duality_residual_small():
    for seed in range(12):
        f = seqs.random_frame(4, 7, seed=seed)
        d = ops.canonical_dual(f)
        resid = f.columns @ d.columns.conj().T - np.eye(4)
        assert np.linalg.norm(resid, 2) <= 1e-10


def test_canonical_dual_rejects_non_frame():
    r = realize(SequenceSpec.explicit([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 2)
    with pytest.raises(ops.NotAFrameError):
        ops.canonical_dual(r)


def test_hs_norm_equals_column_sum_oracle():
    f = seqs.random_frame(3, 5, seed=13)
    g = seqs.random_frame(3, 4, seed=14)
    m = ops.cross_gram(f, g)
    by_columns = np.sqrt(sum(np.linalg.norm(m[:, k]) ** 2 for k in range(m.shape[1])))
    hs = analyze_cross_gram(m).hs
    assert hs == pytest.approx(by_columns, rel=1e-13)
    assert hs == pytest.approx(np.linalg.norm(m, "fro"), rel=1e-15)
    assert hs >= np.linalg.norm(m, 2) - 1e-12
