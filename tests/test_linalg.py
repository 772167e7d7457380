"""Checks for the validated complex-matrix layer and the spectral rules
read off validated matrices.

Expected values are frozen from hand derivations: the 4-term sequence
(e1, e1, e2, e3) has frame operator diag(2, 1, 1), and the blocked 0/1
cross-Gram pattern has singular values {2, sqrt(2), sqrt(2), 0}.
"""

import numpy as np
import pytest

from crossgram import linalg, operators
from crossgram.diagnostics import analyze_cross_gram, classify_sequence
from crossgram.sequences import RealizedSequence


BLOCKED_6x4 = np.array(
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

BLOCKED_6x6 = np.hstack([BLOCKED_6x4, np.zeros((6, 2), dtype=complex)])


def test_as_matrix_accepts_nested_lists():
    m = linalg.as_matrix([[1, 2j], [3, 4]])
    assert m.shape == (2, 2)
    assert m.dtype == np.complex128
    assert m[0, 1] == 2j


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[1.0, complex(0, np.inf)]])


def test_as_matrix_bounds_entry_modulus():
    assert linalg.as_matrix([[linalg.MAX_ENTRY, -1j * linalg.MAX_ENTRY]]).shape == (1, 2)
    with pytest.raises(ValueError, match=r"MAX_ENTRY = 1e\+64 in modulus \(2 larger"):
        linalg.as_matrix([[1e65, 0.0], [0.0, 1e300j]])
    # the modulus counts: both parts within the bound, the entry beyond it
    with pytest.raises(ValueError, match="MAX_ENTRY"):
        linalg.as_matrix([[0.8e64 + 0.8e64j]])
    # both parts past MAX_ENTRY / sqrt(2), the modulus within it
    assert linalg.as_matrix([[0.7e64 - 0.7e64j]]).shape == (1, 1)
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[1.0 + 0j, complex(0.0, float("nan"))]])


def test_as_matrix_rejects_empty_and_non_2d():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((0, 3), dtype=complex))
    with pytest.raises(ValueError):
        linalg.as_matrix([1.0, 2.0])


def test_singular_values_are_nonincreasing_known_case():
    s = np.linalg.svd(linalg.as_matrix([[3, 0], [0, 4]]), compute_uv=False)
    np.testing.assert_allclose(s, [4.0, 3.0], rtol=0, atol=1e-14)
    s_blocked = np.linalg.svd(BLOCKED_6x4, compute_uv=False)
    np.testing.assert_allclose(
        s_blocked, [2.0, np.sqrt(2), np.sqrt(2), 0.0], rtol=0, atol=1e-14
    )


def test_hermitian_eigenvalues_frame_operator_oracle():
    # synthesis of (e1, e1, e2, e3) in C^3, assembled entrywise
    t = np.zeros((3, 4), dtype=complex)
    for k, idx in enumerate([0, 0, 1, 2]):
        t[idx, k] = 1.0
    s = np.zeros((3, 3), dtype=complex)
    for k in range(4):
        s += np.outer(t[:, k], t[:, k].conj())
    seq = RealizedSequence(t)
    np.testing.assert_array_equal(t @ t.conj().T, s)
    evals = np.linalg.eigvalsh(s)
    bounds = operators.frame_bounds(seq)
    assert (bounds.lower, bounds.upper) == pytest.approx((evals[0], evals[-1]), abs=1e-14)
    assert (bounds.lower, bounds.upper) == pytest.approx((1.0, 2.0), abs=1e-14)


def test_norms_on_frozen_matrix():
    r = analyze_cross_gram([[3, 0], [0, 4]])
    assert r.op_norm == pytest.approx(4.0, abs=1e-14)
    assert r.hs == pytest.approx(5.0, abs=1e-14)
    assert r.sigma_min == pytest.approx(3.0, abs=1e-14)
    blocked = analyze_cross_gram(BLOCKED_6x4)
    assert blocked.op_norm == pytest.approx(2.0, abs=1e-13)
    assert blocked.sigma_min == pytest.approx(0.0, abs=1e-13)


def complete(columns, tol=linalg.DEFAULT_TOL):
    """A sequence is complete when its synthesis matrix has full numeric row rank."""
    return classify_sequence(RealizedSequence(columns), tol).complete


def test_numeric_rank_blocked_and_zero():
    # rank 3: the three distinct rows of the blocked pattern span C^3, all six do not
    assert complete(BLOCKED_6x4[::2])
    assert not complete(BLOCKED_6x4)
    assert not complete(BLOCKED_6x6)
    assert not analyze_cross_gram(BLOCKED_6x6).invertible
    assert not complete(np.zeros((4, 4)))
    assert complete(np.eye(5))
    assert analyze_cross_gram(np.eye(5)).invertible


def test_numeric_rank_relative_threshold():
    # rank is decided against tol * sigma_max, so overall scaling is irrelevant
    m = np.diag([1.0, 1e-3])
    assert complete(m, tol=1e-10)
    assert complete(1e6 * m)
    assert not complete(np.diag([1.0, 1e-14]))
    assert not complete(1e6 * np.diag([1.0, 1e-14]))
    assert complete(m, tol=1e-4)
    assert not complete(m, tol=1e-2)
    assert not analyze_cross_gram(m, tol=1e-2).invertible


def test_hermitian_defect_values():
    assert analyze_cross_gram(np.eye(3)).hermitian_defect == 0.0
    m = [[0, 1], [0, 0]]
    # ||M - M*|| = 1 for this matrix, ||M|| = 1, so defect = 1 / max(1, 1)
    assert analyze_cross_gram(m).hermitian_defect == pytest.approx(1.0, abs=1e-14)
