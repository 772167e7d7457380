"""Checks for the validated complex-matrix layer.

Expected values are frozen from hand derivations: the 4-term sequence
(e1, e1, e2, e3) has frame operator diag(2, 1, 1), and the blocked 0/1
cross-Gram pattern has singular values {2, sqrt(2), sqrt(2), 0}.
"""

import numpy as np
import pytest

from crossgram import linalg


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


def test_as_matrix_rejects_empty_and_non_2d():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((0, 3), dtype=complex))
    with pytest.raises(ValueError):
        linalg.as_matrix([1.0, 2.0])


def test_singular_values_are_nonincreasing_known_case():
    s = linalg.singular_values(linalg.as_matrix([[3, 0], [0, 4]]))
    np.testing.assert_allclose(s, [4.0, 3.0], rtol=0, atol=1e-14)
    s_blocked = linalg.singular_values(BLOCKED_6x4)
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
    evals = linalg.hermitian_eigenvalues(linalg.as_matrix(s))
    np.testing.assert_allclose(evals, [1.0, 1.0, 2.0], rtol=0, atol=1e-14)


def test_hermitian_eigenvalues_rejects_asymmetric_input():
    m = linalg.as_matrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="Hermitian") as exc:
        linalg.hermitian_eigenvalues(m)
    assert "defect" in str(exc.value)


def test_norms_on_frozen_matrix():
    m = linalg.as_matrix([[3, 0], [0, 4]])
    assert linalg.operator_norm(m) == pytest.approx(4.0, abs=1e-14)
    assert linalg.frobenius_norm(m) == pytest.approx(5.0, abs=1e-14)
    assert linalg.min_singular(m) == pytest.approx(3.0, abs=1e-14)
    assert linalg.operator_norm(BLOCKED_6x4) == pytest.approx(2.0, abs=1e-13)
    assert linalg.min_singular(BLOCKED_6x4) == pytest.approx(0.0, abs=1e-13)


def test_numeric_rank_blocked_and_zero():
    assert linalg.numeric_rank(BLOCKED_6x6) == 3
    assert linalg.numeric_rank(BLOCKED_6x4) == 3
    assert linalg.numeric_rank(linalg.as_matrix(np.zeros((4, 4)))) == 0
    assert linalg.numeric_rank(linalg.as_matrix(np.eye(5))) == 5


def test_numeric_rank_relative_threshold():
    # rank is decided against tol * sigma_max, so overall scaling is irrelevant
    m = linalg.as_matrix(np.diag([1.0, 1e-3, 1e-14]))
    assert linalg.numeric_rank(m, tol=1e-10) == 2
    assert linalg.numeric_rank(linalg.as_matrix(1e6 * np.diag([1.0, 1e-3, 1e-14]))) == 2
    assert linalg.numeric_rank(m, tol=1e-4) == 2
    assert linalg.numeric_rank(m, tol=1e-2) == 1


def test_hermitian_defect_values():
    assert linalg.hermitian_defect(linalg.as_matrix(np.eye(3))) == 0.0
    m = linalg.as_matrix([[0, 1], [0, 0]])
    # ||M - M*|| = 1 for this matrix, ||M|| = 1, so defect = 1 / max(1, 1)
    assert linalg.hermitian_defect(m) == pytest.approx(1.0, abs=1e-14)
