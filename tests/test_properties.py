"""Randomized algebraic invariants.

Hypothesis drives shapes, seeds, and scales; matrix entries come from a
seeded generator so every draw is reproducible.  Each property states an
identity or inequality that must hold for all inputs, with slack only for
floating point rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crossgram import diagnostics, linalg, operators, sequences

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

seeds = st.integers(min_value=0, max_value=2**31 - 1)
dims = st.integers(min_value=1, max_value=6)
extras = st.integers(min_value=0, max_value=4)


def _matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@given(seeds, dims, dims)
def test_norm_sandwich(seed, m, n):
    a = _matrix(seed, m, n)
    op = linalg.operator_norm(a)
    fro = linalg.frobenius_norm(a)
    assert op <= fro * (1 + 1e-12)
    assert fro <= np.sqrt(min(m, n)) * op * (1 + 1e-12)


@given(seeds, dims, dims)
def test_singular_values_match_gram_eigenvalues(seed, m, n):
    a = _matrix(seed, m, n)
    s = linalg.singular_values(a)
    eig = linalg.hermitian_eigenvalues(a.conj().T @ a, tol=1e-8)
    roots = np.sqrt(np.clip(eig[::-1], 0.0, None))
    slack = 1e-7 * max(1.0, float(s[0]))
    # the Gram has n eigenvalues; the extra n - min(m, n) are zeros
    assert np.allclose(s, roots[: len(s)], atol=slack)
    assert np.all(roots[len(s):] <= slack)


@given(seeds, dims, dims, st.integers(min_value=-40, max_value=40))
def test_numeric_rank_ignores_scale(seed, m, n, power):
    a = _matrix(seed, m, n)
    assert linalg.numeric_rank(a * 2.0**power) == linalg.numeric_rank(a)


@given(seeds, dims, extras)
def test_gram_is_positive_semidefinite(seed, d, extra):
    f = sequences.random_frame(d, d + extra, seed)
    eig = linalg.hermitian_eigenvalues(operators.gram(f))
    assert eig[0] >= -1e-12 * max(1.0, eig[-1])


@given(seeds, dims, extras, extras)
def test_cross_gram_swap_is_the_adjoint(seed, d, ef, eg):
    f = sequences.random_frame(d, d + ef, seed)
    g = sequences.random_frame(d, d + eg, seed + 1)
    forward = operators.cross_gram(f, g)
    backward = operators.cross_gram(g, f)
    scale = max(1.0, linalg.operator_norm(forward))
    assert np.allclose(backward.conj().T, forward, rtol=0.0, atol=1e-12 * scale)


@given(seeds, dims, extras, extras)
def test_hs_norm_bounded_by_bessel_times_energy(seed, d, ef, eg):
    f = sequences.random_frame(d, d + ef, seed)
    g = sequences.random_frame(d, d + eg, seed + 1)
    hs = operators.hs_norm(operators.cross_gram(f, g))
    bessel_f = diagnostics.classify_sequence(f).bessel_bound
    energy_g = linalg.frobenius_norm(operators.synthesis(g)) ** 2
    assert hs**2 <= bessel_f * energy_g * (1 + 1e-9) + 1e-12


@given(seeds, dims, extras)
def test_classification_is_internally_consistent(seed, d, extra):
    f = sequences.random_frame(d, d + extra, seed)
    c = diagnostics.classify_sequence(f)
    assert c.frame.lower <= c.frame.upper * (1 + 1e-12)
    assert c.nbb_inf <= c.nba_sup * (1 + 1e-12)
    # the Bessel bound dominates every squared vector norm
    assert c.nba_sup**2 <= c.bessel_bound * (1 + 1e-9)
    assert abs(c.bessel_bound - c.frame.upper) <= 1e-9 * max(1.0, c.bessel_bound)
    if c.riesz:
        assert c.complete and c.count == c.dim


@given(seeds, dims, extras)
def test_canonical_dual_reconstructs(seed, d, extra):
    f = sequences.random_frame(d, d + extra, seed)
    dual = operators.canonical_dual(f)
    verdict = diagnostics.check_duality(f, dual, probes=4, seed=seed)
    assert verdict.is_dual_pair
    assert verdict.pairing_residual_3 <= 1e-8


@given(seeds, dims)
def test_riesz_pair_cross_gram_is_invertible(seed, d):
    f, g = sequences.random_riesz_pair(d, seed)
    report = diagnostics.analyze_cross_gram(operators.cross_gram(f, g))
    assert report.invertible
    assert report.sigma_min > 0
