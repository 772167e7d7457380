"""Randomized algebraic invariants.

Hypothesis drives shapes, seeds, and scales; matrix entries come from a
seeded generator so every draw is reproducible.  Each property states an
identity or inequality that must hold for all inputs, with slack only for
floating point rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossgram import diagnostics, operators, sequences
from crossgram.sequences import RealizedSequence

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
    report = diagnostics.analyze_cross_gram(_matrix(seed, m, n))
    op, fro = report.op_norm, report.hs
    assert op <= fro * (1 + 1e-12)
    assert fro <= np.sqrt(min(m, n)) * op * (1 + 1e-12)


@given(seeds, dims, dims)
def test_singular_values_match_gram_eigenvalues(seed, m, n):
    # classify_sequence and frame_bounds both read the frame bounds off the
    # squared singular values of T; the eigenvalues of TT* (formed here) share
    # the nonzero eigenvalues of the Gram T*T
    t = _matrix(seed, m, n)
    seq = RealizedSequence(t)
    c = diagnostics.classify_sequence(seq)
    b = operators.frame_bounds(seq)
    assert c.frame == b
    s_eigs = np.linalg.eigvalsh(t @ t.conj().T)
    gram_top = float(np.linalg.eigvalsh(t.conj().T @ t)[-1])
    slack = 1e-7 * max(1.0, c.bessel_bound)
    assert abs(c.bessel_bound - s_eigs[-1]) <= slack
    assert abs(c.bessel_bound - gram_top) <= slack
    assert abs(c.frame.lower - (s_eigs[0] if n >= m else 0.0)) <= slack


@given(seeds, dims, dims, st.integers(min_value=-40, max_value=40))
def test_numeric_rank_ignores_scale(seed, m, n, power):
    a = _matrix(seed, m, n)
    scaled = a * 2.0**power
    complete = diagnostics.classify_sequence(RealizedSequence(a)).complete
    assert diagnostics.classify_sequence(RealizedSequence(scaled)).complete == complete
    invertible = diagnostics.analyze_cross_gram(a).invertible
    assert diagnostics.analyze_cross_gram(scaled).invertible == invertible


@given(seeds, dims, extras)
def test_gram_is_positive_semidefinite(seed, d, extra):
    f = sequences.random_frame(d, d + extra, seed)
    eig = np.linalg.eigvalsh(f.columns.conj().T @ f.columns)
    assert eig[0] >= -1e-12 * max(1.0, eig[-1])


@given(seeds, dims, extras, extras)
def test_cross_gram_swap_is_the_adjoint(seed, d, ef, eg):
    f = sequences.random_frame(d, d + ef, seed)
    g = sequences.random_frame(d, d + eg, seed + 1)
    forward = operators.cross_gram(f, g)
    backward = operators.cross_gram(g, f)
    scale = max(1.0, float(np.linalg.norm(forward, 2)))
    assert np.allclose(backward.conj().T, forward, rtol=0.0, atol=1e-12 * scale)


@given(seeds, dims, extras, extras)
def test_hs_norm_bounded_by_bessel_times_energy(seed, d, ef, eg):
    f = sequences.random_frame(d, d + ef, seed)
    g = sequences.random_frame(d, d + eg, seed + 1)
    hs = diagnostics.analyze_cross_gram(operators.cross_gram(f, g)).hs
    bessel_f = diagnostics.classify_sequence(f).bessel_bound
    energy_g = float(np.linalg.norm(g.columns, "fro")) ** 2
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


# ------------------------------------------------------------ term generation
#
# monomial_terms is checked against a scalar restatement of the definitions
# in the WeightRule, TailSlot and PatternProgram docstrings.  Both evaluate
# the same CPython arithmetic, so they agree exactly, except for geometric
# coefficients past cycle 100: there CPython's ``complex ** int`` switches
# to polar form, whose relative error grows about one ulp per unit of the
# exponent, so those are held to 4 * cycle ulp (and, once they underflow,
# to the smallest normal float).

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
scalars = st.builds(
    complex,
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)
slots = st.builds(
    sequences.TailSlot,
    start_index=st.integers(min_value=1, max_value=50),
    index_step=st.integers(min_value=0, max_value=3),
    coeff=scalars,
    coeff_rule=st.sampled_from(("constant", "geometric", "inverse_term")),
    ratio=scalars,
)
programs = st.builds(
    sequences.PatternProgram,
    head=st.lists(
        st.builds(sequences.PatternTerm, st.integers(min_value=1, max_value=50), scalars),
        max_size=3,
    ),
    tail=st.lists(slots, max_size=3),
)
rules = st.one_of(
    st.sampled_from((sequences.WeightRule.inverse_index(), sequences.WeightRule.index())),
    st.builds(sequences.WeightRule.constant, scalars),
    st.builds(sequences.WeightRule.geometric, scalars, scalars),
    st.builds(sequences.WeightRule.table, st.lists(scalars, min_size=1, max_size=5)),
)
lengths = st.integers(min_value=1, max_value=400)


def _pattern_term(program, m):
    """Term m (from 1) of a pattern program, one scalar at a time."""
    if m <= len(program.head):
        term = program.head[m - 1]
        return term.index, term.coeff, None
    cycle, pos = divmod(m - len(program.head) - 1, len(program.tail))
    slot = program.tail[pos]
    index = slot.start_index + cycle * slot.index_step
    if slot.coeff_rule == "constant":
        return index, slot.coeff, None
    if slot.coeff_rule == "geometric":
        return index, slot.coeff * slot.ratio**cycle, cycle
    return index, slot.coeff / m, None


def _weight(rule, k):
    """Weight k (from 1) of a weight rule, one scalar at a time."""
    if rule.rule == "inverse_index":
        return 1.0 / k, None
    if rule.rule == "index":
        return complex(k), None
    if rule.rule == "constant":
        return rule.value, None
    if rule.rule == "geometric":
        return rule.value * rule.ratio ** (k - 1), k - 1
    return rule.values[k - 1], None


def _assert_terms(got_idx, got_coeff, expected):
    assert len(got_idx) == len(expected)
    for i, c, (index, coeff, power) in zip(got_idx.tolist(), got_coeff, expected):
        assert i == index
        if power is None or power <= 100:
            assert c == coeff
        else:
            assert abs(c - coeff) <= 4 * power * _EPS * abs(coeff) + _TINY


@given(programs, lengths)
def test_pattern_terms_match_scalar_definition(program, n):
    spec = sequences.SequenceSpec.pattern(program)
    available = n if program.tail else min(n, len(program.head))
    if available < n:
        with pytest.raises(ValueError, match=f"term {available + 1} requested"):
            sequences.monomial_terms(spec, n)
        return
    idx, coeff = sequences.monomial_terms(spec, n)
    _assert_terms(idx, coeff, [_pattern_term(program, m) for m in range(1, n + 1)])


@given(rules, lengths)
def test_weight_terms_match_scalar_definition(rule, n):
    spec = sequences.SequenceSpec.scaled_basis(rule)
    if rule.rule == "table" and n > len(rule.values):
        with pytest.raises(ValueError, match=f"term {len(rule.values) + 1} requested"):
            sequences.monomial_terms(spec, n)
        return
    idx, coeff = sequences.monomial_terms(spec, n)
    _assert_terms(idx, coeff, [(k, *_weight(rule, k)) for k in range(1, n + 1)])


# the block route (term arrays) against the dense route (realized matrices)
# on small monomial pairs: g shares f's index arrays with other coefficients,
# or is a shorter prefix of f's program (a rectangular cross-Gram)

_COEFFS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, 1 - 1j, 0.3 + 2j, -3.0])
_RULES = ("constant", "geometric", "inverse_term")


@st.composite
def _monomial_pair(draw):
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        weights = [
            sequences.WeightRule.constant(draw(_COEFFS)),
            sequences.WeightRule.geometric(draw(st.sampled_from([0.5, -0.9, 1j])), draw(_COEFFS)),
            sequences.WeightRule.index(),
            sequences.WeightRule.inverse_index(),
        ]
        f, g = (sequences.SequenceSpec.scaled_basis(draw(st.sampled_from(weights))) for _ in "fg")
        return (f, n), (g, n)
    head = draw(st.lists(st.integers(1, 6), max_size=4))
    slots = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 2), st.sampled_from(_RULES)),
            min_size=1,
            max_size=3,
        )
    )

    def program():
        return sequences.SequenceSpec.pattern(
            sequences.PatternProgram(
                head=tuple(sequences.PatternTerm(i, draw(_COEFFS)) for i in head),
                tail=tuple(
                    sequences.TailSlot(start, step, draw(_COEFFS), rule, draw(st.sampled_from([0.5, 1j, 1.1])))
                    for start, step, rule in slots
                ),
            )
        )

    f = program()
    if n > 1 and draw(st.booleans()):
        return (f, n), (f, draw(st.integers(1, n - 1)))
    return (f, n), (program(), n)


def _far(value: float, edge: float) -> bool:
    """Whether a verdict's quantity is clear of its threshold by more than
    the rounding either route makes."""
    return abs(value - edge) > 1e-6 * edge


def _close(got, want, rtol=1e-9, atol=1e-12):
    # the benchmark's agreement thresholds (bench/checks.py)
    assert abs(got - want) <= atol + rtol * abs(want), (got, want)


@settings(max_examples=200, deadline=None)
@given(_monomial_pair(), seeds)
def test_block_route_agrees_with_dense_route(pair, seed):
    (f_spec, nf), (g_spec, ng) = pair
    f, g = sequences.term_arrays(f_spec, nf), sequences.term_arrays(g_spec, ng)
    dim = max(f[2], g[2])
    f, g = f[:2] + (dim,), g[:2] + (dim,)
    square = nf == ng
    f_cls, g_cls, cross, duality = diagnostics.monomial_reports(
        f, g, probes=4 if square else None, seed=seed
    )
    fd, gd = sequences.from_terms(*f), sequences.from_terms(*g)

    for got, want in ((f_cls, diagnostics.classify_sequence(fd)), (g_cls, diagnostics.classify_sequence(gd))):
        assert (got.count, got.dim) == (want.count, want.dim)
        upper, lower = got.frame.upper, got.frame.lower
        if _far(np.sqrt(lower), 1e-10 * np.sqrt(upper)):
            assert got.complete == want.complete
        if _far(lower, 1e-10 * upper):
            assert got.frame.spans_ambient == want.frame.spans_ambient
            assert got.riesz == want.riesz
        _close(got.bessel_bound, want.bessel_bound)
        _close(got.frame.upper, want.frame.upper)
        _close(got.frame.lower, want.frame.lower, atol=1e-9)
        _close(got.nba_sup, want.nba_sup)
        _close(got.nbb_inf, want.nbb_inf)

    want = diagnostics.analyze_cross_gram(operators.cross_gram(fd, gd))
    scale = max(1.0, want.op_norm)
    assert (cross.rows, cross.cols) == (want.rows, want.cols)
    if _far(cross.sigma_min, 1e-10 * cross.op_norm):
        assert cross.invertible == want.invertible
    _close(cross.op_norm, want.op_norm)
    _close(cross.sigma_min, want.sigma_min, atol=1e-9 * scale)
    _close(cross.hs, want.hs)
    if not square:
        assert cross.hermitian_defect is cross.idempotency_defect is cross.identity_distance is None
        assert cross.psd is want.psd is False
        return
    if _far(cross.hermitian_defect, 1e-10):
        assert cross.psd == want.psd
    for field in ("hermitian_defect", "idempotency_defect", "identity_distance"):
        _close(getattr(cross, field), getattr(want, field), atol=1e-9 * scale)

    want = diagnostics.check_duality(fd, gd, probes=4, seed=seed)
    if _far(duality.pairing_residual_3, 1e-10):
        assert duality.is_dual_pair == want.is_dual_pair
    _close(duality.pairing_residual_3, want.pairing_residual_3, atol=1e-9)
    _close(duality.reconstruction_residual_1, want.reconstruction_residual_1, atol=1e-9)
    _close(duality.reconstruction_residual_2, want.reconstruction_residual_2, atol=1e-9)
