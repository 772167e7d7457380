"""Randomized algebraic invariants.

Hypothesis drives shapes, seeds, and scales; matrix entries come from a
seeded generator so every draw is reproducible.  Each property states an
identity or inequality that must hold for all inputs, with slack only for
floating point rounding.
"""

import dataclasses
import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossgram import cli, diagnostics, operators, sequences, serialize
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
    verdict = diagnostics.check_duality(f, dual)
    assert verdict.is_dual_pair
    assert verdict.pairing_residual_3 <= 1e-8


@given(seeds, dims, extras, st.booleans(), st.sampled_from(["canonical", "alternate", "shrunk"]))
def test_reconstruction_residuals_are_the_pairing_residual(seed, d, extra, real, dual):
    # g is a dual of f when T_f T_g* = I, or equally when its adjoint
    # T_g T_f* = I, so both reconstruction residuals are ||F G* - I||
    if real:
        f = RealizedSequence(np.random.default_rng(seed).standard_normal((d, d + extra)))
        assume(operators.frame_bounds(f).spans_ambient)
    else:
        f = sequences.random_frame(d, d + extra, seed)
    g = {
        "canonical": lambda: operators.canonical_dual(f),
        "alternate": lambda: operators.alternate_dual(f, seed + 1),
        "shrunk": lambda: RealizedSequence(0.9 * operators.canonical_dual(f).columns),
    }[dual]()
    rep = diagnostics.check_duality(f, g)
    fm, gm = f.columns, g.columns
    if not (fm.imag.any() or gm.imag.any()):  # real matrices take real arithmetic
        fm, gm = np.ascontiguousarray(fm.real), np.ascontiguousarray(gm.real)
    want = float(np.linalg.svd(fm @ gm.conj().T - np.eye(d), compute_uv=False)[0])
    assert rep.reconstruction_residual_1 == rep.reconstruction_residual_2 == rep.pairing_residual_3
    assert rep.pairing_residual_3 == want


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


# monomial_terms(spec, n, start=s) is monomial_terms(spec, n)[s:] bit for
# bit, and monomial_extent(spec, n) the span of the whole index array: the
# sweep generates its terms a chunk at a time and sizes its bins from the
# extents.  Geometric powers are built in aligned blocks of 2**13 cycles
# (sequences._POWER_BLOCK), of which _BLOCK is a multiple, so n reaches past
# three _BLOCKs of the tail and the starts cluster at the
# head/tail edge and at the block edges; the ratios include complex ones and
# ones whose powers overflow to inf and NaN.

_BLOCK = 1 << 15
ratios = st.one_of(
    scalars,
    st.sampled_from([1.01 + 0.2j, -1.0001, 2.0, 1e10j, 1e200 + 1e200j, 0.999j]),
)
chunk_slots = st.builds(
    sequences.TailSlot,
    start_index=st.integers(min_value=1, max_value=50),
    index_step=st.integers(min_value=0, max_value=3),
    coeff=scalars,
    coeff_rule=st.sampled_from(("constant", "geometric", "inverse_term")),
    ratio=ratios,
)
chunk_specs = st.one_of(
    st.builds(sequences.SequenceSpec.scaled_basis, rules),
    st.builds(
        sequences.SequenceSpec.scaled_basis,
        st.builds(sequences.WeightRule.geometric, ratios, scalars),
    ),
    st.builds(sequences.SequenceSpec.pattern, programs.filter(lambda p: p.head or p.tail)),
    st.builds(
        sequences.SequenceSpec.pattern,
        st.builds(sequences.PatternProgram, head=programs.map(lambda p: p.head),
                  tail=st.lists(chunk_slots, min_size=1, max_size=3)),
    ),
)


@given(chunk_specs, st.data())
def test_chunks_are_slices_of_the_whole_arrays(spec, data):
    head, period, most = 0, 1, 3 * _BLOCK + 4
    if spec.kind == "pattern":
        head, period = len(spec.program.head), len(spec.program.tail)
        most = head + period * (3 * _BLOCK + 2) + 2 if period else head
    elif spec.weight.rule == "table":
        most = len(spec.weight.values)
    n = data.draw(st.one_of(st.integers(1, min(most, 40)), st.integers(1, most)))
    edges = [head + d for d in (-1, 0, 1)]
    edges += [head + k * period * _BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    starts = [e for e in edges if 0 <= e < n] or [0]
    start = data.draw(st.one_of(st.sampled_from(starts), st.integers(0, n - 1)))
    idx, coeff = sequences.monomial_terms(spec, n)
    part_idx, part_coeff = sequences.monomial_terms(spec, n, start=start)
    np.testing.assert_array_equal(part_idx, idx[start:])
    np.testing.assert_array_equal(part_coeff.view(float), coeff[start:].view(float))
    assert sequences.monomial_extent(spec, n) == (idx.min(), idx.max())


def _doubling(coeff, ratio, count):
    """coeff * ratio**c for c below count by doubling alone: the powers
    2**b .. 2**(b+1) - 1 are the lower ones times ratio**(2**b)."""
    re, im = np.empty(count), np.empty(count)
    re[0], im[0] = 1.0, 0.0
    qr, qi, size = ratio.real, ratio.imag, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while size < count:
            top = min(2 * size, count)
            low_re, low_im = re[: top - size], im[: top - size]
            re[size:top] = low_re * qr - low_im * qi
            im[size:top] = low_re * qi + low_im * qr
            qr, qi = qr * qr - qi * qi, qr * qi + qi * qr
            size *= 2
        return coeff.real * re - coeff.imag * im, coeff.real * im + coeff.imag * re


@pytest.mark.parametrize(
    "ratio",
    [np.exp(0.3j), np.exp(-2.1j), 0.99999 + 0.0001j, -1.0000001, 1.01 + 0.2j, 2.0],
)
def test_blocked_powers_are_the_doubling_bit_for_bit(ratio):
    # past 2**15 cycles the powers fold the block's high bits into a table of
    # the low ones; unit-modulus ratios keep every power finite, so each
    # rounding of the whole-array doubling must reappear, up to block 4
    count, value = 4 * _BLOCK + 5, 0.7 - 0.2j
    spec = sequences.SequenceSpec.scaled_basis(sequences.WeightRule.geometric(ratio, value))
    coeff = sequences.monomial_terms(spec, count)[1]
    want_re, want_im = _doubling(value, complex(ratio), count)
    np.testing.assert_array_equal(coeff.real, want_re)
    np.testing.assert_array_equal(coeff.imag, want_im)


def test_power_tables_keep_signed_zeros_apart():
    # -0.0 == 0.0, so a block of powers cached by the ratio's value would
    # hand the second ratio the first one's signed zeros
    count = _BLOCK + 4
    for ratio in (complex(0.0, 0.5), complex(-0.0, 0.5)):
        got = sequences._geometric(1 + 0j, ratio, count, _BLOCK, False)
        want_re, _ = _doubling(1 + 0j, ratio, count)
        assert np.signbit(got.real).tolist() == np.signbit(want_re[_BLOCK:]).tolist()


@given(programs.filter(lambda p: p.tail), st.integers(0, 3), st.booleans(),
       st.integers(1, 300))
def test_same_indices_reads_a_prefix(program, unroll, perturb, n):
    # g restates f: ``unroll`` tail terms moved into the head, then the tail
    # period doubled; a perturbed last step makes g leave f, within n or not
    head, tail = list(program.head), list(program.tail)
    for _ in range(unroll):
        slot = tail.pop(0)
        head.append(sequences.PatternTerm(slot.start_index, slot.coeff))
        tail.append(dataclasses.replace(slot, start_index=slot.start_index + slot.index_step))
    tail = [
        dataclasses.replace(s, start_index=s.start_index + odd * s.index_step,
                            index_step=2 * s.index_step)
        for odd in (0, 1)
        for s in tail
    ]
    if perturb:
        tail[-1] = dataclasses.replace(tail[-1], index_step=tail[-1].index_step + 1)
    f = sequences.SequenceSpec.pattern(program)
    g = sequences.SequenceSpec.pattern(sequences.PatternProgram(tuple(head), tuple(tail)))
    same = np.array_equal(sequences.monomial_terms(f, n)[0], sequences.monomial_terms(g, n)[0])
    assert same or perturb
    assert sequences._same_indices(f, g, n, 7) == same


# the block route (term arrays) against the dense route (realized matrices)
# on small monomial pairs: g shares f's index arrays with other coefficients,
# sits on other index arrays with f's count (a scaled basis against a
# pattern, as in ex-hs), or is a shorter prefix of f's program (a
# rectangular cross-Gram)

_COEFFS = st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 1j, 1 - 1j, 0.3 + 2j, -3.0])
_RULES = ("constant", "geometric", "inverse_term")


@st.composite
def _monomial_pair(draw):
    n = draw(st.integers(1, 40))
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

    def basis():
        weights = [
            sequences.WeightRule.constant(draw(_COEFFS)),
            sequences.WeightRule.geometric(draw(st.sampled_from([0.5, -0.9, 1j])), draw(_COEFFS)),
            sequences.WeightRule.index(),
            sequences.WeightRule.inverse_index(),
        ]
        return sequences.SequenceSpec.scaled_basis(draw(st.sampled_from(weights)))

    shape = draw(st.sampled_from(["bases", "basis-pattern", "patterns"]))
    if shape == "bases":
        return (basis(), n), (basis(), n)
    if shape == "basis-pattern":
        return (basis(), n), (program(), n)
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
@given(_monomial_pair())
def test_block_route_agrees_with_dense_route(pair):
    (f_spec, nf), (g_spec, ng) = pair
    fs, gs = (sequences.term_shape(spec, n) for spec, n in pair)
    dim = max(fs[2], gs[2])
    fs, gs = fs[:2] + (dim,), gs[:2] + (dim,)
    f, g = (sequences.term_arrays(shape) for shape in (fs, gs))
    square = nf == ng
    f_cls, g_cls, cross, _ = diagnostics.reports(fs, gs)
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
    hybrid_real = not (np.array_equal(f[0], g[0]) or f[1].imag.any() or g[1].imag.any())
    if hybrid_real:
        # a real square pair on different index arrays: G, zero signs
        # included, holds the dense route's bits, and so do the fields read
        # off G alone (op_norm, and so hermitian_defect, is the block kernel's)
        dense_g = operators.cross_gram(fd, gd).real
        assert operators._term_gram(f[0], g[0], f[1].real, g[1].real).tobytes() == dense_g.tobytes()
        got_g = (cross.idempotency_defect, cross.identity_distance)
        assert got_g == (want.idempotency_defect, want.identity_distance)

    duality = diagnostics.reports(fs, gs, duality=True, cross=False)[3]
    want = diagnostics.check_duality(fd, gd)
    if _far(duality.pairing_residual_3, 1e-10):
        assert duality.is_dual_pair == want.is_dual_pair
    _close(duality.pairing_residual_3, want.pairing_residual_3, atol=1e-9)
    _close(duality.reconstruction_residual_1, want.reconstruction_residual_1, atol=1e-9)
    _close(duality.reconstruction_residual_2, want.reconstruction_residual_2, atol=1e-9)
    assert duality.reconstruction_residual_1 == duality.reconstruction_residual_2
    assert duality.reconstruction_residual_2 == duality.pairing_residual_3
    # T_f T_g* of a real hybrid pair holds the dense route's bits unless an
    # (f index, g index) pair repeats, whose terms are summed in term order
    if hybrid_real and len(set(zip(f[0].tolist(), g[0].tolist()))) == nf:
        assert duality == want


@st.composite
def _shared_index_pair(draw):
    """Two sides on one index array, from a seeded stream: the indices run over
    1..n once, or repeat, skip and reorder; g is random, zero, or q / conj(f),
    so that every entry of T_f T_g* - I may share one modulus."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(1, 500))
    idx = np.arange(1, n + 1) if draw(st.booleans()) else rng.integers(1, n + 1, n)
    dim = int(idx.max()) + draw(st.integers(0, 3))
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shape = draw(st.sampled_from(["random", "zero", "dual"]))
    if shape == "random":
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        b = np.zeros(n, complex) if shape == "zero" else np.conj(draw(_COEFFS) / a)
    return _shape(idx, a, dim), _shape(idx, b, dim)


def _shape(idx, coeff, dim):
    """A term shape whose terms are ``(idx, coeff)``: a pattern of head terms alone."""
    head = tuple(sequences.PatternTerm(int(i), complex(c)) for i, c in zip(idx, coeff))
    return sequences.SequenceSpec.pattern(sequences.PatternProgram(head=head)), len(idx), dim


@settings(max_examples=200, deadline=None)
@given(_shared_index_pair())
def test_block_route_reconstruction_residuals_are_the_pairing_residual(pair):
    # T_f T_g* - I is diagonal, so its largest entry is its norm and bounds
    # every unit vector's residual: all three residuals are that entry
    rep = diagnostics.reports(*pair, duality=True, cross=False)[3]
    assert rep.reconstruction_residual_1 == rep.reconstruction_residual_2 == rep.pairing_residual_3


def _square_verdicts(report):
    return report.hermitian_defect, report.psd


@settings(max_examples=200, deadline=None)
@given(seeds, dims, st.sampled_from(["random", "hermitian", "psd"]), st.booleans(),
       st.integers(-40, 40))
def test_square_verdicts_keep_their_bits_when_g_is_scaled_dense_route(seed, n, shape, real, k):
    # hermitian_defect is ||G - G*|| / ||G|| and psd compares with tol on that
    # scale, so a power-of-two scale leaves both bit for bit
    m = _matrix(seed, n, n)
    if real:
        m = m.real
    if shape != "random":
        m = m @ m.conj().T if shape == "psd" else m + m.conj().T
    want = _square_verdicts(diagnostics.analyze_cross_gram(m))
    assert _square_verdicts(diagnostics.analyze_cross_gram(m * 2.0**k)) == want


@settings(max_examples=200, deadline=None)
@given(_shared_index_pair(), st.integers(-40, 40))
def test_square_verdicts_keep_their_bits_when_g_is_scaled_block_route(pair, k):
    # G = T_g* T_f scales with f's coefficients, exactly by a power of two
    f, g = pair
    idx, a, dim = sequences.term_arrays(f)
    want = _square_verdicts(diagnostics.reports(f, g)[2])
    got = _square_verdicts(diagnostics.reports(_shape(idx, a * 2.0**k, dim), g)[2])
    assert got == want


# ---------------------------------------------------------------- explicit decoding

# JSON numbers at the edges of the float conversion: signed zero, the
# smallest subnormal, integers past 2**53 (rounded), past int64, and 1e308
_PARTS = st.one_of(
    st.sampled_from([0, -0.0, 5e-324, 2**53 + 1, 2**63, 2**70, 1e308, -1e308, 3]),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _columns(draw, parts=_PARTS, max_count=4, max_dim=4):
    count, dim = draw(st.integers(1, max_count)), draw(st.integers(1, max_dim))
    pair = st.lists(parts, min_size=2, max_size=2)
    return [[draw(pair) for _ in range(dim)] for _ in range(count)]


def _bits(m) -> bytes:
    return np.ascontiguousarray(m).view(np.float64).tobytes()


@given(_columns())
def test_explicit_columns_decode_bit_for_bit(columns):
    spec = serialize.spec_from_json({"kind": "explicit", "columns": columns})
    want = np.array([[complex(re, im) for re, im in col] for col in columns])
    assert spec.columns.dtype == np.complex128 and spec.columns.shape == want.shape
    assert not spec.columns.flags.writeable
    assert _bits(spec.columns) == _bits(want)
    # nested lists and an array make the same spec, bit for bit
    nested = sequences.SequenceSpec.explicit(want.tolist())
    from_array = sequences.SequenceSpec.explicit(want)
    assert nested == from_array == spec
    assert _bits(nested.columns) == _bits(from_array.columns) == _bits(want)


# a spec file's explicit columns are streamed one column at a time: past the
# batch of columns whose types are checked at once, in both key orders and in
# every json.dumps layout, they must decode as json.loads and spec_from_json do,
# also when the file is read 3 characters at a time, so that every column, comma
# and whitespace run straddles a read
_FILE_PARTS = st.one_of(st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e-300]), _PARTS)
_LAYOUTS = [{}, {"indent": 2}, {"separators": (",", ":")}, {"indent": "\t"}]


@given(_columns(_FILE_PARTS, max_count=2 * serialize._BATCH + 3, max_dim=3))
def test_streamed_spec_files_decode_as_the_parsed_tree_does(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("stream") / "f.json"
    kind_first = {"kind": "explicit", "columns": columns}
    for payload in (kind_first, dict(reversed(kind_first.items()))):
        for layout in _LAYOUTS:
            text = json.dumps(payload, **layout)
            path.write_text(text, encoding="utf-8")
            spec = serialize.load_sequence_file(str(path))
            want = serialize.spec_from_json(json.loads(text))
            assert spec == want
            assert _bits(spec.columns) == _bits(want.columns)
            for read in (serialize._READ, 3):
                with mock.patch.object(serialize, "_READ", read), open(path, encoding="utf-8") as fh:
                    got = serialize._stream_explicit(fh)
                assert got is not None, (layout, read)
                assert _bits(got) == _bits(want.columns), (layout, read)


# ---------------------------------------------------------------- term strides

CHUNK = operators.TERM_CHUNK
moduli = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
coeffs = st.one_of(moduli, st.builds(complex, moduli, moduli))
ratios = st.sampled_from([1.0, 0.5, -0.9, 0.5j, 0.6 + 0.8j])


def _table(seed: int, real: bool) -> sequences.WeightRule:
    # long enough for every count the fold checks below take
    values = _matrix(seed, 1, CHUNK + 1)[0]
    return sequences.WeightRule.table(values.real if real else values)


weight_rules = st.one_of(
    st.just(sequences.WeightRule.inverse_index()),
    st.just(sequences.WeightRule.index()),
    st.builds(sequences.WeightRule.constant, coeffs),
    st.builds(sequences.WeightRule.geometric, ratios, coeffs),
    st.builds(_table, seeds, st.booleans()),
)
slots = st.builds(
    sequences.TailSlot,
    start_index=st.integers(min_value=1, max_value=6),
    index_step=st.integers(min_value=0, max_value=3),
    coeff=coeffs,
    coeff_rule=st.sampled_from(["constant", "geometric", "inverse_term"]),
    ratio=ratios,
)
programs = st.builds(
    sequences.PatternProgram,
    head=st.lists(st.builds(sequences.PatternTerm, st.integers(1, 6), coeffs), max_size=3),
    tail=st.lists(slots, min_size=1, max_size=3),
)
monomial_specs = st.one_of(
    weight_rules.map(sequences.SequenceSpec.scaled_basis),
    programs.map(sequences.SequenceSpec.pattern),
)


def _check_stride(spec, start: int, n: int) -> None:
    """Terms ``start`` .. ``n - 1`` sit on the stride ``_index_stride`` gives, if any."""
    stride = sequences._index_stride(spec, start)
    if stride is not None:
        idx = sequences.monomial_terms(spec, n, start=start)[0]
        np.testing.assert_array_equal(idx, idx[0] + stride * np.arange(n - start))


def _reads(run) -> list:
    """(array, first bin, bins) of every read the first windowed fold in ``run()`` makes of its
    bins (a tiny-modulus side's second pass folds scaled bins)."""
    view, reads = operators._Window.view, []

    def spy(window, k, lo, hi):
        got = view(window, k, lo, hi)
        reads.append((window, k, lo, got.copy()))
        return got

    with mock.patch.object(operators._Window, "view", spy):
        run()
    return [read[1:] for read in reads if read[0] is reads[0][0]]


def _check_prefix_sums(spec, counts: list[int]) -> None:
    """The bins a sweep row of ``spec`` against itself reads at each count are those of
    ``np.bincount`` over that many first terms, byte for byte, whichever way each chunk was
    folded and whenever the window read them."""
    idx, c = sequences.monomial_terms(spec, counts[-1])
    for count in counts:
        want = np.bincount(idx[:count], np.abs(c[:count]) ** 2)
        shape = (spec, count, int(idx[:count].max()))
        reads = _reads(lambda: list(operators._sweep_rows([[shape, shape]])))
        assert {k for k, _, _ in reads} == {0, 1}, count
        for k, lo, bins in reads:
            assert bins.tobytes() == want[lo : lo + len(bins)].tobytes(), (count, k, lo)


def _check_block_fold(spec, counts: list[int]) -> None:
    """The bins the block reports of ``spec`` paired with itself read at each count, both
    sides' |c|^2, p and the term count, are those of ``np.bincount`` over that many first
    terms, byte for byte, whichever way each chunk was folded."""
    idx, c = sequences.monomial_terms(spec, counts[-1])
    for count in counts:
        at, a = idx[:count], c[:count]
        shape = (spec, count, int(at.max()))
        base = int(at.min()) - 1
        reads = _reads(lambda: operators._block_reports([shape, shape], [diagnostics._call] * 2, 1e-10, True, True, None))
        sq = np.bincount(at - base, np.abs(a) ** 2)
        p = np.bincount(at - base, a * a) if spec._real else np.zeros(len(sq), complex)
        if not spec._real:  # the parts of p = sum a conj(a) as operators._fold_pairing forms them
            p.real = np.bincount(at - base, a.real * a.real + a.imag * a.imag)
            p.imag = np.bincount(at - base, a.imag * a.real - a.real * a.imag)
        wants = [sq, sq, p, np.bincount(at - base).astype(np.int32)]
        assert {k for k, _, _ in reads} >= {0, 1, 2, 3}, count
        for k, lo, bins in reads:
            if k < 4:  # not q
                assert bins.tobytes() == wants[k][lo : lo + len(bins)].tobytes(), (count, k, lo)


@given(monomial_specs, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=40))
def test_index_stride_gives_the_indices_of_the_terms_past_start(spec, start, extra):
    _check_stride(spec, start, start + extra)


@given(monomial_specs, st.integers(min_value=1, max_value=5))
def test_prefix_sums_give_the_bincount_bits_across_chunk_edges(spec, first):
    # the first count may end inside the head or past it; the others put
    # chunk edges one term before, at and after TERM_CHUNK
    _check_prefix_sums(spec, [first, CHUNK - 1, CHUNK, CHUNK + 1])
    _check_block_fold(spec, [first, CHUNK - 1, CHUNK, CHUNK + 1])


def _pattern(head, *tail):
    terms = tuple(sequences.PatternTerm(i, c) for i, c in head)
    return sequences.SequenceSpec.pattern(sequences.PatternProgram(terms, tail))


@pytest.mark.parametrize(
    "spec, strides",
    [
        # e2, e1, then e3, e4, ...: consecutive only past the head
        (_pattern([(2, 1.0), (1, -0.5)], sequences.TailSlot(3, 1)), [None, None, 1, 1]),
        # ex-blocked's g: each index twice
        (_pattern([], sequences.TailSlot(1, 1), sequences.TailSlot(1, 1)), [None] * 4),
        # ex-norm89's g: one index throughout
        (
            _pattern([(1, 0.5)], sequences.TailSlot(1, 0, coeff_rule="inverse_term")),
            [None] * 4,
        ),
        (_pattern([(5, 2j)], sequences.TailSlot(2, 2, coeff=0.5, coeff_rule="geometric")), [None, 2, 2, 2]),
        (sequences.SequenceSpec.scaled_basis(sequences.WeightRule.inverse_index()), [1] * 4),
    ],
)
def test_index_stride_hand_cases(spec, strides):
    assert [sequences._index_stride(spec, start) for start in range(4)] == strides
    for start in range(4):
        _check_stride(spec, start, CHUNK + 1)
    for first in (1, 2, 3):
        _check_prefix_sums(spec, [first, CHUNK - 1, CHUNK, CHUNK + 1])
        _check_block_fold(spec, [first, CHUNK - 1, CHUNK, CHUNK + 1])


def test_bins_widen_when_the_lowest_index_comes_in_a_later_chunk(tmp_path, monkeypatch, capsys):
    # ten head terms on e20 .. e29, then a step-1 tail from e1: in chunks of 7
    # terms, e1 first comes in the second chunk, and the bins widen at their front
    payload = {"kind": "pattern", "head": [{"index": 20 + i, "coeff": [1, i]} for i in range(10)],
               "tail": [{"start_index": 1, "index_step": 1, "coeff": [0.5, 0]}]}
    path = tmp_path / "late.json"
    path.write_text(json.dumps(payload))
    argvs = [["classify", "--input", str(path)], ["cross-gram", "--f", str(path), "--g", str(path)]]

    def envelopes():
        out = []
        for argv in argvs:
            assert cli.main([*argv, "--dim", "60"]) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    want = envelopes()
    monkeypatch.setattr(operators, "TERM_CHUNK", 7)
    spec = serialize.spec_from_json(payload)
    assert next(operators._chunks(spec, 60))[0].min() == 20  # e1 comes later
    _check_block_fold(spec, [7, 10, 11, 14, 60])
    _check_prefix_sums(spec, [7, 10, 11, 14, 60])
    assert envelopes() == want


# ------------------------------------------------------------ sliding bins


def _check_frontier(spec, n: int) -> None:
    """No term at or after term m of the first ``n`` lands below ``frontier(m)`` but on a
    pinned index, and the least index of those terms is ``min((frontier(0), *pinned))``."""
    idx = sequences.monomial_terms(spec, n)[0]
    frontier, pinned = sequences._index_frontier(spec, n)
    assert min((frontier(0), *pinned)) == idx.min()
    for m in range(n):
        later = idx[m:]
        assert np.all((later >= frontier(m)) | np.isin(later, pinned)), (m, frontier(m), pinned)


@given(monomial_specs, st.integers(min_value=1, max_value=60))
def test_index_frontier_bounds_every_later_term(spec, n):
    _check_frontier(spec, n)


def test_index_frontier_of_every_registry_role():
    for ex_id in sequences.example_ids():
        entry = sequences.example_entry(ex_id)
        for spec, count in ((entry.f, entry.f_count(300)), (entry.g, entry.g_count(300))):
            _check_frontier(spec, count)


def _stuck(index_frontier):
    """``index_frontier`` with frontiers that never move past the least index and no pinned
    index: with ``_reaching``, the window then holds the whole span live and reads every leaf
    at the end, as a fold that neither slides nor keeps a node."""
    def stuck(spec, n):
        frontier, pinned = index_frontier(spec, n)
        least = min((frontier(0), *pinned))
        return (lambda start: least), ()
    return stuck


def _reaching(spec):
    """A chunk's top as ``sequences._index_top`` of a spec none of whose indices is pinned."""
    return lambda idx, start: (idx.max(), False)


_BLOCKED = _pattern([], sequences.TailSlot(1, 1), sequences.TailSlot(1, 1))  # ex-blocked's g


def _window_numbers(f, g, counts: list[int]):
    """The reports of f, and of the pair (f, g) at ``counts[-1]`` terms of f (a square pair with
    duality when g has as many), and the sweep rows of the pair at each count."""
    extents = [(count, max(sequences.monomial_extent(s, count)[1] for s in (f, g))) for count in counts]
    n, dim = extents[-1]
    m = n if g is f else max(1, n - 3)
    reports = diagnostics.reports((f, n, dim), (g, m, dim), duality=m == n), diagnostics.reports((f, n, dim))
    rows = list(operators._sweep_rows([[(f, c, d), (g, c, d)] for c, d in extents]))
    return repr((reports, rows))


# a head term at the top of the span, over a tail from e1; a step-0 slot at e500, whose bins
# the tail passes through
_HIGH_HEAD = _pattern([(600, 2.0 - 1.0j)], sequences.TailSlot(1, 1, coeff=0.5))
_HIGH_SLOT = _pattern([], sequences.TailSlot(500, 0, coeff=3.0), sequences.TailSlot(1, 1, coeff=0.5j))


@settings(max_examples=40, deadline=None)
@given(monomial_specs, monomial_specs, st.integers(min_value=1, max_value=30),
       st.integers(min_value=300, max_value=1500), st.booleans())
@example(_BLOCKED, _BLOCKED, 1, 600, True)
@example(_HIGH_HEAD, _BLOCKED, 1, 601, True)
@example(_HIGH_HEAD, _HIGH_SLOT, 30, 601, False)
@example(_HIGH_SLOT, _BLOCKED, 1, 1400, True)
@example(_HIGH_SLOT, sequences.SequenceSpec.scaled_basis(sequences.WeightRule.index()), 7, 1400, False)
def test_sliding_bins_give_the_bits_of_the_whole_span(f, g, first, n, same):
    # heads, step-0 slots (pinned bins) and tails of unequal steps, on one index array or on
    # two, with chunks of 7 terms and leaves of 128 bins: the window slides many times; a pair
    # with two terms on each index (the first example) holds its leaves until the end of the
    # row.  With chunks of 128 terms a leaf of 256 bins is split down to the 128-bin node that
    # holds a pinned bin, which alone waits for the row's end, high in the span or not
    g = f if same else g
    for chunk in (7, 128):
        with mock.patch.object(operators, "TERM_CHUNK", chunk):
            want = _window_numbers(f, g, [first, n // 2, n])
            with mock.patch.object(sequences, "_index_frontier", _stuck(sequences._index_frontier)), \
                    mock.patch.object(sequences, "_index_top", _reaching):
                assert _window_numbers(f, g, [first, n // 2, n]) == want, chunk


def _blocks(run) -> list:
    """(bytes, bytes per bin) of each block a ``_Window`` carves its bins from in ``run()``."""
    widen, got = operators._Window._widen, []

    def spy(window, cap, keep):
        widen(window, cap, keep)
        got.append((sum(b.nbytes for b in window.bins), sum(b.itemsize for b in window.bins)))

    with mock.patch.object(operators._Window, "_widen", spy):
        run()
    return got


def _window_bins(pins: int) -> int:
    """The most bins a window holds when no chunk spans more than its own count of indices:
    four chunks' span live and, per pinned index, the nodes of at most a quarter chunk (128 bins
    or more) that hold it in the rows' trees, all within two such nodes of it."""
    return 4 * operators.TERM_CHUNK + pins * 2 * max(operators.TERM_CHUNK // 4, 128)


def test_sliding_bins_slide_on_every_registry_pair():
    # the window of each registry pair's sweep, and of the block reports of those pairs that
    # take the block route at 1e5 (the others are hybrid), never holds the span: with chunks of
    # 512 terms its largest block stays within the bound, and the span is ten times that
    with mock.patch.object(operators, "TERM_CHUNK", 512):
        for ex_id in sequences.example_ids():
            roles = [sequences.SequenceSpec.paper_example(ex_id, r) for r in "fg"]
            shapes = [sequences.term_shape(role, 100000) for role in roles]
            pins = sum(len(sequences._index_frontier(spec, count)[1]) for spec, count, _ in shapes)
            assert shapes[0][2] >= 10 * _window_bins(pins), ex_id
            runs = [lambda: diagnostics.truncation_sweep(ex_id, (10, 100000))]
            if ex_id in ("ex-identity", "ex-canonical", "ex-blocked"):
                runs.append(lambda: diagnostics.reports(*shapes, duality=shapes[0][1] == shapes[1][1]))
            for run in runs:
                blocks = _blocks(run)
                assert blocks and all(size <= width * _window_bins(pins) for size, width in blocks), (ex_id, blocks)


unit_slots = st.builds(
    sequences.TailSlot,
    start_index=st.integers(min_value=1, max_value=6),
    index_step=st.integers(min_value=0, max_value=1),
    coeff=coeffs,
    coeff_rule=st.sampled_from(["constant", "geometric", "inverse_term"]),
    ratio=ratios,
)
unit_step_specs = st.one_of(
    weight_rules.map(sequences.SequenceSpec.scaled_basis),
    st.builds(
        sequences.PatternProgram,
        head=st.lists(st.builds(sequences.PatternTerm, st.integers(1, 6), coeffs), max_size=3),
        tail=st.lists(unit_slots, min_size=1, max_size=3),
    ).map(sequences.SequenceSpec.pattern),
)


@settings(max_examples=25, deadline=None)
@given(unit_step_specs, st.integers(min_value=2000, max_value=4000))
@example(_pattern([(1, 1.0)], sequences.TailSlot(1, 1)), 3000)  # ex-canonical's f: a head on e1
@example(_pattern([], sequences.TailSlot(1, 0, coeff=0.5), sequences.TailSlot(2, 1)), 3000)  # ex-hs's g
@example(_pattern([(3000, 1.0)], sequences.TailSlot(1, 1)), 3000)  # a head term at the top of the span
def test_a_window_holds_four_chunks_and_the_nodes_of_its_pins(spec, n):
    # heads, step-0 slots and tails of steps 0 and 1, so that no chunk spans more indices than it
    # has terms: with chunks of 256 terms (leaves of 512 bins), each block of the window of the
    # block reports of the spec and of its sweep against itself stays within the bound
    with mock.patch.object(operators, "TERM_CHUNK", 256):
        shape = sequences.term_shape(spec, n)
        pins = len(sequences._index_frontier(spec, n)[1])
        extents = [(count, sequences.monomial_extent(spec, count)[1]) for count in (n // 3, n // 2, n)]
        rows = [[(spec, count, dim), (spec, count, dim)] for count, dim in extents]
        for run in (lambda: diagnostics.reports(shape), lambda: list(operators._sweep_rows(rows))):
            blocks = _blocks(run)
            assert blocks and all(size <= width * _window_bins(pins) for size, width in blocks), (blocks, pins)


# ------------------------------------------------------------ envelope writer

# render_json walks the report objects once; json.dumps of the plain tree the
# old conversion made is the reference for every byte and every refusal


@dataclasses.dataclass(frozen=True)
class _Row:
    value: object
    label: str = "row"


_TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x08\x1f\x7f\n\t é€\U0001f600'), max_size=6)
_LEAVES = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 2**64, -(2**64) - 1, 2**70, True, False, None]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**80), max_value=2**80),
    _TEXT,
    st.text(max_size=6),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.text(max_size=4)), kids, max_size=4),
        st.builds(_Row, kids, _TEXT),
    ),
    max_leaves=24,
)


def _reference(tree):
    """``tree`` as plain JSON types, as the envelope's old conversion made it."""
    if dataclasses.is_dataclass(tree):
        return {f.name: _reference(getattr(tree, f.name)) for f in dataclasses.fields(tree)}
    if isinstance(tree, dict):
        return {k: _reference(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [_reference(v) for v in tree]
    if isinstance(tree, np.generic):
        return tree.item()
    if isinstance(tree, complex):
        return [tree.real, tree.imag]
    return tree


def _dumps(tree) -> str:
    return json.dumps(_reference(tree), indent=2, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_render_json_writes_the_bytes_json_dumps_writes(tree):
    assert serialize.render_json(tree) == _dumps(tree)


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), -float("inf"), np.float64("-inf"), complex(1, float("nan"))]
)
def test_render_json_refuses_non_finite_floats_with_jsons_message(bad):
    tree = {"report": _Row([1.0, bad])}
    with pytest.raises(ValueError) as want:
        _dumps(tree)
    with pytest.raises(ValueError) as got:
        serialize.render_json(tree)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


@pytest.mark.parametrize("bad, name", [(object(), "object"), (b"x", "bytes"), ({1}, "set"), (_Row, "type")])
def test_render_json_refuses_unknown_types(bad, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        serialize.render_json({"report": [1, {"x": bad}]})
