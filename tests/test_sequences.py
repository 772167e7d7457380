"""Checks for sequence specifications, the example registry, and generators.

Frozen realizations below come from expanding each rule by hand for small
truncations (weights 1/k and k, interleaved tails, index-blocked repeats).
"""

import tracemalloc

import numpy as np
import pytest

from crossgram import sequences as seqs
from crossgram.operators import (
    NotAFrameError,
    alternate_dual,
    bounds_from_singular_values,
    canonical_dual,
    frame_bounds,
)
from crossgram.sequences import (
    GenerationError,
    PatternProgram,
    PatternTerm,
    SequenceSpec,
    TailSlot,
    WeightRule,
    example_entry,
    example_ids,
    monomial_terms,
    paper_example,
    random_frame,
    random_riesz_pair,
    realize,
)


def basis_col(dim, idx, coeff=1.0):
    v = np.zeros(dim, dtype=complex)
    v[idx - 1] = coeff
    return v


def cols(*vectors):
    return np.column_stack(vectors)


# ---------------------------------------------------------------- weights


def weights(rule, n):
    idx, coeff = monomial_terms(SequenceSpec.scaled_basis(rule), n)
    np.testing.assert_array_equal(idx, np.arange(1, n + 1))
    return list(coeff)


def pattern_terms(program, n):
    idx, coeff = monomial_terms(SequenceSpec.pattern(program), n)
    return list(zip(idx.tolist(), coeff))


def test_weight_rules_frozen_values():
    assert weights(WeightRule.inverse_index(), 4)[3] == pytest.approx(0.25)
    assert weights(WeightRule.index(), 7)[6] == 7.0
    assert weights(WeightRule.constant(2.5), 3)[2] == 2.5
    assert weights(WeightRule.constant(), 9)[8] == 1.0
    # geometric(r): value * r**(k-1), so the first weight equals value
    assert weights(WeightRule.geometric(0.5), 1)[0] == 1.0
    assert weights(WeightRule.geometric(0.5), 4)[3] == pytest.approx(0.125)
    assert weights(WeightRule.table([1.0, 2j, 3.0]), 2)[1] == 2j


def test_weight_table_bounds_checked():
    rule = WeightRule.table([1.0, 2.0])
    with pytest.raises(ValueError, match="table has 2 entries, term 3 requested"):
        monomial_terms(SequenceSpec.scaled_basis(rule), 3)


def test_weight_rule_rejects_unknown_name():
    with pytest.raises(ValueError, match="rule"):
        WeightRule(rule="squared")


# ---------------------------------------------------------------- patterns


def test_pattern_head_then_periodic_tail():
    # head: e1; tail: one slot advancing the basis index each cycle
    prog = PatternProgram(
        head=(PatternTerm(1, 1.0),),
        tail=(TailSlot(start_index=1, index_step=1),),
    )
    assert pattern_terms(prog, 4) == [(1, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]


def test_pattern_geometric_and_inverse_term_slots():
    prog = PatternProgram(
        head=(),
        tail=(
            TailSlot(start_index=1, index_step=0, coeff=0.5, coeff_rule="geometric", ratio=0.5),
            TailSlot(start_index=2, index_step=1),
        ),
    )
    got = pattern_terms(prog, 6)
    assert got == [(1, 0.5), (2, 1.0), (1, 0.25), (3, 1.0), (1, 0.125), (4, 1.0)]

    harmonic = PatternProgram(
        head=(PatternTerm(1, 0.5),),
        tail=(TailSlot(start_index=1, index_step=0, coeff_rule="inverse_term"),),
    )
    got = pattern_terms(harmonic, 4)
    assert got == [(1, 0.5), (1, 0.5), (1, pytest.approx(1 / 3)), (1, 0.25)]


def test_pattern_without_tail_is_exhaustible():
    prog = PatternProgram(head=(PatternTerm(1, 1.0),), tail=())
    spec = SequenceSpec.pattern(prog)
    with pytest.raises(ValueError, match="only 1 terms, term 2 requested"):
        realize(spec, 2)


def test_pattern_indices_must_fit_int64():
    with pytest.raises(ValueError, match="basis index"):
        PatternTerm(2**63, 1.0)
    with pytest.raises(ValueError, match="index step"):
        TailSlot(start_index=1, index_step=2**63)
    prog = PatternProgram(tail=(TailSlot(start_index=1, index_step=2**62),))
    assert pattern_terms(prog, 2) == [(1, 1.0), (2**62 + 1, 1.0)]
    idx, _ = monomial_terms(SequenceSpec.pattern(prog), 2, start=1)  # a chunk past cycle 0
    assert idx.tolist() == [2**62 + 1]
    with pytest.raises(ValueError, match="tail slot 0 reaches basis index"):
        monomial_terms(SequenceSpec.pattern(prog), 3)
    # a step-0 slot on the last index: every term sits on it, in any chunk
    last = PatternProgram(head=(PatternTerm(2, 1.0),), tail=(TailSlot(start_index=2**63 - 1),))
    whole = [2] + [2**63 - 1] * 4
    for start in (0, 1, 3):
        idx, _ = monomial_terms(SequenceSpec.pattern(last), 5, start=start)
        assert idx.tolist() == whole[start:]


def test_dense_realization_is_budgeted():
    budget = seqs.MAX_DENSE_ENTRIES
    side = int(budget**0.5)

    def far(index):  # one term on basis vector ``index``, then e1 terms
        prog = PatternProgram(head=(PatternTerm(index, 1.0),), tail=(TailSlot(1),))
        return SequenceSpec.pattern(prog)

    assert realize(far(side), 4).columns.shape == (side, 4)
    cases = [
        lambda: realize(SequenceSpec.scaled_basis(WeightRule.constant()), side + 1),
        lambda: realize(far(budget // 2 + 1), 2),  # its span is within the term budget
        lambda: realize(SequenceSpec.random_frame(side, side + 1, 0), side + 1),
        lambda: paper_example("ex-identity", side + 1),
    ]
    for case in cases:
        with pytest.raises(ValueError, match=f"MAX_DENSE_ENTRIES = {budget}"):
            case()
    with pytest.raises(ValueError, match=f"index span {budget} exceeds the term budget"):
        realize(far(budget), 2)


def test_paper_example_past_the_term_budget_names_it_as_realize_does():
    n = seqs.MAX_DENSE_ENTRIES + 1  # past the term budget, refused before any term
    with pytest.raises(ValueError, match="MAX_SWEEP_TRUNCATION") as pair:
        paper_example("ex-identity", n)
    with pytest.raises(ValueError) as spec:
        realize(SequenceSpec.paper_example("ex-identity", "f"), n)
    assert str(pair.value) == str(spec.value)


def test_realize_of_a_monomial_spec_is_held_to_the_term_budget(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a term generated before the term budget check")

    monkeypatch.setattr(seqs, "monomial_terms", refuse)
    line = SequenceSpec.pattern(PatternProgram(tail=(TailSlot(1),)))  # every term on e1
    with pytest.raises(ValueError) as err:
        realize(line, 12 * 10**6)
    assert str(err.value) == (
        "term count 12000000 exceeds the term budget MAX_SWEEP_TRUNCATION = 10000000"
    )


# ---------------------------------------------------------------- realize


def test_realize_scaled_basis_inverse_index():
    r = realize(SequenceSpec.scaled_basis(WeightRule.inverse_index()), 3)
    np.testing.assert_allclose(r.columns, np.diag([1.0, 0.5, 1 / 3]), atol=1e-15)
    assert r.dim == 3 and r.count == 3


def test_realize_pattern_dim_is_highest_index_used():
    blocked_g = PatternProgram(
        head=(),
        tail=(TailSlot(start_index=1, index_step=1), TailSlot(start_index=1, index_step=1)),
    )
    r = realize(SequenceSpec.pattern(blocked_g), 6)
    expected = cols(
        basis_col(3, 1), basis_col(3, 1),
        basis_col(3, 2), basis_col(3, 2),
        basis_col(3, 3), basis_col(3, 3),
    )
    np.testing.assert_array_equal(r.columns, expected)
    assert r.dim == 3


def test_realize_explicit_checks_count():
    spec = SequenceSpec.explicit([[1.0, 0.0], [0.0, 1j]])
    r = realize(spec, 2)
    assert r.columns[1, 1] == 1j
    with pytest.raises(ValueError, match="count"):
        realize(spec, 3)


def test_explicit_rejects_ragged_columns():
    with pytest.raises(ValueError, match="column 1"):
        SequenceSpec.explicit([[1.0, 0.0], [1.0]])


def test_realized_columns_are_read_only():
    r = realize(SequenceSpec.scaled_basis(WeightRule.index()), 3)
    with pytest.raises(ValueError):
        r.columns[0, 0] = 9.0


def test_realized_sequence_shares_a_complex_matrix():
    # a C-contiguous complex128 matrix is kept as a read-only view; any
    # other layout or dtype is converted once
    m = np.arange(6, dtype=complex).reshape(2, 3)
    seq = seqs.RealizedSequence(m)
    assert np.shares_memory(seq.columns, m)
    assert m.flags.writeable and not seq.columns.flags.writeable
    for other in (m.T, m.real):
        got = seqs.RealizedSequence(other).columns
        assert got.flags.c_contiguous and got.dtype == np.complex128
        assert not np.shares_memory(got, m)
        np.testing.assert_array_equal(got, other)


def test_realization_peaks_at_its_matrix():
    n = 2048  # a 64 MiB matrix
    tracemalloc.start()
    try:
        r = realize(SequenceSpec.scaled_basis(WeightRule.inverse_index()), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.columns.nbytes == n * n * 16
    assert peak <= 1.1 * r.columns.nbytes


# ---------------------------------------------------------------- registry


def test_registry_lists_five_examples():
    assert set(example_ids()) == {
        "ex-identity", "ex-hs", "ex-blocked", "ex-norm89", "ex-canonical",
    }
    for ex_id in example_ids():
        entry = example_entry(ex_id)
        assert entry.example_id == ex_id
        assert entry.title
    assert example_entry("ex-hs").tail_inferred is True
    assert example_entry("ex-identity").tail_inferred is False


def test_registry_unknown_id_lists_known_ids():
    with pytest.raises(ValueError, match="ex-identity"):
        example_entry("ex-bogus")
    with pytest.raises(ValueError, match="ex-blocked"):
        paper_example("nope", 4)


def test_ex_identity_realization():
    f, g = paper_example("ex-identity", 3)
    np.testing.assert_allclose(f.columns, np.diag([1.0, 0.5, 1 / 3]), atol=1e-15)
    np.testing.assert_allclose(g.columns, np.diag([1.0, 2.0, 3.0]), atol=0)
    assert f.dim == g.dim == 3


def test_ex_hs_realization():
    f, g = paper_example("ex-hs", 5)
    np.testing.assert_allclose(f.columns, np.diag([1, 1 / 2, 1 / 3, 1 / 4, 1 / 5]), atol=1e-15)
    expected_g = cols(
        basis_col(5, 1, 0.5),
        basis_col(5, 2),
        basis_col(5, 1, 0.25),
        basis_col(5, 3),
        basis_col(5, 1, 0.125),
    )
    np.testing.assert_allclose(g.columns, expected_g, atol=1e-15)


def test_ex_blocked_realization_counts():
    f, g = paper_example("ex-blocked", 6)
    assert g.count == 6 and f.count == 4
    assert f.dim == g.dim == 3
    np.testing.assert_array_equal(
        f.columns,
        cols(basis_col(3, 1), basis_col(3, 1), basis_col(3, 2), basis_col(3, 3)),
    )
    np.testing.assert_array_equal(
        g.columns,
        cols(
            basis_col(3, 1), basis_col(3, 1),
            basis_col(3, 2), basis_col(3, 2),
            basis_col(3, 3), basis_col(3, 3),
        ),
    )


def test_ex_norm89_realization():
    f, g = paper_example("ex-norm89", 4)
    np.testing.assert_array_equal(f.columns, np.eye(4, dtype=complex))
    expected_g = cols(
        basis_col(4, 1, 0.5),
        basis_col(4, 1, 0.5),
        basis_col(4, 1, 1 / 3),
        basis_col(4, 1, 0.25),
    )
    np.testing.assert_allclose(g.columns, expected_g, atol=1e-15)


def test_ex_canonical_realization():
    f, g = paper_example("ex-canonical", 4)
    assert f.dim == g.dim == 3
    np.testing.assert_array_equal(
        f.columns,
        cols(basis_col(3, 1), basis_col(3, 1), basis_col(3, 2), basis_col(3, 3)),
    )
    np.testing.assert_allclose(
        g.columns,
        cols(basis_col(3, 1, 0.5), basis_col(3, 1, 0.5), basis_col(3, 2), basis_col(3, 3)),
        atol=1e-15,
    )


def test_ex_canonical_needs_two_terms():
    with pytest.raises(ValueError, match="at least 2"):
        paper_example("ex-canonical", 1)


def test_paper_example_spec_kind_matches_pair():
    f, g = paper_example("ex-hs", 7)
    f2 = realize(SequenceSpec.paper_example("ex-hs", "f"), 7)
    g2 = realize(SequenceSpec.paper_example("ex-hs", "g"), 7)
    np.testing.assert_array_equal(f.columns, f2.columns)
    np.testing.assert_array_equal(g.columns, g2.columns)


# ---------------------------------------------------------------- monomial


def test_monomial_terms_match_dense_realization():
    for ex_id in example_ids():
        entry = example_entry(ex_id)
        n = max(17, entry.min_n)
        f, g = paper_example(ex_id, n)
        for role, realized in (("f", f), ("g", g)):
            idx, coeff = monomial_terms(SequenceSpec.paper_example(ex_id, role), n)
            assert len(idx) == realized.count
            dense = np.zeros((realized.dim, realized.count), dtype=complex)
            for k in range(realized.count):
                dense[idx[k] - 1, k] = coeff[k]
            np.testing.assert_allclose(dense, realized.columns, atol=1e-15)


def test_monomial_terms_rejects_general_kinds():
    with pytest.raises(ValueError, match="explicit"):
        monomial_terms(SequenceSpec.explicit([[1.0], [0.0]]), 2)


@pytest.mark.parametrize(
    "spec, n",
    [
        (SequenceSpec.scaled_basis(WeightRule.table([1.0, 2.0])), 3),
        (SequenceSpec.pattern(PatternProgram(head=(PatternTerm(3, 1.0),))), 2),
        (SequenceSpec.pattern(PatternProgram(tail=(TailSlot(1), TailSlot(2**63 - 9, 5)))), 6),
        (SequenceSpec.paper_example("ex-canonical", "g"), 1),
        (SequenceSpec.paper_example("ex-nope", "f"), 3),
        (SequenceSpec.explicit([[1.0], [0.0]]), 2),
        (SequenceSpec.scaled_basis(WeightRule.index()), 0),
    ],
)
def test_monomial_extent_refuses_what_generation_refuses(spec, n):
    with pytest.raises(ValueError) as generated:
        monomial_terms(spec, n)
    with pytest.raises(ValueError) as read_off:
        seqs.monomial_extent(spec, n)
    assert str(read_off.value) == str(generated.value)


def test_monomial_extent_reads_the_registry_spans():
    for ex_id in example_ids():
        for n in (example_entry(ex_id).min_n, 7, 1000):
            for role in "fg":
                spec = SequenceSpec.paper_example(ex_id, role)
                idx, _ = monomial_terms(spec, n)
                assert seqs.monomial_extent(spec, n) == (idx.min(), idx.max()), (ex_id, role, n)


def test_every_registry_role_starts_at_e1():
    # the sweep bins both sides from index 0, so that bin i holds index i
    for ex_id in example_ids():
        for n in (example_entry(ex_id).min_n, 10**6):
            for role in "fg":
                idx, _ = monomial_terms(SequenceSpec.paper_example(ex_id, role), n)
                assert idx.min() == 1, (ex_id, role, n)


def test_registry_realizations_refuse_before_generating_and_generate_their_own_role(monkeypatch):
    real = seqs.monomial_terms

    def refuse(*args, **kwargs):
        raise AssertionError("a term generated before the dense budget check")

    monkeypatch.setattr(seqs, "monomial_terms", refuse)
    budget = f"exceeds the budget MAX_DENSE_ENTRIES = {seqs.MAX_DENSE_ENTRIES} entries"
    with pytest.raises(ValueError) as err:
        paper_example("ex-identity", 10**6)
    assert str(err.value) == f"a dense 1000000 x 1000000 realization {budget}"
    with pytest.raises(ValueError) as err:
        realize(SequenceSpec.paper_example("ex-canonical", "g"), 2 * 10**6)
    assert str(err.value) == f"a dense 1999999 x 2000000 realization {budget}"

    generated = []

    def spy(spec, n, **kwargs):
        generated.append(spec)
        return real(spec, n, **kwargs)

    monkeypatch.setattr(seqs, "monomial_terms", spy)
    g = realize(SequenceSpec.paper_example("ex-blocked", "g"), 8)
    assert generated == [example_entry("ex-blocked").g]
    assert np.array_equal(g.columns, paper_example("ex-blocked", 8)[1].columns)


def test_monomial_terms_start_must_lie_before_n():
    spec = SequenceSpec.scaled_basis(WeightRule.index())
    for start in (-1, 5):
        with pytest.raises(ValueError, match=rf"start must lie in \[0, 5\), got {start}"):
            monomial_terms(spec, 5, start=start)
    idx, coeff = monomial_terms(spec, 5, start=4)
    assert idx.tolist() == [5] and coeff.tolist() == [5.0]


def test_same_indices_on_the_registry_and_restated_bases():
    for ex_id in example_ids():
        entry = example_entry(ex_id)
        for n in (entry.min_n, 2, 3, 10, 1000):
            n = max(n, entry.min_n)
            fc = entry.f_count(n)
            if fc != entry.g_count(n):
                continue
            fi = monomial_terms(entry.f, fc)[0]
            gi = monomial_terms(entry.g, fc)[0]
            assert seqs._same_indices(entry.f, entry.g, fc, 7) == np.array_equal(fi, gi), (ex_id, n)
    basis = SequenceSpec.scaled_basis(WeightRule.constant())
    shifted = PatternProgram(head=(PatternTerm(1, 1.0),), tail=(TailSlot(2, 1),))
    odd = PatternProgram(tail=(TailSlot(1, 2),))
    assert seqs._same_indices(basis, SequenceSpec.pattern(shifted), 10**7, 1 << 13)
    assert seqs._same_indices(basis, SequenceSpec.pattern(odd), 1, 7)
    assert not seqs._same_indices(basis, SequenceSpec.pattern(odd), 2, 7)


# ---------------------------------------------------------------- random


def spread(period):
    # period tail slots that put term m on e_m
    return SequenceSpec.pattern(PatternProgram(tail=tuple(TailSlot(j + 1, period) for j in range(period))))


def test_same_indices_reads_its_prefix_a_chunk_at_a_time(monkeypatch):
    # tail periods 997 and 1009 are coprime, so the prefix that decides is every
    # term; generated whole it held ~32 bytes per term, and a chunk at a time it
    # holds about one chunk's index and coefficient arrays of each side
    f, g = spread(997), spread(1009)
    n, step = 10**5, 1 << 13
    assert seqs._same_indices(f, g, n, step)  # first-call allocations are not traced
    tracemalloc.start()
    try:
        assert seqs._same_indices(f, g, n, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 * 16 * step, peak
    # a side that leaves the other is found in the chunk where it leaves
    slots = list(g.program.tail)
    slots[1008] = TailSlot(1009, 1010)  # leaves at term 2 * 1009
    calls = []
    terms = seqs._terms
    monkeypatch.setattr(seqs, "_terms", lambda *args: calls.append(args) or terms(*args))
    assert not seqs._same_indices(f, SequenceSpec.pattern(PatternProgram(tail=tuple(slots))), n, step)
    assert [args[1:] for args in calls] == [(step, 0)] * 2


REAL_RULES = (
    WeightRule.inverse_index(), WeightRule.index(), WeightRule.constant(-2.5),
    WeightRule.geometric(-0.5, 3.0), WeightRule.table([1.0, -2.0, 0.0, 4.0]),
)
REAL_PROGRAM = PatternProgram(
    head=(PatternTerm(3, -1.0),),
    tail=(TailSlot(1, 2, 0.5, "geometric", -0.9), TailSlot(2, 0, 2.0), TailSlot(5, 1, -1.0, "inverse_term")),
)


def test_real_specs_stream_float64_coefficients():
    # no value of these specs has an imaginary part, so no term can have one
    specs = [SequenceSpec.scaled_basis(rule) for rule in REAL_RULES]
    specs += [SequenceSpec.pattern(REAL_PROGRAM)]
    specs += [SequenceSpec.paper_example(ex_id, role) for ex_id in example_ids() for role in "fg"]
    for spec in specs:
        for start in (0, 2):
            assert monomial_terms(spec, 4, start=start)[1].dtype == np.float64, (spec, start)


def test_complex_specs_stream_complex128_coefficients():
    # one imaginary value anywhere in the spec makes every chunk complex, even
    # where no generated term has an imaginary part
    rules = (WeightRule.constant(1j), WeightRule.geometric(0.5j), WeightRule.geometric(0.5, 1 + 1j),
             WeightRule.table([1.0, 2.0, 3.0, 4.0, 5j]))
    specs = [SequenceSpec.scaled_basis(rule) for rule in rules]
    head, (geo, const, inv) = REAL_PROGRAM.head, REAL_PROGRAM.tail
    for program in (
        PatternProgram((PatternTerm(3, 1j),), REAL_PROGRAM.tail),
        PatternProgram(head, (TailSlot(1, 2, 0.5, "geometric", 0.9j), const, inv)),
        PatternProgram(head, (geo, TailSlot(2, 0, 2.0, ratio=1j), inv)),
        PatternProgram(head, (geo, const, TailSlot(5, 1, 1 - 1j, "inverse_term"))),
    ):
        specs.append(SequenceSpec.pattern(program))
    for spec in specs:
        for start in (0, 3):
            assert monomial_terms(spec, 4, start=start)[1].dtype == np.complex128, (spec, start)


def test_real_stream_keeps_the_real_parts_of_the_complex_formulas():
    # the complex formulas on the same values add only zero products to the
    # real parts, so the finite ones keep their values (a zero can change its
    # sign: -0.0 - -0.0 is +0.0), the moduli keep their bits, and the rest stay
    # non-finite
    n = 3 * seqs._POWER_BLOCK + 5
    for ratio in (0.5, -0.7, 1.001, -1.0001, 10.0, 1e10, 1e-200, 0.0, -0.0):
        for value in (1.0, -3.0):
            rule = WeightRule.geometric(ratio, value)
            for start in (0, 100, seqs._POWER_BLOCK + 1, n - 3):
                real = seqs._weight_terms(rule, n, start, True)[1]
                twin = seqs._weight_terms(rule, n, start, False)[1]
                finite = np.isfinite(real)
                assert finite.tolist() == np.isfinite(twin).tolist(), (ratio, value, start)
                assert np.array_equal(real[finite], twin.real[finite]), (ratio, value, start)
                assert np.abs(real[finite]).tobytes() == np.abs(twin[finite]).tobytes()
                assert not twin.imag[finite].any()


def test_random_riesz_pair_is_deterministic_and_screened():
    f1, g1 = random_riesz_pair(4, 42)
    f2, g2 = random_riesz_pair(4, 42)
    np.testing.assert_array_equal(f1.columns, f2.columns)
    np.testing.assert_array_equal(g1.columns, g2.columns)
    assert f1.dim == f1.count == 4
    for seq in (f1, g1):
        s = np.linalg.svd(seq.columns, compute_uv=False)
        assert s[0] / s[-1] <= 100.0
    f3, _ = random_riesz_pair(4, 43)
    assert not np.array_equal(f1.columns, f3.columns)


def test_random_riesz_spec_kind_matches_pair_f():
    f, _ = random_riesz_pair(5, 7)
    r = realize(SequenceSpec.random_riesz(5, 7), 5)
    np.testing.assert_array_equal(f.columns, r.columns)
    with pytest.raises(ValueError, match="truncation"):
        realize(SequenceSpec.random_riesz(5, 7), 4)


def test_random_frame_full_row_rank():
    fr = random_frame(3, 6, seed=9)
    assert fr.columns.shape == (3, 6)
    s = np.linalg.svd(fr.columns, compute_uv=False)
    assert s[-1] > 1e-10 * s[0]
    fr2 = realize(SequenceSpec.random_frame(3, 6, 9), 6)
    np.testing.assert_array_equal(fr.columns, fr2.columns)


def test_random_frame_needs_enough_columns():
    with pytest.raises(ValueError, match="count"):
        random_frame(4, 3, seed=1)


def test_screened_draw_returns_the_singular_values_of_the_draw_bit_for_bit():
    # the battery reads frame bounds off these values in place of a second SVD
    resampled = 0
    for d, n, seed in ((2, 2, 0), (2, 3, 1), (5, 9, 2), (8, 8, 3), (30, 30, 0), (36, 40, 5)):
        m, s = seqs._frame_draw(d, n, seed)
        first = seqs._complex_gaussian(np.random.default_rng([seed, seqs._STREAM_FRAME]), (d, n))
        resampled += not np.array_equal(m, first)
        np.testing.assert_array_equal(s, np.linalg.svd(m, compute_uv=False))
        frame = random_frame(d, n, seed)
        np.testing.assert_array_equal(frame.columns, m)
        assert bounds_from_singular_values(s, d, 1e-10) == frame_bounds(frame)
    assert resampled  # the values of a draw after a rejected one are checked too


def test_public_random_wrappers_keep_the_screen_singular_values(monkeypatch):
    # the condition screen's SVD of the accepted draw is the only one: frame
    # bounds and duals of random_frame and random_riesz_pair read its values
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    frame = random_frame(6, 9, 3)
    canonical_dual(frame)
    assert calls == [(6, 9)]
    f, g = random_riesz_pair(5, 2)
    bounds = [frame_bounds(f), frame_bounds(g)]
    assert calls == [(6, 9), (5, 5), (5, 5)]
    monkeypatch.undo()
    for seq, got in ((frame, frame_bounds(frame)), (f, bounds[0]), (g, bounds[1])):
        fresh = bounds_from_singular_values(np.linalg.svd(seq.columns, compute_uv=False), seq.dim, 1e-10)
        assert got == fresh


def test_generation_rejects_with_diagnostics_when_unsatisfiable(monkeypatch):
    monkeypatch.setattr(seqs, "MAX_CONDITION", 1.0)
    with pytest.raises(GenerationError, match="64"):
        random_riesz_pair(4, 0)


# ---------------------------------------------------------------- duals


def test_alternate_dual_zero_scale_is_canonical_dual():
    f, _ = paper_example("ex-canonical", 4)
    d = alternate_dual(f, seed=5, scale=0.0)
    np.testing.assert_allclose(
        d.columns,
        cols(basis_col(3, 1, 0.5), basis_col(3, 1, 0.5), basis_col(3, 2), basis_col(3, 3)),
        atol=1e-14,
    )


def test_alternate_dual_of_orthonormal_basis_is_the_basis():
    f = realize(SequenceSpec.explicit(np.eye(3).tolist()), 3)
    d = alternate_dual(f, seed=3, scale=0.0)
    np.testing.assert_allclose(d.columns, np.eye(3), atol=1e-14)


def test_alternate_dual_satisfies_duality_and_differs_from_canonical():
    f = random_frame(3, 7, seed=21)
    d0 = alternate_dual(f, seed=4, scale=0.0)
    d1 = alternate_dual(f, seed=4, scale=1.0)
    assert not np.allclose(d0.columns, d1.columns)
    for d in (d0, d1):
        resid = f.columns @ d.columns.conj().T - np.eye(3)
        assert np.linalg.norm(resid, 2) <= 1e-10


def test_alternate_dual_requires_a_frame():
    flat = realize(SequenceSpec.explicit([[1.0, 0.0], [2.0, 0.0]]), 2)
    with pytest.raises(NotAFrameError, match="frame"):
        alternate_dual(flat, seed=1)
