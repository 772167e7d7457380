"""Checks for sequence specifications, the example registry, and generators.

Frozen realizations below come from expanding each rule by hand for small
truncations (weights 1/k and k, interleaved tails, index-blocked repeats).
"""

import tracemalloc

import numpy as np
import pytest

from crossgram import sequences as seqs
from crossgram.operators import NotAFrameError, alternate_dual, bounds_from_singular_values, frame_bounds
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
    with pytest.raises(ValueError, match="tail slot 0 reaches basis index"):
        monomial_terms(SequenceSpec.pattern(prog), 3)


def test_dense_realization_is_budgeted():
    budget = seqs.MAX_DENSE_ENTRIES
    side = int(budget**0.5)

    def far(index):  # one term on basis vector ``index``, then e1 terms
        prog = PatternProgram(head=(PatternTerm(index, 1.0),), tail=(TailSlot(1),))
        return SequenceSpec.pattern(prog)

    assert realize(far(side), 4).columns.shape == (side, 4)
    cases = [
        lambda: realize(SequenceSpec.scaled_basis(WeightRule.constant()), side + 1),
        lambda: realize(far(budget), 2),
        lambda: realize(SequenceSpec.random_frame(side, side + 1, 0), side + 1),
        lambda: paper_example("ex-identity", side + 1),
        lambda: paper_example("ex-identity", budget + 1),
    ]
    for case in cases:
        with pytest.raises(ValueError, match=f"MAX_DENSE_ENTRIES = {budget}"):
            case()


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


# ---------------------------------------------------------------- random


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
