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


def test_frame_bounds_derive_spans_ambient():
    assert ops.FrameBounds(1.0, 2.0, 0.1).spans_ambient is True
    assert ops.FrameBounds(1e-12, 1.0, 1e-10).spans_ambient is False
    assert ops.FrameBounds(1e-10, 1.0, 1e-10).spans_ambient is False  # strict
    assert ops.FrameBounds(0.0, 0.0, 1e-10).spans_ambient is False
    with pytest.raises(TypeError):
        ops.FrameBounds(1.0, 2.0, 0.1, spans_ambient=False)


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


def _tree_sums(f, g, leaf: int, pins=(), node: int = 128):
    """``_spectrum_leaf`` of f * g on each leaf of ``_tree``, joined as the window joins them; a
    leaf that holds one of the sorted ``pins`` is read as ``operators._early`` reads it before
    the row's end, split at the nodes of at most ``node`` bins that hold them."""
    def reduce(cuts, end):
        return ops._spectrum_leaf(f[cuts[0] : cuts[-1]] * g[cuts[0] : cuts[-1]], cuts)

    tree, got = ops._tree(0, len(f), leaf, pins), None
    try:
        while True:
            (lo, hi), held = tree.send(got)
            got = ops._early(reduce, lo, hi, node, pins)() if held else reduce((lo, hi), True)
    except StopIteration as joined:
        return joined.value


# The block kernel reads numpy's own summation order in pieces.  These two
# tests pin the numpy behaviour it relies on, so that a numpy build which sums
# differently fails here by name rather than in an envelope digest.


def test_chunked_pairwise_sum_is_np_sum_bit_for_bit():
    # np.sum of a contiguous float64 array splits n at n/2 rounded down to a
    # multiple of 8 down to blocks of 128; _tree splits the same way and
    # _spectrum_leaf reduces each leaf with np.add.reduce, so any leaf >= 128
    # gives its bits (leaves of 128, the deepest split, on the lengths up to
    # 10**5, which keeps this test near a second)
    rng = np.random.default_rng(26)
    top = 3 * 10**6
    lengths = np.unique(np.exp(rng.uniform(0.0, np.log(top), 420)).astype(int))
    lengths = [*lengths[:310], 127, 128, 129, 8191, 8192, 8193, 65536, 65537, top]
    assert len(set(lengths)) >= 300
    f = rng.random(top) * rng.choice([0.0, 1.0, 1e-300, 1e300], top, p=[0.1, 0.8, 0.05, 0.05])
    g = rng.random(top) * rng.choice([0.0, 1.0], top, p=[0.1, 0.9])

    def check(a, b, leaves):  # the rank is count_nonzero, least the least positive entry or inf
        sq = a * b
        want = (np.sum(sq), sq.max(), np.min(sq, where=sq > 0.0, initial=np.inf), np.count_nonzero(sq))
        for leaf in leaves:
            got = _tree_sums(a, b, leaf)
            assert np.array(got, float).tobytes() == np.array(want, float).tobytes(), (len(a), leaf)

    for n in lengths:
        check(f[:n], g[:n], (128, 1 << 13, 1 << 16) if n <= 10**5 else (1 << 13, 1 << 16))
    # a leaf of f and g above nearly always holds a zero: pin the leaves with
    # no zero, a zero in bin 0 alone, -0.0 entries, and zeros only (+0.0 or
    # -0.0: least positive inf, rank 0), each also as a leaf of one entry
    positive = 1.0 + rng.random(65537)
    first, signed = positive.copy(), positive * rng.choice([-0.0, 1.0], 65537)
    first[0] = 0.0
    for n in (1, 127, 128, 129, 8193, 65537):
        check(positive[:n], positive[::-1][:n], (128, 1 << 13))
        check(first[:n], positive[::-1][:n], (128, 1 << 13))
        check(signed[:n], positive[:n], (128, 1 << 13))
        check(positive[:n], np.zeros(n), (128, 1 << 13))
        check(-positive[:n], np.zeros(n), (128, 1 << 13))


def test_chunked_add_at_fold_is_bincount_of_the_whole_array():
    # np.add.at adds one term at a time in term order, as np.bincount does, so
    # the chunked folds of the sweep and the block reports give its bits
    rng = np.random.default_rng(27)
    n, bins = 100_003, 5_000
    idx = rng.integers(0, bins, n)
    weights = rng.standard_normal(n) * np.exp(rng.uniform(-300, 300, n))
    want = np.bincount(idx, weights, minlength=bins)
    for chunk in (7, 1 << 13, 1 << 14, n):
        got = np.zeros(bins)
        for lo in range(0, n, chunk):
            ops._fold(got, idx[lo : lo + chunk], weights[lo : lo + chunk])
        assert got.tobytes() == want.tobytes(), chunk


def test_block_spectrum_reads_the_bins_a_chunk_at_a_time():
    # the whole-array formulas it replaced, on bins with empty and tiny entries
    rng = np.random.default_rng(28)
    for n in (1, 2, 200, 8193, 50_001):
        f = rng.random(n) * (rng.random(n) > 0.2)
        g = rng.random(n) ** 40 * (rng.random(n) > 0.2)
        sq = f * g
        rank = int(np.count_nonzero(sq))
        for full in (rank, rank + 1):
            least = np.min(sq, where=sq > 0.0, initial=np.inf) if rank == full else 0.0
            want = (float(np.sqrt(sq.max())) if rank else 0.0, float(np.sqrt(least)),
                    float(np.sqrt(sq.sum())))
            for leaf in (128, 1 << 13, 1 << 14):
                assert ops._block_spectrum(_tree_sums(f, g, leaf), full) == want, (n, full, leaf)


def test_block_square_with_scalar_q_is_the_general_form_bit_for_bit():
    # float64 p with q 0 (no bin of 2+ terms) skips the hypot and wide forms:
    # herm 0, idem max |p - 1| |p|, ident max |p - 1| and least min p over the
    # occupied bins; a q array of zeros takes the general form.  Each form read
    # leaf by leaf and joined as _join joins them (maxima, then the least min)
    # gives its bits on the whole arrays
    rng = np.random.default_rng(29)
    special = np.array([-0.0, 0.0, 1.0, -1.0, 1.0 + 2**-52, 1.0 - 2**-53, 2.0, 1e-300, -1e100])
    for n in (1, 9, 200, 8193):
        p = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        mask = rng.random(n) < 0.3
        p[mask] = rng.choice(special, np.count_nonzero(mask))
        terms = (rng.random(n) > 0.2).astype(np.int32)  # empty bins hold p = 0
        p[terms == 0] = rng.choice([0.0, -0.0])
        got, want = ops._block_square(p, terms, 0.0), ops._block_square(p, terms, np.zeros(n))
        assert np.array(got).tobytes() == np.array(want).tobytes(), n
        for q, whole in ((0.0, got), (np.zeros(n), want)):
            for leaf in (7, 1 << 13):
                parts = [ops._block_square(p[at], terms[at], q[at] if np.ndim(q) else q)
                         for at in (slice(lo, lo + leaf) for lo in range(0, n, leaf))]
                *tops, least = zip(*parts)
                joined = (*map(max, tops), min(least))
                assert np.array(joined).tobytes() == np.array(whole).tobytes(), (n, np.ndim(q), leaf)
    empty = ops._block_square(np.zeros(5), np.zeros(5, np.int32), 0.0)
    assert empty == ops._block_square(np.zeros(5), np.zeros(5, np.int32), np.zeros(5)) == (0.0, 0.0, 0.0, np.inf)


def test_leaves_read_from_copies_join_to_the_pairwise_sum_bits():
    # the sliding window reads each leaf off a copy of its bins, whenever the leaf is final,
    # and _tree joins the leaf results as numpy's pairwise sum splits the bins: lengths up to
    # 3e5 with ~10% empty bins give the bits of the whole-array sums, and so do the leaves
    # split at up to three pinned bins, their other nodes read in runs, each in one go
    rng, pick = np.random.default_rng(30), np.random.default_rng(31)
    for n in rng.integers(1, 3 * 10**5, 200):
        f = rng.random(n) * (rng.random(n) > 0.1)
        g = rng.random(n) * (rng.random(n) > 0.1)
        leaf = int(rng.choice([128, 1 << 13, 1 << 14]))
        pins = sorted({*pick.permutation([0, n - 1, *pick.integers(0, n, 3)])[: pick.integers(1, 4)].tolist()})
        sq = f * g
        rank = np.count_nonzero(sq)
        want = (np.sum(sq), sq.max(), np.min(sq, where=sq > 0.0, initial=np.inf), rank)
        for got in (_tree_sums(f, g, leaf), _tree_sums(f, g, leaf, pins, int(pick.choice([128, 1 << 11])))):
            assert [float(x) for x in got] == [float(x) for x in want], (n, leaf, pins)
