"""Checks for the truncation sweep.

The sweep evaluates cross-Gram metrics of the registry pairs exactly by
grouping terms per basis index (each registry term touches one basis
vector, so the cross-Gram is block diagonal with rank-1 blocks).  Rows
must agree with the dense operator route at moderate truncations, and the
trend flags must reproduce the known asymptotics: identity example Bessel
bound N^2 (growth), single-line example norm converging to
sqrt(1/4 + pi^2/6 - 1), interleaved example hs^2 to 1/3 + pi^2/6 - 1.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from crossgram import cli, sequences
from crossgram import diagnostics as diag
from crossgram import operators as ops
from crossgram.sequences import SequenceSpec, example_entry, example_ids, paper_example, term_shape


def partial_line_norm(n):
    # single-line example: ||w|| with w = (1/2, 1/2, 1/3, ..., 1/n)
    return float(np.sqrt(0.25 + sum(1.0 / j**2 for j in range(2, n + 1))))


def partial_hs_sq(n):
    # interleaved example: geometric block 1/4 + ... + (1/4)^ceil(n/2)
    # plus the diagonal tail 1/k^2 for matched even terms
    odd = sum(0.25**m for m in range(1, (n + 1) // 2 + 1))
    even = sum(1.0 / k**2 for k in range(2, n // 2 + 2))
    return odd + even


def test_sweep_identity_rows_and_growth_flag():
    table = diag.truncation_sweep("ex-identity", (10, 100, 1000))
    assert [r.truncation for r in table.rows] == [10, 100, 1000]
    for row in table.rows:
        assert row.op_norm == pytest.approx(1.0, abs=1e-12)
        assert row.sigma_min == pytest.approx(1.0, abs=1e-12)
        assert row.g_bessel == pytest.approx(float(row.truncation**2), rel=1e-12)
        assert row.f_bessel == pytest.approx(1.0, abs=1e-12)
    assert table.g_bessel_growth is True
    assert table.f_bessel_growth is False
    assert table.op_norm_trend == "stabilizing"


def test_sweep_single_line_norm_converges():
    table = diag.truncation_sweep("ex-norm89", (10, 100, 1000, 10000))
    for row in table.rows:
        assert row.op_norm == pytest.approx(partial_line_norm(row.truncation), rel=1e-12)
        assert row.sigma_min == 0.0
    assert table.op_norm_trend == "stabilizing"
    assert abs(table.rows[-1].op_norm - np.sqrt(0.25 + np.pi**2 / 6 - 1)) < 1e-3


def test_sweep_interleaved_hs_converges():
    table = diag.truncation_sweep("ex-hs", (10, 100, 1000, 10000))
    for row in table.rows:
        assert row.hs**2 == pytest.approx(partial_hs_sq(row.truncation), rel=1e-12)
    assert table.hs_trend == "stabilizing"
    assert abs(table.rows[-1].hs ** 2 - (1 / 3 + np.pi**2 / 6 - 1)) < 1e-3


def test_sweep_blocked_rank_deficiency_persists():
    table = diag.truncation_sweep("ex-blocked", (6, 20, 60))
    for row in table.rows:
        assert row.sigma_min == 0.0
        assert row.op_norm == pytest.approx(2.0, abs=1e-12)
    assert table.rows[0].f_count == 4 and table.rows[0].g_count == 6


def test_sweep_rows_match_dense_route():
    for ex_id in example_ids():
        n = max(37, example_entry(ex_id).min_n)
        table = diag.truncation_sweep(ex_id, (n - 10, n))
        row = table.rows[-1]
        f, g = paper_example(ex_id, n)
        m = ops.cross_gram(f, g)
        s = np.linalg.svd(m, compute_uv=False)
        assert row.op_norm == pytest.approx(float(s[0]), abs=1e-10), ex_id
        assert row.sigma_min == pytest.approx(float(s[-1]), abs=1e-10), ex_id
        assert row.hs == pytest.approx(float(np.linalg.norm(m, "fro")), abs=1e-10), ex_id
        assert row.f_count == f.count and row.g_count == g.count
        assert row.dim == f.dim
        f_gram_norm = float(np.linalg.norm(f.columns.conj().T @ f.columns, 2))
        g_gram_norm = float(np.linalg.norm(g.columns.conj().T @ g.columns, 2))
        assert row.f_bessel == pytest.approx(f_gram_norm, rel=1e-10), ex_id
        assert row.g_bessel == pytest.approx(g_gram_norm, rel=1e-10), ex_id


def test_sweep_validates_inputs():
    with pytest.raises(ValueError, match="ex-identity"):
        diag.truncation_sweep("ex-nope", (4, 8))
    with pytest.raises(ValueError, match="increasing"):
        diag.truncation_sweep("ex-identity", (8, 4))
    with pytest.raises(ValueError, match="truncation"):
        diag.truncation_sweep("ex-identity", ())
    with pytest.raises(ValueError, match="two"):
        diag.truncation_sweep("ex-identity", (12,))


def test_sweep_rows_do_not_depend_on_the_ladder():
    # each row reads per-index sums over a prefix of the terms, folded a
    # chunk at a time; it must equal a sweep that ends at that row
    ladder = (10, 100, 1000, 10000, 100000)
    for ex_id in example_ids():
        table = diag.truncation_sweep(ex_id, ladder)
        for row in table.rows:
            alone = diag.truncation_sweep(ex_id, (example_entry(ex_id).min_n, row.truncation))
            assert alone.rows[-1] == row, (ex_id, row.truncation)


def test_sweep_generates_each_rows_terms_only_when_it_folds_them(monkeypatch):
    # a row's new terms come in chunks of at most TERM_CHUNK, each generated
    # after the rows before it are read and before the row itself is
    ladder = (10, 100, 1000, 100000)
    counts = {}
    for n in ladder:
        for spec, count, _ in (term_shape(SequenceSpec.paper_example("ex-hs", r), n) for r in "fg"):
            counts.setdefault(spec, [0]).append(count)
    rows, calls = [], []
    generate, spectrum = sequences.monomial_terms, ops._block_spectrum

    def spy_terms(spec, n, *, start=0):
        calls.append((spec, len(rows), n, start))
        return generate(spec, n, start=start)

    def spy_spectrum(*args):
        rows.append(args)
        return spectrum(*args)

    monkeypatch.setattr(sequences, "monomial_terms", spy_terms)
    monkeypatch.setattr(ops, "_block_spectrum", spy_spectrum)
    diag.truncation_sweep("ex-hs", ladder)
    folded = {spec: 0 for spec in counts}
    for spec, row, n, start in calls:
        assert counts[spec][row] <= start == folded[spec], (row, n, start)
        assert n <= counts[spec][row + 1] and n - start <= ops.TERM_CHUNK, (row, n, start)
        folded[spec] = n
    assert folded == {spec: c[-1] for spec, c in counts.items()}


@pytest.fixture
def add_at_folds(monkeypatch):
    """The length of each chunk ``operators._fold`` folds by ``np.add.at``."""
    fold, calls = ops._fold, []

    def spy(sums, idx, weights, stride=None):
        if not stride:
            calls.append(len(idx))
        return fold(sums, idx, weights, stride)

    monkeypatch.setattr(ops, "_fold", spy)
    return calls


def test_sweep_folds_chunks_on_consecutive_indices_by_slice_add(add_at_folds):
    # only a chunk that reaches a head, or a side of more than one tail slot
    # or of a step-0 slot, goes through np.add.at
    g_hs = [10, 90] + [ops.TERM_CHUNK] * 12 + [99900 - 12 * ops.TERM_CHUNK]
    for ex_id, chunks in (("ex-identity", []), ("ex-canonical", [10, 10]), ("ex-hs", g_hs)):
        add_at_folds.clear()
        diag.truncation_sweep(ex_id, (10, 100, 100000))
        assert add_at_folds == chunks, ex_id


def test_block_reports_fold_chunks_on_consecutive_indices_by_slice_add(add_at_folds, capsys):
    # the sweep's rule on the block route: ex-canonical's head chunk takes
    # np.add.at for f's and g's |c|^2, p and the term count, then _block_q
    # folds the 2-term bins of each chunk (two passes); ex-blocked's f takes
    # it only for its head chunk, and g's two slots for every chunk
    chunk = ops.TERM_CHUNK
    expected = (
        ("ex-identity", []),
        ("ex-canonical", [chunk] * 4 + [2, 0, 0] * 2),
        ("ex-blocked", [chunk] * 3 + [5]),
    )
    for ex_id, chunks in expected:
        add_at_folds.clear()
        assert cli.main(["example", "--id", ex_id, "--dim", str(2 * chunk + 5)]) == 0
        assert add_at_folds == chunks, ex_id
    capsys.readouterr()


def test_block_reports_write_into_no_chunk_a_later_pass_reads(monkeypatch):
    # a side of at most TERM_CHUNK terms is generated once and its chunk held for every pass,
    # and _block_q's two passes reread it: the sweep squares the chunks it owns in place, but
    # no block-route fold may write into one, real or complex
    chunks, held, block_q, passes = ops._chunks, [], ops._block_q, []

    def spy(spec, count, start=0):
        for chunk in chunks(spec, count, start):
            held.append((chunk, [a.tobytes() for a in chunk[:2]]))
            yield chunk

    monkeypatch.setattr(ops, "_chunks", spy)
    monkeypatch.setattr(ops, "_block_q", lambda *args: passes.append(args) or block_q(*args))
    # e1 twice, then a step-1 tail from e1: the pair of a real and a complex side has a q
    real, cplx = (SequenceSpec.pattern(sequences.PatternProgram(
        (sequences.PatternTerm(1, c),), (sequences.TailSlot(1, 1, coeff=c),))) for c in (1.0, 0.3 - 0.7j))
    for f, g in ((SequenceSpec.paper_example("ex-canonical", r) for r in "fg"), (real, cplx)):
        diag.reports(term_shape(f, 300), term_shape(g, 300), duality=True)
    assert len(passes) == 2 and {c.dtype.kind for (_, c, _), _ in held} == {"f", "c"}
    for chunk, before in held:
        assert [a.tobytes() for a in chunk[:2]] == before


def test_square_is_the_modulus_squared_bit_for_bit():
    # the sweep squares real coefficients in place, np.multiply(c, c, out=c), in
    # place of np.abs(c) ** 2, which must give the same bytes on every numpy build
    tiny = np.nextafter(0.0, 1.0)
    edges = [0.0, tiny, 2.2250738585072014e-308 / 3, 1e-160, 1e-154, 1e-150, 0.1, 1.0, 3.7, 1e64]
    edges += [np.nextafter(x, np.inf) for x in edges]
    rng = np.random.default_rng(0)
    spread = rng.standard_normal(4096) * 10.0 ** rng.integers(-170, 65, 4096)
    c = np.concatenate([edges, np.negative(edges), spread])
    assert c.dtype == np.float64 and np.signbit(c).any()
    assert np.square(c).tobytes() == (np.abs(c) ** 2).tobytes()
    assert np.multiply(c, c, out=c.copy()).tobytes() == (np.abs(c) ** 2).tobytes()


def test_sweep_to_a_million_terms_is_linear_in_memory():
    # the per-index sums live in a window a few chunks wide that slides along the
    # span, and a chunk of real terms at a time: the peak does not grow with n
    for n in (10**5, 10**6):
        for ex_id in example_ids():
            tracemalloc.start()
            try:
                table = diag.truncation_sweep(ex_id, (10, n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 10**6, (ex_id, n, peak)
            if ex_id == "ex-hs":
                assert table.rows[-1].hs ** 2 == pytest.approx(partial_hs_sq(n), rel=1e-12)


# SHA-256 of `sweep --id <id> --dims 10,100,1000,10000,100000`, recorded
# from the per-term scalar generator that the vectorized one replaced.  The
# sweep makes no LAPACK call, so these bytes do not depend on the BLAS build;
# they also held with numpy's AVX2 and AVX-512 loops disabled.
SWEEP_DIGESTS = {
    "ex-identity": "8947ad3665359745cc80b24e955b73585d36c113287ff614888117faab924132",
    "ex-hs": "23c4678427088eef504f7975294422cc21dd2b548d1e78a460c32b989c828a6b",
    "ex-blocked": "15a52cc3774c3a0f7f3f09b72851c5a22ad1908551dc682061cdb97ce9c8c8d4",
    "ex-norm89": "d64f8731fb4db8dd7638fe7ebba1eba211e9149b5b863dfd3e2c5aa3b5f94b6d",
    "ex-canonical": "ecdb75510a914aa0c25c76c8ae74babe2ec9266c1263d3b1e89ae73ee996c67c",
}


@pytest.mark.parametrize("ex_id", sorted(SWEEP_DIGESTS))
def test_sweep_envelope_bytes_are_unchanged(ex_id, capsys):
    code = cli.main(["sweep", "--id", ex_id, "--dims", "10,100,1000,10000,100000"])
    assert code == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SWEEP_DIGESTS[ex_id]


# SHA-256 of `sweep --id <id> --dims 2,32767,32768,32769,65537,100000`, recorded
# from the sweep that generated every term at once: rows on both sides of
# 2**15 and 2**16, edges of the term chunks and of the cycle blocks of
# geometric powers (both 2**15 long when recorded, 2**13 since, of which
# these dims are still edges)
CHUNK_DIGESTS = {
    "ex-identity": "5877c1f1b8117d2ed730be990e35032f8f230c522bccc251bc92a49f3f75f333",
    "ex-hs": "ddfe4fbb88bf9eec6d26d65de80c862074ba6c165c48f5e829101d559a68fcd4",
    "ex-blocked": "40dfffbbcfa0baf5f75f9af9591e607439617c7a1cd0c89740d590b1351a9687",
    "ex-norm89": "746ef169f97f49eb8082b01146c89ad38e6717a1843e434cc96e292acf510146",
    "ex-canonical": "e725510fac8769712becb485d602f3932accffa73ae401335184ff197df8b1ff",
}


@pytest.mark.parametrize("ex_id", sorted(CHUNK_DIGESTS))
def test_sweep_rows_across_chunk_edges_are_unchanged(ex_id, capsys):
    code = cli.main(["sweep", "--id", ex_id, "--dims", "2,32767,32768,32769,65537,100000"])
    assert code == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CHUNK_DIGESTS[ex_id]


def test_sweep_work_budget_refuses_before_generating(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("terms generated before the work budget check")

    monkeypatch.setattr(diag.sequences, "monomial_terms", refuse)
    rows = [10**7 - 500 + i for i in range(501)]  # 501 rows near the term budget
    assert sum(rows) > diag.MAX_SWEEP_WORK >= sum(rows[1:])
    code = cli.main(["sweep", "--id", "ex-hs", "--dims", ",".join(map(str, rows))])
    assert code == 2
    assert capsys.readouterr().err == (
        f"crossgram: error: sweep work {sum(rows)} (the sum of the truncations) exceeds "
        f"the budget MAX_SWEEP_WORK = {diag.MAX_SWEEP_WORK}\n"
    )
