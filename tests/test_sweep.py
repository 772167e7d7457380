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

from crossgram import cli
from crossgram import diagnostics as diag
from crossgram import operators as ops
from crossgram.sequences import example_entry, example_ids, paper_example


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
    # each row reads a prefix of terms generated once at the largest
    # truncation; it must equal a sweep that ends at that row
    ladder = (10, 100, 1000, 10000, 100000)
    for ex_id in example_ids():
        table = diag.truncation_sweep(ex_id, ladder)
        for row in table.rows:
            alone = diag.truncation_sweep(ex_id, (example_entry(ex_id).min_n, row.truncation))
            assert alone.rows[-1] == row, (ex_id, row.truncation)


def test_sweep_to_a_million_terms_is_linear_in_memory():
    tracemalloc.start()
    try:
        table = diag.truncation_sweep("ex-hs", (10, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
    assert table.rows[-1].hs ** 2 == pytest.approx(partial_hs_sq(10**6), rel=1e-12)


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
