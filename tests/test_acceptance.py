"""Acceptance suite.

One test per acceptance criterion; each prints a single verdict line
(PASS or FAIL plus the measured quantities) and then asserts.  Run with
``pytest tests/test_acceptance.py`` to get the ten-line scoreboard.
"""

import json
import subprocess
import sys

import numpy as np

from crossgram import diagnostics as diag
from crossgram import operators as ops
from crossgram import sequences as seq
from crossgram.sequences import RealizedSequence


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_identity_cross_gram_and_quadratic_bessel():
    f, g = seq.paper_example("ex-identity", 256)
    gap = float(np.max(np.abs(ops.cross_gram(f, g) - np.eye(256))))
    ok = gap <= 1e-12
    bessels = []
    for n in (10, 100, 1000):
        c = diag.classify_sequence(seq.paper_example("ex-identity", n)[1])
        bessels.append(c.bessel_bound)
        ok = ok and abs(c.bessel_bound - float(n) ** 2) <= 1e-12 * n**2
    growth = diag.truncation_sweep("ex-identity", (10, 100, 1000)).g_bessel_growth
    ok = ok and growth
    assert _verdict(
        1,
        ok,
        f"ex-identity: max|G-I|={gap:.2e} (<=1e-12), "
        f"bessel at N=10,100,1000 = {bessels} (=N^2), growth flag {growth}",
    )


def test_criterion_02_blocked_example_is_singular_with_norm_two():
    f, g = seq.paper_example("ex-blocked", 6)
    report = diag.analyze_cross_gram(ops.cross_gram(f, g))
    ok = (
        (f.count, g.count) == (4, 6)
        and report.sigma_min <= 1e-12
        and not report.invertible
        and abs(report.op_norm - 2.0) <= 1e-10
    )
    assert _verdict(
        2,
        ok,
        f"ex-blocked 6g/4f: sigma_min={report.sigma_min:.2e} (<=1e-12), "
        f"invertible={report.invertible}, |op_norm-2|={abs(report.op_norm - 2.0):.2e}",
    )


def test_criterion_03_norm89_operator_norm_and_non_duality():
    table = diag.truncation_sweep("ex-norm89", (10, 100, 1000, 10_000))
    op = table.rows[-1].op_norm
    exact = float(np.sqrt(0.25 + np.pi**2 / 6 - 1.0))
    printed = float(np.sqrt(89.0 / 100.0))
    f, g = seq.paper_example("ex-norm89", 128)
    verdict = diag.check_duality(f, g)
    ok = (
        abs(op - exact) <= 1e-3
        and abs(op - printed) <= 6e-3
        and not verdict.is_dual_pair
    )
    assert _verdict(
        3,
        ok,
        f"ex-norm89 N=1e4: op_norm={op:.6f}, |op-{exact:.6f}|={abs(op - exact):.2e} (<=1e-3), "
        f"|op-{printed:.6f}|={abs(op - printed):.2e} (<=6e-3), dual={verdict.is_dual_pair}",
    )


def test_criterion_04_hs_norm_limit():
    table = diag.truncation_sweep("ex-hs", (10, 100, 1000, 10_000))
    hs_sq = table.rows[-1].hs ** 2
    limit = 1.0 / 3.0 + np.pi**2 / 6.0 - 1.0
    ok = abs(hs_sq - limit) <= 1e-3
    assert _verdict(
        4,
        ok,
        f"ex-hs N=1e4: hs^2={hs_sq:.7f}, |hs^2-{limit:.7f}|={abs(hs_sq - limit):.2e} (<=1e-3)",
    )


def test_criterion_05_canonical_projection_identities():
    f, g = seq.paper_example("ex-canonical", 8)
    m = ops.cross_gram(f, g)
    report = diag.analyze_cross_gram(m)
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
    c_cancel = np.zeros(8, dtype=complex)
    c_cancel[0], c_cancel[1] = 1.0, -1.0
    c_third = np.zeros(8, dtype=complex)
    c_third[2] = 1.0
    q_cancel = abs(np.vdot(c_cancel, m @ c_cancel))
    q_third = abs(np.vdot(c_third, m @ c_third) - 1.0)
    ok = (
        report.hermitian_defect <= 1e-12
        and lam_min >= -1e-12
        and report.idempotency_defect <= 1e-12
        and q_cancel <= 1e-12
        and q_third <= 1e-12
    )
    assert _verdict(
        5,
        ok,
        f"ex-canonical: defect={report.hermitian_defect:.2e}, lam_min={lam_min:.2e}, "
        f"|G^2-G|={report.idempotency_defect:.2e}, q(1,-1,0,..)={q_cancel:.2e}, "
        f"q(e3)-1={q_third:.2e} (all <=1e-12)",
    )


def test_criterion_06_theorem_battery_seed_42():
    report = diag.theorem_battery(seed=42, trials=200, dims=(2, 8))
    outcomes = {c.check_id: c.passed for c in report.checks + report.controls}
    callouts = ("a-riesz-product", "b-rank-deficit", "h-canonical-projection")
    ok = report.all_passed and all(outcomes[c] for c in callouts)
    failed = sorted(k for k, v in outcomes.items() if not v)
    assert _verdict(
        6,
        ok,
        f"battery seed=42 trials=200 dims=2..8: all_passed={report.all_passed}, "
        f"failed={failed or 'none'}",
    )


def test_criterion_07_hilbert_schmidt_inequality_suite():
    worst = -np.inf
    for s in range(100):
        d = 2 + s % 6
        f = seq.random_frame(d, d + s % 3, (7000, s))
        g = seq.random_frame(d, d + (s // 3) % 4, (7001, s))
        hs = float(np.linalg.norm(ops.cross_gram(f, g), "fro"))
        bessel_g = diag.classify_sequence(g).bessel_bound
        energy_f = float(np.sum(np.abs(f.columns) ** 2))
        worst = max(worst, hs - np.sqrt(bessel_g) * np.sqrt(energy_f))
    ok = worst <= 1e-9
    assert _verdict(
        7,
        ok,
        f"hs(G) <= sqrt(B_g)*sqrt(sum|f_k|^2) over 100 pairs: worst excess {worst:.2e} (<=1e-9)",
    )


def test_criterion_08_norm_bound_suite():
    worst_sup = -np.inf
    worst_inf = -np.inf
    applied = 0
    for s in range(100):
        d = 2 + s % 5
        nf = d + s % 2
        ng = nf + s % 3
        rng = np.random.default_rng((8000, s))
        cols = (rng.standard_normal((d, nf)) + 1j * rng.standard_normal((d, nf))) / np.sqrt(2)
        f = RealizedSequence(cols)
        g = seq.random_frame(d, ng, (8001, s))
        report = diag.analyze_cross_gram(ops.cross_gram(f, g))
        cls_g = diag.classify_sequence(g)
        norms_sq = np.sum(np.abs(f.columns) ** 2, axis=0)
        worst_sup = max(worst_sup, float(norms_sq.max()) - report.op_norm**2 / cls_g.frame.lower)
        if report.sigma_min > 0:
            applied += 1
            worst_inf = max(
                worst_inf, report.sigma_min**2 / cls_g.bessel_bound - float(norms_sq.min())
            )
    ok = worst_sup <= 1e-9 and worst_inf <= 1e-9 and applied > 0
    assert _verdict(
        8,
        ok,
        f"sup|f_k|^2 <= op^2/A_g and inf|f_k|^2 >= sigma_min^2/B_g over 100 pairs: "
        f"worst excesses {worst_sup:.2e}, {worst_inf:.2e} (<=1e-9), lower bound applied {applied}x",
    )


def test_criterion_09_duality_threshold_suite():
    min_op = np.inf
    worst_idem = 0.0
    shrunk_checked = 0
    shrunk_misclassified = 0
    for s in range(100):
        d = 2 + s % 6
        f = seq.random_frame(d, d + s % 4, (9000, s))
        dual = (
            ops.canonical_dual(f)
            if s % 2 == 0
            else ops.alternate_dual(f, (9001, s), scale=1.0)
        )
        m = ops.cross_gram(f, dual)
        min_op = min(min_op, float(np.linalg.norm(m, 2)))
        worst_idem = max(worst_idem, float(np.linalg.norm(m @ m - m, 2)))
        shrunk = RealizedSequence(0.9 * dual.columns)
        if float(np.linalg.norm(ops.cross_gram(f, shrunk), 2)) <= 0.99:
            shrunk_checked += 1
            if diag.check_duality(f, shrunk).is_dual_pair:
                shrunk_misclassified += 1
    ok = (
        min_op >= 1.0 - 1e-9
        and worst_idem <= 1e-9
        and shrunk_checked > 0
        and shrunk_misclassified == 0
    )
    assert _verdict(
        9,
        ok,
        f"100 dual pairs: min op_norm={min_op:.12f} (>=1-1e-9), worst |G^2-G|={worst_idem:.2e} "
        f"(<=1e-9), shrunk pairs with op<=0.99: {shrunk_checked} checked, "
        f"{shrunk_misclassified} misclassified as dual",
    )


def test_criterion_10_battery_reports_are_byte_identical():
    args = [sys.executable, "-m", "crossgram", "battery", "--seed", "42", "--trials", "200"]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    codes = (first.returncode, second.returncode)
    identical = first.stdout == second.stdout
    ok = codes == (0, 0) and identical and json.loads(first.stdout)["report"]["all_passed"]
    assert _verdict(
        10,
        ok,
        f"battery --seed 42 --trials 200: exit codes {codes}, "
        f"byte-identical across reruns: {identical}",
    )
