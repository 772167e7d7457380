"""Tests of the benchmark's own code: output checkers, calibration and tail
arithmetic, and span self-time arithmetic.

    python3 -m pytest bench/tests
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import calibrate
import checks
import spans
import workloads
from spans import Span
import crossgram.cli as cli


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def envelope(argv):
    code, text = run(argv)
    assert code == 0
    return checks.envelope(text, argv)


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


# --------------------------------------------------------------------------
# checkers accept real output and reject corrupted copies


def test_schema_rejects_malformed_envelope():
    argv = ["example", "--id", "ex-identity", "--dim", "4"]
    _, text = run(argv)
    env = json.loads(text)
    env["report"]["cross_gram"]["op_norm"] = "1.0"
    with pytest.raises(checks.CheckError, match="schema"):
        checks.envelope(json.dumps(env), argv)
    with pytest.raises(checks.CheckError, match="unreadable"):
        checks.envelope(text[:-10], argv)


def test_battery_checker():
    argv = ["battery", "--seed", "7", "--trials", "3", "--dims", "2..8"]
    env = envelope(argv)
    checks.check_battery(env, 7, 3, 2, 8)
    rejects(checks.check_battery, env, 8, 3, 2, 8)
    for corrupt in (
        lambda r: r.update(all_passed=False),
        lambda r: r["checks"][3].update(failures=1),
        lambda r: r["checks"][0].update(passed=False),
        lambda r: r["controls"][1].update(failures=2, passed=False),  # fault not detected
        lambda r: r["controls"].pop(),
    ):
        bad = copy.deepcopy(env)
        corrupt(bad["report"])
        rejects(checks.check_battery, bad, 7, 3, 2, 8)


@pytest.mark.parametrize("eid", workloads.EXAMPLE_IDS)
def test_sweep_checker_low_rows(eid):
    ladder = (10, 100)
    env = envelope(["sweep", "--id", eid, "--dims", "10,100"])
    refs = {n: checks.sweep_rows_ref(eid, n) for n in ladder}
    checks.check_sweep(env, eid, ladder, refs)
    for key, delta in (("op_norm", 1e-6), ("hs", 1e-6), ("g_bessel", 1e-3), ("f_count", 1)):
        bad = copy.deepcopy(env)
        bad["report"]["rows"][1][key] += delta
        rejects(checks.check_sweep, bad, eid, ladder, refs)


def test_sweep_checker_limits():
    ladder = workloads.SWEEP_LADDER
    dims = ",".join(map(str, ladder))
    for eid, key in (("ex-hs", "hs"), ("ex-norm89", "op_norm")):
        env = envelope(["sweep", "--id", eid, "--dims", dims])
        checks.check_sweep(env, eid, ladder, {})
        bad = copy.deepcopy(env)
        bad["report"]["rows"][-1][key] *= 1.01
        rejects(checks.check_sweep, bad, eid, ladder, {})


@pytest.mark.parametrize("eid", workloads.EXAMPLE_IDS)
def test_example_checker(eid):
    n = 12
    env = envelope(["example", "--id", eid, "--dim", str(n)])
    ref = checks.example_ref(eid, n)
    checks.check_example(env, eid, n, ref)
    for path, value in (
        (("cross_gram", "op_norm"), lambda v: v * (1 + 1e-6)),
        (("cross_gram", "psd"), lambda v: not v),
        (("f_classification", "riesz"), lambda v: not v),
        (("g_classification", "frame", "lower"), lambda v: v + 1e-3),
    ):
        bad = copy.deepcopy(env)
        node = bad["report"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
        rejects(checks.check_example, bad, eid, n, ref)
    if env["report"]["duality"] is not None:
        bad = copy.deepcopy(env)
        bad["report"]["duality"]["is_dual_pair"] ^= True
        rejects(checks.check_example, bad, eid, n, ref)


def test_text_output_reads_back_as_the_json_envelope():
    argv = ["example", "--id", "ex-blocked", "--dim", "6"]
    _, text = run(argv + ["--format", "text"])
    _, js = run(argv)
    assert checks.envelope(text, argv + ["--format", "text"]) == json.loads(js)


def test_explicit_pair_checkers(tmp_path):
    rng = np.random.default_rng(5)
    f = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    dual = np.linalg.solve(f @ f.conj().T, f)
    paths = {}
    for key, t in (("f", f), ("dual", dual)):
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(workloads._explicit_spec(t), fh)
    cls = envelope(["classify", "--input", paths["f"], "--dim", "6"])["report"]
    checks.check_classification(cls, checks.classification_ref(f), "f")
    bad = dict(cls, bessel_bound=cls["bessel_bound"] * 1.001)
    rejects(checks.check_classification, bad, checks.classification_ref(f), "f")

    cg = envelope(["cross-gram", "--f", paths["f"], "--g", paths["dual"], "--dim", "6"])["report"]
    ref = checks.cross_gram_ref(f, dual)
    assert cg["psd"] and ref["psd"]
    checks.check_cross_gram(cg, ref, "pair")
    rejects(checks.check_cross_gram, dict(cg, psd=False), ref, "pair")
    rejects(checks.check_cross_gram, dict(cg, hs=cg["hs"] + 1e-6), ref, "pair")

    argv = ["dual-check", "--f", paths["f"], "--g", paths["dual"], "--dim", "6"]
    du = envelope(argv)["report"]
    pairing = checks.pairing_ref(f, dual)
    checks.check_duality(du, pairing, "pair")
    rejects(checks.check_duality, dict(du, is_dual_pair=False), pairing, "pair")
    rejects(checks.check_duality, dict(du, reconstruction_residual_2=1.0), pairing, "pair")


def test_random_frame_checkers(tmp_path):
    spec = tmp_path / "frame.json"
    spec.write_text(json.dumps({"kind": "random_frame", "d": 4, "n": 6, "seed": 3}))
    spec2 = tmp_path / "frame2.json"
    spec2.write_text(json.dumps({"kind": "random_frame", "d": 4, "n": 6, "seed": 4}))
    cls = envelope(["classify", "--input", str(spec), "--dim", "6"])["report"]
    checks.check_random_frame_classify(cls, 4, 6, 100.0)
    rejects(checks.check_random_frame_classify, dict(cls, riesz=True), 4, 6, 100.0)
    frame = dict(cls["frame"], lower=cls["frame"]["upper"] * 1e-5)
    rejects(checks.check_random_frame_classify, dict(cls, frame=frame), 4, 6, 100.0)

    cg = envelope(["cross-gram", "--f", str(spec), "--g", str(spec2), "--dim", "6"])["report"]
    checks.check_frame_pair_cross_gram(cg, 4, 6)
    rejects(checks.check_frame_pair_cross_gram, dict(cg, invertible=True), 4, 6)
    rejects(checks.check_frame_pair_cross_gram, dict(cg, hs=cg["op_norm"] * 3), 4, 6)


def test_dense_workload_commands_and_checks(tmp_path):
    plan = workloads.Dense(0, str(tmp_path))
    op = plan.next_op()
    assert [argv[0] for argv in op] == ["example"] * 5 + ["classify", "cross-gram", "dual-check"] * 2
    assert sum("--format" in argv for argv in op) == 1
    explicit_cg = op[6]
    code, text = run(explicit_cg)
    plan.check(explicit_cg, code, text)
    env = json.loads(text)
    env["report"]["psd"] = False
    rejects(plan.check, explicit_cg, 0, json.dumps(env))
    rejects(plan.check, explicit_cg, 2, text)


def test_workloads_are_functions_of_the_seed(tmp_path):
    for cls in (workloads.Battery, workloads.Sweep):
        a, b = cls(9, str(tmp_path)), cls(9, str(tmp_path))
        assert [a.next_op() for _ in range(3)] == [b.next_op() for _ in range(3)]
    ops = [workloads.Battery(s, str(tmp_path)).next_op() for s in (1, 2)]
    assert ops[0] != ops[1]


# --------------------------------------------------------------------------
# calibration and tail arithmetic


def test_normalize_scales_to_the_reference_kernel_time():
    ref = calibrate.CAL_REF
    assert calibrate.normalize(2.0, ref, ref) == pytest.approx(2.0)
    # the machine ran at half speed around this op: the kernel took twice as long
    assert calibrate.normalize(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert calibrate.normalize(3.0, ref, 2 * ref) == pytest.approx(3.0 * ref / (1.5 * ref))


def test_timed_brackets_the_op_with_kernel_runs(monkeypatch):
    kernel_times = iter([0.02, 0.04])
    monkeypatch.setattr(calibrate, "time_kernel", lambda: next(kernel_times))
    results, raw, norm, cal = calibrate.timed([lambda: "done"])
    assert results == ["done"] and cal == [0.02, 0.04]
    assert norm == pytest.approx(raw * calibrate.CAL_REF / 0.03)


def test_timed_normalizes_each_step_by_its_own_neighbours(monkeypatch):
    kernel_times = iter([0.01, 0.03, 0.05])
    clock = iter([0.0, 2.0, 10.0, 13.0])
    monkeypatch.setattr(calibrate, "time_kernel", lambda: next(kernel_times))
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: next(clock))
    _, raw, norm, _ = calibrate.timed([lambda: 1, lambda: 2])
    ref = calibrate.CAL_REF
    assert raw == pytest.approx(5.0)
    assert norm == pytest.approx(2.0 * ref / 0.02 + 3.0 * ref / 0.04)


def test_tail_rule():
    assert calibrate.tail(list(range(39))) is None
    assert calibrate.tail(list(range(1, 41))) == (75.0, 30)
    pct, value = calibrate.tail(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)  # exactly ten values (91..100) beyond it
    pct, value = calibrate.tail([float(v) for v in range(1, 1001)])
    assert (pct, value) == (99.0, 990.0)


# --------------------------------------------------------------------------
# span arithmetic


def _span(sid, parent, name, start, end, n=None):
    return Span(1, sid, parent, name, start, end, n)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, "cli.main", 0, 100),
        _span(1, 0, "diagnostics.check_duality", 10, 40),
        _span(2, 1, "numpy.linalg.norm", 20, 30, 1),
        _span(3, 0, "serialize.emit_report", 50, 70),
    ]
    assert spans.self_times(tree) == {0: 50, 1: 20, 2: 10, 3: 20}
    shares = spans.layer_shares(tree)
    assert shares["cli"] == pytest.approx(0.5)
    assert shares["diagnostics"] == pytest.approx(0.2)
    assert shares["numpy.linalg"] == pytest.approx(0.1)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, None, "cli.main", 0, 100),
        _span(1, 0, "linalg.as_matrix", 10, 50),
        _span(2, 0, "linalg.as_matrix", 30, 60),
        _span(3, 0, "linalg.as_matrix", 90, 120),  # clipped to the parent
    ]
    assert spans.self_times(tree)[0] == 100 - 50 - 10


def test_layer_metrics_count_outermost_spans_once():
    tree = [
        _span(0, None, "cli.main", 0, 1000),
        _span(1, 0, "sequences.monomial_terms", 100, 400, 30),
        _span(2, 1, "sequences.monomial_terms", 150, 350, 30),  # recursion
        _span(3, 0, "numpy.linalg.norm", 500, 600, 1),
        _span(4, 0, "numpy.linalg.norm", 600, 650, 0),
        _span(5, 0, "numpy.linalg.svd", 700, 800),
    ]
    m = spans.op_layer_metrics(tree)
    assert m["sequences.terms"] == 30
    assert m["sequences.terms_s"] == pytest.approx(300e-9)
    assert m["linalg.norm2_calls"] == 1 and m["linalg.svd_calls"] == 1
    assert m["linalg.lapack_s"] == pytest.approx(250e-9)
    assert m["cli.self_s"] == pytest.approx((1000 - 300 - 250) * 1e-9)
    assert m["serialize.decode_s"] == 0.0  # a name never recorded reads zero


def test_tracer_records_calls_that_raise(tmp_path):
    tracer = spans.Tracer()
    with tracer:
        code, _ = run(["classify", "--input", str(tmp_path / "missing.json"), "--dim", "3"])
    assert code == 2
    names = [s.name for s in tracer.spans]
    assert "serialize.load_sequence_file" in names and names[-1] == "cli.main"


def test_tracer_wraps_the_program_and_restores_it():
    import crossgram.linalg as linalg
    import numpy

    original, svd = linalg.as_matrix, numpy.linalg.svd
    tracer = spans.Tracer()
    with tracer:
        code, _ = run(["sweep", "--id", "ex-identity", "--dims", "10,100"])
    assert code == 0
    assert linalg.as_matrix is original and numpy.linalg.svd is svd
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    m = spans.op_layer_metrics(tracer.spans)
    assert m["sequences.terms"] == 2 * (10 + 100)
    assert m["linalg.svd_calls"] == 0 and m["sequences.terms_s"] > 0
