"""End-to-end checks for the command line interface.

Every command emits one JSON envelope (tool, command, config echo, report)
that validates against the shipped schema; exit codes are 0 for success,
2 for validation problems, 3 when the battery finds a failing check.
Reports must be byte-identical for identical (config, seed).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crossgram import cli, diagnostics, sequences, serialize
from crossgram.sequences import PatternProgram, PatternTerm, SequenceSpec, TailSlot, WeightRule
from crossgram.serialize import SpecFileError

RUN = [sys.executable, "-m", "crossgram"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def report_schema():
    text = resources.files("crossgram").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def check_envelope(out, schema):
    env = json.loads(out)
    jsonschema.validate(env, schema)
    assert env["tool"]["name"] == "crossgram"
    return env


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ----------------------------------------------------------------- loading


def test_load_sequence_file_reports_field_context(tmp_path):
    path = write_spec(
        tmp_path, "bad.json", {"kind": "explicit", "columns": [[[1, 0]], [[0, 1], [1, 0]]]}
    )
    with pytest.raises(SpecFileError) as exc:
        serialize.load_sequence_file(path)
    assert "column 1" in str(exc.value)
    assert exc.value.source == path


def test_load_sequence_file_rejects_bad_complex_encoding(tmp_path):
    path = write_spec(tmp_path, "bad.json", {"kind": "explicit", "columns": [[1.0]]})
    with pytest.raises(SpecFileError, match=r"\[re, im\]"):
        serialize.load_sequence_file(path)


@pytest.mark.parametrize(
    "payload, field, expected",
    [
        ({"kind": "scaled_basis", "weight": [1, 0]}, "weight", "expected an object"),
        ({"kind": "pattern", "head": {}, "tail": []}, "head", "expected an array"),
        ({"kind": "random_frame", "d": 2.5, "n": 4, "seed": 1}, "d", "expected an integer"),
        ({"kind": "paper_example", "example": 5, "role": "f"}, "example", "expected a string"),
        # the only number check: each part of a complex scalar
        ({"kind": "explicit", "columns": [[["1", 0]]]}, "columns[0][0]", r"\[re, im\]"),
        (
            {"kind": "scaled_basis", "weight": {"rule": "constant", "value": 2.0}},
            "weight.value",
            r"\[re, im\]",
        ),
        # a JSON integer past the float range
        (
            {"kind": "explicit", "columns": [[[1, -(10**400)]]]},
            "columns[0][0]",
            "float range",
        ),
    ],
    ids=["object", "array", "integer", "string", "number", "re-im", "overflow"],
)
def test_spec_type_failures_name_their_field(payload, field, expected):
    with pytest.raises(SpecFileError, match=expected) as exc:
        serialize.spec_from_json(payload, source="<spec>")
    assert exc.value.field == field
    assert str(exc.value).startswith(f"<spec>: {field}: ")


# a 3 x 2 explicit spec (two columns in C^3) whose entry columns[1][2] is
# replaced: each replacement declines the one-array decode, and the walker
# names the field as it does for any other bad entry
_COLUMNS_3X2 = [[[1, 0], [0, 0], [0.5, 0]], [[0, 0], [1, 0], [0, -0.5]]]


@pytest.mark.parametrize(
    "entry, message",
    [
        ([True, 0], r"columns\[1\]\[2\]: expected a complex scalar as \[re, im\], got \[True, 0\]"),
        ([0, False], r"columns\[1\]\[2\]: expected a complex scalar"),
        (["1.5", 0], r"columns\[1\]\[2\]: expected a complex scalar"),
        ([1, 0, 0], r"columns\[1\]\[2\]: expected a complex scalar"),
        ([[1, 0], 0], r"columns\[1\]\[2\]: expected a complex scalar"),
        ([1, -(10**400)], r"columns\[1\]\[2\]: \[re, im\] parts must be within the float range"),
        (None, r"columns: column 1 has length 2, expected 3"),
        ([float("nan"), 0], r"matrix entries must be finite \(1 non-finite entries\)"),
    ],
    ids=["bool", "bool-im", "string", "three-parts", "nested", "overflow", "ragged", "nan"],
)
def test_explicit_entries_the_array_decode_declines_name_their_field(
    tmp_path, capsys, entry, message
):
    columns = json.loads(json.dumps(_COLUMNS_3X2))
    if entry is None:
        del columns[1][2]
    else:
        columns[1][2] = entry
    path = write_spec(tmp_path, "f.json", {"kind": "explicit", "columns": columns})
    assert cli.main(["classify", "--input", path, "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crossgram: error: {path}: "), err
    assert re.search(message, err), err
    assert len(err.splitlines()) == 1


def test_load_sequence_file_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "explicit",\n  "columns": }')
    with pytest.raises(SpecFileError, match="line 2"):
        serialize.load_sequence_file(str(path))


def test_json_integers_past_the_digit_limit_name_their_file(tmp_path, capsys):
    # Python's json refuses integer literals over 4300 digits with a ValueError
    path = tmp_path / "huge.json"
    value = "1" + "0" * 5000
    path.write_text(
        '{"kind": "scaled_basis", "weight": {"rule": "constant", "value": [%s, 0]}}' % value
    )
    assert cli.main(["classify", "--input", str(path), "--dim", "3"]) == 2
    assert f"{path}: invalid JSON: Exceeds the limit" in capsys.readouterr().err


def test_non_utf8_spec_files_name_their_file(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["classify", "--input", str(path), "--dim", "3"]) == 2
    assert capsys.readouterr().err == f"crossgram: error: {path}: not UTF-8 text: byte 0xff at offset 0\n"


def test_overflowing_geometric_weights_print_one_error_line(tmp_path):
    path = write_spec(
        tmp_path,
        "geo.json",
        {"kind": "scaled_basis", "weight": {"rule": "geometric", "ratio": [1e308, 1e308]}},
    )
    res = run_cli(["classify", "--input", path, "--dim", "4"])
    assert res.returncode == 2
    assert res.stderr.splitlines() == [
        f"crossgram: error: {path}: matrix entries must be finite (2 non-finite entries)"
    ]


def test_random_kinds_accept_short_and_long_size_keys():
    short = serialize.spec_from_json(
        {"kind": "random_frame", "d": 3, "n": 6, "seed": 9}, source="<short>"
    )
    long_ = serialize.spec_from_json(
        {"kind": "random_frame", "dim": 3, "count": 6, "seed": 9}, source="<long>"
    )
    assert short == long_ == SequenceSpec.random_frame(3, 6, 9)
    # the realized matrix is 3 x 6 with full row rank
    import numpy as np

    from crossgram.sequences import realize

    cols = realize(short, 6).columns
    assert cols.shape == (3, 6)
    assert np.linalg.matrix_rank(cols) == 3


def test_random_kind_alias_keys_are_exclusive():
    with pytest.raises(SpecFileError, match="aliases"):
        serialize.spec_from_json(
            {"kind": "random_riesz", "d": 3, "dim": 3, "seed": 1}, source="<dup>"
        )
    with pytest.raises(SpecFileError, match="missing required key 'd'"):
        serialize.spec_from_json({"kind": "random_riesz", "seed": 1}, source="<none>")


def test_schema_valid_specs_decode_to_their_constructors():
    schema = json.loads(
        resources.files("crossgram").joinpath("schemas/sequence.schema.json").read_text()
    )
    for payload, expected in (
        (
            {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}},
            SequenceSpec.scaled_basis(WeightRule.inverse_index()),
        ),
        (
            {"kind": "scaled_basis", "weight": {"rule": "geometric", "ratio": [0.5, 0.0]}},
            SequenceSpec.scaled_basis(WeightRule.geometric(0.5)),
        ),
        (
            {
                "kind": "pattern",
                "head": [{"index": 1, "coeff": [0.5, 0.0]}],
                "tail": [{"start_index": 1, "index_step": 0, "coeff_rule": "inverse_term"}],
            },
            SequenceSpec.pattern(
                PatternProgram(
                    head=(PatternTerm(1, 0.5),),
                    tail=(TailSlot(start_index=1, coeff_rule="inverse_term"),),
                )
            ),
        ),
        (
            {"kind": "paper_example", "example": "ex-hs", "role": "g"},
            SequenceSpec.paper_example("ex-hs", "g"),
        ),
        ({"kind": "random_riesz", "dim": 4, "seed": 42}, SequenceSpec.random_riesz(4, 42)),
        (
            {"kind": "random_frame", "dim": 3, "count": 6, "seed": 9},
            SequenceSpec.random_frame(3, 6, 9),
        ),
        (
            {"kind": "explicit", "columns": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
            SequenceSpec.explicit([[1, 0], [0, 1j]]),
        ),
    ):
        jsonschema.validate(payload, schema)
        assert serialize.spec_from_json(payload, source="<memory>") == expected


# ----------------------------------------------------------------- classify


def test_classify_command(tmp_path, report_schema):
    path = write_spec(
        tmp_path,
        "ortho.json",
        {"kind": "explicit", "columns": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
    )
    res = run_cli(["classify", "--input", path, "--dim", "2"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["command"] == "classify"
    assert env["report"]["riesz"] is True
    assert env["report"]["bessel_bound"] == pytest.approx(1.0)
    assert env["config"]["dim"] == 2


def test_classify_rejects_bad_file(tmp_path):
    path = write_spec(
        tmp_path, "bad.json", {"kind": "explicit", "columns": [[[1, 0]], [[0, 1], [1, 0]]]}
    )
    res = run_cli(["classify", "--input", path, "--dim", "2"])
    assert res.returncode == 2
    assert "column 1" in res.stderr


def test_classify_rejects_truncation_mismatch(tmp_path):
    path = write_spec(tmp_path, "riesz.json", {"kind": "random_riesz", "dim": 5, "seed": 1})
    res = run_cli(["classify", "--input", path, "--dim", "4"])
    assert res.returncode == 2
    assert "truncation" in res.stderr


def test_classify_missing_file_is_validation_error(tmp_path):
    res = run_cli(["classify", "--input", str(tmp_path / "nope.json"), "--dim", "4"])
    assert res.returncode == 2


# ----------------------------------------------------------------- pair cmds


def test_cross_gram_command_identity_pair(tmp_path, report_schema):
    f = write_spec(tmp_path, "f.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}})
    g = write_spec(tmp_path, "g.json", {"kind": "scaled_basis", "weight": {"rule": "index"}})
    res = run_cli(["cross-gram", "--f", f, "--g", g, "--dim", "8"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["identity_distance"] <= 1e-12
    assert env["report"]["invertible"] is True
    assert (env["report"]["rows"], env["report"]["cols"]) == (8, 8)


def test_dual_check_command(tmp_path, report_schema):
    f = write_spec(tmp_path, "f.json", {"kind": "paper_example", "example": "ex-canonical", "role": "f"})
    g = write_spec(tmp_path, "g.json", {"kind": "paper_example", "example": "ex-canonical", "role": "g"})
    res = run_cli(["dual-check", "--f", f, "--g", g, "--dim", "6", "--probes", "8", "--seed", "3"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["is_dual_pair"] is True
    assert env["report"]["pairing_residual_3"] <= 1e-10
    assert env["config"]["probes"] == 8


def test_cross_gram_rejects_ambient_mismatch(tmp_path):
    f = write_spec(tmp_path, "f.json", {"kind": "explicit", "columns": [[[1, 0], [0, 0]]]})
    g = write_spec(
        tmp_path, "g.json", {"kind": "explicit", "columns": [[[1, 0], [0, 0], [0, 0]]]}
    )
    res = run_cli(["cross-gram", "--f", f, "--g", g, "--dim", "1"])
    assert res.returncode == 2
    assert "ambient" in res.stderr


def test_dual_check_count_mismatch_is_validation_error(tmp_path):
    f = write_spec(tmp_path, "f.json", {"kind": "paper_example", "example": "ex-blocked", "role": "f"})
    g = write_spec(tmp_path, "g.json", {"kind": "paper_example", "example": "ex-blocked", "role": "g"})
    res = run_cli(["dual-check", "--f", f, "--g", g, "--dim", "6"])
    assert res.returncode == 2
    assert "counts" in res.stderr


# ----------------------------------------------------------------- example


def test_example_command_identity(report_schema):
    res = run_cli(["example", "--id", "ex-identity", "--dim", "64"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["cross_gram"]["identity_distance"] <= 1e-12
    assert env["report"]["f_count"] == 64
    assert env["report"]["duality"] is not None


def test_example_command_blocked_skips_duality(report_schema):
    res = run_cli(["example", "--id", "ex-blocked", "--dim", "6"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["duality"] is None
    assert env["report"]["g_count"] == 6
    assert env["report"]["f_count"] == 4


def test_example_unknown_id(report_schema):
    res = run_cli(["example", "--id", "ex-nope", "--dim", "8"])
    assert res.returncode == 2
    assert "ex-identity" in res.stderr


# ----------------------------------------------------------------- sweep


def test_sweep_command(report_schema):
    res = run_cli(["sweep", "--id", "ex-norm89", "--dims", "10,100,1000"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    rows = env["report"]["rows"]
    assert [r["truncation"] for r in rows] == [10, 100, 1000]
    assert env["report"]["op_norm_trend"] in ("stabilizing", "growing", "inconclusive")


def test_sweep_rejects_bad_dims(report_schema):
    res = run_cli(["sweep", "--id", "ex-identity", "--dims", "100,10"])
    assert res.returncode == 2
    assert "increasing" in res.stderr


def test_sweep_budget_exits_2():
    res = run_cli(["sweep", "--id", "ex-hs", "--dims", "10,100000000"])
    assert res.returncode == 2
    assert "sweep budget MAX_SWEEP_TRUNCATION = 10000000" in res.stderr


def test_realize_budget_exits_2(tmp_path):
    # inputs of the dense route: a random frame over 2**24 entries, and two
    # monomial sequences of equal count on different index arrays, whose
    # square cross-Gram has no block form
    frame = write_spec(
        tmp_path, "frame.json", {"kind": "random_frame", "d": 4097, "n": 4097, "seed": 0}
    )
    scaled = write_spec(
        tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}}
    )
    far = write_spec(
        tmp_path, "far.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 10**9}]}
    )
    for argv in (
        ["classify", "--input", frame, "--dim", "4097"],
        ["cross-gram", "--f", scaled, "--g", far, "--dim", "20000"],
    ):
        res = run_cli(argv)
        assert res.returncode == 2, res.stderr
        assert "budget MAX_DENSE_ENTRIES = 16777216" in res.stderr
        assert "Traceback" not in res.stderr


def test_monomial_specs_classify_past_the_dense_budget(tmp_path, capsys):
    # 20000 x 20000 and 10**9 x 20000 dense realizations, read off the terms
    scaled = write_spec(
        tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}}
    )
    far = write_spec(
        tmp_path, "far.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 10**9}]}
    )
    assert cli.main(["classify", "--input", scaled, "--dim", "20000"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert (rep["dim"], rep["count"], rep["riesz"]) == (20000, 20000, True)
    assert rep["frame"]["lower"] == pytest.approx(20000.0**-2, rel=1e-15)
    assert rep["frame"]["upper"] == rep["nba_sup"] == 1.0
    tracemalloc.start()
    try:
        code = cli.main(["classify", "--input", far, "--dim", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert (rep["dim"], rep["complete"], rep["frame"]["lower"]) == (10**9, False, 0.0)
    assert rep["frame"]["upper"] == 20000.0
    assert peak < 8 * 2**20  # nothing is sized by the basis index 10**9


def test_term_budget_exits_2(tmp_path, capsys):
    scaled = write_spec(tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "index"}})
    wide = write_spec(
        tmp_path,
        "wide.json",
        {"kind": "pattern", "head": [{"index": 1}, {"index": 10**7 + 1}], "tail": []},
    )
    for argv, message in (
        (["classify", "--input", scaled, "--dim", "10000001"], f"{scaled}: term count 10000001"),
        (["example", "--id", "ex-identity", "--dim", "10000001"], "error: term count 10000001"),
        (["classify", "--input", wide, "--dim", "2"], f"{wide}: index span 10000001"),
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{message} exceeds the term budget MAX_SWEEP_TRUNCATION = 10000000" in err


def test_entry_magnitude_bound_exits_2(tmp_path, capsys):
    huge = write_spec(
        tmp_path,
        "huge.json",
        {"kind": "scaled_basis", "weight": {"rule": "constant", "value": [1e200, 0]}},
    )
    assert cli.main(["classify", "--input", huge, "--dim", "3"]) == 2
    assert f"{huge}: matrix entries must be at most MAX_ENTRY = 1e+64" in capsys.readouterr().err
    ortho = write_spec(
        tmp_path, "ortho.json", {"kind": "explicit", "columns": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    )
    edge = write_spec(
        tmp_path,
        "edge.json",
        {"kind": "explicit", "columns": [[[1e308, 0], [0, 0]], [[0, 0], [0, 1e308]]]},
    )
    for command in ("cross-gram", "dual-check"):
        assert cli.main([command, "--f", ortho, "--g", edge, "--dim", "2"]) == 2
        assert f"{edge}: matrix entries must be at most MAX_ENTRY" in capsys.readouterr().err


def test_probe_budget_exits_2_before_allocating(tmp_path, capsys):
    f = write_spec(tmp_path, "f.json", {"kind": "paper_example", "example": "ex-canonical", "role": "f"})
    g = write_spec(tmp_path, "g.json", {"kind": "paper_example", "example": "ex-canonical", "role": "g"})
    argv = ["dual-check", "--f", f, "--g", g, "--dim", "3", "--probes", "1000000000"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "1000000000 probes in dimension 2 exceed the budget" in err
    assert "MAX_DENSE_ENTRIES = 16777216" in err
    assert peak < 2**20  # the 29.8 GiB probe block is never drawn


def test_derived_products_are_budgeted_before_allocating(tmp_path, capsys):
    # each side is a 2 x 4097 or 4097 x 2 matrix, far inside the budget, and
    # the two sides of a pair sit on different index arrays, so the square-only
    # fields take the dense route; the cross-Gram (g.count x f.count) and the dual-pair
    # residuals (dim x dim) would each hold 4097**2 > MAX_DENSE_ENTRIES entries
    def pattern(name, head, tail):
        return write_spec(tmp_path, name, {"kind": "pattern", "head": head, "tail": tail})

    zigzag = pattern("zigzag.json", [], [{"start_index": 1}, {"start_index": 2}])
    zagzig = pattern("zagzig.json", [], [{"start_index": 2}, {"start_index": 1}])
    far = pattern("far.json", [{"index": 4097}, {"index": 1}], [])
    near = pattern("near.json", [{"index": 1}, {"index": 4097}], [])
    for argv, message in (
        (["cross-gram", "--f", zigzag, "--g", zagzig, "--dim", "4097"], "4097 x 4097 cross-Gram"),
        (["dual-check", "--f", far, "--g", near, "--dim", "2"], "4097 x 4097 dual-pair residual"),
    ):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"{message} exceeds the budget MAX_DENSE_ENTRIES = 16777216" in err
        assert peak < 2**20


def test_square_pair_on_different_index_arrays_past_the_dense_budget_exits_2(tmp_path, capsys):
    # both sides of ex-hs at 5000 terms sit in dim 5000 on different index
    # arrays; the block route reads the spectrum, but the square-only fields
    # and the duality residuals need 5000 x 5000 realizations
    f = write_spec(tmp_path, "f.json", {"kind": "paper_example", "example": "ex-hs", "role": "f"})
    g = write_spec(tmp_path, "g.json", {"kind": "paper_example", "example": "ex-hs", "role": "g"})
    for command in ("cross-gram", "dual-check"):
        tracemalloc.start()
        try:
            code = cli.main([command, "--f", f, "--g", g, "--dim", "5000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert "5000 x 5000 realization exceeds the budget MAX_DENSE_ENTRIES = 16777216" in err
        assert peak < 2**20


def test_cross_gram_of_in_bound_sides_is_accepted(tmp_path, capsys):
    # entries of 1e40 are within MAX_ENTRY; the cross-Gram's 1e80 is within
    # its own bound, on the block route (scaled_basis) and the dense one
    big = write_spec(
        tmp_path, "big.json", {"kind": "scaled_basis", "weight": {"rule": "constant", "value": [1e40, 0]}}
    )
    col = [[1e40, 0], [0, 0], [0, 0]]
    big_explicit = write_spec(
        tmp_path, "big_explicit.json", {"kind": "explicit", "columns": [col, col[1:] + col[:1], col[2:] + col[:2]]}
    )
    for path in (big, big_explicit):
        assert cli.main(["cross-gram", "--f", path, "--g", path, "--dim", "3"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["op_norm"] == pytest.approx(1e80, rel=1e-15)
        assert rep["invertible"] is True and rep["psd"] is True


def test_block_route_takes_the_products_the_dense_route_refuses(tmp_path, capsys):
    # one index array on both sides: G is the 4097 x 4097 all-ones matrix,
    # and T_f T_g* - I is -1 off the one basis index 4097
    line = write_spec(
        tmp_path, "line.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 1}]}
    )
    far = write_spec(
        tmp_path, "far.json", {"kind": "pattern", "head": [{"index": 4097}], "tail": []}
    )
    assert cli.main(["cross-gram", "--f", line, "--g", line, "--dim", "4097"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert (rep["rows"], rep["cols"], rep["op_norm"], rep["sigma_min"]) == (4097, 4097, 4097.0, 0.0)
    assert rep["psd"] is True and rep["hermitian_defect"] == 0.0
    assert rep["identity_distance"] == 4096.0
    assert rep["idempotency_defect"] == 4096.0 * 4097.0
    assert cli.main(["dual-check", "--f", far, "--g", far, "--dim", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["pairing_residual_3"] == 1.0 and rep["is_dual_pair"] is False
    assert rep["reconstruction_residual_1"] == rep["reconstruction_residual_2"] == 1.0


def test_realize_errors_name_the_spec_file(tmp_path, capsys):
    f = write_spec(tmp_path, "f.json", {"kind": "scaled_basis", "weight": {"rule": "constant"}})
    # decodes, but its second term lands on basis index 2**63, past int64
    g = write_spec(
        tmp_path,
        "g.json",
        {"kind": "pattern", "head": [], "tail": [{"start_index": 2**62, "index_step": 2**62}]},
    )
    for argv in (
        ["cross-gram", "--f", f, "--g", g, "--dim", "2"],
        ["dual-check", "--f", f, "--g", g, "--dim", "2"],
        ["classify", "--input", g, "--dim", "2"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"crossgram: error: {g}: tail slot 0 reaches basis index"), err
        assert f not in err


# sha256 of the envelopes of the three explicit-spec commands on a seeded
# 12 x 18 frame f and its canonical dual, recorded before explicit columns
# were decoded as one array
EXPLICIT_DIGESTS = {
    "classify": "0759ae9bfd771e59c7bd432bea3cc1e54987467f9da63ec3097a2c661a50462b",
    "cross-gram": "f28e045e7df55c2451dd347ca66ae86c29e2dc73120eef410894d28fcc55a0e2",
    "dual-check": "a5609219cb1ed770b9a2d6af90f09cf65657b58017527cb258d9b880bf411b9b",
}


def test_explicit_spec_envelope_bytes_are_unchanged(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(12)
    f = (rng.standard_normal((12, 18)) + 1j * rng.standard_normal((12, 18))) / np.sqrt(2.0)
    dual = np.linalg.solve(f @ f.conj().T, f)  # canonical dual S^-1 f
    monkeypatch.chdir(tmp_path)  # relative paths keep the echoed config fixed
    for name, t in (("f.json", f), ("dual.json", dual)):
        columns = [[[float(z.real), float(z.imag)] for z in col] for col in t.T]
        with open(name, "w", encoding="utf-8") as fh:
            json.dump({"kind": "explicit", "columns": columns}, fh)
    for argv in (
        ["classify", "--input", "f.json", "--dim", "18"],
        ["cross-gram", "--f", "f.json", "--g", "dual.json", "--dim", "18"],
        ["dual-check", "--f", "f.json", "--g", "dual.json", "--dim", "18"],
    ):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == EXPLICIT_DIGESTS[argv[0]]


# sha256 of the example envelopes, recorded before the example command took
# its duality report from monomial_duality instead of monomial_reports
EXAMPLE_DIGESTS = {
    ("ex-identity", 64): "3006a1bafc14660c4c5e568cdaa691c3adea852b2bba0f44355fc3f1cb11ea5d",
    ("ex-identity", 256): "e01c0fcde299595f5abb2d7eba5c44581e9e93b8d7e7d35ead12da83157e3961",
    ("ex-hs", 64): "f1bc722b3dffd4e948a500d93afb436def8e92124730f6dad66dd9a1f5b54768",
    ("ex-hs", 256): "62253f3cc7b1dfc50481a5e96f47c981ce8e667c630b87c85722ae395b8acfc6",
    ("ex-blocked", 64): "f031eecd9a45d89c1434629628032fa8ce50760d23fd97f5b037abe37d966386",
    ("ex-blocked", 256): "9f735b336f2c52e218ec8960ae7c1a49fee04bacb42d05b98ba0a1e6cd6aa5ea",
    ("ex-norm89", 64): "e8157f27069bb7e0febdbb547874066113044a99ab34a47ec8c90d54b7d6cf8f",
    ("ex-norm89", 256): "29281caadf27e3592aab8548dcbcf33815490640fb36ccf01584c8f42ccd2195",
    ("ex-canonical", 64): "dfde6e5b743463e566b8319a59437c45591ca5e6337aa5f878ebee70c251e5e3",
    ("ex-canonical", 256): "e3c346b39dd9264477d175bf278a54999bf0b21687e6e73f62dc2dacbe054574",
}


@pytest.mark.parametrize("example_id, dim", sorted(EXAMPLE_DIGESTS))
def test_example_envelope_bytes_are_unchanged(example_id, dim, capsys):
    assert cli.main(["example", "--id", example_id, "--dim", str(dim)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == EXAMPLE_DIGESTS[example_id, dim]


def _booleans(value):
    if isinstance(value, dict):
        return {k: b for k, v in value.items() if (b := _booleans(v)) is not None}
    return value if isinstance(value, bool) else None


def test_tiny_coefficients_read_the_same_verdicts_on_both_routes(tmp_path, capsys):
    # |1e-200|^2 underflows; the dense route's SVD sees a full-rank diagonal
    tiny, zero = [1e-200, 0.0], [0.0, 0.0]
    weight = {"rule": "constant", "value": tiny}
    block = write_spec(tmp_path, "block.json", {"kind": "scaled_basis", "weight": weight})
    diagonal = [[tiny if i == j else zero for i in range(3)] for j in range(3)]
    dense = write_spec(tmp_path, "dense.json", {"kind": "explicit", "columns": diagonal})
    reports = {}
    for path in (block, dense):
        for argv in (
            ["classify", "--input", path],
            ["cross-gram", "--f", path, "--g", path],
            ["dual-check", "--f", path, "--g", path],
        ):
            assert cli.main([*argv, "--dim", "3"]) == 0
            reports[path, argv[0]] = _booleans(json.loads(capsys.readouterr().out)["report"])
    assert reports[block, "classify"]["complete"] is True
    for command in ("classify", "cross-gram", "dual-check"):
        assert reports[block, command] == reports[dense, command], command


# values at the edges of what a spec file can hold: zero, subnormals, the
# largest doubles, NaN (which Python's json reads and writes), integers past
# the float range, and basis indices and index steps near 2**63
_EXTREME = [
    0.0, -0.0, 1.0, 1e-320, -1e-320, 1e64, 1e308, -1e308, float("nan"), 10**400, -(10**400),
]
_INDICES = [1, 1, 2, 3, 2**62, 2**63 - 1, 2**63]


def _complex_json():
    return st.lists(st.sampled_from(_EXTREME), min_size=2, max_size=2)


def _spec_json():
    weight = st.fixed_dictionaries(
        {"rule": st.sampled_from(["inverse_index", "index", "constant", "geometric", "table"])},
        optional={
            "value": _complex_json(),
            "ratio": _complex_json(),
            "values": st.lists(_complex_json(), min_size=1, max_size=4),
        },
    )
    term = st.fixed_dictionaries(
        {"index": st.sampled_from(_INDICES)}, optional={"coeff": _complex_json()}
    )
    slot = st.fixed_dictionaries(
        {"start_index": st.sampled_from(_INDICES)},
        optional={
            "index_step": st.sampled_from([0, 1, 2**62, 2**63 - 1]),
            "coeff": _complex_json(),
            "coeff_rule": st.sampled_from(["constant", "geometric", "inverse_term"]),
            "ratio": _complex_json(),
        },
    )
    column = st.lists(_complex_json(), min_size=1, max_size=3)
    sizes = st.sampled_from([0, 1, 2, 3, 6, 2**63])
    return st.one_of(
        st.builds(lambda c: {"kind": "scaled_basis", "weight": c}, weight),
        st.builds(
            lambda h, t: {"kind": "pattern", "head": h, "tail": t},
            st.lists(term, max_size=3),
            st.lists(slot, max_size=2),
        ),
        st.integers(1, 3).flatmap(
            lambda w: st.builds(
                lambda cols: {"kind": "explicit", "columns": cols},
                st.lists(st.lists(_complex_json(), min_size=w, max_size=w), min_size=1, max_size=6),
            )
        ),
        st.builds(
            lambda e, r: {"kind": "paper_example", "example": e, "role": r},
            st.sampled_from(["ex-identity", "ex-hs", "ex-blocked", "ex-norm89", "ex-canonical"]),
            st.sampled_from(["f", "g"]),
        ),
        st.builds(
            lambda d, s: {"kind": "random_riesz", "d": d, "seed": s},
            sizes,
            st.sampled_from([0, 2**63]),
        ),
        st.builds(
            lambda d, n, s: {"kind": "random_frame", "d": d, "n": n, "seed": s},
            sizes,
            sizes,
            st.sampled_from([0, 2**63]),
        ),
    )


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("extreme")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=_spec_json(), g=_spec_json(), n=st.integers(1, 6))
def test_extreme_specs_end_in_an_envelope_or_exit_2(spec_dir, report_schema, f, g, n):
    validator = jsonschema.Draft202012Validator(report_schema)
    paths = []
    for name, payload in (("f.json", f), ("g.json", g)):
        path = spec_dir / name
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    fp, gp = paths
    for argv in (
        ["classify", "--input", fp, "--dim", str(n)],
        ["cross-gram", "--f", fp, "--g", gp, "--dim", str(n)],
        ["dual-check", "--f", fp, "--g", gp, "--dim", str(n), "--probes", "3"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 2), argv
        if code == 0:
            validator.validate(json.loads(out.getvalue()))


# flag values at the edges: zero, negatives, 2**63 and just past each budget;
# no in-budget value at a budget's edge, which would run for minutes
_EDGE_INTS = [0, -1, 1, 2, 10, 2**63, -(2**63)]
_PAST_DENSE = math.isqrt(sequences.MAX_DENSE_ENTRIES) + 1  # a square past MAX_DENSE_ENTRIES
_PAST_TERMS = sequences.MAX_SWEEP_TRUNCATION + 1
_PAST_WORK = diagnostics.MAX_BATTERY_WORK // 8**3 + 1  # trials past MAX_BATTERY_WORK at dim 8


def _flags_argv():
    ids = st.sampled_from(["ex-identity", "ex-hs", "ex-blocked", "ex-norm89", "ex-canonical"])
    sizes = st.sampled_from([*_EDGE_INTS, _PAST_DENSE, _PAST_TERMS])
    dims = st.sampled_from([0, -1, 1, 2, 3, 8, 216, 2**63])  # 216**3 > MAX_BATTERY_WORK
    return st.one_of(
        st.builds(lambda i, n: ["example", "--id", i, "--dim", str(n)], ids, sizes),
        st.builds(
            lambda i, ns: ["sweep", "--id", i, "--dims", ",".join(map(str, ns))],
            ids,
            st.lists(sizes, max_size=3),
        ),
        st.builds(
            lambda t, lo, hi, s: [
                "battery", "--trials", str(t), "--dims", f"{lo}..{hi}", "--seed", str(s)
            ],
            st.sampled_from([0, -1, 1, 2**63, _PAST_WORK]),
            dims,
            dims,
            st.sampled_from([0, -1, 7, 2**63]),
        ),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_flags_argv())
def test_extreme_flags_end_in_an_envelope_or_exit_2(report_schema, argv):
    validator = jsonschema.Draft202012Validator(report_schema)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2), argv
    if code == 0:
        validator.validate(json.loads(out.getvalue()))


# ----------------------------------------------------------------- battery


def test_battery_command_passes_and_is_deterministic(report_schema):
    args = ["battery", "--seed", "5", "--trials", "10", "--dims", "2..5"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    env = check_envelope(first.stdout, report_schema)
    assert env["report"]["all_passed"] is True
    assert len(env["report"]["checks"]) == 8
    assert len(env["report"]["controls"]) == 2
    assert env["config"] == {
        "dim_high": 5, "dim_low": 2, "seed": 5, "tol": 1e-10, "trials": 10,
    }


# sha256 of battery envelopes, recorded before the checks moved from
# RealizedSequence objects to plain arrays; 30..40 rejects and redraws
# about 40 screened draws, so the resampling path is covered too
BATTERY_DIGESTS = {
    ("--seed", "42", "--trials", "200"):
        "2b674e259e0c5b339b8db164cf2dc52c5ecd7be6055698e78dc9806789772efd",
    ("--seed", "7", "--trials", "25", "--dims", "2..6"):
        "d302f2fe6c578c12b2de56e0a33ee571f429949acaf21986250341f104142868",
    ("--seed", "9", "--trials", "5", "--dims", "30..40"):
        "51e25ea78b3fdc73c49bd1aa57c64f2fb9cef961dfa1bd751edebdb742ed8ce9",
}


@pytest.mark.parametrize("args", sorted(BATTERY_DIGESTS))
def test_battery_envelope_bytes_are_unchanged(args, capsys):
    assert cli.main(["battery", *args]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == BATTERY_DIGESTS[args]


def test_battery_failure_exits_3(monkeypatch, capsys):
    import dataclasses

    from crossgram import diagnostics as diag

    real = diag.theorem_battery(seed=1, trials=2, dims=(2, 3))
    broken = dataclasses.replace(real, all_passed=False)
    monkeypatch.setattr(cli.diagnostics, "theorem_battery", lambda **kw: broken)
    code = cli.main(["battery", "--seed", "1", "--trials", "2", "--dims", "2..3"])
    assert code == 3
    out = capsys.readouterr().out
    assert json.loads(out)["report"]["all_passed"] is False


def test_battery_trivial_configuration(report_schema):
    res = run_cli(["battery", "--seed", "3", "--trials", "1", "--dims", "1..1"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["all_passed"] is True
    assert env["report"]["trials"] == 1
    assert all(c["trials"] == 1 for c in env["report"]["checks"])


def test_battery_work_budget_exits_2():
    for args in (["--trials", "1000000000"], ["--trials", "1", "--dims", "3000..3000"]):
        res = run_cli(["battery", "--seed", "1", *args])
        assert res.returncode == 2
        assert "exceeds the budget MAX_BATTERY_WORK = 10000000" in res.stderr
        assert res.stdout == ""


def test_battery_dims_past_the_condition_screen_exit_2_at_once(capsys):
    # no square draw of these dims meets MAX_CONDITION within the screening
    # attempts, so the battery refuses them before its first draw
    for dims in ("100..100", "215..215"):
        start = time.perf_counter()
        code = cli.main(["battery", "--seed", "1", "--trials", "1", "--dims", dims])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        out, err = capsys.readouterr()
        assert f"dims {dims} reach past MAX_BATTERY_DIM = 64" in err
        assert out == ""
    assert cli.main(["battery", "--seed", "1", "--trials", "3", "--dims", "64..64"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["all_passed"] is True


def test_battery_rejects_malformed_dims():
    res = run_cli(["battery", "--seed", "1", "--trials", "2", "--dims", "2-8"])
    assert res.returncode == 2
    assert "dims" in res.stderr


def test_battery_has_no_jobs_flag():
    res = run_cli(["battery", "--seed", "1", "--trials", "2", "--jobs", "4"])
    assert res.returncode == 2
    assert "unrecognized arguments: --jobs 4" in res.stderr
    assert res.stdout == ""


# ----------------------------------------------------------------- plumbing


def test_out_flag_writes_atomically(tmp_path, report_schema):
    out = tmp_path / "report.json"
    res = run_cli(["example", "--id", "ex-canonical", "--dim", "8", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    env = check_envelope(out.read_text(), report_schema)
    assert env["command"] == "example"
    assert not list(tmp_path.glob("*.tmp*"))


def test_env_var_sets_default_tolerance(tmp_path):
    path = write_spec(
        tmp_path, "f.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}}
    )
    res = run_cli(
        ["classify", "--input", path, "--dim", "4"],
        env_extra={"CROSSGRAM_TOL": "1e-6"},
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["config"]["tol"] == 1e-6
    # explicit flag wins over the environment
    res = run_cli(
        ["classify", "--input", path, "--dim", "4", "--tol", "1e-8"],
        env_extra={"CROSSGRAM_TOL": "1e-6"},
    )
    assert json.loads(res.stdout)["config"]["tol"] == 1e-8


def test_env_var_rejects_garbage(tmp_path):
    path = write_spec(
        tmp_path, "f.json", {"kind": "scaled_basis", "weight": {"rule": "index"}}
    )
    res = run_cli(
        ["classify", "--input", path, "--dim", "4"],
        env_extra={"CROSSGRAM_TOL": "not-a-number"},
    )
    assert res.returncode == 2
    assert "CROSSGRAM_TOL" in res.stderr


def test_tolerance_range_validated(tmp_path):
    path = write_spec(
        tmp_path, "f.json", {"kind": "scaled_basis", "weight": {"rule": "index"}}
    )
    res = run_cli(["classify", "--input", path, "--dim", "4", "--tol", "2.0"])
    assert res.returncode == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "2", "tolerance must lie in (0, 1), got 2.0"),
        ("--dim", "0", "dim must be a positive integer, got 0"),
        ("--probes", "-1", "probes must be non-negative, got -1"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ],
)
def test_out_of_range_flags_exit_2_before_reading_a_spec(tmp_path, capsys, flag, value, message):
    missing = str(tmp_path / "missing.json")
    argv = ["dual-check", "--f", missing, "--g", missing, "--dim", "4", flag, value]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"crossgram: error: {message}\n")


def test_readme_names_only_flags_the_cli_accepts():
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    # --no-build-isolation is a pip flag in the install notes
    assert named - accepted - {"--no-build-isolation"} == set()


def test_text_format(tmp_path):
    res = run_cli(["example", "--id", "ex-identity", "--dim", "8", "--format", "text"])
    assert res.returncode == 0
    assert "command = example" in res.stdout
    assert "report.cross_gram.op_norm" in res.stdout


def test_unknown_command_exits_2():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2
