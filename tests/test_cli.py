"""End-to-end checks for the command line interface.

Every command emits one JSON envelope (tool, command, config echo, report)
that validates against the shipped schema; exit codes are 0 for success,
2 for validation problems, 3 when the battery finds a failing check.
Reports must be byte-identical for identical (config, seed), including
across serial and threaded battery execution.
"""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from crossgram import cli, serialize
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
    ],
    ids=["object", "array", "integer", "string", "number", "re-im"],
)
def test_spec_type_failures_name_their_field(payload, field, expected):
    with pytest.raises(SpecFileError, match=expected) as exc:
        serialize.spec_from_json(payload, source="<spec>")
    assert exc.value.field == field
    assert str(exc.value).startswith(f"<spec>: {field}: ")


def test_load_sequence_file_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "explicit",\n  "columns": }')
    with pytest.raises(SpecFileError, match="line 2"):
        serialize.load_sequence_file(str(path))


def test_random_kinds_accept_short_and_long_size_keys():
    short = serialize.spec_from_json(
        {"kind": "random_frame", "d": 3, "n": 6, "seed": 9}, source="<short>"
    )
    long_ = serialize.spec_from_json(
        {"kind": "random_frame", "dim": 3, "count": 6, "seed": 9}, source="<long>"
    )
    assert short == long_
    assert serialize.spec_to_json(short) == {"kind": "random_frame", "d": 3, "n": 6, "seed": 9}
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


def test_spec_json_round_trip():
    schema = json.loads(
        resources.files("crossgram").joinpath("schemas/sequence.schema.json").read_text()
    )
    for payload in (
        {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}},
        {"kind": "scaled_basis", "weight": {"rule": "geometric", "ratio": [0.5, 0.0]}},
        {
            "kind": "pattern",
            "head": [{"index": 1, "coeff": [0.5, 0.0]}],
            "tail": [{"start_index": 1, "index_step": 0, "coeff_rule": "inverse_term"}],
        },
        {"kind": "paper_example", "example": "ex-hs", "role": "g"},
        {"kind": "random_riesz", "dim": 4, "seed": 42},
        {"kind": "random_frame", "dim": 3, "count": 6, "seed": 9},
        {"kind": "explicit", "columns": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
    ):
        jsonschema.validate(payload, schema)
        spec = serialize.spec_from_json(payload, source="<memory>")
        emitted = serialize.spec_to_json(spec)
        jsonschema.validate(emitted, schema)
        assert serialize.spec_from_json(emitted, source="<round>") == spec


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
    scaled = write_spec(
        tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}}
    )
    far = write_spec(
        tmp_path, "far.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 10**9}]}
    )
    for path in (scaled, far):
        res = run_cli(["classify", "--input", path, "--dim", "20000"])
        assert res.returncode == 2, res.stderr
        assert "budget MAX_DENSE_ENTRIES = 16777216" in res.stderr
        assert "Traceback" not in res.stderr


# ----------------------------------------------------------------- battery


def test_battery_command_passes_and_is_deterministic(report_schema):
    args = ["battery", "--seed", "5", "--trials", "10", "--dims", "2..5"]
    first = run_cli(args)
    second = run_cli(args)
    threaded = run_cli(args + ["--jobs", "4"])
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == threaded.stdout
    env = check_envelope(first.stdout, report_schema)
    assert env["report"]["all_passed"] is True
    assert len(env["report"]["checks"]) == 8
    assert len(env["report"]["controls"]) == 2
    assert env["config"] == {
        "dim_high": 5, "dim_low": 2, "seed": 5, "tol": 1e-10, "trials": 10,
    }


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


def test_battery_rejects_malformed_dims():
    res = run_cli(["battery", "--seed", "1", "--trials", "2", "--dims", "2-8"])
    assert res.returncode == 2
    assert "dims" in res.stderr


def test_battery_rejects_zero_jobs():
    res = run_cli(["battery", "--seed", "1", "--trials", "2", "--jobs", "0"])
    assert res.returncode == 2
    assert "jobs" in res.stderr
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


def test_text_format(tmp_path):
    res = run_cli(["example", "--id", "ex-identity", "--dim", "8", "--format", "text"])
    assert res.returncode == 0
    assert "command = example" in res.stdout
    assert "report.cross_gram.op_norm" in res.stdout


def test_unknown_command_exits_2():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2
