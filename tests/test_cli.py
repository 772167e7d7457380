"""End-to-end checks for the command line interface.

Every command emits one JSON envelope (tool, command, config echo, report)
that validates against the shipped schema; exit codes are 0 for success,
2 for validation problems, 3 when the battery finds a failing check.
Reports must be byte-identical for identical (config, seed).
"""

import argparse
import contextlib
import gc
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

from crossgram import cli, diagnostics, operators, sequences, serialize
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
        # a key outside its object's layout, at every depth
        (
            {"kind": "scaled_basis", "weight": {"rule": "constant", "valeu": [2, 0]}},
            "weight",
            r"unexpected keys for weight: \['valeu'\]$",
        ),
        (
            {"kind": "pattern", "head": [{"index": 1, "cof": [2, 0]}], "tail": []},
            "head[0]",
            r"unexpected keys for head term: \['cof'\]$",
        ),
        (
            {
                "kind": "pattern",
                "head": [],
                "tail": [{"start_index": 1}, {"start_index": 2, "index_stp": 1}],
            },
            "tail[1]",
            r"unexpected keys for tail slot: \['index_stp'\]$",
        ),
        # a key that the object's rule never reads, which would change nothing
        (
            {"kind": "scaled_basis", "weight": {"rule": "index", "ratio": [2, 0], "values": [[5, 0]]}},
            "weight",
            r"unexpected keys for rule 'index': \['ratio', 'values'\]$",
        ),
        (
            {"kind": "scaled_basis", "weight": {"rule": "inverse_index", "value": [2, 0]}},
            "weight",
            r"unexpected keys for rule 'inverse_index': \['value'\]$",
        ),
        (
            {"kind": "scaled_basis", "weight": {"rule": "geometric", "values": [[1, 0]]}},
            "weight",
            r"unexpected keys for rule 'geometric': \['values'\]$",
        ),
        (
            {"kind": "pattern", "head": [], "tail": [
                {"start_index": 1, "coeff_rule": "inverse_term", "ratio": [0.5, 0]}]},
            "tail[0]",
            r"unexpected keys for coeff_rule 'inverse_term': \['ratio'\]$",
        ),
        (
            {"kind": "pattern", "head": [], "tail": [
                {"start_index": 1, "coeff_rule": "geometric", "ratio": [0.5, 0]},
                {"start_index": 2, "ratio": [0.5, 0]}]},
            "tail[1]",
            r"unexpected keys for coeff_rule 'constant': \['ratio'\]$",
        ),
    ],
    ids=["object", "array", "integer", "string", "number", "re-im", "overflow"]
    + ["weight-key", "head-key", "tail-key"]
    + ["index-rule", "inverse-index-rule", "geometric-rule", "inverse-term-rule", "default-rule"],
)
def test_spec_type_failures_name_their_field(payload, field, expected):
    with pytest.raises(SpecFileError, match=expected) as exc:
        serialize.spec_from_json(payload, source="<spec>")
    assert exc.value.field == field
    assert str(exc.value).startswith(f"<spec>: {field}: ")


def test_a_misspelled_tail_slot_key_exits_2_naming_its_slot(tmp_path, capsys):
    # read as the default step 0, "index_stp" would describe another sequence
    path = write_spec(
        tmp_path,
        "typo.json",
        {"kind": "pattern", "head": [], "tail": [{"start_index": 1, "index_stp": 1}]},
    )
    assert cli.main(["classify", "--input", path, "--dim", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"crossgram: error: {path}: tail[0]: unexpected keys for tail slot: ['index_stp']"
    ]


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


def test_spec_files_nested_past_the_parser_depth_name_their_file(tmp_path, capsys):
    # json.loads raises RecursionError near 1000 levels of nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert cli.main(["classify", "--input", str(path), "--dim", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"crossgram: error: {path}: invalid JSON: nested too deeply\n"


def test_spec_file_text_is_freed_before_the_tree_is_decoded(tmp_path):
    # reading and parsing set the floor; with the text still held while the
    # tree was decoded, a ~1 MB explicit spec peaked at ~1.17x that floor
    rng = np.random.default_rng(5)
    t = rng.standard_normal((128, 192)) + 1j * rng.standard_normal((128, 192))
    columns = [[[float(z.real), float(z.imag)] for z in col] for col in t.T]
    path = write_spec(tmp_path, "f.json", {"kind": "explicit", "columns": columns})
    serialize.load_sequence_file(path)  # lazy imports stay out of the peak

    def peak(load):
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    floor = peak(lambda: json.loads(Path(path).read_text(encoding="utf-8")))
    assert floor > 2**20
    assert peak(lambda: serialize.load_sequence_file(path)) <= 1.05 * floor


@pytest.mark.parametrize("enabled", [True, False])
def test_load_sequence_file_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # decoding pauses the cyclic collector; a caller that had disabled it
    # finds it disabled, on success and on every error path
    good = write_spec(tmp_path, "good.json", {"kind": "random_frame", "d": 2, "n": 3, "seed": 1})
    bad_field = write_spec(tmp_path, "field.json", {"kind": "random_frame", "d": 2.5, "n": 3, "seed": 1})
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "broken.json").write_text('{"kind": ')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    failing = [str(tmp_path / name) for name in ("missing.json", "utf16.json", "broken.json", "deep.json")]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        serialize.load_sequence_file(good)
        assert gc.isenabled() is enabled
        for path in [*failing, bad_field]:
            with pytest.raises(SpecFileError):
                serialize.load_sequence_file(path)
            assert gc.isenabled() is enabled, path
    finally:
        (gc.enable if was else gc.disable)()


def test_explicit_decode_runs_at_most_one_young_collection(tmp_path):
    # the ~25,000 lists of a 128 x 192 explicit spec set off ~35 collections,
    # none of which finds a cycle, when the collector runs through the decode
    rng = np.random.default_rng(5)
    t = rng.standard_normal((128, 192)) + 1j * rng.standard_normal((128, 192))
    columns = [[[float(z.real), float(z.imag)] for z in col] for col in t.T]
    path = write_spec(tmp_path, "f.json", {"kind": "explicit", "columns": columns})
    del columns
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        spec = serialize.load_sequence_file(path)
    finally:
        gc.callbacks.remove(count)
    assert runs in ([], [0])
    np.testing.assert_array_equal(spec.columns, t.T)


def _dense_explicit_spec(tmp_path):
    """A 128 x 192 explicit spec file (~1 MB) and its columns as an array."""
    rng = np.random.default_rng(5)
    t = rng.standard_normal((128, 192)) + 1j * rng.standard_normal((128, 192))
    columns = [[[float(z.real), float(z.imag)] for z in col] for col in t.T]
    return write_spec(tmp_path, "f.json", {"kind": "explicit", "columns": columns}), t.T


def test_streamed_spec_file_peaks_at_its_blocks_and_their_join(tmp_path):
    # read from disk a piece at a time, the decode holds the matrix's blocks,
    # ~16 columns' lists and a few reads of text, and at its end the blocks
    # and their join, which the spec takes without a copy: ~2.4 matrices,
    # while the whole text (~2.7 matrices here) was once held with its bytes
    path, want = _dense_explicit_spec(tmp_path)
    serialize.load_sequence_file(path)  # lazy imports stay out of the peak
    tracemalloc.start()
    try:
        spec = serialize.load_sequence_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 128 * 192
    np.testing.assert_array_equal(spec.columns, want)


def test_decoded_explicit_arrays_are_not_copied_again(tmp_path, monkeypatch):
    # the stream's array and the fast path's become the spec's columns as they
    # are; an array a library caller passes is copied, so the caller cannot
    # change the spec through it
    made = []

    def keep(make):
        return lambda *args: made.append(make(*args)) or made[-1]

    monkeypatch.setattr(serialize, "_stream_explicit", keep(serialize._stream_explicit))
    monkeypatch.setattr(serialize, "_as_array", keep(serialize._as_array))
    path, want = _dense_explicit_spec(tmp_path)
    streamed = serialize.load_sequence_file(path)
    assert np.shares_memory(streamed.columns, made[-1])
    parsed = serialize.spec_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    assert np.shares_memory(parsed.columns, made[-1])
    mine = want.copy()
    spec = SequenceSpec.explicit(mine)
    assert not np.shares_memory(spec.columns, mine)
    assert mine.flags.writeable and not spec.columns.flags.writeable
    for got in (streamed, parsed, spec):
        np.testing.assert_array_equal(got.columns, want)
        assert type(got.columns) is np.ndarray and not got.columns.flags.writeable


def test_explicit_specs_realize_without_a_copy(tmp_path, json_loads_calls):
    # every explicit spec holds its (count, dim) columns in F order, so realize
    # takes their C-contiguous transpose as the matrix: a spec made from lists
    # or an array, spec_from_json's, a file the stream declines ("kind" twice)
    # and a streamed file; a caller's array is still copied and left writable
    cols = [[[1.0, 2.0], [3, 4], [-0.0, 5e-324]], [[0, 1], [2, 3], [4, 5]]]
    want = np.array([[complex(re, im) for re, im in col] for col in cols])
    mine = want.copy()
    declined = tmp_path / "declined.json"
    declined.write_text('{"kind": "explicit", "kind": "explicit", "columns": %s}' % json.dumps(cols))
    streamed = write_spec(tmp_path, "streamed.json", {"kind": "explicit", "columns": cols})
    specs = {
        "lists": SequenceSpec.explicit(want.tolist()),
        "array": SequenceSpec.explicit(mine),
        "spec_from_json": serialize.spec_from_json({"kind": "explicit", "columns": cols}),
        "declined": serialize.load_sequence_file(str(declined)),
        "streamed": serialize.load_sequence_file(streamed),
    }
    assert len(json_loads_calls) == 1  # the declined file alone
    for name, spec in specs.items():
        seq = sequences.realize(spec, len(cols))
        assert np.shares_memory(seq.columns, spec.columns), name
        assert not spec.columns.flags.writeable, name
        np.testing.assert_array_equal(seq.columns, want.T)
    assert not np.shares_memory(specs["array"].columns, mine) and mine.flags.writeable


def test_dense_commands_free_each_matrix_once_read(tmp_path, capsys):
    # an explicit classify holds the matrix's blocks and their join, not the
    # file's text; a cross-gram of two random frames holds f, conj(g) and
    # G = T_g* T_f at most: reports loads both sides and holds the only
    # references, so each is dropped once its product is formed
    import numpy.random  # noqa: F401 - its lazy import stays out of the peaks

    d, n = 128, 192
    path, _ = _dense_explicit_spec(tmp_path)
    frames = [
        write_spec(tmp_path, f"frame{seed}.json", {"kind": "random_frame", "d": d, "n": n, "seed": seed})
        for seed in (1, 2)
    ]
    for argv, bound in (
        (["classify", "--input", path, "--dim", str(n)], 3 * d * n * 16),
        (["cross-gram", "--f", frames[0], "--g", frames[1], "--dim", str(n)],
         1.1 * (2 * d * n + n * n) * 16),
    ):
        assert cli.main(argv) == 0  # lazy imports stay out of the peak
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= bound, (argv[0], peak)


def test_explicit_specs_are_held_to_the_dense_budget(tmp_path, monkeypatch, capsys, json_loads_calls):
    # realize refuses an explicit spec past MAX_DENSE_ENTRIES as it does a
    # scaled_basis one, and the CLI exits 2 on either: an explicit spec file
    # streamed at the first batch of columns past the budget, so it is never
    # read whole, one the stream declines when it is realized
    monkeypatch.setattr(sequences, "MAX_DENSE_ENTRIES", 100)
    column = [[1.0, 0.0]] * 20
    message = "a dense 20 x 20 realization exceeds the budget MAX_DENSE_ENTRIES = 100 entries"
    for spec in (SequenceSpec.explicit(np.ones((20, 20))), SequenceSpec.scaled_basis(WeightRule.constant())):
        with pytest.raises(ValueError, match=message):
            sequences.realize(spec, 20)
    long_ = write_spec(tmp_path, "long.json", {"kind": "explicit", "columns": [column] * 50_000})
    declined = tmp_path / "declined.json"  # "columns" twice: json.loads keeps the last
    declined.write_text('{"kind": "explicit", "columns": [[[0, 1]]], "columns": %s}' % json.dumps([column] * 20))
    wide = write_spec(tmp_path, "wide.json", {"kind": "explicit", "columns": [column[:5]] * 20})
    scaled = write_spec(tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "constant"}})
    size = Path(long_).stat().st_size
    for argv, path, what in (
        (["classify", "--input", long_, "--dim", "50000"], long_,
         "a dense 20 x 16 realization of the columns read exceeds"),
        (["classify", "--input", str(declined), "--dim", "20"], str(declined),
         "a dense 20 x 20 realization exceeds"),
        (["cross-gram", "--f", wide, "--g", scaled, "--dim", "20"], scaled,  # a 5 x 20 f passes
         "a dense 20 x 20 realization exceeds"),
    ):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == (
            f"crossgram: error: {path}: {what} the budget MAX_DENSE_ENTRIES = 100 entries\n"
        )
        assert path != long_ or peak < size / 8, peak
    assert len(json_loads_calls) == 2  # the declined file and the scaled_basis one, not the long one
    small = write_spec(tmp_path, "small.json", {"kind": "explicit", "columns": [column[:10]] * 10})
    assert cli.main(["cross-gram", "--f", small, "--g", small, "--dim", "10"]) == 0


@pytest.fixture
def json_loads_calls(monkeypatch):
    """The texts passed to json.loads while the test runs."""
    calls, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(text) or loads(text, **kw))
    return calls


def test_canonical_explicit_spec_files_are_streamed(tmp_path, monkeypatch, json_loads_calls):
    monkeypatch.chdir(tmp_path)
    write_explicit_pair()
    path, want = _dense_explicit_spec(tmp_path)
    specs = [serialize.load_sequence_file(name) for name in ("f.json", "dual.json", path)]
    assert json_loads_calls == []
    np.testing.assert_array_equal(specs[-1].columns, want)


# explicit spec files the stream declines (all but the last, whose NaN it takes
# and realize refuses): each decodes, or fails with the same message, as
# json.loads and spec_from_json make of it
_ONE = "[[1, 0], [0, 1]]"
_SPEC_TEXTS = {
    "duplicate-columns": (
        '{"kind": "explicit", "columns": [[[1, 0]]], "columns": [[[0, 1]], [[2, 0]]]}',
        None,
    ),
    "no-kind": ('{"columns": [[[1, 0]]]}', "missing required key 'kind'"),
    "extra-key": ('{"kind": "explicit", "columns": [[[1, 0]]], "note": 1}', "unexpected keys"),
    "no-columns": ('{"kind": "explicit", "columns": []}', "columns must be nonempty"),
    "empty-column": ('{"kind": "explicit", "columns": [[]]}', "columns: column 0 has length 0, expected at least 1"),
    "trailing-data": ('{"kind": "explicit", "columns": [[[1, 0]]]} []', "line 1, column 45: Extra"),
    "truncated": (
        '{"kind": "explicit",\n "columns": [[[1, 0], [0.5, ',
        "line 2, column 29: Expecting value",
    ),
    "bom": ('\ufeff{"kind": "explicit", "columns": [[[1, 0]]]}', "Unexpected UTF-8 BOM"),
    "digits": ('{"kind": "explicit", "columns": [[[1, %s]]]}' % ("7" * 5000), "Exceeds the limit"),
    "deep": ('{"kind": "explicit", "columns": [' + "[" * 100_000, "nested too deeply"),
    # a ragged column that opens the second batch of columns checked at once
    "ragged-late": (
        '{"kind": "explicit", "columns": [%s, [[1, 0]]]}' % ", ".join([_ONE] * serialize._BATCH),
        f"column {serialize._BATCH} has length 1, expected 2",
    ),
    "nan": ('{"kind": "explicit", "columns": [[[NaN, 0]], [[1, 0]]]}', None),
}


@pytest.mark.parametrize("name", list(_SPEC_TEXTS))
def test_spec_files_the_stream_declines_decode_as_json_loads_does(
    tmp_path, monkeypatch, capsys, json_loads_calls, name
):
    text, message = _SPEC_TEXTS[name]
    path = tmp_path / "f.json"
    path.write_text(text, encoding="utf-8")

    def outcome():
        try:
            spec = serialize.load_sequence_file(str(path))
        except SpecFileError as exc:
            return str(exc)
        return spec.columns.shape, spec.columns.tobytes()

    got = outcome()
    if name == "nan":  # realize refuses the NaN the stream took
        assert cli.main(["classify", "--input", str(path), "--dim", "2"]) == 2
        assert "matrix entries must be finite (1 non-finite entries)" in capsys.readouterr().err
        assert json_loads_calls == []
    else:
        assert len(json_loads_calls) == 1
    monkeypatch.setattr(serialize, "_stream_explicit", lambda text: None)
    assert got == outcome()
    if message is not None:
        assert got.startswith(f"{path}: ") and message in got, got
    elif name == "duplicate-columns":
        assert got[0] == (2, 1)  # the last "columns" wins


def test_a_bad_byte_past_the_first_read_keeps_its_file_offset(tmp_path, json_loads_calls):
    # the stream declines at the read that meets the byte; the whole file is
    # then read again and reports the byte at its offset in the file
    path, _ = _dense_explicit_spec(tmp_path)
    data = bytearray(Path(path).read_bytes())
    at = 2 * serialize._READ + 7
    assert len(data) > at and data[at] < 0x80
    data[at] = 0xFF
    Path(path).write_bytes(bytes(data))
    with pytest.raises(SpecFileError) as info:
        serialize.load_sequence_file(path)
    assert str(info.value) == f"{path}: not UTF-8 text: byte 0xff at offset {at}"
    assert json_loads_calls == []


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"kind": "x" * 10**7}, "kind"),
        ({"kind": "scaled_basis", "weight": {"rule": "constant", "value": [[1, 0]] * 10**6}},
         "weight.value"),
    ],
)
def test_error_messages_cut_long_input_echoes(tmp_path, capsys, payload, field):
    path = write_spec(tmp_path, "big.json", payload)
    assert cli.main(["classify", "--input", path, "--dim", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) < 1024
    assert err.startswith(f"crossgram: error: {path}: {field}: expected ")
    assert err.endswith(" characters)\n")


def test_input_echoes_within_the_limit_print_whole():
    for value in ("x" * 198, list(range(50)), {"a": [1.5, None]}):
        assert len(repr(value)) <= serialize._ECHO_LIMIT
        assert serialize._echo(value) == repr(value)
    assert serialize._echo("x" * 199) == repr("x" * 199)[:200] + "... (201 characters)"


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


def test_the_schema_lays_out_each_object_as_the_decoder_reads_it():
    schema = json.loads(
        resources.files("crossgram").joinpath("schemas/sequence.schema.json").read_text()
    )
    defs, kinds = schema["$defs"], sequences._KINDS
    items = defs["pattern"]["properties"]
    objects = {kind: defs[kind] for kind in kinds}
    objects["weight"] = defs["weight"]
    objects["head term"], objects["tail slot"] = items["head"]["items"], items["tail"]["items"]
    assert objects.keys() == serialize._LAYOUTS.keys()
    for name, obj in objects.items():
        keys, *_ = serialize._LAYOUTS[name]
        properties, required = set(obj["properties"]), set(obj.get("required", ()))
        assert obj["additionalProperties"] is False, name
        if name in kinds:  # spec_from_json reads kind and hands the rest to the layout
            assert obj["properties"]["kind"] == {"const": name}
            properties.remove("kind")
            required.remove("kind")
        # each alias pair is a oneOf of two required keys; the layout reads both as
        # optional, and _alias requires exactly one of them
        one_ofs = [c["oneOf"] for c in obj.get("allOf", ()) if "oneOf" in c] + [obj.get("oneOf", [])]
        aliases = {key for one_of in one_ofs for c in one_of for key in c["required"]}
        assert aliases == {"d", "dim", "n", "count"} & set(keys), name
        assert all(keys[key][1] is None for key in aliases), name
        assert properties == set(keys), name
        assert required == {k for k, (_, d) in keys.items() if d is serialize._REQUIRED}, name
    # an object with a rule refuses each key that its rule never reads, in the schema's if/then
    # as in the layout: every such key under every rule, and under a slot's default rule
    validator, samples = jsonschema.Draft202012Validator(schema), {"value": [2, 0], "ratio": [0.5, 0]}
    wraps = {"weight": lambda o: {"kind": "scaled_basis", "weight": o},
             "tail slot": lambda o: {"kind": "pattern", "head": [], "tail": [{"start_index": 1, **o}]}}
    assert {name for name, layout in serialize._LAYOUTS.items() if len(layout) > 2} == wraps.keys()
    for name, wrap in wraps.items():
        keys, _, (key, reads) = serialize._LAYOUTS[name]
        assert list(reads) == objects[name]["properties"][key]["enum"], name
        default = keys[key][1]
        for rule in [*reads, *([None] if default is not serialize._REQUIRED else [])]:
            for extra in set().union(*reads.values()):
                payload = wrap({**({} if rule is None else {key: rule}), extra: samples.get(extra, [[1, 0]])})
                read = extra in reads[default if rule is None else rule]
                assert validator.is_valid(payload) == read, (name, rule, extra)
                if read:
                    serialize.spec_from_json(payload)
                else:
                    with pytest.raises(SpecFileError, match=f"unexpected keys for {key} "):
                        serialize.spec_from_json(payload)
    # a pattern may end at its head
    head_only = {"kind": "pattern", "head": [{"index": 2}], "tail": []}
    jsonschema.validate(head_only, schema)
    assert serialize.spec_from_json(head_only) == SequenceSpec.pattern(
        PatternProgram(head=(PatternTerm(2, 1.0),))
    )


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
    res = run_cli(["dual-check", "--f", f, "--g", g, "--dim", "6"])
    assert res.returncode == 0, res.stderr
    env = check_envelope(res.stdout, report_schema)
    assert env["report"]["is_dual_pair"] is True
    assert env["report"]["pairing_residual_3"] <= 1e-10
    assert env["config"] == {"f": f, "g": g, "dim": 6, "tol": 1e-10}


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
    assert "term count 100000000 exceeds the term budget MAX_SWEEP_TRUNCATION = 10000000" in res.stderr


def test_realize_budget_exits_2(tmp_path):
    # dense matrices over 2**24 entries: a random frame, and the 4097 x 4097
    # cross-Gram of two monomial sequences of equal count and dim on
    # different index arrays, which has no block form
    frame = write_spec(
        tmp_path, "frame.json", {"kind": "random_frame", "d": 4097, "n": 4097, "seed": 0}
    )
    scaled = write_spec(
        tmp_path, "scaled.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}}
    )
    swap = write_spec(
        tmp_path, "swap.json",
        {"kind": "pattern", "head": [{"index": 2}, {"index": 1}], "tail": [{"start_index": 3, "index_step": 1}]},
    )
    for argv in (
        ["classify", "--input", frame, "--dim", "4097"],
        ["cross-gram", "--f", scaled, "--g", swap, "--dim", "4097"],
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
    # need the 5000 x 5000 cross-Gram and the duality the 5000 x 5000 residual
    f = write_spec(tmp_path, "f.json", {"kind": "paper_example", "example": "ex-hs", "role": "f"})
    g = write_spec(tmp_path, "g.json", {"kind": "paper_example", "example": "ex-hs", "role": "g"})
    for command, matrix in (("cross-gram", "cross-Gram"), ("dual-check", "dual-pair residual")):
        tracemalloc.start()
        try:
            code = cli.main([command, "--f", f, "--g", g, "--dim", "5000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"5000 x 5000 {matrix} exceeds the budget MAX_DENSE_ENTRIES = 16777216" in err
        assert peak < 2**20


def test_hybrid_pair_is_bounded_by_its_square_matrices_alone(tmp_path, capsys):
    # 64 terms on every 10**4-th index up to 630001, in two orders: no side
    # is realized, so dim x count past 2**24 refuses nothing, and the 64 x 64
    # cross-Gram is scattered from the terms; the duality needs the dim x dim
    # residual
    spread = {"start_index": 1, "index_step": 10**4}
    f = write_spec(tmp_path, "f.json", {"kind": "pattern", "head": [], "tail": [spread]})
    g = write_spec(tmp_path, "g.json", {"kind": "pattern", "head": [{"index": 630001}], "tail": [spread]})
    assert 630001 * 64 > sequences.MAX_DENSE_ENTRIES >= 64 * 64
    assert cli.main(["cross-gram", "--f", f, "--g", g, "--dim", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    # G is a cyclic permutation of even order, so -1 is among its eigenvalues
    assert (rep["rows"], rep["cols"], rep["op_norm"], rep["invertible"]) == (64, 64, 1.0, True)
    assert rep["identity_distance"] == pytest.approx(2.0, rel=1e-15)
    assert cli.main(["dual-check", "--f", f, "--g", g, "--dim", "64"]) == 2
    err = capsys.readouterr().err
    assert "a dense 630001 x 630001 dual-pair residual exceeds the budget MAX_DENSE_ENTRIES" in err


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


def test_random_draw_failures_name_the_spec_file(tmp_path, capsys):
    # a 200 x 200 complex Gaussian draw almost never meets the condition
    # screen; the condition number the message ends with is LAPACK's, so
    # only the prefix is pinned
    frame = write_spec(tmp_path, "rf200.json", {"kind": "random_frame", "d": 200, "n": 200, "seed": 1})
    assert cli.main(["classify", "--input", frame, "--dim", "200"]) == 2
    err = capsys.readouterr().err
    want = f"crossgram: error: {frame}: no 200x200 draw met condition <= 100 after 64 attempts"
    assert err.startswith(want), err


# sha256 of the envelopes of the three explicit-spec commands on a seeded
# 12 x 18 frame f and its canonical dual, recorded before explicit columns
# were decoded as one array.  dual-check was re-recorded once, at one BLAS
# thread, when both reconstruction residuals became the exact ||F G* - I||
# (1.49e-15 and 1.85e-15 -> 3.03e-15); every other field kept its bytes.  It
# was re-recorded once more when the probes field left the report and the
# probes and seed echoes left the config: no other field moved
EXPLICIT_DIGESTS = {
    "classify": "0759ae9bfd771e59c7bd432bea3cc1e54987467f9da63ec3097a2c661a50462b",
    "cross-gram": "f28e045e7df55c2451dd347ca66ae86c29e2dc73120eef410894d28fcc55a0e2",
    "dual-check": "dfecb7ddaaa163ec88f05d84ee45a5ba555fbd67db1c54ca043b7e6558dc0a7e",
}


def write_explicit_pair():
    """f.json and dual.json in the working directory: a seeded 12 x 18
    frame and its canonical dual as explicit specs."""
    rng = np.random.default_rng(12)
    f = (rng.standard_normal((12, 18)) + 1j * rng.standard_normal((12, 18))) / np.sqrt(2.0)
    dual = np.linalg.solve(f @ f.conj().T, f)  # canonical dual S^-1 f
    for name, t in (("f.json", f), ("dual.json", dual)):
        columns = [[[float(z.real), float(z.imag)] for z in col] for col in t.T]
        with open(name, "w", encoding="utf-8") as fh:
            json.dump({"kind": "explicit", "columns": columns}, fh)


def test_explicit_spec_envelope_bytes_are_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the echoed config fixed
    write_explicit_pair()
    for argv in (
        ["classify", "--input", "f.json", "--dim", "18"],
        ["cross-gram", "--f", "f.json", "--g", "dual.json", "--dim", "18"],
        ["dual-check", "--f", "f.json", "--g", "dual.json", "--dim", "18"],
    ):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == EXPLICIT_DIGESTS[argv[0]]


# sha256 of the example envelopes, recorded before the example command took
# its duality report from monomial_duality instead of monomial_reports.  The
# LAPACK results behind the square fields can move in their last digits with
# the BLAS thread count, so the commands run at one thread, as the benchmark
# pins it; ex-hs at dim 256 was re-recorded at one thread (with two or more
# it reads 62253f3c...).  Both ex-hs entries were re-recorded once more, at
# one thread, when real matrices took real LAPACK and GEMM: their square
# fields and pairing_residual_3 moved by at most 6e-16 relative (ex-norm89,
# also real, kept its bytes).  The ex-hs and ex-norm89 entries were
# re-recorded once more, at one thread, when both reconstruction residuals
# of the duality report became pairing_residual_3 (ex-hs 1.031 -> 1.160,
# ex-norm89 1.006 / 1.118 -> 1.317 at 64 and 1.322 at 256); every other
# field kept its bytes.  ex-identity, ex-hs, ex-norm89 and ex-canonical were
# re-recorded once more, at one thread, when the probes field left the
# duality report and hermitian_defect became ||G - G*|| / ||G||: ex-hs went
# 0.4806 -> 0.8324 (both dims), ex-norm89 0.7934 -> 0.8460 at 64 and 0.8006
# -> 0.8482 at 256; no psd flipped and every other field kept its bytes
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EXAMPLE_DIGESTS = {
    ("ex-identity", 64): "9d788ca7df307c8570bf206c9dad45fdf1c640b63b3531827d735036f67ceddf",
    ("ex-identity", 256): "6ed70eb98225c05d72a16599bc8daa22dd2df58a4fb287110aaf329bf3d1acbd",
    ("ex-hs", 64): "56bf177c819ab4e50063a7c9ab042848ed06319fef118691fbc9e8bf265a32de",
    ("ex-hs", 256): "991a6855b7c6a929a111ae6b7a54e0c5f535a9785fb40e69b1f898ec9072304e",
    ("ex-blocked", 64): "f031eecd9a45d89c1434629628032fa8ce50760d23fd97f5b037abe37d966386",
    ("ex-blocked", 256): "9f735b336f2c52e218ec8960ae7c1a49fee04bacb42d05b98ba0a1e6cd6aa5ea",
    ("ex-norm89", 64): "7a40dccc8faf3f967bc8beac23bd9e324624394fe5e12736e6be2f4020c08bb9",
    ("ex-norm89", 256): "61b3ab87e5705df32936209ec94e521e2f45e48cff6e5017a65b3d5106441ba8",
    ("ex-canonical", 64): "93477f7b93092e747f865ade65199e10cfe0127ce5158f60cd5ce81ea972be3e",
    ("ex-canonical", 256): "daf9e67040ec8e762aa4e36a10ab31e8388f4451d7d715a0cef6c63aba897b0a",
}


@pytest.mark.parametrize("example_id, dim", sorted(EXAMPLE_DIGESTS))
def test_example_envelope_bytes_are_unchanged(example_id, dim):
    res = run_cli(["example", "--id", example_id, "--dim", str(dim)], ONE_THREAD)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == EXAMPLE_DIGESTS[example_id, dim]


def test_real_matrices_take_real_lapack_and_complex_ones_complex(tmp_path, monkeypatch, capsys):
    # the dense reports convert a matrix whose imaginary parts are all zero
    # to float64 once, at their entry, and the hybrid route (ex-hs, swap.json
    # against inv.json) its coefficient arrays; complex input keeps the
    # complex path
    seen = []

    def spy(name):
        call = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return call(a, *args, **kwargs)

        return wrapped

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name))
    assert cli.main(["example", "--id", "ex-hs", "--dim", "64"]) == 0
    assert seen and set(seen) == {np.dtype(np.float64)}

    seen.clear()
    monkeypatch.chdir(tmp_path)
    for name in ("swap.json", "inv.json"):
        Path(name).write_text(json.dumps(MONOMIAL_SPECS[name]))
    assert cli.main(["cross-gram", "--f", "swap.json", "--g", "inv.json", "--dim", "40"]) == 0
    assert seen and set(seen) == {np.dtype(np.complex128)}

    seen.clear()
    diagnostics.theorem_battery(42, 5)
    assert seen and set(seen) == {np.dtype(np.complex128)}
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload, n",
    [
        ({"kind": "random_frame", "d": 6, "n": 9, "seed": 3}, 9),
        ({"kind": "random_riesz", "d": 7, "seed": 4}, 7),
    ],
)
def test_classify_of_a_random_spec_takes_one_svd(tmp_path, monkeypatch, capsys, payload, n):
    # the condition screen's SVD of the accepted draw is the only one: the
    # classification and the frame bounds read its singular values
    path = write_spec(tmp_path, "random.json", payload)
    svd, calls = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        calls.append(1)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert cli.main(["classify", "--input", path, "--dim", str(n), "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1
    seq = sequences.realize(serialize.load_sequence_file(path), n)
    calls.clear()
    bounds = operators.frame_bounds(seq, 1e-9)
    assert calls == []
    monkeypatch.undo()
    fresh = diagnostics._classify(seq.columns, 1e-9)  # s=None: an SVD of its own
    assert bounds == fresh.frame
    echo = {"input": path, "dim": n, "tol": 1e-9}
    assert out == serialize.render_json(serialize.build_envelope("classify", echo, fresh))


def test_hybrid_example_holds_about_one_dense_matrix():
    # ex-hs is real: G and T_f T_g* are scattered from the terms as float64
    # N x N matrices, and the square fields reuse one buffer for G - G*,
    # G @ G - G and G - I: the peak is ~1.03 N^2 complex entries, the
    # cross-Gram reports' own (the duality report's is ~0.51)
    n = 500
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["example", "--id", "ex-hs", "--dim", "8"])  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            assert cli.main(["example", "--id", "ex-hs", "--dim", str(n)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * n * n * 16


def test_sweeps_and_block_route_examples_make_no_lapack_call(monkeypatch, capsys):
    # the reports README names as independent of the BLAS thread count
    # take nothing from numpy.linalg
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        entry = getattr(np.linalg, name)
        if callable(entry) and not isinstance(entry, type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    for example_id in sequences.example_ids():
        assert cli.main(["sweep", "--id", example_id, "--dims", "10,1000"]) == 0
    for example_id in ("ex-identity", "ex-blocked", "ex-canonical"):
        assert cli.main(["example", "--id", example_id, "--dim", "64"]) == 0
    assert capsys.readouterr().err == ""


# sha256 of classify, cross-gram and dual-check envelopes on monomial spec
# files, recorded before the block kernel moved from diagnostics to
# operators: a rectangular pair, square pairs on shared index arrays (one
# with blocks of two terms per index), a square pair on different index
# arrays, and a constant weight of 1e-200, whose squares need the exact
# power-of-two scaling.  dual-check on swap.json / inv.json (a square pair on
# different index arrays) was re-recorded once, at one BLAS thread, when both
# reconstruction residuals became pairing_residual_3 (1.5 -> 1.846); every
# other field kept its bytes.  The four dual-check entries were re-recorded
# once more when the probes field left the report and the probes and seed
# echoes left the config: no other field moved
MONOMIAL_SPECS = {
    "inv.json": {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}},
    "idx.json": {"kind": "scaled_basis", "weight": {"rule": "index"}},
    "tiny.json": {"kind": "scaled_basis", "weight": {"rule": "constant", "value": [1e-200, 0]}},
    "rep_f.json": {"kind": "pattern", "head": [], "tail": [
        {"start_index": 1, "index_step": 1, "coeff": [0.5, 0.25]},
        {"start_index": 1, "index_step": 1, "coeff_rule": "geometric", "coeff": [1, 0],
         "ratio": [0.9, 0.1]},
    ]},
    "rep_g.json": {"kind": "pattern", "head": [], "tail": [
        {"start_index": 1, "index_step": 1, "coeff_rule": "inverse_term", "coeff": [1, -0.5]},
        {"start_index": 1, "index_step": 1, "coeff": [0.3, 0.7]},
    ]},
    "swap.json": {"kind": "pattern", "head": [], "tail": [
        {"start_index": 2, "index_step": 2, "coeff": [1, 0.5]},
        {"start_index": 1, "index_step": 2, "coeff_rule": "geometric", "coeff": [1, 0],
         "ratio": [0.99, 0]},
    ]},
    "blk_f.json": {"kind": "paper_example", "example": "ex-blocked", "role": "f"},
    "blk_g.json": {"kind": "paper_example", "example": "ex-blocked", "role": "g"},
}
MONOMIAL_DIGESTS = {
    ("classify", "--input", "inv.json", "--dim", "40"):
        "d55d581fc73173087997abc4d81b865d5a7962cadbd292b9ebc1f75793436130",
    ("classify", "--input", "tiny.json", "--dim", "5"):
        "9a244f4c4774bd865463e1e98e41191bf0ec6e8adc41ae775e93865635d1fd38",
    ("classify", "--input", "rep_f.json", "--dim", "40"):
        "5c5d7c17287af12b3e00fa04d46823d099ade8e6f855a127b9451956097e0bca",
    ("cross-gram", "--f", "blk_f.json", "--g", "blk_g.json", "--dim", "40"):
        "7b26b7df24b8176b2c70f461c9231f5216e719723882fac0dc42af35206813e9",
    ("cross-gram", "--f", "inv.json", "--g", "idx.json", "--dim", "40"):
        "1f823547044a7bf6a70ad060ab75d02aadc52d750ab803c6a07c177a6639accc",
    ("cross-gram", "--f", "rep_f.json", "--g", "rep_g.json", "--dim", "40"):
        "72b1c333edb3dd10ec707388f4a392deee20d581899086b22356450b8ba6ec9f",
    ("cross-gram", "--f", "swap.json", "--g", "inv.json", "--dim", "40"):
        "3aa33dfffb38d12bba28b599a3388edad1925bda23d01d227a68eb07733cc26d",
    ("cross-gram", "--f", "tiny.json", "--g", "idx.json", "--dim", "5"):
        "65710ffe77b0c8673e35a0bd3c78ea29f67a9814dd218c2918be5a0f38920f23",
    ("dual-check", "--f", "inv.json", "--g", "idx.json", "--dim", "40"):
        "6d55fb1f3c844865637eb525014422d08b0db26adca8fe262c1065ac8e5f1d1d",
    ("dual-check", "--f", "rep_f.json", "--g", "rep_g.json", "--dim", "40"):
        "868e638b50631675e0bb6ed342afe09be588a9b19891d9be1306afe9cca79578",
    ("dual-check", "--f", "swap.json", "--g", "inv.json", "--dim", "40"):
        "52f5ba7120a7f152040c77ea57f06c28050be80334cd0271793497d3c41fb4d4",
    ("dual-check", "--f", "tiny.json", "--g", "tiny.json", "--dim", "5"):
        "54753067ebf71118205fb4f18da94a72e113a9d227c545efe7cece37ff7c089f",
}


def test_monomial_spec_envelope_bytes_are_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep the echoed config fixed
    for name, payload in MONOMIAL_SPECS.items():
        Path(name).write_text(json.dumps(payload))
    for argv, digest in MONOMIAL_DIGESTS.items():
        assert cli.main(list(argv)) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


def test_block_route_duality_draws_no_random_number(tmp_path, monkeypatch, capsys):
    # every route reads its residuals off T_f T_g* - I exactly: its diagonal
    # on shared index arrays (block), one SVD otherwise (dense and hybrid),
    # so no probe is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    monkeypatch.chdir(tmp_path)
    write_explicit_pair()
    for name in ("inv.json", "idx.json", "tiny.json", "swap.json"):
        Path(name).write_text(json.dumps(MONOMIAL_SPECS[name]))
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for f, g, dim in (
        ("inv.json", "idx.json", "40"),
        ("tiny.json", "tiny.json", "5"),
        ("f.json", "dual.json", "18"),
        ("swap.json", "inv.json", "40"),
    ):
        assert cli.main(["dual-check", "--f", f, "--g", g, "--dim", dim]) == 0
    for example_id in ("ex-identity", "ex-blocked", "ex-canonical", "ex-hs"):
        assert cli.main(["example", "--id", example_id, "--dim", "64"]) == 0
    assert capsys.readouterr().err == ""


def test_square_block_pairs_run_to_the_term_budget():
    # the block route holds O(terms), so the term budget alone bounds it:
    # dim 2**20 + 1 is past dim x 16 <= MAX_DENSE_ENTRIES, which once refused it
    res = run_cli(["example", "--id", "ex-identity", "--dim", "1048577"], ONE_THREAD)
    assert res.returncode == 0, res.stderr
    rep = json.loads(res.stdout)["report"]
    assert (rep["f_count"], rep["duality"]["is_dual_pair"]) == (1048577, True)


def test_budgets_refuse_before_any_term_is_generated(tmp_path, monkeypatch, capsys):
    # the term, span and dense budgets read the extents, not the terms
    def refuse(*args, **kwargs):
        raise AssertionError("a term generated before the budget check")

    monkeypatch.setattr(sequences, "monomial_terms", refuse)
    odd = write_spec(
        tmp_path, "odd.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 1, "index_step": 2}]}
    )
    const = write_spec(tmp_path, "c.json", {"kind": "scaled_basis", "weight": {"rule": "constant"}})
    # 5000 explicit vectors in C^1: a dense side that leaves const to be realized
    row = write_spec(tmp_path, "row.json", {"kind": "explicit", "columns": [[[1.0, 0.0]]] * 5000})
    # 4096 in C^1: const's 4096 x 4096 realization sits at the dense budget,
    # so only the pair check, which runs before const is realized, refuses
    row4k = write_spec(tmp_path, "row4k.json", {"kind": "explicit", "columns": [[[1.0, 0.0]]] * 4096})
    dense = f"exceed{{}} the budget MAX_DENSE_ENTRIES = {sequences.MAX_DENSE_ENTRIES} entries"
    terms = "exceeds the term budget MAX_SWEEP_TRUNCATION = 10000000"
    for argv, message in (
        (["classify", "--input", odd, "--dim", "6000000"], f"{odd}: index span 11999999 {terms}"),
        (["dual-check", "--f", const, "--g", const, "--dim", "10000001"],
         f"{const}: term count 10000001 {terms}"),
        (["cross-gram", "--f", const, "--g", odd, "--dim", "6000000"],
         f"{odd}: index span 11999999 {terms}"),
        (["cross-gram", "--f", const, "--g", row, "--dim", "5000"],
         f"{const}: a dense 5000 x 5000 realization " + dense.format("s")),
        (["cross-gram", "--f", const, "--g", row4k, "--dim", "4096"],
         "sequences live in different ambient dimensions: 4096 vs 1"),
        (["dual-check", "--f", row4k, "--g", const, "--dim", "4096"],
         "sequences live in different ambient dimensions: 1 vs 4096"),
        (["example", "--id", "ex-identity", "--dim", "10000001"], f"term count 10000001 {terms}"),
        (["example", "--id", "ex-canonical", "--dim", "10000001"], f"term count 10000001 {terms}"),
        (["example", "--id", "ex-hs", "--dim", "5000"],
         "a dense 5000 x 5000 dual-pair residual " + dense.format("s")),
        (["sweep", "--id", "ex-hs", "--dims", "10,100000000"], f"term count 100000000 {terms}"),
    ):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"crossgram: error: {message}\n")


def test_each_monomial_side_is_shaped_and_generated_once(tmp_path, monkeypatch, capsys):
    # one pair path: each side's term shape, one generation, one gate per pair
    # command, and one index comparison per square monomial pair, in the gate
    names = ("term_shape", "monomial_terms", "monomial_extent", "check_pair_budgets", "_same_indices")
    calls = dict.fromkeys(names, 0)

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in names:
        spy(diagnostics if name == "check_pair_budgets" else sequences, name)
    const = write_spec(tmp_path, "c.json", {"kind": "scaled_basis", "weight": {"rule": "constant"}})
    inv = write_spec(tmp_path, "inv.json", {"kind": "scaled_basis", "weight": {"rule": "inverse_index"}})
    # |c|^2 underflows, so the block reports fold each side again: the same held chunk
    tiny = write_spec(
        tmp_path, "tiny.json", {"kind": "scaled_basis", "weight": {"rule": "constant", "value": [1e-200, 0]}}
    )
    odd = write_spec(
        tmp_path, "odd.json", {"kind": "pattern", "head": [], "tail": [{"start_index": 1, "index_step": 2}]}
    )
    # e2, e1, e3, e4, ...: square against const on different index arrays
    swap = write_spec(
        tmp_path, "swap.json",
        {"kind": "pattern", "head": [{"index": 2}, {"index": 1}], "tail": [{"start_index": 3, "index_step": 1}]},
    )
    role = write_spec(tmp_path, "hs_g.json", {"kind": "paper_example", "example": "ex-hs", "role": "g"})
    # 5 and 8 vectors in C^4: a rectangular monomial pair
    blocked = [
        write_spec(tmp_path, f"blocked_{r}.json", {"kind": "paper_example", "example": "ex-blocked", "role": r})
        for r in ("f", "g")
    ]
    eye = write_spec(
        tmp_path, "eye.json",
        {"kind": "explicit", "columns": [[[float(i == j), 0.0] for i in range(3)] for j in range(3)]},
    )
    # (argv, monomial sides, gate calls, extents read: two per registry role,
    # index comparisons: one per square monomial pair)
    for argv, sides, gates, extents, compared in (
        (["classify", "--input", odd, "--dim", "8"], 1, 0, 1, 0),
        (["classify", "--input", role, "--dim", "8"], 1, 0, 2, 0),
        (["cross-gram", "--f", const, "--g", inv, "--dim", "8"], 2, 1, 2, 1),
        (["classify", "--input", tiny, "--dim", "8"], 1, 0, 1, 0),
        (["cross-gram", "--f", tiny, "--g", inv, "--dim", "8"], 2, 1, 2, 1),
        (["cross-gram", "--f", odd, "--g", odd, "--dim", "8"], 2, 1, 2, 1),
        (["cross-gram", "--f", const, "--g", swap, "--dim", "8"], 2, 1, 2, 1),
        (["cross-gram", "--f", *blocked[:1], "--g", *blocked[1:], "--dim", "8"], 2, 1, 4, 0),
        (["dual-check", "--f", swap, "--g", const, "--dim", "8"], 2, 1, 2, 1),
        (["dual-check", "--f", const, "--g", inv, "--dim", "8"], 2, 1, 2, 1),
        (["dual-check", "--f", odd, "--g", odd, "--dim", "8"], 2, 1, 2, 1),
        (["dual-check", "--f", inv, "--g", role, "--dim", "8"], 2, 1, 3, 1),
        (["cross-gram", "--f", const, "--g", eye, "--dim", "3"], 1, 1, 1, 0),
        (["dual-check", "--f", eye, "--g", const, "--dim", "3"], 1, 1, 1, 0),
        *(
            (["example", "--id", ex_id, "--dim", "8"], 2, 1, 4, int(ex_id != "ex-blocked"))
            for ex_id in sequences.example_ids()
        ),
    ):
        calls.update(dict.fromkeys(names, 0))
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
        assert calls == dict(zip(names, (sides, sides, extents, gates, compared))), argv


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
        ["dual-check", "--f", fp, "--g", gp, "--dim", str(n)],
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


def test_battery_tol_past_the_condition_screen_exits_2():
    # a screened draw may have (sigma_min / sigma_max)**2 as low as
    # MAX_CONDITION**-2 = 1e-4, so at a larger tol a screened Riesz
    # cross-Gram can read as singular and a check fails
    res = run_cli(["battery", "--tol", "2e-4"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("crossgram: error: tol 0.0002 must lie below MAX_CONDITION**-2")


def test_battery_rejects_malformed_dims():
    res = run_cli(["battery", "--seed", "1", "--trials", "2", "--dims", "2-8"])
    assert res.returncode == 2
    assert "dims" in res.stderr


@pytest.mark.parametrize(
    "argv, last",
    [
        (
            ["battery", "--dims", "2-8"],
            "crossgram battery: error: argument --dims: expected LO..HI (for example 2..8), "
            "got '2-8'",
        ),
        (
            ["sweep", "--id", "ex-hs", "--dims", "1,x"],
            "crossgram sweep: error: argument --dims: expected a comma-separated truncation "
            "list, got '1,x'",
        ),
        (["battery", "--dim", "3"], "crossgram: error: unrecognized arguments: --dim 3"),
    ],
)
def test_flag_errors_name_the_expected_form_and_no_flag_abbreviates(argv, last, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: crossgram")
    assert err.splitlines()[-1] == last


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["battery", "--seed", "1", "--trials", "2", "--jobs", "4"], "--jobs 4"),
        (["dual-check", "--f", "f.json", "--g", "g.json", "--dim", "4", "--probes", "16"], "--probes 16"),
        (["dual-check", "--f", "f.json", "--g", "g.json", "--dim", "4", "--seed", "0"], "--seed 0"),
    ],
    ids=["battery-jobs", "dual-check-probes", "dual-check-seed"],
)
def test_removed_flags_are_unrecognized(argv, flag):
    res = run_cli(argv)
    assert res.returncode == 2
    assert f"unrecognized arguments: {flag}" in res.stderr
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


def test_out_flag_failure_names_the_out_path(tmp_path, monkeypatch, capsys):
    # the error names --out and the OS reason, never the temporary file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    for out, reason in (("missing/y.json", "No such file or directory"), ("outdir", "Is a directory")):
        runs = []
        for _ in range(2):
            assert cli.main(["example", "--id", "ex-canonical", "--dim", "8", "--out", out]) == 2
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1] == ("", f"crossgram: error: {out}: cannot write report: {reason}\n")
    assert not list(tmp_path.rglob("*.tmp*"))


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
        ("--seed", "-1", "seed must be non-negative, got -1"),
    ],
)
def test_out_of_range_flags_exit_2_before_reading_a_spec(tmp_path, capsys, flag, value, message):
    missing = str(tmp_path / "missing.json")
    argv = ["dual-check", "--f", missing, "--g", missing, "--dim", "4", flag, value]
    if flag == "--seed":  # the battery's seed is the only one left
        argv = ["battery", flag, value]
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


def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_text_format(tmp_path):
    res = run_cli(["example", "--id", "ex-identity", "--dim", "8", "--format", "text"])
    assert res.returncode == 0
    assert "command = example" in res.stdout
    assert "report.cross_gram.op_norm" in res.stdout


def test_text_rendering_leaves_no_cyclic_garbage():
    # a recursive closure would keep every rendered line alive until a collection
    envelope = serialize.build_envelope("example", {"id": "ex-identity"}, {
        "rows": [{"n": 1, "v": [0.5, -0.0]}, {"n": 2, "v": None}], "ok": True,
    })
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = serialize.render_text(envelope)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert text.splitlines()[:4] == [
        "command = example", "config.id = ex-identity", "report.ok = True", "report.rows[0].n = 1",
    ]


def test_json_rendering_leaves_no_cyclic_garbage():
    # json.dumps(indent=2) ran json's pure-Python encoder, whose closures left a
    # 33-object cycle per render; the writer walks the report objects with none
    report = diagnostics.truncation_sweep("ex-hs", (10, 100, 1000), tol=1e-10)
    config = {"id": "ex-hs", "truncations": [10, 100, 1000], "tol": 1e-10}
    envelope = serialize.build_envelope("sweep", config, report)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = serialize.render_json(envelope)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert json.loads(text)["report"]["rows"][2]["truncation"] == 1000


def _flattened(value, prefix=""):
    """The "path = value" lines of a parsed JSON envelope, sorted as --format text sorts them."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flattened(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flattened(item, f"{prefix}[{i}]")
    else:
        yield f"{prefix} = {value}"


def test_text_output_flattens_the_json_output(tmp_path, monkeypatch, capsys):
    # both writers walk the same report objects: each command's --format text
    # lines are exactly the leaves of its JSON envelope, parsed back
    monkeypatch.chdir(tmp_path)
    write_explicit_pair()
    for seed in (1, 2):
        write_spec(tmp_path, f"frame{seed}.json", {"kind": "random_frame", "d": 4, "n": 7, "seed": seed})
    commands = [["example", "--id", eid, "--dim", "64"] for eid in sequences.example_ids()]
    commands += [["sweep", "--id", "ex-hs", "--dims", "10,100,1000"], ["battery", "--trials", "5"]]
    for f, g, n in (("f.json", "dual.json", "18"), ("frame1.json", "frame2.json", "7")):
        commands += [
            ["classify", "--input", f, "--dim", n],
            ["cross-gram", "--f", f, "--g", g, "--dim", n],
            ["dual-check", "--f", f, "--g", g, "--dim", n],
        ]
    for argv in commands:
        code = cli.main(argv)
        envelope = json.loads(capsys.readouterr().out)
        assert cli.main([*argv, "--format", "text"]) == code, argv
        text = capsys.readouterr().out
        assert text.splitlines() == list(_flattened(envelope)), argv
        assert text.endswith("\n") and code in (0, 3), argv


# sha256 of `example --id ex-identity --dim 8 --format text`: the block route
# makes no LAPACK call, so these bytes hold on any BLAS
TEXT_DIGEST = "d248efa5035264fb7c3d8319d86af2277ebedb6bc17aac81f810a0d3202be0b1"


def test_text_envelope_bytes_are_unchanged(capsys):
    assert cli.main(["example", "--id", "ex-identity", "--dim", "8", "--format", "text"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TEXT_DIGEST


def test_unknown_command_exits_2():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2


def test_main_builds_its_parser_once_and_reads_like_fresh_processes(tmp_path, monkeypatch, capsys):
    # main keeps the tree build_parser gives it; a mixed run of commands,
    # usage errors and help in one interpreter must print what fresh
    # `python -m crossgram` processes print
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    build_parser, built = cli.build_parser, []

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    const = write_spec(tmp_path, "c.json", {"kind": "scaled_basis", "weight": {"rule": "constant"}})
    out = tmp_path / "report.json"

    def written():
        if not out.exists():
            return None
        data = out.read_bytes()
        out.unlink()
        return data

    for argv in (
        ["sweep", "--id", "ex-hs", "--dims", "10,100"],
        ["sweep", "--id", "ex-hs", "--dims", "10,100", "--frobnicate"],
        ["battery", "--jobs", "4"],
        ["example", "--id", "ex-identity", "--dim", "8", "--format", "text"],
        ["dual-check", "--f", const, "--g", const, "--dim", "8", "--out", str(out)],
        ["sweep", "--help"],
    ):
        code = cli.main(argv)
        here = (code, *capsys.readouterr(), written())
        assert (here[3] is not None) == ("--out" in argv), argv
        res = run_cli(argv)
        assert here == (res.returncode, res.stdout, res.stderr, written()), argv
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import crossgram.cli\n"
        "assert not made, len(made)\n"
        "crossgram.cli._parser()\n"
        "assert made\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# the block reports' inputs for the chunk test: late.json reaches index 1 only
# past its first chunks, so the bins grow down; rep_f/rep_g share blocks of two
# terms, which straddle chunk edges, so their q takes the second pass; tiny.json
# takes the 2**-e fold again; swap.json against inv.json is hybrid, and the
# ex-blocked roles are rectangular
CHUNK_SPECS = {
    **MONOMIAL_SPECS,
    "late.json": {"kind": "pattern",
                  "head": [{"index": 20 + i, "coeff": [1, i]} for i in range(10)],
                  "tail": [{"start_index": 1, "index_step": 1, "coeff": [0.5, 0]}]},
}
CHUNK_ARGVS = [
    *(["example", "--id", ex_id, "--dim", dim] for ex_id in sequences.example_ids() for dim in ("8", "50", "300")),
    *(["classify", "--input", name, "--dim", dim]
      for name, dim in (("inv.json", "40"), ("tiny.json", "5"), ("late.json", "60"), ("rep_f.json", "31"))),
    *([command, "--f", f, "--g", g, "--dim", dim] for command in ("cross-gram", "dual-check")
      for f, g, dim in (("inv.json", "idx.json", "40"), ("rep_f.json", "rep_g.json", "31"),
                        ("tiny.json", "tiny.json", "5"), ("late.json", "late.json", "60"),
                        ("swap.json", "inv.json", "40"))),
    ["cross-gram", "--f", "blk_f.json", "--g", "blk_g.json", "--dim", "51"],
    *(["sweep", "--id", ex_id, "--dims", "2,10,100,1000"] for ex_id in sequences.example_ids()),
]


def test_envelopes_do_not_depend_on_the_chunk_sizes(tmp_path, monkeypatch, capsys):
    # terms are generated and folded TERM_CHUNK at a time and geometric powers
    # tabled _POWER_BLOCK at a time; neither may move a byte.  A spy on
    # operators._fold shows that the patch reaches the pass: a command whose
    # sides stream in more than one patched chunk folds more, and shorter,
    # chunks, while a hybrid pair folds its whole term arrays either way
    monkeypatch.chdir(tmp_path)
    for name, payload in CHUNK_SPECS.items():
        Path(name).write_text(json.dumps(payload))
    fold, folds = operators._fold, []

    def spy(sums, idx, weights, stride=None):
        folds[-1].append(len(idx))
        return fold(sums, idx, weights, stride)

    def envelopes():
        sequences._power_block.cache_clear()  # its tables are _POWER_BLOCK long
        out = []
        for argv in CHUNK_ARGVS:
            folds.append([])
            assert cli.main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    monkeypatch.setattr(operators, "_fold", spy)
    want = envelopes()
    whole, folds[:] = folds[:], []
    monkeypatch.setattr(operators, "TERM_CHUNK", 7)
    monkeypatch.setattr(sequences, "_POWER_BLOCK", 64)
    got = envelopes()
    sequences._power_block.cache_clear()
    hybrid = {"ex-hs", "ex-norm89", "swap.json"}
    for argv, a, b, before, after in zip(CHUNK_ARGVS, want, got, whole, folds, strict=True):
        assert a == b, argv
        if argv[0] != "sweep" and hybrid & set(argv):
            assert after == before, argv
        elif max(before, default=0) > 7:  # tiny.json's five terms are one chunk either way
            assert len(after) > len(before) and max(after) <= 7, (argv, before, after)


def test_strided_folds_of_a_complex_shared_pair_give_the_add_at_bytes(tmp_path, monkeypatch, capsys):
    # a complex pair on one index array e4, e1, e4, e7, ...: the head chunk
    # folds by np.add.at, the later ones by slice adds (Re p and Im p through
    # strided views of p) onto bins that the head already reached
    monkeypatch.chdir(tmp_path)
    specs = {
        "f.json": {"kind": "pattern", "head": [{"index": 4, "coeff": [1, 1]}], "tail": [
            {"start_index": 1, "index_step": 3, "coeff_rule": "geometric", "coeff": [0.5, 0.25],
             "ratio": [0.6, 0.8]}]},
        "g.json": {"kind": "pattern", "head": [{"index": 4, "coeff": [-0.5, 2]}], "tail": [
            {"start_index": 1, "index_step": 3, "coeff_rule": "inverse_term", "coeff": [0.3, -0.7]}]},
    }
    for name, payload in specs.items():
        Path(name).write_text(json.dumps(payload))
    pair = ["--f", "f.json", "--g", "g.json"]
    argvs = [["classify", "--input", "f.json"], ["classify", "--input", "g.json"],
             ["cross-gram", *pair], ["dual-check", *pair]]

    def envelopes():
        out = []
        for argv in argvs:
            assert cli.main([*argv, "--dim", "30000"]) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    want = envelopes()
    monkeypatch.setattr(sequences, "_index_stride", lambda spec, start: None)
    for argv, a, b in zip(argvs, want, envelopes(), strict=True):
        assert a == b, argv


def test_entry_check_counts_the_whole_streamed_side(tmp_path, capsys):
    # weights 1.005**k pass MAX_ENTRY near term 29,550, past the first chunk of
    # terms, and 1.01**k near term 14,810, inside it: the count covers the
    # whole side, f is refused before g, and no numpy warning is raised
    geo = write_spec(tmp_path, "geo.json", {"kind": "scaled_basis", "weight": {
        "rule": "geometric", "value": [1, 0], "ratio": [1.005, 0]}})
    fast = write_spec(tmp_path, "fast.json", {"kind": "scaled_basis", "weight": {
        "rule": "geometric", "value": [1, 0], "ratio": [1.01, 0]}})
    inv = write_spec(tmp_path, "inv.json", MONOMIAL_SPECS["inv.json"])
    line = (f"crossgram: error: {geo}: matrix entries must be at most MAX_ENTRY = 1e+64 "
            f"in modulus (10453 larger entries)")
    for argv in (["classify", "--input", geo], ["cross-gram", "--f", geo, "--g", inv],
                 ["cross-gram", "--f", inv, "--g", geo], ["cross-gram", "--f", geo, "--g", fast],
                 ["dual-check", "--f", geo, "--g", fast]):
        assert cli.main([*argv, "--dim", "40000"]) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err.splitlines()) == ("", [line]), argv


def test_overflowing_real_geometric_specs_keep_their_refusals(tmp_path, capsys):
    # real specs stream float64 terms, with no imaginary channel to turn an
    # overflowing power into NaN; each line below was recorded from the complex
    # stream, and the counts and the order (f first) must not move
    def geo(value, ratio):
        return {"kind": "scaled_basis", "weight": {
            "rule": "geometric", "value": [value, 0], "ratio": [ratio, 0]}}

    specs = {
        "r10.json": geo(1, 10),  # past MAX_ENTRY from term 65, finite to 309
        "r1e10.json": geo(1, 1e10),  # inf from term 32
        "r11.json": geo(-2, -1.1),  # past its power tables (2**13 cycles)
        "tail.json": {"kind": "pattern", "head": [{"index": 1, "coeff": [3, 0]}], "tail": [
            {"start_index": 2, "index_step": 1, "coeff": [0.5, 0], "coeff_rule": "geometric",
             "ratio": [1e10, 0]},
            {"start_index": 3, "index_step": 1}]},
    }
    paths = {name: write_spec(tmp_path, name, payload) for name, payload in specs.items()}
    larger = "matrix entries must be at most MAX_ENTRY = 1e+64 in modulus ({} larger entries)"
    finite = "matrix entries must be finite ({} non-finite entries)"
    cases = (
        (["classify", "--input", "r10.json", "--dim", "100"], "r10.json", larger.format(36)),
        (["classify", "--input", "r1e10.json", "--dim", "40"], "r1e10.json", finite.format(9)),
        (["classify", "--input", "r11.json", "--dim", "20000"], "r11.json", finite.format(12560)),
        (["classify", "--input", "tail.json", "--dim", "100"], "tail.json", finite.format(19)),
        (["cross-gram", "--f", "r1e10.json", "--g", "r10.json", "--dim", "100"], "r1e10.json",
         finite.format(69)),
        (["cross-gram", "--f", "r10.json", "--g", "r1e10.json", "--dim", "100"], "r10.json",
         larger.format(36)),
        (["dual-check", "--f", "r11.json", "--g", "r10.json", "--dim", "20000"], "r11.json",
         finite.format(12560)),
    )
    for argv, name, message in cases:
        argv = [paths.get(arg, arg) for arg in argv]
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"crossgram: error: {paths[name]}: {message}\n"), argv


def test_block_reports_to_a_million_terms_hold_only_their_bins(tmp_path, monkeypatch, capsys):
    # the reports stream their terms into per-index bins held in a window a few
    # chunks wide that slides along the span, each leaf of bins read off once
    # no later term reaches it: the peak does not grow with the span (decimal
    # megabytes below; a pair with blocks of 2+ terms also holds their q)
    monkeypatch.chdir(tmp_path)
    Path("inv.json").write_text(json.dumps(MONOMIAL_SPECS["inv.json"]))
    n = "1000000"
    pair = ["--f", "inv.json", "--g", "inv.json", "--dim", n]
    bounds = (
        (["classify", "--input", "inv.json", "--dim", n], 1),
        (["dual-check", *pair], 1.5),
        (["cross-gram", *pair], 2.5),
        (["example", "--id", "ex-identity", "--dim", n], 2.5),
        (["example", "--id", "ex-canonical", "--dim", n], 4),
        (["example", "--id", "ex-blocked", "--dim", n], 2.5),
    )
    assert cli.main(["example", "--id", "ex-canonical", "--dim", "8"]) == 0  # lazy imports
    for argv, megabytes in bounds:
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0, argv
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= megabytes * 10**6, (argv, peak)
    capsys.readouterr()
