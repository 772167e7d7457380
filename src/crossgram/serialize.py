"""JSON interchange: sequence spec files, report envelopes, text rendering.

Complex scalars travel as two-element arrays [re, im].  Matrices travel
column-major (a list of columns, each a list of [re, im] pairs).  Report
envelopes carry no timestamps or host details so identical inputs produce
identical bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import re
import tempfile
from functools import partial
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any

import numpy as np

from .sequences import (
    _COEFF_RULES,
    _KINDS,
    _ROLES,
    _WEIGHT_RULES,
    PatternProgram,
    PatternTerm,
    SequenceSpec,
    TailSlot,
    WeightRule,
    _check_dense,
    _Decoded,
)

TOOL_NAME = "crossgram"


class SpecFileError(ValueError):
    """A sequence spec file failed to parse or validate."""

    def __init__(self, message: str, *, source: str, field: str | None = None):
        where = source if field is None else f"{source}: {field}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.field = field


# each check formats its message, a repr of the bad value, only once it has
# failed, so a passing check on a large spec costs no repr
_ECHO_LIMIT = 200  # characters of that repr a message keeps


def _echo(obj: Any) -> str:
    """``repr(obj)`` for an error message, cut past ``_ECHO_LIMIT`` characters."""
    text = repr(obj)
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


def _complex(obj: Any, source: str, field: str) -> complex:
    ok = (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    )
    if not ok:
        raise SpecFileError(
            f"expected a complex scalar as [re, im], got {_echo(obj)}", source=source, field=field
        )
    try:
        return complex(obj[0], obj[1])
    except OverflowError:  # an integer past the float range
        raise SpecFileError(
            "[re, im] parts must be within the float range", source=source, field=field
        ) from None


def _integer(obj: Any, source: str, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SpecFileError(f"expected an integer, got {_echo(obj)}", source=source, field=field)
    return obj


def _string(obj: Any, source: str, field: str, allowed: tuple[str, ...] | None = None) -> str:
    if not isinstance(obj, str):
        raise SpecFileError(f"expected a string, got {_echo(obj)}", source=source, field=field)
    if allowed is not None and obj not in allowed:
        raise SpecFileError(
            f"expected one of {sorted(allowed)}, got {_echo(obj)}", source=source, field=field
        )
    return obj


def _object(obj: Any, source: str, field: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError(f"expected an object, got {_echo(obj)}", source=source, field=field)
    return obj


def _array(obj: Any, source: str, field: str) -> list:
    if not isinstance(obj, list):
        raise SpecFileError(f"expected an array, got {_echo(obj)}", source=source, field=field)
    return obj


def _block(cols: list) -> np.ndarray | None:
    """Equal-width explicit columns as one complex128 (count, dim) array, bit for
    bit what ``complex(re, im)`` gives; None for an entry other than an exact
    [re, im] list of int or float parts within the float range, or a ragged column."""
    if set(map(type, cols)) == {list} and len(set(map(len, cols))) == 1:
        entries = list(chain.from_iterable(cols))
        if (
            set(map(type, entries)) == {list}
            and set(map(len, entries)) == {2}
            and set(map(type, chain.from_iterable(entries))) <= {int, float}
        ):
            with contextlib.suppress(OverflowError):  # an integer past the float range
                flat = np.fromiter(chain.from_iterable(entries), np.float64, 2 * len(entries))
                return flat.view(np.complex128).reshape(len(cols), -1)
    return None


def _joined(blocks: list) -> np.ndarray:
    """Equal-width ``_block`` arrays as one (count, dim) array whose transpose is
    C-contiguous: the matrix ``realize`` takes without a copy."""
    t = np.empty((blocks[0].shape[1], sum(map(len, blocks))), np.complex128)
    return np.concatenate([b.T for b in blocks], axis=1, out=t).T.view(_Decoded)


def _as_array(cols: list) -> np.ndarray | None:
    """Explicit columns converted ``_BATCH`` at a time and joined, as a streamed
    file's are; None when a batch declines or two batches differ in width."""
    blocks = [_block(cols[j : j + _BATCH]) for j in range(0, len(cols), _BATCH)]
    if blocks and all(b is not None for b in blocks) and len({b.shape[1] for b in blocks}) == 1:
        return _joined(blocks)
    return None


def _columns_from(obj: Any, source: str, field: str):
    """Explicit columns as ``_as_array`` lays them out, taken without a copy,
    or as the walker's tuples when the fast path declines them."""
    cols = _array(obj, source, field)
    if (fast := _as_array(cols)) is not None:
        return fast
    if not cols:
        raise SpecFileError("columns must be nonempty", source=source, field=field)
    out = []
    for j, col in enumerate(cols):
        entries = _array(col, source, f"{field}[{j}]")
        out.append(
            tuple(_complex(x, source, f"{field}[{j}][{i}]") for i, x in enumerate(entries))
        )
    width = len(out[0])
    if not width:
        raise SpecFileError("column 0 has length 0, expected at least 1", source=source, field=field)
    for j, col in enumerate(out):
        if len(col) != width:
            raise SpecFileError(
                f"column {j} has length {len(col)}, expected {width}",
                source=source,
                field=field,
            )
    return tuple(out)


def _alias(short: str, long_: str, a: int | None, b: int | None) -> int:
    """Whichever of ``a`` (read under ``short``) and ``b`` (under its alias ``long_``) was
    given: exactly one must be."""
    if a is not None and b is not None:
        raise ValueError(f"keys {short!r} and {long_!r} are aliases; give exactly one")
    if a is None and b is None:
        raise ValueError(f"missing required key {short!r} (alias {long_!r})")
    return a if b is None else b


def _each(read):
    """A reader of an array whose items ``read`` reads, each named by its place."""
    return lambda obj, source, field: tuple(
        read(x, source, f"{field}[{i}]") for i, x in enumerate(_array(obj, source, field))
    )


def _read(obj: Any, source: str, field: str | None, name: str) -> Any:
    """The object at ``field`` (None for the spec itself) built as ``_LAYOUTS[name]`` lays it
    out: a key outside the layout is refused, then a missing required key, then a key its rule
    never reads; the rest are read in order, and the constructor's ValueError names ``field``."""
    keys, make, *rules = _LAYOUTS[name]
    data = _object(obj, source, field)
    if extra := data.keys() - keys:
        what = name if field else f"kind {name!r}"
        raise SpecFileError(
            f"unexpected keys for {what}: {_echo(sorted(extra))}", source=source, field=field
        )
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in data:
            raise SpecFileError(f"missing required key {key!r}", source=source, field=field)
    for key, reads in rules:
        read, default = keys[key]
        rule = read(data[key], source, f"{field}.{key}") if key in data else default
        if unread := data.keys() & set().union(*reads.values()) - set(reads[rule]):
            message = f"unexpected keys for {key} {rule!r}: {_echo(sorted(unread))}"
            raise SpecFileError(message, source=source, field=field)
    values = {
        key: read(data[key], source, f"{field}.{key}" if field else key) if key in data else default
        for key, (read, default) in keys.items()
    }
    try:
        return make(**values)
    except ValueError as exc:
        raise SpecFileError(str(exc), source=source, field=field) from exc


# every object a spec file holds, by its kind or name: its keys in the order they are
# read, each with its reader (obj, source, field) and its default or _REQUIRED, the
# constructor that takes the values read by key, and for an object with a rule, that key
# and, by rule, which of the keys that only some rules read it reads
_REQUIRED = object()
_INTEGER = (_integer, None)  # one of an alias pair, which _alias resolves
_LAYOUTS = {
    "explicit": ({"columns": (_columns_from, _REQUIRED)}, SequenceSpec.explicit),
    "scaled_basis": (
        {"weight": (partial(_read, name="weight"), _REQUIRED)},
        SequenceSpec.scaled_basis,
    ),
    "pattern": (
        {
            "head": (_each(partial(_read, name="head term")), _REQUIRED),
            "tail": (_each(partial(_read, name="tail slot")), _REQUIRED),
        },
        lambda head, tail: SequenceSpec.pattern(PatternProgram(head, tail)),
    ),
    "paper_example": (
        {"example": (_string, _REQUIRED), "role": (partial(_string, allowed=_ROLES), _REQUIRED)},
        SequenceSpec.paper_example,
    ),
    "random_riesz": (
        {"d": _INTEGER, "dim": _INTEGER, "seed": (_integer, _REQUIRED)},
        lambda d, dim, seed: SequenceSpec.random_riesz(_alias("d", "dim", d, dim), seed),
    ),
    "random_frame": (
        {
            "d": _INTEGER,
            "dim": _INTEGER,
            "n": _INTEGER,
            "count": _INTEGER,
            "seed": (_integer, _REQUIRED),
        },
        lambda d, dim, n, count, seed: SequenceSpec.random_frame(
            _alias("d", "dim", d, dim), _alias("n", "count", n, count), seed
        ),
    ),
    "weight": (
        {
            "rule": (partial(_string, allowed=_WEIGHT_RULES), _REQUIRED),
            "value": (_complex, 1.0),
            "ratio": (_complex, 0.5),
            "values": (_each(_complex), None),
        },
        WeightRule,
        ("rule", {"inverse_index": (), "index": (), "constant": ("value",),
                  "geometric": ("value", "ratio"), "table": ("values",)}),
    ),
    "head term": ({"index": (_integer, _REQUIRED), "coeff": (_complex, 1 + 0j)}, PatternTerm),
    "tail slot": (
        {
            "start_index": (_integer, _REQUIRED),
            "index_step": (_integer, 0),
            "coeff": (_complex, 1 + 0j),
            "coeff_rule": (partial(_string, allowed=_COEFF_RULES), "constant"),
            "ratio": (_complex, 1 + 0j),
        },
        TailSlot,
        ("coeff_rule", {"constant": (), "geometric": ("ratio",), "inverse_term": ()}),
    ),
}


def spec_from_json(obj: Any, *, source: str = "<json>") -> SequenceSpec:
    """Decode a sequence spec from parsed JSON, with field-level errors: ``kind`` is read
    here, and the other keys by that kind's layout."""
    data = dict(_object(obj, source, None))
    if "kind" not in data:
        raise SpecFileError("missing required key 'kind'", source=source)
    kind = _string(data.pop("kind"), source, "kind", allowed=_KINDS)
    return _read(data, source, None, kind)


_WS = "[ \t\n\r]*"  # JSON whitespace
_KIND = f'{_WS}"kind"{_WS}:{_WS}"explicit"{_WS}'
# an explicit spec's frame, either key first: opening, comma between columns, closing
_OPEN = re.compile(f'{_WS}{{({_KIND},)?{_WS}"columns"{_WS}:{_WS}\\[{_WS}')
_COMMA = re.compile(f"{_WS},{_WS}")
_CLOSE = re.compile(f"{_WS}\\]{_WS}(,{_KIND})?}}{_WS}")
_DECODER = json.JSONDecoder()
_BATCH = 16  # columns whose types are checked at once
_READ = 1 << 16  # characters per read of a spec file


def _columns(fh):
    """The columns of the explicit spec in the open file ``fh``, read ``_READ`` characters at
    a time; ValueError at the first text that is not such a spec.  Each step, a separator and a
    column, is parsed by json's scanner with twice the longest step yet read held past it, so a
    read cuts one only when a column grows: that step is parsed again on twice the text held."""
    text, at, ahead, end, sep, head = "", 0, 1, False, _OPEN, ""
    while True:
        while len(text) - at < ahead and not end:  # whole reads of _READ characters
            step, text = None, text[at:] + fh.read((len(text) - at - ahead) // _READ * -_READ)
            at, end = 0, len(text) < ahead
        step, i = sep.match(text, at), -1
        with contextlib.suppress(json.JSONDecodeError):  # a column cut by the read, or a fault
            col, i = _DECODER.raw_decode(text, step.end()) if step else (None, -1)
        if i >= 0:
            yield col
            ahead, at, sep, head = max(ahead, 2 * (i - at)), i, _COMMA, head or step[0]
        elif end or not (step or sep is _COMMA or "[" not in text):  # the opening ends at "["
            break
        else:
            ahead = 2 * (len(text) - at)
    tail = sep is _COMMA and _CLOSE.fullmatch(text, at)  # each key once, either first
    if not tail or ('"kind"' in head) == (tail.group(1) is not None):
        raise ValueError("not an explicit spec the stream reads")


def _stream_explicit(fh) -> np.ndarray | None:
    """The explicit spec in ``fh`` as one complex128 (count, dim) array, ``_BATCH`` columns at a
    time; None for any other input or fault, ValueError at a batch past ``MAX_DENSE_ENTRIES``."""
    cols, blocks, count = _columns(fh), [], 0
    while True:
        try:
            batch = list(islice(cols, _BATCH))
        except (ValueError, RecursionError):  # JSONDecodeError and UnicodeDecodeError among them
            return None
        if not batch:
            return _joined(blocks)
        blocks.append(_block(batch))
        if blocks[-1] is None or blocks[-1].shape[1] != blocks[0].shape[1]:
            return None
        count, batch = count + len(batch), None  # its lists are freed before the next batch
        _check_dense(blocks[0].shape[1], count, "realization of the columns read")


def load_sequence_file(path: str) -> SequenceSpec:
    """Read and decode one sequence spec from a JSON file."""
    # a json.loads tree holds no cycle, yet its lists set off ~35 fruitless collections
    # per 128 x 192 explicit spec the stream declines, so the collector is paused; a
    # young collection first keeps earlier commands' cyclic garbage out of the peak
    enabled = gc.isenabled()
    gc.collect(0)
    gc.disable()
    try:
        return _decode_file(path)
    finally:
        if enabled:
            gc.enable()


def _decode_file(path: str) -> SequenceSpec:
    """``load_sequence_file``'s read and decode: the parsed tree is dropped when
    this returns, before the collector is put back."""
    try:
        with open(path, encoding="utf-8") as fh:
            if (m := _stream_explicit(fh)) is not None:
                return SequenceSpec.explicit(m)
            fh.seek(0)  # declined: the file is read again whole
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read file: {exc.strerror}", source=path) from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(
            f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}",
            source=path,
        ) from exc
    except ValueError as exc:  # the stream's dense budget
        raise SpecFileError(str(exc), source=path) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            source=path,
        ) from exc
    except RecursionError:  # arrays or objects nested past the parser's depth
        raise SpecFileError("invalid JSON: nested too deeply", source=path) from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SpecFileError(f"invalid JSON: {exc}", source=path) from exc
    del text  # freed before the tree is decoded, so the two never peak together
    return spec_from_json(obj, source=path)


# each report dataclass's field names, sorted; the JSON text of each leaf type
# but float, whose text also needs a finite value
_FIELDS: dict[type, tuple[str, ...]] = {}
_NAMED = {None: "null", True: "true", False: "false"}
_LEAVES = {str: _quote, int: int.__repr__, bool: _NAMED.get, type(None): _NAMED.get}


def _plain(obj: Any) -> Any:
    """A value other than a list, tuple or exact JSON leaf, as the writers read it: a dict or
    report dataclass as a dict sorted by key, a numpy scalar as a Python one, a complex as
    [re, im], and a subclass of float, int or str as a value of that type."""
    cls = type(obj)
    if cls not in _FIELDS and dataclasses.is_dataclass(cls):
        _FIELDS[cls] = tuple(sorted(f.name for f in dataclasses.fields(cls)))
    if cls in _FIELDS:
        return {name: getattr(obj, name) for name in _FIELDS[cls]}
    if isinstance(obj, dict):
        return dict(sorted({str(k): v for k, v in obj.items()}.items()))
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    for base in (float, int, str):
        if isinstance(obj, base):
            return base(obj)
    raise TypeError(f"cannot serialize {cls.__name__}")


def build_envelope(command: str, config: dict, report: Any) -> dict:
    """Assemble the report envelope shared by every command, its objects as they are."""
    from crossgram import __version__

    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "config": config,
        "report": report,
    }


def render_json(envelope: dict) -> str:
    """``json.dumps(indent=2, sort_keys=True, allow_nan=False)`` of the plain envelope, in one pass."""
    return _json(envelope, "\n") + "\n"


def _json(value: Any, nl: str) -> str:
    """The JSON text of ``value`` nested at the indent that ends ``nl``."""
    cls = type(value)
    if cls is float and isfinite(value):
        return float.__repr__(value)
    if cls in _LEAVES:
        return _LEAVES[cls](value)
    if cls is float:  # json's own message
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        return f"[{','.join([inner + _json(v, inner) for v in value])}{nl}]" if value else "[]"
    if type(value := _plain(value)) is not dict:
        return _json(value, nl)
    items = [f"{inner}{_quote(k)}: {_json(v, inner)}" for k, v in value.items()]
    return f"{{{','.join(items)}{nl}}}" if items else "{}"


def render_text(envelope: dict) -> str:
    """Flatten the envelope into sorted "dotted.path = value" lines."""
    lines: list[str] = []
    _walk(lines, "", envelope)
    return "\n".join(lines) + "\n"


def _walk(lines: list[str], prefix: str, value: Any) -> None:
    """Append the "path = value" lines of ``value`` under ``prefix`` to ``lines``:
    a module-level function, so a render leaves no closure cycle behind."""
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _walk(lines, f"{prefix}[{i}]", item)
    elif type(value) in _LEAVES or type(value) is float:
        lines.append(f"{prefix} = {value}")
    elif type(value := _plain(value)) is not dict:
        _walk(lines, prefix, value)
    else:
        for key, item in value.items():
            _walk(lines, f"{prefix}.{key}" if prefix else key, item)


def emit_report(envelope: dict, *, fmt: str = "json", out: str | None = None) -> str:
    """Render the envelope; write atomically to *out* or return the text.
    A failed write names *out* and the OS reason, not the temporary file."""
    if fmt == "json":
        text = render_json(envelope)
    elif fmt == "text":
        text = render_text(envelope)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'text'")
    if out is not None:
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(tmp, out)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise OSError(f"{out}: cannot write report: {exc.strerror or exc}") from exc
    return text
