"""JSON interchange: sequence spec files, report envelopes, text rendering.

Complex scalars travel as two-element arrays [re, im].  Matrices travel
column-major (a list of columns, each a list of [re, im] pairs).  Report
envelopes carry no timestamps or host details so identical inputs produce
identical bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from itertools import chain
from typing import Any

import numpy as np

from .sequences import (
    _COEFF_RULES,
    _ROLES,
    _WEIGHT_RULES,
    PatternProgram,
    PatternTerm,
    SequenceSpec,
    TailSlot,
    WeightRule,
)

TOOL_NAME = "crossgram"

_SPEC_KEYS = {
    "explicit": {"kind", "columns"},
    "scaled_basis": {"kind", "weight"},
    "pattern": {"kind", "head", "tail"},
    "paper_example": {"kind", "example", "role"},
    "random_riesz": {"kind", "d", "dim", "seed"},
    "random_frame": {"kind", "d", "dim", "n", "count", "seed"},
}


class SpecFileError(ValueError):
    """A sequence spec file failed to parse or validate."""

    def __init__(self, message: str, *, source: str, field: str | None = None):
        where = source if field is None else f"{source}: {field}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.field = field


# each check formats its message, a repr of the bad value, only once it has
# failed, so a passing check on a large spec costs no repr


def _complex(obj: Any, source: str, field: str) -> complex:
    ok = (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    )
    if not ok:
        raise SpecFileError(
            f"expected a complex scalar as [re, im], got {obj!r}", source=source, field=field
        )
    try:
        return complex(obj[0], obj[1])
    except OverflowError:  # an integer past the float range
        raise SpecFileError(
            "[re, im] parts must be within the float range", source=source, field=field
        ) from None


def _integer(obj: Any, source: str, field: str) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SpecFileError(f"expected an integer, got {obj!r}", source=source, field=field)
    return obj


def _string(obj: Any, source: str, field: str, allowed: tuple[str, ...] | None = None) -> str:
    if not isinstance(obj, str):
        raise SpecFileError(f"expected a string, got {obj!r}", source=source, field=field)
    if allowed is not None and obj not in allowed:
        raise SpecFileError(
            f"expected one of {sorted(allowed)}, got {obj!r}", source=source, field=field
        )
    return obj


def _object(obj: Any, source: str, field: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecFileError(f"expected an object, got {obj!r}", source=source, field=field)
    return obj


def _array(obj: Any, source: str, field: str) -> list:
    if not isinstance(obj, list):
        raise SpecFileError(f"expected an array, got {obj!r}", source=source, field=field)
    return obj


def _get(obj: dict, key: str, source: str, field: str) -> Any:
    if key not in obj:
        raise SpecFileError(f"missing required key {key!r}", source=source, field=field)
    return obj[key]


def _sized(data: dict, short: str, long_: str, source: str) -> int:
    """Integer stored under a short key with a long alias; exactly one allowed."""
    present = [k for k in (short, long_) if k in data]
    if len(present) == 2:
        raise SpecFileError(
            f"keys {short!r} and {long_!r} are aliases; give exactly one", source=source
        )
    if not present:
        raise SpecFileError(f"missing required key {short!r} (alias {long_!r})", source=source)
    return _integer(data[present[0]], source, present[0])


def _columns_from(obj: Any, source: str):
    """Explicit columns as one complex128 (count, dim) array, or as the
    walker's tuples when the fast path declines them."""
    cols = _array(obj, source, "columns")
    # one scan of exact types (bool, str and tuple decline) and lengths, then
    # one conversion; error messages come only from the walker below
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
    if not cols:
        raise SpecFileError("columns must be nonempty", source=source, field="columns")
    out = []
    for j, col in enumerate(cols):
        entries = _array(col, source, f"columns[{j}]")
        out.append(
            tuple(_complex(x, source, f"columns[{j}][{i}]") for i, x in enumerate(entries))
        )
    width = len(out[0])
    for j, col in enumerate(out):
        if len(col) != width:
            raise SpecFileError(
                f"column {j} has length {len(col)}, expected {width}",
                source=source,
                field="columns",
            )
    return tuple(out)


def _weight_from(obj: Any, source: str, field: str) -> WeightRule:
    data = _object(obj, source, field)
    rule = _string(
        _get(data, "rule", source, field),
        source,
        f"{field}.rule",
        allowed=_WEIGHT_RULES,
    )
    value = complex(_complex(data["value"], source, f"{field}.value")) if "value" in data else 1.0
    ratio = complex(_complex(data["ratio"], source, f"{field}.ratio")) if "ratio" in data else 0.5
    values = None
    if "values" in data:
        arr = _array(data["values"], source, f"{field}.values")
        values = tuple(_complex(x, source, f"{field}.values[{i}]") for i, x in enumerate(arr))
    try:
        return WeightRule(rule=rule, value=value, ratio=ratio, values=values)
    except ValueError as exc:
        raise SpecFileError(str(exc), source=source, field=field) from exc


def _term_from(obj: Any, source: str, field: str) -> PatternTerm:
    data = _object(obj, source, field)
    index = _integer(_get(data, "index", source, field), source, f"{field}.index")
    coeff = _complex(data.get("coeff", [1.0, 0.0]), source, f"{field}.coeff")
    try:
        return PatternTerm(index=index, coeff=coeff)
    except ValueError as exc:
        raise SpecFileError(str(exc), source=source, field=field) from exc


def _slot_from(obj: Any, source: str, field: str) -> TailSlot:
    data = _object(obj, source, field)
    start = _integer(_get(data, "start_index", source, field), source, f"{field}.start_index")
    step = _integer(data.get("index_step", 0), source, f"{field}.index_step")
    coeff = _complex(data.get("coeff", [1.0, 0.0]), source, f"{field}.coeff")
    rule = _string(
        data.get("coeff_rule", "constant"),
        source,
        f"{field}.coeff_rule",
        allowed=_COEFF_RULES,
    )
    ratio = _complex(data.get("ratio", [1.0, 0.0]), source, f"{field}.ratio")
    try:
        return TailSlot(
            start_index=start, index_step=step, coeff=coeff, coeff_rule=rule, ratio=ratio
        )
    except ValueError as exc:
        raise SpecFileError(str(exc), source=source, field=field) from exc


def spec_from_json(obj: Any, *, source: str = "<json>") -> SequenceSpec:
    """Decode a sequence spec from parsed JSON, with field-level errors."""
    data = _object(obj, source, None)
    kind = _string(
        _get(data, "kind", source, None),
        source,
        "kind",
        allowed=tuple(_SPEC_KEYS),
    )
    extra = set(data) - _SPEC_KEYS[kind]
    if extra:
        raise SpecFileError(f"unexpected keys for kind {kind!r}: {sorted(extra)}", source=source)
    try:
        if kind == "explicit":
            return SequenceSpec.explicit(_columns_from(_get(data, "columns", source, None), source))
        if kind == "scaled_basis":
            return SequenceSpec.scaled_basis(
                _weight_from(_get(data, "weight", source, None), source, "weight")
            )
        if kind == "pattern":
            head_arr = _array(_get(data, "head", source, None), source, "head")
            tail_arr = _array(_get(data, "tail", source, None), source, "tail")
            head = tuple(_term_from(t, source, f"head[{i}]") for i, t in enumerate(head_arr))
            tail = tuple(_slot_from(s, source, f"tail[{i}]") for i, s in enumerate(tail_arr))
            return SequenceSpec.pattern(PatternProgram(head=head, tail=tail))
        if kind == "paper_example":
            example = _string(_get(data, "example", source, None), source, "example")
            role = _string(_get(data, "role", source, None), source, "role", allowed=_ROLES)
            return SequenceSpec.paper_example(example, role)
        if kind == "random_riesz":
            return SequenceSpec.random_riesz(
                dim=_sized(data, "d", "dim", source),
                seed=_integer(_get(data, "seed", source, None), source, "seed"),
            )
        return SequenceSpec.random_frame(
            dim=_sized(data, "d", "dim", source),
            count=_sized(data, "n", "count", source),
            seed=_integer(_get(data, "seed", source, None), source, "seed"),
        )
    except SpecFileError:
        raise
    except ValueError as exc:
        raise SpecFileError(str(exc), source=source, field=None) from exc


def load_sequence_file(path: str) -> SequenceSpec:
    """Read and decode one sequence spec from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read file: {exc.strerror}", source=path) from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(
            f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}",
            source=path,
        ) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            source=path,
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise SpecFileError(f"invalid JSON: {exc}", source=path) from exc
    return spec_from_json(obj, source=path)


def to_jsonable(obj: Any) -> Any:
    """Convert dataclasses, tuples, and numpy scalars to plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        return to_jsonable(obj.item())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, float):
        return float(obj)
    if obj is None or isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def build_envelope(command: str, config: dict, report: Any) -> dict:
    """Assemble the report envelope shared by every command."""
    from crossgram import __version__

    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "config": to_jsonable(config),
        "report": to_jsonable(report),
    }


def render_json(envelope: dict) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_text(envelope: dict) -> str:
    """Flatten the envelope into sorted "dotted.path = value" lines."""
    lines: list[str] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{prefix}[{i}]", item)
        else:
            lines.append(f"{prefix} = {value}")

    walk("", envelope)
    return "\n".join(lines) + "\n"


def emit_report(envelope: dict, *, fmt: str = "json", out: str | None = None) -> str:
    """Render the envelope; write atomically to *out* or return the text."""
    if fmt == "json":
        text = render_json(envelope)
    elif fmt == "text":
        text = render_text(envelope)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'text'")
    if out is not None:
        directory = os.path.dirname(os.path.abspath(out))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return text
