"""Out-of-band spans around the program's layers, for the traced run.

The wrappers are the benchmark's own: while a ``Tracer`` is installed, every
public function of the six crossgram modules and the main ``numpy.linalg``
entry points is replaced by a wrapper that records a span (name, start, end,
parent span, operation id).  Spans stay in memory and are written as JSON
lines when the run ends.  A name that a later refactor removes or moves is
simply never recorded, so its metric reads zero instead of failing the run.

A layer's self time is its span duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
import tracemalloc
from typing import NamedTuple

LAYERS = ("cli", "serialize", "sequences", "operators", "linalg", "diagnostics")
LAPACK = "numpy.linalg"
_NUMPY_LINALG = (
    "svd", "norm", "eigvalsh", "eigh", "eig", "eigvals", "solve", "inv",
    "qr", "pinv", "lstsq", "det", "slogdet", "matrix_rank", "cond",
)


class Span(NamedTuple):
    op: int
    sid: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    n: int | None = None  # a count the wrapped call reports (terms, ord-2 norms)

    @property
    def layer(self) -> str:
        return self.name.rpartition(".")[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _terms_count(args, kwargs, result):
    return int(len(result[0]))


def _norm2_flag(args, kwargs, result):
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return 1 if order == 2 else 0


_NOTES = {
    "sequences.monomial_terms": _terms_count,
    "numpy.linalg.norm": _norm2_flag,
}


class Tracer:
    """Collects spans from wrapped functions; install with ``with tracer:``."""

    def __init__(self, measure_memory: tuple[str, ...] = ()):
        """``measure_memory`` names wrapped functions whose calls also record
        their tracemalloc peak (allocations made inside the call)."""
        self.spans: list[Span] = []
        self.op = 0
        self.peaks: dict[int, int] = {}  # op -> largest allocation peak inside a measured span
        self._measure_memory = frozenset(measure_memory)
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        note = _NOTES.get(name)
        remember = name in self._measure_memory
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            measure = remember and not tracemalloc.is_tracing()
            if measure:  # trace allocations only inside this call
                tracemalloc.start()
            n = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note:
                    n = note(args, kwargs, result)
                return result
            finally:  # a call that raises still gets its span
                end = clock()
                stack.pop()
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[self.op] = max(self.peaks.get(self.op, 0), peak)
                spans.append(Span(self.op, sid, parent, name, start, end, n))

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        import numpy

        for layer in LAYERS:
            module = importlib.import_module(f"crossgram.{layer}")
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                self._patch(module, attr, f"{layer}.{attr}")
        for attr in _NUMPY_LINALG:
            if hasattr(numpy.linalg, attr):
                self._patch(numpy.linalg, attr, f"{LAPACK}.{attr}")
        return self

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def write_jsonl(self, path: str) -> None:
        """One JSON array per span, fields in ``Span._fields`` order (the first line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span._fields) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time (ns) of each span: duration minus the union of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration_ns - covered
    return out


def _outermost(spans, names) -> list[Span]:
    """Spans in ``names`` that have no ancestor in ``names``."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _layer_names(spans, layer: str, exclude=()) -> set[str]:
    return {s.name for s in spans if s.layer == layer and s.name not in exclude}


_DECODE = {"serialize.load_sequence_file", "serialize.spec_from_json"}
_ENCODE = {
    "serialize.build_envelope", "serialize.to_jsonable", "serialize.render_json",
    "serialize.render_text", "serialize.emit_report",
}
_REALIZE = {"sequences.realize", "sequences.paper_example"}
_RANDOM = {"sequences.random_riesz_pair", "sequences.random_frame", "sequences.alternate_dual"}
_LINALG_PLUMBING = {"linalg.as_matrix", "linalg.adjoint", "linalg.matmul"}


def op_layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one operation's spans; times in seconds."""
    selfs = self_times(spans)

    def inclusive(names) -> float:
        return sum(s.duration_ns for s in _outermost(spans, set(names))) / 1e9

    def self_of(layer: str) -> float:
        return sum(selfs[s.sid] for s in spans if s.layer == layer) / 1e9

    def calls(*names) -> int:
        return sum(1 for s in spans if s.name in names)

    terms = _outermost(spans, {"sequences.monomial_terms"})
    return {
        "cli.self_s": self_of("cli"),
        "serialize.decode_s": inclusive(_DECODE),
        "serialize.encode_s": inclusive(_ENCODE),
        "sequences.terms_s": inclusive({"sequences.monomial_terms"}),
        "sequences.terms": sum(s.n or 0 for s in terms),
        "sequences.realize_s": inclusive(_REALIZE),
        "sequences.random_s": inclusive(_RANDOM),
        "operators.s": inclusive(_layer_names(spans, "operators")),
        "operators.calls": sum(1 for s in spans if s.layer == "operators"),
        "linalg.validate_calls": calls("linalg.as_matrix"),
        "linalg.validate_s": inclusive({"linalg.as_matrix"}),
        "linalg.spectral_s": inclusive(_layer_names(spans, "linalg", _LINALG_PLUMBING)),
        "linalg.svd_calls": calls(f"{LAPACK}.svd"),
        "linalg.norm2_calls": sum(s.n or 0 for s in spans if s.name == f"{LAPACK}.norm"),
        "linalg.eigh_calls": calls(f"{LAPACK}.eigh", f"{LAPACK}.eigvalsh"),
        "linalg.solve_calls": calls(f"{LAPACK}.solve"),
        "linalg.lapack_s": inclusive(_layer_names(spans, LAPACK)),
        "diagnostics.self_s": self_of("diagnostics"),
        "diagnostics.duality_s": inclusive({"diagnostics.check_duality"}),
    }


def layer_shares(spans) -> dict[str, float]:
    """Each layer's self time as a share of the root spans' total time."""
    selfs = self_times(spans)
    total = sum(s.duration_ns for s in spans if s.parent is None)
    shares = {}
    for layer in (*LAYERS, LAPACK):
        own = sum(selfs[s.sid] for s in spans if s.layer == layer)
        shares[layer] = own / total if total else 0.0
    return shares
