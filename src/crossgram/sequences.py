"""Sequence specifications, realization, worked examples, and generators.

A sequence of vectors is described by a small declarative spec and realized
as a matrix whose columns are the first N terms in the standard basis.  The
registry entries reproduce classical worked examples (identity cross-Gram,
summable Hilbert-Schmidt interleaving, index-blocked repeats, a single-line
bounded operator, and a frame with its canonical dual); everything they need
is expressible as finite pattern data, never as code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import linalg

MAX_CONDITION = 100.0
MAX_ATTEMPTS = 64

_WEIGHT_RULES = ("inverse_index", "index", "constant", "geometric", "table")
_COEFF_RULES = ("constant", "geometric", "inverse_term")
_KINDS = ("explicit", "scaled_basis", "pattern", "paper_example", "random_riesz", "random_frame")
_ROLES = ("f", "g")
# kinds whose every term is one coefficient on one basis vector
MONOMIAL_KINDS = ("scaled_basis", "pattern", "paper_example")

# disjoint generator streams so equal seeds never alias across kinds
_STREAM_RIESZ_F = 0
_STREAM_RIESZ_G = 1
_STREAM_FRAME = 2
_STREAM_DUAL = 3


class GenerationError(RuntimeError):
    """Random generation exhausted its resampling budget."""


def _seed_path(seed) -> tuple[int, ...]:
    """Normalize an integer seed or a tuple of stream indices."""
    if isinstance(seed, (int, np.integer)):
        items = (int(seed),)
    else:
        items = tuple(int(s) for s in seed)
        if not items:
            raise ValueError("seed path must be nonempty")
    for s in items:
        if s < 0:
            raise ValueError(f"seed entries must be >= 0, got {s}")
    return items


# --------------------------------------------------------------------------
# weight rules and pattern programs

# basis indices are stored as int64
_MAX_INDEX = int(np.iinfo(np.int64).max)


def _check_index(index: int) -> None:
    if index < 1:
        raise ValueError(f"basis index must be >= 1, got {index}")
    if index > _MAX_INDEX:
        raise ValueError(f"basis index must be <= {_MAX_INDEX}, got {index}")


@dataclass(frozen=True)
class WeightRule:
    """Closed family of scalar weights w(k) for scaled basis sequences.

    Term k (starting at 1) is w(k) e_k with w(k) = 1/k (inverse_index),
    k (index), ``value`` (constant), ``value * ratio**(k-1)`` (geometric),
    or ``values[k-1]`` (table, which has no terms past its last entry).
    """

    rule: str
    value: complex = 1.0
    ratio: complex = 0.5
    values: tuple | None = None

    def __post_init__(self):
        if self.rule not in _WEIGHT_RULES:
            raise ValueError(f"unknown weight rule {self.rule!r}, expected one of {_WEIGHT_RULES}")
        if self.rule == "table":
            if not self.values:
                raise ValueError("weight rule 'table' needs a nonempty value table")
            object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @classmethod
    def inverse_index(cls) -> "WeightRule":
        return cls(rule="inverse_index")

    @classmethod
    def index(cls) -> "WeightRule":
        return cls(rule="index")

    @classmethod
    def constant(cls, value: complex = 1.0) -> "WeightRule":
        return cls(rule="constant", value=complex(value))

    @classmethod
    def geometric(cls, ratio: complex, value: complex = 1.0) -> "WeightRule":
        return cls(rule="geometric", value=complex(value), ratio=complex(ratio))

    @classmethod
    def table(cls, values) -> "WeightRule":
        return cls(rule="table", values=tuple(complex(v) for v in values))


@dataclass(frozen=True)
class PatternTerm:
    """One term: a coefficient on a single standard basis vector."""

    index: int
    coeff: complex

    def __post_init__(self):
        _check_index(self.index)
        object.__setattr__(self, "coeff", complex(self.coeff))


@dataclass(frozen=True)
class TailSlot:
    """One slot of a periodic tail.

    In cycle c (starting at 0) the slot contributes a term on basis index
    ``start_index + c * index_step`` with coefficient ``coeff`` (constant),
    ``coeff * ratio**c`` (geometric), or ``coeff / m`` for overall term
    number m (inverse_term).
    """

    start_index: int
    index_step: int = 0
    coeff: complex = 1.0
    coeff_rule: str = "constant"
    ratio: complex = 1.0

    def __post_init__(self):
        _check_index(self.start_index)
        if not 0 <= self.index_step <= _MAX_INDEX:
            raise ValueError(f"index step must lie in [0, {_MAX_INDEX}], got {self.index_step}")
        if self.coeff_rule not in _COEFF_RULES:
            raise ValueError(
                f"unknown coefficient rule {self.coeff_rule!r}, expected one of {_COEFF_RULES}"
            )
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "ratio", complex(self.ratio))


@dataclass(frozen=True)
class PatternProgram:
    """Explicit head terms followed by an optional periodic tail.

    Term m (starting at 1) is ``head[m-1]`` while m <= len(head).  Past the
    head, term m comes from slot ``(m - len(head) - 1) % len(tail)`` in
    cycle ``(m - len(head) - 1) // len(tail)``; without a tail the pattern
    has no further terms.
    """

    head: tuple = ()
    tail: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "tail", tuple(self.tail))


# --------------------------------------------------------------------------
# sequence specs


class _Decoded(np.ndarray):
    """A decoder's complex128 (count, dim) array in F order, held by nothing else: specs
    take it uncopied, and realize takes its C-contiguous transpose uncopied."""


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative description of a vector sequence."""

    kind: str
    columns: np.ndarray | None = None  # explicit: read-only complex128 (count, dim), F order
    weight: WeightRule | None = None
    program: PatternProgram | None = None
    example: str | None = None
    role: str | None = None
    dim: int | None = None
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}, expected one of {_KINDS}")
        check = getattr(self, f"_check_{self.kind}")
        check()

    def __eq__(self, other):  # the generated == cannot compare an array field
        if not isinstance(other, SequenceSpec):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            if f.name == "columns"
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
        )

    def _check_explicit(self):
        cols = self.columns
        if cols is None or len(cols) == 0:
            raise ValueError("explicit spec needs at least one column")
        width = len(cols[0])
        if width == 0:
            raise ValueError("explicit columns must be nonempty")
        for i, col in enumerate(cols):
            if len(col) != width:
                raise ValueError(f"column {i} has length {len(col)}, expected {width}")
        m = cols.view(np.ndarray) if type(cols) is _Decoded else np.array(cols, np.complex128, order="F")
        if m.ndim != 2:
            raise ValueError("explicit columns must hold complex scalars")
        m.setflags(write=False)
        object.__setattr__(self, "columns", m)

    def _check_scaled_basis(self):
        if self.weight is None:
            raise ValueError("scaled_basis spec needs a weight rule")

    def _check_pattern(self):
        if self.program is None:
            raise ValueError("pattern spec needs a pattern program")

    def _check_paper_example(self):
        if not self.example:
            raise ValueError("paper_example spec needs an example id")
        if self.role not in _ROLES:
            raise ValueError(f"paper_example role must be one of {_ROLES}, got {self.role!r}")

    def _check_random_riesz(self):
        if not self.dim or self.dim < 1:
            raise ValueError(f"random_riesz needs dim >= 1, got {self.dim}")
        self._check_seed()

    def _check_random_frame(self):
        if not self.dim or self.dim < 1:
            raise ValueError(f"random_frame needs dim >= 1, got {self.dim}")
        if self.count is None or self.count < self.dim:
            raise ValueError(
                f"random_frame needs count >= dim, got count {self.count} with dim {self.dim}"
            )
        self._check_seed()

    def _check_seed(self):
        if self.seed is None or self.seed < 0:
            raise ValueError(f"random specs need a seed >= 0, got {self.seed}")

    @functools.cached_property
    def _real(self) -> bool:
        """Whether no term of a scaled_basis or pattern spec can have an imaginary part,
        read once off its values (weight value, ratio, table; coefficients, ratios)."""
        if self.kind == "scaled_basis":
            values = (self.weight.value, self.weight.ratio, *(self.weight.values or ()))
        else:
            values = [t.coeff for t in self.program.head]
            values += [v for slot in self.program.tail for v in (slot.coeff, slot.ratio)]
        return not any(v.imag for v in values)

    @classmethod
    def explicit(cls, columns) -> "SequenceSpec":
        return cls(kind="explicit", columns=columns)

    @classmethod
    def scaled_basis(cls, weight: WeightRule) -> "SequenceSpec":
        return cls(kind="scaled_basis", weight=weight)

    @classmethod
    def pattern(cls, program: PatternProgram) -> "SequenceSpec":
        return cls(kind="pattern", program=program)

    @classmethod
    def paper_example(cls, example: str, role: str) -> "SequenceSpec":
        return cls(kind="paper_example", example=example, role=role)

    @classmethod
    def random_riesz(cls, dim: int, seed: int) -> "SequenceSpec":
        return cls(kind="random_riesz", dim=dim, seed=seed)

    @classmethod
    def random_frame(cls, dim: int, count: int, seed: int) -> "SequenceSpec":
        return cls(kind="random_frame", dim=dim, count=count, seed=seed)


@dataclass(frozen=True)
class RealizedSequence:
    """First N terms of a sequence as the columns of a dim x count matrix.

    ``columns`` becomes a read-only view of the validated matrix.  A
    C-contiguous complex128 array is shared, not copied, so writing to it
    afterwards changes the sequence; any other input is converted once.
    """

    columns: np.ndarray

    # the singular values of ``columns`` when a random spec's condition screen
    # computed them (set by ``realize``), read in place of a second SVD
    _singular_values = None

    def __post_init__(self):
        m = linalg.as_matrix(self.columns).view()
        m.setflags(write=False)
        object.__setattr__(self, "columns", m)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


# --------------------------------------------------------------------------
# realization

# A dense realization holds dim x count complex entries of 16 bytes, so the
# budget is 256 MiB per matrix; the dense benchmark's largest shapes are
# 256 x 256 and 128 x 192.  The same budget bounds the matrices derived from
# two sequences: the cross-Gram and the dual-pair residual (float64, half
# the size, when every entry is real).  It bounds memory, not time: a square
# at the budget, dim 4096, costs O(dim^3) LAPACK work.
MAX_DENSE_ENTRIES = 1 << 24

# The term budget (term count and index span) of monomial sequences read
# without a matrix, and the only bound on the block route, whose terms stream
# through in chunks into per-index bins that a window a few chunks wide holds:
# it bounds time, not memory (`example --id ex-identity --dim 10000000` and
# `sweep --dims 10,10000000` of every registry pair peak at ~31 MB of RSS).
MAX_SWEEP_TRUNCATION = 10**7


def _check_dense(rows: int, cols: int, what: str = "realization") -> None:
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"a dense {rows} x {cols} {what} exceeds the budget "
            f"MAX_DENSE_ENTRIES = {MAX_DENSE_ENTRIES} entries"
        )


def from_terms(idx: np.ndarray, coeff: np.ndarray, dim: int) -> RealizedSequence:
    """Dense realization of a term list in C^dim: column k is coeff[k] on
    basis vector idx[k]."""
    count = len(idx)
    _check_dense(dim, count)
    cols = np.zeros((dim, count), dtype=complex)
    cols[idx - 1, np.arange(count)] = coeff
    return RealizedSequence(cols)


def realize(spec: SequenceSpec, n: int) -> RealizedSequence:
    """Realize the first ``n`` terms of ``spec``.

    The ambient dimension is the highest basis index the terms reference
    (the stored column length for explicit specs, the declared dimension
    for random specs).  A monomial spec is shaped by ``term_shape``, and a
    matrix over ``MAX_DENSE_ENTRIES`` entries is refused before it is allocated.
    """
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")

    if spec.kind == "explicit":
        if n != len(spec.columns):
            raise ValueError(
                f"explicit spec stores count {len(spec.columns)}, truncation {n} requested"
            )
        cols, s = spec.columns.T, None
        _check_dense(*cols.shape)
    elif spec.kind in MONOMIAL_KINDS:
        shape = term_shape(spec, n)
        _check_dense(shape[2], shape[1])
        return from_terms(*term_arrays(shape))
    elif spec.kind == "random_riesz":
        if n != spec.dim:
            raise ValueError(
                f"random_riesz realizes exactly dim terms: truncation {n} != dim {spec.dim}"
            )
        cols, s = _riesz_basis(spec.dim, spec.seed)
    elif spec.kind == "random_frame":
        if n != spec.count:
            raise ValueError(
                f"random_frame realizes exactly count terms: truncation {n} != count {spec.count}"
            )
        cols, s = _frame_draw(spec.dim, spec.count, spec.seed)
    else:  # pragma: no cover - kinds are validated at construction
        raise ValueError(f"unknown sequence kind {spec.kind!r}")
    return _screened(cols, s)


def _screened(cols: np.ndarray, s) -> RealizedSequence:
    """The sequence with columns ``cols``, keeping ``s``: the singular values a
    random draw's condition screen computed for them, or ``None`` for any other."""
    seq = RealizedSequence(cols)
    if s is not None:  # a random draw is shared, not copied: these are its values
        object.__setattr__(seq, "_singular_values", s)
    return seq


def monomial_terms(spec: SequenceSpec, n: int, *, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Term list (basis indices, coefficients) for one-index-per-term specs.

    Term k is ``coeff[k]`` on basis vector ``idx[k]`` (indices from 1), and the
    coefficients are float64 for a spec with no imaginary value (every registry
    role), else complex128.  This is the one place terms are generated: dense
    realization scatters these arrays, and the sweep and the block reports fold
    them chunk by chunk into per-index sums without materializing dim x count
    matrices.  It covers scaled_basis, pattern, and every registry example.  With
    ``start`` the arrays hold terms ``start`` .. ``n - 1`` only, bit for bit
    ``monomial_terms(spec, n)[start:]``.
    """
    spec, n = _monomial(spec, n)
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, {n}), got {start}")
    return _terms(spec, n, start)


def monomial_extent(spec: SequenceSpec, n: int) -> tuple[int, int]:
    """Lowest and highest basis index of the first ``n`` terms of a
    monomial spec, read off its weight rule or pattern program without
    generating a term.  It refuses what ``monomial_terms(spec, n)``
    refuses, in the same order."""
    spec, n = _monomial(spec, n)
    if spec.kind == "scaled_basis":
        _check_table(spec.weight, n)
        return 1, n
    h, slots = _tail_slots(spec.program, n)
    ends = [t.index for t in spec.program.head[:h]]
    for slot, _, last in slots:
        ends += (slot.start_index, last)
    return min(ends), max(ends)


def _index_stride(spec: SequenceSpec, start: int) -> int | None:
    """The index stride of terms ``start`` .. of a scaled_basis or pattern spec,
    when they sit on strictly increasing, evenly spaced indices: 1 for scaled_basis
    (term k on e_k), and the ``index_step`` (>= 1) of a tail of one slot once
    ``start`` is past the head; else ``None``."""
    if spec.kind == "scaled_basis":
        return 1
    head, tail = spec.program.head, spec.program.tail
    if len(tail) == 1 and tail[0].index_step >= 1 and start >= len(head):
        return tail[0].index_step
    return None


def _index_period(spec: SequenceSpec) -> int:
    """The tail period of a scaled_basis or pattern spec, at least 1: no slot's index decreases, so
    the last period of a run of terms holds the greatest index of its tail terms."""
    return spec.kind == "pattern" and len(spec.program.tail) or 1


def _index_frontier(spec: SequenceSpec, n: int):
    """``(frontier, pinned)`` of the first ``n`` terms of a scaled_basis or pattern spec: the indices
    of its head terms and step-0 slots, and ``frontier(start)``, the least other index a term
    ``start`` .. lands on: the next term number, or a pattern's least next index of a slot with
    ``index_step`` >= 1.  ``min((frontier(0), *pinned))`` is the least index of those terms."""
    if spec.kind == "scaled_basis":
        return (lambda start: start + 1), ()
    h, slots = _tail_slots(spec.program, n)
    period, steps = len(spec.program.tail), [(h + pos, s) for pos, (s, _, _) in enumerate(slots) if s.index_step]

    def frontier(start: int) -> float:  # a slot's cycles before start, as _pattern_terms skips them
        ends = (s.start_index + max(0, -((first - start) // period)) * s.index_step for first, s in steps)
        return min(ends, default=math.inf)

    pinned = (*(t.index for t in spec.program.head[:h]), *(s.start_index for s, _, _ in slots if not s.index_step))
    return frontier, pinned


def _monomial(spec: SequenceSpec, n: int) -> tuple[SequenceSpec, int]:
    """The scaled_basis or pattern spec behind ``spec`` and its term count at
    truncation ``n``: a registry example resolves to the spec of its role."""
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")
    if spec.kind == "paper_example":
        entry = example_entry(spec.example)
        if n < entry.min_n:
            raise ValueError(
                f"example {entry.example_id} needs at least {entry.min_n} terms, got {n}"
            )
        if spec.role == "f":
            return entry.f, entry.f_count(n)
        return entry.g, entry.g_count(n)
    if spec.kind not in ("scaled_basis", "pattern"):
        raise ValueError(
            f"kind {spec.kind!r} has no single-index term form (supported: "
            f"{', '.join(MONOMIAL_KINDS)})"
        )
    return spec, n


def _terms(spec: SequenceSpec, n: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Terms ``start`` .. ``n - 1`` of a scaled_basis or pattern spec."""
    if spec.kind == "scaled_basis":
        return _weight_terms(spec.weight, n, start, spec._real)
    return _pattern_terms(spec.program, n, start, spec._real)


def _check_table(rule: WeightRule, n: int) -> None:
    if rule.rule == "table" and n > len(rule.values):
        raise ValueError(
            f"weight table has {len(rule.values)} entries, "
            f"term {len(rule.values) + 1} requested"
        )


def _weight_terms(rule: WeightRule, n: int, start: int, real: bool) -> tuple[np.ndarray, np.ndarray]:
    _check_table(rule, n)
    k = np.arange(start + 1, n + 1, dtype=np.int64)
    if rule.rule == "inverse_index":
        coeff = 1.0 / k
    elif rule.rule == "index":
        coeff = k.astype(float)
    elif rule.rule == "constant":
        coeff = np.full(n - start, rule.value)
    elif rule.rule == "geometric":
        return k, _geometric(rule.value, rule.ratio, n, start, real)
    else:
        coeff = np.array(rule.values[start:n])
    return k, np.ascontiguousarray(coeff.real) if real else coeff.astype(complex, copy=False)


def _tail_slots(program: PatternProgram, n: int) -> tuple[int, list]:
    """The number h of head terms among the first ``n`` terms, and
    (slot, cycles, last index) of each tail slot with a term among them."""
    h, tail = min(len(program.head), n), program.tail
    if n > h and not tail:
        raise ValueError(f"pattern provides only {h} terms, term {h + 1} requested")
    slots = []
    for pos, slot in enumerate(tail):
        cycles = len(range(h + pos, n, len(tail)))
        if cycles == 0:  # n ends before this slot's first term
            break
        last = slot.start_index + (cycles - 1) * slot.index_step
        if last > _MAX_INDEX:
            raise ValueError(f"tail slot {pos} reaches basis index {last}, past {_MAX_INDEX}")
        slots.append((slot, cycles, last))
    return h, slots


def _pattern_terms(
    program: PatternProgram, n: int, start: int, real: bool
) -> tuple[np.ndarray, np.ndarray]:
    h, slots = _tail_slots(program, n)
    period = len(program.tail)
    idx = np.empty(n - start, dtype=np.int64)
    coeff = np.empty(n - start, dtype=float if real else complex)
    lead = program.head[start:h]
    if lead:
        idx[: len(lead)] = [t.index for t in lead]
        head = np.array([t.coeff for t in lead], dtype=complex)
        coeff[: len(lead)] = head.real if real else head
    for pos, (slot, cycles, _) in enumerate(slots):
        first = h + pos  # the term of the slot's cycle 0
        skip = max(0, -((first - start) // period))  # its cycles before ``start``
        if skip == cycles:
            continue
        at = slice(first + skip * period - start, None, period)
        if slot.index_step > 1:  # exact in int64; np.arange(a, b, step) sizes its range in float
            steps = np.arange(skip, cycles, dtype=np.int64)
            steps *= slot.index_step
            steps += slot.start_index
        elif slot.index_step:  # in one pass: a length below 2**53 is exact as a float
            steps = np.arange(slot.start_index + skip, slot.start_index + cycles, dtype=np.int64)
        if period == 1 and not lead and slot.index_step:  # the slot's terms are the chunk's: no copy
            idx = steps
        else:
            idx[at] = steps if slot.index_step else slot.start_index
        if slot.coeff_rule == "constant":
            coeff[at] = slot.coeff.real if real else slot.coeff
        elif slot.coeff_rule == "geometric":
            coeff[at] = _geometric(slot.coeff, slot.ratio, cycles, skip, real)
        else:  # inverse_term: coeff / m for the overall term number m
            m = np.arange(first + skip * period + 1, n + 1, period, dtype=float)
            for part, value in zip(_parts(coeff, real), _parts(slot.coeff, real)):
                part[at] = value / m
    return idx, coeff


# _geometric doubles its powers up to this many, then folds in higher bits
_POWER_BLOCK = 1 << 13


def _parts(z, real: bool) -> tuple:
    """The parts (re, im) of a number or array z, or (re,) alone when ``real``."""
    return (z.real,) if real else (z.real, z.imag)


def _times(x: tuple, y: tuple) -> tuple:
    """x times y, numbers or arrays given as ``_parts``, by the component formulas."""
    if len(x) == 1:  # a real x of a real spec, whose y is real too
        return (x[0] * y[0],)
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _powers(ratio: complex, size: int, real: bool) -> tuple:
    """The ``_parts`` of ratio**j for j < size, by doubling: the powers
    2**b .. 2**(b+1) - 1 are the lower ones times ratio**(2**b)."""
    parts = (np.ones(size),) if real else (np.ones(size), np.zeros(size))
    q, step = _parts(ratio, real), 1  # q = ratio**step
    with np.errstate(over="ignore", invalid="ignore"):
        while step < size:
            top = min(2 * step, size)
            for part, low in zip(parts, _times([p[: top - step] for p in parts], q)):
                part[step:top] = low
            q = _times(q, q)
            step *= 2
    return parts


@functools.lru_cache(maxsize=2)
def _power_block(ratio_bits: bytes, real: bool) -> tuple:
    """``_powers`` of the ratio with these bits over one whole block,
    read-only.  A side generated in chunks past the first block builds it
    once instead of per chunk (a sweep has two sides; each part is
    64 KiB).  The key is the ratio's bits, so 0.0 and -0.0 stay apart."""
    parts = _powers(complex(np.frombuffer(ratio_bits, dtype=complex)[0]), _POWER_BLOCK, real)
    for part in parts:
        part.setflags(write=False)
    return parts


def _geometric(coeff: complex, ratio: complex, count: int, start: int, real: bool) -> np.ndarray:
    """``coeff * ratio**c`` for c = start .. count-1, float64 for a ``real`` spec.

    The powers repeat CPython's square-and-multiply for ``complex ** int``,
    which takes the bits of c lowest first: ratio**c is ratio**(c - 2**b)
    times ratio**(2**b) for the top bit b of c.  With the products written
    as its component formulas, every coefficient up to c = 100 equals the
    scalar expression exactly.  Past c = 100 CPython switches to polar
    form, which agrees with this to a few ulp per unit of c.  The real formulas
    drop only zero products: real parts keep their values, moduli their bits.

    The powers below ``_POWER_BLOCK`` come from ``_powers``.  A power
    past it is the table's power of its low bits times ratio**(2**b) for
    each higher set bit b, lowest first: the doubling's products in the
    doubling's order, so any range of c gives the bits of the whole array.
    """
    if count <= _POWER_BLOCK:
        table = _powers(ratio, count, real)
    else:
        table = _power_block(np.complex128(ratio).tobytes(), real)
    q, step = _parts(ratio, real), 1  # q = ratio**step
    high = []  # q for the steps past the table, lowest first
    out = np.empty(count - start, dtype=float if real else complex)
    views = _parts(out, real)
    # powers past the float range become inf or NaN quietly; the entry
    # bound MAX_ENTRY refuses them with a message naming the spec
    with np.errstate(over="ignore", invalid="ignore"):
        while step < count:
            if step >= _POWER_BLOCK:
                high.append(q)
            q = _times(q, q)
            step *= 2
        for block in range(start // _POWER_BLOCK, (count - 1) // _POWER_BLOCK + 1):
            first = block * _POWER_BLOCK
            lo, hi = max(start, first), min(count, first + _POWER_BLOCK)
            w = [part[lo - first : hi - first] for part in table]
            for bit, s in enumerate(high):
                if block >> bit & 1:
                    w = _times(w, s)
            for view, part in zip(views, _times(w, _parts(coeff, real))):
                view[lo - start : hi - start] = part
    return out


# --------------------------------------------------------------------------
# worked example registry


def _same(n: int) -> int:
    return n


@dataclass(frozen=True)
class ExampleEntry:
    """Registry entry: both roles of a worked example pair plus count rules
    (each side has n terms at truncation n unless its rule says otherwise)."""

    example_id: str
    title: str
    f: SequenceSpec
    g: SequenceSpec
    f_count: Callable[[int], int] = _same
    g_count: Callable[[int], int] = _same
    min_n: int = 1
    tail_inferred: bool = False
    notes: str = ""


_REGISTRY: dict[str, ExampleEntry] = {}


def _register(entry: ExampleEntry) -> None:
    _REGISTRY[entry.example_id] = entry


_register(
    ExampleEntry(
        example_id="ex-identity",
        title="reciprocal weights against index weights: identity cross-Gram",
        f=SequenceSpec.scaled_basis(WeightRule.inverse_index()),
        g=SequenceSpec.scaled_basis(WeightRule.index()),
        notes="g has unbounded Bessel bound (grows like N^2) while the "
        "cross-Gram stays the identity at every truncation",
    )
)

_register(
    ExampleEntry(
        example_id="ex-hs",
        title="reciprocal basis against an interleaved geometric line: "
        "summable Hilbert-Schmidt norm",
        f=SequenceSpec.scaled_basis(WeightRule.inverse_index()),
        g=SequenceSpec.pattern(
            PatternProgram(
                head=(),
                tail=(
                    TailSlot(start_index=1, index_step=0, coeff=0.5,
                             coeff_rule="geometric", ratio=0.5),
                    TailSlot(start_index=2, index_step=1),
                ),
            )
        ),
        tail_inferred=True,
        notes="the tail of g extends the two displayed periods: odd terms "
        "walk the geometric line (1/2^m) e1, even terms step through "
        "e2, e3, ...; hs^2 of the cross-Gram converges to 1/3 + pi^2/6 - 1",
    )
)

_register(
    ExampleEntry(
        example_id="ex-blocked",
        title="index-blocked repeats: rank-deficient, non-invertible cross-Gram",
        f=SequenceSpec.pattern(
            PatternProgram(
                head=(PatternTerm(1, 1.0),),
                tail=(TailSlot(start_index=1, index_step=1),),
            )
        ),
        g=SequenceSpec.pattern(
            PatternProgram(
                head=(),
                tail=(
                    TailSlot(start_index=1, index_step=1),
                    TailSlot(start_index=1, index_step=1),
                ),
            )
        ),
        # g repeats each basis vector twice, so N g-terms span ceil(N/2)
        # directions; f needs one extra leading repeat to cover the same span
        f_count=lambda n: (n + 1) // 2 + 1,
        notes="both sequences are frames of the shared span but the "
        "cross-Gram has determinant zero at every truncation",
    )
)

_register(
    ExampleEntry(
        example_id="ex-norm89",
        title="orthonormal basis against a single-direction line: "
        "bounded cross-Gram of norm near sqrt(89)/10",
        f=SequenceSpec.scaled_basis(WeightRule.constant()),
        g=SequenceSpec.pattern(
            PatternProgram(
                head=(PatternTerm(1, 0.5),),
                tail=(TailSlot(start_index=1, index_step=0, coeff_rule="inverse_term"),),
            )
        ),
        notes="g collapses onto e1 with weights (1/2, 1/2, 1/3, 1/4, ...); "
        "the cross-Gram norm converges to sqrt(1/4 + pi^2/6 - 1)",
    )
)

_register(
    ExampleEntry(
        example_id="ex-canonical",
        title="repeated-vector frame with its canonical dual: "
        "idempotent positive cross-Gram",
        f=SequenceSpec.pattern(
            PatternProgram(
                head=(PatternTerm(1, 1.0),),
                tail=(TailSlot(start_index=1, index_step=1),),
            )
        ),
        g=SequenceSpec.pattern(
            PatternProgram(
                head=(PatternTerm(1, 0.5), PatternTerm(1, 0.5)),
                tail=(TailSlot(start_index=2, index_step=1),),
            )
        ),
        min_n=2,
        notes="g is the canonical dual of f in every truncation; the "
        "cross-Gram is the orthogonal projection onto the analysis range",
    )
)


def example_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def example_entry(example_id: str) -> ExampleEntry:
    try:
        return _REGISTRY[example_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown example id {example_id!r}; known ids: {known}") from None


def paper_example(example_id: str, n: int) -> tuple[RealizedSequence, RealizedSequence]:
    """Both roles of a registry example at truncation ``n``, sharing ambient
    dim; both dense budgets are checked before a term is generated."""
    shapes = [term_shape(SequenceSpec.paper_example(example_id, role), n) for role in _ROLES]
    for _, count, dim in shapes:
        _check_dense(dim, count)
    return tuple(from_terms(*term_arrays(shape)) for shape in shapes)


def _check_terms(size: int, what: str = "term count") -> None:
    if size > MAX_SWEEP_TRUNCATION:
        raise ValueError(
            f"{what} {size} exceeds the term budget "
            f"MAX_SWEEP_TRUNCATION = {MAX_SWEEP_TRUNCATION}"
        )


def term_shape(spec: SequenceSpec, n: int) -> tuple[SequenceSpec, int, int]:
    """``(spec, count, dim)`` of a monomial spec at truncation ``n``: the
    scaled_basis or pattern spec behind it, its term count and the ambient
    dimension ``realize`` gives it (a registry role's is its pair's), after
    the term budget has refused the term count and then the joint index
    span.  All is read off the extents, so an input over budget is refused
    before a term is generated; the block reports or ``term_arrays`` generate the terms."""
    _check_terms(n)
    side = _monomial(spec, n)
    sides = [side]
    if spec.kind == "paper_example":
        entry = example_entry(spec.example)
        sides = [(entry.f, entry.f_count(n)), (entry.g, entry.g_count(n))]
    extents = [monomial_extent(*s) for s in sides]
    lo, hi = min(e[0] for e in extents), max(e[1] for e in extents)
    _check_terms(hi - lo + 1, "index span")
    return (*side, hi)


def term_arrays(shape: tuple[SequenceSpec, int, int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Terms ``(idx, coeff, dim)`` of a monomial spec's ``term_shape``, all at once,
    with the coefficients held to the entry checks of a matrix: for the routes a
    dense budget bounds (realization, mixed pairs, the hybrid scatter)."""
    spec, count, dim = shape
    idx, coeff = monomial_terms(spec, count)
    linalg._refuse(*linalg._faults(coeff))
    return idx, coeff, dim


def _same_indices(f: SequenceSpec, g: SequenceSpec, n: int, step: int) -> bool:
    """Whether the first ``n`` terms of two scaled_basis or pattern specs sit on the same
    basis indices, read off a prefix ``step`` terms at a time up to the first that differ.
    Past the longer head, each side's index is affine in the cycle on each residue class
    mod L, the lcm of the tail periods: sides that agree on (longer head + 2 L) terms agree."""
    heads, periods = [0], [1]  # a scaled_basis spec is a tail of one slot
    for spec in (f, g):
        if spec.kind == "pattern":
            heads.append(len(spec.program.head))
            periods.append(len(spec.program.tail) or 1)
    k = min(n, max(heads) + 2 * math.lcm(*periods))
    spans = ((lo, min(lo + step, k)) for lo in range(0, k, step))
    return all(np.array_equal(_terms(f, hi, lo)[0], _terms(g, hi, lo)[0]) for lo, hi in spans)


# --------------------------------------------------------------------------
# random generation


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    z = np.empty(shape, dtype=np.complex128)  # (re + 1j * im) / sqrt(2), re drawn first
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return np.divide(z, np.sqrt(2.0), out=z)


def _screened_gaussian(seed, stream: int, dim: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw from stream ``stream`` of ``seed`` until the condition number (over
    the row space) is at most ``MAX_CONDITION``: the draw and its singular values."""
    _check_dense(dim, count)
    rng = np.random.default_rng([*_seed_path(seed), stream])
    last = np.inf
    for _ in range(MAX_ATTEMPTS):
        m = _complex_gaussian(rng, (dim, count))
        s = np.linalg.svd(m, compute_uv=False)
        last = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
        if last <= MAX_CONDITION:
            return m, s
    raise GenerationError(
        f"no {dim}x{count} draw met condition <= {MAX_CONDITION:g} after "
        f"{MAX_ATTEMPTS} attempts (last condition {last:.3e})"
    )


def _riesz_basis(dim: int, seed, role: str = "f") -> tuple[np.ndarray, np.ndarray]:
    """Basis ``role`` of ``random_riesz_pair(dim, seed)`` and the singular values its
    condition screen computed; each role has its own stream, random_riesz the f's."""
    stream = _STREAM_RIESZ_F if role == "f" else _STREAM_RIESZ_G
    return _screened_gaussian(seed, stream, dim, dim)


def _frame_draw(dim: int, count: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``random_frame(dim, count, seed)`` as an array, with the singular
    values its condition screen computed."""
    return _screened_gaussian(seed, _STREAM_FRAME, dim, count)


def _dual_draw(path, shape) -> np.ndarray:
    """The draw ``alternate_dual`` projects onto the analysis-range complement."""
    return _complex_gaussian(np.random.default_rng([*path, _STREAM_DUAL]), shape)


def random_riesz_pair(dim: int, seed: int) -> tuple[RealizedSequence, RealizedSequence]:
    """Two independent well-conditioned bases of C^dim from one seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    f, g = (_screened(*_riesz_basis(dim, seed, role)) for role in _ROLES)
    return f, g


def random_frame(dim: int, count: int, seed: int) -> RealizedSequence:
    """A well-conditioned spanning sequence of ``count`` vectors in C^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < dim:
        raise ValueError(f"a frame needs count >= dim, got count {count} with dim {dim}")
    return _screened(*_frame_draw(dim, count, seed))
