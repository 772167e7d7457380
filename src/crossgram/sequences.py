"""Sequence specifications, realization, worked examples, and generators.

A sequence of vectors is described by a small declarative spec and realized
as a matrix whose columns are the first N terms in the standard basis.  The
registry entries reproduce classical worked examples (identity cross-Gram,
summable Hilbert-Schmidt interleaving, index-blocked repeats, a single-line
bounded operator, and a frame with its canonical dual); everything they need
is expressible as finite pattern data, never as code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import linalg

MAX_CONDITION = 100.0
MAX_ATTEMPTS = 64

_WEIGHT_RULES = ("inverse_index", "index", "constant", "geometric", "table")
_COEFF_RULES = ("constant", "geometric", "inverse_term")
_KINDS = (
    "explicit",
    "scaled_basis",
    "pattern",
    "paper_example",
    "random_riesz",
    "random_frame",
)
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


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative description of a vector sequence."""

    kind: str
    columns: np.ndarray | None = None  # explicit: read-only complex128 (count, dim)
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
        m = np.array(cols, dtype=np.complex128)  # a copy the caller cannot change
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
# two sequences: the cross-Gram and the dual-pair residuals.
MAX_DENSE_ENTRIES = 1 << 24

# The term budget (term count and index span) of monomial sequences read
# without a matrix: the block route and the sweep, ~72 bytes per term.
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
    for random specs).  A matrix over ``MAX_DENSE_ENTRIES`` entries is
    refused before it is allocated.
    """
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")

    if spec.kind == "explicit":
        if n != len(spec.columns):
            raise ValueError(
                f"explicit spec stores count {len(spec.columns)}, truncation {n} requested"
            )
        cols = spec.columns.T
    elif spec.kind in ("scaled_basis", "pattern"):
        _check_dense(1, n)  # the term arrays alone hold n entries each
        idx, coeff = monomial_terms(spec, n)
        return from_terms(idx, coeff, int(idx.max()))
    elif spec.kind == "paper_example":
        return from_terms(*example_terms(spec.example, n)[_ROLES.index(spec.role)])
    elif spec.kind == "random_riesz":
        if n != spec.dim:
            raise ValueError(
                f"random_riesz realizes exactly dim terms: truncation {n} != dim {spec.dim}"
            )
        cols = _riesz_basis(spec.dim, spec.seed)
    elif spec.kind == "random_frame":
        if n != spec.count:
            raise ValueError(
                f"random_frame realizes exactly count terms: truncation {n} != count {spec.count}"
            )
        cols, _ = _frame_draw(spec.dim, spec.count, spec.seed)
    else:  # pragma: no cover - kinds are validated at construction
        raise ValueError(f"unknown sequence kind {spec.kind!r}")
    return RealizedSequence(cols)


def monomial_terms(spec: SequenceSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Term list (basis indices, coefficients) for one-index-per-term specs.

    Term k is ``coeff[k]`` on basis vector ``idx[k]`` (indices from 1).
    This is the one place terms are generated: dense realization scatters
    these arrays, and the truncation sweep groups them by index without
    materializing dim x count matrices.  It covers scaled_basis, pattern,
    and every registry example.
    """
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")
    if spec.kind == "scaled_basis":
        return _weight_terms(spec.weight, n)
    if spec.kind == "pattern":
        return _pattern_terms(spec.program, n)
    if spec.kind == "paper_example":
        entry = example_entry(spec.example)
        if n < entry.min_n:
            raise ValueError(
                f"example {entry.example_id} needs at least {entry.min_n} terms, got {n}"
            )
        count = entry.f_count(n) if spec.role == "f" else entry.g_count(n)
        inner = entry.f if spec.role == "f" else entry.g
        return monomial_terms(inner, count)
    raise ValueError(
        f"kind {spec.kind!r} has no single-index term form (supported: "
        f"{', '.join(MONOMIAL_KINDS)})"
    )


def _weight_terms(rule: WeightRule, n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, n + 1, dtype=np.int64)
    if rule.rule == "inverse_index":
        coeff = (1.0 / k).astype(complex)
    elif rule.rule == "index":
        coeff = k.astype(complex)
    elif rule.rule == "constant":
        coeff = np.full(n, rule.value, dtype=complex)
    elif rule.rule == "geometric":
        coeff = _geometric(rule.value, rule.ratio, n)
    elif n > len(rule.values):
        raise ValueError(
            f"weight table has {len(rule.values)} entries, "
            f"term {len(rule.values) + 1} requested"
        )
    else:
        coeff = np.asarray(rule.values[:n], dtype=complex)
    return k, coeff


def _pattern_terms(program: PatternProgram, n: int) -> tuple[np.ndarray, np.ndarray]:
    head, tail = program.head[:n], program.tail
    h, period = len(head), len(tail)
    if n > h and not tail:
        raise ValueError(f"pattern provides only {h} terms, term {h + 1} requested")
    idx = np.empty(n, dtype=np.int64)
    coeff = np.empty(n, dtype=complex)
    idx[:h] = [t.index for t in head]
    coeff[:h] = [t.coeff for t in head]
    for pos, slot in enumerate(tail):
        at = slice(h + pos, n, period)
        cycles = len(range(h + pos, n, period))
        if cycles == 0:  # n ends before this slot's first term
            break
        last = slot.start_index + (cycles - 1) * slot.index_step
        if last > _MAX_INDEX:
            raise ValueError(f"tail slot {pos} reaches basis index {last}, past {_MAX_INDEX}")
        idx[at] = slot.start_index + np.arange(cycles, dtype=np.int64) * slot.index_step
        if slot.coeff_rule == "constant":
            coeff[at] = slot.coeff
        elif slot.coeff_rule == "geometric":
            coeff[at] = _geometric(slot.coeff, slot.ratio, cycles)
        else:  # inverse_term: coeff / m for the overall term number m
            m = np.arange(h + pos + 1, n + 1, period, dtype=float)
            coeff.real[at] = slot.coeff.real / m
            coeff.imag[at] = slot.coeff.imag / m
    return idx, coeff


def _geometric(coeff: complex, ratio: complex, count: int) -> np.ndarray:
    """``coeff * ratio**c`` for c = 0 .. count-1.

    The powers repeat CPython's square-and-multiply for ``complex ** int``,
    which takes the bits of c lowest first: ratio**c is ratio**(c - 2**b)
    times ratio**(2**b) for the top bit b of c.  With the products written
    as its component formulas, every coefficient up to c = 100 equals the
    scalar expression exactly.  Past c = 100 CPython switches to polar
    form, which agrees with this to a few ulp per unit of c.
    """
    re = np.empty(count)
    im = np.empty(count)
    re[0], im[0] = 1.0, 0.0
    qr, qi, size = ratio.real, ratio.imag, 1  # q = ratio**size
    out = np.empty(count, dtype=complex)
    # powers past the float range become inf or NaN quietly; the entry
    # bound MAX_ENTRY refuses them with a message naming the spec
    with np.errstate(over="ignore", invalid="ignore"):
        while size < count:
            top = min(2 * size, count)
            low_re, low_im = re[: top - size], im[: top - size]
            re[size:top] = low_re * qr - low_im * qi
            im[size:top] = low_re * qi + low_im * qr
            qr, qi = qr * qr - qi * qi, qr * qi + qi * qr
            size *= 2
        out.real = coeff.real * re - coeff.imag * im
        out.imag = coeff.real * im + coeff.imag * re
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
    """Both roles of a registry example at truncation ``n``, sharing ambient dim."""
    _check_dense(1, n)  # the term arrays alone hold about n entries each
    f, g = example_terms(example_id, n)
    return from_terms(*f), from_terms(*g)


def _check_terms(size: int, what: str = "term count") -> None:
    if size > MAX_SWEEP_TRUNCATION:
        raise ValueError(
            f"{what} {size} exceeds the term budget "
            f"MAX_SWEEP_TRUNCATION = {MAX_SWEEP_TRUNCATION}"
        )


def example_terms(example_id: str, n: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Terms ``(idx, coeff, dim)`` of both roles of a registry example at
    truncation ``n``, on the pair's ambient dimension."""
    _check_terms(n)
    pair = [monomial_terms(SequenceSpec.paper_example(example_id, role), n) for role in _ROLES]
    dim = max(int(idx.max()) for idx, _ in pair)
    return [(idx, coeff, dim) for idx, coeff in pair]


def term_arrays(spec: SequenceSpec, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Terms ``(idx, coeff, dim)`` of a monomial spec at truncation ``n``
    under the term budget, with ``dim`` the ambient dimension ``realize``
    gives it and the coefficients held to the entry checks of a matrix."""
    if spec.kind == "paper_example":
        return example_terms(spec.example, n)[_ROLES.index(spec.role)]
    _check_terms(n)
    idx, coeff = monomial_terms(spec, n)
    dim = int(idx.max())
    _check_terms(dim - int(idx.min()) + 1, "index span")
    linalg.as_matrix(coeff[None, :])
    return idx, coeff, dim


# --------------------------------------------------------------------------
# random generation


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


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


def _riesz_basis(dim: int, seed, role: str = "f") -> np.ndarray:
    """Basis ``role`` of ``random_riesz_pair(dim, seed)`` as an array; each
    role has its own stream, and a random_riesz spec realizes the f basis."""
    stream = _STREAM_RIESZ_F if role == "f" else _STREAM_RIESZ_G
    return _screened_gaussian(seed, stream, dim, dim)[0]


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
    f, g = (RealizedSequence(_riesz_basis(dim, seed, role)) for role in _ROLES)
    return f, g


def random_frame(dim: int, count: int, seed: int) -> RealizedSequence:
    """A well-conditioned spanning sequence of ``count`` vectors in C^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < dim:
        raise ValueError(f"a frame needs count >= dim, got count {count} with dim {dim}")
    return RealizedSequence(_frame_draw(dim, count, seed)[0])
