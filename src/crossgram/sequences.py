"""Sequence specifications, realization, worked examples, and generators.

A sequence of vectors is described by a small declarative spec and realized
as a matrix whose columns are the first N terms in the standard basis.  The
registry entries reproduce classical worked examples (identity cross-Gram,
summable Hilbert-Schmidt interleaving, index-blocked repeats, a single-line
bounded operator, and a frame with its canonical dual); everything they need
is expressible as finite pattern data, never as code.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class WeightRule:
    """Closed family of scalar weights w(k) for scaled basis sequences."""

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

    def weight(self, k: int) -> complex:
        """Weight of the k-th term, k starting at 1."""
        if k < 1:
            raise ValueError(f"term index must be >= 1, got {k}")
        if self.rule == "inverse_index":
            return 1.0 / k
        if self.rule == "index":
            return complex(k)
        if self.rule == "constant":
            return self.value
        if self.rule == "geometric":
            return self.value * self.ratio ** (k - 1)
        if k > len(self.values):
            raise ValueError(
                f"weight table has {len(self.values)} entries, term {k} requested"
            )
        return self.values[k - 1]


@dataclass(frozen=True)
class PatternTerm:
    """One term: a coefficient on a single standard basis vector."""

    index: int
    coeff: complex

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"basis index must be >= 1, got {self.index}")
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
        if self.start_index < 1:
            raise ValueError(f"basis index must be >= 1, got {self.start_index}")
        if self.index_step < 0:
            raise ValueError(f"index step must be >= 0, got {self.index_step}")
        if self.coeff_rule not in _COEFF_RULES:
            raise ValueError(
                f"unknown coefficient rule {self.coeff_rule!r}, expected one of {_COEFF_RULES}"
            )
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "ratio", complex(self.ratio))


@dataclass(frozen=True)
class PatternProgram:
    """Explicit head terms followed by an optional periodic tail."""

    head: tuple = ()
    tail: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "tail", tuple(self.tail))

    def term(self, m: int) -> PatternTerm:
        """The m-th term of the pattern, m starting at 1."""
        if m < 1:
            raise ValueError(f"term index must be >= 1, got {m}")
        if m <= len(self.head):
            return self.head[m - 1]
        if not self.tail:
            raise ValueError(
                f"pattern provides only {len(self.head)} terms, term {m} requested"
            )
        cycle, slot_pos = divmod(m - len(self.head) - 1, len(self.tail))
        slot = self.tail[slot_pos]
        index = slot.start_index + cycle * slot.index_step
        if slot.coeff_rule == "constant":
            coeff = slot.coeff
        elif slot.coeff_rule == "geometric":
            coeff = slot.coeff * slot.ratio**cycle
        else:
            coeff = slot.coeff / m
        return PatternTerm(index, coeff)


# --------------------------------------------------------------------------
# sequence specs


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative description of a vector sequence."""

    kind: str
    columns: tuple | None = None
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

    def _check_explicit(self):
        if not self.columns:
            raise ValueError("explicit spec needs at least one column")
        normalized = []
        width = None
        for i, col in enumerate(self.columns):
            col = tuple(complex(v) for v in col)
            if width is None:
                width = len(col)
                if width == 0:
                    raise ValueError("explicit columns must be nonempty")
            elif len(col) != width:
                raise ValueError(
                    f"column {i} has length {len(col)}, expected {width}"
                )
            normalized.append(col)
        object.__setattr__(self, "columns", tuple(normalized))

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
        return cls(kind="explicit", columns=tuple(tuple(c) for c in columns))

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
    """First N terms of a sequence as the columns of a dim x count matrix."""

    columns: np.ndarray
    spec_ref: str
    truncation: int

    def __post_init__(self):
        m = linalg.as_matrix(self.columns).copy()
        m.setflags(write=False)
        object.__setattr__(self, "columns", m)
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]


# --------------------------------------------------------------------------
# realization


def _pad_to_dim(columns: np.ndarray, dim: int) -> np.ndarray:
    natural = columns.shape[0]
    if dim < natural:
        raise ValueError(
            f"ambient override {dim} is smaller than the natural dimension {natural}"
        )
    if dim == natural:
        return columns
    padded = np.zeros((dim, columns.shape[1]), dtype=complex)
    padded[:natural, :] = columns
    return padded


def _pattern_columns(program: PatternProgram, n: int) -> np.ndarray:
    terms = [program.term(m) for m in range(1, n + 1)]
    dim = max(t.index for t in terms)
    cols = np.zeros((dim, n), dtype=complex)
    for k, t in enumerate(terms):
        cols[t.index - 1, k] = t.coeff
    return cols


def realize(spec: SequenceSpec, n: int, *, dim: int | None = None) -> RealizedSequence:
    """Realize the first ``n`` terms of ``spec``.

    The ambient dimension is the highest basis index the terms reference
    (the stored column length for explicit specs, the declared dimension
    for random specs); ``dim`` may enlarge it by zero padding.
    """
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")

    if spec.kind == "explicit":
        if n != len(spec.columns):
            raise ValueError(
                f"explicit spec stores count {len(spec.columns)}, truncation {n} requested"
            )
        cols = np.array(spec.columns, dtype=complex).T
        ref = f"explicit(count={n})"
    elif spec.kind == "scaled_basis":
        weights = [spec.weight.weight(k) for k in range(1, n + 1)]
        cols = np.diag(np.asarray(weights, dtype=complex))
        ref = f"scaled_basis({spec.weight.rule})"
    elif spec.kind == "pattern":
        cols = _pattern_columns(spec.program, n)
        ref = f"pattern(head={len(spec.program.head)}, period={len(spec.program.tail)})"
    elif spec.kind == "paper_example":
        f, g = paper_example(spec.example, n)
        chosen = f if spec.role == "f" else g
        if dim is not None:
            return RealizedSequence(
                _pad_to_dim(chosen.columns, dim), chosen.spec_ref, chosen.truncation
            )
        return chosen
    elif spec.kind == "random_riesz":
        if n != spec.dim:
            raise ValueError(
                f"random_riesz realizes exactly dim terms: truncation {n} != dim {spec.dim}"
            )
        cols = _screened_gaussian(
            np.random.default_rng([spec.seed, _STREAM_RIESZ_F]),
            spec.dim,
            spec.dim,
            MAX_CONDITION,
            MAX_ATTEMPTS,
        )
        ref = f"random_riesz(dim={spec.dim}, seed={spec.seed})"
    elif spec.kind == "random_frame":
        if n != spec.count:
            raise ValueError(
                f"random_frame realizes exactly count terms: truncation {n} != count {spec.count}"
            )
        cols = _screened_gaussian(
            np.random.default_rng([spec.seed, _STREAM_FRAME]),
            spec.dim,
            spec.count,
            MAX_CONDITION,
            MAX_ATTEMPTS,
        )
        ref = f"random_frame(dim={spec.dim}, count={spec.count}, seed={spec.seed})"
    else:  # pragma: no cover - kinds are validated at construction
        raise ValueError(f"unknown sequence kind {spec.kind!r}")

    if dim is not None:
        cols = _pad_to_dim(cols, dim)
    return RealizedSequence(cols, ref, n)


def monomial_terms(spec: SequenceSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Term list (basis indices, coefficients) for one-index-per-term specs.

    Sequences whose terms each touch a single basis vector admit exact
    large-N diagnostics without materializing dim x count matrices; this
    covers scaled_basis, pattern, and every registry example.
    """
    if n < 1:
        raise ValueError(f"truncation must be >= 1, got {n}")
    if spec.kind == "scaled_basis":
        idx = np.arange(1, n + 1, dtype=np.int64)
        coeff = np.asarray([spec.weight.weight(k) for k in idx], dtype=complex)
        return idx, coeff
    if spec.kind == "pattern":
        terms = [spec.program.term(m) for m in range(1, n + 1)]
        return (
            np.asarray([t.index for t in terms], dtype=np.int64),
            np.asarray([t.coeff for t in terms], dtype=complex),
        )
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
        "scaled_basis, pattern, paper_example)"
    )


# --------------------------------------------------------------------------
# worked example registry


@dataclass(frozen=True)
class ExampleEntry:
    """Registry entry: both roles of a worked example pair plus count rules."""

    example_id: str
    title: str
    f: SequenceSpec
    g: SequenceSpec
    f_count: Callable[[int], int]
    g_count: Callable[[int], int]
    min_n: int = 1
    tail_inferred: bool = False
    notes: str = ""


def _same(n: int) -> int:
    return n


_REGISTRY: dict[str, ExampleEntry] = {}


def _register(entry: ExampleEntry) -> None:
    _REGISTRY[entry.example_id] = entry


_register(
    ExampleEntry(
        example_id="ex-identity",
        title="reciprocal weights against index weights: identity cross-Gram",
        f=SequenceSpec.scaled_basis(WeightRule.inverse_index()),
        g=SequenceSpec.scaled_basis(WeightRule.index()),
        f_count=_same,
        g_count=_same,
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
        f_count=_same,
        g_count=_same,
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
        g_count=_same,
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
        f_count=_same,
        g_count=_same,
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
        f_count=_same,
        g_count=_same,
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
    entry = example_entry(example_id)
    if n < entry.min_n:
        raise ValueError(
            f"example {entry.example_id} needs at least {entry.min_n} terms, got {n}"
        )
    f0 = realize(entry.f, entry.f_count(n))
    g0 = realize(entry.g, entry.g_count(n))
    dim = max(f0.dim, g0.dim)
    f = RealizedSequence(_pad_to_dim(f0.columns, dim), f"{example_id}.f(n={n})", n)
    g = RealizedSequence(_pad_to_dim(g0.columns, dim), f"{example_id}.g(n={n})", n)
    return f, g


# --------------------------------------------------------------------------
# random generation


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _screened_gaussian(
    rng: np.random.Generator,
    dim: int,
    count: int,
    max_condition: float,
    attempts: int,
) -> np.ndarray:
    """Draw until the condition number (over the row space) passes the screen."""
    last = np.inf
    for _ in range(attempts):
        m = _complex_gaussian(rng, (dim, count))
        s = np.linalg.svd(m, compute_uv=False)
        last = np.inf if s[-1] == 0.0 else float(s[0] / s[-1])
        if last <= max_condition:
            return m
    raise GenerationError(
        f"no {dim}x{count} draw met condition <= {max_condition:g} after "
        f"{attempts} attempts (last condition {last:.3e})"
    )


def random_riesz_pair(
    dim: int,
    seed: int,
    *,
    max_condition: float = MAX_CONDITION,
    attempts: int = MAX_ATTEMPTS,
) -> tuple[RealizedSequence, RealizedSequence]:
    """Two independent well-conditioned bases of C^dim from one seed."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    path = _seed_path(seed)
    u = _screened_gaussian(
        np.random.default_rng([*path, _STREAM_RIESZ_F]), dim, dim, max_condition, attempts
    )
    w = _screened_gaussian(
        np.random.default_rng([*path, _STREAM_RIESZ_G]), dim, dim, max_condition, attempts
    )
    ref = f"random_riesz_pair(dim={dim}, seed={seed})"
    return (
        RealizedSequence(u, f"{ref}.f", dim),
        RealizedSequence(w, f"{ref}.g", dim),
    )


def random_frame(
    dim: int,
    count: int,
    seed: int,
    *,
    max_condition: float = MAX_CONDITION,
    attempts: int = MAX_ATTEMPTS,
) -> RealizedSequence:
    """A well-conditioned spanning sequence of ``count`` vectors in C^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < dim:
        raise ValueError(f"a frame needs count >= dim, got count {count} with dim {dim}")
    path = _seed_path(seed)
    cols = _screened_gaussian(
        np.random.default_rng([*path, _STREAM_FRAME]), dim, count, max_condition, attempts
    )
    return RealizedSequence(cols, f"random_frame(dim={dim}, count={count}, seed={seed})", count)
