"""Cross-Gram diagnostics for sequence pairs in finite-dimensional truncation.

The package realizes structured vector sequences at a chosen truncation
level, forms their cross-Gram matrices, frame bounds and duals, classifies
sequences (Bessel, frame, Riesz, complete, norm-bounded), checks dual
pairs, sweeps truncations for convergence behavior, and runs a seeded
randomized battery of theorem-level identities with negative controls.
"""

__version__ = "0.1.0"

from .linalg import DEFAULT_TOL
from .sequences import (
    ExampleEntry,
    GenerationError,
    PatternProgram,
    PatternTerm,
    RealizedSequence,
    SequenceSpec,
    TailSlot,
    WeightRule,
    example_entry,
    example_ids,
    monomial_terms,
    paper_example,
    random_frame,
    random_riesz_pair,
    realize,
)
from .operators import (
    FrameBounds,
    NotAFrameError,
    alternate_dual,
    canonical_dual,
    cross_gram,
    frame_bounds,
)
from .diagnostics import (
    CheckOutcome,
    ConvergenceTable,
    CrossGramReport,
    DualityReport,
    PropertyReport,
    SequenceClassification,
    SweepRow,
    analyze_cross_gram,
    check_duality,
    classify_sequence,
    theorem_battery,
    truncation_sweep,
)
from .serialize import SpecFileError, load_sequence_file, spec_from_json

__all__ = [
    "DEFAULT_TOL",
    "ExampleEntry",
    "GenerationError",
    "PatternProgram",
    "PatternTerm",
    "RealizedSequence",
    "SequenceSpec",
    "TailSlot",
    "WeightRule",
    "example_entry",
    "example_ids",
    "monomial_terms",
    "paper_example",
    "random_frame",
    "random_riesz_pair",
    "realize",
    "FrameBounds",
    "NotAFrameError",
    "alternate_dual",
    "canonical_dual",
    "cross_gram",
    "frame_bounds",
    "CheckOutcome",
    "ConvergenceTable",
    "CrossGramReport",
    "DualityReport",
    "PropertyReport",
    "SequenceClassification",
    "SweepRow",
    "analyze_cross_gram",
    "check_duality",
    "classify_sequence",
    "theorem_battery",
    "truncation_sweep",
    "SpecFileError",
    "load_sequence_file",
    "spec_from_json",
    "__version__",
]
