"""Command line interface.

Exit codes: 0 on success, 2 when inputs fail validation, 3 when the
theorem battery emits a report containing a failed check.  All output is
a single report envelope on stdout (or at --out), rendered as JSON by
default; identical inputs yield identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import diagnostics, operators, sequences, serialize
from .linalg import DEFAULT_TOL
from .sequences import GenerationError

ENV_TOL = "CROSSGRAM_TOL"


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            raise ValueError
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"--dims expects LO..HI (for example 2..8), got {text!r}") from None


def _parse_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"--dims expects a comma-separated truncation list, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossgram",
        description="Cross-Gram diagnostics for sequence pairs in finite truncation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None,
                       help=f"singular value cutoff (default {DEFAULT_TOL} or ${ENV_TOL})")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="frame-theoretic classification of one sequence")
    p.add_argument("--input", required=True, help="sequence spec file (JSON)")
    p.add_argument("--dim", type=int, required=True, help="truncation level")
    common(p)

    p = sub.add_parser("cross-gram", help="analyze the cross-Gram matrix of a pair")
    p.add_argument("--f", required=True, help="spec file for the synthesis-side sequence")
    p.add_argument("--g", required=True, help="spec file for the analysis-side sequence")
    p.add_argument("--dim", type=int, required=True, help="truncation level")
    common(p)

    p = sub.add_parser("dual-check", help="test whether a pair reconstructs the identity")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--dim", type=int, required=True, help="truncation level")
    p.add_argument("--probes", type=int, default=16, help="random reconstruction probes")
    p.add_argument("--seed", type=int, default=0, help="probe RNG seed")
    common(p)

    p = sub.add_parser("example", help="full diagnostics for a registry example")
    p.add_argument("--id", required=True, dest="example_id", help="registry example id")
    p.add_argument("--dim", type=int, required=True, help="truncation level")
    common(p)

    p = sub.add_parser("sweep", help="convergence table over growing truncations")
    p.add_argument("--id", required=True, dest="example_id")
    p.add_argument("--dims", required=True, type=_parse_list,
                   help="comma-separated increasing truncations, e.g. 10,100,1000")
    common(p)

    p = sub.add_parser("battery", help="seeded randomized theorem checks")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--dims", type=_parse_range, default=(2, 8),
                   help="ambient dimension range LO..HI, e.g. 2..8")
    common(p)

    return parser


def _resolve_tol(flag_value: float | None) -> float:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_TOL)
    if raw is None or raw == "":
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL} must be a number, got {raw!r}") from None


def _validate(ns: argparse.Namespace) -> None:
    """Refuse out-of-range flags before any spec file is read."""
    if not 0.0 < ns.tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {ns.tol}")
    if getattr(ns, "dim", 1) < 1:
        raise ValueError(f"dim must be a positive integer, got {ns.dim}")
    if getattr(ns, "probes", 0) < 0:
        raise ValueError(f"probes must be non-negative, got {ns.probes}")
    if getattr(ns, "seed", 0) < 0:
        raise ValueError(f"seed must be non-negative, got {ns.seed}")


def _named(path: str, make, *args):
    """``make(*args)``; an error names the spec file, as a decoding error does."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _side(path: str, n: int):
    """One spec file at truncation ``n``: the term arrays of a monomial
    kind, else its dense realization."""
    spec = serialize.load_sequence_file(path)
    monomial = spec.kind in sequences.MONOMIAL_KINDS
    return _named(path, sequences.term_arrays if monomial else sequences.realize, spec, n)


def _pair(ns: argparse.Namespace):
    """Both sides of a pair command: term arrays when both are monomial,
    else dense realizations."""
    f, g = _side(ns.f, ns.dim), _side(ns.g, ns.dim)
    if isinstance(f, tuple) == isinstance(g, tuple):
        return f, g
    return tuple(
        _named(path, sequences.from_terms, *side) if isinstance(side, tuple) else side
        for side, path in ((f, ns.f), (g, ns.g))
    )


def run_command(ns: argparse.Namespace) -> tuple[int, dict]:
    """Execute one parsed command, its tolerance resolved and its flags
    validated; return (exit code, report envelope)."""
    command, tol = ns.command, ns.tol

    if command == "classify":
        seq = _side(ns.input, ns.dim)
        if isinstance(seq, tuple):
            report = diagnostics.monomial_reports(seq, tol=tol)[0]
        else:
            report = diagnostics.classify_sequence(seq, tol=tol)
        echo = {"input": ns.input, "dim": ns.dim, "tol": tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "cross-gram":
        f, g = _pair(ns)
        if isinstance(f, tuple):
            report = diagnostics.monomial_reports(f, g, tol=tol)[2]
        else:
            report = diagnostics.analyze_cross_gram(operators.cross_gram(f, g), tol=tol)
        echo = {"f": ns.f, "g": ns.g, "dim": ns.dim, "tol": tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "dual-check":
        f, g = _pair(ns)
        probing = {"tol": tol, "probes": ns.probes, "seed": ns.seed}
        if isinstance(f, tuple):
            report = diagnostics.monomial_duality(f, g, **probing)
        else:
            report = diagnostics.check_duality(f, g, **probing)
        echo = {"f": ns.f, "g": ns.g, "dim": ns.dim, **probing}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "example":
        entry = sequences.example_entry(ns.example_id)
        ft, gt = sequences.example_terms(entry.example_id, ns.dim)
        f_cls, g_cls, cross = diagnostics.monomial_reports(ft, gt, tol=tol)
        square = len(ft[0]) == len(gt[0])
        report = {
            "example_id": entry.example_id,
            "title": entry.title,
            "truncation": ns.dim,
            "dim": ft[2],
            "f_count": f_cls.count,
            "g_count": g_cls.count,
            "tail_inferred": entry.tail_inferred,
            "f_classification": f_cls,
            "g_classification": g_cls,
            "cross_gram": cross,
            "duality": diagnostics.monomial_duality(ft, gt, tol=tol) if square else None,
        }
        echo = {"id": ns.example_id, "dim": ns.dim, "tol": tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "sweep":
        report = diagnostics.truncation_sweep(ns.example_id, ns.dims, tol=tol)
        echo = {"id": ns.example_id, "truncations": list(ns.dims), "tol": tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "battery":
        report = diagnostics.theorem_battery(seed=ns.seed, trials=ns.trials, dims=ns.dims, tol=tol)
        echo = {
            "seed": ns.seed,
            "trials": ns.trials,
            "dim_low": ns.dims[0],
            "dim_high": ns.dims[1],
            "tol": tol,
        }
        code = 0 if report.all_passed else 3
        return code, serialize.build_envelope(command, echo, report)

    raise ValueError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ns.tol = _resolve_tol(ns.tol)
        _validate(ns)
        code, envelope = run_command(ns)
        text = serialize.emit_report(envelope, fmt=ns.format, out=ns.out)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"crossgram: error: {exc}", file=sys.stderr)
        return 2
    if ns.out is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
