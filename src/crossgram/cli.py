"""Command line interface.

Exit codes: 0 on success, 2 when inputs fail validation, 3 when the
theorem battery emits a report containing a failed check.  All output is
a single report envelope on stdout (or at --out), rendered as JSON by
default; identical inputs yield identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import diagnostics, operators, sequences, serialize
from .linalg import DEFAULT_TOL
from .sequences import GenerationError

ENV_TOL = "CROSSGRAM_TOL"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one command invocation."""

    command: str
    tol: float
    input: str | None = None
    f: str | None = None
    g: str | None = None
    example_id: str | None = None
    dim: int | None = None
    truncations: tuple[int, ...] | None = None
    probes: int = 16
    seed: int = 42
    trials: int = 200
    dim_low: int = 2
    dim_high: int = 8
    jobs: int = 1

    def validate(self) -> None:
        if not 0.0 < self.tol < 1.0:
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.dim is not None and self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.probes < 0:
            raise ValueError(f"probes must be non-negative, got {self.probes}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


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
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the battery always runs serially")
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


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    tol = _resolve_tol(ns.tol)
    fields = {"command": ns.command, "tol": tol}
    for name in ("input", "f", "g", "example_id", "dim", "probes", "seed", "trials", "jobs"):
        if hasattr(ns, name):
            fields[name] = getattr(ns, name)
    if ns.command == "sweep":
        fields["truncations"] = ns.dims
    if ns.command == "battery":
        fields["dim_low"], fields["dim_high"] = ns.dims
    config = RunConfig(**fields)
    config.validate()
    return config


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


def _pair(config: RunConfig):
    """Both sides of a pair command: term arrays when both are monomial,
    else dense realizations."""
    f, g = _side(config.f, config.dim), _side(config.g, config.dim)
    if isinstance(f, tuple) == isinstance(g, tuple):
        return f, g
    return tuple(
        _named(path, sequences.from_terms, *side) if isinstance(side, tuple) else side
        for side, path in ((f, config.f), (g, config.g))
    )


def run_command(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; return (exit code, report envelope)."""
    command = config.command

    if command == "classify":
        seq = _side(config.input, config.dim)
        if isinstance(seq, tuple):
            report = diagnostics.monomial_reports(seq, tol=config.tol)[0]
        else:
            report = diagnostics.classify_sequence(seq, tol=config.tol)
        echo = {"input": config.input, "dim": config.dim, "tol": config.tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "cross-gram":
        f, g = _pair(config)
        if isinstance(f, tuple):
            report = diagnostics.monomial_reports(f, g, tol=config.tol)[2]
        else:
            report = diagnostics.analyze_cross_gram(operators.cross_gram(f, g), tol=config.tol)
        echo = {"f": config.f, "g": config.g, "dim": config.dim, "tol": config.tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "dual-check":
        f, g = _pair(config)
        probing = {"tol": config.tol, "probes": config.probes, "seed": config.seed}
        if isinstance(f, tuple):
            report = diagnostics.monomial_duality(f, g, **probing)
        else:
            report = diagnostics.check_duality(f, g, **probing)
        echo = {
            "f": config.f, "g": config.g, "dim": config.dim,
            "tol": config.tol, "probes": config.probes, "seed": config.seed,
        }
        return 0, serialize.build_envelope(command, echo, report)

    if command == "example":
        entry = sequences.example_entry(config.example_id)
        ft, gt = sequences.example_terms(entry.example_id, config.dim)
        probes = 16 if len(ft[0]) == len(gt[0]) else None
        f_cls, g_cls, cross, duality = diagnostics.monomial_reports(
            ft, gt, tol=config.tol, probes=probes
        )
        report = {
            "example_id": entry.example_id,
            "title": entry.title,
            "truncation": config.dim,
            "dim": ft[2],
            "f_count": f_cls.count,
            "g_count": g_cls.count,
            "tail_inferred": entry.tail_inferred,
            "f_classification": f_cls,
            "g_classification": g_cls,
            "cross_gram": cross,
            "duality": duality,
        }
        echo = {"id": config.example_id, "dim": config.dim, "tol": config.tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "sweep":
        report = diagnostics.truncation_sweep(config.example_id, config.truncations, tol=config.tol)
        echo = {"id": config.example_id, "truncations": list(config.truncations), "tol": config.tol}
        return 0, serialize.build_envelope(command, echo, report)

    if command == "battery":
        report = diagnostics.theorem_battery(
            seed=config.seed,
            trials=config.trials,
            dims=(config.dim_low, config.dim_high),
            tol=config.tol,
        )
        echo = {
            "seed": config.seed,
            "trials": config.trials,
            "dim_low": config.dim_low,
            "dim_high": config.dim_high,
            "tol": config.tol,
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
        config = config_from_args(ns)
        code, envelope = run_command(config)
        text = serialize.emit_report(envelope, fmt=ns.format, out=ns.out)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"crossgram: error: {exc}", file=sys.stderr)
        return 2
    if ns.out is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
