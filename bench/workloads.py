"""The three workloads: inputs made from the workload seed, ops, and checks.

An op is a list of CLI commands (argv lists for ``crossgram.cli.main``)
timed as one unit; a run attempts whole ops only, and the memory pass runs
the first ``memory_ops`` ops.  ``check(argv, code,
text)`` raises ``checks.CheckError`` when a command's output is wrong.

battery  one ``battery`` command per op, a fresh seed per op: thousands of
         2..8-dim matrices, so per-call overhead (validation, small LAPACK
         calls) dominates.
sweep    one ``sweep`` per registry example per op, on a decade ladder to
         1e5: term generation, one Python object per term, dominates.
dense    one pass over example/classify/cross-gram/dual-check at moderate
         size: spec-file decoding, duality probes and LAPACK dominate.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks

EXAMPLE_IDS = ("ex-identity", "ex-hs", "ex-blocked", "ex-norm89", "ex-canonical")

BATTERY_TRIALS = 20
BATTERY_DIMS = (2, 8)

SWEEP_LADDER = (10, 100, 1000, 10_000, 100_000)
SWEEP_DENSE_ROWS = (10, 100)  # rows also checked against a dense SVD

DENSE_EXAMPLE_DIM = 256
DENSE_D, DENSE_N = 128, 192  # explicit and random_frame specs: d x n
RANDOM_FRAME_MAX_CONDITION = 100.0  # the program's documented screen


class Battery:
    name = "battery"
    memory_ops = 3  # ops differ by seed; three see the largest dims almost surely

    def __init__(self, seed: int, workdir: str):
        self._rng = np.random.default_rng([seed, 1])
        self._lo, self._hi = BATTERY_DIMS

    def next_op(self) -> list[list[str]]:
        s = int(self._rng.integers(0, 2**31 - 1))
        return [["battery", "--seed", str(s), "--trials", str(BATTERY_TRIALS),
                 "--dims", f"{self._lo}..{self._hi}"]]

    def check(self, argv: list[str], code: int, text: str) -> None:
        checks.require(code == 0, f"battery exit code {code}")
        env = checks.envelope(text, argv)
        checks.check_battery(env, int(argv[2]), BATTERY_TRIALS, self._lo, self._hi)


class Sweep:
    name = "sweep"
    memory_ops = 1

    def __init__(self, seed: int, workdir: str):
        self._rng = np.random.default_rng([seed, 2])
        self._refs: dict[str, dict] = {}

    def next_op(self) -> list[list[str]]:
        ladder = ",".join(str(n) for n in SWEEP_LADDER)
        return [["sweep", "--id", eid, "--dims", ladder]
                for eid in self._rng.permutation(EXAMPLE_IDS)]

    def check(self, argv: list[str], code: int, text: str) -> None:
        checks.require(code == 0, f"sweep exit code {code}")
        eid = argv[2]
        if eid not in self._refs:
            self._refs[eid] = {n: checks.sweep_rows_ref(eid, n) for n in SWEEP_DENSE_ROWS}
        checks.check_sweep(checks.envelope(text, argv), eid, SWEEP_LADDER, self._refs[eid])


def _explicit_spec(t: np.ndarray) -> dict:
    return {"kind": "explicit",
            "columns": [[[float(z.real), float(z.imag)] for z in col] for col in t.T]}


class Dense:
    name = "dense"
    memory_ops = 1

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        d, n = DENSE_D, DENSE_N
        f = (rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))) / np.sqrt(2.0)
        dual = np.linalg.solve(f @ f.conj().T, f)  # canonical dual S^-1 F
        frame_seeds = rng.integers(0, 2**31 - 1, size=2)
        self._text_id = EXAMPLE_IDS[int(rng.integers(len(EXAMPLE_IDS)))]
        paths = {}
        specs = {
            "f": _explicit_spec(f),
            "dual": _explicit_spec(dual),
            "frame_f": {"kind": "random_frame", "d": d, "n": n, "seed": int(frame_seeds[0])},
            "frame_g": {"kind": "random_frame", "d": d, "n": n, "seed": int(frame_seeds[1])},
        }
        for key, spec in specs.items():
            paths[key] = os.path.join(workdir, f"dense-{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
        self.paths = paths
        self._mats: dict[str, np.ndarray] = {}
        self._example_refs: dict[str, dict] = {}
        dim, m = str(DENSE_EXAMPLE_DIM), str(DENSE_N)
        cmds = []
        for eid in EXAMPLE_IDS:
            fmt = ["--format", "text"] if eid == self._text_id else []
            cmds.append(["example", "--id", eid, "--dim", dim, *fmt])
        for f_key, g_key in (("f", "dual"), ("frame_f", "frame_g")):
            cmds += [
                ["classify", "--input", paths[f_key], "--dim", m],
                ["cross-gram", "--f", paths[f_key], "--g", paths[g_key], "--dim", m],
                ["dual-check", "--f", paths[f_key], "--g", paths[g_key], "--dim", m],
            ]
        self._commands = cmds

    @staticmethod
    def _load_explicit(path: str) -> np.ndarray:
        with open(path, encoding="utf-8") as fh:
            cols = json.load(fh)["columns"]
        return np.array([[complex(re, im) for re, im in col] for col in cols]).T

    def next_op(self) -> list[list[str]]:
        return [list(c) for c in self._commands]

    def check(self, argv: list[str], code: int, text: str) -> None:
        checks.require(code == 0, f"{argv[0]} exit code {code}")
        env = checks.envelope(text, argv)
        rep = env["report"]
        if argv[0] == "example":
            eid = argv[2]
            if eid not in self._example_refs:
                self._example_refs[eid] = checks.example_ref(eid, DENSE_EXAMPLE_DIM)
            checks.check_example(env, eid, DENSE_EXAMPLE_DIM, self._example_refs[eid])
            return
        explicit = self.paths["f"] in argv
        if explicit and not self._mats:
            # read back what the program reads, so references see the same numbers
            self._mats = {k: self._load_explicit(self.paths[k]) for k in ("f", "dual")}
        f, dual = self._mats.get("f"), self._mats.get("dual")
        if argv[0] == "classify":
            if explicit:
                checks.check_classification(rep, checks.classification_ref(f), "explicit f")
            else:
                checks.check_random_frame_classify(rep, DENSE_D, DENSE_N, RANDOM_FRAME_MAX_CONDITION)
        elif argv[0] == "cross-gram":
            if explicit:
                # g is the canonical dual of f: G is the positive projection
                ref = checks.cross_gram_ref(f, dual)
                checks.check_cross_gram(rep, ref, "explicit (f, dual)")
                checks.require(rep["psd"] and rep["idempotency_defect"] <= checks.IDEMPOTENT,
                               "canonical-dual cross-Gram is not a positive projection")
            else:
                checks.check_frame_pair_cross_gram(rep, DENSE_D, DENSE_N)
        else:
            if explicit:
                checks.check_duality(rep, checks.pairing_ref(f, dual), "explicit (f, dual)")
                checks.require(rep["is_dual_pair"], "canonical dual fails dual-check")
            else:
                checks.require(not rep["is_dual_pair"], "two random frames reported dual")
                checks.check_residuals(rep, "random frame pair")


WORKLOADS = {w.name: w for w in (Battery, Sweep, Dense)}
