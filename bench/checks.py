"""Output checks: every envelope against the shipped schema, and its numbers
against references this file computes with numpy from the written
definitions, never against a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import math
import re
from importlib import resources

import numpy as np

TOL = 1e-10  # the CLI's documented default --tol
IDEMPOTENT = 1e-9  # dual-pair idempotency threshold used by the acceptance suite
HS_LIMIT_SQ = 1.0 / 3.0 + math.pi**2 / 6.0 - 1.0  # ex-hs: hs^2 as N -> infinity
NORM89_LIMIT = math.sqrt(0.25 + math.pi**2 / 6.0 - 1.0)  # ex-norm89 op_norm limit
LIMIT_TOL = 1e-3  # at truncations from LIMIT_MIN_N on, as in tests/test_acceptance.py
LIMIT_MIN_N = 10_000


class CheckError(AssertionError):
    """An envelope disagrees with the schema, a reference or a property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(label: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    require(
        isinstance(got, (int, float)) and abs(got - want) <= atol + rtol * abs(want),
        f"{label}: got {got!r}, reference {want!r}",
    )


@functools.cache
def _schema_validator():
    import jsonschema

    schema = json.loads(
        resources.files("crossgram").joinpath("schemas/report.schema.json").read_text()
    )
    return jsonschema.Draft202012Validator(schema)


def envelope(text: str, argv: list[str]) -> dict:
    """Parse one command's output (JSON, or --format text) and schema-check it."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    try:
        env = json.loads(text) if fmt == "json" else unflatten(text)
    except (ValueError, IndexError) as exc:
        raise CheckError(f"{argv[0]}: unreadable {fmt} output: {exc}") from None
    errors = sorted(_schema_validator().iter_errors(env), key=lambda e: list(e.path))
    require(not errors, f"{argv[0]}: schema: {errors[0].message if errors else ''}")
    require(env["command"] == argv[0], f"command {env['command']!r} != {argv[0]!r}")
    return env


# --------------------------------------------------------------------------
# --format text: "dotted.path = value" lines back to an envelope

_TOKEN = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def _scalar(raw: str):
    if raw in ("True", "False"):
        return raw == "True"
    if raw == "None":
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def unflatten(text: str) -> dict:
    root: dict = {}
    for line in text.splitlines():
        path, sep, raw = line.partition(" = ")
        if not sep:
            raise ValueError(f"line without ' = ': {line!r}")
        keys = [k if k else int(i) for k, i in _TOKEN.findall(path)]
        node = root
        for key, nxt in zip(keys, keys[1:]):
            fresh = [] if isinstance(nxt, int) else {}
            if isinstance(key, int):
                while len(node) <= key:
                    node.append(None)
                if node[key] is None:
                    node[key] = fresh
            else:
                node.setdefault(key, fresh)
            node = node[key]
        last = keys[-1]
        if isinstance(last, int):
            while len(node) <= last:
                node.append(None)
        node[last] = _scalar(raw)
    return root


# --------------------------------------------------------------------------
# registry examples, rebuilt from their written definitions


def example_matrices(example_id: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthesis matrices (dim x count) of a registry pair at truncation n.

    ex-identity  f_k = e_k / k,  g_k = k e_k
    ex-hs        f_k = e_k / k;  g_{2c+1} = 2^-(c+1) e_1,  g_{2c+2} = e_{c+2}
    ex-blocked   f = e_1, e_1, e_2, ... ((n+1)//2 + 1 terms);  g = e_1, e_1, e_2, e_2, ...
    ex-norm89    f_k = e_k;  g_1 = e_1 / 2,  g_m = e_1 / m (m >= 2)
    ex-canonical f = e_1, e_1, e_2, e_3, ...;  g = e_1/2, e_1/2, e_2, e_3, ...
    """
    one = lambda i, c=1.0: (i, c)  # noqa: E731 - (basis index, coefficient)
    if example_id == "ex-identity":
        f = [one(k, 1.0 / k) for k in range(1, n + 1)]
        g = [one(k, float(k)) for k in range(1, n + 1)]
    elif example_id == "ex-hs":
        f = [one(k, 1.0 / k) for k in range(1, n + 1)]
        g = [one(1, 0.5 ** (m // 2 + 1)) if m % 2 else one(m // 2 + 1) for m in range(1, n + 1)]
    elif example_id == "ex-blocked":
        f = [one(max(j - 1, 1)) for j in range(1, (n + 1) // 2 + 2)]
        g = [one((m + 1) // 2) for m in range(1, n + 1)]
    elif example_id == "ex-norm89":
        f = [one(k) for k in range(1, n + 1)]
        g = [one(1, 0.5)] + [one(1, 1.0 / m) for m in range(2, n + 1)]
    elif example_id == "ex-canonical":
        f = [one(max(j - 1, 1)) for j in range(1, n + 1)]
        g = [one(1, 0.5), one(1, 0.5)] + [one(j - 1) for j in range(3, n + 1)]
    else:
        raise KeyError(example_id)
    dim = max(i for i, _ in f + g)
    mats = []
    for terms in (f, g):
        t = np.zeros((dim, len(terms)), dtype=complex)
        for k, (i, c) in enumerate(terms):
            t[i - 1, k] = c
        mats.append(t)
    return mats[0], mats[1]


def classification_ref(t: np.ndarray, tol: float = TOL) -> dict:
    dim, count = t.shape
    s = np.linalg.svd(t, compute_uv=False)
    bessel = float(s[0]) ** 2
    lower = float(s[-1]) ** 2 if count >= dim else 0.0
    complete = int(np.sum(s > tol * s[0])) == dim
    cols = np.linalg.norm(t, axis=0)
    return {
        "count": count, "dim": dim, "bessel_bound": bessel, "lower": lower,
        "complete": complete,
        "riesz": bool(complete and count == dim and float(s[-1]) ** 2 > tol * bessel),
        "nba_sup": float(cols.max()), "nbb_inf": float(cols.min()),
    }


def cross_gram_ref(tf: np.ndarray, tg: np.ndarray, tol: float = TOL) -> dict:
    m = tg.conj().T @ tf
    s = np.linalg.svd(m, compute_uv=False)
    rows, cols = m.shape
    out = {
        "rows": rows, "cols": cols, "op_norm": float(s[0]), "sigma_min": float(s[-1]),
        "hs": float(np.linalg.norm(m)), "psd": False,
        "invertible": bool(rows == cols and s[0] > 0 and s[-1] > tol * s[0]),
    }
    if rows == cols:
        defect = float(np.linalg.norm(m - m.conj().T, 2)) / max(1.0, float(s[0]))
        out["idempotency_defect"] = float(np.linalg.norm(m @ m - m, 2))
        out["psd"] = bool(defect <= tol and np.linalg.eigvalsh(m)[0] >= -tol * s[0])
    return out


def pairing_ref(tf: np.ndarray, tg: np.ndarray) -> float:
    return float(np.linalg.norm(tf @ tg.conj().T - np.eye(tf.shape[0]), 2))


def check_classification(rep: dict, ref: dict, label: str) -> None:
    for key in ("count", "dim", "complete", "riesz"):
        require(rep[key] == ref[key], f"{label}.{key}: got {rep[key]!r}, reference {ref[key]!r}")
    close(f"{label}.bessel_bound", rep["bessel_bound"], ref["bessel_bound"])
    close(f"{label}.frame.upper", rep["frame"]["upper"], ref["bessel_bound"])
    close(f"{label}.frame.lower", rep["frame"]["lower"], ref["lower"], atol=1e-9)
    close(f"{label}.nba_sup", rep["nba_sup"], ref["nba_sup"])
    close(f"{label}.nbb_inf", rep["nbb_inf"], ref["nbb_inf"])


def check_cross_gram(rep: dict, ref: dict, label: str) -> None:
    for key in ("rows", "cols", "invertible", "psd"):
        require(rep[key] == ref[key], f"{label}.{key}: got {rep[key]!r}, reference {ref[key]!r}")
    scale = max(1.0, ref["op_norm"])
    close(f"{label}.op_norm", rep["op_norm"], ref["op_norm"])
    close(f"{label}.sigma_min", rep["sigma_min"], ref["sigma_min"], atol=1e-9 * scale)
    close(f"{label}.hs", rep["hs"], ref["hs"])
    if "idempotency_defect" in ref:
        close(f"{label}.idempotency_defect", rep["idempotency_defect"],
              ref["idempotency_defect"], atol=1e-9 * scale)


def check_residuals(rep: dict, label: str) -> None:
    """Residuals 1 and 2 probe unit vectors, so the operator norm of
    T_f T_g* - I (residual 3) bounds both."""
    bound = rep["pairing_residual_3"] * (1 + 1e-9) + 1e-15
    for key in ("reconstruction_residual_1", "reconstruction_residual_2"):
        require(rep[key] <= bound, f"{label}.{key} {rep[key]!r} exceeds pairing {bound!r}")


def check_duality(rep: dict, pairing: float, label: str) -> None:
    """Verdict and residual 3 against the reference pairing residual."""
    close(f"{label}.pairing_residual_3", rep["pairing_residual_3"], pairing, atol=1e-9)
    require(rep["is_dual_pair"] == (pairing <= TOL),
            f"{label}.is_dual_pair: got {rep['is_dual_pair']!r} at pairing {pairing:.3e}")
    check_residuals(rep, label)


# --------------------------------------------------------------------------
# per-workload checks


def check_battery(env: dict, seed: int, trials: int, lo: int, hi: int) -> None:
    rep = env["report"]
    require(env["config"]["seed"] == seed and rep["seed"] == seed, "battery seed echo")
    require(rep["trials"] == trials and (rep["dim_low"], rep["dim_high"]) == (lo, hi),
            "battery trials/dims echo")
    require(len(rep["checks"]) == 8 and len(rep["controls"]) == 2,
            "battery: expected eight checks and two negative controls")
    for outcome in rep["checks"] + rep["controls"]:
        cid = outcome["check_id"]
        require(outcome["trials"] == trials, f"{cid}: ran {outcome['trials']} trials")
        # a control passes when its planted fault is detected in every trial
        require(outcome["failures"] == 0 and outcome["passed"], f"{cid}: failed")
    require(rep["all_passed"] is True, "battery: all_passed is not true")


def sweep_rows_ref(example_id: str, n: int) -> dict:
    tf, tg = example_matrices(example_id, n)
    cg = cross_gram_ref(tf, tg)
    return {
        "dim": tf.shape[0], "f_count": tf.shape[1], "g_count": tg.shape[1],
        "op_norm": cg["op_norm"], "sigma_min": cg["sigma_min"], "hs": cg["hs"],
        "f_bessel": float(np.linalg.svd(tf, compute_uv=False)[0]) ** 2,
        "g_bessel": float(np.linalg.svd(tg, compute_uv=False)[0]) ** 2,
    }


def check_sweep(env: dict, example_id: str, ladder, refs: dict) -> None:
    """``refs`` maps a truncation to ``sweep_rows_ref`` for the rows checked
    against a dense SVD (the low rows; the dense route costs O(n^3))."""
    rep = env["report"]
    rows = rep["rows"]
    require(rep["example_id"] == example_id, "sweep example id echo")
    require([r["truncation"] for r in rows] == list(ladder), "sweep truncations")
    for row in rows:
        n = row["truncation"]
        label = f"sweep {example_id} n={n}"
        if n in refs:
            ref = refs[n]
            for key in ("dim", "f_count", "g_count"):
                require(row[key] == ref[key], f"{label}.{key}: got {row[key]}, reference {ref[key]}")
            for key in ("op_norm", "hs", "f_bessel", "g_bessel"):
                close(f"{label}.{key}", row[key], ref[key])
            close(f"{label}.sigma_min", row["sigma_min"], ref["sigma_min"], atol=1e-9)
        if example_id == "ex-identity":
            close(f"{label}.op_norm", row["op_norm"], 1.0, rtol=0.0, atol=1e-14)
            close(f"{label}.sigma_min", row["sigma_min"], 1.0, rtol=0.0, atol=1e-14)
            close(f"{label}.hs", row["hs"], math.sqrt(n), rtol=1e-14, atol=0.0)
    top = rows[-1]
    if top["truncation"] < LIMIT_MIN_N:
        return
    if example_id == "ex-hs":
        close("ex-hs top hs^2", top["hs"] ** 2, HS_LIMIT_SQ, rtol=0.0, atol=LIMIT_TOL)
    if example_id == "ex-norm89":
        close("ex-norm89 top op_norm", top["op_norm"], NORM89_LIMIT, rtol=0.0, atol=LIMIT_TOL)


def check_example(env: dict, example_id: str, n: int, ref: dict) -> None:
    """``ref`` is ``example_ref(example_id, n)``."""
    rep = env["report"]
    require(rep["example_id"] == example_id and rep["truncation"] == n, "example echo")
    require((rep["f_count"], rep["g_count"], rep["dim"]) == ref["shape"], "example shape")
    check_classification(rep["f_classification"], ref["f"], f"{example_id}.f")
    check_classification(rep["g_classification"], ref["g"], f"{example_id}.g")
    check_cross_gram(rep["cross_gram"], ref["cross_gram"], f"{example_id}.cross_gram")
    if ref["pairing"] is None:
        require(rep["duality"] is None, f"{example_id}: duality reported for unequal counts")
    else:
        check_duality(rep["duality"], ref["pairing"], f"{example_id}.duality")
    # the worked examples' stated phenomena
    cg = rep["cross_gram"]
    if example_id == "ex-identity":
        require(cg["identity_distance"] <= 1e-12, "ex-identity: G is not the identity")
    if example_id == "ex-blocked":
        close("ex-blocked op_norm", cg["op_norm"], 2.0, rtol=0.0, atol=1e-10)
        require(not cg["invertible"], "ex-blocked: G reported invertible")
    if example_id == "ex-canonical":
        require(cg["psd"] and cg["idempotency_defect"] <= IDEMPOTENT,
                "ex-canonical: canonical-dual cross-Gram is not a positive projection")


def example_ref(example_id: str, n: int) -> dict:
    tf, tg = example_matrices(example_id, n)
    return {
        "shape": (tf.shape[1], tg.shape[1], tf.shape[0]),
        "f": classification_ref(tf),
        "g": classification_ref(tg),
        "cross_gram": cross_gram_ref(tf, tg),
        "pairing": pairing_ref(tf, tg) if tf.shape[1] == tg.shape[1] else None,
    }


def check_random_frame_classify(rep: dict, d: int, n: int, max_condition: float) -> None:
    """Properties of a condition-screened random frame (no reference matrix:
    the program draws it)."""
    require((rep["dim"], rep["count"]) == (d, n), "random_frame shape")
    require(rep["complete"] and rep["frame"]["spans_ambient"] and not rep["riesz"],
            "random_frame: an overcomplete spanning frame must be complete, not Riesz")
    lower, upper = rep["frame"]["lower"], rep["frame"]["upper"]
    require(0.0 < lower <= upper and upper <= lower * max_condition**2 * (1 + 1e-9),
            f"random_frame: bounds {lower!r}, {upper!r} break the condition screen")
    require(rep["nbb_inf"] <= rep["nba_sup"] and rep["nba_sup"] ** 2 <= upper * (1 + 1e-9),
            "random_frame: column norms exceed the Bessel bound")
    require(upper <= n * rep["nba_sup"] ** 2 * (1 + 1e-9), "random_frame: Bessel bound too large")


def check_frame_pair_cross_gram(rep: dict, d: int, n: int) -> None:
    """Two frames that are not Riesz bases: G has rank <= d < n, so it is not
    invertible (the paper's non-invertibility result)."""
    require((rep["rows"], rep["cols"]) == (n, n), "frame-pair cross-Gram shape")
    require(not rep["invertible"] and rep["sigma_min"] <= TOL * rep["op_norm"],
            "frame-pair cross-Gram reported invertible")
    op, hs = rep["op_norm"], rep["hs"]
    require(0.0 < op <= hs * (1 + 1e-12) and hs <= math.sqrt(d) * op * (1 + 1e-9),
            "frame-pair cross-Gram: hs outside [op_norm, sqrt(rank) op_norm]")
