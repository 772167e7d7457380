"""crossgram benchmark: one workload, timed, checked and reported.

    python3 bench/run.py --workload {battery,sweep,dense} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs ops one at a time (a closed loop) in this
process, through ``crossgram.cli.main`` only; BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics: setup_s, op_s, peak_alloc_mb,
peak_rss_mb.  ``--trace 1`` runs half the time untraced and half with spans
around every layer, and prints the per-layer metrics.  Earlier stdout lines
carry the run record (machine, versions, BLAS, raw seconds, the calibration
kernel's raw median); the last line is the result object.  Run records and
span traces are also written under ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: with two BLAS threads on two shared cores the
# dense pass ran slower and noisier.  A fixed hash seed gives every run the
# same dict and set layouts, so runs differ by the machine, not by luck.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
MB = 1e6


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **PINNED_ENV)


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a failed run
            code = 1
    return code, out.getvalue()


class Runner:
    """Runs whole ops, times each between calibration kernels, checks outputs."""

    def __init__(self, cli, plan):
        self.cli, self.plan = cli, plan
        self.attempted = self.failed = 0
        self.check_errors: list[str] = []
        self.kernels: list[float] = []

    def op(self):
        """One op; returns (raw s, normalized s, output bytes)."""
        commands = self.plan.next_op()
        outputs, raw, norm, cal = calibrate.timed(
            [lambda argv=argv: run_command(self.cli, argv) for argv in commands]
        )
        self.kernels.extend(cal)
        self.attempted += 1
        if any(code != 0 for code, _ in outputs):
            self.failed += 1
        else:
            for argv, (code, text) in zip(commands, outputs):
                try:
                    self.plan.check(argv, code, text)
                except checks.CheckError as exc:
                    self.check_errors.append(f"{' '.join(argv)}: {exc}")
        return raw, norm, sum(len(text.encode()) for _, text in outputs)

    def loop(self, seconds: float):
        """Whole ops until ``seconds`` have passed; lists of raw and normalized s."""
        raws, norms = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            raw, norm, _ = self.op()
            raws.append(raw)
            norms.append(norm)
        return raws, norms


def measure_setup(workload_cls, seed: int, workdir: str) -> tuple[float, float]:
    """Median over SETUP_REPEATS of: the time a fresh interpreter takes to
    import crossgram.cli (measured inside it) plus the time to build the
    workload's inputs.  Returns (normalized s, raw s)."""
    env = child_env()
    argv = [sys.executable, "-c",
            "import time; t = time.perf_counter(); import crossgram.cli; "
            "print(time.perf_counter() - t)"]
    subprocess.run(argv, env=env, check=True, capture_output=True)  # compile bytecode

    def import_seconds() -> float:
        proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        return float(proc.stdout)

    norms, raws = [], []
    for i in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup-{i}")
        os.mkdir(target)

        def build_seconds() -> float:
            start = time.perf_counter()
            workload_cls(seed, target)
            return time.perf_counter() - start

        (imp, build), _, _, ks = calibrate.timed([import_seconds, build_seconds])
        norms.append(calibrate.normalize(imp, ks[0], ks[1]) + calibrate.normalize(build, ks[1], ks[2]))
        raws.append(imp + build)
    return calibrate.median(norms), calibrate.median(raws)


def memory_pass(workload_cls, seed: int, workdir: str) -> dict:
    plan = workload_cls(seed, workdir)
    ops = [plan.next_op() for _ in range(workload_cls.memory_ops)]
    path = os.path.join(workdir, "memory-ops.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    # the two passes are independent processes: run them side by side
    procs = {}
    result = {}
    try:
        for mode in ("alloc", "rss"):
            procs[mode] = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "mempass.py"), mode, path],
                env=child_env(), stdout=subprocess.PIPE, text=True,
            )
        for mode, proc in procs.items():
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"memory pass ({mode}) exited with {proc.returncode}")
            result[mode] = json.loads(out.strip().splitlines()[-1])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    failed = [any(c != 0 for c in a + b)
              for a, b in zip(result["alloc"]["codes"], result["rss"]["codes"])]
    return {
        "peak_alloc_mb": max(result["alloc"]["peaks"]) / MB,
        "peak_rss_mb": result["rss"]["maxrss_kb"] * 1024 / MB,
        "ops": len(ops),
        "failed_ops": sum(failed),
    }


def machine_record(kernels) -> dict:
    import numpy as np

    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in PINNED_ENV if k.endswith("THREADS")},
        "cal_ref_s": calibrate.CAL_REF,
        "cal_kernel_raw_median_s": calibrate.median(kernels) if kernels else None,
    }


def is_seconds(name: str) -> bool:
    return name.endswith(("_s", ".s"))


def unit_of(name: str) -> str:
    if is_seconds(name):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_all(args) -> int:
    """Each workload in its own run.py process; a table of every metric, then
    one JSON object with each workload's result."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True,
        )
        result = results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, m in result["metrics"].items():
            print(f"{name:8s} {key:28s} {m['value']:12.6g} {m['unit']}")
        print(f"{name:8s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "crossgram", "cli.py")):
        print(f"bench: no crossgram sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import crossgram
    import crossgram.cli as cli

    if not os.path.abspath(crossgram.__file__).startswith(SRC + os.sep):
        print(f"bench: crossgram imported from {crossgram.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT)
    try:
        workload_cls = workloads.WORKLOADS[args.workload]
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        if args.trace == 0:
            clock = time.perf_counter()
            setup_s, setup_raw = measure_setup(workload_cls, args.seed, workdir)
            phases = {"setup": time.perf_counter() - clock}
            runner = Runner(cli, workload_cls(args.seed, workdir))
            raws, norms = runner.loop(args.seconds)
            phases["timed_loop"] = time.perf_counter() - clock - phases["setup"]
            per_op = {"raw_s": raws, "op_s": norms}
            memory = memory_pass(workload_cls, args.seed, workdir)
            phases["memory_pass"] = time.perf_counter() - clock - sum(phases.values())
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "op_s": metric(calibrate.median(norms), "s"),
                "peak_alloc_mb": metric(memory["peak_alloc_mb"], "MB"),
                "peak_rss_mb": metric(memory["peak_rss_mb"], "MB"),
            }
            tail = calibrate.tail(norms)
            record.update({
                "timed_ops": len(norms),
                "raw": {"setup_s": setup_raw, "op_s": calibrate.median(raws)},
                "op_s_tail": None if tail is None else {
                    "percentile": tail[0], "value": tail[1], "samples": len(norms)},
                "phase_wall_s": phases,
            })
            runner.attempted += memory["ops"]  # untimed and unchecked, but attempted
            runner.failed += memory["failed_ops"]
        else:
            runner = Runner(cli, workload_cls(args.seed, workdir))
            _, plain = runner.loop(args.seconds / 2)
            tracer = spans.Tracer()
            per_op, out_bytes, traced = [], [], []
            deadline = time.perf_counter() + args.seconds / 2
            with tracer:
                while time.perf_counter() < deadline:
                    tracer.op += 1
                    first = len(tracer.spans)
                    raw, norm, nbytes = runner.op()
                    factor = norm / raw
                    layer = spans.op_layer_metrics(tracer.spans[first:])
                    per_op.append({k: v * factor if is_seconds(k) else v
                                   for k, v in layer.items()})
                    out_bytes.append(nbytes)
                    traced.append(norm)
            memtracer = spans.Tracer(measure_memory=("diagnostics.check_duality",))
            with memtracer:
                runner.op()
            med = calibrate.median
            layer_metrics = {k: med([m[k] for m in per_op]) for k in per_op[0]}
            layer_metrics["serialize.out_bytes"] = med(out_bytes)
            layer_metrics["diagnostics.duality_peak_mb"] = max(memtracer.peaks.values(), default=0) / MB
            layer_metrics["trace.overhead_s"] = med(traced) - med(plain)
            shares = spans.layer_shares(tracer.spans)
            trace_path = os.path.join(OUT, f"trace-{tag}.jsonl")
            tracer.write_jsonl(trace_path)
            record.update({"traced_ops": len(traced), "untraced_ops": len(plain),
                           "layer_self_shares": shares, "trace_file": trace_path})
            metrics = {k: metric(v, unit_of(k)) for k, v in sorted(layer_metrics.items())}
        record.update(machine_record(runner.kernels))
        record.update({"attempted": runner.attempted, "failed": runner.failed,
                       "check_errors": runner.check_errors[:20]})
        with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"record": record, "metrics": metrics, "per_op": per_op}, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in runner.check_errors[:20]:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.check_errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
