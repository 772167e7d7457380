"""Memory pass, run in a fresh interpreter by run.py.

    python3 bench/mempass.py {alloc|rss} OPS_JSON

Runs the ops listed in OPS_JSON (a list of ops, each a list of argv lists)
through ``crossgram.cli.main`` and prints one JSON object, with the exit
codes of each op's commands.  ``alloc`` traces
allocations with tracemalloc (numpy reports its array buffers there) and
gives the peak of each op; ``rss`` runs untraced and gives the process's
resident high-water mark, which also sees LAPACK and BLAS workspace.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import tracemalloc


def main() -> int:
    mode, ops_path = sys.argv[1], sys.argv[2]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    import crossgram.cli as cli

    peaks, codes = [], []
    if mode == "alloc":
        tracemalloc.start()
    for op in ops:
        if mode == "alloc":
            tracemalloc.reset_peak()
        codes.append([])
        for argv in op:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[-1].append(cli.main(argv))
                except Exception:  # a traceback is a failed command
                    codes[-1].append(1)
        if mode == "alloc":
            peaks.append(tracemalloc.get_traced_memory()[1])
    if mode == "alloc":
        tracemalloc.stop()
    print(json.dumps({
        "peaks": peaks,
        "codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
