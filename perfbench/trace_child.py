"""Run one rtspec command in-process, untraced and then traced.

Usage: python3 perfbench/trace_child.py RESULT_JSON OUT_UNTRACED OUT_TRACED ARGS...

ARGS is the rtspec command line with ``{out}`` where the output path goes.
The first call of ``rtspec.cli.main`` runs as shipped; then every layer is
wrapped (tracer.py) and the call is repeated.  RESULT_JSON receives both
wall times and exit codes, the per-layer metrics, the span count per
layer and the BLAS state.
"""

from __future__ import annotations

import json
import sys
import time

import blasinfo
import rtspec.cli
import tracer


def timed_main(args: list[str], out: str) -> tuple[int, float]:
    argv = [out if a == "{out}" else a for a in args]
    start = time.perf_counter()
    code = rtspec.cli.main(argv)
    return code, time.perf_counter() - start


def main() -> None:
    result_path, out_untraced, out_traced, *args = sys.argv[1:]
    code_untraced, wall_untraced = timed_main(args, out_untraced)
    spans = tracer.Tracer()
    tracer.install(spans)
    code_traced, wall_traced = timed_main(args, out_traced)
    result = {
        "untraced": {"exit": code_untraced, "wall_s": wall_untraced},
        "traced": {"exit": code_traced, "wall_s": wall_traced},
        "metrics": tracer.layer_metrics(spans),
        "calls": dict(tracer.layer_calls(spans)),
        "blas": blasinfo.blas_state(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
