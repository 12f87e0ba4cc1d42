"""rtspec benchmark: CLI workloads, end-to-end metrics and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (workloads.py) are closed loops: one CLI invocation at a time
from this one process.

``--trace 0`` runs the real CLI entry point (``rtspec.cli:main``, as the
installed ``rtspec`` script does) in child processes, back to back, for
``--seconds`` and reports the medians over invocations of:

* ``wall_s``        seconds from child spawn to exit;
* ``cpu_s``         user plus system CPU seconds of the child;
* ``peak_rss_mb``   the child's peak resident memory;
* ``records_per_s`` output rows per wall second: growth records, or check
                    rows on ``verify``;
* ``setup_s``       importing ``rtspec.cli``, ``load_config`` and building
                    the mesh and profile, timed in separate fresh children
                    with the workload's environment (after one warm-up).

``--trace 1`` runs the same command in one child, in-process, once as
shipped and once with every layer wrapped from outside (tracer.py), and
reports the per-layer metrics.  It fails if a layer the workload must
exercise records no calls, or if the traced and untraced outputs differ.

Every output is checked outside the timed region (checks.py); each check
is one attempted operation and ``failed_ops_frac`` = failed / attempted.
An invocation that fails a check gives no time.  Children get an
environment built here (``PATH``, ``PYTHONPATH`` and the workload's thread
variables), never the caller's.  The lines before the last give the
metrics with units, ``failed_ops_frac`` and the environment block; the
last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# This process only checks outputs; keep its own BLAS off the second core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import blasinfo  # noqa: E402
from checks import Gate, check_records, check_verify  # noqa: E402
from workloads import OUT, WORKLOADS, Workload, make_inputs  # noqa: E402

ENTRY = "import sys; from rtspec.cli import main; sys.exit(main())"
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "RTSPEC_THREADS")


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Run:
    """One benchmark run: a working directory, a deadline, the child env."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.dir = ROOT / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "run.cfg"
        config_text, self.cli_args = make_inputs(workload, seed, str(self.config))
        self.config.write_text(config_text)
        self.env = {"PATH": os.environ.get("PATH", os.defpath),
                    "PYTHONPATH": str(ROOT / "src"), **workload.thread_env}

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0.0:
            raise TimeoutError(f"run exceeded {TIME_LIMIT_S:.0f} s")
        return left

    def args(self, out: Path) -> list[str]:
        return [str(out) if a == OUT else a for a in self.cli_args]

    def invoke(self, out: Path) -> Invocation:
        """One CLI child, timed from spawn to exit, with its resource usage."""
        argv = [sys.executable, "-c", ENTRY, *self.args(out)]
        with open(out.with_suffix(".log"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.dir,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(self.remaining(), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.remaining()
        return Invocation(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0)

    def run_script(self, script: str, *args: str) -> str:
        done = subprocess.run([sys.executable, str(HERE / script), *args],
                              env=self.env, cwd=self.dir, capture_output=True,
                              text=True, timeout=self.remaining())
        if done.returncode != 0:
            raise RuntimeError(f"{script} exited {done.returncode}:\n{done.stderr}")
        return done.stdout

    def setup(self) -> tuple[float, list[dict]]:
        """Median set-up time over fresh children, after one warm-up child."""
        samples = [json.loads(self.run_script("setup_child.py", str(self.config)))
                   for _ in range(SETUP_RUNS + 1)]
        times = [s["setup_s"] for s in samples[1:]]
        print("setup samples: " + ", ".join(f"{t:.4f}" for t in times))
        return statistics.median(times), samples[-1]["blas"]

    def gate_output(self, gate: Gate, out: Path, exit_code: int) -> int:
        if self.workload.is_verify:
            return check_verify(gate, out, exit_code, self.workload.expected_rows)
        return check_records(gate, ROOT, self.config, out, exit_code,
                             self.workload.expected_rows, self.seed)


def measure(run: Run, seconds: float, gate: Gate) -> dict[str, float]:
    """Back-to-back CLI invocations within ``seconds``; medians of the passing ones.

    An invocation is started only if one more of the last one's length still
    ends within ``seconds``; the first always runs.
    """
    invocations: list[tuple[Invocation, Path]] = []
    start = time.perf_counter()
    while (not invocations or time.perf_counter() - start
           + invocations[-1][0].wall_s <= seconds):
        out = run.dir / f"out{len(invocations)}.csv"
        invocations.append((run.invoke(out), out))

    first, first_out = invocations[0]
    failed_before = len(gate.failures)
    rows = run.gate_output(gate, first_out, first.exit_code)
    passing = [first] if len(gate.failures) == failed_before else []
    reference = first_out.read_bytes() if first_out.exists() else b""
    for inv, out in invocations[1:]:
        same = (inv.exit_code == first.exit_code and out.exists()
                and out.read_bytes() == reference)
        if gate.check(same, f"{out.name} differs from {first_out.name}") and passing:
            passing.append(inv)
    print(f"invocations: {len(invocations)}, passing: {len(passing)}, wall_s: "
          + ", ".join(f"{i.wall_s:.4f}" for i, _ in invocations))
    if not passing:
        return {}
    return {
        "wall_s": statistics.median(i.wall_s for i in passing),
        "cpu_s": statistics.median(i.cpu_s for i in passing),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in passing),
        "records_per_s": statistics.median(rows / i.wall_s for i in passing),
    }


def trace(run: Run, gate: Gate) -> tuple[dict[str, float], list[dict]]:
    """Untraced and traced in-process calls in one child; per-layer metrics."""
    result_path = run.dir / "trace.json"
    out_plain, out_traced = run.dir / "untraced.csv", run.dir / "traced.csv"
    run.run_script("trace_child.py", str(result_path), str(out_plain),
               str(out_traced), *run.cli_args)
    result = json.loads(result_path.read_text())
    missing = [layer for layer in run.workload.layers
               if not result["calls"].get(layer)]
    if missing:
        raise RuntimeError(f"traced run recorded no calls for {missing}; "
                           "a wrapper was not rebound")
    run.gate_output(gate, out_plain, result["untraced"]["exit"])
    run.gate_output(gate, out_traced, result["traced"]["exit"])
    gate.check(out_plain.read_bytes() == out_traced.read_bytes(),
               "traced and untraced outputs differ")
    metrics = dict(result["metrics"])
    metrics["threads.blas_threads"] = blasinfo.threads_in_effect(result["blas"])
    metrics["trace.overhead_frac"] = (result["traced"]["wall_s"]
                                      / result["untraced"]["wall_s"] - 1.0)
    return metrics, result["blas"]


def environment(run: Run, blas: list[dict]) -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "child_thread_env": {k: v for k, v in run.env.items() if k in THREAD_VARS},
        "child_blas": blas,
        "child_blas_threads": blasinfo.threads_in_effect(blas),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "rtspec" / "cli.py", ROOT / "tests" / "oracle_collocation.py"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"rtspec sources not found: {', '.join(absent)}", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    gate = Gate()
    try:
        if args.trace:
            metrics, blas = trace(run, gate)
        else:
            setup_s, blas = run.setup()
            metrics = measure(run, args.seconds, gate)
            if metrics:
                metrics["setup_s"] = setup_s
        env = environment(run, blas)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            run.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for failure in gate.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if not metrics:
        print("no invocation passed its checks, so no time is reported",
              file=sys.stderr)
    units = metric_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        raise RuntimeError("reported metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    failed = len(gate.failures)
    print(f"failed_ops_frac = {failed / gate.attempted!r} "
          f"({failed} of {gate.attempted} checks)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
