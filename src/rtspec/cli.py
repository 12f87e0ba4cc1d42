"""Command-line interface: dispersion tables, lattice maxima, mode files, checks.

Exit codes: 0 success, 2 configuration or usage error (a size that
cannot be allocated included), 3 no unstable branch, 4 numerical
failure.  Every output file embeds the fully resolved configuration as
comment lines, and reruns with identical configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path

from ._threads import single_threaded_blas, single_threaded_loading

# numpy's and scipy's OpenBLAS load here, so they start with one thread.
with single_threaded_loading():
    import numpy as np

    from .config import RunConfig, load_config
    from .equilibria import char_length
    from .errors import CoercivityError, ConfigError, NoUnstableBranchError, NumericalError
    from .growth_solver import (NO_UNSTABLE_BRANCH, GrowthRecord, dispersion, lambda_max,
                                lattice_index)
    from .modes import MODE_COLUMNS, build_normal_mode, mode_table
    from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_UNSTABLE = 3
EXIT_NUMERICAL = 4

CSV_HEADER = "k,n,lambda_n,residual,iterations,converged"

# Largest accepted k * a: far beyond what any mesh resolves, and small
# enough that the k^4 terms of the forms stay finite.
MAX_KA = 1e30


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(path: str | Path, config: RunConfig, lines: list[str]) -> None:
    body = [f"# {line}" for line in config.echo_lines()] + lines
    try:
        Path(path).write_text("\n".join(body) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _record_row(r: GrowthRecord) -> str:
    return ",".join([_fmt(r.k), str(r.n), _fmt(r.lambda_n), _fmt(r.residual),
                     str(r.iterations), str(bool(r.converged))])


def _failed(records) -> bool:
    """If a record failed other than by an absent branch, count by reason on stderr."""
    reasons = Counter(r.reason for r in records if not r.converged)
    if set(reasons) <= {NO_UNSTABLE_BRANCH}:
        return False
    counts = ", ".join(f"{count} {reason}" for reason, count in reasons.items())
    print(f"{reasons.total()} record(s) without a rate: {counts}", file=sys.stderr)
    return True


def cmd_dispersion(config: RunConfig, args) -> int:
    mesh, profile, params = config.mesh(), config.profile(), config.params()
    if not 0 < args.k_min <= args.k_max <= MAX_KA / mesh.a:
        raise ConfigError(f"require 0 < k-min <= k-max <= {MAX_KA:g} / profile.a")
    if args.n_k < 1:
        raise ConfigError("n-k must be at least 1")
    n_max = args.n_max if args.n_max is not None else config["solver.n_max"]
    if n_max < 1:
        raise ConfigError("n-max must be at least 1")
    settings = config.solver_settings()
    ks = np.geomspace(args.k_min, args.k_max, args.n_k)
    records = dispersion(mesh, profile, params, ks, n_max, settings)
    lines = [CSV_HEADER] + [_record_row(r) for r in records]
    _write_lines(args.out, config, lines)
    if _failed(records):
        return EXIT_NUMERICAL
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_lambda_max(config: RunConfig, args) -> int:
    mesh, profile, params = config.mesh(), config.profile(), config.params()
    result = lambda_max(mesh, profile, params, config["lattice.Kmax"],
                        config.solver_settings())
    _, cap = char_length(profile, params.g)
    print(f"Lambda = {_fmt(result.Lambda)}")
    print(f"argmax |k| = {_fmt(result.argmax_k)}")
    print(f"growth-rate cap sqrt(g/L0) = {_fmt(cap)}")
    print(f"lattice cutoff Kmax = {_fmt(result.lattice_cutoff)}")
    for rec in result.records:
        mark = "" if rec.converged else f"  [{rec.reason}]"
        print(f"  |k| = {_fmt(rec.k)}  lambda_1 = {_fmt(rec.lambda_n)}{mark}")
    if args.out:
        lines = [CSV_HEADER] + [_record_row(r) for r in result.records]
        _write_lines(args.out, config, lines)
    if _failed(result.records):
        return EXIT_NUMERICAL
    if not result.any_unstable:
        print("no unstable branch on the lattice", file=sys.stderr)
        return EXIT_NO_UNSTABLE
    return EXIT_OK


def cmd_mode(config: RunConfig, args) -> int:
    L1, L2 = config["lattice.L1"], config["lattice.L2"]
    if args.k1 == 0.0 and args.k2 == 0.0:
        raise ConfigError("zero wavenumber excluded")
    if args.n < 1:
        raise ConfigError("n must be at least 1")
    for label, value, period in (("k1", args.k1, L1), ("k2", args.k2, L2)):
        steps = value * period
        if not math.isfinite(steps):
            raise ConfigError(f"{label} * lattice.L{label[1]} = {steps} is not finite")
        index, on_lattice = lattice_index(value, period)
        if not on_lattice:
            raise ConfigError(
                f"{label}={value!r} is off the lattice (spacing "
                f"{1.0 / period:g}); nearest lattice value is "
                f"{index / period:g}")
    mesh, profile, params = config.mesh(), config.profile(), config.params()
    if not math.hypot(args.k1, args.k2) * mesh.a <= MAX_KA:
        raise ConfigError(f"require |k| <= {MAX_KA:g} / profile.a")
    mode = build_normal_mode(mesh, profile, params, (args.k1, args.k2), args.n,
                             config.solver_settings())
    header, rows = mode_table(mode, samples=config["modes.samples"],
                              domain_factor=config["modes.domain_factor"])
    lines = [f"# {key} = {_fmt(v) if isinstance(v, float) else v}"
             for key, v in header.items()]
    lines.append(",".join(MODE_COLUMNS))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_lines(args.out, config, lines)
    print(f"wrote mode (k=({args.k1:g},{args.k2:g}), n={args.n}, "
          f"lambda={_fmt(mode.lambda_n)}) to {args.out}")
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    reports = run_suite(args.suite, config.profile(), config.params(),
                        seed=config["seed"], Kmax=config["lattice.Kmax"],
                        settings=config.solver_settings())
    lines = [rep.line() for rep in reports]
    for line in lines:
        print(line)
    if args.out:
        _write_lines(args.out, config, lines)
    return EXIT_OK if all(rep.passed for rep in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtspec",
        description=("Unstable spectrum and normal modes of a viscous, "
                     "smoothly stratified ocean with a free surface"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None, help="configuration file")

    p = sub.add_parser("dispersion", help="growth-rate table over wavenumbers")
    add_config(p)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--n-k", type=int, default=20,
                   help="number of geometrically spaced wavenumbers")
    p.add_argument("--n-max", type=int, default=None,
                   help="branches per wavenumber (default solver.n_max)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("lambda-max", help="maximal growth rate over the lattice")
    add_config(p)
    p.add_argument("--out", default=None, help="optional CSV of per-magnitude rates")

    p = sub.add_parser("mode", help="write one normal-mode profile file")
    add_config(p)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    add_config(p)
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if single_threaded_blas() == 0:
        print("rtspec: no OpenBLAS found to pin to one thread; BLAS keeps "
              "its own thread settings", file=sys.stderr)
    try:
        if args.out is not None and not Path(args.out).parent.is_dir():
            raise ConfigError(f"no directory for --out {args.out}")
        config = load_config(args.config)
        handler = {
            "dispersion": cmd_dispersion,
            "lambda-max": cmd_lambda_max,
            "mode": cmd_mode,
            "verify": cmd_verify,
        }[args.command]
        return handler(config, args)
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NoUnstableBranchError as exc:
        print(f"no unstable branch: {exc}", file=sys.stderr)
        return EXIT_NO_UNSTABLE
    except (CoercivityError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
