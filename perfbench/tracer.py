"""Span tracing of rtspec's layers, installed from outside the package.

Each traced function is replaced by a wrapper in every loaded ``rtspec``
module namespace that holds it: ``from .x import f`` copies the binding,
so patching only the defining module would leave callers such as
``growth_solver.gamma_values`` or ``verify.char_length`` untraced.
Methods are wrapped on their class.  Spans are kept in memory as
``[layer, start, end, parent, note]``; a layer's self time is its span
time minus the time its direct child spans cover, so the profile
evaluations inside ``char_length`` count under ``equilibria.profile_eval``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> traced callables, as "module:qualname" under the rtspec package.
LAYERS = {
    "equilibria.char_length": ["equilibria:char_length"],
    "equilibria.profile_eval": ["equilibria:DensityProfile.rho0",
                                "equilibria:DensityProfile.drho0"],
    "discretization.interior_forms": [
        "discretization:assemble_h2_form",
        "discretization:assemble_weighted_gradient_form",
        "discretization:assemble_weighted_mass"],
    "discretization.boundary_forms": ["discretization:assemble_boundary_forms",
                                      "discretization:boundary_quotient_form"],
    "discretization.hermite_eval": ["discretization:HermiteFunction.__call__"],
    "discretization.quadrature": ["discretization:quadrature"],
    "spectral_core.assemble_B": ["spectral_core:assemble_B"],
    "spectral_core.gamma_values": ["spectral_core:gamma_values"],
    "spectral_core.gamma_spectrum": ["spectral_core:gamma_spectrum"],
    "growth_solver.solve": ["growth_solver:solve_lambda_n"],
    "growth_solver.sweep": ["growth_solver:dispersion",
                            "growth_solver:lambda_max"],
    "modes.build_normal_mode": ["modes:build_normal_mode"],
    "modes.horizontal_velocity": ["modes:horizontal_velocity"],
    "verify.trial_checks": ["verify:random_trial",
                            "verify:check_variational_inequality"],
    "verify.suite": ["verify:run_suite", "verify:appendix_d_suite",
                     "verify:energy_suite", "verify:inequality_suite",
                     "verify:monotone_suite", "verify:convergence_suite",
                     "verify:monotonicity_probe", "verify:fixed_point_residual",
                     "verify:energy_identity_residual"],
    "config.load": ["config:load_config"],
    "cli": ["cli:main", "cli:cmd_dispersion", "cli:cmd_lambda_max",
            "cli:cmd_mode", "cli:cmd_verify"],
}

# Counted without a span: entering the BLAS pinning context.
COUNTED = {"threads.pin": "_threads:single_threaded_blas"}

# Layers reported as "<layer>.calls" and "<layer>.self_s".
CALL_LAYERS = (
    "equilibria.char_length", "equilibria.profile_eval",
    "discretization.interior_forms", "discretization.boundary_forms",
    "discretization.hermite_eval", "discretization.quadrature",
    "spectral_core.assemble_B", "spectral_core.gamma_values",
    "spectral_core.gamma_spectrum", "modes.build_normal_mode",
    "modes.horizontal_velocity", "verify.trial_checks",
)

# Per-span notes kept for the ratios: the (profile, g) key of a
# char_length call, and whether a growth record converged with its
# relative fixed-point residual.
NOTES = {
    "equilibria.char_length":
        lambda args, kwargs, result: (args[0], args[1] if len(args) > 1
                                      else kwargs["g"]),
    "growth_solver.solve": lambda args, kwargs, result: (
        bool(result.converged), float(result.residual / result.lambda_n)),
}

# A record-level percentile needs this many records above it.
TAIL_RECORDS = 10


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, layer: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _rtspec_modules() -> list:
    return [m for name, m in sys.modules.items()
            if (name == "rtspec" or name.startswith("rtspec.")) and m is not None]


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` in every rtspec module namespace."""
    hits = 0
    for module in _rtspec_modules():
        names = [n for n, v in vars(module).items() if v is original]
        for name in names:
            setattr(module, name, wrapper)
            hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced callable; raise if one cannot be found or rebound."""
    import rtspec.cli  # noqa: F401  (loads every module that holds a binding)

    def resolve(target: str):
        module_name, qualname = target.split(":")
        return importlib.import_module(f"rtspec.{module_name}"), qualname

    for layer, targets in LAYERS.items():
        for target in targets:
            module, qualname = resolve(target)
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method,
                        tracer.span(layer, cls.__dict__[method], NOTES.get(layer)))
                continue
            original = getattr(module, qualname)
            if _rebind(original, tracer.span(layer, original,
                                             NOTES.get(layer))) == 0:
                raise RuntimeError(f"tracer could not rebind {target}")
    for name, target in COUNTED.items():
        module, qualname = resolve(target)
        original = getattr(module, qualname)
        if _rebind(original, tracer.counter(name, original)) == 0:
            raise RuntimeError(f"tracer could not rebind {target}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    from rtspec.growth_solver import FIXED_POINT_RTOL

    spans = tracer.spans
    covered = [0.0] * len(spans)
    under_solve = [False] * len(spans)
    for i, (layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
        under_solve[i] = layer == "growth_solver.solve" or (
            parent >= 0 and under_solve[parent])
    calls = layer_calls(tracer)
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for i, (layer, start, end, _, _) in enumerate(spans):
        self_s[layer] += (end - start) - covered[i]
        total_s[layer] += end - start

    out: dict[str, float] = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    char_keys = [s[4] for s in spans if s[0] == "equilibria.char_length"]
    out["equilibria.char_length.distinct_frac"] = (
        len(set(char_keys)) / len(char_keys) if char_keys else 0.0)

    solves = [s for s in spans if s[0] == "growth_solver.solve"]
    record_ms = sorted((s[2] - s[1]) * 1e3 for s in solves)
    evals = sum(1 for i, s in enumerate(spans)
                if s[0] == "spectral_core.gamma_values" and under_solve[i])
    out["growth_solver.records"] = len(solves)
    out["growth_solver.evals_per_record"] = evals / len(solves) if solves else 0.0
    out["growth_solver.record_ms.p50"] = (statistics.median(record_ms)
                                          if record_ms else 0.0)
    # The highest percentile with TAIL_RECORDS records above it.
    out["growth_solver.record_ms.tail"] = (
        record_ms[-TAIL_RECORDS - 1] if len(record_ms) > TAIL_RECORDS
        else (record_ms[-1] if record_ms else 0.0))
    out["growth_solver.sweep_self_s"] = self_s["growth_solver.sweep"]
    out["growth_solver.unconverged"] = sum(1 for s in solves if not s[4][0])
    # The worst converged record against the solver's acceptance test
    # |f| <= FIXED_POINT_RTOL * lambda; a record fails it above 1.
    out["growth_solver.residual_margin"] = max(
        (s[4][1] / FIXED_POINT_RTOL for s in solves if s[4][0]), default=0.0)
    out["verify.suite_self_s"] = self_s["verify.suite"]
    out["config.load_s"] = total_s["config.load"]
    out["cli.self_s"] = self_s["cli"]
    out["threads.pin_calls"] = calls["threads.pin"]
    return out


def layer_calls(tracer: Tracer) -> Counter:
    """Number of spans recorded per layer, including counted-only names."""
    calls = Counter(s[0] for s in tracer.spans)
    calls.update(tracer.counts)
    return calls
