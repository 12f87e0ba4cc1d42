"""Run configuration: dotted-key text files, strict parsing, full echo.

The format is one ``section.key = value`` per line with ``#`` comments.
Unknown keys are rejected rather than ignored; a silent typo in a
tolerance key is the classic way a numerics run goes quietly wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .discretization import DEFAULT_QUADRATURE_POINTS, Mesh, build_mesh
from .equilibria import DensityProfile, PhysicalParams
from .errors import ConfigError
from .growth_solver import SolverSettings
from .modes import DEFAULT_DOMAIN_FACTOR, DEFAULT_SAMPLES

# Every key with its default; a key's type is that of its default.
_DEFAULTS: dict[str, object] = {
    "profile.kind": "bump",
    "profile.rho_minus": 1.0,
    "profile.rho_plus": 2.0,
    "profile.a": 1.0,
    "params.mu": 1.0,
    "params.g": 1.0,
    "mesh.n_elements": 64,
    "mesh.quadrature_points": DEFAULT_QUADRATURE_POINTS,
    "solver.tol_rel": SolverSettings.tol_rel,
    "solver.max_iter": SolverSettings.max_iter,
    "solver.n_max": 8,
    "lattice.L1": 1.0,
    "lattice.L2": 1.0,
    "lattice.Kmax": 8.0,
    "modes.samples": DEFAULT_SAMPLES,
    "modes.domain_factor": DEFAULT_DOMAIN_FACTOR,
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; every field has a validated value."""

    values: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def profile(self) -> DensityProfile:
        return DensityProfile(rho_minus=self["profile.rho_minus"],
                              rho_plus=self["profile.rho_plus"],
                              a=self["profile.a"],
                              kind=self["profile.kind"])

    def params(self) -> PhysicalParams:
        return PhysicalParams(mu=self["params.mu"], g=self["params.g"],
                              L1=self["lattice.L1"], L2=self["lattice.L2"])

    def mesh(self) -> Mesh:
        return build_mesh(self["profile.a"], self["mesh.n_elements"],
                          self["mesh.quadrature_points"])

    def solver_settings(self) -> SolverSettings:
        return SolverSettings(tol_rel=self["solver.tol_rel"],
                              max_iter=self["solver.max_iter"])

    def echo_lines(self) -> list[str]:
        """Resolved key/value lines for embedding in output files."""
        out = []
        for key, value in self.values:
            if isinstance(value, float):
                out.append(f"{key} = {value:.17g}")
            else:
                out.append(f"{key} = {value}")
        return out


def _coerce(key: str, raw: str):
    kind = type(_DEFAULTS[key])
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as "
                          f"{kind.__name__}") from exc


def _validate(table: dict[str, object]) -> None:
    for key, default in _DEFAULTS.items():
        value, kind = table[key], type(default)
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value}")
        if key == "seed" and value < 0:
            raise ConfigError(f"config key 'seed' must be non-negative, got {value}")
        if kind in (int, float) and key != "seed" and not value > 0:
            raise ConfigError(f"config key {key!r} must be positive, got {value}")


def load_config(path: str | Path | None = None) -> RunConfig:
    """Defaults, then file values; strict keys."""
    table = dict(_DEFAULTS)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            table[key] = _coerce(key, raw)
    _validate(table)
    config = RunConfig(values=tuple((k, table[k]) for k in _DEFAULTS))
    config.profile()
    config.params()
    config.solver_settings()
    return config
