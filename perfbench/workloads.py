"""The benchmark's workloads and how a seed turns into their inputs.

``lattice`` is not listed in BENCHMARK.json: with four workloads a run could
measure no more than about 27 s within the time the whole benchmark may
take, and the speed of a shared 2-vCPU host was measured to drift by up to
+-25% over such windows.  Its layers are all exercised by ``sweep``; it
stays runnable by name.

Every seed sets the config ``seed`` key, from which the ``verify`` trial
functions are drawn.  No other input depends on the seed: each workload runs
the default configuration with the command line below, and the amount of
work never changes.  The program receives only the generated config file
and its command line.

The seed moves no physical input (k range, ``profile.rho_plus``).  The
solver's fixed-point function carries evaluation noise close to its own
1e-8 * lambda acceptance test: up to about 1e-8 * lambda on the leading
branch at k <= 0.3 on 64 elements, and enough in the 128-element solves at
k = 1 of ``verify`` to fail it for some profiles.  There the noise, not the
inputs, decides whether a record converges.  Scaling the k endpoints and
``rho_plus`` by seeded factors within +-5% made about one seed in ten end
with a ``residual-above-tolerance`` record (exit 4 on sweep, 3 on verify),
and scaling ``k_max`` alone still failed one seed in twenty: the k grid is
geometric, so the points between 0.25 and 0.45 move with it.  That is a
defect of the solver; the traced run reports how close the records come to
the test as ``growth_solver.residual_margin``.
"""

from __future__ import annotations

from dataclasses import dataclass

# tests/conftest.py pins BLAS the same way.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# Layers whose spans must all be nonzero on a growth-record workload.
RECORD_LAYERS = (
    "equilibria.char_length", "equilibria.profile_eval",
    "discretization.interior_forms", "discretization.boundary_forms",
    "spectral_core.assemble_B", "spectral_core.gamma_values",
    "growth_solver.solve", "growth_solver.sweep", "config.load", "cli",
    "threads.pin",
)
VERIFY_LAYERS = RECORD_LAYERS + (
    "discretization.hermite_eval", "discretization.quadrature",
    "spectral_core.gamma_spectrum", "modes.build_normal_mode",
    "modes.horizontal_velocity", "verify.trial_checks", "verify.suite",
)

LATTICE_KMAX = 8.0  # the default lattice.Kmax, with L1 = L2 = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]          # rtspec subcommand and its arguments
    thread_env: dict[str, str]        # the only thread variables a child gets
    expected_rows: int
    layers: tuple[str, ...]           # must record calls in the traced run
    why: str

    @property
    def is_verify(self) -> bool:
        return self.command[0] == "verify"


def _lattice_magnitude_count(kmax: float) -> int:
    """Distinct nonzero |(i, j)| <= kmax on the unit lattice, i, j >= 0."""
    top = int(kmax)
    return len({i * i + j * j for i in range(top + 1) for j in range(top + 1)
                if 0 < i * i + j * j <= kmax * kmax})


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep", ("dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "20",
                  "--n-max", "4"),
        PINNED, 80, RECORD_LAYERS,
        "20 k x 4 branch dispersion sweep, BLAS pinned: the root finder and "
        "the eigensolve do most of the work"),
    Workload(
        "lattice", ("lambda-max",), PINNED,
        _lattice_magnitude_count(LATTICE_KMAX), RECORD_LAYERS,
        "lambda-max at Kmax = 8, branch 1 only, pinned: a fresh form cache "
        "per magnitude, so char_length weighs most"),
    Workload(
        "verify", ("verify", "--suite", "all"), PINNED, 20, VERIFY_LAYERS,
        "verify --suite all, pinned: the only workload that runs modes, "
        "the trial-function checks and the convergence solves"),
    Workload(
        "shipped", ("dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "5",
                    "--n-max", "4"),
        {}, 20, RECORD_LAYERS,
        "5 k x 4 branch sweep with no thread variables, as the installed CLI "
        "runs: the only workload where BLAS threading matters"),
)}

OUT = "{out}"   # stands for the output path in a command line


def make_inputs(workload: Workload, seed: int,
                config_path: str) -> tuple[str, tuple[str, ...]]:
    """The config file text and the CLI arguments for one seed."""
    return (f"seed = {seed}\n",
            workload.command + ("--config", config_path, "--out", OUT))
