import contextlib
import ctypes
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rtspec as rt
from rtspec import _threads, cli
from rtspec.cli import CSV_HEADER, main
from rtspec.config import _DEFAULTS, load_config
from rtspec.errors import ConfigError

# (setter, getter) symbol names of numpy's, scipy's and a plain OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def test_defaults_resolve(tmp_path):
    cfg = load_config()
    assert cfg["mesh.n_elements"] == 64
    assert cfg["solver.tol_rel"] == 1e-10
    profile = cfg.profile()
    assert profile.kind == "bump"
    assert cfg.params().mu == 1.0


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
profile.rho_plus = 3.0
mesh.n_elements = 32   # trailing comment
solver.n_max = 2
""")
    cfg = load_config(path)
    assert cfg["profile.rho_plus"] == 3.0
    assert cfg["mesh.n_elements"] == 32
    assert cfg["solver.n_max"] == 2


def test_load_config_reads_only_a_file():
    assert list(inspect.signature(load_config).parameters) == ["path"]


def test_config_rejects_unknown_and_bad_values(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mesh.n_element = 32\n")
    with pytest.raises(ConfigError, match="mesh.n_element"):
        load_config(path)
    path.write_text("mesh.n_elements = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)
    path.write_text("params.mu = -1.0\n")
    with pytest.raises(ConfigError, match="positive"):
        load_config(path)
    path.write_text("profile.kind maybe\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)
    for line in ("lattice.Kmax = inf", "profile.a = inf",
                 "profile.rho_plus = inf", "params.mu = inf",
                 "params.g = nan"):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)


def test_non_finite_config_exits_2(tmp_path):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("lattice.Kmax = inf\n")
    assert main(["lambda-max", "--config", str(cfg)]) == 2


def test_oversized_lattice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("lattice.Kmax = 1e7\n")
    assert main(["lambda-max", "--config", str(cfg)]) == 2
    assert "lattice points" in capsys.readouterr().err


def test_config_echo_has_every_key():
    cfg = load_config()
    lines = cfg.echo_lines()
    assert "profile.kind = bump" in lines
    assert any(line.startswith("solver.tol_rel = ") for line in lines)
    assert len(lines) == 17


def test_readme_lists_every_key_with_its_default():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Keys and defaults:", 1)[1].split("```")[1]
    listed = [line.split("#", 1)[0].split("=", 1)
              for line in block.strip().splitlines()]
    keys = [key.strip() for key, _ in listed]
    assert keys == list(_DEFAULTS)
    for key, raw in listed:
        default = _DEFAULTS[key.strip()]
        assert type(default)(raw.strip()) == default, key


def test_dispersion_command_output(tmp_path):
    out = tmp_path / "disp.csv"
    code = main(["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
                 "--n-max", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header_idx = lines.index(CSV_HEADER)
    assert lines[header_idx] == "k,n,lambda_n,residual,iterations,converged"
    assert lines[0].startswith("# profile.kind")
    rows = lines[header_idx + 1:]
    assert len(rows) == 2
    assert rows[0].split(",")[:2] == ["1", "1"]
    assert rows[0].split(",")[-1] == "True"


def test_dispersion_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["dispersion", "--k-min", "0.5", "--k-max", "2", "--n-k", "3",
            "--n-max", "1"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _openblas_thread_controls():
    """(setter, getter) of the thread count of every loaded OpenBLAS."""
    controls = []
    for path in _threads._loaded_openblas():
        lib = ctypes.CDLL(path)
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


def test_cli_pins_every_loaded_openblas(tmp_path):
    controls = _openblas_thread_controls()
    assert controls, "no OpenBLAS library is loaded"
    try:
        for setter, getter in controls:
            setter(2)
            assert getter() == 2
        assert main(["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
                     "--n-max", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert [getter() for _, getter in controls] == [1] * len(controls)
    finally:
        for setter, _ in controls:
            setter(1)


def test_cli_runs_when_no_openblas_is_found(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_threads, "_loaded_openblas", lambda: [])
    out = tmp_path / "x.csv"
    assert main(["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
                 "--n-max", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "no OpenBLAS found" in captured.err
    assert "OpenBLAS" not in captured.out
    assert len(out.read_text().splitlines()) > 1


def test_dispersion_rejects_bad_range(tmp_path):
    code = main(["dispersion", "--k-min", "2", "--k-max", "1", "--n-k", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_lambda_max_command(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("lattice.Kmax = 1.0\nmesh.n_elements = 32\n")
    code = main(["lambda-max", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Lambda = " in out
    assert "growth-rate cap" in out
    lam = float(out.splitlines()[0].split("=")[1])
    cap = float([l for l in out.splitlines() if "cap" in l][0].split("=")[1])
    assert 0.0 < lam <= cap


def test_lambda_max_csv_output(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("lattice.Kmax = 1.5\nmesh.n_elements = 32\n")
    out = tmp_path / "rates.csv"
    assert main(["lambda-max", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert CSV_HEADER in lines
    rows = lines[lines.index(CSV_HEADER) + 1:]
    assert len(rows) == 2  # magnitudes 1 and sqrt(2)


def test_lambda_max_degenerate_exits_3(tmp_path):
    cfg = tmp_path / "degen.cfg"
    cfg.write_text("profile.rho_plus = 1.0\nmesh.n_elements = 16\n"
                   "lattice.Kmax = 1.0\n")
    assert main(["lambda-max", "--config", str(cfg)]) == 3


def test_mode_command(tmp_path):
    out = tmp_path / "mode.csv"
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mesh.n_elements = 32\nmodes.samples = 64\n")
    code = main(["mode", "--config", str(cfg), "--k1", "1", "--k2", "0",
                 "--n", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert any(line.startswith("# lambda = ") for line in lines)
    assert any(line.startswith("# nu = ") for line in lines)
    assert "x3,phi,dphi,psi,varphi,pi,omega" in lines
    data_start = lines.index("x3,phi,dphi,psi,varphi,pi,omega") + 1
    assert len(lines) - data_start == 64


def test_mode_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mesh.n_elements = 32\nmodes.samples = 64\n")
    argv = ["mode", "--config", str(cfg), "--k1", "1", "--k2", "0", "--n", "1"]
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dispersion_unmet_tolerance_exits_4(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("solver.tol_rel = 1e-20\nmesh.n_elements = 32\n")
    code = main(["dispersion", "--config", str(cfg), "--k-min", "1",
                 "--k-max", "1", "--n-k", "1", "--n-max", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 4


def test_mode_command_error_exits(tmp_path):
    assert main(["mode", "--k1", "0", "--k2", "0", "--n", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["mode", "--k1", "0.5", "--k2", "0", "--n", "1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    cfg = tmp_path / "degen.cfg"
    cfg.write_text("profile.rho_plus = 1.0\nmesh.n_elements = 16\n")
    assert main(["mode", "--config", str(cfg), "--k1", "1", "--k2", "0",
                 "--n", "1", "--out", str(tmp_path / "x.csv")]) == 3


def test_mode_off_lattice_suggestion(tmp_path, capsys):
    main(["mode", "--k1", "0.5", "--k2", "0", "--n", "1",
          "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert "off the lattice" in err
    assert "nearest lattice value is 1" in err


def test_mode_rejects_a_wavevector_just_off_the_lattice(tmp_path, capsys):
    # 5e-10 off: outside the 1e-12 lattice tolerance SurfaceSeries uses too
    out = tmp_path / "x.csv"
    assert main(["mode", "--k1", "1.0000000005", "--k2", "0", "--n", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "k1=1.0000000005 is off the lattice" in err
    assert "nearest lattice value is 1" in err
    assert not out.exists()
    with pytest.raises(ValueError, match="off the torus lattice"):
        rt.SurfaceSeries(1.0, 1.0, (((1.0000000005, 0.0), 1.0),))
    assert main(["mode", "--k1", "1.0000000000005", "--k2", "0", "--n", "1",
                 "--out", str(out)]) == 0


def test_verify_command_appendix(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["verify", "--suite", "appendixD", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "appendix-d ka=0.5" in text
    assert "pass" in text


def test_verify_rerun_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["verify", "--suite", "inequality", "--out", str(first)]) == 0
    assert main(["verify", "--suite", "inequality", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, rtspec.cli; print(sorted(m for m in "
             "('scipy.integrate', 'scipy.optimize', 'scipy.sparse') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_loads_only_scipy_linalg():
    # only scipy's compiled LAPACK module: importing the scipy or
    # scipy.linalg package adds most of a command's start-up time
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, rtspec.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['scipy.linalg._flapack']"


def test_growth_cap_and_sweep_leave_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, rtspec as rt; "
             "p = rt.DensityProfile(1.0, 2.0, 1.0, 'bump'); "
             "params = rt.PhysicalParams(mu=1.0, g=1.0); "
             "rt.char_length(p, params.g); "
             "rt.dispersion(rt.build_mesh(p.a, 16), p, params, [1.0], 2); "
             "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_verify_tampered_tolerance_fails_controlled(tmp_path, capsys):
    # a tolerance below float resolution cannot be met; the suite must
    # report a failure rather than pass vacuously or crash
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("solver.tol_rel = 1e-20\nmesh.n_elements = 32\n"
                   "lattice.Kmax = 1.0\n")
    code = main(["verify", "--suite", "convergence", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "not converged" in out


def test_verify_monotone_suite_reports_known_defect(capsys):
    # the probe reads the solver's normalization, whose branch eigenvalues
    # rise with the rate (the surface term sits in K), so this suite exits
    # nonzero by design; criterion 8b checks the monotone normalization
    code = main(["verify", "--suite", "monotone"])
    out = capsys.readouterr().out
    assert code == 1
    assert "monotone-gamma" in out and "FAIL" in out
    assert "monotone-rate-ratio" in out


def test_verify_stable_profile_reports_vacuous_rows(tmp_path):
    # every growth suite, energy included, reports one vacuous row
    path = tmp_path / "stable.cfg"
    path.write_text("profile.rho_plus = 1.0\n")
    code, out, err = _run(["verify", "--suite", "all", "--config", str(path)])
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert len(lines) == 7 and all(line.endswith(" pass") for line in lines)
    for line, suite in zip(lines[3:], ("energy", "inequality", "monotone",
                                       "convergence")):
        assert line == (f"{suite + ' (vacuous: stable profile)':<38s} "
                        "residual= 0.000000e+00 tolerance= 0.000000e+00 pass")


def test_verify_energy_reports_an_unconverged_solve(tmp_path):
    path = tmp_path / "viscous.cfg"
    path.write_text("params.mu = 1e12\nmesh.n_elements = 16\n")
    code, out, err = _run(["verify", "--suite", "energy", "--config", str(path)])
    assert (code, err) == (1, "")
    assert out.startswith("energy (solve not converged: rate-below-floor)")
    assert out.count("\n") == 1 and "residual= inf" in out
    assert out.rstrip().endswith("FAIL")


def test_verify_inequality_reports_an_unconverged_solve(tmp_path):
    # the lattice's records fail below the bracket floor; the row names
    # their reason, as the other growth suites do
    path = tmp_path / "viscous.cfg"
    path.write_text("params.mu = 1e12\nmesh.n_elements = 16\n")
    code, out, err = _run(["verify", "--suite", "inequality",
                           "--config", str(path)])
    assert (code, err) == (1, "")
    assert out.startswith("inequality (solve not converged: rate-below-floor)")
    assert out.count("\n") == 1 and "residual= inf" in out
    assert out.rstrip().endswith("FAIL")


def test_verify_passes_near_the_tail_degeneracy(tmp_path):
    # slow growth at high viscosity: tau - k = 3.4e-7 at k = 1, where the
    # tail's coefficients of e^{ks} and e^{tau s} reach +-3.3e6 and cancel
    path = tmp_path / "slow.cfg"
    path.write_text("profile.rho_plus = 1.1\nparams.mu = 20\n"
                    "params.g = 0.04\n")
    code, out, err = _run(["verify", "--suite", "energy", "--config", str(path)])
    assert (code, err) == (0, "")
    assert out.startswith("energy-identity ") and out.rstrip().endswith("pass")
    code, out, err = _run(["verify", "--suite", "all", "--config", str(path)])
    failed = [line.split(" residual=")[0].strip()
              for line in out.splitlines() if line.endswith("FAIL")]
    assert (code, err) == (1, "")
    assert len(out.splitlines()) == 20
    assert failed == ["monotone-gamma"] * 4


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _run(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Inputs that once ended in a traceback and exit code 1, or in numpy
# warnings: (config file contents, or a path kind for --config, and the
# command line).
_BAD_INPUTS = {
    "negative-seed": (b"seed = -1\n", ["verify", "--suite", "inequality"]),
    "solver-n-max-zero": (
        b"solver.n_max = 0\n",
        ["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
         "--out", "{tmp}/x.csv"]),
    "missing-config": ("missing", ["lambda-max"]),
    "config-is-directory": ("directory", ["lambda-max"]),
    "config-not-utf8": (b"\xff\xfeseed = 1\n", ["lambda-max"]),
    "infinite-k-range": (None, ["dispersion", "--k-min", "inf", "--k-max",
                                "inf", "--n-k", "1", "--out", "{tmp}/x.csv"]),
    "mode-n-zero": (None, ["mode", "--k1", "1", "--k2", "0", "--n", "0",
                           "--out", "{tmp}/x.csv"]),
    "mode-k-nan": (None, ["mode", "--k1", "nan", "--k2", "0",
                          "--out", "{tmp}/x.csv"]),
    "dispersion-out-dir-missing": (
        None, ["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
               "--out", "{tmp}/missing/x.csv"]),
    "lambda-max-out-dir-missing": (
        None, ["lambda-max", "--out", "{tmp}/missing/x.csv"]),
    "mode-out-dir-missing": (None, ["mode", "--k1", "1", "--k2", "0",
                                    "--out", "{tmp}/missing/x.csv"]),
    "verify-out-dir-missing": (None, ["verify", "--suite", "appendixD",
                                      "--out", "{tmp}/missing/x.txt"]),
    "out-is-directory": (None, ["verify", "--suite", "appendixD",
                                "--out", "{tmp}"]),
    "huge-k-range": (None, ["dispersion", "--k-min", "1e300", "--k-max",
                            "1e300", "--n-k", "1", "--out", "{tmp}/x.csv"]),
    "huge-depth": (b"profile.a = 1e300\n", ["lambda-max"]),
    "tiny-depth": (b"profile.a = 1e-300\n", ["lambda-max"]),
    "mode-k-next-to-zero": (None, ["mode", "--k1", "1e-300", "--k2", "0",
                                   "--out", "{tmp}/x.csv"]),
    # Kmax * L1 overflows to inf
    "lattice-span-overflows": (
        b"lattice.Kmax = 1e300\nlattice.L1 = 1e300\nmesh.n_elements = 8\n",
        ["lambda-max"]),
    "lattice-span-overflows-verify": (
        b"lattice.Kmax = 1e300\nlattice.L1 = 1e300\nmesh.n_elements = 8\n",
        ["verify", "--suite", "inequality"]),
    # the square of the bracket floor underflows
    "tiny-gravity-dispersion": (
        b"params.g = 1e-300\nmesh.n_elements = 8\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "3",
         "--out", "{tmp}/x.csv"]),
    "tiny-gravity-lambda-max": (b"params.g = 1e-300\nmesh.n_elements = 8\n",
                                ["lambda-max"]),
    "tiny-gravity-mode": (b"params.g = 1e-300\nmesh.n_elements = 8\n",
                          ["mode", "--k1", "1", "--k2", "0",
                           "--out", "{tmp}/x.csv"]),
    # k1 * L1 overflows to inf before it is snapped to the lattice
    "mode-k-times-period-overflows": (
        b"lattice.L1 = 10\n", ["mode", "--k1", "1e308", "--k2", "0",
                                "--out", "{tmp}/x.csv"]),
    "mode-period-times-k-overflows": (
        b"lattice.L1 = 1e300\n", ["mode", "--k1", "1e10", "--k2", "0",
                                  "--out", "{tmp}/x.csv"]),
    # the mode file's depth, domain_factor / (k h) element widths, is inf
    "mode-domain-factor-overflows": (
        b"modes.domain_factor = 1e308\n",
        ["mode", "--k1", "1", "--k2", "0", "--out", "{tmp}/x.csv"]),
    # drho0 / rho0 overflows, so the growth-rate cap cannot be found
    "surface-density-overflows-dispersion": (
        b"profile.rho_plus = 1e308\nmesh.n_elements = 8\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "3",
         "--out", "{tmp}/x.csv"]),
    "surface-density-overflows-lambda-max": (
        b"profile.rho_plus = 1e308\nmesh.n_elements = 8\n", ["lambda-max"]),
    "surface-density-overflows-quintic": (
        b"profile.rho_plus = 1e308\nprofile.kind = quintic\n"
        b"mesh.n_elements = 8\n", ["lambda-max"]),
    # first arrays far beyond the address space: they fail at once
    "dispersion-mesh-too-large": (
        b"mesh.n_elements = 1000000000000000\n",
        ["dispersion", "--k-min", "1", "--k-max", "1", "--n-k", "1",
         "--out", "{tmp}/x.csv"]),
    "mode-samples-too-many": (
        b"modes.samples = 1000000000000000\n",
        ["mode", "--k1", "1", "--k2", "0", "--out", "{tmp}/x.csv"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, case):
    config, argv = _BAD_INPUTS[case]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    if config is not None:
        path = tmp_path / "run.cfg"
        if config == "directory":
            path.mkdir()
        elif config != "missing":
            path.write_bytes(config)
        argv += ["--config", str(path)]
    if case.endswith("out-dir-missing"):
        # a bad output path is rejected before any computation
        for name in ("dispersion", "lambda_max", "build_normal_mode",
                     "run_suite"):
            monkeypatch.setattr(cli, name, None)
    code, _, err = _run(argv)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


# Inputs that once ended in a traceback and exit code 1 deep in the
# numerics, and now end in a numerical failure: (config file contents,
# command line).
_NUMERICAL_FAILURES = {
    # tau = sqrt(k^2 + lam rho_minus / mu) rounds to k: no tail fits
    "tail-decay-rounds-to-k": (b"profile.rho_minus = 1e-300\n",
                               ["mode", "--k1", "1", "--k2", "0",
                                "--out", "{tmp}/x.csv"]),
    # the moment-constrained K is not positive definite for eigh
    "tiny-k-coarse-mesh": (b"mesh.n_elements = 8\n",
                           ["dispersion", "--k-min", "1e-300", "--k-max",
                            "1e-300", "--n-k", "1", "--out", "{tmp}/x.csv"]),
    # the branch is there, but its rate lies below the bracket floor
    "mode-rate-below-floor": (b"params.mu = 1e12\nmesh.n_elements = 16\n",
                              ["mode", "--k1", "1", "--k2", "0",
                               "--out", "{tmp}/x.csv"]),
    # the floor's pencil overflows to NaN, and f there is NaN: once read
    # as an absent branch (dispersion and lambda-max exited 0 and 3 with
    # every record no-unstable-branch, and verify ended in a traceback)
    "nan-floor-dispersion": (
        b"profile.rho_plus = 1e307\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "20",
         "--n-max", "4", "--out", "{tmp}/x.csv"]),
    "nan-floor-lambda-max": (b"profile.rho_plus = 1e307\n", ["lambda-max"]),
    "nan-floor-mode": (b"profile.rho_plus = 1e307\n",
                       ["mode", "--k1", "1", "--k2", "0",
                        "--out", "{tmp}/x.csv"]),
    "nan-floor-verify": (b"profile.rho_plus = 1e307\n",
                         ["verify", "--suite", "all"]),
}


@pytest.mark.parametrize("case", sorted(_NUMERICAL_FAILURES))
def test_numerical_failure_exits_4_with_one_line(tmp_path, case):
    config, argv = _NUMERICAL_FAILURES[case]
    path = tmp_path / "run.cfg"
    path.write_bytes(config)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = _run(argv + ["--config", str(path)])
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


# Growth rates below the bracket floor fail their records, rather than
# read as absent branches: (config file contents, command line).
_RATE_BELOW_FLOOR = {
    "dispersion-mu-1e12": (
        b"params.mu = 1e12\nmesh.n_elements = 16\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "3",
         "--n-max", "2", "--out", "{tmp}/x.csv"]),
    "dispersion-mu-1e10": (
        b"params.mu = 1e10\nmesh.n_elements = 16\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "3",
         "--n-max", "2", "--out", "{tmp}/x.csv"]),
    "lambda-max-mu-1e12": (b"params.mu = 1e12\nmesh.n_elements = 16\n",
                           ["lambda-max"]),
    "dispersion-thin-layer": (
        b"profile.a = 1e-4\n",
        ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "5",
         "--n-max", "4", "--out", "{tmp}/x.csv"]),
}


@pytest.mark.parametrize("case", sorted(_RATE_BELOW_FLOOR))
def test_rate_below_floor_exits_4_with_one_line(tmp_path, case):
    config, argv = _RATE_BELOW_FLOOR[case]
    path = tmp_path / "run.cfg"
    path.write_bytes(config)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = _run(argv + ["--config", str(path)])
    assert code == 4
    assert len(err.splitlines()) == 1
    assert "record(s) without a rate" in err and "rate-below-floor" in err


def test_sweep_below_the_nan_floor_is_solved(tmp_path):
    # at rho+ = 1e306 the floor's f stays finite: every record converges
    path, out = tmp_path / "run.cfg", tmp_path / "x.csv"
    path.write_text("profile.rho_plus = 1e306\n")
    code, _, _ = _run(["dispersion", "--k-min", "0.25", "--k-max", "4",
                       "--n-k", "20", "--n-max", "4", "--out", str(out),
                       "--config", str(path)])
    assert code == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[lines.index(CSV_HEADER) + 1:]]
    assert len(rows) == 80
    assert all(row[-1] == "True" and np.isfinite(float(row[2]))
               for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["dispersion", "--k-min", "0.25", "--k-max", "4", "--n-k", "3",
     "--n-max", "2", "--out", "{tmp}/x.csv"],
    ["lambda-max"],
    ["mode", "--k1", "1", "--k2", "0", "--out", "{tmp}/x.csv"],
], ids=["dispersion", "lambda-max", "mode"])
def test_huge_surface_density_is_solved_quietly(tmp_path, argv):
    # g k^2 rho+ / lam overflows near the bracket floor
    path = tmp_path / "run.cfg"
    path.write_text("profile.rho_plus = 1e300\nmesh.n_elements = 8\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = _run(argv + ["--config", str(path)])
    assert (code, err) == (0, "")


def test_mode_on_a_deep_layer_exits_0(tmp_path):
    # a mode's peak samples the top element up to nodes[-2] + h, which
    # overshoots x = 0 by 1.1e-11 at this depth
    path = tmp_path / "run.cfg"
    path.write_text("profile.a = 243099.09876846595\nmodes.samples = 64\n")
    out = tmp_path / "m.csv"
    code, _, err = _run(["mode", "--k1", "1", "--k2", "0", "--out", str(out),
                         "--config", str(path)])
    assert (code, err) == (0, "")
    assert out.exists()


_BAD_VALUES = ("0", "-1", "-2.5", "inf", "-inf", "nan", "many", "1e", "",
               "1e300", "1e-300")
_KEYS = ("profile.kind", "profile.rho_minus", "profile.rho_plus", "profile.a",
         "params.mu", "params.g", "mesh.quadrature_points", "solver.tol_rel",
         "solver.max_iter", "solver.n_max", "lattice.L1", "lattice.L2",
         "lattice.Kmax", "modes.samples", "modes.domain_factor", "seed")


def _mostly(valid, bad):
    """One of ``valid`` four times as often as one of ``bad``."""
    return st.sampled_from(tuple(valid) * 4 + tuple(bad))


_config_texts = st.builds(
    lambda n_elements, extra: "".join(
        [f"mesh.n_elements = {n_elements}\nlattice.Kmax = 1.5\n"]
        + [f"{key} = {value}\n" for key, value in extra]),
    _mostly([str(n) for n in range(1, 17)], _BAD_VALUES),
    st.lists(st.tuples(st.sampled_from(_KEYS + ("mesh.n_element", "solver.x")),
                       _mostly(("1", "2"), _BAD_VALUES)), max_size=2))
_k_values = _mostly(("0.5", "1", "2"),
                    ("0", "-1", "inf", "nan", "abc", "1e300", "1e-300"))
_outputs = _mostly(("file",), ("missing-dir", "directory"))
_command_lines = st.one_of(
    st.builds(lambda k_min, k_max, n_k, n_max, out:
              ["dispersion", "--k-min", k_min, "--k-max", k_max, "--n-k", n_k]
              + ([] if n_max is None else ["--n-max", n_max]) + [out],
              _k_values, _k_values, _mostly(("1", "2", "3"), ("0", "-1")),
              _mostly((None, "1", "3"), ("0", "-2")), _outputs),
    st.builds(lambda k1, k2, n, out:
              ["mode", "--k1", k1, "--k2", k2, "--n", n, out],
              _k_values, _k_values, _mostly(("1", "2"), ("0", "-1")), _outputs),
    st.builds(lambda command, out: command + ([] if out is None else [out]),
              st.sampled_from((["lambda-max"],
                               ["verify", "--suite", "appendixD"])),
              _mostly((None, "file"), ("missing-dir", "directory"))))


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(config=_config_texts, argv=_command_lines)
def test_cli_exit_codes_on_drawn_input(cli_dir, config, argv):
    # every outcome is a documented exit code; 1 means a failed check
    (cli_dir / "run.cfg").write_text(config)
    outputs = {"file": cli_dir / "out.txt", "missing-dir": cli_dir / "no" / "x",
               "directory": cli_dir}
    if argv[-1] in outputs:
        argv = argv[:-1] + ["--out", str(outputs[argv[-1]])]
    argv += ["--config", str(cli_dir / "run.cfg")]
    try:
        code, out, _ = _run(argv)
    except SystemExit as exc:
        assert exc.code == 2  # argparse: a value that does not parse
        return
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert argv[0] == "verify" and "FAIL" in out
