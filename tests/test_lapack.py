"""rtspec's LAPACK bindings are scipy's own routine objects, and a failed
factorization in a warm step falls back to a dense solve."""

import os
import subprocess
import sys

import pytest

import rtspec as rt
from rtspec import spectral_core as sc

NAMES = ("dpbtrf", "dpbtrs", "dsygvd", "dsygvx", "dsygvx_lwork", "dsytrf",
         "dsytrf_lwork")
IMPORTS = {
    "rtspec-first": "import rtspec._lapack as ours, scipy.linalg.lapack as theirs",
    "scipy-first": "import scipy.linalg.lapack as theirs, rtspec._lapack as ours",
}


@pytest.mark.parametrize("order", sorted(IMPORTS))
def test_bound_routines_are_scipys(order):
    # a scipy release that moves or renames the module fails here
    src = os.path.dirname(os.path.dirname(rt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (f"{IMPORTS[order]}; print([n for n in {NAMES!r} "
             "if getattr(ours, n) is not getattr(theirs, n)])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("n", [1, 3])
def test_warm_step_from_a_rank_deficient_block_falls_back_to_dense(
        mesh64, profile, params, n):
    # a zero column makes the Ritz step's Gram matrix exactly singular, so
    # dsygvd reports a nonzero info; two equal columns leave a pivot of
    # rounding size, whose sign decides whether the factorization fails
    pencil = rt.assemble_B(mesh64, profile, params, 1.0, 0.05)
    cold = sc.branch_evaluation(pencil, n)
    block = sc.branch_evaluation(pencil, n + 2).block.copy()
    block[:, 1] = 0.0
    warm = sc.branch_evaluation(pencil, n, block)
    assert warm.dense and warm.iterations == 0
    # the fallback solves n + 2 vectors, the cold one n: subset rounding
    assert warm.gamma == pytest.approx(cold.gamma, rel=1e-12, abs=0.0)
    assert warm.slope == pytest.approx(cold.slope, rel=1e-12, abs=0.0)
