"""The seven LAPACK routines rtspec calls, bound from scipy's compiled wrappers.

``scipy.linalg._flapack`` is the f2py module whose routines
``scipy.linalg.lapack`` re-exports; it checks and converts its arguments,
and every scipy build ships it, whatever BLAS it links.  Importing
``scipy.linalg`` to reach it costs most of a CLI run's start-up (its
package ``__init__`` builds scipy's array-API view of numpy), while the
extension module alone loads in milliseconds.  So it is loaded by file
location from scipy's install directory, and registered under its own
name: a later ``import scipy.linalg`` finds it and binds the same
routine objects.

Each helper calls the driver and arguments ``scipy.linalg`` picks for the
same request, so results are bit for bit those of ``cholesky_banded``,
``cho_solve_banded``, ``eigh`` and ``ldl``, and raises
``numpy.linalg.LinAlgError`` on any nonzero ``info`` (``ldl`` only on a
negative one, as scipy does).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.linalg._flapack"


def _flapack():
    """scipy's f2py LAPACK module, loaded once per process."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")  # imports nothing
    if scipy is None:
        raise ImportError("rtspec needs scipy: no 'scipy' package found")
    path = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_NAME, path)
    if spec is None:
        raise ImportError(f"{_NAME} not found in {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_NAME] = module
    return module


_module = _flapack()
dpbtrf = _module.dpbtrf
dpbtrs = _module.dpbtrs
dsygvd = _module.dsygvd
dsygvx = _module.dsygvx
dsygvx_lwork = _module.dsygvx_lwork
dsytrf = _module.dsytrf
dsytrf_lwork = _module.dsytrf_lwork


def _checked(routine, *args, **kwargs):
    """A routine's outputs without its trailing ``info``, which must be 0."""
    *outputs, info = routine(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__}: info={info}")
    return outputs


def cholesky_band(band: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the SPD matrix of lower band ``band``."""
    return _checked(dpbtrf, band, lower=1)[0]


def solve_band(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs (rhs 2-D) from ``cholesky_band``'s factor of A."""
    return _checked(dpbtrs, factor, rhs, lower=1)[0]


def ldl(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bunch-Kaufman factor of the symmetric ``a``, read from its lower
    triangle (``dsytrf``): (ldu, ipiv) in LAPACK's packing, D on the
    diagonal of ldu where ipiv > 0 and 2x2 blocks where a pair of ipiv is
    negative.  An exactly singular D (info > 0) is a result, not an error.
    """
    lwork = int(_checked(dsytrf_lwork, a.shape[0], lower=1)[0])
    ldu, ipiv, info = dsytrf(a, lower=1, lwork=lwork)
    if info < 0:
        raise np.linalg.LinAlgError(f"LAPACK dsytrf: info={info}")
    return ldu, ipiv


def eigh(a: np.ndarray, b: np.ndarray, subset: tuple | None = None,
         vectors: bool = True):
    """Eigenvalues (ascending) and B-orthonormal vectors of A x = w B x,
    A symmetric and B SPD, both read from their lower triangles.

    ``subset`` (lo, hi) picks eigenvalues lo..hi, 0-based and inclusive,
    by ``dsygvx``; without it ``dsygvd`` gives all.  Returns (w, v), or w
    alone when ``vectors`` is False.
    """
    jobz = "V" if vectors else "N"
    if subset is None:
        w, v = _checked(dsygvd, a, b, jobz=jobz)
    else:
        n = a.shape[0]
        lwork = int(_checked(dsygvx_lwork, n, uplo="L")[0].real)
        w, v, m, _ = _checked(dsygvx, a, b, jobz=jobz, range="I",
                              il=subset[0] + 1, iu=subset[1] + 1, lwork=lwork)
        w, v = w[:m], v[:, :m]
    return (w, v) if vectors else w
