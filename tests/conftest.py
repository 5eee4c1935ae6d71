"""The session header (the summary's last line under -q) names the numpy
and BLAS build and the OpenBLAS kernel set and thread count of the run,
on which the timing gate of acceptance 10 depends, and the way the
Krylov loop reaches LAPACK on this numpy: numpy.linalg's gufuncs, or its
public functions as the fallback. It only reads: no setting is changed."""
import ctypes
import glob
from pathlib import Path

import numpy as np


def _openblas(name: str, restype):
    """OpenBLAS's ``openblas_<name>()`` from the library bundled in the
    numpy wheel, under the scipy-openblas prefixes too, or "unknown"."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                    f"openblas_{name}"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype, fn.argtypes = restype, []
                value = fn()
                return value.decode() if isinstance(value, bytes) else value
    return "unknown"


def _lapack_path() -> str:
    """Which way the Krylov loop's LAPACK calls go on this numpy: the
    numpy.linalg gufuncs, or the public functions for the names this
    numpy's gufunc module lacks."""
    try:
        from cpajvp.spectral import _LAPACK, _umath_linalg
    except ImportError:  # the package is not on the path
        return "unknown"
    public = [name for name in _LAPACK if getattr(_umath_linalg, name, None) is None]
    return ("numpy.linalg fallback for " + ", ".join(public)) if public else "gufunc"


def _environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return (f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
            f"{blas.get('version', 'unknown')}, OpenBLAS core "
            f"{_openblas('get_corename', ctypes.c_char_p)} with "
            f"{_openblas('get_num_threads', ctypes.c_int)} threads, Krylov LAPACK "
            f"{_lapack_path()}")


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q shows no header
        terminalreporter.write_line(_environment())
