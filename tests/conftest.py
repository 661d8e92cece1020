"""Session hooks: the test report names the BLAS kernel set the bit pins were run on."""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The CPU kernel set numpy's bundled OpenBLAS picked in this process, or 'unknown'.

    The repr-exact fingerprints in the tests hold for one kernel set: another one
    (OPENBLAS_CORETYPE=Haswell on a SkylakeX host, say) rounds the sums differently.
    """
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
                if hasattr(lib, symbol):
                    corename = getattr(lib, symbol)
                    corename.restype = ctypes.c_char_p
                    name = corename()
                    return name.decode() if name else "unknown"
        except (OSError, ValueError):
            continue
    return "unknown"


def pytest_report_header(config):
    return f"openblas core: {openblas_core()}"
