"""Print, as one JSON line, the library versions and BLAS threading of an
interpreter that has imported greenlab.cli.  The benchmark runs it as an
untimed child before it measures, which also compiles and caches
greenlab's bytecode."""

import ctypes
import json
import platform

import greenlab.cli  # noqa: F401  (the import being warmed up)
import numpy
import scipy


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": _blas_threads(),
}))
