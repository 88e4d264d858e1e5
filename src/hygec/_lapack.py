"""The engine's six LAPACK routines, called in the OpenBLAS that scipy's wheels bundle.

scipy's wheels ship libscipy_openblas* (LP64, symbols scipy_<routine>_) in scipy.libs/,
or scipy/.dylibs/ on macOS. Where it is present, `lapack` calls dsfrk, dtfttr, dpotrf,
dpotrs, dtrtri and dtrtrs in it through ctypes, as scipy's f2py wrapper _flapack does,
with its call shapes and bitwise its results, and imports no scipy module. Elsewhere
`lapack` is _flapack, loaded from its file without the scipy.linalg package (scipy's
array-API layer, some 300 modules the engine never calls) and registered under its
scipy name, so a later `import scipy.linalg` shares it.
"""

import ctypes
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np


def _load(name: str):
    import scipy

    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = Path(scipy.__path__[0]) / "linalg"
    spec = PathFinder.find_spec(full, [str(folder)])
    if spec is None:
        raise ImportError(f"scipy's compiled wrapper {folder / name}.* is missing", name=full)
    sys.modules[full] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each routine's arguments: C a CHARACTER, I an INTEGER, D a DOUBLE PRECISION, A an array
_SIGNATURES = {"dsfrk": "CCCIIDAIDA", "dtfttr": "CCIAAII", "dpotrf": "CIAII",
               "dpotrs": "CIIAIAII", "dtrtri": "CCIAII", "dtrtrs": "CCCIIAIAII"}
_ARGTYPES = {"C": ctypes.c_char_p, "I": ctypes.POINTER(ctypes.c_int),
             "D": ctypes.POINTER(ctypes.c_double), "A": ctypes.c_void_p}
# how `_Bundled._call` passes each type of argument: ctypes takes a c_int or a c_double by
# reference, and an array by the address of its data, which `_fortran` made F-ordered float64
_PASS = {str: str.encode, int: ctypes.c_int, float: ctypes.c_double,
         np.ndarray: lambda a: a.ctypes.data}


def _fortran(a, shape=None, copy=False) -> np.ndarray:
    """`a` as a Fortran-contiguous float64 array of `shape`, copied if asked or if it is not
    one; LAPACK reads and writes the sizes it is told, so the shape is checked first."""
    a = np.array(a, dtype=np.float64, order="F", copy=True if copy else None)
    if shape is not None and a.shape != shape:
        raise ValueError(f"LAPACK argument of shape {a.shape}, where {shape} is needed")
    return a


class _Bundled:
    """The six routines of one libscipy_openblas, each with _flapack's arguments and results."""

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        self._routines = {}
        for name, signature in _SIGNATURES.items():
            routine = getattr(lib, f"scipy_{name}_")
            # gfortran appends each CHARACTER's length, a size_t passed by value
            chars = signature.count("C")
            routine.argtypes = [_ARGTYPES[c] for c in signature] + [ctypes.c_size_t] * chars
            routine.restype = None
            self._routines[name] = routine, (1,) * chars

    def _call(self, name: str, *args) -> int:
        """Call `name` with `args`, then INFO (dsfrk has none), then the CHARACTER lengths;
        a str is a CHARACTER. Returns INFO."""
        routine, lengths = self._routines[name]
        info = ctypes.c_int(0)
        tail = lengths if name == "dsfrk" else (info, *lengths)
        routine(*[_PASS[type(a)](a) for a in args], *tail)
        return info.value

    def dsfrk(self, n, k, alpha, a, beta, c, uplo, overwrite_c):
        a, c = _fortran(a, (n, k)), _fortran(c, (n * (n + 1) // 2,), copy=not overwrite_c)
        self._call("dsfrk", "N", uplo, "N", n, k, float(alpha), a, n, float(beta), c)
        return c

    def dtfttr(self, n, arf, uplo):
        a = np.zeros((n, n), order="F")  # dtfttr writes one triangle; the other must read 0
        return a, self._call("dtfttr", "N", uplo, n, _fortran(arf, (n * (n + 1) // 2,)), a, n)

    def dpotrf(self, a, lower, clean, overwrite_a):
        if clean:
            raise ValueError("dpotrf: only clean=0 is bound")
        a = _fortran(a, (len(a), len(a)), copy=not overwrite_a)
        return a, self._call("dpotrf", "L" if lower else "U", len(a), a, len(a))

    def dpotrs(self, c, b, lower):
        x = _fortran(b, copy=True)
        n, nrhs = len(x), 1 if x.ndim == 1 else x.shape[1]
        c = _fortran(c, (n, n))
        return x, self._call("dpotrs", "L" if lower else "U", n, nrhs, c, n, x, n)

    def dtrtri(self, c, lower, overwrite_c):
        c = _fortran(c, (len(c), len(c)), copy=not overwrite_c)
        return c, self._call("dtrtri", "L" if lower else "U", "N", len(c), c, len(c))

    def dtrtrs(self, a, b, lower):
        x = _fortran(b, copy=True)
        n, nrhs = len(x), 1 if x.ndim == 1 else x.shape[1]
        a = _fortran(a, (n, n))
        return x, self._call("dtrtrs", "L" if lower else "U", "N", "N", n, nrhs, a, n, x, n)


def _bundled_openblas() -> Path | None:
    """scipy's libscipy_openblas, found without importing scipy; None where there is none."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    package = Path(spec.submodule_search_locations[0])
    found = [*package.parent.glob("scipy.libs/libscipy_openblas*"),
             *package.glob(".dylibs/libscipy_openblas*")]
    return min(found, default=None)


_library = _bundled_openblas()
lapack = _Bundled(_library) if _library else _load("_flapack")
