"""The engine's six LAPACK routines, called through ctypes at the addresses scipy links:
the symbols scipy_<routine>_ of the libscipy_openblas* (LP64) that scipy's wheel bundles in
scipy.libs/ or scipy/.dylibs/, or where there is none, the routines that scipy's f2py
wrapper _flapack calls, which is then loaded from its file without the scipy.linalg package
(300 modules the engine never calls), under its scipy name so `import scipy.linalg` shares it."""

import ctypes
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

# each routine's arguments: C a CHARACTER, I an INTEGER, D a DOUBLE PRECISION, A an array
_SIGNATURES = {"dsfrk": "CCCIIDAIDA", "dtfttr": "CCIAAII", "dpotrf": "CIAII",
               "dpotrs": "CIIAIAII", "dtrtri": "CCIAII", "dtrtrs": "CCCIIAIAII"}
# each argument type's C declaration and how `_Lapack._call` passes a value of it: ctypes
# takes an INTEGER or a DOUBLE PRECISION by reference, an array by the address of its data
_TYPES = {"C": (ctypes.c_char_p, str.encode), "I": (ctypes.POINTER(ctypes.c_int), ctypes.c_int),
          "D": (ctypes.POINTER(ctypes.c_double), ctypes.c_double),
          "A": (ctypes.c_void_p, lambda a: a.ctypes.data)}


def _fortran(a, shape, write=False) -> np.ndarray:
    """`a` itself, if it is an F-ordered float64 array of `shape`, writeable if `write`."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.f_contiguous
            and a.shape == shape and (a.flags.writeable or not write)):
        raise ValueError(f"LAPACK needs a{' writeable' * write} F-ordered float64 array of shape "
                         f"{shape}, not {getattr(a, 'dtype', type(a))} of shape {np.shape(a)}")
    return a


class _Lapack:
    """The six routines at `addresses`, called as the engine calls them: a a^T into new RFP
    lower storage (transr "N") and its lower triangle into a new square; factors and
    inverses in place; right-hand sides copied; INFO returned where it can flag the matrix.
    LAPACK reads and writes the sizes it is told, so any other array is refused."""

    def __init__(self, addresses: dict[str, int]):
        self._routines = {}
        for name, signature in _SIGNATURES.items():
            # gfortran appends each CHARACTER's length, a size_t passed by value
            chars = signature.count("C")
            prototype = ctypes.CFUNCTYPE(None, *[_TYPES[c][0] for c in signature],
                                         *[ctypes.c_size_t] * chars)
            self._routines[name] = prototype(addresses[name]), signature, (1,) * chars

    def _call(self, name: str, *args) -> int:
        """Calls `name` with `args`, INFO (none for dsfrk), the CHARACTER lengths; returns INFO."""
        routine, signature, lengths = self._routines[name]
        info = ctypes.c_int(0)
        tail = lengths if name == "dsfrk" else (info, *lengths)
        routine(*[_TYPES[c][1](a) for c, a in zip(signature, args)], *tail)
        return info.value

    def dsfrk(self, a) -> np.ndarray:
        n, k = np.shape(a)
        c = np.zeros(n * (n + 1) // 2)
        self._call("dsfrk", "N", "L", "N", n, k, 1.0, _fortran(a, (n, k)), n, 0.0, c)
        return c

    def dtfttr(self, arf, n: int) -> np.ndarray:
        a = np.zeros((n, n), order="F")  # dtfttr writes one triangle; the other must read 0
        self._call("dtfttr", "N", "L", n, _fortran(arf, (n * (n + 1) // 2,)), a, n)
        return a

    def dpotrf(self, a) -> int:
        n = len(a)
        return self._call("dpotrf", "L", n, _fortran(a, (n, n), write=True), n)

    def dpotrs(self, c, b) -> np.ndarray:
        n = len(c)
        x = _fortran(np.array(b), (n,))  # a copy, which LAPACK overwrites with the solution
        self._call("dpotrs", "L", n, 1, _fortran(c, (n, n)), n, x, n)
        return x

    def dtrtri(self, c) -> int:
        n = len(c)
        return self._call("dtrtri", "L", "N", n, _fortran(c, (n, n), write=True), n)

    def dtrtrs(self, a, b) -> tuple[np.ndarray, int]:
        n, nrhs = len(a), np.shape(b)[-1]
        x = _fortran(np.array(b, order="F"), (n, nrhs))  # a copy, as for dpotrs
        return x, self._call("dtrtrs", "L", "N", "N", n, nrhs, _fortran(a, (n, n)), n, x, n)


def _load(name: str):
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = _SCIPY / "linalg"
    spec = PathFinder.find_spec(full, [str(folder)])
    if spec is None:
        raise ImportError(f"scipy's compiled wrapper {folder / name}.* is missing", name=full)
    sys.modules[full] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundled_openblas(package: Path) -> Path | None:
    """The libscipy_openblas beside or inside scipy's folder `package`, or None."""
    found = [*package.parent.glob("scipy.libs/libscipy_openblas*"),
             *package.glob(".dylibs/libscipy_openblas*")]
    return min(found, default=None)


def _addresses(library: Path | None) -> dict[str, int]:
    """Each routine's address: the symbol scipy_<routine>_ of `library`, or where there is
    no library, the routine that _flapack's f2py object of that name calls."""
    if library:
        lib = ctypes.CDLL(str(library))
        return {name: ctypes.cast(getattr(lib, f"scipy_{name}_"), ctypes.c_void_p).value
                for name in _SIGNATURES}
    wrapper = _load("_flapack")
    # f2py makes each routine object's `_cpointer` an unnamed capsule of its address
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return {name: pointer(getattr(wrapper, name)._cpointer, None) for name in _SIGNATURES}


if find_spec("scipy") is None:  # found without importing scipy
    raise ModuleNotFoundError("the engine's LAPACK routines need scipy", name="scipy")
_SCIPY = Path(find_spec("scipy").submodule_search_locations[0])
lapack = _Lapack(_addresses(_bundled_openblas(_SCIPY)))
