"""scipy's compiled LAPACK wrapper, loaded without the scipy.linalg package.

scipy/linalg/__init__.py loads scipy's array-API layer (numpy.testing,
unittest and some 300 more modules, about 23 MB) that the engine never calls;
the routines it does call live in the extension module _flapack, which needs
only numpy. It is the package's one compiled dependency: the Gram is built by
LAPACK's dsfrk and every matvec is a numpy einsum, so scipy's BLAS wrapper
_fblas is never loaded. The module is registered under its scipy name, so the
process holds one copy whether this module or `import scipy.linalg` runs first.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy


def _load(name: str):
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


lapack = _load("_flapack")
