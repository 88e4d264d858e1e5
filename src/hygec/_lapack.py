"""scipy's compiled BLAS and LAPACK wrappers, loaded without the scipy.linalg package.

scipy/linalg/__init__.py loads scipy's array-API layer (numpy.testing,
unittest and some 300 more modules, about 23 MB) that the engine never calls;
its routines live in the extension modules _fblas and _flapack, which need
only numpy. Both are registered under their scipy names, so the process holds
one copy whether this module or `import scipy.linalg` runs first.
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


blas = _load("_fblas")
lapack = _load("_flapack")
