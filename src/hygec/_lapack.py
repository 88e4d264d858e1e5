"""scipy's f2py LAPACK wrapper _flapack, the engine's one compiled dependency, loaded from
its file without the scipy.linalg package (300 modules the engine never calls). It is
registered under its scipy name, so `import scipy.linalg` shares it whichever runs first."""

import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path


def _load(name: str):
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = _SCIPY / "linalg"
    spec = PathFinder.find_spec(full, [str(folder)])
    if spec is None:
        raise ImportError(f"scipy's compiled wrapper {folder / name}.* is missing", name=full)
    sys.modules[full] = module = module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:  # as importlib does: no half-built module stays registered
        del sys.modules[full]
        raise
    return module


if find_spec("scipy") is None:  # found without importing scipy
    raise ModuleNotFoundError("the engine's LAPACK routines need scipy", name="scipy")
_SCIPY = Path(find_spec("scipy").submodule_search_locations[0])
lapack = _load("_flapack")
