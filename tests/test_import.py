"""A linear solve loads no scipy package, no numpy.polynomial and no process pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hygec._lapack import _load

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so no module is already loaded; argv[1] "packages" checks
# what a linear and an EM solve leave unloaded, "wrapper" that the engine's routines are
# those of scipy's f2py wrapper, loaded from its file under its scipy name
_PROBE = """
import sys
from pathlib import Path
import hygec.bench, hygec.cli, hygec.em, hygec.engine, hygec.oracle
from hygec.bench import Scenario, build_instance

inst = build_instance(Scenario(name="custom", m=20, n=40, k=8, rho=0.25, snr_db=20.0, seeds=(0,)), 0, None)
hygec.engine.hygec_run(inst, 0.25)
hygec.em.em_hygec_run(inst, 0.1)
scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
if sys.argv[1] == "packages":
    packages = [name for name in scipy if name in ("scipy", "scipy.linalg", "scipy.special")]
    assert not packages, f"a linear solve loaded {packages}"
    assert "numpy.polynomial" not in sys.modules, "a linear solve loaded numpy.polynomial"
    assert "concurrent.futures.process" not in sys.modules, "the process pool loaded"
else:
    assert scipy == ["scipy.linalg._flapack"], f"a linear solve loaded {scipy}"
    wrapper = sys.modules["scipy.linalg._flapack"]
    assert hygec.engine.lapack is wrapper, "the engine calls another LAPACK"
    folder = Path(wrapper.__file__).parent
    assert folder.name == "linalg" and folder.parent.name == "scipy", wrapper.__file__
"""

# a meta-path finder in place of PathFinder that finds no scipy, so find_spec("scipy")
# is None; every other name is found as before
_NO_SCIPY_PROBE = """
import sys
from importlib.machinery import PathFinder

class NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            return None
        return PathFinder.find_spec(name, path, target)

sys.meta_path[sys.meta_path.index(PathFinder)] = NoScipy
try:
    import hygec.engine
except ModuleNotFoundError as error:
    assert error.name == "scipy" and "scipy" in str(error), error
else:
    raise AssertionError("hygec.engine imported without scipy")
"""

# argv[1] says whether scipy.linalg is imported before or after the package;
# prints the bits of one desk-size x̂
_ORDER_PROBE = """
import sys
if sys.argv[1] == "before":
    import scipy.linalg
import hygec.engine
import scipy.linalg
from hygec.bench import Scenario, build_instance

inst = build_instance(Scenario(name="custom", m=200, n=400, k=20, rho=0.1, snr_db=10.0, seeds=(0,)), 0, None)
print(hygec.engine.hygec_run(inst, 0.1)[3].tobytes().hex())
"""


_LOAD_PROBE = """
import sys
from hygec._lapack import _load

_load("_flapack")
assert "scipy.linalg._flapack" in sys.modules
packages = [name for name in ("scipy", "scipy.linalg") if name in sys.modules]
assert not packages, f"loading _flapack imported {packages}"
"""


def _fresh(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", *args], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_linear_solve_loads_no_scipy_linalg_scipy_special_or_process_pool():
    # numpy.polynomial holds the Gauss-Legendre nodes of the quantized cell moments
    _fresh(_PROBE, "packages")


def test_linear_solve_through_the_wrapper_addresses_loads_no_scipy_package():
    # the engine calls scipy's f2py LAPACK wrapper, loaded from its file, and no other
    # scipy module loads
    _fresh(_PROBE, "wrapper")


def test_missing_scipy_is_named_at_import():
    _fresh(_NO_SCIPY_PROBE)


def test_loading_the_wrapper_imports_no_scipy_package():
    _fresh(_LOAD_PROBE)


def test_one_copy_of_the_wrappers_in_either_import_order():
    # the engine and scipy.linalg call the same library, whichever loads first,
    # so the results cannot depend on the order
    assert _fresh(_ORDER_PROBE, "before") == _fresh(_ORDER_PROBE, "after")


def _imports() -> dict[str, list[str]]:
    """The names each module of the package imports, by file name; a relative import
    is resolved, so `from . import oracle` and `from .oracle import nmse` both count
    as importing hygec.oracle, and `from scipy import linalg` as importing scipy.linalg.
    Fails when the glob finds no engine.py, which would leave nothing to check."""
    paths = sorted((SRC / "hygec").glob("*.py"))
    assert SRC / "hygec" / "engine.py" in paths, f"no package modules under {SRC}"
    imports = {}
    for path in paths:
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        names += [f"{'hygec.' * (n.level > 0)}{n.module or ''}.{a.name}".replace("..", ".")
                  for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names]
        imports[path.name] = names
    return imports


def test_no_module_imports_scipy_linalg():
    for name, names in _imports().items():
        assert not any(n.startswith("scipy.linalg") for n in names), name


def test_only_the_cli_imports_the_oracle():
    # the references sit above the solver
    for name, names in _imports().items():
        assert any(n.startswith("hygec.oracle") for n in names) == (name == "cli.py"), name


def test_missing_wrapper_is_named():
    with pytest.raises(ImportError, match=r"_no_such_wrapper\.\*"):
        _load("_no_such_wrapper")


def test_a_wrapper_that_fails_to_load_leaves_no_module_behind(tmp_path, monkeypatch):
    # as importlib does, so a later `import scipy.linalg` in the process cannot pick up a
    # half-built module, as from a scipy wheel built against another numpy
    (tmp_path / "linalg").mkdir()
    (tmp_path / "linalg" / "_broken.py").write_text('raise ImportError("built for numpy 1.x")\n')
    monkeypatch.setattr("hygec._lapack._SCIPY", tmp_path)
    with pytest.raises(ImportError, match="numpy 1.x"):
        _load("_broken")
    assert "scipy.linalg._broken" not in sys.modules
