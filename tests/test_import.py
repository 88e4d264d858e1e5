"""Importing the package does no numerical work and loads no process pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so no module is already loaded
_PROBE = """
import sys
import numpy.polynomial.legendre as legendre

def _refuse(*args, **kwargs):
    raise AssertionError("leggauss ran at import")

legendre.leggauss = _refuse
import hygec.bench, hygec.cli, hygec.em, hygec.engine, hygec.oracle
assert "concurrent.futures.process" not in sys.modules, "the process pool loaded at import"
"""


def test_import_builds_no_quadrature_rule_and_loads_no_process_pool():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
