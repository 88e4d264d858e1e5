"""A linear solve loads neither scipy.special nor a process pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, so no module is already loaded
_PROBE = """
import sys
import hygec.bench, hygec.cli, hygec.em, hygec.engine, hygec.oracle
from hygec.bench import Scenario, build_instance

inst = build_instance(Scenario(name="custom", m=20, n=40, k=8, rho=0.25, snr_db=20.0, seeds=(0,)), 0, None)
hygec.engine.hygec_run(inst, 0.25)
hygec.em.em_hygec_run(inst, 0.1)
assert "scipy.special" not in sys.modules, "a linear solve loaded scipy.special"
assert "concurrent.futures.process" not in sys.modules, "the process pool loaded"
"""


def test_linear_solve_loads_no_scipy_special_and_no_process_pool():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
