"""The benchmark under perfbench/ reaches into the package by name.

Its tracer skips a probe whose attribute is missing, and its workloads look
functions up at call time, so a deleted or renamed function would silently
drop a per-layer metric or fail only in a benchmark run. These tests pin
every name the benchmark uses to the package.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _package_names(path):
    # (module, attribute) for every `from hygec... import` name and every
    # attribute read off a submodule imported with `from hygec import ...`
    tree = ast.parse(path.read_text())
    submodules = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hygec"):
            for alias in node.names:
                if node.module == "hygec":
                    submodules[alias.asname or alias.name] = f"hygec.{alias.name}"
                else:
                    used.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in submodules):
            used.add((submodules[node.value.id], node.attr))
    return used


def test_every_tracer_probe_resolves():
    probes = _load("tracing").PROBES
    assert probes
    missing = [(mod, attr) for mod, attr, _ in probes
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_every_package_name_the_workloads_use_exists():
    used = _package_names(PERFBENCH / "workloads.py")
    # the walk must find the calls it guards, or the test would pass vacuously
    assert ("hygec.denoisers", "indicator_beliefs") in used
    assert ("hygec.engine", "hygec_run") in used
    missing = sorted((mod, attr) for mod, attr in used
                     if not hasattr(importlib.import_module(mod), attr))
    assert missing == []
