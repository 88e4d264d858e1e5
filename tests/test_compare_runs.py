"""tools/compare_runs.py pairs the rows of two `hygec run --format json` outputs."""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "tools" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def _trial(seed, nmse, rho, terminated="converged"):
    return [{"scenario": "custom", "seed": seed, "sweep_value": None, "algorithm": "em-hygec",
             "iteration": i + 1, "nmse_db": v, "rho_est": rho, "terminated": terminated,
             "wall_ms": 1.0, "failure": None} for i, v in enumerate(nmse)]


def _write(path, rows):
    path.write_text(json.dumps({"rows": rows, "summary": []}))
    return str(path)


def test_figures_of_paired_rows(tmp_path, capsys):
    parent = _trial(0, [-1.0, -5.0, -9.0], 0.1) + _trial(1, [None, -2.0], 0.2)
    change = _trial(0, [-1.5, -5.0, -9.0 + 1e-9], 0.1 + 1e-17) + _trial(1, [None, -2.0], 0.2)
    figures, problems = compare_runs.compare(parent, change)
    assert problems == []
    assert figures["rows"] == 5
    assert figures["nmse_db"] == 0.5
    assert math.isclose(figures["final_nmse_db"], 1e-9, rel_tol=1e-6)
    assert figures["rho_est"] == abs((0.1 + 1e-17) - 0.1)
    assert compare_runs.main([_write(tmp_path / "p.json", parent),
                              _write(tmp_path / "c.json", change)]) == 0
    assert "paired rows 5" in capsys.readouterr().out


def test_learned_rate_gap_needs_the_field_on_both_sides(tmp_path, capsys):
    # rows written before rho_final existed give "n/a", never a zero gap
    old = _trial(0, [-1.0, -5.0], 0.1)
    new = [{**row, "rho_final": 0.12} for row in old]
    moved = [{**row, "rho_final": 0.125} for row in old]
    assert compare_runs.compare(old, new)[0]["rho_final"] is None
    assert compare_runs.compare(new, moved)[0]["rho_final"] == abs(0.125 - 0.12)
    assert compare_runs.main([_write(tmp_path / "p.json", old),
                              _write(tmp_path / "c.json", new)]) == 0
    assert "max |drho_final| n/a" in capsys.readouterr().out
    assert compare_runs.main([_write(tmp_path / "p.json", new),
                              _write(tmp_path / "c.json", moved)]) == 0
    assert "max |drho_final| 0.005" in capsys.readouterr().out


def test_unpaired_rows_and_termination_mismatches_fail(tmp_path):
    parent = _trial(0, [-1.0, -5.0], 0.1)
    longer = _trial(0, [-1.0, -5.0, -6.0], 0.1)
    figures, problems = compare_runs.compare(parent, longer)
    assert problems == [f"only in change: {('custom', 0, None, 'em-hygec', 3)}"]
    stopped = _trial(0, [-1.0, -5.0], 0.1, terminated="max_iterations")
    assert len(compare_runs.compare(parent, stopped)[1]) == 2
    assert compare_runs.compare(_trial(0, [None], 0.1), _trial(0, [-1.0], 0.1))[0]["nmse_db"] \
        == math.inf
    assert compare_runs.main([_write(tmp_path / "p.json", parent),
                              _write(tmp_path / "c.json", stopped)]) == 1
