"""Compare two ``hygec run --format json`` outputs row by row.

    python3 tools/compare_runs.py PARENT.json CHANGE.json

Rows are paired by scenario, seed, sweep value, algorithm and iteration. The
script prints the number of paired rows, the largest |ΔNMSE| (dB) over all
paired rows and over each trial's final row, the largest |Δrho_est|, and the
largest |Δrho_final| (the rate each trial returns), or "n/a" when a side's
rows predate that field. It lists every row without a partner and every pair
whose terminations differ, and then exits 1; otherwise it exits 0. A blank
NMSE (a zero true signal, or a sweep that failed) pairs only with a blank one;
a blank against a number counts as an infinite difference.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

KEY = ("scenario", "seed", "sweep_value", "algorithm", "iteration")


def keyed(rows: list[dict]) -> dict[tuple, dict]:
    return {tuple(row[c] for c in KEY): row for row in rows}


def _gap(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else math.inf
    return abs(a - b)


def compare(parent_rows: list[dict], change_rows: list[dict]) -> tuple[dict, list[str]]:
    """The figures of the paired rows, and one line per unpaired row or termination mismatch."""
    parent, change = keyed(parent_rows), keyed(change_rows)
    problems = [f"{side} repeats a row key" for side, rows, by_key in
                (("parent", parent_rows, parent), ("change", change_rows, change))
                if len(by_key) != len(rows)]
    problems += [f"only in parent: {key}" for key in parent if key not in change]
    problems += [f"only in change: {key}" for key in change if key not in parent]
    paired = [key for key in parent if key in change]
    last: dict[tuple, int] = {}
    for key in paired:
        last[key[:-1]] = max(last.get(key[:-1], 0), key[-1])
    nmse = {key: _gap(parent[key]["nmse_db"], change[key]["nmse_db"]) for key in paired}
    for key in paired:
        if parent[key]["terminated"] != change[key]["terminated"]:
            problems.append(f"termination {parent[key]['terminated']} -> "
                            f"{change[key]['terminated']}: {key}")
    learned = all("rho_final" in side[k] for side in (parent, change) for k in paired)
    figures = {
        "rows": len(paired),
        "nmse_db": max(nmse.values(), default=0.0),
        "final_nmse_db": max((nmse[k] for k in paired if k[-1] == last[k[:-1]]), default=0.0),
        "rho_est": max((_gap(parent[k]["rho_est"], change[k]["rho_est"]) for k in paired),
                       default=0.0),
        "rho_final": max((_gap(parent[k]["rho_final"], change[k]["rho_final"]) for k in paired),
                         default=0.0) if learned else None,
    }
    return figures, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="JSON output of the parent's run")
    p.add_argument("change", help="JSON output of the change's run, same scenario and seeds")
    args = p.parse_args(argv)
    sides = []
    for path in (args.parent, args.change):
        with open(path) as fh:
            sides.append(json.load(fh)["rows"])
    figures, problems = compare(*sides)
    for line in problems:
        print(line)
    print(f"paired rows {figures['rows']}")
    print(f"max |dNMSE| all rows {figures['nmse_db']:.3g} dB")
    print(f"max |dNMSE| final rows {figures['final_nmse_db']:.3g} dB")
    print(f"max |drho_est| {figures['rho_est']:.3g}")
    rho_final = figures["rho_final"]
    print(f"max |drho_final| {'n/a' if rho_final is None else f'{rho_final:.3g}'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
