"""Smoke test of the benchmark itself, at reduced problem sizes.

    python3 perfbench/smoke.py

Runs every workload with ``--smoke`` (shrunken instances, one-second budget),
untraced and traced. Each run must end with a well-formed result line: the
untraced one carries every end-to-end metric of BENCHMARK.json, the traced
one every per-layer metric, each with its unit; the report line before it
names every end-to-end figure. Output checks may fail at these sizes; only
the shape of the output is tested.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, REPORT_UNITS  # noqa: E402

WORKLOADS = ("desk-linear", "full-linear", "quant-pool", "tiny-exact")


def expect(ok: bool, what: str, problems: list[str]) -> None:
    if not ok:
        problems.append(what)


def check_manifest(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(names == END_TO_END, f"BENCHMARK.json end_to_end {names} != {END_TO_END}", problems)
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(names == PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER", problems)
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    expect(not unknown, f"BENCHMARK.json names unknown workloads {sorted(unknown)}", problems)


def check_run(workload: str, trace: int, problems: list[str]) -> None:
    label = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    expect(proc.returncode in (0, 1), f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}", problems)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        problems.append(f"{label}: no output")
        return
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys", problems)
    expect(isinstance(result["correct"], bool), f"{label}: correct is not a bool", problems)
    expect(result["attempted"] >= 1, f"{label}: nothing attempted", problems)
    wanted = PER_LAYER if trace else END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{label}: metrics {sorted(got)} != {sorted(wanted)}", problems)
    for name, entry in result["metrics"].items():
        expect(isinstance(entry["value"], (int, float)), f"{label}: {name} is not a number", problems)
    report = [line for line in lines if line.startswith("report ")]
    expect(len(report) == 1, f"{label}: no report line", problems)
    if report:
        units = {k: v["unit"] for k, v in json.loads(report[0][len("report "):]).items()}
        expect(units == REPORT_UNITS, f"{label}: report names {sorted(units)}", problems)
    expect(any(line.startswith("machine ") for line in lines), f"{label}: no machine facts", problems)


def main() -> int:
    problems: list[str] = []
    check_manifest(problems)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, problems)
            print(f"ran {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
