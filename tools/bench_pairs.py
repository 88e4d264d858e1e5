"""Run perfbench in alternating parent/change pairs and write BENCH_<label>.json.

Give it two checkouts, the parent commit and the change, each with its own
``perfbench/`` and ``src/``, made the same way, as two ``git clone``s:

    python3 tools/bench_pairs.py --parent ../parent --change ../change --label one_blas \
        --pairs 10 --seed 21

Pairing the working repository with a copy made another way once read a
10-in-10 ``peak_rss_mb`` gain that clones of the same two commits did not show.
So each side must be a git checkout whose tracked files match its HEAD: a side
with no revision (a ``git archive`` copy, say) or with uncommitted changes is
refused, by side and path, before the first run, and every record names two
exact commits.

Every run lasts BENCHMARK.json's ``run_seconds``. Pair i runs every workload
once per side at run seed ``--seed + i``. The side that runs first alternates
from pair to pair, so a drift in machine speed does not favour either side.
Each gated metric of ``BENCHMARK.json`` gets the per-side median and quartiles
over the pairs and the number of pairs the change won (ties count for
neither). After the pairs, each side runs every workload once more with
``--trace 1`` at run seed ``--seed + pairs`` for the per-layer split. The
machine facts come from the first run. Every run gets
``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX`` naming one fresh,
empty temporary directory, the same for both sides, so each side's import
probe compiles the package from source whatever ``__pycache__`` its checkout
holds, and ``setup_s`` includes that.

The file reports, for each gated metric, whether the change shows a gain by
the benchmark's rule (it wins at least 9 in 10 pairs and the medians differ by
more than the parent's q1-q3 distance) and whether its median is worse than
the parent's by more than the metric's bound. The printout gives each gated
metric's win count with the spread of its per-pair log-ratios, the sample
standard deviation of log(change / parent) over the pairs: a gain far smaller
than that spread needs many pairs to show. The same medians, win count and
spread, with no verdict, follow for the ungated ``setup_s_wall`` and
``ms_per_sweep_wall`` of every run's report: the gated ``setup_s`` and
``ms_per_sweep`` are scaled by a gauge of the machine's speed, which can widen
the spread of the pairs instead of narrowing it. Each workload's lines end
with each side's ``peak_rss_mb`` run by run, in pair order, so a run whose peak
jumps shows beside the median, and then each side's solves run by run
(perfbench's ``attempted``), so the record shows how many solves each run's
gated figures rest on. The printout ends with every per-layer metric
of the traced runs whose parent and change values differ, so a change that
moves a count, such as ``em.inner_sweeps``, shows it on screen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9
# each ungated report figure, with the gated metric that is its gauge-scaled twin
UNGATED = {"setup_s_wall": "setup_s", "ms_per_sweep_wall": "ms_per_sweep"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=21, help="run seed of the first pair")
    p.add_argument("--workloads", nargs="+", default=None, help="default: BENCHMARK.json's")
    p.add_argument("--out", type=Path, default=None, help="default: BENCH_<label>.json here")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        p.error("--pairs must be >= 1 and --seed >= 0")
    return args


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int,
                  env: dict) -> dict:
    """One perfbench run in ``checkout`` under ``env``; its result line, report, checks and
    machine facts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=3600,
                         env=env)
    if out.returncode not in (0, 1):  # 1 is a failed output check, still a result
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "checks": [line[len("check "):] for line in lines if line.startswith("check ")],
    }
    for line in lines:
        if line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("report "):
            run["report"] = {k: v["value"] for k, v in json.loads(line[len("report "):]).items()}
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def count_wins(values: dict, lower: bool) -> tuple[int, int]:
    """Pairs the change won and pairs tied."""
    wins = ties = 0
    for a, b in zip(values["parent"], values["change"]):
        if a == b:
            ties += 1
        elif (b < a) == lower:
            wins += 1
    return wins, ties


def compare(pairs: list[dict], name: str, spec: dict) -> dict:
    """Per-side quartiles of one gated metric, wins per pair, and the verdicts."""
    lower = spec["better"] == "lower"
    values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
    stats = {side: quartiles(values[side]) for side in SIDES}
    wins, ties = count_wins(values, lower)
    parent, change = stats["parent"]["median"], stats["change"]["median"]
    gain = (parent - change) if lower else (change - parent)
    worse_frac = -gain / parent if parent else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        **stats,
        "values": values,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(pairs),
        "change_vs_parent": change / parent if parent else None,
        "gain_shown": wins >= WIN_SHARE * len(pairs)
        and gain > stats["parent"]["q3"] - stats["parent"]["q1"],
        "worse_beyond_bound": worse_frac > spec["bound"],
    }


def log_ratio_spread(values: dict) -> float | None:
    """Sample standard deviation of log(change / parent) over the pairs; None for fewer
    than two pairs or a value that is not positive."""
    pairs = list(zip(values["parent"], values["change"]))
    if len(pairs) < 2 or not all(a > 0 and b > 0 for a, b in pairs):
        return None
    return statistics.stdev(math.log(b / a) for a, b in pairs)


def _spread_text(values: dict) -> str:
    spread = log_ratio_spread(values)
    return "-" if spread is None else f"{spread:.2g}"


def summary_line(workload: str, name: str, m: dict) -> str:
    """One gated metric of a workload: medians, wins with the log-ratio spread, verdicts."""
    return (f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
            f"{m['unit']}, change won {m['change_wins']}/{m['pairs']} "
            f"(log-ratio sd {_spread_text(m['values'])}), "
            f"gain shown {m['gain_shown']}, worse beyond bound {m['worse_beyond_bound']}")


def ungated_line(workload: str, name: str, spec: dict, pairs: list[dict]) -> str:
    """One ungated report figure of a workload, taking unit and direction from its gated
    twin's `spec`: medians and wins with the log-ratio spread, no verdict."""
    values = {side: [p[side]["report"][name] for p in pairs] for side in SIDES}
    wins, _ = count_wins(values, spec["better"] == "lower")
    return (f"{workload} {name} (ungated): {statistics.median(values['parent']):.4g} -> "
            f"{statistics.median(values['change']):.4g} {spec['unit']}, change won "
            f"{wins}/{len(pairs)} (log-ratio sd {_spread_text(values)})")


def rss_line(workload: str, side: str, pairs: list[dict]) -> str:
    """One side's `peak_rss_mb` of every run of a workload, in pair order."""
    values = " ".join(f"{p[side]['metrics']['peak_rss_mb']:.1f}" for p in pairs)
    return f"{workload} peak_rss_mb {side} runs: {values} MB"


def solves_line(workload: str, side: str, pairs: list[dict]) -> str:
    """One side's solves of every run of a workload, in pair order."""
    values = " ".join(str(p[side]["attempted"]) for p in pairs)
    return f"{workload} solves {side} runs: {values}"


def trace_diffs(trace: dict) -> list[str]:
    """One line per workload and traced metric whose parent and change values differ."""
    def show(value):
        return "-" if value is None else str(value) if isinstance(value, int) else f"{value:.4g}"

    lines = []
    for workload, sides in trace.items():
        parent, change = sides["parent"]["metrics"], sides["change"]["metrics"]
        for name in [*parent, *(k for k in change if k not in parent)]:
            if parent.get(name) != change.get(name):
                lines.append(f"{workload} {name} {show(parent.get(name))} -> "
                             f"{show(change.get(name))}")
    return lines


def git_rev(checkout: Path) -> str | None:
    """HEAD's commit, with "+dirty" if tracked files differ from it; None unless `checkout`
    is the top of a git work tree (a copy inside another checkout has no commit of its own)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)

    head = git("rev-parse", "--show-toplevel", "HEAD")
    if head.returncode != 0:
        return None
    top, rev = head.stdout.splitlines()
    if Path(top).resolve() != checkout.resolve():
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return rev + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    revisions = {side: git_rev(path) for side, path in checkouts.items()}
    for side, rev in revisions.items():
        if rev is None or rev.endswith("+dirty"):
            state = "is no git checkout" if rev is None else "has uncommitted changes"
            print(f"error: the {side} side {checkouts[side]} {state}; pair two clean git clones",
                  file=sys.stderr)
            return 2

    pairs: dict[str, list[dict]] = {w: [] for w in workloads}
    machine = None
    trace_seed = args.seed + args.pairs
    trace = {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_pycache_") as pycache:
        # an empty bytecode cache that stays empty: neither side reads its __pycache__
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    run = run_perfbench(checkouts[side], workload, seed, seconds, trace=0, env=env)
                    machine = machine or run["machine"]
                    run["cholesky400_ms"] = run.pop("machine")["cholesky400_ms"]
                    pair[side] = run
                    print(f"pair {i} {workload} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                          file=sys.stderr, flush=True)
                pairs[workload].append(pair)

        for workload in workloads:
            trace[workload] = {"seed": trace_seed}
            for side in SIDES:
                run = run_perfbench(checkouts[side], workload, trace_seed, seconds, trace=1,
                                    env=env)
                trace[workload][side] = {k: run[k] for k in ("correct", "failed", "metrics")}

    doc = {
        "label": args.label,
        "command": benchmark["command"],
        "settings": {"pairs": args.pairs, "seconds": seconds, "first_seed": args.seed,
                     "workloads": workloads},
        "revisions": revisions,
        "machine": machine,
        "workloads": {
            w: {
                "metrics": {name: compare(pairs[w], name, spec) for name, spec in gated.items()},
                "all_correct": all(p[s]["correct"] for p in pairs[w] for s in SIDES),
                "failed": {s: sum(p[s]["failed"] for p in pairs[w]) for s in SIDES},
                "runs": pairs[w],
            }
            for w in workloads
        },
        "trace": trace,
    }
    out = args.out or Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w in workloads:
        for name, m in doc["workloads"][w]["metrics"].items():
            print(summary_line(w, name, m))
        for name, twin in UNGATED.items():
            print(ungated_line(w, name, gated[twin], pairs[w]))
        for side in SIDES:
            print(rss_line(w, side, pairs[w]))
        for side in SIDES:
            print(solves_line(w, side, pairs[w]))
    for line in trace_diffs(trace):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
