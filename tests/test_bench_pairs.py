"""The revision stamp tools/bench_pairs.py writes for each side of a record, its refusal
of a side that names no exact commit, the bytecode cache its runs get, and the gated,
ungated, per-run and traced metrics and the solve counts it prints."""

import importlib.util
import json
import math
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], capture_output=True, text=True, check=True).stdout.strip()


def test_git_rev_marks_uncommitted_tracked_changes(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    _git(tmp_path, "add", "a.py")
    _git(tmp_path, "commit", "-q", "-m", "first")
    head = _git(tmp_path, "rev-parse", "HEAD")
    assert bench_pairs.git_rev(tmp_path) == head

    (tmp_path / "untracked.txt").write_text("build output\n")
    assert bench_pairs.git_rev(tmp_path) == head

    (tmp_path / "a.py").write_text("x = 2\n")
    assert bench_pairs.git_rev(tmp_path) == head + "+dirty"

    _git(tmp_path, "commit", "-q", "-am", "second")
    assert bench_pairs.git_rev(tmp_path) == _git(tmp_path, "rev-parse", "HEAD")

    # a copy inside the work tree, as `git archive` unpacks one, is no checkout of its own
    (tmp_path / "copy").mkdir()
    (tmp_path / "copy" / "a.py").write_text("x = 2\n")
    assert bench_pairs.git_rev(tmp_path / "copy") is None


@pytest.mark.parametrize("bad_side", bench_pairs.SIDES)
@pytest.mark.parametrize("state", ["is no git checkout", "has uncommitted changes"])
def test_a_side_that_names_no_exact_commit_is_refused_before_any_run(tmp_path, monkeypatch,
                                                                    capsys, bad_side, state):
    # a record holds two exact commits: a copy with no revision (git archive) or a
    # checkout with uncommitted changes is refused by side and path, and nothing runs
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for side, path in checkouts.items():
        path.mkdir()
        if side == bad_side and state == "is no git checkout":
            continue
        _git(path, "init", "-q")
        (path / "a.py").write_text("x = 1\n")
        _git(path, "add", "a.py")
        _git(path, "commit", "-q", "-m", "first")
        if side == bad_side:
            (path / "a.py").write_text("x = 2\n")

    def no_run(*args, **kwargs):
        raise AssertionError("perfbench ran")

    monkeypatch.setattr(bench_pairs, "run_perfbench", no_run)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]), "--change",
                             str(checkouts["change"]), "--label", "x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: the {bad_side} side {checkouts[bad_side]} "
                                       f"{state}; pair two clean git clones\n")
    assert not out.exists()


def test_trace_diffs_lists_each_traced_metric_that_moved():
    def side(**metrics):
        return {"correct": True, "failed": 0, "metrics": metrics}

    trace = {
        "desk-linear": {"seed": 31,
                        "parent": side(**{"engine.sweeps": 1351, "em.inner_sweeps": 1088,
                                          "em.em_update_rho.s": 0.0073}),
                        "change": side(**{"engine.sweeps": 1087, "em.inner_sweeps": 824,
                                          "em.em_update_rho.s": 0.0073})},
        "full-linear": {"seed": 31,
                        "parent": side(**{"engine.sweeps": 40, "oracle.nmse.s": 0.25}),
                        "change": side(**{"engine.sweeps": 40, "trace.overhead_s": 1.5})},
    }
    assert bench_pairs.trace_diffs(trace) == [
        "desk-linear engine.sweeps 1351 -> 1087",
        "desk-linear em.inner_sweeps 1088 -> 824",
        "full-linear oracle.nmse.s 0.25 -> -",
        "full-linear trace.overhead_s - -> 1.5",
    ]


def test_log_ratio_spread_is_the_sd_of_the_per_pair_log_ratios():
    values = {"parent": [2.0, 4.0, 5.0], "change": [2.0, 2.0, 10.0]}
    logs = [0.0, math.log(0.5), math.log(2.0)]
    mean = sum(logs) / 3
    sd = math.sqrt(sum((x - mean) ** 2 for x in logs) / 2)
    assert math.isclose(bench_pairs.log_ratio_spread(values), sd, rel_tol=1e-12)
    # a constant ratio has no spread, whatever its size
    assert bench_pairs.log_ratio_spread({"parent": [1.0, 3.0], "change": [2.0, 6.0]}) == 0.0
    assert bench_pairs.log_ratio_spread({"parent": [1.0], "change": [2.0]}) is None
    assert bench_pairs.log_ratio_spread({"parent": [1.0, 0.0], "change": [2.0, 1.0]}) is None


def test_summary_line_shows_the_spread_next_to_the_wins():
    spec = {"unit": "MB", "better": "lower", "bound": 0.1}
    pairs = [{"parent": {"metrics": {"peak_rss_mb": p}}, "change": {"metrics": {"peak_rss_mb": c}}}
             for p, c in [(75.0, 73.8), (74.9, 73.7), (75.1, 73.9), (74.8, 73.8)]]
    m = bench_pairs.compare(pairs, "peak_rss_mb", spec)
    spread = bench_pairs.log_ratio_spread(m["values"])
    assert bench_pairs.summary_line("desk-linear", "peak_rss_mb", m) == (
        f"desk-linear peak_rss_mb: 74.95 -> 73.8 MB, change won 4/4 (log-ratio sd {spread:.2g}), "
        "gain shown True, worse beyond bound False")


def test_ungated_line_reads_each_run_report_and_gives_no_verdict():
    spec = {"unit": "ms", "better": "lower", "bound": 0.25}
    parent, change = [3.3, 3.4, 3.3, 3.6], [3.2, 3.5, 3.3, 3.4]
    pairs = [{side: {"report": {"ms_per_sweep_wall": v}} for side, v in zip(bench_pairs.SIDES, pc)}
             for pc in zip(parent, change)]
    spread = bench_pairs.log_ratio_spread({"parent": parent, "change": change})
    assert bench_pairs.ungated_line("desk-linear", "ms_per_sweep_wall", spec, pairs) == (
        f"desk-linear ms_per_sweep_wall (ungated): 3.35 -> 3.35 ms, change won 2/4 "
        f"(log-ratio sd {spread:.2g})")


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_record_gives_the_ungated_lines(path):
    # each run of a record keeps its report, metrics and solve count, so the ungated
    # figures, each run's peak_rss_mb and each run's solves can be read back
    doc = json.loads(path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    for workload, body in doc["workloads"].items():
        for name, twin in bench_pairs.UNGATED.items():
            line = bench_pairs.ungated_line(workload, name, gated[twin], body["runs"])
            assert line.startswith(f"{workload} {name} (ungated): "), line
        for side in bench_pairs.SIDES:
            line = bench_pairs.rss_line(workload, side, body["runs"])
            values = line.removeprefix(f"{workload} peak_rss_mb {side} runs: ").removesuffix(" MB")
            assert len(values.split()) == len(body["runs"]), line
            line = bench_pairs.solves_line(workload, side, body["runs"])
            counts = line.removeprefix(f"{workload} solves {side} runs: ").split()
            assert [int(c) for c in counts] == [r[side]["attempted"] for r in body["runs"]], line


def test_rss_line_lists_each_run_in_pair_order():
    pairs = [{"parent": {"metrics": {"peak_rss_mb": p}}, "change": {"metrics": {"peak_rss_mb": c}}}
             for p, c in [(171.04, 187.12), (171.0, 171.16)]]
    assert bench_pairs.rss_line("full-linear", "parent", pairs) == (
        "full-linear peak_rss_mb parent runs: 171.0 171.0 MB")
    assert bench_pairs.rss_line("full-linear", "change", pairs) == (
        "full-linear peak_rss_mb change runs: 187.1 171.2 MB")


def test_solves_line_lists_each_run_in_pair_order():
    pairs = [{"parent": {"attempted": p}, "change": {"attempted": c}} for p, c in [(4, 4), (5, 3)]]
    assert bench_pairs.solves_line("full-linear", "parent", pairs) == (
        "full-linear solves parent runs: 4 5")
    assert bench_pairs.solves_line("full-linear", "change", pairs) == (
        "full-linear solves change runs: 4 3")


def test_both_sides_compile_from_source_under_one_empty_bytecode_prefix(tmp_path, monkeypatch):
    # a checkout's __pycache__ is read even when no bytecode is written, so each run
    # must point its bytecode cache at a prefix that holds nothing, whatever the caller set
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "caller_cache"))
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    metrics = {"setup_s": 0.1, "ms_per_sweep": 4.0, "peak_rss_mb": 74.0}
    report = {"setup_s_wall": 0.1, "ms_per_sweep_wall": 4.0}
    stdout = "\n".join([
        "machine " + json.dumps({"nproc": 2, "cholesky400_ms": 20.0}),
        "report " + json.dumps({k: {"value": v} for k, v in report.items()}),
        json.dumps({"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {k: {"value": v} for k, v in metrics.items()}}),
    ])
    seen = []

    def fake_run(cmd, cwd=None, env=None, **kwargs):
        if cmd[0] == "git":  # a clean checkout: its own top, a HEAD, no tracked file changed
            head = f"{cmd[2]}\n{'0' * 40}\n" if "rev-parse" in cmd else ""
            return subprocess.CompletedProcess(cmd, 0, head, "")
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((Path(cwd).name, env["PYTHONDONTWRITEBYTECODE"], prefix, os.listdir(prefix)))
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", str(checkouts["parent"]), "--change",
                             str(checkouts["change"]), "--label", "x", "--pairs", "2",
                             "--workloads", "desk-linear", "--out", str(out)]) == 0
    assert sorted({side for side, *_ in seen}) == ["change", "parent"]
    assert len(seen) == 2 * 2 + 2  # the pairs, then one traced run per side
    prefixes = {prefix for _, _, prefix, _ in seen}
    assert len(prefixes) == 1
    prefix = Path(prefixes.pop())
    assert all(flag == "1" and listing == [] for _, flag, _, listing in seen)
    assert prefix != tmp_path / "caller_cache"
    assert not any(prefix.is_relative_to(path) for path in checkouts.values())
    assert not prefix.exists()  # removed once the runs are done
    assert "dont_write_bytecode" not in json.loads(out.read_text())["machine"]
