"""The revision stamp tools/bench_pairs.py writes for each side of a record, and the
traced metrics it prints."""

import importlib.util
import subprocess
from pathlib import Path

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
