"""hygec benchmark: seeded recovery workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-linear --seed 1 --seconds 45 --trace 0

One closed-loop client (this process) solves the workload's inputs one unit
at a time until the time budget would be overrun. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then traced
on the same inputs, and prints the per-layer split with its tracing overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the full report, the machine facts and every output check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Metrics the last line carries; BENCHMARK.json lists the same names. They
# are the end-to-end figures that stay steady across run seeds (README.md).
# Their times are scaled to a machine whose speed gauge reads GAUGE_REF_MS:
# this machine's speed moves in phases of ten minutes or more (a desk sweep
# took 63 ms in one and 100 ms in another), and the gauge moves with it.
END_TO_END = {
    "setup_s": "s",
    "ms_per_sweep": "ms",
    "peak_rss_mb": "MB",
}

# Every end-to-end figure of the full report, with its unit.
REPORT_UNITS = {
    **END_TO_END,
    "setup_s_wall": "s",
    "ms_per_sweep_wall": "ms",
    "trials_per_s": "1/s",
    "trial_s_p50": "s",
    "trial_s_p50_samples": "count",
    "nmse_db_median": "dB",
    "rho_err_median": "1",
    "failed_frac": "1",
    "oracle_rms": "1",
}

PER_LAYER = {
    "engine.lmmse_block.s": "s",
    "engine.lmmse_block.calls": "count",
    "engine.lmmse_block.ms_p50": "ms",
    "engine.lmmse_block.share": "1",
    "engine.hygec_sweep.s": "s",
    "engine.hygec_sweep.self_s": "s",
    "engine.sweeps": "count",
    "denoisers.channel_posterior.s": "s",
    "denoisers.channel_posterior.calls": "count",
    "denoisers.extrinsic.s": "s",
    "denoisers.x_posterior_spike_slab.s": "s",
    "denoisers.llr_messages.s": "s",
    "em.outer_iterations": "count",
    "em.inner_sweeps": "count",
    "em.em_update_rho.s": "s",
    "oracle.exact_posterior_small.s": "s",
    "oracle.nmse.s": "s",
    "oracle.nmse.calls": "count",
    "bench.build_instance.s": "s",
    "bench.pool_speedup": "1",
    "ensembles.gen_matrix.s": "s",
    "ensembles.apply_channel.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
}

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# The package's own import, timed after numpy and scipy are loaded: their
# import is outside the package's control, and its run-to-run swing
# (0.35-0.69 s) would hide any change the package makes to set-up. Before
# it, the probe times a fixed Cholesky solve the size of a desk-scale LMMSE
# step: a gauge of the machine's speed during the run, reported with the
# machine facts.
IMPORT_PROBE = """\
import time
import numpy as np, scipy.linalg, scipy.special
g = np.random.default_rng(0).standard_normal((400, 400))
a = g.T @ g / 400 + np.eye(400)
gauge = []
for _ in range(5):
    start = time.perf_counter()
    scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.eye(400))
    gauge.append(time.perf_counter() - start)
start = time.perf_counter()
import hygec.bench, hygec.em, hygec.engine, hygec.oracle
print(time.perf_counter() - start, sorted(gauge)[2])
"""
SETUP_REPEATS = 9
GAUGE_REF_MS = 20.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink every problem size (smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def time_import(env: dict) -> tuple[float, float]:
    """Seconds a fresh interpreter spends importing the package, and the gauge."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        check=True, timeout=120, env=env,
    )
    import_s, gauge_s = out.stdout.split()
    return float(import_s), float(gauge_s)


class SetupTimer:
    """Set-up time: the package's import plus generation of every input.

    The machine's speed wanders in phases of a few seconds, so the samples
    are spread over the run: one before the first unit, one after each unit,
    and the rest after the loop. Set-up time is the sum of the two medians.
    """

    def __init__(self, workload, seed: int, seconds: float, env: dict):
        self.workload, self.seed, self.count = workload, seed, workload.input_count(seconds)
        self.env = env
        self.imports: list[float] = []
        self.gens: list[float] = []
        self.gauges: list[float] = []

    def sample(self):
        if len(self.imports) >= SETUP_REPEATS:
            return None
        import_s, gauge_s = time_import(self.env)
        self.imports.append(import_s)
        self.gauges.append(gauge_s)
        start = time.perf_counter()
        inputs = self.workload.generate(self.seed, self.count)
        self.gens.append(time.perf_counter() - start)
        return inputs

    def finish(self) -> tuple[float, float]:
        """Set-up wall seconds and the gauge's median in ms."""
        while self.sample() is not None:
            pass
        setup_s = statistics.median(self.imports) + statistics.median(self.gens)
        return setup_s, 1e3 * statistics.median(self.gauges)


def closed_loop(workload, inputs, budget_s: float, between=None):
    """Solve inputs in order; stop before a unit that would overrun the budget.

    ``between`` runs after each unit, outside the measured time.
    """
    results = []
    for item in inputs:
        results.append(workload.run_unit(item))
        if between is not None:
            between()
        elapsed = sum(r.wall_s for r in results)
        if elapsed + elapsed / len(results) > budget_s:
            break
    return results


def peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pooled:
        # every pool worker peaks near the largest child's peak
        own += workload.threads * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def end_to_end(workload, results, setup_s: float, gauge_ms: float) -> dict:
    import numpy as np

    trials = [t for r in results for t in r.trials]
    solves = [s for t in trials for s in t.solves]
    wall = sum(r.wall_s for r in results)
    nmse = [s.nmse_db for s in solves if s.nmse_db is not None]
    ms_per_sweep = 1e3 * statistics.median(s.wall_s / s.sweeps for s in solves if s.sweeps)
    scale = GAUGE_REF_MS / gauge_ms
    metrics = {
        "setup_s": setup_s * scale,
        "setup_s_wall": setup_s,
        "trials_per_s": len(trials) / wall,
        "trial_s_p50": statistics.median(t.wall_s for t in trials),
        "trial_s_p50_samples": len(trials),
        "ms_per_sweep": ms_per_sweep * scale,
        "ms_per_sweep_wall": ms_per_sweep,
        "nmse_db_median": (
            float(10.0 * np.log10(np.median([10.0 ** (v / 10.0) for v in nmse]))) if nmse else None
        ),
        "failed_frac": sum(s.failed for s in solves) / len(solves),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    metrics.update(workload.quality(trials))
    return metrics


def per_layer(tracer, traced_s: float, untraced_s: float, pool_speedup: float) -> dict:
    lmmse = tracer.span("engine.lmmse_block")
    sweep = tracer.span("engine.hygec_sweep")
    nmse = tracer.span("oracle.nmse")
    return {
        "engine.lmmse_block.s": lmmse.total_s,
        "engine.lmmse_block.calls": lmmse.calls,
        "engine.lmmse_block.ms_p50": lmmse.p50_ms(),
        "engine.lmmse_block.share": lmmse.total_s / sweep.total_s if sweep.total_s else 0.0,
        "engine.hygec_sweep.s": sweep.total_s,
        "engine.hygec_sweep.self_s": sweep.self_s,
        "engine.sweeps": sweep.calls,
        "denoisers.channel_posterior.s": tracer.span("denoisers.channel_posterior").total_s,
        "denoisers.channel_posterior.calls": tracer.span("denoisers.channel_posterior").calls,
        "denoisers.extrinsic.s": tracer.span("denoisers.extrinsic").total_s,
        "denoisers.x_posterior_spike_slab.s": tracer.span("denoisers.x_posterior_spike_slab").total_s,
        "denoisers.llr_messages.s": tracer.span("denoisers.llr_messages").total_s,
        "em.outer_iterations": tracer.span("em.hygec_run").calls,
        "em.inner_sweeps": tracer.nested.get(("em.em_hygec_run", "engine.hygec_sweep"), 0),
        "em.em_update_rho.s": tracer.span("em.em_update_rho").total_s,
        "oracle.exact_posterior_small.s": tracer.span("oracle.exact_posterior_small").total_s,
        "oracle.nmse.s": nmse.total_s,
        "oracle.nmse.calls": nmse.calls,
        "bench.build_instance.s": tracer.span("bench.build_instance").total_s,
        "bench.pool_speedup": pool_speedup,
        "ensembles.gen_matrix.s": tracer.span("ensembles.gen_matrix").total_s,
        "ensembles.apply_channel.s": tracer.span("ensembles.apply_channel").total_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }


def traced_run(workload, inputs, seed: int, seconds: float, between):
    """Untraced pass, then a traced pass over the same inputs.

    Timers inside pool workers are lost, so a pooled workload is also run
    serially, untraced and traced; the serial untraced pass gives the pool
    speed-up.
    """
    from tracing import Tracer

    results = closed_loop(workload, inputs, seconds / 2, between)
    used = inputs[: len(results)]
    pool_speedup = 1.0
    if workload.pooled:
        serial = [workload.run_unit(item, threads=1) for item in used]
        untraced_s = sum(r.wall_s for r in serial)
        pool_speedup = untraced_s / sum(r.wall_s for r in results)
        run = functools.partial(workload.run_unit, threads=1)
    else:
        untraced_s = sum(r.wall_s for r in results)
        run = workload.run_unit
    tracer = Tracer()
    with tracer:
        workload.generate(seed, len(used))
        start = time.perf_counter()
        traced = [run(item) for item in used]
        traced_s = time.perf_counter() - start
    if workload.pooled:
        mismatch = _rows_differ(results, traced)
        workload.extra_checks.append(
            ("pool-matches-serial", not mismatch, mismatch or "pooled rows equal serial rows"))
    return results + traced, per_layer(tracer, traced_s, untraced_s, pool_speedup)


def _rows_differ(pooled, serial) -> str:
    def strip(results):
        return [{k: v for k, v in row.items() if k != "wall_ms"} for r in results for row in r.rows]

    a, b = strip(pooled), strip(serial)
    if a == b:
        return ""
    return f"{sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))} of {len(a)} rows differ"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hygec" / "__init__.py").is_file():
        print(f"perfbench: no hygec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    probe_env = dict(os.environ)  # as found, before the package is imported

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.smoke)

    facts = machine_facts()
    setup = SetupTimer(workload, args.seed, args.seconds, probe_env)
    inputs = setup.sample()
    if args.trace:
        results, layer = traced_run(workload, inputs, args.seed, args.seconds, setup.sample)
    else:
        results, layer = closed_loop(workload, inputs, args.seconds, setup.sample), None
    setup_s, facts["cholesky400_ms"] = setup.finish()
    report = end_to_end(workload, results, setup_s, facts["cholesky400_ms"])

    trials = [t for r in results for t in r.trials]
    checks = [(c.name, c.ok, c.detail) for c in workload.checks(trials)] + workload.extra_checks
    solves = [s for t in trials for s in t.solves]
    correct = all(ok for _, ok, _ in checks)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(facts))
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print("report " + json.dumps(
        {k: {"value": report[k], "unit": u} for k, u in REPORT_UNITS.items()}))
    if layer is None:
        metrics = {k: {"value": report[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(solves),
        "failed": sum(s.failed for s in solves),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
