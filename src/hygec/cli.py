"""Command-line entry points: scenario runner, instance generator, self-check."""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import bench
from .denoisers import x_posterior_spike_slab, z_posterior_awgn, z_posterior_cell
from .engine import HygecConfig, hygec_run
from .ensembles import (
    MatrixSpec,
    apply_channel,
    gen_group_sparse_signal,
    gen_matrix,
    snr_to_noise_var,
)
from .oracle import exact_posterior_small, quad_z_posterior
from .types import (
    NUMERICAL_FAILURE,
    Channel,
    GroupStructure,
    HygecError,
    InvalidParameter,
    ProblemInstance,
)


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:  # allow a leading minus sign
                lo, hi = part.rsplit("-", 1)
                seeds.extend(range(int(lo), int(hi) + 1))
            elif part:
                seeds.append(int(part))
        except ValueError as exc:
            raise InvalidParameter(f"bad seed list {text!r}: {exc}") from exc
    return tuple(seeds)


def _cmd_run(args) -> int:
    scenario = bench.Scenario.from_json(args.scenario)
    if args.seeds:
        scenario = dataclasses.replace(scenario, seeds=_parse_seeds(args.seeds))
    rows = bench.run_scenario(scenario, threads=args.threads)
    summary = bench.summarize(rows)
    if args.format == "csv":
        bench.write_csv(rows, args.out)
    else:
        bench.write_json(rows, summary, args.out)
    if args.out:
        for line in _summary_lines(summary):
            print(line)
    failures = sum(s["failures"] for s in summary)
    if failures and not args.allow_failures:
        print(f"{failures} trial(s) hit {NUMERICAL_FAILURE}", file=sys.stderr)
        return 1
    return 0


def _summary_lines(summary) -> list[str]:
    lines = []
    for s in summary:
        sweep = "-" if s["sweep_value"] is None else s["sweep_value"]
        med = "n/a" if s["median_nmse_db"] is None else f"{s['median_nmse_db']:.2f}"
        lines.append(
            f"sweep={sweep} alg={s['algorithm']} trials={s['trials']} "
            f"failures={s['failures']} median_nmse_db={med} "
            f"median_rho_est={s['median_rho_est']:.4f}"
        )
    return lines


def _cmd_gen(args) -> int:
    d = bench.load_json(args.spec)
    d.setdefault("name", "custom")
    d.setdefault("seeds", [args.seed])
    inst = bench.build_instance(bench.Scenario.from_dict(d), args.seed, None)
    bench.export_instance(inst, args.out, seed=args.seed)
    print(f"wrote {args.out} (m={inst.m}, n={inst.n}, k={inst.groups.k})")
    return 0


def _check_line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _cmd_check(args) -> int:
    ok = True
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(100):
        v = 10.0 ** rng.uniform(-4, 2)
        m = rng.uniform(-5, 5)
        nv = 10.0 ** rng.uniform(-3, 1)
        y = m + rng.standard_normal() * np.sqrt(v + nv)
        closed = z_posterior_awgn(y, m, v, nv)
        quad = quad_z_posterior(lambda z: np.exp(-((y - z) ** 2) / (2 * nv)), m, v)
        worst = max(worst, abs(float(closed.mean) - quad.mean), abs(float(closed.var) - quad.var))
    ok &= _check_line("linear-denoiser-vs-quadrature", worst < 1e-7, f"worst abs err {worst:.2e}")

    from scipy.special import ndtr

    worst = 0.0
    for _ in range(100):
        v = 10.0 ** rng.uniform(-3, 2)
        m = rng.uniform(-4, 4)
        nv = 10.0 ** rng.uniform(-3, 0)
        sig = np.sqrt(v + nv)
        lo = m + rng.uniform(-4, 3) * sig
        up = lo + rng.uniform(0.2, 4) * sig
        closed = z_posterior_cell(lo, up, m, v, nv)
        sw = np.sqrt(nv)
        quad = quad_z_posterior(lambda z: ndtr((up - z) / sw) - ndtr((lo - z) / sw), m, v)
        worst = max(worst, abs(float(closed.mean) - quad.mean), abs(float(closed.var) - quad.var))
    ok &= _check_line("quantized-denoiser-vs-quadrature", worst < 1e-7, f"worst abs err {worst:.2e}")

    from scipy.stats import norm

    worst = 0.0
    for _ in range(200):
        v = 10.0 ** rng.uniform(-4, 2)
        m = rng.uniform(-6, 6)
        rho = rng.uniform(0.02, 0.98)
        sx = 10.0 ** rng.uniform(-1, 1)
        (mean, var), pi = x_posterior_spike_slab(m, v, rho, sx)
        w_slab = rho * norm.pdf(0.0, m, np.sqrt(sx + v))
        w_spike = (1 - rho) * norm.pdf(0.0, m, np.sqrt(v))
        pi_ref = w_slab / (w_slab + w_spike)
        mu = m * sx / (sx + v)
        vv = sx * v / (sx + v)
        mean_ref = pi_ref * mu
        var_ref = pi_ref * (vv + mu * mu) - mean_ref**2
        worst = max(
            worst, abs(float(mean) - mean_ref), abs(float(var) - var_ref), abs(float(pi) - pi_ref)
        )
    ok &= _check_line("spike-slab-vs-two-branch", worst < 1e-10, f"worst abs err {worst:.2e}")

    sq_sum, count = 0.0, 0
    for seed in range(10):
        groups = GroupStructure.even(12, 6)
        H = gen_matrix(MatrixSpec("iid", 10, 12), np.random.default_rng([seed, 0]))
        x, xi = gen_group_sparse_signal(groups, 0.1, 1.0, np.random.default_rng([seed, 1]))
        channel = Channel.linear_awgn(snr_to_noise_var(H, 0.1, 1.0, 15.0))
        y = apply_channel(H, x, channel, np.random.default_rng([seed, 2]))
        inst = ProblemInstance(H, y, groups, channel, 1.0, x, xi, 0.1)
        _, _, _, x_pos, report = hygec_run(inst, 0.1, HygecConfig(v_max=1e4))
        x_ref, _, _ = exact_posterior_small(inst, 0.1, 1.0)
        sq_sum += float(np.sum((x_pos - x_ref) ** 2))
        count += inst.n
    rms = np.sqrt(sq_sum / count)
    ok &= _check_line("engine-vs-exact-enumeration", rms < 1e-2, f"pooled rms err {rms:.2e}")

    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hygec",
        description="Group-sparse recovery benchmarks: run scenarios, generate instances, self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and export results")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seeds", help="override seeds, e.g. '0-19' or '3,5,8'")
    p_run.add_argument("--out", help="output path (default: print to stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument(
        "--allow-failures", action="store_true",
        help="exit 0 even when trials end in numerical_failure",
    )
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate one instance file from a spec")
    p_gen.add_argument("spec", help="path to an instance spec JSON file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output .npz path")
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check", help="run the oracle parity self-check")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HygecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
