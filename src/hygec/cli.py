"""Command-line entry points: scenario runner, instance generator, self-check."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import bench
from .oracle import denoiser_parity, enumeration_parity
from .types import NUMERICAL_FAILURE, HygecError, InvalidParameter

MAX_SEEDS = 10**6  # the most seeds a --seeds list holds, checked before a range is built


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:  # allow a leading minus sign
                lo, hi = map(int, part.rsplit("-", 1))
                if hi < lo:  # an empty range, which would drop its seeds without a word
                    raise InvalidParameter(f"bad seed list {text!r}: {part!r} runs downward")
                if len(seeds) + hi - lo >= MAX_SEEDS:
                    raise InvalidParameter(f"bad seed list {text!r}: {part!r} would take the list "
                                           f"past {MAX_SEEDS} seeds")
                seeds.extend(range(lo, hi + 1))
            elif part:
                seeds.append(int(part))
            elif text.replace(",", "").strip():  # "0,,3" would drop a seed without a word
                raise InvalidParameter(f"bad seed list {text!r}: an empty item")
        except ValueError as exc:
            raise InvalidParameter(f"bad seed list {text!r}: {exc}") from exc
    return tuple(seeds)


def _cmd_run(args) -> int:
    scenario = bench.Scenario.from_json(args.scenario)
    if args.seeds is not None:
        scenario = dataclasses.replace(scenario, seeds=_parse_seeds(args.seeds))
    rows = bench.run_scenario(scenario)
    summary = bench.summarize(rows)
    if args.format == "csv":
        bench.write_csv(rows, args.out)
    else:
        bench.write_json(rows, summary, args.out)
    if args.out:
        for line in _summary_lines(summary):
            print(line)
    failures = sum(s["failures"] for s in summary)
    if failures:
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
    if extra := sorted(set(d) - set(bench.RECIPE)):  # fields that one draw would not read
        raise InvalidParameter(f"gen draws at --seed; a spec takes no {', '.join(extra)}")
    scenario = bench.Scenario.from_dict({"name": "custom", **d, "seeds": [args.seed]})
    inst = bench.build_instance(scenario, args.seed, None)
    bench.export_instance(inst, args.out, seed=args.seed)
    print(f"wrote {args.out} (m={inst.m}, n={inst.n}, k={inst.groups.k})")
    return 0


def _check_line(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _cmd_check(args) -> int:
    # acceptance criteria 1 and 2, under their own bounds, at 100 draws and 10 seeds
    lin_mean, lin_var, q_mean, q_var, ss_worst = denoiser_parity(100)
    rms, worst, mae, nonconv = enumeration_parity(range(10))
    ok = [
        _check_line("linear-denoiser-vs-quadrature", lin_mean < 1e-7 and lin_var < 1e-6,
                    f"mean {lin_mean:.2e} var {lin_var:.2e}"),
        _check_line("quantized-denoiser-vs-quadrature", q_mean < 1e-7 and q_var < 1e-6,
                    f"mean {q_mean:.2e} var {q_var:.2e}"),
        _check_line("spike-slab-vs-two-branch", ss_worst < 1e-10, f"worst err {ss_worst:.2e}"),
        _check_line("engine-vs-exact-enumeration", nonconv == 0 and rms < 1e-2 and mae < 5e-2,
                    f"pooled rms {rms:.2e} (worst seed {worst:.2e}), activity mae {mae:.2e}, "
                    f"nonconverged {nonconv}/10"),
    ]
    return 0 if all(ok) else 1


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
        # refused before any draw or trial, whose work would be thrown away, and no file is made
        if (out := getattr(args, "out", None)) is not None:
            directory, name = os.path.split(out)
            if not name or os.path.isdir(out) or not os.path.isdir(directory or "."):
                raise InvalidParameter(f"--out {out!r} is not a file in an existing directory")
        return args.func(args)
    except HygecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
