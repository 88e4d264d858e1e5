"""Scenario runner: builds seeded instances, runs the selected algorithms over
parameter sweeps, and serializes results and instances."""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .em import EmConfig, em_hygec_run
from .engine import HygecConfig, hygec_run
from .ensembles import (
    MatrixSpec,
    apply_channel,
    default_clip_range,
    gen_group_sparse_signal,
    gen_matrix,
    snr_ratio,
    snr_to_noise_var,
)
from .types import (
    Channel,
    GroupStructure,
    HygecError,
    InvalidParameter,
    NUMERICAL_FAILURE,
    ProblemInstance,
    _check_numbers,
)

ALGORITHMS = ("hygec-known-rho", "em-hygec")
SWEEP_PARAMS = (None, "kappa", "mean")
# the fields that build_instance and Scenario.matrix_at read at no sweep point
RECIPE = ("m", "n", "k", "rho", "snr_db", "bits")
SIGMA_X_SQ = 1.0  # every draw's slab variance: with snr_db setting the noise, it is the unit
# the clip range 3 sqrt(rho ||H + mean||^2 / m + noise_var) stays finite: ||H + mean||^2 <=
# 2||H||^2 + 2mn mean^2 < 1e220 for any m*n numpy can index (< 2**63), and noise_var,
# calibrated on the zero-mean base, is at most about n * 1e30
MEAN_MAX = 1e100

CSV_COLUMNS = (
    "scenario", "seed", "sweep_value", "algorithm", "iteration",
    "nmse_db", "rho_est", "terminated", "wall_ms",
)

SCHEMA_VERSION = 1
# the members an archive of this schema may hold: the fields that `_entries` spreads
# out, plus the names it renames or adds
_ARCHIVE_MEMBERS = {f.name for cls in (ProblemInstance, Channel) for f in fields(cls)} | {
    "schema_version", "seed", "channel_kind", "group_sizes"}

# substream roles, so a sweep reuses the same randomness at every sweep point
_ROLE_MATRIX = 0
_ROLE_SIGNAL = 1
_ROLE_NOISE = 2


class IoError(HygecError):
    pass


@dataclass(frozen=True)
class Scenario:
    name: str
    m: int
    n: int
    k: int
    rho: float
    snr_db: float
    seeds: tuple[int, ...]
    algorithms: tuple[str, ...] = ("hygec-known-rho",)
    bits: int | None = None  # None: plain linear-noise channel
    sweep_param: str | None = None  # kappa: a conditioned matrix; mean: a shifted i.i.d. one
    sweep_values: tuple[float, ...] = ()
    rho_init: float = 0.01
    engine: HygecConfig = field(default_factory=HygecConfig)
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        _check_numbers(self)
        if any(seed < 0 for seed in self.seeds):
            raise InvalidParameter(f"seeds must be nonnegative, not {self.seeds!r}")
        for name in ("seeds", "algorithms", "sweep_values"):  # a trial run twice, counted once
            if len(set(values := getattr(self, name))) < len(values):
                raise InvalidParameter(f"{name} must not repeat, not {values!r}")
        if not isinstance(name := self.name, str) or set(name) & set(',"\n\r'):  # one CSV cell
            raise InvalidParameter(f"name must be a string with no comma, quote or newline, not {name!r}")
        if not self.seeds:
            raise InvalidParameter("scenario needs at least one seed")
        if not self.algorithms:
            raise InvalidParameter("scenario needs at least one algorithm")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise InvalidParameter(f"unknown algorithm {alg!r}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise InvalidParameter(f"unknown sweep parameter {self.sweep_param!r}")
        for name in ("rho", "rho_init"):  # rho_init too, though only em-hygec reads it
            if not 0 < getattr(self, name) < 1:
                raise InvalidParameter(f"{name} must lie in (0, 1)")
        snr_ratio(self.snr_db)  # the noise calibration's divisor, refused here before any draw
        if self.bits is not None and not 1 <= self.bits <= 16:
            raise InvalidParameter("quantized channel needs 1 <= bits <= 16")
        # options that build_instance would otherwise drop without a word
        if self.sweep_values and self.sweep_param is None:
            raise InvalidParameter("sweep_values needs a sweep_param")
        if self.sweep_param is not None and not self.sweep_values:  # it would run no trial
            raise InvalidParameter(f"sweep_param {self.sweep_param!r} needs sweep_values")
        for value in self.sweep_values or (None,):  # each point's matrix, before any trial
            self.matrix_at(value)
        GroupStructure.even(self.n, self.k)  # after the matrix, so a bad m or n is named first

    def matrix_at(self, sweep_value: float | None) -> tuple[MatrixSpec, float]:
        """The matrix a trial draws at one of the scenario's points (None: no sweep; any
        other is refused): its `MatrixSpec`, which checks the shape and kappa, and the mean."""
        if sweep_value not in (points := self.sweep_values or (None,)):
            raise InvalidParameter(f"sweep value {sweep_value!r} is not one of the points {points}")
        if self.sweep_param == "kappa":
            return MatrixSpec("conditioned", self.m, self.n, float(sweep_value)), 0.0
        mean = float(sweep_value) if self.sweep_param == "mean" else 0.0
        if not -MEAN_MAX <= mean <= MEAN_MAX:
            raise InvalidParameter(f"mean must lie in [{-MEAN_MAX:g}, {MEAN_MAX:g}], not {mean!r}")
        return MatrixSpec("iid", self.m, self.n), mean

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        d = dict(d)
        # a file writes the problem and its trials; the engine and em configs are set in Python
        written = {f.name for f in fields(Scenario) if not is_dataclass(f.default_factory)}
        if unknown := set(d) - written:
            raise InvalidParameter(f"unknown scenario fields: {sorted(unknown)}")
        try:
            for f in (f for f in fields(Scenario) if f.name in d and f.type.startswith("tuple[")):
                if not isinstance(value := d[f.name], (list, tuple)):  # tuple() splits a string
                    raise InvalidParameter(f"{f.name} must be a list, not {value!r}")
                d[f.name] = tuple(value)
            return Scenario(**d)
        except TypeError as exc:  # a missing field, or a value of the wrong type
            raise InvalidParameter(f"malformed scenario: {exc}") from exc

    @staticmethod
    def from_json(path: str) -> "Scenario":
        return Scenario.from_dict(load_json(path))


def _unique_keys(pairs: list) -> dict:
    # json.load alone keeps the last copy of a repeated key without a word
    keys = [key for key, _ in pairs]
    if repeated := sorted({key for key in keys if keys.count(key) > 1}):
        raise InvalidParameter(f"repeated key(s) {', '.join(repeated)}")
    return dict(pairs)


def load_json(path: str) -> dict:
    """The JSON object in a scenario or instance-spec file."""
    try:
        with _open(path, "r") as fh:
            d = json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, non-text bytes, deep nesting
        raise InvalidParameter(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise InvalidParameter(f"{path}: expected a JSON object, found {type(d).__name__}")
    return d


def build_instance(scenario: Scenario, seed: int, sweep_value: float | None) -> ProblemInstance:
    """Draw the trial instance for one (seed, sweep point), with the matrix that
    `Scenario.matrix_at` resolves for that point.

    Randomness is split into fixed substreams (matrix/signal/noise) keyed only
    by the seed, so every sweep point sees the same underlying draws. On the
    mean sweep the noise level is calibrated on the zero-mean base matrix, so
    changing the mean changes only the matrix, not the noise."""
    return draw_instance(scenario, sweep_value, *(
        np.random.default_rng([seed, role]) for role in (_ROLE_MATRIX, _ROLE_SIGNAL, _ROLE_NOISE)))


def draw_instance(scenario: Scenario, sweep_value: float | None, rng_matrix: np.random.Generator,
                  rng_signal: np.random.Generator, rng_noise: np.random.Generator) -> ProblemInstance:
    """The instance recipe: draw the matrix, the signal and the noise, in that order, from
    the three generators. One generator passed three times draws from a single stream."""
    spec, mean = scenario.matrix_at(sweep_value)
    H = gen_matrix(spec, rng_matrix)
    noise_var = snr_to_noise_var(H, scenario.rho, SIGMA_X_SQ, scenario.snr_db)
    if mean != 0.0:  # only an iid matrix takes a mean; shift the base in place
        H += mean

    groups = GroupStructure.even(scenario.n, scenario.k)
    x, xi = gen_group_sparse_signal(groups, scenario.rho, SIGMA_X_SQ, rng_signal)

    if scenario.bits is None:
        channel = Channel.linear_awgn(noise_var)
    else:
        clip = default_clip_range(H, scenario.rho, SIGMA_X_SQ, noise_var)
        channel = Channel.quantized(noise_var, scenario.bits, clip)

    y = apply_channel(H, x, channel, rng_noise)
    return ProblemInstance(
        H=H, y=y, groups=groups, channel=channel, sigma_x_sq=SIGMA_X_SQ,
        x_true=x, xi_true=xi, true_rho=scenario.rho,
    )


def run_trial(scenario: Scenario, seed: int, sweep_value: float | None, algorithm: str) -> list[dict]:
    inst = build_instance(scenario, seed, sweep_value)
    start = time.perf_counter()
    if algorithm == "hygec-known-rho":
        _, _, _, x_pos, report = hygec_run(inst, scenario.rho, scenario.engine)
    else:
        x_pos, _, report = em_hygec_run(inst, scenario.rho_init, scenario.engine, scenario.em)
    wall_ms = (time.perf_counter() - start) * 1e3

    # the rate of each outer stage, once per sweep of that stage; a trial
    # whose first sweep already failed still gets one row
    rho_per_iter = [
        rho for rho, count in zip(report.rho_trace, report.inner_counts) for _ in range(count)
    ] or [report.rho_trace[-1]]
    trace = report.nmse_trace
    return [
        {
            "scenario": scenario.name,
            "seed": seed,
            "sweep_value": sweep_value,
            "algorithm": algorithm,
            "iteration": i + 1,
            "nmse_db": trace[i] if i < len(trace) else None,
            "rho_est": rho,
            "terminated": report.termination,
            "wall_ms": wall_ms,
            "failure": report.failure,  # JSON output only; not a CSV column
            "rho_final": report.rho_trace[-1],  # the returned or known rate; JSON only
        }
        for i, rho in enumerate(rho_per_iter)
    ]


def _trial_args(scenario: Scenario):
    for value in scenario.sweep_values or (None,):
        for algorithm in scenario.algorithms:
            for seed in scenario.seeds:
                yield (scenario, seed, value, algorithm)


def run_scenario(scenario: Scenario, threads: int = 1) -> list[dict]:
    """All trials of a scenario, serially or in a process pool.

    Row order is fixed (sweep value, then algorithm, then seed, then iteration)
    regardless of thread count.
    """
    if threads < 1:
        raise InvalidParameter(f"threads must be at least 1, not {threads}")
    args = list(_trial_args(scenario))
    # a fork pool starts all its workers at the first submit: no more than trials or cores
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(args), cores or 1)
    if workers <= 1:
        batches = [run_trial(*a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_trial, *zip(*args)))
    return [row for batch in batches for row in batch]


def final_rows(rows: list[dict]) -> list[dict]:
    """Last-iteration row of each trial."""
    best: dict[tuple, dict] = {}
    for row in rows:
        key = (row["scenario"], row["seed"], row["sweep_value"], row["algorithm"])
        if key not in best or row["iteration"] > best[key]["iteration"]:
            best[key] = row
    return list(best.values())


def summarize(rows: list[dict]) -> list[dict]:
    """Median/mean of the final NMSE per (sweep value, algorithm), aggregated in
    the linear domain before conversion to dB."""
    groups: dict[tuple, list[dict]] = {}
    for row in final_rows(rows):
        groups.setdefault((row["sweep_value"], row["algorithm"]), []).append(row)
    summary = []
    for (sweep_value, algorithm), members in sorted(
        groups.items(), key=lambda kv: (_sort_key(kv[0][0]), kv[0][1])
    ):
        linear = [10.0 ** (r["nmse_db"] / 10.0) for r in members if r["nmse_db"] is not None]
        failures = sum(1 for r in members if r["terminated"] == NUMERICAL_FAILURE)
        summary.append({
            "sweep_value": sweep_value,
            "algorithm": algorithm,
            "trials": len(members),
            "failures": failures,
            "median_nmse_db": 10.0 * np.log10(np.median(linear)) if linear else None,
            "mean_nmse_db": 10.0 * np.log10(np.mean(linear)) if linear else None,
            "median_rho_est": float(np.median([r["rho_est"] for r in members])),
        })
    return summary


def _sort_key(value):
    return (0, 0.0) if value is None else (1, float(value))


def _format_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


@contextmanager
def _open(path: str | None, mode: str = "w"):
    # the file at path opened in mode, or stdout for None: the package opens every file here
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise IoError(str(exc)) from exc


def write_csv(rows: list[dict], path: str | None) -> None:
    with _open(path) as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def write_json(rows: list[dict], summary: list[dict], path: str | None) -> None:
    with _open(path) as fh:
        json.dump({"rows": rows, "summary": summary}, fh, indent=1)
        fh.write("\n")


def _entries(obj) -> dict:
    """The fields of a dataclass that are not None, by name, with each dataclass
    it holds spread into its own fields: the members of an instance archive.
    `Channel.kind` keeps its schema-1 name `channel_kind`, and a `float` field
    is written as float64 even when it holds a whole number."""
    entries = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            entries.update(_entries(value))
        elif value is not None:
            name = "channel_kind" if f.name == "kind" else f.name
            entries[name] = np.float64(value) if f.type.startswith("float") else value
    return entries


def export_instance(inst: ProblemInstance, path: str, seed: int | None = None) -> None:
    """Lossless npz dump of an instance (see `_entries`), tagged with a schema
    version and, if given, the seed it was drawn from.

    Writes to `path` as given: np.savez would add ".npz" to a bare name."""
    payload = {"schema_version": SCHEMA_VERSION, **_entries(inst)}
    if seed is not None:
        if not -2**63 <= seed < 2**64:  # np.savez would pickle it, which no load reads
            raise InvalidParameter(f"seed must fit in 64 bits, not {seed}")
        payload["seed"] = seed
    with _open(path, "wb") as fh:
        np.savez(fh, **payload)


def _entry(data: dict, name: str, read=np.ndarray.item):
    # the archive entry `name` as `read` takes it; one missing or unfit is refused by name
    try:
        return read(data[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{name!r} ({exc!r})") from exc


def _from_entries(cls, data: dict, **given):
    """A dataclass from the archive entries named after its fields, and `given`.
    An entry for a field not annotated as an array is read as a scalar."""
    for f in fields(cls):
        if f.name not in given and (f.name in data or f.default is MISSING):
            array = "ndarray" in f.type
            given[f.name] = _entry(data, f.name, np.asarray if array else np.ndarray.item)
    return cls(**given)


def import_instance(path: str) -> ProblemInstance:
    try:
        # opened here so the file is closed even when np.load fails on a truncated archive
        with _open(path, "rb") as fh, np.load(fh) as archive:
            data = {key: archive[key] for key in archive.files}
    except IoError:
        raise
    except Exception as exc:  # zipfile, zlib and numpy each have their own errors for bad bytes
        raise InvalidParameter(f"{path}: not an instance file ({exc})") from exc
    try:
        if "schema_version" not in data or _entry(data, "schema_version") != SCHEMA_VERSION:
            raise InvalidParameter(f"expected schema version {SCHEMA_VERSION}")
        unknown = sorted(set(data) - _ARCHIVE_MEMBERS)
        if unknown:  # a misspelt member would otherwise load as a missing optional field
            raise InvalidParameter(f"{path}: unknown member(s) {', '.join(unknown)}")
        groups = GroupStructure(_entry(data, "group_sizes",
                                       lambda a: a.astype(np.int64, casting="safe")))
        channel = _from_entries(Channel, data, kind=_entry(data, "channel_kind"))
        return _from_entries(ProblemInstance, data, groups=groups, channel=channel)
    except (KeyError, TypeError, ValueError) as exc:  # a field missing or malformed
        raise InvalidParameter(f"{path}: missing or malformed field: {exc}") from exc
