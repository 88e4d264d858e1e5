"""Scenario runner: builds seeded instances, runs the selected algorithms over
parameter sweeps, and serializes results and instances. Also holds the
engine's exhaustive-enumeration parity check, which needs both the engine and
the oracle."""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .denoisers import indicator_beliefs
from .em import EmConfig, em_hygec_run
from .engine import HygecConfig, hygec_run
from .ensembles import (
    MatrixSpec,
    apply_channel,
    default_clip_range,
    gen_group_sparse_signal,
    gen_matrix,
    snr_to_noise_var,
)
from .oracle import exact_posterior_small
from .types import (
    CONVERGED,
    Channel,
    GroupStructure,
    HygecError,
    InvalidParameter,
    NUMERICAL_FAILURE,
    ProblemInstance,
)

SCENARIO_NAMES = ("iteration-trace", "condition-sweep", "mean-sweep", "rho-learning", "custom")
ALGORITHMS = ("hygec-known-rho", "em-hygec")
SWEEP_PARAMS = (None, "kappa", "mean")

CSV_COLUMNS = (
    "scenario", "seed", "sweep_value", "algorithm", "iteration",
    "nmse_db", "rho_est", "terminated", "wall_ms",
)

SCHEMA_VERSION = 1

# substream roles, so a sweep reuses the same randomness at every sweep point
_ROLE_MATRIX = 0
_ROLE_SIGNAL = 1
_ROLE_NOISE = 2


class SchemaMismatch(HygecError):
    pass


class IoError(HygecError):
    pass


def _require(name: str, values, kind, what: str) -> None:
    # bool subclasses int, but true is no count, seed or rate; JSON also
    # reads NaN and Infinity, which no field takes
    bad = [v for v in values
           if isinstance(v, bool) or not isinstance(v, kind) or not -math.inf < v < math.inf]
    if bad:
        raise InvalidParameter(f"{name} must be {what}, not {bad[0]!r}")


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
    matrix_kind: str = "iid"
    matrix_mean: float = 0.0
    kappa: float = 1.0
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] = ()
    sigma_x_sq: float = 1.0
    rho_init: float = 0.01
    engine: HygecConfig = field(default_factory=HygecConfig)
    em: EmConfig = field(default_factory=EmConfig)

    def __post_init__(self):
        # a JSON file may hold any type; a wrong one would fail deep in a run or be truncated
        for name in ("m", "n", "k"):
            _require(name, [getattr(self, name)], numbers.Integral, "an integer")
        for name in ("rho", "snr_db", "sigma_x_sq", "rho_init", "matrix_mean", "kappa"):
            _require(name, [getattr(self, name)], numbers.Real, "a finite real number")
        _require("bits", [] if self.bits is None else [self.bits], numbers.Integral, "an integer")
        _require("seeds", self.seeds, numbers.Integral, "integers")
        _require("sweep_values", self.sweep_values, numbers.Real, "finite real numbers")
        for block, cfg in (("engine", self.engine), ("em", self.em)):
            for f in fields(cfg):
                integral = f.type == "int"  # the config modules keep annotations as strings
                _require(f"{block}.{f.name}", [getattr(cfg, f.name)],
                         numbers.Integral if integral else numbers.Real,
                         "an integer" if integral else "a finite real number")
        if any(seed < 0 for seed in self.seeds):
            raise InvalidParameter(f"seeds must be nonnegative, not {self.seeds!r}")
        if self.name not in SCENARIO_NAMES:
            raise InvalidParameter(f"unknown scenario name {self.name!r}")
        if not self.seeds:
            raise InvalidParameter("scenario needs at least one seed")
        if not self.algorithms:
            raise InvalidParameter("scenario needs at least one algorithm")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise InvalidParameter(f"unknown algorithm {alg!r}")
        if self.sweep_param not in SWEEP_PARAMS:
            raise InvalidParameter(f"unknown sweep parameter {self.sweep_param!r}")
        if self.m < 1 or self.n < self.m or self.k < 1 or self.k > self.n:
            raise InvalidParameter("need 1 <= m <= n and 1 <= k <= n")
        if not 0 < self.rho < 1:
            raise InvalidParameter("rho must lie in (0, 1)")
        # options that build_instance would otherwise drop without a word
        if self.sweep_values and self.sweep_param is None:
            raise InvalidParameter("sweep_values needs a sweep_param")
        if self.matrix_kind not in ("iid", "conditioned"):
            raise InvalidParameter(f"unknown matrix kind {self.matrix_kind!r}")
        if self.conditioned and (self.sweep_param == "mean" or self.matrix_mean != 0.0):
            raise InvalidParameter("a conditioned matrix takes no matrix mean")
        if not self.conditioned and self.kappa != 1.0:
            raise InvalidParameter("kappa needs matrix_kind 'conditioned' or a kappa sweep")
        # a sweep sets its own parameter at every point
        if self.sweep_param == "kappa" and self.kappa != 1.0:
            raise InvalidParameter("a kappa sweep sets kappa at every point; drop kappa")
        if self.sweep_param == "mean" and self.matrix_mean != 0.0:
            raise InvalidParameter("a mean sweep sets matrix_mean at every point; drop matrix_mean")

    @property
    def conditioned(self) -> bool:
        """Whether the matrix is drawn conditioned; a kappa sweep implies it."""
        return self.matrix_kind == "conditioned" or self.sweep_param == "kappa"

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(Scenario)}
        if unknown:
            raise InvalidParameter(f"unknown scenario fields: {sorted(unknown)}")
        try:
            engine = HygecConfig(**d.pop("engine", {}))
            em = EmConfig(**d.pop("em", {}))
            for key in ("seeds", "algorithms", "sweep_values"):
                if key in d:
                    d[key] = tuple(d[key])
            return Scenario(engine=engine, em=em, **d)
        except TypeError as exc:  # a missing field, or a value of the wrong type
            raise InvalidParameter(f"malformed scenario: {exc}") from exc

    @staticmethod
    def from_json(path: str) -> "Scenario":
        return Scenario.from_dict(load_json(path))


def load_json(path: str) -> dict:
    """The JSON object in a scenario or instance-spec file."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise SchemaMismatch(f"{path}: expected a JSON object, found {type(d).__name__}")
    return d


def build_instance(scenario: Scenario, seed: int, sweep_value: float | None) -> ProblemInstance:
    """Generate the trial instance for one (seed, sweep point).

    Randomness is split into fixed substreams (matrix/signal/noise) keyed only
    by the seed, so every sweep point sees the same underlying draws. On the
    mean sweep the noise level is calibrated on the zero-mean base matrix, so
    changing the mean changes only the matrix, not the noise.
    """
    kappa = scenario.kappa
    mean = scenario.matrix_mean
    if scenario.sweep_param == "kappa" and sweep_value is not None:
        kappa = float(sweep_value)
    if scenario.sweep_param == "mean" and sweep_value is not None:
        mean = float(sweep_value)

    rng_matrix = np.random.default_rng([seed, _ROLE_MATRIX])
    rng_signal = np.random.default_rng([seed, _ROLE_SIGNAL])
    rng_noise = np.random.default_rng([seed, _ROLE_NOISE])

    if scenario.conditioned:
        spec = MatrixSpec("conditioned", scenario.m, scenario.n, kappa=kappa)
    else:
        spec = MatrixSpec("iid", scenario.m, scenario.n)
    H = gen_matrix(spec, rng_matrix)
    noise_var = snr_to_noise_var(H, scenario.rho, scenario.sigma_x_sq, scenario.snr_db)
    if mean != 0.0:  # only an iid matrix takes a mean; shift the base in place
        H += mean

    groups = GroupStructure.even(scenario.n, scenario.k)
    x, xi = gen_group_sparse_signal(groups, scenario.rho, scenario.sigma_x_sq, rng_signal)

    if scenario.bits is None:
        channel = Channel.linear_awgn(noise_var)
    else:
        clip = default_clip_range(H, scenario.rho, scenario.sigma_x_sq, noise_var)
        channel = Channel.quantized(noise_var, scenario.bits, clip)

    y = apply_channel(H, x, channel, rng_noise)
    return ProblemInstance(
        H=H, y=y, groups=groups, channel=channel, sigma_x_sq=scenario.sigma_x_sq,
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
        }
        for i, rho in enumerate(rho_per_iter)
    ]


def _trial_args(scenario: Scenario):
    sweep = list(scenario.sweep_values) if scenario.sweep_param else [None]
    for value in sweep:
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
    # a fork pool starts all its workers at the first submit: no more than trials
    workers = min(threads, len(args))
    if workers <= 1:
        batches = [run_trial(*a) for a in args]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_trial, *zip(*args)))
    return [row for batch in batches for row in batch]


def enumeration_parity(seeds) -> tuple[float, float, float, int]:
    """The engine against exhaustive enumeration on one tiny instance per seed.

    Each instance (m=10, n=12, six groups of two, rate 0.1, 15 dB) is drawn
    from the single stream `default_rng(seed)`. Returns the pooled RMS error
    of the converged posterior means, the worst per-seed RMS, the mean
    absolute error of the group activities, and the number of seeds whose
    run did not converge (left out of the three errors).
    """
    rho, sigma_x_sq = 0.1, 1.0
    # tiny instances rail extrinsic variances at the default ceiling;
    # a lower ceiling keeps the sweep inside its contraction region
    cfg = HygecConfig(v_max=1e4)
    se_sum = mae_sum = worst = 0.0
    n_el = n_grp = nonconv = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        groups = GroupStructure.even(12, 6)
        H = gen_matrix(MatrixSpec("iid", 10, 12), rng)
        x, xi = gen_group_sparse_signal(groups, rho, sigma_x_sq, rng)
        noise_var = snr_to_noise_var(H, rho, sigma_x_sq, 15.0)
        channel = Channel.linear_awgn(noise_var)
        y = apply_channel(H, x, channel, rng)
        inst = ProblemInstance(H, y, groups, channel, sigma_x_sq, x, xi, rho)
        m_x_lik, v_x_lik, _, x_pos, report = hygec_run(inst, rho, cfg)
        if report.termination != CONVERGED:
            nonconv += 1
            continue
        x_ref, _, xi_ref = exact_posterior_small(inst, rho, sigma_x_sq)
        se_sum += float(np.sum((x_pos - x_ref) ** 2))
        n_el += inst.n
        beliefs = indicator_beliefs(m_x_lik, v_x_lik, rho, sigma_x_sq, groups)
        mae_sum += float(np.sum(np.abs(beliefs - xi_ref)))
        n_grp += groups.k
        worst = max(worst, float(np.sqrt(np.mean((x_pos - x_ref) ** 2))))
    return float(np.sqrt(se_sum / n_el)), worst, mae_sum / n_grp, nonconv


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
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _output(path: str | None):
    # the file at path, or stdout when no path is given
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise IoError(str(exc)) from exc


def write_csv(rows: list[dict], path: str | None) -> None:
    with _output(path) as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def write_json(rows: list[dict], summary: list[dict], path: str | None) -> None:
    with _output(path) as fh:
        json.dump({"rows": rows, "summary": summary}, fh, indent=1)
        fh.write("\n")


def export_instance(inst: ProblemInstance, path: str, seed: int | None = None) -> None:
    """Lossless npz dump of an instance, tagged with a schema version.

    Writes to `path` as given: np.savez would add ".npz" to a bare name."""
    payload = {
        "schema_version": np.int64(SCHEMA_VERSION),
        "H": inst.H,
        "y": inst.y,
        "group_sizes": np.asarray(inst.groups.group_sizes, dtype=np.int64),
        "channel_kind": np.array(inst.channel.kind),
        "noise_var": np.float64(inst.channel.noise_var),
        "sigma_x_sq": np.float64(inst.sigma_x_sq),
    }
    if inst.channel.kind == "quantized":
        payload["bits"] = np.int64(inst.channel.bits)
        payload["clip_range"] = np.float64(inst.channel.clip_range)
    if inst.x_true is not None:
        payload["x_true"] = inst.x_true
    if inst.xi_true is not None:
        payload["xi_true"] = np.asarray(inst.xi_true, dtype=np.int64)
    if inst.true_rho is not None:
        payload["true_rho"] = np.float64(inst.true_rho)
    if seed is not None:
        payload["seed"] = np.int64(seed)
    try:
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def import_instance(path: str) -> ProblemInstance:
    try:
        # opened here so the file is closed even when np.load fails on a truncated archive
        with open(path, "rb") as fh, np.load(fh) as archive:
            data = {key: archive[key] for key in archive.files}
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except Exception as exc:  # zipfile, zlib and numpy each have their own errors for bad bytes
        raise SchemaMismatch(f"{path}: not an instance file ({exc})") from exc
    try:
        if "schema_version" not in data or int(data["schema_version"]) != SCHEMA_VERSION:
            raise SchemaMismatch(f"expected schema version {SCHEMA_VERSION}")
        kind = data["channel_kind"].item()
        if kind == "quantized":
            channel = Channel.quantized(data["noise_var"], data["bits"], data["clip_range"])
        else:
            channel = Channel(kind, float(data["noise_var"]))
        return ProblemInstance(
            H=data["H"],
            y=data["y"],
            groups=GroupStructure(data["group_sizes"].astype(np.int64, casting="safe")),
            channel=channel,
            sigma_x_sq=float(data["sigma_x_sq"]),
            x_true=data.get("x_true"),
            xi_true=data.get("xi_true"),
            true_rho=float(data["true_rho"]) if "true_rho" in data else None,
        )
    except (KeyError, TypeError, ValueError) as exc:  # a field missing or malformed
        raise SchemaMismatch(f"{path}: missing or malformed field: {exc!r}") from exc
