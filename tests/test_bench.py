import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import hygec
from hygec.bench import (
    CSV_COLUMNS,
    RECIPE,
    IoError,
    Scenario,
    build_instance,
    export_instance,
    final_rows,
    import_instance,
    run_scenario,
    run_trial,
    summarize,
    write_csv,
    write_json,
    _entries,
)
from hygec.em import EmConfig, em_hygec_run
from hygec.engine import HygecConfig
from hygec.ensembles import MatrixSpec
from hygec.types import (
    CONVERGED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    Channel,
    GecState,
    GroupStructure,
    HygecError,
    InvalidParameter,
    ProblemInstance,
    RecoveryReport,
)


def _scenario(**overrides):
    base = dict(
        name="iteration-trace",
        m=20,
        n=30,
        k=6,
        rho=0.2,
        snr_db=15.0,
        seeds=(0,),
    )
    base.update(overrides)
    return Scenario(**base)


def test_scenario_validation():
    _scenario()  # baseline is valid
    _scenario(sweep_param="kappa", sweep_values=(10.0,))  # a one-point sweep sets one kappa
    _scenario(sweep_param="kappa", sweep_values=(1.0, 10.0))
    assert _scenario(name="made-up").name == "made-up"  # any string that fits one CSV cell is a label
    for bad in (
        dict(seeds=()),
        dict(algorithms=()),
        dict(algorithms=("gradient-descent",)),
        dict(sweep_param="snr"),
        dict(m=0),
        dict(m=40),  # m > n
        dict(k=31),
        dict(rho=0.0),
        # options build_instance would drop without a word
        dict(sweep_values=(1.0, 10.0)),  # no sweep_param
        dict(sweep_param="kappa"),  # no sweep_values: no trial would run
        dict(sweep_param="mean"),
        # values of the wrong type, as a JSON file can hold them
        dict(name=["x"]),
        dict(name=5),
        dict(name=None),
        dict(name="a,b"),  # the name is one unquoted CSV cell
        dict(seeds="ab"),
        dict(seeds=(0.5,)),
        dict(seeds=(-1,)),
        dict(m=4.5),
        dict(m=True),
        dict(snr_db="10"),
        dict(sweep_param="mean", sweep_values=("x",)),
        dict(bits=2.5),
        # refused at load, though a later layer owns the rule
        dict(sweep_param="kappa", sweep_values=(0.5,)),
        dict(sweep_param="kappa", sweep_values=(1.0, 10.0, 0.5)),  # the last point
        dict(m=1, sweep_param="kappa", sweep_values=(2.0,)),
        dict(bits=0),
        dict(bits=20),
        dict(rho_init=5.0),  # with only hygec-known-rho, which never reads it
    ):
        with pytest.raises(InvalidParameter):
            _scenario(**bad)
    # JSON reads NaN and Infinity as floats; each must be refused by name
    for name, bad in (
        ("snr_db", dict(snr_db=-float("inf"))),
        ("rho", dict(rho=float("nan"))),
        ("rho_init", dict(rho_init=float("nan"))),
        ("sweep_values", dict(sweep_param="kappa", sweep_values=(float("inf"),))),
        ("sweep_values", dict(sweep_param="mean", sweep_values=(0.0, float("nan")))),
    ):
        with pytest.raises(InvalidParameter, match=name):
            _scenario(**bad)


# a valid example of each input dataclass, which the tests below vary one field at a time
_EXAMPLES = {
    Scenario: lambda: _scenario(bits=2),
    HygecConfig: HygecConfig,
    EmConfig: EmConfig,
    GroupStructure: lambda: GroupStructure((2, 1)),
    Channel: lambda: Channel.quantized(0.1, 2, 1.0),
    MatrixSpec: lambda: MatrixSpec("conditioned", 2, 4, 10.0),
    ProblemInstance: lambda: build_instance(_scenario(), 7, None),
}


def _is_number_field(f) -> bool:
    """Whether a field is annotated int, float, X | None or tuple[X, ...] of those."""
    return re.fullmatch(r"(tuple\[)?(int|float)(, \.\.\.\])?( \| None)?", f.type) is not None


# each number field of each input dataclass: a new field is covered without
# editing this list
_NUMBER_FIELDS = [
    (cls, f)
    for cls in (Scenario, HygecConfig, EmConfig, GroupStructure, Channel, MatrixSpec,
                ProblemInstance)
    for f in dataclasses.fields(cls)
    if _is_number_field(f)
]
_INT_FIELDS = [(cls, f) for cls, f in _NUMBER_FIELDS if "int" in f.type]


def _field_id(cls, f) -> str:
    return f.name if cls is Scenario else f"{cls.__name__}.{f.name}"


def _with_value(cls, name, value):
    """`cls`'s valid example with field `name` set to `value`."""
    return dataclasses.replace(_EXAMPLES[cls](), **{name: value})


@pytest.mark.parametrize("bad", [True, math.nan, "1", math.inf, -math.inf],
                         ids=["true", "nan", "text", "inf", "minus_inf"])
@pytest.mark.parametrize("cls, f", _NUMBER_FIELDS, ids=[_field_id(*p) for p in _NUMBER_FIELDS])
def test_scenario_refuses_a_wrong_typed_number_by_name(cls, f, bad):
    # every number field of every input dataclass refuses the value by name before
    # any range check of its own
    value = (bad,) if f.type.startswith("tuple[") else bad
    with pytest.raises(InvalidParameter, match=rf"^{f.name} must be a finite "):
        _with_value(cls, f.name, value)


@pytest.mark.parametrize("cls, f", _INT_FIELDS, ids=[_field_id(*p) for p in _INT_FIELDS])
def test_a_whole_float_in_an_int_field_is_stored_as_an_int(cls, f):
    want = getattr(_EXAMPLES[cls](), f.name)
    many = f.type.startswith("tuple[")
    value = tuple(map(float, want)) if many else float(want)
    got = getattr(_with_value(cls, f.name, value), f.name)
    assert got == want
    assert all(type(v) is int for v in (got if many else [got]))


def test_every_input_dataclass_refuses_true_in_each_number_field():
    # a dataclass anywhere in the package that holds a number must check it; only
    # the run state, which no file or caller hands in, is left out
    modules = [importlib.import_module(f"hygec.{m.name}")
               for m in pkgutil.iter_modules(hygec.__path__)]
    found = {obj for mod in modules for obj in vars(mod).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)
             and obj.__module__.startswith("hygec.")
             and any(_is_number_field(f) for f in dataclasses.fields(obj))}
    assert found - {GecState, RecoveryReport} == set(_EXAMPLES)  # a new one needs an example
    for cls in _EXAMPLES:
        for f in filter(_is_number_field, dataclasses.fields(cls)):
            value = (True,) if f.type.startswith("tuple[") else True
            with pytest.raises(InvalidParameter, match=f"^{f.name} must be"):
                dataclasses.replace(_EXAMPLES[cls](), **{f.name: value})


def test_readme_scenario_table_names_the_dataclass_fields():
    # README's table is a copy of the fields a scenario file may write: every field
    # but the solver's configs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cells = [line.split("|")[1] for line in readme.splitlines() if line.startswith("| `")]
    written = [name for cell in cells for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(written) == sorted(f.name for f in dataclasses.fields(Scenario)
                                     if not dataclasses.is_dataclass(f.default_factory))


def test_readme_gen_sentence_names_the_recipe_fields():
    # README lists by hand the fields a gen spec takes; they are RECIPE's, in its order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("(`hygec.bench.RECIPE`):", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(RECIPE)


def test_readme_error_table_names_every_error_class():
    # one row per HygecError subclass the package defines, each with its handling
    modules = [importlib.import_module(f"hygec.{m.name}")
               for m in pkgutil.iter_modules(hygec.__path__)]
    defined = {f"{obj.__module__}.{obj.__name__}" for mod in modules for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, HygecError)}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| hygec.")]
    assert sorted(cls.strip() for cls, _ in rows) == sorted(defined)
    assert all(handling.strip() for _, handling in rows)


def test_full_scenarios_scale_their_desk_twins():
    # every shipped scenario loads, and each _full file is its _desk twin with
    # m, n and k five times larger; the _desk labels differ, so the rows of all seven
    # runs put together are keyed apart
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    desk = sorted(scenarios.glob("*_desk.json"))
    full = sorted(scenarios.glob("*_full.json"))
    assert len(desk) == 7 and sorted(scenarios.glob("*.json")) == sorted(desk + full)
    assert [p.name.replace("_desk", "_full") for p in desk] == [p.name for p in full]
    names = set()
    for small_path, big_path in zip(desk, full):
        small = Scenario.from_json(str(small_path))
        big = Scenario.from_json(str(big_path))
        assert big == dataclasses.replace(small, m=5 * small.m, n=5 * small.n, k=5 * small.k)
        names.add(small.name)
    assert len(names) == len(desk), names


@pytest.mark.parametrize("bits", [2, 3])
def test_readme_gives_the_full_scale_mean_cost_of_the_committed_results(bits):
    # results/ holds one `hygec run --format json` output of each full-scale mean sweep;
    # criterion 5's paragraph cites the file and its median cost of mean 0 -> 0.2
    root = Path(__file__).resolve().parents[1]
    name = f"mean_sweep_b{bits}_full"
    scenario = Scenario.from_json(str(root / "scenarios" / f"{name}.json"))
    doc = json.loads((root / "results" / f"{name}.json").read_text())
    assert {(r["seed"], r["sweep_value"]) for r in doc["rows"]} == {
        (seed, mu) for seed in scenario.seeds for mu in scenario.sweep_values}
    medians = {s["sweep_value"]: s["median_nmse_db"] for s in doc["summary"]}
    readme = (root / "README.md").read_text()
    criterion = " ".join(readme.split("\n5. ", 1)[1].split("\n6. ", 1)[0].split())
    assert f"`results/{name}.json`" in criterion
    assert f"{medians[0.2] - medians[0.0]:.1f} dB at {bits} bits" in criterion


def test_scenario_from_dict():
    sc = Scenario.from_dict(
        {
            "name": "condition-sweep",
            "m": 10,
            "n": 20,
            "k": 4,
            "rho": 0.1,
            "snr_db": 12.0,
            "seeds": [0, 1],
            "algorithms": ["em-hygec"],
            "sweep_param": "kappa",
            "sweep_values": [1.0, 10.0],
        }
    )
    assert sc.seeds == (0, 1)
    assert sc.sweep_values == (1.0, 10.0)
    assert sc.engine == HygecConfig() and sc.em == EmConfig()  # a file sets neither
    with pytest.raises(InvalidParameter):
        Scenario.from_dict({"name": "custom", "m": 4, "n": 8, "k": 2, "rho": 0.1,
                            "snr_db": 10.0, "seeds": [0], "typo_field": 1})


def test_scenario_from_json(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({
        "name": "custom", "m": 6, "n": 12, "k": 3, "rho": 0.25, "snr_db": 18.0, "seeds": [5],
    }))
    sc = Scenario.from_json(str(path))
    assert sc.m == 6 and sc.seeds == (5,)
    with pytest.raises(IoError):
        Scenario.from_json(str(tmp_path / "missing.json"))
    path.write_text('{"name": "custom", "m": 6,')
    with pytest.raises(InvalidParameter, match=rf"^{re.escape(str(path))}: not valid JSON \("):
        Scenario.from_json(str(path))
    path.write_text(json.dumps({"name": "custom", "m": 6}))
    with pytest.raises(InvalidParameter):
        Scenario.from_json(str(path))


def test_matrix_at_resolves_each_sweep_point():
    # a kappa sweep conditions the matrix at every point, kappa 1 included; a mean sweep
    # shifts an i.i.d. one; with no sweep point the matrix is i.i.d. with zero mean
    assert _scenario().matrix_at(None) == (MatrixSpec("iid", 20, 30), 0.0)
    kappa_sweep = _scenario(sweep_param="kappa", sweep_values=(1, 100))
    assert kappa_sweep.matrix_at(1) == (MatrixSpec("conditioned", 20, 30, 1.0), 0.0)
    assert kappa_sweep.matrix_at(100) == (MatrixSpec("conditioned", 20, 30, 100.0), 0.0)
    mean_sweep = _scenario(sweep_param="mean", sweep_values=(0.0, 0.2))
    assert mean_sweep.matrix_at(0.2) == (MatrixSpec("iid", 20, 30), 0.2)
    # any other point is refused by the draw, never drawn as another point's matrix:
    # None on a sweep, a value with no sweep, a value the sweep does not hold
    for sweep, point in ((kappa_sweep, None), (mean_sweep, None), (_scenario(), 10.0),
                         (kappa_sweep, 10.0), (mean_sweep, 0.1)):
        points = re.escape(str(sweep.sweep_values or (None,)))
        with pytest.raises(InvalidParameter, match=f"^sweep value {point} is not one of the "
                                                   f"points {points}$"):
            build_instance(sweep, 0, point)


def test_build_instance_is_deterministic():
    sc = _scenario()
    a = build_instance(sc, 3, None)
    b = build_instance(sc, 3, None)
    assert np.array_equal(a.H, b.H)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x_true, b.x_true)


def test_build_instance_kappa_sweep_overrides_conditioning():
    sc = _scenario(name="condition-sweep", sweep_param="kappa", sweep_values=(1.0, 100.0))
    flat = build_instance(sc, 0, 1.0)
    hard = build_instance(sc, 0, 100.0)
    sv_flat = np.linalg.svd(flat.H, compute_uv=False)
    sv_hard = np.linalg.svd(hard.H, compute_uv=False)
    assert sv_flat.max() / sv_flat.min() == pytest.approx(1.0, abs=1e-10)
    assert sv_hard.max() / sv_hard.min() == pytest.approx(100.0, rel=1e-8)
    # the signal substream is independent of the sweep point
    assert np.array_equal(flat.x_true, hard.x_true)


def test_build_instance_mean_sweep_keeps_noise_calibration():
    sc = _scenario(name="mean-sweep", sweep_param="mean", sweep_values=(0.0, 0.2), bits=3)
    zero = build_instance(sc, 1, 0.0)
    shifted = build_instance(sc, 1, 0.2)
    # same base draws: the sweep adds a constant offset and nothing else
    assert np.allclose(shifted.H - zero.H, 0.2, atol=1e-15)
    assert shifted.channel.noise_var == zero.channel.noise_var
    assert np.array_equal(shifted.x_true, zero.x_true)
    assert shifted.channel.kind == "quantized"
    assert shifted.channel.bits == 3
    y = np.asarray(shifted.y, dtype=np.int64)
    assert np.all(y >= 0) and np.all(y < shifted.channel.n_cells)


def _bits(inst):
    # every archive member of an instance, as its dtype, shape and bytes
    members = {name: np.asarray(value) for name, value in _entries(inst).items()}
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in members.items()}


def test_recipe_is_what_build_instance_reads():
    # each recipe field, changed to another valid value, changes the drawn instance;
    # any other Scenario field leaves it bitwise equal
    recipe = {"m": dict(m=24), "n": dict(n=36), "k": dict(k=5), "rho": dict(rho=0.3),
              "snr_db": dict(snr_db=20.0), "bits": dict(bits=2)}
    others = {"name": dict(name="custom"), "seeds": dict(seeds=(7, 8)),
              "algorithms": dict(algorithms=("em-hygec",)),
              "sweep_param": dict(sweep_param="mean", sweep_values=(0.0,)),
              "sweep_values": dict(sweep_param="mean", sweep_values=(0.0, 0.5)),
              "rho_init": dict(rho_init=0.05), "engine": dict(engine=HygecConfig(v_max=1e4)),
              "em": dict(em=EmConfig(max_outer=2))}
    assert sorted(recipe) == sorted(RECIPE)
    assert set(others) == {f.name for f in dataclasses.fields(Scenario)} - set(RECIPE)
    base = _scenario()
    drawn = _bits(build_instance(base, 3, None))
    for name, change in recipe.items():
        assert _bits(build_instance(dataclasses.replace(base, **change), 3, None)) != drawn, name
    for name, change in others.items():  # a mean sweep draws its point 0.0 as no sweep does
        point = change.get("sweep_values", (None,))[0]
        assert _bits(build_instance(dataclasses.replace(base, **change), 3, point)) == drawn, name


def test_run_trial_repeats_each_rate_over_its_sweeps(monkeypatch):
    reports = []

    def spy(*args):
        out = em_hygec_run(*args)
        reports.append(out[2])
        return out

    monkeypatch.setattr("hygec.bench.em_hygec_run", spy)
    rows = run_trial(_scenario(m=40, n=60, rho=0.2, snr_db=18.0), 0, None, "em-hygec")
    (report,) = reports
    assert len(report.inner_counts) > 1
    # outer stage j ran inner_counts[j] sweeps at rate rho_trace[j]
    start = 0
    for rho, count in zip(report.rho_trace, report.inner_counts):
        assert [r["rho_est"] for r in rows[start:start + count]] == [rho] * count
        start += count
    assert start == len(rows)


def test_run_trial_row_contract():
    sc = _scenario(m=40, n=60, rho=0.2, snr_db=18.0)
    rows = run_trial(sc, 0, None, "hygec-known-rho")
    assert [r["iteration"] for r in rows] == list(range(1, len(rows) + 1))
    assert all(r["scenario"] == "iteration-trace" for r in rows)
    assert all(r["seed"] == 0 and r["sweep_value"] is None for r in rows)
    assert all(r["algorithm"] == "hygec-known-rho" for r in rows)
    assert all(r["rho_est"] == 0.2 for r in rows)
    assert all(r["terminated"] == CONVERGED for r in rows)
    assert all(isinstance(r["nmse_db"], float) for r in rows)
    assert all(r["wall_ms"] > 0 for r in rows)
    assert all(r["failure"] is None for r in rows)
    em_rows = run_trial(sc, 0, None, "em-hygec")
    assert em_rows[0]["rho_est"] == sc.rho_init
    assert em_rows[-1]["rho_est"] != sc.rho_init


def test_run_trial_zero_truth_leaves_nmse_blank():
    sc = _scenario(m=40, n=60, rho=0.2, snr_db=18.0)
    inst = build_instance(sc, 3, None)
    assert int(np.sum(inst.xi_true)) == 0
    rows = run_trial(sc, 3, None, "hygec-known-rho")
    assert len(rows) > 0
    assert all(r["nmse_db"] is None for r in rows)


def test_rows_carry_the_rate_the_trial_returns():
    # rho_est is the rate each sweep ran at, rho_final the rate the trial returns:
    # EM's last M-step, one step past the final row's rate in this run, which ends
    # at max_outer; a known-rate trial's is the known rate
    sc = _scenario(m=100, n=200, k=20, rho=0.3, snr_db=0.0)
    _, rho, report = em_hygec_run(build_instance(sc, 0, None), sc.rho_init, sc.engine, sc.em)
    assert report.termination == MAX_ITERATIONS
    rows = run_trial(sc, 0, None, "em-hygec")
    assert all(row["rho_final"] == rho for row in rows)
    assert rows[-1]["rho_est"] != rho
    assert all(row["rho_final"] == 0.3 for row in run_trial(sc, 0, None, "hygec-known-rho"))


def test_run_trial_records_immediate_failure(monkeypatch):
    def exploding_run(inst, rho, cfg):
        report = RecoveryReport(rho_trace=[rho], termination=NUMERICAL_FAILURE, inner_counts=[0])
        return np.zeros(inst.n), np.ones(inst.n), np.zeros(inst.n), np.zeros(inst.n), report

    monkeypatch.setattr("hygec.bench.hygec_run", exploding_run)
    rows = run_trial(_scenario(), 0, None, "hygec-known-rho")
    assert len(rows) == 1
    assert rows[0]["iteration"] == 1
    assert rows[0]["nmse_db"] is None
    assert rows[0]["rho_est"] == _scenario().rho  # read from the report's rate trace
    assert rows[0]["terminated"] == NUMERICAL_FAILURE


def test_run_scenario_row_order_and_thread_parity():
    sc = _scenario(
        name="condition-sweep",
        sweep_param="kappa",
        sweep_values=(1.0, 10.0),
        algorithms=("hygec-known-rho", "em-hygec"),
        seeds=(0, 1),
        snr_db=18.0,
    )
    serial = run_scenario(sc, threads=1)
    keys = []
    for row in serial:
        key = (row["sweep_value"], row["algorithm"], row["seed"])
        if key not in keys:
            keys.append(key)
    assert keys == [
        (v, a, s)
        for v in (1.0, 10.0)
        for a in ("hygec-known-rho", "em-hygec")
        for s in (0, 1)
    ]
    parallel = run_scenario(sc, threads=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        for col in CSV_COLUMNS:
            if col == "wall_ms":
                continue
            assert a[col] == b[col], col


def test_run_scenario_hands_its_configs_to_the_solver(monkeypatch):
    # a scenario file sets no engine or em config; a Python Scenario does, and each
    # trial runs with exactly the configs it holds
    calls = []

    def spy(inst, rho_init, cfg, em_cfg):
        calls.append((cfg, em_cfg))
        return em_hygec_run(inst, rho_init, cfg, em_cfg)

    monkeypatch.setattr("hygec.bench.em_hygec_run", spy)
    sc = _scenario(algorithms=("em-hygec",), engine=HygecConfig(v_max=1e4),
                   em=EmConfig(max_outer=1))
    rows = run_scenario(sc)
    assert calls == [(HygecConfig(v_max=1e4), EmConfig(max_outer=1))]  # one trial
    assert {row["seed"] for row in rows} == {0}


def test_run_scenario_pool_has_no_more_workers_than_trials(monkeypatch):
    # a fork pool starts every worker at its first submit; the fake starts none
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    sc = _scenario(seeds=(0, 1))
    rows = run_scenario(sc, threads=64)
    assert sizes == ([2] if cores > 1 else [])
    assert [r["seed"] for r in rows] == [r["seed"] for r in run_scenario(sc, threads=1)]
    sizes.clear()
    run_scenario(_scenario(), threads=64)  # one trial runs in this process
    assert sizes == []
    # nor more than the usable cores, however many threads are asked for
    run_scenario(_scenario(seeds=tuple(range(cores + 1))), threads=10**6)
    assert sizes == ([cores] if cores > 1 else [])


def test_empty_sweep_is_refused_at_load():
    # a sweep with no points would run no trial and print only the CSV header
    with pytest.raises(InvalidParameter, match=r"^sweep_param 'kappa' needs sweep_values$"):
        _scenario(name="condition-sweep", sweep_param="kappa", sweep_values=())
    assert summarize([]) == []


def _row(seed, nmse_db, terminated=CONVERGED, iteration=5, rho_est=0.1, sweep=None, alg="hygec-known-rho"):
    return {
        "scenario": "custom", "seed": seed, "sweep_value": sweep, "algorithm": alg,
        "iteration": iteration, "nmse_db": nmse_db, "rho_est": rho_est,
        "terminated": terminated, "wall_ms": 1.0,
    }


def test_final_rows_picks_last_iteration():
    rows = [_row(0, -5.0, iteration=1), _row(0, -12.0, iteration=7), _row(1, -8.0, iteration=3)]
    finals = {(r["seed"]): r["nmse_db"] for r in final_rows(rows)}
    assert finals == {0: -12.0, 1: -8.0}


def test_summarize_hand_math():
    rows = [
        _row(0, -10.0),
        _row(1, -20.0),
        _row(2, None, terminated=NUMERICAL_FAILURE),
    ]
    (summary,) = summarize(rows)
    assert summary["trials"] == 3
    assert summary["failures"] == 1
    # linear domain: median of {0.1, 0.01} is 0.055
    assert summary["median_nmse_db"] == pytest.approx(10.0 * np.log10(0.055))
    assert summary["mean_nmse_db"] == pytest.approx(10.0 * np.log10(0.055))
    assert summary["median_rho_est"] == 0.1


def test_write_csv_exact_bytes(tmp_path):
    rows = [
        _row(0, -10.5, iteration=1),
        _row(1, None, terminated=NUMERICAL_FAILURE, iteration=1),
    ]
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    assert text[1] == "custom,0,,hygec-known-rho,1,-10.5,0.1,converged,1.0"
    assert text[2] == "custom,1,,hygec-known-rho,1,,0.1,numerical_failure,1.0"


def test_write_csv_writes_numpy_sweep_values_as_numbers(tmp_path):
    sc = _scenario(sweep_param="mean", sweep_values=tuple(np.array([0.1])))
    rows = run_trial(sc, 0, sc.sweep_values[0], "hygec-known-rho")
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    column = CSV_COLUMNS.index("sweep_value")
    cells = {line.split(",")[column] for line in path.read_text().splitlines()[1:]}
    assert cells == {"0.1"}


def test_write_json_round_trips(tmp_path):
    rows = [_row(0, -10.0)]
    path = tmp_path / "out.json"
    write_json(rows, summarize(rows), str(path))
    payload = json.loads(path.read_text())
    assert payload["rows"][0]["nmse_db"] == -10.0
    assert payload["summary"][0]["trials"] == 1


def _strip_wall(text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())


def test_repeated_runs_are_identical_apart_from_timing(tmp_path):
    sc = _scenario(algorithms=("hygec-known-rho", "em-hygec"), seeds=(0, 1), snr_db=18.0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_scenario(sc), str(a))
    write_csv(run_scenario(sc), str(b))
    assert a.read_text() != ""
    assert _strip_wall(a.read_text()) == _strip_wall(b.read_text())


# the members of a schema-1 archive and their dtypes, as every earlier release
# wrote them; "y" holds cell indices on a quantized channel, and a linear
# archive has no "bits" or "clip_range"
_SCHEMA_1 = {
    "schema_version": "int64", "H": "float64", "y": "float64", "group_sizes": "int64",
    "channel_kind": "<U6", "noise_var": "float64", "bits": "int64", "clip_range": "float64",
    "sigma_x_sq": "float64", "x_true": "float64", "xi_true": "int64", "true_rho": "float64",
    "seed": "int64",
}


@pytest.mark.parametrize("bits", [None, 2], ids=["linear", "2-bit"])
def test_export_import_round_trip(tmp_path, bits):
    inst = build_instance(_scenario(bits=bits), 7, None)
    path = str(tmp_path / "inst.npz")
    export_instance(inst, path, seed=7)
    with np.load(path) as archive:
        members = {key: archive[key].dtype for key in archive.files}
    if bits is None:
        schema = {k: v for k, v in _SCHEMA_1.items() if k not in ("bits", "clip_range")}
    else:
        schema = {**_SCHEMA_1, "y": "int64", "channel_kind": "<U9"}
    assert members == {k: np.dtype(v) for k, v in schema.items()}
    back = import_instance(path)
    for obj, got in ((inst, back), (inst.channel, back.channel)):
        for f in dataclasses.fields(obj):
            want, have = getattr(obj, f.name), getattr(got, f.name)
            assert type(have) is type(want), f.name
            if isinstance(want, np.ndarray):
                assert have.dtype == want.dtype and np.array_equal(have, want), f.name
            else:
                assert have == want, f.name


def test_import_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "bad.npz")
    np.savez(path, schema_version=np.int64(99), H=np.eye(2))
    with pytest.raises(InvalidParameter, match="^expected schema version 1$"):
        import_instance(path)
    path2 = str(tmp_path / "none.npz")
    np.savez(path2, H=np.eye(2))
    with pytest.raises(InvalidParameter, match="^expected schema version 1$"):
        import_instance(path2)
    with pytest.raises(IoError):
        import_instance(str(tmp_path / "missing.npz"))


def test_import_rejects_instance_missing_a_field(tmp_path):
    inst = build_instance(_scenario(), 7, None)
    path = str(tmp_path / "full.npz")
    export_instance(inst, path)
    full = dict(np.load(path))
    for key in ("H", "y", "group_sizes", "channel_kind", "noise_var", "sigma_x_sq"):
        cut = str(tmp_path / f"no_{key}.npz")
        np.savez(cut, **{k: v for k, v in full.items() if k != key})
        with pytest.raises(InvalidParameter,
                           match=rf"^{re.escape(cut)}: missing or malformed field: .*'{key}'"):
            import_instance(cut)
    text = tmp_path / "text.npz"
    text.write_text("not an archive")
    with pytest.raises(InvalidParameter,
                       match=rf"^{re.escape(str(text))}: not an instance file \("):
        import_instance(str(text))


def test_import_refuses_an_unknown_member_by_name(tmp_path):
    # a renamed x_true would otherwise load as an instance without a truth
    path = str(tmp_path / "inst.npz")
    export_instance(build_instance(_scenario(), 7, None), path)
    with np.load(path) as archive:
        members = dict(archive)
    members["x_ture"] = members.pop("x_true")
    np.savez(path, **members)
    with pytest.raises(InvalidParameter, match="unknown member.*x_ture"):
        import_instance(path)


def test_import_refuses_a_bool_sigma_x_sq_by_name(tmp_path):
    # a bool member reads back as True, which is no variance, not as 1.0
    path = str(tmp_path / "inst.npz")
    export_instance(build_instance(_scenario(), 7, None), path)
    with np.load(path) as archive:
        members = {**archive, "sigma_x_sq": np.True_}
    np.savez(path, **members)
    with pytest.raises(InvalidParameter, match="^sigma_x_sq must be a finite float, not True"):
        import_instance(path)


@pytest.mark.parametrize("name, kind", [("H", complex), ("H", str), ("y", str)])
def test_import_refuses_an_array_that_holds_no_real_numbers(tmp_path, name, kind):
    # a complex H once loaded without its imaginary part, and text loaded as parsed floats
    path = str(tmp_path / "inst.npz")
    export_instance(build_instance(_scenario(), 7, None), path)
    with np.load(path) as archive:
        members = dict(archive)
    members[name] = members[name].astype(kind)
    np.savez(path, **members)
    with pytest.raises(InvalidParameter, match=f"^{name} must hold real numbers, not "):
        import_instance(path)


# fields of an exported instance replaced by a value of the wrong shape or type
_MALFORMED_FIELDS = {
    "schema_version_array": {"schema_version": np.array([1, 1])},
    "noise_var_array": {"noise_var": np.array([0.1, 0.2])},
    "object_H": {"H": np.ones((20, 30), dtype=object)},
    "text_group_sizes": {"group_sizes": np.array(["a"] * 6)},
    "float_group_sizes": {"group_sizes": np.full(6, 5.5)},
    "two_channel_kinds": {"channel_kind": np.array(["linear", "quantized"])},
}


@pytest.mark.parametrize("name", [*_MALFORMED_FIELDS, "truncated", "empty"])
def test_import_raises_schema_mismatch_for_a_malformed_file(tmp_path, name):
    path = tmp_path / "inst.npz"
    export_instance(build_instance(_scenario(), 7, None), str(path))
    if name in _MALFORMED_FIELDS:
        with np.load(path) as archive:
            fields = {**archive, **_MALFORMED_FIELDS[name]}
        np.savez(path, **fields)
    else:
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2] if name == "truncated" else b"")
    # numpy reads no object array and no damaged file; each other field is read and does not fit
    unread = name in ("object_H", "truncated", "empty")
    reason = r"not an instance file \(" if unread else "missing or malformed field: "
    with pytest.raises(InvalidParameter, match=rf"^{re.escape(str(path))}: {reason}"):
        import_instance(str(path))


# a member numpy reads but cannot take as its field, by name
_UNREADABLE = {
    "noise_var": np.array([0.1, 0.2]),
    "sigma_x_sq": np.array([1.0, 2.0]),
    "schema_version": np.array([1, 1]),
    "channel_kind": np.array(["linear", "quantized"]),
    "group_sizes": np.full(6, 5.5),
}


@pytest.mark.parametrize("name", _UNREADABLE)
def test_import_names_the_member_it_cannot_read(tmp_path, name):
    # numpy's own message ("can only convert an array of size 1", "Cannot cast
    # array data") names no member, so the refusal puts the member's name first
    path = tmp_path / "inst.npz"
    export_instance(build_instance(_scenario(), 7, None), str(path))
    with np.load(path) as archive:
        members = {**archive, name: _UNREADABLE[name]}
    np.savez(path, **members)
    with pytest.raises(InvalidParameter,
                       match=rf"^{re.escape(str(path))}: missing or malformed field: '{name}' \("):
        import_instance(str(path))


def test_import_rejects_tampered_instance(tmp_path):
    # a file with every field present but inconsistent fails at load, not in a later run
    inst = build_instance(_scenario(), 7, None)
    path = str(tmp_path / "full.npz")
    export_instance(inst, path)
    full = dict(np.load(path))
    cut = str(tmp_path / "cut_y.npz")
    np.savez(cut, **{**full, "y": full["y"][:-1]})
    with pytest.raises(InvalidParameter, match="^y must have length 20$"):
        import_instance(cut)
    active = int(np.flatnonzero(full["xi_true"])[0])
    xi = full["xi_true"].copy()
    xi[active] = 0  # x_true stays nonzero in that group
    flipped = str(tmp_path / "flipped_xi.npz")
    np.savez(flipped, **{**full, "xi_true": xi})
    with pytest.raises(InvalidParameter,
                       match=f"^group {active} is inactive but x_true is nonzero there$"):
        import_instance(flipped)
    quant = str(tmp_path / "quant.npz")
    export_instance(build_instance(_scenario(bits=2), 7, None), quant)
    with np.load(quant) as archive:
        fields = dict(archive)
    y = fields["y"].astype(float)
    y[0] = 1.5  # inside the cell range, but not a cell index
    fractional = str(tmp_path / "fractional_y.npz")
    np.savez(fractional, **{**fields, "y": y})
    with pytest.raises(InvalidParameter,
                       match="^quantized observations must be valid cell indices$"):
        import_instance(fractional)
    half_bit = str(tmp_path / "half_bit.npz")
    np.savez(half_bit, **{**fields, "bits": np.float64(2.5)})
    with pytest.raises(InvalidParameter):  # not read as a 2-bit channel
        import_instance(half_bit)
    linear_bits = str(tmp_path / "linear_bits.npz")
    np.savez(linear_bits, **{**full, "bits": np.int64(3), "clip_range": np.float64(2.0)})
    with pytest.raises(InvalidParameter, match="linear channel takes no bits"):  # not dropped
        import_instance(linear_bits)
    planted = str(tmp_path / "planted_two.npz")
    np.savez(planted, **{**full, "xi_true": np.where(full["xi_true"] == 1, 2, 0)})
    # a planted rate read from it would double
    with pytest.raises(InvalidParameter, match="^xi_true must hold 0/1 group indicators$"):
        import_instance(planted)
