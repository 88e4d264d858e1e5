import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hygec.bench import (
    CSV_COLUMNS,
    IoError,
    Scenario,
    SchemaMismatch,
    build_instance,
    export_instance,
    final_rows,
    import_instance,
    run_scenario,
    run_trial,
    summarize,
    write_csv,
    write_json,
)
from hygec.em import EmConfig, em_hygec_run
from hygec.engine import HygecConfig
from hygec.types import (
    CONVERGED,
    NUMERICAL_FAILURE,
    DimensionMismatch,
    InvalidParameter,
    RecoveryReport,
    SupportViolation,
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
    _scenario(matrix_kind="conditioned", kappa=10.0)
    _scenario(sweep_param="kappa", sweep_values=(1.0, 10.0))
    for bad in (
        dict(name="made-up"),
        dict(seeds=()),
        dict(algorithms=()),
        dict(algorithms=("gradient-descent",)),
        dict(sweep_param="snr"),
        dict(m=0),
        dict(m=40),  # m > n
        dict(k=31),
        dict(rho=0.0),
        # options build_instance would drop without a word
        dict(matrix_kind="gaussian"),
        dict(sweep_values=(1.0, 10.0)),  # no sweep_param
        dict(matrix_kind="conditioned", sweep_param="mean", sweep_values=(0.0, 0.1)),
        dict(matrix_kind="conditioned", matrix_mean=0.1),
        dict(sweep_param="kappa", sweep_values=(1.0, 10.0), matrix_mean=0.1),
        dict(kappa=1000.0),  # i.i.d. matrix, no kappa sweep
        # a sweep overrides the scenario's own value at every point
        dict(sweep_param="mean", sweep_values=(0.0, 0.1), matrix_mean=0.05),
        dict(sweep_param="kappa", sweep_values=(1.0, 10.0), kappa=50.0),
        # values of the wrong type, as a JSON file can hold them
        dict(seeds="ab"),
        dict(seeds=(0.5,)),
        dict(seeds=(-1,)),
        dict(m=4.5),
        dict(m=True),
        dict(snr_db="10"),
        dict(sweep_param="mean", sweep_values=("x",)),
        dict(bits=2.5),
    ):
        with pytest.raises(InvalidParameter):
            _scenario(**bad)
    # JSON reads NaN and Infinity as floats; each must be refused by name
    for name, bad in (
        ("snr_db", dict(snr_db=-float("inf"))),
        ("matrix_mean", dict(matrix_mean=float("nan"))),
        ("sigma_x_sq", dict(sigma_x_sq=float("inf"))),
        ("rho", dict(rho=float("nan"))),
        ("rho_init", dict(rho_init=float("nan"))),
        ("kappa", dict(matrix_kind="conditioned", kappa=float("inf"))),
        ("sweep_values", dict(sweep_param="mean", sweep_values=(0.0, float("nan")))),
        # the engine and EM options are typed like the top-level fields
        ("engine.max_iter", dict(engine=HygecConfig(max_iter=1.5))),
        ("engine.max_iter", dict(engine=HygecConfig(max_iter=math.inf))),
        ("engine.max_iter", dict(engine=HygecConfig(max_iter=True))),
        ("engine.damping", dict(engine=HygecConfig(damping=True))),
        ("engine.v_max", dict(engine=HygecConfig(v_max=math.inf))),
        ("em.max_outer", dict(em=EmConfig(max_outer=2.5))),
        ("em.max_outer", dict(em=EmConfig(max_outer=True))),
        ("em.tol", dict(em=EmConfig(tol=math.inf))),
    ):
        with pytest.raises(InvalidParameter, match=name):
            _scenario(**bad)


def test_full_scenarios_scale_their_desk_twins():
    # every shipped scenario loads, and each _full file is its _desk twin with
    # m, n and k five times larger
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    desk = sorted(scenarios.glob("*_desk.json"))
    full = sorted(scenarios.glob("*_full.json"))
    assert len(desk) == 5 and sorted(scenarios.glob("*.json")) == sorted(desk + full)
    assert [p.name.replace("_desk", "_full") for p in desk] == [p.name for p in full]
    for small_path, big_path in zip(desk, full):
        small = Scenario.from_json(str(small_path))
        big = Scenario.from_json(str(big_path))
        assert big == dataclasses.replace(small, m=5 * small.m, n=5 * small.n, k=5 * small.k)


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
            "engine": {"max_iter": 7},
            "em": {"max_outer": 3},
        }
    )
    assert sc.seeds == (0, 1)
    assert sc.sweep_values == (1.0, 10.0)
    assert sc.engine.max_iter == 7
    assert sc.em.max_outer == 3
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
    with pytest.raises(SchemaMismatch):
        Scenario.from_json(str(path))
    path.write_text(json.dumps({"name": "custom", "m": 6}))
    with pytest.raises(InvalidParameter):
        Scenario.from_json(str(path))


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
    sc = _scenario(seeds=(0, 1))
    rows = run_scenario(sc, threads=64)
    assert sizes == [2]
    assert [r["seed"] for r in rows] == [r["seed"] for r in run_scenario(sc, threads=1)]
    run_scenario(_scenario(), threads=64)  # one trial runs in this process
    assert sizes == [2]


def test_empty_sweep_produces_no_rows():
    sc = _scenario(name="condition-sweep", sweep_param="kappa", sweep_values=())
    assert run_scenario(sc) == []
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


def test_export_import_round_trip(tmp_path):
    sc = _scenario(bits=2)
    inst = build_instance(sc, 7, None)
    path = str(tmp_path / "inst.npz")
    export_instance(inst, path, seed=7)
    back = import_instance(path)
    assert np.array_equal(back.H, inst.H)
    assert np.array_equal(back.y, inst.y)
    assert back.groups.group_sizes == inst.groups.group_sizes
    assert back.channel.kind == "quantized"
    assert back.channel.bits == 2
    assert back.channel.noise_var == inst.channel.noise_var
    assert back.channel.clip_range == inst.channel.clip_range
    assert np.array_equal(back.x_true, inst.x_true)
    assert np.array_equal(back.xi_true, inst.xi_true)
    assert back.true_rho == inst.true_rho


def test_import_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "bad.npz")
    np.savez(path, schema_version=np.int64(99), H=np.eye(2))
    with pytest.raises(SchemaMismatch):
        import_instance(path)
    path2 = str(tmp_path / "none.npz")
    np.savez(path2, H=np.eye(2))
    with pytest.raises(SchemaMismatch):
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
        with pytest.raises(SchemaMismatch):
            import_instance(cut)
    text = tmp_path / "text.npz"
    text.write_text("not an archive")
    with pytest.raises(SchemaMismatch):
        import_instance(str(text))


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
    with pytest.raises(SchemaMismatch):
        import_instance(str(path))


def test_import_rejects_tampered_instance(tmp_path):
    # a file with every field present but inconsistent fails at load, not in a later run
    inst = build_instance(_scenario(), 7, None)
    path = str(tmp_path / "full.npz")
    export_instance(inst, path)
    full = dict(np.load(path))
    cut = str(tmp_path / "cut_y.npz")
    np.savez(cut, **{**full, "y": full["y"][:-1]})
    with pytest.raises(DimensionMismatch):
        import_instance(cut)
    active = int(np.flatnonzero(full["xi_true"])[0])
    xi = full["xi_true"].copy()
    xi[active] = 0  # x_true stays nonzero in that group
    flipped = str(tmp_path / "flipped_xi.npz")
    np.savez(flipped, **{**full, "xi_true": xi})
    with pytest.raises(SupportViolation):
        import_instance(flipped)
    quant = str(tmp_path / "quant.npz")
    export_instance(build_instance(_scenario(bits=2), 7, None), quant)
    with np.load(quant) as archive:
        fields = dict(archive)
    y = fields["y"].astype(float)
    y[0] = 1.5  # inside the cell range, but not a cell index
    fractional = str(tmp_path / "fractional_y.npz")
    np.savez(fractional, **{**fields, "y": y})
    with pytest.raises(DimensionMismatch):
        import_instance(fractional)
