import dataclasses
import json
import math

import numpy as np
import pytest

from hygec.bench import RECIPE, build_instance, import_instance, run_trial, Scenario
from hygec.cli import MAX_SEEDS, _parse_seeds, main
from hygec.types import NUMERICAL_FAILURE, InvalidParameter


def test_parse_seeds_forms():
    assert _parse_seeds("0-3") == (0, 1, 2, 3)
    assert _parse_seeds("3,5,8") == (3, 5, 8)
    assert _parse_seeds("7") == (7,)
    assert _parse_seeds("-4") == (-4,)
    assert _parse_seeds("0-2, 9") == (0, 1, 2, 9)


def test_parse_seeds_bounds_the_list_before_a_range_is_built():
    # the edge: a list of MAX_SEEDS seeds passes, one seed more is refused by name,
    # whether one range or a range after a single seed carries it over
    assert len(_parse_seeds(f"0-{MAX_SEEDS - 1}")) == MAX_SEEDS
    assert len(_parse_seeds(f"{MAX_SEEDS},0-{MAX_SEEDS - 2}")) == MAX_SEEDS
    for text, part in ((f"0-{MAX_SEEDS}", f"0-{MAX_SEEDS}"),
                       (f"{MAX_SEEDS},0-{MAX_SEEDS - 1}", f"0-{MAX_SEEDS - 1}")):
        with pytest.raises(InvalidParameter, match=f"{part!r} would take the list past "
                                                   f"{MAX_SEEDS} seeds"):
            _parse_seeds(text)


def _scenario_file(tmp_path, **overrides):
    d = {
        "name": "custom",
        "m": 20,
        "n": 30,
        "k": 6,
        "rho": 0.2,
        "snr_db": 18.0,
        "seeds": [0],
        "algorithms": ["hygec-known-rho"],
    }
    d.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_run_writes_csv_and_prints_summary(tmp_path, capsys):
    sc = _scenario_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", sc, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,seed,")
    assert len(lines) > 1
    printed = capsys.readouterr().out
    assert "median_nmse_db" in printed


def test_run_csv_nmse_cells_are_numbers(tmp_path):
    sc = _scenario_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", sc, "--seeds", "0", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    col = header.split(",").index("nmse_db")
    cells = [row.split(",")[col] for row in rows]
    assert cells
    for cell in cells:
        float(cell)  # not "np.float64(...)"


def test_run_seeds_override(tmp_path):
    sc = _scenario_file(tmp_path, seeds=[5])
    out = tmp_path / "rows.csv"
    assert main(["run", sc, "--seeds", "0-1", "--out", str(out)]) == 0
    seeds = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert seeds == {"0", "1"}


def test_run_emits_json_to_stdout(tmp_path, capsys):
    sc = _scenario_file(tmp_path)
    assert main(["run", sc, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"rows", "summary"}
    assert payload["rows"][0]["seed"] == 0


def test_run_labels_the_rows_with_any_name(tmp_path, capsys):
    # a scenario's name is a label, not a choice: it fills the rows' scenario column
    sc = _scenario_file(tmp_path, name="my-label", seeds=[0, 1])
    assert main(["run", sc, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and {row["scenario"] for row in rows} == {"my-label"}


@pytest.mark.parametrize(
    "name",
    [["x"], 5, None, "cond, kappa=10", "a\nb", "a\rb", '"a'],
    ids=["list", "number", "null", "comma", "newline", "return", "quote"],
)
def test_run_refuses_a_name_that_is_not_a_plain_string(tmp_path, capsys, name):
    # a list would load and then fail as part of a trial's key; the name fills one unquoted
    # cell of each row in the default CSV, so a comma, quote or line break would split it
    out = tmp_path / "rows.csv"
    assert main(["run", _scenario_file(tmp_path, name=name), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: name must be a string with no comma, quote or newline, not {name!r}\n"
    )
    assert not out.exists()


def test_run_json_rows_name_the_numerical_failure(tmp_path, capsys, monkeypatch):
    real_build = build_instance

    def overflowing(scenario, seed, sweep_value):
        inst = real_build(scenario, seed, sweep_value)
        return dataclasses.replace(inst, H=inst.H * 1e160)

    monkeypatch.setattr("hygec.bench.build_instance", overflowing)
    sc = _scenario_file(tmp_path)
    with np.errstate(all="ignore"):
        assert main(["run", sc, "--format", "json"]) == 1  # the rows are still written
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["terminated"] == NUMERICAL_FAILURE
    assert row["failure"].startswith(("FactorizationFailure in sweep 1: ",
                                      "NonFinite in sweep 1: ")), row["failure"]


def test_run_refuses_a_sweep_point_before_any_trial(tmp_path, capsys, monkeypatch):
    # the last point's mean gives a channel float64 cannot hold; every point's
    # first-seed instance is drawn before the first trial, so none runs
    calls = []
    monkeypatch.setattr("hygec.bench.run_trial", lambda *args: calls.append(args) or run_trial(*args))
    sc = _scenario_file(tmp_path, m=20, n=40, k=4, bits=2, seeds=[0, 1], sweep_param="mean",
                        sweep_values=[0.0, 0.1, 1e160])
    out = tmp_path / "out.json"
    assert main(["run", sc, "--format", "json", "--out", str(out)]) == 2
    assert "matrix mean 1e+160 give a channel float64 cannot hold" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def test_run_refuses_an_out_path_that_holds_no_file_before_any_trial(tmp_path, capsys,
                                                                      monkeypatch):
    # a path that can hold no file (in a missing directory, empty, a directory) is
    # refused before any trial, so no trial's rows are thrown away at the write
    calls = []
    monkeypatch.setattr("hygec.bench.run_trial", lambda *args: calls.append(args) or run_trial(*args))
    sc = _scenario_file(tmp_path)
    missing = tmp_path / "no-such-dir"
    for out in (str(missing / "rows.csv"), "", str(tmp_path), f"{tmp_path}/"):
        assert main(["run", sc, "--out", out]) == 2, out
        assert capsys.readouterr().err == (
            f"error: --out {out!r} is not a file in an existing directory\n")
    assert not missing.exists()
    assert calls == []


def test_gen_refuses_an_out_path_that_holds_no_file_before_any_draw(tmp_path, capsys,
                                                                    monkeypatch):
    # the same paths as for run are refused before the instance is drawn
    calls = []
    monkeypatch.setattr("hygec.bench.build_instance",
                        lambda *args: calls.append(args) or build_instance(*args))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}))
    missing = tmp_path / "no-such-dir"
    for out in (str(missing / "x.npz"), "", str(tmp_path), f"{tmp_path}/"):
        assert main(["gen", str(spec), "--out", out]) == 2, out
        assert capsys.readouterr().err == (
            f"error: --out {out!r} is not a file in an existing directory\n")
    assert not missing.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]
    assert calls == []


def test_run_missing_scenario_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_seed_list_exits_two(tmp_path, capsys):
    sc = _scenario_file(tmp_path)
    for text in ("abc", "0-x", "-1"):
        assert main(["run", sc, f"--seeds={text}"]) == 2, text
        assert "error:" in capsys.readouterr().err


def test_run_descending_seed_range_exits_two(tmp_path, capsys):
    # "5-3" is an empty range: refused by name, not dropped while seed 0 runs alone
    sc = _scenario_file(tmp_path)
    assert main(["run", sc, "--seeds", "0,5-3"]) == 2
    captured = capsys.readouterr()
    assert "error: bad seed list '0,5-3': '5-3' runs downward" in captured.err
    assert captured.out == ""


def test_run_empty_seed_item_exits_two(tmp_path, capsys):
    # an empty item in a list that holds a seed is a typo: refused by name, not skipped
    sc = _scenario_file(tmp_path)
    for text in ("0,,3", "0,", ",5"):
        assert main(["run", sc, f"--seeds={text}"]) == 2, repr(text)
        captured = capsys.readouterr()
        assert f"error: bad seed list {text!r}: an empty item" in captured.err
        assert captured.out == ""


def test_run_huge_seed_range_exits_two_without_building_it(tmp_path, capsys, monkeypatch):
    # 10^10 seeds would ask for about 80 GB; a stand-in range refuses any span past
    # the bound, so a missing or late check fails here instead of allocating
    def bounded_range(lo, hi):
        assert hi - lo <= MAX_SEEDS, f"range of {hi - lo} seeds built"
        return range(lo, hi)

    monkeypatch.setattr("hygec.cli.range", bounded_range, raising=False)
    sc = _scenario_file(tmp_path)
    out = tmp_path / "rows.csv"
    assert main(["run", sc, "--seeds", "0-10000000000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (f"error: bad seed list '0-10000000000': '0-10000000000' would take the list "
            f"past {MAX_SEEDS} seeds") in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_run_repeated_seeds_exit_two(tmp_path, capsys):
    # a repeated seed, algorithm or sweep value would run its trials twice and count
    # them once in the summary
    for field, fields, override in (
            ("seeds", {"seeds": [1, 1]}, []),
            ("seeds", {"seeds": [0]}, ["--seeds", "0-2,1"]),
            ("algorithms", {"algorithms": ["hygec-known-rho", "hygec-known-rho"]}, []),
            ("sweep_values", {"sweep_param": "kappa", "sweep_values": [10, 10.0]}, [])):
        sc = _scenario_file(tmp_path, **{"seeds": [0, 1], **fields})
        assert main(["run", sc, *override]) == 2, fields
        captured = capsys.readouterr()
        assert f"error: {field} must not repeat" in captured.err
        assert captured.out == ""


def test_run_empty_seed_list_exits_two(tmp_path, capsys):
    # an empty override is refused, never read as "no override": the file's
    # own seeds must not run in its place
    sc = _scenario_file(tmp_path)
    for text in ("", " ", ","):
        assert main(["run", sc, f"--seeds={text}"]) == 2, repr(text)
        captured = capsys.readouterr()
        assert "error: scenario needs at least one seed" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("threads", ["0", "2"])
def test_run_refuses_threads(tmp_path, capsys, threads):
    # trials run serially; parallel trials are separate runs over disjoint seed ranges
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as exc:
        main(["run", _scenario_file(tmp_path), "--threads", threads, "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not out.exists()


def test_run_over_disjoint_seed_ranges_joins_to_one_run(tmp_path, capsys):
    # each trial depends only on its seed, sweep point and algorithm, so runs over
    # disjoint seed ranges, joined, hold the rows of one run over all the seeds
    sc = _scenario_file(tmp_path, algorithms=["hygec-known-rho", "em-hygec"])

    def rows(seeds):
        assert main(["run", sc, "--seeds", seeds, "--format", "json"]) == 0
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in json.loads(capsys.readouterr().out)["rows"]]

    def key(row):
        return row["algorithm"], row["seed"], row["iteration"]

    whole, joined = rows("0-3"), rows("0-1") + rows("2-3")
    assert {row["seed"] for row in whole} == {0, 1, 2, 3}
    assert sorted(joined, key=key) == sorted(whole, key=key)


def test_run_malformed_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ('{"name": "custom", "m": 20,', "[1, 2]", '{"name": "custom"}',
                 json.dumps({"name": "custom", "m": 20, "n": 30, "k": 6, "rho": 0.2,
                             "snr_db": 18.0, "seeds": [0.5]}),
                 json.dumps({"name": "custom", "m": 20, "n": 30, "k": 6, "rho": 0.2,
                             "snr_db": 18.0, "seeds": [0], "bits": 40}),
                 json.dumps({"name": "custom", "m": 20, "n": 30, "k": 6, "rho": 0.2,
                             "snr_db": 18.0, "seeds": [0], "bits": 64})):
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2, text
        assert "error:" in capsys.readouterr().err
    # Python's json reads NaN and Infinity; the run must refuse them by name
    base = {"name": "custom", "m": 20, "n": 30, "k": 6, "rho": 0.2, "snr_db": 18.0, "seeds": [0]}
    for key, value in (("snr_db", -math.inf), ("rho", math.nan), ("sigma_x_sq", math.inf),
                       ("sweep_values", [0.0, math.nan])):
        extra = {"sweep_param": "mean"} if key == "sweep_values" else {}
        bad.write_text(json.dumps({**base, **extra, key: value}))
        assert main(["run", str(bad)]) == 2, key
        assert f"error: {key} must be " in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("algorithms", "em-hygec", "algorithms must be a list, not 'em-hygec'"),
    ("seeds", "0", "seeds must be a list, not '0'"),
    ("sweep_values", 5, "sweep_values must be a list, not 5"),
    # the solver's configs are set in Python: a file that writes either block, with
    # any value, is refused by name, never run with the value dropped
    ("engine", {}, "unknown scenario fields: ['engine']"),
    ("engine", {"v_max": 1e4}, "unknown scenario fields: ['engine']"),
    ("em", {"max_outer": 3}, "unknown scenario fields: ['em']"),
    ("engine", {"nope": 1}, "unknown scenario fields: ['engine']"),
    ("em", {"nope": 1}, "unknown scenario fields: ['em']"),
    ("engine", [1, 2], "unknown scenario fields: ['engine']"),
    ("engine", None, "unknown scenario fields: ['engine']"),
    ("engine", {"v_max": 1e-12}, "unknown scenario fields: ['engine']"),
    # a kappa sweep is what makes a matrix conditioned
    ("matrix_kind", "conditioned", "unknown scenario fields: ['matrix_kind']"),
], ids=["algorithms_text", "seeds_text", "sweep_values_number", "engine_empty", "engine_v_max",
        "em_max_outer", "engine_unknown_key", "em_unknown_key", "engine_list", "engine_null",
        "engine_v_range", "matrix_kind"])
def test_run_names_a_wrong_shaped_field(tmp_path, capsys, field, value, message):
    # a list field takes a list; each refusal names the field, as an unknown key
    # does, and writes no output
    extra = {"sweep_param": "mean"} if field == "sweep_values" else {}
    out = tmp_path / "rows.csv"
    assert main(["run", _scenario_file(tmp_path, **extra, **{field: value}),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("kappa", 10), ("matrix_mean", 0.1)])
def test_run_and_gen_refuse_a_fixed_kappa_or_matrix_mean(tmp_path, capsys, field, value):
    # a kappa or mean sweep is what sets either; a file that writes one as a field is
    # refused by name and writes no file, never run on an i.i.d. zero-mean matrix
    recipe = {"m": 20, "n": 40, "k": 4, "rho": 0.25, "snr_db": 15.0, field: value}
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(recipe))
    for argv, message in (
            (["run", _scenario_file(tmp_path, **recipe), "--out", str(out)],
             f"unknown scenario fields: ['{field}']"),
            (["gen", str(spec), "--out", str(out)], f"gen draws at --seed; a spec takes no {field}")):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
        assert not out.exists(), argv


def test_gen_missing_spec_exits_two(tmp_path, capsys):
    assert main(["gen", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.npz")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.npz").exists()


def test_gen_takes_its_seed_from_the_option_alone(tmp_path, capsys):
    # a spec's seeds would be dropped without a word, so a spec that holds any is
    # refused by name, even when they match --seed; a negative --seed is refused too
    spec = tmp_path / "spec.json"
    out = tmp_path / "x.npz"
    base = {"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}
    for extra, argv, message in (
        ({"seeds": [5, 6]}, [], "gen draws at --seed; a spec takes no seeds"),
        ({"seeds": [3]}, ["--seed", "3"], "gen draws at --seed; a spec takes no seeds"),
        ({"seeds": [0.5]}, ["--seed", "3"], "gen draws at --seed; a spec takes no seeds"),
        ({}, ["--seed", "-1"], "seeds must be nonnegative, not (-1,)"),
    ):
        spec.write_text(json.dumps({**base, **extra}))
        assert main(["gen", str(spec), *argv, "--out", str(out)]) == 2, extra
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_gen_refuses_a_seed_its_archive_cannot_store(tmp_path, capsys):
    # np.savez would store a seed of 2**64 or more as a pickled object array, which
    # import_instance refuses, so gen refuses the seed and writes no file
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}))
    edge = tmp_path / "edge.npz"
    assert main(["gen", str(spec), "--seed", str(2**64 - 1), "--out", str(edge)]) == 0
    import_instance(str(edge))
    capsys.readouterr()
    for seed in (2**64, 10**20):
        out = tmp_path / f"{seed}.npz"
        assert main(["gen", str(spec), "--seed", str(seed), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: seed must fit in 64 bits, not {seed}\n"
        assert not out.exists()


def test_gen_refuses_a_sweep_spec(tmp_path, capsys):
    # one instance cannot hold a sweep's points
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0,
                                "sweep_param": "kappa", "sweep_values": [10, 100]}))
    out = tmp_path / "x.npz"
    assert main(["gen", str(spec), "--seed", "3", "--out", str(out)]) == 2
    assert "sweep_param" in capsys.readouterr().err
    assert not out.exists()


def test_gen_refuses_every_field_outside_the_recipe_before_any_draw(tmp_path, capsys,
                                                                    monkeypatch):
    # one draw reads the recipe alone, so a spec that writes any other Scenario field,
    # even at a valid value, would lose it without a word; the set is derived from
    # the dataclass, so a field added later is refused until it joins the recipe
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr("hygec.bench.build_instance", no_draw)
    written = {"name": "custom", "seeds": [3], "algorithms": ["em-hygec"],
               "sweep_param": None, "sweep_values": [], "rho_init": 0.05}
    # the keys a scenario file may write: every field but the solver's configs
    others = {f.name for f in dataclasses.fields(Scenario)
              if not dataclasses.is_dataclass(f.default_factory)} - set(RECIPE)
    assert set(written) == others
    spec, out = tmp_path / "spec.json", tmp_path / "x.npz"
    base = {"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}
    for name in sorted(others):
        Scenario.from_dict({"name": "custom", "seeds": [3], **base, name: written[name]})
        spec.write_text(json.dumps({**base, name: written[name]}))
        assert main(["gen", str(spec), "--seed", "3", "--out", str(out)]) == 2, name
        assert capsys.readouterr().err == f"error: gen draws at --seed; a spec takes no {name}\n"
        assert not out.exists()
    # every such key is named, in sorted order, a key Scenario does not know too
    spec.write_text(json.dumps({**base, "seeds": [3], "nope": 1, "engine": {}}))
    assert main(["gen", str(spec), "--out", str(out)]) == 2
    message = "gen draws at --seed; a spec takes no engine, nope, seeds"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_reads_every_recipe_field(tmp_path, capsys):
    recipe = {"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0, "bits": 2,
              "sigma_x_sq": 2.0}
    assert sorted(recipe) == sorted(RECIPE)
    spec, out = tmp_path / "spec.json", tmp_path / "x.npz"
    spec.write_text(json.dumps(recipe))
    assert main(["gen", str(spec), "--seed", "3", "--out", str(out)]) == 0
    inst = import_instance(str(out))
    ref = build_instance(Scenario(name="custom", seeds=(3,), **recipe), 3, None)
    assert inst.channel == ref.channel and inst.sigma_x_sq == 2.0
    assert np.array_equal(inst.H, ref.H)
    assert np.array_equal(inst.y, ref.y)


def test_a_repeated_key_exits_two(tmp_path, capsys):
    # json alone would keep the last copy; a repeat at any depth is refused by name
    path, out = tmp_path / "file.json", tmp_path / "out.npz"
    head = '{"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0'
    scenario = head + ', "name": "custom", "seeds": [0], "algorithms": ["em-hygec"]'
    for command, text, key in (
        ("run", scenario + ', "rho": 0.5}', "rho"),
        ("run", scenario + ', "engine": {"v_max": 1e4, "v_max": 1e5}}', "v_max"),
        ("run", scenario + ', "em": {"max_outer": 3, "max_outer": 4}}', "max_outer"),
        ("gen", head + ', "rho": 0.5}', "rho"),
        ("gen", head + ', "engine": {"v_max": 1e4, "v_max": 1e5}}', "v_max"),
    ):
        path.write_text(text)
        argv = [command, str(path)] + (["--out", str(out)] if command == "gen" else [])
        assert main(argv) == 2, text
        assert capsys.readouterr().err == f"error: repeated key(s) {key}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, text", [("run", "[" * 100_000), ("gen", '{"a": ' * 100_000)],
                         ids=["run", "gen"])
def test_json_nested_past_the_recursion_limit_exits_two(tmp_path, capsys, command, text):
    # the decoder's RecursionError is refused as invalid JSON, not left as a traceback
    path = tmp_path / "deep.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")
    assert not out.exists()


def test_an_output_path_in_a_missing_directory_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["run", _scenario_file(tmp_path), "--out", str(missing / "rows.csv")]) == 2
    assert "error: " in capsys.readouterr().err
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}))
    assert main(["gen", str(spec), "--out", str(missing / "x.npz")]) == 2
    assert "error: " in capsys.readouterr().err
    assert not missing.exists()


def test_run_refuses_a_bad_sweep_point_before_any_trial(tmp_path, capsys, monkeypatch):
    # each is refused at load with the message of the layer that owns the rule,
    # so no trial runs
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("hygec.bench.run_trial", no_trial)
    for message, overrides in (
        ("kappa must lie in [1, 1e+14], not 0.5", dict(sweep_param="kappa", sweep_values=[1, 10, 0.5])),
        ("a 1-row matrix cannot have kappa > 1", dict(m=1, sweep_param="kappa", sweep_values=[2])),
        ("need m <= n", dict(m=40)),
        ("matrix dimensions must be positive", dict(m=0)),
        ("quantized channel needs 1 <= bits <= 16", dict(bits=20)),
        ("sigma_x_sq must be positive", dict(sigma_x_sq=-1)),
        ("rho_init must lie in (0, 1)", dict(rho_init=5)),
    ):
        assert main(["run", _scenario_file(tmp_path, **overrides)]) == 2, message
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, value", [("snr_db", 3100), ("snr_db", -3300), ("snr_db", -3200),
                                          ("kappa", 1e200), ("kappa", 1e16)])
def test_run_and_gen_refuse_what_float64_cannot_draw_at_load(tmp_path, capsys, monkeypatch,
                                                              field, value):
    # 10^(snr_db/10) overflows at 3100 dB and is 0.0 at -3300 dB; at -3200 dB the noise
    # variance overflows instead. kappa 1e200 overflows the spectrum's sum of squares, and
    # at 1e16 the drawn condition number is no longer kappa. The bounds of snr_db
    # (+-300 dB) and kappa (1e14) refuse each by name before any draw. A kappa sweep
    # sets kappa, so kappa runs as a one-point sweep, which gen does not draw
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr("hygec.bench.build_instance", no_draw)
    recipe = {"m": 20, "n": 40, "k": 8, "rho": 0.25, "snr_db": 10.0}
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    if field == "kappa":
        argvs = [["run", _scenario_file(tmp_path, **recipe, sweep_param="kappa",
                                        sweep_values=[value]), "--out", str(out)]]
    else:
        recipe[field] = value
        spec.write_text(json.dumps(recipe))
        argvs = [["gen", str(spec), "--out", str(out)],
                 ["run", _scenario_file(tmp_path, **recipe), "--out", str(out)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {field} must "), argv
        assert not out.exists(), argv


class _NoRoom:
    """A generator whose every draw numpy could index but not allocate."""

    def standard_normal(self, shape):
        raise MemoryError(f"Unable to allocate an array with shape {shape}")


@pytest.mark.parametrize("m, n, kappa, no_room", [
    (10**10, 10**10, None, False),  # numpy refuses the size before it allocates anything
    (20, 40, None, True),  # the i.i.d. draw, and the Haar factor below, cannot be allocated
    (20, 40, 10.0, True),
])
def test_run_and_gen_refuse_a_matrix_numpy_cannot_draw(tmp_path, capsys, monkeypatch,
                                                       m, n, kappa, no_room):
    # a MemoryError is only simulated: no test asks numpy for an array it might really commit.
    # A conditioned matrix is a one-point kappa sweep, which gen does not draw
    if no_room:
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoRoom())
    recipe = {"m": m, "n": n, "k": 1, "rho": 0.25, "snr_db": 10.0}
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    if kappa is not None:
        argvs = [["run", _scenario_file(tmp_path, **recipe, sweep_param="kappa",
                                        sweep_values=[kappa]), "--out", str(out)]]
    else:
        spec.write_text(json.dumps(recipe))
        argvs = [["gen", str(spec), "--out", str(out)],
                 ["run", _scenario_file(tmp_path, **recipe), "--out", str(out)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: cannot draw a {m} x {n} matrix: "), argv
        assert not out.exists(), argv


@pytest.mark.parametrize("written, derived", [
    ({"sigma_x_sq": 1e308}, "noise_var must be a finite float, not inf"),
    ({"bits": 2, "sweep_param": "mean", "sweep_values": [1e160]},
     "clip_range must be a finite float, not inf"),
], ids=["sigma_x_sq", "matrix_mean"])
def test_run_and_gen_name_the_fields_of_a_channel_float64_cannot_hold(tmp_path, capsys,
                                                                       written, derived):
    # the draw derives the noise variance and the clip range; when either overflows, the
    # refusal names what the user wrote, sigma_x_sq and the swept matrix mean, not only
    # the derived value. gen draws no sweep, so the mean runs through run alone
    recipe = {"m": 20, "n": 40, "k": 4, "rho": 0.25, "snr_db": 15.0, **written}
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(recipe))
    argvs = [["run", _scenario_file(tmp_path, **recipe), "--out", str(out)]]
    if "sweep_param" not in written:
        argvs.insert(0, ["gen", str(spec), "--out", str(out)])
    sigma_x_sq, (mean,) = written.get("sigma_x_sq", 1.0), written.get("sweep_values", [0.0])
    message = (f"error: sigma_x_sq {sigma_x_sq:g} and matrix mean {mean:g} give a channel "
               f"float64 cannot hold ({derived})\n")
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == message, argv
        assert not out.exists(), argv


def test_run_failure_exit_codes(tmp_path, capsys, monkeypatch):
    bad_row = {
        "scenario": "custom", "seed": 0, "sweep_value": None,
        "algorithm": "hygec-known-rho", "iteration": 1, "nmse_db": None,
        "rho_est": 0.2, "terminated": NUMERICAL_FAILURE, "wall_ms": 1.0,
    }
    monkeypatch.setattr("hygec.bench.run_scenario", lambda sc: [bad_row])
    sc = _scenario_file(tmp_path)
    out = tmp_path / "a.csv"
    assert main(["run", sc, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "1 trial(s) hit numerical_failure" in captured.err
    assert "failures=1" in captured.out
    header, row = out.read_text().splitlines()  # the failed trial's row is still written
    assert row.split(",")[header.split(",").index("terminated")] == NUMERICAL_FAILURE
    with pytest.raises(SystemExit) as exc:  # no flag turns the failure into exit 0
        main(["run", sc, "--allow-failures", "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "b.csv").exists()


def test_gen_round_trips_through_import(tmp_path, capsys):
    spec = tmp_path / "inst.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}))
    out = tmp_path / "inst.npz"
    assert main(["gen", str(spec), "--seed", "3", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    inst = import_instance(str(out))
    ref = build_instance(
        Scenario(name="custom", m=10, n=20, k=4, rho=0.25, snr_db=15.0, seeds=(3,)), 3, None
    )
    assert np.array_equal(inst.H, ref.H)
    assert np.array_equal(inst.y, ref.y)
    assert np.array_equal(inst.x_true, ref.x_true)


def test_gen_writes_the_out_path_as_given(tmp_path, capsys):
    spec = tmp_path / "inst.json"
    spec.write_text(json.dumps({"m": 10, "n": 20, "k": 4, "rho": 0.25, "snr_db": 15.0}))
    out = tmp_path / "inst"  # no suffix
    assert main(["gen", str(spec), "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst", "inst.json"]
    inst = import_instance(str(out))
    ref = build_instance(
        Scenario(name="custom", m=10, n=20, k=4, rho=0.25, snr_db=15.0, seeds=(3,)), 3, None
    )
    assert np.array_equal(inst.H, ref.H)
    assert np.array_equal(inst.y, ref.y)


def test_check_reports_all_parity_lines(capsys):
    assert main(["check"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)
    names = {l.split()[1].rstrip(":") for l in lines}
    assert names == {
        "linear-denoiser-vs-quadrature",
        "quantized-denoiser-vs-quadrature",
        "spike-slab-vs-two-branch",
        "engine-vs-exact-enumeration",
    }


def test_check_fails_the_check_whose_error_is_over_its_bound(capsys, monkeypatch):
    calls = []

    def spy(draws):
        calls.append(draws)
        return 0.0, 2e-6, 0.0, 0.0, 0.0  # linear variance error over its 1e-6 bound

    monkeypatch.setattr("hygec.cli.denoiser_parity", spy)
    assert main(["check"]) == 1
    assert calls == [100]
    lines = [l.split()[:2] for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [(name.rstrip(":"), verdict) for verdict, name in lines] == [
        ("linear-denoiser-vs-quadrature", "FAIL"),
        ("quantized-denoiser-vs-quadrature", "PASS"),
        ("spike-slab-vs-two-branch", "PASS"),
        ("engine-vs-exact-enumeration", "PASS"),
    ]


def test_check_fails_the_enumeration_check_on_a_nonconverged_seed(capsys, monkeypatch):
    calls = []

    def spy(seeds):
        calls.append(seeds)
        return 1e-3, 2e-3, 1e-3, 1  # errors under their bounds, one seed not converged

    monkeypatch.setattr("hygec.cli.enumeration_parity", spy)
    assert main(["check"]) == 1
    assert calls == [range(10)]
    lines = [l.split()[:2] for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [(name.rstrip(":"), verdict) for verdict, name in lines] == [
        ("linear-denoiser-vs-quadrature", "PASS"),
        ("quantized-denoiser-vs-quadrature", "PASS"),
        ("spike-slab-vs-two-branch", "PASS"),
        ("engine-vs-exact-enumeration", "FAIL"),
    ]


def test_check_fails_when_no_enumeration_seed_converges(capsys, monkeypatch):
    # every run capped at one sweep: no seed converges, so there is no error to
    # pool, and the check prints FAIL rather than dividing by zero
    monkeypatch.setattr("hygec.engine.MAX_ITER", 1)
    monkeypatch.setattr("hygec.cli.denoiser_parity", lambda draws: (0.0,) * 5)
    assert main(["check"]) == 1
    *_, last = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert last.startswith("FAIL engine-vs-exact-enumeration: pooled rms nan")
    assert last.endswith("nonconverged 10/10")
