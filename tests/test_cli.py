import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cluttertrack import cli
from cluttertrack.cli import main
from cluttertrack.deepda import NetConfig, init_model, save_model
from cluttertrack.domain import Region, ScenarioConfig, five_crossing_targets
from cluttertrack.scenario import generate_scans, generate_truth

from conftest import identity_norm


def _simulate_then_track(tmp_path, config, method="ha"):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(config.to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", str(config_path), "--out", str(sim)]) == 0
    out = tmp_path / "track"
    code = main(
        [
            "track",
            str(sim / "scans.csv"),
            "--truth",
            str(sim / "truth.csv"),
            "--method",
            method,
            "--out",
            str(out),
        ]
    )
    return code, out


def test_simulate_then_track_reference(tmp_path):
    code, out = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    assert (out / "metrics.json").exists()


# Seed 1 leaves scan 14 empty; seed 10 leaves the last scan (19) empty.
@pytest.mark.parametrize("seed", [1, 10])
def test_simulate_then_track_with_empty_scan(tmp_path, seed):
    config = five_crossing_targets(p_d=0.5, e_lambda=0.0, seed=seed)
    scans = generate_scans(generate_truth(config), seed)
    assert any(s.num_measurements == 0 for s in scans), "scenario must contain an empty scan"
    code, out = _simulate_then_track(tmp_path, config)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    # Empty scans read back labelled, so identity switches are still scored.
    assert metrics["stti"] is not None
    assert np.isfinite(metrics["ospa_mean"])


def test_track_malformed_truth_exits_with_config_code(tmp_path, capsys):
    code, out = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    truth_path = tmp_path / "sim" / "truth.csv"
    lines = truth_path.read_text().splitlines()
    lines[1] = "0,0,np.float64(5.0),np.float64(1.0),np.float64(11.0),np.float64(0.4)"
    truth_path.write_text("\n".join(lines) + "\n")
    scans_path = tmp_path / "sim" / "scans.csv"
    argv = ["track", str(scans_path), "--truth", str(truth_path), "--method", "ha"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "truth.csv, line 2" in capsys.readouterr().err


# Without scan 2 but with a scan 20, scans.csv still holds 20 scans; it used
# to be tracked, scan 3 scored against truth epoch 2.
@pytest.mark.parametrize(
    "name, drop, extra, message",
    [
        ("truth.csv", "3,4,", [], "truth.csv: no state for scan 3, target 4"),
        ("scans.csv", "2,", ["20,0,5.0,11.0,-1"], "scans.csv: scans must run 0..19; scan 2 has no rows"),
    ],
)
def test_track_csv_with_a_missing_row_exits_with_config_code(tmp_path, capsys, name, drop, extra, message):
    code, out = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    path = tmp_path / "sim" / name
    lines = [line for line in path.read_text().splitlines() if not line.startswith(drop)]
    path.write_text("\n".join(lines + extra) + "\n")
    sim = tmp_path / "sim"
    argv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv"), "--method", "ha"]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"{sim / message}" in capsys.readouterr().err


# Target 2 relabelled: 9 and -3 name no target of the five and used to be
# scored (exit 0), 1 repeats a label in scan 0 and named neither file nor scan.
@pytest.mark.parametrize(
    "label, message",
    [
        ("9", "{scans}: scan 0: target id 9, but {truth} has 5 targets\n"),
        ("-3", "{scans}, line {line}: malformed row "),
        ("1", "{scans}: scan 0: a target id appears on more than one measurement\n"),
    ],
    ids=["beyond-the-truth", "below-clutter", "repeated"],
)
def test_track_csv_refuses_a_wrong_target_label(tmp_path, capsys, label, message):
    code, _ = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    capsys.readouterr()
    sim = tmp_path / "sim"
    scans, truth = sim / "scans.csv", sim / "truth.csv"
    lines = [line[:-1] + label if line.endswith(",2") else line for line in scans.read_text().splitlines()]
    scans.write_text("\n".join(lines) + "\n")
    line = 1 + next(i for i, text in enumerate(lines) if text.endswith("," + label))
    argv = ["track", str(scans), "--truth", str(truth), "--method", "ha"]
    assert main(argv + ["--out", str(tmp_path / "refused")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(scans=scans, truth=truth, line=line)), err
    assert err.count("\n") == 1 and not (tmp_path / "refused").exists()


def _train_config(tmp_path, train):
    doc = {
        "base": five_crossing_targets().to_dict(),
        "variants": 2,
        "net": {"hidden": 4},
        "train": train,
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_rejects_unknown_field(tmp_path, capsys):
    config = _train_config(tmp_path, {"epochs": 1, "warmup": 3})
    assert main(["train", config, "--out", str(tmp_path / "model")]) == 2
    err = capsys.readouterr().err
    assert "warmup" in err
    assert "accepted fields are ['lr', 'batch', 'epochs', 'seed']" in err
    # Neither the measurement dimension nor gradient clipping is a setting,
    # and training has one recipe: no init choice, body rate or RMSprop
    # decay and guard to set.
    doc = json.loads(Path(config).read_text())
    for section, field, value in (
        ("net", "d", 2),
        ("train", "clip", 1.0),
        ("train", "init", "uniform"),
        ("train", "body_lr_scale", 0.5),
        ("train", "rho", 0.9),
        ("train", "eps", 1e-8),
    ):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**doc, section: {field: value}}))
        assert main(["train", str(path), "--out", str(tmp_path / "model")]) == 2
        assert f"{section}: unknown fields ['{field}']" in capsys.readouterr().err


def test_train_on_a_scenarios_list_of_mixed_target_counts(tmp_path, capsys):
    # A 2-target and a 3-target scenario give scan sequences of two lengths.
    states = ((5.0, 1.0, 11.0, 0.4), (5.0, 1.0, 15.0, 0.0), (5.0, 1.0, 19.0, -0.4))
    two = ScenarioConfig(num_targets=2, initial_states=states[:2], num_scans=5, e_lambda=5.0)
    three = replace(two, num_targets=3, initial_states=states, seed=1)
    path = tmp_path / "train.json"
    doc = {"scenarios": [two.to_dict(), three.to_dict()], "net": {"hidden": 4}, "train": {"epochs": 2}}
    path.write_text(json.dumps(doc))
    out = tmp_path / "model"
    assert main(["train", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert '"scenarios": 2' in printed and '"scan_sequences": 8' in printed
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,mean_loss" and len(curve) == 3
    assert main(["inspect-model", str(out / "model.json")]) == 0
    assert "net config: NetConfig(" in capsys.readouterr().out


REFERENCE = five_crossing_targets().to_dict()
BENCH = {"base": REFERENCE, "n_runs": 1, "methods": ["ha"]}
TRAIN = {"base": REFERENCE, "variants": 2, "net": {"hidden": 4}, "train": {"epochs": 1}}


@pytest.mark.parametrize(
    "command,doc,where",
    [
        ("simulate", 5, "scenario"),
        ("simulate", [REFERENCE], "scenario"),
        ("simulate", {**REFERENCE, "region": [4.0, 30.0, 8.0, 22.0]}, "scenario.region"),
        ("simulate", {**REFERENCE, "region": 4.0}, "scenario.region"),
        ("simulate", {**REFERENCE, "initial_states": 5.0}, "scenario.initial_states"),
        ("simulate", {**REFERENCE, "num_targets": "x"}, "scenario.num_targets"),
        ("simulate", {**REFERENCE, "p_d": None}, "scenario.p_d"),
        ("bench", 5, "bench"),
        ("bench", {**BENCH, "ospa": [10.0, 2.0]}, "bench.ospa"),
        ("bench", {**BENCH, "ospa": {"c": "x"}}, "bench.ospa.c"),
        ("bench", {**BENCH, "n_runs": "x"}, "bench.n_runs"),
        ("bench", {**BENCH, "pd_values": 0.5}, "bench.pd_values"),
        ("bench", {**BENCH, "methods": "ha"}, "bench.methods"),
        ("train", 5, "train"),
        ("train", {**TRAIN, "net": [4]}, "train.net"),
        ("train", {**TRAIN, "variants": "x"}, "train.variants"),
        ("train", {**TRAIN, "train": {"lr": "x"}}, "train.train.lr"),
        ("train", {**TRAIN, "net": {"hidden": "x"}}, "train.net.hidden"),
        ("train", {**TRAIN, "scenarios": 5}, "train.scenarios"),
        ("simulate", {**REFERENCE, "num_targets": 5.7}, "scenario.num_targets"),
        ("simulate", {**REFERENCE, "num_targets": True}, "scenario.num_targets"),
        # A scenarios list names every training scenario, so either would be ignored.
        ("train", {"scenarios": [REFERENCE], "base": REFERENCE}, "train.base"),
        ("train", {"scenarios": [REFERENCE], "variants": 7}, "train.variants"),
        # A float field takes a JSON number only; these used to read as 1.0, 10.0, 5.0 and 1.0.
        ("simulate", {**REFERENCE, "p_d": True}, "scenario.p_d"),
        ("bench", {**BENCH, "ospa": {"c": "10"}}, "bench.ospa.c"),
        (
            "simulate",
            {**REFERENCE, "initial_states": [["5", 1.0, 11.0, 0.4]] + REFERENCE["initial_states"][1:]},
            "scenario.initial_states[0][0]",
        ),
        ("train", {**TRAIN, "train": {"lr": True}}, "train.train.lr"),
        # It used to be refused as "variant count must be >= 1", after --out was made.
        ("train", {**TRAIN, "variants": 0}, "train.variants"),
        # A negative seed used to reach numpy's SeedSequence and exit 1 with its traceback.
        ("simulate", {**REFERENCE, "seed": -1}, "scenario"),
        ("bench", {**BENCH, "base": {**REFERENCE, "seed": -1}}, "bench.base"),
        ("train", {**TRAIN, "base": {**REFERENCE, "seed": -1}}, "train.base"),
        ("train", {**TRAIN, "net": {"hidden": 4, "seed": -1}}, "train.net"),
        ("train", {**TRAIN, "train": {"epochs": 1, "seed": -1}}, "train.train"),
        # An axis value out of range used to be refused by run_grid, after --out was made.
        ("bench", {**BENCH, "pd_values": [0.9, 1.5]}, "bench: pd_values[1]"),
        ("bench", {**BENCH, "elambda_values": [-1]}, "bench: elambda_values[0]"),
        ("bench", {**BENCH, "pd_values": [float("nan")]}, "bench: pd_values[0]"),
        # The base scenario's seed is the grid's; a spec has none of its own.
        ("bench", {**BENCH, "seed": 3}, "bench"),
    ],
)
def test_malformed_config_exits_with_config_code_naming_the_field(
    tmp_path, capsys, command, doc, where
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()  # refused before any work


def test_train_with_m_max_below_a_training_scan_names_the_field_scenario_and_scan(tmp_path, capsys):
    config = _train_config(tmp_path, {"epochs": 1})
    doc = json.loads(Path(config).read_text())
    Path(config).write_text(json.dumps({**doc, "net": {"hidden": 4, "m_max": 20}}))
    # The first scan (after scan 0, which only starts the tracks) above 20.
    base = five_crossing_targets()
    variant, k, m = next(
        (v, k, scan.num_measurements)
        for v in range(2)
        for k, scan in enumerate(generate_scans(generate_truth(base), base.seed + v))
        if k and scan.num_measurements > 20
    )
    assert main(["train", config, "--out", str(tmp_path / "model")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: train.net.m_max: training scenario {variant} (seed {base.seed + variant}), "
        f"scan {k} has {m} measurements, capacity is m_max=20\n"
    )


def test_track_with_non_finite_model_exits_with_config_code(tmp_path, capsys):
    cfg = NetConfig(m_max=3, hidden=4)
    path = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    doc = json.loads(path.read_text())
    doc["parameters"]["w_out"][0] = float("nan")
    path.write_text(json.dumps(doc))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    argv = ["track", str(scenario), "--method", "deepda", "--model", str(path)]
    assert main(argv + ["--out", str(tmp_path / "track")]) == 2
    assert "corrupt model file" in capsys.readouterr().err


def test_track_csv_warns_about_assumed_scenario(tmp_path, capsys):
    code, out = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "p_d 0.9" in err and "e_lambda 20.0" in err and "dt 1.0" in err

    sim = tmp_path / "sim"
    argv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv"), "--method", "ha"]
    argv += ["--out", str(out)]
    # The scan interval alone is still assumed, and named.
    assert main(argv + ["--pd", "0.9", "--elambda", "20"]) == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1 and "dt 1.0" in err and "--dt" in err
    assert main(argv + ["--pd", "0.9", "--elambda", "20", "--dt", "1"]) == 0
    assert "warning" not in capsys.readouterr().err
    # A given --dt is the interval the filter runs with.
    assert main(argv + ["--dt", "0.5"]) == 0
    err = capsys.readouterr().err
    assert "dt 0.5" in err


def test_track_csv_outside_the_default_region(tmp_path, capsys):
    # Targets far outside the default region; the assumed region grows to
    # cover the initial positions and every measurement.
    config = ScenarioConfig(
        num_targets=2,
        initial_states=((50.0, 1.0, 50.0, 0.0), (50.0, 1.0, 55.0, 0.0)),
        e_lambda=5.0,
        region=Region(0.0, 100.0, 0.0, 100.0),
        seed=2,
    )
    for method in ("ha", "jpda"):
        code, out = _simulate_then_track(tmp_path, config, method)
        assert code == 0
        assert (out / "tracks.csv").exists()
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "Region(xmin=" in err
        assert "Region(xmin=4.0, xmax=30.0, ymin=8.0, ymax=22.0)" not in err


def test_bench_writes_raw_csv_in_a_new_out(tmp_path, capsys):
    doc = {"base": five_crossing_targets().to_dict(), "n_runs": 1, "methods": ["ha"]}
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "new"
    assert main(["bench", str(spec), "--out", str(out)]) == 0
    assert (out / "raw.csv").read_text().startswith("method,p_d,e_lambda,run,ospa,stti,time_s")
    assert f"wrote {out / 'raw.csv'}\n" in capsys.readouterr().out


def test_simulate_track_then_bench_with_raw_log(tmp_path):
    code, _ = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    doc = {
        "base": five_crossing_targets(seed=3).to_dict(),
        "n_runs": 2,
        "methods": ["ha", "jpda"],
    }
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "bench"
    assert main(["bench", str(spec), "--out", str(out)]) == 0
    assert (out / "report.csv").exists() and (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["errors"] == []
    lines = (out / "raw.csv").read_text().splitlines()
    assert lines[0] == "method,p_d,e_lambda,run,ospa,stti,time_s"
    keys = sorted(tuple(line.split(",")[i] for i in (0, 3)) for line in lines[1:])
    assert keys == [("ha", "0"), ("ha", "1"), ("jpda", "0"), ("jpda", "1")]
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1:3] == ["0.9", "20.0"]
        assert np.isfinite(float(fields[4])) and float(fields[6]) > 0


def test_track_numerical_failure_exits_3_and_names_the_scan(tmp_path, capsys):
    # At p_d 1 a JPDA cluster with more tracks than gated measurements has
    # no event of positive weight; seed 10 reaches one at scan 18.
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(five_crossing_targets(p_d=1.0, e_lambda=0.0, seed=10).to_dict()))
    code = main(["track", str(config), "--method", "jpda", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: scan 18:")


def _track_a_far_measurement(tmp_path, capsys, x, y):
    """Exit code and standard error of HA, JPDA and DeepDA (an untrained
    model) tracking the lambda 0 reference simulation with a clutter point
    at (x, y) appended to scan 3."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(five_crossing_targets(e_lambda=0.0).to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", str(config), "--out", str(sim)]) == 0
    lines = (sim / "scans.csv").read_text().splitlines()
    k = sum(line.startswith("3,") for line in lines)
    (sim / "far.csv").write_text("\n".join(lines + [f"3,{k},{x},{y},-1"]) + "\n")
    cfg = NetConfig(m_max=8, hidden=4)
    model = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), model)
    argv = ["track", str(sim / "far.csv"), "--truth", str(sim / "truth.csv"), "--model", str(model)]
    argv += ["--pd", "0.9", "--elambda", "0", "--dt", "1"]
    capsys.readouterr()
    results = {}
    for method in ("ha", "jpda", "deepda"):
        code = main(argv + ["--method", method, "--out", str(tmp_path / method)])
        results[method] = code, capsys.readouterr().err
    return results


def test_track_a_far_measurement_exits_0_or_3_naming_the_scan(tmp_path, capsys):
    # A clutter point 1e200 m off in scan 3: outside every gate of HA and
    # JPDA, while DeepDA weighs it and its update overflows.
    results = _track_a_far_measurement(tmp_path, capsys, "1e200", "15.0")
    assert results["ha"] == results["jpda"] == (0, "")
    code, err = results["deepda"]
    assert code == 3
    assert err.startswith("error: scan 3: track ") and err.count("\n") == 1, err


def test_track_an_update_that_loses_psd_exits_3_naming_the_scan(tmp_path, capsys):
    # At 1e154 m the update stays finite but its covariance comes out
    # indefinite: a numerical failure, not a broken contract.
    code, err = _track_a_far_measurement(tmp_path, capsys, "1e154", "15")["deepda"]
    assert code == 3
    assert err == "error: scan 3: track 0: updated covariance is not PSD\n"


def test_track_a_measurement_that_overflows_the_region_names_the_file_scan_and_row(tmp_path, capsys):
    # Far off in both axes, the point makes the covering region's area inf.
    results = _track_a_far_measurement(tmp_path, capsys, "1e200", "1e200")
    far = tmp_path / "sim" / "far.csv"
    k = sum(line.startswith("3,") for line in far.read_text().splitlines()) - 1
    message = f"error: {far}: scan 3: measurement {k} at (1e+200, 1e+200) makes the area of the region "
    for code, err in results.values():
        assert code == 2
        assert err == message + "covering the data overflow\n"


def test_train_help_says_how_to_pin_openblas_threads(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "OPENBLAS_NUM_THREADS=1" in out
    assert "when numpy loads" in out


def test_track_single_scan_scenario_exits_2_and_writes_no_metrics(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(replace(five_crossing_targets(), num_scans=1).to_dict()))
    out = tmp_path / "out"
    code = main(["track", str(config), "--method", "ha", "--out", str(out)])
    assert code == 2
    assert "error: tracking needs at least 2 scans, got 1" in (
        capsys.readouterr().err
    )
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--ospa-c", "0", "c must be finite and > 0, got 0.0"),
        ("--ospa-p", "0.5", "p must be finite and >= 1, got 0.5"),
        ("--dt", "0", "dt must be finite and > 0, got 0.0"),
        ("--pd", "1.5", "p_d must be in (0, 1], got 1.5"),
        ("--elambda", "-1", "e_lambda must be >= 0, got -1.0"),
    ],
)
def test_track_range_error_leads_with_its_flag_before_creating_out(tmp_path, capsys, flag, value, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(sim)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv"), "--method", "ha"]
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_bench_refuses_fewer_than_one_job_before_creating_out(tmp_path, capsys, jobs):
    bench_spec = tmp_path / "bench.json"
    doc = {"base": five_crossing_targets().to_dict(), "n_runs": 1, "methods": ["ha"]}
    bench_spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bench", str(bench_spec), "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "train", "track", "bench"])
def test_out_naming_a_file_exits_with_config_code_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    bench_spec = tmp_path / "bench.json"
    doc = {"base": five_crossing_targets().to_dict(), "n_runs": 1, "methods": ["ha"]}
    bench_spec.write_text(json.dumps(doc))
    # Each subcommand's input, and the functions that do its work.
    argv, work = {
        "simulate": (["simulate", str(scenario)], ["generate_truth", "generate_scans"]),
        "train": (
            ["train", _train_config(tmp_path, {"epochs": 1, "batch": 8})],
            ["make_training_set", "train"],
        ),
        "track": (["track", str(scenario), "--method", "ha"], ["track_scans"]),
        "bench": (["bench", str(bench_spec)], ["run_grid"]),
    }[command]

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was created")

    for name in work:
        monkeypatch.setattr(cli, name, no_work)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(argv + ["--out", str(afile)]) == 2
    assert f"error: cannot create output directory {afile}" in capsys.readouterr().err
    assert afile.read_text() == ""


@pytest.mark.parametrize("missing", ["scans.csv", "truth.csv", "model_path"])
def test_a_missing_input_file_exits_2_before_creating_out(tmp_path, capsys, monkeypatch, missing):
    sim = tmp_path / "sim"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    assert main(["simulate", str(scenario), "--out", str(sim)]) == 0
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was read")

    for name in ("track_scans", "run_grid"):
        monkeypatch.setattr(cli, name, no_work)
    gone = tmp_path / "gone" / ("model.json" if missing == "model_path" else missing)
    if missing == "model_path":
        bench_spec = tmp_path / "bench.json"
        doc = {"base": five_crossing_targets().to_dict(), "n_runs": 1, "methods": ["ha", "deepda"]}
        bench_spec.write_text(json.dumps({**doc, "model_path": str(gone)}))
        argv = ["bench", str(bench_spec)]
    else:
        inputs = {"scans.csv": sim / "scans.csv", "truth.csv": sim / "truth.csv", missing: gone}
        argv = ["track", str(inputs["scans.csv"]), "--truth", str(inputs["truth.csv"]), "--method", "ha"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {'model file ' if missing == 'model_path' else ''}{gone}: ")
    assert err.count("\n") == 1 and "No such file" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["scans.csv", "truth.csv", "scenario config", "bench spec", "model file"])
def test_an_input_file_that_is_not_utf8_exits_2_before_creating_out(tmp_path, capsys, bad):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(sim)]) == 0
    capsys.readouterr()
    bench_spec = tmp_path / "bench.json"
    bench_spec.write_text(json.dumps(BENCH))
    model = tmp_path / "model.json"
    cfg = NetConfig(m_max=64, hidden=4)
    save_model(init_model(cfg, identity_norm(cfg.features)), model)
    track_csv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv"), "--method", "ha"]
    path, argv = {
        "scans.csv": (sim / "scans.csv", track_csv),
        "truth.csv": (sim / "truth.csv", track_csv),
        "scenario config": (scenario, ["simulate", str(scenario)]),
        "bench spec": (bench_spec, ["bench", str(bench_spec)]),
        "model file": (model, ["track", str(scenario), "--method", "deepda", "--model", str(model)]),
    }[bad]
    path.write_bytes(b"\xff" + path.read_bytes())
    message = f"error: cannot read {'model file ' if bad == 'model file' else ''}{path}: "
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "can't decode byte 0xff" in err
    assert not out.exists()
    if bad == "model file":
        assert main(["inspect-model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err


def test_track_names_both_files_when_the_scans_outnumber_the_truth_epochs(tmp_path, capsys):
    code, _ = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    capsys.readouterr()
    sim = tmp_path / "sim"
    scans, truth = sim / "scans.csv", sim / "truth.csv"
    truth.write_text("".join(line for line in truth.read_text().splitlines(True) if not line.startswith("19,")))
    out = tmp_path / "out"
    assert main(["track", str(scans), "--truth", str(truth), "--method", "ha", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {scans} holds 20 scans but {truth} holds 19 truth epochs\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, csv_input",
    [
        ("--truth", "truth.csv", False),
        ("--dt", "0.5", False),
        ("--pd", "0.9", False),
        ("--elambda", "20", False),
    ],
)
def test_track_refuses_a_flag_its_input_would_ignore_before_any_work(
    tmp_path, capsys, monkeypatch, flag, value, csv_input
):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(five_crossing_targets().to_dict()))
    sim = tmp_path / "sim"
    assert main(["simulate", str(scenario), "--out", str(sim)]) == 0
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    for name in ("load_model", "read_scans_csv", "read_truth_states", "generate_truth", "track_scans"):
        monkeypatch.setattr(cli, name, no_work)
    if csv_input:
        argv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv")]
        where = "scenario config"
    else:
        argv = ["track", str(scenario)]
        where = "scans.csv"
    out = tmp_path / "out"
    assert main(argv + ["--method", "ha", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} applies to {where} input only, not to {argv[1]}\n"
    assert not out.exists()
