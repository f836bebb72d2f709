import json

import numpy as np
import pytest

from cluttertrack.cli import main
from cluttertrack.domain import Region, ScenarioConfig, five_crossing_targets
from cluttertrack.scenario import generate_scans, generate_truth


def _simulate_then_track(tmp_path, config, method="ha"):
    config_path = tmp_path / "scenario.json"
    config_path.write_text(config.to_json())
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


def test_train_accepts_init_and_body_lr_scale(tmp_path):
    config = _train_config(
        tmp_path, {"epochs": 1, "batch": 8, "init": "uniform", "body_lr_scale": 0.5}
    )
    assert main(["train", config, "--out", str(tmp_path / "model")]) == 0
    assert (tmp_path / "model" / "model.json").exists()


def test_train_rejects_unknown_field(tmp_path, capsys):
    config = _train_config(tmp_path, {"epochs": 1, "warmup": 3})
    assert main(["train", config, "--out", str(tmp_path / "model")]) == 2
    assert "warmup" in capsys.readouterr().err
    # Neither the measurement dimension nor gradient clipping is a setting.
    doc = json.loads(open(config).read())
    for section, field, value in (("net", "d", 2), ("train", "clip", 1.0)):
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps({**doc, section: {field: value}}))
        assert main(["train", str(path), "--out", str(tmp_path / "model")]) == 2
        assert f"{section}: unknown fields ['{field}']" in capsys.readouterr().err


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


def test_bench_raw_log_in_a_new_or_missing_directory(tmp_path, capsys):
    doc = {"base": five_crossing_targets().to_dict(), "n_runs": 1, "methods": ["ha"]}
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps(doc))
    # --out is created before the grid runs, so the raw log may go inside it.
    out = tmp_path / "new"
    assert main(["bench", str(spec), "--out", str(out), "--raw-log", str(out / "raw.csv")]) == 0
    assert (out / "raw.csv").read_text().startswith("method,p_d,e_lambda,run,ospa,stti,time_s")
    capsys.readouterr()
    # A directory nothing creates fails before the first episode.
    out, raw = tmp_path / "other", tmp_path / "missing" / "raw.csv"
    assert main(["bench", str(spec), "--out", str(out), "--raw-log", str(raw)]) == 2
    assert f"error: cannot write raw log {raw}" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_simulate_track_then_bench_with_raw_log(tmp_path):
    code, _ = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    doc = {
        "base": five_crossing_targets().to_dict(),
        "n_runs": 2,
        "methods": ["ha", "jpda"],
        "seed": 3,
    }
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps(doc))
    out, raw = tmp_path / "bench", tmp_path / "raw.csv"
    assert main(["bench", str(spec), "--out", str(out), "--raw-log", str(raw)]) == 0
    assert (out / "report.csv").exists() and (out / "report.json").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["errors"] == []
    lines = raw.read_text().splitlines()
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
    config.write_text(five_crossing_targets(p_d=1.0, e_lambda=0.0, seed=10).to_json())
    code = main(["track", str(config), "--method", "jpda", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: scan 18:")
