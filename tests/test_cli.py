import json

import numpy as np
import pytest

from cluttertrack.cli import main
from cluttertrack.domain import five_crossing_targets
from cluttertrack.scenario import generate_scans, generate_truth


def _simulate_then_track(tmp_path, config):
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
            "ha",
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


def test_track_csv_warns_about_assumed_scenario(tmp_path, capsys):
    code, out = _simulate_then_track(tmp_path, five_crossing_targets())
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "p_d 0.9" in err and "e_lambda 20.0" in err

    sim = tmp_path / "sim"
    argv = ["track", str(sim / "scans.csv"), "--truth", str(sim / "truth.csv"), "--method", "ha"]
    assert main(argv + ["--pd", "0.9", "--elambda", "20", "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
