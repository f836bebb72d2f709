import json
import math
import pickle

import pytest

from cluttertrack import bench
from cluttertrack.bench import (
    BenchReport,
    BenchRow,
    BenchSpec,
    RawEpisodeRow,
    emit_report,
    run_grid,
    write_raw_log,
)
from cluttertrack.deepda import LstmModel, NetConfig, identity_norm, init_model, save_model
from cluttertrack.domain import five_crossing_targets

ACCURACY_COLUMNS = ("ospa_mean", "ospa_std", "stti_mean", "stti_std")


@pytest.fixture
def model_path(tmp_path):
    # Untrained and small: enough slots for every λ 20 scan of the grids below.
    cfg = NetConfig(m_max=64, hidden=4)
    path = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    return str(path)


def _spec(model_path, methods):
    return BenchSpec(
        base=five_crossing_targets(),
        pd_values=(0.9,),
        elambda_values=(20.0,),
        n_runs=2,
        methods=methods,
        model_path=model_path,
        seed=3,
    )


def test_parallel_grid_reproduces_serial_accuracy_columns(model_path):
    spec = _spec(model_path, ("ha", "jpda", "deepda"))
    serial = run_grid(spec, jobs=1)
    parallel = run_grid(spec, jobs=2)
    assert serial.meta["errors"] == [] and parallel.meta["errors"] == []
    for a, b in zip(serial.rows, parallel.rows):
        assert a.method == b.method
        for col in ACCURACY_COLUMNS:
            assert getattr(a, col) == getattr(b, col), (a.method, col)


def test_deepda_payload_does_not_carry_the_model(model_path, monkeypatch):
    seen = []
    original = bench._episode_job

    def recording_job(payload, model=None):
        seen.append((payload, model))
        return original(payload, model)

    monkeypatch.setattr(bench, "_episode_job", recording_job)
    report = run_grid(_spec(model_path, ("deepda",)), jobs=1)
    assert report.meta["errors"] == []
    assert len(seen) == 2
    for payload, model in seen:
        assert isinstance(model, LstmModel)
        assert not any(isinstance(part, LstmModel) for part in payload)
        assert len(pickle.dumps(payload)) < len(pickle.dumps(model))


def test_every_failing_episode_is_recorded_with_its_context(tmp_path):
    # One slot is too few for any λ 20 scan, so every episode fails on scan 1.
    cfg = NetConfig(m_max=1, hidden=4)
    path = tmp_path / "tiny.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    report = run_grid(_spec(str(path), ("ha", "deepda")), jobs=1)
    ha, deepda = report.rows
    assert ha.method == "ha" and not math.isnan(ha.ospa_mean)
    assert deepda.method == "deepda"
    assert all(math.isnan(getattr(deepda, col)) for col in ACCURACY_COLUMNS)
    errors = report.meta["errors"]
    assert [(e["method"], e["p_d"], e["e_lambda"], e["run"], e["seed"]) for e in errors] == [
        ("deepda", 0.9, 20.0, 0, [3, 0, 0, 0]),
        ("deepda", 0.9, 20.0, 1, [3, 0, 0, 1]),
    ]
    for e in errors:
        assert e["error"].startswith("CapacityError: scan 1: scan has ")
    assert json.loads(json.dumps(report.meta))["errors"] == errors


def _crlf(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def test_report_files_match_golden_text(tmp_path):
    # A failed cell (NaN row), whole floats (26.0) and a float whose repr is
    # long; the two plot files sort the same rows by different columns.
    nan = float("nan")
    report = BenchReport(
        (
            BenchRow("jpda", 0.9, 26.0, 0.75, 0.125, 1.5, 0.5, 0.0123),
            BenchRow("deepda", 0.9, 26.0, nan, nan, nan, nan, nan),
            BenchRow("jpda", 0.5, 40.0, 0.1 + 0.2, 0.0, 0.0, 0.0, 2e-05),
        ),
        {"seed": 3},
    )
    paths = emit_report(report, tmp_path / "out")
    out = tmp_path / "out"
    assert {key: str(path) for key, path in paths.items()} == {
        "csv": str(out / "report.csv"),
        "ospa_vs_elambda.csv": str(out / "ospa_vs_elambda.csv"),
        "ospa_vs_pd.csv": str(out / "ospa_vs_pd.csv"),
        "json": str(out / "report.json"),
    }
    assert (out / "report.csv").read_bytes() == _crlf(
        "method,p_d,e_lambda,ospa_mean,ospa_std,stti_mean,stti_std,time_mean_s",
        "jpda,0.9,26.0,0.75,0.125,1.5,0.5,0.0123",
        "deepda,0.9,26.0,nan,nan,nan,nan,nan",
        "jpda,0.5,40.0,0.30000000000000004,0.0,0.0,0.0,2e-05",
    )
    assert (out / "ospa_vs_elambda.csv").read_bytes() == _crlf(
        "method,p_d,e_lambda,ospa_mean,ospa_std",
        "deepda,0.9,26.0,nan,nan",
        "jpda,0.9,26.0,0.75,0.125",
        "jpda,0.5,40.0,0.30000000000000004,0.0",
    )
    assert (out / "ospa_vs_pd.csv").read_bytes() == _crlf(
        "method,p_d,e_lambda,ospa_mean,ospa_std",
        "deepda,0.9,26.0,nan,nan",
        "jpda,0.5,40.0,0.30000000000000004,0.0",
        "jpda,0.9,26.0,0.75,0.125",
    )
    assert (out / "report.json").read_text() == """{
  "meta": {
    "seed": 3
  },
  "rows": [
    {
      "method": "jpda",
      "p_d": 0.9,
      "e_lambda": 26.0,
      "ospa_mean": 0.75,
      "ospa_std": 0.125,
      "stti_mean": 1.5,
      "stti_std": 0.5,
      "time_mean_s": 0.0123
    },
    {
      "method": "deepda",
      "p_d": 0.9,
      "e_lambda": 26.0,
      "ospa_mean": NaN,
      "ospa_std": NaN,
      "stti_mean": NaN,
      "stti_std": NaN,
      "time_mean_s": NaN
    },
    {
      "method": "jpda",
      "p_d": 0.5,
      "e_lambda": 40.0,
      "ospa_mean": 0.30000000000000004,
      "ospa_std": 0.0,
      "stti_mean": 0.0,
      "stti_std": 0.0,
      "time_mean_s": 2e-05
    }
  ]
}"""

    raw = tmp_path / "raw.csv"
    write_raw_log(
        [
            RawEpisodeRow("jpda", 0.9, 26.0, 0, 1.0, 2, 0.0123),
            RawEpisodeRow("jpda", 0.5, 40.0, 1, 0.1 + 0.2, 0, 2e-05),
        ],
        raw,
    )
    assert raw.read_bytes() == _crlf(
        "method,p_d,e_lambda,run,ospa,stti,time_s",
        "jpda,0.9,26.0,0,1.0,2,0.0123",
        "jpda,0.5,40.0,1,0.30000000000000004,0,2e-05",
    )
