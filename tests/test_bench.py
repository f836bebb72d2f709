import json
import math
import pickle

import pytest

from cluttertrack import bench
from cluttertrack.bench import BenchSpec, run_grid
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
