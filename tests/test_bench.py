import hashlib
import json
import math
import multiprocessing
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cluttertrack import bench
from cluttertrack.assoc import GateParams
from cluttertrack.bench import (
    METHODS,
    BenchReport,
    BenchRow,
    BenchSpec,
    RawEpisodeRow,
    emit_report,
    run_episode,
    run_grid,
)
from cluttertrack.deepda import (
    LstmModel,
    NetConfig,
    TrainConfig,
    init_model,
    load_model,
    save_model,
    train,
)
from cluttertrack.domain import (
    CLUTTER,
    ConfigError,
    ContractViolation,
    Scan,
    five_crossing_targets,
)
from cluttertrack.kalman import FilterParams
from cluttertrack.metrics import OspaParams
from cluttertrack.scenario import generate_scans, generate_truth, make_training_set, seeded_variants

from conftest import identity_norm

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
        base=five_crossing_targets(seed=3),
        pd_values=(0.9,),
        elambda_values=(20.0,),
        n_runs=2,
        methods=methods,
        model_path=model_path,
    )


def test_bench_spec_from_dict_keeps_the_field_defaults():
    base = five_crossing_targets()
    doc = {"base": base.to_dict(), "model_path": "model.json"}
    spec = BenchSpec.from_dict(doc)
    assert spec == BenchSpec(
        base=base, pd_values=(base.p_d,), elambda_values=(base.e_lambda,), model_path="model.json"
    )
    assert spec.ospa == OspaParams(c=10.0, p=2.0)
    # An ospa section may set one of its fields; the other keeps its default.
    spec = BenchSpec.from_dict({**doc, "ospa": {"c": 5}, "n_runs": 3.0})
    assert (spec.ospa, spec.n_runs) == (OspaParams(c=5.0, p=2.0), 3)
    with pytest.raises(ConfigError, match="ospa: unknown fields"):
        BenchSpec.from_dict({**doc, "ospa": {"q": 1}})


@pytest.mark.parametrize(
    "field,value",
    [("pd_values", [0.9, 0.9]), ("elambda_values", [20, 20.0]), ("methods", ["ha", "HA"])],
)
def test_bench_spec_refuses_repeated_grid_values(field, value):
    # A repeated value gave two report rows with one (method, p_d, e_lambda) key.
    doc = {"base": five_crossing_targets().to_dict(), field: value}
    with pytest.raises(ConfigError, match=f"bench: {field} must be non-empty with no repeats"):
        BenchSpec.from_dict(doc)


@pytest.mark.parametrize(
    "field,value,msg",
    [
        ("n_runs", 0, "n_runs must be >= 1, got 0"),
        # An axis value is checked as the base's p_d or e_lambda, where the spec is read.
        ("pd_values", [0.0], "pd_values[0]: p_d must be in (0, 1], got 0.0"),
        ("pd_values", [0.9, 1.5], "pd_values[1]: p_d must be in (0, 1], got 1.5"),
        ("elambda_values", [-1], "elambda_values[0]: e_lambda must be >= 0, got -1.0"),
        ("pd_values", [float("nan")], "pd_values[0]: p_d must be in (0, 1], got nan"),
        ("elambda_values", [0, float("nan")], "elambda_values[1]: e_lambda must be finite, got nan"),
        ("methods", ["ha", "kalman"], f"unknown method 'kalman', expected subset of {METHODS}"),
        ("methods", ["deepda"], "method deepda requires model_path"),
    ],
)
def test_bench_spec_range_error_names_the_field(field, value, msg):
    with pytest.raises(ConfigError) as e:
        BenchSpec.from_dict({"base": five_crossing_targets().to_dict(), field: value})
    assert str(e.value) == f"bench: {msg}"


def test_the_base_scenarios_seed_drives_the_grid():
    raw = {}
    for seed in (0, 5):
        spec = BenchSpec(
            base=five_crossing_targets(seed=seed), elambda_values=(0.0, 20.0), n_runs=2, methods=("ha",)
        )
        report = run_grid(spec)
        assert report.meta["seed"] == seed and len(report.raw) == 4
        for row in report.raw:
            ei = spec.elambda_values.index(row.e_lambda)
            config = replace(spec.base, e_lambda=row.e_lambda)
            result = run_episode(config, "ha", seed=(seed, 0, ei, row.run), ospa_params=spec.ospa)
            assert (row.ospa, row.stti) == (result.ospa_mean, result.stti)
        raw[seed] = [(row.ospa, row.stti) for row in report.raw]
    assert raw[0] != raw[5]


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
    payloads, models = [], []
    job, episode = bench._episode_job, bench.run_episode

    def recording_job(payload):
        payloads.append(payload)
        return job(payload)

    def recording_episode(config, method, model, *args):
        models.append(model)
        return episode(config, method, model, *args)

    monkeypatch.setattr(bench, "_episode_job", recording_job)
    monkeypatch.setattr(bench, "run_episode", recording_episode)
    report = run_grid(_spec(model_path, ("deepda",)), jobs=1)
    assert report.meta["errors"] == []
    assert len(payloads) == len(models) == 2
    loaded = load_model(model_path)
    for payload, model in zip(payloads, models):
        assert not any(isinstance(part, LstmModel) for part in payload)
        assert len(pickle.dumps(payload)) < len(pickle.dumps(loaded))
        assert isinstance(model, LstmModel)
        for name, value in loaded.params().items():
            np.testing.assert_array_equal(model.params()[name], value)
    # The serial grid set the model in this process only while it ran.
    assert bench._worker_model is None


def test_every_failing_episode_is_recorded_with_its_context(tmp_path):
    # One slot is too few for any λ 20 scan, so every episode fails on scan 1.
    cfg = NetConfig(m_max=1, hidden=4)
    path = tmp_path / "tiny.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    serial, parallel = (run_grid(_spec(str(path), ("ha", "deepda")), jobs=jobs) for jobs in (1, 2))
    ha, deepda = serial.rows
    assert ha.method == "ha" and not math.isnan(ha.ospa_mean)
    assert deepda.method == "deepda"
    assert all(math.isnan(getattr(deepda, col)) for col in ACCURACY_COLUMNS)
    errors = serial.meta["errors"]
    assert [(e["method"], e["p_d"], e["e_lambda"], e["run"], e["seed"]) for e in errors] == [
        ("deepda", 0.9, 20.0, 0, [3, 0, 0, 0]),
        ("deepda", 0.9, 20.0, 1, [3, 0, 0, 1]),
    ]
    for e in errors:
        assert e["error"].startswith("CapacityError: scan 1: scan has ")
    assert json.loads(json.dumps(serial.meta))["errors"] == errors
    assert parallel.meta["errors"] == errors


@pytest.mark.parametrize("jobs", [1, 2])
def test_raw_log_holds_the_runs_of_the_cells_with_no_failed_episode(tmp_path, jobs):
    # 34 slots: λ 20 runs 2 and 4 reach a scan of 38 and 36 measurements and
    # fail, runs 0, 1 and 3 (at most 34) finish, and every λ 0 scan fits.
    cfg = NetConfig(m_max=34, hidden=4)
    path = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    spec = replace(_spec(str(path), ("ha", "deepda")), elambda_values=(0.0, 20.0), n_runs=5)
    report = run_grid(spec, jobs=jobs)
    errors = report.meta["errors"]
    assert [(e["method"], e["p_d"], e["e_lambda"], e["run"], e["seed"]) for e in errors] == [
        ("deepda", 0.9, 20.0, 2, [3, 0, 1, 2]),
        ("deepda", 0.9, 20.0, 4, [3, 0, 1, 4]),
    ]
    for e in errors:
        assert e["error"].startswith("CapacityError: scan ")
    emit_report(report, tmp_path)
    lines = (tmp_path / "raw.csv").read_text().splitlines()
    assert lines[0] == "method,p_d,e_lambda,run,ospa,stti,time_s"
    raw_rows = [line.split(",") for line in lines[1:]]
    done = [("ha", 0.0), ("ha", 20.0), ("deepda", 0.0)]
    assert [tuple(r[:4]) for r in raw_rows] == [
        (method, "0.9", repr(e_lambda), str(run)) for method, e_lambda in done for run in range(5)
    ]
    # Each finished cell's report row summarises exactly its raw rows.
    for (method, e_lambda), row in zip(done, report.rows):
        assert (row.method, row.e_lambda) == (method, e_lambda)
        cell = [r for r in raw_rows if (r[0], float(r[2])) == (method, e_lambda)]
        ospas = np.array([float(r[4]) for r in cell])
        sttis = np.array([int(r[5]) for r in cell], dtype=float)
        assert (row.ospa_mean, row.ospa_std) == (ospas.mean(), ospas.std())
        assert (row.stti_mean, row.stti_std) == (sttis.mean(), sttis.std())
    failed = report.rows[3]
    assert (failed.method, failed.e_lambda) == ("deepda", 20.0)
    assert all(math.isnan(getattr(failed, col)) for col in ACCURACY_COLUMNS)


# Workers inherit the patched engine only when they are forked.
FAULT_JOBS = (1, 2) if multiprocessing.get_start_method() == "fork" else (1,)


@pytest.mark.parametrize("jobs", FAULT_JOBS)
def test_a_fault_in_the_program_propagates_instead_of_failing_the_cell(monkeypatch, jobs):
    def broken(self, tracks, scan):
        raise TypeError("a bug in the program")

    monkeypatch.setattr(bench.HaEngine, "associate", broken)
    with pytest.raises(TypeError, match="a bug in the program"):
        run_grid(_spec(None, ("ha",)), jobs=jobs)
    assert bench._worker_model is None


@pytest.mark.parametrize("jobs", [0, -1])
def test_grid_refuses_fewer_than_one_job_before_any_work(jobs):
    with pytest.raises(ConfigError, match=f"^jobs must be >= 1, got {jobs}$"):
        run_grid(_spec(None, ("ha",)), jobs=jobs)


@pytest.fixture(scope="module")
def small_model():
    """A small DeepDA model trained here, with slots for every scan below."""
    dataset = make_training_set(seeded_variants(five_crossing_targets(), 4))
    model, _ = train(dataset, NetConfig(m_max=64, hidden=4), TrainConfig(epochs=1))
    return model


# Each engine must survive these; they take the m = 0 paths of the update,
# the hardening and the assignment solver.
ROBUSTNESS_EPISODES = {
    "empty scan 14": five_crossing_targets(p_d=0.5, e_lambda=0.0, seed=1),
    "empty scan 19": five_crossing_targets(p_d=0.5, e_lambda=0.0, seed=10),
    "zero clutter": five_crossing_targets(p_d=1.0, e_lambda=0.0, seed=3),
    "coincident targets": five_crossing_targets(),
}


def test_robustness_episodes_have_their_property():
    sizes = {
        name: [s.num_measurements for s in generate_scans(generate_truth(c), c.seed)]
        for name, c in ROBUSTNESS_EPISODES.items()
    }
    assert sizes["empty scan 14"][14] == 0 and sizes["empty scan 19"][19] == 0
    assert sizes["zero clutter"] == [5] * 20
    # The reference scenario's five targets are all at one point at scan 10.
    truth = generate_truth(ROBUSTNESS_EPISODES["coincident targets"])
    assert np.ptp(truth.states[10][:, ::2], axis=0).max() < 1e-9


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("episode", sorted(ROBUSTNESS_EPISODES))
def test_every_engine_finishes_the_robustness_episodes(episode, method, small_model):
    config = ROBUSTNESS_EPISODES[episode]
    result = run_episode(config, method, model=small_model)
    assert len(result.scan_ospa) == config.num_scans - 1
    assert np.isfinite(result.scan_ospa).all() and result.stti is not None


def test_episode_with_fewer_than_two_scans_raises_naming_the_count():
    config = replace(five_crossing_targets(), num_scans=1)
    with pytest.raises(ContractViolation, match=r"at least 2 scans, got 1$"):
        bench.run_episode(config, "ha")


def test_grid_records_a_one_scan_cell_as_failed():
    spec = replace(_spec(None, ("ha",)), base=replace(five_crossing_targets(), num_scans=1))
    report = run_grid(spec, jobs=1)
    assert all(math.isnan(getattr(report.rows[0], col)) for col in ACCURACY_COLUMNS)
    assert [e["error"] for e in report.meta["errors"]] == [
        "ContractViolation: tracking needs at least 2 scans, got 1"
    ] * 2


def test_make_engine_refuses_deepda_without_a_model_and_an_unknown_method():
    config, params, gp = five_crossing_targets(), FilterParams(), GateParams()
    with pytest.raises(ConfigError, match="^method deepda requires a model$"):
        bench.make_engine("deepda", config, params, gp)
    with pytest.raises(ConfigError, match="^unknown method 'kalman', expected one of "):
        bench.make_engine("kalman", config, params, gp)


def test_unassigned_sets_are_pinned_on_reference_episodes(monkeypatch):
    # Every HA assignment and every hardening of JPDA's rows on three
    # reference episodes: the digest was recorded when Assignment stored its
    # unassigned sets, and they are now derived from the pairs and sizes.
    calls = []

    def recording(fn):
        def wrapper(*args):
            a = fn(*args)
            calls.append((sorted(a.pairs.items()), sorted(a.unassigned_tracks), sorted(a.unassigned_measurements)))
            return a

        return wrapper

    monkeypatch.setattr(bench, "hungarian", recording(bench.hungarian))
    monkeypatch.setattr(bench, "hard_assignment_from_probs", recording(bench.hard_assignment_from_probs))
    for config in (
        five_crossing_targets(seed=0),
        five_crossing_targets(seed=1),
        five_crossing_targets(p_d=0.7, e_lambda=40.0, seed=2),
    ):
        for method in ("ha", "jpda"):
            run_episode(config, method)
    counts = len(calls), sum(len(c[1]) for c in calls), sum(len(c[2]) for c in calls)
    assert counts == (114, 109, 3037)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "b79eb1a1d85803cbb2a935ed15ceff79811214aa64ef0e05faa36b6f07664c56"


def _track_reference(scans, method):
    """Track ``scans`` of the reference scenario at λ 0 with ``method``."""
    config = five_crossing_targets(e_lambda=0.0)
    truth = generate_truth(config)
    params = FilterParams(dt=config.dt)
    engine = bench.make_engine(method, config, params, GateParams())
    return bench.track_scans(
        truth.states[0], scans, truth.states[:, :, [0, 2]], engine, params, OspaParams()
    )


# Squared, 1e200 overflows to inf; with both axes far, two infinite terms of
# the Mahalanobis distance can cancel.
@pytest.mark.parametrize("position", [(1e200, 15.0), (1e200, 1e200), (-1e300, 1e300)])
@pytest.mark.parametrize("method", ["ha", "jpda"])
def test_a_far_measurement_is_left_unassigned_without_a_warning(method, position):
    scans = generate_scans(generate_truth(five_crossing_targets(e_lambda=0.0)), 0)
    far = scans[:1] + [
        Scan(s.k, np.vstack([s.measurements, [position]]), s.origins + (CLUTTER,)) for s in scans[1:]
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _track_reference(far, method)
    # Every scan's far point is outside every gate: the tracks are those of
    # the scans without it.
    reference = _track_reference(scans, method)
    np.testing.assert_array_equal(run.states, reference.states)
    assert run.result.scan_ospa == reference.result.scan_ospa
    assert run.result.stti == reference.result.stti


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
        (
            RawEpisodeRow("jpda", 0.9, 26.0, 0, 1.0, 2, 0.0123),
            RawEpisodeRow("jpda", 0.5, 40.0, 1, 0.1 + 0.2, 0, 2e-05),
        ),
    )
    paths = emit_report(report, tmp_path / "out")
    out = tmp_path / "out"
    assert {key: str(path) for key, path in paths.items()} == {
        "csv": str(out / "report.csv"),
        "raw.csv": str(out / "raw.csv"),
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
      "ospa_mean": null,
      "ospa_std": null,
      "stti_mean": null,
      "stti_std": null,
      "time_mean_s": null
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

    assert (out / "raw.csv").read_bytes() == _crlf(
        "method,p_d,e_lambda,run,ospa,stti,time_s",
        "jpda,0.9,26.0,0,1.0,2,0.0123",
        "jpda,0.5,40.0,1,0.30000000000000004,0,2e-05",
    )
