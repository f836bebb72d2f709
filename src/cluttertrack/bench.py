"""Monte Carlo benchmark harness comparing association engines.

Every method runs the same scenarios through the same Kalman filter; only
the association step differs. The base scenario's seed drives the grid:
episode seeds are derived from it with explicit spawn keys, so serial and
parallel execution produce the same accuracy columns and all methods see
identical measurement draws.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__ as _toolkit_version
from .assoc import GateParams, hungarian, jpda
from .deepda import LstmModel, forward_scan, load_model
from .domain import (
    Assignment,
    AssocProbabilities,
    ConfigError,
    ContractViolation,
    CostMatrix,
    ScenarioConfig,
    ToolkitError,
    TrackSet,
    hard_assignment_from_probs,
    read_config,
)
from .kalman import DEFAULT_INITIAL_COVARIANCE, FilterParams, innovations, predict, update_weighted
from .metrics import OspaParams, ospa, stti, timed
from .scenario import Seed, generate_scans, generate_truth, write_csv

METHODS = ("ha", "jpda", "deepda")

#: Minimum clutter density handed to JPDA so clutter-free scenarios stay
#: well-defined (assignments then dominate clutter explanations).
MIN_CLUTTER_DENSITY = 1e-12

STTI_RULE = (
    "per ground-truth target, count changes of the claiming track id between "
    "consecutive scans where one is defined; total over targets"
)
GATE_POLICY = (
    "the same ellipsoidal gate is applied to both classic engines (ha cost "
    "exclusion, jpda candidate measurements); the learned engine sees all "
    "measurements, as it models gating implicitly"
)


class HaEngine:
    """Gated global-nearest-neighbour assignment with hard updates."""

    name = "ha"
    mode = "hard"

    def __init__(self, params: FilterParams, gp: GateParams):
        self.params = params
        self.gp = gp

    def associate(self, tracks: TrackSet, scan) -> Assignment:
        # Euclidean cost, gated pairs excluded; a miss costs sqrt(gamma)
        # times the mean innovation standard deviation over tracks and axes.
        # A measurement so far off that its cost overflows costs inf.
        nu, s, _, d2 = innovations(tracks, scan.measurements, self.params)
        with np.errstate(over="ignore"):
            cost = np.sqrt(nu[:, :, 0] ** 2 + nu[:, :, 1] ** 2)
        np.putmask(cost, d2 > self.gp.gamma, np.inf)
        root_s = np.sqrt(np.concatenate((s[:, 0, 0], s[:, 1, 1])))  # np.mean's sum and divide, unwrapped
        miss = float(np.sqrt(self.gp.gamma) * (np.add.reduce(root_s) / root_s.size))
        return hungarian(CostMatrix(cost), miss)


class JpdaEngine:
    """Joint probabilistic data association over gated measurements."""

    name = "jpda"
    mode = "weighted"

    def __init__(self, params: FilterParams, gp: GateParams, p_d: float, clutter_density: float):
        self.params = params
        self.gp = gp
        self.p_d = p_d
        self.clutter_density = max(clutter_density, MIN_CLUTTER_DENSITY)

    def associate(self, tracks: TrackSet, scan) -> AssocProbabilities:
        return jpda(tracks, scan, self.params, self.gp, self.p_d, self.clutter_density)


class DeepdaEngine:
    """Learned LSTM association; constant work per scan regardless of clutter."""

    name = "deepda"
    mode = "weighted"

    def __init__(self, model: LstmModel):
        self.model = model

    def associate(self, tracks: TrackSet, scan) -> AssocProbabilities:
        return forward_scan(self.model, tracks, scan)[0]


def make_engine(
    method: str,
    config: ScenarioConfig,
    params: FilterParams,
    gp: GateParams,
    model: Optional[LstmModel] = None,
):
    method = method.lower()
    if method == "ha":
        return HaEngine(params, gp)
    if method == "jpda":
        return JpdaEngine(params, gp, config.p_d, config.e_lambda / config.region.area)
    if method == "deepda":
        if model is None:
            raise ConfigError("method deepda requires a model")
        return DeepdaEngine(model)
    raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")


@dataclass(frozen=True)
class EpisodeResult:
    """Scan-averaged OSPA, identity switch count, and mean association time."""

    ospa_mean: float
    stti: Optional[int]  # None when the scans carry no origin labels
    time_mean_s: float
    scan_ospa: Tuple[float, ...]


@dataclass(frozen=True)
class TrackingRun:
    """Episode metrics plus the filtered track states after each scan."""

    result: EpisodeResult
    states: np.ndarray  # (num_scans - 1, num_targets, 4), aligned to scans[1:]


def track_scans(
    initial_states: np.ndarray,
    scans,
    truth_positions: np.ndarray,
    engine,
    params: FilterParams,
    ospa_params: OspaParams,
) -> TrackingRun:
    """Filter a scan list with one engine, scoring against true positions.

    The tracks are one :class:`TrackSet` that starts from ``initial_states``
    at the first scan; every later scan predicts the whole set, associates
    (timed) and updates it. There is one update, :func:`update_weighted`:
    weighted engines hand it their probability rows, and a hard engine's
    assignment becomes one-hot rows, so an assigned track takes the standard
    Kalman update and a missed one (miss probability 1) coasts on its
    prediction. Each scan's rows are checked once, where they are made: a
    weighted engine returns them checked, and the one-hot rows are checked
    when they are wrapped here. Identity switches come from the hard
    assignment (probability rows are hardened first). A
    :class:`ToolkitError` raised while filtering a scan is raised again,
    with its type, as ``scan k: <message>``. Fewer than two scans, the first
    of which only starts the tracks, raise :class:`ContractViolation`.
    """
    if len(scans) < 2:
        raise ContractViolation(f"tracking needs at least 2 scans, got {len(scans)}")
    initial = np.asarray(initial_states, dtype=float)
    n = len(initial)
    tracks = TrackSet(initial, np.broadcast_to(DEFAULT_INITIAL_COVARIANCE, (n, 4, 4)))

    history: List[Assignment] = []
    scan_ospa: List[float] = []
    scan_times: List[float] = []
    states: List[np.ndarray] = []
    for idx in range(1, len(scans)):
        scan = scans[idx]
        try:
            predicted = predict(tracks, params)
            out, seconds = timed(lambda: engine.associate(predicted, scan))
            if engine.mode == "hard":
                assignment: Assignment = out
                m = scan.num_measurements
                rows = np.zeros((n, m + 1))
                rows[range(n), [assignment.pairs.get(j, m) for j in range(n)]] = 1.0
                probs = AssocProbabilities(rows)
            else:
                probs: AssocProbabilities = out
                assignment = hard_assignment_from_probs(probs)
            tracks = update_weighted(predicted, scan, probs, params)
        except ToolkitError as e:
            raise type(e)(f"scan {scan.k}: {e}") from None
        history.append(assignment)
        scan_times.append(seconds)
        scan_ospa.append(ospa(truth_positions[idx], tracks.positions, ospa_params))
        states.append(tracks.x)

    labeled = all(s.origins is not None for s in scans[1:])
    switches = stti(history, scans[1:]) if labeled else None
    result = EpisodeResult(
        ospa_mean=float(np.mean(scan_ospa)),
        stti=switches,
        time_mean_s=float(np.mean(scan_times)),
        scan_ospa=tuple(scan_ospa),
    )
    return TrackingRun(result, np.array(states))


def run_episode(
    config: ScenarioConfig,
    method: str,
    model: Optional[LstmModel] = None,
    seed: Optional[Seed] = None,
    ospa_params: Optional[OspaParams] = None,
) -> EpisodeResult:
    """Simulate one episode and track it with the chosen association engine.

    ``seed`` defaults to ``config.seed`` and ``ospa_params`` to
    ``OspaParams()``; the filter runs at the scenario's ``dt`` and both
    classic engines use the default gate. ``model`` is required for method
    "deepda".
    """
    if seed is None:
        seed = config.seed
    params = FilterParams(dt=config.dt)
    op = ospa_params or OspaParams()
    engine = make_engine(method, config, params, GateParams(), model)

    truth = generate_truth(config)
    scans = generate_scans(truth, seed)
    truth_positions = truth.states[:, :, [0, 2]]
    return track_scans(truth.states[0], scans, truth_positions, engine, params, op).result


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchSpec:
    """A sweep over detection probability and clutter rate for some methods.

    ``pd_values``/``elambda_values`` default to the base's p_d/e_lambda. No
    axis is empty or repeats a value: a (method, p_d, e_lambda) cell is a row.
    Each axis value is checked as the base's p_d or e_lambda, so a value out
    of range is refused here, as ``pd_values[i]: <message>``. The base
    scenario's seed drives the grid; see :func:`run_grid`.
    """

    base: ScenarioConfig
    pd_values: Optional[Tuple[float, ...]] = None
    elambda_values: Optional[Tuple[float, ...]] = None
    n_runs: int = 100
    methods: Tuple[str, ...] = METHODS
    model_path: Optional[str] = None
    ospa: OspaParams = OspaParams()

    def __post_init__(self):
        pd_values = (self.base.p_d,) if self.pd_values is None else self.pd_values
        elambda_values = (self.base.e_lambda,) if self.elambda_values is None else self.elambda_values
        object.__setattr__(self, "pd_values", tuple(float(v) for v in pd_values))
        object.__setattr__(self, "elambda_values", tuple(float(v) for v in elambda_values))
        methods = tuple(m.lower() for m in self.methods)
        object.__setattr__(self, "methods", methods)
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}, expected subset of {METHODS}")
        for name in ("pd_values", "elambda_values", "methods"):
            values = getattr(self, name)
            if not values or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be non-empty with no repeats, got {list(values)}")
        for name, key in (("pd_values", "p_d"), ("elambda_values", "e_lambda")):
            for i, v in enumerate(getattr(self, name)):
                try:
                    replace(self.base, **{key: v})
                except ConfigError as e:
                    raise ConfigError(f"{name}[{i}]: {e}") from None
        if "deepda" in methods and not self.model_path:
            raise ConfigError("method deepda requires model_path")

    @staticmethod
    def from_dict(d) -> "BenchSpec":
        return read_config("bench", d, BenchSpec)


@dataclass(frozen=True)
class BenchRow:
    method: str
    p_d: float
    e_lambda: float
    ospa_mean: float
    ospa_std: float
    stti_mean: float
    stti_std: float
    time_mean_s: float


@dataclass(frozen=True)
class RawEpisodeRow:
    method: str
    p_d: float
    e_lambda: float
    run: int
    ospa: float
    stti: int
    time_s: float


@dataclass(frozen=True)
class BenchReport:
    rows: Tuple[BenchRow, ...]
    meta: Dict = field(default_factory=dict)
    raw: Tuple[RawEpisodeRow, ...] = ()


#: The grid's DeepDA model in the process that runs its episodes, set by
#: ``_init_worker`` so that episode payloads do not carry it.
_worker_model: Optional[LstmModel] = None


def _init_worker(model: Optional[LstmModel]) -> None:
    global _worker_model
    _worker_model = model


def _episode_job(payload):
    """One grid episode's (OSPA, STTI, time), or the :class:`ToolkitError`
    it raised; any other exception is a fault in the program and propagates."""
    config, method, seed, ospa_params = payload
    try:
        result = run_episode(config, method, _worker_model, seed, ospa_params)
    except ToolkitError as e:
        return e
    return result.ospa_mean, result.stti, result.time_mean_s


def _report_meta(spec: BenchSpec) -> Dict:
    params = FilterParams(dt=spec.base.dt)
    return {
        "toolkit_version": _toolkit_version,
        "seed": spec.base.seed,
        "n_runs": spec.n_runs,
        "ospa": asdict(spec.ospa),
        "operating_point": {
            "pd_values": list(spec.pd_values),
            "elambda_values": list(spec.elambda_values),
        },
        "toolkit_choices": {
            "kalman_q": params.q,
            "kalman_r_diag": list(params.r_diag),
            "initial_covariance_diag": list(np.diag(DEFAULT_INITIAL_COVARIANCE)),
            "gate_gamma": GateParams().gamma,
            "gate_policy": GATE_POLICY,
            "miss_cost_rule": "sqrt(gamma) * mean innovation std over tracks and axes",
            "stti_rule": STTI_RULE,
            "jpda_clutter_density": "e_lambda / region area",
        },
        "errors": [],
    }


def run_grid(spec: BenchSpec, jobs: int = 1, model: Optional[LstmModel] = None) -> BenchReport:
    """Run every (method, p_d, e_lambda) cell for n_runs episodes.

    Episode seeds are ``(spec.base.seed, p_d index, e_lambda index, run)``:
    the base scenario's seed drives the grid, and all methods see identical
    measurement draws. Every episode runs through ``_episode_job``, mapped
    in this process for ``jobs`` 1 or over ``jobs`` worker processes, so
    both give the same accuracy columns (OSPA and STTI mean and std)
    exactly; ``time_mean_s`` is a wall time and varies with the load.
    ``jobs`` below 1 raises :class:`ConfigError`. An episode that raises a
    :class:`ToolkitError` marks its whole cell failed (NaN row) and is recorded in
    ``meta["errors"]`` with its method, cell, run, seed tuple and error
    text, which names the scan it failed on; any other exception propagates.
    The report's ``raw`` rows are the runs of the cells with no failed episode.
    The DeepDA cells use ``model``, or without it the model at ``spec.model_path``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    model = model or (load_model(spec.model_path) if "deepda" in spec.methods else None)
    cells = [
        (method, (spec.base.seed, pi, ei), replace(spec.base, p_d=p_d, e_lambda=e_lambda))
        for method in spec.methods
        for pi, p_d in enumerate(spec.pd_values)
        for ei, e_lambda in enumerate(spec.elambda_values)
    ]
    payloads = [
        (config, method, (*key, run), spec.ospa)
        for method, key, config in cells
        for run in range(spec.n_runs)
    ]
    if jobs == 1:
        _init_worker(model)
        try:
            outcomes = list(map(_episode_job, payloads))
        finally:
            _init_worker(None)
    else:
        with ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(model,)) as pool:
            outcomes = list(pool.map(_episode_job, payloads))

    meta = _report_meta(spec)
    rows: List[BenchRow] = []
    raw_rows: List[RawEpisodeRow] = []
    for idx, (method, key, config) in enumerate(cells):
        cell = (method, config.p_d, config.e_lambda)
        runs = outcomes[idx * spec.n_runs : (idx + 1) * spec.n_runs]
        errors = [
            {
                "method": method,
                "p_d": config.p_d,
                "e_lambda": config.e_lambda,
                "run": run,
                "seed": [*key, run],
                "error": f"{type(o).__name__}: {o}",
            }
            for run, o in enumerate(runs)
            if isinstance(o, ToolkitError)
        ]
        meta["errors"] += errors
        if errors:
            rows.append(BenchRow(*cell, *(float("nan"),) * 5))
            continue
        raw_rows += [RawEpisodeRow(*cell, run, *o) for run, o in enumerate(runs)]
        ospas, sttis, times = (np.array(column, dtype=float) for column in zip(*runs))
        stats = ospas.mean(), ospas.std(), sttis.mean(), sttis.std(), times.mean()
        rows.append(BenchRow(*cell, *map(float, stats)))

    return BenchReport(tuple(rows), meta, tuple(raw_rows))


# ---------------------------------------------------------------------------
# Report emission. The CSV files go through scenario.write_csv, which writes
# floats with repr, so identical reports are byte-identical and parse back
# exactly.
# ---------------------------------------------------------------------------


def emit_report(report: BenchReport, out_dir) -> Dict[str, str]:
    """Write report.csv, the per-episode raw.csv, report.json and the
    plot-data CSVs ospa_vs_elambda.csv and ospa_vs_pd.csv into ``out_dir``
    (created if missing); returns their paths keyed "csv", "json" and by file
    name ("raw.csv" and the plot files). A failed cell's NaN columns read
    ``nan`` in the CSV files and ``null`` in report.json, which is strict
    JSON; its episodes have no raw.csv rows."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"csv": os.path.join(out_dir, "report.csv"), "raw.csv": os.path.join(out_dir, "raw.csv")}
    write_csv(paths["csv"], [f.name for f in fields(BenchRow)], map(astuple, report.rows))
    write_csv(paths["raw.csv"], [f.name for f in fields(RawEpisodeRow)], map(astuple, report.raw))
    columns = ["method", "p_d", "e_lambda", "ospa_mean", "ospa_std"]
    for name, key in (("ospa_vs_elambda.csv", "e_lambda"), ("ospa_vs_pd.csv", "p_d")):
        paths[name] = os.path.join(out_dir, name)
        ordered = sorted(report.rows, key=lambda r: (r.method, getattr(r, key)))
        write_csv(paths[name], columns, ([getattr(r, c) for c in columns] for r in ordered))

    paths["json"] = os.path.join(out_dir, "report.json")
    rows = [{k: None if v != v else v for k, v in asdict(r).items()} for r in report.rows]  # NaN != NaN
    with open(paths["json"], "w") as fh:
        json.dump({"meta": report.meta, "rows": rows}, fh, indent=2, allow_nan=False)
    return paths
