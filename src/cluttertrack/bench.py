"""Monte Carlo benchmark harness comparing association engines.

Every method runs the same scenarios through the same Kalman filter; only
the association step differs. Episode seeds are derived from the grid seed
with explicit spawn keys, so serial and parallel execution produce the
same accuracy columns and all methods see identical measurement draws.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__ as _toolkit_version
from .assoc import GateParams, hungarian, jpda
from .deepda import LstmModel, forward_scan, load_model
from .domain import (
    Assignment,
    AssocProbabilities,
    ConfigError,
    CostMatrix,
    ScenarioConfig,
    ToolkitError,
    TrackSet,
    hard_assignment_from_probs,
)
from .kalman import DEFAULT_INITIAL_COVARIANCE, FilterParams, innovations, predict, update_weighted
from .metrics import OspaParams, ospa, stti, timed
from .scenario import Seed, generate_scans, generate_truth

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
        nu, s, _, d2 = innovations(tracks, scan.measurements, self.params)
        cost = np.sqrt(nu[:, :, 0] ** 2 + nu[:, :, 1] ** 2)
        cost[d2 > self.gp.gamma] = np.inf
        miss = float(
            np.sqrt(self.gp.gamma)
            * np.mean(np.sqrt(np.stack([s[:, 0, 0], s[:, 1, 1]])))
        )
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
    scan_times: Tuple[float, ...]


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
    prediction. Identity switches come from the hard assignment
    (probability rows are hardened first).
    """
    initial = np.asarray(initial_states, dtype=float)
    n = len(initial)
    tracks = TrackSet(initial, np.broadcast_to(DEFAULT_INITIAL_COVARIANCE, (n, 4, 4)))

    history: List[Assignment] = []
    scan_ospa: List[float] = []
    scan_times: List[float] = []
    states: List[np.ndarray] = []
    for idx in range(1, len(scans)):
        scan = scans[idx]
        predicted = predict(tracks, params)
        try:
            out, seconds = timed(lambda: engine.associate(predicted, scan))
        except ToolkitError as e:
            raise type(e)(f"scan {scan.k}: {e}") from None
        m = scan.num_measurements
        if engine.mode == "hard":
            assignment: Assignment = out
            rows = np.zeros((n, m + 1))
            rows[:, m] = 1.0
            for j, i in assignment.pairs.items():
                rows[j, i], rows[j, m] = 1.0, 0.0
        else:
            probs: AssocProbabilities = out
            rows = probs.rows
            assignment = hard_assignment_from_probs(probs)
        tracks = update_weighted(predicted, scan, rows, params)
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
        scan_times=tuple(scan_times),
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

    ``seed`` defaults to ``config.seed`` and ``ospa_params`` to c 10, p 2;
    the filter runs at the scenario's ``dt`` and both classic engines use the
    default gate. ``model`` is required for method "deepda".
    """
    if seed is None:
        seed = config.seed
    params = FilterParams(dt=config.dt)
    op = ospa_params or OspaParams(c=10.0, p=2.0)
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
    """A sweep over detection probability and clutter rate for some methods."""

    base: ScenarioConfig
    pd_values: Tuple[float, ...]
    elambda_values: Tuple[float, ...]
    n_runs: int = 100
    methods: Tuple[str, ...] = METHODS
    model_path: Optional[str] = None
    ospa: OspaParams = OspaParams(c=10.0, p=2.0)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "pd_values", tuple(float(v) for v in self.pd_values))
        object.__setattr__(self, "elambda_values", tuple(float(v) for v in self.elambda_values))
        methods = tuple(m.lower() for m in self.methods)
        object.__setattr__(self, "methods", methods)
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        if not self.pd_values or not self.elambda_values:
            raise ConfigError("pd_values and elambda_values must be non-empty")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}, expected subset of {METHODS}")
        if "deepda" in methods and not self.model_path:
            raise ConfigError("method deepda requires model_path")

    @staticmethod
    def from_dict(d: Mapping) -> "BenchSpec":
        unknown = set(d) - {f.name for f in fields(BenchSpec)}
        if unknown:
            raise ConfigError(f"unknown bench fields: {sorted(unknown)}")
        if "base" not in d:
            raise ConfigError("missing bench field: base")
        ospa_d = d.get("ospa", {"c": 10.0, "p": 2.0})
        extra = set(ospa_d) - {f.name for f in fields(OspaParams)}
        if extra:
            raise ConfigError(f"ospa: unknown fields {sorted(extra)}")
        return BenchSpec(
            base=ScenarioConfig.from_dict(d["base"]),
            pd_values=tuple(d.get("pd_values", [d["base"]["p_d"]])),
            elambda_values=tuple(d.get("elambda_values", [d["base"]["e_lambda"]])),
            n_runs=int(d.get("n_runs", 100)),
            methods=tuple(d.get("methods", METHODS)),
            model_path=d.get("model_path"),
            ospa=OspaParams(float(ospa_d["c"]), float(ospa_d["p"])),
            seed=int(d.get("seed", 0)),
        )


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


#: The grid's DeepDA model in a worker process, set once by ``_init_worker``
#: so that episode payloads do not carry it.
_worker_model: Optional[LstmModel] = None


def _init_worker(model: Optional[LstmModel]) -> None:
    global _worker_model
    _worker_model = model


def _episode_job(payload, model: Optional[LstmModel] = None) -> Tuple[float, int, float]:
    config, method, seed, ospa_params = payload
    if model is None:
        model = _worker_model
    result = run_episode(config, method, model=model, seed=seed, ospa_params=ospa_params)
    return result.ospa_mean, result.stti, result.time_mean_s


def _report_meta(spec: BenchSpec) -> Dict:
    params = FilterParams(dt=spec.base.dt)
    return {
        "toolkit_version": _toolkit_version,
        "seed": spec.seed,
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


def run_grid(spec: BenchSpec, jobs: int = 1, raw_log=None) -> BenchReport:
    """Run every (method, p_d, e_lambda) cell for n_runs episodes.

    Episode seeds depend only on the grid seed, the (p_d, e_lambda) cell and
    the run index, so all methods see identical measurement draws and
    parallel execution reproduces the serial accuracy columns (OSPA and STTI
    mean and std) exactly; ``time_mean_s`` is a wall time and varies with
    the load. Each worker process receives the DeepDA model once. A failing
    episode marks its whole cell failed (NaN row); every failing episode is
    recorded in ``meta["errors"]`` with its method, cell, run, seed tuple
    and error text, which names the scan it failed on.

    ``raw_log`` is opened before the first episode, so a path that cannot be
    written raises :class:`ConfigError` before any work is done.
    """
    if raw_log is not None:
        try:
            open(raw_log, "w").close()
        except OSError as e:
            raise ConfigError(f"cannot write raw log {raw_log}: {e}") from None
    model = load_model(spec.model_path) if "deepda" in spec.methods else None
    cells = [
        (method, pi, ei)
        for method in spec.methods
        for pi in range(len(spec.pd_values))
        for ei in range(len(spec.elambda_values))
    ]
    payloads = []
    for method, pi, ei in cells:
        config = replace(
            spec.base, p_d=spec.pd_values[pi], e_lambda=spec.elambda_values[ei]
        )
        for run in range(spec.n_runs):
            payloads.append((config, method, (spec.seed, pi, ei, run), spec.ospa))

    meta = _report_meta(spec)
    outcomes: List = []
    if jobs <= 1:
        for payload in payloads:
            try:
                outcomes.append(_episode_job(payload, model))
            except Exception as e:
                outcomes.append(e)
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(model,)
        ) as pool:
            futures = [pool.submit(_episode_job, p) for p in payloads]
            for fut in futures:
                exc = fut.exception()
                outcomes.append(exc if exc is not None else fut.result())

    rows: List[BenchRow] = []
    raw_rows: List[RawEpisodeRow] = []
    for idx, (method, pi, ei) in enumerate(cells):
        p_d, e_lambda = spec.pd_values[pi], spec.elambda_values[ei]
        cell = outcomes[idx * spec.n_runs : (idx + 1) * spec.n_runs]
        failures = [(run, o) for run, o in enumerate(cell) if isinstance(o, Exception)]
        if failures:
            meta["errors"] += [
                {
                    "method": method,
                    "p_d": p_d,
                    "e_lambda": e_lambda,
                    "run": run,
                    "seed": [spec.seed, pi, ei, run],
                    "error": f"{type(e).__name__}: {e}",
                }
                for run, e in failures
            ]
            rows.append(
                BenchRow(method, p_d, e_lambda, *(float("nan"),) * 5)
            )
            continue
        ospas = np.array([o[0] for o in cell])
        sttis = np.array([o[1] for o in cell], dtype=float)
        times = np.array([o[2] for o in cell])
        for run, o in enumerate(cell):
            raw_rows.append(RawEpisodeRow(method, p_d, e_lambda, run, o[0], int(o[1]), o[2]))
        rows.append(
            BenchRow(
                method,
                p_d,
                e_lambda,
                float(ospas.mean()),
                float(ospas.std()),
                float(sttis.mean()),
                float(sttis.std()),
                float(times.mean()),
            )
        )

    if raw_log is not None:
        write_raw_log(raw_rows, raw_log)
    return BenchReport(tuple(rows), meta)


# ---------------------------------------------------------------------------
# Report emission. Floats are written with repr so identical reports are
# byte-identical and parse back exactly.
# ---------------------------------------------------------------------------


def _write_csv(path, rows: Sequence, columns: Sequence[str]) -> None:
    """A header of ``columns``, then those attributes of each row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            values = (getattr(r, col) for col in columns)
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in values])


def write_raw_log(rows: Sequence[RawEpisodeRow], path) -> None:
    _write_csv(path, rows, [f.name for f in fields(RawEpisodeRow)])


def emit_report(report: BenchReport, out_dir) -> Dict[str, str]:
    """Write report.csv, report.json and the plot-data CSVs
    ospa_vs_elambda.csv and ospa_vs_pd.csv into ``out_dir`` (created if
    missing); returns their paths keyed "csv", "json" and by file name."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"csv": os.path.join(out_dir, "report.csv")}
    _write_csv(paths["csv"], report.rows, [f.name for f in fields(BenchRow)])
    for name, key in (("ospa_vs_elambda.csv", "e_lambda"), ("ospa_vs_pd.csv", "p_d")):
        paths[name] = os.path.join(out_dir, name)
        ordered = sorted(report.rows, key=lambda r: (r.method, getattr(r, key)))
        _write_csv(paths[name], ordered, ["method", "p_d", "e_lambda", "ospa_mean", "ospa_std"])

    paths["json"] = os.path.join(out_dir, "report.json")
    doc = {"meta": report.meta, "rows": [asdict(r) for r in report.rows]}
    with open(paths["json"], "w") as fh:
        json.dump(doc, fh, indent=2)
    return paths
