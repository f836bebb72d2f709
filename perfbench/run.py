"""Benchmark for cluttertrack: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload crossing_clutter --seed 1 --seconds 25 --trace 0

Workloads (README.md says why each exists):

* ``crossing_clutter``: the reference five-crossing-targets scenario at
  p_d 0.9, lambda 20; every round tracks one seeded episode with HA, JPDA
  and DeepDA in rotating order.
* ``dense_clutter``: the same at lambda 40. Every DeepDA episode there meets
  a scan larger than the model's slot count and fails with CapacityError;
  those episodes are kept and counted as failed.
* ``train``: ``deepda.train`` on a seeded training set, repeated; after each
  run the fresh model tracks one of a fixed set of lambda 0 episodes next
  to HA and JPDA.

Everything is measured from outside the program, by calling and timing the
public functions of ``scenario``, ``kalman``, ``assoc``, ``deepda``,
``domain``, ``metrics`` and ``bench``; the program's source is not touched.
Load is closed-loop from this one process: operations run back to back.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
every other round runs with the program's layers wrapped (spans.py) and
the per-layer metrics are printed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import inspect
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

ENGINES = ("ha", "jpda", "deepda")
OSPA_C, OSPA_P = 10.0, 2.0
#: Every training set: this many seeded variants of the reference scenario
#: at lambda 20 (19 scan sequences each), trained for this many epochs.
TRAIN_VARIANTS = 32
TRAIN_EPOCHS = 6
#: Set-up is repeated at least this many times and for at least this long;
#: setup_s is the median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
#: Outputs of this many first rounds are recorded and checked after timing.
CHECK_ROUNDS = 4
#: Fixed lambda 0 episodes on which ``train`` tracks with each fresh model,
#: HELDOUT_PER_ROUND of them after each training run.
HELDOUT = 8
HELDOUT_PER_ROUND = 2
#: Seed keys of inputs that do not depend on --seed: the tracking
#: workloads' training set, their scored episodes, the held-out episodes of
#: ``train``, and the warm-up episode.
SETUP_KEY = 4242
SCORED_KEY = 1907
HELDOUT_KEY = 7919
WARMUP_KEY = 10**6
#: Times are reported at reference speed: every operation runs between two
#: calls of ref_kernel(), and its time is scaled by REF_NOMINAL_S, the
#: kernel's time on a quiet 2-core Xeon virtual machine, over the mean of the two.
REF_NOMINAL_S = 2.0e-3

#: Clutter rate of the tracked episodes, and the number of first rounds
#: whose episodes are fixed and make the OSPA figures. A run lasts at least
#: that many rounds and at least --seconds; later rounds draw their
#: episodes from --seed.
WORKLOADS = {
    "crossing_clutter": {"e_lambda": 20.0, "min_rounds": 48},
    "dense_clutter": {"e_lambda": 40.0, "min_rounds": 32},
    "train": {"e_lambda": 0.0, "min_rounds": HELDOUT // HELDOUT_PER_ROUND},
}


def load_program():
    """Import cluttertrack from this checkout's src/, and nowhere else."""
    if not (SRC / "cluttertrack" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'cluttertrack'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cluttertrack

    if Path(cluttertrack.__file__).resolve().parent != SRC / "cluttertrack":
        sys.exit(f"error: imported cluttertrack from {cluttertrack.__file__}, not {SRC}")
    from cluttertrack import assoc, bench, deepda, domain, kalman, metrics, scenario

    return SimpleNamespace(
        assoc=assoc, bench=bench, deepda=deepda, domain=domain,
        CapacityError=domain.CapacityError, ToolkitError=domain.ToolkitError,
        five_crossing_targets=domain.five_crossing_targets, FilterParams=kalman.FilterParams,
        GateParams=assoc.GateParams, OspaParams=metrics.OspaParams,
        generate_truth=scenario.generate_truth, generate_scans=scenario.generate_scans,
        make_training_set=scenario.make_training_set, seeded_variants=scenario.seeded_variants,
        NetConfig=deepda.NetConfig, TrainConfig=deepda.TrainConfig, forward_scan=deepda.forward_scan,
        save_model=deepda.save_model, load_model=deepda.load_model,
    )


def median(values):
    """Median, or 0 when a traced run saw no sample (JSON has no NaN)."""
    return statistics.median(values) if values else 0.0


def blas_info():
    """BLAS library name and its thread count (None when it cannot be read)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    for lib_path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return name, fn()
    return name, None


_KERNEL_OPTIONS = [[(i, 0.5 + 0.05 * i) for i in range(j, j + 3)] for j in range(0, 10, 2)]
_KERNEL_F = np.eye(4) + np.diag([1.0, 0.0, 1.0], k=1)
_KERNEL_X = np.full((32, 64), 0.01)
_KERNEL_W = np.full((64, 256), 0.01)


def _kernel_events(idx, used, weight, acc):
    if idx == len(_KERNEL_OPTIONS):
        acc[0] += weight
        return
    _kernel_events(idx + 1, used, weight * 0.1, acc)
    for i, w in _KERNEL_OPTIONS[idx]:
        if i not in used:
            used.add(i)
            _kernel_events(idx + 1, used, weight * w, acc)
            used.remove(i)


def ref_kernel():
    """Seconds taken by fixed work that is not part of the program.

    A shared 2-core virtual machine's speed drifts by half between seconds, on
    wall and CPU time alike; timing this kernel next to each operation shows
    the drift and lets it be divided out. Its three parts resemble the
    program's three kinds of work: a recursive enumeration over sets (JPDA),
    4x4 numpy algebra (Kalman filter, Track checks) and (32, 64) x (64, 256)
    matmuls (the LSTM, on the BLAS threads).
    """
    start = time.perf_counter()
    _kernel_events(0, set(), 1.0, [0.0])
    p = np.eye(4)
    for _ in range(60):
        p = _KERNEL_F @ p @ _KERNEL_F.T * 0.5 + np.eye(4) * 0.1
        p = (p + p.T) / 2.0
        np.linalg.eigvalsh(p)
    for _ in range(20):
        np.tanh(_KERNEL_X @ _KERNEL_W)
    return time.perf_counter() - start


class TimedEngine:
    """The engine handed to ``track_scans``: times every associate call."""

    def __init__(self, engine, run):
        self.inner = engine
        self.name = engine.name
        self.mode = engine.mode
        self.run = run
        self.times = []
        self.failed_times = []

    def associate(self, tracks, scan):
        tracer = self.run.active_tracer
        sid = tracer.begin("assoc.call." + self.name, group=True) if tracer else None
        start = time.perf_counter()
        try:
            out = self.inner.associate(tracks, scan)
        except Exception:
            self.failed_times.append(time.perf_counter() - start)
            if tracer:
                self.run.failed_calls.add(sid)
            raise
        finally:
            if tracer:
                tracer.end()
        self.times.append(time.perf_counter() - start)
        if self.run.recording is not None:
            self.run.recording.append((self.name, tracks, scan, out, getattr(self.inner, "model", None)))
        return out


class BenchRun:
    """One run of one workload: set-up, warm-up, timed rounds, checks."""

    def __init__(self, args, program):
        import spans

        self.args = args
        self.p = program
        self.spec = WORKLOADS[args.workload]
        self.config = program.five_crossing_targets(p_d=0.9, e_lambda=self.spec["e_lambda"])
        self.filter = program.FilterParams(dt=self.config.dt)
        self.gate = program.GateParams()
        self.ospa_params = program.OspaParams(c=OSPA_C, p=OSPA_P)
        self.tracer = spans.Tracer() if args.trace else None
        self.active_tracer = None
        self.failed_calls = set()
        self.recording = None
        self.checked_calls = []
        self.checked_episodes = []
        self.ops = []
        self.errors = []
        self.round = -1
        self.rounds = 0
        self.left_out = 0
        self.curves = []
        self.kernels = []
        self.setup_s = []
        self.setup_train_s_per_epoch = []
        self.scan_scores = []
        self._record_scan_scores()
        if self.tracer:
            self._register_spans()

    # -- instrumentation -----------------------------------------------------

    def _record_scan_scores(self):
        """Keep the per-scan OSPA values of the running episode.

        A failed episode raises out of ``track_scans`` and returns nothing;
        these values let the scans it did deliver be scored all the same.
        """
        original = self.p.bench.ospa
        run = self

        def ospa(*args, **kwargs):
            value = original(*args, **kwargs)
            run.scan_scores.append(value)
            return value

        self.p.bench.ospa = ospa

    def _register_spans(self):
        b, t = self.p.bench, self.tracer
        assoc, deepda, domain = self.p.assoc, self.p.deepda, self.p.domain
        t.target(b, "track_scans", "bench.loop")
        t.target(b, "predict", "kalman.predict")
        t.target(b, "update_hard", "kalman.update")
        t.target(b, "update_weighted", "kalman.update")
        t.target(b, "hungarian", "assoc.hungarian")
        t.target(b, "jpda", "assoc.likelihood")
        t.target(assoc, "gate", "assoc.gate", observe=lambda a, kw, r: len(r))
        t.target(assoc, "jpda_from_gates", "assoc.enumerate", observe=lambda a, kw, r: [set(g) for g in a[1]])
        t.target(b, "forward_scan", "deepda.forward", observe=lambda a, kw, r: a[2].num_measurements / a[0].cfg.m_max)
        t.target(deepda, "build_features", "deepda.features")
        t.target(deepda, "_batch_loss_and_grads", "deepda.grads")
        t.target(deepda, "rmsprop_step", "deepda.rmsprop")
        t.target(b, "hard_assignment_from_probs", "domain.harden")
        t.target(domain.Track, "__post_init__", "domain.track")
        t.target(b, "ospa", "metrics.ospa")
        t.target(b, "stti", "metrics.stti")

    def reference_scale(self, before, after):
        """Factor that turns a time measured between the kernel times
        ``before`` and ``after`` into a time at reference speed."""
        self.kernels += [before, after]
        return 2.0 * REF_NOMINAL_S / (before + after)

    def span(self, name):
        return self.active_tracer.span(name) if self.active_tracer else nullcontext()

    def begin_round(self, traced):
        if traced:
            self.tracer.install()
            self.active_tracer = self.tracer

    def end_round(self):
        if self.active_tracer:
            self.tracer.uninstall()
            self.active_tracer = None

    # -- set-up ----------------------------------------------------------------

    def training_set(self):
        if self.args.workload == "train":
            first = TRAIN_VARIANTS * self.args.seed
        else:
            first = SETUP_KEY
        base = self.p.five_crossing_targets(p_d=0.9, e_lambda=20.0, seed=first)
        with self.span("scenario.training_set"):
            return self.p.make_training_set(self.p.seeded_variants(base, TRAIN_VARIANTS))

    def train(self, dataset, epochs=TRAIN_EPOCHS):
        """``deepda.train`` as ``cluttertrack train`` runs it by default:
        default NetConfig and TrainConfig, m_max equal to the largest scan."""
        net = self.p.NetConfig(m_max=dataset.m_max)
        with self.span("train"):
            return self.p.deepda.train(dataset, net, self.p.TrainConfig(epochs=epochs))

    def setup(self):
        """The training set, and for the tracking workloads the DeepDA model
        trained on it. Repeated (SETUP_REPEATS, SETUP_MIN_S); setup_s is the median."""
        dataset = model = None
        while len(self.setup_s) < SETUP_REPEATS or sum(self.setup_s) < SETUP_MIN_S:
            self.begin_round(self.tracer is not None)
            before = ref_kernel()
            with self.span("setup"):
                start = time.perf_counter()
                dataset = self.training_set()
                if self.args.workload != "train":
                    trained = time.perf_counter()
                    model, curve = self.train(dataset)
                    self.curves.append(curve)
                end = time.perf_counter()
            scale = self.reference_scale(before, ref_kernel())
            self.setup_s.append((end - start) * scale)
            if self.args.workload != "train":
                self.setup_train_s_per_epoch.append((end - trained) * scale / TRAIN_EPOCHS)
            self.end_round()
        return dataset, model

    # -- operations ------------------------------------------------------------

    def episode(self, engine, seed, score=True):
        """Simulate, track and score one episode; record its time and OSPA."""
        p = self.p
        self.scan_scores = []
        calls = len(engine.times), len(engine.failed_times)
        tracer = self.active_tracer
        before = ref_kernel()
        if tracer:
            tracer.begin("episode." + engine.name)
        failed = None
        start = time.perf_counter()
        try:
            with self.span("scenario.simulate"):
                truth = p.generate_truth(self.config)
                scans = p.generate_scans(truth, seed)
            positions = truth.states[:, :, [0, 2]]
            run = p.bench.track_scans(truth.states[0], scans, positions, engine, self.filter, self.ospa_params)
        except p.ToolkitError as e:
            failed = e
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end()
        scale = self.reference_scale(before, ref_kernel())
        for times, n in zip((engine.times, engine.failed_times), calls):
            times[n:] = [t * scale for t in times[n:]]
        if not score:
            return
        scored = self.config.num_scans - 1
        if failed is None:
            ospa = run.result.ospa_mean
            if self.recording is not None:
                self.checked_episodes.append((positions, run.states, run.result.scan_ospa))
        else:
            if not isinstance(failed, p.CapacityError):
                self.errors.append(f"{engine.name} episode {seed}: {type(failed).__name__}: {failed}")
            # Scans never delivered score the cut-off c, the OSPA of no tracks.
            ospa = (sum(self.scan_scores) + OSPA_C * (scored - len(self.scan_scores))) / scored
        self.ops.append({
            "kind": "episode." + engine.name, "seconds": seconds, "scaled": seconds * scale,
            "traced": tracer is not None,
            "round": self.round, "failed": failed is not None, "ospa": ospa,
            "capacity": isinstance(failed, p.CapacityError),
        })

    def tracking_round(self, engines, seed):
        k = self.round % len(ENGINES)
        for name in ENGINES[k:] + ENGINES[:k]:
            self.episode(engines[name], seed)

    def over_capacity(self, seed, m_max):
        scans = self.p.generate_scans(self.p.generate_truth(self.config), seed)
        return max(s.num_measurements for s in scans[1:]) > m_max

    # -- the run ---------------------------------------------------------------

    def run(self):
        p = self.p
        dataset, model = self.setup()
        training = self.args.workload == "train"
        if training:
            model, _ = self.train(dataset, epochs=1)  # warm-up
        engines = {
            m: TimedEngine(p.bench.make_engine(m, self.config, self.filter, self.gate, model), self)
            for m in ENGINES
        }
        for name in ENGINES:  # warm-up, not counted
            self.episode(engines[name], (WARMUP_KEY, 0), score=False)
            engines[name].times.clear()
            engines[name].failed_times.clear()
        self.kernels.clear()
        gc.collect()

        draw = 0
        deadline = time.perf_counter() + self.args.seconds
        while self.rounds < self.spec["min_rounds"] or time.perf_counter() < deadline:
            self.round = self.rounds
            if training:
                first = self.round * HELDOUT_PER_ROUND
                seeds = [(HELDOUT_KEY, (first + k) % HELDOUT) for k in range(HELDOUT_PER_ROUND)]
            else:
                seed = (SCORED_KEY if self.round < self.spec["min_rounds"] else self.args.seed, draw)
                draw += 1
                if self.args.workload == "crossing_clutter" and self.over_capacity(seed, model.cfg.m_max):
                    # Whether a lambda 20 scan exceeds DeepDA's capacity depends
                    # on the seed, so such rounds are left out here and counted.
                    self.left_out += 1
                    continue
                seeds = [seed]
            self.recording = [] if self.round < CHECK_ROUNDS else None
            self.begin_round(self.tracer is not None and self.round % 2 == 0)
            if training:
                before = ref_kernel()
                start = time.perf_counter()
                model, curve = self.train(dataset)
                seconds = time.perf_counter() - start
                scale = self.reference_scale(before, ref_kernel())
                self.curves.append(curve)
                self.ops.append({"kind": "train", "seconds": seconds, "scaled": seconds * scale,
                                 "traced": self.active_tracer is not None, "round": self.round, "failed": False})
                engines["deepda"].inner = p.bench.DeepdaEngine(model)
            for seed in seeds:
                self.tracking_round(engines, seed)
            self.end_round()
            if self.recording is not None:
                self.checked_calls += self.recording
                self.recording = None
            self.rounds += 1
        self.engines = engines

    # -- checks ----------------------------------------------------------------

    def check(self):
        import checks

        p = self.p
        problems = []
        r_diag, gamma = self.filter.r_diag, self.gate.gamma
        density = max(self.config.e_lambda / self.config.region.area, p.bench.MIN_CLUTTER_DENSITY)
        max_candidates = inspect.signature(p.assoc.jpda).parameters["max_candidates"].default
        reloaded = {}
        for name, tracks, scan, out, model in self.checked_calls:
            if name == "ha":
                found = checks.check_ha(tracks, scan, out, r_diag, gamma)
            elif name == "jpda":
                found = checks.check_jpda(tracks, scan, out.rows, r_diag, gamma, self.config.p_d, density,
                                          max_candidates)
            else:
                if id(model) not in reloaded:
                    OUT.mkdir(exist_ok=True)
                    path = OUT / f"model-{os.getpid()}.json"
                    p.save_model(model, path)
                    reloaded[id(model)] = p.load_model(path)
                    path.unlink()
                again = p.forward_scan(reloaded[id(model)], tracks, scan)[0].rows
                found = checks.check_deepda(tracks, scan, out.rows, again)
            problems += [f"{name} scan {scan.k}: {msg}" for msg in found]
        for positions, states, scan_ospa in self.checked_episodes:
            problems += checks.check_scoring(positions, states, scan_ospa, OSPA_C, OSPA_P)
        for curve in self.curves:
            problems += checks.check_loss_curve(curve)
        return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(run):
    metrics = {}
    for name in ENGINES:
        eps = [op for op in run.ops if op["kind"] == "episode." + name]
        engine = run.engines[name]
        metrics[f"episode_ms.{name}"] = (median([op["scaled"] for op in eps]) * 1e3, "ms")
        # Completed calls; on dense_clutter a DeepDA run may complete none.
        metrics[f"assoc_ms.{name}"] = (median(engine.times or engine.failed_times) * 1e3, "ms")
        scored = [op["ospa"] for op in eps if op["round"] < run.spec["min_rounds"]]
        metrics[f"ospa.{name}"] = (statistics.fmean(scored), "m")
    per_epoch = [op["scaled"] / TRAIN_EPOCHS for op in run.ops if op["kind"] == "train"]
    metrics["train_s_per_epoch"] = (median(per_epoch or run.setup_train_s_per_epoch), "s")
    metrics["train_final_loss"] = (run.curves[-1][-1], "1")
    metrics["setup_s"] = (median(run.setup_s), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def joint_events(gates):
    """Joint events the enumerator visits: the one-to-one assignments within
    each connected cluster of the gating graph, summed over the clusters."""
    parent = list(range(len(gates)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    owner = {}
    for j, g in enumerate(gates):
        for i in g:
            if i in owner:
                parent[find(j)] = find(owner[i])
            owner[i] = j
    clusters = {}
    for j, g in enumerate(gates):
        if g:
            clusters.setdefault(find(j), []).append(j)

    def count(members, idx, used):
        if idx == len(members):
            return 1
        total = count(members, idx + 1, used)
        for i in gates[members[idx]]:
            if i not in used:
                total += count(members, idx + 1, used | {i})
        return total

    return sum(count(members, 0, frozenset()) for members in clusters.values())


def per_layer(run):
    t = run.tracer
    by_root = t.self_by(4)
    by_group = t.self_by(5)
    metrics = {}

    def per_root(root_names, span, index=0, scale=1e3):
        return median([by_root[sid][span][index] * scale for name in root_names for sid in t.roots(name)])

    def per_call(engine, span):
        calls = [sid for sid, r in enumerate(t.records)
                 if r[0] == "assoc.call." + engine and sid not in run.failed_calls]
        return median([by_group[sid][span][0] * 1e3 for sid in calls])

    episodes = ["episode." + e for e in ENGINES]
    metrics["scenario.simulate_ms"] = (per_root(episodes, "scenario.simulate"), "ms")
    metrics["scenario.training_set_s"] = (per_root(["setup"], "scenario.training_set", scale=1.0), "s")
    for e in ENGINES:
        root = ["episode." + e]
        metrics[f"kalman.predict_ms.{e}"] = (per_root(root, "kalman.predict"), "ms")
        metrics[f"kalman.update_ms.{e}"] = (per_root(root, "kalman.update"), "ms")
        metrics[f"domain.track_constructions.{e}"] = (per_root(root, "domain.track", 1, 1), "count")
        metrics[f"domain.track_check_ms.{e}"] = (per_root(root, "domain.track"), "ms")
        if e != "ha":  # HA's output is hard already
            metrics[f"domain.harden_ms.{e}"] = (per_root(root, "domain.harden"), "ms")
        metrics[f"bench.loop_ms.{e}"] = (per_root(root, "bench.loop"), "ms")
    metrics["metrics.ospa_ms"] = (per_root(episodes, "metrics.ospa"), "ms")
    metrics["metrics.stti_ms"] = (per_root(episodes, "metrics.stti"), "ms")

    metrics["assoc.gate_ms"] = (per_call("jpda", "assoc.gate"), "ms")
    metrics["assoc.likelihood_ms"] = (per_call("jpda", "assoc.likelihood"), "ms")
    metrics["assoc.enumerate_ms"] = (per_call("jpda", "assoc.enumerate"), "ms")
    gated, handed = {}, {}
    for group, size in t.observed["assoc.gate"]:
        gated[group] = gated.get(group, 0) + size
    for group, gates in t.observed["assoc.enumerate"]:
        handed[group] = gates
    metrics["assoc.gated_candidates"] = (mean(gated.values()), "count")
    metrics["assoc.truncated_candidates"] = (
        mean([gated[g] - sum(len(s) for s in gates) for g, gates in handed.items()]), "count")
    metrics["assoc.jpda_events"] = (mean([joint_events(gates) for gates in handed.values()]), "count")
    metrics["assoc.hungarian_ms"] = (per_call("ha", "assoc.hungarian"), "ms")
    metrics["assoc.ha_cost_ms"] = (per_call("ha", "assoc.call.ha"), "ms")
    metrics["deepda.forward_ms"] = (per_call("deepda", "deepda.forward"), "ms")
    metrics["deepda.features_ms"] = (per_call("deepda", "deepda.features"), "ms")
    metrics["deepda.slot_fill"] = (mean([v for _, v in t.observed["deepda.forward"]]), "1")
    capacity = sum(1 for op in run.ops if op.get("capacity")) + run.left_out
    metrics["deepda.capacity_errors"] = (capacity, "count")
    train_roots = ["train"] if run.args.workload == "train" else ["setup"]
    metrics["deepda.grad_s_per_epoch"] = (per_root(train_roots, "deepda.grads", scale=1.0 / TRAIN_EPOCHS), "s")
    metrics["deepda.rmsprop_s_per_epoch"] = (per_root(train_roots, "deepda.rmsprop", scale=1.0 / TRAIN_EPOCHS), "s")

    kinds = sorted({op["kind"] for op in run.ops})
    traced = sum(median([op["scaled"] for op in run.ops if op["kind"] == k and op["traced"]]) for k in kinds)
    plain = sum(median([op["scaled"] for op in run.ops if op["kind"] == k and not op["traced"]]) for k in kinds)
    metrics["trace.overhead"] = (traced / plain, "1")
    for e in ENGINES:
        shares = [t.records[sid][6] / (t.records[sid][2] - t.records[sid][1]) for sid in t.roots("episode." + e)]
        metrics[f"trace.unattributed.{e}"] = (median(shares), "1")
    fifth = max(1, len(run.kernels) // 5)
    metrics["ref_kernel_ms"] = (median(run.kernels) * 1e3, "ms")
    metrics["ref_kernel_drift"] = (median(run.kernels[-fifth:]) / median(run.kernels[:fifth]), "1")
    return metrics


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    run = BenchRun(args, load_program())
    run.run()
    problems = run.check()
    metrics = per_layer(run) if args.trace else end_to_end(run)

    blas, threads = blas_info()
    attempted = len(run.ops)
    failed = sum(op["failed"] for op in run.ops)
    print(f"# workload {args.workload}, seed {args.seed}, {run.rounds} rounds; "
          f"{run.left_out} rounds left out for a scan over DeepDA's capacity")
    fifth = max(1, len(run.kernels) // 5)
    print(f"# blas {blas}, {threads} threads; reference kernel {median(run.kernels[:fifth]) * 1e3:.3f} ms "
          f"in the first fifth of the run, {median(run.kernels[-fifth:]) * 1e3:.3f} ms in the last")
    for kind in sorted({op["kind"] for op in run.ops}):
        raw = median([op["seconds"] for op in run.ops if op["kind"] == kind])
        print(f"# {kind}: median {raw * 1e3:.3f} ms of wall time before scaling to reference speed")
    if run.tracer and run.tracer.absent:
        print(f"# absent from the program, not traced: {', '.join(run.tracer.absent)}")
    for msg in run.errors[:20]:
        print(f"# OPERATION FAILED: {msg}")
    for msg in problems[:20]:
        print(f"# CHECK FAILED: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}, checked {len(run.checked_calls)} associate calls "
          f"and {len(run.checked_episodes)} episodes")
    if run.tracer:
        OUT.mkdir(exist_ok=True)
        run.tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed, "blas": blas, "blas_threads": threads})
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
