"""Scenario simulation: ground truth, noisy labeled scans, training sets.

Randomness comes from numpy's PCG64 generator seeded through SeedSequence
with explicit spawn keys, one independent stream per scan. That choice is
part of the output format: the same seed reproduces the same scans bit for
bit, serially or from parallel workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import (
    CLUTTER,
    CapacityError,
    ConfigError,
    ContractViolation,
    Scan,
    ScenarioConfig,
)
from .kalman import transition_matrix

Seed = Union[int, Tuple[int, ...]]


@dataclass(frozen=True)
class GroundTruth:
    """True target states for every scan of a scenario.

    ``states[k, j]`` is target j's (x, vx, y, vy) at scan k. Consecutive
    states obey exact constant-velocity propagation.
    """

    states: np.ndarray
    config: ScenarioConfig

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        expected = (self.config.num_scans, self.config.num_targets, 4)
        if s.shape != expected:
            raise ContractViolation(f"states shape {s.shape}, expected {expected}")
        stepped = s[:-1].copy()
        stepped[:, :, 0] += stepped[:, :, 1] * self.config.dt
        stepped[:, :, 2] += stepped[:, :, 3] * self.config.dt
        if not np.array_equal(stepped, s[1:]):
            raise ContractViolation("states do not follow constant-velocity propagation")
        object.__setattr__(self, "states", s)

    def positions(self, k: int) -> np.ndarray:
        return self.states[k][:, [0, 2]]


def generate_truth(config: ScenarioConfig) -> GroundTruth:
    """Deterministic constant-velocity trajectories from the initial states."""
    states = np.empty((config.num_scans, config.num_targets, 4))
    states[0] = np.array(config.initial_states, dtype=float)
    for k in range(1, config.num_scans):
        prev = states[k - 1]
        nxt = prev.copy()
        nxt[:, 0] += prev[:, 1] * config.dt
        nxt[:, 2] += prev[:, 3] * config.dt
        states[k] = nxt
    return GroundTruth(states, config)


def _scan_rng(seed: Seed, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))


def generate_scans(truth: GroundTruth, seed: Seed) -> List[Scan]:
    """Noisy labeled scans: thinned detections plus Poisson clutter.

    Per scan, each target is detected with probability p_d and contributes
    its true position plus independent zero-mean Gaussian noise; the clutter
    count is Poisson(e_lambda) with positions uniform over the region. The
    measurement order is shuffled so engines cannot exploit target order.
    """
    cfg = truth.config
    scans: List[Scan] = []
    sigma = np.array([cfg.sigma_x, cfg.sigma_y])
    low = np.array([cfg.region.xmin, cfg.region.ymin])
    high = np.array([cfg.region.xmax, cfg.region.ymax])
    for k in range(cfg.num_scans):
        rng = _scan_rng(seed, k)
        detected = rng.random(cfg.num_targets) < cfg.p_d
        ids = np.flatnonzero(detected)
        noise = rng.standard_normal((len(ids), 2)) * sigma
        target_meas = truth.positions(k)[ids] + noise
        n_clutter = int(rng.poisson(cfg.e_lambda))
        clutter = rng.uniform(low, high, size=(n_clutter, 2))
        measurements = np.concatenate([target_meas, clutter], axis=0)
        origins = [int(j) for j in ids] + [CLUTTER] * n_clutter
        perm = rng.permutation(len(origins))
        scans.append(
            Scan(
                k=k,
                measurements=measurements[perm],
                origins=tuple(origins[i] for i in perm),
            )
        )
    return scans


@dataclass(frozen=True)
class ScanSequence:
    """Per-scan training group: one association decision per target.

    ``pred_meas[t]`` is the predicted measurement of target t (its previous
    true state propagated one step); ``labels[t]`` is the index of the
    measurement it produced, or -1 when undetected.
    """

    pred_meas: np.ndarray
    measurements: np.ndarray
    labels: Tuple[int, ...]


@dataclass(frozen=True)
class TrainingSet:
    """Supervised association samples grouped by scan."""

    groups: Tuple[ScanSequence, ...]
    m_max: int

    def __len__(self) -> int:
        return len(self.groups)


def make_training_set(
    configs: Sequence[ScenarioConfig],
    seeds: Optional[Sequence[Seed]] = None,
    m_max: Optional[int] = None,
) -> TrainingSet:
    """Simulate every config and emit per-scan association samples.

    For each scan k >= 1 and each target: the target's truth at k-1
    propagated one step, the scan's measurements, and the one-hot truth row
    (its measurement's index, or the miss column when undetected).
    """
    if not configs:
        raise ConfigError("make_training_set needs at least one scenario config")
    if seeds is None:
        seeds = [c.seed for c in configs]
    if len(seeds) != len(configs):
        raise ConfigError(f"{len(seeds)} seeds for {len(configs)} configs")

    groups: List[ScanSequence] = []
    observed_max = 0
    for cfg, seed in zip(configs, seeds):
        truth = generate_truth(cfg)
        scans = generate_scans(truth, seed)
        f = transition_matrix(cfg.dt)
        for k in range(1, cfg.num_scans):
            pred_states = truth.states[k - 1] @ f.T
            pred_meas = pred_states[:, [0, 2]]
            scan = scans[k]
            observed_max = max(observed_max, scan.num_measurements)
            origin_to_meas = {o: i for i, o in enumerate(scan.origins) if o != CLUTTER}
            labels = tuple(origin_to_meas.get(j, -1) for j in range(cfg.num_targets))
            groups.append(ScanSequence(pred_meas, scan.measurements, labels))

    if m_max is None:
        m_max = observed_max
    elif m_max < observed_max:
        raise CapacityError(f"m_max={m_max} below the largest scan ({observed_max} measurements)")
    return TrainingSet(tuple(groups), m_max=max(m_max, 1))


def seeded_variants(base: ScenarioConfig, count: int) -> List[ScenarioConfig]:
    """``count`` copies of ``base`` differing only in seed (base.seed + i)."""
    if count < 1:
        raise ConfigError(f"variant count must be >= 1, got {count}")
    return [replace(base, seed=base.seed + i) for i in range(count)]


# ---------------------------------------------------------------------------
# CSV export/import. scans.csv columns: scan (scan index), k (measurement
# index within the scan), x, y, origin (-1 = clutter, empty = unlabeled).
# A scan without measurements is one row that carries its scan index and
# leaves k, x, y and origin empty, so the scan count survives the file.
# Labelling of an empty scan is taken from the file: it reads back with
# origins=() unless some measurement row has an empty origin, then None.
# truth.csv columns: scan, target, x, vx, y, vy. Floats are written as
# repr(float(v)), the same text under numpy 1 and 2, so files round-trip
# exactly. Malformed rows raise ConfigError naming the file and line.
# ---------------------------------------------------------------------------

SCANS_CSV_HEADER = ["scan", "k", "x", "y", "origin"]
TRUTH_CSV_HEADER = ["scan", "target", "x", "vx", "y", "vy"]
_EMPTY_SCAN_FIELDS = ["", "", "", ""]


def _malformed(path, line: int, row, e: Exception) -> ConfigError:
    return ConfigError(f"{path}, line {line}: malformed row {row}: {e}")


def write_scans_csv(scans: Sequence[Scan], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCANS_CSV_HEADER)
        for scan in scans:
            if scan.num_measurements == 0:
                writer.writerow([scan.k] + _EMPTY_SCAN_FIELDS)
            for i, z in enumerate(scan.measurements):
                origin = "" if scan.origins is None else str(scan.origins[i])
                writer.writerow([scan.k, i, repr(float(z[0])), repr(float(z[1])), origin])


def read_scans_csv(path) -> List[Scan]:
    """Scans from scans.csv in scan-index order, empty scans included."""
    by_scan: dict = {}
    labeled_file = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SCANS_CSV_HEADER:
            raise ConfigError(f"unexpected scans.csv header: {header}")
        for row in reader:
            try:
                if len(row) != len(SCANS_CSV_HEADER):
                    raise IndexError(f"{len(row)} fields, expected {len(SCANS_CSV_HEADER)}")
                rows = by_scan.setdefault(int(row[0]), [])
                if row[1:] == _EMPTY_SCAN_FIELDS:
                    continue
                origin = None if row[4] == "" else int(row[4])
                rows.append((int(row[1]), float(row[2]), float(row[3]), origin))
            except (ValueError, IndexError) as e:
                raise _malformed(path, reader.line_num, row, e) from None
            labeled_file = labeled_file and origin is not None
    scans = []
    for k in sorted(by_scan):
        rows = sorted(by_scan[k], key=lambda r: r[0])
        meas = np.array([r[1:3] for r in rows]).reshape(len(rows), 2)
        labels = [r[3] for r in rows]
        if not rows:
            origins = () if labeled_file else None
        elif all(o is None for o in labels):
            origins = None
        elif any(o is None for o in labels):
            raise ConfigError(f"{path}: scan {k} mixes labeled and unlabeled rows")
        else:
            origins = tuple(labels)
        scans.append(Scan(k=k, measurements=meas, origins=origins))
    return scans


def write_truth_csv(truth: GroundTruth, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_CSV_HEADER)
        for k in range(truth.config.num_scans):
            for j in range(truth.config.num_targets):
                writer.writerow([k, j] + [repr(float(v)) for v in truth.states[k, j]])


def read_truth_states(path) -> np.ndarray:
    """True states from truth.csv as a (num_scans, num_targets, 4) array."""
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRUTH_CSV_HEADER:
            raise ConfigError(f"unexpected truth.csv header: {header}")
        for row in reader:
            try:
                if len(row) != len(TRUTH_CSV_HEADER):
                    raise IndexError(f"{len(row)} fields, expected {len(TRUTH_CSV_HEADER)}")
                entries[(int(row[0]), int(row[1]))] = [float(v) for v in row[2:6]]
            except (ValueError, IndexError) as e:
                raise _malformed(path, reader.line_num, row, e) from None
    if not entries:
        raise ConfigError("truth.csv contains no states")
    num_scans = max(k for k, _ in entries) + 1
    num_targets = max(j for _, j in entries) + 1
    out = np.zeros((num_scans, num_targets, 4))
    for (k, j), state in entries.items():
        out[k, j] = state
    return out
