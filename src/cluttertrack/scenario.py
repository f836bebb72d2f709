"""Scenario simulation: ground truth, noisy labeled scans, training sets.

The random stream is part of the output format: an int or tuple seed gives
the same scans bit for bit, serially or in parallel. Scan k draws only from
``PCG64(SeedSequence(seed, spawn_key=(k,)))``, in this order: ``random``
per target (detected if below p_d), ``standard_normal`` (detections, 2)
noise, the ``poisson`` clutter count, ``random`` (count, 2) clutter as
low + (high - low) * u, and a ``permutation`` of detections, in target
order, then clutter. The state words of every scan's ``PCG64`` are
computed at once: the key k enters ``SeedSequence`` only as its last
entropy word, so it is mixed into the pool of ``SeedSequence(seed)``, for
all scans in one pass of uint32 arithmetic (:func:`_scan_states`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

from .domain import (
    CLUTTER,
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
        stepped[:, :, ::2] += stepped[:, :, 1::2] * self.config.dt
        if not np.array_equal(stepped, s[1:]):
            raise ContractViolation("states do not follow constant-velocity propagation")
        object.__setattr__(self, "states", s)


def generate_truth(config: ScenarioConfig) -> GroundTruth:
    """Constant-velocity truth: positions sum x0, v*dt, v*dt, ... in scan order."""
    initial = np.array(config.initial_states, dtype=float)
    states = np.repeat(initial[None], config.num_scans, axis=0)
    states[1:, :, ::2] = initial[:, 1::2] * config.dt
    states[:, :, ::2] = np.cumsum(states[:, :, ::2], axis=0)
    return GroundTruth(states, config)


# The hash constants of numpy's SeedSequence (O'Neill's seed_seq design).
_M32 = 1 << 32
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: generate_state XORs output word i with _HASH_B[i] and multiplies it by _HASH_B[i + 1].
_HASH_B = np.array([_INIT_B * pow(_MULT_B, i, _M32) % _M32 for i in range(9)], dtype=np.uint32)


def _scan_states(seed: Seed, num_scans: int) -> np.ndarray:
    """(num_scans, 4) uint64 whose row k is
    ``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``.

    With a spawn key, the seed's words are padded with zeros to the pool's
    four, which hashes them as ``SeedSequence(seed)`` does; so the pool
    before the key is that one's, and the hash constant has taken 16 steps
    plus 4 per seed word past the fourth. The key then goes into each pool
    word by one hashmix and one mix. A negative seed raises numpy's
    ``ValueError``.
    """
    pool = np.random.SeedSequence(seed).pool
    first = 16 + 4 * max(0, len(_coerce_to_uint32_array(seed)) - 4)
    hash_a = np.array([_INIT_A * pow(_MULT_A, first + i, _M32) % _M32 for i in range(5)], dtype=np.uint32)
    hashed = (np.arange(num_scans, dtype=np.uint32)[:, None] ^ hash_a[:4]) * hash_a[1:]
    hashed ^= hashed >> 16
    pool = pool * _MIX_L - hashed * _MIX_R
    pool ^= pool >> 16
    words = (np.tile(pool, 2) ^ _HASH_B[:8]) * _HASH_B[1:]
    words ^= words >> 16
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """Hands ``PCG64`` the state words :func:`_scan_states` made for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def generate_scans(truth: GroundTruth, seed: Seed) -> List[Scan]:
    """Noisy labeled scans: thinned detections plus Poisson clutter.

    Per scan, each target is detected with probability p_d and contributes
    its true position plus independent zero-mean Gaussian noise; the clutter
    count is Poisson(e_lambda) with positions uniform over the region. The
    measurement order is shuffled so engines cannot exploit target order.
    """
    cfg = truth.config
    sigma = np.array([cfg.sigma_x, cfg.sigma_y])
    low = np.array([cfg.region.xmin, cfg.region.ymin])
    span = np.array([cfg.region.xmax, cfg.region.ymax]) - low
    positions = truth.states[:, :, ::2]
    scans: List[Scan] = []
    for k, words in enumerate(_scan_states(seed, cfg.num_scans)):
        rng = np.random.Generator(np.random.PCG64(_State(words)))
        detected = rng.random(cfg.num_targets) < cfg.p_d
        ids = detected.nonzero()[0]
        target_meas = positions[k][detected] + rng.standard_normal((len(ids), 2)) * sigma
        n_clutter = int(rng.poisson(cfg.e_lambda))
        # Generator.uniform(low, high) is low + (high - low) * u on these draws.
        clutter = low + span * rng.random((n_clutter, 2))
        measurements = np.concatenate([target_meas, clutter], axis=0)
        origins = ids.tolist() + [CLUTTER] * n_clutter
        perm = rng.permutation(len(origins))
        scans.append(Scan(k, measurements[perm], tuple([origins[i] for i in perm.tolist()])))
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


def make_training_set(configs: Sequence[ScenarioConfig]) -> TrainingSet:
    """Simulate every config and emit per-scan association samples.

    For each scan k >= 1 and each target: the target's truth at k-1
    propagated one step, the scan's measurements, and the one-hot truth row
    (its measurement's index, or the miss column when undetected). Each
    config is simulated with its own seed. The set's ``m_max`` is its
    largest scan's measurement count, at least 1.
    """
    if not configs:
        raise ConfigError("make_training_set needs at least one scenario config")

    groups: List[ScanSequence] = []
    m_max = 0
    for cfg in configs:
        truth = generate_truth(cfg)
        scans = generate_scans(truth, cfg.seed)
        pred_meas = (truth.states[:-1] @ transition_matrix(cfg.dt).T)[:, :, [0, 2]]
        for scan, pred in zip(scans[1:], pred_meas):
            m_max = max(m_max, scan.num_measurements)
            labels = [-1] * cfg.num_targets
            for i, origin in enumerate(scan.origins):
                if origin != CLUTTER:
                    labels[origin] = i
            groups.append(ScanSequence(pred, scan.measurements, tuple(labels)))

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
# leaves k, x, y and origin empty, so the scan count survives the file; that
# row is then the scan's only row.
# Labelling of an empty scan is taken from the file: it reads back with
# origins=() unless some measurement row has an empty origin, then None.
# truth.csv columns: scan, target, x, vx, y, vy. Scans, measurements and
# targets are numbered 0..n-1, each once. write_csv, the one CSV writer (of
# loss_curve.csv, tracks.csv and the bench reports too), writes floats as
# repr(float(v)), the same text under numpy 1 and 2, so files round-trip
# exactly. Malformed rows, non-finite numbers and origins below -1 included,
# raise ConfigError naming the file and line, a missing or repeated index or
# a target id on two measurements the file and scan, and an unreadable file the reason.
# ---------------------------------------------------------------------------

SCANS_CSV_HEADER = ["scan", "k", "x", "y", "origin"]
TRUTH_CSV_HEADER = ["scan", "target", "x", "vx", "y", "vy"]
_EMPTY_SCAN_FIELDS = ["", "", "", ""]


def _malformed(path, line: int, row, e: Exception) -> ConfigError:
    return ConfigError(f"{path}, line {line}: malformed row {row}: {e}")


def _read_csv(path, header: Sequence[str], name: str) -> List[Tuple[int, List[str]]]:
    """(line number, row) of each row below the first, ``header``, of the CSV file ``name`` at ``path``."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first != header:
                raise ConfigError(f"unexpected {name} header: {first}")
            return [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``header``, then ``rows``, in the default ``csv`` dialect; Python and
    numpy floats as ``repr(float(v))``, anything else as ``str(v)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
        )


def write_scans_csv(scans: Sequence[Scan], path) -> None:
    rows = []
    for scan in scans:
        if scan.num_measurements == 0:
            rows.append([scan.k] + _EMPTY_SCAN_FIELDS)
        for i, z in enumerate(scan.measurements):
            rows.append([scan.k, i, z[0], z[1], "" if scan.origins is None else scan.origins[i]])
    write_csv(path, SCANS_CSV_HEADER, rows)


def read_scans_csv(path) -> List[Scan]:
    """Scans from scans.csv in scan-index order, empty scans included."""
    by_scan: dict = {}
    labeled_file = True
    for line, row in _read_csv(path, SCANS_CSV_HEADER, "scans.csv"):
        try:
            if len(row) != len(SCANS_CSV_HEADER):
                raise IndexError(f"{len(row)} fields, expected {len(SCANS_CSV_HEADER)}")
            rows = by_scan.setdefault(int(row[0]), [])
            if row[1:] == _EMPTY_SCAN_FIELDS:
                rows.append(None)  # the empty-scan row
                continue
            origin = None if row[4] == "" else int(row[4])
            if origin is not None and origin < CLUTTER:
                raise ValueError(f"origin {origin} is below {CLUTTER}")
            rows.append((int(row[1]), _finite(row[2]), _finite(row[3]), origin))
        except (ValueError, IndexError) as e:
            raise _malformed(path, line, row, e) from None
        labeled_file = labeled_file and origin is not None
    scans = []
    for k in range(len(by_scan)):
        if k not in by_scan:
            raise ConfigError(f"{path}: scans must run 0..{len(by_scan) - 1}; scan {k} has no rows")
        if None in by_scan[k] and len(by_scan[k]) > 1:
            raise ConfigError(f"{path}: scan {k}: an empty-scan row must be the scan's only row")
        rows = sorted((r for r in by_scan[k] if r is not None), key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(len(rows))):
            raise ConfigError(f"{path}: scan {k}: measurements must run 0..{len(rows) - 1}, each once")
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
        try:
            scans.append(Scan(k=k, measurements=meas, origins=origins))
        except ContractViolation as e:
            raise ConfigError(f"{path}: scan {k}: {e}") from None
    return scans


def write_truth_csv(truth: GroundTruth, path) -> None:
    cfg = truth.config
    rows = ([k, j, *truth.states[k, j]] for k in range(cfg.num_scans) for j in range(cfg.num_targets))
    write_csv(path, TRUTH_CSV_HEADER, rows)


def read_truth_states(path) -> np.ndarray:
    """True states from truth.csv as a (num_scans, num_targets, 4) array."""
    entries = {}
    for line, row in _read_csv(path, TRUTH_CSV_HEADER, "truth.csv"):
        try:
            if len(row) != len(TRUTH_CSV_HEADER):
                raise IndexError(f"{len(row)} fields, expected {len(TRUTH_CSV_HEADER)}")
            key = (int(row[0]), int(row[1]))
            if min(key) < 0:
                raise ValueError("negative scan or target index")
            state = [_finite(v) for v in row[2:6]]
        except (ValueError, IndexError) as e:
            raise _malformed(path, line, row, e) from None
        if key in entries:
            raise ConfigError(f"{path}, line {line}: repeated scan {key[0]}, target {key[1]}")
        entries[key] = state
    if not entries:
        raise ConfigError(f"{path}: contains no states")
    num_scans = max(k for k, _ in entries) + 1
    num_targets = max(j for _, j in entries) + 1
    for key in np.ndindex(num_scans, num_targets):
        if key not in entries:
            raise ConfigError(f"{path}: no state for scan {key[0]}, target {key[1]}")
    return np.array([entries[key] for key in sorted(entries)]).reshape(num_scans, num_targets, 4)
