"""Core value types shared by the tracking toolkit.

Everything here is an immutable value type: instances are safe to copy,
hash (where applicable) and hand between threads or worker processes.
Numpy arrays held by these types are treated as read-only by convention.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

import numpy as np

from ._lap import solve_lap

#: Origin label for a measurement caused by the environment, not a target.
CLUTTER = -1


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(ToolkitError):
    """Invalid configuration or usage; messages name the offending field."""


class ContractViolation(ToolkitError):
    """An operation was called with inputs violating its preconditions."""


class NumericalError(ToolkitError):
    """Numerical degeneracy (singular innovation, non-finite values)."""


class CapacityError(ContractViolation):
    """More measurements in a scan than the configured slot capacity."""


class ComplexityError(ToolkitError):
    """Joint-event enumeration would exceed the tractability guard."""


class ModelFormatError(ToolkitError):
    """Model file is corrupt, truncated, or of an unsupported version."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned surveillance rectangle in metres."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ConfigError(
                f"region must have positive area, got x [{self.xmin}, {self.xmax}] "
                f"y [{self.ymin}, {self.ymax}]"
            )

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @staticmethod
    def from_dict(d: Mapping) -> "Region":
        unknown = set(d) - {f.name for f in fields(Region)}
        if unknown:
            raise ConfigError(f"region: unknown fields {sorted(unknown)}")
        try:
            return Region(float(d["xmin"]), float(d["xmax"]), float(d["ymin"]), float(d["ymax"]))
        except KeyError as e:
            raise ConfigError(f"region: missing field {e.args[0]!r}") from None


#: Default surveillance region: covers the reference trajectories with margin.
DEFAULT_REGION = Region(4.0, 30.0, 8.0, 22.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated tracking scenario.

    ``initial_states`` entries are (x, vx, y, vy) in (m, m/s, m, m/s).
    ``e_lambda`` is the expected number of clutter points per scan over the
    whole region (clutter positions are uniform over ``region``).
    """

    num_targets: int
    initial_states: Tuple[Tuple[float, float, float, float], ...]
    dt: float = 1.0
    num_scans: int = 20
    sigma_x: float = 0.3162
    sigma_y: float = 0.3162
    p_d: float = 0.9
    e_lambda: float = 20.0
    region: Region = DEFAULT_REGION
    seed: int = 0

    def __post_init__(self):
        states = tuple(tuple(float(v) for v in s) for s in self.initial_states)
        object.__setattr__(self, "initial_states", states)
        if self.num_targets < 1:
            raise ConfigError(f"num_targets must be >= 1, got {self.num_targets}")
        if len(states) != self.num_targets:
            raise ConfigError(
                f"initial_states has {len(states)} entries for num_targets={self.num_targets}"
            )
        for s in states:
            if len(s) != 4:
                raise ConfigError(f"initial_states entries must be (x, vx, y, vy), got {s}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.num_scans < 1:
            raise ConfigError(f"num_scans must be >= 1, got {self.num_scans}")
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ConfigError(f"sigma_x/sigma_y must be >= 0, got {self.sigma_x}/{self.sigma_y}")
        if not (0.0 < self.p_d <= 1.0):
            raise ConfigError(f"p_d must be in (0, 1], got {self.p_d}")
        if self.e_lambda < 0:
            raise ConfigError(f"e_lambda must be >= 0, got {self.e_lambda}")
        for j, (x, _, y, _) in enumerate(states):
            if not self.region.contains(x, y):
                raise ConfigError(
                    f"region does not contain initial position of target {j}: ({x}, {y})"
                )

    def to_dict(self) -> Dict:
        return {**asdict(self), "initial_states": [list(s) for s in self.initial_states]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(d: Mapping) -> "ScenarioConfig":
        names = {f.name for f in fields(ScenarioConfig)}
        unknown = set(d) - names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = names - set(d)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return ScenarioConfig(
            num_targets=int(d["num_targets"]),
            initial_states=tuple(tuple(s) for s in d["initial_states"]),
            dt=float(d["dt"]),
            num_scans=int(d["num_scans"]),
            sigma_x=float(d["sigma_x"]),
            sigma_y=float(d["sigma_y"]),
            p_d=float(d["p_d"]),
            e_lambda=float(d["e_lambda"]),
            region=Region.from_dict(d["region"]),
            seed=int(d["seed"]),
        )

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return ScenarioConfig.from_dict(d)


def five_crossing_targets(p_d: float = 0.9, e_lambda: float = 20.0, seed: int = 0) -> ScenarioConfig:
    """Reference scenario: five constant-velocity targets crossing mid-episode.

    All targets share x motion and their y trajectories meet near scan 10.
    """
    return ScenarioConfig(
        num_targets=5,
        initial_states=(
            (5.0, 1.0, 11.0, 0.4),
            (5.0, 1.0, 13.0, 0.2),
            (5.0, 1.0, 15.0, 0.0),
            (5.0, 1.0, 17.0, -0.2),
            (5.0, 1.0, 19.0, -0.4),
        ),
        p_d=p_d,
        e_lambda=e_lambda,
        seed=seed,
    )


@dataclass(frozen=True)
class Scan:
    """One dwell's measurement set, optionally with ground-truth origins.

    ``origins[i]`` is the target id that produced measurement i, or
    :data:`CLUTTER`. A target yields at most one detection per scan.
    """

    k: int
    measurements: np.ndarray
    origins: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        z = np.asarray(self.measurements, dtype=float)
        if z.size == 0:
            z = z.reshape(0, 2)
        if z.ndim != 2 or z.shape[1] != 2:
            raise ContractViolation(f"measurements must be (M, 2), got shape {z.shape}")
        object.__setattr__(self, "measurements", z)
        if self.origins is not None:
            origins = tuple(int(o) for o in self.origins)
            object.__setattr__(self, "origins", origins)
            if len(origins) != len(z):
                raise ContractViolation(
                    f"origins length {len(origins)} != measurement count {len(z)}"
                )
            labels = [o for o in origins if o != CLUTTER]
            if len(labels) != len(set(labels)):
                raise ContractViolation("a target id appears on more than one measurement")

    @property
    def num_measurements(self) -> int:
        return self.measurements.shape[0]


def _check_tracks(x: np.ndarray, p: np.ndarray, lead: Tuple[int, ...], ids) -> None:
    """The track checks, in order, for states of shape ``lead + (4,)`` and
    covariances of shape ``lead + (4, 4)``; ``ids[row]`` names a row.

    Shapes, then symmetry to ``np.allclose(p, p.T, atol=1e-8)`` (NaN fails
    it), raise ``ContractViolation``; a non-finite state or covariance
    raises ``NumericalError``; a smallest eigenvalue below -1e-9 raises
    ``ContractViolation``.
    """
    if x.shape != lead + (4,):
        raise ContractViolation(f"state must have 4 entries, shape (4,) per track; got shape {x.shape}")
    if p.shape != lead + (4, 4):
        raise ContractViolation(f"covariance must be 4x4 per track, got shape {p.shape}")
    x = x.reshape(-1, 4)
    p = p.reshape(-1, 4, 4)
    pt = p.swapaxes(1, 2)
    # Each rule is one whole-array test; the failing row is found only after.
    finite = np.isfinite(p).all()
    # allclose's rule without its non-finite handling, which only non-finite p needs.
    if finite:
        symmetric = (np.abs(p - pt) <= 1e-8 + 1e-5 * np.abs(pt)).all()
    else:
        symmetric = np.allclose(p, pt, atol=1e-8)
    if not symmetric:
        raise ContractViolation("covariance must be symmetric")
    if not (finite and np.isfinite(x).all()):
        bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=(1, 2)))
        raise NumericalError(f"track {ids[int(np.argmax(bad))]}: non-finite state or covariance")
    if len(p):
        lowest = np.linalg.eigvalsh(p)[:, 0]  # eigenvalues come in ascending order
        if lowest.min() < -1e-9:
            raise ContractViolation(f"track {ids[int(np.argmax(lowest < -1e-9))]}: covariance is not PSD")


@dataclass(frozen=True)
class TrackSet:
    """Every target's filtered state estimate, one row per track.

    ``x[j]`` is track j's state (x, vx, y, vy) and ``p[j]`` its 4x4
    symmetric PSD covariance; a track's id is its row. Checked on
    construction as :class:`Track` is, and never written in place.
    """

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        _check_tracks(x, p, x.shape[:1], range(len(x)))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator["Track"]:
        return (Track(j, self.x[j], self.p[j]) for j in range(len(self.x)))

    @property
    def positions(self) -> np.ndarray:
        """(N, 2) predicted measurements: every track's (x, y)."""
        return self.x[:, ::2]


@dataclass(frozen=True)
class Track:
    """One target's filtered state estimate: one row of a :class:`TrackSet`.

    State is (x, vx, y, vy) of shape (4,); covariance is 4x4 symmetric
    PSD. Checked by the same rules as a :class:`TrackSet`.
    """

    id: int
    state: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.state, dtype=float)
        p = np.asarray(self.covariance, dtype=float)
        _check_tracks(x, p, (), [self.id])
        object.__setattr__(self, "state", x)
        object.__setattr__(self, "covariance", p)

    @property
    def position(self) -> np.ndarray:
        return self.state[::2]


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise distances between track predictions (rows) and measurements.

    Entries are non-negative; ``+inf`` marks a pair excluded by gating.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ContractViolation(f"cost matrix must be 2-D, got shape {v.shape}")
        if np.any(np.isnan(v)) or np.any(v < 0):
            raise ContractViolation("cost matrix entries must be >= 0 and not NaN")
        object.__setattr__(self, "values", v)

    @property
    def num_tracks(self) -> int:
        return self.values.shape[0]

    @property
    def num_measurements(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Assignment:
    """A hard association outcome satisfying the one-to-one constraints.

    Every track is either in ``pairs`` or in ``unassigned_tracks``; every
    measurement is either some pair's value or in ``unassigned_measurements``.
    """

    pairs: Mapping[int, int]
    unassigned_tracks: FrozenSet[int]
    unassigned_measurements: FrozenSet[int]

    def __post_init__(self):
        pairs = dict(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "unassigned_tracks", frozenset(self.unassigned_tracks))
        object.__setattr__(self, "unassigned_measurements", frozenset(self.unassigned_measurements))
        meas = list(pairs.values())
        if len(meas) != len(set(meas)):
            raise ContractViolation("a measurement is assigned to more than one track")
        if set(pairs) & self.unassigned_tracks:
            raise ContractViolation("a track is both assigned and unassigned")
        if set(meas) & self.unassigned_measurements:
            raise ContractViolation("a measurement is both assigned and unassigned")

    @property
    def num_tracks(self) -> int:
        return len(self.pairs) + len(self.unassigned_tracks)

    @property
    def num_measurements(self) -> int:
        return len(self.pairs) + len(self.unassigned_measurements)


@dataclass(frozen=True)
class AssocProbabilities:
    """Per-track association probability rows over M measurements plus a miss.

    ``rows[j, i]`` is the probability that measurement i belongs to track j;
    the trailing column is the probability of no measurement at all. Rows sum
    to 1 within 1e-9.
    """

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[1] < 1:
            raise ContractViolation(f"rows must be (N, M+1), got shape {r.shape}")
        # One whole-array test (NaN fails it); which rule and row broke comes after.
        sums = r.sum(axis=1)
        off = np.abs(sums - 1.0)
        if r.size and not (r.min() >= -1e-12 and r.max() <= 1 + 1e-12 and off.max() <= 1e-9):
            if not np.all(np.isfinite(r)):
                raise NumericalError("association probabilities contain non-finite values")
            if np.any(r < -1e-12) or np.any(r > 1 + 1e-12):
                raise ContractViolation("association probabilities must lie in [0, 1]")
            worst = int(np.argmax(off))
            raise ContractViolation(
                f"association row {worst} sums to {sums[worst]!r}, expected 1 within 1e-9"
            )
        object.__setattr__(self, "rows", r)

    @property
    def num_tracks(self) -> int:
        return self.rows.shape[0]

    @property
    def num_measurements(self) -> int:
        return self.rows.shape[1] - 1


def assign_with_misses(cost: np.ndarray, miss, big: float, tie: float = 0.0) -> Assignment:
    """Optimal one-to-one assignment of the (n, m) ``cost`` where track j may
    miss instead at ``miss`` (one value or one per track, below ``big``): an
    n x (m + n) problem whose column m + j is track j's miss and ``big`` for
    the others. Free measurements cost nothing; pairs costing ``big`` or more
    are never returned; ``tie`` times the column index is added to order
    exact ties.

    Only the columns some track can take below ``big`` go to the solver.
    Dropping the others is exact: a track holding one does better on its own
    miss column, which no other track takes below ``big``, so no optimum
    uses it. The kept columns keep their order and their tie bias.
    """
    n, m = cost.shape
    aug = np.full((n, m + n), big)
    aug[:, :m] = cost
    aug[:, m:][np.diag_indices(n)] = miss
    aug += tie * np.arange(m + n)
    takeable = (aug.min(axis=0) < big).nonzero()[0]
    cols = takeable[solve_lap(aug[:, takeable].tolist())].tolist()
    pairs = {j: c for j, c in enumerate(cols) if c < m and aug[j, c] < big}
    missed = frozenset(range(n)) - frozenset(pairs)
    return Assignment(pairs, missed, frozenset(range(m)) - frozenset(pairs.values()))


def hard_assignment_from_probs(probs: AssocProbabilities) -> Assignment:
    """Best one-to-one hardening of probability rows.

    Maximizes the summed probability of the chosen option per track (a
    measurement or the miss column), i.e. minimizes sum(1 - beta) on the
    complemented matrix with the miss column replicated per track so a miss
    is always feasible. A pair of probability 0 is never chosen (the track's
    own miss is as good), so a measurement outside every gate drops out.
    """
    rows = probs.rows
    m = probs.num_measurements
    big = 4.0 * (probs.num_tracks + m + 1)  # dominates any feasible total of (1 - beta) terms
    beta = rows[:, :m]
    return assign_with_misses(np.where(beta > 0.0, 1.0 - beta, big), 1.0 - rows[:, m], big)
