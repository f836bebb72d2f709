"""Core types and helpers shared by the tracking toolkit.

The module holds the error types; the frozen dataclasses of configs,
scans, track sets, cost matrices, assignments and association
probabilities, which check their fields on construction; ``Track``, an
unchecked row of a :class:`TrackSet`; :func:`read_config`, which reads a
config dataclass from a JSON object; and the two hard-assignment helpers,
:func:`assign_with_misses` and :func:`hard_assignment_from_probs`. The
frozen types are not deeply immutable: numpy arrays they hold are
read-only by convention only, and ``Assignment.pairs`` is a plain dict.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import ClassVar, Dict, FrozenSet, Iterator, Mapping, NamedTuple, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

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
    """Exact JPDA would make more state updates of its subset walk than the
    tractability guard allows."""


class ModelFormatError(ToolkitError):
    """Model file is corrupt, truncated, or of an unsupported version."""


def read_config(section: str, doc, cls, required: bool = False):
    """The ``cls`` that the JSON object ``doc`` describes; any failure, also
    one ``cls`` raises, is a :class:`ConfigError` led by ``section.field``
    (or ``section`` when no one field is at fault).

    Unknown keys are refused, and so are missing ones: a field with no
    default, and every field if ``required`` or ``cls.every_field_required``.
    Values take their field's type: ``float`` (a JSON number, not a
    boolean or a string), ``int`` (a JSON integer, or a number with an
    integral value such as 5.0; not a fraction or a boolean), ``str``,
    ``Optional[X]``, tuples from JSON lists, and config dataclasses, read by
    this function as section ``section.field``.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{section}: expected a JSON object, got {type(doc).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = set(doc) - set(names)
    if unknown:
        raise ConfigError(
            f"{section}: unknown fields {sorted(unknown)}; accepted fields are {names}"
        )
    required = required or getattr(cls, "every_field_required", False)
    missing = [f.name for f in fields(cls) if f.name not in doc and (required or f.default is MISSING)]
    if missing:
        raise ConfigError(f"{section}: missing fields {missing}")
    hints = get_type_hints(cls)
    values = {n: _convert(f"{section}.{n}", doc[n], hints[n]) for n in names if n in doc}
    try:
        return cls(**values)
    except (TypeError, ValueError, ToolkitError) as e:
        raise ConfigError(f"{section}: {e}") from None


def _convert(path: str, value, tp):
    """``value`` as the declared type ``tp``; see :func:`read_config`."""
    if isinstance(tp, type) and is_dataclass(tp):
        return read_config(path, value, tp)
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _convert(path, value, get_args(tp)[0])
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} items, got {len(value)}")
        return tuple(_convert(f"{path}[{i}]", v, a) for i, (v, a) in enumerate(zip(value, args)))
    if tp is str and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {type(value).__name__}")
    if tp is int:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if tp is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        return tp(value)
    except OverflowError as e:
        raise ConfigError(f"{path}: {e}") from None


@dataclass(frozen=True)
class Region:
    """Axis-aligned surveillance rectangle in metres."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin and math.isfinite(self.area)):
            raise ConfigError(
                f"region must have finite positive area, got x [{self.xmin}, {self.xmax}] "
                f"y [{self.ymin}, {self.ymax}]"
            )

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


#: Default surveillance region: covers the reference trajectories with margin.
DEFAULT_REGION = Region(4.0, 30.0, 8.0, 22.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated tracking scenario.

    ``initial_states`` holds one (x, vx, y, vy) entry, in (m, m/s, m, m/s),
    per target, and at least one; the target count is read off it
    (:attr:`num_targets`), not set. ``e_lambda`` is the expected number of
    clutter points per scan over the whole region (clutter positions are
    uniform over ``region``). Every number must be finite.
    """

    #: A scenario file spells out every field, so that it describes its run
    #: in full; :func:`read_config` requires them all.
    every_field_required: ClassVar[bool] = True

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
        if not states:
            raise ConfigError("initial_states must hold at least one target")
        for s in states:
            if len(s) != 4:
                raise ConfigError(f"initial_states entries must be (x, vx, y, vy), got {s}")
            if not all(map(math.isfinite, s)):
                raise ConfigError(f"initial_states entries must be finite, got {s}")
        for name in ("dt", "sigma_x", "sigma_y", "e_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        for name, low in (("num_scans", 1), ("sigma_x", 0), ("sigma_y", 0), ("e_lambda", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (0.0 < self.p_d <= 1.0):
            raise ConfigError(f"p_d must be in (0, 1], got {self.p_d}")
        r = self.region
        for j, (x, _, y, _) in enumerate(states):
            if not (r.xmin <= x <= r.xmax and r.ymin <= y <= r.ymax):
                raise ConfigError(
                    f"region does not contain initial position of target {j}: ({x}, {y})"
                )

    @property
    def num_targets(self) -> int:
        return len(self.initial_states)

    def to_dict(self) -> Dict:
        return {**asdict(self), "initial_states": [list(s) for s in self.initial_states]}

    @staticmethod
    def from_dict(d) -> "ScenarioConfig":
        return read_config("scenario", d, ScenarioConfig)


def five_crossing_targets(p_d: float = 0.9, e_lambda: float = 20.0, seed: int = 0) -> ScenarioConfig:
    """Reference scenario: five constant-velocity targets crossing mid-episode.

    All targets share x motion and their y trajectories meet near scan 10.
    """
    return ScenarioConfig(
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
            origins = tuple(map(int, self.origins))
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


@dataclass(frozen=True)
class TrackSet:
    """Every target's filtered state estimate, one row per track.

    ``x[j]`` is track j's state (x, vx, y, vy) and ``p[j]`` its 4x4
    symmetric PSD covariance; a track's id is its row. Never written in
    place. Checked on construction, in this order: shapes, then symmetry to
    ``np.allclose(p, p.T, atol=1e-8)`` (NaN fails it; an exactly symmetric
    ``p``, which the filter always makes, passes without the tolerance
    test), raise ``ContractViolation``; a non-finite state or covariance
    raises ``NumericalError``; a smallest eigenvalue below -1e-9 raises
    ``ContractViolation``. A row error names the first failing row as
    "track j".
    """

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.shape != x.shape[:1] + (4,):
            raise ContractViolation(f"state must have 4 entries, shape (4,) per track; got shape {x.shape}")
        if p.shape != x.shape[:1] + (4, 4):
            raise ContractViolation(f"covariance must be 4x4 per track, got shape {p.shape}")
        pt = p.swapaxes(1, 2)
        # Each rule is one whole-array test; the failing row is found only after.
        if not ((p == pt).all() or np.allclose(p, pt, atol=1e-8)):
            raise ContractViolation("covariance must be symmetric")
        if not (np.isfinite(p).all() and np.isfinite(x).all()):
            bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=(1, 2)))
            raise NumericalError(f"track {int(np.argmax(bad))}: non-finite state or covariance")
        if len(p):
            lowest = np.linalg.eigvalsh(p)[:, 0]  # eigenvalues come in ascending order
            if lowest.min() < -1e-9:
                raise ContractViolation(f"track {int(np.argmax(lowest < -1e-9))}: covariance is not PSD")
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


class Track(NamedTuple):
    """One row of a :class:`TrackSet`, unchecked: its id, its state (4,)
    and its 4x4 covariance."""

    id: int
    state: np.ndarray
    covariance: np.ndarray


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
        if not (v >= 0).all():  # one pass: NaN fails the test as a negative does
            raise ContractViolation("cost matrix entries must be >= 0 and not NaN")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Assignment:
    """A one-to-one hard association of ``num_tracks`` tracks and
    ``num_measurements`` measurements: ``pairs`` maps a track to its
    measurement, and no measurement is paired twice. The unassigned tracks
    and measurements are the rest, computed when read.
    """

    pairs: Mapping[int, int]
    num_tracks: int
    num_measurements: int

    def __post_init__(self):
        pairs = dict(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if len(set(pairs.values())) != len(pairs):
            raise ContractViolation("a measurement is assigned to more than one track")

    @property
    def unassigned_tracks(self) -> FrozenSet[int]:
        return frozenset(range(self.num_tracks)).difference(self.pairs)

    @property
    def unassigned_measurements(self) -> FrozenSet[int]:
        return frozenset(range(self.num_measurements)).difference(self.pairs.values())


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


def assign_with_misses(cost: np.ndarray, miss, tie: float = 0.0) -> Assignment:
    """Optimal one-to-one assignment of the (n, m) ``cost`` where track j may
    miss instead at the finite ``miss`` (one value or one per track): an
    n x (m + n) problem whose column m + j is track j's miss and ``+inf``
    for the others. Free measurements cost nothing; a ``+inf`` entry is a
    pair that is never made; ``tie`` times the column index is added to
    order exact ties.

    Only the measurement columns that can win go to the solver, with all n
    miss columns: a column is kept when some track's entry is at most that
    track's own miss entry, tie bias included. Dropping the others is
    exact: a track holding one does strictly better on its own miss column,
    which no other track can take, so no optimum uses it. The kept columns
    keep their order and their tie bias. The result holds the pairs and the
    sizes n and m; its unassigned sets are derived from them when read.
    """
    n, m = cost.shape
    aug = np.full((n, m + n), np.inf)
    aug[:, :m] = cost
    aug.reshape(-1)[m :: m + n + 1] = miss  # (j, m + j) for every j: the miss diagonal
    if tie:
        aug += tie * np.arange(m + n)
    # Each miss column passes the test on its own track's row, so all stay.
    kept = (aug <= aug[:, m:].diagonal()[:, None]).any(axis=0).nonzero()[0]
    cols = kept.tolist()
    pairs = {j: cols[c] for j, c in enumerate(solve_lap(aug.take(kept, axis=1).tolist())) if cols[c] < m}
    return Assignment(pairs, n, m)


def hard_assignment_from_probs(probs: AssocProbabilities) -> Assignment:
    """Best one-to-one hardening of probability rows.

    Maximizes the summed probability of the chosen option per track (a
    measurement or the miss column), i.e. minimizes sum(1 - beta) on the
    complemented matrix with the miss column replicated per track so a miss
    is always feasible. A pair of probability 0 costs ``+inf`` and is never
    made (the track's own miss is as good), so a measurement outside every
    gate drops out.
    """
    rows = probs.rows
    beta = rows[:, :-1]
    return assign_with_misses(np.where(beta > 0.0, 1.0 - beta, np.inf), 1.0 - rows[:, -1])
