"""Classic association engines: gated global-nearest-neighbour and JPDA.

The global assignment solver treats a miss as a per-track dummy column with
a configurable cost, so the one-to-one constraints always have a feasible
solution: tracks may go unassigned (missed detection) and measurements may
stay free (clutter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .domain import (
    Assignment,
    AssocProbabilities,
    ComplexityError,
    ContractViolation,
    CostMatrix,
    NumericalError,
    Scan,
    TrackSet,
    assign_with_misses,
)
from .kalman import FilterParams, innovations

#: Guard on the JPDA state transitions per gating cluster.
MAX_JOINT_EVENTS = 1_000_000


@dataclass(frozen=True)
class GateParams:
    """Ellipsoidal validation gate threshold (chi-square, 2 dof).

    The default 9.21 keeps ~99% of true detections inside the gate.
    """

    gamma: float = 9.21

    def __post_init__(self):
        if not self.gamma > 0:
            raise ContractViolation(f"gamma must be > 0, got {self.gamma}")


def hungarian(cost: CostMatrix, miss_cost: float) -> Assignment:
    """Globally optimal assignment with explicit miss handling.

    Leaving a track unassigned costs ``miss_cost``; leaving a measurement
    unassigned costs nothing (clutter), so one rectangular tracks x
    (measurements + tracks) problem with a dummy miss column per track
    suffices, without clutter rows (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016). Ties break toward the lowest
    measurement index. ``+inf`` entries are treated as forbidden pairs.
    """
    if not miss_cost > 0:
        raise ContractViolation(f"miss_cost must be > 0, got {miss_cost}")
    v = cost.values
    n, m = v.shape
    finite = v[np.isfinite(v)]
    top = max(float(finite.max()) if finite.size else 0.0, miss_cost)
    big = (top + 1.0) * (n + 1)
    # Infinitesimal column bias so exact ties resolve toward the lowest
    # measurement index; far below any meaningful cost difference.
    tie = (top + 1.0) * 1e-12 / (m + n + 1)
    return assign_with_misses(np.where(np.isfinite(v), v, big), miss_cost, big, tie)


def gate(d2: np.ndarray, gp: GateParams) -> Set[int]:
    """Indices of measurements inside one track's ellipsoidal gate, from its
    row of squared Mahalanobis distances (:func:`~cluttertrack.kalman.innovations`)."""
    return set(np.flatnonzero(d2 <= gp.gamma).tolist())


def _clusters(gates: Sequence[Set[int]]) -> List[Tuple[List[int], List[int]]]:
    """Connected components of the track-measurement gating graph."""
    meas_to_tracks: Dict[int, List[int]] = {}
    for j, g in enumerate(gates):
        for i in g:
            meas_to_tracks.setdefault(i, []).append(j)
    seen_tracks: Set[int] = set()
    out: List[Tuple[List[int], List[int]]] = []
    for j0 in range(len(gates)):
        if j0 in seen_tracks:
            continue
        tracks_c, meas_c = {j0}, set()
        frontier = [j0]
        while frontier:
            j = frontier.pop()
            for i in gates[j]:
                if i in meas_c:
                    continue
                meas_c.add(i)
                for j2 in meas_to_tracks[i]:
                    if j2 not in tracks_c:
                        tracks_c.add(j2)
                        frontier.append(j2)
        seen_tracks |= tracks_c
        out.append((sorted(tracks_c), sorted(meas_c)))
    return out


def jpda_from_gates(
    likelihood: np.ndarray,
    gates: Sequence[Set[int]],
    p_d: float,
    clutter_density: float,
    max_events: int = MAX_JOINT_EVENTS,
) -> AssocProbabilities:
    """Joint association probabilities for an explicit gating structure.

    ``likelihood[j, i]`` is the measurement likelihood N(nu_ij; 0, S_j).
    Sums over every joint event consistent with the one-to-one constraints
    over the gated pairs; an event assigning a set A of (track, measurement)
    pairs weighs prod_{A} p_d * likelihood x (1 - p_d) per missed track x
    clutter_density per unassigned measurement. Factors common to all events
    cancel in the normalization, so each assignment contributes
    p_d * likelihood / clutter_density relative to a clutter explanation.
    The events are not visited: the exact JPDAF of Horridge & Maskell
    (FUSION 2006) runs forward and backward per gating cluster over states
    (track k, measurements used before k that a track >= k can still gate).

    Raises :class:`ComplexityError` when a cluster needs more than
    ``max_events`` state transitions (states x (candidates + 1)); split the
    scan into smaller clusters first.
    """
    n, m = likelihood.shape
    if len(gates) != n:
        raise ContractViolation(f"{len(gates)} gate sets for {n} tracks")
    if not (0.0 < p_d <= 1.0):
        raise ContractViolation(f"p_d must be in (0, 1], got {p_d}")
    if not clutter_density > 0:
        raise ContractViolation(f"clutter_density must be > 0, got {clutter_density}")

    rows = np.zeros((n, m + 1))  # every track is in a cluster, so every row is set
    ratio = p_d * likelihood / clutter_density

    for tracks_c, meas_c in _clusters(gates):
        # moves[k]: (column, used-set bit, weight against clutter); a miss sets no bit.
        moves = [
            [(m, 0, 1.0 - p_d)] + [(i, 1 << i, float(ratio[j, i])) for i in sorted(gates[j])]
            for j in tracks_c
        ]
        future = [0]  # future[k]: measurements that a track >= k can gate
        for moves_k in reversed(moves):
            future.insert(0, future[0] | sum(b for _, b, _ in moves_k))

        # alpha[k][S]: summed weight of the assignments of tracks < k using S within future[k].
        alpha = [{0: 1.0}]
        transitions = 0
        for k, moves_k in enumerate(moves):
            transitions += len(alpha[k]) * len(moves_k)
            if transitions > max_events:
                raise ComplexityError(
                    f"more than {max_events} state transitions in a cluster of {len(tracks_c)} "
                    f"tracks and {len(meas_c)} measurements; split the cluster first"
                )
            nxt: Dict[int, float] = {}
            for s, a in alpha[k].items():
                for _, b, w in moves_k:
                    if not s & b:
                        key = (s | b) & future[k + 1]
                        nxt[key] = nxt.get(key, 0.0) + a * w
            alpha.append(nxt)

        # beta[S]: summed weight of every completion by the tracks after k
        # from state S; track k's mass on a move pairs alpha[k] with it.
        beta = {0: 1.0}
        for k in range(len(moves) - 1, -1, -1):
            mass = [0.0] * len(moves[k])
            prev: Dict[int, float] = {}
            for s, a in alpha[k].items():
                total = 0.0
                for c, (_, b, w) in enumerate(moves[k]):
                    if not s & b:
                        tail = w * beta[(s | b) & future[k + 1]]
                        mass[c] += a * tail
                        total += tail
                prev[s] = total
            beta = prev
            row_total = sum(mass)
            if not 0.0 < row_total < math.inf:
                raise NumericalError("joint event weights degenerate (all zero or non-finite)")
            rows[tracks_c[k], [c for c, _, _ in moves[k]]] = np.array(mass) / row_total
    return AssocProbabilities(rows)


def jpda(
    tracks: TrackSet,
    scan: Scan,
    params: FilterParams,
    gp: GateParams,
    p_d: float,
    clutter_density: float,
    max_events: int = MAX_JOINT_EVENTS,
    max_candidates: int = 8,
) -> AssocProbabilities:
    """Joint probabilistic data association over the gated measurements.

    The likelihood of measurement i for track j is N(nu_ij; 0, S_j). A
    track whose gate holds more than ``max_candidates`` measurements keeps
    only the nearest ones (by likelihood) as candidates, so a diverged
    track whose gate swallows dozens of clutter points neither dominates the
    cost of :func:`jpda_from_gates` nor spreads its mass over them. The cut
    changes answers wherever it applies: on the reference scenario at lambda
    40 (40 seeds) mean OSPA was 0.792 with it and 0.824 without it, and
    association took 5.7 times as long without it.
    """
    _, _, det, d2 = innovations(tracks, scan.measurements, params)
    likelihood = np.exp(-0.5 * d2) / (2.0 * math.pi * np.sqrt(det))[:, None]
    gates = [gate(row, gp) for row in d2]
    if max_candidates is not None:
        for j, g in enumerate(gates):
            if len(g) > max_candidates:
                best = sorted(g, key=lambda i: -likelihood[j, i])[:max_candidates]
                gates[j] = set(best)
    return jpda_from_gates(likelihood, gates, p_d, clutter_density, max_events)
