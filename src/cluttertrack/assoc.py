"""Classic association engines: gated global-nearest-neighbour and JPDA.

The global assignment solver treats a miss as a per-track dummy column with
a configurable cost, so the one-to-one constraints always have a feasible
solution: tracks may go unassigned (missed detection) and measurements may
stay free (clutter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
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

#: Guard on the JPDA state updates per gating cluster: open members x
#: 2^open, summed over the steps of the walk :func:`jpda_from_gates` takes
#: (5 tracks sharing 25 measurements take 4,000). One step with 16 members
#: open takes 16 x 2^16, over the guard, so no walk holds more than 15.
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
    measurement index. A ``+inf`` entry, as gating writes it, is a pair that
    is never made; it reaches the solver as it is.
    """
    if not 0 < miss_cost < math.inf:
        raise ContractViolation(f"miss_cost must be finite and > 0, got {miss_cost}")
    v = cost.values
    top = max(float(np.maximum.reduce(v[np.isfinite(v)], initial=0.0)), miss_cost)  # entries are >= 0
    # A column bias far below any cost difference resolves exact ties toward the lowest index.
    tie = (top + 1.0) * 1e-12 / (sum(v.shape) + 1)  # over the m + n + 1 columns
    return assign_with_misses(v, miss_cost, tie)


def gate(d2: np.ndarray, gp: GateParams) -> Set[int]:
    """Indices of measurements inside one track's ellipsoidal gate, from its
    row of squared Mahalanobis distances (:func:`~cluttertrack.kalman.innovations`)."""
    return set(np.flatnonzero(d2 <= gp.gamma).tolist())


def _clusters(
    gates: Sequence[Set[int]],
) -> List[Tuple[List[int], List[int], Dict[int, List[int]]]]:
    """Connected components of the track-measurement gating graph, each with
    the tracks (ascending) that gate each of its measurements."""
    meas_to_tracks: Dict[int, List[int]] = {}
    for j, g in enumerate(gates):
        for i in g:
            meas_to_tracks.setdefault(i, []).append(j)
    seen_tracks: Set[int] = set()
    out: List[Tuple[List[int], List[int], Dict[int, List[int]]]] = []
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
        out.append((sorted(tracks_c), sorted(meas_c), {i: meas_to_tracks[i] for i in meas_c}))
    return out


#: Open columns up to which a walk's index arrays are cached.
_CACHED_OPEN = 6


def _reused_when_small(build):
    """``build`` with its index arrays kept for reuse up to ``_CACHED_OPEN``
    open columns, at most 64 states and 7 kB an entry, so the cache stays
    under 8 MB; larger ones, of at most 2^15 states under
    :data:`MAX_JOINT_EVENTS`, are built per call. The arrays are read-only,
    since every caller shares them."""
    cached = lru_cache(maxsize=1024)(build)

    @wraps(build)
    def indices(open_count: int, *key):
        return (cached if open_count <= _CACHED_OPEN else build)(open_count, *key)

    return indices


@_reused_when_small
def _take_indices(
    open_count: int, opened_before: int, positions: Tuple[int, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather indices for a walked row that links the open columns on state
    bits ``positions``, where bits ``opened_before`` and up open on it.

    A state vector over b bits holds the sum of every subset at the index
    its bitmask reads, then a trailing zero at 2^b. Row r of ``forward``,
    over the states after the step, reads the states before it: column 0 is
    the same state (the row pairs with nothing), column k > 0 the state it
    pairs with the column on bit ``positions[k - 1]`` from; a state that
    cannot occur before the step, or a move that cannot be made, reads the
    trailing zero. ``backward`` is the transpose: row r, over the states
    before the step, reads the states after it.
    """
    before, after = 1 << opened_before, 1 << open_count
    bits = 1 << np.array(positions)
    a, b = np.arange(after)[:, None], np.arange(before)[:, None]
    # An index of 2^opened_before or more holds a bit that opens on this row,
    # which no state before it holds: it reads the trailing zero.
    forward = np.minimum(np.hstack([a, np.where(a & bits, a ^ bits, before)]), before)
    backward = np.hstack([b, np.where(b & bits, after, b | bits)])
    forward = np.vstack([forward, np.full(len(bits) + 1, before)])
    backward = np.vstack([backward, np.full(len(bits) + 1, after)])
    forward.setflags(write=False)
    backward.setflags(write=False)
    return forward, backward


@_reused_when_small
def _close_indices(open_count: int, position: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gather indices that drop state bit ``position`` from the states of
    ``open_count`` bits, each vector carrying a trailing zero.

    ``keep[r]`` holds the two states that state r after the drop stands for
    (the bit clear, then set); ``reopen[r]`` addresses state r before it, with
    the bit removed, in the pair [vector for the bit set, vector for it
    clear], trailing zeros included.
    """
    inside, outside = 1 << open_count, 1 << (open_count - 1)
    low = (1 << position) - 1
    r, s = np.arange(outside), np.arange(inside)
    clear = ((r & ~low) << 1) | (r & low)
    keep = np.vstack([np.column_stack([clear, clear | (1 << position)]), [inside, inside]])
    removed = ((s >> 1) & ~low) | (s & low)
    reopen = np.append(np.where(s & (1 << position), removed, outside + 1 + removed), outside)
    keep.setflags(write=False)
    reopen.setflags(write=False)
    return keep, reopen


def _schedule(
    links: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], int]:
    """Plan a walk over rows 0, 1, ... where row t may pair with the columns
    ``links[t]``.

    Returns (opening, closing, updates): the columns whose first / last
    link is row t, and the state updates of the walk, open columns x 2^open
    summed over the rows. Allocates no state.
    """
    opening: List[List[int]] = [[] for _ in links]
    closing: List[List[int]] = [[] for _ in links]
    for c, t in {c: t for t in reversed(range(len(links))) for c in links[t]}.items():
        opening[t].append(c)
    for c, t in {c: t for t, cols in enumerate(links) for c in cols}.items():
        closing[t].append(c)
    updates, open_count = 0, 0
    for t in range(len(links)):
        open_count += len(opening[t])
        updates += open_count << open_count
        open_count -= len(closing[t])
    return opening, closing, updates


def _walk(
    links: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]],
    skip: Sequence[float],
    factor: Dict[int, float],
    plan: Tuple[List[List[int]], List[List[int]], int],
) -> Tuple[List[Dict[int, float]], List[float], Dict[int, float]]:
    """Exact forward-backward pass over the one-to-one pairings of rows with
    columns, on the walk ``plan`` (:func:`_schedule`) of ``links``.

    Row t pairs with its k-th column ``links[t][k]`` at weight
    ``weights[t][k]``, or with none at ``skip[t]``; a column no row pairs
    with weighs ``factor[c]``; a pairing weighs the product. Returns (pairs,
    row_free, column_free): ``pairs[t][c]`` sums the weights of the pairings
    that pair row t with column c, and ``row_free[t]`` / ``column_free[c]``
    those that leave row t / column c unpaired, without its own ``skip`` /
    ``factor``.

    The state after row t is the subset of the open columns already paired,
    and the sums over all those subsets are one vector indexed by the
    subset's bitmask; each row updates it with one gather and one
    matrix-vector product. A column opens at its first row and closes after
    its last one, folding its factor in as it closes.
    """
    opening, closing, _ = plan
    # Forward: alpha[r] sums the weights of the pairings of the rows so far
    # in which bitmask r is the set of open columns paired; opened[p] is the
    # column on state bit p. Every state vector ends in a zero, which the
    # gathers read where a move is impossible.
    alpha = np.array([1.0, 0.0])
    opened: List[int] = []
    steps = []
    for t, cols in enumerate(links):
        before = len(opened)
        opened += opening[t]
        # Sorted by state bit, so one set of index arrays serves every order.
        ranked = sorted(zip(map(opened.index, cols), cols, weights[t]))
        positions, takers, row_weights = zip(*ranked)
        forward, backward = _take_indices(len(opened), before, positions)
        w = np.array([skip[t], *row_weights])
        steps.append(("row", t, takers, alpha, backward, w))
        alpha = alpha[forward] @ w
        for c in closing[t]:
            keep, reopen = _close_indices(len(opened), opened.index(c))
            split = alpha[keep]
            steps.append(("close", c, split[:, 0], reopen))
            alpha = split @ np.array([factor[c], 1.0])
            opened.remove(c)

    # Backward: beta[r] sums the weights of every completion from state r.
    # A pair's mass joins the forward sums before its row to the backward
    # ones after it; a column's unpaired mass joins the sums on either side
    # of its close.
    pairs: List[Dict[int, float]] = [{} for _ in links]
    row_free = [0.0] * len(links)
    column_free: Dict[int, float] = {}
    beta = np.array([1.0, 0.0])
    for step in reversed(steps):
        if step[0] == "row":
            _, t, takers, alpha_before, backward, w = step
            gathered = beta[backward]
            sums = alpha_before @ gathered
            row_free[t] = float(sums[0])
            pairs[t] = dict(zip(takers, (sums * w)[1:].tolist()))
            beta = gathered @ w
        else:
            _, c, alpha_clear, reopen = step
            column_free[c] = float(alpha_clear @ beta)
            beta = np.concatenate([beta, beta * factor[c]])[reopen]
    return pairs, row_free, column_free


def jpda_from_gates(
    likelihood: np.ndarray,
    gates: Sequence[Set[int]],
    p_d: float,
    clutter_density: float,
) -> AssocProbabilities:
    """Joint association probabilities for an explicit gating structure.

    ``likelihood[j, i]`` is the measurement likelihood N(nu_ij; 0, S_j).
    Sums over every joint event consistent with the one-to-one constraints
    over the gated pairs; an event assigning a set A of (track, measurement)
    pairs weighs prod_{A} p_d * likelihood x (1 - p_d) per missed track x
    clutter_density per unassigned measurement. Factors common to all events
    cancel in the normalization, so each assignment contributes
    p_d * likelihood / clutter_density relative to a clutter explanation.

    The events are not visited. Per gating cluster, an exact forward-backward
    pass (:func:`_walk`, after Horridge & Maskell, FUSION 2006) runs over the
    measurements that two or more tracks gate. A measurement only one track
    gates folds into that track's end factor: 1 - p_d plus its weights on
    such measurements. The pass walks the shared measurements in index order,
    over every subset of the open tracks already assigned. A cluster of more
    than 6 tracks may instead walk its tracks in index order, over every
    subset of the open shared measurements already taken, when that takes
    fewer state updates. Members open at their first step and close after
    their last, so a chain of tracks keeps a state of two, and many tracks
    on one measurement, walked track by track, a state of one.

    Raises :class:`ComplexityError` when a cluster needs more than
    :data:`MAX_JOINT_EVENTS` state updates (open members x 2^open, summed
    over the steps of the walk taken), before any state is allocated; split
    the scan into smaller clusters first.
    """
    n, m = likelihood.shape
    if len(gates) != n:
        raise ContractViolation(f"{len(gates)} gate sets for {n} tracks")
    if not (0.0 < p_d <= 1.0):
        raise ContractViolation(f"p_d must be in (0, 1], got {p_d}")
    if not clutter_density > 0:
        raise ContractViolation(f"clutter_density must be > 0, got {clutter_density}")

    ratio = (p_d * likelihood / clutter_density).tolist()
    # The nonzero cells of the result; every track is in a cluster, so every row gets some.
    cell_tracks: List[int] = []
    cell_columns: List[int] = []
    cell_values: List[float] = []

    for tracks_c, meas_c, owners in _clusters(gates):
        # A track's end factor: it misses, or takes a measurement no other track gates.
        private = {j: [i for i in gates[j] if len(owners[i]) == 1] for j in tracks_c}
        end = {j: sum([ratio[j][i] for i in private[j]], 1.0 - p_d) for j in tracks_c}
        mass: Dict[int, Dict[int, float]] = {j: {} for j in tracks_c}  # mass[j][column]
        # unassigned[j]: the weight of the events leaving j's shared
        # measurements to others, without j's end factor; a track alone in
        # its cluster shares none. Each track of a larger cluster shares one.
        unassigned = dict.fromkeys(tracks_c, 1.0)
        shared = [i for i in meas_c if len(owners[i]) > 1]
        if shared:
            # Up to _CACHED_OPEN tracks, walking the measurements keeps at
            # most 64 states, on cached indices. A larger cluster may hold
            # many tracks on few measurements, so it takes the walk with
            # fewer state updates.
            by_meas = [owners[i] for i in shared]
            walks = [(by_meas, _schedule(by_meas))]
            if len(tracks_c) > _CACHED_OPEN:
                by_track = [[i for i in sorted(gates[j]) if len(owners[i]) > 1] for j in tracks_c]
                walks.append((by_track, _schedule(by_track)))
            links, plan = min(walks, key=lambda walk: walk[1][2])
            if plan[2] > MAX_JOINT_EVENTS:
                raise ComplexityError(
                    f"more than {MAX_JOINT_EVENTS} state updates in a cluster of {len(tracks_c)} "
                    f"tracks and {len(meas_c)} measurements; split the cluster first"
                )
            if links is by_meas:
                weights = [[ratio[j][i] for j in cols] for i, cols in zip(shared, links)]
                pairs, _, unassigned = _walk(links, weights, [1.0] * len(shared), end, plan)
                for i, row in zip(shared, pairs):
                    for j, v in row.items():
                        mass[j][i] = v
            else:
                weights = [[ratio[j][i] for i in cols] for j, cols in zip(tracks_c, links)]
                skip = [end[j] for j in tracks_c]
                clutter = dict.fromkeys(shared, 1.0)
                pairs, free, _ = _walk(links, weights, skip, clutter, plan)
                for j, row, f in zip(tracks_c, pairs, free):
                    mass[j] = row
                    unassigned[j] = f
        for j in tracks_c:
            row = mass[j]
            for i in private[j]:
                row[i] = ratio[j][i] * unassigned[j]
            row[m] = (1.0 - p_d) * unassigned[j]
            row_total = sum(row.values())
            if not 0.0 < row_total < math.inf:
                raise NumericalError("joint event weights degenerate (all zero or non-finite)")
            for i, v in row.items():
                cell_tracks.append(j)
                cell_columns.append(i)
                cell_values.append(v / row_total)
    rows = np.zeros((n, m + 1))
    rows[cell_tracks, cell_columns] = cell_values
    return AssocProbabilities(rows)


def jpda(
    tracks: TrackSet,
    scan: Scan,
    params: FilterParams,
    gp: GateParams,
    p_d: float,
    clutter_density: float,
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
    association took 1.10 to 1.13 times as long without it.
    """
    _, _, det, d2 = innovations(tracks, scan.measurements, params)
    likelihood = np.exp(-0.5 * d2) / (2.0 * math.pi * np.sqrt(det))[:, None]
    gates = [gate(row, gp) for row in d2]
    for j, g in enumerate(gates):
        if len(g) > max_candidates:
            gates[j] = set(sorted(g, key=lambda i: -likelihood[j, i])[:max_candidates])
    return jpda_from_gates(likelihood, gates, p_d, clutter_density)
