"""Independent brute-force oracles used by the test suite.

Everything here recomputes results from first principles (enumeration,
finite differences, direct formula evaluation) without touching the
production code paths it is used to check.
"""

import itertools
import math

import numpy as np

from cluttertrack._lap import solve_lap


def all_partial_injections(n_tracks, n_measurements):
    """Yield every mapping of a subset of tracks to distinct measurements.

    Each result is a tuple of length n_tracks with the assigned measurement
    index or -1 for a miss.
    """
    tracks = range(n_tracks)
    for k in range(min(n_tracks, n_measurements) + 1):
        for chosen in itertools.combinations(tracks, k):
            for meas in itertools.permutations(range(n_measurements), k):
                assign = [-1] * n_tracks
                for t, m in zip(chosen, meas):
                    assign[t] = m
                yield tuple(assign)


def brute_force_min_cost(cost, miss_cost):
    """Minimum total assignment cost over all partial injections.

    A track assigned to measurement i pays cost[j][i]; an unassigned track
    pays miss_cost; unassigned measurements are free. Returns (best_cost,
    best_assignment_tuple).
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    best, best_assign = math.inf, None
    for assign in all_partial_injections(n, m):
        total = 0.0
        for j, i in enumerate(assign):
            total += miss_cost if i < 0 else cost[j, i]
        if total < best - 1e-15:
            best, best_assign = total, assign
    return best, best_assign


def square_hungarian_oracle(cost, miss_cost):
    """Global assignment by the square (n + m) x (m + n) construction.

    The textbook padding of the track-to-measurement problem: one dummy miss
    column per track (cost ``miss_cost`` for its own track, forbidden for
    the others) and one clutter row per measurement, free on its own
    measurement and on every dummy column. ``+inf`` entries are forbidden
    pairs, and the same infinitesimal column bias breaks exact ties toward
    low measurement indices. It shares only the dense LAP kernel with the
    production code, which ``brute_force_min_cost`` checks on its own.
    Returns (pairs, unassigned_tracks, unassigned_measurements).
    """
    v = np.asarray(cost, dtype=float)
    n, m = v.shape
    if n == 0:
        return {}, frozenset(), frozenset(range(m))
    finite = v[np.isfinite(v)]
    top = max(float(finite.max()) if finite.size else 0.0, miss_cost)
    big = (top + 1.0) * (n + 1)
    aug = np.full((n + m, m + n), big)
    aug[:n, :m] = np.where(np.isfinite(v), v, big)
    for j in range(n):
        aug[j, m + j] = miss_cost
    for i in range(m):
        aug[n + i, i] = 0.0
    aug[n:, m:] = 0.0
    tie = (top + 1.0) * 1e-12 / (m + n + 1)
    aug[:n, : m + n] += tie * np.arange(m + n)
    cols = solve_lap(aug.tolist())
    pairs = {j: cols[j] for j in range(n) if cols[j] < m and aug[j, cols[j]] < big}
    missed = frozenset(range(n)) - frozenset(pairs)
    return pairs, missed, frozenset(range(m)) - frozenset(pairs.values())


def brute_force_max_prob(rows):
    """Maximum summed probability over choices of measurement-or-miss.

    rows has one probability row per track with the miss column last.
    """
    rows = np.asarray(rows, dtype=float)
    n, cols = rows.shape
    m = cols - 1
    best = -math.inf
    for assign in all_partial_injections(n, m):
        total = sum(rows[j, m] if i < 0 else rows[j, i] for j, i in enumerate(assign))
        best = max(best, total)
    return best


def joint_association_oracle(likelihood, gates, p_d, clutter_density):
    """Flat enumeration of all joint association events, no clustering.

    Event weight: prod over assigned pairs of p_d * likelihood[j, i], times
    (1 - p_d) per missed track, times clutter_density per unassigned
    measurement. Returns the (n, m + 1) normalized probability rows.
    """
    likelihood = np.asarray(likelihood, dtype=float)
    n, m = likelihood.shape
    mass = np.zeros((n, m + 1))
    total = 0.0
    for assign in all_partial_injections(n, m):
        ok = all(i < 0 or i in gates[j] for j, i in enumerate(assign))
        if not ok:
            continue
        n_assigned = sum(1 for i in assign if i >= 0)
        w = clutter_density ** (m - n_assigned)
        for j, i in enumerate(assign):
            w *= p_d * likelihood[j, i] if i >= 0 else (1.0 - p_d)
        total += w
        for j, i in enumerate(assign):
            mass[j, i if i >= 0 else m] += w
    return mass / total


def pda_single_track(likelihood_row, gate, p_d, clutter_density):
    """Independent single-track probabilistic data association.

    beta_i = p_d L_i / lambda relative to one clutter explanation; miss
    weight is (1 - p_d). Entries outside the gate get zero.
    """
    row = np.asarray(likelihood_row, dtype=float)
    m = row.shape[0]
    weights = np.zeros(m + 1)
    weights[m] = 1.0 - p_d
    for i in gate:
        weights[i] = p_d * row[i] / clutter_density
    return weights / weights.sum()


def ospa_brute_force(xs, ys, c, p):
    """OSPA via explicit enumeration of all injections of the smaller set."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    ys = np.asarray(ys, dtype=float).reshape(-1, 2)
    if xs.shape[0] > ys.shape[0]:
        xs, ys = ys, xs
    m, n = xs.shape[0], ys.shape[0]
    if n == 0:
        return 0.0
    if m == 0:
        return float(c)
    best = math.inf
    for perm in itertools.permutations(range(n), m):
        total = sum(
            min(c, float(np.linalg.norm(xs[i] - ys[perm[i]]))) ** p for i in range(m)
        )
        best = min(best, total)
    return float(((best + (n - m) * c**p) / n) ** (1.0 / p))


def count_transitions(seq):
    """Number of changes between consecutive non-None entries."""
    defined = [s for s in seq if s is not None]
    return sum(1 for a, b in zip(defined, defined[1:]) if a != b)


def numeric_gradients(loss_fn, model, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. every model parameter.

    Mutates the model's arrays in place during probing and restores them.
    """
    grads = {}
    for name, arr in model.params().items():
        flat = arr.reshape(-1)
        g = np.zeros(flat.size)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn()
            flat[idx] = orig - step
            down = loss_fn()
            flat[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads[name] = g.reshape(arr.shape)
    return grads
