"""Correctness checks on outputs recorded during a benchmark run.

Every check recomputes what it needs apart from the program (Mahalanobis
gates, Gaussian likelihoods, brute-force assignment costs, flat joint-event
enumeration, permutation OSPA) or tests a property the method must have.
Each function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def innovations(tracks, measurements, r_diag):
    """Per track: Mahalanobis statistics, distances and innovation covariance.

    S = P restricted to the position axes (x, y) plus R; the statistic uses
    the closed-form inverse of the 2x2 matrix.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, 2)
    out = []
    for t in tracks:
        p = np.asarray(t.covariance)
        s = np.array([[p[0, 0], p[0, 2]], [p[2, 0], p[2, 2]]]) + np.diag(r_diag)
        det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
        dx = z[:, 0] - t.state[0]
        dy = z[:, 1] - t.state[2]
        d2 = (s[1, 1] * dx * dx - 2.0 * s[0, 1] * dx * dy + s[0, 0] * dy * dy) / det
        out.append((d2, np.hypot(dx, dy), s, det))
    return out


def _gates(inn, gamma):
    return [set(np.flatnonzero(d2 <= gamma).tolist()) for d2, _, _, _ in inn]


def check_ha(tracks, scan, assignment, r_diag, gamma):
    """One-to-one, inside the gate, and of optimal total cost.

    Cost rule (as ``report.json`` states it): an assigned pair costs its
    Euclidean distance, a missed track costs sqrt(gamma) times the mean
    innovation standard deviation over tracks and axes, a free measurement
    costs nothing. The optimum is found by brute force over each track's
    gated measurements plus a miss.
    """
    n, m = len(tracks), scan.num_measurements
    pairs = dict(assignment.pairs)
    missed = set(assignment.unassigned_tracks)
    free = set(assignment.unassigned_measurements)
    problems = []
    if len(set(pairs.values())) != len(pairs):
        problems.append("a measurement is assigned to two tracks")
    if set(pairs) & missed or set(pairs) | missed != set(range(n)):
        problems.append("tracks are not split into assigned and missed")
    if set(pairs.values()) & free or set(pairs.values()) | free != set(range(m)):
        problems.append("measurements are not split into assigned and free")
    if problems:
        return problems
    inn = innovations(tracks, scan.measurements, r_diag)
    gates = _gates(inn, gamma)
    for j, i in pairs.items():
        if i not in gates[j]:
            problems.append(f"track {j} takes measurement {i} outside its gate")
    miss = math.sqrt(gamma) * float(np.mean([[math.sqrt(s[0, 0]), math.sqrt(s[1, 1])] for _, _, s, _ in inn]))
    cost = float(sum(inn[j][1][i] for j, i in pairs.items()) + miss * (n - len(pairs)))
    best = _min_cost([sorted(g) for g in gates], [x[1] for x in inn], miss)
    if cost > best + 1e-9 * max(1.0, best):
        problems.append(f"assignment costs {cost!r}, the optimum is {best!r}")
    return problems


def _min_cost(candidates, dists, miss):
    """Brute-force minimum over partial one-to-one assignments, with pruning."""
    n = len(candidates)
    best = [miss * n]

    def walk(j, used, acc):
        if acc >= best[0]:
            return
        if j == n:
            best[0] = acc
            return
        for i in candidates[j]:
            if i not in used:
                used.add(i)
                walk(j + 1, used, acc + dists[j][i])
                used.remove(i)
        walk(j + 1, used, acc + miss)

    walk(0, set(), 0.0)
    return float(best[0])


def check_jpda(tracks, scan, rows, r_diag, gamma, p_d, clutter_density, max_candidates):
    """Valid rows, no mass outside an independent gate, and (when no gate was
    cut by ``max_candidates``) equal to a flat enumeration of joint events."""
    rows = np.asarray(rows, dtype=float)
    n, m = len(tracks), scan.num_measurements
    problems = _row_problems(rows, n, m)
    if problems:
        return problems
    col = rows[:, :m].sum(axis=0)
    if m and col.max() > 1.0 + 1e-9:
        problems.append(f"measurement {int(col.argmax())} carries mass {float(col.max())!r} > 1")
    inn = innovations(tracks, scan.measurements, r_diag)
    gates = _gates(inn, gamma)
    for j in range(n):
        outside = [i for i in range(m) if i not in gates[j] and rows[j, i] > 0.0]
        if outside:
            problems.append(f"track {j} puts mass on measurements {outside} outside its gate")
    if problems or any(len(g) > max_candidates for g in gates):
        return problems
    ratio = [
        {i: p_d * math.exp(-0.5 * d2[i]) / (2.0 * math.pi * math.sqrt(det)) / clutter_density for i in g}
        for g, (d2, _, _, det) in zip(gates, inn)
    ]
    mass = np.zeros((n, m + 1))
    options = [[-1] + sorted(g) for g in gates]
    for event in itertools.product(*options):
        taken = [i for i in event if i >= 0]
        if len(taken) != len(set(taken)):
            continue
        w = 1.0
        for j, i in enumerate(event):
            w *= ratio[j][i] if i >= 0 else 1.0 - p_d
        for j, i in enumerate(event):
            mass[j, i if i >= 0 else m] += w
    expected = mass / mass.sum(axis=1, keepdims=True)
    diff = float(np.abs(expected - rows).max())
    if diff > 1e-9:
        problems.append(f"rows differ from the flat joint-event enumeration by {diff!r}")
    return problems


def _row_problems(rows, n, m):
    if rows.shape != (n, m + 1):
        return [f"rows have shape {rows.shape}, expected {(n, m + 1)}"]
    problems = []
    if not np.all(np.isfinite(rows)) or rows.min() < -1e-12 or rows.max() > 1.0 + 1e-12:
        problems.append("row entries are not finite probabilities")
    dev = float(np.abs(rows.sum(axis=1) - 1.0).max()) if n else 0.0
    if dev > 1e-9:
        problems.append(f"a row sum is off 1 by {dev!r}")
    return problems


def check_deepda(tracks, scan, rows, reloaded_rows=None):
    """Valid rows over M+1 columns; equal to the rows of the reloaded model."""
    rows = np.asarray(rows, dtype=float)
    problems = _row_problems(rows, len(tracks), scan.num_measurements)
    if reloaded_rows is not None and not np.array_equal(rows, np.asarray(reloaded_rows)):
        problems.append("rows change after save_model/load_model")
    return problems


def ospa_brute(truth, est, c, p):
    """OSPA by enumerating every injection of the smaller point set."""
    a = np.asarray(truth, dtype=float).reshape(-1, 2)
    b = np.asarray(est, dtype=float).reshape(-1, 2)
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    k, n = a.shape[0], b.shape[0]
    if n == 0:
        return 0.0
    if k == 0:
        return float(c)
    d = np.minimum(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2), c) ** p
    best = min(sum(d[i, perm[i]] for i in range(k)) for perm in itertools.permutations(range(n), k))
    return float(((best + (n - k) * c**p) / n) ** (1.0 / p))


def check_scoring(truth_positions, states, scan_ospa, c, p):
    """Each scan's OSPA, recomputed from the returned states, equals the program's."""
    problems = []
    if len(states) != len(scan_ospa):
        return [f"{len(states)} state sets for {len(scan_ospa)} scores"]
    for k, (est, got) in enumerate(zip(states, scan_ospa)):
        want = ospa_brute(truth_positions[k + 1], np.asarray(est)[:, [0, 2]], c, p)
        if abs(want - got) > 1e-9:
            problems.append(f"scan {k + 1}: OSPA {got!r}, brute force gives {want!r}")
    return problems


def check_loss_curve(curve):
    """The loss curve is finite and ends below where it started."""
    curve = [float(v) for v in curve]
    if not curve or not all(math.isfinite(v) for v in curve):
        return ["loss curve is empty or not finite"]
    if not curve[-1] < curve[0]:
        return [f"loss did not fall: {curve[0]!r} -> {curve[-1]!r}"]
    return []
