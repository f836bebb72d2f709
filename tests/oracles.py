"""Independent brute-force oracles used by the test suite.

Everything here recomputes results from first principles (enumeration,
finite differences, direct formula evaluation) without touching the
production code paths it is used to check.
"""

import itertools
import math

import numpy as np

from cluttertrack.domain import (
    AssocProbabilities,
    ComplexityError,
    ContractViolation,
    NumericalError,
    Track,
)
from cluttertrack.kalman import H, process_noise, transition_matrix


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


def reference_lap(cost):
    """Minimum-cost assignment of every row of a dense finite (n, m) cost,
    n <= m, to a distinct column: the plain potentials/augmenting-path loop,
    one full pass over every column for every row, exploring the lowest
    column index first among ties. Returns the column of each row.

    ``cluttertrack._lap.solve_lap`` must return the very same columns, ties
    included, and so must any faster rewrite of it.
    """
    n = len(cost)
    if n == 0:
        return []
    m = len(cost[0])
    if n > m:
        raise ValueError(f"need rows <= cols, got {n} rows x {m} cols")

    # 1-based arrays; p[j] holds the row matched to column j (0 = free).
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = math.inf
            j1 = 0
            row = cost[i0 - 1]
            u_i0 = u[i0]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    result = [0] * n
    for j in range(1, m + 1):
        if p[j]:
            result[p[j] - 1] = j - 1
    return result


def square_hungarian_oracle(cost, miss_cost):
    """Global assignment by the square (n + m) x (m + n) construction.

    The textbook padding of the track-to-measurement problem: one dummy miss
    column per track (cost ``miss_cost`` for its own track, forbidden for
    the others) and one clutter row per measurement, free on its own
    measurement and on every dummy column. ``+inf`` entries are forbidden
    pairs, and the same infinitesimal column bias breaks exact ties toward
    low measurement indices. It solves the padded problem with
    :func:`reference_lap`, so it shares no code with the production solver.
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
    cols = reference_lap(aug.tolist())
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


def gating_clusters(gates):
    """Connected components of the track-measurement gating graph, by a
    breadth-first search: (tracks, measurements) per component, both sorted,
    in order of the lowest track."""
    meas_to_tracks = {}
    for j, g in enumerate(gates):
        for i in g:
            meas_to_tracks.setdefault(i, []).append(j)
    seen = set()
    out = []
    for j0 in range(len(gates)):
        if j0 in seen:
            continue
        tracks_c, meas_c, frontier = {j0}, set(), [j0]
        while frontier:
            for i in gates[frontier.pop()]:
                if i not in meas_c:
                    meas_c.add(i)
                    for j2 in meas_to_tracks[i]:
                        if j2 not in tracks_c:
                            tracks_c.add(j2)
                            frontier.append(j2)
        seen |= tracks_c
        out.append((sorted(tracks_c), sorted(meas_c)))
    return out


def jpda_measurement_subset_dp(likelihood, gates, p_d, clutter_density, max_events=1_000_000):
    """Exact JPDA rows by a forward-backward pass over measurement subsets.

    The reference for :func:`cluttertrack.assoc.jpda_from_gates`, which
    walks measurements with track-subset states instead. Per gating cluster
    this walks the tracks in order over states (track k, measurements used
    before k that a track >= k can still gate), after Horridge & Maskell
    (FUSION 2006), keeping the states in dicts. Raises ``ComplexityError``
    past ``max_events`` state updates (states x (candidates + 1)) and
    ``NumericalError`` when every joint event of a cluster weighs zero.
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

    for tracks_c, meas_c in gating_clusters(gates):
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
        updates = 0
        for k, moves_k in enumerate(moves):
            updates += len(alpha[k]) * len(moves_k)
            if updates > max_events:
                raise ComplexityError(
                    f"more than {max_events} state updates in a cluster of {len(tracks_c)} "
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


# ---------------------------------------------------------------------------
# Per-track Kalman filter: the one-Track predict and updates the batched
# TrackSet operations in ``cluttertrack.kalman`` replaced, kept unchanged as
# their reference.
# ---------------------------------------------------------------------------


def _symmetrize(p):
    return (p + p.T) / 2.0


def predict(track, params):
    """One-step state and covariance propagation."""
    f = transition_matrix(params.dt)
    x = f @ track.state
    p = f @ track.covariance @ f.T + process_noise(params.dt, params.q)
    return Track(track.id, x, _symmetrize(p))


def predicted_measurement(track):
    """The measurement this track would produce: its (x, y) position."""
    return H @ track.state


def innovation_covariance(track, params):
    return H @ track.covariance @ H.T + np.diag(params.r_diag)


def _solve_innovation(s, rhs):
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-12:
        raise NumericalError(f"innovation covariance is singular (det={det!r})")
    return np.linalg.solve(s, rhs)


def update_hard(track, z, params):
    """Standard Kalman update of a predicted track with one measurement."""
    z = np.asarray(z, dtype=float).reshape(2)
    p = track.covariance
    s = innovation_covariance(track, params)
    # K = P H^T S^-1, via solving S^T K^T = H P^T
    k = _solve_innovation(s.T, H @ p.T).T
    nu = z - predicted_measurement(track)
    x = track.state + k @ nu
    ikh = np.eye(4) - k @ H
    p_new = ikh @ p @ ikh.T + k @ np.diag(params.r_diag) @ k.T
    return Track(track.id, x, _symmetrize(p_new))


def update_weighted(track, scan, beta_row, params):
    """Probability-weighted update of a predicted track over a whole scan.

    ``beta_row`` holds one probability per measurement plus a trailing miss
    probability. The state moves by the combined innovation and the
    covariance mixes the no-detection and updated covariances plus the
    spread-of-innovations term.
    """
    beta = np.asarray(beta_row, dtype=float).reshape(-1)
    m = scan.num_measurements
    if beta.shape[0] != m + 1:
        raise ContractViolation(
            f"beta_row has {beta.shape[0]} entries for {m} measurements (need M+1)"
        )
    if np.any(beta < -1e-12) or np.any(beta > 1 + 1e-12):
        raise ContractViolation("beta_row entries must lie in [0, 1]")
    if abs(beta.sum() - 1.0) > 1e-9:
        raise ContractViolation(f"beta_row sums to {beta.sum()!r}, expected 1 within 1e-9")

    beta_miss = beta[-1]
    if m == 0 or beta_miss >= 1.0:
        return track

    p = track.covariance
    s = innovation_covariance(track, params)
    k = _solve_innovation(s.T, H @ p.T).T
    nus = scan.measurements - predicted_measurement(track)  # (M, 2)
    w = beta[:m]
    nu_bar = w @ nus
    x = track.state + k @ nu_bar

    ikh = np.eye(4) - k @ H
    p_updated = ikh @ p @ ikh.T + k @ np.diag(params.r_diag) @ k.T
    spread_inner = (nus.T * w) @ nus - np.outer(nu_bar, nu_bar)
    p_new = beta_miss * p + (1.0 - beta_miss) * p_updated + k @ spread_inner @ k.T
    return Track(track.id, x, _symmetrize(p_new))


def gaussian_likelihoods(tracks, scan, params):
    """N(z_i - Hx_j; 0, S_j) for every track j and measurement i, solving
    S_j per track instead of using a closed-form inverse."""
    m = scan.num_measurements
    out = np.zeros((len(tracks), m))
    for j, t in enumerate(tracks):
        s = innovation_covariance(t, params)
        nus = scan.measurements - predicted_measurement(t)
        d2 = np.einsum("mi,im->m", nus, np.linalg.solve(s, nus.T))
        out[j] = np.exp(-0.5 * d2) / (2.0 * math.pi * math.sqrt(np.linalg.det(s)))
    return out


def gate(track, scan, params, gamma):
    """Indices of measurements whose Mahalanobis statistic, by solving S, is
    at most gamma."""
    s = innovation_covariance(track, params)
    nus = scan.measurements - predicted_measurement(track)
    stats = np.einsum("mi,im->m", nus, np.linalg.solve(s, nus.T))
    return set(np.flatnonzero(stats <= gamma).tolist())


# ---------------------------------------------------------------------------
# LSTM step: the two-branch sigmoid and the per-gate forward loop that the
# single activation pass in ``cluttertrack.deepda`` replaced, kept unchanged
# as their bit-for-bit reference, and backpropagation through that loop.
# ---------------------------------------------------------------------------


def reference_sigmoid(x):
    """1/(1 + exp(-x)) where x >= 0 and exp(x)/(1 + exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(model, x, mask):
    """The LSTM forward pass with one ``reference_sigmoid`` call per gate.

    Every product runs step by step, one (B, ·) block at a time. Takes
    inputs (B, T, features) and an output mask (B, m_max+1); returns
    (xp, steps, beta), where ``steps[t]`` is
    (h, c, gi, gf, gg, go, c_new, tc, h_new, u, s, row).
    """
    cfg = model.cfg
    b, t, f = x.shape
    hdim = cfg.hidden
    xp = x.reshape(b * t, f) @ model.w_in.T
    xp += model.b_in
    xp = xp.reshape(b, t, hdim)

    h = np.zeros((b, hdim))
    c = np.zeros((b, hdim))
    steps = []
    beta = np.zeros((b, t, cfg.m_max + 1))
    maskf = mask.astype(float)
    for step in range(t):
        z = xp[:, step] @ model.lstm_wx.T + h @ model.lstm_wh.T + model.lstm_b
        gi = reference_sigmoid(z[:, :hdim])
        gf = reference_sigmoid(z[:, hdim : 2 * hdim])
        gg = np.tanh(z[:, 2 * hdim : 3 * hdim])
        go = reference_sigmoid(z[:, 3 * hdim :])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        h_new = go * tc
        logits = h_new @ model.w_out.T + model.b_out
        u = reference_sigmoid(logits) * maskf
        s = u.sum(axis=1, keepdims=True)
        row = u / s
        steps.append((h, c, gi, gf, gg, go, c_new, tc, h_new, u, s, row))
        beta[:, step] = row
        h, c = h_new, c_new
    return xp, steps, beta


def reference_backward(model, x, mask, dbeta):
    """Gradients of sum(dbeta * beta) for the rows of ``reference_forward``.

    Walks the steps of ``reference_forward`` from the last to the first, one
    gate at a time, and adds each gate's share of every weight gradient
    step by step. As in that forward pass, the four gates meet in one
    product with the input and recurrent weights and the input projection
    runs once over all steps, so every gradient sums its terms in the order
    the training code does. Returns a dict keyed by parameter name.
    """
    xp, steps, _ = reference_forward(model, x, mask)
    b, t, f = x.shape
    hdim = model.cfg.hidden
    gate_rows = [slice(k * hdim, (k + 1) * hdim) for k in range(4)]
    grads = {name: np.zeros_like(p) for name, p in model.params().items()}
    dxp = np.zeros((b, t, hdim))
    dh_next = np.zeros((b, hdim))
    dc_next = np.zeros((b, hdim))
    for step in range(t - 1, -1, -1):
        h, c, gi, gf, gg, go, _, tc, h_new, u, s, row = steps[step]
        db = dbeta[:, step]
        # row = u / s, and u is the masked sigmoid of the logits.
        dlogits = (db - (db * row).sum(axis=1, keepdims=True)) / s * u * (1.0 - u)
        grads["w_out"] += dlogits.T @ h_new
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ model.w_out + dh_next
        dc = dh * go * (1.0 - tc * tc) + dc_next
        dz = [
            dc * gg * gi * (1.0 - gi),  # input gate
            dc * c * gf * (1.0 - gf),  # forget gate
            dc * gi * (1.0 - gg * gg),  # cell gate
            dh * tc * go * (1.0 - go),  # output gate
        ]
        for rows, dz_gate in zip(gate_rows, dz):
            grads["lstm_wx"][rows] += dz_gate.T @ xp[:, step]
            grads["lstm_wh"][rows] += dz_gate.T @ h
            grads["lstm_b"][rows] += dz_gate.sum(axis=0)
        dz = np.concatenate(dz, axis=1)
        dxp[:, step] = dz @ model.lstm_wx
        dh_next = dz @ model.lstm_wh
        dc_next = dc * gf
    flat_dxp = dxp.reshape(b * t, hdim)
    grads["w_in"] += flat_dxp.T @ x.reshape(b * t, f)
    grads["b_in"] += flat_dxp.sum(axis=0)
    return grads


def scenario_by_loops(config, seed):
    """Truth states, scans and training groups of one scenario, scan by scan.

    The simulation as a per-element loop, with ``Generator.uniform`` for the
    clutter: the truth steps each state from the one before, scan k draws
    from ``PCG64(SeedSequence(seed, spawn_key=(k,)))`` in the format's order,
    and each training group predicts from the previous true state. Returns
    ``(states, scans, groups)``: ``scans`` holds ``(measurements, origins)``
    per scan and ``groups`` ``(pred_meas, measurements, labels)`` per scan
    k >= 1.
    """
    states = np.empty((config.num_scans, config.num_targets, 4))
    states[0] = np.array(config.initial_states, dtype=float)
    for k in range(1, config.num_scans):
        states[k] = states[k - 1]
        states[k, :, 0] += states[k - 1, :, 1] * config.dt
        states[k, :, 2] += states[k - 1, :, 3] * config.dt
    r = config.region
    scans = []
    for k in range(config.num_scans):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        ids = [j for j, u in enumerate(rng.random(config.num_targets)) if u < config.p_d]
        noise = rng.standard_normal((len(ids), 2)) * [config.sigma_x, config.sigma_y]
        rows = [[states[k, j, 0] + noise[i, 0], states[k, j, 2] + noise[i, 1]] for i, j in enumerate(ids)]
        n_clutter = int(rng.poisson(config.e_lambda))
        clutter = rng.uniform([r.xmin, r.ymin], [r.xmax, r.ymax], size=(n_clutter, 2))
        measurements = np.concatenate([np.reshape(rows, (-1, 2)), clutter])
        origins = ids + [-1] * n_clutter
        perm = rng.permutation(len(origins))
        scans.append((measurements[perm], tuple(origins[i] for i in perm)))
    f = transition_matrix(config.dt)
    groups = []
    for k in range(1, config.num_scans):
        measurements, origins = scans[k]
        labels = tuple(origins.index(j) if j in origins else -1 for j in range(config.num_targets))
        groups.append(((states[k - 1] @ f.T)[:, [0, 2]], measurements, labels))
    return states, scans, groups


# ---------------------------------------------------------------------------
# DeepDA training-set encoding, group by group: the per-group loops that the
# single stacked pass of ``cluttertrack.deepda.encode_groups`` replaced, kept
# unchanged as its bit-for-bit reference.
# ---------------------------------------------------------------------------


def norm_stats_by_groups(groups, m_max):
    """Per-feature (min, max) over every group's filled slots, merged group
    by group; 0 and 0 for a slot no scan fills."""
    slot_min = np.full((m_max, 2), np.inf)
    slot_max = np.full((m_max, 2), -np.inf)
    for g in groups:
        m = g.measurements.shape[0]
        if m == 0:
            continue
        diffs = g.pred_meas[:, None, :] - g.measurements[None, :, :]
        slot_min[:m] = np.minimum(slot_min[:m], diffs.min(axis=0))
        slot_max[:m] = np.maximum(slot_max[:m], diffs.max(axis=0))
    never = ~np.isfinite(slot_min)
    slot_min[never] = 0.0
    slot_max[never] = 0.0
    return slot_min.reshape(-1), slot_max.reshape(-1)


def offset_scale_by_groups(groups):
    """Std in x and in y of the prediction offset of labeled own
    measurements, collected group by group and target by target."""
    diffs = []
    for g in groups:
        for t, label in enumerate(g.labels):
            if label >= 0:
                diffs.append(g.pred_meas[t] - g.measurements[label])
    if not diffs:
        return np.full(2, 1.0)
    return np.asarray(np.std(np.array(diffs), axis=0))


def features_of_group(pred_meas, measurements, m_max, norm_min, norm_max):
    """One group's (T, 2 * m_max) features: the filled slots' offsets
    normalized over the scan's width, every other slot 1."""
    t, m = pred_meas.shape[0], measurements.shape[0]
    out = np.ones((t, 2 * m_max))
    if m:
        raw = (pred_meas[:, None, :] - measurements[None, :, :]).reshape(t, m * 2)
        width = m * 2
        span = norm_max[:width] - norm_min[:width]
        safe = np.where(span > 0, span, 1.0)
        out[:, :width] = np.where(span > 0, (raw - norm_min[:width]) / safe, 0.0)
    return out


def truth_rows_of_group(labels, m_max):
    """One-hot (T, m_max + 1) rows: the own measurement's slot, or the
    trailing miss column for an undetected target."""
    rows = np.zeros((len(labels), m_max + 1))
    for t, label in enumerate(labels):
        rows[t, label if label >= 0 else m_max] = 1.0
    return rows
