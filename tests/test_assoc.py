import itertools
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from cluttertrack import assoc, bench
from cluttertrack.assoc import (
    GateParams,
    gate,
    hungarian,
    jpda,
    jpda_from_gates,
)
from cluttertrack.domain import (
    ComplexityError,
    ContractViolation,
    CostMatrix,
    NumericalError,
    Scan,
    five_crossing_targets,
)
from cluttertrack.kalman import FilterParams, innovations

from conftest import make_set, make_track
from oracles import (
    brute_force_min_cost,
    joint_association_oracle,
    jpda_measurement_subset_dp,
    pda_single_track,
    square_hungarian_oracle,
)


def total_cost(assignment, cost, miss_cost):
    total = sum(cost[j, i] for j, i in assignment.pairs.items())
    return total + miss_cost * len(assignment.unassigned_tracks)


# ---------------------------------------------------------------------------
# HA cost matrix and miss cost, as HaEngine hands them to hungarian
# ---------------------------------------------------------------------------


def ha_cost(monkeypatch, tracks, zs, params=FilterParams(), gp=GateParams(gamma=1e12)):
    """The cost values and miss cost that HaEngine passes to hungarian."""
    seen = []

    def recording(cost, miss_cost):
        seen.append((cost.values, miss_cost))
        return hungarian(cost, miss_cost)

    monkeypatch.setattr(bench, "hungarian", recording)
    bench.HaEngine(params, gp).associate(make_set(tracks), Scan(k=0, measurements=zs))
    (values, miss), = seen
    return values, miss


def test_cost_matrix_345_triangle(monkeypatch):
    t = make_track(state=(0.0, 0.0, 0.0, 0.0))
    values, _ = ha_cost(monkeypatch, [t], np.array([[3.0, 4.0]]))
    assert values[0, 0] == pytest.approx(5.0)


def test_cost_matrix_zero_at_prediction(monkeypatch):
    t = make_track(state=(2.0, 1.0, 3.0, 1.0))
    values, _ = ha_cost(monkeypatch, [t], np.array([[2.0, 3.0]]))
    assert values[0, 0] == 0.0


def test_cost_matrix_matches_elementwise_recomputation(monkeypatch):
    # Euclidean distances, +inf outside the gate (Mahalanobis statistic by
    # solving S per track).
    rng = np.random.default_rng(11)
    params, gp = FilterParams(), GateParams()
    tracks = [make_track(j, state=rng.normal(size=4)) for j in range(3)]
    zs = rng.normal(scale=2.0, size=(6, 2))
    got, _ = ha_cost(monkeypatch, tracks, zs, params, gp)
    scan = Scan(k=0, measurements=zs)
    outside = 0
    for j, t in enumerate(tracks):
        gated = oracles.gate(t, scan, params, gp.gamma)
        for i in range(6):
            dx = t.state[0] - zs[i, 0]
            dy = t.state[2] - zs[i, 1]
            if i in gated:
                assert got[j, i] == pytest.approx((dx * dx + dy * dy) ** 0.5, rel=1e-12)
            else:
                assert got[j, i] == np.inf
                outside += 1
    assert 0 < outside < 18


# ---------------------------------------------------------------------------
# hungarian
# ---------------------------------------------------------------------------


def test_hungarian_diagonal_optimum():
    a = hungarian(CostMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])), miss_cost=10.0)
    assert a.pairs == {0: 0, 1: 1}


def test_hungarian_miss_dominates():
    a = hungarian(CostMatrix(np.array([[5.0, 6.0], [7.0, 8.0]])), miss_cost=1.0)
    assert not a.pairs
    assert a.unassigned_tracks == {0, 1}
    assert a.unassigned_measurements == {0, 1}


def test_hungarian_empty_measurements():
    a = hungarian(CostMatrix(np.zeros((2, 0))), miss_cost=1.0)
    assert a.unassigned_tracks == {0, 1}


def test_hungarian_forbidden_pairs():
    cost = np.array([[np.inf, 1.0], [np.inf, np.inf]])
    a = hungarian(CostMatrix(cost), miss_cost=5.0)
    assert a.pairs == {0: 1}
    assert a.unassigned_tracks == {1}


@pytest.mark.parametrize("miss_cost", [0.0, -1.0, np.inf, np.nan])
def test_hungarian_refuses_a_miss_cost_that_is_not_finite_and_positive(miss_cost):
    # An infinite miss cost used to reach the solver and fail inside it.
    with pytest.raises(ContractViolation, match=f"^miss_cost must be finite and > 0, got {miss_cost}$"):
        hungarian(CostMatrix(np.array([[1.0, 2.0]])), miss_cost)


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 6))
        cost = rng.random((n, m)) * 10.0
        miss = float(rng.random() * 5.0 + 0.1)
        a = hungarian(CostMatrix(cost), miss)
        best, _ = brute_force_min_cost(cost, miss)
        assert total_cost(a, cost, miss) == pytest.approx(best, abs=1e-9)


def test_hungarian_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cost = rng.random((4, 5)) * 10.0
        miss = 2.0
        base = hungarian(CostMatrix(cost), miss)
        rp = rng.permutation(4)
        cp = rng.permutation(5)
        permuted = hungarian(CostMatrix(cost[np.ix_(rp, cp)]), miss)
        value = total_cost(base, cost, miss)
        value_p = total_cost(permuted, cost[np.ix_(rp, cp)], miss)
        assert value == pytest.approx(value_p, abs=1e-9)


def test_hungarian_miss_count_monotone_and_saturates():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cost = rng.random((3, 4)) * 10.0
        misses = []
        for miss in (0.5, 2.0, 5.0, 11.0, 100.0):
            a = hungarian(CostMatrix(cost), miss)
            misses.append(len(a.unassigned_tracks))
        assert all(a >= b for a, b in zip(misses, misses[1:]))
        # beyond the max entry, raising miss_cost changes nothing
        a1 = hungarian(CostMatrix(cost), 11.0)
        a2 = hungarian(CostMatrix(cost), 1000.0)
        assert a1.pairs == a2.pairs


def test_hungarian_tie_breaks_toward_low_measurement_index():
    cost = np.array([[1.0, 1.0, 1.0]])
    a = hungarian(CostMatrix(cost), miss_cost=10.0)
    assert a.pairs == {0: 0}


def _random_lap_case(rng, case):
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, 41)) if case % 3 else int(rng.integers(0, 6))
    kind = case % 5
    if kind == 0:  # continuous costs
        cost = rng.random((n, m)) * 10.0
    else:  # a few integer levels: exact ties within rows and across rows
        cost = rng.integers(0, 4, size=(n, m)).astype(float)
    if kind in (2, 3):  # gated-out entries
        cost[rng.random((n, m)) < 0.4] = np.inf
    if kind == 3 and n > 1:  # a track that gates nothing
        cost[int(rng.integers(n))] = np.inf
    if kind in (1, 2, 3) and m:  # measurements that no track gates
        cost[:, rng.random(m) < 0.4] = np.inf
    if kind == 4:  # every pair gated out
        cost[:] = np.inf
    finite = cost[np.isfinite(cost)]
    lo = float(finite.min()) if finite.size else 1.0
    hi = float(finite.max()) if finite.size else 1.0
    # A miss cost below, at the midpoint of, or above the entries; the
    # integer-level cases also hit it exactly.
    miss = (max(lo * 0.5, 0.05), 0.5 * (lo + hi) or 0.5, hi + 1.0, 1.0, 2.0)[rng.integers(5)]
    return cost, miss


def test_hungarian_matches_square_construction():
    rng = np.random.default_rng(1907)
    for case in range(300):
        cost, miss = _random_lap_case(rng, case)
        a = hungarian(CostMatrix(cost), miss)
        pairs, missed, free = square_hungarian_oracle(cost, miss)
        assert a.pairs == pairs, (case, cost, miss)
        assert a.unassigned_tracks == missed
        assert a.unassigned_measurements == free
        n, m = cost.shape
        if n <= 4 and m <= 5:
            best, _ = brute_force_min_cost(cost, miss)
            assert total_cost(a, cost, miss) == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------


def gate_of(track, zs, params, gp):
    """gate() on the track's row of the innovation kernel's d2."""
    return gate(innovations(make_set([track]), zs, params)[3][0], gp)


def test_gate_contains_prediction():
    t = make_track(state=(1.0, 0.0, 2.0, 0.0))
    assert gate_of(t, np.array([[1.0, 2.0]]), FilterParams(), GateParams()) == {0}


def test_gate_hand_statistic():
    # P = 0, R = 0.1 I: offset (1, 0) has statistic 1/0.1 = 10 > 9.21.
    t = make_track(cov=np.zeros((4, 4)))
    zs = np.array([[1.0, 0.0], [0.5, 0.0]])
    got = gate_of(t, zs, FilterParams(r_diag=(0.1, 0.1)), GateParams(gamma=9.21))
    # second point: 0.25/0.1 = 2.5 <= 9.21
    assert got == {1}


def test_gate_huge_gamma_accepts_everything():
    t = make_track()
    zs = np.array([[100.0, -50.0], [3.0, 4.0], [0.0, 0.0]])
    assert gate_of(t, zs, FilterParams(), GateParams(gamma=1e12)) == {0, 1, 2}


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_gate_params_refuse_a_threshold_not_above_zero(gamma):
    with pytest.raises(ContractViolation, match=rf"^gamma must be > 0, got {gamma}$"):
        GateParams(gamma=gamma)


def test_gate_edges():
    # NaN and +inf distances (far-off or overflowed measurements) stay out;
    # one exactly at gamma is in, the next float above it out.
    gp = GateParams(gamma=4.0)
    got = gate(np.array([np.nan, np.inf, 4.0, np.nextafter(4.0, np.inf), 0.0]), gp)
    assert got == {2, 4}
    assert all(type(i) is int for i in got)
    empty = gate(np.empty(0), gp)
    assert isinstance(empty, set) and not empty


def test_default_miss_cost_scale(monkeypatch):
    # sqrt(gamma) times the mean innovation standard deviation over tracks and axes.
    t = make_track(cov=np.zeros((4, 4)))
    params = FilterParams(r_diag=(0.1, 0.1))
    _, got = ha_cost(monkeypatch, [t], np.zeros((1, 2)), params, GateParams(gamma=9.21))
    assert got == pytest.approx(np.sqrt(9.21) * np.sqrt(0.1), rel=1e-12)
    two = [t, make_track(1, cov=np.diag([0.3, 0.0, 0.5, 0.0]))]
    _, got = ha_cost(monkeypatch, two, np.zeros((1, 2)), params, GateParams(gamma=9.21))
    sigmas = np.sqrt([0.1, 0.1, 0.4, 0.6])
    assert got == pytest.approx(np.sqrt(9.21) * sigmas.mean(), rel=1e-12)


# ---------------------------------------------------------------------------
# jpda
# ---------------------------------------------------------------------------


def test_jpda_no_gated_measurements_gives_miss_row():
    t = make_track(state=(0.0, 0.0, 0.0, 0.0), cov=0.01 * np.eye(4))
    scan = Scan(k=0, measurements=np.array([[50.0, 50.0]]))
    probs = jpda(make_set([t]), scan, FilterParams(), GateParams(), p_d=0.9, clutter_density=0.1)
    assert np.allclose(probs.rows, [[0.0, 1.0]])


def test_jpda_single_track_single_measurement_formula():
    t = make_track(cov=0.05 * np.eye(4))
    params = FilterParams(r_diag=(0.1, 0.1))
    z = np.array([[0.3, -0.2]])
    p_d, lam = 0.85, 0.07
    probs = jpda(make_set([t]), Scan(k=0, measurements=z), params, GateParams(), p_d, lam)
    s = 0.15 * np.eye(2)
    nu = z[0]
    likelihood = np.exp(-0.5 * nu @ np.linalg.solve(s, nu)) / (
        2 * np.pi * np.sqrt(np.linalg.det(s))
    )
    beta1 = p_d * likelihood / (p_d * likelihood + (1 - p_d) * lam)
    assert probs.rows[0, 0] == pytest.approx(beta1, abs=1e-12)


def test_jpda_two_tracks_two_shared_measurements_oracle():
    params = FilterParams(r_diag=(0.1, 0.1))
    tracks = [
        make_track(0, state=(0.0, 0, 0.0, 0), cov=0.1 * np.eye(4)),
        make_track(1, state=(1.0, 0, 0.0, 0), cov=0.1 * np.eye(4)),
    ]
    zs = np.array([[0.3, 0.1], [0.7, -0.1]])
    scan = Scan(k=0, measurements=zs)
    p_d, lam = 0.9, 0.05
    probs = jpda(make_set(tracks), scan, params, GateParams(), p_d, lam)

    likelihood = oracles.gaussian_likelihoods(tracks, scan, params)
    gates = [oracles.gate(t, scan, params, GateParams().gamma) for t in tracks]
    assert gates[0] == {0, 1} and gates[1] == {0, 1}
    expected = joint_association_oracle(likelihood, gates, p_d, lam)
    assert np.max(np.abs(probs.rows - expected)) < 1e-9


def test_jpda_single_track_equals_pda():
    rng = np.random.default_rng(9)
    params = FilterParams()
    for _ in range(50):
        t = make_track(cov=0.2 * np.eye(4))
        zs = rng.normal(scale=1.2, size=(int(rng.integers(1, 6)), 2))
        scan = Scan(k=0, measurements=zs)
        p_d = float(rng.uniform(0.5, 0.99))
        lam = float(rng.uniform(0.01, 0.5))
        probs = jpda(make_set([t]), scan, params, GateParams(), p_d, lam)

        likelihood = oracles.gaussian_likelihoods([t], scan, params)
        g = oracles.gate(t, scan, params, GateParams().gamma)
        expected = pda_single_track(likelihood[0], g, p_d, lam)
        assert np.max(np.abs(probs.rows[0] - expected)) < 1e-12


def test_jpda_separated_clusters_match_joint_enumeration():
    params = FilterParams(r_diag=(0.1, 0.1))
    tracks = [
        make_track(0, state=(0.0, 0, 0.0, 0), cov=0.1 * np.eye(4)),
        make_track(1, state=(100.0, 0, 100.0, 0), cov=0.1 * np.eye(4)),
    ]
    zs = np.array([[0.2, -0.3], [0.5, 0.4], [100.3, 99.8]])
    scan = Scan(k=0, measurements=zs)
    probs = jpda(make_set(tracks), scan, params, GateParams(), 0.9, 0.02)

    likelihood = oracles.gaussian_likelihoods(tracks, scan, params)
    gates = [oracles.gate(t, scan, params, GateParams().gamma) for t in tracks]
    expected = joint_association_oracle(likelihood, gates, 0.9, 0.02)
    assert np.max(np.abs(probs.rows - expected)) < 1e-9


def test_jpda_gates_every_track_through_the_module_gate(monkeypatch):
    # Callers that rebind assoc.gate (tracing, counting candidates) see one
    # call per track, empty scans included.
    calls = []
    original = assoc.gate
    monkeypatch.setattr(assoc, "gate", lambda d2, gp: calls.append(d2.shape) or original(d2, gp))
    tracks = make_set([make_track(j, state=(2.0 * j, 0, 0, 0)) for j in range(3)])
    for m in (0, 4):
        calls.clear()
        jpda(tracks, Scan(k=0, measurements=np.ones((m, 2))), FilterParams(), GateParams(), 0.9, 0.1)
        assert calls == [(m,)] * 3


@pytest.mark.parametrize("max_candidates", [0, -1, -2])
def test_jpda_refuses_max_candidates_below_one(max_candidates):
    # A cut below one candidate would keep all but the last few (a negative
    # slice) or none at all; it is refused, naming the value.
    t = make_track(cov=0.05 * np.eye(4))
    scan = Scan(k=0, measurements=np.array([[0.1, 0.0], [0.2, 0.1], [-0.1, 0.2]]))
    args = (make_set([t]), scan, FilterParams(), GateParams(), 0.9, 0.1)
    assert len(gate(innovations(make_set([t]), scan.measurements, FilterParams())[3][0], GateParams())) == 3
    with pytest.raises(ContractViolation, match=rf"^max_candidates must be >= 1, got {max_candidates}$"):
        jpda(*args, max_candidates=max_candidates)
    one = jpda(*args, max_candidates=1).rows
    assert np.count_nonzero(one[0, :3]) == 1


def test_jpda_rows_of_recorded_reference_episodes_match_reference(monkeypatch):
    # Every association of JPDA tracking on reference episodes at lambda 0,
    # 20 and 40, against the measurement-subset reference. Nearly every call
    # gates all five tracks into one cluster, which random gates rarely draw.
    recorded = []
    original = assoc.jpda_from_gates

    def recording(likelihood, gates, p_d, clutter_density):
        probs = original(likelihood, gates, p_d, clutter_density)
        recorded.append((likelihood, [set(g) for g in gates], p_d, clutter_density, probs.rows))
        return probs

    monkeypatch.setattr(assoc, "jpda_from_gates", recording)
    for e_lambda in (0.0, 20.0, 40.0):
        for seed in (0, 1, 2):
            bench.run_episode(five_crossing_targets(p_d=0.9, e_lambda=e_lambda, seed=seed), "jpda")
    assert len(recorded) == 9 * 19
    five_tracks = 0
    for likelihood, gates, p_d, clutter_density, rows in recorded:
        expected = jpda_measurement_subset_dp(likelihood, gates, p_d, clutter_density).rows
        assert np.max(np.abs(rows - expected)) < 1e-12, gates
        five_tracks += any(len(tracks) == 5 for tracks, _ in oracles.gating_clusters(gates))
    assert five_tracks > 0.8 * len(recorded)


def test_jpda_rows_sum_to_one_random():
    rng = np.random.default_rng(31)
    params = FilterParams()
    for _ in range(100):
        tracks = [
            make_track(j, state=rng.normal(scale=2.0, size=4), cov=0.3 * np.eye(4))
            for j in range(int(rng.integers(1, 4)))
        ]
        zs = rng.normal(scale=2.5, size=(int(rng.integers(0, 6)), 2))
        probs = jpda(make_set(tracks), Scan(k=0, measurements=zs), params, GateParams(), 0.9, 0.1)
        assert np.allclose(probs.rows.sum(axis=1), 1.0, atol=1e-9)


def test_jpda_event_guard_raises(monkeypatch):
    # Five tracks sharing 25 measurements take 25 updates of 5 x 2^5 states:
    # 4,000 state updates, within a bound of 4,000 and over one of 3,999.
    likelihood = np.full((5, 25), 0.1)
    gates = [set(range(25))] * 5
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 4_000)
    rows = jpda_from_gates(likelihood, gates, 0.9, 0.1).rows
    assert np.allclose(rows, rows[0], rtol=0.0, atol=1e-15)
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 3_999)
    with pytest.raises(ComplexityError, match="split"):
        jpda_from_gates(likelihood, gates, 0.9, 0.1)

    # Sixteen tracks on one measurement, walked track by track, keep that
    # measurement open: 16 x 1 x 2 updates, where walking it would take 16 x 2^16.
    wide = [{0}] * 16
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 32)
    jpda_from_gates(np.full((16, 1), 0.1), wide, 0.9, 0.1)
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 31)
    with pytest.raises(ComplexityError, match="split"):
        jpda_from_gates(np.full((16, 1), 0.1), wide, 0.9, 0.1)
    monkeypatch.undo()

    # Twenty would need 2^20 states: refused at the default bound, at once
    # and before any state array exists.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ComplexityError, match="split"):
            jpda_from_gates(np.full((20, 25), 0.1), [set(range(25))] * 20, 0.9, 0.1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20  # a 2^20 state vector alone takes 8 MiB


def test_jpda_from_gates_all_two_by_two_patterns():
    rng = np.random.default_rng(2)
    likelihood = rng.random((2, 2)) * 0.5 + 0.01
    for bits in itertools.product([False, True], repeat=4):
        gates = [
            {i for i in range(2) if bits[i]},
            {i for i in range(2) if bits[2 + i]},
        ]
        got = jpda_from_gates(likelihood, gates, 0.88, 0.07)
        expected = joint_association_oracle(likelihood, gates, 0.88, 0.07)
        assert np.max(np.abs(got.rows - expected)) < 1e-9


def test_jpda_invalid_inputs():
    likelihood = np.ones((1, 1))
    with pytest.raises(ContractViolation):
        jpda_from_gates(likelihood, [{0}], p_d=0.0, clutter_density=0.1)
    with pytest.raises(ContractViolation):
        jpda_from_gates(likelihood, [{0}], p_d=0.9, clutter_density=0.0)
    with pytest.raises(ContractViolation):
        jpda_from_gates(likelihood, [{0}, {0}], p_d=0.9, clutter_density=0.1)


def _random_gates(rng, kind, n, m):
    """Gate sets of one structural kind for n tracks over m measurements."""
    if kind == "chain":
        # Only neighbouring tracks j and j + 1 share a measurement (j + 1).
        return [{i for i in (j, j + 1) if i < m} for j in range(n)]
    if kind == "all":
        return [set(range(m)) for _ in range(n)]
    if kind == "empty":
        return [set() for _ in range(n)]
    if kind == "disjoint":
        # Tracks and measurements split into separate groups.
        groups = rng.integers(0, 3, size=n)
        meas_groups = rng.integers(0, 3, size=m)
        return [{i for i in range(m) if meas_groups[i] == groups[j]} for j in range(n)]
    return [{i for i in range(m) if rng.random() < 0.5} for _ in range(n)]


def test_jpda_from_gates_matches_oracle_on_random_clusters():
    rng = np.random.default_rng(1907)
    kinds = ("chain", "all", "empty", "disjoint", "random")
    for case in range(200):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 9))
        gates = _random_gates(rng, kinds[case % len(kinds)], n, m)
        likelihood = rng.random((n, m)) * 2.0
        p_d = float(rng.uniform(0.3, 0.99))
        lam = float(rng.uniform(0.01, 1.0))
        got = jpda_from_gates(likelihood, gates, p_d, lam)
        expected = joint_association_oracle(likelihood, gates, p_d, lam)
        assert np.max(np.abs(got.rows - expected)) < 1e-12, (case, gates)


def _reference_or_error(likelihood, gates, p_d, lam, solver):
    try:
        return solver(likelihood, gates, p_d, lam).rows
    except NumericalError:
        return None


def test_jpda_from_gates_matches_measurement_subset_reference():
    # The earlier dynamic program over measurement subsets is the reference;
    # sizes stay where it runs in milliseconds (its states grow with the
    # number of measurements a cluster's tracks share).
    rng = np.random.default_rng(99150)
    kinds = ("chain", "all", "disjoint", "random")
    failures = 0
    for case in range(320):
        kind = kinds[case % len(kinds)]
        m = int(rng.integers(0, 21))
        n = int(rng.integers(1, 9 if kind in ("chain", "disjoint") or m <= 8 else 5))
        gates = _random_gates(rng, kind, n, m)
        if kind == "random" and m > 8:  # sparser gates keep the reference fast
            gates = [{i for i in g if rng.random() < 0.5} for g in gates]
        likelihood = rng.random((n, m)) * 2.0
        p_d = (0.6, 0.9, 1.0)[case % 3]
        lam = float(rng.uniform(0.01, 1.0))
        got = _reference_or_error(likelihood, gates, p_d, lam, jpda_from_gates)
        expected = _reference_or_error(likelihood, gates, p_d, lam, jpda_measurement_subset_dp)
        assert (got is None) == (expected is None), (case, gates, p_d)
        if got is None:
            failures += 1
        else:
            assert np.max(np.abs(got - expected)) < 1e-12, (case, gates, p_d)
    assert 0 < failures < 80  # p_d = 1 leaves some clusters with no feasible event


def test_jpda_from_gates_long_chain_matches_reference(monkeypatch):
    # Track j gates measurements j and j + 1: the tracks open and close along
    # the chain, so the state never holds more than two of the 24.
    rng = np.random.default_rng(24)
    n = 24
    gates = [{j, j + 1} for j in range(n)]
    likelihood = rng.random((n, n + 1)) * 2.0
    for p_d in (0.6, 0.9, 1.0):
        got = jpda_from_gates(likelihood, gates, p_d, 0.3).rows
        expected = jpda_measurement_subset_dp(likelihood, gates, p_d, 0.3).rows
        assert np.max(np.abs(got - expected)) < 1e-12
    # Walking the tracks, each keeps measurements j and j + 1 open, so 2 x 2^2
    # updates; the first and last keep one open (1 x 2): 180 in all. Walking
    # the 23 shared measurements would take 23 x 2 x 2^2 = 184.
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 180)
    jpda_from_gates(likelihood, gates, 0.9, 0.3)
    monkeypatch.setattr(assoc, "MAX_JOINT_EVENTS", 179)
    with pytest.raises(ComplexityError):
        jpda_from_gates(likelihood, gates, 0.9, 0.3)


@pytest.mark.parametrize("n, m", [(16, 1), (15, 3), (12, 6), (30, 4), (10, 10)])
def test_jpda_from_gates_many_tracks_sharing_few_measurements_match_reference(n, m):
    # Every track gates every measurement, so walking the measurements would
    # hold all n tracks open (16 x 2^16 updates for 16 on one); walking the
    # tracks holds the m measurements. Ten on ten open all ten members at the
    # first step of either walk, on index arrays built for the call.
    rng = np.random.default_rng(n * 100 + m)
    likelihood = rng.random((n, m)) * 2.0
    gates = [set(range(m))] * n
    for p_d in (0.6, 0.9):
        got = jpda_from_gates(likelihood, gates, p_d, 0.3).rows
        expected = jpda_measurement_subset_dp(likelihood, gates, p_d, 0.3).rows
        assert np.max(np.abs(got - expected)) < 1e-12


def test_jpda_from_gates_state_wider_than_a_machine_word_is_refused():
    # Seventy tracks gate measurement 0, and two of them share 65 more:
    # walking the measurements opens all seventy at the first, and walking
    # the tracks opens the 66 shared measurements at the first, so either
    # walk needs 2^66 states or more. Refused at once, before any state
    # array exists.
    rng = np.random.default_rng(70)
    gates = [{0} for _ in range(70)]
    gates[0] = gates[1] = set(range(66))
    likelihood = rng.random((70, 66)) * 2.0
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ComplexityError, match="split"):
            jpda_from_gates(likelihood, gates, 0.9, 0.3)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


def test_jpda_from_gates_member_closing_among_many_open_matches_reference(monkeypatch):
    # Track 3 gates measurements 0 and 1, the seven others all ten. Walking
    # the measurements opens the eight tracks at measurement 0 and closes
    # track 3 after measurement 1, while all eight are open, on index arrays
    # built for the call; walking the tracks would hold all ten measurements
    # open.
    rng = np.random.default_rng(810)
    likelihood = rng.random((8, 10)) * 2.0
    gates = [set(range(10))] * 8
    gates[3] = {0, 1}
    closes = []
    close = assoc._close_indices

    def recording(open_count, position):
        closes.append(open_count)
        return close(open_count, position)

    monkeypatch.setattr(assoc, "_close_indices", recording)
    for p_d in (0.6, 0.9, 1.0):
        got = jpda_from_gates(likelihood, gates, p_d, 0.3).rows
        expected = jpda_measurement_subset_dp(likelihood, gates, p_d, 0.3).rows
        assert np.max(np.abs(got - expected)) < 1e-12
    assert closes[0] == 8


def test_jpda_from_gates_random_wide_clusters_match_reference():
    # Clusters of 7 to 16 tracks on up to 8 measurements, in shuffled index
    # order, where walking the tracks is often the cheaper walk.
    rng = np.random.default_rng(1609)
    kinds = ("chain", "all", "disjoint", "random")
    failures = 0
    for case in range(80):
        kind = kinds[case % len(kinds)]
        n, m = int(rng.integers(7, 17)), int(rng.integers(1, 9))
        order = rng.permutation(m)
        gates = [{int(order[i]) for i in g} for g in _random_gates(rng, kind, n, m)]
        likelihood = rng.random((n, m)) * 2.0
        p_d = (0.6, 0.9, 1.0)[case % 3]
        got = _reference_or_error(likelihood, gates, p_d, 0.3, jpda_from_gates)
        expected = _reference_or_error(likelihood, gates, p_d, 0.3, jpda_measurement_subset_dp)
        assert (got is None) == (expected is None), (case, gates, p_d)
        if got is None:
            failures += 1
        else:
            assert np.max(np.abs(got - expected)) < 1e-12, (case, gates, p_d)
    assert 0 < failures < 27  # p_d = 1 with more tracks than measurements


def test_jpda_from_gates_track_permutation_permutes_rows():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        gates = _random_gates(rng, "random", n, m)
        likelihood = rng.random((n, m))
        base = jpda_from_gates(likelihood, gates, 0.8, 0.2).rows
        perm = rng.permutation(n)
        permuted = jpda_from_gates(likelihood[perm], [gates[j] for j in perm], 0.8, 0.2).rows
        assert np.max(np.abs(permuted - base[perm])) < 1e-12


def test_jpda_from_gates_certain_detection_needs_a_measurement_per_track():
    # With p_d = 1 no track may miss, so three tracks cannot share two
    # measurements: every joint event weighs zero.
    likelihood = np.full((3, 2), 0.5)
    with pytest.raises(NumericalError):
        jpda_from_gates(likelihood, [{0, 1}] * 3, p_d=1.0, clutter_density=0.1)
