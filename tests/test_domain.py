import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttertrack.domain import (
    CLUTTER,
    Assignment,
    AssocProbabilities,
    ConfigError,
    ContractViolation,
    CostMatrix,
    NumericalError,
    Region,
    Scan,
    ScenarioConfig,
    TrackSet,
    assign_with_misses,
    five_crossing_targets,
    hard_assignment_from_probs,
)
from cluttertrack import domain
from cluttertrack._lap import solve_lap

from oracles import brute_force_max_prob, reference_lap


# ---------------------------------------------------------------------------
# ScenarioConfig
# ---------------------------------------------------------------------------

REFERENCE_STATES = five_crossing_targets().initial_states


def test_config_json_round_trip(reference_config):
    restored = ScenarioConfig.from_dict(json.loads(json.dumps(reference_config.to_dict())))
    assert restored == reference_config


def test_config_rejects_unknown_fields(reference_config):
    doc = reference_config.to_dict()
    doc["extra_knob"] = 1
    with pytest.raises(ConfigError, match="extra_knob"):
        ScenarioConfig.from_dict(doc)


def test_config_rejects_missing_fields(reference_config):
    doc = reference_config.to_dict()
    del doc["p_d"]
    with pytest.raises(ConfigError, match="p_d"):
        ScenarioConfig.from_dict(doc)


@pytest.mark.parametrize(
    "field,value,msg",
    [
        ("p_d", 0.0, "p_d"),
        ("p_d", 1.5, "p_d"),
        ("e_lambda", -1.0, "e_lambda"),
        ("num_scans", 0, "num_scans"),
        ("dt", 0.0, "dt"),
        ("e_lambda", float("nan"), "e_lambda must be finite"),
        ("sigma_x", float("inf"), "sigma_x must be finite"),
        ("dt", float("inf"), "dt must be finite"),
        (
            "initial_states",
            [[5.0, float("nan"), 11.0, 0.4]] + [list(s) for s in REFERENCE_STATES[1:]],
            "initial_states entries must be finite",
        ),
        (
            "region",
            {"xmin": 4.0, "xmax": float("inf"), "ymin": 8.0, "ymax": 22.0},
            "region must have finite positive area",
        ),
        # A range error names the one field at fault; seed -1 used to reach numpy.
        ("sigma_x", -0.1, r"^scenario: sigma_x must be >= 0, got -0\.1$"),
        ("sigma_y", -0.1, r"^scenario: sigma_y must be >= 0, got -0\.1$"),
        ("seed", -1, r"^scenario: seed must be >= 0, got -1$"),
    ],
)
def test_config_validation_names_field(reference_config, field, value, msg):
    doc = reference_config.to_dict()
    doc[field] = value
    with pytest.raises(ConfigError, match=msg):
        ScenarioConfig.from_dict(doc)


def test_config_int_fields_take_integral_numbers_only(reference_config):
    doc = reference_config.to_dict()
    doc["num_scans"] = 12.0
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.num_scans == 12 and type(cfg.num_scans) is int
    for value in (12.5, True, "12", None, float("inf")):
        doc["num_scans"] = value
        with pytest.raises(ConfigError, match="^scenario.num_scans: expected an integer, got "):
            ScenarioConfig.from_dict(doc)


def test_config_float_fields_take_numbers_only(reference_config):
    doc = reference_config.to_dict()
    doc["p_d"] = 1
    cfg = ScenarioConfig.from_dict(doc)
    assert cfg.p_d == 1.0 and type(cfg.p_d) is float
    for value in (True, False, "0.5", None, [0.5]):
        doc["p_d"] = value
        with pytest.raises(ConfigError, match=rf"^scenario.p_d: expected a number, got {re.escape(repr(value))}$"):
            ScenarioConfig.from_dict(doc)


def test_config_region_must_contain_targets(reference_config):
    doc = reference_config.to_dict()
    doc["region"] = {"xmin": 6.0, "xmax": 30.0, "ymin": 8.0, "ymax": 22.0}
    with pytest.raises(ConfigError, match="region"):
        ScenarioConfig.from_dict(doc)


def test_region_positive_area():
    with pytest.raises(ConfigError):
        Region(1.0, 1.0, 0.0, 2.0)


def test_reference_scenario_shape():
    cfg = five_crossing_targets()
    assert cfg.num_targets == 5
    assert cfg.num_scans == 20
    assert cfg.dt == 1.0
    assert cfg.sigma_x == pytest.approx(0.3162)


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------


def test_scan_duplicate_target_label_rejected():
    z = np.zeros((2, 2))
    with pytest.raises(ContractViolation):
        Scan(k=0, measurements=z, origins=(1, 1))
    Scan(k=0, measurements=z, origins=(CLUTTER, CLUTTER))  # duplicates of clutter are fine


def test_scan_origin_length_mismatch():
    with pytest.raises(ContractViolation):
        Scan(k=0, measurements=np.zeros((2, 2)), origins=(0,))


def test_scan_empty():
    scan = Scan(k=3, measurements=np.zeros((0, 2)))
    assert scan.num_measurements == 0


# ---------------------------------------------------------------------------
# TrackSet: its checks, with the failing row named
# ---------------------------------------------------------------------------


def _set_with_row(state, cov, n=3, row=1):
    """A set of n well-formed tracks whose row ``row`` is (state, cov)."""
    x = np.zeros((n, 4))
    p = np.stack([np.eye(4)] * n)
    x[row], p[row] = state, cov
    return x, p


def _spd_with_offdiagonal(upper, lower):
    p = 10.0 * np.eye(4)
    p[0, 1], p[1, 0] = upper, lower
    return p


@pytest.mark.parametrize(
    "x, p, msg",
    [
        (np.zeros((3, 3)), np.stack([np.eye(4)] * 3), "state must have 4 entries"),
        (np.zeros(4), np.eye(4), "state must have 4 entries"),
        (np.zeros((3, 2, 2)), np.stack([np.eye(4)] * 3), "state must have 4 entries"),
        (np.zeros((3, 4)), np.stack([np.eye(4)] * 2), "covariance must be 4x4"),
        (np.zeros((3, 4)), np.stack([np.eye(3)] * 3), "covariance must be 4x4"),
        (np.zeros((3, 4)), np.eye(4), "covariance must be 4x4"),
        # One-row sets.
        (np.zeros((1, 3)), np.eye(4)[None], "state must have 4 entries"),
        (np.zeros((1, 5)), np.eye(4)[None], "state must have 4 entries"),
        (np.zeros((1, 4)), np.eye(3)[None], "covariance must be 4x4"),
        (np.zeros((1, 4)), np.eye(4).reshape(1, 2, 8), "covariance must be 4x4"),
        (np.zeros((1, 2, 2)), np.eye(4)[None], "state must have 4 entries"),  # 4 entries, wrong shape
    ],
)
def test_track_set_shape_errors(x, p, msg):
    with pytest.raises(ContractViolation, match=msg):
        TrackSet(x, p)


@pytest.mark.parametrize(
    "p, ok",
    [
        (_spd_with_offdiagonal(2.0, 2.0 * (1.0 + 5e-6)), True),
        (_spd_with_offdiagonal(2.0, 2.0 * (1.0 + 5e-5)), False),
        (_spd_with_offdiagonal(0.0, 5e-9), True),
        (_spd_with_offdiagonal(0.0, 2e-8), False),
        (_spd_with_offdiagonal(2.0, 2.0 * (1.0 + 1e-6)), True),
        (_spd_with_offdiagonal(2.0, 2.0 * (1.0 + 1e-3)), False),
    ],
)
def test_track_set_symmetry_tolerance(p, ok):
    # allclose's rule: |p - p.T| <= 1e-8 + 1e-5 |p.T| elementwise.
    x, ps = _set_with_row(np.zeros(4), p)
    if ok:
        TrackSet(x, ps)
    else:
        with pytest.raises(ContractViolation, match="symmetric"):
            TrackSet(x, ps)


def test_track_set_non_finite_inputs_name_the_row():
    nan_cov = np.eye(4)
    nan_cov[2, 2] = np.nan
    with pytest.raises(ContractViolation, match="symmetric"):
        TrackSet(*_set_with_row(np.zeros(4), nan_cov))
    one_sided_inf = np.eye(4)
    one_sided_inf[0, 1] = np.inf
    with pytest.raises(ContractViolation, match="symmetric"):
        TrackSet(*_set_with_row(np.zeros(4), one_sided_inf))
    for i, j in ((1, 1), (0, 3)):
        inf_cov = np.eye(4)
        inf_cov[i, j] = inf_cov[j, i] = np.inf
        with pytest.raises(NumericalError, match="track 1: non-finite"):
            TrackSet(*_set_with_row(np.zeros(4), inf_cov))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="track 2: non-finite"):
            TrackSet(*_set_with_row(np.array([0.0, bad, 0.0, 0.0]), np.eye(4), row=2))


@pytest.mark.parametrize("lowest, ok", [(-1e-10, True), (0.0, True), (-1e-8, False)])
def test_track_set_psd_tolerance(lowest, ok):
    x, p = _set_with_row(np.zeros(4), np.diag([1.0, 2.0, 3.0, lowest]), row=2)
    if ok:
        TrackSet(x, p)
    else:
        with pytest.raises(ContractViolation, match="track 2: covariance is not PSD"):
            TrackSet(x, p)


def test_track_set_checks_name_the_first_failing_row():
    # Row 1 is bad (and row 2 as well): the whole-array tests fail, and the
    # diagnosis names row 1.
    nan_state = np.array([0.0, np.nan, 0.0, 0.0])
    not_psd = np.diag([1.0, 2.0, 3.0, -1e-3])
    for state, cov, error, msg in (
        (nan_state, np.eye(4), NumericalError, "track 1: non-finite"),
        (np.zeros(4), not_psd, ContractViolation, "track 1: covariance is not PSD"),
    ):
        x, p = _set_with_row(state, cov, n=4, row=1)
        x[2], p[2] = state, cov
        with pytest.raises(error, match=msg):
            TrackSet(x, p)


def test_track_set_rows_and_positions():
    # Lists of ints are read as float arrays.
    x = np.arange(12).reshape(3, 4)
    ts = TrackSet(x.tolist(), np.stack([np.eye(4, dtype=int)] * 3).tolist())
    assert len(ts) == 3 and ts.x.dtype == float and ts.p.dtype == float
    np.testing.assert_array_equal(ts.positions, x[:, [0, 2]])
    for j, t in enumerate(ts):
        assert t.id == j
        np.testing.assert_array_equal(t.state, x[j])
        np.testing.assert_array_equal(t.state[::2], x[j, [0, 2]])
    assert len(TrackSet(np.zeros((0, 4)), np.zeros((0, 4, 4)))) == 0


# ---------------------------------------------------------------------------
# Assignment / AssocProbabilities
# ---------------------------------------------------------------------------


def test_assignment_invariants():
    Assignment({0: 2, 1: 0}, frozenset({2}), frozenset({1}))
    with pytest.raises(ContractViolation):
        Assignment({0: 1, 1: 1}, frozenset(), frozenset())
    with pytest.raises(ContractViolation):
        Assignment({0: 1}, frozenset({0}), frozenset())
    with pytest.raises(ContractViolation):
        Assignment({0: 1}, frozenset(), frozenset({1}))


def test_assignment_checks_run_in_order_with_their_messages():
    # Each case also breaks every later rule, so only the first check may fire.
    cases = [
        (({0: 1, 1: 1}, {0}, {1}), "a measurement is assigned to more than one track"),
        (({0: 1}, {0}, {1}), "a track is both assigned and unassigned"),
        (({0: 1}, (), {1}), "a measurement is both assigned and unassigned"),
    ]
    for args, message in cases:
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            Assignment(*args)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, -1e-300])
def test_cost_matrix_refuses_nan_and_negative_entries(bad):
    with pytest.raises(ContractViolation, match=r"^cost matrix entries must be >= 0 and not NaN$"):
        CostMatrix(np.array([[1.0, bad], [np.inf, 0.0]]))


def test_cost_matrix_accepts_zeros_of_either_sign_and_inf():
    values = np.array([[-0.0, 0.0, np.inf], [2.0, np.inf, -0.0]])
    np.testing.assert_array_equal(CostMatrix(values).values, values)
    assert CostMatrix(np.zeros((2, 0))).values.shape == (2, 0)


def test_assoc_probabilities_row_sum_enforced():
    with pytest.raises(ContractViolation):
        AssocProbabilities(np.array([[0.5, 0.4]]))
    ok = AssocProbabilities(np.array([[0.5, 0.5], [0.0, 1.0]]))
    assert ok.rows.shape[1] - 1 == 1


def test_assoc_probabilities_range_enforced():
    with pytest.raises(ContractViolation):
        AssocProbabilities(np.array([[1.5, -0.5]]))


def test_assoc_probabilities_check_order():
    # Non-finite entries are reported before out-of-range ones and bad sums.
    with pytest.raises(NumericalError, match="non-finite"):
        AssocProbabilities(np.array([[1.5, -0.5, 0.0], [np.nan, 0.5, 0.5]]))
    with pytest.raises(NumericalError, match="non-finite"):
        AssocProbabilities(np.array([[np.inf, 0.0], [0.5, 0.5]]))
    with pytest.raises(ContractViolation, match=r"\[0, 1\]"):
        AssocProbabilities(np.array([[0.5, 0.5], [1.5, -0.5]]))
    with pytest.raises(ContractViolation, match="association row 1 sums to"):
        AssocProbabilities(np.array([[0.5, 0.5], [0.5, 0.4]]))


def test_assoc_probabilities_accept_no_tracks():
    for m in (0, 3):
        probs = AssocProbabilities(np.zeros((0, m + 1)))
        assert probs.rows.shape[0] == 0 and probs.rows.shape[1] - 1 == m


# ---------------------------------------------------------------------------
# hard_assignment_from_probs
# ---------------------------------------------------------------------------


def test_hard_assignment_identity_rows():
    probs = AssocProbabilities(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    a = hard_assignment_from_probs(probs)
    assert a.pairs == {0: 0, 1: 1}
    assert not a.unassigned_tracks


def test_hard_assignment_all_miss():
    probs = AssocProbabilities(np.array([[0.0, 0.0, 1.0]]))
    a = hard_assignment_from_probs(probs)
    assert a.unassigned_tracks == {0}
    assert a.unassigned_measurements == {0, 1}


def test_hard_assignment_never_pairs_zero_probability():
    # Track 1 ties between measurement 1 (probability 0) and its miss
    # (probability 0): it misses.
    probs = AssocProbabilities(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    a = hard_assignment_from_probs(probs)
    assert len(a.pairs) == 1 and a.unassigned_measurements == {1}


def test_hard_assignment_matches_brute_force():
    rng = np.random.default_rng(7)
    for case in range(300):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        rows = rng.random((n, m + 1)) + 1e-3
        if case % 2:  # measurements no track claims, as outside every JPDA gate
            rows[:, np.flatnonzero(rng.random(m + 1) < 0.4)] = 0.0
            rows[rows.sum(axis=1) == 0.0, m] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        probs = AssocProbabilities(rows)
        a = hard_assignment_from_probs(probs)
        achieved = sum(rows[j, i] for j, i in a.pairs.items())
        achieved += sum(rows[j, m] for j in a.unassigned_tracks)
        assert achieved == pytest.approx(brute_force_max_prob(rows), abs=1e-12)
        assert all(rows[j, i] > 0.0 for j, i in a.pairs.items())  # a miss is as good


@pytest.mark.parametrize(
    "rows,pairs,missed",
    [
        # Two tracks at 0.5/0.5 over two measurements: either pairing sums to 1.
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], {0: 0, 1: 1}, set()),
        # Measurement 1 has probability 0 for both, and each track ties its
        # measurement 0 with its miss.
        ([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]], {1: 0}, {0}),
        ([[0.25, 0.0, 0.25, 0.5], [0.25, 0.0, 0.25, 0.5]], {}, {0, 1}),
    ],
)
def test_hard_assignment_breaks_exact_ties_as_pinned(rows, pairs, missed):
    m = len(rows[0]) - 1
    a = hard_assignment_from_probs(AssocProbabilities(np.array(rows)))
    assert a.pairs == pairs and a.unassigned_tracks == missed
    assert a.unassigned_measurements == set(range(m)) - set(pairs.values())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 5),
    st.integers(0, 10_000),
)
def test_hard_assignment_output_invariants(n, m, seed):
    rng = np.random.default_rng(seed)
    rows = rng.random((n, m + 1)) + 1e-6
    rows /= rows.sum(axis=1, keepdims=True)
    a = hard_assignment_from_probs(AssocProbabilities(rows))
    # Assignment construction revalidates the one-to-one constraints; check coverage.
    assert set(a.pairs) | a.unassigned_tracks == set(range(n))
    assert set(a.pairs.values()) | a.unassigned_measurements == set(range(m))


# ---------------------------------------------------------------------------
# solve_lap
# ---------------------------------------------------------------------------


def _lap_case(rng, n, m, collide):
    """An (n, m) integer 0-3 cost whose rows before ``collide`` have distinct
    first-minimum columns and whose row ``collide`` has its first minimum in
    one of theirs; ``collide`` None leaves the draw as it is."""
    cost = rng.integers(0, 4, size=(n, m))
    if collide is not None:
        cols = rng.permutation(m)[:collide]
        for r, c in enumerate([*cols, rng.choice(cols)]):
            cost[r, :c] = np.maximum(cost[r, :c], 1)
            cost[r, c] = 0
    return cost.astype(float).tolist()


def test_solve_lap_equals_the_reference_loop_on_tie_heavy_costs():
    rng = np.random.default_rng(1987)
    cases = 0
    for n in range(1, 7):
        for m in range(n, 15):
            collisions = [None] + sorted({r for r in (1, n // 2, n - 1) if 1 <= r < n})
            for collide in collisions:
                for _ in range(12):
                    cost = _lap_case(rng, n, m, collide)
                    assert solve_lap(cost) == reference_lap(cost), (n, m, collide, cost)
                    cases += 1
    assert cases >= 2000
    # Every row placed at once, and a square problem that must augment.
    assert solve_lap([[0.0, 1.0], [1.0, 0.0]]) == reference_lap([[0.0, 1.0], [1.0, 0.0]]) == [0, 1]
    assert solve_lap([[0.0, 1.0], [0.0, 3.0]]) == reference_lap([[0.0, 1.0], [0.0, 3.0]]) == [1, 0]


def test_solve_lap_with_infinite_entries_equals_brute_force():
    # Continuous costs have one optimum; +inf entries are pairs never made.
    rng = np.random.default_rng(2016)
    cases = 0
    while cases < 500:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(n, 8))
        cost = rng.random((n, m))
        cost[rng.random((n, m)) < rng.choice([0.2, 0.5, 0.7])] = np.inf
        best = min(
            itertools.permutations(range(m), n),
            key=lambda cols: sum(cost[j, c] for j, c in enumerate(cols)),
        )
        if not np.isfinite(cost[range(n), best]).all():
            continue  # no assignment of finite cost
        assert solve_lap(cost.tolist()) == list(best), cost
        cases += 1


# ---------------------------------------------------------------------------
# assign_with_misses
# ---------------------------------------------------------------------------


def test_assign_with_misses_solves_only_the_columns_that_can_win(monkeypatch):
    widths = []

    def recording_lap(cost):
        widths.append(len(cost[0]))
        return solve_lap(cost)

    monkeypatch.setattr(domain, "solve_lap", recording_lap)
    cost = np.array([[0.2, 0.9, 0.5], [0.8, 0.95, 0.5]])
    a = assign_with_misses(cost, np.array([0.5, 0.6]))
    # Column 1 loses to both misses; column 2 ties track 0's miss and stays.
    assert widths == [2 + 2]
    assert a.pairs == {0: 0, 1: 2}
    assert a.unassigned_measurements == {1}


def full_width_pairs(cost, miss, big, tie):
    """The pairs of the whole n x (m + n) problem, every column solved, with
    each forbidden pair written as the finite ``big`` instead of ``+inf``."""
    n, m = cost.shape
    aug = np.full((n, m + n), big)
    aug[:, :m] = np.where(np.isinf(cost), big, cost)
    aug[:, m:][np.diag_indices(n)] = miss
    aug += tie * np.arange(m + n)
    cols = solve_lap(aug.tolist())
    return {j: c for j, c in enumerate(cols) if c < m and aug[j, c] < big}


@pytest.mark.parametrize("tie", [0.0, 1e-9])
def test_assign_with_misses_matches_the_full_width_problem(tie):
    # Costs on a coarse grid tie often, with each other and with the misses.
    rng = np.random.default_rng(11)
    for _ in range(400):
        n, m = int(rng.integers(1, 5)), int(rng.integers(0, 7))
        cost = rng.integers(0, 6, size=(n, m)) / 4.0
        cost[rng.random((n, m)) < 0.2] = np.inf
        miss = rng.integers(1, 5, size=n) / 4.0
        got = assign_with_misses(cost, miss, tie)
        assert got.pairs == full_width_pairs(cost, miss, 10.0, tie)
    # No tracks, where the miss diagonal is empty, and one miss for every
    # track given as a scalar, as hungarian passes it.
    for _ in range(200):
        n, m = int(rng.integers(0, 5)), int(rng.integers(0, 7))
        cost = rng.integers(0, 6, size=(n, m)) / 4.0
        cost[rng.random((n, m)) < 0.2] = np.inf
        miss = float(rng.integers(1, 5)) / 4.0
        got = assign_with_misses(cost, miss, tie)
        pairs = full_width_pairs(cost, miss, 10.0, tie)
        assert got.pairs == pairs
        assert got.unassigned_tracks == set(range(n)) - set(pairs)
        assert got.unassigned_measurements == set(range(m)) - set(pairs.values())
    empty = assign_with_misses(np.zeros((0, 3)), 1.0, tie)
    assert (empty.pairs, empty.unassigned_tracks, empty.unassigned_measurements) == ({}, set(), {0, 1, 2})
