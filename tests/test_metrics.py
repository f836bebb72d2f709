import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttertrack.domain import Assignment, CLUTTER, ContractViolation, Scan
from cluttertrack.metrics import OspaParams, ospa, stti, timed

from oracles import count_transitions, ospa_brute_force

points = st.lists(
    st.tuples(
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    ),
    min_size=0,
    max_size=6,
)


# ---------------------------------------------------------------------------
# ospa
# ---------------------------------------------------------------------------


def test_ospa_equal_sets_zero():
    p = OspaParams(c=10.0, p=2.0)
    xs = [(1.0, 2.0), (3.0, 4.0)]
    assert ospa(xs, xs, p) == pytest.approx(0.0, abs=1e-12)


def test_ospa_both_empty():
    assert ospa([], [], OspaParams(c=10.0, p=2.0)) == 0.0


def test_ospa_cardinality_only():
    # one extra estimate, no truth: pure cutoff penalty
    assert ospa([], [(3.0, 7.0)], OspaParams(c=10.0, p=2.0)) == pytest.approx(10.0)


def test_ospa_mixed_case_brute_force_value():
    got = ospa([(0.0, 0.0)], [(1.0, 0.0), (10.0, 10.0)], OspaParams(c=10.0, p=2.0))
    assert got == pytest.approx(np.sqrt(50.5), abs=1e-9)
    assert got == pytest.approx(
        ospa_brute_force([(0.0, 0.0)], [(1.0, 0.0), (10.0, 10.0)], 10.0, 2.0), abs=1e-12
    )


def test_ospa_matches_brute_force_random():
    rng = np.random.default_rng(19)
    p = OspaParams(c=5.0, p=2.0)
    for case in range(300):
        xs = rng.uniform(-10, 10, size=(int(rng.integers(0, 7)), 2))
        ys = rng.uniform(-10, 10, size=(int(rng.integers(0, 7)), 2))
        if case % 3 == 1 and len(xs) and len(ys):  # coincident points, exact ties
            xs[:] = xs[0]
            ys[: len(ys) // 2 + 1] = xs[0]
        if case % 3 == 2:  # every distance beyond c: ties clipped at c
            ys += 100.0
        assert ospa(xs, ys, p) == pytest.approx(
            ospa_brute_force(xs, ys, 5.0, 2.0), abs=1e-9
        )


@settings(max_examples=150, deadline=None)
@given(points, points)
def test_ospa_axioms(xs, ys):
    p = OspaParams(c=7.5, p=2.0)
    d = ospa(xs, ys, p)
    assert 0.0 <= d <= 7.5 + 1e-12
    assert d == pytest.approx(ospa(ys, xs, p), abs=1e-9)
    if sorted(xs) == sorted(ys):
        assert d == pytest.approx(0.0, abs=1e-9)


def test_ospa_identity_of_indiscernibles():
    p = OspaParams(c=3.0, p=1.0)
    assert ospa([(1, 1)], [(1, 1.5)], p) > 0


def test_ospa_large_cutoff_approaches_rms():
    rng = np.random.default_rng(4)
    xs = rng.uniform(0, 10, size=(4, 2))
    ys = xs + rng.normal(scale=0.5, size=(4, 2))
    got = ospa(xs, ys, OspaParams(c=1e6, p=2.0))
    # optimal matching at this noise level is the identity pairing
    rms = np.sqrt(np.mean(np.sum((xs - ys) ** 2, axis=1)))
    assert got == pytest.approx(rms, rel=1e-9)


def test_ospa_params_validation():
    with pytest.raises(ContractViolation):
        OspaParams(c=0.0, p=2.0)
    with pytest.raises(ContractViolation):
        OspaParams(c=1.0, p=0.5)
    # The assignment solver needs finite costs; an infinite one made it loop forever.
    for c, p, msg in (
        (np.inf, 2.0, "c must be finite"),
        (np.nan, 2.0, "c must be finite"),
        (10.0, np.inf, "p must be finite"),
        (10.0, np.nan, "p must be finite"),
        (10.0, 400.0, r"c \*\* p overflows"),
    ):
        with pytest.raises(ContractViolation, match=msg):
            OspaParams(c=c, p=p)


def test_ospa_overflow_names_c_p_and_point_count():
    params = OspaParams(c=10.0, p=308.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ContractViolation, match=r"OSPA of 3 points .* c=10.0, p=308.0"):
        ospa(rng.random((2, 2)), rng.random((3, 2)), params)
    with pytest.raises(ContractViolation, match="OSPA of 2 points"):
        ospa([], rng.random((2, 2)), params)
    # One point: n * c ** p = 1e308 is still finite.
    assert ospa([(0.0, 0.0)], [(3.0, 4.0)], params) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# stti
# ---------------------------------------------------------------------------


def scan_with_origins(k, origins):
    z = np.zeros((len(origins), 2))
    return Scan(k=k, measurements=z, origins=tuple(origins))


def full_assignment(pairs, n_meas):
    used = set(pairs.values())
    return Assignment(pairs, frozenset(), frozenset(range(n_meas)) - used)


def test_stti_stable_identity():
    scans = [scan_with_origins(k, [0, 1]) for k in range(5)]
    history = [full_assignment({0: 0, 1: 1}, 2) for _ in range(5)]
    assert stti(history, scans) == 0


def test_stti_single_swap_counts_two():
    scans = [scan_with_origins(k, [0, 1]) for k in range(6)]
    history = [full_assignment({0: 0, 1: 1}, 2) for _ in range(3)]
    history += [full_assignment({0: 1, 1: 0}, 2) for _ in range(3)]
    assert stti(history, scans) == 2


def test_stti_skips_undefined_scans():
    # target 0 undetected mid-way; same claiming track before and after
    scans = [
        scan_with_origins(0, [0]),
        scan_with_origins(1, [CLUTTER]),
        scan_with_origins(2, [0]),
    ]
    history = [
        full_assignment({0: 0}, 1),
        full_assignment({}, 1),
        full_assignment({0: 0}, 1),
    ]
    assert stti(history, scans) == 0


def test_stti_requires_labels():
    scans = [Scan(k=0, measurements=np.zeros((1, 2)))]
    history = [full_assignment({0: 0}, 1)]
    with pytest.raises(ContractViolation):
        stti(history, scans)


def test_stti_matches_transition_oracle_random():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n_scans = int(rng.integers(2, 8))
        scans, history = [], []
        claimed = {g: [] for g in range(3)}
        for k in range(n_scans):
            detected = [g for g in range(3) if rng.random() < 0.8]
            origins = detected + [CLUTTER] * int(rng.integers(0, 3))
            rng.shuffle(origins)
            scan = scan_with_origins(k, origins)
            scans.append(scan)
            pairs = {}
            tracks = list(range(3))
            rng.shuffle(tracks)
            for i in range(scan.num_measurements):
                if tracks and rng.random() < 0.8:
                    pairs[tracks.pop()] = i
            history.append(full_assignment(pairs, scan.num_measurements))
            meas_to_track = {i: j for j, i in pairs.items()}
            origin_to_meas = {o: i for i, o in enumerate(origins) if o != CLUTTER}
            for g in claimed:
                i = origin_to_meas.get(g)
                claimed[g].append(meas_to_track.get(i) if i is not None else None)
        expected = sum(count_transitions(seq) for seq in claimed.values())
        assert stti(history, scans) == expected


def test_stti_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    scans, history = [], []
    for k in range(6):
        origins = [0, 1, 2]
        rng.shuffle(origins)
        scan = scan_with_origins(k, origins)
        scans.append(scan)
        perm = list(rng.permutation(3))
        history.append(full_assignment({j: i for i, j in enumerate(perm)}, 3))
    base = stti(history, scans)
    relabel = {0: 2, 1: 0, 2: 1}
    relabeled = [
        Assignment(
            {relabel[j]: i for j, i in a.pairs.items()},
            frozenset(relabel[j] for j in a.unassigned_tracks),
            a.unassigned_measurements,
        )
        for a in history
    ]
    assert stti(relabeled, scans) == base


# ---------------------------------------------------------------------------
# timed
# ---------------------------------------------------------------------------


def test_timed_noop_overhead():
    _, seconds = timed(lambda: None)
    assert seconds < 1e-4


def test_timed_sleep(monkeypatch):
    _, seconds = timed(lambda: time.sleep(0.010))
    assert seconds >= 0.010
    # The elapsed time is exactly the difference of the two clock readings.
    readings = iter([7.5, 7.625])
    monkeypatch.setattr("cluttertrack.metrics.time.perf_counter", lambda: next(readings))
    assert timed(lambda: "done") == ("done", 0.125)


def test_timed_returns_result():
    value, _ = timed(lambda: 42)
    assert value == 42
