import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttertrack import bench
from cluttertrack.assoc import GateParams
from cluttertrack.domain import Assignment, CLUTTER, ContractViolation, Scan, five_crossing_targets
from cluttertrack.kalman import FilterParams
from cluttertrack.metrics import OspaParams, ospa, stti
from cluttertrack.scenario import generate_scans, generate_truth

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
    return Assignment(pairs, len(pairs), n_meas)


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


def test_stti_refuses_an_assignment_count_unlike_the_scan_count():
    scans = [scan_with_origins(k, [0]) for k in range(3)]
    with pytest.raises(ContractViolation, match="^2 assignments for 3 scans$"):
        stti([full_assignment({0: 0}, 1)] * 2, scans)


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
        Assignment({relabel[j]: i for j, i in a.pairs.items()}, a.num_tracks, a.num_measurements)
        for a in history
    ]
    assert stti(relabeled, scans) == base


# ---------------------------------------------------------------------------
# timing: track_scans times each associate call
# ---------------------------------------------------------------------------


def _timed_run(engine):
    """Track a five-scan reference episode with ``engine``."""
    truth = generate_truth(replace(five_crossing_targets(), num_scans=5))
    return bench.track_scans(
        truth.states[0], generate_scans(truth, 0), truth.states[:, :, [0, 2]], engine, FilterParams(), OspaParams()
    )


def _ha_engine():
    return bench.make_engine("ha", five_crossing_targets(), FilterParams(), GateParams())


def _replaying_engine(monkeypatch):
    """An HA engine whose associate returns, without work, the assignments a
    real HA run made; also returns that run."""
    recorded = []
    engine = _ha_engine()
    real_associate = engine.associate

    def recording(tracks, scan):
        recorded.append(real_associate(tracks, scan))
        return recorded[-1]

    monkeypatch.setattr(engine, "associate", recording)
    run = _timed_run(engine)
    replay = iter(recorded)
    monkeypatch.setattr(engine, "associate", lambda tracks, scan: next(replay))
    return engine, run


def test_timed_noop_overhead(monkeypatch):
    engine, _ = _replaying_engine(monkeypatch)
    assert _timed_run(engine).result.time_mean_s < 1e-4


def test_timed_sleep(monkeypatch):
    engine = _ha_engine()
    real_associate, real_predict = engine.associate, bench.predict

    def sleeping(tracks, scan):
        time.sleep(0.010)
        return real_associate(tracks, scan)

    monkeypatch.setattr(engine, "associate", sleeping)
    assert _timed_run(engine).result.time_mean_s >= 0.010

    # A fake clock that only the engine and the prediction advance: the
    # prediction's time must not count, so the mean is that of the associate
    # intervals alone.
    clock = [0.0]
    durations = iter([0.5, 0.25, 2.0, 1.25])

    def associate(tracks, scan):
        clock[0] += next(durations)
        return real_associate(tracks, scan)

    def predict(tracks, params):
        clock[0] += 100.0
        return real_predict(tracks, params)

    monkeypatch.setattr(engine, "associate", associate)
    monkeypatch.setattr(bench, "predict", predict)
    monkeypatch.setattr("cluttertrack.bench.time.perf_counter", lambda: clock[0])
    assert _timed_run(engine).result.time_mean_s == 1.0


def test_timed_returns_result(monkeypatch):
    # Timing the call leaves its result as it is: the assignments the engine
    # returns are the ones the tracks are updated and scored with.
    engine, run = _replaying_engine(monkeypatch)
    replayed = _timed_run(engine)
    np.testing.assert_array_equal(replayed.states, run.states)
    assert (replayed.result.ospa_mean, replayed.result.stti) == (run.result.ospa_mean, run.result.stti)
