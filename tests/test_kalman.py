import warnings

import numpy as np
import pytest

import oracles
from cluttertrack.domain import AssocProbabilities, ContractViolation, NumericalError, Scan, Track, TrackSet
from cluttertrack.kalman import (
    FilterParams,
    innovations,
    predict,
    process_noise,
    transition_matrix,
    update_weighted,
)

from conftest import make_set, make_track


def one(ts):
    """The only row of a one-track set, as a Track."""
    (track,) = ts
    return track


def update_one(track, z, params):
    """The hard update of one track with one measurement: a one-hot row."""
    scan = Scan(k=0, measurements=np.asarray(z, dtype=float).reshape(1, 2))
    return one(update_weighted(make_set([track]), scan, AssocProbabilities(np.array([[1.0, 0.0]])), params))


def test_predict_constant_velocity():
    t = make_track(state=(5.0, 1.0, 11.0, 0.4))
    out = one(predict(make_set([t]), FilterParams(dt=1.0)))
    assert np.allclose(out.state, [6.0, 1.0, 11.4, 0.4])


def test_predict_zero_process_noise_grows_trace():
    t = make_track(cov=np.eye(4))
    out = one(predict(make_set([t]), FilterParams(dt=1.0, q=0.0)))
    f = transition_matrix(1.0)
    assert np.allclose(out.covariance, f @ f.T)
    assert np.trace(out.covariance) >= np.trace(t.covariance)


def test_predict_zero_prior_covariance_gives_q():
    t = make_track(cov=np.zeros((4, 4)))
    q = 0.05
    out = one(predict(make_set([t]), FilterParams(dt=1.0, q=q)))
    # hand-evaluated discrete white-noise-acceleration block for dt=1
    block = q * np.array([[0.25, 0.5], [0.5, 1.0]])
    expected = np.zeros((4, 4))
    expected[:2, :2] = block
    expected[2:, 2:] = block
    assert np.allclose(out.covariance, expected)
    assert np.allclose(process_noise(1.0, q), expected)


def test_process_noise_dt_scaling():
    q = 0.3
    dt = 2.0
    block = q * np.array([[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]])
    assert np.allclose(process_noise(dt, q)[:2, :2], block)


def test_predicted_measurement_selects_positions():
    ts = make_set([make_track(0, state=(6, 1, 11.4, 0.4)), make_track(1, state=(0, 0, 0, 0))])
    assert np.allclose(ts.positions, [[6, 11.4], [0, 0]])


def test_predicted_measurement_commutes_with_predict():
    t = make_track(state=(3.0, -1.0, 2.0, 0.5))
    out = predict(make_set([t]), FilterParams(dt=1.0))
    assert np.allclose(out.positions, [[2.0, 2.5]])


def test_update_hard_zero_innovation_keeps_state():
    t = make_track(state=(1.0, 2.0, 3.0, 4.0))
    out = update_one(t, t.state[::2], FilterParams())
    assert np.allclose(out.state, t.state, atol=1e-12)


def test_update_hard_diffuse_prior_tracks_measurement():
    t = make_track(cov=1e4 * np.eye(4))
    out = update_one(t, np.array([7.0, 12.0]), FilterParams())
    assert np.allclose(out.state[[0, 2]], [7.0, 12.0], atol=1e-3)


def test_update_hard_scalar_hand_case():
    # P = I, R = 0.1 I, x = 0, z = (1, 0): S = 1.1, K = 1/1.1 on position.
    t = make_track(cov=np.eye(4))
    out = update_one(t, np.array([1.0, 0.0]), FilterParams(r_diag=(0.1, 0.1)))
    assert out.state[0] == pytest.approx(1.0 / 1.1, abs=1e-12)
    assert out.state[2] == pytest.approx(0.0, abs=1e-12)
    # posterior position variance: 1 - 1/1.1 = 0.1/1.1 via Joseph form
    assert out.covariance[0, 0] == pytest.approx(0.1 / 1.1, abs=1e-12)


def test_update_hard_reduces_trace():
    rng = np.random.default_rng(0)
    params = FilterParams()
    for _ in range(50):
        a = rng.normal(size=(4, 4))
        t = make_track(state=rng.normal(size=4), cov=a @ a.T + 0.1 * np.eye(4))
        out = update_one(t, rng.normal(size=2), params)
        assert np.trace(out.covariance) <= np.trace(t.covariance) + 1e-9
        assert np.linalg.eigvalsh(out.covariance).min() >= -1e-9


def test_update_weighted_miss_only_returns_input():
    ts = make_set([make_track(state=(1.0, 0.5, 2.0, -0.5))])
    scan = Scan(k=0, measurements=np.array([[1.5, 2.5]]))
    out = update_weighted(ts, scan, AssocProbabilities(np.array([[0.0, 1.0]])), FilterParams())
    assert out is ts


def test_update_weighted_empty_scan():
    ts = make_set([make_track()])
    scan = Scan(k=0, measurements=np.zeros((0, 2)))
    out = update_weighted(ts, scan, AssocProbabilities(np.array([[1.0]])), FilterParams())
    assert out is ts


def test_update_weighted_one_hot_equals_hard():
    rng = np.random.default_rng(3)
    params = FilterParams()
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        t = make_track(state=rng.normal(size=4), cov=a @ a.T + 0.05 * np.eye(4))
        zs = rng.normal(scale=3.0, size=(3, 2))
        scan = Scan(k=0, measurements=zs)
        pick = int(rng.integers(0, 3))
        beta = np.zeros((1, 4))
        beta[0, pick] = 1.0
        weighted = one(update_weighted(make_set([t]), scan, AssocProbabilities(beta), params))
        hard = oracles.update_hard(t, zs[pick], params)
        assert np.allclose(weighted.state, hard.state, atol=1e-10)
        assert np.allclose(weighted.covariance, hard.covariance, atol=1e-10)


def test_update_weighted_two_measurement_hand_case():
    # Symmetric measurements: combined innovation is zero; covariance gains
    # the hand-evaluated spread-of-innovations term.
    t = make_track(cov=np.eye(4))
    params = FilterParams(r_diag=(0.1, 0.1))
    zs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    scan = Scan(k=0, measurements=zs)
    beta = np.array([[0.5, 0.5, 0.0]])
    out = one(update_weighted(make_set([t]), scan, AssocProbabilities(beta), params))
    assert np.allclose(out.state, t.state, atol=1e-12)

    # hand evaluation: S = 1.1 I, K = P H^T S^-1 (position gain 1/1.1),
    # P_c = Joseph, spread = K (sum beta nu nu^T) K^T since nu_bar = 0.
    h = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
    p = np.eye(4)
    s = h @ p @ h.T + np.diag(params.r_diag)
    k = p @ h.T @ np.linalg.inv(s)
    ikh = np.eye(4) - k @ h
    p_c = ikh @ p @ ikh.T + k @ np.diag(params.r_diag) @ k.T
    spread_inner = 0.5 * np.outer(zs[0], zs[0]) + 0.5 * np.outer(zs[1], zs[1])
    expected = p_c + k @ spread_inner @ k.T
    assert np.allclose(out.covariance, expected, atol=1e-12)


def test_update_weighted_validates_row():
    ts = make_set([make_track()])
    scan = Scan(k=0, measurements=np.array([[1.0, 1.0]]))
    # The rows are checked where they are wrapped, once; the update refuses unchecked ones.
    with pytest.raises(ContractViolation, match="rows must be an AssocProbabilities, got ndarray"):
        update_weighted(ts, scan, np.array([[0.5, 0.5]]), FilterParams())
    with pytest.raises(ContractViolation, match="sums to"):
        update_weighted(ts, scan, AssocProbabilities(np.array([[0.5, 0.2]])), FilterParams())
    with pytest.raises(ContractViolation, match=r"need \(N, M\+1\)"):
        update_weighted(ts, scan, AssocProbabilities(np.array([[0.5, 0.2, 0.3]])), FilterParams())
    with pytest.raises(ContractViolation, match=r"rows must be \(N, M\+1\)"):
        update_weighted(ts, scan, AssocProbabilities(np.array([0.5, 0.5])), FilterParams())


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"dt": np.inf}, "dt"),
        ({"dt": np.nan}, "dt"),
        ({"q": np.nan}, "q"),
        ({"q": np.inf}, "q"),
        ({"r_diag": (0.1, np.inf)}, "r_diag entries"),
    ],
)
def test_filter_params_must_be_finite(kwargs, field):
    with pytest.raises(ContractViolation, match=f"{field} must be finite"):
        FilterParams(**kwargs)


def test_noiseless_stream_converges():
    params = FilterParams()
    ts = TrackSet(np.array([[0.5, 0.8, -0.5, 1.2]]), np.eye(4)[None])
    true_pos = lambda k: np.array([0.0 + 1.0 * k, 0.0 + 1.0 * k])
    errors = {}
    for k in range(1, 21):
        ts = predict(ts, params)
        scan = Scan(k=k, measurements=true_pos(k)[None])
        ts = update_weighted(ts, scan, AssocProbabilities(np.array([[1.0, 0.0]])), params)
        errors[k] = np.linalg.norm(ts.positions[0] - true_pos(k))
    assert errors[20] < errors[2]


# ---------------------------------------------------------------------------
# Batched set against the per-track reference
# ---------------------------------------------------------------------------


def _random_set(rng, n):
    a = rng.normal(size=(n, 4, 4))
    p = a @ a.transpose(0, 2, 1) + 0.05 * np.eye(4)
    return TrackSet(rng.normal(scale=3.0, size=(n, 4)), (p + p.transpose(0, 2, 1)) / 2.0)


def _random_rows(rng, kind, n, m):
    if kind == "fractional":
        rows = rng.random((n, m + 1))
        rows[rng.random((n, m + 1)) < 0.3] = 0.0
        rows[:, m] += 1e-3
        return rows / rows.sum(axis=1, keepdims=True)
    if kind == "mixed" and m:  # miss-only rows next to fractional or one-hot ones
        rows = _random_rows(rng, ("fractional", "one_hot")[int(rng.integers(2))], n, m)
        rows[rng.random(n) < 0.5] = np.eye(m + 1)[m]
        return rows
    rows = np.zeros((n, m + 1))
    if kind in ("all_miss", "mixed") or m == 0:
        rows[:, m] = 1.0
    else:  # one-hot: a measurement, or now and then the miss
        rows[np.arange(n), rng.integers(0, m + 1, size=n)] = 1.0
    return rows


def test_batched_filter_matches_per_track_reference():
    rng = np.random.default_rng(1907)
    params = FilterParams()
    kinds = ("fractional", "one_hot", "all_miss", "empty_scan", "mixed")
    hard_rows = kept_rows = 0
    for case in range(200):
        kind = kinds[case % len(kinds)]
        n = int(rng.integers(1, 7))
        m = 0 if kind == "empty_scan" else int(rng.integers(0, 31))
        ts = _random_set(rng, n)
        scan = Scan(k=0, measurements=rng.normal(scale=3.0, size=(m, 2)))
        rows = _random_rows(rng, kind, n, m)

        predicted = predict(ts, params)
        updated = update_weighted(ts, scan, AssocProbabilities(rows), params)
        for j, t in enumerate(ts):
            ref = oracles.predict(t, params)
            assert np.max(np.abs(predicted.x[j] - ref.state)) <= 1e-12, (case, j)
            assert np.max(np.abs(predicted.p[j] - ref.covariance)) <= 1e-12, (case, j)
            ref = oracles.update_weighted(t, scan, rows[j], params)
            assert np.max(np.abs(updated.x[j] - ref.state)) <= 1e-12, (case, j)
            assert np.max(np.abs(updated.p[j] - ref.covariance)) <= 1e-12, (case, j)
            if kind == "one_hot" and m and rows[j, m] == 0.0:
                hard = oracles.update_hard(t, scan.measurements[np.argmax(rows[j])], params)
                np.testing.assert_array_equal(updated.x[j], hard.state)
                np.testing.assert_array_equal(updated.p[j], hard.covariance)
                hard_rows += 1
            if rows[j, m] == 1.0 and rows[:, m].min() < 1.0:
                # A miss-only row in a set that does move keeps its prediction.
                np.testing.assert_array_equal(updated.x[j], ts.x[j])
                np.testing.assert_array_equal(updated.p[j], ts.p[j])
                kept_rows += kind == "mixed"
    assert hard_rows > 50 and kept_rows > 20


def test_operations_leave_their_input_set_alone():
    rng = np.random.default_rng(5)
    ts = _random_set(rng, 4)
    x, p = ts.x.copy(), ts.p.copy()
    scan = Scan(k=0, measurements=rng.normal(size=(6, 2)))
    predict(ts, FilterParams())
    innovations(ts, scan.measurements, FilterParams())
    update_weighted(ts, scan, AssocProbabilities(_random_rows(rng, "fractional", 4, 6)), FilterParams())
    np.testing.assert_array_equal(ts.x, x)
    np.testing.assert_array_equal(ts.p, p)


# ---------------------------------------------------------------------------
# innovations
# ---------------------------------------------------------------------------


def test_innovations_hand_case():
    # P = 0, R = diag(0.1, 0.4): S = R, det 0.04, nu = z - (1, 2).
    ts = make_set([make_track(state=(1.0, 0.0, 2.0, 0.0), cov=np.zeros((4, 4)))])
    nu, s, det, d2 = innovations(ts, np.array([[2.0, 2.0], [1.0, 4.0]]), FilterParams(r_diag=(0.1, 0.4)))
    np.testing.assert_allclose(nu, [[[1.0, 0.0], [0.0, 2.0]]])
    np.testing.assert_allclose(s, [np.diag([0.1, 0.4])])
    assert det[0] == pytest.approx(0.04, rel=1e-12)
    assert d2[0] == pytest.approx([10.0, 10.0], rel=1e-12)


def test_innovations_match_solving_each_covariance():
    rng = np.random.default_rng(8)
    params = FilterParams()
    for _ in range(100):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 31))
        ts = _random_set(rng, n)
        z = rng.normal(scale=3.0, size=(m, 2))
        nu, s, det, d2 = innovations(ts, z, params)
        assert nu.shape == (n, m, 2) and d2.shape == (n, m)
        for j, t in enumerate(ts):
            s_ref = oracles.innovation_covariance(t, params)
            nus = z - oracles.predicted_measurement(t)
            np.testing.assert_array_equal(nu[j], nus)
            np.testing.assert_array_equal(s[j], s_ref)
            assert det[j] == pytest.approx(np.linalg.det(s_ref), rel=1e-12)
            ref = np.einsum("mi,im->m", nus, np.linalg.solve(s_ref, nus.T))
            np.testing.assert_allclose(d2[j], ref, rtol=1e-12, atol=1e-12)


def test_innovations_singular_covariance_names_the_track():
    # R is validated > 0, so a tiny R with P = 0 makes S singular.
    ts = make_set([make_track(0), make_track(1, cov=np.zeros((4, 4)))])
    params = FilterParams(r_diag=(1e-7, 1e-7))
    with pytest.raises(NumericalError, match="track 1: singular innovation covariance"):
        innovations(ts, np.zeros((1, 2)), params)
    # The update takes S from the same kernel: DeepDA reaches it without innovations.
    scan = Scan(k=0, measurements=np.zeros((1, 2)))
    with pytest.raises(NumericalError, match="track 1: singular innovation covariance"):
        update_weighted(ts, scan, AssocProbabilities(np.array([[0.5, 0.5], [0.5, 0.5]])), params)


def test_update_that_overflows_names_the_track_without_a_warning():
    # Track 1 gives half its weight to a point 1e200 m off; squared, its
    # innovation overflows. Track 0 takes only the near point.
    ts = make_set([make_track(0), make_track(1)])
    scan = Scan(k=0, measurements=np.array([[0.5, 0.0], [1e200, 0.0]]))
    rows = AssocProbabilities(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
    message = r"^track 1: updated state or covariance is not finite$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            update_weighted(ts, scan, rows, FilterParams())


def test_update_that_loses_psd_is_a_numerical_failure_naming_the_track():
    # Half of track 1's weight on a point 1e154 m off: every term stays
    # finite, but through the x-y correlation the rounding of the huge
    # spread term leaves the covariance indefinite.
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = 0.5
    ts = make_set([make_track(0), make_track(1, cov=cov)])
    scan = Scan(k=0, measurements=np.array([[0.5, 0.0], [1e154, 15.0]]))
    rows = AssocProbabilities(np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^track 1: updated covariance is not PSD$"):
            update_weighted(ts, scan, rows, FilterParams())


def test_far_measurement_gets_an_infinite_distance_without_a_warning():
    # Squared, 1e200 overflows; with both axes far and correlated axes, two
    # infinite terms cancel and d2 is NaN. Neither passes a gate.
    cov = np.eye(4)
    cov[0, 2] = cov[2, 0] = 0.5
    ts = make_set([make_track(0, cov=cov)])
    z = np.array([[1e200, 0.0], [1e200, 1e200], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d2 = innovations(ts, z, FilterParams())[3]
    assert d2[0, 0] == np.inf and np.isnan(d2[0, 1]) and not (d2[0, :2] <= 1e300).any()
    assert np.isfinite(d2[0, 2])


def test_track_set_iterates_its_rows_as_tracks():
    ts = make_set([make_track(0, state=(1.0, 2.0, 3.0, 4.0)), make_track(1)])
    rows = list(ts)
    assert [t.id for t in rows] == [0, 1] and len(ts) == 2
    assert isinstance(rows[0], Track)
    np.testing.assert_array_equal(rows[0].state, ts.x[0])
    np.testing.assert_array_equal(rows[1].covariance, ts.p[1])
