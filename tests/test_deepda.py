import json

import numpy as np
import pytest

from cluttertrack.deepda import (
    EncodedScan,
    LstmModel,
    NetConfig,
    NormStats,
    TrainConfig,
    _ForwardCache,
    _backward_core,
    _batch_loss_and_grads,
    _forward_core,
    _sigmoid,
    build_features,
    encode_dataset,
    fit_norm_stats,
    forward_scan,
    identity_norm,
    init_model,
    load_model,
    output_mask,
    param_shapes,
    rmsprop_step,
    save_model,
    train,
)
from cluttertrack.domain import (
    AssocProbabilities,
    CapacityError,
    ContractViolation,
    ModelFormatError,
    Scan,
    ScenarioConfig,
)
from cluttertrack.scenario import make_training_set, seeded_variants

from conftest import make_set, make_track
from oracles import numeric_gradients, reference_forward, reference_sigmoid


def small_cfg(**kw):
    defaults = dict(m_max=3, hidden=4, seed=0)
    defaults.update(kw)
    return NetConfig(**defaults)


def random_batch(cfg, rng, groups=2, targets=2):
    batch = []
    for _ in range(groups):
        m = int(rng.integers(1, cfg.m_max + 1))
        inputs = rng.normal(size=(targets, cfg.features))
        truth = np.zeros((targets, cfg.m_max + 1))
        for t in range(targets):
            choice = int(rng.integers(0, m + 1))
            truth[t, cfg.m_max if choice == m else choice] = 1.0
        batch.append(EncodedScan(inputs, truth, output_mask(cfg, m)))
    return batch


# ---------------------------------------------------------------------------
# input construction (build_features, output_mask)
# ---------------------------------------------------------------------------


def test_build_input_subtraction_order():
    cfg = small_cfg(m_max=2)
    norm = identity_norm(cfg.features)
    zs = np.array([[5.0, 11.0], [6.0, 12.0]])
    features = build_features(np.array([[5.0, 11.0]]), zs, cfg, norm)
    assert np.allclose(features, [[0.0, 0.0, -1.0, -1.0]])
    assert output_mask(cfg, 2).tolist() == [True, True, True]


def test_build_input_empty_scan_is_all_sentinel():
    cfg = small_cfg(m_max=4)
    features = build_features(np.array([[1.0, 2.0]]), np.zeros((0, 2)), cfg, identity_norm(cfg.features))
    assert np.all(features == 1.0)
    assert output_mask(cfg, 0).tolist() == [False] * 4 + [True]  # only the miss


def test_build_input_min_max_normalization():
    cfg = small_cfg(m_max=2)
    norm = NormStats(np.full(4, -2.0), np.full(4, 2.0))
    zs = np.array([[5.0, 11.0], [6.0, 12.0]])
    features = build_features(np.array([[5.0, 11.0]]), zs, cfg, norm)
    assert np.allclose(features, [[0.5, 0.5, 0.25, 0.25]])


def test_build_input_capacity_error():
    cfg = small_cfg(m_max=1)
    with pytest.raises(CapacityError):
        build_features(np.zeros((1, 2)), np.zeros((2, 2)), cfg, identity_norm(cfg.features))


def test_norm_degenerate_feature_maps_to_zero():
    cfg = small_cfg(m_max=1)
    norm = NormStats(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
    out = build_features(np.array([[5.0, 1.0]]), np.zeros((1, 2)), cfg, norm)[0]
    assert out[0] == 0.0
    assert out[1] == 0.5


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def zero_model(cfg):
    params = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    return LstmModel(cfg=cfg, norm=identity_norm(cfg.features), **params)


def test_forward_zero_parameters_uniform_rows():
    cfg = small_cfg(m_max=3, hidden=4)
    model = zero_model(cfg)
    tracks = make_set([make_track(0), make_track(1)])
    scan = Scan(k=0, measurements=np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    probs, (hs, cs) = forward_scan(model, tracks, scan)
    assert probs.rows.shape == (2, 4)
    assert np.allclose(probs.rows, 0.25)
    assert np.allclose(hs, 0.0)
    assert np.allclose(cs, 0.0)


def test_forward_padding_columns_zero():
    cfg = small_cfg(m_max=4, hidden=3, seed=5)
    model = init_model(cfg, identity_norm(cfg.features))
    scan = Scan(k=0, measurements=np.array([[0.5, -0.5]]))
    probs, _ = forward_scan(model, make_set([make_track(0)]), scan)
    # trimmed to M + 1 columns; row still sums to 1
    assert probs.rows.shape == (1, 2)
    assert probs.rows.sum() == pytest.approx(1.0, abs=1e-12)
    # untrimmed core output has exact zeros on padding slots
    x = build_features(np.zeros((1, 2)), scan.measurements, cfg, model.norm)
    full = _forward_core(model, x[None], output_mask(cfg, 1)[None])
    assert np.all(full.beta[0, 0, 1:4] == 0.0)


def test_forward_scalar_lstm_hand_evaluation():
    # hidden=1, m_max=1: one LSTM cell evaluated by hand.
    cfg = small_cfg(m_max=1, hidden=1)
    w_in = np.array([[0.5, -0.25]])
    b_in = np.array([0.1])
    lstm_wx = np.array([[0.3], [-0.2], [0.7], [0.4]])
    lstm_wh = np.array([[0.11], [0.12], [0.13], [0.14]])
    lstm_b = np.array([0.01, 0.02, 0.03, 0.04])
    w_out = np.array([[1.5], [-0.5]])
    b_out = np.array([0.2, -0.1])
    model = LstmModel(
        cfg=cfg, norm=identity_norm(2), w_in=w_in, b_in=b_in,
        lstm_wx=lstm_wx, lstm_wh=lstm_wh, lstm_b=lstm_b, w_out=w_out, b_out=b_out,
    )
    scan = Scan(k=0, measurements=np.array([[2.0, 1.0]]))
    track = make_track(0, state=(1.0, 0.0, 3.0, 0.0))
    probs, (hs, cs) = forward_scan(model, make_set([track]), scan)

    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    s_feat = np.array([1.0 - 2.0, 3.0 - 1.0])  # prediction minus measurement
    x = w_in @ s_feat + b_in
    gi = sigmoid(lstm_wx[0, 0] * x[0] + lstm_b[0])
    gf = sigmoid(lstm_wx[1, 0] * x[0] + lstm_b[1])
    gg = np.tanh(lstm_wx[2, 0] * x[0] + lstm_b[2])
    go = sigmoid(lstm_wx[3, 0] * x[0] + lstm_b[3])
    c = gf * 0.0 + gi * gg
    h = go * np.tanh(c)
    assert cs[0, 0] == pytest.approx(c, abs=1e-12)
    assert hs[0, 0] == pytest.approx(h, abs=1e-12)
    logits = w_out[:, 0] * h + b_out
    u = sigmoid(logits)
    assert probs.rows[0] == pytest.approx(u / u.sum(), abs=1e-12)


def test_forward_softmax_variant_rows_sum_one():
    cfg = small_cfg(m_max=3, hidden=4, output="softmax", seed=2)
    model = init_model(cfg, identity_norm(cfg.features))
    scan = Scan(k=0, measurements=np.array([[1.0, 0.0], [0.0, 1.0]]))
    probs, _ = forward_scan(model, make_set([make_track(0), make_track(1)]), scan)
    assert np.allclose(probs.rows.sum(axis=1), 1.0)
    assert probs.rows.shape == (2, 3)


def test_forward_slot_permutation_equivariance():
    # A slot-symmetric model (identical per-slot weights, identical per-slot
    # norm stats) must permute its beta columns when the slots permute.
    m_max = 3
    cfg = small_cfg(m_max=m_max, hidden=m_max)
    norm = NormStats(np.tile([-4.0, -3.0], m_max), np.tile([4.0, 3.0], m_max))
    w_in = np.zeros((m_max, cfg.features))
    for u in range(m_max):  # unit u watches slot u with shared weights
        w_in[u, 2 * u : 2 * u + 2] = [0.8, -0.6]
    lstm_wx = np.zeros((4 * m_max, m_max))
    lstm_wx[np.arange(4 * m_max), np.tile(np.arange(m_max), 4)] = 0.9
    w_out = np.full((m_max + 1, m_max), 0.2)
    for i in range(m_max):
        w_out[i, i] = 1.4
    model = LstmModel(
        cfg=cfg,
        norm=norm,
        w_in=w_in,
        b_in=np.full(m_max, 0.05),
        lstm_wx=lstm_wx,
        lstm_wh=np.zeros((4 * m_max, m_max)),
        lstm_b=np.tile([0.1], 4 * m_max),
        w_out=w_out,
        b_out=np.concatenate([np.full(m_max, 0.01), [0.3]]),
    )
    zs = np.array([[0.5, 0.2], [-0.7, 0.4], [0.1, -0.9]])
    perm = [2, 0, 1]
    tracks = make_set([make_track(0)])
    p1, _ = forward_scan(model, tracks, Scan(k=0, measurements=zs))
    p2, _ = forward_scan(model, tracks, Scan(k=0, measurements=zs[perm]))
    assert not np.allclose(p1.rows[0, :m_max], p1.rows[0, 0])  # non-degenerate
    assert np.allclose(p1.rows[0, perm + [3]], p2.rows[0], atol=1e-12)


def test_configs_have_no_dimension_or_clip_field():
    # Measurements are 2-D by contract and nothing clips gradients.
    with pytest.raises(TypeError):
        NetConfig(d=2)
    with pytest.raises(TypeError):
        TrainConfig(clip=1.0)
    assert small_cfg(m_max=5).features == 10


def test_forward_requires_tracks():
    cfg = small_cfg()
    model = init_model(cfg, identity_norm(cfg.features))
    empty = make_set([])
    assert len(empty) == 0
    with pytest.raises(ContractViolation):
        forward_scan(model, empty, Scan(k=0, measurements=np.zeros((1, 2))))


def test_sigmoid_matches_two_branch_reference():
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.0, -36.0,
         709.8, -709.8, 745.2, -745.2, 1e3, -1e3]
    )
    rng = np.random.default_rng(11)
    cases = [specials] + [
        rng.normal(size=shape) * rng.choice([1.0, 30.0, 800.0], size=shape)
        for shape in [(1, 256), (32, 256), (32, 43)]
    ]
    with np.errstate(over="raise"):
        for x in cases:
            np.testing.assert_array_equal(_sigmoid(x), reference_sigmoid(x))


@pytest.mark.parametrize("output", ["sigmoid", "softmax"])
@pytest.mark.parametrize("b", [1, 32])
@pytest.mark.parametrize("t", [1, 5])
def test_forward_core_matches_per_gate_reference(output, b, t):
    cfg = small_cfg(m_max=6, hidden=8, seed=3, output=output)
    model = init_model(cfg, identity_norm(cfg.features))
    # wider weights: gate pre-activations of both signs, some saturated
    model = model.with_params({n: 3.0 * p for n, p in model.params().items()})
    rng = np.random.default_rng(10 * b + t)
    batch = []
    for seq in range(b):
        # sequence 0 always has padded slots; m = 0 leaves only the miss
        m = cfg.m_max // 2 if seq == 0 else int(rng.integers(0, cfg.m_max + 1))
        truth = np.zeros((t, cfg.m_max + 1))
        truth[np.arange(t), rng.choice(list(range(m)) + [cfg.m_max], size=t)] = 1.0
        inputs = rng.normal(scale=2.0, size=(t, cfg.features))
        batch.append(EncodedScan(inputs, truth, output_mask(cfg, m)))
    x = np.stack([e.inputs for e in batch])
    mask = np.stack([e.mask for e in batch])

    cache = _forward_core(model, x, mask)
    xp, steps, beta = reference_forward(model, x, mask)
    np.testing.assert_array_equal(cache.xp, xp)
    np.testing.assert_array_equal(cache.beta, beta)
    assert len(cache.steps) == len(steps) == t
    for got_step, ref_step in zip(cache.steps, steps):
        for got, ref in zip(got_step, ref_step):
            if ref is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, ref)

    diff = beta - np.stack([e.truth for e in batch])
    ref_grads = _backward_core(
        model, _ForwardCache(x, xp, mask, steps, beta), (2.0 / b) * diff
    )
    batch_loss, grads = _batch_loss_and_grads(model, batch)
    assert batch_loss == float(np.sum(diff * diff)) / b
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], ref_grads[name])


# ---------------------------------------------------------------------------
# loss (the value _batch_loss_and_grads returns and the loss curve reports)
# ---------------------------------------------------------------------------


def test_loss_examples():
    # Zero parameters give every valid column the same probability, so a
    # row over m measurements and the miss loses m / (m + 1) to a one-hot
    # truth; padded columns add nothing.
    cfg = small_cfg(m_max=3)
    model = zero_model(cfg)
    one_hot = np.zeros((2, cfg.m_max + 1))
    one_hot[0, 0] = one_hot[1, cfg.m_max] = 1.0
    inputs = np.zeros((2, cfg.features))
    one_meas = EncodedScan(inputs[:1], one_hot[:1], output_mask(cfg, 1))
    three_meas = EncodedScan(inputs, one_hot, output_mask(cfg, 3))
    assert _batch_loss_and_grads(model, [one_meas])[0] == 0.5
    assert _batch_loss_and_grads(model, [three_meas])[0] == 1.5
    assert _batch_loss_and_grads(model, [one_meas, three_meas])[0] == 1.0
    own_rows = np.tile(np.where(output_mask(cfg, 3), 0.25, 0.0), (2, 1))
    assert _batch_loss_and_grads(model, [EncodedScan(inputs, own_rows, output_mask(cfg, 3))])[0] == 0.0


def test_loss_matches_elementwise_recomputation():
    cfg = small_cfg(m_max=4, seed=3)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(3)
    # Sequences of different lengths take separate forward passes.
    batch = random_batch(cfg, rng, groups=3, targets=2) + random_batch(cfg, rng, groups=2, targets=3)
    got, _ = _batch_loss_and_grads(model, batch)
    expected = 0.0
    for enc in batch:
        rows = _forward_core(model, enc.inputs[None], enc.mask[None]).beta[0]
        expected += sum(
            (rows[t, j] - enc.truth[t, j]) ** 2
            for t in range(rows.shape[0])
            for j in range(cfg.m_max + 1)
        )
    assert got == pytest.approx(expected / len(batch), rel=1e-12)


# ---------------------------------------------------------------------------
# backward (the gradients of _batch_loss_and_grads)
# ---------------------------------------------------------------------------


def test_backward_zero_at_exact_truth():
    cfg = small_cfg(seed=4)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(0)
    batch = random_batch(cfg, rng)
    # replace truth by the model's own output: loss 0, exactly zero gradients
    stationary = []
    for enc in batch:
        cache = _forward_core(model, enc.inputs[None], enc.mask[None])
        stationary.append(EncodedScan(enc.inputs, cache.beta[0], enc.mask))
    _, grads = _batch_loss_and_grads(model, stationary)
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-6


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    for output in ("sigmoid", "softmax"):
        cfg = small_cfg(seed=6, output=output)
        model = init_model(cfg, identity_norm(cfg.features))
        batch = random_batch(cfg, rng)
        loss_fn = lambda: _batch_loss_and_grads(model, batch)[0]
        _, analytic = _batch_loss_and_grads(model, batch)
        numeric = numeric_gradients(loss_fn, model, step=1e-5)
        for name in analytic:
            a, n = analytic[name], numeric[name]
            rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
            assert rel.max() < 1e-4, f"{name}: {rel.max()}"


def test_backward_padded_output_weights_zero_grad():
    cfg = small_cfg(m_max=4, seed=2)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(2, cfg.features))
    truth = np.zeros((2, cfg.m_max + 1))
    truth[:, 0] = 1.0
    mask = output_mask(cfg, 1)  # slots 1..3 padded
    _, grads = _batch_loss_and_grads(model, [EncodedScan(inputs, truth, mask)])
    assert np.all(grads["w_out"][1:4, :] == 0.0)
    assert np.all(grads["b_out"][1:4] == 0.0)


# ---------------------------------------------------------------------------
# rmsprop
# ---------------------------------------------------------------------------


def test_rmsprop_zero_gradient_decays_state():
    cfg = small_cfg(seed=1)
    model = init_model(cfg, identity_norm(cfg.features))
    tc = TrainConfig(lr=0.01, rho=0.9)
    grads = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    state = {name: np.full(shape, 0.4) for name, shape in param_shapes(cfg).items()}
    out, new_state = rmsprop_step(model, grads, state, tc)
    for name in grads:
        assert np.allclose(getattr(out, name), getattr(model, name))
        assert np.allclose(new_state[name], 0.36)


def test_rmsprop_hand_values():
    cfg = small_cfg(seed=1)
    model = zero_model(cfg)
    tc = TrainConfig(lr=0.01, rho=0.9, eps=1e-8)
    grads = {name: np.ones(shape) for name, shape in param_shapes(cfg).items()}
    out, state = rmsprop_step(model, grads, None, tc)
    # v = 0.1, step = 0.01 / (sqrt(0.1) + 1e-8)
    expected = -0.01 / (np.sqrt(0.1) + 1e-8)
    assert getattr(out, "w_in")[0, 0] == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(-0.0316228, abs=1e-6)
    assert state["w_in"][0, 0] == pytest.approx(0.1)


def test_rmsprop_repeated_gradient_shrinks_steps():
    cfg = small_cfg(seed=1)
    model = zero_model(cfg)
    tc = TrainConfig(lr=0.01)
    grads = {name: np.ones(shape) for name, shape in param_shapes(cfg).items()}
    m1, state = rmsprop_step(model, grads, None, tc)
    step1 = abs(m1.w_in[0, 0] - model.w_in[0, 0])
    m2, _ = rmsprop_step(m1, grads, state, tc)
    step2 = abs(m2.w_in[0, 0] - m1.w_in[0, 0])
    assert step2 < step1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def one_group_dataset(seed=0):
    cfg = ScenarioConfig(
        num_targets=2,
        initial_states=((6.0, 1.0, 10.0, 0.0), (6.0, 1.0, 18.0, 0.0)),
        p_d=1.0,
        e_lambda=2.0,
        num_scans=2,
        seed=seed,
    )
    return make_training_set([cfg])


def test_train_memorizes_single_group():
    ds = one_group_dataset()
    assert len(ds) == 1
    net = NetConfig(m_max=ds.m_max, hidden=16, seed=0)
    model, curve = train(ds, net, TrainConfig(lr=0.03, epochs=200, batch=1, seed=0))
    assert curve[-1] < 0.01 * curve[0]


def test_train_deterministic():
    cfg = ScenarioConfig(
        num_targets=2,
        initial_states=((6.0, 1.0, 10.0, 0.0), (6.0, 1.0, 18.0, 0.0)),
        p_d=0.9,
        e_lambda=3.0,
        num_scans=6,
        seed=1,
    )
    ds = make_training_set(seeded_variants(cfg, 4))
    net = NetConfig(m_max=ds.m_max, hidden=8, seed=3)
    tc = TrainConfig(lr=0.01, epochs=8, batch=4, seed=5)
    m1, c1 = train(ds, net, tc)
    m2, c2 = train(ds, net, tc)
    assert c1 == c2
    for name, arr in m1.params().items():
        assert np.array_equal(arr, getattr(m2, name))


def test_train_curve_length_is_epochs():
    ds = one_group_dataset()
    net = NetConfig(m_max=ds.m_max, hidden=4, seed=0)
    _, curve = train(ds, net, TrainConfig(epochs=7, batch=1, seed=0))
    assert len(curve) == 7


def test_train_capacity_check():
    ds = one_group_dataset()
    net = NetConfig(m_max=1, hidden=4, seed=0)
    if ds.m_max > 1:
        with pytest.raises(CapacityError):
            train(ds, net, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cfg = small_cfg(seed=11)
    model = init_model(cfg, NormStats(np.full(cfg.features, -2.0), np.full(cfg.features, 2.0)))
    path = tmp_path / "model.json"
    save_model(model, path)
    restored = load_model(path)
    assert restored.cfg == model.cfg
    for name, arr in model.params().items():
        assert np.array_equal(arr, getattr(restored, name))
    scan = Scan(k=0, measurements=np.array([[0.4, -0.4], [1.0, 1.0]]))
    tracks = make_set([make_track(0), make_track(1)])
    a, _ = forward_scan(model, tracks, scan)
    b, _ = forward_scan(restored, tracks, scan)
    assert np.array_equal(a.rows, b.rows)


def test_load_rejects_wrong_version(tmp_path):
    cfg = small_cfg()
    model = init_model(cfg, identity_norm(cfg.features))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_inconsistent_m_max(tmp_path):
    cfg = small_cfg()
    model = init_model(cfg, identity_norm(cfg.features))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["net_config"]["m_max"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_accepts_files_that_record_d_2(tmp_path):
    # Files written before NetConfig lost its ``d`` field hold "d": 2.
    cfg = small_cfg(seed=7)
    model = init_model(cfg, NormStats(np.full(cfg.features, -2.0), np.full(cfg.features, 2.0)))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert "d" not in doc["net_config"]
    doc["net_config"] = {"d": 2, **doc["net_config"]}
    path.write_text(json.dumps(doc))
    restored = load_model(path)
    assert restored.cfg == cfg
    scan = Scan(k=0, measurements=np.array([[0.4, -0.4], [1.0, 1.0], [-1.5, 0.5]]))
    tracks = make_set([make_track(0), make_track(1, state=(1.0, 0.0, 1.0, 0.0))])
    assert np.array_equal(forward_scan(restored, tracks, scan)[0].rows, forward_scan(model, tracks, scan)[0].rows)

    # A file shaped for 1-D measurements has half the input width.
    f1 = cfg.m_max
    doc["net_config"]["d"] = 1
    doc["parameters"]["w_in"] = [0.0] * (cfg.hidden * f1)
    doc["norm_stats"] = {"min": [0.0] * f1, "max": [1.0] * f1}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="w_in"):
        load_model(path)


def test_load_rejects_truncated_file(tmp_path):
    cfg = small_cfg()
    model = init_model(cfg, identity_norm(cfg.features))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_missing_file():
    with pytest.raises(ModelFormatError):
        load_model("/nonexistent/model.json")
