import json
from dataclasses import fields, replace

import numpy as np
import pytest

from cluttertrack.deepda import (
    EncodedStack,
    LstmModel,
    NetConfig,
    NormStats,
    TrainConfig,
    _ForwardCache,
    _batch_loss_and_grads,
    _forward_core,
    _learning_rates,
    _param_views,
    _sigmoid,
    build_features,
    encode_groups,
    forward_scan,
    init_model,
    init_model_detectors,
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
    five_crossing_targets,
)
from cluttertrack.scenario import ScanSequence, TrainingSet, make_training_set, seeded_variants

from conftest import identity_norm, make_set, make_track
from oracles import (
    features_of_group,
    norm_stats_by_groups,
    numeric_gradients,
    offset_scale_by_groups,
    reference_backward,
    reference_forward,
    reference_sigmoid,
    truth_rows_of_group,
)


def small_cfg(**kw):
    defaults = dict(m_max=3, hidden=4, seed=0)
    defaults.update(kw)
    return NetConfig(**defaults)


def random_batch(cfg, rng, groups=2, targets=2):
    """One stack of ``groups`` random sequences of ``targets`` steps."""
    inputs = rng.normal(size=(groups, targets, cfg.features))
    truth = np.zeros((groups, targets, cfg.m_max + 1))
    mask = np.empty((groups, cfg.m_max + 1), dtype=bool)
    for g in range(groups):
        m = int(rng.integers(1, cfg.m_max + 1))
        for t in range(targets):
            choice = int(rng.integers(0, m + 1))
            truth[g, t, cfg.m_max if choice == m else choice] = 1.0
        mask[g] = output_mask(cfg, m)
    return EncodedStack(inputs, truth, mask, np.ones((groups, targets), dtype=bool))


def sequences(stack):
    """Each sequence of a stack as a stack of one."""
    return [stack.take([i]) for i in range(stack.inputs.shape[0])]


def padded(*stacks):
    """Stacks of any lengths as one stack, in order, each sequence padded at
    its end to the longest length as encode_groups pads: sentinel inputs, an
    all-zero truth row, a False step mask."""
    t = max(s.inputs.shape[1] for s in stacks)

    def pad(a, fill):
        width = [(0, 0), (0, t - a.shape[1])] + [(0, 0)] * (a.ndim - 2)
        return np.pad(a, width, constant_values=fill)

    return EncodedStack(
        np.concatenate([pad(s.inputs, 1.0) for s in stacks]),
        np.concatenate([pad(s.truth, 0.0) for s in stacks]),
        np.concatenate([s.mask for s in stacks]),
        np.concatenate([pad(s.steps, False) for s in stacks]),
    )


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
    # Measurements are 2-D by contract, the output head is fixed, nothing
    # clips gradients, and training has one recipe: no init choice, body
    # rate or RMSprop decay and guard to set.
    assert [f.name for f in fields(TrainConfig)] == ["lr", "batch", "epochs", "seed"]
    for name, value in (("init", "uniform"), ("body_lr_scale", 0.5), ("rho", 0.9), ("eps", 1e-8)):
        with pytest.raises(TypeError):
            TrainConfig(**{name: value})
    with pytest.raises(TypeError):
        NetConfig(d=2)
    with pytest.raises(TypeError):
        NetConfig(output="sigmoid")
    with pytest.raises(TypeError):
        TrainConfig(clip=1.0)
    assert small_cfg(m_max=5).features == 10


@pytest.mark.parametrize(
    "cls,field,value,msg",
    [
        (NetConfig, "m_max", 0, "m_max must be >= 1, got 0"),
        (NetConfig, "hidden", 0, "hidden must be >= 1, got 0"),
        (NetConfig, "seed", -1, "seed must be >= 0, got -1"),
        (TrainConfig, "batch", 0, "batch must be >= 1, got 0"),
        (TrainConfig, "epochs", 0, "epochs must be >= 1, got 0"),
        (TrainConfig, "seed", -1, "seed must be >= 0, got -1"),
    ],
)
def test_config_range_error_names_the_one_field_at_fault(cls, field, value, msg):
    with pytest.raises(ContractViolation) as e:
        cls(**{field: value})
    assert str(e.value) == msg


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


def reference_cache(model, x, mask):
    """``reference_forward``'s per-step tensors laid out as deepda's forward cache."""
    xp, steps, beta = reference_forward(model, x, mask)

    gates = [(gi, gf, gg, go, tc) for _, _, gi, gf, gg, go, _, tc, _, _, _, _ in steps]

    def trace(field):
        return np.stack([step[field] for step in steps], axis=1)

    return _ForwardCache(x, xp, gates, trace(8), trace(6), trace(9), trace(10), beta)


def assert_same(got, ref, exact, atol=0.0):
    if exact:
        np.testing.assert_array_equal(got, ref)
    else:
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=atol)


def assert_cache_matches(got, ref, exact):
    np.testing.assert_array_equal(got.xp, ref.xp)
    for name in ("hs", "cs", "u", "s", "beta"):
        assert_same(getattr(got, name), getattr(ref, name), exact)
    assert len(got.steps) == len(ref.steps) == ref.x.shape[1]
    for got_step, ref_step in zip(got.steps, ref.steps):
        assert len(got_step) == len(ref_step) == 5
        for got_t, ref_t in zip(got_step, ref_step):
            assert_same(got_t, ref_t, exact)


# Case ids are t-b-head; the sigmoid head is the only one.
SEQUENCE_SIZES = [(1, 1), (1, 32), (5, 1), (5, 32)]


@pytest.mark.parametrize("t, b", SEQUENCE_SIZES, ids=[f"{t}-{b}-sigmoid" for t, b in SEQUENCE_SIZES])
def test_forward_core_matches_per_gate_reference(t, b):
    cfg = small_cfg(m_max=6, hidden=8, seed=3)
    model = init_model(cfg, identity_norm(cfg.features))
    # wider weights: gate pre-activations of both signs, some saturated
    model = replace(model, **{n: 3.0 * p for n, p in model.params().items()})
    rng = np.random.default_rng(10 * b + t)
    truth = np.zeros((b, t, cfg.m_max + 1))
    x = np.empty((b, t, cfg.features))
    mask = np.empty((b, cfg.m_max + 1), dtype=bool)
    for seq in range(b):
        # sequence 0 always has padded slots; m = 0 leaves only the miss
        m = cfg.m_max // 2 if seq == 0 else int(rng.integers(0, cfg.m_max + 1))
        truth[seq, np.arange(t), rng.choice(list(range(m)) + [cfg.m_max], size=t)] = 1.0
        x[seq] = rng.normal(scale=2.0, size=(t, cfg.features))
        mask[seq] = output_mask(cfg, m)

    # The core takes the input and output products over all B*T rows at
    # once. Each row of a matrix product has the same bits whatever the row
    # count, except that numpy takes a matrix-vector product for one row:
    # only a single sequence of several steps sums in another order.
    exact = b > 1 or t == 1
    cache = _forward_core(model, x, mask)
    ref = reference_cache(model, x, mask)
    assert_cache_matches(cache, ref, exact)

    diff = ref.beta - truth
    ref_grads = reference_backward(model, x, mask, (2.0 / b) * diff)
    steps = np.ones((b, t), dtype=bool)
    batch_loss, flat = _batch_loss_and_grads(model, EncodedStack(x, truth, mask, steps))
    grads = _param_views(flat, cfg)
    assert_same(batch_loss, float(np.sum(diff * diff)) / b, exact)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        # A gradient sums over steps, so an entry that nearly cancels keeps
        # the rounding of its largest terms: bound it by the array's scale.
        ref_grad = ref_grads[name]
        assert_same(grads[name], ref_grad, exact, atol=1e-13 * np.abs(ref_grad).max())


def benchmark_size_model_and_data():
    """The benchmark's network size (m_max 42, hidden 64) on five crossing
    targets at lambda 20, detector-initialized from the data as ``train``
    does, with a nonzero recurrent weight so the steps interact; returns the
    model, the training set and its encoded stack."""
    ds = make_training_set(seeded_variants(five_crossing_targets(seed=4242), 2))
    cfg = NetConfig(m_max=42, hidden=64)
    stack, norm, scale = encode_groups(ds.groups, cfg)
    model = init_model_detectors(cfg, norm, 2.0 * scale)
    model = replace(model, lstm_wh=init_model(cfg, norm).lstm_wh)
    return model, ds, stack


def test_forward_at_benchmark_size_matches_per_step_reference():
    model, ds, _ = benchmark_size_model_and_data()
    for group in ds.groups[:8]:
        tracks = make_set([make_track(j, (x, 0.0, y, 0.0)) for j, (x, y) in enumerate(group.pred_meas)])
        scan = Scan(k=0, measurements=group.measurements)
        probs, (hs, cs) = forward_scan(model, tracks, scan)
        feats = build_features(group.pred_meas, group.measurements, model.cfg, model.norm)
        ref = reference_cache(model, feats[None], output_mask(model.cfg, scan.num_measurements)[None])
        m = scan.num_measurements
        ref_rows = np.concatenate([ref.beta[0, :, :m], ref.beta[0, :, -1:]], axis=1)
        assert hs.shape == cs.shape == (5, 64)
        np.testing.assert_allclose(probs.rows, ref_rows, rtol=1e-13, atol=0)
        np.testing.assert_allclose(hs, ref.hs[0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(cs, ref.cs[0], rtol=1e-13, atol=0)


@pytest.fixture(scope="module")
def trained_benchmark_size_model():
    """The benchmark's network size (m_max 42, hidden 64) after a few
    training steps, which leave every weight dense, with the uniform
    recurrent weights of ``init_model`` so the steps interact."""
    ds = make_training_set(seeded_variants(five_crossing_targets(seed=4242), 2))
    model, _ = train(ds, NetConfig(m_max=42, hidden=64), TrainConfig(epochs=2))
    assert np.all(model.lstm_wx != 0.0)
    return replace(model, lstm_wh=init_model(model.cfg, model.norm).lstm_wh)


def with_flat_features(norm):
    """``norm`` with its first feature (slot 0's x offset) and its last
    (slot m_max - 1's y offset) given zero span."""
    low, high = norm.min.copy(), norm.max.copy()
    high[[0, -1]] = low[[0, -1]]
    return NormStats(low, high)


@pytest.mark.parametrize("norm_case", ["fitted", "flat"])
@pytest.mark.parametrize("m", [0, 1, 42], ids=["m0", "m1", "m_max"])
@pytest.mark.parametrize("n", [1, 4, 5, 8], ids=lambda n: f"{n}-tracks")
def test_forward_scan_rows_equal_the_forward_core_bits(trained_benchmark_size_model, n, m, norm_case):
    # forward_scan runs its own step loop, which keeps no training cache.
    # Its rows, states and cells must have the bits the training core gives
    # on the same features. A product's bits depend on its row count (one
    # row takes a matrix-vector product), so each track count is a case.
    model = trained_benchmark_size_model
    if norm_case == "flat":
        model = replace(model, norm=with_flat_features(model.norm))
    rng = np.random.default_rng(100 * n + m)
    centre = np.array([15.0, 15.0])
    positions = centre + rng.normal(scale=3.0, size=(n, 2))
    tracks = make_set([make_track(j, (x, 1.0, y, 0.0)) for j, (x, y) in enumerate(positions)])
    scan = Scan(k=0, measurements=centre + rng.normal(scale=4.0, size=(m, 2)))

    probs, (hs, cs) = forward_scan(model, tracks, scan)
    feats = build_features(tracks.positions, scan.measurements, model.cfg, model.norm)
    if norm_case == "flat" and m:
        assert np.all(feats[:, 0] == 0.0) and np.all(feats[:, -1] == (0.0 if m == 42 else 1.0))
    cache = _forward_core(model, feats[None], output_mask(model.cfg, m)[None])
    rows = np.concatenate([cache.beta[0, :, :m], cache.beta[0, :, -1:]], axis=1)
    for got, want in ((probs.rows, rows), (hs, cache.hs[0]), (cs, cache.cs[0])):
        assert got.shape == want.shape == (n, want.shape[1])
        assert got.tobytes() == want.tobytes()


def test_batch_gradients_at_benchmark_size_equal_reference_bits():
    # Training batches hold 32 sequences, where the hoisted products give
    # the per-step bits exactly; the benchmark's final loss relies on it.
    model, ds, stack = benchmark_size_model_and_data()
    batch = stack.take(np.arange(32))
    assert batch.inputs.shape == (32, 5, 84) and batch.steps.all()
    x, mask = batch.inputs, batch.mask
    ref = reference_cache(model, x, mask)
    diff = ref.beta - batch.truth
    ref_grads = reference_backward(model, x, mask, (2.0 / 32) * diff)
    batch_loss, flat = _batch_loss_and_grads(model, batch)
    grads = _param_views(flat, model.cfg)
    assert batch_loss == float(np.sum(diff * diff)) / 32
    for name in ref_grads:
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
    inputs = np.zeros((1, 2, cfg.features))
    steps = np.ones((1, 2), dtype=bool)
    one_meas = EncodedStack(inputs[:, :1], one_hot[None, :1], output_mask(cfg, 1)[None], steps[:, :1])
    three_meas = EncodedStack(inputs, one_hot[None], output_mask(cfg, 3)[None], steps)
    assert _batch_loss_and_grads(model, one_meas)[0] == 0.5
    assert _batch_loss_and_grads(model, three_meas)[0] == 1.5
    assert _batch_loss_and_grads(model, padded(one_meas, three_meas))[0] == 1.0
    own_rows = np.tile(np.where(output_mask(cfg, 3), 0.25, 0.0), (1, 2, 1))
    assert _batch_loss_and_grads(model, EncodedStack(inputs, own_rows, three_meas.mask, steps))[0] == 0.0


def test_loss_matches_elementwise_recomputation():
    cfg = small_cfg(m_max=4, seed=3)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(3)
    # Sequences of different lengths share one stack, padded to the longest.
    batch = [random_batch(cfg, rng, groups=3, targets=2), random_batch(cfg, rng, groups=2, targets=3)]
    got, _ = _batch_loss_and_grads(model, padded(*batch))
    expected = 0.0
    for enc in sequences(batch[0]) + sequences(batch[1]):
        rows = _forward_core(model, enc.inputs, enc.mask).beta[0]
        expected += sum(
            (rows[t, j] - enc.truth[0, t, j]) ** 2
            for t in range(rows.shape[0])
            for j in range(cfg.m_max + 1)
        )
    assert got == pytest.approx(expected / 5, rel=1e-12)


# ---------------------------------------------------------------------------
# backward (the gradients of _batch_loss_and_grads)
# ---------------------------------------------------------------------------


def test_backward_zero_at_exact_truth():
    cfg = small_cfg(seed=4)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(0)
    stack = random_batch(cfg, rng)
    # replace truth by the model's own output: loss 0, exactly zero gradients
    cache = _forward_core(model, stack.inputs, stack.mask)
    _, grads = _batch_loss_and_grads(model, replace(stack, truth=cache.beta))
    assert np.max(np.abs(grads)) < 1e-6


def test_backward_matches_finite_differences():
    cfg = small_cfg(seed=6)
    model = init_model(cfg, identity_norm(cfg.features))
    batch = random_batch(cfg, np.random.default_rng(1))
    loss_fn = lambda: _batch_loss_and_grads(model, batch)[0]
    analytic = _param_views(_batch_loss_and_grads(model, batch)[1], cfg)
    numeric = numeric_gradients(loss_fn, model, step=1e-5)
    for name in analytic:
        a, n = analytic[name], numeric[name]
        rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
        assert rel.max() < 1e-4, f"{name}: {rel.max()}"


def test_backward_padded_output_weights_zero_grad():
    cfg = small_cfg(m_max=4, seed=2)
    model = init_model(cfg, identity_norm(cfg.features))
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(1, 2, cfg.features))
    truth = np.zeros((1, 2, cfg.m_max + 1))
    truth[..., 0] = 1.0
    mask = output_mask(cfg, 1)[None]  # slots 1..3 padded
    steps = np.ones((1, 2), dtype=bool)
    _, flat = _batch_loss_and_grads(model, EncodedStack(inputs, truth, mask, steps))
    grads = _param_views(flat, cfg)
    assert np.all(grads["w_out"][1:4, :] == 0.0)
    assert np.all(grads["b_out"][1:4] == 0.0)


# ---------------------------------------------------------------------------
# rmsprop
# ---------------------------------------------------------------------------


def test_rmsprop_zero_gradient_decays_state():
    theta = np.linspace(-1.0, 1.0, 7)
    before = theta.copy()
    v = np.full(7, 0.4)
    rmsprop_step(theta, np.zeros(7), v, np.full(7, 0.01))
    assert np.array_equal(theta, before)
    assert np.allclose(v, 0.36)


def test_rmsprop_hand_values():
    theta, v = np.zeros(3), np.zeros(3)
    rmsprop_step(theta, np.ones(3), v, np.full(3, 0.01))
    # v = 0.1, step = 0.01 / (sqrt(0.1) + 1e-8)
    expected = -0.01 / (np.sqrt(0.1) + 1e-8)
    assert theta[0] == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(-0.0316228, abs=1e-6)
    assert v[0] == pytest.approx(0.1)


def test_rmsprop_repeated_gradient_shrinks_steps():
    theta, v, g, rate = np.zeros(3), np.zeros(3), np.ones(3), np.full(3, 0.01)
    rmsprop_step(theta, g, v, rate)
    step1 = abs(theta[0])
    before = theta[0]
    rmsprop_step(theta, g, v, rate)
    step2 = abs(theta[0] - before)
    assert step2 < step1


def test_rmsprop_step_has_the_bits_of_the_per_parameter_formula():
    # Each entry sees the IEEE operations of the per-name update it replaced.
    cfg = small_cfg(seed=2)
    rng = np.random.default_rng(4)
    count = sum(int(np.prod(s)) for s in param_shapes(cfg).values())
    theta, g, v0 = rng.normal(size=count), rng.normal(size=count), rng.uniform(0.0, 2.0, count)
    rates = _learning_rates(cfg, 0.03)
    theta_views, g_views, v_views = (_param_views(a.copy(), cfg) for a in (theta, g, v0))
    v = v0.copy()
    rmsprop_step(theta, g, v, rates)
    for name, p in theta_views.items():
        lr = 0.03 if name in ("w_out", "b_out") else 0.03 * 1e-3
        want_v = 0.9 * v_views[name] + (1.0 - 0.9) * g_views[name] * g_views[name]
        want_p = p - lr * g_views[name] / (np.sqrt(want_v) + 1e-8)
        np.testing.assert_array_equal(_param_views(v, cfg)[name], want_v)
        np.testing.assert_array_equal(_param_views(theta, cfg)[name], want_p)


def test_learning_rates_slow_the_body_only():
    cfg = small_cfg()
    rates = _param_views(_learning_rates(cfg, 0.01), cfg)
    assert list(rates) == list(param_shapes(cfg))
    for name, r in rates.items():
        assert np.all(r == (0.01 if name in ("w_out", "b_out") else 0.01 * 1e-3)), name


def test_rmsprop_refuses_vectors_of_different_shapes():
    with pytest.raises(ContractViolation, match="differ in shape"):
        rmsprop_step(np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(3))


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


def four_variant_dataset():
    cfg = ScenarioConfig(
        num_targets=2,
        initial_states=((6.0, 1.0, 10.0, 0.0), (6.0, 1.0, 18.0, 0.0)),
        p_d=0.9,
        e_lambda=3.0,
        num_scans=6,
        seed=1,
    )
    return make_training_set(seeded_variants(cfg, 4))


def test_train_deterministic():
    ds = four_variant_dataset()
    net = NetConfig(m_max=ds.m_max, hidden=8, seed=3)
    tc = TrainConfig(lr=0.01, epochs=8, batch=4, seed=5)
    m1, c1 = train(ds, net, tc)
    m2, c2 = train(ds, net, tc)
    assert c1 == c2
    for name, arr in m1.params().items():
        assert np.array_equal(arr, getattr(m2, name))


def test_train_default_recipe_loss_curve_is_pinned():
    # Recorded from the detector-bank start, body at 1e-3 of the rate and
    # RMSprop decay 0.9; rtol covers BLAS kernels that sum in another order.
    ds = four_variant_dataset()
    assert (len(ds), ds.m_max) == (20, 9)
    _, curve = train(ds, NetConfig(m_max=ds.m_max, hidden=8, seed=3), TrainConfig(epochs=4))
    expected = [1.5586703219408584, 1.5366242802949417, 1.5211522583654609, 1.5082974545448267]
    np.testing.assert_allclose(curve, expected, rtol=1e-9, atol=0.0)


def mixed_length_dataset_configs():
    """A two- and a three-target scenario."""
    two = ScenarioConfig(
        num_targets=2,
        initial_states=((6.0, 1.0, 10.0, 0.0), (6.0, 1.0, 18.0, 0.0)),
        p_d=0.9,
        e_lambda=3.0,
        num_scans=6,
        seed=1,
    )
    three = ScenarioConfig(
        num_targets=3,
        initial_states=((6.0, 1.0, 10.0, 0.2), (6.0, 1.0, 14.0, 0.0), (6.0, 1.0, 18.0, -0.2)),
        p_d=0.9,
        e_lambda=3.0,
        num_scans=6,
        seed=7,
    )
    return two, three


def mixed_length_dataset():
    # Two- and three-target scenarios: batches of 8 mix sequence lengths.
    two, three = mixed_length_dataset_configs()
    return make_training_set(seeded_variants(two, 2) + seeded_variants(three, 2))


def test_train_mixed_length_loss_curve_is_pinned():
    # Recorded when each batch still stacked its per-scan encodings by
    # length: the stacked training set must gather the same batches.
    ds = mixed_length_dataset()
    assert (len(ds), ds.m_max) == (20, 9)
    assert sorted(len(g.labels) for g in ds.groups) == [2] * 10 + [3] * 10
    net = NetConfig(m_max=ds.m_max, hidden=8, seed=3)
    _, curve = train(ds, net, TrainConfig(epochs=4, batch=8, seed=2))
    expected = [2.0344171097935657, 2.0016899088219686, 1.978824658675825, 1.9605341305371042]
    np.testing.assert_allclose(curve, expected, rtol=1e-9, atol=0.0)


def test_encode_groups_stacks_every_sequence_in_group_order():
    ds = mixed_length_dataset()
    cfg = NetConfig(m_max=ds.m_max)
    stack, norm, _ = encode_groups(ds.groups, cfg)
    assert stack.inputs.shape == (len(ds), 3, cfg.features)
    for row, g in enumerate(ds.groups):
        t = len(g.labels)
        np.testing.assert_array_equal(stack.inputs[row, :t], build_features(g.pred_meas, g.measurements, cfg, norm))
        np.testing.assert_array_equal(stack.mask[row], output_mask(cfg, g.measurements.shape[0]))
        hot = [label if label >= 0 else cfg.m_max for label in g.labels]
        assert stack.truth[row].sum() == t
        assert np.all(stack.truth[row][np.arange(t), hot] == 1.0)
        # A padding step is all sentinel, has no truth and is masked out.
        assert stack.steps[row].tolist() == [True] * t + [False] * (3 - t)
        assert np.all(stack.inputs[row, t:] == 1.0)
        assert not stack.truth[row, t:].any()


def hand_made_dataset():
    """Three groups of 2, 1 and 3 targets over scans of 2, 0 and 1
    measurements, at random offsets."""
    rng = np.random.default_rng(8)
    shapes = [(2, 2, (1, -1)), (1, 0, (-1,)), (3, 1, (-1, 0, -1))]
    groups = tuple(
        ScanSequence(rng.normal(size=(t, 2)) * 7.3, rng.normal(size=(m, 2)) * 3.1, labels)
        for t, m, labels in shapes
    )
    return TrainingSet(groups, m_max=2)


def no_detection_dataset():
    """Targets never detected: every label is the miss, so no offset exists
    to fit the detector scale on."""
    cfg = replace(mixed_length_dataset_configs()[0], p_d=1e-9)
    ds = make_training_set([cfg])
    assert all(label == -1 for g in ds.groups for label in g.labels)
    return ds


@pytest.mark.parametrize(
    "make, spare",
    [
        (lambda: mixed_length_dataset(), 0),
        (lambda: mixed_length_dataset(), 3),  # three slots no scan fills
        (hand_made_dataset, 1),
        (no_detection_dataset, 0),
    ],
    ids=["mixed-length", "never-filled-slots", "hand-made", "no-detection"],
)
def test_encode_groups_has_the_bits_of_the_per_group_loops(make, spare):
    ds = make()
    cfg = NetConfig(m_max=ds.m_max + spare)
    stack, norm, scale = encode_groups(ds.groups, cfg)
    low, high = norm_stats_by_groups(ds.groups, cfg.m_max)
    np.testing.assert_array_equal(norm.min, low)
    np.testing.assert_array_equal(norm.max, high)
    np.testing.assert_array_equal(scale, offset_scale_by_groups(ds.groups))
    if spare:
        assert np.all(norm.min[-2 * spare :] == 0.0) and np.all(norm.max[-2 * spare :] == 0.0)
    if not any(label >= 0 for g in ds.groups for label in g.labels):
        assert scale.tolist() == [1.0, 1.0]
    for row, g in enumerate(ds.groups):
        t = len(g.labels)
        want = features_of_group(g.pred_meas, g.measurements, cfg.m_max, low, high)
        np.testing.assert_array_equal(stack.inputs[row, :t], want)
        np.testing.assert_array_equal(stack.truth[row, :t], truth_rows_of_group(g.labels, cfg.m_max))


def test_padding_leaves_a_sequence_as_it_is_alone():
    # A 2-target sequence stacked with a 3-target one is padded by a step;
    # its rows, loss and gradient are those it has in a stack of its own.
    ds = mixed_length_dataset()
    two = next(g for g in ds.groups if len(g.labels) == 2)
    three = next(g for g in ds.groups if len(g.labels) == 3)
    cfg = NetConfig(m_max=ds.m_max, hidden=8, seed=3)
    stack, norm, _ = encode_groups([two, three], cfg)
    model = init_model(cfg, norm)
    model = replace(model, **{n: 3.0 * p for n, p in model.params().items()})
    assert stack.steps.tolist() == [[True, True, False], [True, True, True]]
    alone_two = EncodedStack(stack.inputs[:1, :2], stack.truth[:1, :2], stack.mask[:1], stack.steps[:1, :2])
    alone_three = stack.take([1])

    rows = _forward_core(model, stack.inputs, stack.mask).beta[0, :2]
    alone_rows = _forward_core(model, alone_two.inputs, alone_two.mask).beta[0]
    np.testing.assert_allclose(rows, alone_rows, rtol=0, atol=1e-12)
    loss_two, grads_two = _batch_loss_and_grads(model, alone_two)
    loss_padded, grads_padded = _batch_loss_and_grads(model, stack.take([0]))
    assert loss_padded == pytest.approx(loss_two, rel=0, abs=1e-12)
    np.testing.assert_allclose(grads_padded, grads_two, rtol=0, atol=1e-12)
    # The pair's loss and gradient are the mean of the two alone.
    loss_three, grads_three = _batch_loss_and_grads(model, alone_three)
    loss_pair, grads_pair = _batch_loss_and_grads(model, stack)
    assert loss_pair == pytest.approx((loss_two + loss_three) / 2, rel=0, abs=1e-12)
    np.testing.assert_allclose(grads_pair, (grads_two + grads_three) / 2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lr", [0.0, float("nan"), float("inf")])
def test_train_config_lr_must_be_finite_and_positive(lr):
    # An infinite rate trained into non-finite weights and exited 3, not 2.
    with pytest.raises(ContractViolation, match="lr must be finite and > 0"):
        TrainConfig(lr=lr)


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
    # Version 1 files recorded an output head, which may be "softmax".
    for version in (1, 99):
        doc["version"] = version
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


def test_load_refuses_a_version_2_file_naming_d(tmp_path):
    # NetConfig lost its ``d`` field before the format became version 2, so
    # no version-2 file records it; one that does is refused, 2 or not.
    cfg = small_cfg(seed=7)
    path = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2 and "d" not in doc["net_config"]
    doc["net_config"] = {"d": 2, **doc["net_config"]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="unknown fields \\['d'\\]"):
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


def test_load_rejects_malformed_net_config(tmp_path):
    cfg = small_cfg()
    path = tmp_path / "model.json"
    save_model(init_model(cfg, identity_norm(cfg.features)), path)
    doc = json.loads(path.read_text())
    doc["net_config"]["hidden"] = "x"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="corrupt model file .*: net_config.hidden: "):
        load_model(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", ["parameters", "norm_stats"])
def test_load_rejects_non_finite_values(tmp_path, where, value):
    cfg = small_cfg()
    model = init_model(cfg, identity_norm(cfg.features))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    if where == "parameters":
        doc["parameters"]["lstm_wh"][5] = value
    else:
        doc["norm_stats"]["max"][2] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="corrupt model file"):
        load_model(path)


def test_norm_stats_reject_non_finite_bounds():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractViolation, match="finite"):
            NormStats(np.array([0.0, bad]), np.array([1.0, 1.0]))
        with pytest.raises(ContractViolation, match="finite"):
            NormStats(np.array([0.0, 0.0]), np.array([1.0, bad]))


def test_load_missing_file():
    with pytest.raises(ModelFormatError):
        load_model("/nonexistent/model.json")
