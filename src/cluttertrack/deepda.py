"""Learned data association: an LSTM that maps measurement offsets to
per-target association probability rows.

For every target, the input is the sequence of (predicted measurement -
measurement) offsets laid out in fixed slots, min-max normalized; unused
slots carry the pad sentinel (normalized value 1, the far corner). The
network runs once per target in track-set row order within a scan,
carrying hidden state across targets, and resets between scans. The output
row holds one probability per measurement slot plus a trailing miss
probability.

Everything here is plain numpy in float64: forward, exact backpropagation
through the target unrolling, and the RMSprop optimizer.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .domain import (
    AssocProbabilities,
    CapacityError,
    ContractViolation,
    ModelFormatError,
    NumericalError,
    Scan,
    TrackSet,
)
from .scenario import ScanSequence, TrainingSet

MODEL_FORMAT_VERSION = 1

_OUTPUTS = ("sigmoid", "softmax")


@dataclass(frozen=True)
class NetConfig:
    """Architecture: slot count, hidden width, initialization seed and the
    output layer ("sigmoid" or "softmax").

    Measurements are 2-D (x, y), so each slot holds two input features.
    """

    m_max: int = 32
    hidden: int = 64
    seed: int = 0
    output: str = "sigmoid"

    def __post_init__(self):
        if self.m_max < 1 or self.hidden < 1:
            raise ContractViolation(
                f"m_max, hidden must be >= 1, got {self.m_max}/{self.hidden}"
            )
        if self.output not in _OUTPUTS:
            raise ContractViolation(f"output must be one of {_OUTPUTS}, got {self.output!r}")

    @property
    def features(self) -> int:
        return 2 * self.m_max


@dataclass(frozen=True)
class NormStats:
    """Per-feature min-max ranges fitted on the training inputs."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        mn = np.asarray(self.min, dtype=float).reshape(-1)
        mx = np.asarray(self.max, dtype=float).reshape(-1)
        if mn.shape != mx.shape:
            raise ContractViolation(f"min/max shapes differ: {mn.shape} vs {mx.shape}")
        if np.any(mx < mn):
            raise ContractViolation("norm stats need max >= min elementwise")
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)


def identity_norm(features: int) -> NormStats:
    """Stats that leave features unchanged ((x - 0) / (1 - 0))."""
    return NormStats(np.zeros(features), np.ones(features))


_INITS = ("detector", "uniform")


@dataclass(frozen=True)
class TrainConfig:
    """RMSprop settings (``lr``, ``rho``, ``eps``) and loop settings.
    ``batch`` counts scan sequences per step; ``seed`` drives the shuffle.

    ``init`` selects the parameter initialization: "uniform" is plain
    seeded uniform(-1/sqrt(hidden), 1/sqrt(hidden)); "detector" (default)
    additionally shapes the input projection into a bank of sharp per-slot
    offset detectors scaled from the training data, without which the tiny
    informative band left by min-max normalization is unlearnable in any
    practical number of epochs.

    ``body_lr_scale`` multiplies the learning rate of everything except the
    output read. The detector ramps give the network body a huge
    output-sensitivity (|x| can reach hundreds), so full-rate sign-normalized
    updates there destroy the detectors within an epoch; the readout trains
    at full rate while the body refines slowly.
    """

    lr: float = 1e-2
    rho: float = 0.9
    eps: float = 1e-8
    batch: int = 32
    epochs: int = 60
    seed: int = 0
    init: str = "detector"
    body_lr_scale: float = 1e-3

    def __post_init__(self):
        if not self.lr > 0:
            raise ContractViolation(f"lr must be > 0, got {self.lr}")
        if not (0.0 < self.rho < 1.0):
            raise ContractViolation(f"rho must be in (0, 1), got {self.rho}")
        if not self.eps > 0:
            raise ContractViolation(f"eps must be > 0, got {self.eps}")
        if self.batch < 1 or self.epochs < 1:
            raise ContractViolation(
                f"batch and epochs must be >= 1, got {self.batch}/{self.epochs}"
            )
        if self.init not in _INITS:
            raise ContractViolation(f"init must be one of {_INITS}, got {self.init!r}")
        if self.body_lr_scale < 0:
            raise ContractViolation(
                f"body_lr_scale must be >= 0, got {self.body_lr_scale}"
            )


#: Parameter names in their fixed initialization/serialization order.
PARAM_NAMES = ("w_in", "b_in", "lstm_wx", "lstm_wh", "lstm_b", "w_out", "b_out")


@dataclass(frozen=True)
class LstmModel:
    """All learnable parameters plus normalization stats and sizes.

    Gate blocks in ``lstm_wx``/``lstm_wh``/``lstm_b`` are stacked in the
    order input, forget, cell, output.
    """

    cfg: NetConfig
    w_in: np.ndarray
    b_in: np.ndarray
    lstm_wx: np.ndarray
    lstm_wh: np.ndarray
    lstm_b: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    norm: NormStats

    def __post_init__(self):
        for name, arr in self.params().items():
            expected = param_shapes(self.cfg)[name]
            if arr.shape != expected:
                raise ContractViolation(f"{name} has shape {arr.shape}, expected {expected}")
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"{name} contains non-finite values")
        if self.norm.min.shape != (self.cfg.features,):
            raise ContractViolation(
                f"norm stats cover {self.norm.min.shape[0]} features, "
                f"expected {self.cfg.features}"
            )

    def params(self) -> Dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def with_params(self, params: Dict[str, np.ndarray]) -> "LstmModel":
        return replace(self, **params)


def param_shapes(cfg: NetConfig) -> Dict[str, Tuple[int, ...]]:
    f, h, k = cfg.features, cfg.hidden, cfg.m_max + 1
    return {
        "w_in": (h, f),
        "b_in": (h,),
        "lstm_wx": (4 * h, h),
        "lstm_wh": (4 * h, h),
        "lstm_b": (4 * h,),
        "w_out": (k, h),
        "b_out": (k,),
    }


def init_model(cfg: NetConfig, norm: NormStats) -> LstmModel:
    """Seeded uniform(-1/sqrt(hidden), 1/sqrt(hidden)) initialization."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    bound = 1.0 / np.sqrt(cfg.hidden)
    params = {
        name: rng.uniform(-bound, bound, size=shape)
        for name, shape in param_shapes(cfg).items()
    }
    return LstmModel(cfg=cfg, norm=norm, **params)


def init_model_detectors(
    cfg: NetConfig, norm: NormStats, offset_scale: np.ndarray
) -> LstmModel:
    """Detector-bank initialization scaled from the training data.

    ``offset_scale`` holds the standard deviation (in metres) of the
    prediction-to-own-measurement offset in x and in y. Each hidden unit
    becomes a sharp ramp on one input feature, centred near the zero-offset
    point with a jittered threshold, and each LSTM gate initially reads its
    own unit so the ramp passes through the gate nonlinearity as a bounded
    detector.
    The remaining parameters keep the plain uniform initialization.
    """
    model = init_model(cfg, norm)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, 1))))
    f_count, h = cfg.features, cfg.hidden
    span = np.where(norm.max > norm.min, norm.max - norm.min, 1.0)
    centers = (0.0 - norm.min) / span  # normalized coordinate of zero offset
    sigma = np.maximum(np.tile(np.asarray(offset_scale, dtype=float), cfg.m_max), 1e-6) / span

    w_in = np.zeros((h, f_count))
    b_in = np.zeros(h)
    kappa = np.empty(h)
    for u in range(h):
        f = u % f_count
        bank = u // f_count
        slope = rng.uniform(0.9, 1.1) * 2.0 / sigma[f]
        if bank == 0:  # wide bump centred on zero offset
            jitter, kappa[u] = 0.0, rng.uniform(0.4, 0.6)
        elif bank == 1:  # narrower bump centred on zero offset
            jitter, kappa[u] = 0.0, rng.uniform(0.7, 0.9)
        else:  # diversity bank: jittered thresholds, mixed widths
            jitter = rng.uniform(-1.0, 1.0) * sigma[f]
            kappa[u] = rng.uniform(0.4, 1.0)
        w_in[u, f] = slope
        b_in[u] = -slope * (centers[f] + jitter)

    # Matched-filter gate wiring per unit: the input gate rises where the
    # cell gate falls, so i*g forms a bounded bump around the zero-offset
    # ramp crossing; the forget gate starts closed and the output gate open.
    # Cross-unit wiring stays small and is learned.
    lstm_wx = np.zeros((4 * h, h))
    units = np.arange(h)
    lstm_wx[units, units] = kappa  # input gate: +kappa * x
    lstm_wx[2 * h + units, units] = -kappa  # cell gate: -kappa * x
    lstm_b = model.lstm_b.copy()
    lstm_b[:h] += 2.0  # input gate bias
    lstm_b[h : 2 * h] += -2.0  # forget gate starts closed
    lstm_b[2 * h : 3 * h] += 2.0  # cell gate bias
    lstm_b[3 * h :] += 2.0  # output gate starts open

    # Slot-aligned output read at modest gain: each slot's logit starts by
    # summing its own detectors, so the first epochs already rank candidates
    # and gradients never collapse into the uniform-row fixed point. The
    # recurrent mixing starts at zero; untrained random recurrence would only
    # inject cross-target noise into the gates.
    w_out = model.w_out.copy()
    for u in range(h):
        slot = (u % f_count) // 2
        w_out[slot, u] += 0.25
    return replace(
        model,
        w_in=w_in,
        b_in=b_in,
        lstm_wx=lstm_wx,
        lstm_wh=np.zeros((4 * h, h)),
        lstm_b=lstm_b,
        w_out=w_out,
    )


def offset_scale_from_dataset(dataset: TrainingSet) -> np.ndarray:
    """Std in x and in y of the prediction offset of labeled own measurements."""
    diffs = []
    for g in dataset.groups:
        for t, label in enumerate(g.labels):
            if label >= 0:
                diffs.append(g.pred_meas[t] - g.measurements[label])
    if not diffs:
        return np.full(2, 1.0)
    return np.asarray(np.std(np.array(diffs), axis=0))


# ---------------------------------------------------------------------------
# Input construction
# ---------------------------------------------------------------------------


def build_features(
    pred_meas: np.ndarray, measurements: np.ndarray, cfg: NetConfig, norm: NormStats
) -> np.ndarray:
    """Normalized offset features for a batch of targets against one scan.

    ``pred_meas`` is (T, 2); returns (T, 2 * m_max) with slot s holding the
    (prediction - measurement_s) offset min-max normalized as (x - min) /
    (max - min), 0 where max == min, and padded slots set to the sentinel
    value 1. Raises :class:`CapacityError` for more than m_max measurements.
    """
    preds = np.asarray(pred_meas, dtype=float).reshape(-1, 2)
    meas = np.asarray(measurements, dtype=float).reshape(-1, 2)
    m = meas.shape[0]
    if m > cfg.m_max:
        raise CapacityError(f"scan has {m} measurements, capacity is m_max={cfg.m_max}")
    t = preds.shape[0]
    out = np.ones((t, cfg.features))
    if m:
        raw = (preds[:, None, :] - meas[None, :, :]).reshape(t, m * 2)
        width = m * 2
        span = norm.max[:width] - norm.min[:width]
        safe = np.where(span > 0, span, 1.0)
        out[:, :width] = np.where(span > 0, (raw - norm.min[:width]) / safe, 0.0)
    return out


def output_mask(cfg: NetConfig, num_measurements: int) -> np.ndarray:
    """Validity over the m_max+1 output columns (miss always valid)."""
    mask = np.zeros(cfg.m_max + 1, dtype=bool)
    mask[:num_measurements] = True
    mask[cfg.m_max] = True
    return mask


# ---------------------------------------------------------------------------
# Forward / backward core. Sequences are batched as (B, T, features) with a
# per-sequence output mask (B, m_max+1); all sequences in a batch share T.
# ---------------------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, elementwise, without overflow.

    Bit for bit the two-branch form 1/(1 + exp(-x)) for x >= 0 and
    exp(x)/(1 + exp(x)) for x < 0: exp(-|x|) is exp(-x) on the first branch
    and exp(x) on the second, and the numerator 1 or e is picked before the
    one division, so each element sees the same IEEE operations. -|x| <= 0,
    so exp never overflows; NaN, +-0.0 and +-inf map as in the branches.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class _ForwardCache:
    __slots__ = ("x", "xp", "mask", "steps", "beta")

    def __init__(self, x, xp, mask, steps, beta):
        self.x = x
        self.xp = xp
        self.mask = mask
        self.steps = steps
        self.beta = beta


def _forward_core(model: LstmModel, x: np.ndarray, mask: np.ndarray) -> _ForwardCache:
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
        # One elementwise pass for i, f, o: same bits as per-gate calls; g unused.
        sig = _sigmoid(z)
        gi = sig[:, :hdim]
        gf = sig[:, hdim : 2 * hdim]
        gg = np.tanh(z[:, 2 * hdim : 3 * hdim])
        go = sig[:, 3 * hdim :]
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        h_new = go * tc
        logits = h_new @ model.w_out.T + model.b_out
        if cfg.output == "sigmoid":
            u = _sigmoid(logits) * maskf
            s = u.sum(axis=1, keepdims=True)
            row = u / s
            steps.append((h, c, gi, gf, gg, go, c_new, tc, h_new, u, s, row))
        else:
            shifted = np.where(mask, logits, -np.inf)
            shifted = shifted - shifted.max(axis=1, keepdims=True)
            e = np.exp(shifted) * maskf
            row = e / e.sum(axis=1, keepdims=True)
            steps.append((h, c, gi, gf, gg, go, c_new, tc, h_new, None, None, row))
        beta[:, step] = row
        h, c = h_new, c_new
    if not np.all(np.isfinite(beta)):
        bad = int(np.argwhere(~np.isfinite(beta))[0][0])
        raise NumericalError(f"non-finite activations in forward pass (sequence {bad})")
    return _ForwardCache(x, xp, mask, steps, beta)


def _backward_core(model: LstmModel, cache: _ForwardCache, dbeta: np.ndarray) -> Dict[str, np.ndarray]:
    cfg = model.cfg
    b, t, f = cache.x.shape
    hdim = cfg.hidden
    grads = {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}
    dxp = np.zeros((b, t, hdim))
    dh_next = np.zeros((b, hdim))
    dc_next = np.zeros((b, hdim))

    for step in range(t - 1, -1, -1):
        h_prev, c_prev, gi, gf, gg, go, c_new, tc, h_new, u, s, row = cache.steps[step]
        db = dbeta[:, step]
        if cfg.output == "sigmoid":
            inner = (db * row).sum(axis=1, keepdims=True)
            du = (db - inner) / s
            dlogits = du * u * (1.0 - u)
        else:
            inner = (db * row).sum(axis=1, keepdims=True)
            dlogits = row * (db - inner)
        grads["w_out"] += dlogits.T @ h_new
        grads["b_out"] += dlogits.sum(axis=0)
        dh = dlogits @ model.w_out + dh_next

        dc = dh * go * (1.0 - tc * tc) + dc_next
        do = dh * tc
        di = dc * gg
        dg = dc * gi
        df = dc * c_prev
        dc_next = dc * gf
        dz = np.concatenate(
            [
                di * gi * (1.0 - gi),
                df * gf * (1.0 - gf),
                dg * (1.0 - gg * gg),
                do * go * (1.0 - go),
            ],
            axis=1,
        )
        grads["lstm_wx"] += dz.T @ cache.xp[:, step]
        grads["lstm_wh"] += dz.T @ h_prev
        grads["lstm_b"] += dz.sum(axis=0)
        dxp[:, step] = dz @ model.lstm_wx
        dh_next = dz @ model.lstm_wh

    flat_dxp = dxp.reshape(b * t, hdim)
    grads["w_in"] += flat_dxp.T @ cache.x.reshape(b * t, f)
    grads["b_in"] += flat_dxp.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def forward_scan(
    model: LstmModel, tracks: TrackSet, scan: Scan
) -> Tuple[AssocProbabilities, Tuple[np.ndarray, np.ndarray]]:
    """Association probability rows for all tracks against one scan.

    Tracks are processed in row order with hidden state carried between
    them and reset afterwards. Returns rows trimmed to M+1 columns together
    with the per-step (h, c) trace.
    """
    if not len(tracks):
        raise ContractViolation("forward_scan needs at least one track")
    cfg = model.cfg
    feats = build_features(tracks.positions, scan.measurements, cfg, model.norm)
    mask = output_mask(cfg, scan.num_measurements)
    cache = _forward_core(model, feats[None, :, :], mask[None, :])
    m = scan.num_measurements
    rows = np.concatenate([cache.beta[0, :, :m], cache.beta[0, :, -1:]], axis=1)
    hs = np.stack([step[8][0] for step in cache.steps])
    cs = np.stack([step[6][0] for step in cache.steps])
    return AssocProbabilities(rows), (hs, cs)


@dataclass(frozen=True)
class EncodedScan:
    """One scan sequence encoded for the network: inputs, truth rows, mask."""

    inputs: np.ndarray  # (T, features)
    truth: np.ndarray  # (T, m_max + 1)
    mask: np.ndarray  # (m_max + 1,) bool


def encode_group(group: ScanSequence, cfg: NetConfig, norm: NormStats) -> EncodedScan:
    """Network inputs and one-hot truth rows over m_max slots plus a trailing
    miss for one scan sequence."""
    feats = build_features(group.pred_meas, group.measurements, cfg, norm)
    t = len(group.labels)
    truth = np.zeros((t, cfg.m_max + 1))
    for idx, label in enumerate(group.labels):
        truth[idx, label if label >= 0 else cfg.m_max] = 1.0
    return EncodedScan(feats, truth, output_mask(cfg, group.measurements.shape[0]))


def encode_dataset(dataset: TrainingSet, cfg: NetConfig, norm: NormStats) -> List[EncodedScan]:
    if dataset.m_max > cfg.m_max:
        raise CapacityError(
            f"dataset needs m_max >= {dataset.m_max}, network has {cfg.m_max}"
        )
    return [encode_group(g, cfg, norm) for g in dataset.groups]


def fit_norm_stats(dataset: TrainingSet, cfg: NetConfig) -> NormStats:
    """Per-feature min/max over all valid (unpadded) training inputs."""
    if dataset.m_max > cfg.m_max:
        raise CapacityError(
            f"dataset needs m_max >= {dataset.m_max}, network has {cfg.m_max}"
        )
    slot_min = np.full((cfg.m_max, 2), np.inf)
    slot_max = np.full((cfg.m_max, 2), -np.inf)
    for g in dataset.groups:
        m = g.measurements.shape[0]
        if m == 0:
            continue
        diffs = g.pred_meas[:, None, :] - g.measurements[None, :, :]
        slot_min[:m] = np.minimum(slot_min[:m], diffs.min(axis=0))
        slot_max[:m] = np.maximum(slot_max[:m], diffs.max(axis=0))
    never = ~np.isfinite(slot_min)
    slot_min[never] = 0.0
    slot_max[never] = 0.0
    return NormStats(slot_min.reshape(-1), slot_max.reshape(-1))


def _batch_loss_and_grads(
    model: LstmModel, batch: Sequence[EncodedScan]
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Mean per-sequence loss over the batch and its exact gradients.

    A sequence's loss is the summed squared error between its output rows
    and its one-hot truth rows, over all m_max + 1 columns.
    """
    if not batch:
        raise ContractViolation("batch must be non-empty")
    total = len(batch)
    grads = {name: np.zeros(shape) for name, shape in param_shapes(model.cfg).items()}
    loss_sum = 0.0
    by_t: Dict[int, List[EncodedScan]] = {}
    for enc in batch:
        by_t.setdefault(enc.inputs.shape[0], []).append(enc)
    for t in sorted(by_t):
        encs = by_t[t]
        x = np.stack([e.inputs for e in encs])
        truth = np.stack([e.truth for e in encs])
        mask = np.stack([e.mask for e in encs])
        cache = _forward_core(model, x, mask)
        diff = cache.beta - truth
        loss_sum += float(np.sum(diff * diff))
        sub = _backward_core(model, cache, (2.0 / total) * diff)
        for name in grads:
            grads[name] += sub[name]
    return loss_sum / total, grads


def rmsprop_step(
    model: LstmModel,
    grads: Dict[str, np.ndarray],
    state: Optional[Dict[str, np.ndarray]],
    cfg: TrainConfig,
    lr_scales: Optional[Dict[str, float]] = None,
) -> Tuple[LstmModel, Dict[str, np.ndarray]]:
    """v <- rho v + (1 - rho) g^2; theta <- theta - lr g / (sqrt(v) + eps).

    ``lr_scales`` optionally multiplies the learning rate per parameter name
    (RMSprop is scale-invariant in the gradient itself, so per-group rates
    must scale the step).
    """
    params = model.params()
    if set(grads) != set(params):
        raise ContractViolation(f"gradient names {sorted(grads)} != parameter names")
    if state is None:
        state = {name: np.zeros_like(p) for name, p in params.items()}
    new_state = {}
    new_params = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractViolation(f"{name}: gradient shape {g.shape} != {p.shape}")
        v = cfg.rho * state[name] + (1.0 - cfg.rho) * g * g
        new_state[name] = v
        lr = cfg.lr * (lr_scales.get(name, 1.0) if lr_scales else 1.0)
        new_params[name] = p - lr * g / (np.sqrt(v) + cfg.eps)
    return model.with_params(new_params), new_state


def train(
    dataset: TrainingSet, net_cfg: NetConfig, train_cfg: TrainConfig
) -> Tuple[LstmModel, List[float]]:
    """Fit the network on a training set; returns the model and loss curve.

    Normalization stats come from the training inputs; parameters start as
    ``train_cfg.init`` selects (see :class:`TrainConfig`); each epoch visits
    all scan sequences in a seeded shuffled order in mini-batches. The loss
    curve holds the mean per-sequence loss of each epoch. Deterministic
    given the config seeds.
    """
    if len(dataset) == 0:
        raise ContractViolation("training set is empty")
    norm = fit_norm_stats(dataset, net_cfg)
    lr_scales = None
    if train_cfg.init == "detector":
        # Detector widths cover both the training offsets (pure measurement
        # noise: predictions come from exact truth) and the extra filter
        # prediction error present at inference.
        scale = 2.0 * offset_scale_from_dataset(dataset)
        model = init_model_detectors(net_cfg, norm, scale)
        lr_scales = {
            name: train_cfg.body_lr_scale
            for name in PARAM_NAMES
            if name not in ("w_out", "b_out")
        }
    else:
        model = init_model(net_cfg, norm)
    encoded = encode_dataset(dataset, net_cfg, norm)
    n = len(encoded)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(train_cfg.seed)))
    state: Optional[Dict[str, np.ndarray]] = None
    curve: List[float] = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch):
            batch = [encoded[i] for i in order[start : start + train_cfg.batch]]
            batch_loss, grads = _batch_loss_and_grads(model, batch)
            if not np.isfinite(batch_loss):
                raise NumericalError(f"training diverged at epoch {epoch}")
            model, state = rmsprop_step(model, grads, state, train_cfg, lr_scales)
            epoch_loss += batch_loss * len(batch)
        curve.append(epoch_loss / n)
    return model, curve


# ---------------------------------------------------------------------------
# Persistence: a versioned JSON document with named flat parameter arrays in
# row-major order. Floats survive the round trip exactly.
# ---------------------------------------------------------------------------


def save_model(model: LstmModel, path) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "net_config": asdict(model.cfg),
        "norm_stats": {"min": model.norm.min.tolist(), "max": model.norm.max.tolist()},
        "parameters": {name: arr.reshape(-1).tolist() for name, arr in model.params().items()},
    }
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path) -> LstmModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    try:
        nc = doc["net_config"]
        cfg = NetConfig(
            m_max=int(nc["m_max"]),
            hidden=int(nc["hidden"]),
            seed=int(nc["seed"]),
            output=str(nc["output"]),
        )
        norm = NormStats(
            np.asarray(doc["norm_stats"]["min"], dtype=float),
            np.asarray(doc["norm_stats"]["max"], dtype=float),
        )
        raw = doc["parameters"]
        params = {}
        for name, shape in param_shapes(cfg).items():
            arr = np.asarray(raw[name], dtype=float)
            if arr.size != int(np.prod(shape)):
                raise ModelFormatError(
                    f"{name} has {arr.size} values, expected {int(np.prod(shape))} "
                    f"for net_config {nc}"
                )
            params[name] = arr.reshape(shape)
        return LstmModel(cfg=cfg, norm=norm, **params)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, ContractViolation) as e:
        raise ModelFormatError(f"corrupt model file {path}: {e}") from None
