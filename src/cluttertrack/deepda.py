"""Learned data association: an LSTM that maps measurement offsets to
per-target association probability rows.

For every target, the input is the sequence of (predicted measurement -
measurement) offsets laid out in fixed slots, min-max normalized; unused
slots carry the pad sentinel (normalized value 1, the far corner). One
function, :func:`_slots`, lays the slots out and one, :func:`_normalise`,
turns them into features, for tracking and training alike. Training
encodes its set once, into one stack padded to the longest sequence, and
reads the norm stats and the detector scale off that stack.

The network runs once per target in track-set row order within a scan,
carrying hidden state across targets, and resets between scans. The output
row holds one probability per measurement slot plus a trailing miss
probability: each column has its own sigmoid, and the sigmoids of the valid
slots and the miss are normalised to sum to 1.

Everything here is plain numpy in float64: forward, exact backpropagation
through the target unrolling, and the RMSprop optimizer.

The forward pass steps through the targets for the recurrent product alone.
The input projection, its product with the LSTM input weights, the output
layer and the row normalisation each run once over every step of every
sequence. For a batch of several sequences each row has the bits of a
per-step product. A single sequence (tracking, batch 1) differs from
per-step products by about 1e-16, because numpy sums a one-row product in
another order. There is one step loop, :func:`_forward_core`: training
runs it on batches, and tracking (:func:`forward_scan`) on a batch of one.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .domain import (
    AssocProbabilities,
    CapacityError,
    ConfigError,
    ContractViolation,
    ModelFormatError,
    NumericalError,
    Scan,
    TrackSet,
    read_config,
)
from .scenario import ScanSequence, TrainingSet

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class NetConfig:
    """Architecture: slot count, hidden width and the seed of a training
    run, which draws the initial weights and the batch order (see
    :func:`train`).

    Measurements are 2-D (x, y), so each slot holds two input features.
    """

    m_max: int = 32
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m_max", 1), ("hidden", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ContractViolation(f"{name} must be >= {low}, got {getattr(self, name)}")

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
        if not (np.all(np.isfinite(mn)) and np.all(np.isfinite(mx))):
            raise ContractViolation("norm stats must be finite")
        if np.any(mx < mn):
            raise ContractViolation("norm stats need max >= min elementwise")
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)

    @cached_property
    def _scaling(self) -> Tuple[np.ndarray, np.ndarray]:
        """(divisor, flat columns) of :func:`_normalise`, built on first use;
        never written to. The divisor is max - min, 1 where they are equal,
        and the flat columns are the indices of those features."""
        span = self.max - self.min
        return np.where(span > 0, span, 1.0), np.flatnonzero(span == 0)


#: Learning-rate multiplier of everything but the output read. The detector
#: ramps of :func:`init_model_detectors` give the network body a huge
#: output-sensitivity (|x| can reach hundreds), so full-rate sign-normalized
#: updates there destroy the detectors within an epoch; the readout trains at
#: full rate while the body refines slowly.
_BODY_LR_SCALE = 1e-3
#: RMSprop decay of the squared-gradient average and its denominator guard.
_RHO = 0.9
_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """RMSprop learning rate ``lr`` and loop settings: ``batch`` counts scan
    sequences per step. The rest of the recipe is fixed, and the seed is
    :attr:`NetConfig.seed` (see :func:`train`).
    """

    lr: float = 1e-2
    batch: int = 32
    epochs: int = 60

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ContractViolation(f"lr must be finite and > 0, got {self.lr}")
        for name, low in (("batch", 1), ("epochs", 1)):
            if getattr(self, name) < low:
                raise ContractViolation(f"{name} must be >= {low}, got {getattr(self, name)}")


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
        for name, expected in param_shapes(self.cfg).items():
            arr = getattr(self, name)
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
        return {name: getattr(self, name) for name in param_shapes(self.cfg)}


def param_shapes(cfg: NetConfig) -> Dict[str, Tuple[int, ...]]:
    """Each parameter's shape, in the fixed initialization/serialization order."""
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


def _param_views(flat: np.ndarray, cfg: NetConfig) -> Dict[str, np.ndarray]:
    """Named reshape views of one flat vector that holds every parameter
    (or gradient, or RMSprop entry) in :func:`param_shapes` order."""
    views = {}
    start = 0
    for name, shape in param_shapes(cfg).items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


def _param_count(cfg: NetConfig) -> int:
    return sum(math.prod(shape) for shape in param_shapes(cfg).values())


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
    span = norm._scaling[0]
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


# ---------------------------------------------------------------------------
# Input construction
# ---------------------------------------------------------------------------


def _slots(pred_meas: np.ndarray, measurements: np.ndarray, m_max: int) -> np.ndarray:
    """Slot layout of a batch of targets against one scan.

    ``pred_meas`` is (T, 2); returns (T, 2 * m_max) with slot s holding the
    (prediction - measurement_s) offset in x and y, and NaN, the empty mark,
    in every slot past the scan's m measurements. Raises
    :class:`CapacityError` for more than m_max measurements.
    """
    preds = np.asarray(pred_meas, dtype=float).reshape(-1, 2)
    meas = np.asarray(measurements, dtype=float).reshape(-1, 2)
    m = meas.shape[0]
    if m > m_max:
        raise CapacityError(f"scan has {m} measurements, capacity is m_max={m_max}")
    slots = np.full((preds.shape[0], m_max, 2), np.nan)
    slots[:, :m] = preds[:, None, :] - meas[None, :, :]
    return slots.reshape(preds.shape[0], 2 * m_max)


def _normalise(x: np.ndarray, norm: NormStats) -> np.ndarray:
    """Slots (..., 2 * m_max) made features in place, and returned: each
    offset min-max normalized as (x - min) / (max - min), 0 where
    max == min, and each empty slot set to the sentinel value 1."""
    divisor, flat = norm._scaling
    empty = np.isnan(x)
    x -= norm.min
    x /= divisor
    if flat.size:
        x[..., flat] = 0.0
    x[empty] = 1.0
    return x


def build_features(
    pred_meas: np.ndarray, measurements: np.ndarray, cfg: NetConfig, norm: NormStats
) -> np.ndarray:
    """Normalized offset features (T, 2 * m_max) for a batch of targets
    against one scan: :func:`_slots` made features by :func:`_normalise`."""
    return _normalise(_slots(pred_meas, measurements, cfg.m_max), norm)


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
    and exp(x) on the second, and the numerator exp(min(x, 0)) is exactly 1
    on the first and exp(x) on the second, so each element sees the same
    IEEE operations. Neither exponent is positive, so exp never overflows;
    +-0.0 and +-inf map as in the branches and NaN gives NaN (its sign bit
    may differ). Both temporaries are updated in place.
    """
    e = np.copysign(x, -1.0)
    np.exp(e, out=e)
    y = np.minimum(x, 0.0)
    np.exp(y, out=y)
    e += 1.0
    y /= e
    return y


class _ForwardCache:
    __slots__ = ("x", "xp", "steps", "hs", "cs", "u", "s", "beta")

    def __init__(self, x, xp, steps, hs, cs, u, s, beta):
        self.x = x
        self.xp = xp
        self.steps = steps  # per step (gi, gf, gg, go, tanh(c))
        self.hs = hs  # (B, T, hidden) states after each step
        self.cs = cs  # (B, T, hidden) cells after each step
        self.u = u  # (B, T, m_max+1) masked sigmoids
        self.s = s  # (B, T, 1) their row sums
        self.beta = beta


def _forward_core(model: LstmModel, x: np.ndarray, mask: np.ndarray) -> _ForwardCache:
    """The forward pass over a batch of sequences (B, T, features) with
    output masks (B, m_max+1), for training and tracking alike; keeps what
    the backward pass reads.

    Only h @ lstm_wh.T depends on the previous step. The input projection,
    its product with lstm_wx, the output layer and the normalisation run
    once over all B*T rows; the loop keeps the recurrence alone. Step 0
    starts from the zero state, so it adds no h @ lstm_wh.T and no forget
    term gf * c_prev. ``ndarray.dot`` calls the BLAS routines ``@`` calls,
    with less overhead. Raises :class:`NumericalError` naming the first
    sequence with a non-finite output entry.
    """
    b, t, f = x.shape
    hdim = model.cfg.hidden
    xp = x.reshape(b * t, f).dot(model.w_in.T)
    xp += model.b_in
    zx = xp.dot(model.lstm_wx.T).reshape(b, t, 4 * hdim)
    xp = xp.reshape(b, t, hdim)

    wh_t, bias = model.lstm_wh.T, model.lstm_b
    hs = np.empty((b, t, hdim))
    cs = np.empty((b, t, hdim))
    steps = []
    for step in range(t):
        z = zx[:, step]
        if step:
            z += hs[:, step - 1].dot(wh_t)
        z += bias
        # One elementwise pass for i, f, o: same bits as per-gate calls; g unused.
        sig = _sigmoid(z)
        gi = sig[:, :hdim]
        gf = sig[:, hdim : 2 * hdim]
        gg = np.tanh(z[:, 2 * hdim : 3 * hdim])
        go = sig[:, 3 * hdim :]
        c = cs[:, step]
        if step:
            np.multiply(gf, cs[:, step - 1], out=c)
            c += gi * gg
        else:
            np.multiply(gi, gg, out=c)
        tc = np.tanh(c)
        np.multiply(go, tc, out=hs[:, step])
        steps.append((gi, gf, gg, go, tc))

    logits = hs.reshape(b * t, hdim).dot(model.w_out.T)
    logits += model.b_out
    u = _sigmoid(logits).reshape(b, t, -1)
    u *= mask[:, None, :]
    s = u.sum(axis=2, keepdims=True)
    beta = u / s
    if not np.isfinite(beta).all():
        bad = int(np.argwhere(~np.isfinite(beta))[0][0])
        raise NumericalError(f"non-finite activations in forward pass (sequence {bad})")
    return _ForwardCache(x, xp, steps, hs, cs, u, s, beta)


def _backward_core(model: LstmModel, cache: _ForwardCache, dbeta: np.ndarray) -> np.ndarray:
    # Gradients accumulate into named views of one flat vector, returned flat.
    cfg = model.cfg
    b, t, f = cache.x.shape
    hdim = cfg.hidden
    flat = np.zeros(_param_count(cfg))
    grads = _param_views(flat, cfg)
    dxp = np.zeros((b, t, hdim))
    dh_next = np.zeros((b, hdim))
    dc_next = np.zeros((b, hdim))
    zero = np.zeros((b, hdim))

    for step in range(t - 1, -1, -1):
        gi, gf, gg, go, tc = cache.steps[step]
        h_prev = cache.hs[:, step - 1] if step else zero
        c_prev = cache.cs[:, step - 1] if step else zero
        h_new = cache.hs[:, step]
        db = dbeta[:, step]
        u = cache.u[:, step]
        inner = (db * cache.beta[:, step]).sum(axis=1, keepdims=True)
        du = (db - inner) / cache.s[:, step]
        dlogits = du * u * (1.0 - u)
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
    return flat


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def forward_scan(
    model: LstmModel, tracks: TrackSet, scan: Scan
) -> Tuple[AssocProbabilities, Tuple[np.ndarray, np.ndarray]]:
    """Association probability rows for all tracks against one scan.

    The tracks are one sequence, run in row order through
    :func:`_forward_core` with hidden state carried between them and reset
    afterwards. Returns rows trimmed to M+1 columns together with the
    per-step (h, c) trace, each (tracks, hidden).
    """
    if not len(tracks):
        raise ContractViolation("forward_scan needs at least one track")
    cfg, m = model.cfg, scan.num_measurements
    x = build_features(tracks.positions, scan.measurements, cfg, model.norm)
    cache = _forward_core(model, x[None], output_mask(cfg, m)[None])
    beta = cache.beta[0]
    rows = np.concatenate([beta[:, :m], beta[:, -1:]], axis=1)
    return AssocProbabilities(rows), (cache.hs[0], cache.cs[0])


@dataclass(frozen=True)
class EncodedStack:
    """Scan sequences encoded for the network and stacked, each padded at
    its end to the longest length T: inputs, one-hot truth rows over m_max
    slots plus a trailing miss, output masks, and step masks that are False
    on padding steps. A padding step's input is all sentinel and its truth
    row all zero."""

    inputs: np.ndarray  # (N, T, features)
    truth: np.ndarray  # (N, T, m_max + 1)
    mask: np.ndarray  # (N, m_max + 1) bool
    steps: np.ndarray  # (N, T) bool

    def take(self, rows: np.ndarray) -> "EncodedStack":
        """The sequences at ``rows``, in that order."""
        return EncodedStack(self.inputs[rows], self.truth[rows], self.mask[rows], self.steps[rows])


def encode_groups(
    groups: Sequence[ScanSequence], cfg: NetConfig
) -> Tuple[EncodedStack, NormStats, np.ndarray]:
    """Every scan sequence encoded once, in the order of ``groups``, into
    one stack; returns it with the stats it is normalized by and the offset
    scale, both read off its slots before they are normalized.

    The stats are each feature's min and max over the filled slots (0 and 0
    for a slot no scan fills). The offset scale is the std in x and in y of
    the offset of each detected target's own measurement, (1, 1) when no
    target is detected. Raises :class:`CapacityError` for a scan of more
    than m_max measurements.
    """
    n, t_max = len(groups), max(len(g.labels) for g in groups)
    bounds = np.empty((2, cfg.features))  # before the stack, which it outlives (see train)
    inputs = np.full((n, t_max, cfg.features), np.nan)
    labels = np.full((n, t_max), -1)
    steps = np.zeros((n, t_max), dtype=bool)
    mask = np.empty((n, cfg.m_max + 1), dtype=bool)
    for row, g in enumerate(groups):
        t = len(g.labels)
        inputs[row, :t] = _slots(g.pred_meas, g.measurements, cfg.m_max)
        labels[row, :t] = g.labels
        steps[row, :t] = True
        mask[row] = output_mask(cfg, g.measurements.shape[0])

    seq, step = np.nonzero(labels >= 0)
    own = inputs.reshape(n, t_max, cfg.m_max, 2)[seq, step, labels[seq, step]]
    scale = np.std(own, axis=0) if len(own) else np.full(2, 1.0)
    flat = inputs.reshape(-1, cfg.features)
    low = np.fmin.reduce(flat, axis=0, out=bounds[0])
    high = np.fmax.reduce(flat, axis=0, out=bounds[1])
    never = np.isnan(low)
    low[never] = high[never] = 0.0
    norm = NormStats(low, high)

    truth = np.zeros((n, t_max, cfg.m_max + 1))
    truth[steps, np.where(labels >= 0, labels, cfg.m_max)[steps]] = 1.0
    return EncodedStack(_normalise(inputs, norm), truth, mask, steps), norm, scale


def _batch_loss_and_grads(model: LstmModel, batch: EncodedStack) -> Tuple[float, np.ndarray]:
    """Mean per-sequence loss over the batch and its exact gradients, flat in
    :func:`param_shapes` order (:func:`_param_views` names them), from one
    forward and one backward pass.

    A sequence's loss is the summed squared error between its output rows
    and its one-hot truth rows, over all m_max + 1 columns of its own
    steps: the error on a padding step is zeroed, so it adds neither loss
    nor gradient.
    """
    n = batch.inputs.shape[0]
    if not n:
        raise ContractViolation("batch must be non-empty")
    cache = _forward_core(model, batch.inputs, batch.mask)
    diff = cache.beta - batch.truth
    diff[~batch.steps] = 0.0
    return float(np.sum(diff * diff)) / n, _backward_core(model, cache, (2.0 / n) * diff)


def rmsprop_step(theta: np.ndarray, grads: np.ndarray, v: np.ndarray, rate: np.ndarray) -> None:
    """One RMSprop step on flat vectors, in place:
    v <- rho v + (1 - rho) g^2; theta <- theta - rate g / (sqrt(v) + eps),
    with rho ``_RHO``, eps ``_EPS`` and a learning rate per entry.

    Per-group rates must scale the step, because RMSprop is scale-invariant
    in the gradient itself.
    """
    if not theta.shape == grads.shape == v.shape == rate.shape:
        raise ContractViolation(
            f"rmsprop vectors differ in shape: theta {theta.shape}, grads {grads.shape}, "
            f"v {v.shape}, rate {rate.shape}"
        )
    v *= _RHO
    v += (1.0 - _RHO) * grads * grads
    theta -= rate * grads / (np.sqrt(v) + _EPS)


def _learning_rates(cfg: NetConfig, lr: float) -> np.ndarray:
    """Per-entry rate over the flat parameters: ``lr`` for the output read
    (``w_out``, ``b_out``), ``_BODY_LR_SCALE`` times it for the rest."""
    return np.concatenate([
        np.full(math.prod(shape), lr if name in ("w_out", "b_out") else lr * _BODY_LR_SCALE)
        for name, shape in param_shapes(cfg).items()
    ])


def train(
    dataset: TrainingSet, net_cfg: NetConfig, train_cfg: TrainConfig
) -> Tuple[LstmModel, List[float]]:
    """Fit the network on a training set; returns the model and loss curve.

    The scan sequences are encoded once, into one stack by
    :func:`encode_groups`, whose stats and offset scale start the model
    from :func:`init_model_detectors`. Each epoch visits the sequences in a
    seeded shuffled order in mini-batches; a batch takes its sequences from
    the stack in that order and takes one RMSprop step, the output read at
    ``train_cfg.lr`` and everything else at ``_BODY_LR_SCALE`` times it.
    Parameters, gradients and RMSprop state are each one flat vector; the
    model's arrays are views of the parameter vector, which the steps update
    in place. The loss curve holds the mean per-sequence loss of each epoch.
    One seed, ``net_cfg.seed``, which the model records, draws both the
    start and the shuffle, so a run is deterministic given the configs.
    """
    if len(dataset) == 0:
        raise ContractViolation("training set is empty")
    # The parameters and the norm stats outlive the stack, so they are
    # allocated before it: above it on the heap, they kept its freed memory
    # resident, and a process that trains, then tracks, peaked 5-8% higher.
    theta = np.empty(_param_count(net_cfg))
    stack, norm, offset_scale = encode_groups(dataset.groups, net_cfg)
    # Detector widths cover both the training offsets (pure measurement
    # noise: predictions come from exact truth) and the extra filter
    # prediction error present at inference.
    start_model = init_model_detectors(net_cfg, norm, 2.0 * offset_scale)
    np.concatenate([p.reshape(-1) for p in start_model.params().values()], out=theta)
    model = LstmModel(cfg=net_cfg, norm=norm, **_param_views(theta, net_cfg))
    v = np.zeros_like(theta)
    rates = _learning_rates(net_cfg, train_cfg.lr)

    n = len(dataset)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(net_cfg.seed)))
    curve: List[float] = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch):
            picked = order[start : start + train_cfg.batch]
            batch_loss, grads = _batch_loss_and_grads(model, stack.take(picked))
            if not np.isfinite(batch_loss):
                raise NumericalError(f"training diverged at epoch {epoch}")
            rmsprop_step(theta, grads, v, rates)
            epoch_loss += batch_loss * len(picked)
        curve.append(epoch_loss / n)
    # The steps wrote theta in place; a new model checks the final values.
    return LstmModel(cfg=net_cfg, norm=norm, **_param_views(theta, net_cfg)), curve


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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ModelFormatError("model file is not a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    try:
        cfg = read_config("net_config", doc["net_config"], NetConfig, required=True)
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
                    f"for {cfg}"
                )
            params[name] = arr.reshape(shape)
        return LstmModel(cfg=cfg, norm=norm, **params)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, ConfigError, ContractViolation, NumericalError) as e:
        raise ModelFormatError(f"corrupt model file {path}: {e}") from None
