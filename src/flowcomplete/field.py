"""Trainable per-point vector field with optimizer and checkpointing.

A small dense network maps [position, sinusoidal time embedding, scan
condition features] to a 3-D velocity per point, independently per point.
Parameters live in one flat float64 vector; gradients are hand-derived
and exercised against finite differences in the tests, so the package
needs no autodiff framework. Includes Adam, an EMA shadow of the weights
for inference, and a deterministic binary checkpoint format.
"""
from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass

import numpy as np

from .coupling import FlowSample, InitialDistribution
from .geometry import as_cloud, check_integer, nearest_neighbor_map
from .objective import LossReport, LossWeights, total_loss_grad

# Positions and offsets are in meters; squash them to O(1) features so the
# saturating activations keep useful slope over desk-scale coordinates.
COORD_SCALE = 0.2

# Geometric frequency sweep of the time embedding.
TIME_FREQ_MIN = 1.0
TIME_FREQ_MAX = 100.0

CHECKPOINT_MAGIC = b"FLOWCKPT"
CHECKPOINT_VERSION = 3
# The stored arrays, in file order; each holds parameter_count values.
_CHECKPOINT_ARRAYS = ("weights", "ema_weights")

# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_ACTIVATIONS = ("tanh", "relu")

# Most rows of a backward `delta @ w.T` block, so its scratch holds
# min(n, BACKWARD_BLOCK_ROWS) rows of the widest layer (1 MiB at width 128).
BACKWARD_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class FieldConfig:
    """Field network architecture and init (`RunConfig.field_config`)."""
    hidden_widths: tuple
    time_embed_dim: int
    activation: str
    seed: int
    # Zero output weights make the untrained field identically zero, so
    # inference from a fresh model is the identity flow. Gradient-check
    # fixtures disable this to get signal into the hidden layers.
    zero_init_output: bool = True

    def __post_init__(self):
        for width in self.hidden_widths:
            check_integer(hidden_widths=width)
        check_integer(time_embed_dim=self.time_embed_dim, seed=self.seed)
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        object.__setattr__(self, "time_embed_dim", int(self.time_embed_dim))
        object.__setattr__(self, "seed", int(self.seed))
        if not self.hidden_widths or any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.time_embed_dim % 2 != 0 or self.time_embed_dim < 2:
            raise ValueError("time embedding dimension must be even and >= 2")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def input_dim(self) -> int:
        # position, time embedding, condition features
        return 3 + self.time_embed_dim + 5

    @property
    def layer_dims(self) -> tuple:
        return (self.input_dim, *self.hidden_widths, 3)


@dataclass
class ModelState:
    """Flat trainable weights, their EMA shadow, and the step counter."""
    config: FieldConfig
    weights: np.ndarray
    ema_weights: np.ndarray
    step_count: int = 0


@dataclass
class OptimizerState:
    """Adam moment accumulators and the learning rate."""
    learning_rate: float
    m: np.ndarray
    v: np.ndarray


def _layer_shapes(config: FieldConfig):
    dims = config.layer_dims
    return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]


def parameter_count(config: FieldConfig) -> int:
    return sum(d_in * d_out + d_out for d_in, d_out in _layer_shapes(config))


def _unpack(flat: np.ndarray, config: FieldConfig):
    """Views of the flat vector as per-layer (W, b) pairs; no copies."""
    layers = []
    offset = 0
    for d_in, d_out in _layer_shapes(config):
        w = flat[offset:offset + d_in * d_out].reshape(d_in, d_out)
        offset += d_in * d_out
        b = flat[offset:offset + d_out]
        offset += d_out
        layers.append((w, b))
    return layers


def init_model(config: FieldConfig) -> ModelState:
    """Seeded initialization; hidden layers ~ N(0, 1/fan_in), zero biases."""
    rng = np.random.default_rng(config.seed)
    flat = np.zeros(parameter_count(config), dtype=np.float64)
    layers = _unpack(flat, config)
    for i, (w, b) in enumerate(layers):
        last = i == len(layers) - 1
        if last and config.zero_init_output:
            continue
        w[...] = rng.normal(scale=1.0 / np.sqrt(w.shape[0]), size=w.shape)
    return ModelState(config=config, weights=flat, ema_weights=flat.copy(), step_count=0)


def init_optimizer(state: ModelState, learning_rate: float) -> OptimizerState:
    """Zero Adam moments."""
    zeros = np.zeros_like(state.weights)
    return OptimizerState(learning_rate, m=zeros, v=zeros.copy())


def time_embedding(t: float, dim: int) -> np.ndarray:
    """Sinusoidal features [sin(w_j t), cos(w_j t)] over dim/2 frequencies.

    Frequencies sweep geometrically from TIME_FREQ_MIN to TIME_FREQ_MAX.
    Every model evaluation checks t here; FieldConfig keeps dim even.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must be in [0, 1], got {t}")
    half = dim // 2
    if half == 1:
        freqs = np.array([TIME_FREQ_MIN])
    else:
        ratio = TIME_FREQ_MAX / TIME_FREQ_MIN
        freqs = TIME_FREQ_MIN * ratio ** (np.arange(half) / (half - 1))
    angles = freqs * t
    return np.concatenate([np.sin(angles), np.cos(angles)])


def condition_feature_matrix(points: np.ndarray, condition) -> np.ndarray:
    """Per-point condition features (n, 5): offset to NN in scan, range, flag.

    With a scan present: the vector to the point's nearest scan neighbor,
    its length, and flag 1. Null condition: all zeros with flag 0.
    condition is None, a scan cloud, or a NeighborIndex over one.
    """
    n = len(points)
    if condition is None:
        return np.zeros((n, 5))
    nearest = as_cloud(condition)[nearest_neighbor_map(points, condition)]
    offset = nearest - points
    dist = np.linalg.norm(offset, axis=1, keepdims=True)
    return np.concatenate([offset, dist, np.ones((n, 1))], axis=1)


def _input_features(config: FieldConfig, t: float, x_t, condition) -> np.ndarray:
    pts = as_cloud(x_t)
    emb = time_embedding(t, config.time_embed_dim)
    feats = condition_feature_matrix(pts, condition)
    # metric columns share the coordinate squashing; the flag does not
    return np.concatenate([pts * COORD_SCALE,
                           np.broadcast_to(emb, (len(pts), emb.size)),
                           feats[:, :4] * COORD_SCALE, feats[:, 4:]], axis=1)


def _workspace(config: FieldConfig, n: int, buffers: list) -> list:
    """(n, width) views of the hidden layers' flat arrays in `buffers`.

    `buffers` holds one flat float64 array per hidden layer plus a scratch
    array of min(n, BACKWARD_BLOCK_ROWS) rows of the widest layer, which
    only the backward pass uses. Views are `flat[:n * width]`, so one list
    serves every n; it is refilled in place only when n points do not fit,
    or when it was shaped for other widths.
    """
    widths = config.hidden_widths
    sizes = [n * w for w in widths] + [min(n, BACKWARD_BLOCK_ROWS) * max(widths)]
    if (len(buffers) != len(sizes)
            or any(flat.size < size for flat, size in zip(buffers, sizes))):
        buffers[:] = [np.empty(size) for size in sizes]
    return [flat[:n * w].reshape(n, w) for flat, w in zip(buffers, widths)]


def _run_layers(layers, activation: str, feats: np.ndarray, hidden) -> np.ndarray:
    """The network on `feats`: hidden layers in place in `hidden`, fresh output.

    Afterwards hidden[i] holds hidden layer i's activations.
    """
    h = feats
    # finiteness is checked on the output; silence numpy's own warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for (w, b), buf in zip(layers[:-1], hidden, strict=True):
            np.matmul(h, w, out=buf)
            buf += b
            if activation == "tanh":
                np.tanh(buf, out=buf)
            else:
                np.maximum(buf, 0.0, out=buf)
            h = buf
        w_out, b_out = layers[-1]
        out = h @ w_out + b_out
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("numeric overflow in field")
    return out


def forward(state: ModelState, t: float, x_t, condition, *, use_ema: bool,
            buffers=None) -> np.ndarray:
    """Per-point velocity prediction u(t, x_t, condition), shape (n, 3).

    The hidden layers run in place in `buffers`, `loss_and_grad`'s list
    (see `_workspace`; None allocates one for this call), which the next
    call may overwrite. Training runs the same layer loop, so the result is
    bit-identical to the training forward, and it is always a fresh array.

    The pass is not split into row blocks: on the pinned OpenBLAS the
    output layer's (n, width) @ (width, 3) product rounds some rows
    differently when it is split, so the hidden arrays hold all n rows.
    """
    config = state.config
    feats = _input_features(config, t, x_t, condition)
    hidden = _workspace(config, len(feats), [] if buffers is None else buffers)
    layers = _unpack(state.ema_weights if use_ema else state.weights, config)
    return _run_layers(layers, config.activation, feats, hidden)


def loss_and_grad(state: ModelState, sample: FlowSample, weights: LossWeights,
                  *, buffers=None):
    """Blended loss on one sample plus its gradient wrt all parameters.

    The forward pass is `forward`'s layer loop. Both passes work in place
    in `buffers`, the list of flat layer arrays described in `_workspace`;
    the backward pass forms `delta @ w.T` one row block at a time in its
    scratch array. None allocates it for this call alone. The gradient is
    a fresh array.
    """
    config = state.config
    feats = _input_features(config, sample.t, sample.x_t, sample.condition)
    buffers = [] if buffers is None else buffers
    n = len(feats)
    activations = _workspace(config, n, buffers)
    layers = _unpack(state.weights, config)
    u_pred = _run_layers(layers, config.activation, feats, activations)
    report, delta = total_loss_grad(sample, u_pred, weights)
    grad = np.empty_like(state.weights)
    inputs = [feats, *activations]
    # Equal blocks, so none is small once n > BACKWARD_BLOCK_ROWS: a block of
    # a few rows takes OpenBLAS's small-matrix or gemv path, which rounds
    # differently from the unblocked product (see the README).
    blocks = -(-n // BACKWARD_BLOCK_ROWS)
    bounds = [n * k // blocks for k in range(blocks + 1)]
    for i, (gw, gb) in reversed(list(enumerate(_unpack(grad, config)))):
        np.matmul(inputs[i].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if i > 0:
            # gw was the last use of this layer's input: hold its slope now
            slope = activations[i - 1]
            if config.activation == "tanh":
                np.multiply(slope, slope, out=slope)
                np.subtract(1.0, slope, out=slope)
            else:
                # for finite inputs relu(z) > 0 exactly when z > 0
                np.greater(slope, 0.0, out=slope)
            # the next delta replaces the slope; an IEEE product is the same
            # in either operand order, so this is `delta @ w.T * slope`
            w_t = layers[i][0].T
            for lo, hi in zip(bounds, bounds[1:]):
                rows = slope[lo:hi]
                scratch = buffers[-1][:rows.size].reshape(rows.shape)
                np.multiply(np.matmul(delta[lo:hi], w_t, out=scratch), rows,
                            out=rows)
            delta = slope
    return report, grad


def apply_gradient(state: ModelState, opt: OptimizerState, grad: np.ndarray):
    """One Adam step. Returns updated model and optimizer states.

    Raises FloatingPointError on a non-finite gradient, or when the stepped
    weights or moments are not finite (the square of a finite 1e200
    gradient overflows `v`), leaving both states untouched.
    """
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient")
    step = state.step_count + 1
    # an overflow here is reported by the check below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        m = ADAM_BETA1 * opt.m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * opt.v + (1.0 - ADAM_BETA2) * grad ** 2
        m_hat = m / (1.0 - ADAM_BETA1 ** step)
        v_hat = v / (1.0 - ADAM_BETA2 ** step)
        new_weights = (state.weights
                       - opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    if not all(np.all(np.isfinite(a)) for a in (new_weights, m, v)):
        raise FloatingPointError("non-finite Adam step")
    new_state = dataclasses.replace(state, weights=new_weights, step_count=step)
    new_opt = dataclasses.replace(opt, m=m, v=v)
    return new_state, new_opt


def train_batch(state: ModelState, opt: OptimizerState, samples,
                weights: LossWeights, *, buffers=None):
    """Averaged loss and gradient over a list of samples, one Adam step.

    `buffers` is `loss_and_grad`'s list of flat layer arrays; a caller
    that passes the same list to every batch keeps one set for the run,
    sized for its largest sample. None allocates them for every sample.
    """
    if not samples:
        raise ValueError("empty batch")
    total_grad = np.zeros_like(state.weights)
    reports = []
    for sample in samples:
        report, grad = loss_and_grad(state, sample, weights, buffers=buffers)
        total_grad += grad
        reports.append(report)
    total_grad /= len(samples)
    new_state, new_opt = apply_gradient(state, opt, total_grad)
    mean = LossReport(
        flow=float(np.mean([r.flow for r in reports])),
        chamfer=float(np.mean([r.chamfer for r in reports])),
        total=float(np.mean([r.total for r in reports])),
    )
    return new_state, new_opt, mean


def ema_update(state: ModelState, decay: float) -> ModelState:
    """Shadow update ema <- decay * ema + (1 - decay) * weights."""
    ema = decay * state.ema_weights + (1.0 - decay) * state.weights
    return dataclasses.replace(state, ema_weights=ema)


def _header_bytes(config: FieldConfig, init: InitialDistribution,
                  step_count: int) -> bytes:
    """Canonical JSON of the network config, the initial distribution the
    field was trained from, and the step count.

    `save_checkpoint` writes these bytes and `load_checkpoint` accepts no
    others, so any change here bumps CHECKPOINT_VERSION. Raises ValueError
    on a negative step count.
    """
    step_count = int(step_count)
    if step_count < 0:
        raise ValueError(f"step count must be >= 0, got {step_count}")
    header = {"config": dataclasses.asdict(config),
              **dataclasses.asdict(init), "step_count": step_count}
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def _check_finite(arrays) -> None:
    """Raise ValueError naming the first of `_CHECKPOINT_ARRAYS` (given in
    that order) that holds a NaN or an infinity; save and load share it."""
    for name, arr in zip(_CHECKPOINT_ARRAYS, arrays):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"array {name!r} holds a value that is not finite")


def save_checkpoint(path, state: ModelState, init: InitialDistribution) -> None:
    """Write a deterministic binary checkpoint (same inputs, same bytes).

    `init` is the initial distribution the field was trained from, which a
    completion must draw its own x0 from.
    Layout: magic, `<IQ` version and header length, the `_header_bytes`
    JSON header, then the little-endian float64 arrays `_CHECKPOINT_ARRAYS`
    in order, each of `parameter_count(config)` values. Out-of-range
    header values and non-finite arrays raise ValueError before the file
    is opened.
    """
    blob = _header_bytes(state.config, init, state.step_count)
    arrays = (state.weights, state.ema_weights)
    _check_finite(arrays)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelState, InitialDistribution).

    Weight arrays round-trip bit-exactly, and a loaded checkpoint re-saves
    to the same bytes.

    Raises:
        ValueError: naming the file and the reason, on a bad magic or
            version, a truncated or malformed header, a header that
            `_header_bytes` would not write (unknown, missing or repeated
            keys, other spacing or number forms, out-of-range values),
            truncated arrays, bytes after the last array, or an array
            that holds a NaN or an infinity.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    def fail(reason: str) -> ValueError:
        return ValueError(f"{path}: {reason}")

    offset = len(CHECKPOINT_MAGIC)
    if raw[:offset] != CHECKPOINT_MAGIC:
        raise fail(f"not a checkpoint file: bad magic {raw[:offset]!r}")
    if len(raw) < offset + 12:
        raise fail("truncated checkpoint: version and header length")
    version, header_len = struct.unpack_from("<IQ", raw, offset)
    if version != CHECKPOINT_VERSION:
        raise fail(f"unsupported checkpoint version {version}")
    offset += 12
    if len(raw) < offset + header_len:
        raise fail("truncated checkpoint: header")
    blob = raw[offset:offset + header_len]
    offset += header_len
    try:
        header = json.loads(blob)
        config = FieldConfig(**header["config"])
        init = InitialDistribution(header["copies"], header["noise_scale"])
        step_count = header["step_count"]
        canonical = _header_bytes(config, init, step_count)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise fail(f"malformed checkpoint header: {exc!r}") from exc
    if blob != canonical:
        raise fail("checkpoint header differs from the one save_checkpoint "
                   "writes for its values")

    count = parameter_count(config)
    arrays = []
    for name in _CHECKPOINT_ARRAYS:
        if len(raw) < offset + 8 * count:
            raise fail(f"truncated checkpoint: array {name!r}")
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count,
                                    offset=offset).astype(np.float64))
        offset += 8 * count
    if len(raw) != offset:
        raise fail(f"{len(raw) - offset} trailing bytes after the last array "
                   f"of {count} values")
    try:
        _check_finite(arrays)
    except ValueError as exc:
        raise fail(str(exc)) from None
    weights, ema_weights = arrays
    return ModelState(config, weights, ema_weights, step_count), init
