"""Inference: integrate the learned field from t=0 to t=1.

Fixed-step Euler integration of the guided velocity field, starting from
the tiled-and-jittered scan (`coupling.noisy_initial_cloud`). Guidance
blends the conditioned and unconditioned predictions of the weights that
`use_ema` selects.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ModelState, forward
from .geometry import TrackingNeighborIndex, as_cloud


@dataclass(frozen=True)
class SamplerConfig:
    """Euler steps, guidance and weights (`RunConfig.sampler_config`); the
    states stream through `euler_integrate`'s `on_step`, none is kept."""
    steps: int
    guidance_weight: float
    use_ema: bool

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def guided_field(state: ModelState, t: float, x_t, scan, w: float, *,
                 use_ema: bool, buffers=None) -> np.ndarray:
    """Guided velocity: unconditioned + w * (conditioned - unconditioned).

    Exactly two forward evaluations, which share the layer `buffers`
    when given (see `field.forward`). w = 1 returns the
    conditioned prediction itself and w = 0 the unconditioned one,
    bit-for-bit.
    """
    u_cond = forward(state, t, x_t, scan, use_ema=use_ema, buffers=buffers)
    u_null = forward(state, t, x_t, None, use_ema=use_ema, buffers=buffers)
    if w == 1.0:
        return u_cond
    if w == 0.0:
        return u_null
    return u_null + w * (u_cond - u_null)


def euler_integrate(state: ModelState, x0, scan, config: SamplerConfig,
                    field_fn=None, on_step=None) -> np.ndarray:
    """Integrate X' = u(t, X) over [0, 1] from x0; returns the final cloud.

    Left-endpoint Euler with step 1/steps; the point count never changes.
    `field_fn(t, X) -> (n, 3)` overrides the model's guided field, which
    lets tests drive the integrator with analytic fields.

    `on_step(t, X)`, when given, sees each state as it is produced, at
    t = 0, 1/steps, ..., 1; the last is the returned array. No state is
    kept beyond the current one, nor written after `on_step` has seen it.

    The model's field finds each point's nearest scan row for its condition
    features through one :class:`~.geometry.TrackingNeighborIndex` over the
    scan, built once: from the second step on, a point keeps its row
    without a tree query while a distance bound proves that row still
    nearest, which holds for most points of a step. The answers, and so the
    states, are bit-identical to querying a fresh index at every step. One
    list of layer buffers serves every forward.

    Raises:
        FloatingPointError: if the field raises one, such as the network's
            overflow or a condition query's `DistanceOverflowError`, or the
            state leaves the finite range; it names the failing step, and
            `on_step` has then seen the states before it.
    """
    x = as_cloud(x0)
    if field_fn is None:
        condition = None if scan is None else TrackingNeighborIndex(scan)
        buffers = []

        def field_fn(t, current):
            return guided_field(state, t, current, condition,
                                config.guidance_weight, use_ema=config.use_ema,
                                buffers=buffers)
    if on_step is not None:
        on_step(0.0, x)
    h = 1.0 / config.steps
    for k in range(config.steps):
        try:
            u = field_fn(k / config.steps, x)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{exc} at integration step {k}") from exc
        x = x + h * u
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state at integration step {k}")
        if on_step is not None:
            on_step((k + 1) / config.steps, x)
    return x
