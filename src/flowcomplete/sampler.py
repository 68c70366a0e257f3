"""Inference: integrate the learned field from t=0 to t=1.

Fixed-step Euler integration of the guided velocity field, starting from
the tiled-and-jittered scan (`coupling.noisy_initial_cloud`). Guidance
blends the conditioned and unconditioned predictions; the EMA weights are
used by default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import ModelState, forward, hidden_buffers
from .geometry import TrackingNeighborIndex, as_cloud


@dataclass(frozen=True)
class SamplerConfig:
    """Euler step count, guidance strength, and weight selection."""
    steps: int = 10
    guidance_weight: float = 6.0
    use_ema: bool = True
    record_trajectory: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Integration states; full per-step history only when recorded.

    With recording on, times are (0, h, ..., 1) and states has steps + 1
    entries; with recording off only the two endpoints are kept.
    """
    times: tuple
    states: tuple

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def guided_field(state: ModelState, t: float, x_t, scan, w: float,
                 use_ema: bool = False, *, buffers=None) -> np.ndarray:
    """Guided velocity: unconditioned + w * (conditioned - unconditioned).

    Exactly two forward evaluations, which share the hidden-layer
    `buffers` when given (see `field.forward`). w = 1 returns the
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
                    field_fn=None) -> Trajectory:
    """Integrate X' = u(t, X) from the initial cloud over [0, 1].

    Left-endpoint Euler with step 1/steps; the point count never changes.
    `field_fn(t, X) -> (n, 3)` overrides the model's guided field, which
    lets tests drive the integrator with analytic fields.

    The model's field finds each point's nearest scan row for its condition
    features through one :class:`~.geometry.TrackingNeighborIndex` over the
    scan, built once: from the second step on, a point keeps its row
    without a tree query while a distance bound proves that row still
    nearest, which holds for most points of a step. The answers, and so the
    states, are bit-identical to querying a fresh index at every step. One
    set of hidden-layer buffers serves every forward.

    Raises:
        FloatingPointError: if the state leaves the finite range, naming
            the failing step.
    """
    x = as_cloud(x0).copy()
    if field_fn is None:
        condition = None if scan is None else TrackingNeighborIndex(scan)
        buffers = hidden_buffers(state.config, len(x))

        def field_fn(t, current):
            return guided_field(state, t, current, condition,
                                config.guidance_weight, use_ema=config.use_ema,
                                buffers=buffers)
    h = 1.0 / config.steps
    initial = x.copy()
    times, recorded = [0.0], [initial]
    for k in range(config.steps):
        t = k / config.steps
        x = x + h * field_fn(t, x)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state at integration step {k}")
        if config.record_trajectory:
            times.append((k + 1) / config.steps)
            recorded.append(x.copy())
    if not config.record_trajectory:
        times.append(1.0)
        recorded.append(x)
    return Trajectory(times=tuple(times), states=tuple(recorded))
