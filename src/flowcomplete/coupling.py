"""Couplings between the initial cloud and the completion target.

The initial cloud is the scan tiled several times with local Gaussian
jitter. Each initial point is paired with its nearest neighbor in the
target cloud, which yields a straight path and a constant per-point
velocity for the regression target. Also provides the time and
condition draws used when assembling training batches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (NeighborIndex, as_cloud, nearest_neighbor_map,
                       neighbor_index)


@dataclass(frozen=True)
class NoiseConfig:
    """Per-axis Gaussian jitter applied to the tiled scan.

    scale is the standard deviation in meters per axis; 0 disables the
    jitter entirely so the initial cloud equals the tiled scan.
    """
    scale: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("noise scale must be >= 0")


@dataclass(frozen=True)
class FlowSample:
    """One training sample of the interpolation path at time t.

    x_t is the interpolated cloud, v_target the per-point velocity the
    field should regress. x0/x1 are the path endpoints, kept so the
    chamfer term of the objective can be evaluated without recomputing
    the coupling; x1_index is the neighbor index over x1, which that term
    queries again. condition is the scan (a cloud or a NeighborIndex over
    one) or None when dropped.
    """
    t: float
    x_t: np.ndarray
    v_target: np.ndarray
    condition: np.ndarray | NeighborIndex | None
    x0: np.ndarray
    x1: np.ndarray
    x1_index: NeighborIndex


@dataclass(frozen=True)
class ConditionDraw:
    """Outcome of one Bernoulli condition draw.

    outcome is the caller's scan, as given, when kept, or None for the
    null token.
    """
    outcome: np.ndarray | NeighborIndex | None

    @property
    def is_null(self) -> bool:
        return self.outcome is None


def noisy_initial_cloud(scan, copies: int, noise: NoiseConfig) -> np.ndarray:
    """Tile the scan `copies` times and add independent Gaussian offsets.

    Deterministic given noise.seed; output has copies * len(scan) points,
    block by block: before the offsets, point i*n + j is scan point j.

    Raises:
        ValueError: on an empty scan.
    """
    pts = as_cloud(scan)
    if len(pts) == 0:
        raise ValueError("empty scan")
    tiled = np.tile(pts, (copies, 1))
    if noise.scale == 0:
        return tiled
    rng = np.random.default_rng(noise.seed)
    return tiled + rng.normal(scale=noise.scale, size=tiled.shape)


def straight_flow(x0, x1, t: float):
    """Point-level straight path: position t*x1 + (1-t)*x0, velocity x1 - x0.

    Works elementwise on arrays of matching shape.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    return t * x1 + (1.0 - t) * x0, x1 - x0


def nearest_neighbor_flow(x0, x1, t: float, condition=None) -> FlowSample:
    """Straight flow from each x0 point toward its nearest neighbor in x1.

    x1 is a cloud or a NeighborIndex over one. The correspondence is
    recomputed on every call, because x0 is re-jittered per training
    iteration; only the index over the fixed x1 can be built once and
    passed in. The velocity target is independent of t.
    """
    t = float(t)
    src = as_cloud(x0)
    index = neighbor_index(x1)
    if len(src) == 0:
        raise ValueError("empty initial cloud")
    tgt = np.asarray(index)
    matched = tgt[nearest_neighbor_map(src, index)]
    x_t, v = straight_flow(src, matched, t)
    return FlowSample(t=t, x_t=x_t, v_target=v, condition=condition, x0=src,
                      x1=tgt, x1_index=index)


def sample_time(rng: np.random.Generator) -> float:
    """One uniform draw on [0, 1] from the caller's stream."""
    return float(rng.uniform(0.0, 1.0))


def draw_condition(scan, p_null: float, rng: np.random.Generator) -> ConditionDraw:
    """Drop the scan condition with probability p_null, else keep it.

    A kept scan is passed on as given, so an index over it is not rebuilt.
    """
    keep = float(rng.uniform()) >= p_null
    return ConditionDraw(outcome=scan if keep else None)
