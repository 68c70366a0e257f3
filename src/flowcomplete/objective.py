"""Training losses: velocity regression, chamfer matching, and their blend.

The velocity term regresses the predicted field against the per-point
coupling targets; the chamfer term pushes the displaced initial cloud
toward the target as a set. Each loss comes with a hand-derived gradient
with respect to the prediction so the field module can backpropagate
without an autodiff framework.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import FlowSample
from .geometry import (as_cloud, check_finite, nearest_neighbor_map,
                       neighbor_index)


@dataclass(frozen=True)
class LossWeights:
    """Chamfer term weight (`RunConfig.loss_weights`); the velocity's is 1."""
    chamfer: float

    def __post_init__(self):
        if not self.chamfer >= 0:  # NaN fails too
            raise ValueError("chamfer weight must be >= 0")
        check_finite(chamfer=self.chamfer)


@dataclass(frozen=True)
class LossReport:
    flow: float
    chamfer: float
    total: float


def flow_matching_loss_grad(u_pred, v_target) -> tuple[float, np.ndarray]:
    """Velocity regression loss and its gradient with respect to u_pred.

    The loss is the mean squared norm of the per-point residual.
    """
    u = np.asarray(u_pred, dtype=np.float64)
    v = np.asarray(v_target, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if len(u) == 0:
        raise ValueError("empty prediction")
    diff = u - v
    value = float(np.einsum("ij,ij->", diff, diff) / len(u))
    return value, 2.0 * diff / len(u)


def chamfer_loss_grad(x0, u_pred, x1) -> tuple[float, np.ndarray]:
    """Chamfer matching loss and its gradient with respect to u_pred.

    The predicted displacement is applied to the initial cloud x0 — the
    full remaining travel, regardless of the time the field was sampled
    at. The loss is the symmetric squared nearest-neighbor sum divided by
    |x0| + |x1|, which keeps its magnitude comparable across cloud sizes.

    The min over neighbors is handled by the standard subgradient at the
    argmin pair; exact ties resolve to the lowest index, consistent with
    the geometry module. x1 may be a NeighborIndex: moved→x1 queries its
    tree, and x1→moved reads its rows in that tree's leaf order against a
    single-use tree (see :func:`~.geometry.neighbor_index`) built over the
    moved cloud on every call.
    """
    src = as_cloud(x0)
    tgt = as_cloud(x1)
    u = np.asarray(u_pred, dtype=np.float64)
    if u.shape != src.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {src.shape}")
    if len(src) == 0 or len(tgt) == 0:
        raise ValueError("empty cloud in chamfer")

    moved = src + u
    index = neighbor_index(x1)
    fwd = nearest_neighbor_map(moved, index)
    bwd = nearest_neighbor_map(index, moved)

    diff_fwd = moved - tgt[fwd]
    diff_bwd = tgt - moved[bwd]
    value = float(
        np.einsum("ij,ij->", diff_fwd, diff_fwd)
        + np.einsum("ij,ij->", diff_bwd, diff_bwd)
    )
    grad = 2.0 * diff_fwd
    # Each target's nearest moved point also feels the backward term. One
    # np.add.at per 1-D column takes numpy's fast path, which an (n, 3)
    # operand misses; each element sees the same additions in the same
    # order, so the bytes are those of the 2-D call.
    pull = -2.0 * diff_bwd
    for axis in range(3):
        np.add.at(grad[:, axis], bwd, pull[:, axis])
    scale = len(src) + len(tgt)
    value /= scale
    grad /= scale
    return value, grad


def total_loss_grad(sample: FlowSample, u_pred,
                    weights: LossWeights) -> tuple[LossReport, np.ndarray]:
    """L_flow + chamfer * L_chamfer and its gradient with respect to u_pred.

    The chamfer term (and its geometry work) is skipped entirely when its
    weight is zero.
    """
    flow_val, flow_grad = flow_matching_loss_grad(u_pred, sample.v_target)
    if weights.chamfer != 0.0:
        cd_val, cd_grad = chamfer_loss_grad(sample.x0, u_pred, sample.x1)
    else:
        cd_val, cd_grad = 0.0, 0.0
    total = flow_val + weights.chamfer * cd_val
    grad = flow_grad + weights.chamfer * cd_grad
    return LossReport(flow=flow_val, chamfer=cd_val, total=total), grad
