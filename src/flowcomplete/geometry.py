"""Geometric kernels for point-cloud processing.

Nearest-neighbor maps, Chamfer distances, farthest point sampling, voxel
occupancy, and bird's-eye-view histograms. Clouds are (n, 3) float64 arrays
in meters; point order is significant and preserved unless stated otherwise.
All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def as_cloud(points) -> np.ndarray:
    """Coerce input to an (n, 3) float64 array with finite coordinates.

    Args:
        points: array-like of 3-D points; an empty sequence is accepted.

    Returns:
        A float64 array of shape (n, 3).

    Raises:
        ValueError: on a non-(n, 3) shape or non-finite coordinates.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point cloud contains non-finite coordinates")
    return arr


class DistanceOverflowError(ValueError, FloatingPointError):
    """A squared nearest-neighbor distance overflowed float64, so the
    nearest row cannot be told apart; also a FloatingPointError, since a
    training step that moves points this far has diverged."""


def _brute_nearest(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Exhaustive scan in chunks; np.argmin keeps the lowest index on ties.
    out = np.empty(len(source), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(len(target), 1))
    for start in range(0, len(source), chunk):
        block = source[start:start + chunk]
        d2 = ((block[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
        out[start:start + chunk] = np.argmin(d2, axis=1)
    return out


def _unique_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Unique rows in lexicographic order plus, for each, the lowest index
    # where it occurs. The sort is stable, so the first row of each run of
    # equal rows is the earliest; -0.0 and 0.0 compare equal.
    order = np.lexsort(points.T[::-1])
    ordered = points[order]
    first = np.empty(len(points), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return ordered[first], order[first].astype(np.int64)


# Weights of the repeat pre-check's row key: irrational-ish, so unequal
# rows rarely share a key, and below 1 in magnitude, so no product
# overflows and a key is never NaN.
_KEY_WEIGHTS = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772)


def _may_repeat(points: np.ndarray) -> bool:
    # False only if no two rows are equal. Every key is computed from its
    # row's coordinates by the same elementwise products and sums, in the
    # same order, so equal rows get equal keys (-0.0 and 0.0 included) and
    # distinct keys mean distinct rows. A matrix product is avoided because BLAS may round one row
    # differently depending on where it sits. Sums that overflow give
    # infinite keys, which collide; any collision only costs the dedupe.
    with np.errstate(over="ignore"):
        keys = points[:, 0] * _KEY_WEIGHTS[0]
        keys += points[:, 1] * _KEY_WEIGHTS[1]
        keys += points[:, 2] * _KEY_WEIGHTS[2]
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


class NeighborIndex:
    """Nearest-neighbor index over a fixed target cloud, built once.

    Holds a private copy of the target rows and a k-d tree over them. A
    cheap exact test (one sorted float key per row) first rules out
    repeated rows; only a target it cannot clear is deduplicated, and then
    the tree holds the unique rows and the index their lowest original
    indices. Queries follow the rules of :func:`nearest_neighbor_map`;
    an index given as the source of another index's query is read in its
    tree's leaf order, which keeps the other tree's nodes in cache from
    one row to the next. Later writes to the caller's array do not reach
    the index. `np.asarray(index)` and `len(index)` give the original rows
    in their original order.

    Raises:
        ValueError: on an invalid or empty target.
    """

    def __init__(self, target):
        rows = np.array(as_cloud(target))
        if len(rows) == 0:
            raise ValueError("empty target cloud")
        rows.flags.writeable = False
        self._rows = rows
        # Lowest original index of each tree row; None when the tree is
        # built over the rows themselves, which have no duplicates.
        self._lowest = None
        tree_rows = rows
        if _may_repeat(rows):
            uniq, lowest = _unique_rows(rows)
            if len(uniq) < len(rows):
                self._lowest, tree_rows = lowest, uniq
        # Imported here, at its one use, so that importing the package or
        # running make-data never loads scipy.spatial, most of the CLI's
        # import time.
        from scipy.spatial import cKDTree
        self._tree = cKDTree(tree_rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __array__(self, dtype=None, copy=None):
        rows = self._rows if dtype is None else self._rows.astype(dtype, copy=False)
        if copy:
            return rows.copy()
        if copy is False and rows is not self._rows:
            raise ValueError("a copy is needed to convert the index rows")
        return rows

    def _leaf_ordered_rows(self):
        # The rows in the tree's leaf order, where consecutive rows are
        # near each other, so a query of them in turn walks the same paths
        # of the other tree; also that order. A deduplicated tree holds
        # other rows than the index, so those keep plain row order (None).
        if self._lowest is not None:
            return self._rows, None
        order = self._tree.indices
        return self._rows[order], order

    def query(self, source) -> np.ndarray:
        """Index of the nearest target row for each source row; see
        :func:`nearest_neighbor_map`. A NeighborIndex as the source is
        queried in its tree's leaf order and answered in row order."""
        if isinstance(source, NeighborIndex):
            src, order = source._leaf_ordered_rows()
        else:
            src, order = as_cloud(source), None
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        # A one-row tree reports its missing second neighbor at infinite
        # distance, so a target of one repeated point needs no special case.
        dist, idx = self._tree.query(src, k=2)
        if not np.all(np.isfinite(dist[:, 0])):
            # the squared distance overflowed, so every candidate compares
            # equal at inf and the nearest one cannot be told apart
            raise DistanceOverflowError(
                "nearest-neighbor distance overflows float64: source and "
                "target points are too far apart")
        nearest = idx[:, 0]
        result = (nearest.astype(np.int64) if self._lowest is None
                  else self._lowest[nearest])
        tied = dist[:, 0] == dist[:, 1]
        if np.any(tied):
            # Rare exact ties between distinct rows: re-resolve exhaustively
            # so the lowest-original-index rule holds. Rows far enough away
            # for their squared distance to overflow are not the nearest.
            with np.errstate(over="ignore"):
                result[tied] = _brute_nearest(src[tied], self._rows)
        if order is None:
            return result
        in_row_order = np.empty_like(result)
        in_row_order[order] = result
        return in_row_order


def neighbor_index(target) -> NeighborIndex:
    """`target` itself if it is a NeighborIndex, else a new index over it."""
    return target if isinstance(target, NeighborIndex) else NeighborIndex(target)


def nearest_neighbor_map(source, target) -> np.ndarray:
    """Map each source point to the index of its nearest target point.

    Distances are Euclidean; ties are broken toward the lowest target
    index, so the result is deterministic even when the target contains
    duplicate points.

    Args:
        source: (n, 3) cloud, or a :class:`NeighborIndex` over one, whose
            rows are then queried in its tree's leaf order (faster for a
            large source) and answered in row order; may be empty.
        target: (m, 3) cloud, or a :class:`NeighborIndex` over one, which
            skips rebuilding the tree; must be non-empty.

    Returns:
        int64 array of length n with values in [0, m).

    Raises:
        DistanceOverflowError: a ValueError, when the squared distance from
            a source point to its nearest target point overflows float64.
    """
    return neighbor_index(target).query(source)


def nearest_sq_dists(a, b) -> np.ndarray:
    """Squared distance from each point of cloud `a` to its nearest neighbor
    in cloud `b`, recomputed from the coordinates of the mapped rows.
    Either may be a NeighborIndex, used as :func:`nearest_neighbor_map`
    uses it."""
    idx = nearest_neighbor_map(a, b)
    diff = np.asarray(a) - np.asarray(b)[idx]
    return np.einsum("ij,ij->i", diff, diff)


def chamfer_distance(a, b) -> float:
    """Symmetric sum of squared nearest-neighbor distances (m² summed).

    Returns sum_{p in a} min_q ||p-q||^2 + sum_{q in b} min_p ||p-q||^2.
    This is the raw matching objective; see :func:`metrics.eval_chamfer`
    for the metric-reporting variant in meters.
    """
    pa = as_cloud(a)
    pb = as_cloud(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("empty cloud in chamfer")
    return float(nearest_sq_dists(pa, pb).sum() + nearest_sq_dists(pb, pa).sum())


def farthest_point_sample(cloud, count: int, seed=None) -> np.ndarray:
    """Select `count` well-dispersed points of `cloud` via farthest point sampling.

    The first point is a seeded uniform draw; every subsequent point
    maximizes its distance to the already-selected set. Deterministic for a
    fixed seed; the output rows are a subset of the input rows.

    Raises:
        ValueError: if the cloud is empty or count exceeds its size.
    """
    pts = as_cloud(cloud)
    if len(pts) == 0:
        raise ValueError("cannot sample from an empty cloud")
    if count > len(pts):
        raise ValueError("sample size exceeds cloud")
    if count <= 0:
        return pts[:0].copy()
    rng = np.random.default_rng(seed)
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = int(rng.integers(len(pts)))
    # Squared distances share the argmax with true distances. Summing
    # dx*dx + dy*dy + dz*dz left to right in preallocated buffers gives
    # the same bits as ((pts - p) ** 2).sum(axis=1).
    cols = np.ascontiguousarray(pts.T)
    d2 = np.empty(len(pts))
    acc = np.empty(len(pts))
    diff = np.empty(len(pts))

    def squared_distances(index, out):
        np.subtract(cols[0], pts[index, 0], out=out)
        np.multiply(out, out, out=out)
        for axis in (1, 2):
            np.subtract(cols[axis], pts[index, axis], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(out, diff, out=out)

    squared_distances(chosen[0], d2)
    for i in range(1, count):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        squared_distances(nxt, acc)
        np.minimum(d2, acc, out=d2)
    return pts[chosen]


@dataclass(frozen=True)
class VoxelSet:
    """Occupied cells of a cubic voxel grid.

    A point p occupies cell floor((p - origin) / resolution), componentwise,
    for the origin and resolution given to :func:`voxelize`.
    """
    occupied: frozenset = field(repr=False)

    def __len__(self) -> int:
        return len(self.occupied)


def _floor_cells(pts: np.ndarray, resolution: float, origin) -> np.ndarray:
    # (3, n) int64: row k holds the cell index of every point along axis k.
    # A cell index that int64 cannot hold is a ValueError, since casting it
    # would wrap or saturate silently. Working on one contiguous row per
    # axis, in place, keeps the arithmetic elementwise and cheap.
    if not resolution > 0:
        raise ValueError("voxel resolution must be positive")
    scaled = np.array(pts.T, order="C")
    with np.errstate(over="ignore"):
        scaled -= np.asarray(origin, dtype=np.float64)[:, None]
        scaled /= resolution
    np.floor(scaled, out=scaled)
    if scaled.size and not (scaled.min() >= -2.0**63 and scaled.max() < 2.0**63):
        raise ValueError(
            f"voxel cell index out of int64 range at resolution {resolution!r}")
    return scaled.astype(np.int64)


def _cell_keys(cells: list) -> list:
    # One int64 key per column of each (3, n) cell array, equal exactly
    # where the cells are equal, across all arrays of the list. Cells pack
    # row-major relative to the common minimum cell when the span product
    # fits in int64; otherwise each key is the cell's rank among the
    # lexsorted distinct cells.
    stacked = np.concatenate(cells, axis=1)
    bounds = np.cumsum([c.shape[1] for c in cells[:-1]])
    if stacked.shape[1] == 0:
        return np.split(stacked[0], bounds)
    lo = stacked.min(axis=1)
    span = [int(h) - int(l) + 1 for h, l in zip(stacked.max(axis=1), lo)]
    if math.prod(span) <= np.iinfo(np.int64).max:
        stacked -= lo[:, None]
        keys = stacked[0] * span[1]
        keys += stacked[1]
        keys *= span[2]
        keys += stacked[2]
    else:
        keys = np.unique(stacked.T, axis=0, return_inverse=True)[1]
    return np.split(keys, bounds)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # np.unique for a 1-D array that may be sorted in place, at a fraction
    # of np.unique's cost.
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def voxel_keys(clouds, resolution: float, origin=(0.0, 0.0, 0.0)) -> list:
    """Occupied cells of each cloud as sorted unique int64 keys.

    Keys from one call are equal exactly where the cells are, so the sizes
    of their intersections and unions are those of the cell sets of
    :func:`voxelize`; keys from different calls are not comparable.

    Raises:
        ValueError: on an invalid cloud, a non-positive resolution or a
            cell index outside the int64 range.
    """
    cells = [_floor_cells(as_cloud(c), resolution, origin) for c in clouds]
    return [_sorted_unique(keys) for keys in _cell_keys(cells)]


def voxelize(cloud, resolution: float, origin=(0.0, 0.0, 0.0)) -> VoxelSet:
    """Set of voxel cells containing at least one point of the cloud.

    Deterministic and invariant under permutation of the input points.
    Raises ValueError as :func:`voxel_keys` does.
    """
    cells = _floor_cells(as_cloud(cloud), resolution, origin)
    _, first = np.unique(_cell_keys([cells])[0], return_index=True)
    return VoxelSet(frozenset(map(tuple, cells[:, first].T.tolist())))


@dataclass(frozen=True, eq=False)
class BevHistogram:
    """Bird's-eye-view point counts on an (nx, ny) grid.

    For the extent (xmin, xmax, ymin, ymax) and resolution given to
    :func:`bev_histogram`, cell (i, j) covers
    [xmin + i*res, xmin + (i+1)*res) x [ymin + j*res, ymin + (j+1)*res).
    `dropped` counts the points that fell outside the extent.
    """
    counts: np.ndarray
    dropped: int


def bev_histogram(cloud, resolution: float, extent) -> BevHistogram:
    """Histogram of the cloud's (x, y) projection; z is ignored.

    Points with x in [xmin, xmax) and y in [ymin, ymax) are counted in
    their floored cell; all others are dropped and reported.
    """
    pts = as_cloud(cloud)
    if resolution <= 0:
        raise ValueError("histogram resolution must be positive")
    xmin, xmax, ymin, ymax = (float(v) for v in extent)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("degenerate histogram extent")
    nx = math.ceil((xmax - xmin) / resolution)
    ny = math.ceil((ymax - ymin) / resolution)
    inside = (
        (pts[:, 0] >= xmin) & (pts[:, 0] < xmax)
        & (pts[:, 1] >= ymin) & (pts[:, 1] < ymax)
    )
    kept = pts[inside]
    ix = np.floor((kept[:, 0] - xmin) / resolution).astype(np.int64)
    iy = np.floor((kept[:, 1] - ymin) / resolution).astype(np.int64)
    np.clip(ix, 0, nx - 1, out=ix)
    np.clip(iy, 0, ny - 1, out=iy)
    ix *= ny
    ix += iy
    counts = np.bincount(ix, minlength=nx * ny).reshape(nx, ny)
    return BevHistogram(counts, int(len(pts) - len(kept)))
