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
from scipy.spatial import cKDTree

# Below this many target points an exhaustive scan beats building a tree.
BRUTE_FORCE_LIMIT = 32


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


class NeighborIndex:
    """Nearest-neighbor index over a fixed target cloud, built once.

    Holds a private copy of the target rows, and for targets of at least
    BRUTE_FORCE_LIMIT rows the deduplicated rows, their lowest original
    indices and a k-d tree over them. Queries follow the rules of
    :func:`nearest_neighbor_map`. Later writes to the caller's array do not
    reach the index. `np.asarray(index)` and `len(index)` give the original
    rows in their original order.

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
        self._tree = None
        if len(rows) < BRUTE_FORCE_LIMIT:
            return
        uniq, lowest = _unique_rows(rows)
        if len(uniq) == len(rows):
            self._tree = cKDTree(rows)
        else:
            self._lowest = lowest
            self._tree = cKDTree(uniq)

    def __len__(self) -> int:
        return len(self._rows)

    def __array__(self, dtype=None, copy=None):
        rows = self._rows if dtype is None else self._rows.astype(dtype, copy=False)
        if copy:
            return rows.copy()
        if copy is False and rows is not self._rows:
            raise ValueError("a copy is needed to convert the index rows")
        return rows

    def query(self, source) -> np.ndarray:
        """Index of the nearest target row for each source row; see
        :func:`nearest_neighbor_map`."""
        src = as_cloud(source)
        if len(src) == 0:
            return np.empty(0, dtype=np.int64)
        if self._tree is None:
            return _brute_nearest(src, self._rows)
        # A one-row tree reports its missing second neighbor at infinite
        # distance, so a target of one repeated point needs no special case.
        dist, idx = self._tree.query(src, k=2)
        nearest = idx[:, 0]
        result = (nearest.astype(np.int64) if self._lowest is None
                  else self._lowest[nearest])
        tied = dist[:, 0] == dist[:, 1]
        if np.any(tied):
            # Rare exact ties between distinct rows: re-resolve exhaustively
            # so the lowest-original-index rule holds.
            result[tied] = _brute_nearest(src[tied], self._rows)
        return result


def neighbor_index(target) -> NeighborIndex:
    """`target` itself if it is a NeighborIndex, else a new index over it."""
    return target if isinstance(target, NeighborIndex) else NeighborIndex(target)


def nearest_neighbor_map(source, target) -> np.ndarray:
    """Map each source point to the index of its nearest target point.

    Distances are Euclidean; ties are broken toward the lowest target
    index, so the result is deterministic even when the target contains
    duplicate points. Small targets use an exhaustive scan, larger ones a
    k-d tree.

    Args:
        source: (n, 3) cloud; may be empty.
        target: (m, 3) cloud, or a :class:`NeighborIndex` over one, which
            skips rebuilding the tree; must be non-empty.

    Returns:
        int64 array of length n with values in [0, m).
    """
    return neighbor_index(target).query(source)


def _nearest_sq_dists(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Squared distance from each point of a to its nearest neighbor in b,
    # recomputed from coordinates so values match the returned indices.
    idx = nearest_neighbor_map(a, b)
    diff = a - b[idx]
    return np.einsum("ij,ij->i", diff, diff), idx


def chamfer_distance(a, b) -> float:
    """Symmetric sum of squared nearest-neighbor distances (m² summed).

    Returns sum_{p in a} min_q ||p-q||^2 + sum_{q in b} min_p ||p-q||^2.
    This is the raw matching objective; see :func:`chamfer_distance_mean`
    for the metric-reporting variant in meters.
    """
    pa = as_cloud(a)
    pb = as_cloud(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("empty cloud in chamfer")
    d_ab, _ = _nearest_sq_dists(pa, pb)
    d_ba, _ = _nearest_sq_dists(pb, pa)
    return float(d_ab.sum() + d_ba.sum())


def chamfer_distance_mean(a, b) -> float:
    """Reporting variant of the Chamfer distance, in meters.

    Mean (non-squared) nearest-neighbor distance per direction, averaged
    over both directions. Equals a uniform offset d for two well-separated
    copies of the same cloud shifted by d.
    """
    pa = as_cloud(a)
    pb = as_cloud(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("empty cloud in chamfer")
    d_ab, _ = _nearest_sq_dists(pa, pb)
    d_ba, _ = _nearest_sq_dists(pb, pa)
    return float(0.5 * (np.sqrt(d_ab).mean() + np.sqrt(d_ba).mean()))


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


def tile_cloud(cloud, copies: int) -> np.ndarray:
    """Concatenate `copies` repetitions of the cloud, block by block.

    Point i*n + j of the output equals point j of the input.
    """
    pts = as_cloud(cloud)
    if copies < 1:
        raise ValueError("copies must be >= 1")
    return np.tile(pts, (copies, 1))


@dataclass(frozen=True)
class VoxelSet:
    """Occupied cells of a cubic voxel grid anchored at `origin`.

    A point p occupies cell floor((p - origin) / resolution), componentwise.
    """
    resolution: float
    origin: tuple[float, float, float]
    occupied: frozenset = field(repr=False)

    def __len__(self) -> int:
        return len(self.occupied)


def voxelize(cloud, resolution: float, origin=(0.0, 0.0, 0.0)) -> VoxelSet:
    """Set of voxel cells containing at least one point of the cloud.

    Deterministic and invariant under permutation of the input points.
    """
    pts = as_cloud(cloud)
    if resolution <= 0:
        raise ValueError("voxel resolution must be positive")
    org = np.asarray(origin, dtype=np.float64)
    cells = np.floor((pts - org) / resolution).astype(np.int64)
    occupied = frozenset(tuple(row) for row in cells.tolist())
    return VoxelSet(float(resolution), tuple(float(c) for c in org), occupied)


@dataclass(frozen=True, eq=False)
class BevHistogram:
    """Bird's-eye-view point counts on an (nx, ny) grid over `extent`.

    extent is (xmin, xmax, ymin, ymax); cell (i, j) covers
    [xmin + i*res, xmin + (i+1)*res) x [ymin + j*res, ymin + (j+1)*res).
    `dropped` counts the points that fell outside the extent.
    """
    resolution: float
    extent: tuple[float, float, float, float]
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
    counts = np.zeros((nx, ny), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    return BevHistogram(
        float(resolution), (xmin, xmax, ymin, ymax), counts, int(len(pts) - len(kept))
    )
