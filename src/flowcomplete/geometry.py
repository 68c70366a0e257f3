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


class NeighborIndex:
    """Nearest-neighbor index over a fixed target cloud, built once and
    kept by its caller for many queries.

    Holds a private copy of the target rows and a k-d tree over them, as
    given: repeated rows stay in the tree, and the exact ties they make are
    resolved in it, like every other tie. The tree is scipy's balanced
    build, slower to build and faster to query than the single-use tree
    of :func:`neighbor_index`. Queries follow the rules of
    :func:`nearest_neighbor_map`; an index given as the source of another
    index's query is read in its tree's leaf order, which keeps the other
    tree's nodes in cache from one row to the next. Later writes to the
    caller's array do not reach the index. `np.asarray(index)` and
    `len(index)` give the rows in their original order.

    Raises:
        ValueError: on an invalid or empty target.
    """

    # cKDTree keywords; scipy's defaults are the balanced build
    _TREE_OPTIONS = {}

    def __init__(self, target):
        rows = np.array(as_cloud(target))
        if len(rows) == 0:
            raise ValueError("empty target cloud")
        rows.flags.writeable = False
        self._rows = rows
        # Imported here, at its one use, so that importing the package or
        # running make-data never loads scipy.spatial, most of the CLI's
        # import time.
        from scipy.spatial import cKDTree
        self._tree = cKDTree(rows, **self._TREE_OPTIONS)

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
        :func:`nearest_neighbor_map`. A NeighborIndex as the source is
        queried in its tree's leaf order and answered in row order."""
        if isinstance(source, NeighborIndex):
            # In leaf order consecutive rows are near each other, so a query
            # of them in turn walks the same paths of this tree.
            order = source._tree.indices
            src = source._rows[order]
        else:
            src, order = as_cloud(source), None
        result, _ = self._nearest_two(src)
        if order is None:
            return result
        in_row_order = np.empty_like(result)
        in_row_order[order] = result
        return in_row_order

    def _nearest_two(self, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The nearest row of each source row, lowest index on ties, and the
        # tree's distance to the second-nearest row: -inf where the two
        # nearest tie or the second distance is not finite, since then it
        # bounds nothing.
        if len(src) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        # A one-row tree reports its missing second neighbor at infinite
        # distance, so its answers never tie.
        dist, idx = self._tree.query(src, k=2)
        if not np.all(np.isfinite(dist[:, 0])):
            # the squared distance overflowed, so every candidate compares
            # equal at inf and the nearest one cannot be told apart
            raise DistanceOverflowError(
                "nearest-neighbor distance overflows float64: source and "
                "target points are too far apart")
        result = idx[:, 0].astype(np.int64)
        # Exact ties, repeated rows included: the tree may report any of the
        # tied rows, so the lowest-index rule is applied to them here.
        tied = dist[:, 0] == dist[:, 1]
        if np.any(tied):
            result[tied] = self._resolve_ties(src[tied], dist[tied, 0])
        second = dist[:, 1]
        second[tied | ~np.isfinite(second)] = -np.inf
        return result, second

    def _resolve_ties(self, src: np.ndarray, nearest: np.ndarray) -> np.ndarray:
        # Lowest index among the rows at the least squared distance from
        # each source row, which the tree reports at distance `nearest`.
        # For p=2 the tree returns the root of the same left-to-right sum of
        # squares that the exhaustive scan computes, so every row at the
        # least squared distance reports exactly `nearest`, and all of them
        # are among the k nearest once the k-th lies farther: k doubles
        # until it does, or reaches the row count. Rows whose squared
        # distance overflows come back missing, with index len(rows).
        n = len(self._rows)
        out = np.empty(len(src), dtype=np.int64)
        todo = np.arange(len(src))
        k = 2
        while len(todo):
            k = min(2 * k, n)
            # at most 2**22 candidates per query bounds its memory
            chunk = max(1, (1 << 22) // k)
            wider = []
            for start in range(0, len(todo), chunk):
                part = todo[start:start + chunk]
                dist, idx = self._tree.query(src[part], k=k)
                done = (dist[:, -1] > nearest[part]) | (k == n)
                wider.append(part[~done])
                part, idx = part[done], idx[done]
                missing = idx == n
                with np.errstate(over="ignore"):
                    d2 = ((self._rows[np.where(missing, 0, idx)]
                           - src[part, None, :]) ** 2).sum(axis=2)
                d2[missing] = np.inf
                at_min = d2 == d2.min(axis=1, keepdims=True)
                out[part] = np.where(at_min, idx, n).min(axis=1)
            todo = np.concatenate(wider)
        return out


class TrackingNeighborIndex(NeighborIndex):
    """NeighborIndex for a source whose rows move a little between queries,
    like the points of an integration step by step.

    Keeps, for each source row, its anchor a (where the tree last answered
    for it), that answer j, and the distance s to the second-nearest row
    that came with it, -inf when the two nearest tie. A query at x returns
    j again when |x - rows[j]| + |x - a| + 2*tau < s: by the triangle
    inequality every other row lies at least s - |x - a| from x, so j is
    strictly the nearest, with margin, and no tie rule applies. tau bounds
    the float error of the distances. Every other row is queried in the
    tree as :meth:`NeighborIndex.query` does, and its anchor, answer and s
    refreshed; a non-finite distance fails the bound, so an overflow still
    raises from the tree. A source with a new row count starts afresh.
    Answers equal :meth:`NeighborIndex.query`'s for any source, which is
    read in row order. Queries update the kept state, so an instance
    serves one caller at a time.
    """

    def __init__(self, target):
        super().__init__(target)
        self._row_bound = float(np.abs(self._rows).max())
        self._anchors = np.empty((0, 3))
        self._nearest = np.empty(0, dtype=np.int64)
        self._second = np.empty(0)

    def query(self, source) -> np.ndarray:
        src = as_cloud(source)
        if len(src) != len(self._anchors):
            self._nearest, self._second = self._nearest_two(src)
            self._anchors = np.array(src)
        elif len(src):
            stale = ~self._holds(src)
            if np.any(stale):
                moved = src[stale]
                self._nearest[stale], self._second[stale] = self._nearest_two(moved)
                self._anchors[stale] = moved
        return self._nearest.copy()

    def _holds(self, src: np.ndarray) -> np.ndarray:
        # Where the stored answer is provably the nearest row of src. Each
        # distance is off by at most a few 2**-53 times the largest
        # coordinate, far inside tau.
        bound = max(self._row_bound, float(np.abs(src).max()),
                    float(np.abs(self._anchors).max()))
        tau = 2.0 ** -40 * (1.0 + bound)
        with np.errstate(over="ignore", invalid="ignore"):
            to_row = src - self._rows[self._nearest]
            to_anchor = src - self._anchors
            reach = np.sqrt(np.einsum("ij,ij->i", to_row, to_row))
            reach += np.sqrt(np.einsum("ij,ij->i", to_anchor, to_anchor))
            reach += 2.0 * tau
        return reach < self._second


class _SingleUseIndex(NeighborIndex):
    # Built for the call in hand and then dropped: scipy's sliding-midpoint
    # split with unshrunk node boxes builds in about half the time of the
    # balanced tree, for queries up to a quarter slower, which only an
    # index queried many times would pay back. Answers are the same.
    _TREE_OPTIONS = {"balanced_tree": False, "compact_nodes": False}


def neighbor_index(target) -> NeighborIndex:
    """`target` itself if it is a NeighborIndex, else a new index over it
    built for one call, with a tree cheaper to build and slower to query
    than a kept :class:`NeighborIndex`'s, and the same answers."""
    return target if isinstance(target, NeighborIndex) else _SingleUseIndex(target)


def nearest_neighbor_map(source, target) -> np.ndarray:
    """Map each source point to the index of its nearest target point.

    Distances are Euclidean; exact ties, repeated target rows included,
    are broken toward the lowest target index, so the result is
    deterministic. The target's k-d tree resolves them by widening its
    query until every tied row is among the candidates.

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
