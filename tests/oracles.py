"""Slow reference implementations used to check the fast library code.

Everything here is written the dumb way on purpose: explicit loops over
points, python sets, direct summation. Keep these independent of the
package internals — they are the ground truth the tests compare against.
"""
import math

import numpy as np


def nn_map_exhaustive(source, target):
    """O(n*m) nearest-neighbor indices, lowest index on ties."""
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    out = []
    for p in source:
        d2 = ((target - p) ** 2).sum(axis=1)
        out.append(int(np.argmin(d2)))  # argmin keeps the first minimum
    return np.array(out, dtype=np.int64)


def chamfer_sum_exhaustive(a, b):
    """Double-loop symmetric sum of squared NN distances."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for p in a:
        total += float(((b - p) ** 2).sum(axis=1).min())
    for q in b:
        total += float(((a - q) ** 2).sum(axis=1).min())
    return total


def chamfer_mean_exhaustive(a, b):
    """Mean non-squared NN distance per direction, averaged over both."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d_ab = [math.sqrt(((b - p) ** 2).sum(axis=1).min()) for p in a]
    d_ba = [math.sqrt(((a - q) ** 2).sum(axis=1).min()) for q in b]
    return 0.5 * (sum(d_ab) / len(d_ab) + sum(d_ba) / len(d_ba))


def voxel_cells_recount(cloud, resolution, origin=(0.0, 0.0, 0.0)):
    """Hash-set of floored cell indices, one point at a time."""
    cells = set()
    for x, y, z in np.asarray(cloud, dtype=np.float64):
        cells.add((
            math.floor((x - origin[0]) / resolution),
            math.floor((y - origin[1]) / resolution),
            math.floor((z - origin[2]) / resolution),
        ))
    return cells


def bev_counts_recount(cloud, resolution, extent):
    """Per-point recount of the BEV grid; returns (counts, dropped)."""
    xmin, xmax, ymin, ymax = extent
    nx = math.ceil((xmax - xmin) / resolution)
    ny = math.ceil((ymax - ymin) / resolution)
    counts = np.zeros((nx, ny), dtype=np.int64)
    dropped = 0
    for x, y, _ in np.asarray(cloud, dtype=np.float64):
        if xmin <= x < xmax and ymin <= y < ymax:
            i = min(math.floor((x - xmin) / resolution), nx - 1)
            j = min(math.floor((y - ymin) / resolution), ny - 1)
            counts[i, j] += 1
        else:
            dropped += 1
    return counts, dropped


def jsd_direct(p_counts, q_counts):
    """Jensen-Shannon divergence from raw histograms, natural log."""
    p = np.asarray(p_counts, dtype=np.float64).ravel()
    q = np.asarray(q_counts, dtype=np.float64).ravel()
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)
    total = 0.0
    for pi, qi, mi in zip(p, q, m):
        if pi > 0:
            total += 0.5 * pi * math.log(pi / mi)
        if qi > 0:
            total += 0.5 * qi * math.log(qi / mi)
    return total


def min_pairwise_distance(points):
    """Smallest pairwise Euclidean distance in a cloud (n >= 2)."""
    points = np.asarray(points, dtype=np.float64)
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, float(np.linalg.norm(points[i] - points[j])))
    return best


def numerical_gradient(fn, x, step=1e-4):
    """Central finite differences of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bumped = x.copy()
        bumped.flat[i] += step
        hi = fn(bumped)
        bumped.flat[i] -= 2 * step
        lo = fn(bumped)
        grad.flat[i] = (hi - lo) / (2 * step)
    return grad


def chamfer_assignments(x0, u, x1):
    """The two NN index maps behind a chamfer value (exhaustive)."""
    moved = np.asarray(x0, dtype=np.float64) + np.asarray(u, dtype=np.float64)
    return (
        nn_map_exhaustive(moved, x1).tolist(),
        nn_map_exhaustive(x1, moved).tolist(),
    )


def assert_grad_matches_fd(scalar_fn, grad, flat, assign_fn=None, step=1e-4,
                           tol=1e-4, max_kink_fraction=0.1):
    """Central-difference gradient check, skipping kink-straddling coords.

    Chamfer-style losses are only piecewise smooth: where a nearest
    neighbor assignment changes inside the FD interval, the difference
    quotient does not estimate any one-sided derivative. Coordinates whose
    mismatch is explained by such a flip (verified through assign_fn) are
    excluded; they must stay a small fraction of the whole vector, and
    every other coordinate must agree within tol.
    """
    flat = np.asarray(flat, dtype=np.float64)
    num = numerical_gradient(scalar_fn, flat, step=step)
    rel = np.abs(np.asarray(grad) - num) / np.maximum(np.abs(num), 1e-3)
    kinks = 0
    for i in np.nonzero(rel >= tol)[0]:
        hi = flat.copy()
        hi[i] += step
        lo = flat.copy()
        lo[i] -= step
        assert assign_fn is not None and assign_fn(hi) != assign_fn(lo), (
            f"coordinate {i}: rel err {rel[i]:.3g} without an assignment flip"
        )
        kinks += 1
    assert kinks <= max_kink_fraction * flat.size


def farthest_point_loop(cloud, count, seed=None):
    """Farthest point sampling, one full-cloud distance pass per pick."""
    pts = np.asarray(cloud, dtype=np.float64)
    rng = np.random.default_rng(seed)
    chosen = np.empty(count, dtype=np.int64)
    chosen[0] = int(rng.integers(len(pts)))
    d2 = ((pts - pts[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, count):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1), out=d2)
    return pts[chosen]


_RAY_EPS = 1e-9


def _yaw(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ground_hit(half_extent, origin, direction):
    if abs(direction[2]) < _RAY_EPS:
        return math.inf
    t = -origin[2] / direction[2]
    if t <= _RAY_EPS:
        return math.inf
    x = origin[0] + t * direction[0]
    y = origin[1] + t * direction[1]
    if abs(x) <= half_extent and abs(y) <= half_extent:
        return t
    return math.inf


def _box_hit(box, origin, direction):
    rot = _yaw(box.yaw)
    o = rot.T @ (origin - np.asarray(box.center))
    d = rot.T @ direction
    half = np.array(box.size) / 2.0
    t_near, t_far = -math.inf, math.inf
    for axis in range(3):
        if abs(d[axis]) < _RAY_EPS:
            if abs(o[axis]) > half[axis]:
                return math.inf
            continue
        lo = (-half[axis] - o[axis]) / d[axis]
        hi = (half[axis] - o[axis]) / d[axis]
        if lo > hi:
            lo, hi = hi, lo
        t_near = max(t_near, lo)
        t_far = min(t_far, hi)
    if t_near > t_far or t_far < _RAY_EPS:
        return math.inf
    return t_near if t_near > _RAY_EPS else math.inf


def _cylinder_hit(cyl, origin, direction):
    cx, cy, cz = cyl.center
    z_lo, z_hi = cz, cz + cyl.height
    best = math.inf
    ox, oy = origin[0] - cx, origin[1] - cy
    dx, dy = direction[0], direction[1]
    a = dx * dx + dy * dy
    if a > _RAY_EPS:
        b = 2.0 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - cyl.radius ** 2
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            for t in ((-b - root) / (2 * a), (-b + root) / (2 * a)):
                if t > _RAY_EPS:
                    z = origin[2] + t * direction[2]
                    if z_lo - _RAY_EPS <= z <= z_hi + _RAY_EPS:
                        best = min(best, t)
    if abs(direction[2]) > _RAY_EPS:
        for z_cap in (z_lo, z_hi):
            t = (z_cap - origin[2]) / direction[2]
            if _RAY_EPS < t < best:
                px = origin[0] + t * direction[0] - cx
                py = origin[1] + t * direction[1] - cy
                if px * px + py * py <= cyl.radius ** 2:
                    best = t
    return best


def _wall_hit(wall, origin, direction):
    rot = _yaw(wall.yaw)
    o = rot.T @ (origin - np.asarray(wall.center))
    d = rot.T @ direction
    if abs(d[0]) < _RAY_EPS:
        return math.inf
    t = -o[0] / d[0]
    if t <= _RAY_EPS:
        return math.inf
    y = o[1] + t * d[1]
    z = o[2] + t * d[2]
    if abs(y) <= wall.width / 2.0 and 0.0 <= z <= wall.height:
        return t
    return math.inf


_PRIMITIVE_HITS = {"Box": _box_hit, "Cylinder": _cylinder_hit, "Wall": _wall_hit}


def first_hit_per_ray(spec, scan):
    """Scan synthesis one ray and one surface at a time.

    Casts every ray of the azimuth x elevation grid against the ground and
    each primitive of `spec`, keeps the nearest hit within max_range, then
    applies the scan's dropout and farthest-point budget, drawing from the
    same seeded generator in the same order as the package does.
    """
    origin = np.asarray(scan.origin, dtype=np.float64)
    azimuths = np.arange(scan.azimuth_count) * (2.0 * math.pi / scan.azimuth_count)
    elevations = np.linspace(scan.elevation_range[0], scan.elevation_range[1],
                             scan.elevation_count)
    hits = []
    for el in elevations:
        cos_el, sin_el = math.cos(el), math.sin(el)
        for az in azimuths:
            direction = np.array([cos_el * math.cos(az), cos_el * math.sin(az), sin_el])
            best = _ground_hit(spec.ground_half_extent, origin, direction)
            for prim in spec.primitives:
                hit = _PRIMITIVE_HITS[type(prim).__name__](prim, origin, direction)
                best = min(best, hit)
            if best <= scan.max_range:
                hits.append(origin + best * direction)
    cloud = np.array(hits) if hits else np.empty((0, 3))
    rng = np.random.default_rng(scan.seed)
    if scan.dropout > 0.0 and len(cloud):
        cloud = cloud[rng.uniform(size=len(cloud)) >= scan.dropout]
    if scan.budget is not None and len(cloud) > scan.budget:
        cloud = farthest_point_loop(cloud, scan.budget,
                                    seed=int(rng.integers(2 ** 32)))
    return cloud
