"""Synthetic desk-scale scenes and simulated range scans.

A scene is a ground rectangle plus boxes, cylinders, and thin walls with
arbitrary yaw. Ground truth clouds are area-uniform surface samples; the
scan is an analytic ray cast over an azimuth/elevation grid from a sensor
origin, so occlusion shadows and range limits are exact rather than
sampled. Everything is seeded and replayable.

Every surface kind (ground, Box, Cylinder, Wall) has
`ray_hits(origin, directions)`: the distance along each unit row of the
(n, 3) `directions` from `origin` to the surface, or inf where that ray
misses it. All rays are cast against one surface in a single numpy pass.
The arithmetic follows the same per-ray expressions in the same order,
with each early exit turned into a mask, so a scan is bit-identical to
casting one ray at a time (tests/oracles.py keeps that loop).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_cloud, check_finite, check_integer, farthest_point_sample

_EPS = 1e-9
# Smallest ground half extent for random_scene_spec: the widest edge margin
# (walls, 1.6 m) plus the sensor clearance (0.8 m), so that every position
# draw lands clear of the sensor with probability at least 1 - pi/4.
MIN_RANDOM_HALF_EXTENT = 2.4
# Most expected ground points, density * (2 * ground_half_extent)^2, of a
# scene (240 MB of float64 rows), and most rays, azimuths x elevations, of
# a scan. Larger sizes would fail in numpy's allocator, or exhaust memory,
# after the dataset directories exist.
MAX_GROUND_POINTS = 10_000_000
MAX_SCAN_RAYS = 1_000_000


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Box:
    """Axis-aligned cuboid rotated by yaw about its center."""
    center: tuple
    size: tuple
    yaw: float = 0.0

    def __post_init__(self):
        if any(s <= 0 for s in self.size):
            raise ValueError(f"degenerate box size {self.size}")

    def surface_area(self) -> float:
        sx, sy, sz = self.size
        return 2.0 * (sx * sy + sy * sz + sx * sz)

    def sample_surface(self, count: int, rng) -> np.ndarray:
        sx, sy, sz = self.size
        # (fixed axis, sign, spans): the six faces with their areas
        faces = [
            (0, +1, sy * sz), (0, -1, sy * sz),
            (1, +1, sx * sz), (1, -1, sx * sz),
            (2, +1, sx * sy), (2, -1, sx * sy),
        ]
        areas = np.array([f[2] for f in faces])
        half = np.array(self.size) / 2.0
        picks = rng.choice(len(faces), size=count, p=areas / areas.sum())
        local = rng.uniform(-1.0, 1.0, size=(count, 3)) * half
        for i, (axis, sign, _) in enumerate(faces):
            mask = picks == i
            local[mask, axis] = sign * half[axis]
        return np.asarray(self.center) + local @ _yaw_matrix(self.yaw).T

    def ray_hits(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """First-hit distance of each ray in `directions` (inf on a miss).

        Rays enter the local frame as `directions @ rot`, one BLAS matrix
        product whose bits match rotating each ray with `rot.T @ d`.
        """
        # slab method in the box's local frame
        rot = _yaw_matrix(self.yaw)
        o = rot.T @ (origin - np.asarray(self.center))
        d = directions @ rot
        half = np.array(self.size) / 2.0
        t_near = np.full(len(d), -math.inf)
        t_far = np.full(len(d), math.inf)
        miss = np.zeros(len(d), dtype=bool)
        for axis in range(3):
            da = d[:, axis]
            parallel = np.abs(da) < _EPS
            if abs(o[axis]) > half[axis]:
                miss |= parallel
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = (-half[axis] - o[axis]) / da
                hi = (half[axis] - o[axis]) / da
            swap = lo > hi
            lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
            t_near = np.where(~parallel & (lo > t_near), lo, t_near)
            t_far = np.where(~parallel & (hi < t_far), hi, t_far)
        hit = ~miss & ~(t_near > t_far) & ~(t_far < _EPS) & (t_near > _EPS)
        return np.where(hit, t_near, math.inf)


@dataclass(frozen=True)
class Cylinder:
    """Vertical cylinder: base center, radius, height."""
    center: tuple  # base center (on the ground when z = 0)
    radius: float
    height: float

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("degenerate cylinder")

    def surface_area(self) -> float:
        lateral = 2.0 * math.pi * self.radius * self.height
        caps = 2.0 * math.pi * self.radius ** 2
        return lateral + caps

    def sample_surface(self, count: int, rng) -> np.ndarray:
        cx, cy, cz = self.center
        lateral = 2.0 * math.pi * self.radius * self.height
        cap = math.pi * self.radius ** 2
        areas = np.array([lateral, cap, cap])
        picks = rng.choice(3, size=count, p=areas / areas.sum())
        theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
        out = np.empty((count, 3))
        lat = picks == 0
        out[lat, 0] = cx + self.radius * np.cos(theta[lat])
        out[lat, 1] = cy + self.radius * np.sin(theta[lat])
        out[lat, 2] = cz + rng.uniform(0.0, self.height, size=int(lat.sum()))
        for pick, z in ((1, cz + self.height), (2, cz)):
            mask = picks == pick
            r = self.radius * np.sqrt(rng.uniform(size=int(mask.sum())))
            out[mask, 0] = cx + r * np.cos(theta[mask])
            out[mask, 1] = cy + r * np.sin(theta[mask])
            out[mask, 2] = z
        return out

    def ray_hits(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """First-hit distance of each ray in `directions` (inf on a miss)."""
        cx, cy, cz = self.center
        z_lo, z_hi = cz, cz + self.height
        r2 = self.radius ** 2
        ox, oy = origin[0] - cx, origin[1] - cy
        dx, dy, dz = directions[:, 0], directions[:, 1], directions[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            # lateral surface: both roots, nearer first
            a = dx * dx + dy * dy
            b = 2.0 * (ox * dx + oy * dy)
            c = ox * ox + oy * oy - r2
            disc = b * b - 4.0 * a * c
            root = np.sqrt(disc)
            lateral = (a > _EPS) & (disc >= 0.0)
            best = np.full(len(directions), math.inf)
            for t in ((-b - root) / (2 * a), (-b + root) / (2 * a)):
                z = origin[2] + t * dz
                take = (lateral & (t > _EPS) & (z_lo - _EPS <= z)
                        & (z <= z_hi + _EPS) & (t < best))
                best = np.where(take, t, best)
            # caps, bottom before top: each only replaces a nearer hit
            steep = np.abs(dz) > _EPS
            for z_cap in (z_lo, z_hi):
                t = (z_cap - origin[2]) / dz
                px = origin[0] + t * dx - cx
                py = origin[1] + t * dy - cy
                take = (steep & (_EPS < t) & (t < best)
                        & (px * px + py * py <= r2))
                best = np.where(take, t, best)
        return best


@dataclass(frozen=True)
class Wall:
    """Thin vertical rectangle: base-center, width along local y, height."""
    center: tuple  # midpoint of the bottom edge
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("degenerate wall")

    def surface_area(self) -> float:
        return self.width * self.height

    def sample_surface(self, count: int, rng) -> np.ndarray:
        local = np.zeros((count, 3))
        local[:, 1] = rng.uniform(-self.width / 2.0, self.width / 2.0, size=count)
        local[:, 2] = rng.uniform(0.0, self.height, size=count)
        return np.asarray(self.center) + local @ _yaw_matrix(self.yaw).T

    def ray_hits(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """First-hit distance of each ray in `directions` (inf on a miss).

        Rays enter the local frame as `directions @ rot`, one BLAS matrix
        product whose bits match rotating each ray with `rot.T @ d`.
        """
        rot = _yaw_matrix(self.yaw)
        o = rot.T @ (origin - np.asarray(self.center))
        d = directions @ rot
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -o[0] / d[:, 0]
            y = o[1] + t * d[:, 1]
            z = o[2] + t * d[:, 2]
        hit = ((np.abs(d[:, 0]) >= _EPS) & (t > _EPS) & (np.abs(y) <= self.width / 2.0)
               & (0.0 <= z) & (z <= self.height))
        return np.where(hit, t, math.inf)


@dataclass(frozen=True)
class SceneSpec:
    """Ground rectangle, sampling density, seed, and primitives."""
    ground_half_extent: float
    density: float  # surface points per square meter
    seed: int
    primitives: tuple = ()

    def __post_init__(self):
        check_integer(seed=self.seed)
        check_finite(ground_half_extent=self.ground_half_extent,
                     density=self.density)
        if self.ground_half_extent <= 0:
            raise ValueError("ground extent must be positive")
        if self.density <= 0:
            raise ValueError("density must be positive")
        side = 2.0 * self.ground_half_extent
        area = side * side
        if not math.isfinite(area):
            raise ValueError(f"ground_half_extent {self.ground_half_extent!r} "
                             "is too large: the ground area overflows")
        expected = self.density * area
        if expected > MAX_GROUND_POINTS:
            raise ValueError(
                f"density * (2 * ground_half_extent)^2 = {expected:.3g} expected "
                f"ground points exceeds MAX_GROUND_POINTS = {MAX_GROUND_POINTS}")
        for prim in self.primitives:
            cx, cy = prim.center[0], prim.center[1]
            if abs(cx) > self.ground_half_extent or abs(cy) > self.ground_half_extent:
                raise ValueError(f"primitive at ({cx}, {cy}) outside ground extent")


@dataclass(frozen=True)
class ScanSpec:
    """Sensor pose and ray grid for the simulated scan."""
    origin: tuple
    azimuth_count: int
    elevation_count: int
    max_range: float
    dropout: float
    budget: int  # farthest-point subsample target
    seed: int
    elevation_range: tuple = (-0.5, 0.15)  # radians

    def __post_init__(self):
        check_integer(azimuth_count=self.azimuth_count,
                      elevation_count=self.elevation_count, seed=self.seed,
                      budget=self.budget)
        check_finite(origin=self.origin, max_range=self.max_range,
                     elevation_range=self.elevation_range)
        if self.max_range <= 0:
            raise ValueError("max range must be positive")
        if self.azimuth_count < 1 or self.elevation_count < 1:
            raise ValueError("channel counts must be >= 1")
        rays = self.azimuth_count * self.elevation_count
        if rays > MAX_SCAN_RAYS:
            raise ValueError(f"azimuth_count * elevation_count = {rays} rays "
                             f"exceeds MAX_SCAN_RAYS = {MAX_SCAN_RAYS}")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError("dropout must be in [0, 1]")
        if self.budget < 1:
            raise ValueError("scan budget must be >= 1")


@dataclass(frozen=True)
class SceneCase:
    """A complete cloud and its partial scan."""
    case_id: str
    scene: np.ndarray
    scan: np.ndarray


class _Ground:
    """Internal: the ground rectangle as a fourth primitive kind."""

    def __init__(self, half_extent: float):
        self.half_extent = half_extent

    def surface_area(self) -> float:
        return (2.0 * self.half_extent) ** 2

    def sample_surface(self, count: int, rng) -> np.ndarray:
        out = np.zeros((count, 3))
        out[:, :2] = rng.uniform(-self.half_extent, self.half_extent, size=(count, 2))
        return out

    def ray_hits(self, origin: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """First-hit distance of each ray in `directions` (inf on a miss)."""
        dz = directions[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -origin[2] / dz
            x = origin[0] + t * directions[:, 0]
            y = origin[1] + t * directions[:, 1]
        hit = ((np.abs(dz) >= _EPS) & (t > _EPS) & (np.abs(x) <= self.half_extent)
               & (np.abs(y) <= self.half_extent))
        return np.where(hit, t, math.inf)


def _all_surfaces(spec: SceneSpec):
    return [_Ground(spec.ground_half_extent), *spec.primitives]


def generate_scene(spec: SceneSpec) -> np.ndarray:
    """Area-uniform surface samples of ground plus all primitives.

    Each surface receives a Poisson(area * density) number of points;
    deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    clouds = []
    for surface in _all_surfaces(spec):
        count = int(rng.poisson(surface.surface_area() * spec.density))
        if count > 0:
            clouds.append(surface.sample_surface(count, rng))
    return as_cloud(np.vstack(clouds) if clouds else np.empty((0, 3)))


def simulate_scan(spec: SceneSpec, scan: ScanSpec) -> np.ndarray:
    """First-hit ray cast of the scan grid against the scene surfaces.

    Rays march from scan.origin over an azimuth x elevation grid; each
    keeps the nearest primitive intersection within max_range. Points in
    the shadow of a nearer surface are therefore absent by construction.
    Returns come in grid order, elevation-major. Dropout then removes each
    return independently, and a budget keeps a farthest-point subsample.
    """
    origin = np.asarray(scan.origin, dtype=np.float64)
    azimuths = np.arange(scan.azimuth_count) * (2.0 * math.pi / scan.azimuth_count)
    elevations = np.linspace(scan.elevation_range[0], scan.elevation_range[1],
                             scan.elevation_count)
    # math.cos/math.sin per angle, so the directions do not depend on
    # numpy's vectorized trig; rows run elevation-major, azimuth-minor.
    cos_az = np.array([math.cos(az) for az in azimuths])
    sin_az = np.array([math.sin(az) for az in azimuths])
    cos_el = np.array([math.cos(el) for el in elevations])
    sin_el = np.array([math.sin(el) for el in elevations])
    directions = np.empty((scan.elevation_count, scan.azimuth_count, 3))
    directions[:, :, 0] = cos_el[:, None] * cos_az
    directions[:, :, 1] = cos_el[:, None] * sin_az
    directions[:, :, 2] = sin_el[:, None]
    directions = directions.reshape(-1, 3)
    best = np.full(len(directions), math.inf)
    for surface in _all_surfaces(spec):
        np.minimum(best, surface.ray_hits(origin, directions), out=best)
    keep = best <= scan.max_range
    cloud = as_cloud(origin + best[keep, None] * directions[keep])
    rng = np.random.default_rng(scan.seed)
    if scan.dropout > 0.0 and len(cloud):
        cloud = cloud[rng.uniform(size=len(cloud)) >= scan.dropout]
    if len(cloud) > scan.budget:
        cloud = farthest_point_sample(cloud, scan.budget,
                                      seed=int(rng.integers(2 ** 32)))
    return cloud


def build_case(case_id: str, scene_spec: SceneSpec, scan_spec: ScanSpec) -> SceneCase:
    """Generate the (complete, scan) pair for one case.

    Raises:
        ValueError: if the simulated scan ends up empty (a scene the
            sensor cannot see is untrainable).
    """
    scene = generate_scene(scene_spec)
    scan = simulate_scan(scene_spec, scan_spec)
    if len(scan) == 0:
        raise ValueError(f"case {case_id}: simulated scan is empty")
    return SceneCase(case_id, scene, scan)


def random_scene_spec(seed: int, ground_half_extent: float,
                      density: float) -> SceneSpec:
    """A randomized office-junk scene: a few boxes, cylinders, and walls.

    Primitive counts, poses, and sizes derive from the seed alone. The
    area near the sensor origin is kept clear.

    Raises:
        ValueError: before any draw, on an extent below
            MIN_RANDOM_HALF_EXTENT or an extent or density that SceneSpec
            rejects.
    """
    if not ground_half_extent >= MIN_RANDOM_HALF_EXTENT:
        raise ValueError(
            f"ground_half_extent must be >= {MIN_RANDOM_HALF_EXTENT} to place "
            f"primitives clear of the sensor, got {ground_half_extent!r}"
        )
    spec = SceneSpec(ground_half_extent=ground_half_extent, density=density,
                     seed=seed)
    rng = np.random.default_rng([seed, 0x5CE2E])
    prims = []

    def clear_of_sensor(x, y, margin=0.8):
        return math.hypot(x, y) > margin

    def random_xy(margin):
        while True:
            x, y = rng.uniform(-ground_half_extent + margin,
                               ground_half_extent - margin, size=2)
            if clear_of_sensor(x, y):
                return x, y

    for _ in range(int(rng.integers(1, 4))):
        sx, sy, sz = rng.uniform(0.4, 1.4, size=3)
        x, y = random_xy(margin=1.0)
        prims.append(Box(center=(x, y, sz / 2.0), size=(sx, sy, sz),
                         yaw=float(rng.uniform(0, 2 * math.pi))))
    for _ in range(int(rng.integers(1, 3))):
        radius = float(rng.uniform(0.15, 0.45))
        height = float(rng.uniform(0.5, 1.8))
        x, y = random_xy(margin=0.6)
        prims.append(Cylinder(center=(x, y, 0.0), radius=radius, height=height))
    for _ in range(int(rng.integers(0, 3))):
        width = float(rng.uniform(1.0, 3.0))
        height = float(rng.uniform(0.6, 1.8))
        x, y = random_xy(margin=1.6)
        prims.append(Wall(center=(x, y, 0.0), width=width, height=height,
                          yaw=float(rng.uniform(0, 2 * math.pi))))
    return dataclasses.replace(spec, primitives=tuple(prims))
