import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowcomplete import scenes
from oracles import first_hit_per_ray


def surface_residual(point, spec):
    """Distance from a point to the nearest scene surface, by direct math.

    Independent of the package's ray casting: evaluates the implicit
    surface equations of ground, boxes, cylinders, and walls.
    """
    x, y, z = point
    best = math.inf
    if abs(x) <= spec.ground_half_extent and abs(y) <= spec.ground_half_extent:
        best = abs(z)
    for prim in spec.primitives:
        if isinstance(prim, scenes.Box):
            c, s = math.cos(prim.yaw), math.sin(prim.yaw)
            px = c * (x - prim.center[0]) + s * (y - prim.center[1])
            py = -s * (x - prim.center[0]) + c * (y - prim.center[1])
            pz = z - prim.center[2]
            hx, hy, hz = (d / 2 for d in prim.size)
            # distance to the box boundary (onto-face when inside)
            q = [abs(px) - hx, abs(py) - hy, abs(pz) - hz]
            outside = math.sqrt(sum(max(v, 0.0) ** 2 for v in q))
            inside = abs(max(q)) if max(q) < 0 else 0.0
            best = min(best, outside if outside > 0 else inside)
        elif isinstance(prim, scenes.Cylinder):
            radial = math.hypot(x - prim.center[0], y - prim.center[1])
            z_lo = prim.center[2]
            z_hi = z_lo + prim.height
            dr = radial - prim.radius
            # lateral sheet
            dz_out = max(z_lo - z, z - z_hi, 0.0)
            best = min(best, math.hypot(dr, dz_out) if dr >= 0
                       else max(dz_out, 0.0) + abs(dr) * (dz_out == 0.0))
            # caps
            r_out = max(dr, 0.0)
            best = min(best, math.hypot(r_out, abs(z - z_hi)),
                       math.hypot(r_out, abs(z - z_lo)))
        elif isinstance(prim, scenes.Wall):
            c, s = math.cos(prim.yaw), math.sin(prim.yaw)
            px = c * (x - prim.center[0]) + s * (y - prim.center[1])
            py = -s * (x - prim.center[0]) + c * (y - prim.center[1])
            pz = z - prim.center[2]
            dy = max(abs(py) - prim.width / 2, 0.0)
            dz = max(-pz, pz - prim.height, 0.0)
            best = min(best, math.sqrt(px ** 2 + dy ** 2 + dz ** 2))
    return best


class TestPrimitives:
    def test_degenerate_box(self):
        with pytest.raises(ValueError, match="degenerate"):
            scenes.Box(center=(0, 0, 0), size=(1.0, 0.0, 1.0))

    def test_degenerate_cylinder(self):
        with pytest.raises(ValueError, match="degenerate"):
            scenes.Cylinder(center=(0, 0, 0), radius=-1.0, height=1.0)

    def test_degenerate_wall(self):
        with pytest.raises(ValueError, match="degenerate"):
            scenes.Wall(center=(0, 0, 0), width=1.0, height=0.0)

    def test_box_samples_lie_on_faces(self):
        box = scenes.Box(center=(1.0, -2.0, 0.5), size=(1.0, 2.0, 1.0), yaw=0.7)
        pts = box.sample_surface(500, np.random.default_rng(0))
        spec = scenes.SceneSpec(primitives=(box,))
        for p in pts:
            assert surface_residual(p, spec) < 1e-9

    def test_cylinder_samples_lie_on_surface(self):
        cyl = scenes.Cylinder(center=(0.5, 0.5, 0.0), radius=0.4, height=1.2)
        pts = cyl.sample_surface(500, np.random.default_rng(1))
        for p in pts:
            radial = math.hypot(p[0] - 0.5, p[1] - 0.5)
            on_lateral = abs(radial - 0.4) < 1e-9 and -1e-9 <= p[2] <= 1.2 + 1e-9
            on_cap = radial <= 0.4 + 1e-9 and (abs(p[2]) < 1e-9 or abs(p[2] - 1.2) < 1e-9)
            assert on_lateral or on_cap

    def test_wall_samples_in_plane(self):
        wall = scenes.Wall(center=(2.0, 0.0, 0.0), width=2.0, height=1.0, yaw=1.1)
        pts = wall.sample_surface(200, np.random.default_rng(2))
        normal = np.array([math.cos(1.1), math.sin(1.1), 0.0])
        for p in pts:
            assert abs(np.dot(p - np.array([2.0, 0.0, 0.0]), normal)) < 1e-9


class TestGenerateScene:
    def test_wall_only_count_and_planarity(self):
        # a 1 m x 1 m surface at density 100 gives about 100 points
        wall = scenes.Wall(center=(2.0, 0.0, 0.0), width=1.0, height=1.0)
        spec = scenes.SceneSpec(ground_half_extent=0.001, primitives=(),
                                density=100.0, seed=5)
        # isolate the wall: shrink the ground so its area is negligible
        spec = scenes.SceneSpec(ground_half_extent=3.0, primitives=(wall,),
                                density=100.0, seed=5)
        cloud = scenes.generate_scene(spec)
        wall_pts = cloud[np.abs(cloud[:, 2]) > 1e-12]
        assert 60 <= len(wall_pts) <= 150  # Poisson(100) stays inside easily
        for p in wall_pts:
            assert abs(p[0] - 2.0) < 1e-9

    def test_empty_primitive_list_gives_ground_only(self):
        spec = scenes.SceneSpec(ground_half_extent=2.0, primitives=(),
                                density=30.0, seed=6)
        cloud = scenes.generate_scene(spec)
        assert len(cloud) > 0
        assert np.all(cloud[:, 2] == 0.0)
        assert np.all(np.abs(cloud[:, :2]) <= 2.0)

    def test_same_seed_identical(self):
        spec = scenes.random_scene_spec(seed=7)
        a = scenes.generate_scene(spec)
        b = scenes.generate_scene(spec)
        assert np.array_equal(a, b)

    def test_all_points_on_surfaces(self):
        spec = scenes.random_scene_spec(seed=8, density=20.0)
        cloud = scenes.generate_scene(spec)
        for p in cloud[:: max(1, len(cloud) // 200)]:
            assert surface_residual(p, spec) < 1e-9

    def test_primitive_outside_extent_rejected(self):
        with pytest.raises(ValueError, match="outside ground extent"):
            scenes.SceneSpec(
                ground_half_extent=1.0,
                primitives=(scenes.Cylinder(center=(5.0, 0.0, 0.0),
                                            radius=0.2, height=1.0),),
            )


class TestSimulateScan:
    def test_occlusion_shadow_empty(self):
        # A box between the sensor and a wall: no returns on the shadowed
        # band of the wall behind it.
        box = scenes.Box(center=(2.0, 0.0, 0.5), size=(1.0, 1.0, 1.0))
        wall = scenes.Wall(center=(3.5, 0.0, 0.0), width=3.0, height=1.0,
                           yaw=math.pi)  # facing the sensor
        spec = scenes.SceneSpec(ground_half_extent=4.0, primitives=(box, wall),
                                density=50.0, seed=9)
        scan_spec = scenes.ScanSpec(origin=(0.0, 0.0, 0.5), azimuth_count=720,
                                    elevation_count=5,
                                    elevation_range=(-0.05, 0.05),
                                    max_range=12.0, seed=9)
        scan = scenes.simulate_scan(spec, scan_spec)
        on_wall = scan[np.abs(scan[:, 0] - 3.5) < 1e-6]
        # the box spans y in [-0.5, 0.5] from x in [1.5, 2.5]; rays through
        # it cannot reach the wall near y = 0
        assert len(on_wall) > 0
        assert np.all(np.abs(on_wall[:, 1]) > 0.4)

    def test_dropout_one_empties_scan(self):
        spec = scenes.random_scene_spec(seed=10)
        scan = scenes.simulate_scan(spec, scenes.ScanSpec(dropout=1.0, seed=1))
        assert len(scan) == 0

    def test_returns_lie_on_surfaces(self):
        spec = scenes.random_scene_spec(seed=11)
        scan = scenes.simulate_scan(spec, scenes.ScanSpec(seed=2))
        assert len(scan) > 0
        for p in scan[:: max(1, len(scan) // 200)]:
            assert surface_residual(p, spec) < 1e-6

    def test_max_range_respected(self):
        spec = scenes.random_scene_spec(seed=12, ground_half_extent=8.0)
        scan_spec = scenes.ScanSpec(origin=(0.0, 0.0, 0.6), max_range=3.0, seed=3)
        scan = scenes.simulate_scan(spec, scan_spec)
        dists = np.linalg.norm(scan - np.array([0.0, 0.0, 0.6]), axis=1)
        assert np.all(dists <= 3.0 + 1e-9)

    def test_budget_subsampling(self):
        spec = scenes.random_scene_spec(seed=13)
        scan = scenes.simulate_scan(spec, scenes.ScanSpec(budget=100, seed=4))
        assert len(scan) == 100

    def test_deterministic(self):
        spec = scenes.random_scene_spec(seed=14)
        cfg = scenes.ScanSpec(dropout=0.1, budget=128, seed=5)
        a = scenes.simulate_scan(spec, cfg)
        b = scenes.simulate_scan(spec, cfg)
        assert np.array_equal(a, b)


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


_SLAB_BOXES = (
    # a sensor at z = 0.6 lies inside every box's z slab (on the boundary
    # of the third), so level rays run parallel to a slab they start in;
    # at yaw 0 the azimuth-0 rays have d_y == 0 exactly
    scenes.Box(center=(2.0, 0.0, 0.5), size=(1.0, 1.0, 1.2), yaw=0.0),
    scenes.Box(center=(-1.5, 1.5, 0.4), size=(0.8, 0.6, 1.0), yaw=math.pi / 2),
    scenes.Box(center=(0.0, -2.5, 0.3), size=(0.6, 0.6, 0.6), yaw=0.0),
)
_FACING_WALL = scenes.Wall(center=(3.5, 0.0, 0.0), width=3.0, height=1.0,
                           yaw=math.pi)
_CYLINDER = scenes.Cylinder(center=(-2.0, -1.0, 0.0), radius=0.3, height=0.9)
_LEVEL_RAYS = dict(azimuth_count=72, elevation_count=5,
                   elevation_range=(-0.2, 0.2))


@pytest.mark.filterwarnings("error")
class TestScanMatchesPerRayOracle:
    """simulate_scan reproduces the one-ray-at-a-time cast bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_scenes(self, seed):
        spec = scenes.random_scene_spec(seed=300 + seed)
        scan = scenes.ScanSpec(azimuth_count=120, elevation_count=9,
                               dropout=0.1 * (seed % 3),
                               budget=(None, 200)[seed % 2], seed=seed)
        assert_same_bytes(scenes.simulate_scan(spec, scan),
                          first_hit_per_ray(spec, scan))

    @pytest.mark.parametrize("scan", [
        scenes.ScanSpec(**_LEVEL_RAYS),
        scenes.ScanSpec(**_LEVEL_RAYS, budget=64, seed=3),
        scenes.ScanSpec(**_LEVEL_RAYS, max_range=2.2),
        scenes.ScanSpec(origin=(0.0, 0.0, 0.6), azimuth_count=4,
                        elevation_count=3, elevation_range=(-0.3, 0.3)),
        # sensor inside the first box
        scenes.ScanSpec(origin=(2.0, 0.0, 0.3), azimuth_count=36,
                        elevation_count=7, elevation_range=(-0.6, 0.6)),
    ])
    def test_edge_cases(self, scan):
        spec = scenes.SceneSpec(
            ground_half_extent=4.0,
            primitives=(*_SLAB_BOXES, _FACING_WALL, _CYLINDER), seed=1)
        elevations = np.linspace(*scan.elevation_range, scan.elevation_count)
        assert 0.0 in elevations  # level rays: d_z == 0 exactly
        assert_same_bytes(scenes.simulate_scan(spec, scan),
                          first_hit_per_ray(spec, scan))

    def test_max_range_clips_rays(self):
        spec = scenes.SceneSpec(primitives=(_FACING_WALL,))
        near = scenes.ScanSpec(**_LEVEL_RAYS, max_range=3.6)
        far = scenes.ScanSpec(**_LEVEL_RAYS)
        clipped = scenes.simulate_scan(spec, near)
        assert 0 < len(clipped) < len(scenes.simulate_scan(spec, far))
        assert_same_bytes(clipped, first_hit_per_ray(spec, near))


class TestBuildCase:
    def test_case_shapes(self):
        case = scenes.build_case(
            "case-000", scenes.random_scene_spec(seed=15),
            scenes.ScanSpec(budget=256, seed=6),
        )
        assert len(case.scan) == 256
        assert len(case.scan) <= len(case.scene)
        assert case.case_id == "case-000"

    def test_empty_scan_rejected(self):
        spec = scenes.random_scene_spec(seed=16)
        with pytest.raises(ValueError, match="empty"):
            scenes.build_case("case-001", spec,
                              scenes.ScanSpec(dropout=1.0, seed=7))


class TestRandomSceneSpecExtent:
    @pytest.mark.parametrize("extent", [2.39, 2.17, 2.0, 1.0, 0.0, -4.0, math.nan])
    def test_small_extent_rejected_before_any_draw(self, extent, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("rng built before the extent check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="ground_half_extent must be >= 2.4"):
            scenes.random_scene_spec(seed=0, ground_half_extent=extent)

    def test_smallest_extent_places_every_seed(self):
        # In a child process, so that a placement loop that never ends
        # fails the test instead of hanging the run.
        program = (
            "from flowcomplete import scenes\n"
            "for seed in range(50):\n"
            "    spec = scenes.random_scene_spec(seed, scenes.MIN_RANDOM_HALF_EXTENT)\n"
            "    assert spec.primitives\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", program], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
