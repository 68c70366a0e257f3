import numpy as np
import pytest

from flowcomplete import coupling, geometry
from oracles import nn_map_exhaustive


def random_cloud(rng, n):
    return rng.uniform(-1, 1, size=(n, 3))


class TestNoisyInitialCloud:
    def test_zero_noise_equals_tiling(self):
        rng = np.random.default_rng(0)
        scan = random_cloud(rng, 20)
        out = coupling.noisy_initial_cloud(scan, 3, coupling.NoiseConfig(0.0))
        assert np.array_equal(out, np.tile(scan, (3, 1)))

    def test_zero_noise_single_copy_identity(self):
        cloud = np.array([[1.0, 2.0, 3.0]])
        out = coupling.noisy_initial_cloud(cloud, 1, coupling.NoiseConfig(0.0))
        assert np.array_equal(out, cloud)

    def test_zero_noise_block_pattern(self):
        cloud = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = coupling.noisy_initial_cloud(cloud, 3, coupling.NoiseConfig(0.0))
        assert out.shape == (6, 3)
        for i in range(3):
            assert np.array_equal(out[2 * i:2 * i + 2], cloud)

    def test_zero_noise_scaled_size_product(self):
        # N scans tiled K times give M = K*N points (reduced-size check).
        rng = np.random.default_rng(37)
        scan = random_cloud(rng, 180)
        out = coupling.noisy_initial_cloud(scan, 10, coupling.NoiseConfig(0.0))
        assert out.shape == (1800, 3)

    def test_size_is_copies_times_scan(self):
        rng = np.random.default_rng(1)
        scan = random_cloud(rng, 17)
        out = coupling.noisy_initial_cloud(scan, 10, coupling.NoiseConfig(0.5, seed=4))
        assert out.shape == (170, 3)

    def test_seeded_and_deterministic(self):
        scan = np.array([[1.0, 2.0, 3.0]])
        cfg = coupling.NoiseConfig(scale=0.3, seed=99)
        a = coupling.noisy_initial_cloud(scan, 2, cfg)
        b = coupling.noisy_initial_cloud(scan, 2, cfg)
        assert np.array_equal(a, b)
        # both copies stay within ~4 sigma of the source point
        assert np.all(np.abs(a - scan) < 4 * 0.3)

    def test_offsets_are_centered_gaussian(self):
        # Sample mean over many draws stays within 3*sigma/sqrt(n) of the
        # original coordinate, per axis.
        scan = np.array([[1.0, 2.0, 3.0]])
        n = 10 ** 5
        out = coupling.noisy_initial_cloud(
            scan, n, coupling.NoiseConfig(scale=1.0, seed=7)
        )
        tol = 3.0 / np.sqrt(n)
        assert np.all(np.abs(out.mean(axis=0) - scan[0]) < tol)

    def test_empty_scan_error(self):
        with pytest.raises(ValueError, match="empty scan"):
            coupling.noisy_initial_cloud(np.empty((0, 3)), 2, coupling.NoiseConfig())

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            coupling.NoiseConfig(scale=-0.1)


class TestStraightFlow:
    def test_endpoints(self):
        x0 = np.array([1.0, 1.0, 1.0])
        x1 = np.array([3.0, 1.0, 1.0])
        pos0, v0 = coupling.straight_flow(x0, x1, 0.0)
        assert np.array_equal(pos0, x0)
        assert np.array_equal(v0, x1 - x0)
        pos1, v1 = coupling.straight_flow(x0, x1, 1.0)
        assert np.array_equal(pos1, x1)
        assert np.array_equal(v1, x1 - x0)

    def test_quarter_point(self):
        pos, v = coupling.straight_flow([0.0, 0.0, 0.0], [2.0, 0.0, 0.0], 0.25)
        assert pos.tolist() == [0.5, 0.0, 0.0]
        assert v.tolist() == [2.0, 0.0, 0.0]


class TestNearestNeighborFlow:
    def test_identical_clouds_degenerate(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng, 30)
        for t in (0.0, 0.3, 1.0):
            s = coupling.nearest_neighbor_flow(cloud, cloud, t)
            assert np.all(s.v_target == 0.0)
            assert np.allclose(s.x_t, cloud, atol=0)

    def test_single_source_two_targets(self):
        x0 = np.array([[0.0, 0.0, 0.0]])
        x1 = np.array([[1.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        s = coupling.nearest_neighbor_flow(x0, x1, 0.5)
        assert s.x_t.tolist() == [[0.5, 0.0, 0.0]]
        assert s.v_target.tolist() == [[1.0, 0.0, 0.0]]

    def test_endpoint_equals_oracle_targets(self):
        rng = np.random.default_rng(3)
        x0 = random_cloud(rng, 128)
        x1 = random_cloud(rng, 90)
        s = coupling.nearest_neighbor_flow(x0, x1, 1.0)
        want = x1[nn_map_exhaustive(x0, x1)]
        assert np.array_equal(s.x_t, want)

    def test_flow_algebra_identity(self):
        # x_t + (1 - t) * v equals the matched targets at machine precision.
        rng = np.random.default_rng(4)
        x0 = random_cloud(rng, 60)
        x1 = random_cloud(rng, 60)
        targets = x1[nn_map_exhaustive(x0, x1)]
        for t in (0.0, 0.125, 0.5, 0.9, 1.0):
            s = coupling.nearest_neighbor_flow(x0, x1, t)
            assert np.max(np.abs(s.x_t + (1 - t) * s.v_target - targets)) < 1e-12

    def test_velocity_constant_in_time(self):
        rng = np.random.default_rng(5)
        x0 = random_cloud(rng, 40)
        x1 = random_cloud(rng, 55)
        a = coupling.nearest_neighbor_flow(x0, x1, 0.2)
        b = coupling.nearest_neighbor_flow(x0, x1, 0.8)
        assert np.array_equal(a.v_target, b.v_target)

    def test_deterministic_interpolant(self):
        rng = np.random.default_rng(6)
        x0 = random_cloud(rng, 25)
        x1 = random_cloud(rng, 25)
        a = coupling.nearest_neighbor_flow(x0, x1, 0.37)
        b = coupling.nearest_neighbor_flow(x0, x1, 0.37)
        assert np.array_equal(a.x_t, b.x_t)
        assert np.array_equal(a.v_target, b.v_target)

    def test_carries_endpoints_and_condition(self):
        rng = np.random.default_rng(7)
        x0 = random_cloud(rng, 10)
        x1 = random_cloud(rng, 12)
        scan = random_cloud(rng, 5)
        s = coupling.nearest_neighbor_flow(x0, x1, 0.5, condition=scan)
        assert np.array_equal(s.x0, x0)
        assert np.array_equal(s.x1, x1)
        assert np.array_equal(s.condition, scan)

    def test_index_input_matches_array_input(self):
        # Target sizes around the brute-force limit, with a duplicate row.
        rng = np.random.default_rng(8)
        for n1 in (5, 31, 32, 33, 90):
            x0 = random_cloud(rng, 40)
            x1 = random_cloud(rng, n1)
            x1[-1] = x1[0]
            scan = random_cloud(rng, 6)
            t = float(rng.uniform())
            index = geometry.NeighborIndex(x1)
            a = coupling.nearest_neighbor_flow(x0, x1, t, condition=scan)
            b = coupling.nearest_neighbor_flow(x0, index, t, condition=scan)
            assert b.x1_index is index
            assert a.t == b.t
            assert a.condition is b.condition
            for name in ("x_t", "v_target", "x0", "x1"):
                got, want = getattr(b, name), getattr(a, name)
                assert type(got) is np.ndarray
                assert (got.shape, got.dtype) == (want.shape, want.dtype)
                assert got.tobytes() == want.tobytes(), name
            assert np.asarray(a.x1_index).tobytes() == x1.tobytes()


class TestSampleTime:
    def test_moments_and_range(self):
        rng = np.random.default_rng(123)
        draws = np.array([coupling.sample_time(rng) for _ in range(10 ** 5)])
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        assert abs(draws.mean() - 0.5) < 0.005

    def test_same_seed_same_sequence(self):
        a = [coupling.sample_time(np.random.default_rng(8)) for _ in range(1)]
        r1, r2 = np.random.default_rng(9), np.random.default_rng(9)
        s1 = [coupling.sample_time(r1) for _ in range(50)]
        s2 = [coupling.sample_time(r2) for _ in range(50)]
        assert s1 == s2

    def test_different_seeds_differ(self):
        s1 = [coupling.sample_time(np.random.default_rng(10)) for _ in range(10)]
        s2 = [coupling.sample_time(np.random.default_rng(11)) for _ in range(10)]
        assert s1 != s2


class TestDrawCondition:
    SCAN = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_never_null(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = coupling.draw_condition(self.SCAN, 0.0, rng)
            assert not d.is_null
            assert np.array_equal(d.outcome, self.SCAN)

    def test_always_null(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            assert coupling.draw_condition(self.SCAN, 1.0, rng).is_null

    def test_null_frequency_near_p(self):
        rng = np.random.default_rng(14)
        nulls = sum(
            coupling.draw_condition(self.SCAN, 0.1, rng).is_null
            for _ in range(10 ** 4)
        )
        assert abs(nulls / 10 ** 4 - 0.1) <= 0.01
