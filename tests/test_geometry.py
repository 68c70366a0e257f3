import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcomplete import geometry
from oracles import (
    bev_counts_recount,
    chamfer_mean_exhaustive,
    chamfer_sum_exhaustive,
    farthest_point_loop,
    min_pairwise_distance,
    nn_map_exhaustive,
    voxel_cells_recount,
)


def random_cloud(rng, n, scale=1.0):
    return rng.uniform(-scale, scale, size=(n, 3))


class TestAsCloud:
    def test_accepts_lists(self):
        out = geometry.as_cloud([[0, 0, 0], [1, 2, 3]])
        assert out.shape == (2, 3)
        assert out.dtype == np.float64

    def test_empty_ok(self):
        assert geometry.as_cloud([]).shape == (0, 3)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="n, 3"):
            geometry.as_cloud([[1, 2], [3, 4]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            geometry.as_cloud([[0.0, np.nan, 0.0]])


class TestNearestNeighborMap:
    def test_identity_case(self):
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert geometry.nearest_neighbor_map(cloud, cloud).tolist() == [0, 1]

    def test_unique_closest(self):
        src = np.array([[0.0, 0.0, 0.0]])
        tgt = np.array([[5.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert geometry.nearest_neighbor_map(src, tgt).tolist() == [1]

    def test_empty_source(self):
        out = geometry.nearest_neighbor_map(
            np.empty((0, 3)), np.array([[1.0, 2.0, 3.0]])
        )
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_empty_target_error(self):
        with pytest.raises(ValueError, match="empty target cloud"):
            geometry.nearest_neighbor_map(np.zeros((1, 3)), np.empty((0, 3)))

    def test_tie_breaks_to_lowest_index(self):
        # Two targets equidistant from the origin; duplicates too.
        src = np.array([[0.0, 0.0, 0.0]])
        tgt = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert geometry.nearest_neighbor_map(src, tgt).tolist() == [0]

    def test_duplicate_targets_lowest_index(self):
        src = np.array([[0.0, 0.0, 0.0]])
        tgt = np.tile(np.array([[1.0, 0.0, 0.0]]), (40, 1))
        tgt[0] = [2.0, 0.0, 0.0]  # index 1 is now the first of the nearest copies
        assert geometry.nearest_neighbor_map(src, tgt).tolist() == [1]

    def test_matches_exhaustive_scan(self):
        # Mix of sizes straddling the brute-force/tree switch.
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(1, 257))
            m = int(rng.integers(1, 257))
            src = random_cloud(rng, n)
            tgt = random_cloud(rng, m)
            got = geometry.nearest_neighbor_map(src, tgt)
            assert np.array_equal(got, nn_map_exhaustive(src, tgt))

    def test_self_map_is_identity_for_distinct_points(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, 100)
        assert np.array_equal(
            geometry.nearest_neighbor_map(cloud, cloud), np.arange(100)
        )

    def test_duplicated_target_ties_against_oracle(self):
        rng = np.random.default_rng(13)
        base = random_cloud(rng, 50)
        tgt = np.vstack([base, base[::2]])  # exact duplicate rows
        src = base + rng.normal(scale=0.05, size=base.shape)
        got = geometry.nearest_neighbor_map(src, tgt)
        assert np.array_equal(got, nn_map_exhaustive(src, tgt))


class TestChamferDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(rng, 30)
        assert geometry.chamfer_distance(cloud, cloud) == 0.0

    def test_single_pair(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0]])
        assert geometry.chamfer_distance(a, b) == pytest.approx(2.0, abs=0)

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty cloud in chamfer"):
            geometry.chamfer_distance(np.empty((0, 3)), np.zeros((1, 3)))

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a = random_cloud(rng, 40)
        b = random_cloud(rng, 25)
        assert geometry.chamfer_distance(a, b) == pytest.approx(
            geometry.chamfer_distance(b, a), rel=1e-12
        )

    def test_matches_double_loop(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            a = random_cloud(rng, int(rng.integers(1, 257)))
            b = random_cloud(rng, int(rng.integers(1, 257)))
            got = geometry.chamfer_distance(a, b)
            want = chamfer_sum_exhaustive(a, b)
            assert got == pytest.approx(want, rel=1e-9)

    def test_mean_variant_uniform_shift(self):
        # Well-separated points shifted by d: the mean form reports d.
        a = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0]])
        b = a + np.array([0.25, 0.0, 0.0])
        assert geometry.chamfer_distance_mean(a, b) == pytest.approx(0.25, rel=1e-12)

    def test_mean_variant_matches_oracle(self):
        rng = np.random.default_rng(19)
        a = random_cloud(rng, 60)
        b = random_cloud(rng, 90)
        assert geometry.chamfer_distance_mean(a, b) == pytest.approx(
            chamfer_mean_exhaustive(a, b), rel=1e-9
        )


class TestFarthestPointSample:
    def test_full_sample_is_permutation(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng, 12)
        out = geometry.farthest_point_sample(cloud, 12, seed=0)
        assert sorted(map(tuple, out.tolist())) == sorted(map(tuple, cloud.tolist()))

    def test_collinear_endpoints(self):
        cloud = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        # Find a seed whose first uniform draw lands on index 0.
        seed = next(
            s for s in range(100)
            if np.random.default_rng(s).integers(3) == 0
        )
        out = geometry.farthest_point_sample(cloud, 2, seed=seed)
        assert out.tolist() == [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]

    @pytest.mark.parametrize("n", [1, 7, 600, 2500])
    def test_matches_per_pick_loop(self, n):
        rng = np.random.default_rng(n)
        cloud = random_cloud(rng, n, scale=4.0)
        cloud[rng.integers(n, size=n // 4)] = cloud[rng.integers(n, size=n // 4)]
        count = min(n, 256)
        for seed in range(3):
            fast = geometry.farthest_point_sample(cloud, count, seed=seed)
            assert fast.tobytes() == farthest_point_loop(cloud, count, seed).tobytes()

    def test_oversample_error(self):
        with pytest.raises(ValueError, match="sample size exceeds cloud"):
            geometry.farthest_point_sample(np.zeros((2, 3)), 3)

    def test_deterministic_and_subset(self):
        rng = np.random.default_rng(29)
        cloud = random_cloud(rng, 50)
        a = geometry.farthest_point_sample(cloud, 10, seed=42)
        b = geometry.farthest_point_sample(cloud, 10, seed=42)
        assert np.array_equal(a, b)
        rows = {tuple(r) for r in cloud.tolist()}
        assert all(tuple(r) in rows for r in a.tolist())

    def test_disperses_better_than_random_subsets(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, 64)
        fps = geometry.farthest_point_sample(cloud, 8, seed=1)
        fps_spread = min_pairwise_distance(fps)
        medians = []
        for _ in range(100):
            pick = rng.choice(64, size=8, replace=False)
            medians.append(min_pairwise_distance(cloud[pick]))
        assert fps_spread >= float(np.median(medians))


class TestTileCloud:
    def test_single_copy_identity(self):
        cloud = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(geometry.tile_cloud(cloud, 1), cloud)

    def test_block_pattern(self):
        cloud = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = geometry.tile_cloud(cloud, 3)
        assert out.shape == (6, 3)
        for i in range(3):
            assert np.array_equal(out[2 * i:2 * i + 2], cloud)

    def test_scaled_size_product(self):
        # N scans tiled K times give M = K*N points (reduced-size check).
        rng = np.random.default_rng(37)
        scan = random_cloud(rng, 180)
        assert geometry.tile_cloud(scan, 10).shape == (1800, 3)

    def test_bad_count(self):
        with pytest.raises(ValueError, match="copies"):
            geometry.tile_cloud(np.zeros((1, 3)), 0)


class TestVoxelize:
    def test_single_point(self):
        vs = geometry.voxelize(np.array([[0.05, 0.05, 0.05]]), 0.1)
        assert vs.occupied == {(0, 0, 0)}

    def test_two_points_one_cell(self):
        pts = np.array([[0.01, 0.01, 0.01], [0.09, 0.09, 0.09]])
        assert len(geometry.voxelize(pts, 0.1)) == 1

    def test_bad_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            geometry.voxelize(np.zeros((1, 3)), 0.0)

    def test_matches_recount(self):
        rng = np.random.default_rng(41)
        cloud = random_cloud(rng, 300, scale=4.0)
        vs = geometry.voxelize(cloud, 0.5)
        assert vs.occupied == voxel_cells_recount(cloud, 0.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(43)
        cloud = random_cloud(rng, 120)
        shuffled = cloud[rng.permutation(120)]
        assert geometry.voxelize(cloud, 0.2).occupied == \
            geometry.voxelize(shuffled, 0.2).occupied

    def test_origin_shift(self):
        vs = geometry.voxelize(np.array([[0.05, 0.05, 0.05]]), 0.1,
                               origin=(0.05, 0.05, 0.05))
        assert vs.occupied == {(0, 0, 0)}


class TestBevHistogram:
    EXTENT = (-1.0, 1.0, -1.0, 1.0)

    def test_empty_cloud(self):
        h = geometry.bev_histogram(np.empty((0, 3)), 0.5, self.EXTENT)
        assert h.counts.shape == (4, 4)
        assert h.counts.sum() == 0
        assert h.dropped == 0

    def test_four_points_one_cell(self):
        pts = np.array([
            [0.1, 0.1, 0.0], [0.2, 0.2, 5.0], [0.3, 0.3, -5.0], [0.4, 0.4, 1.0],
        ])
        h = geometry.bev_histogram(pts, 0.5, self.EXTENT)
        assert h.counts[2, 2] == 4
        assert h.counts.sum() == 4

    def test_out_of_extent_dropped(self):
        pts = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        h = geometry.bev_histogram(pts, 0.5, self.EXTENT)
        assert h.dropped == 1
        assert h.counts.sum() == 1

    def test_matches_recount(self):
        rng = np.random.default_rng(47)
        cloud = random_cloud(rng, 500, scale=1.4)  # some points out of extent
        h = geometry.bev_histogram(cloud, 0.5, self.EXTENT)
        counts, dropped = bev_counts_recount(cloud, 0.5, self.EXTENT)
        assert np.array_equal(h.counts, counts)
        assert h.dropped == dropped

    def test_degenerate_extent(self):
        with pytest.raises(ValueError, match="extent"):
            geometry.bev_histogram(np.zeros((1, 3)), 0.5, (0.0, 0.0, -1.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10 ** 6))
def test_nn_map_matches_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-1, 1, size=(n, 3))
    tgt = rng.uniform(-1, 1, size=(int(rng.integers(1, 60)), 3))
    assert np.array_equal(
        geometry.nearest_neighbor_map(src, tgt), nn_map_exhaustive(src, tgt)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_chamfer_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(int(rng.integers(1, 50)), 3))
    b = rng.uniform(-1, 1, size=(int(rng.integers(1, 50)), 3))
    assert geometry.chamfer_distance(a, b) == pytest.approx(
        geometry.chamfer_distance(b, a), rel=1e-12
    )


# Coordinates on a coarse lattice, with both signed zeros, so that drawn
# clouds hold duplicate rows and exact distance ties.
LATTICE = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
# Target sizes around BRUTE_FORCE_LIMIT (32), plus a spread of others.
TARGET_SIZES = st.one_of(st.sampled_from([31, 32, 33]), st.integers(1, 80))


def lattice_cloud(sizes):
    return sizes.flatmap(lambda n: arrays(np.float64, (n, 3), elements=LATTICE))


def random_or_lattice_cloud(sizes):
    uniform = st.tuples(sizes, st.integers(0, 2 ** 32 - 1)).map(
        lambda ns: np.random.default_rng(ns[1]).uniform(-1, 1, size=(ns[0], 3)))
    return st.one_of(lattice_cloud(sizes), uniform)


def one_point_cloud():
    # A target whose rows are all one point (signed zeros included).
    return st.tuples(arrays(np.float64, 3, elements=LATTICE),
                     TARGET_SIZES).map(lambda rn: np.tile(rn[0], (rn[1], 1)))


TARGETS = st.one_of(random_or_lattice_cloud(TARGET_SIZES), one_point_cloud())
SOURCES = lattice_cloud(st.integers(0, 40))


@settings(max_examples=200, deadline=None)
@given(TARGETS, SOURCES)
def test_neighbor_index_matches_oracle_property(tgt, src):
    got = geometry.NeighborIndex(tgt).query(src)
    assert got.dtype == np.int64
    assert np.array_equal(got, nn_map_exhaustive(src, tgt))


@settings(max_examples=50, deadline=None)
@given(TARGETS, st.lists(SOURCES, min_size=1, max_size=5))
def test_neighbor_index_reuse_matches_fresh_maps_property(tgt, sources):
    index = geometry.NeighborIndex(tgt)
    for src in sources:
        assert np.array_equal(index.query(src),
                              geometry.nearest_neighbor_map(src, tgt))
        assert np.array_equal(geometry.nearest_neighbor_map(src, index),
                              geometry.nearest_neighbor_map(src, tgt))


@settings(max_examples=50, deadline=None)
@given(TARGETS, SOURCES)
def test_neighbor_index_ignores_later_writes_property(tgt, src):
    original = tgt.copy()
    index = geometry.NeighborIndex(tgt)
    tgt[:] = tgt[::-1] + 3.0
    assert np.array_equal(index.query(src), nn_map_exhaustive(src, original))
    assert np.asarray(index).tobytes() == original.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_or_lattice_cloud(st.integers(1, 300)), one_point_cloud(),
                 # 8 copies of each row, interleaved
                 random_or_lattice_cloud(st.integers(1, 40)).map(
                     lambda c: np.tile(c, (8, 1)))))
def test_unique_rows_matches_numpy_unique_property(cloud):
    rows, lowest = geometry._unique_rows(cloud)
    want_rows, want_lowest = np.unique(cloud, axis=0, return_index=True)
    assert rows.tobytes() == want_rows.tobytes()
    assert lowest.dtype == np.int64
    assert np.array_equal(lowest, want_lowest)


class TestNeighborIndex:
    def test_array_view_and_length_are_the_original_rows(self):
        # perfbench/spans.py reads the target of every NN map this way.
        rng = np.random.default_rng(53)
        for n in (1, 31, 32, 33, 200):
            cloud = random_cloud(rng, n)
            cloud[n // 2] = cloud[0]  # a duplicate row
            index = geometry.NeighborIndex(cloud)
            assert len(index) == n
            assert np.asarray(index).tobytes() == cloud.tobytes()
            as_f64 = np.asarray(index, dtype=np.float64).reshape(-1, 3)
            assert as_f64.tobytes() == cloud.tobytes()
            assert np.array_equal(np.asarray(index, dtype=np.float32),
                                  cloud.astype(np.float32))
            assert np.array(index, copy=True).flags.writeable

    def test_rows_are_read_only(self):
        index = geometry.NeighborIndex(np.zeros((40, 3)))
        with pytest.raises(ValueError):
            np.asarray(index)[0, 0] = 1.0

    def test_empty_target_error(self):
        with pytest.raises(ValueError, match="empty target cloud"):
            geometry.NeighborIndex(np.empty((0, 3)))

    def test_invalid_target_error(self):
        with pytest.raises(ValueError, match="finite"):
            geometry.NeighborIndex([[0.0, np.inf, 0.0]])

    def test_empty_source(self):
        out = geometry.NeighborIndex(np.zeros((40, 3))).query(np.empty((0, 3)))
        assert out.shape == (0,)
        assert out.dtype == np.int64
