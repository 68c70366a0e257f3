import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcomplete import geometry
from oracles import (
    bev_counts_recount,
    cell_span_product,
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

    def test_int64_range_edges(self):
        low = geometry.voxelize([[-2.0 ** 63, 0, 0], [0, 0, 0]], 1.0)
        assert low.occupied == {(-2 ** 63, 0, 0), (0, 0, 0)}
        with pytest.raises(ValueError, match="out of int64 range"):
            geometry.voxelize([[2.0 ** 63, 0, 0]], 1.0)

    def test_keys_of_empty_cloud(self):
        empty, two = geometry.voxel_keys([np.empty((0, 3)), np.zeros((2, 3))], 0.5)
        assert (empty.dtype, len(empty), len(two)) == (np.int64, 0, 1)


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

    def test_upper_edges_dropped_and_just_below_clipped(self):
        below = np.nextafter(1.0, 0.0)
        # x - xmin rounds up to 2.0, so the floored cell is nx and only the
        # clip keeps the point in the last cell
        assert np.floor((below - self.EXTENT[0]) / 0.5) == 4
        pts = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],  # on the edges
            [below, 0.0, 0.0], [0.0, below, 0.0], [below, below, 0.0],
        ])
        h = geometry.bev_histogram(pts, 0.5, self.EXTENT)
        counts, dropped = bev_counts_recount(pts, 0.5, self.EXTENT)
        assert h.counts.dtype == np.int64
        assert np.array_equal(h.counts, counts)
        assert h.dropped == dropped == 3
        assert (h.counts[3, 2], h.counts[2, 3], h.counts[3, 3]) == (1, 1, 1)


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
# Target sizes from one row up, with 31-33 drawn often as fixed mid-size
# targets, so both tiny and larger trees are checked against the oracle.
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

# Both ways an index is built: a kept NeighborIndex's balanced tree, and the
# single-use sliding-midpoint tree of neighbor_index over a cloud, whose
# (max + min) / 2 splits meet the +-1.7e308 rows of the extreme cases.
BUILDS = (geometry.NeighborIndex, geometry.neighbor_index)


@settings(max_examples=200, deadline=None)
@given(TARGETS, SOURCES)
def test_neighbor_index_matches_oracle_property(tgt, src):
    for build in BUILDS:
        got = build(tgt).query(src)
        assert got.dtype == np.int64
        assert np.array_equal(got, nn_map_exhaustive(src, tgt)), build


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


def repeated_row_target(lattice, count, seed):
    # the lattice rows with one of them repeated `count` more times, shuffled
    rng = np.random.default_rng(seed)
    row = lattice[rng.integers(len(lattice))]
    rows = np.vstack([lattice, np.tile(row, (count, 1))])
    return rows[rng.permutation(len(rows))], row, count


REPEATED_ROW_TARGETS = st.builds(repeated_row_target,
                                 lattice_cloud(st.integers(1, 60)),
                                 st.integers(2, 100), st.integers(0, 2 ** 32 - 1))


class QuerySpy:
    """Stands in for an index's tree and records the rows and k of each query."""

    def __init__(self, tree):
        self.tree = tree
        self.calls = []

    def query(self, rows, k):
        self.calls.append((rows.copy(), k))
        return self.tree.query(rows, k=k)


@settings(max_examples=100, deadline=None)
@given(REPEATED_ROW_TARGETS, SOURCES)
def test_repeated_rows_resolve_in_the_tree_property(case, src):
    tgt, row, count = case
    # a source row on the repeated row ties with every copy of it
    src = np.vstack([src, row])
    want = nn_map_exhaustive(src, tgt)
    for build in BUILDS:
        index = build(tgt)
        spy = index._tree = QuerySpy(index._tree)
        for source in (src, build(src)):
            assert np.array_equal(geometry.nearest_neighbor_map(source, index),
                                  want), build
        if count >= 8:
            # still tied at k = 8, so the tie query widens at least three times
            assert len({k for _, k in spy.calls if k > 2}) >= 3


ROW_CLOUDS = st.one_of(
    random_or_lattice_cloud(st.integers(1, 300)), one_point_cloud(),
    # 8 copies of each row, interleaved
    random_or_lattice_cloud(st.integers(1, 40)).map(lambda c: np.tile(c, (8, 1))),
    # rows of signed zeros: all equal, most of them not bit for bit
    st.integers(1, 8).flatmap(lambda n: arrays(
        np.float64, (n, 3), elements=st.sampled_from([-0.0, 0.0]))))


@settings(max_examples=200, deadline=None)
@given(ROW_CLOUDS, TARGETS)
@example(np.array([[0.5, -0.0, 1.0]]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]))
def test_source_index_matches_oracle_property(src, tgt):
    # every source index is read in its tree's leaf order, repeated rows
    # (the lattice and tiled clouds) included
    want = nn_map_exhaustive(src, tgt)
    for build in BUILDS:
        got = geometry.nearest_neighbor_map(build(src), build(tgt))
        assert got.dtype == np.int64
        assert np.array_equal(got, geometry.nearest_neighbor_map(src, tgt)), build
        assert np.array_equal(got, want), build


def walk_step(x, kind, seed, scale):
    """The next source of a random walk over a target of coordinates of
    size `scale`: a small move, a jump past any reuse bound, a snap to the
    lattice (exact ties, both signed zeros), a new row count, or a move so
    far that the squared distances overflow."""
    rng = np.random.default_rng(seed)
    if kind == "small":
        # a common drift plus a spread, as the points of a flow move
        drift = rng.normal(scale=0.02 * scale, size=3)
        return x + drift + rng.normal(scale=0.01 * scale, size=x.shape)
    if kind == "jump":
        return x + rng.normal(scale=0.5 * scale, size=x.shape)
    if kind == "snap":
        return np.round(2.0 * x / scale) / 2.0 * scale
    if kind == "resize":
        count = int(rng.integers(0, 41))
        count += count == len(x)
        return rng.uniform(-scale, scale, size=(count, 3))
    return x + rng.uniform(-2.0 ** 600, 2.0 ** 600, size=x.shape)


WALKS = st.lists(st.tuples(st.sampled_from(["small", "jump", "snap", "resize", "far"]),
                           st.integers(0, 2 ** 32 - 1)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.one_of(TARGETS, REPEATED_ROW_TARGETS.map(lambda case: case[0])),
       random_or_lattice_cloud(st.integers(0, 40)), WALKS,
       st.sampled_from([1.0, 2.0 ** 500]))
@example(np.array([[0.5, -0.0, 1.0]]), np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]),
         [("small", 1), ("far", 2), ("small", 3), ("resize", 4), ("jump", 5)], 1.0)
def test_tracking_index_matches_oracle_along_a_walk_property(tgt, x, walk, scale):
    # every answer along the walk equals a fresh plain index's and the
    # exhaustive scan's, and an overflow raises as the plain index does;
    # at scale 2**500 the distances are near, not beyond, the overflow
    tgt, x = tgt * scale, x * scale
    tracking = geometry.TrackingNeighborIndex(tgt)
    plain = geometry.NeighborIndex(tgt)
    for kind, seed in [*walk, (None, None)]:
        try:
            want = plain.query(x)
        except geometry.DistanceOverflowError:
            with pytest.raises(geometry.DistanceOverflowError):
                tracking.query(x)
        else:
            got = tracking.query(x)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(got, nn_map_exhaustive(x, tgt))
        if kind is not None:
            x = walk_step(x, kind, seed, scale)


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

    @pytest.mark.parametrize("tgt, src", [
        # rows whose squared distances to each other overflow, with and
        # without a repeated row; each source is a target row, so no query
        # distance overflows
        ([[1.7e308, 1.7e308, 1.7e308], [-1.7e308, -1.7e308, -1.7e308],
          [1.7e308, 1.7e308, 1.6e308], [1.7e308, -1.7e308, 1.7e308]],
         [[1.7e308, 1.7e308, 1.6e308], [-1.7e308, -1.7e308, -1.7e308],
          [1.7e308, 1.7e308, 1.7e308]]),
        ([[1.7e308, 1.7e308, 1.7e308], [-1.7e308, -1.7e308, -1.7e308],
          [1.7e308, 1.7e308, 1.7e308], [0.0, 0.0, 0.0]],
         [[1.7e308, 1.7e308, 1.7e308], [0.0, 0.0, 0.0]]),
        # rows equal up to the sign of zero
        ([[0.0, -0.0, 1.0], [1.0, 0.0, 0.0], [-0.0, 0.0, 1.0], [0.0, 0.0, -0.0],
          [-0.0, -0.0, 0.0]],
         [[0.0, 0.0, 1.0], [-0.0, -0.0, -0.0], [0.5, 0.0, 0.5], [1.0, -0.0, 0.0]]),
    ], ids=["huge", "huge_repeated", "signed_zeros"])
    def test_extreme_and_signed_zero_rows_match_oracle(self, tgt, src):
        tgt = np.array(tgt)
        src = np.array(src)
        with np.errstate(over="ignore"):  # the oracle's differences overflow
            want = nn_map_exhaustive(src, tgt)
        for build in BUILDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = build(tgt).query(src)
            assert np.array_equal(got, want), build

    def test_overflowing_nearest_distance_is_value_error(self):
        # both squared distances overflow to inf, so the tree cannot tell
        # that row 1 is nearer
        for build in BUILDS:
            index = build([[1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError,
                                   match="distance overflows float64") as exc:
                    index.query([[-1e308, 0.0, 0.0]])
            # training reports a step that moves points this far as divergence
            assert isinstance(exc.value, FloatingPointError)

    def test_source_index_rows_arrive_in_leaf_order(self):
        rng = np.random.default_rng(61)
        distinct = random_cloud(rng, 300)
        repeated = np.vstack([distinct, distinct[:10]])
        target = geometry.NeighborIndex(random_cloud(rng, 200))
        spy = target._tree = QuerySpy(target._tree)
        for cloud in (distinct, repeated):
            source = geometry.NeighborIndex(cloud)
            got = target.query(source)
            assert np.array_equal(got, nn_map_exhaustive(cloud, np.asarray(target)))
        # no source row ties, so each map is one query
        seen = [rows for rows, _ in spy.calls]
        assert len(seen) == 2
        for cloud, rows in zip((distinct, repeated), seen):
            leaf_order = geometry.NeighborIndex(cloud)._tree.indices
            assert not np.array_equal(leaf_order, np.arange(len(cloud)))
            assert rows.tobytes() == cloud[leaf_order].tobytes()

    @pytest.mark.parametrize("repeat", [False, True], ids=["leaf", "row"])
    def test_overflowing_source_index_row_is_value_error(self, repeat):
        rng = np.random.default_rng(67)
        src = np.vstack([random_cloud(rng, 40), [[-1e308, 0.0, 0.0]]])
        if repeat:
            src = np.vstack([src, src[:1]])
        tgt = np.vstack([random_cloud(rng, 20), [[1.7e308, 0.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in BUILDS:
                for source in (build(src), src):
                    with pytest.raises(geometry.DistanceOverflowError):
                        geometry.nearest_neighbor_map(source, build(tgt))

    def test_tie_next_to_a_far_row_resolves_without_warning(self):
        # the widened tie query reaches the far row, whose squared distance
        # overflows, so the tree reports it missing
        for build in BUILDS:
            index = build([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.7e308, 0.0, 0.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = index.query([[1.0, 0.0, 0.0], [1.9, 0.0, 0.0]])
            assert got.tolist() == [0, 1]

    @pytest.mark.parametrize("tgt, walk", [
        # from the anchor the second row's squared distance overflows, so
        # the stored second distance bounds nothing; at the next x the
        # point is nearer that row, with both squared distances finite
        ([[0.0, 0.0, 0.0], [1.5 * 2.0 ** 512, 0.0, 0.0]],
         [(1.0, 0), (0.9 * 2.0 ** 512, 1), (1.0, 0)]),
        # each move to the other row overflows the bound's own differences
        ([[-1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]],
         [(-1.7e308, 0), (1.7e308, 1), (-1.7e308, 0)]),
    ], ids=["overflowing_second", "overflowing_difference"])
    def test_tracking_index_past_overflowing_distances(self, tgt, walk):
        index = geometry.TrackingNeighborIndex(tgt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, want in walk:
                assert index.query([[x, 0.0, 0.0]]).tolist() == [want]

    def test_tie_queries_stay_within_the_candidate_bound(self):
        # every source row ties with all 5000 copies of the one point, so
        # the tie query widens to k = 5000 and takes the rows in chunks
        target = np.tile([0.5, -1.0, 2.0], (5000, 1))
        index = geometry.NeighborIndex(target)
        spy = index._tree = QuerySpy(index._tree)
        src = random_cloud(np.random.default_rng(71), 5000)
        assert np.array_equal(index.query(src), nn_map_exhaustive(src, target))
        assert max(k for _, k in spy.calls) == 5000
        assert max(len(rows) * k for rows, k in spy.calls) <= 2 ** 22


def test_each_site_builds_the_tree_its_use_needs(monkeypatch):
    # An index queried for one call gets the single-use tree; an index its
    # owner keeps and queries many times gets scipy's balanced build.
    import scipy.spatial

    from flowcomplete import config, field, metrics, objective, sampler, train

    single_use = {"balanced_tree": False, "compact_nodes": False}
    balanced = {}
    builds = []
    tree = scipy.spatial.cKDTree

    def spy(rows, **options):
        builds.append((len(rows), options))
        return tree(rows, **options)

    monkeypatch.setattr(scipy.spatial, "cKDTree", spy)
    rng = np.random.default_rng(73)
    scene, scan, x0 = (random_cloud(rng, n) for n in (300, 40, 80))

    geometry.nearest_neighbor_map(x0, scene)
    assert builds == [(300, single_use)]
    builds.clear()
    metrics.eval_chamfer(x0, scene)
    assert builds == [(80, single_use), (300, single_use)]
    index = geometry.NeighborIndex(scene)
    builds.clear()
    objective.chamfer_loss_grad(x0, np.zeros_like(x0), index)
    assert builds == [(80, single_use)]

    builds.clear()
    cfg = config.build_config({}, {"epochs": 1, "batch_size": 2, "copies": 2,
                                   "hidden_widths": (8,), "noise_scale": 0.25})
    train.fit([(scene, scan)] * 2, cfg)
    # the case indexes, then one moved cloud per sample for the chamfer term
    assert builds == [(300, balanced), (40, balanced)] * 2 + [(80, single_use)] * 2

    builds.clear()
    state = field.init_model(field.FieldConfig(hidden_widths=(8,), seed=0))
    sampler.euler_integrate(state, x0, scan,
                            sampler.SamplerConfig(steps=3, guidance_weight=3.0))
    assert builds == [(40, balanced)]


# Added to a cloud near the origin, this offset makes the cell span of the
# whole cloud overflow int64 at every IoU resolution (2e9 * 2e12 cells at
# 0.5 m), so voxel keys take the lexsorted-rows path, while each cell index
# still fits.
FAR = np.array([1e9, 1e12, 0.0])
VOXEL_RESOLUTIONS = st.sampled_from([0.5, 0.2, 0.1])
VOXEL_ORIGINS = st.sampled_from([(0.0, 0.0, 0.0), (0.05, -0.3, 1.25)])


@settings(max_examples=150, deadline=None)
@given(random_or_lattice_cloud(st.integers(0, 120)), VOXEL_RESOLUTIONS,
       VOXEL_ORIGINS, st.booleans())
def test_voxelize_matches_recount_property(cloud, resolution, origin, far):
    if far:
        cloud = np.vstack([cloud, cloud + FAR])
    want = voxel_cells_recount(cloud, resolution, origin)
    if far and want:
        assert cell_span_product(want) > np.iinfo(np.int64).max
    assert geometry.voxelize(cloud, resolution, origin).occupied == want


@settings(max_examples=50, deadline=None)
@given(st.floats(1e19, 1e300), st.sampled_from([-1.0, 1.0]),
       st.integers(0, 2), VOXEL_RESOLUTIONS)
def test_voxel_cell_overflow_is_value_error_property(magnitude, sign, axis,
                                                     resolution):
    cloud = np.zeros((2, 3))
    cloud[1, axis] = sign * magnitude
    with pytest.raises(ValueError, match="out of int64 range"):
        geometry.voxelize(cloud, resolution)
    with pytest.raises(ValueError, match="out of int64 range"):
        geometry.voxel_keys([np.zeros((1, 3)), cloud], resolution)
