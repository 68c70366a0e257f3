import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flowcomplete import coupling, geometry, objective
from oracles import (
    assert_grad_matches_fd,
    chamfer_assignments,
    chamfer_sum_exhaustive,
    numerical_gradient,
)


def random_cloud(rng, n):
    return rng.uniform(-1, 1, size=(n, 3))


def lattice_cloud(rng, n, distinct):
    if distinct:
        cells = rng.choice(10 ** 3, size=n, replace=False)
        return 0.5 * (np.stack(np.unravel_index(cells, (10, 10, 10)), axis=1) - 5)
    return 0.5 * rng.integers(-3, 4, size=(n, 3))


# Lattice coordinates and displacements, with both signed zeros.
LATTICE = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
STEPS = st.sampled_from([-0.25, -0.0, 0.0, 0.25])


def make_sample(rng, n0=12, n1=9):
    x0 = random_cloud(rng, n0)
    x1 = random_cloud(rng, n1)
    return coupling.nearest_neighbor_flow(x0, x1, float(rng.uniform()))


class TestLossWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="chamfer weight must be >= 0"):
            objective.LossWeights(chamfer=-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="chamfer weight must be >= 0"):
            objective.LossWeights(chamfer=float("nan"))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, weight):
        with pytest.raises(ValueError, match="chamfer"):
            objective.LossWeights(chamfer=weight)


class TestFlowMatchingLoss:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        v = random_cloud(rng, 20)
        assert objective.flow_matching_loss_grad(v, v)[0] == 0.0

    def test_unit_residual(self):
        u = np.array([[1.0, 0.0, 0.0]])
        v = np.zeros((1, 3))
        assert objective.flow_matching_loss_grad(u, v)[0] == 1.0

    def test_matches_elementwise_recompute(self):
        rng = np.random.default_rng(1)
        u = random_cloud(rng, 33)
        v = random_cloud(rng, 33)
        want = float(np.mean(np.sum((u - v) ** 2, axis=1)))
        assert objective.flow_matching_loss_grad(u, v)[0] == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            objective.flow_matching_loss_grad(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        u = random_cloud(rng, 8)
        v = random_cloud(rng, 8)
        _, grad = objective.flow_matching_loss_grad(u, v)
        num = numerical_gradient(
            lambda flat: objective.flow_matching_loss_grad(flat.reshape(8, 3), v)[0],
            u.ravel(),
        )
        assert np.allclose(grad.ravel(), num, rtol=1e-6, atol=1e-9)


class TestChamferLoss:
    def test_single_point_sum_reduction(self):
        x0 = np.zeros((1, 3))
        u = np.zeros((1, 3))
        x1 = np.array([[1.0, 0.0, 0.0]])
        value = objective.chamfer_loss_grad(x0, u, x1)[0]
        # the raw symmetric sum, divided by |x0| + |x1|
        assert value * (len(x0) + len(x1)) == chamfer_sum_exhaustive(x0 + u, x1) == 2.0
        assert value == 1.0

    def test_perfect_transport_bijection(self):
        rng = np.random.default_rng(3)
        x0 = random_cloud(rng, 15)
        x1 = random_cloud(rng, 15)
        # Displace each x0 point onto a distinct x1 point: loss is exactly 0.
        perm = rng.permutation(15)
        u = x1[perm] - x0
        assert objective.chamfer_loss_grad(x0, u, x1)[0] == 0.0

    def test_matches_raw_chamfer(self):
        rng = np.random.default_rng(4)
        x0 = random_cloud(rng, 20)
        u = 0.1 * random_cloud(rng, 20)
        x1 = random_cloud(rng, 26)
        got = objective.chamfer_loss_grad(x0, u, x1)[0] * (len(x0) + len(x1))
        assert got == pytest.approx(chamfer_sum_exhaustive(x0 + u, x1), rel=1e-9)

    def test_invariant_under_target_permutation(self):
        rng = np.random.default_rng(5)
        x0 = random_cloud(rng, 10)
        u = 0.05 * random_cloud(rng, 10)
        x1 = random_cloud(rng, 14)
        a = objective.chamfer_loss_grad(x0, u, x1)[0]
        b = objective.chamfer_loss_grad(x0, u, x1[rng.permutation(14)])[0]
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("sizes", [(200, 500), (500, 200), (333, 333)])
    @pytest.mark.parametrize("distinct", [False, True], ids=["repeats", "distinct"])
    def test_lattice_ties_match_assignments(self, sizes, distinct):
        # 0.5 m lattice rows, drawn with repeats from 7**3 points or without
        # from 10**3 (so x1's index is queried in leaf order); most
        # distances tie, and the value and gradient follow from the
        # exhaustive lowest-index maps
        n0, n1 = sizes
        rng = np.random.default_rng(n0 + n1)
        x0, u, x1 = (lattice_cloud(rng, n, distinct) for n in (n0, n0, n1))
        u[::5] = 0.25  # moved rows equidistant from lattice neighbors
        fwd, bwd = chamfer_assignments(x0, u, x1)
        moved = x0 + u
        diff_bwd = x1 - moved[bwd]
        want_grad = 2.0 * (moved - x1[fwd])
        np.add.at(want_grad, bwd, -2.0 * diff_bwd)
        want_grad /= n0 + n1
        for target in (x1, geometry.NeighborIndex(x1)):
            value, grad = objective.chamfer_loss_grad(x0, u, target)
            assert value * (n0 + n1) == pytest.approx(
                chamfer_sum_exhaustive(moved, x1), rel=1e-12)
            assert grad.tobytes() == want_grad.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
               arrays(np.float64, (n, 3), elements=LATTICE),
               arrays(np.float64, (n, 3), elements=STEPS))),
           st.integers(1, 60).flatmap(
               lambda n: arrays(np.float64, (n, 3), elements=LATTICE)))
    def test_gradient_bytes_match_the_2d_scatter_property(self, x0_u, x1):
        # lattice rows with both signed zeros: targets share their nearest
        # moved row, so the scatter repeats indices and adds signed zeros
        x0, u = x0_u
        fwd, bwd = chamfer_assignments(x0, u, x1)
        moved = x0 + u
        want_grad = 2.0 * (moved - x1[fwd])
        np.add.at(want_grad, bwd, -2.0 * (x1 - moved[bwd]))
        want_grad /= len(x0) + len(x1)
        _, grad = objective.chamfer_loss_grad(x0, u, x1)
        assert grad.flags.c_contiguous
        assert grad.tobytes() == want_grad.tobytes()

    # "sum" checks the raw symmetric sum: the loss times |x0| + |x1|
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_gradient_matches_finite_differences(self, reduction):
        rng = np.random.default_rng(6)
        for trial in range(5):
            n = int(rng.integers(3, 12))
            x0 = random_cloud(rng, n)
            u = 0.2 * random_cloud(rng, n)
            x1 = random_cloud(rng, int(rng.integers(3, 12)))
            scale = 1.0 if reduction == "mean" else float(n + len(x1))
            _, grad = objective.chamfer_loss_grad(x0, u, x1)
            assert_grad_matches_fd(
                lambda flat: scale * objective.chamfer_loss_grad(
                    x0, flat.reshape(n, 3), x1
                )[0],
                scale * grad.ravel(),
                u.ravel(),
                lambda flat: chamfer_assignments(x0, flat.reshape(n, 3), x1),
            )


class TestTotalLoss:
    def test_flow_only(self):
        rng = np.random.default_rng(7)
        s = make_sample(rng)
        u = random_cloud(rng, len(s.x0))
        weights = objective.LossWeights(chamfer=0.0)
        report = objective.total_loss_grad(s, u, weights)[0]
        assert report.total == report.flow
        assert report.chamfer == 0.0

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_bytes_are_flow_plus_weighted_chamfer(self, lam):
        # the blend is flow + lam * chamfer, term by term, with no factor
        # on the flow term
        rng = np.random.default_rng(8)
        s = make_sample(rng)
        u = random_cloud(rng, len(s.x0))
        report, grad = objective.total_loss_grad(
            s, u, objective.LossWeights(chamfer=lam))
        flow_val, flow_grad = objective.flow_matching_loss_grad(u, s.v_target)
        cd_val, cd_grad = objective.chamfer_loss_grad(s.x0, u, s.x1)
        assert np.float64(report.total).tobytes() == np.float64(
            flow_val + lam * cd_val).tobytes()
        assert grad.tobytes() == (flow_grad + lam * cd_grad).tobytes()

    def test_weighted_combination_identity(self):
        rng = np.random.default_rng(9)
        s = make_sample(rng)
        u = random_cloud(rng, len(s.x0))
        w = objective.LossWeights(chamfer=0.1)
        report = objective.total_loss_grad(s, u, w)[0]
        want = report.flow + w.chamfer * report.chamfer
        assert report.total == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        w = objective.LossWeights(chamfer=0.1)
        for trial in range(5):
            s = make_sample(rng, n0=int(rng.integers(4, 10)), n1=int(rng.integers(4, 10)))
            n = len(s.x0)
            u = 0.3 * random_cloud(rng, n)
            _, grad = objective.total_loss_grad(s, u, w)

            def scalar(flat):
                return objective.total_loss_grad(s, flat.reshape(n, 3), w)[0].total

            assert_grad_matches_fd(
                scalar,
                grad.ravel(),
                u.ravel(),
                lambda flat: chamfer_assignments(s.x0, flat.reshape(n, 3), s.x1),
            )


class TestNeighborIndexInput:
    """An index over x1 gives the same bits as the array it was built on."""

    SIZES = (9, 31, 32, 33, 80)

    def test_chamfer_loss_grad(self):
        rng = np.random.default_rng(31)
        for n1 in self.SIZES:
            x0 = random_cloud(rng, 24)
            u = 0.3 * random_cloud(rng, 24)
            x1 = random_cloud(rng, n1)
            x1[-1] = x1[0]
            index = geometry.NeighborIndex(x1)
            val_a, grad_a = objective.chamfer_loss_grad(x0, u, x1)
            val_b, grad_b = objective.chamfer_loss_grad(x0, u, index)
            assert val_a == val_b
            assert grad_a.tobytes() == grad_b.tobytes()

    def test_total_loss_grad(self):
        rng = np.random.default_rng(32)
        weights = objective.LossWeights(chamfer=0.5)
        for n1 in self.SIZES:
            x0 = random_cloud(rng, 24)
            x1 = random_cloud(rng, n1)
            t = float(rng.uniform())
            u = random_cloud(rng, 24)
            from_array = coupling.nearest_neighbor_flow(x0, x1, t)
            from_index = coupling.nearest_neighbor_flow(
                x0, geometry.NeighborIndex(x1), t)
            rep_a, grad_a = objective.total_loss_grad(from_array, u, weights)
            rep_b, grad_b = objective.total_loss_grad(from_index, u, weights)
            assert rep_a == rep_b
            assert grad_a.tobytes() == grad_b.tobytes()
