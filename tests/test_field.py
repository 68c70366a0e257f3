import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcomplete import coupling, field, geometry, objective
from oracles import assert_grad_matches_fd, chamfer_assignments, nn_map_exhaustive

SMALL = field.FieldConfig(hidden_widths=(8,), time_embed_dim=4,
                          activation="tanh", seed=3)


def reference_forward(flat, config, feats):
    """The allocating training forward; returns (output, (pre, post))."""
    layers = field._unpack(flat, config)
    pre, post = [], [feats]
    h = feats
    for w, b in layers[:-1]:
        z = h @ w + b
        h = np.tanh(z) if config.activation == "tanh" else np.maximum(z, 0.0)
        pre.append(z)
        post.append(h)
    w_out, b_out = layers[-1]
    return h @ w_out + b_out, (pre, post)


def reference_backward(flat, config, caches, d_out):
    """The allocating backward: gradient of sum(output * d_out)."""
    pre, post = caches
    layers = field._unpack(flat, config)
    grad = np.zeros_like(flat)
    grad_layers = field._unpack(grad, config)
    delta = d_out
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        gw[...] = post[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i > 0:
            w, _ = layers[i]
            if config.activation == "tanh":
                slope = 1.0 - post[i] ** 2
            else:
                slope = (pre[i - 1] > 0.0).astype(np.float64)
            delta = (delta @ w.T) * slope
    return grad


def reference_loss_and_grad(state, sample, weights):
    feats = field._input_features(state.config, sample.t, sample.x_t,
                                  sample.condition)
    u_pred, caches = reference_forward(state.weights, state.config, feats)
    report, d_u = objective.total_loss_grad(sample, u_pred, weights)
    return report, reference_backward(state.weights, state.config, caches, d_u)


def random_cloud(rng, n):
    return rng.uniform(-1, 1, size=(n, 3))


def make_sample(rng, n0=10, n1=8, with_scan=True):
    x0 = random_cloud(rng, n0)
    x1 = random_cloud(rng, n1)
    scan = random_cloud(rng, 6) if with_scan else None
    return coupling.nearest_neighbor_flow(x0, x1, float(rng.uniform()), condition=scan)


class TestFieldConfig:
    def test_odd_time_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            field.FieldConfig(hidden_widths=(64, 64), time_embed_dim=7,
                              activation="tanh", seed=0)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            field.FieldConfig(hidden_widths=(64, 64), time_embed_dim=8,
                              activation="swish", seed=0)

    def test_empty_widths(self):
        with pytest.raises(ValueError, match="widths"):
            field.FieldConfig(hidden_widths=(), time_embed_dim=8,
                              activation="tanh", seed=0)

    def test_input_dim(self):
        cfg = field.FieldConfig(hidden_widths=(64, 64), time_embed_dim=8,
                                activation="tanh", seed=0)
        assert cfg.input_dim == 3 + 8 + 5


class TestTimeEmbedding:
    def test_zero_time(self):
        emb = field.time_embedding(0.0, 8)
        assert np.array_equal(emb[:4], np.zeros(4))
        assert np.array_equal(emb[4:], np.ones(4))

    def test_repeatable(self):
        assert np.array_equal(field.time_embedding(0.37, 12),
                              field.time_embedding(0.37, 12))

    def test_lipschitz_in_time(self):
        a = field.time_embedding(0.5, 16)
        b = field.time_embedding(0.5 + 1e-9, 16)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_time_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            field.time_embedding(1.2, 4)


class TestConditionFeatures:
    def test_null_condition(self):
        f = field.condition_feature_matrix(np.array([[1.0, 2.0, 3.0]]), None)[0]
        assert np.array_equal(f, np.zeros(5))

    def test_point_on_scan(self):
        scan = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        f = field.condition_feature_matrix(np.array([[1.0, 2.0, 3.0]]), scan)[0]
        assert np.array_equal(f, [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_offset_matches_oracle(self):
        rng = np.random.default_rng(1)
        scan = random_cloud(rng, 20)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=3)
            f = field.condition_feature_matrix(x[None], scan)[0]
            q = scan[nn_map_exhaustive(x[None], scan)[0]]
            assert np.allclose(f[:3], q - x, atol=0)
            assert f[3] == pytest.approx(np.linalg.norm(q - x), rel=1e-12)
            assert f[4] == 1.0

    def test_scan_index_matches_scan_array(self):
        rng = np.random.default_rng(4)
        for n in (6, 31, 32, 33, 100):
            scan = random_cloud(rng, n)
            scan[-1] = scan[0]
            pts = random_cloud(rng, 50)
            want = field.condition_feature_matrix(pts, scan)
            got = field.condition_feature_matrix(pts, geometry.NeighborIndex(scan))
            assert got.tobytes() == want.tobytes()


class TestForward:
    def test_zero_init_gives_zero_field(self):
        rng = np.random.default_rng(2)
        state = field.init_model(SMALL)
        out = field.forward(state, 0.5, random_cloud(rng, 15), random_cloud(rng, 6),
                            use_ema=False)
        assert np.array_equal(out, np.zeros((15, 3)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        cfg = field.FieldConfig(hidden_widths=(8,), time_embed_dim=4,
                                activation="tanh", seed=5,
                                zero_init_output=False)
        state = field.init_model(cfg)
        pts = random_cloud(rng, 20)
        scan = random_cloud(rng, 7)
        perm = rng.permutation(20)
        out = field.forward(state, 0.3, pts, scan, use_ema=False)
        out_perm = field.forward(state, 0.3, pts[perm], scan, use_ema=False)
        assert np.array_equal(out[perm], out_perm)

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(4)
        pts = random_cloud(rng, 12)
        scan = random_cloud(rng, 5)
        cfg = field.FieldConfig(hidden_widths=(16, 16), time_embed_dim=8,
                                activation="tanh", seed=9, zero_init_output=False)
        a = field.forward(field.init_model(cfg), 0.7, pts, scan, use_ema=False)
        b = field.forward(field.init_model(cfg), 0.7, pts, scan, use_ema=False)
        assert np.array_equal(a, b)

    def test_overflow_reported(self):
        for activation in ("relu", "tanh"):
            cfg = field.FieldConfig(hidden_widths=(4, 4), activation=activation,
                                    time_embed_dim=4, seed=0,
                                    zero_init_output=False)
            state = field.init_model(cfg)
            # tanh saturates, so only the output layer's sum can overflow
            state.weights[:] = 1e308
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError,
                                   match="numeric overflow in field"):
                    field.forward(state, 0.5, np.ones((3, 3)), None,
                                  use_ema=False)
                with pytest.raises(FloatingPointError,
                                   match="numeric overflow in field"):
                    field.forward(state, 0.5, np.ones((3, 3)), None,
                                  use_ema=False, buffers=[])

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("widths", [(5,), (128, 128), (16, 24, 8)])
    @pytest.mark.parametrize("n", [1, 7, 33, 300])
    @pytest.mark.parametrize("use_ema", [False, True])
    def test_matches_training_forward_bit_for_bit(self, activation, widths, n,
                                                  use_ema):
        rng = np.random.default_rng(n)
        cfg = field.FieldConfig(hidden_widths=widths, time_embed_dim=8,
                                activation=activation, seed=n + len(widths),
                                zero_init_output=False)
        state = field.init_model(cfg)
        state.weights[:] += rng.normal(scale=0.05, size=state.weights.shape)
        flat = state.ema_weights if use_ema else state.weights
        pts, scan = random_cloud(rng, n), random_cloud(rng, 9)
        buffers = []
        for condition in (scan, None):
            feats = field._input_features(cfg, 0.35, pts, condition)
            want = reference_forward(flat, cfg, feats)[0]
            got = field.forward(state, 0.35, pts, condition, use_ema=use_ema)
            reused = field.forward(state, 0.35, pts, condition,
                                   use_ema=use_ema, buffers=buffers)
            assert got.tobytes() == want.tobytes()
            assert reused.tobytes() == want.tobytes()
        # the list `loss_and_grad` takes: one flat array per hidden layer
        # plus the backward's block scratch
        assert [b.shape for b in buffers] == [
            *((n * w,) for w in widths),
            (min(n, field.BACKWARD_BLOCK_ROWS) * max(widths),)]

    def test_ema_weights_selectable(self):
        cfg = field.FieldConfig(hidden_widths=(8,), time_embed_dim=8,
                                activation="tanh", seed=11, zero_init_output=False)
        state = field.init_model(cfg)
        state = field.ema_update(state, decay=0.0)  # ema == weights now
        rng = np.random.default_rng(5)
        pts = random_cloud(rng, 9)
        assert np.array_equal(
            field.forward(state, 0.2, pts, None, use_ema=False),
            field.forward(state, 0.2, pts, None, use_ema=True),
        )


class TestGradient:
    def test_matches_finite_differences_flow_only(self):
        rng = np.random.default_rng(6)
        cfg = field.FieldConfig(hidden_widths=(6,), time_embed_dim=4,
                                activation="tanh", seed=7,
                                zero_init_output=False)
        weights = objective.LossWeights(chamfer=0.0)
        for _ in range(3):
            sample = make_sample(rng)
            state = field.init_model(cfg)
            _, grad = field.loss_and_grad(state, sample, weights)

            def scalar(flat):
                trial = field.ModelState(cfg, flat, flat, 0)
                rep, _ = field.loss_and_grad(trial, sample, weights)
                return rep.total

            assert_grad_matches_fd(scalar, grad, state.weights)

    def test_matches_finite_differences_blended(self):
        rng = np.random.default_rng(7)
        cfg = field.FieldConfig(hidden_widths=(6,), time_embed_dim=4,
                                activation="tanh", seed=13,
                                zero_init_output=False)
        weights = objective.LossWeights(chamfer=0.1)
        sample = make_sample(rng, n0=8, n1=6)
        state = field.init_model(cfg)
        _, grad = field.loss_and_grad(state, sample, weights)

        def scalar(flat):
            trial = field.ModelState(cfg, flat, flat, 0)
            rep, _ = field.loss_and_grad(trial, sample, weights)
            return rep.total

        def assignments(flat):
            trial = field.ModelState(cfg, flat, flat, 0)
            u = field.forward(trial, sample.t, sample.x_t, sample.condition,
                              use_ema=False)
            return chamfer_assignments(sample.x0, u, sample.x1)

        assert_grad_matches_fd(scalar, grad, state.weights, assignments)

    def test_relu_gradient(self):
        rng = np.random.default_rng(8)
        cfg = field.FieldConfig(hidden_widths=(6,), time_embed_dim=4, seed=15,
                                activation="relu", zero_init_output=False)
        weights = objective.LossWeights(chamfer=0.0)
        sample = make_sample(rng)
        state = field.init_model(cfg)
        _, grad = field.loss_and_grad(state, sample, weights)

        def scalar(flat):
            trial = field.ModelState(cfg, flat, flat, 0)
            rep, _ = field.loss_and_grad(trial, sample, weights)
            return rep.total

        # relu kinks at z=0 are not NN flips; random nets rarely sit on them
        assert_grad_matches_fd(scalar, grad, state.weights,
                               assign_fn=None, max_kink_fraction=0.0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("widths", [(5,), (128, 128), (16, 24, 8)])
    # the last n spans more than two backward row blocks (three equal blocks)
    @pytest.mark.parametrize("n", [1, 7, 33, 300, 2 * field.BACKWARD_BLOCK_ROWS + 7])
    def test_in_place_matches_reference_bit_for_bit(self, activation, widths, n):
        rng = np.random.default_rng(100 + n)
        cfg = field.FieldConfig(hidden_widths=widths, time_embed_dim=8,
                                activation=activation, seed=n + len(widths),
                                zero_init_output=False)
        state = field.init_model(cfg)
        weights = objective.LossWeights(chamfer=0.1)
        buffers = []
        for with_scan in (True, False):
            sample = make_sample(rng, n0=n, n1=max(n // 2, 1),
                                 with_scan=with_scan)
            want_report, want_grad = reference_loss_and_grad(state, sample,
                                                             weights)
            # twice with one buffer list: the second call reuses its arrays
            for buf in (None, buffers, buffers):
                report, grad = field.loss_and_grad(state, sample, weights,
                                                   buffers=buf)
                assert report == want_report
                assert grad.tobytes() == want_grad.tobytes()
        # one flat array per hidden layer plus the block scratch, which
        # holds at most BACKWARD_BLOCK_ROWS rows of the widest layer
        assert [b.shape for b in buffers] == [
            *((n * w,) for w in widths),
            (min(n, field.BACKWARD_BLOCK_ROWS) * max(widths),)]

    def test_in_place_tanh_slope_bit_for_bit(self):
        a = np.tanh(np.random.default_rng(12).normal(scale=2.0,
                                                     size=(6144, 128)))
        want = 1.0 - a ** 2
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        assert a.tobytes() == want.tobytes()


class TestOptimizer:
    def test_zero_gradient_no_motion(self):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        before = state.weights.copy()
        state, opt = field.apply_gradient(state, opt, np.zeros_like(state.weights))
        assert np.array_equal(state.weights, before)
        assert state.step_count == 1

    def test_nonfinite_gradient_rejected(self):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        bad = np.zeros_like(state.weights)
        bad[0] = np.nan
        before = state.weights.copy()
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            field.apply_gradient(state, opt, bad)
        assert np.array_equal(state.weights, before)
        assert state.step_count == 0
        assert np.all(opt.m == 0.0)

    def test_loss_decreases_over_200_steps(self):
        rng = np.random.default_rng(9)
        x0 = random_cloud(rng, 24)
        x1 = random_cloud(rng, 24)
        scan = random_cloud(rng, 12)
        cfg = field.FieldConfig(hidden_widths=(16, 16), time_embed_dim=8,
                                activation="tanh", seed=21)
        state = field.init_model(cfg)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        weights = objective.LossWeights(chamfer=0.1)
        losses = []
        for step in range(200):
            sample = coupling.nearest_neighbor_flow(
                x0, x1, float(rng.uniform()), condition=scan
            )
            state, opt, report = field.train_batch(state, opt, [sample], weights)
            losses.append(report.total)
        assert np.isfinite(state.weights).all()
        first = np.mean(losses[:20])
        last = np.mean(losses[-20:])
        assert last < first

    def test_batch_averages_gradients(self):
        rng = np.random.default_rng(10)
        cfg = field.FieldConfig(hidden_widths=(6,), time_embed_dim=4,
                                activation="tanh", seed=23,
                                zero_init_output=False)
        weights = objective.LossWeights(chamfer=0.0)
        samples = [make_sample(rng) for _ in range(4)]
        state = field.init_model(cfg)
        grads = [field.loss_and_grad(state, s, weights)[1] for s in samples]
        want = np.mean(grads, axis=0)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        stepped, _ = field.apply_gradient(state, opt, want)
        batched, _, _ = field.train_batch(
            field.init_model(cfg), field.init_optimizer(state, learning_rate=1e-3),
            samples, weights)
        assert np.allclose(stepped.weights, batched.weights, atol=1e-15)

    def test_shared_buffers_carry_no_state(self):
        rng = np.random.default_rng(11)
        cfg = field.FieldConfig(hidden_widths=(12, 9), time_embed_dim=4,
                                activation="tanh", seed=25,
                                zero_init_output=False)
        weights = objective.LossWeights(chamfer=0.1)
        # two point counts, interleaved, so each size's arrays are reused
        # after the other size has run
        batches = [[make_sample(rng, n0=n) for n in (10, 17, 10, 17)]
                   for _ in range(2)]

        def run(buffers):
            state = field.init_model(cfg)
            opt = field.init_optimizer(state, learning_rate=1e-3)
            reports = []
            for samples in batches:
                state, opt, report = field.train_batch(state, opt, samples,
                                                       weights, buffers=buffers)
                reports.append(report)
            return state, opt, reports

        buffers = []
        fresh, shared = run(None), run(buffers)
        # one set, sized for the largest point count
        assert [b.shape for b in buffers] == [(17 * 12,), (17 * 9,), (17 * 12,)]
        assert fresh[2] == shared[2]
        for got, want in ((shared[0].weights, fresh[0].weights),
                          (shared[1].m, fresh[1].m), (shared[1].v, fresh[1].v)):
            assert got.tobytes() == want.tobytes()
        # a smaller sample reuses the set rather than reallocating it
        kept = list(buffers)
        field.loss_and_grad(shared[0], batches[0][0], weights, buffers=buffers)
        assert len(buffers) == len(kept)
        assert all(got is want for got, want in zip(buffers, kept))
        # one list shared by forward and loss_and_grad over n = 7, 300, a
        # count past two backward blocks, and 7 grows for the larger counts,
        # then serves 7 again, and changes no byte
        large = 2 * field.BACKWARD_BLOCK_ROWS + 7
        buffers = []
        for n in (7, 300, large, 7):
            sample = make_sample(rng, n0=n)
            args = (shared[0], sample.t, sample.x_t, sample.condition)
            for use_ema in (False, True):
                want = field.forward(*args, use_ema=use_ema)
                got = field.forward(*args, use_ema=use_ema, buffers=buffers)
                assert got.tobytes() == want.tobytes()
            want_report, want_grad = field.loss_and_grad(shared[0], sample, weights)
            report, grad = field.loss_and_grad(shared[0], sample, weights,
                                               buffers=buffers)
            assert report == want_report
            assert grad.tobytes() == want_grad.tobytes()
        assert [b.shape for b in buffers] == [
            (large * 12,), (large * 9,), (field.BACKWARD_BLOCK_ROWS * 12,)]
        # one list shared by models of other widths: a layer more, or a
        # wider layer behind a narrower one, regrows the list
        sample = make_sample(rng, n0=10)
        for sequence in (((16,), (16, 32)), ((32, 16), (16, 64))):
            buffers = []
            for widths in sequence:
                model = field.init_model(field.FieldConfig(
                    hidden_widths=widths, time_embed_dim=4, activation="tanh",
                    seed=26, zero_init_output=False))
                args = (model, sample.t, sample.x_t, sample.condition)
                got = field.forward(*args, use_ema=False, buffers=buffers)
                want = field.forward(*args, use_ema=False)
                assert got.tobytes() == want.tobytes()
                want_report, want_grad = field.loss_and_grad(model, sample,
                                                             weights)
                report, grad = field.loss_and_grad(model, sample, weights,
                                                   buffers=buffers)
                assert report == want_report
                assert grad.tobytes() == want_grad.tobytes()


class TestEma:
    def test_decay_zero_copies_weights(self):
        state = field.init_model(
            field.FieldConfig(hidden_widths=(8,), time_embed_dim=8,
                              activation="tanh", seed=1, zero_init_output=False)
        )
        out = field.ema_update(state, decay=0.0)
        assert np.array_equal(out.ema_weights, state.weights)

    def test_decay_one_freezes_shadow(self):
        state = field.init_model(
            field.FieldConfig(hidden_widths=(8,), time_embed_dim=8,
                              activation="tanh", seed=2, zero_init_output=False)
        )
        before = state.ema_weights.copy()
        out = field.ema_update(state, decay=1.0)
        assert np.array_equal(out.ema_weights, before)

    def test_blend(self):
        state = field.init_model(SMALL)
        state.weights[:] = 1.0
        state.ema_weights[:] = 0.0
        out = field.ema_update(state, decay=0.9)
        assert np.allclose(out.ema_weights, 0.1, atol=1e-15)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        cfg = field.FieldConfig(hidden_widths=(16, 8), time_embed_dim=6,
                                activation="tanh", seed=31,
                                zero_init_output=False)
        state = field.init_model(cfg)
        opt = field.init_optimizer(state, learning_rate=3e-4)
        sample = make_sample(rng)
        state, opt, _ = field.train_batch(state, opt, [sample],
                                         objective.LossWeights(chamfer=0.1))
        state = field.ema_update(state, 0.99)

        path = tmp_path / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        loaded, loaded_opt = field.load_checkpoint(path)

        assert loaded.config == cfg
        assert loaded.step_count == state.step_count
        assert np.array_equal(loaded.weights, state.weights)
        assert np.array_equal(loaded.ema_weights, state.ema_weights)
        assert np.array_equal(loaded_opt.m, opt.m)
        assert np.array_equal(loaded_opt.v, opt.v)
        assert loaded_opt.learning_rate == opt.learning_rate
        resaved = tmp_path / "resaved.ckpt"
        field.save_checkpoint(resaved, loaded, loaded_opt)
        assert resaved.read_bytes() == path.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           half_dim=st.integers(1, 3), activation=st.sampled_from(["tanh", "relu"]),
           seed=st.integers(0, 2 ** 32), zero_init_output=st.booleans(),
           learning_rate=st.floats(min_value=5e-324, allow_infinity=False),
           step_count=st.integers(0, 2 ** 63))
    def test_every_saved_file_resaves_identically(self, tmp_path_factory, widths,
                                                  half_dim, activation, seed,
                                                  zero_init_output,
                                                  learning_rate, step_count):
        cfg = field.FieldConfig(hidden_widths=widths, time_embed_dim=2 * half_dim,
                                activation=activation, seed=seed,
                                zero_init_output=zero_init_output)
        state = field.init_model(cfg)
        state = field.ModelState(cfg, state.weights, state.ema_weights, step_count)
        opt = field.init_optimizer(state, learning_rate=learning_rate)
        path = tmp_path_factory.mktemp("saved") / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        loaded, loaded_opt = field.load_checkpoint(path)
        assert (loaded.config, loaded.step_count, loaded_opt.learning_rate) == (
            cfg, step_count, learning_rate)
        field.save_checkpoint(path.with_name("again.ckpt"), loaded, loaded_opt)
        assert path.with_name("again.ckpt").read_bytes() == path.read_bytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        field.save_checkpoint(a, state, opt)
        field.save_checkpoint(b, state, opt)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            field.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        path = tmp_path / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            field.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        path = tmp_path / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing bytes") as err:
            field.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_cut_inside_length_prefix(self, tmp_path):
        state = field.init_model(SMALL)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        path = tmp_path / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        path.write_bytes(path.read_bytes()[:15])
        with pytest.raises(ValueError, match="truncated") as err:
            field.load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_header_widths_disagree_with_arrays(self, tmp_path):
        # A (64, 64) network's arrays under a header that says (8,): the
        # header implies four arrays of 163 values where the file holds
        # four of 5443.
        cfg = field.FieldConfig(hidden_widths=(64, 64), time_embed_dim=8,
                                activation="tanh", seed=0)
        state = field.init_model(cfg)
        opt = field.init_optimizer(state, learning_rate=1e-3)
        path = tmp_path / "model.ckpt"
        field.save_checkpoint(path, state, opt)
        narrow = field.FieldConfig(hidden_widths=(8,), time_embed_dim=8,
                                   activation="tanh", seed=0)
        assert (field.parameter_count(cfg), field.parameter_count(narrow)) == (5443, 163)
        rewrite_header(path, field._header_bytes(narrow, opt.learning_rate, 0))
        with pytest.raises(ValueError) as err:
            field.load_checkpoint(path)
        extra = 4 * 8 * (5443 - 163)
        assert str(err.value) == (f"{path}: {extra} trailing bytes after the "
                                  "last array of 163 values")

    def test_header_bytes_golden(self):
        # Any change to these bytes must come with a CHECKPOINT_VERSION bump.
        assert field.CHECKPOINT_VERSION == 2
        blob = field._header_bytes(SMALL, 3e-4, 7)
        assert blob == (b'{"config":{"activation":"tanh","hidden_widths":[8],'
                        b'"seed":3,"time_embed_dim":4,"zero_init_output":true},'
                        b'"learning_rate":0.0003,"step_count":7}')

    @pytest.mark.parametrize("key, value", [
        ("version", 2),
        ("provenance", {}),
    ], ids=["version", "provenance"])
    def test_header_with_unknown_key_rejected(self, tmp_path, key, value):
        path = saved_small(tmp_path)
        header = json.loads(field._header_bytes(SMALL, 1e-3, 0))
        header[key] = value
        rewrite_header(path, json.dumps(header, sort_keys=True,
                                        separators=(",", ":")).encode())
        with pytest.raises(ValueError, match="differs from the one "
                           "save_checkpoint writes") as err:
            field.load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("old, new", [
        (b'"step_count":0', b'"step_count":0,"step_count":0'),   # repeated key
        (b'"step_count":0', b'"step_count": 0'),                 # spacing
        (b'"step_count":0', b'"step_count":0.0'),
        (b'"learning_rate":0.001', b'"learning_rate":1e-3'),
        (b'"learning_rate":0.001', b'"learning_rate":"0.001"'),
        (b'"time_embed_dim":4', b'"time_embed_dim":4.0'),
        (b'"hidden_widths":[8]', b'"hidden_widths":[8.0]'),
        (b'"seed":3', b'"seed":true'),
        (b',"zero_init_output":true', b''),                      # missing key
    ])
    def test_non_canonical_header_rejected(self, tmp_path, old, new):
        path = saved_small(tmp_path)
        blob = field._header_bytes(SMALL, 1e-3, 0)
        assert blob.count(old) == 1
        rewrite_header(path, blob.replace(old, new))
        with pytest.raises(ValueError, match="differs from the one "
                           "save_checkpoint writes") as err:
            field.load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("old, new, reason", [
        (b'"learning_rate":0.001', b'"learning_rate":NaN', "learning rate"),
        (b'"learning_rate":0.001', b'"learning_rate":Infinity', "learning rate"),
        (b'"learning_rate":0.001', b'"learning_rate":0.0', "learning rate"),
        (b'"learning_rate":0.001', b'"learning_rate":-0.001', "learning rate"),
        (b'"step_count":0', b'"step_count":-5', "step count"),
        (b'"step_count":0', b'"step_count":Infinity', "infinity"),
        (b'"hidden_widths":[8]', b'"hidden_widths":[Infinity]', "infinity"),
        (b'"activation":"tanh"', b'"activation":"swish"', "activation"),
        (b'"seed":3', b'"seed":3,"bogus":1', "bogus"),
        (b'"seed":3,', b'', "seed"),                 # missing key without default
    ])
    def test_out_of_range_header_value_rejected(self, tmp_path, old, new, reason):
        path = saved_small(tmp_path)
        blob = field._header_bytes(SMALL, 1e-3, 0)
        rewrite_header(path, blob.replace(old, new))
        with pytest.raises(ValueError, match="malformed checkpoint header") as err:
            field.load_checkpoint(path)
        assert str(path) in str(err.value)
        assert reason in str(err.value)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = saved_small(tmp_path)
        rewrite_header(path, b"[" * 100_000)
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            field.load_checkpoint(path)

    @pytest.mark.parametrize("learning_rate, step_count", [
        (float("nan"), 0), (0.0, 0), (-1e-3, 0), (1e-3, -1)])
    def test_save_rejects_out_of_range_values(self, tmp_path, learning_rate,
                                              step_count):
        state = field.init_model(SMALL)
        state = field.ModelState(state.config, state.weights,
                                 state.ema_weights, step_count)
        opt = field.init_optimizer(state, learning_rate=learning_rate)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError):
            field.save_checkpoint(path, state, opt)

    def test_version_1_file_rejected(self, tmp_path):
        # The version 1 layout: the header also held a version key, Adam's
        # constants and a table of array names and sizes.
        state = field.init_model(SMALL)
        count = field.parameter_count(SMALL)
        header = {
            "version": 1,
            "config": {"activation": "tanh", "cond_feature_mode": "nearest-offset",
                       "hidden_widths": [8], "seed": 3, "time_embed_dim": 4,
                       "zero_init_output": True},
            "step_count": 0,
            "optimizer": {"learning_rate": 1e-3, "beta1": 0.9,
                          "beta2": 0.999, "eps": 1e-8},
            "arrays": [[name, count] for name in
                       ("weights", "ema_weights", "adam_m", "adam_v")],
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(field.CHECKPOINT_MAGIC + struct.pack("<IQ", 1, len(blob))
                         + blob + state.weights.tobytes() * 2
                         + bytes(16 * count))
        with pytest.raises(ValueError) as err:
            field.load_checkpoint(path)
        assert str(err.value) == f"{path}: unsupported checkpoint version 1"


def saved_small(tmp_path):
    """Path of a checkpoint of a fresh SMALL model, learning rate 1e-3."""
    state = field.init_model(SMALL)
    path = tmp_path / "model.ckpt"
    field.save_checkpoint(path, state, field.init_optimizer(state, learning_rate=1e-3))
    return path


def rewrite_header(path, blob):
    """Replace the checkpoint's header by `blob`, fixing its length."""
    raw = path.read_bytes()
    start = len(field.CHECKPOINT_MAGIC) + 12
    (header_len,) = struct.unpack_from("<Q", raw, start - 8)
    path.write_bytes(raw[:start - 8] + struct.pack("<Q", len(blob)) + blob
                     + raw[start + header_len:])


class TestCheckpointFuzz:
    """Every truncation and every single-bit flip of a small checkpoint."""

    # 31 parameters keep the exhaustive loops short
    CONFIG = field.FieldConfig(hidden_widths=(2,), time_embed_dim=2,
                               activation="tanh", seed=4, zero_init_output=False)

    @pytest.fixture(scope="class")
    def raw(self, tmp_path_factory):
        state = field.init_model(self.CONFIG)
        opt = field.init_optimizer(state, learning_rate=3e-4)
        grad = np.random.default_rng(5).normal(size=state.weights.shape)
        state, opt = field.apply_gradient(state, opt, grad)
        state = field.ema_update(state, 0.9)
        path = tmp_path_factory.mktemp("fuzz") / "small.ckpt"
        field.save_checkpoint(path, state, opt)
        return path.read_bytes()

    def test_every_truncation_raises_value_error(self, raw, tmp_path):
        path = tmp_path / "cut.ckpt"
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(ValueError):
                field.load_checkpoint(path)

    def test_every_bit_flip_raises_value_error_or_round_trips(self, raw,
                                                              tmp_path):
        path = tmp_path / "flipped.ckpt"
        resaved = tmp_path / "resaved.ckpt"
        loaded_count = 0
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(flipped)
            try:
                state, opt = field.load_checkpoint(path)
            except ValueError:
                continue
            loaded_count += 1
            field.save_checkpoint(resaved, state, opt)
            assert resaved.read_bytes() == bytes(flipped)
        # every flip inside the four arrays loads
        assert loaded_count >= 8 * 8 * 4 * field.parameter_count(self.CONFIG)
