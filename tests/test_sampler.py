import numpy as np
import pytest

from flowcomplete import coupling, field, geometry, sampler
from oracles import nn_map_exhaustive


TEN_STEPS = sampler.SamplerConfig(steps=10, guidance_weight=6.0, use_ema=True)


def random_cloud(rng, n):
    return rng.uniform(-1, 1, size=(n, 3))


def random_model(seed, zero_output=False):
    cfg = field.FieldConfig(hidden_widths=(8, 8), time_embed_dim=4,
                            activation="tanh", seed=seed,
                            zero_init_output=zero_output)
    state = field.init_model(cfg)
    if not zero_output:
        # make the EMA shadow differ from the live weights
        state.weights[:] += np.random.default_rng(seed + 1).normal(
            scale=0.05, size=state.weights.shape
        )
    return state


def wide_model(seed):
    # the (128, 128) width of a full-size completion, with a distinct EMA
    cfg = field.FieldConfig(hidden_widths=(128, 128), time_embed_dim=8,
                            activation="tanh", seed=seed,
                            zero_init_output=False)
    state = field.init_model(cfg)
    state.weights[:] += np.random.default_rng(seed + 1).normal(
        scale=0.05, size=state.weights.shape)
    return state


def tree_rows_per_query(monkeypatch):
    """Per query of any TrackingNeighborIndex, the rows it sent to its
    tree; the others kept their stored nearest row."""
    counts = []
    query = geometry.TrackingNeighborIndex.query
    nearest_two = geometry.NeighborIndex._nearest_two

    def counted_query(index, source):
        counts.append(0)
        return query(index, source)

    def counted_nearest_two(index, src):
        if isinstance(index, geometry.TrackingNeighborIndex):
            counts[-1] += len(src)
        return nearest_two(index, src)

    monkeypatch.setattr(geometry.TrackingNeighborIndex, "query", counted_query)
    monkeypatch.setattr(geometry.NeighborIndex, "_nearest_two", counted_nearest_two)
    return counts


class TestSamplerConfig:
    def test_bad_steps(self):
        with pytest.raises(ValueError, match="steps"):
            sampler.SamplerConfig(steps=0, guidance_weight=6.0,
                                  use_ema=True)


class TestGuidedField:
    def test_weight_one_is_conditioned_forward(self):
        rng = np.random.default_rng(0)
        pts, scan = random_cloud(rng, 14), random_cloud(rng, 6)
        for seed in range(10):
            state = random_model(seed)
            got = sampler.guided_field(state, 0.4, pts, scan, w=1.0,
                                       use_ema=False)
            want = field.forward(state, 0.4, pts, scan, use_ema=False)
            assert np.array_equal(got, want)

    def test_weight_zero_is_unconditioned_forward(self):
        rng = np.random.default_rng(1)
        pts, scan = random_cloud(rng, 14), random_cloud(rng, 6)
        for seed in range(10):
            state = random_model(seed)
            got = sampler.guided_field(state, 0.4, pts, scan, w=0.0,
                                       use_ema=False)
            want = field.forward(state, 0.4, pts, None, use_ema=False)
            assert np.array_equal(got, want)

    def test_general_weight_formula(self):
        rng = np.random.default_rng(2)
        pts, scan = random_cloud(rng, 10), random_cloud(rng, 5)
        state = random_model(3)
        u_cond = field.forward(state, 0.7, pts, scan, use_ema=False)
        u_null = field.forward(state, 0.7, pts, None, use_ema=False)
        got = sampler.guided_field(state, 0.7, pts, scan, w=6.0,
                                   use_ema=False)
        assert np.array_equal(got, u_null + 6.0 * (u_cond - u_null))


class TestEulerIntegrate:
    def test_zero_field_is_identity_flow(self):
        rng = np.random.default_rng(3)
        x0 = random_cloud(rng, 30)
        scan = random_cloud(rng, 10)
        state = random_model(4, zero_output=True)
        out = sampler.euler_integrate(state, x0, scan, TEN_STEPS)
        assert np.array_equal(out, x0)

    def test_constant_field_exactness(self):
        # A field frozen to the t=0 NN displacements is constant, so Euler
        # must land on the NN targets for any step count.
        rng = np.random.default_rng(5)
        x0 = random_cloud(rng, 40)
        x1 = random_cloud(rng, 25)
        targets = x1[nn_map_exhaustive(x0, x1)]
        v = targets - x0
        state = random_model(6)
        finals = []
        for steps in (1, 2, 5, 10):
            cfg = sampler.SamplerConfig(steps=steps, guidance_weight=6.0,
                                        use_ema=True)
            final = sampler.euler_integrate(
                state, x0, None, cfg, field_fn=lambda t, x: v
            )
            assert np.max(np.abs(final - targets)) < 1e-10
            finals.append(final)
        for other in finals[1:]:
            assert np.max(np.abs(finals[0] - other)) < 1e-12

    def test_point_count_invariant(self):
        rng = np.random.default_rng(7)
        x0 = random_cloud(rng, 23)
        scan = random_cloud(rng, 9)
        state = random_model(8)
        states = []
        cfg = sampler.SamplerConfig(steps=4, guidance_weight=6.0, use_ema=True)
        sampler.euler_integrate(state, x0, scan, cfg,
                                on_step=lambda t, x: states.append(x))
        assert len(states) == 5
        assert all(len(s) == 23 for s in states)

    def test_trajectory_recording(self):
        rng = np.random.default_rng(9)
        x0 = random_cloud(rng, 8)
        state = random_model(10)
        seen = []
        out = sampler.euler_integrate(
            state, x0, None,
            sampler.SamplerConfig(steps=5, guidance_weight=6.0, use_ema=True),
            on_step=lambda t, x: seen.append((t, x.tobytes())))
        assert [t for t, _ in seen] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        assert seen[0][1] == x0.tobytes()
        assert seen[-1][1] == out.tobytes()
        # the field moved the cloud, so each step saw a state of its own
        assert len({x for _, x in seen}) == 6

    def test_deterministic_given_checkpoint(self):
        rng = np.random.default_rng(11)
        x0 = random_cloud(rng, 12)
        scan = random_cloud(rng, 6)
        state = random_model(12)
        cfg = TEN_STEPS
        a = sampler.euler_integrate(state, x0, scan, cfg)
        b = sampler.euler_integrate(state, x0, scan, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("record", [False, True])
    def test_default_field_matches_fresh_guided_field_loop(self, w, record):
        # The integrator's shared hidden-layer buffers change no bit.
        rng = np.random.default_rng(17)
        x0, scan = random_cloud(rng, 150), random_cloud(rng, 30)
        state = wide_model(18)
        cfg = sampler.SamplerConfig(steps=4, guidance_weight=w, use_ema=True)
        seen = []
        on_step = (lambda t, x: seen.append(x.tobytes())) if record else None
        out = sampler.euler_integrate(state, x0, scan, cfg, on_step=on_step)
        x, want = x0.copy(), [x0.tobytes()]
        for k in range(cfg.steps):
            x = x + (1.0 / cfg.steps) * sampler.guided_field(
                state, k / cfg.steps, x, scan, w, use_ema=True)
            want.append(x.tobytes())
        assert out.tobytes() == want[-1]
        assert seen == (want if record else [])

    def test_integrations_of_different_sizes_match_solo_runs(self):
        rng = np.random.default_rng(19)
        small, large = random_cloud(rng, 40), random_cloud(rng, 170)
        scan = random_cloud(rng, 25)
        state = wide_model(20)
        cfg = sampler.SamplerConfig(steps=3, guidance_weight=3.0,
                                    use_ema=True)
        solo_small = sampler.euler_integrate(state, small, scan, cfg)
        solo_large = sampler.euler_integrate(state, large, scan, cfg)
        for _ in range(2):
            again_large = sampler.euler_integrate(state, large, scan, cfg)
            again_small = sampler.euler_integrate(state, small, scan, cfg)
            assert again_large.tobytes() == solo_large.tobytes()
            assert again_small.tobytes() == solo_small.tobytes()

    def test_nonfinite_state_names_step(self):
        rng = np.random.default_rng(12)
        x0 = random_cloud(rng, 4)
        state = random_model(13)

        def exploding(t, x):
            return np.full_like(x, np.inf) if t >= 0.5 else np.zeros_like(x)

        def raising(error):
            # a field that fails itself: the network's overflow check, or a
            # condition query whose distances overflow
            def field_fn(t, x):
                if t >= 0.5:
                    raise error
                return np.zeros_like(x)
            return field_fn

        for field_fn, message in (
                (exploding, "non-finite state"),
                (raising(FloatingPointError("numeric overflow in field")),
                 "numeric overflow in field"),
                (raising(geometry.DistanceOverflowError("distance overflows")),
                 "distance overflows")):
            seen = []
            with pytest.raises(FloatingPointError,
                               match=f"{message} at integration step 5$"):
                sampler.euler_integrate(state, x0, None,
                                        TEN_STEPS,
                                        field_fn=field_fn,
                                        on_step=lambda t, x: seen.append(t))
            # the states up to t = 5/10 were handed on; the failing step's
            # was not
            assert seen == [k / 10 for k in range(6)]


class TestCompleteScene:
    """A completion: the jittered scan integrated to t=1, as `complete` runs it."""

    def test_zero_field_returns_noisy_initial(self, monkeypatch):
        rng = np.random.default_rng(13)
        scan = random_cloud(rng, 16)
        noise = coupling.NoiseConfig(scale=0.25, seed=77)
        state = random_model(14, zero_output=True)
        x0 = coupling.noisy_initial_cloud(scan, 10, noise)
        tree_rows = tree_rows_per_query(monkeypatch)
        out = sampler.euler_integrate(state, x0, scan, TEN_STEPS)
        want = coupling.noisy_initial_cloud(scan, 10, noise)
        assert np.array_equal(out, want)
        # no point moves, so after the first step every point keeps its row
        assert tree_rows == [160] + [0] * 9

    def test_output_size(self):
        rng = np.random.default_rng(14)
        scan = random_cloud(rng, 21)
        state = random_model(15)
        x0 = coupling.noisy_initial_cloud(
            scan, 10, coupling.NoiseConfig(scale=0.1, seed=5))
        cfg = sampler.SamplerConfig(steps=2, guidance_weight=6.0, use_ema=True)
        out = sampler.euler_integrate(state, x0, scan, cfg)
        assert out.shape == (210, 3)


    def test_matches_guided_steps_on_the_scan_array(self, monkeypatch):
        # The completion's build-once scan index, which keeps a point's
        # nearest row while a bound proves it, must not change any bit
        # against a fresh index over the scan array at every step.
        rng = np.random.default_rng(15)
        scan = random_cloud(rng, 40)
        noise = coupling.NoiseConfig(scale=0.1, seed=6)
        state = random_model(16)
        cfg = sampler.SamplerConfig(steps=10, guidance_weight=2.5,
                                    use_ema=True)
        x = coupling.noisy_initial_cloud(scan, 4, noise)
        tree_rows = tree_rows_per_query(monkeypatch)
        out = sampler.euler_integrate(state, x, scan, cfg)
        for k in range(cfg.steps):
            x = x + (1.0 / cfg.steps) * sampler.guided_field(
                state, k / cfg.steps, x, scan, cfg.guidance_weight, use_ema=True)
        assert out.tobytes() == x.tobytes()
        # the first step queries every point; the later ones re-query some
        # points and keep the rows of others
        assert tree_rows[0] == 160
        requeried = sum(tree_rows[1:])
        assert 0 < requeried < 160 * (cfg.steps - 1)