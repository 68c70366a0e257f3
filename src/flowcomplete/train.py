"""The training loop: nearest-neighbor flow matching over (scene, scan) cases.

Each epoch visits the cases in a seeded random order, a batch at a time.
Every case in a batch becomes one sample: its scan tiled and jittered into
x0, a uniform time, a condition draw, and the coupling of x0 to the scene.
One Adam step on the batch's mean gradient and one EMA update follow. The
trained model is a pure function of the cases and the config.
"""
from __future__ import annotations

import numpy as np

# Called through their modules, never imported by name, so that code
# wrapping a module's functions also sees the calls made from here.
from . import coupling, field, geometry
from .config import RunConfig

# rng stream label for training, distinct from data-generation seeds
_TRAIN_STREAM = 0x7E41


class Diverged(FloatingPointError):
    """A step left the finite range; holds the model state from before it."""

    def __init__(self, state, cause: Exception):
        super().__init__(
            f"training aborted at step {state.step_count + 1} ({cause})")
        self.state = state


def fit(cases, cfg: RunConfig, on_step=None):
    """Train a field on (scene, scan) pairs; returns (state, opt).

    `on_step(step, epoch, report)` runs after every optimizer step, with
    the new `state.step_count`. A non-zero cfg.max_steps stops training
    after that many steps.

    Raises:
        Diverged: when a step overflows, carrying the last finite model
            state.
    """
    # One index per scene serves the coupling and the chamfer term of every
    # sample drawn from that case, and one per scan its condition features.
    cases = [(geometry.NeighborIndex(scene), geometry.NeighborIndex(scan))
             for scene, scan in cases]
    state = field.init_model(cfg.field_config())
    opt = field.init_optimizer(state, learning_rate=cfg.learning_rate)
    weights = cfg.loss_weights()
    init = cfg.initial_distribution()
    rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
    # One set of layer arrays for every step, grown to the largest sample:
    # scans, and so x0, can differ in size between cases.
    buffers = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(cases))
        for start in range(0, len(order), cfg.batch_size):
            samples = []
            for case_index in order[start:start + cfg.batch_size]:
                scene, scan = cases[case_index]
                x0 = coupling.noisy_initial_cloud(
                    scan, init, seed=int(rng.integers(2 ** 32)))
                t = coupling.sample_time(rng)
                condition = coupling.draw_condition(scan, cfg.p_null, rng)
                samples.append(coupling.nearest_neighbor_flow(
                    x0, scene, t, condition=condition))
            try:
                # A diverging step overflows on its way to the finiteness
                # checks that raise; numpy's warnings would only repeat them.
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    state, opt, report = field.train_batch(
                        state, opt, samples, weights, buffers=buffers)
            except FloatingPointError as exc:
                raise Diverged(state, exc) from exc
            state = field.ema_update(state, cfg.ema_decay)
            if on_step is not None:
                on_step(state.step_count, epoch, report)
            if state.step_count == cfg.max_steps:
                return state, opt
    return state, opt
