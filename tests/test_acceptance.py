"""Release gate: nine end-to-end checks, one per shipping criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch
them) and exercises one claim about the toolkit: oracle equivalence of
the accelerated kernels, the straight-path flow algebra, Euler exactness
on constant fields, the guidance identities, gradient correctness of the
combined objective, the end-to-end toy completion win over the identity
baseline, the chamfer-term ablation direction, byte-level determinism of
the pipeline, and the statistical contracts of sampling and metrics.

The toy completion runs here train real models; the whole module takes a
few minutes of CPU time.
"""
import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from flowcomplete import (cli, cloud_io, coupling, field, geometry, metrics,
                          objective, sampler, scenes, train)
from flowcomplete.config import RunConfig
from oracles import (assert_grad_matches_fd, bev_counts_recount,
                     chamfer_assignments, chamfer_sum_exhaustive,
                     nn_map_exhaustive, voxel_cells_recount)


def _verdict(number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# toy completion benchmark shared by the end-to-end and ablation checks
# ---------------------------------------------------------------------------

COPIES = 10
NOISE_SCALE = 0.25  # meters
SCAN_BUDGET = 512
TRAIN_EPOCHS = 100  # 24 cases / batch 4 -> 600 optimizer steps
BATCH_SIZE = 4
LEARNING_RATE = 2e-3
EMA_DECAY = 0.995
P_NULL = 0.1
TRAIN_CONFIG = RunConfig(copies=COPIES, noise_scale=NOISE_SCALE,
                         epochs=TRAIN_EPOCHS, batch_size=BATCH_SIZE,
                         learning_rate=LEARNING_RATE, ema_decay=EMA_DECAY,
                         p_null=P_NULL).validate()
SAMPLE_CONFIG = sampler.SamplerConfig(steps=10, guidance_weight=3.0,
                                      use_ema=True)
IOU_RESOLUTION = 0.5
# half-cell shift keeps the ground plane inside a voxel layer instead of
# exactly on a cell boundary, where the metric would only measure the
# sign of the height error
IOU_ORIGIN = (-0.25, -0.25, -0.25)


def _toy_scene_spec(seed):
    """Small courtyard scenes: low walls plus a box or post or two.

    Kept deliberately open (low primitives, raised sensor) so that most
    missing structure is recoverable from context; surfaces nobody could
    ever observe would only add an irreducible floor to the scores.
    """
    rng = np.random.default_rng([seed, 0x70F])
    prims = []
    for _ in range(rng.integers(2, 4)):
        radius = rng.uniform(1.2, 2.0)
        theta = rng.uniform(0.0, 2 * np.pi)
        prims.append(scenes.Wall(
            center=(radius * np.cos(theta), radius * np.sin(theta), 0.0),
            width=rng.uniform(1.2, 2.0),
            height=rng.uniform(0.4, 0.7),
            yaw=rng.uniform(0.0, np.pi),
        ))
    for _ in range(rng.integers(1, 3)):
        radius = rng.uniform(1.1, 2.2)
        theta = rng.uniform(0.0, 2 * np.pi)
        if rng.uniform() < 0.5:
            side = rng.uniform(0.4, 0.7)
            tall = rng.uniform(0.4, 0.8)
            prims.append(scenes.Box(
                center=(radius * np.cos(theta), radius * np.sin(theta),
                        tall / 2),
                size=(side, side, tall),
                yaw=rng.uniform(0.0, np.pi),
            ))
        else:
            prims.append(scenes.Cylinder(
                center=(radius * np.cos(theta), radius * np.sin(theta), 0.0),
                radius=rng.uniform(0.15, 0.3),
                height=rng.uniform(0.4, 0.7),
            ))
    return scenes.SceneSpec(ground_half_extent=3.0, density=60.0, seed=seed,
                            primitives=tuple(prims))


def _toy_case(seed):
    scan = scenes.ScanSpec(origin=(0.0, 0.0, 1.5), azimuth_count=180,
                           elevation_count=24, max_range=10.0, dropout=0.0,
                           budget=SCAN_BUDGET, seed=seed,
                           elevation_range=(-1.0, 0.05))
    return scenes.build_case(f"case-{seed}", _toy_scene_spec(seed), scan)


def _train_toy(cases, chamfer_weight):
    """Train through train.fit, the loop the CLI trainer runs."""
    cfg = dataclasses.replace(TRAIN_CONFIG, chamfer_weight=chamfer_weight)
    state, _ = train.fit([(case.scene, case.scan) for case in cases], cfg)
    return state


def _complete_and_score(state, world):
    cds, ious = [], []
    for x0, case in zip(world["inits"], world["held_out"]):
        pred = sampler.euler_integrate(state, x0, case.scan, SAMPLE_CONFIG)
        cds.append(metrics.eval_chamfer(pred, case.scene))
        ious.append(metrics.eval_voxel_iou(pred, case.scene, IOU_RESOLUTION,
                                           origin=IOU_ORIGIN))
    return float(np.mean(cds)), float(np.mean(ious))


@pytest.fixture(scope="module")
def toy_world():
    """Training cases, held-out cases, their jittered inits, baselines."""
    start = time.perf_counter()
    train_cases = [_toy_case(seed) for seed in range(100, 124)]
    held_out = [_toy_case(seed) for seed in range(200, 216)]
    inits = [coupling.noisy_initial_cloud(
        case.scan, coupling.InitialDistribution(COPIES, NOISE_SCALE), seed=1000 + i)
        for i, case in enumerate(held_out)]
    base_cd = float(np.mean([metrics.eval_chamfer(x0, case.scene)
                             for x0, case in zip(inits, held_out)]))
    base_iou = float(np.mean(
        [metrics.eval_voxel_iou(x0, case.scene, IOU_RESOLUTION,
                                origin=IOU_ORIGIN)
         for x0, case in zip(inits, held_out)]))
    return {
        "train_cases": train_cases,
        "held_out": held_out,
        "inits": inits,
        "base_cd": base_cd,
        "base_iou": base_iou,
        "seconds": time.perf_counter() - start,
    }


@pytest.fixture(scope="module")
def combined_model(toy_world):
    """The (flow=1, chamfer=0.1) arm; shared with the ablation check."""
    start = time.perf_counter()
    state = _train_toy(toy_world["train_cases"], chamfer_weight=0.1)
    return {"state": state, "seconds": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# 1. accelerated kernels match exhaustive oracles
# ---------------------------------------------------------------------------

def test_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_chamfer = 0.0
    for _ in range(100):
        n, m = rng.integers(1, 257, size=2)
        a = rng.uniform(-1.0, 1.0, size=(int(n), 3))
        b = rng.uniform(-1.0, 1.0, size=(int(m), 3))

        assert np.array_equal(geometry.nearest_neighbor_map(a, b),
                              nn_map_exhaustive(a, b))

        fast = geometry.chamfer_distance(a, b)
        slow = chamfer_sum_exhaustive(a, b)
        worst_chamfer = max(worst_chamfer, abs(fast - slow) / slow)

        assert geometry.voxelize(a, 0.3).occupied == \
            voxel_cells_recount(a, 0.3)
        inter = voxel_cells_recount(a, 0.3) & voxel_cells_recount(b, 0.3)
        union = voxel_cells_recount(a, 0.3) | voxel_cells_recount(b, 0.3)
        assert metrics.eval_voxel_iou(a, b, 0.3) == len(inter) / len(union)

        hist = geometry.bev_histogram(a, 0.25, (-1.0, 1.0, -1.0, 1.0))
        counts, dropped = bev_counts_recount(a, 0.25, (-1.0, 1.0, -1.0, 1.0))
        assert np.array_equal(hist.counts, counts)
        assert hist.dropped == dropped
    elapsed = time.perf_counter() - start
    _verdict(1, "oracle equivalence",
             worst_chamfer <= 1e-9 and elapsed < 30.0,
             f"100 pairs, chamfer rel err {worst_chamfer:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. straight-path flow algebra
# ---------------------------------------------------------------------------

def test_flow_algebra():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n, m in [(5, 3), (40, 64), (128, 100), (256, 17)]:
        x0 = rng.uniform(-1.0, 1.0, size=(n, 3))
        x1 = rng.uniform(-1.0, 1.0, size=(m, 3))
        targets = x1[geometry.nearest_neighbor_map(x0, x1)]
        reference_v = None
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            flow = coupling.nearest_neighbor_flow(x0, x1, t)
            residual = flow.x_t + (1.0 - t) * flow.v_target - targets
            worst = max(worst, float(np.abs(residual).max()))
            if reference_v is None:
                reference_v = flow.v_target
            else:
                assert np.array_equal(flow.v_target, reference_v)
    _verdict(2, "flow algebra", worst <= 1e-12,
             f"max |x_t + (1-t)v - target| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Euler integration is exact on constant fields
# ---------------------------------------------------------------------------

def test_euler_exactness():
    rng = np.random.default_rng(12)
    x0 = rng.uniform(-1.0, 1.0, size=(96, 3))
    x1 = rng.uniform(-1.0, 1.0, size=(80, 3))
    targets = x1[geometry.nearest_neighbor_map(x0, x1)]
    frozen = targets - x0  # displacement field fixed at its t=0 value

    finals = []
    for steps in (1, 2, 5, 10):
        config = sampler.SamplerConfig(steps=steps, guidance_weight=1.0,
                                        use_ema=True)
        finals.append(sampler.euler_integrate(
            None, x0, None, config, field_fn=lambda t, state: frozen))
    landing = max(float(np.abs(f - targets).max()) for f in finals)
    spread = max(float(np.abs(f - finals[0]).max()) for f in finals[1:])
    _verdict(3, "Euler exactness", landing <= 1e-10 and spread <= 1e-12,
             f"landing err {landing:.2e}, cross-step spread {spread:.2e}")


# ---------------------------------------------------------------------------
# 4. guidance identities at w = 1 and w = 0
# ---------------------------------------------------------------------------

def test_guidance_identities():
    rng = np.random.default_rng(31)
    exact = True
    for trial in range(10):
        config = field.FieldConfig(
            hidden_widths=(int(rng.integers(4, 24)),) * int(rng.integers(1, 3)),
            time_embed_dim=2 * int(rng.integers(2, 6)),
            activation="tanh",
            seed=int(rng.integers(2 ** 31)),
            zero_init_output=False,
        )
        state = field.init_model(config)
        # make the EMA shadow distinct so use_ema exercises a second path
        state.ema_weights = state.weights + rng.normal(
            scale=0.05, size=state.weights.shape)
        x_t = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 48)), 3))
        scan = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 32)), 3))
        t = float(rng.uniform())
        use_ema = bool(trial % 2)
        conditioned = field.forward(state, t, x_t, scan, use_ema=use_ema)
        unconditioned = field.forward(state, t, x_t, None, use_ema=use_ema)
        exact &= np.array_equal(
            sampler.guided_field(state, t, x_t, scan, 1.0, use_ema=use_ema),
            conditioned)
        exact &= np.array_equal(
            sampler.guided_field(state, t, x_t, scan, 0.0, use_ema=use_ema),
            unconditioned)
    _verdict(4, "guidance identities", exact,
             "w=1 and w=0 bit-exact on 10 random checkpoints")


# ---------------------------------------------------------------------------
# 5. analytic gradients of the combined loss
# ---------------------------------------------------------------------------

def test_gradient_correctness():
    weights = objective.LossWeights(chamfer=0.1)
    start = time.perf_counter()
    for instance in range(20):
        rng = np.random.default_rng(500 + instance)
        config = field.FieldConfig(hidden_widths=(16, 16), time_embed_dim=4,
                                   activation="tanh", seed=900 + instance,
                                   zero_init_output=False)
        state = field.init_model(config)
        x0 = rng.uniform(-1.0, 1.0, size=(int(rng.integers(33, 65)), 3))
        x1 = rng.uniform(-1.0, 1.0, size=(int(rng.integers(16, 65)), 3))
        scan = (rng.uniform(-1.0, 1.0, size=(12, 3))
                if instance % 3 else None)
        sample = coupling.nearest_neighbor_flow(
            x0, x1, float(rng.uniform()), condition=scan)
        _, grad = field.loss_and_grad(state, sample, weights)

        def scalar(flat, sample=sample):
            trial = field.ModelState(config, flat, flat, 0)
            report, _ = field.loss_and_grad(trial, sample, weights)
            return report.total

        def assignments(flat, sample=sample):
            trial = field.ModelState(config, flat, flat, 0)
            u = field.forward(trial, sample.t, sample.x_t, sample.condition,
                              use_ema=False)
            return chamfer_assignments(sample.x0, u, sample.x1)

        assert_grad_matches_fd(scalar, grad, state.weights, assignments,
                               tol=1e-4)
    elapsed = time.perf_counter() - start
    _verdict(5, "gradient correctness", elapsed < 60.0,
             f"20 instances within 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. end-to-end toy completion beats the identity baseline
# ---------------------------------------------------------------------------

def test_toy_completion(toy_world, combined_model):
    start = time.perf_counter()
    cd, iou = _complete_and_score(combined_model["state"], toy_world)
    seconds = (toy_world["seconds"] + combined_model["seconds"]
               + time.perf_counter() - start)
    cd_ratio = cd / toy_world["base_cd"]
    iou_ratio = iou / toy_world["base_iou"]
    steps = combined_model["state"].step_count
    ok = (cd_ratio <= 0.5 and iou_ratio >= 1.5
          and steps <= 5000 and seconds < 600.0)
    _verdict(6, "toy completion", ok,
             f"cd {cd:.4f} vs baseline {toy_world['base_cd']:.4f} "
             f"(ratio {cd_ratio:.3f}, need <= 0.5); "
             f"iou {iou:.3f} vs {toy_world['base_iou']:.3f} "
             f"(ratio {iou_ratio:.2f}, need >= 1.5); "
             f"{steps} steps, {seconds:.0f}s")


# ---------------------------------------------------------------------------
# 7. the chamfer term does not hurt the chamfer metric
# ---------------------------------------------------------------------------

def test_chamfer_term_ablation(toy_world, combined_model):
    flow_only = _train_toy(toy_world["train_cases"], chamfer_weight=0.0)
    cd_combined, _ = _complete_and_score(combined_model["state"], toy_world)
    cd_flow_only, _ = _complete_and_score(flow_only, toy_world)
    _verdict(7, "chamfer-term ablation", cd_combined <= cd_flow_only,
             f"combined {cd_combined:.6f} <= flow-only {cd_flow_only:.6f}")


# ---------------------------------------------------------------------------
# 8. determinism of the pipeline and binary round-trips
# ---------------------------------------------------------------------------

def _pipeline(root, monkeypatch, capsys):
    flags = ["--cases", "2", "--scan-budget", "64", "--copies", "2",
             "--density", "25", "--scan-azimuths", "90",
             "--scan-elevations", "6", "--hidden-widths", "16,16",
             "--noise-scale", "0.25", "--epochs", "2", "--seed", "5"]
    data = root / "data"
    checkpoint = root / "checkpoint.bin"
    completed = root / "completed.ply"
    commands = [
        ["make-data", *flags, "--out", str(data)],
        ["train", *flags, "--data", str(data), "--out", str(checkpoint)],
        ["complete", *flags, "--checkpoint", str(checkpoint),
         "--scan", str(data / "scans" / "case-000.ply"),
         "--out", str(completed)],
    ]
    for argv in commands:
        monkeypatch.setattr(sys, "argv", ["flowcomplete", *argv])
        with pytest.raises(SystemExit) as exc_info:
            cli.main_entry()
        assert exc_info.value.code == 0, capsys.readouterr().err
    return [data / "manifest.tsv", data / "scenes" / "case-001.ply",
            data / "scans" / "case-000.ply", checkpoint, completed]


def test_determinism_and_roundtrip(tmp_path, monkeypatch, capsys):
    first = _pipeline(tmp_path / "a", monkeypatch, capsys)
    second = _pipeline(tmp_path / "b", monkeypatch, capsys)
    identical = all(x.read_bytes() == y.read_bytes()
                    for x, y in zip(first, second))

    cloud = np.random.default_rng(3).uniform(-8, 8, size=(257, 3))
    cloud = cloud.astype("<f4").astype(np.float64)  # storable exactly
    path_a, path_b = tmp_path / "rt1.ply", tmp_path / "rt2.ply"
    cloud_io.write_cloud(cloud, path_a)
    reread = cloud_io.read_cloud(path_a)
    cloud_io.write_cloud(reread, path_b)
    roundtrip = (np.array_equal(reread, cloud)
                 and path_a.read_bytes() == path_b.read_bytes())
    _verdict(8, "determinism and round-trip", identical and roundtrip,
             "rerun byte-identical; binary cloud file bit-exact")


# ---------------------------------------------------------------------------
# 9. statistical contracts
# ---------------------------------------------------------------------------

def test_statistical_contracts():
    rng = np.random.default_rng(2024)
    scan = rng.uniform(-1.0, 1.0, size=(8, 3))
    nulls = sum(coupling.draw_condition(scan, 0.1, rng) is None
                for _ in range(10_000))
    frequency = nulls / 10_000.0

    extent = (-1.0, 1.0, -1.0, 1.0)
    in_bounds = True
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, size=(int(rng.integers(10, 200)), 3))
        b = rng.uniform(-1.0, 1.0, size=(int(rng.integers(10, 200)), 3))
        value = metrics.eval_bev_jsd(a, b, resolution=0.25, extent=extent)
        in_bounds &= 0.0 <= value <= math.log(2.0) + 1e-12
    left = rng.uniform(-0.9, -0.1, size=(120, 3))
    right = rng.uniform(0.1, 0.9, size=(150, 3))
    disjoint = metrics.eval_bev_jsd(left, right, resolution=0.25,
                                    extent=extent)
    ok = (abs(frequency - 0.1) <= 0.01 and in_bounds
          and abs(disjoint - math.log(2.0)) <= 1e-12)
    _verdict(9, "statistical contracts", ok,
             f"null frequency {frequency:.4f}; "
             f"disjoint JSD off by {abs(disjoint - math.log(2.0)):.1e}")
