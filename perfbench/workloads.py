"""Benchmark workloads: the shapes each run pushes through the CLI pipeline.

Every workload shares the completion protocol (noise 0.25, batch 4,
chamfer weight 0.1, 10 Euler steps, guidance 3.0) and differs in the input
properties that decide which layer does the work: scene density (size of
the fixed target cloud), ray count (scan simulation), scan budget times
copies (size of the moving cloud x0) and field width (MLP cost per point).
README.md in this directory gives the measured layer shares behind each
choice.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

NOISE_SCALE = 0.25
BATCH_SIZE = 4
CHAMFER_WEIGHT = 0.1
EULER_STEPS = 10
GUIDANCE = 3.0
LEARNING_RATE = 2e-3
# A short run leaves a 0.9999 EMA at the untrained weights; 0.95 lets the
# completions depend on what was trained, so cd_m guards the numerics.
EMA_DECAY = 0.95

# Training scenes come from a block of scene seeds picked by the workload
# seed; the held-out scenes are one fixed block below every training block,
# so cd_m and IoU compare models on the same test set and the completion
# and eval timings see the same clouds whatever the seed.
SEED_STRIDE = 1000
HELDOUT_SCENE_SEED = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    density: float
    scan_azimuths: int
    scan_elevations: int
    scan_budget: int
    copies: int
    hidden_widths: tuple
    train_cases: int
    heldout_cases: int
    train_steps: int
    eval_repeats: int

    def train_scene_seed(self, seed: int, block: int) -> int:
        """First scene seed of training block `block` of run seed `seed`."""
        return (seed + 1) * SEED_STRIDE + block * self.train_cases

    def data_flags(self) -> list[str]:
        return ["--density", repr(self.density),
                "--scan-azimuths", str(self.scan_azimuths),
                "--scan-elevations", str(self.scan_elevations),
                "--scan-budget", str(self.scan_budget)]

    def smoke(self) -> "Workload":
        """A seconds-long copy for the self-tests: same flags, tiny sizes."""
        return dataclasses.replace(
            self, density=min(self.density, 10.0), scan_azimuths=24,
            scan_elevations=6, scan_budget=32, copies=2, hidden_widths=(8,),
            train_cases=2, heldout_cases=1, train_steps=12, eval_repeats=2)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="office",
            why="make-data defaults: balanced mix, NN maps about half of a "
                "training sample and the MLP the rest",
            density=60.0, scan_azimuths=180, scan_elevations=12,
            scan_budget=512, copies=10, hidden_widths=(64, 64),
            train_cases=4, heldout_cases=2, train_steps=8, eval_repeats=3),
        Workload(
            name="dense-scene",
            why="18.8k-point scenes, 512-point x0: loads the fixed-cloud NN "
                "index (dedupe + tree build), bypasses the MLP and ray casting",
            density=240.0, scan_azimuths=90, scan_elevations=12,
            scan_budget=128, copies=4, hidden_widths=(64, 64),
            train_cases=4, heldout_cases=4, train_steps=8, eval_repeats=2),
        Workload(
            name="wide-cloud",
            why="6.1k-point x0, 128-wide MLP, 4.3k rays: loads the MLP, NN "
                "queries and synthesis, bypasses the fixed-scene tree build",
            density=15.0, scan_azimuths=360, scan_elevations=12,
            scan_budget=512, copies=12, hidden_widths=(128, 128),
            train_cases=4, heldout_cases=2, train_steps=8, eval_repeats=3),
    )
}
