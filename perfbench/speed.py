"""A reference kernel that clocks the machine's current speed.

On a shared host the same code runs at speeds tens of percent apart from
one minute to the next (see README.md, "Noise"). The benchmark runs this
fixed piece of work between its timed calls and scales each timing by
`NOMINAL_S` over the kernel's median time around it, so a timing reads
as it would on the machine at a fixed speed. The kernel is the
benchmark's own code and uses numpy and scipy only: a change to the
package never changes the reference, and a faster package shows as a
smaller scaled time.

It mixes the kinds of work the package does: a KD-tree build and query
(nearest-neighbor maps), a sort-based dedupe, dense matrix products with
tanh (the MLP) and a Python loop over small numpy vectors (ray casting).
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# The kernel's time on the machine of BASELINE.md in its usual state, so
# that scaled times read close to wall times there.
NOMINAL_S = 0.020

_RNG = np.random.default_rng(0)
_CLOUD = _RNG.uniform(-4.0, 4.0, (4000, 3))
_QUERY = _RNG.uniform(-4.0, 4.0, (2000, 3))
_WEIGHT = _RNG.standard_normal((64, 64)) / 8.0
_INPUT = _RNG.standard_normal((3000, 64))
_ROTATION = np.eye(3)
_HALF = np.array([1.0, 0.5, 0.25])


def reference_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    start = time.perf_counter()
    cKDTree(_CLOUD).query(_QUERY)
    np.unique(np.round(_CLOUD, 1), axis=0)
    hidden = np.tanh(_INPUT @ _WEIGHT)
    hidden.T @ (hidden @ _WEIGHT)
    origin = np.zeros(3)
    for i in range(400):
        # a slab test of one ray against one box, as in scan simulation
        d = _ROTATION.T @ np.array([math.cos(i + 0.5), math.sin(i + 0.5), 0.1])
        o = _ROTATION.T @ (origin - _HALF)
        near, far = -math.inf, math.inf
        for axis in range(3):
            lo = (-_HALF[axis] - o[axis]) / d[axis]
            hi = (_HALF[axis] - o[axis]) / d[axis]
            near, far = max(near, min(lo, hi)), min(far, max(lo, hi))
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor that turns wall times taken among `samples` into scaled times."""
    return NOMINAL_S / statistics.median(samples)
