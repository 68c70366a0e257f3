"""Run configuration: defaults, config-file parsing, and validation.

One flat namespace of typed keys covers data generation, training,
inference, and evaluation. Values come from (lowest to highest priority)
built-in defaults, a `key = value` config file, then command-line flags;
`build_config` alone parses, merges and attributes them. Unknown keys are
rejected up front, and every derived module config is constructed during
validation so range errors surface before any work.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .cloud_io import parse_number, read_utf8, split_lines
from .coupling import InitialDistribution
from .field import FieldConfig
from .geometry import bev_grid_shape, check_integer
from .objective import LossWeights
from .sampler import SamplerConfig
from .scenes import ScanSpec, SceneSpec, random_scene_spec


@dataclass
class RunConfig:
    # data generation
    cases: int = 8
    scene_seed: int = 0
    ground_half_extent: float = 4.0
    density: float = 60.0
    scan_azimuths: int = 180
    scan_elevations: int = 12
    scan_max_range: float = 10.0
    scan_dropout: float = 0.0
    scan_budget: int = 512
    sensor_height: float = 0.6

    # coupling
    copies: int = 10
    noise_scale: float = 0.25

    # model
    hidden_widths: tuple = (64, 64)
    time_embed_dim: int = 8
    activation: str = "tanh"

    # training
    epochs: int = 100
    batch_size: int = 4
    learning_rate: float = 2e-3
    p_null: float = 0.1
    chamfer_weight: float = 0.1
    ema_decay: float = 0.995
    max_steps: int = 0  # 0 = no cap
    seed: int = 0

    # sampling
    steps: int = 10
    guidance: float = 3.0
    use_ema: bool = True
    record_trajectory: bool = False  # `complete` writes every Euler state

    # evaluation
    bev_resolution: float = 0.5
    bev_half_extent: float = 50.0

    # ---- derived module configs (constructing them validates ranges) ----

    def initial_distribution(self) -> InitialDistribution:
        return InitialDistribution(copies=self.copies, noise_scale=self.noise_scale)

    def field_config(self) -> FieldConfig:
        return FieldConfig(hidden_widths=self.hidden_widths,
                           time_embed_dim=self.time_embed_dim,
                           activation=self.activation, seed=self.seed)

    def loss_weights(self) -> LossWeights:
        return LossWeights(chamfer=self.chamfer_weight)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(steps=self.steps, guidance_weight=self.guidance,
                             use_ema=self.use_ema)

    def scene_spec(self, seed: int) -> SceneSpec:
        return random_scene_spec(seed, self.ground_half_extent, self.density)

    def scan_spec(self, seed: int) -> ScanSpec:
        return ScanSpec(origin=(0.0, 0.0, self.sensor_height),
                        azimuth_count=self.scan_azimuths,
                        elevation_count=self.scan_elevations,
                        max_range=self.scan_max_range,
                        dropout=self.scan_dropout,
                        budget=self.scan_budget, seed=seed)

    @property
    def bev_extent(self) -> tuple:
        h = self.bev_half_extent
        return (-h, h, -h, h)

    def validate(self) -> "RunConfig":
        # NaN fails no comparison, so the range checks below need finite values
        for name in _FLOAT_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"config key {name!r}: expected a finite number, got {value!r}"
                )
        # the module configs built below check the other integer keys
        check_integer(cases=self.cases, scene_seed=self.scene_seed,
                      epochs=self.epochs, batch_size=self.batch_size,
                      max_steps=self.max_steps)
        if self.cases < 0:
            raise ValueError("cases must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.p_null <= 1.0:
            raise ValueError("p_null must be in [0, 1]")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ValueError("ema decay must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scene_seed < 0:
            raise ValueError("scene_seed must be >= 0")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        bev_grid_shape(self.bev_resolution, self.bev_extent)
        # the module constructors check their own invariants
        self.initial_distribution()
        self.field_config()
        self.loss_weights()
        self.sampler_config()
        self.scene_spec(seed=0)
        self.scan_spec(seed=0)
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_FLOAT_KEYS = tuple(name for name, f in _FIELDS.items()
                    if isinstance(f.default, float))


def _parse_value(name: str, text: str):
    """Parse one config value according to the field's declared type."""
    if name not in _FIELDS:
        raise ValueError(f"unknown config key {name!r}")
    default = _FIELDS[name].default
    text = text.strip()
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {text!r}")
    if isinstance(default, (int, float)):
        value = parse_number(text, type(default))
        if value is None:
            expected = "an integer" if isinstance(default, int) else "a finite number"
            raise ValueError(f"config key {name!r}: expected {expected}, got {text!r}")
        return value
    if isinstance(default, tuple):  # hidden_widths: comma-separated ints, none empty
        widths = tuple(parse_number(part, int) for part in text.split(","))
        if None in widths:
            raise ValueError(
                f"config key {name!r}: expected comma-separated integers, got {text!r}"
            )
        return widths
    return text


def read_config_file(path) -> list:
    """The `(key, value text, "{path}: line N")` entries of a flat UTF-8
    `key = value` file, in line order, for `build_config`. A line that is
    not UTF-8 or not `key = value`, or that repeats a key, is a ValueError
    naming the file and the line."""
    entries = []
    first_line = {}
    for lineno, raw in enumerate(split_lines(read_utf8(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(
                f"{path}: line {lineno}: expected 'key = value', got {raw.rstrip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(f"{path}: line {lineno}: repeated config key "
                             f"{key!r} (first on line {first_line[key]})")
        first_line[key] = lineno
        entries.append((key, value.strip(), f"{path}: line {lineno}"))
    return entries


def build_config(entries) -> RunConfig:
    """Parse `(key, value text, where)` entries over the defaults, a later
    entry replacing an earlier one's value, and validate the merged config.

    Only the merged values are range-checked, so a flag may replace an
    out-of-range file value. An error reads "{where}: config key '{key}':
    {reason}" for the entry that fails to parse or, failing that, for the
    first value that breaks the config.
    """
    values, where = {}, {}
    for key, text, at in entries:
        try:
            value = _parse_value(key, text)
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from None
        values.pop(key, None)  # keep the keys in the order they apply
        values[key] = value
        where[key] = at
    try:
        return RunConfig(**values).validate()
    except ValueError:
        key, exc = _first_range_error(values)
        raise ValueError(f"{where[key]}: config key {key!r}: {exc}") from None


def _first_range_error(values: dict) -> tuple:
    # Applies the values to the defaults one at a time, in order, and
    # returns the first key after which the config fails validation, with
    # that error. `values` must fail validation as a whole.
    applied = {}
    for key, value in values.items():
        applied[key] = value
        try:
            RunConfig(**applied).validate()
        except ValueError as exc:
            return key, exc
    raise AssertionError("the values validate as a whole")
