"""Run configuration: defaults, config-file parsing, and validation.

One flat namespace of typed keys covers data generation, training,
inference, and evaluation. Values come from (lowest to highest priority)
built-in defaults, a `key = value` config file, then command-line flags.
Unknown keys are rejected up front, and every derived module config is
constructed during validation so range errors surface before any work.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .cloud_io import read_utf8, split_lines
from .coupling import NoiseConfig
from .field import FieldConfig
from .metrics import MetricConfig
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
    noise_scale: float = 1.0

    # model
    hidden_widths: tuple = (64, 64)
    time_embed_dim: int = 8
    activation: str = "tanh"

    # training
    epochs: int = 20
    batch_size: int = 4
    learning_rate: float = 1e-3
    p_null: float = 0.1
    flow_weight: float = 1.0
    chamfer_weight: float = 0.1
    ema_decay: float = 0.9999
    max_steps: int = 0  # 0 = no cap
    seed: int = 0

    # sampling
    steps: int = 10
    guidance: float = 6.0
    use_ema: bool = True
    record_trajectory: bool = False

    # evaluation
    bev_resolution: float = 0.5
    bev_half_extent: float = 50.0

    # paths
    data_dir: str = "data"
    output_dir: str = "out"

    # ---- derived module configs (constructing them validates ranges) ----

    def noise_config(self, seed=None) -> NoiseConfig:
        return NoiseConfig(scale=self.noise_scale, seed=seed)

    def field_config(self) -> FieldConfig:
        return FieldConfig(hidden_widths=self.hidden_widths,
                           time_embed_dim=self.time_embed_dim,
                           activation=self.activation, seed=self.seed)

    def loss_weights(self) -> LossWeights:
        return LossWeights(flow=self.flow_weight, chamfer=self.chamfer_weight)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(steps=self.steps, guidance_weight=self.guidance,
                             use_ema=self.use_ema,
                             record_trajectory=self.record_trajectory)

    def scene_spec(self, seed: int) -> SceneSpec:
        return random_scene_spec(seed, self.ground_half_extent, self.density)

    def scan_spec(self, seed: int) -> ScanSpec:
        return ScanSpec(origin=(0.0, 0.0, self.sensor_height),
                        azimuth_count=self.scan_azimuths,
                        elevation_count=self.scan_elevations,
                        max_range=self.scan_max_range,
                        dropout=self.scan_dropout,
                        budget=self.scan_budget, seed=seed)

    def metric_config(self) -> MetricConfig:
        h = self.bev_half_extent
        return MetricConfig(bev_resolution=self.bev_resolution,
                            bev_extent=(-h, h, -h, h))

    def validate(self) -> "RunConfig":
        # NaN fails no comparison, so the range checks below need finite values
        for name in _FLOAT_KEYS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"config key {name!r}: expected a finite number, got {value!r}"
                )
        if self.cases < 0:
            raise ValueError("cases must be >= 0")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
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
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.bev_resolution <= 0 or self.bev_half_extent <= 0:
            raise ValueError("evaluation grid sizes must be positive")
        if self.scan_budget < 1:
            raise ValueError("scan budget must be >= 1")
        # the module constructors check their own invariants
        self.noise_config()
        if self.noise_scale == 0:
            # NoiseConfig allows 0, an exact tiling of the scan; but then the
            # copies of a scan point start at one place and never separate
            raise ValueError("noise_scale must be > 0")
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
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValueError(
                f"config key {name!r}: expected an integer, got {text!r}"
            ) from None
    if isinstance(default, float):
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # not a number: rejected with the non-finite ones
        if not math.isfinite(value):
            raise ValueError(
                f"config key {name!r}: expected a finite number, got {text!r}"
            )
        return value
    if isinstance(default, tuple):  # hidden_widths: comma-separated ints
        try:
            return tuple(int(part) for part in text.split(",") if part.strip())
        except ValueError:
            raise ValueError(
                f"config key {name!r}: expected comma-separated integers, got {text!r}"
            ) from None
    return text


class Overrides(dict):
    """Typed config values by key. `origin[key]`, when set, says where a
    value came from (a file and line, or a flag) for range errors."""

    def __init__(self):
        super().__init__()
        self.origin = {}


def read_config_file(path) -> Overrides:
    """Parse a flat UTF-8 `key = value` file into typed overrides; errors
    are ValueErrors naming the file and the line. A key may appear once."""
    overrides = Overrides()
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
        try:
            overrides[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        overrides.origin[key] = f"{path}: line {lineno}: config key {key!r}"
    return overrides


def build_config(file_overrides: dict | None = None,
                 flag_overrides: dict | None = None) -> RunConfig:
    """Merge defaults, then file values, then flags; validate the result.

    Only the merged values are checked, so a flag may replace a file value
    that is out of range. A range error names the origin (see
    :class:`Overrides`) of the value that breaks the config, when known.
    """
    merged = {}
    origin = {}
    for layer in (file_overrides or {}, flag_overrides or {}):
        for key, value in layer.items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            merged.pop(key, None)  # keep the keys in the order they apply
            merged[key] = value
            origin[key] = getattr(layer, "origin", {}).get(key)
    try:
        return RunConfig(**merged).validate()
    except ValueError:
        key, exc = _first_range_error(merged)
        if origin[key] is None:
            raise
        raise ValueError(f"{origin[key]}: {exc}") from None


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
