import dataclasses
import inspect

import numpy as np
import pytest

from flowcomplete import (config, coupling, field, geometry, metrics,
                          objective, sampler, scenes)

FLOAT_KEYS = [f.name for f in dataclasses.fields(config.RunConfig)
              if isinstance(f.default, float)]
INT_KEYS = [f.name for f in dataclasses.fields(config.RunConfig)
            if type(f.default) is int] + ["hidden_widths"]
# the name an integer error gives: the key of the module config that owns
# the value, where it is not the run config's own key
INT_KEY_OWNER = {"scan_azimuths": "azimuth_count",
                 "scan_elevations": "elevation_count", "scan_budget": "budget"}

# Values that RunConfig (or a caller's own seed) supplies: the classes and
# functions that take them keep no default of their own.
REQUIRED_FIELDS = [
    (coupling.InitialDistribution, "copies"),
    (coupling.InitialDistribution, "noise_scale"),
    (field.FieldConfig, "hidden_widths"), (field.FieldConfig, "time_embed_dim"),
    (field.FieldConfig, "activation"), (field.FieldConfig, "seed"),
    (field.OptimizerState, "learning_rate"), (field.OptimizerState, "m"),
    (field.OptimizerState, "v"),
    (objective.LossWeights, "chamfer"),
    (sampler.SamplerConfig, "steps"), (sampler.SamplerConfig, "guidance_weight"),
    (sampler.SamplerConfig, "use_ema"),
    (scenes.SceneSpec, "ground_half_extent"), (scenes.SceneSpec, "density"),
    (scenes.SceneSpec, "seed"),
    (scenes.ScanSpec, "origin"), (scenes.ScanSpec, "azimuth_count"),
    (scenes.ScanSpec, "elevation_count"), (scenes.ScanSpec, "max_range"),
    (scenes.ScanSpec, "dropout"), (scenes.ScanSpec, "budget"),
    (scenes.ScanSpec, "seed"),
]
REQUIRED_PARAMETERS = [
    (field.init_optimizer, "learning_rate"),
    (field.forward, "use_ema"),
    (sampler.guided_field, "use_ema"),
    (metrics.eval_bev_jsd, "resolution"), (metrics.eval_bev_jsd, "extent"),
    (metrics.evaluate, "bev_resolution"), (metrics.evaluate, "bev_extent"),
    (coupling.noisy_initial_cloud, "seed"),
    (geometry.farthest_point_sample, "seed"),
    (scenes.random_scene_spec, "ground_half_extent"),
    (scenes.random_scene_spec, "density"),
]


class TestParseValue:
    def test_int(self):
        assert config._parse_value("cases", "12") == 12

    def test_float(self):
        assert config._parse_value("noise_scale", "0.25") == 0.25

    def test_bool(self):
        assert config._parse_value("use_ema", "false") is False
        assert config._parse_value("use_ema", "TRUE") is True

    def test_widths_tuple(self):
        assert config._parse_value("hidden_widths", "32,16") == (32, 16)
        assert config._parse_value("hidden_widths", " 32 , 16 ") == (32, 16)

    @pytest.mark.parametrize("text", ["64,,64", "64,", ",64", ""])
    def test_widths_with_an_empty_part_rejected(self, text):
        with pytest.raises(ValueError, match="expected comma-separated integers"):
            config._parse_value("hidden_widths", text)

    def test_string(self):
        assert config._parse_value("activation", "relu") == "relu"

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config._parse_value("warp_speed", "9")

    def test_bad_int(self):
        with pytest.raises(ValueError, match="integer"):
            config._parse_value("cases", "many")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            config._parse_value("use_ema", "maybe")

    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, name):
        # "1e400" overflows to inf when parsed
        for text in ("nan", "NaN", "inf", "-inf", "infinity", "1e400"):
            with pytest.raises(ValueError, match=f"'{name}'.*finite"):
                config._parse_value(name, text)


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# toy settings\n"
            "cases = 4\n"
            "\n"
            "noise_scale = 0.25\n"
            "hidden_widths = 32,32\n"
        )
        entries = config.read_config_file(path)
        assert entries == [("cases", "4", f"{path}: line 2"),
                           ("noise_scale", "0.25", f"{path}: line 4"),
                           ("hidden_widths", "32,32", f"{path}: line 5")]
        cfg = config.build_config(entries)
        assert (cfg.cases, cfg.noise_scale, cfg.hidden_widths) == (4, 0.25, (32, 32))

    def test_unknown_key_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cases = 4\nbogus = 1\n")
        with pytest.raises(ValueError) as info:
            config.build_config(config.read_config_file(path))
        assert str(info.value) == f"{path}: line 2: unknown config key 'bogus'"

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cases = 1\n# again\n  cases=2\n")
        with pytest.raises(ValueError) as info:
            config.read_config_file(path)
        assert str(info.value) == (
            f"{path}: line 3: repeated config key 'cases' (first on line 1)")

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            config.read_config_file(path)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"cases = 4\n# caf\xe9\nseed = 1\n")
        with pytest.raises(ValueError) as info:
            config.read_config_file(path)
        assert str(info.value) == f"{path}: line 2: not valid UTF-8"

    @pytest.mark.parametrize("body, line", [(b"cases = 1\rseed = \xff\n", 2),
                                            (b"cases = 1\r\nseed = \xff\n", 2),
                                            (b"cases = 1\r\n\r\xff", 3)])
    def test_non_utf8_line_counts_every_line_end(self, tmp_path, body, line):
        # the same line rule as the parser's, which reports line 2 for
        # b"cases = 1\rbogus = 1"
        path = tmp_path / "run.cfg"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=f"line {line}: not valid UTF-8"):
            config.read_config_file(path)


def flags(**values) -> list:
    """`build_config` entries for flags, as the CLI lists them."""
    return [(key, str(value), f"flag --{key.replace('_', '-')}")
            for key, value in values.items()]


class TestBuildConfig:
    def test_defaults_are_valid(self):
        cfg = config.build_config([])
        assert cfg.copies == 10
        assert cfg.noise_scale == 0.25
        assert cfg.epochs == 100
        assert cfg.learning_rate == 2e-3
        assert cfg.steps == 10
        assert cfg.guidance == 3.0
        assert cfg.p_null == 0.1
        assert cfg.ema_decay == 0.995
        assert cfg.chamfer_weight == 0.1
        assert cfg.use_ema

    def test_flags_beat_file(self):
        cfg = config.build_config([("cases", "4", "run.cfg: line 1"),
                                   *flags(cases=7)])
        assert cfg.cases == 7

    def test_file_beats_defaults(self):
        cfg = config.build_config([("noise_scale", "0.5", "run.cfg: line 1")])
        assert cfg.noise_scale == 0.5

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError) as err:
            config.build_config(flags(bogus=1))
        assert str(err.value) == "flag --bogus: unknown config key 'bogus'"

    def test_invalid_values_rejected_before_work(self):
        with pytest.raises(ValueError, match="steps"):
            config.build_config(flags(steps=0))
        with pytest.raises(ValueError, match="p_null"):
            config.build_config(flags(p_null=1.5))
        with pytest.raises(ValueError, match="positive"):
            config.build_config(flags(learning_rate=-1.0))
        with pytest.raises(ValueError, match="> 0"):
            config.build_config(flags(noise_scale=-0.1))
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match="noise_scale must be > 0"):
                config.build_config(flags(noise_scale=zero))
        with pytest.raises(ValueError, match="copies"):
            config.build_config(flags(copies=0))
        with pytest.raises(ValueError, match="ema decay"):
            config.build_config(flags(ema_decay=1.5))
        with pytest.raises(ValueError, match="ground_half_extent"):
            config.build_config(flags(ground_half_extent=2.0))
        with pytest.raises(ValueError, match="density"):
            config.build_config(flags(density=-1.0))
        # numpy's generators take no negative seed
        with pytest.raises(ValueError, match="seed must be >= 0"):
            config.build_config(flags(seed=-1))
        with pytest.raises(ValueError, match="scene_seed must be >= 0"):
            config.build_config(flags(scene_seed=-3))

    def test_range_error_names_the_value_that_stands(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("copies = 0\nsteps = 0\n")
        lines = config.read_config_file(path)
        with pytest.raises(ValueError) as err:
            config.build_config(lines)
        assert str(err.value) == (
            f"{path}: line 1: config key 'copies': copies must be >= 1")
        # the replaced value is not checked
        with pytest.raises(ValueError) as err:
            config.build_config([*lines, *flags(copies=2)])
        assert str(err.value) == (
            f"{path}: line 2: config key 'steps': steps must be >= 1")
        assert config.build_config([*lines, *flags(copies=2, steps=3)]).steps == 3
        with pytest.raises(ValueError) as err:
            config.build_config(flags(steps=0))
        assert str(err.value) == "flag --steps: config key 'steps': steps must be >= 1"

    def test_zero_noise_scale_names_its_file_line(self, tmp_path):
        # at 0 every copy of a scan point starts at one place, so a
        # completion keeps only the scan's distinct rows
        path = tmp_path / "run.cfg"
        path.write_text("copies = 4\nnoise_scale = 0\n")
        with pytest.raises(ValueError) as err:
            config.build_config(config.read_config_file(path))
        assert str(err.value) == (
            f"{path}: line 2: config key 'noise_scale': noise_scale must be > 0")

    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_validate_rejects_non_finite_float(self, name):
        # built directly, as library callers do, so no parsing guards it
        for value in (float("nan"), float("inf"), float("-inf")):
            cfg = config.RunConfig(**{name: value})
            with pytest.raises(ValueError, match=f"'{name}'.*finite"):
                cfg.validate()

    @pytest.mark.parametrize("name", INT_KEYS)
    def test_validate_takes_only_integers_for_integer_keys(self, name):
        # built directly, as library callers do; int() would truncate a
        # float, and a bool would count as 0 or 1
        def given(value):
            return (value,) if name == "hidden_widths" else value

        shown = INT_KEY_OWNER.get(name, name)
        for value in (2.5, 2.0, True, False):
            cfg = config.RunConfig(**{name: given(value)})
            with pytest.raises(ValueError,
                               match=f"^{shown}: {value!r} is not an integer$"):
                cfg.validate()
        default = getattr(config.RunConfig(), name)
        value = (tuple(np.int64(w) for w in default) if name == "hidden_widths"
                 else np.int64(default))
        config.RunConfig(**{name: value}).validate()

    def test_derived_configs(self):
        cfg = config.build_config(flags(bev_half_extent=5.0))
        assert cfg.bev_extent == (-5.0, 5.0, -5.0, 5.0)
        assert cfg.sampler_config().steps == 10
        assert cfg.field_config().hidden_widths == (64, 64)
        assert cfg.scan_spec(3).seed == 3
        assert cfg.scene_spec(3).seed == 3


class TestOneCopyOfEachDefault:
    @pytest.mark.parametrize("cls, name", REQUIRED_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in REQUIRED_FIELDS])
    def test_field_has_no_default(self, cls, name):
        (f,) = [f for f in dataclasses.fields(cls) if f.name == name]
        assert f.default is dataclasses.MISSING
        assert f.default_factory is dataclasses.MISSING

    @pytest.mark.parametrize("fn, name", REQUIRED_PARAMETERS,
                             ids=[f"{f.__qualname__}.{n}"
                                  for f, n in REQUIRED_PARAMETERS])
    def test_parameter_has_no_default(self, fn, name):
        parameter = inspect.signature(fn).parameters[name]
        assert parameter.default is inspect.Parameter.empty
        if name == "use_ema":
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY

    def test_metrics_keeps_no_grid_constants(self):
        assert [n for n in dir(metrics) if n.startswith("DEFAULT_BEV")] == []

    def test_run_values_reach_the_module_configs(self):
        cfg = config.RunConfig(
            noise_scale=0.3, hidden_widths=(7, 5), time_embed_dim=4,
            activation="relu", seed=9, chamfer_weight=0.7, steps=3,
            guidance=1.5, use_ema=False, ground_half_extent=5.5,
            density=12.0, sensor_height=1.25, scan_azimuths=33,
            scan_elevations=7, scan_max_range=4.5, scan_dropout=0.2,
            scan_budget=99).validate()
        assert cfg.initial_distribution() == coupling.InitialDistribution(
            copies=10, noise_scale=0.3)
        assert cfg.field_config() == field.FieldConfig(
            hidden_widths=(7, 5), time_embed_dim=4, activation="relu", seed=9)
        assert cfg.loss_weights() == objective.LossWeights(chamfer=0.7)
        assert cfg.sampler_config() == sampler.SamplerConfig(
            steps=3, guidance_weight=1.5, use_ema=False)
        assert cfg.scene_spec(4) == scenes.random_scene_spec(
            4, ground_half_extent=5.5, density=12.0)
        assert cfg.scan_spec(6) == scenes.ScanSpec(
            origin=(0.0, 0.0, 1.25), azimuth_count=33, elevation_count=7,
            max_range=4.5, dropout=0.2, budget=99, seed=6)
