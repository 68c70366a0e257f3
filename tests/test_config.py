import dataclasses

import pytest

from flowcomplete import config

FLOAT_KEYS = [f.name for f in dataclasses.fields(config.RunConfig)
              if isinstance(f.default, float)]


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
        got = config.read_config_file(path)
        assert got == {"cases": 4, "noise_scale": 0.25, "hidden_widths": (32, 32)}

    def test_unknown_key_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cases = 4\nbogus = 1\n")
        with pytest.raises(ValueError, match="line 2"):
            config.read_config_file(path)

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


class TestBuildConfig:
    def test_defaults_are_valid(self):
        cfg = config.build_config()
        assert cfg.copies == 10
        assert cfg.steps == 10
        assert cfg.guidance == 6.0
        assert cfg.p_null == 0.1
        assert cfg.ema_decay == 0.9999
        assert (cfg.flow_weight, cfg.chamfer_weight) == (1.0, 0.1)

    def test_flags_beat_file(self):
        cfg = config.build_config({"cases": 4}, {"cases": 7})
        assert cfg.cases == 7

    def test_file_beats_defaults(self):
        cfg = config.build_config({"noise_scale": 0.25}, {})
        assert cfg.noise_scale == 0.25

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config.build_config({}, {"bogus": 1})

    def test_invalid_values_rejected_before_work(self):
        with pytest.raises(ValueError, match="steps"):
            config.build_config({}, {"steps": 0})
        with pytest.raises(ValueError, match="p_null"):
            config.build_config({}, {"p_null": 1.5})
        with pytest.raises(ValueError, match="positive"):
            config.build_config({}, {"learning_rate": -1.0})
        with pytest.raises(ValueError, match=">= 0"):
            config.build_config({}, {"noise_scale": -0.1})
        for zero in (0.0, -0.0):
            with pytest.raises(ValueError, match="noise_scale must be > 0"):
                config.build_config({}, {"noise_scale": zero})
        with pytest.raises(ValueError, match="copies"):
            config.build_config({}, {"copies": 0})
        with pytest.raises(ValueError, match="ema decay"):
            config.build_config({}, {"ema_decay": 1.5})
        with pytest.raises(ValueError, match="ground_half_extent"):
            config.build_config({}, {"ground_half_extent": 2.0})
        with pytest.raises(ValueError, match="density"):
            config.build_config({}, {"density": -1.0})

    def test_range_error_names_the_value_that_stands(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("copies = 0\nsteps = 0\n")
        overrides = config.read_config_file(path)
        with pytest.raises(ValueError) as err:
            config.build_config(overrides, {})
        assert str(err.value) == (
            f"{path}: line 1: config key 'copies': copies must be >= 1")
        # the replaced value is not checked; a plain dict names no origin
        with pytest.raises(ValueError) as err:
            config.build_config(overrides, {"copies": 2})
        assert str(err.value) == (
            f"{path}: line 2: config key 'steps': steps must be >= 1")
        assert config.build_config(overrides, {"copies": 2, "steps": 3}).steps == 3
        with pytest.raises(ValueError) as err:
            config.build_config({}, {"steps": 0})
        assert str(err.value) == "steps must be >= 1"

    def test_zero_noise_scale_names_its_file_line(self, tmp_path):
        # at 0 every copy of a scan point starts at one place, so a
        # completion keeps only the scan's distinct rows
        path = tmp_path / "run.cfg"
        path.write_text("copies = 4\nnoise_scale = 0\n")
        with pytest.raises(ValueError) as err:
            config.build_config(config.read_config_file(path), {})
        assert str(err.value) == (
            f"{path}: line 2: config key 'noise_scale': noise_scale must be > 0")

    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_validate_rejects_non_finite_float(self, name):
        # built directly, as library callers do, so no parsing guards it
        for value in (float("nan"), float("inf"), float("-inf")):
            cfg = config.RunConfig(**{name: value})
            with pytest.raises(ValueError, match=f"'{name}'.*finite"):
                cfg.validate()

    def test_derived_configs(self):
        cfg = config.build_config({}, {"bev_half_extent": 5.0})
        assert cfg.metric_config().bev_extent == (-5.0, 5.0, -5.0, 5.0)
        assert cfg.sampler_config().steps == 10
        assert cfg.field_config().hidden_widths == (64, 64)
        assert cfg.scan_spec(3).seed == 3
        assert cfg.scene_spec(3).seed == 3
