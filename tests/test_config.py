import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

import actpipe
from actpipe.config import ConfigError, PipelineConfig, parse_config, \
    parse_overrides
from actpipe.geometry import BBox, Cube
from actpipe.records import ActivityAnnotation, ActivityInstance


class TestDefaults:
    def test_empty_config_gives_published_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.s_det == 8
        assert cfg.d_prop == 64
        assert cfg.s_prop == 16
        assert cfg.r_enl == 0.13
        assert cfg.p_pos == 0.05
        assert cfg.s_high == 0.5
        assert cfg.s_low == 0.0

    def test_artifact_defaults(self):
        cfg = PipelineConfig()
        assert cfg.s_bg == 8
        assert cfg.s_merg == 0.5
        assert cfg.l_merg == 32
        assert cfg.video_fps == 30.0
        # one second of frames at the default rate
        assert cfg.temporal_overlap_frames == 30

    def test_overlap_follows_fps(self):
        assert PipelineConfig(video_fps=25.0).temporal_overlap_frames == 25
        cfg = PipelineConfig(min_temporal_overlap=12)
        assert cfg.temporal_overlap_frames == 12


class TestValidation:
    def test_wider_stride_pair_accepted(self):
        cfg = PipelineConfig(d_prop=96, s_prop=32)
        assert (cfg.d_prop, cfg.s_prop) == (96, 32)

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            PipelineConfig(d_prop=64, s_prop=48)

    def test_stride_larger_than_duration_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(d_prop=16, s_prop=32)

    def test_low_above_high_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(s_high=0.3, s_low=0.4)

    def test_bad_p_pos_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(p_pos=1.5)

    @pytest.mark.parametrize("override", [
        "activity_classes=walk,walk", "activity_classes=walk, run ,walk",
        "object_classes=person,car,person", "naudc_limit=0",
        "naudc_limit=-0.2", "naudc_limit=nan", "video_fps=nan",
        "video_fps=inf", "video_fps=-30", "r_enl=nan", "r_enl=inf",
        "s_high=nan", "s_low=nan", "s_low=-inf", "s_merg=nan",
        "s_high=1.5", "s_high=-0.1", "s_low=-0.5", "s_merg=1.5", "s_merg=-0.1",
        "pmiss_budgets=-1", "pmiss_budgets=0.02,1.5", "pmiss_budgets=nan",
        "map_iou_thresholds=nan", "map_iou_thresholds=0,0.5",
        "map_iou_thresholds=0.5,1.2", "map_iou_thresholds="])
    def test_bad_value_rejected_when_built(self, override):
        key = override.partition("=")[0]
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            parse_overrides(PipelineConfig(), [override])


class TestParsing:
    def test_values_and_lists(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\n"
            "d_prop = 96\n"
            "s_prop = 32\n"
            "activity_classes = walk, run ,load\n"
            "pmiss_budgets = 0.02, 0.15\n"
        )
        cfg = parse_config(path)
        assert cfg.d_prop == 96
        assert cfg.activity_classes == ("walk", "run", "load")
        assert cfg.pmiss_budgets == (0.02, 0.15)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("dprop = 64\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d_prop = 64\nd_prop = 32\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("d_prop = sixty-four\n")
        with pytest.raises(ConfigError, match="d_prop"):
            parse_config(path)

    def test_overrides(self):
        cfg = parse_overrides(PipelineConfig(), ["d_prop=96", "s_prop=32"])
        assert (cfg.d_prop, cfg.s_prop) == (96, 32)
        with pytest.raises(ConfigError):
            parse_overrides(PipelineConfig(), ["nope=1"])

    def test_repeated_override_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 's_merg'"):
            parse_overrides(PipelineConfig(), ["s_merg=0.9", " s_merg =0.5"])


def test_every_field_is_read_outside_config():
    """A config key that no stage reads is a knob that does nothing."""
    package = Path(actpipe.__file__).parent
    code = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(package.glob("*.py"))
                     if path.name != "config.py")

    def read(name):
        return re.search(rf"\.{name}\b", code) is not None

    # a property read outside config.py reads the fields its body uses
    via_property = {used for name, value in vars(PipelineConfig).items()
                    if isinstance(value, property) and read(name)
                    for used in re.findall(r"self\.(\w+)",
                                           inspect.getsource(value.fget))}
    unread = [f.name for f in fields(PipelineConfig)
              if not read(f.name) and f.name not in via_property]
    assert unread == []


@pytest.mark.parametrize("cls", [PipelineConfig, BBox, Cube, ActivityInstance,
                                 ActivityAnnotation])
def test_every_member_is_read_outside_its_definition(cls):
    """A public property or method that the package never reads is dead code."""
    package = Path(actpipe.__file__).parent
    code = "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(package.glob("*.py")))
    unread = []
    for name, value in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(value, property):
            body = value.fget
        elif isinstance(value, (classmethod, staticmethod)):
            body = value.__func__
        elif inspect.isfunction(value):
            body = value
        else:
            continue
        elsewhere = code.replace(inspect.getsource(body), "")
        if re.search(rf"\.{name}\b", elsewhere) is None:
            unread.append(name)
    assert unread == []


# one valid text per key, with the value the constructor takes for it
KEY_TEXTS = {
    "s_det": ("4", 4), "d_prop": ("96", 96), "s_prop": ("32", 32), "s_bg": ("2", 2),
    "r_enl": ("0.25", 0.25), "p_pos": ("0.1", 0.1), "s_high": ("0.75", 0.75),
    "s_low": ("0.25", 0.25), "s_merg": ("0.9", 0.9), "l_merg": ("16", 16),
    "object_classes": ("person, car", ("person", "car")),
    "activity_classes": ("walk,run ,", ("walk", "run")),
    "min_temporal_overlap": ("12", 12), "video_fps": ("25", 25.0),
    "naudc_limit": ("1", 1.0), "pmiss_budgets": ("0.1, 0.2", (0.1, 0.2)),
    "map_iou_thresholds": ("0.3", (0.3,)),
}


class TestEveryKey:
    def test_texts_cover_every_field(self):
        assert sorted(KEY_TEXTS) == sorted(f.name for f in fields(PipelineConfig))

    @pytest.mark.parametrize("key", sorted(KEY_TEXTS))
    def test_file_and_override_parse_as_constructed(self, tmp_path, key):
        text, value = KEY_TEXTS[key]
        built = PipelineConfig(**{key: value})
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {text}\n")
        for cfg in (parse_config(path),
                    parse_overrides(PipelineConfig(), [f"{key}={text}"])):
            assert cfg == built
            assert type(getattr(cfg, key)) is type(value)


class TestErrorLocations:
    @pytest.mark.parametrize("line, error", [
        ("dprop = 64", "unknown config key 'dprop'"),
        ("d_prop = sixty", "bad value for 'd_prop': 'sixty'"),
        ("d_prop 64", "expected 'key = value'"),
        ("s_det = 4", "duplicate key 's_det'"),
    ])
    def test_file_error_names_line(self, tmp_path, line, error):
        path = tmp_path / "c.cfg"
        path.write_text(f"s_det = 8\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(f"c.cfg:2: {error}")):
            parse_config(path)

    @pytest.mark.parametrize("text, error", [
        ("# comment\ns_low = 0.6\n", "c.cfg:2: s_low=0.6 must not exceed s_high=0.5"),
        ("s_det = 8\n\n# d_prop next\ns_bg = 8\nd_prop = 0\n",
         "c.cfg:5: d_prop must be a positive frame count"),
    ], ids=["s_low", "d_prop"])
    def test_file_rule_error_names_line(self, tmp_path, text, error):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(error)):
            parse_config(path)

    def test_file_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"s_det = 8\nd_prop = 6\xff4\n")
        with pytest.raises(ConfigError, match=re.escape(
                "c.cfg:2: not UTF-8 (invalid start byte)")):
            parse_config(path)

    @pytest.mark.parametrize("item, error", [
        ("nope=1", "unknown config key 'nope'"),
        ("d_prop=sixty", "bad value for 'd_prop': 'sixty'"),
        ("d_prop", "expected 'key = value'"),
    ])
    def test_override_error_names_item(self, item, error):
        with pytest.raises(ConfigError, match=re.escape(f"override {item!r}: {error}")):
            parse_overrides(PipelineConfig(), ["s_det=4", item])
