"""Pipeline configuration: flat key=value files with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

__all__ = ["ConfigError", "PipelineConfig", "parse_config", "parse_overrides"]


class ConfigError(ValueError):
    """Invalid configuration content."""


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline hyper-parameters.

    Defaults follow the published operating point where one exists
    (detection stride 8, proposal duration 64 / stride 16, enlargement 0.13,
    filter tolerance 0.05, label thresholds 0.5 / 0); the rest are artifact
    defaults. The two label IoU thresholds ``s_low <= s_high`` and the merge
    score bar ``s_merg`` lie in [0, 1].
    """

    s_det: int = 8
    d_prop: int = 64
    s_prop: int = 16
    s_bg: int = 8
    r_enl: float = 0.13
    p_pos: float = 0.05
    s_high: float = 0.5
    s_low: float = 0.0
    s_merg: float = 0.5
    l_merg: int = 32
    object_classes: Tuple[str, ...] = ()
    activity_classes: Tuple[str, ...] = ()
    min_temporal_overlap: Optional[int] = None
    video_fps: float = 30.0
    naudc_limit: float = 0.2
    pmiss_budgets: Tuple[float, ...] = (0.02, 0.15)
    map_iou_thresholds: Tuple[float, ...] = (0.1, 0.2, 0.5)

    def __post_init__(self):
        for name in ("s_det", "d_prop", "s_prop", "s_bg", "l_merg"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be a positive frame count")
        if self.s_prop > self.d_prop:
            raise ConfigError(
                f"s_prop={self.s_prop} must not exceed d_prop={self.d_prop}"
            )
        if self.d_prop % self.s_prop != 0:
            raise ConfigError(
                f"d_prop={self.d_prop} must be divisible by s_prop={self.s_prop}"
            )
        if not 0.0 <= self.p_pos <= 1.0:
            raise ConfigError(f"p_pos={self.p_pos} outside [0, 1]")
        for name in ("s_high", "s_low", "s_merg"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name}={getattr(self, name)} outside [0, 1]")
        if not 0.0 <= self.r_enl < math.inf:
            raise ConfigError(f"r_enl={self.r_enl} must be finite and >= 0")
        if self.s_low > self.s_high:
            raise ConfigError(
                f"s_low={self.s_low} must not exceed s_high={self.s_high}"
            )
        if not 0.0 < self.video_fps < math.inf:
            raise ConfigError(f"video_fps={self.video_fps} must be positive and finite")
        if not self.naudc_limit > 0.0:
            raise ConfigError(f"naudc_limit={self.naudc_limit} must be positive")
        if not all(0.0 <= b <= 1.0 for b in self.pmiss_budgets):
            raise ConfigError(f"pmiss_budgets={self.pmiss_budgets} must lie in [0, 1]")
        if not (self.map_iou_thresholds
                and all(0.0 < t <= 1.0 for t in self.map_iou_thresholds)):
            raise ConfigError(f"map_iou_thresholds={self.map_iou_thresholds} "
                              "must be one or more values in (0, 1]")
        for name in ("object_classes", "activity_classes"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} repeats a class: {getattr(self, name)}")
        if self.min_temporal_overlap is not None and self.min_temporal_overlap <= 0:
            raise ConfigError("min_temporal_overlap must be positive")

    @property
    def temporal_overlap_frames(self) -> int:
        """Matching tolerance for the loosened setting; defaults to one second."""
        if self.min_temporal_overlap is not None:
            return self.min_temporal_overlap
        return max(1, round(self.video_fps))

    def with_classes(self, object_classes=None, activity_classes=None) -> "PipelineConfig":
        kwargs = {}
        if object_classes is not None:
            kwargs["object_classes"] = tuple(object_classes)
        if activity_classes is not None:
            kwargs["activity_classes"] = tuple(activity_classes)
        return replace(self, **kwargs) if kwargs else self


_INT_KEYS = {"s_det", "d_prop", "s_prop", "s_bg", "l_merg",
             "min_temporal_overlap"}
_FLOAT_KEYS = {"r_enl", "p_pos", "s_high", "s_low", "s_merg", "video_fps",
               "naudc_limit"}
_STR_LIST_KEYS = {"object_classes", "activity_classes"}
_FLOAT_LIST_KEYS = {"pmiss_budgets", "map_iou_thresholds"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_LIST_KEYS | _FLOAT_LIST_KEYS


def _parse_value(key: str, raw: str, where: str):
    """The value of a known key (:func:`_build` rejects the others)."""
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _STR_LIST_KEYS:
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        return tuple(float(s) for s in raw.split(",") if s.strip())  # float lists
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {raw!r}") from exc


def _build(pairs: Mapping[str, str], where: str) -> dict:
    values = {}
    for key, raw in pairs.items():
        if key not in _ALL_KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw, where)
    return values


def parse_config(path: Union[str, Path]) -> PipelineConfig:
    """Load a flat ``key = value`` config file; absent keys take defaults.

    Blank lines and full-line ``#`` comments are ignored. Unknown keys are
    errors so typos fail loudly.
    """
    path = Path(path)
    pairs = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = raw.strip()
    return PipelineConfig(**_build(pairs, str(path)))


def parse_overrides(base: PipelineConfig, items) -> PipelineConfig:
    """Apply ``key=value`` override strings (CLI ``--set``) to a config."""
    pairs = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"override {item!r}: duplicate key {key!r}")
        pairs[key] = raw.strip()
    values = _build(pairs, "override")
    return replace(base, **values)
