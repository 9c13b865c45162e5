"""Pipeline configuration: flat key=value files with strict key checking."""

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from .records import _not_utf8

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


_TYPE_PARSERS = {
    int: int, Optional[int]: int, float: float,
    Tuple[str, ...]: lambda raw: tuple(s.strip() for s in raw.split(",") if s.strip()),
    Tuple[float, ...]: lambda raw: tuple(float(s) for s in raw.split(",") if s.strip()),
}
# annotations are not postponed, so f.type is a type; one without a parser fails here
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(PipelineConfig)}


def _values(items: Iterable[Tuple[str, str]]) -> dict:
    """The parsed value of each ``(where, "key=value")`` item; every error
    names the ``where`` of its item."""
    values = {}
    for where, item in items:
        key, eq, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in _PARSERS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {raw!r}") from exc
    return values


def parse_config(path: Union[str, Path]) -> PipelineConfig:
    """Load a flat ``key = value`` config file; absent keys take defaults.

    Blank lines and full-line ``#`` comments are ignored. Unknown keys are
    errors so typos fail loudly. Every error names ``path:line``, and a broken
    :class:`PipelineConfig` rule the line of the first key it names that is set.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            items = [(f"{path}:{n}", text) for n, line in enumerate(fh, start=1)
                     if (text := line.strip()) and not text.startswith("#")]
    except UnicodeDecodeError:
        raise ConfigError(_not_utf8(path)) from None
    values = _values(items)
    try:
        return PipelineConfig(**values)
    except ConfigError as exc:
        lines = {item.partition("=")[0].strip(): where for where, item in items}
        where = next((lines[w] for w in re.findall(r"\w+", str(exc)) if w in lines), path)
        raise ConfigError(f"{where}: {exc}") from exc


def parse_overrides(base: PipelineConfig, items) -> PipelineConfig:
    """Apply ``key=value`` override strings (CLI ``--set``) to a config."""
    return replace(base, **_values((f"override {item!r}", item) for item in items))
