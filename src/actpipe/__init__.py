"""Streaming activity detection with overlapping spatio-temporal cube proposals."""

from .config import ConfigError, PipelineConfig, parse_config
from .geometry import BBox, Cube, bbox_intersection, bbox_union, box_ious
from .records import (ActivityAnnotation, ActivityInstance, DetectionRecord,
                      MaskFrame, RecordError, ReportRecord, ScoredCube,
                      read_records, write_records)

__version__ = "0.1.0"

__all__ = [
    "BBox", "Cube", "box_ious", "bbox_union", "bbox_intersection",
    "DetectionRecord", "ActivityAnnotation", "MaskFrame", "ScoredCube",
    "ActivityInstance", "ReportRecord", "RecordError",
    "read_records", "write_records",
    "PipelineConfig", "ConfigError", "parse_config",
    "__version__",
]
