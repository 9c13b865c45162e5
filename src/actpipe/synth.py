"""Deterministic synthetic scenes: detections, annotations, and masks.

Scenes are built from waypoint trajectories with linear interpolation, so
the whole pipeline is testable at desk scale without video data. All
randomness (box jitter, detection dropout, confidences) comes from one
seeded generator; identical specs produce identical records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from .config import PipelineConfig
from .geometry import BBox
from .records import (ActivityAnnotation, DetectionRecord, MaskFrame, _bool,
                      _box_from, _float, _int, _str)

__all__ = ["ObjectSpec", "ActivitySpec", "SceneSpec", "generate_scene",
           "generate_corpus", "Scene"]


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object: class, waypoint boxes, mask visibility.

    ``foreground=False`` models motionless objects the segmenter never
    marks (parked vehicles); the detector still sees them.
    """

    object_class: str
    waypoints: Tuple[Tuple[int, BBox], ...]
    foreground: bool = True

    def __post_init__(self):
        wps = tuple(sorted(self.waypoints))
        if not wps:
            raise ValueError("object needs at least one waypoint")
        frames = [f for f, _ in wps]
        if len(set(frames)) != len(frames):
            raise ValueError("duplicate waypoint frames")
        object.__setattr__(self, "waypoints", wps)

    @property
    def lifetime(self) -> Tuple[int, int]:
        """Half-open frame span the object exists on."""
        return self.waypoints[0][0], self.waypoints[-1][0] + 1

    def box_at(self, frame: int) -> BBox:
        return BBox(*self.row_at(frame))

    def row_at(self, frame: int) -> Tuple[float, float, float, float]:
        """The interpolated box at ``frame`` as an (x0, x1, y0, y1) row."""
        wps = self.waypoints
        if frame <= wps[0][0] or frame >= wps[-1][0]:
            b = wps[0][1] if frame <= wps[0][0] else wps[-1][1]
            return b.x0, b.x1, b.y0, b.y1
        for (f0, b0), (f1, b1) in zip(wps, wps[1:]):
            if f0 <= frame <= f1:
                w = (frame - f0) / (f1 - f0)
                return (
                    b0.x0 + w * (b1.x0 - b0.x0),
                    b0.x1 + w * (b1.x1 - b0.x1),
                    b0.y0 + w * (b1.y0 - b0.y0),
                    b0.y1 + w * (b1.y1 - b0.y1),
                )
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class ActivitySpec:
    object_index: int
    activity_class: str
    t0: int
    t1: int


@dataclass(frozen=True)
class SceneSpec:
    video_id: str
    video_len: int
    width: int
    height: int
    objects: Tuple[ObjectSpec, ...] = ()
    activities: Tuple[ActivitySpec, ...] = ()
    jitter_sigma: float = 0.0
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.video_len <= 0:
            raise ValueError("video_len must be positive")
        if not 0.0 <= self.dropout <= 1.0:
            raise ValueError(f"dropout={self.dropout} outside [0, 1]")
        if not self.jitter_sigma >= 0.0:
            raise ValueError(f"jitter_sigma={self.jitter_sigma} must be >= 0")
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "activities", tuple(self.activities))
        for obj in self.objects:
            for _, box in obj.waypoints:
                if box.x0 < 0 or box.x1 > self.width or box.y0 < 0 or box.y1 > self.height:
                    raise ValueError(f"waypoint box {box} outside the frame")
        for act in self.activities:
            if not 0 <= act.object_index < len(self.objects):
                raise ValueError(f"activity references object {act.object_index}")
            lo, hi = self.objects[act.object_index].lifetime
            if act.t0 < lo or act.t1 > hi or act.t1 > self.video_len:
                raise ValueError(
                    f"activity [{act.t0}, {act.t1}) outside object lifetime "
                    f"[{lo}, {hi}) or video"
                )

    @property
    def frame_size(self) -> Tuple[int, int]:
        return self.width, self.height

    @classmethod
    def from_json(cls, obj: dict) -> "SceneSpec":
        """A spec from its JSON object under the record files' field rules;
        ``foreground`` takes a JSON bool."""
        if type(obj) is not dict:
            raise ValueError(f"a scene spec must be an object, got {obj!r}")
        objects = tuple(
            ObjectSpec(
                object_class=_str(o["object_class"], "object_class"),
                waypoints=tuple(
                    (_int(f, "waypoint frame"),
                     _box_from({"x0": x0, "x1": x1, "y0": y0, "y1": y1}))
                    for f, x0, x1, y0, y1 in o["waypoints"]
                ),
                foreground=_bool(o.get("foreground", True), "foreground"),
            )
            for o in obj.get("objects", [])
        )
        activities = tuple(
            ActivitySpec(_int(a["object"], "object"),
                         _str(a["activity_class"], "activity_class"),
                         _int(a["t0"], "t0"), _int(a["t1"], "t1"))
            for a in obj.get("activities", [])
        )
        return cls(
            video_id=_str(obj["video_id"], "video_id"),
            video_len=_int(obj["video_len"], "video_len"),
            width=_int(obj["width"], "width"),
            height=_int(obj["height"], "height"),
            objects=objects,
            activities=activities,
            jitter_sigma=_float(obj.get("jitter_sigma", 0.0), "jitter_sigma"),
            dropout=_float(obj.get("dropout", 0.0), "dropout"),
            seed=_int(obj.get("seed", 0), "seed"),
        )

    def to_json(self) -> dict:
        return {
            "video_id": self.video_id,
            "video_len": self.video_len,
            "width": self.width,
            "height": self.height,
            "objects": [
                {
                    "object_class": o.object_class,
                    "waypoints": [[f, b.x0, b.x1, b.y0, b.y1]
                                  for f, b in o.waypoints],
                    "foreground": o.foreground,
                }
                for o in self.objects
            ],
            "activities": [
                {"object": a.object_index, "activity_class": a.activity_class,
                 "t0": a.t0, "t1": a.t1}
                for a in self.activities
            ],
            "jitter_sigma": self.jitter_sigma,
            "dropout": self.dropout,
            "seed": self.seed,
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> List["SceneSpec"]:
        """Read one spec or a list of specs from a JSON file; a bad spec
        raises naming the file."""
        with Path(path).open("r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
                return [cls.from_json(o)
                        for o in (data if isinstance(data, list) else [data])]
            except KeyError as exc:
                raise ValueError(f"{path}: scene spec lacks key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: bad scene spec: {exc}") from exc


@dataclass
class Scene:
    spec: SceneSpec
    detections: List[DetectionRecord]
    annotations: List[ActivityAnnotation]
    masks: List[MaskFrame]


def _jittered_box(box: BBox, sigma: float, rng: np.random.Generator,
                  width: int, height: int) -> BBox:
    if sigma <= 0:
        return box
    d = rng.normal(0.0, sigma, 4)
    x0, x1 = sorted((box.x0 + d[0], box.x1 + d[1]))
    y0, y1 = sorted((box.y0 + d[2], box.y1 + d[3]))
    x0 = min(max(float(x0), 0.0), width - 1.0)
    y0 = min(max(float(y0), 0.0), height - 1.0)
    x1 = min(max(float(x1), x0 + 0.5), float(width))
    y1 = min(max(float(y1), y0 + 0.5), float(height))
    return BBox(x0, x1, y0, y1)


def _rasterize(raster: np.ndarray, box: BBox) -> None:
    """Mark cells whose centers fall inside the box."""
    h, w = raster.shape
    x0 = max(0, int(np.ceil(box.x0 - 0.5)))
    x1 = min(w, int(np.ceil(box.x1 - 0.5)))
    y0 = max(0, int(np.ceil(box.y0 - 0.5)))
    y1 = min(h, int(np.ceil(box.y1 - 0.5)))
    if x0 < x1 and y0 < y1:
        raster[y0:y1, x0:x1] = 1


def generate_scene(spec: SceneSpec, config: PipelineConfig) -> Scene:
    """Render a scene spec into detection, annotation, and mask records.

    Detections appear every ``s_det`` frames with seeded jitter and dropout
    and consistent track ids (object index + 1); masks mark foreground
    objects every ``s_bg`` frames; annotations carry clean interpolated
    tubes.
    """
    rng = np.random.default_rng(spec.seed)
    detections: List[DetectionRecord] = []
    for frame in range(0, spec.video_len, config.s_det):
        for idx, obj in enumerate(spec.objects):
            lo, hi = obj.lifetime
            if not lo <= frame < hi:
                continue
            box = _jittered_box(obj.box_at(frame), spec.jitter_sigma, rng,
                                spec.width, spec.height)
            confidence = float(rng.uniform(0.7, 1.0))
            dropped = spec.dropout > 0 and rng.random() < spec.dropout
            if dropped:
                continue
            detections.append(
                DetectionRecord(spec.video_id, frame, obj.object_class, box,
                                confidence, track_id=idx + 1)
            )

    annotations = [
        ActivityAnnotation(
            spec.video_id, act.activity_class, act.t0, act.t1,
            frames=np.arange(act.t0, act.t1),
            boxes=[spec.objects[act.object_index].row_at(f)
                   for f in range(act.t0, act.t1)],
        )
        for act in spec.activities
    ]

    masks: List[MaskFrame] = []
    for frame in range(0, spec.video_len, config.s_bg):
        raster = np.zeros((spec.height, spec.width), dtype=np.uint8)
        for obj in spec.objects:
            lo, hi = obj.lifetime
            if obj.foreground and lo <= frame < hi:
                _rasterize(raster, obj.box_at(frame))
        masks.append(MaskFrame.from_array(spec.video_id, frame, raster))

    return Scene(spec, detections, annotations, masks)


def generate_corpus(specs: Sequence[SceneSpec],
                    config: PipelineConfig) -> List[Scene]:
    ids = [s.video_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate video ids in corpus")
    return [generate_scene(spec, config) for spec in specs]
