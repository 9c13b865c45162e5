"""Line-delimited record files for every pipeline stage.

Each file is UTF-8 JSON lines with a header line naming the record kind and
schema version (``#actpipe/<kind>/v1``). Field names and ordering are
documented in SCHEMAS.md at the repository root. Readers and writers stream
one record at a time; whole files are never held in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import BBox, Cube, tube_arrays

__all__ = [
    "RecordError",
    "DetectionRecord",
    "ActivityAnnotation",
    "MaskFrame",
    "ScoredCube",
    "ActivityInstance",
    "ReportRecord",
    "rle_encode",
    "rle_decode",
    "read_records",
    "write_records",
    "RECORD_KINDS",
]

SCHEMA_VERSION = 1


class RecordError(ValueError):
    """Malformed record file content (parse or invariant failure)."""


@dataclass(frozen=True)
class DetectionRecord:
    """One detected object on one frame."""

    video_id: str
    frame: int
    object_class: str
    bbox: BBox
    confidence: float
    track_id: Optional[int] = None

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"negative frame {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True, eq=False, init=False)
class ActivityAnnotation:
    """Ground-truth activity instance with a per-frame (possibly sparse)
    tube, given as ``(frame, BBox)`` pairs or ``frames=``/``boxes=`` arrays
    and held as arrays (see :func:`tube_arrays`)."""

    video_id: str
    activity_class: str
    t0: int
    t1: int
    frames: np.ndarray
    boxes: np.ndarray

    def __init__(self, video_id: str, activity_class: str, t0: int, t1: int,
                 tube: Sequence[Tuple[int, BBox]] = (), *, frames=None, boxes=None):
        if not 0 <= t0 < t1:
            raise ValueError(f"bad annotation window [{t0}, {t1})")
        if frames is None:
            frames = [f for f, _ in tube]
            boxes = [(b.x0, b.x1, b.y0, b.y1) for _, b in tube]
        frames, boxes = tube_arrays(frames, boxes)
        if not len(frames):
            raise ValueError("annotation tube needs at least one box")
        if frames[0] < t0 or frames[-1] >= t1:
            raise ValueError("tube frames outside the annotation window")
        self.__dict__.update(video_id=video_id, activity_class=activity_class,
                             t0=t0, t1=t1, frames=frames, boxes=boxes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityAnnotation):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__dataclass_fields__)

    @classmethod
    def with_static_box(cls, video_id: str, activity_class: str, t0: int, t1: int,
                        bbox: BBox) -> "ActivityAnnotation":
        """Annotation whose single box applies to every frame of the window."""
        return cls(video_id, activity_class, t0, t1, frames=np.arange(t0, t1),
                   boxes=[(bbox.x0, bbox.x1, bbox.y0, bbox.y1)] * (t1 - t0))

    @property
    def tube(self) -> Tuple[Tuple[int, BBox], ...]:
        """``(frame, BBox)`` pairs in frame order, built from the arrays."""
        return _tube_pairs(self.frames, self.boxes)

    def tube_dict(self) -> dict:
        return dict(self.tube)


def rle_encode(raster: np.ndarray) -> List[int]:
    """Row-major run lengths of a binary raster, starting with a 0-run."""
    flat = np.asarray(raster, dtype=np.uint8).ravel()
    if flat.size == 0:
        return []
    changes = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    runs = np.diff(bounds).tolist()
    if flat[0] == 1:
        runs.insert(0, 0)
    return [int(r) for r in runs]


def rle_decode(runs: Sequence[int], width: int, height: int) -> np.ndarray:
    """Inverse of :func:`rle_encode`; validates the total cell count."""
    total = sum(runs)
    if total != width * height:
        raise ValueError(f"rle covers {total} cells, expected {width * height}")
    if any(r < 0 for r in runs):
        raise ValueError("negative run length")
    values = np.resize(np.array([0, 1], dtype=np.uint8), len(runs))
    flat = np.repeat(values, runs)
    return flat.reshape(height, width)


@dataclass(frozen=True)
class MaskFrame:
    """Run-length-encoded binary foreground raster for one frame."""

    video_id: str
    frame: int
    width: int
    height: int
    rle: Tuple[int, ...]

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"negative frame {self.frame}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("non-positive mask dimensions")
        if min(self.rle, default=0) < 0:
            raise ValueError("negative run length")
        if sum(self.rle) != self.width * self.height:
            raise ValueError(
                f"rle covers {sum(self.rle)} cells, expected {self.width * self.height}"
            )

    @classmethod
    def from_array(cls, video_id: str, frame: int, raster: np.ndarray) -> "MaskFrame":
        h, w = raster.shape
        return cls(video_id, frame, w, h, tuple(rle_encode(raster)))

    def decode(self) -> np.ndarray:
        return rle_decode(self.rle, self.width, self.height)


@dataclass(frozen=True)
class ScoredCube:
    """A proposal cube plus its per-activity-class confidence vector."""

    cube: Cube
    scores: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        for s in self.scores:
            if not np.isfinite(s) or not 0.0 <= s <= 1.0:
                raise ValueError(f"score {s} outside [0, 1]")

    @property
    def key(self) -> Tuple[str, int, int, Optional[int]]:
        c = self.cube
        return (c.video_id, c.t0, c.t1, c.seed_track)


@dataclass(frozen=True)
class ActivityInstance:
    """Final detection output: class, window, box or tube, confidence.

    ``seed_track`` records the dedup partition the instance came from;
    synthetic spatial chains use negative ids.
    """

    video_id: str
    activity_class: str
    t0: int
    t1: int
    bbox: BBox
    score: float
    seed_track: Optional[int] = None
    tube: Optional[Tuple[Tuple[int, BBox], ...]] = None

    def __post_init__(self):
        if not 0 <= self.t0 < self.t1:
            raise ValueError(f"bad instance window [{self.t0}, {self.t1})")
        if self.tube is not None:
            object.__setattr__(self, "tube", tuple(sorted(self.tube)))

    def tube_dict(self) -> dict:
        """Per-frame boxes; falls back to the instance box on every frame."""
        if self.tube is not None:
            return dict(self.tube)
        return {f: self.bbox for f in range(self.t0, self.t1)}


@dataclass(frozen=True)
class ReportRecord:
    """Free-form report payload under a named section."""

    section: str
    data: dict = field(default_factory=dict)


def _box_fields(bbox: BBox) -> dict:
    return {"x0": bbox.x0, "x1": bbox.x1, "y0": bbox.y0, "y1": bbox.y1}


def _box_from(obj: dict) -> BBox:
    return BBox(obj["x0"], obj["x1"], obj["y0"], obj["y1"])


def _tube_from_json(items) -> Tuple[np.ndarray, np.ndarray]:
    try:
        raw = np.array(items, dtype=np.float64).reshape(len(items), 5)
    except (TypeError, ValueError):
        raise ValueError("tube entries must be [frame, x0, x1, y0, y1] numbers") from None
    return tube_arrays(raw[:, 0], raw[:, 1:])


def _tube_pairs(frames: np.ndarray, boxes: np.ndarray) -> tuple:
    return tuple(zip(frames.tolist(), (BBox(*b) for b in boxes.tolist())))


def _detection_to_json(r: DetectionRecord) -> dict:
    out = {"video_id": r.video_id, "frame": r.frame, "object_class": r.object_class}
    out.update(_box_fields(r.bbox))
    out["confidence"] = r.confidence
    out["track_id"] = r.track_id
    return out


def _detection_from_json(obj: dict) -> DetectionRecord:
    return DetectionRecord(
        video_id=obj["video_id"],
        frame=int(obj["frame"]),
        object_class=obj["object_class"],
        bbox=_box_from(obj),
        confidence=float(obj["confidence"]),
        track_id=None if obj.get("track_id") is None else int(obj["track_id"]),
    )


def _annotation_to_json(r: ActivityAnnotation) -> dict:
    return {
        "video_id": r.video_id,
        "activity_class": r.activity_class,
        "t0": r.t0,
        "t1": r.t1,
        "tube": [[f, *b] for f, b in zip(r.frames.tolist(), r.boxes.tolist())],
    }


def _annotation_from_json(obj: dict) -> ActivityAnnotation:
    if "tube" in obj and obj["tube"] is not None:
        frames, boxes = _tube_from_json(obj["tube"])
        return ActivityAnnotation(
            obj["video_id"], obj["activity_class"], int(obj["t0"]), int(obj["t1"]),
            frames=frames, boxes=boxes,
        )
    # single-box shorthand: one box applied to every frame
    return ActivityAnnotation.with_static_box(
        obj["video_id"], obj["activity_class"], int(obj["t0"]), int(obj["t1"]),
        _box_from(obj["box"]),
    )


def _mask_to_json(r: MaskFrame) -> dict:
    return {
        "video_id": r.video_id,
        "frame": r.frame,
        "width": r.width,
        "height": r.height,
        "rle": list(r.rle),
    }


def _mask_from_json(obj: dict) -> MaskFrame:
    return MaskFrame(
        obj["video_id"], int(obj["frame"]), int(obj["width"]), int(obj["height"]),
        tuple(int(x) for x in obj["rle"]),
    )


def _labels_to_json(labels: Optional[frozenset]) -> Optional[list]:
    if labels is None:
        return None
    return sorted(labels)


def _cube_to_json(c: Cube) -> dict:
    out = {"video_id": c.video_id, "t0": c.t0, "t1": c.t1}
    out.update(_box_fields(c.bbox))
    out["seed_track"] = c.seed_track
    out["object_class"] = c.object_class
    out["fg_score"] = c.fg_score
    out["labels"] = _labels_to_json(c.labels)
    return out


def _cube_from_json(obj: dict) -> Cube:
    labels = obj.get("labels")
    return Cube(
        video_id=obj["video_id"],
        bbox=_box_from(obj),
        t0=int(obj["t0"]),
        t1=int(obj["t1"]),
        seed_track=None if obj.get("seed_track") is None else int(obj["seed_track"]),
        object_class=obj.get("object_class", ""),
        fg_score=None if obj.get("fg_score") is None else float(obj["fg_score"]),
        labels=None if labels is None else frozenset(labels),
    )


def _scored_to_json(r: ScoredCube) -> dict:
    out = _cube_to_json(r.cube)
    out["scores"] = list(r.scores)
    return out


def _scored_from_json(obj: dict) -> ScoredCube:
    return ScoredCube(cube=_cube_from_json(obj), scores=tuple(obj["scores"]))


def _instance_to_json(r: ActivityInstance) -> dict:
    out = {
        "video_id": r.video_id,
        "activity_class": r.activity_class,
        "t0": r.t0,
        "t1": r.t1,
    }
    out.update(_box_fields(r.bbox))
    out["score"] = r.score
    out["seed_track"] = r.seed_track
    out["tube"] = (None if r.tube is None
                   else [[f, b.x0, b.x1, b.y0, b.y1] for f, b in r.tube])
    return out


def _instance_from_json(obj: dict) -> ActivityInstance:
    tube = obj.get("tube")
    return ActivityInstance(
        video_id=obj["video_id"],
        activity_class=obj["activity_class"],
        t0=int(obj["t0"]),
        t1=int(obj["t1"]),
        bbox=_box_from(obj),
        score=float(obj["score"]),
        seed_track=None if obj.get("seed_track") is None else int(obj["seed_track"]),
        tube=(None if tube is None
              else _tube_pairs(*_tube_from_json(tube))),
    )


def _curve_to_json(r) -> dict:
    # DetCurve lives in evaluation; serialized here to keep all kinds together.
    return {
        "activity_class": r.activity_class,
        "no_reference": r.no_reference,
        "points": [[p.threshold, p.tfa, p.pmiss] for p in r.points],
    }


def _curve_from_json(obj: dict):
    from .evaluation import DetCurve, DetPoint

    points = tuple(DetPoint(th, tfa, pm) for th, tfa, pm in obj["points"])
    return DetCurve(obj["activity_class"], points, bool(obj["no_reference"]))


def _report_to_json(r: ReportRecord) -> dict:
    return {"section": r.section, "data": r.data}


def _report_from_json(obj: dict) -> ReportRecord:
    return ReportRecord(obj["section"], obj["data"])


# kind -> (serializer, parser, frame-order enforced)
RECORD_KINDS = {
    "detections": (_detection_to_json, _detection_from_json, True),
    "annotations": (_annotation_to_json, _annotation_from_json, False),
    "masks": (_mask_to_json, _mask_from_json, True),
    "proposals": (_cube_to_json, _cube_from_json, False),
    "scored-proposals": (_scored_to_json, _scored_from_json, False),
    "instances": (_instance_to_json, _instance_from_json, False),
    "det-curves": (_curve_to_json, _curve_from_json, False),
    "reports": (_report_to_json, _report_from_json, False),
}


def _header(kind: str) -> str:
    return f"#actpipe/{kind}/v{SCHEMA_VERSION}"


def _check_kind(kind: str) -> None:
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")


class _FrameOrder:
    """Enforces sorted-by-(video_id, frame) streams with contiguous videos."""

    def __init__(self, where: str):
        self.where = where
        self.video: Optional[str] = None
        self.frame = -1
        self.seen: set = set()

    def check(self, video_id: str, frame: int, lineno: int) -> None:
        if video_id != self.video:
            if video_id in self.seen:
                raise RecordError(
                    f"{self.where}:{lineno}: video {video_id!r} reappears out of order"
                )
            self.seen.add(video_id)
            self.video = video_id
            self.frame = -1
        if frame < self.frame:
            raise RecordError(
                f"{self.where}:{lineno}: frame {frame} out of order in video "
                f"{video_id!r} (previous {self.frame})"
            )
        self.frame = frame


def read_records(path: Union[str, Path], kind: str) -> Iterator:
    """Stream records of ``kind`` from ``path`` in file order.

    Per-video frame order is enforced for detections and masks. Malformed
    lines raise :class:`RecordError` naming the offending line.
    """
    _check_kind(kind)
    _, parser, ordered = RECORD_KINDS[kind]
    path = Path(path)

    def gen() -> Iterator:
        order = _FrameOrder(str(path)) if ordered else None
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                return
            if first.rstrip("\n") != _header(kind):
                raise RecordError(
                    f"{path}:1: expected header {_header(kind)!r}, "
                    f"got {first.rstrip()!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = parser(json.loads(line))
                except RecordError:
                    raise
                except (ValueError, KeyError, TypeError) as exc:
                    raise RecordError(f"{path}:{lineno}: {exc}") from exc
                if order is not None:
                    order.check(record.video_id, record.frame, lineno)
                yield record

    return gen()


def write_records(records: Iterable, path: Union[str, Path], kind: str) -> int:
    """Write a record stream to ``path``; returns the record count.

    Round-trip law: ``read_records(write_records(s))`` reproduces ``s``.
    """
    _check_kind(kind)
    serializer, _, ordered = RECORD_KINDS[kind]
    path = Path(path)
    order = _FrameOrder(str(path)) if ordered else None
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_header(kind) + "\n")
        for record in records:
            if order is not None:
                order.check(record.video_id, record.frame, count + 2)
            fh.write(json.dumps(serializer(record), separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count
