"""Line-delimited record files for every pipeline stage.

Each file is UTF-8 JSON lines with a header line naming the record kind and
schema version (``#actpipe/<kind>/v1``). Field names and ordering are
documented in SCHEMAS.md at the repository root. Readers and writers stream
one record at a time, but for detections and both proposal kinds, which are
read whole into columns (:func:`read_detections` into per-video batches,
:func:`read_proposals` into a :class:`CubeTable`) and written from them
with the bytes their records would give; the pipeline's stages hold each
stage's records as one list or column set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain, groupby, repeat, starmap
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter, lt, mul
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .geometry import BBox, Cube, box_rows, tube_arrays

__all__ = [
    "RecordError",
    "DetectionRecord",
    "Detections",
    "ActivityAnnotation",
    "MaskFrame",
    "ScoredCube",
    "CubeTable",
    "ActivityInstance",
    "ReportRecord",
    "rle_encode",
    "rle_decode",
    "FrameOrder",
    "read_records",
    "read_detections",
    "read_proposals",
    "write_records",
    "RECORD_KINDS",
]

SCHEMA_VERSION = 1


class RecordError(ValueError):
    """Malformed record file content (parse or invariant failure)."""


@dataclass(frozen=True)
class DetectionRecord:
    """One detected object on one frame; a track id is never negative."""

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
        if self.track_id is not None and self.track_id < 0:
            raise ValueError(f"negative track_id {self.track_id}")


@dataclass(frozen=True, eq=False, init=False)
class _TubeRecord:
    """What annotations and instances share: a frame window ``[t0, t1)`` and
    a tube held as :func:`tube_arrays`, with equality that compares arrays."""

    video_id: str
    activity_class: str
    t0: int
    t1: int
    frames: Optional[np.ndarray]
    boxes: Optional[np.ndarray]

    def _check_tube(self, kind: str, tube) -> None:
        """Check the window and build the tube from ``(frame, BBox)`` pairs or
        the ``frames``/``boxes`` given; both stay ``None`` when neither is."""
        if not 0 <= self.t0 < self.t1:
            raise ValueError(f"bad {kind} window [{self.t0}, {self.t1})")
        frames, boxes = self.frames, self.boxes
        if frames is None:
            if tube is None:
                return
            frames = [f for f, _ in tube]
            boxes = box_rows(b for _, b in tube)
        frames, boxes = tube_arrays(frames, boxes)
        if not len(frames):
            raise ValueError(f"{kind} tube needs at least one box")
        if frames[0] < self.t0 or frames[-1] >= self.t1:
            raise ValueError(f"tube frames outside the {kind} window")
        self.__dict__.update(frames=frames, boxes=boxes)

    def frame_boxes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tube arrays, or the box on every frame when ``frames`` is ``None``."""
        if self.frames is None:
            return _static_tube(self.t0, self.t1, self.bbox)
        return self.frames, self.boxes

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__dataclass_fields__)


def _static_tube(t0: int, t1: int, bbox: BBox) -> Tuple[np.ndarray, np.ndarray]:
    """One box on every frame of ``[t0, t1)``."""
    return np.arange(t0, t1), np.repeat(box_rows([bbox]), t1 - t0, axis=0)


@dataclass(frozen=True, eq=False, init=False)
class ActivityAnnotation(_TubeRecord):
    """Ground-truth activity instance with a per-frame (possibly sparse)
    tube, given as ``(frame, BBox)`` pairs or ``frames=``/``boxes=`` arrays
    and held as arrays (see :func:`tube_arrays`)."""

    def __init__(self, video_id: str, activity_class: str, t0: int, t1: int,
                 tube: Sequence[Tuple[int, BBox]] = (), *, frames=None, boxes=None):
        self.__dict__.update(video_id=video_id, activity_class=activity_class,
                             t0=t0, t1=t1, frames=frames, boxes=boxes)
        self._check_tube("annotation", tube or ())

    @classmethod
    def with_static_box(cls, video_id: str, activity_class: str, t0: int, t1: int,
                        bbox: BBox) -> "ActivityAnnotation":
        """Annotation whose single box applies to every frame of the window."""
        frames, boxes = _static_tube(t0, t1, bbox)
        return cls(video_id, activity_class, t0, t1, frames=frames, boxes=boxes)


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
    """Inverse of :func:`rle_encode`; :class:`MaskFrame` validates the runs,
    and numpy raises ``ValueError`` on negative or miscounted ones."""
    values = (np.arange(len(runs)) & 1).astype(np.uint8)
    return np.repeat(values, runs).reshape(height, width)


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
        return _CUBE_KEY(self.cube)


# a Cube's columns in CubeTable order, the box's coordinates among them
_CUBE_ATTRS = attrgetter("video_id", "t0", "t1", "bbox.x0", "bbox.x1", "bbox.y0",
                         "bbox.y1", "seed_track", "object_class", "fg_score", "labels")
# a Cube's (video_id, t0, t1, seed_track) join key
_CUBE_KEY = attrgetter("video_id", "t0", "t1", "seed_track")
# the per-row list columns of a CubeTable; lines and heads may be None
_ROW_LISTS = ("video_ids", "t0", "t1", "seed_tracks", "object_classes", "fg_scores",
              "labels", "lines", "heads")


def _pick(column: Optional[list], rows: List[int]) -> Optional[list]:
    return None if column is None else [column[i] for i in rows]


@dataclass(eq=False)
class CubeTable:
    """Proposals as columns, in order: the form the propose through dedup
    stages take, give and write. ``boxes`` are float64 x0, x1, y0, y1 rows;
    ``coords`` keeps the coordinate columns as given when one is no float
    (an int stays an int on rewrite), else None; ``scores`` is the (N, C)
    matrix of scored proposals; ``lines`` are line numbers in ``source``;
    ``heads`` caches each row's text from ``video_id`` to ``object_class``,
    which no stage changes. Iterating builds a :class:`Cube` (with scores a
    :class:`ScoredCube`) per row, for tests and tools."""

    video_ids: list
    t0: list
    t1: list
    boxes: np.ndarray
    coords: Optional[tuple]
    seed_tracks: list
    object_classes: list
    fg_scores: list
    labels: list
    scores: Optional[np.ndarray] = None
    lines: Optional[list] = None
    source: str = "proposal stream"
    heads: Optional[list] = None

    @classmethod
    def from_records(cls, records: Iterable, lines: Optional[list] = None,
                     source: str = "proposal stream") -> "CubeTable":
        """Cubes or ScoredCubes of one score length, else a ValueError naming
        the first other row's key (and, given ``lines``, its ``source:line``);
        a table passes through."""
        if isinstance(records, CubeTable):
            return records
        records = list(records)
        cubes = [getattr(r, "cube", r) for r in records]
        # None for a Cube: a stream is scored or not from its first row on
        lengths = [None if c is r else len(r.scores) for c, r in zip(cubes, records)]
        for i, length in enumerate(lengths):
            if length != lengths[0]:
                where = f"{source}:{lines[i]}: " if lines else ""
                got = "no scores" if length is None else f"score vector of length {length}"
                raise ValueError(f"{where}{got} for {_CUBE_KEY(cubes[i])}, expected "
                                 f"{'no scores' if lengths[0] is None else lengths[0]}")
        scores = (np.array([r.scores for r in records]).reshape(len(records), -1)
                  if records and lengths[0] is not None else None)
        videos, t0, t1, *coords, seeds, classes, fgs, labels = (
            map(list, zip(*map(_CUBE_ATTRS, cubes))) if cubes else ([] for _ in range(11)))
        return cls(videos, t0, t1, np.array(coords, dtype=np.float64).T.reshape(-1, 4),
                   None if set(map(type, chain(*coords))) == {float} else tuple(coords),
                   seeds, classes, fgs, labels, scores, lines, source)

    @classmethod
    def concat(cls, tables: Sequence["CubeTable"]) -> "CubeTable":
        """The rows of tables with float boxes and no scores, in turn."""
        return cls(**{name: list(chain.from_iterable(getattr(t, name) for t in tables))
                      for name in _ROW_LISTS[:-2]}, coords=None,
                   boxes=np.concatenate([np.empty((0, 4)), *(t.boxes for t in tables)]))

    def __len__(self) -> int:
        return len(self.video_ids)

    def __iter__(self) -> Iterator:
        boxes = (starmap(BBox, self.boxes.tolist()) if self.coords is None
                 else map(BBox, *self.coords))
        cubes = map(Cube, self.video_ids, boxes, self.t0, self.t1,
                    self.seed_tracks, self.object_classes, self.fg_scores, self.labels)
        if self.scores is None:
            return cubes
        return map(ScoredCube, cubes, map(tuple, self.scores.tolist()))

    def __getitem__(self, row: int):
        return next(iter(self.take([row])))

    def __eq__(self, other) -> bool:
        if isinstance(other, (CubeTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def keys(self) -> List[Tuple[str, int, int, Optional[int]]]:
        """Each row's (video_id, t0, t1, seed_track) join key."""
        return list(zip(self.video_ids, self.t0, self.t1, self.seed_tracks))

    def take(self, rows: Iterable[int]) -> "CubeTable":
        """The table of ``rows``, in that order."""
        rows = list(rows)
        index = np.array(rows, dtype=np.intp)
        return replace(self, boxes=self.boxes[index],
                       scores=None if self.scores is None else self.scores[index],
                       coords=self.coords and tuple(_pick(c, rows) for c in self.coords),
                       **{name: _pick(getattr(self, name), rows) for name in _ROW_LISTS})

    def with_scores(self, scores: np.ndarray) -> "CubeTable":
        """This table with the (N, C) ``scores``, each in [0, 1]."""
        bad = ~((scores >= 0.0) & (scores <= 1.0))
        if bad.any():
            raise ValueError(f"score {float(scores[bad][0])} outside [0, 1]")
        return replace(self, scores=scores)


@dataclass(frozen=True, eq=False, init=False)
class ActivityInstance(_TubeRecord):
    """Final detection output: class, window, box, confidence, optional tube.

    ``seed_track`` records the dedup partition the instance came from;
    synthetic spatial chains use negative ids.
    """

    bbox: BBox
    score: float
    seed_track: Optional[int]

    def __init__(self, video_id: str, activity_class: str, t0: int, t1: int,
                 bbox: BBox, score: float, seed_track: Optional[int] = None,
                 tube=None, *, frames=None, boxes=None):
        self.__dict__.update(video_id=video_id, activity_class=activity_class,
                             t0=t0, t1=t1, bbox=bbox, score=score,
                             seed_track=seed_track, frames=frames, boxes=boxes)
        self._check_tube("instance", tube)


@dataclass(frozen=True)
class ReportRecord:
    """Free-form report payload under a named section."""

    section: str
    data: dict = field(default_factory=dict)


# Each kind's line is one %-template in its SCHEMAS.md key order, filled with
# what json.dumps(..., separators=(",", ":")) writes: checked numbers by %r or
# %s (an optional one is "null" or itself), strings by json's ASCII escaper,
# mask runs and free-form objects by one shared encoder, not a new one a call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index
_NUMBER_TYPES = frozenset((int, float))
_ZEROS = repeat(0)


def _numbers(*values) -> None:
    """Raise unless each value is an int or a finite float, whose %r is the
    json.dumps text: TypeError for bools or numpy scalars, else ValueError."""
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        raise TypeError(f"record numbers must be int or float, got {values!r}")
    if sum(map(mul, values, _ZEROS)):  # x * 0 is NaN only for NaN and infinities
        raise ValueError(f"record numbers must be finite, got {values!r}")


def _box_from(obj: dict) -> BBox:
    coords = [obj["x0"], obj["x1"], obj["y0"], obj["y1"]]
    if not all(type(c) in (int, float) and math.isfinite(c) for c in coords):
        raise ValueError(f"box coordinates must be finite numbers, got {coords}")
    return BBox(*coords)


def _int(value, name: str) -> int:
    """A JSON number as an int: 4 and 4.0 pass; 4.5, "4", true and
    non-finite values raise, as for tube frames."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _float(value, name: str) -> float:
    """A JSON number as a float: 0.5 and 1 pass; "0.5", true, NaN and
    infinities raise."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _str(value, name: str) -> str:
    """A JSON string; numbers, lists, objects and null raise."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _bool(value, name: str) -> bool:
    """A JSON bool; strings and numbers raise."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _list(value, name: str) -> list:
    """A JSON array; a string or an object, which also iterate, raises."""
    if type(value) is not list:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _optional_int(obj: dict, key: str) -> Optional[int]:
    return None if obj.get(key) is None else _int(obj[key], key)


def _tube_text(frames: Optional[np.ndarray], boxes: Optional[np.ndarray]) -> str:
    """``[[frame, x0, x1, y0, y1], ...]`` or null. When runs of bitwise-equal
    box rows average two rows or more, each run's row text is formatted once
    and follows each of its frames; otherwise all rows are formatted at once."""
    if frames is None:
        return "null"
    n, bits = len(frames), np.ascontiguousarray(boxes).view(np.int64)  # 0.0 != -0.0
    ends = [*(np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1).tolist(), n]
    if 2 * len(ends) > n:
        rows = np.empty((n, 5), dtype=object)  # Python ints and floats
        rows[:, 0], rows[:, 1:] = frames, boxes
        return "[" + ",".join(["[%r,%r,%r,%r,%r]"] * n) % tuple(rows.ravel().tolist()) + "]"
    frames, starts = frames.tolist(), [0, *ends[:-1]]
    rows = [",%r,%r,%r,%r]" % tuple(boxes[start].tolist()) for start in starts]
    return "[%s]" % ",".join(["[" + (row + ",[").join(map(repr, frames[start:end])) + row
                              for start, end, row in zip(starts, ends, rows)])


def _tube_from_json(items) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Tube arrays of JSON numbers, otherwise unchecked (the constructors
    check them); nulls for null."""
    if items is None:
        return None, None
    try:
        # one C-level pass over every value's type; strings and bools fail
        numbers = set(map(type, chain.from_iterable(items))) <= {int, float}
        raw = np.array(items, dtype=np.float64).reshape(len(items), 5)
    except (TypeError, ValueError):
        numbers = False
    if not numbers:
        raise ValueError("tube entries must be [frame, x0, x1, y0, y1] numbers")
    return raw[:, 0], raw[:, 1:]


_DETECTION_LINE = ('{"video_id":%s,"frame":%r,"object_class":%s,"x0":%r,"x1":%r,'
                   '"y0":%r,"y1":%r,"confidence":%r,"track_id":%s}\n')


def _detection_line(r: DetectionRecord) -> str:
    b, track = r.bbox, r.track_id
    _numbers(r.frame, b.x0, b.x1, b.y0, b.y1, r.confidence, 0 if track is None else track)
    return _DETECTION_LINE % (_quote(r.video_id), r.frame, _quote(r.object_class),
                              b.x0, b.x1, b.y0, b.y1, r.confidence,
                              "null" if track is None else track)


def _detection_from_json(obj: dict) -> DetectionRecord:
    return DetectionRecord(
        video_id=_str(obj["video_id"], "video_id"),
        frame=_int(obj["frame"], "frame"),
        object_class=_str(obj["object_class"], "object_class"),
        bbox=_box_from(obj),
        confidence=_float(obj["confidence"], "confidence"),
        track_id=_optional_int(obj, "track_id"),
    )


@dataclass(eq=False)
class DetectionBatch:
    """One video's detections as columns in file order (frames never
    decrease): boxes as float64 x0, x1, y0, y1 rows, -1 for no track id,
    and each row's line. ``coords`` keeps the parsed coordinate columns for
    writing (an int stays an int), or is None when all are floats."""

    video_id: str
    frames: np.ndarray
    classes: Sequence[str]
    boxes: np.ndarray
    coords: Optional[Tuple[tuple, ...]]
    confidences: np.ndarray
    track_ids: np.ndarray
    lines: np.ndarray


class Detections:
    """One :class:`DetectionBatch` per video, in file order: the form the
    track and propose stages read, take and write. Iterating builds a
    :class:`DetectionRecord` per row, for tests and tools."""

    def __init__(self, videos: List[DetectionBatch], source: str):
        self.videos, self.source = videos, source

    @classmethod
    def from_records(cls, records: Iterable[DetectionRecord], lines: Sequence[int] = (),
                     source: str = "detection stream") -> "Detections":
        """Records grouped by video, each video's sorted by frame (stable),
        with ``lines`` or stream positions; Detections pass through."""
        if isinstance(records, Detections):
            return records
        by_video: Dict[str, list] = {}
        for i, d in enumerate(records):
            b = d.bbox
            by_video.setdefault(d.video_id, []).append((lines[i] if lines else i + 1, (
                d.video_id, d.frame, d.object_class, b.x0, b.x1, b.y0, b.y1,
                d.confidence, d.track_id)))
        return cls([_detection_batch(*zip(*sorted(items, key=lambda x: x[1][1])))
                    for items in by_video.values()], source)

    def __len__(self) -> int:
        return sum(len(b.frames) for b in self.videos)

    def __iter__(self) -> Iterator[DetectionRecord]:
        for b in self.videos:
            for frame, object_class, box, confidence, track in zip(
                    b.frames.tolist(), b.classes, zip(*b.coords) if b.coords
                    else b.boxes.tolist(), b.confidences.tolist(), b.track_ids.tolist()):
                yield DetectionRecord(b.video_id, frame, object_class, BBox(*box),
                                      confidence, None if track < 0 else track)


def _values(fh) -> Iterator[Tuple[int, Any]]:
    """Each non-blank line's number (from 2, after the header) and JSON value,
    by json.loads without its per-call wrapping; a line holding anything but
    one value and blanks is a ValueError."""
    for lineno, line in enumerate(fh, start=2):
        if not line.isspace():
            try:
                value, end = _scan(line, 0)
            except StopIteration:
                raise ValueError("a line that starts with no value") from None
            if line[end:].strip():
                raise ValueError("a line holds more than one value")
            yield lineno, value


# what the column reader takes from a line, in DetectionRecord order
_DETECTION_FIELDS = itemgetter("video_id", "frame", "object_class", "x0", "x1", "y0",
                               "y1", "confidence", "track_id")


def _detection_batch(lines: Sequence[int], rows: Sequence[tuple]) -> DetectionBatch:
    """One video's batch from its lines' ``_DETECTION_FIELDS``; ValueError
    unless they pass the record checks as read."""
    videos, frames, classes, *coords, confidences, tracks = zip(*rows)
    coord_types = set(map(type, chain(*coords)))
    if not (set(map(type, frames)) <= {int} and set(map(type, classes)) <= {str}
            and coord_types | set(map(type, confidences)) <= _NUMBER_TYPES
            and set(map(type, tracks)) <= {int, type(None)} and -1 not in tracks):
        raise ValueError("detection fields of other types than a batch holds")
    try:
        frames = np.array(frames, dtype=np.int64)
        track_ids = np.array([-1 if t is None else t for t in tracks], dtype=np.int64)
        boxes = np.array(coords, dtype=np.float64).T
    except OverflowError:
        raise ValueError("a detection number beyond int64 or float64") from None
    confidences = np.array(confidences, dtype=np.float64)
    x0, x1, y0, y1 = coords  # compared as parsed: ints past 2**53 stay exact
    if not (frames[0] >= 0 and (np.diff(frames) >= 0).all() and track_ids.min() >= -1
            and np.isfinite(boxes).all() and all(map(lt, x0, x1)) and all(map(lt, y0, y1))
            and ((0 <= confidences) & (confidences <= 1)).all()):
        raise ValueError("a detection breaks a record check")
    return DetectionBatch(videos[0], frames, classes, boxes,
                          None if coord_types == {float} else tuple(coords),
                          confidences, track_ids, np.array(lines))


def read_detections(path: Union[str, Path]) -> Detections:
    """The detections of ``path`` as per-video batches, under the checks and
    errors of :func:`read_records`, which parses a file with a line that a
    batch does not hold as read (a broken line, an integral float frame, ...)."""
    path, batches, seen = Path(path), [], set()
    try:
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
            if first and first.rstrip("\n") != _header("detections"):
                raise ValueError("not a detections header")
            rows = ((lineno, _DETECTION_FIELDS(value)) for lineno, value in _values(fh))
            for video, group in groupby(rows, key=lambda row: row[1][0]):
                if type(video) is not str or video in seen:
                    raise ValueError("a video id that is no string or reappears")
                seen.add(video)
                batches.append(_detection_batch(*zip(*group)))
        return Detections(batches, str(path))
    except (ValueError, KeyError, TypeError, RecursionError):
        pass  # the record parser raises at the first bad line, or takes the file
    lines, records = [], []
    for lineno, d in _numbered_records(path, "detections"):
        if max(d.frame, d.track_id or 0) >= 2**63:
            raise RecordError(f"{path}:{lineno}: frame or track_id beyond int64")
        lines.append(lineno)
        records.append(d)
    return Detections.from_records(records, lines, str(path))


def _detection_text(b: DetectionBatch) -> str:
    """A batch's lines: :data:`_DETECTION_LINE` filled from its columns."""
    line = _DETECTION_LINE.replace("%s", _quote(b.video_id).replace("%", "%%"), 1)
    quoted = {c: _quote(c) for c in set(b.classes)}
    tracks = b.track_ids.tolist()
    if b.track_ids.min() < 0:
        tracks = ["null" if t < 0 else t for t in tracks]
    columns = (b.frames.tolist(), map(quoted.__getitem__, b.classes),
               *(b.coords or b.boxes.T.tolist()), b.confidences.tolist(), tracks)
    return (line * len(tracks)) % tuple(chain.from_iterable(zip(*columns)))


def _annotation_line(r: ActivityAnnotation) -> str:
    _numbers(r.t0, r.t1)
    return '{"video_id":%s,"activity_class":%s,"t0":%r,"t1":%r,"tube":%s}\n' % (
        _quote(r.video_id), _quote(r.activity_class), r.t0, r.t1,
        _tube_text(r.frames, r.boxes))


def _annotation_from_json(obj: dict) -> ActivityAnnotation:
    args = (_str(obj["video_id"], "video_id"),
            _str(obj["activity_class"], "activity_class"),
            _int(obj["t0"], "t0"), _int(obj["t1"], "t1"))
    if obj.get("tube") is not None:
        frames, boxes = _tube_from_json(obj["tube"])
        return ActivityAnnotation(*args, frames=frames, boxes=boxes)
    # single-box shorthand: one box applied to every frame
    return ActivityAnnotation.with_static_box(*args, _box_from(obj["box"]))


def _mask_line(r: MaskFrame) -> str:
    _numbers(r.frame, r.width, r.height)
    return '{"video_id":%s,"frame":%r,"width":%r,"height":%r,"rle":%s}\n' % (
        _quote(r.video_id), r.frame, r.width, r.height, _ENCODER.encode(r.rle))


def _mask_from_json(obj: dict) -> MaskFrame:
    rle = obj["rle"]
    # one C-level pass over the run types serves the all-int case
    if not set(map(type, rle)) <= {int}:
        rle = [_int(run, "rle run") for run in rle]
    return MaskFrame(_str(obj["video_id"], "video_id"), _int(obj["frame"], "frame"),
                     _int(obj["width"], "width"), _int(obj["height"], "height"),
                     tuple(rle))


_CUBE_HEAD = ('{"video_id":%s,"t0":%r,"t1":%r,"x0":%r,"x1":%r,"y0":%r,"y1":%r,'
              '"seed_track":%s,"object_class":%s\n')


def _cube_text(t: CubeTable, scored: bool) -> str:
    """A table's lines, its numbers checked once per column; each row's
    head is formatted once per table and kept in ``t.heads``."""
    if t.heads is None:
        coords = t.coords or t.boxes.T.tolist()
        _numbers(*t.t0, *t.t1, *chain(*coords), *filter(_given, t.seed_tracks))
        quoted = {name: _quote(name) for name in {*t.video_ids, *t.object_classes}}
        rows = zip(map(quoted.get, t.video_ids), t.t0, t.t1, *coords,
                   ["null" if s is None else s for s in t.seed_tracks],
                   map(quoted.get, t.object_classes))
        t.heads = (_CUBE_HEAD * len(t) % tuple(chain.from_iterable(rows))).split("\n")[:-1]
    _numbers(*filter(_given, t.fg_scores))
    labels = {found: "null" if found is None else "[%s]" % ",".join(map(_quote, sorted(found)))
              for found in set(t.labels)}
    scores = t.scores.T.tolist() if scored and len(t) else ()
    line = '%s,"fg_score":%s,"labels":%s' + (
        ',"scores":[%s]' % ",".join(["%r"] * len(scores)) if scored else "") + "}\n"
    return line * len(t) % tuple(chain.from_iterable(zip(
        t.heads, ["null" if f is None else f for f in t.fg_scores],
        map(labels.get, t.labels), *scores)))


def _given(value) -> bool:
    return value is not None


def _cube_line(record) -> str:
    """One Cube's or ScoredCube's line, written as a one-row table."""
    return _cube_text(CubeTable.from_records([record]), isinstance(record, ScoredCube))


def _cube_from_json(obj: dict) -> Cube:
    labels, fg_score = obj.get("labels"), obj.get("fg_score")
    if labels is not None and not all(
            type(label) is str for label in _list(labels, "labels")):
        raise ValueError(f"labels must be strings, got {labels!r}")
    return Cube(
        video_id=_str(obj["video_id"], "video_id"),
        bbox=_box_from(obj),
        t0=_int(obj["t0"], "t0"),
        t1=_int(obj["t1"], "t1"),
        seed_track=_optional_int(obj, "seed_track"),
        object_class=_str(obj.get("object_class", ""), "object_class"),
        fg_score=None if fg_score is None else _float(fg_score, "fg_score"),
        labels=None if labels is None else frozenset(labels),
    )


def _scored_from_json(obj: dict) -> ScoredCube:
    return ScoredCube(cube=_cube_from_json(obj),
                      scores=tuple(_float(s, "scores entry")
                                   for s in _list(obj["scores"], "scores")))


# what the table reader takes from a proposal line, in CubeTable order
_CUBE_FIELDS = ("video_id", "t0", "t1", "x0", "x1", "y0", "y1", "seed_track",
                "object_class", "fg_score", "labels", "scores")


def read_proposals(path: Union[str, Path], kind: str = "proposals") -> CubeTable:
    """The ``proposals`` or ``scored-proposals`` of ``path`` as one table,
    under the checks and errors of :func:`read_records`, which parses a file
    with a line that the table does not take as read (an int ``fg_score``,
    a left-out optional field, ragged scores, ...)."""
    path, scored = Path(path), kind == "scored-proposals"
    try:
        with path.open("r", encoding="utf-8") as fh:
            first = fh.readline()
            if first and first.rstrip("\n") != _header(kind):
                raise ValueError(f"not a {kind} header")
            numbered = list(_values(fh))
        columns = list(zip(*map(itemgetter(*_CUBE_FIELDS[:11 + scored]),
                                (value for _, value in numbered))))
        videos, t0, t1, *coords, seeds, classes, fgs, labels = columns[:11]
        vectors = columns[11] if scored else ()
        boxes = np.array(coords, dtype=np.float64).T  # OverflowError past float64
        x0, x1, y0, y1 = coords  # compared as parsed: ints past 2**53 stay exact
        if not (set(map(type, chain(videos, classes))) <= {str}
                and set(map(type, chain(t0, t1))) <= {int} and min(t0) >= 0
                and set(map(type, chain(*coords))) <= _NUMBER_TYPES
                and set(map(type, seeds)) <= {int, type(None)}
                and set(map(type, fgs)) <= {float, type(None)}
                and set(map(type, labels)) <= {list, type(None)}
                and set(map(type, chain.from_iterable(filter(None, labels)))) <= {str}
                and set(map(type, vectors)) <= {list}
                and set(map(type, chain.from_iterable(vectors))) <= _NUMBER_TYPES
                and all(map(lt, t0, t1)) and min(filter(_given, seeds), default=0) >= 0
                and all(0.0 <= f <= 1.0 for f in filter(_given, fgs)) and all(map(
                    lt, x0, x1)) and all(map(lt, y0, y1)) and np.isfinite(boxes).all()):
            raise ValueError("proposal fields that a table does not take as read")
        table = CubeTable(list(videos), list(t0), list(t1), boxes,
                          None if set(map(type, chain(*coords))) == {float} else coords,
                          list(seeds), list(classes), list(fgs),
                          [None if found is None else frozenset(found) for found in labels],
                          lines=[lineno for lineno, _ in numbered], source=str(path))
        return table.with_scores(np.array(vectors, dtype=np.float64)) if scored else table
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
        pass  # the record parser raises at the first bad line, or takes the file
    numbered = list(_numbered_records(path, kind))
    return CubeTable.from_records([r for _, r in numbered], [n for n, _ in numbered],
                                  str(path))


def _instance_line(r: ActivityInstance) -> str:
    b, seed = r.bbox, r.seed_track
    _numbers(r.t0, r.t1, b.x0, b.x1, b.y0, b.y1, r.score, 0 if seed is None else seed)
    return ('{"video_id":%s,"activity_class":%s,"t0":%r,"t1":%r,"x0":%r,"x1":%r,'
            '"y0":%r,"y1":%r,"score":%r,"seed_track":%s,"tube":%s}\n') % (
        _quote(r.video_id), _quote(r.activity_class), r.t0, r.t1, b.x0, b.x1, b.y0,
        b.y1, r.score, "null" if seed is None else seed, _tube_text(r.frames, r.boxes))


def _instance_from_json(obj: dict) -> ActivityInstance:
    frames, boxes = _tube_from_json(obj.get("tube"))
    return ActivityInstance(
        video_id=_str(obj["video_id"], "video_id"),
        activity_class=_str(obj["activity_class"], "activity_class"),
        t0=_int(obj["t0"], "t0"),
        t1=_int(obj["t1"], "t1"),
        bbox=_box_from(obj),
        score=_float(obj["score"], "score"),
        seed_track=_optional_int(obj, "seed_track"),
        frames=frames,
        boxes=boxes,
    )


def _curve_line(r) -> str:
    # DetCurve lives in evaluation; serialized here to keep all kinds together.
    return _ENCODER.encode({
        "activity_class": r.activity_class,
        "no_reference": r.no_reference,
        "points": [[p.threshold, p.tfa, p.pmiss] for p in r.points],
    }) + "\n"


def _curve_from_json(obj: dict):
    from .evaluation import DetCurve, DetPoint

    activity_class = _str(obj["activity_class"], "activity_class")
    no_reference = _bool(obj["no_reference"], "no_reference")
    points = []
    for point in _list(obj["points"], "points"):
        if len(_list(point, "points entry")) != 3:
            raise ValueError(f"points entry must be [threshold, tfa, pmiss], "
                             f"got {point!r}")
        points.append(DetPoint(*(_float(value, name) for value, name in
                                 zip(point, ("threshold", "tfa", "pmiss")))))
    return DetCurve(activity_class, tuple(points), no_reference)


def _report_line(r: ReportRecord) -> str:
    return _ENCODER.encode({"section": r.section, "data": r.data}) + "\n"


def _report_from_json(obj: dict) -> ReportRecord:
    if type(obj["data"]) is not dict:
        raise ValueError(f"report data must be an object, got {obj['data']!r}")
    return ReportRecord(_str(obj["section"], "section"), obj["data"])


# kind -> (line formatter, parser, frame order: None for none, else whether
# a video's frames must strictly increase)
RECORD_KINDS = {
    "detections": (_detection_line, _detection_from_json, False),
    "annotations": (_annotation_line, _annotation_from_json, None),
    "masks": (_mask_line, _mask_from_json, True),
    "proposals": (_cube_line, _cube_from_json, None),
    "scored-proposals": (_cube_line, _scored_from_json, None),
    "instances": (_instance_line, _instance_from_json, None),
    "det-curves": (_curve_line, _curve_from_json, None),
    "reports": (_report_line, _report_from_json, None),
}


def _header(kind: str) -> str:
    return f"#actpipe/{kind}/v{SCHEMA_VERSION}"


def _formatter(kind: str) -> Callable[[Any], str]:
    """A record of ``kind`` as its file line: compact JSON and a newline."""
    return RECORD_KINDS[kind][0]


def _check_kind(kind: str) -> None:
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown record kind {kind!r}")


class FrameOrder:
    """Enforces sorted-by-(video_id, frame) streams with contiguous videos;
    a ``strict`` stream's frames also never repeat within a video."""

    def __init__(self, where: str, strict: bool = False):
        self.where, self.strict = where, strict
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
        if frame < self.frame + self.strict:
            raise RecordError(
                f"{self.where}:{lineno}: frame {frame} "
                f"{'repeated' if frame == self.frame else 'out of order'} in video "
                f"{video_id!r} (previous {self.frame})"
            )
        self.frame = frame


def read_records(path: Union[str, Path], kind: str) -> Iterator:
    """Stream records of ``kind`` from ``path`` in file order.

    Per-video frame order is enforced for detections and masks. Malformed
    lines raise :class:`RecordError` naming the offending line.
    """
    _check_kind(kind)
    return (record for _, record in _numbered_records(Path(path), kind))


def _numbered_records(path: Path, kind: str) -> Iterator[Tuple[int, Any]]:
    """The records of :func:`read_records`, each with its line number."""
    _, parser, strict = RECORD_KINDS[kind]
    order = None if strict is None else FrameOrder(str(path), strict)
    try:
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
                except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
                        RecursionError) as exc:
                    raise RecordError(f"{path}:{lineno}: {exc}") from exc
                if order is not None:
                    order.check(record.video_id, record.frame, lineno)
                yield lineno, record
    except UnicodeDecodeError:
        raise RecordError(_not_utf8(path)) from None


def _not_utf8(path: Path) -> str:
    """``path:line: not UTF-8 (reason)`` for the first line of ``path`` that
    does not decode; rereads the file, so call it once a text read failed."""
    # latin-1 takes every byte and splits lines as the text reader does, and a
    # line break is never part of a UTF-8 sequence, so lines decode one by one
    with path.open("r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"{path}:{lineno}: not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"


def write_records(records: Iterable, path: Union[str, Path], kind: str) -> int:
    """Write a record stream to ``path``; returns the record count.

    Round-trip law: ``read_records(write_records(s))`` reproduces ``s``.
    """
    _check_kind(kind)
    line, strict = _formatter(kind), RECORD_KINDS[kind][2]
    path = Path(path)
    order = None if strict is None else FrameOrder(str(path), strict)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write(_header(kind) + "\n")
        if kind == "detections" and isinstance(records, Detections):
            fh.writelines(map(_detection_text, records.videos))  # in order as built
            return len(records)
        if line is _cube_line:  # a stream as one table
            table, scored = CubeTable.from_records(records), kind == "scored-proposals"
            if scored and len(table) and table.scores is None:
                raise ValueError(f"no scores for {table.keys()[0]} in a {kind} stream")
            fh.write(_cube_text(table, scored))
            return len(table)
        for record in records:
            if order is not None:
                order.check(record.video_id, record.frame, count + 2)
            fh.write(line(record))
            count += 1
    return count
