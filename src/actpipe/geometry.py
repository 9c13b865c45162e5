"""Axis-aligned box and spatio-temporal cube algebra.

Coordinates are real-valued and half-open: a box occupies [x0, x1) x [y0, y1)
pixels, a cube additionally spans the integer frame window [t0, t1).
Degenerate (zero-area) boxes cannot be constructed. Tracks and tubes hold
sorted int64 frames plus an (N, 4) float64 array of x0, x1, y0, y1 rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "BBox",
    "Cube",
    "bbox_iou",
    "bbox_union",
    "bbox_intersection",
    "bbox_enlarge",
    "coverage",
    "tube_iou_3d",
    "tube_arrays",
    "window_unions",
]


@dataclass(frozen=True)
class BBox:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(
                f"degenerate box ({self.x0}, {self.x1}, {self.y0}, {self.y1})"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0


@dataclass(frozen=True)
class Cube:
    """One spatio-temporal proposal: a single box over a frame window.

    ``labels`` is ``None`` while unassigned, an empty frozenset for an
    explicit negative, and a non-empty frozenset of activity classes when
    positive.
    """

    video_id: str
    bbox: BBox
    t0: int
    t1: int
    seed_track: Optional[int] = None
    object_class: str = ""
    fg_score: Optional[float] = None
    labels: Optional[frozenset] = None

    def __post_init__(self):
        if not 0 <= self.t0 < self.t1:
            raise ValueError(f"bad cube window [{self.t0}, {self.t1})")
        if self.fg_score is not None and not 0.0 <= self.fg_score <= 1.0:
            raise ValueError(f"fg_score {self.fg_score} outside [0, 1]")
        if self.labels is not None and not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))

    @property
    def duration(self) -> int:
        return self.t1 - self.t0


def _intersection_area(a: BBox, b: BBox) -> float:
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    inter = _intersection_area(a, b)
    return inter / (a.area + b.area - inter)


def bbox_union(a: BBox, b: BBox) -> BBox:
    """Smallest axis-aligned box containing both inputs."""
    return BBox(
        min(a.x0, b.x0), max(a.x1, b.x1), min(a.y0, b.y0), max(a.y1, b.y1)
    )


def bbox_intersection(a: BBox, b: BBox) -> Optional[BBox]:
    """Overlap box of two boxes, or ``None`` when the overlap area is 0."""
    x0, x1 = max(a.x0, b.x0), min(a.x1, b.x1)
    y0, y1 = max(a.y0, b.y0), min(a.y1, b.y1)
    if x0 >= x1 or y0 >= y1:
        return None
    return BBox(x0, x1, y0, y1)


def bbox_enlarge(b: BBox, rate: float, frame: Tuple[float, float]) -> BBox:
    """Scale a box by (1 + rate) per axis about its center, clamped to the frame.

    ``frame`` is the (width, height) of the image; the result never leaves
    [0, width] x [0, height].
    """
    if rate < 0:
        raise ValueError(f"enlarge rate {rate} must be >= 0")
    width, height = frame
    # margin form of scaling by (1 + rate) about the center; exact at rate 0
    mx = b.width * rate / 2.0
    my = b.height * rate / 2.0
    return BBox(
        max(0.0, b.x0 - mx),
        min(float(width), b.x1 + mx),
        max(0.0, b.y0 - my),
        min(float(height), b.y1 + my),
    )


def coverage(pred: BBox, ref: BBox) -> float:
    """Fraction of the reference box covered by the prediction."""
    return _intersection_area(pred, ref) / ref.area


TubeLike = Union[Mapping[int, BBox], Iterable[Tuple[int, BBox]]]


def tube_iou_3d(a: TubeLike, b: TubeLike) -> float:
    """Frame-summed IoU between two tubes (at most one box per frame each).

    Frames present in only one tube contribute their full box area to the
    denominator. Raises if both tubes are empty.
    """
    da = dict(a)
    db = dict(b)
    if not da and not db:
        raise ValueError("tube_iou_3d on two empty tubes")
    inter = 0.0
    union = 0.0
    for frame in da.keys() | db.keys():
        box_a = da.get(frame)
        box_b = db.get(frame)
        if box_a is not None and box_b is not None:
            i = _intersection_area(box_a, box_b)
            inter += i
            union += box_a.area + box_b.area - i
        elif box_a is not None:
            union += box_a.area
        else:
            union += box_b.area
    return inter / union


def tube_arrays(frames: Sequence, boxes: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Int64 frames and (N, 4) float64 box rows, sorted by frame; raises on
    a non-finite value, a non-integer or repeated frame, a degenerate box."""
    raw = np.asarray(frames, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not (np.isfinite(raw).all() and np.isfinite(boxes).all()):
        raise ValueError("non-finite value in tube")
    frames = raw.astype(np.int64)
    if (frames != raw).any():
        raise ValueError("non-integer tube frame")
    order = np.argsort(frames, kind="stable")
    frames, boxes = frames[order], boxes[order]
    repeated = np.flatnonzero(np.diff(frames) == 0)
    if repeated.size:
        raise ValueError(f"duplicate frame {frames[repeated[0]]} in tube")
    bad = ~((boxes[:, 0] < boxes[:, 1]) & (boxes[:, 2] < boxes[:, 3]))
    if bad.any():
        raise ValueError(f"degenerate box {tuple(boxes[bad.argmax()].tolist())}")
    return frames, boxes


def window_unions(boxes: np.ndarray, lo: Sequence[int],
                  hi: Sequence[int]) -> np.ndarray:
    """Union box row of each non-empty slice ``boxes[lo[i]:hi[i]]``; min and
    max are exact, so it equals folding :func:`bbox_union` over the slice."""
    # reduceat reduces [idx[j], idx[j + 1]): even positions are the slices;
    # the padding row keeps an end bound of len(boxes) a valid index
    padded = np.vstack((boxes, boxes[-1:]))
    idx = np.column_stack((lo, hi)).ravel()
    out = np.empty((len(idx) // 2, 4))
    out[:, 0::2] = np.minimum.reduceat(padded[:, 0::2], idx)[::2]
    out[:, 1::2] = np.maximum.reduceat(padded[:, 1::2], idx)[::2]
    return out
