"""Axis-aligned box and spatio-temporal cube algebra.

Coordinates are real-valued and half-open: a box occupies [x0, x1) x [y0, y1)
pixels, a cube additionally spans the integer frame window [t0, t1).
Degenerate (zero-area) boxes cannot be constructed. Boxes in bulk are
float64 rows of x0, x1, y0, y1 (:func:`box_rows`); tracks and tubes hold
sorted int64 frames plus an (N, 4) array of them. One overlap kernel on
rows, :func:`box_areas`, :func:`box_intersections` and :func:`box_ious`,
gives every area, intersection and IoU in the package, tube IoUs
included; it broadcasts and keeps one operation order, so a value is the
same in any block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BBox",
    "Cube",
    "box_rows",
    "box_areas",
    "box_intersections",
    "box_ious",
    "bbox_union",
    "bbox_intersection",
    "box_enlarge",
    "tube_arrays",
    "window_unions",
]

# elements of one overlap-kernel block of pair or tube rows, bounding memory
IOU_BLOCK_ELEMENTS = 1 << 18


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


@dataclass(frozen=True)
class Cube:
    """One spatio-temporal cube, a proposal or a ground-truth cube: a
    single box over a frame window.

    ``labels`` is ``None`` while unassigned, an empty frozenset for an
    explicit negative, and a non-empty frozenset of activity classes when
    positive; a ground-truth cube holds its annotation's class.
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
        if self.seed_track is not None and self.seed_track < 0:
            raise ValueError(f"negative seed_track {self.seed_track}")
        if self.fg_score is not None and not 0.0 <= self.fg_score <= 1.0:
            raise ValueError(f"fg_score {self.fg_score} outside [0, 1]")
        if self.labels is not None and not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))


def box_rows(boxes: Iterable[BBox]) -> np.ndarray:
    """(N, 4) float64 rows of the boxes, in order."""
    return np.array([(b.x0, b.x1, b.y0, b.y1) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def box_areas(rows: np.ndarray) -> np.ndarray:
    """Width times height of each row of a (..., 4) array."""
    return (rows[..., 1] - rows[..., 0]) * (rows[..., 3] - rows[..., 2])


def box_intersections(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlap area of each broadcast pair of rows; 0 where the boxes only
    touch or are apart."""
    iw = np.minimum(a[..., 1], b[..., 1]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 2], b[..., 2])
    return np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)


def box_ious(a: np.ndarray, b: np.ndarray,
             inter: Optional[np.ndarray] = None) -> np.ndarray:
    """Intersection over union, in [0, 1], of each broadcast pair of rows;
    ``inter`` is their :func:`box_intersections` when the caller has them."""
    if inter is None:
        inter = box_intersections(a, b)
    return inter / (box_areas(a) + box_areas(b) - inter)


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


def box_enlarge(rows: np.ndarray, rate: float, frame: Tuple[float, float]) -> np.ndarray:
    """Each row scaled by (1 + rate) per axis about its center, clamped to
    [0, width] x [0, height] for ``frame = (width, height)``; raises on a
    degenerate result."""
    if rate < 0:
        raise ValueError(f"enlarge rate {rate} must be >= 0")
    width, height = frame
    # margin form of scaling by (1 + rate) about the center; exact at rate 0
    margins = (rows[:, 1::2] - rows[:, 0::2]) * rate / 2.0  # x, then y
    out = np.empty_like(rows)
    out[:, 0::2] = np.maximum(0.0, rows[:, 0::2] - margins)
    out[:, 1::2] = np.minimum([float(width), float(height)], rows[:, 1::2] + margins)
    bad = ~((out[:, 0] < out[:, 1]) & (out[:, 2] < out[:, 3]))
    if bad.any():
        raise ValueError(f"degenerate box {tuple(out[bad.argmax()].tolist())}")
    return out


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
