"""Foreground scoring, threshold calibration, and proposal filtering.

A proposal's foreground score is the mean of binary motion-mask values over
the integer pixel cells fully inside its box, across the mask frames
sampled within its window. Each box sum slices the decoded raster directly.
:func:`score_foreground` scores many cubes in one pass over a mask stream;
:func:`foreground_score` is its per-cube reference, and the two return
exactly equal scores. Per object class, the filter threshold is
calibrated so that at most a ``p_pos`` fraction of true (positively
labeled) proposals falls at or below it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .geometry import BBox, Cube
from .records import MaskFrame

__all__ = [
    "SENTINEL_THRESHOLD",
    "foreground_score",
    "score_foreground",
    "collect_positive_scores",
    "calibrate_threshold",
    "filter_proposals",
    "filter_stage",
]

# below-domain sentinel: every score is strictly above it, so nothing filters
SENTINEL_THRESHOLD = float("-inf")


def _cell_range(lo: float, hi: float, limit: int) -> Tuple[int, int]:
    """Integer cells [i, i+1) fully inside [lo, hi), clipped to [0, limit)."""
    start = max(0, int(math.ceil(lo)))
    stop = min(limit, int(math.floor(hi)))
    return start, stop


def _box_pixel_stats(raster: np.ndarray, bbox: BBox) -> Tuple[float, int]:
    h, w = raster.shape
    x0, x1 = _cell_range(bbox.x0, bbox.x1, w)
    y0, y1 = _cell_range(bbox.y0, bbox.y1, h)
    if x0 >= x1 or y0 >= y1:
        return 0.0, 0
    patch = raster[y0:y1, x0:x1]
    # decoded rasters hold only 0 and 1, so the set-cell count is the sum
    return float(np.count_nonzero(patch)), patch.size


def _mean_score(cube: Cube, total: float, count: int, used: int) -> float:
    if used == 0:
        raise ValueError(
            f"no masks inside [{cube.t0}, {cube.t1}) for video {cube.video_id!r}"
        )
    return total / count if count else 0.0


def foreground_score(cube: Cube, masks: Sequence[MaskFrame]) -> float:
    """Mean mask value inside the cube over its sampled frames.

    Masks outside [t0, t1) are ignored. Raises when no mask frame falls in
    the window. Boxes too thin to contain a full pixel cell score 0.
    """
    total = 0.0
    count = 0
    used = 0
    for mask in masks:
        if mask.video_id != cube.video_id or not cube.t0 <= mask.frame < cube.t1:
            continue
        s, n = _box_pixel_stats(mask.decode(), cube.bbox)
        total += s
        count += n
        used += 1
    return _mean_score(cube, total, count, used)


def score_foreground(cubes: Sequence[Cube],
                     masks: Iterable[MaskFrame]) -> List[Cube]:
    """Foreground scores for many cubes with one pass over the mask stream.

    The mask stream must be frame-ordered with contiguous videos, as record
    files are. Each mask is decoded once, and every cube whose window covers
    its frame adds its box sum there. Each score equals
    ``foreground_score(cube, masks)`` exactly: both add the same integer box
    sums, in the same frame order, into float accumulators.
    """
    order = list(cubes)
    pending: Dict[str, List[int]] = {}
    for i, cube in enumerate(order):
        pending.setdefault(cube.video_id, []).append(i)
    for ids in pending.values():
        ids.sort(key=lambda i: order[i].t0)

    sums = [0.0] * len(order)
    counts = [0] * len(order)
    seen = [0] * len(order)

    done_videos: set = set()
    video = None
    queue: List[int] = []
    ptr = 0
    active: List[Tuple[int, int]] = []
    last_frame = -1
    for mask in masks:
        if mask.video_id != video:
            if mask.video_id in done_videos:
                raise ValueError(
                    f"mask stream revisits video {mask.video_id!r}; "
                    "masks must be contiguous per video"
                )
            done_videos.add(mask.video_id)
            video = mask.video_id
            queue = pending.get(video, [])
            ptr = 0
            active = []
            last_frame = -1
        if mask.frame < last_frame:
            raise ValueError(f"mask stream out of frame order in {video!r}")
        last_frame = mask.frame

        while ptr < len(queue) and order[queue[ptr]].t0 <= mask.frame:
            i = queue[ptr]
            heapq.heappush(active, (order[i].t1, i))
            ptr += 1
        while active and active[0][0] <= mask.frame:
            heapq.heappop(active)
        if not active:
            continue

        raster = mask.decode()
        for _, i in active:
            s, n = _box_pixel_stats(raster, order[i].bbox)
            sums[i] += s
            counts[i] += n
            seen[i] += 1

    return [
        Cube(cube.video_id, cube.bbox, cube.t0, cube.t1, cube.seed_track,
             cube.object_class, _mean_score(cube, sums[i], counts[i], seen[i]),
             cube.labels)
        for i, cube in enumerate(order)
    ]


def collect_positive_scores(cubes: Iterable[Cube]) -> Dict[str, List[float]]:
    """Foreground scores of positively labeled cubes, per object class."""
    out: Dict[str, List[float]] = {}
    for cube in cubes:
        if cube.labels:
            if cube.fg_score is None:
                raise ValueError("cube lacks a foreground score")
            out.setdefault(cube.object_class, []).append(cube.fg_score)
    return out


def calibrate_threshold(positive_scores: Mapping[str, Sequence[float]],
                        p_pos: float) -> Dict[str, float]:
    """Per-class filter thresholds losing at most a ``p_pos`` share of positives.

    With N positive scores, the threshold is the floor(p_pos * N)-th
    smallest one; when that count is zero (including empty classes) the
    below-domain sentinel is returned and nothing filters. Under distinct
    scores, at most floor(p_pos * N) positives fall at or below the result.
    """
    if not 0.0 <= p_pos <= 1.0:
        raise ValueError(f"p_pos {p_pos} outside [0, 1]")
    thresholds: Dict[str, float] = {}
    for object_class, scores in positive_scores.items():
        ordered = sorted(scores)
        k = math.floor(p_pos * len(ordered))
        thresholds[object_class] = ordered[k - 1] if k >= 1 else SENTINEL_THRESHOLD
    return thresholds


def filter_proposals(cubes: Iterable[Cube],
                     thresholds: Mapping[str, float]) -> List[Cube]:
    """Keep cubes scoring strictly above their class threshold, order kept."""
    out: List[Cube] = []
    for cube in cubes:
        if cube.fg_score is None:
            raise ValueError("cube lacks a foreground score; score masks first")
        if cube.object_class not in thresholds:
            raise ValueError(
                f"no filter threshold for object class {cube.object_class!r}"
            )
        if cube.fg_score > thresholds[cube.object_class]:
            out.append(cube)
    return out


def filter_stage(proposals: Sequence[Cube], masks: Iterable[MaskFrame],
                 config: PipelineConfig,
                 thresholds: Optional[Mapping[str, Optional[float]]] = None
                 ) -> Tuple[List[Cube], dict]:
    """The filter stage: kept cubes and thresholds report. Thresholds are
    calibrated on the positives unless given (a report's table, None for the
    sentinel); other classes keep the sentinel.
    """
    scored = score_foreground(proposals, masks)
    table = {c.object_class: SENTINEL_THRESHOLD for c in scored}
    for cls in config.object_classes:
        table.setdefault(cls, SENTINEL_THRESHOLD)
    if thresholds is None:
        thresholds = calibrate_threshold(collect_positive_scores(scored), config.p_pos)
    table.update({cls: SENTINEL_THRESHOLD if value is None else float(value)
                  for cls, value in thresholds.items()})
    kept = filter_proposals(scored, table)
    return kept, {
        "thresholds": {cls: (None if value == SENTINEL_THRESHOLD else value)
                       for cls, value in sorted(table.items())},
        "p_pos": config.p_pos,
        "kept": len(kept),
        "removed": len(scored) - len(kept),
    }
