"""Foreground scoring, threshold calibration, and proposal filtering.

A proposal's foreground score is the share of set cells among the integer
pixel cells ``[i, i+1)`` fully inside its box, counted over the mask frames
sampled within its window; a box too thin to hold a full cell scores 0.
:func:`score_foreground` scores every cube in one pass over the masks: a
mask's cubes are the windows of its video that hold its frame. The stream's
strict frame order is its contract, and a repeated frame would count twice;
the search does not need it. Per object class, the filter threshold is
calibrated so that at most a ``p_pos`` fraction of true (positively
labeled) proposals falls at or below it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .config import ConfigError, PipelineConfig
from .geometry import Cube
from .records import CubeTable, FrameOrder, MaskFrame, _float, read_records

__all__ = [
    "SENTINEL_THRESHOLD",
    "score_foreground",
    "collect_positive_scores",
    "calibrate_threshold",
    "filter_proposals",
    "load_thresholds",
    "filter_stage",
]

# below-domain sentinel: every score is strictly above it, so nothing filters
SENTINEL_THRESHOLD = float("-inf")
_INT64_MAX = 2**63 - 1
_NO_WINDOWS = (np.empty(0, dtype=np.int64),) * 3  # a video without cubes


def score_foreground(cubes: Sequence[Cube],
                     masks: Iterable[MaskFrame]) -> CubeTable:
    """The cubes' table with their foreground scores, from one pass over the masks.

    A mask's cubes are the windows of its video that hold its frame; the
    mask is decoded once and each adds its set and total cell counts there.
    The stream must be frame-ordered with contiguous videos and no repeated
    frame, as mask files are, for the contract and the repeated-frame rule,
    not the search. Raises when no mask frame falls in a cube's window.
    """
    table = CubeTable.from_records(cubes)
    t0, t1 = table.t0, table.t1
    # each video's rows and windows; a bound clamps at int64's top, which moves
    # no smaller frame in or out of a window, and larger frames take the bounds
    lo, hi = (np.array([min(t, _INT64_MAX) for t in ts], dtype=np.int64) for ts in (t0, t1))
    rows: Dict[str, List[int]] = {}
    for i, video_id in enumerate(table.video_ids):
        rows.setdefault(video_id, []).append(i)
    windows = {video_id: (np.array(ids), lo[ids], hi[ids]) for video_id, ids in rows.items()}

    # rows [ceil y0, floor y1) and columns [ceil x0, floor x1) of the cells
    # fully inside each box; bounds clamp at 0, so a box above or left of the
    # mask slices nothing rather than counting from the far edge, and numpy
    # clips them to the mask, so they fit every size
    b = table.boxes
    bounds = np.clip(np.column_stack((np.ceil(b[:, 2]), np.floor(b[:, 3]), np.ceil(b[:, 0]),
                                      np.floor(b[:, 1]))), 0, 2.0**62).astype(np.int64)
    cells = [(slice(y0, y1), slice(x0, x1)) for y0, y1, x0, x1 in bounds.tolist()]
    ones, counts, seen = [0] * len(table), [0] * len(table), [False] * len(table)

    frame_order = FrameOrder("mask stream", strict=True)
    for n, mask in enumerate(masks, start=1):
        frame_order.check(mask.video_id, mask.frame, n)
        ids, starts, ends = windows.get(mask.video_id, _NO_WINDOWS)
        active = ids[(starts <= mask.frame) & (mask.frame < ends) if mask.frame < _INT64_MAX
                     else [t0[i] <= mask.frame < t1[i] for i in ids.tolist()]]
        if not len(active):
            continue

        raster = mask.decode()
        for i in active.tolist():
            patch = raster[cells[i]]
            ones[i] += np.count_nonzero(patch)
            counts[i] += patch.size
            seen[i] = True

    if not all(seen):
        i = seen.index(False)
        raise ValueError(f"no masks inside [{t0[i]}, {t1[i]}) for video "
                         f"{table.video_ids[i]!r}")
    # exact integer counts; int() keeps the score a plain float
    return replace(table, fg_scores=[int(o) / c if c else 0.0
                                     for o, c in zip(ones, counts)])


def collect_positive_scores(cubes: Iterable[Cube]) -> Dict[str, List[float]]:
    """Foreground scores of positively labeled cubes, per object class."""
    table = CubeTable.from_records(cubes)
    out: Dict[str, List[float]] = {}
    for found, object_class, fg_score in zip(table.labels, table.object_classes,
                                             table.fg_scores):
        if found:
            if fg_score is None:
                raise ValueError("cube lacks a foreground score")
            out.setdefault(object_class, []).append(fg_score)
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
                     thresholds: Mapping[str, float]) -> CubeTable:
    """Keep cubes scoring strictly above their class threshold, order kept."""
    table = CubeTable.from_records(cubes)
    kept = []
    for i, (fg_score, object_class) in enumerate(zip(table.fg_scores,
                                                     table.object_classes)):
        if fg_score is None:
            raise ValueError("cube lacks a foreground score; score masks first")
        if object_class not in thresholds:
            raise ValueError(
                f"no filter threshold for object class {object_class!r}"
            )
        if fg_score > thresholds[object_class]:
            kept.append(i)
    return table.take(kept)


def load_thresholds(path: Union[str, Path]) -> Dict[str, Optional[float]]:
    """The merged ``thresholds`` tables of a report file's ``filter_thresholds``
    sections: per object class a finite number, or null for the sentinel."""
    tables = [record.data.get("thresholds") for record in read_records(path, "reports")
              if record.section == "filter_thresholds"]
    if not tables:
        raise ConfigError(f"{path}: no filter_thresholds section")
    try:
        if any(type(table) is not dict for table in tables):
            raise ValueError("a filter_thresholds section lacks a 'thresholds' object")
        return {cls: None if value is None else _float(value, f"threshold of {cls!r}")
                for table in tables for cls, value in table.items()}
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def filter_stage(proposals: Sequence[Cube], masks: Iterable[MaskFrame],
                 config: PipelineConfig,
                 thresholds: Optional[Mapping[str, Optional[float]]] = None
                 ) -> Tuple[CubeTable, dict]:
    """The filter stage: kept cubes and thresholds report. Thresholds are
    calibrated on the positives unless given (a report's table, None for the
    sentinel); other classes keep the sentinel.
    """
    scored = score_foreground(proposals, masks)
    table = dict.fromkeys(scored.object_classes, SENTINEL_THRESHOLD)
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
