"""Ground-truth cube conversion and proposal label assignment.

Annotations are first resampled into cubes on the same duration/stride as
the proposals: ground-truth cubes are :class:`Cube` objects whose
``labels`` hold the annotation's class. Each proposal is then compared
against ground-truth cubes in the same temporal window by spatial IoU and
assigned one or more positive labels, a negative label, or nothing,
following the two-threshold scheme used for region-proposal training. The
outcome is the proposals' ``labels`` column (:class:`CubeTable`): a
non-empty set when positive, an empty set when negative, ``None`` when
unassigned.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import replace
from operator import sub
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .geometry import BBox, Cube, box_areas, box_intersections, box_ious, \
    box_rows, window_unions
from .proposals import sample_windows
from .records import ActivityAnnotation, CubeTable

__all__ = [
    "temporal_iou",
    "gt_to_cubes",
    "same_window_blocks",
    "assign_labels",
    "proposal_stats",
    "label_stage",
]

SAME_WINDOW_TIOU = 0.5


def temporal_iou(a: Tuple[int, int], b: Tuple[int, int]) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union


def gt_to_cubes(annotation: ActivityAnnotation, d_prop: int,
                s_prop: int) -> List[Cube]:
    """Dense duration/stride sampling of one annotation into cubes.

    Windows follow the same rule as proposal sampling, applied within the
    instance; each cube's box is the union of the tube's boxes inside its
    window (nearest tube frame as fallback for sparse tubes, the earlier
    one on a tie). Every cube's ``labels`` is the annotation's class.
    """
    frames, n = annotation.frames, len(annotation.frames)
    windows = annotation.t0 + np.array(
        sample_windows(annotation.t1 - annotation.t0, d_prop, s_prop))
    lo, hi = np.searchsorted(frames, windows.T)
    # an empty window lies between frames[lo - 1] and frames[lo]
    center = windows.sum(axis=1) / 2.0
    before, after = np.maximum(lo - 1, 0), np.minimum(lo, n - 1)
    nearest = np.where((lo > 0) & ((lo == n) | (center - frames[before]
                                                <= frames[after] - center)),
                       before, after)
    empty = lo == hi
    lo, hi = np.where(empty, nearest, lo), np.where(empty, nearest + 1, hi)
    unions = window_unions(annotation.boxes, lo, hi).tolist()
    labels = frozenset({annotation.activity_class})
    return [Cube(annotation.video_id, BBox(*box), t0, t1, labels=labels)
            for (t0, t1), box in zip(windows.tolist(), unions)]


def same_window_blocks(proposals: Sequence[Cube], gt_cubes: Sequence[Cube]
                       ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Per distinct GT-cube window, the proposals (a :class:`CubeTable` or
    cubes) of the same video at temporal IoU >= 0.5: proposal indices
    (ascending), GT indices, and the IoU and GT-coverage (intersection over
    the GT box's area) matrices, both from one :func:`box_intersections`
    block.
    """
    table = CubeTable.from_records(proposals)
    windows: Dict[str, Dict[Tuple[int, int], List[int]]] = {}
    for i, (video_id, t0, t1) in enumerate(zip(table.video_ids, table.t0, table.t1)):
        windows.setdefault(video_id, {}).setdefault((t0, t1), []).append(i)
    keys = {video_id: sorted(ws) for video_id, ws in windows.items()}
    # a window starting the longest duration before another cannot overlap it
    max_dur = max(map(sub, table.t1, table.t0), default=0)
    gt_groups: Dict[Tuple[str, int, int], List[int]] = {}
    for g, gt in enumerate(gt_cubes):
        gt_groups.setdefault((gt.video_id, gt.t0, gt.t1), []).append(g)
    gt_boxes = box_rows(gt.bbox for gt in gt_cubes)
    for (video_id, t0, t1), g_idx in gt_groups.items():
        near = keys.get(video_id, [])
        near = near[bisect.bisect_left(near, (t0 - max_dur,)):
                    bisect.bisect_left(near, (t1,))]
        p_idx = np.array(sorted(i for w in near
                                if temporal_iou(w, (t0, t1)) >= SAME_WINDOW_TIOU
                                for i in windows[video_id][w]), dtype=np.int64)
        if not p_idx.size:
            continue
        p, g = table.boxes[p_idx, None], gt_boxes[g_idx]
        inter = box_intersections(p, g)
        yield (p_idx, np.array(g_idx), box_ious(p, g, inter),
               inter / box_areas(g))


def assign_labels(proposals: Sequence[Cube], gt_cubes: Sequence[Cube],
                  s_high: float, s_low: float) -> CubeTable:
    """Two-threshold label assignment between proposals and GT cubes.

    Only pairs in the same video whose windows overlap with temporal IoU of
    at least 0.5 are compared. A proposal collects the labels of every GT
    cube whose spatial IoU is strictly above ``s_high``; every GT cube
    additionally labels its best proposal strictly above ``s_low`` (ties to
    the lower proposal index); proposals whose scores all sit at or below
    ``s_low`` are negative (empty labels), the rest stay unassigned
    (``None``). Returns the proposals' table with these labels.
    """
    table = CubeTable.from_records(proposals)
    labels = [frozenset()] * len(table)
    best_iou = np.zeros(len(table))
    for p_idx, g_idx, iou, _ in same_window_blocks(table, gt_cubes):
        best_iou[p_idx] = np.maximum(best_iou[p_idx], iou.max(axis=1))
        for r, c in zip(*np.nonzero(iou > s_high)):
            labels[p_idx[r]] |= gt_cubes[g_idx[c]].labels
        # argmax takes the first maximum: the lowest proposal index
        best = iou.argmax(axis=0)
        above = iou[best, np.arange(len(g_idx))] > s_low
        for r, g in zip(best[above], g_idx[above]):
            labels[p_idx[r]] |= gt_cubes[g].labels
    return replace(table, labels=[found or (frozenset() if best <= s_low else None)
                                  for found, best in zip(labels, best_iou.tolist())])


def proposal_stats(labeled: Sequence[Cube]) -> dict:
    """The proposal-statistics report: outcome counts and rates.

    Label-count rates are among positives: share with exactly one, exactly
    two, and three or more labels.
    """
    # cubes by label count: None when unassigned, 0 when negative, 3 for 3+
    counts = Counter(None if found is None else min(len(found), 3)
                     for found in CubeTable.from_records(labeled).labels)
    total, positive = len(labeled), counts[1] + counts[2] + counts[3]
    single, two, many = (counts[n] / positive if positive else 0.0 for n in (1, 2, 3))
    return {"total": total, "positive": positive, "negative": counts[0],
            "unassigned": counts[None],
            "positive_rate": positive / total if total else 0.0,
            "single_label_rate": single, "two_label_rate": two,
            "many_label_rate": many}


def label_stage(proposals: Sequence[Cube],
                annotations: Iterable[ActivityAnnotation],
                config: PipelineConfig) -> Tuple[CubeTable, dict]:
    """The assign-labels stage: labeled proposals and their statistics."""
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    labeled = assign_labels(proposals, gt_cubes, config.s_high, config.s_low)
    return labeled, proposal_stats(labeled)
