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

The comparison is one join per video (:func:`same_window_pairs`): the
distinct proposal and GT windows meet in one temporal-IoU test, their
members expand into flat (proposal, GT) pairs, and one overlap-kernel call
scores all of them. Labels and the proposal-quality report read maxima off
sorts of those pair arrays (:func:`group_last`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
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
    "same_window_pairs",
    "group_last",
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


def same_window_pairs(proposals: Sequence[Cube], gt_cubes: Sequence[Cube]
                      ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Per video, every pair of a proposal (a :class:`CubeTable` or cubes)
    and a GT cube whose windows have temporal IoU >= 0.5, as flat arrays:
    proposal indices, GT indices, and the pairs' IoU and GT coverage
    (intersection over the GT box's area), from one :func:`box_intersections`
    call. Each distinct pair of windows is tested once, dividing as
    :func:`temporal_iou` does: in float64 below 2**53, on Python ints past it.
    """
    table = CubeTable.from_records(proposals)
    by_video: Dict[str, Tuple[list, list]] = {}  # (code, t0, t1) per window
    members = []  # per side: indices by window code, each code's first and count
    for side, windows in enumerate((zip(table.video_ids, table.t0, table.t1),
                                    ((gt.video_id, gt.t0, gt.t1) for gt in gt_cubes))):
        codes: Dict[tuple, int] = {}
        code = np.array([codes.setdefault(w, len(codes)) for w in windows], dtype=np.intp)
        count = np.bincount(code, minlength=len(codes))
        members.append((np.argsort(code, kind="stable"), np.cumsum(count) - count, count))
        for (video_id, t0, t1), c in codes.items():
            by_video.setdefault(video_id, ([], []))[side].append((c, t0, t1))
    (p_order, p_first, p_count), (g_order, g_first, g_count) = members
    gt_boxes = box_rows(gt.bbox for gt in gt_cubes)
    for p_windows, g_windows in by_video.values():
        if not (p_windows and g_windows):
            continue
        big = max(w[2] for w in p_windows + g_windows) >= 2 ** 53
        a, b = (np.array(w, dtype=object if big else np.int64) for w in (p_windows, g_windows))
        inter = np.minimum(a[:, None, 2], b[:, 2]) - np.maximum(a[:, None, 1], b[:, 1])
        union = np.maximum(a[:, None, 2], b[:, 2]) - np.minimum(a[:, None, 1], b[:, 1])
        i, j = np.nonzero(inter / union >= SAME_WINDOW_TIOU)
        wp, wg = a[i, 0].astype(np.intp), b[j, 0].astype(np.intp)
        # every member of window wp against every member of window wg
        size = p_count[wp] * g_count[wg]
        pair = np.repeat(np.arange(len(size)), size)
        k, n_g = np.arange(len(pair)) - (np.cumsum(size) - size)[pair], g_count[wg][pair]
        p = p_order[p_first[wp][pair] + k // n_g]
        g = g_order[g_first[wg][pair] + k % n_g]
        rows, gts = table.boxes[p], gt_boxes[g]
        inter = box_intersections(rows, gts)
        yield p, g, box_ious(rows, gts, inter), inter / box_areas(gts)


def group_last(*keys: np.ndarray) -> np.ndarray:
    """Index of the last pair of each ``keys[-1]`` group in the order of
    ``np.lexsort(keys)``: with a value key first, each group's maximum."""
    order = np.lexsort(keys)
    group, last = keys[-1][order], np.ones(len(order), dtype=bool)
    last[:-1] = group[1:] != group[:-1]
    return order[last]


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
    assigned = np.zeros(len(table), dtype=bool)  # some pair above s_low
    for p, g, iou, _ in same_window_pairs(table, gt_cubes):
        p, g, iou = (x[iou > s_low] for x in (p, g, iou))
        assigned[p] = True
        best = group_last(-p, iou, g)  # a GT cube's best: ties to the lowest index
        for r, c in zip(*(np.append(x[iou > s_high], x[best]).tolist() for x in (p, g))):
            labels[r] |= gt_cubes[c].labels
    return replace(table, labels=[found or (None if up else frozenset())
                                  for found, up in zip(labels, assigned.tolist())])


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
