"""Ground-truth cube conversion and proposal label assignment.

Annotations are first resampled into cubes on the same duration/stride as
the proposals. Each proposal is then compared against ground-truth cubes in
the same temporal window by spatial IoU and assigned one or more positive
labels, a negative label, or nothing, following the two-threshold scheme
used for region-proposal training.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .geometry import BBox, Cube, window_unions
from .proposals import sample_windows
from .records import ActivityAnnotation

__all__ = [
    "GtCube",
    "LabelAssignment",
    "ProposalStats",
    "temporal_iou",
    "gt_to_cubes",
    "same_window_blocks",
    "assign_labels",
    "apply_assignments",
    "proposal_stats",
]

SAME_WINDOW_TIOU = 0.5


@dataclass(frozen=True)
class GtCube:
    """One ground-truth cube: the annotation resampled onto a window."""

    video_id: str
    activity_class: str
    t0: int
    t1: int
    bbox: BBox


@dataclass(frozen=True)
class LabelAssignment:
    """Outcome for one proposal: positive label set, negative, or unassigned."""

    proposal_index: int
    labels: frozenset
    negative: bool

    def __post_init__(self):
        if self.negative and self.labels:
            raise ValueError("negative assignment cannot carry labels")

    @property
    def outcome(self) -> str:
        if self.labels:
            return "positive"
        return "negative" if self.negative else "unassigned"


def temporal_iou(a: Tuple[int, int], b: Tuple[int, int]) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union


def gt_to_cubes(annotation: ActivityAnnotation, d_prop: int,
                s_prop: int) -> List[GtCube]:
    """Dense duration/stride sampling of one annotation into cubes.

    Windows follow the same rule as proposal sampling, applied within the
    instance; each cube's box is the union of the tube's boxes inside its
    window (nearest tube frame as fallback for sparse tubes, the earlier
    one on a tie).
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
    return [GtCube(annotation.video_id, annotation.activity_class, t0, t1, BBox(*box))
            for (t0, t1), box in zip(windows.tolist(), unions)]


def _box_rows(items) -> np.ndarray:
    return np.array([(c.bbox.x0, c.bbox.x1, c.bbox.y0, c.bbox.y1) for c in items],
                    dtype=np.float64).reshape(-1, 4)


def same_window_blocks(proposals: Sequence[Cube], gt_cubes: Sequence[GtCube]
                       ) -> Iterator[Tuple[np.ndarray, ...]]:
    """Per distinct GT-cube window, the proposals of the same video at
    temporal IoU >= 0.5: proposal indices (ascending), GT indices, and the
    IoU and GT-coverage matrices, computed in the operation order of
    :func:`bbox_iou` and :func:`coverage`, so bit-identical to them.
    """
    windows: Dict[str, Dict[Tuple[int, int], List[int]]] = {}
    for i, p in enumerate(proposals):
        windows.setdefault(p.video_id, {}).setdefault((p.t0, p.t1), []).append(i)
    keys = {video_id: sorted(ws) for video_id, ws in windows.items()}
    # a window starting the longest duration before another cannot overlap it
    max_dur = max((p.t1 - p.t0 for p in proposals), default=0)
    gt_groups: Dict[Tuple[str, int, int], List[int]] = {}
    for g, gt in enumerate(gt_cubes):
        gt_groups.setdefault((gt.video_id, gt.t0, gt.t1), []).append(g)
    prop_boxes, gt_boxes = _box_rows(proposals), _box_rows(gt_cubes)
    for (video_id, t0, t1), g_idx in gt_groups.items():
        near = keys.get(video_id, [])
        near = near[bisect.bisect_left(near, (t0 - max_dur,)):
                    bisect.bisect_left(near, (t1,))]
        p_idx = np.array(sorted(i for w in near
                                if temporal_iou(w, (t0, t1)) >= SAME_WINDOW_TIOU
                                for i in windows[video_id][w]), dtype=np.int64)
        if not p_idx.size:
            continue
        px0, px1, py0, py1 = prop_boxes[p_idx].T[..., None]
        gx0, gx1, gy0, gy1 = gt_boxes[g_idx].T[:, None]
        iw = np.minimum(px1, gx1) - np.maximum(px0, gx0)
        ih = np.minimum(py1, gy1) - np.maximum(py0, gy0)
        inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
        g_area = (gx1 - gx0) * (gy1 - gy0)
        yield (p_idx, np.array(g_idx),
               inter / ((px1 - px0) * (py1 - py0) + g_area - inter), inter / g_area)


def assign_labels(proposals: Sequence[Cube], gt_cubes: Sequence[GtCube],
                  s_high: float, s_low: float) -> List[LabelAssignment]:
    """Two-threshold label assignment between proposals and GT cubes.

    Only pairs in the same video whose windows overlap with temporal IoU of
    at least 0.5 are compared. A proposal collects every GT cube whose
    spatial IoU is strictly above ``s_high``; every GT cube additionally
    labels its best proposal strictly above ``s_low`` (ties to the lower
    proposal index); proposals whose scores all sit at or below ``s_low``
    are negative, the rest stay unassigned.
    """
    labels: List[set] = [set() for _ in proposals]
    best_iou = np.zeros(len(proposals))
    classes = [gt.activity_class for gt in gt_cubes]
    for p_idx, g_idx, iou, _ in same_window_blocks(proposals, gt_cubes):
        best_iou[p_idx] = np.maximum(best_iou[p_idx], iou.max(axis=1))
        for r, c in zip(*np.nonzero(iou > s_high)):
            labels[p_idx[r]].add(classes[g_idx[c]])
        # argmax takes the first maximum: the lowest proposal index
        best = iou.argmax(axis=0)
        above = iou[best, np.arange(len(g_idx))] > s_low
        for r, g in zip(best[above], g_idx[above]):
            labels[p_idx[r]].add(classes[g])

    return [LabelAssignment(i, frozenset(found), not found and best <= s_low)
            for i, (found, best) in enumerate(zip(labels, best_iou.tolist()))]


def apply_assignments(proposals: Sequence[Cube],
                      assignments: Sequence[LabelAssignment]) -> List[Cube]:
    """Write assignment outcomes onto cubes (empty set marks negatives)."""
    if len(proposals) != len(assignments):
        raise ValueError("assignment count does not match proposals")
    out = []
    for cube, assignment in zip(proposals, assignments):
        labels = None if assignment.outcome == "unassigned" else assignment.labels
        out.append(Cube(cube.video_id, cube.bbox, cube.t0, cube.t1,
                        cube.seed_track, cube.object_class, cube.fg_score,
                        labels))
    return out


@dataclass(frozen=True)
class ProposalStats:
    total: int
    positive: int
    negative: int
    unassigned: int
    positive_rate: float
    single_label_rate: float
    two_label_rate: float
    many_label_rate: float

    def to_dict(self) -> dict:
        return asdict(self)


def proposal_stats(assignments: Iterable[LabelAssignment]) -> ProposalStats:
    """Counts and rates mirroring the proposal-statistics report.

    Label-count rates are among positives: share with exactly one, exactly
    two, and three or more labels.
    """
    total = positive = negative = 0
    hist = {1: 0, 2: 0}
    many = 0
    for a in assignments:
        total += 1
        if a.outcome == "positive":
            positive += 1
            n = len(a.labels)
            if n in hist:
                hist[n] += 1
            else:
                many += 1
        elif a.outcome == "negative":
            negative += 1
    unassigned = total - positive - negative
    return ProposalStats(
        total=total,
        positive=positive,
        negative=negative,
        unassigned=unassigned,
        positive_rate=positive / total if total else 0.0,
        single_label_rate=hist[1] / positive if positive else 0.0,
        two_label_rate=hist[2] / positive if positive else 0.0,
        many_label_rate=many / positive if positive else 0.0,
    )
