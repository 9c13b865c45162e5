"""Both evaluation protocols and proposal-quality reporting.

Loosened setting: per-class detection-error-tradeoff curves sweeping the
score threshold, reporting the probability of missing a ground-truth
instance against the time-based false-alarm rate (falsely flagged
non-activity frames over total non-activity frames), summarized as the
normalized area under the curve up to a false-alarm budget. A frame is
flagged at threshold t when the best prediction covering it scores >= t,
and a ground truth is missed when its best overlapping prediction scores
< t, so each curve point counts two sorted score arrays. Strict setting:
mean average precision with exact bipartite matching at 3D tube IoU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate, deduplicate_subsets
from .geometry import Cube, box_areas, box_intersections
from .labeling import gt_to_cubes, same_window_blocks
from .records import ActivityAnnotation, ActivityInstance
from .scoring import oracle_scores

__all__ = [
    "DetPoint",
    "DetCurve",
    "det_curve",
    "pmiss_at_tfa",
    "naudc",
    "Map3dResult",
    "map_3diou",
    "oracle_lower_bound",
    "proposal_quality",
    "evaluation_report",
]

QUALITY_LEVELS = tuple(round(0.1 * i, 1) for i in range(10))
# elements (predictions x GTs x frames x 4 coordinates) of one tube-IoU block
IOU_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class DetPoint:
    threshold: float
    tfa: float
    pmiss: float


@dataclass(frozen=True)
class DetCurve:
    """Right-continuous DET step function, one sweep point per threshold.

    ``no_reference`` flags classes that were predicted but never annotated;
    such curves carry no points and are excluded from corpus means.
    """

    activity_class: str
    points: Tuple[DetPoint, ...]
    no_reference: bool = False


def _check_videos(video_lengths: Mapping[str, int],
                  predictions: Sequence[ActivityInstance],
                  annotations: Sequence[ActivityAnnotation]) -> None:
    """Every window lies within its video's known length."""
    for kind, records in (("predicted", predictions), ("annotated", annotations)):
        for r in records:
            length = video_lengths.get(r.video_id)
            if length is None:
                raise ValueError(f"no video length for {kind} {r.video_id!r}")
            if r.t1 > length:
                raise ValueError(f"{kind} window [{r.t0}, {r.t1}) ends past the "
                                 f"{length} frames of video {r.video_id!r}")


def det_curve(predictions: Sequence[ActivityInstance],
              annotations: Sequence[ActivityAnnotation],
              video_lengths: Mapping[str, int],
              min_temporal_overlap: int,
              classes: Optional[Sequence[str]] = None) -> Dict[str, DetCurve]:
    """Per-class DET sweep over the distinct prediction scores.

    At threshold t, a ground truth is missed when its best prediction of the
    class (same video, temporal overlap >= ``min_temporal_overlap`` frames)
    scores < t, and a frame outside the class's ground-truth windows is a
    false alarm when the best prediction covering it scores >= t; false
    alarms are over the corpus's non-positive frames (none reads as 0.0).
    Each point is two ``searchsorted`` counts over sorted best scores,
    divided int by int, so it is exact for the finite scores records hold.
    """
    _check_videos(video_lengths, predictions, annotations)
    if classes is None:
        classes = sorted({a.activity_class for a in annotations}
                         | {p.activity_class for p in predictions})

    curves: Dict[str, DetCurve] = {}
    for activity_class in classes:
        gts = [a for a in annotations if a.activity_class == activity_class]
        preds = [p for p in predictions if p.activity_class == activity_class]
        if not gts:
            curves[activity_class] = DetCurve(activity_class, (), True)
            continue

        positive = {v: np.zeros(n, dtype=bool) for v, n in video_lengths.items()}
        frame_best = {v: np.full(n, -np.inf) for v, n in video_lengths.items()}
        for gt in gts:
            positive[gt.video_id][gt.t0:gt.t1] = True
        by_video: Dict[str, List[ActivityInstance]] = {}
        for pred in preds:
            window = frame_best[pred.video_id][pred.t0:pred.t1]
            np.maximum(window, pred.score, out=window)
            by_video.setdefault(pred.video_id, []).append(pred)
        negatives = np.sort(np.concatenate(
            [frame_best[v][~positive[v]] for v in video_lengths]))
        best = np.sort([max((p.score for p in by_video.get(gt.video_id, ())
                             if min(p.t1, gt.t1) - max(p.t0, gt.t0)
                             >= min_temporal_overlap), default=-np.inf)
                        for gt in gts])

        thresholds = sorted({p.score for p in preds}, reverse=True)
        alarms = (len(negatives) - np.searchsorted(negatives, thresholds)).tolist()
        misses = np.searchsorted(best, thresholds).tolist()
        points = tuple(DetPoint(t, fa / len(negatives) if len(negatives) else 0.0,
                                m / len(gts))
                       for t, fa, m in zip(thresholds, alarms, misses))
        curves[activity_class] = DetCurve(activity_class, points, False)
    return curves


def pmiss_at_tfa(curve: DetCurve, tfa_budget: float) -> float:
    """Best Pmiss reachable within a false-alarm budget; 1.0 when nothing
    qualifies."""
    qualifying = [p.pmiss for p in curve.points if p.tfa <= tfa_budget]
    return min(qualifying, default=1.0)


def naudc(curve: DetCurve, limit: float = 0.2) -> float:
    """Normalized area under Pmiss over the false-alarm range [0, limit].

    Step-function integration of the best Pmiss among sweep points within
    each false-alarm level, extended by its last value up to the limit.
    """
    if limit <= 0:
        raise ValueError("naudc limit must be positive")
    events = sorted((p.tfa, p.pmiss) for p in curve.points)
    area = 0.0
    x = 0.0
    best = 1.0
    for tfa, pmiss in events:
        if tfa > limit:
            break
        if tfa > x:
            area += (tfa - x) * best
            x = tfa
        best = min(best, pmiss)
    area += (limit - x) * best
    return area / limit


@dataclass(frozen=True)
class Map3dResult:
    ap: Dict[float, Dict[str, float]]
    map_at: Dict[float, float]
    mean: float


def _average_precision(tp_flags: Sequence[bool], n_gt: int) -> float:
    tp = 0
    recall = []
    precision = []
    for rank, flag in enumerate(tp_flags, start=1):
        tp += int(flag)
        recall.append(tp / n_gt)
        precision.append(tp / rank)
    mrec = [0.0] + recall + [1.0]
    mpre = [0.0] + precision + [0.0]
    for k in range(len(mpre) - 2, -1, -1):
        mpre[k] = max(mpre[k], mpre[k + 1])
    return sum((mrec[k] - mrec[k - 1]) * mpre[k]
               for k in range(1, len(mrec)) if mrec[k] != mrec[k - 1])


def _tube_ious(preds: Sequence[ActivityInstance],
               gts: Sequence[ActivityAnnotation]) -> np.ndarray:
    """(preds, GTs) frame-summed tube IoUs, in blocks of at most
    :data:`IOU_BLOCK_ELEMENTS` (or one pair) on the joint window. An absent
    frame is an all-zero row: it overlaps nothing and adds 0.0 to both sums,
    which ``cumsum`` takes one frame at a time, as over the sorted frames.
    """
    lo = min(r.t0 for r in (*preds, *gts))
    span = max(r.t1 for r in (*preds, *gts)) - lo

    def lay(tubes) -> np.ndarray:
        rows = np.zeros((len(tubes), span, 4))
        for i, (frames, boxes) in enumerate(tubes):
            rows[i, frames - lo] = boxes
        return rows

    g_step = min(len(gts), max(1, IOU_BLOCK_ELEMENTS // (span * 4)))
    p_step = max(1, IOU_BLOCK_ELEMENTS // (span * 4 * g_step))
    out = np.empty((len(preds), len(gts)))
    for g in range(0, len(gts), g_step):
        b = lay([r.frame_boxes() for r in gts[g:g + g_step]])[None]
        for p in range(0, len(preds), p_step):
            a = lay([r.frame_boxes() for r in preds[p:p + p_step]])[:, None]
            inter = box_intersections(a, b)
            union = box_areas(a) + box_areas(b) - inter
            out[p:p + p_step, g:g + g_step] = (np.cumsum(inter, axis=-1)[..., -1]
                                               / np.cumsum(union, axis=-1)[..., -1])
    return out


def map_3diou(predictions: Sequence[ActivityInstance],
              annotations: Sequence[ActivityAnnotation],
              thresholds: Sequence[float] = (0.1, 0.2, 0.5)) -> Map3dResult:
    """AP per class and tube-IoU threshold under exact bipartite matching.

    Predictions are taken in descending score order; each greedily claims
    the unmatched ground truth of highest tube IoU (the first on ties) when
    that IoU clears the threshold, otherwise it is a false positive
    (duplicates included).
    """
    gt_classes = sorted({a.activity_class for a in annotations})
    ap: Dict[float, Dict[str, float]] = {t: {} for t in thresholds}
    for activity_class in gt_classes:
        gts = [a for a in annotations if a.activity_class == activity_class]
        preds = sorted(
            (p for p in predictions if p.activity_class == activity_class),
            key=lambda p: (-p.score, p.video_id, p.t0, p.t1),
        )
        # a prediction claims only GTs of its own video, so each (class,
        # video) matches on its own IoU block; hits keep the score order
        p_of: Dict[str, List[int]] = {}
        for i, pred in enumerate(preds):
            p_of.setdefault(pred.video_id, []).append(i)
        gts_of: Dict[str, List[ActivityAnnotation]] = {}
        for gt in gts:
            gts_of.setdefault(gt.video_id, []).append(gt)
        hits = np.zeros((len(thresholds), len(preds)), dtype=bool)
        for video_id in p_of.keys() & gts_of.keys():
            p_idx, video_gts = p_of[video_id], gts_of[video_id]
            ious = _tube_ious([preds[i] for i in p_idx], video_gts)
            for t, threshold in enumerate(thresholds):
                free = np.ones(len(video_gts))
                for i, row in zip(p_idx, ious):
                    best = row * free
                    g = int(best.argmax())
                    hits[t, i] = 0.0 < best[g] >= threshold
                    if hits[t, i]:
                        free[g] = 0.0
        for t, threshold in enumerate(thresholds):
            ap[threshold][activity_class] = _average_precision(hits[t], len(gts))
    map_at = {t: (sum(ap[t].values()) / len(gt_classes) if gt_classes else 0.0)
              for t in thresholds}
    mean = sum(map_at.values()) / len(map_at) if map_at else 0.0
    return Map3dResult(ap=ap, map_at=map_at, mean=mean)


def _classes_for(annotations: Sequence[ActivityAnnotation],
                 config: PipelineConfig) -> Tuple[str, ...]:
    if config.activity_classes:
        return config.activity_classes
    return tuple(sorted({a.activity_class for a in annotations}))


def _mean_naudc(curves: Mapping[str, DetCurve], limit: float) -> float:
    """Mean nAUDC over the curves with references; 1.0 when none has one."""
    values = [naudc(c, limit) for c in curves.values() if not c.no_reference]
    return sum(values) / len(values) if values else 1.0


def oracle_lower_bound(annotations: Sequence[ActivityAnnotation],
                       config: PipelineConfig,
                       video_lengths: Mapping[str, int]) -> float:
    """Mean nAUDC with ground-truth cubes as proposals and perfect scores.

    The coverage error this leaves is systematic to the proposal format
    (duration/stride), which is what the bound protocol measures.
    """
    classes = _classes_for(annotations, config)
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    scored = oracle_scores(gt_cubes, classes)
    instances = deduplicate(scored, config.with_classes(activity_classes=classes))
    return _mean_naudc(det_curve(instances, annotations, video_lengths,
                                 config.temporal_overlap_frames, classes),
                       config.naudc_limit)


def proposal_quality(proposals: Sequence[Cube],
                     annotations: Sequence[ActivityAnnotation],
                     config: PipelineConfig,
                     video_lengths: Mapping[str, int]) -> dict:
    """Oracle-scored nAUDC of proposal subsets at IoU / coverage levels.

    Each proposal carries its best spatial IoU and reference coverage
    against ground-truth cubes in the same temporal window; subsets keep
    proposals at or above each of :data:`QUALITY_LEVELS`. The per-metric
    "average" aggregates the level results.

    Each ``levels`` dict is keyed by the float levels themselves, in the
    order of :data:`QUALITY_LEVELS`; after ``write_records`` the JSON keys
    are ``str(level)``, for example ``"0.0"``.

    The proposals (a :class:`~actpipe.records.CubeTable` or cubes) are
    oracle-scored once, and one call of the dedup body,
    :func:`~actpipe.dedup.deduplicate_subsets`, serves all 20 level subsets
    in one array pass over their distinct partitions.
    """
    classes = _classes_for(annotations, config)
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    best_iou = np.zeros(len(proposals))
    best_cov = np.zeros(len(proposals))
    for p_idx, _, iou, cov in same_window_blocks(proposals, gt_cubes):
        best_iou[p_idx] = np.maximum(best_iou[p_idx], iou.max(axis=1))
        best_cov[p_idx] = np.maximum(best_cov[p_idx], cov.max(axis=1))
    subsets = [np.flatnonzero(values >= level).tolist()
               for values in (best_iou, best_cov) for level in QUALITY_LEVELS]
    level_instances = deduplicate_subsets(
        oracle_scores(proposals, classes), subsets,
        config.with_classes(activity_classes=classes))
    naudcs = [_mean_naudc(det_curve(instances, annotations, video_lengths,
                                    config.temporal_overlap_frames, classes),
                          config.naudc_limit)
              for instances in level_instances]
    report = {"n_proposals": len(proposals)}
    for i, metric in enumerate(("iou", "coverage")):
        levels = dict(zip(QUALITY_LEVELS, naudcs[i * len(QUALITY_LEVELS):]))
        report[metric] = {"average": sum(levels.values()) / len(levels),
                          "levels": levels}
    return report


def evaluation_report(predictions: Sequence[ActivityInstance],
                      annotations: Sequence[ActivityAnnotation],
                      config: PipelineConfig,
                      video_lengths: Mapping[str, int],
                      strict: bool = False) -> Tuple[Dict[str, DetCurve], dict]:
    """DET curves plus a summary dict (per-class nAUDC, Pmiss budgets, mAP).

    The loosened matching here is a simplification of the full evaluation
    protocol: one temporal-overlap tolerance, no weighting.
    """
    curves = det_curve(predictions, annotations, video_lengths,
                       config.temporal_overlap_frames,
                       config.activity_classes or None)
    per_class = {}
    for name, curve in curves.items():
        if curve.no_reference:
            per_class[name] = {"no_reference": True}
            continue
        entry = {"naudc": naudc(curve, config.naudc_limit)}
        for budget in config.pmiss_budgets:
            entry[f"pmiss@{budget}"] = pmiss_at_tfa(curve, budget)
        per_class[name] = entry

    referenced = [c for c in curves.values() if not c.no_reference]
    summary = {
        "classes": per_class,
        "mean_naudc": _mean_naudc(curves, config.naudc_limit),
        "matching": {
            "min_temporal_overlap": config.temporal_overlap_frames,
            "note": "simplified loosened matching: fixed temporal-overlap "
                    "tolerance, unweighted",
        },
    }
    for budget in config.pmiss_budgets:
        summary[f"mean_pmiss@{budget}"] = (
            sum(pmiss_at_tfa(c, budget) for c in referenced) / len(referenced)
            if referenced else 1.0
        )
    if strict:
        result = map_3diou(predictions, annotations, config.map_iou_thresholds)
        summary["map_3d_iou"] = {
            "ap": {str(t): result.ap[t] for t in result.ap},
            "map": {str(t): result.map_at[t] for t in result.map_at},
            "mean": result.mean,
        }
    return curves, summary
