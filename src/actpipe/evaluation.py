"""Both evaluation protocols and proposal-quality reporting.

Loosened setting: per-class detection-error-tradeoff curves sweeping the
score threshold, reporting the probability of missing a ground-truth
instance against the time-based false-alarm rate (falsely flagged
non-activity frames over total non-activity frames), summarized as the
normalized area under the curve up to a false-alarm budget. Strict setting:
mean average precision with exact bipartite matching at 3D tube IoU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .dedup import deduplicate
from .geometry import Cube, tube_iou_3d
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
    "gt_cube_proposals",
    "oracle_lower_bound",
    "proposal_quality",
    "evaluation_report",
]

QUALITY_LEVELS = tuple(round(0.1 * i, 1) for i in range(10))


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
    for inst in predictions:
        if inst.video_id not in video_lengths:
            raise ValueError(f"no video length for predicted {inst.video_id!r}")
    for ann in annotations:
        if ann.video_id not in video_lengths:
            raise ValueError(f"no video length for annotated {ann.video_id!r}")


def det_curve(predictions: Sequence[ActivityInstance],
              annotations: Sequence[ActivityAnnotation],
              video_lengths: Mapping[str, int],
              min_temporal_overlap: int,
              classes: Optional[Sequence[str]] = None) -> Dict[str, DetCurve]:
    """Per-class DET sweep over the distinct prediction scores.

    At threshold t, a ground-truth instance counts as detected when some
    prediction of its class scoring >= t overlaps it temporally by at least
    ``min_temporal_overlap`` frames (multiple predictions may share one
    ground truth). False-alarm time counts predicted frames outside all
    ground-truth-positive frames of the class, over the corpus's total
    non-positive frames; an empty denominator reads as zero.
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

        positive = {
            video_id: np.zeros(length, dtype=bool)
            for video_id, length in video_lengths.items()
        }
        for gt in gts:
            positive[gt.video_id][gt.t0:gt.t1] = True
        total_neg = sum(int(length) - int(positive[v].sum())
                        for v, length in video_lengths.items())

        best_scores = []
        for gt in gts:
            best = None
            for pred in preds:
                if pred.video_id != gt.video_id:
                    continue
                overlap = min(pred.t1, gt.t1) - max(pred.t0, gt.t0)
                if overlap >= min_temporal_overlap:
                    if best is None or pred.score > best:
                        best = pred.score
            best_scores.append(best)

        coverage_count = {v: np.zeros(length, dtype=np.int32)
                          for v, length in video_lengths.items()}
        fa_frames = 0
        points = []
        preds_sorted = sorted(preds, key=lambda p: -p.score)
        i = 0
        for threshold in sorted({p.score for p in preds}, reverse=True):
            while i < len(preds_sorted) and preds_sorted[i].score >= threshold:
                pred = preds_sorted[i]
                cov = coverage_count[pred.video_id][pred.t0:pred.t1]
                pos = positive[pred.video_id][pred.t0:pred.t1]
                fa_frames += int(((cov == 0) & ~pos).sum())
                cov += 1
                i += 1
            misses = sum(1 for b in best_scores if b is None or b < threshold)
            tfa = fa_frames / total_neg if total_neg else 0.0
            points.append(DetPoint(threshold, tfa, misses / len(gts)))
        curves[activity_class] = DetCurve(activity_class, tuple(points), False)
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


def map_3diou(predictions: Sequence[ActivityInstance],
              annotations: Sequence[ActivityAnnotation],
              thresholds: Sequence[float] = (0.1, 0.2, 0.5)) -> Map3dResult:
    """AP per class and tube-IoU threshold under exact bipartite matching.

    Predictions are taken in descending score order; each greedily claims
    the unmatched ground truth of highest tube IoU when that IoU clears the
    threshold, otherwise it is a false positive (duplicates included).
    """
    gt_classes = sorted({a.activity_class for a in annotations})
    # per class: annotations and their per-frame tubes, built once
    by_class = {c: [a for a in annotations if a.activity_class == c]
                for c in gt_classes}
    tubes = {c: [g.tube_dict() for g in gts] for c, gts in by_class.items()}
    ap: Dict[float, Dict[str, float]] = {}
    map_at: Dict[float, float] = {}
    for threshold in thresholds:
        ap[threshold] = {}
        for activity_class in gt_classes:
            gts = by_class[activity_class]
            gt_tubes = tubes[activity_class]
            preds = sorted(
                (p for p in predictions if p.activity_class == activity_class),
                key=lambda p: (-p.score, p.video_id, p.t0, p.t1),
            )
            matched = [False] * len(gts)
            flags = []
            for pred in preds:
                tube = pred.tube_dict()
                best_iou, best_g = 0.0, -1
                for g, gt in enumerate(gts):
                    if matched[g] or gt.video_id != pred.video_id:
                        continue
                    iou = tube_iou_3d(tube, gt_tubes[g])
                    if iou > best_iou:
                        best_iou, best_g = iou, g
                if best_g >= 0 and best_iou >= threshold:
                    matched[best_g] = True
                    flags.append(True)
                else:
                    flags.append(False)
            ap[threshold][activity_class] = _average_precision(flags, len(gts))
        map_at[threshold] = (sum(ap[threshold].values()) / len(gt_classes)
                             if gt_classes else 0.0)
    mean = sum(map_at.values()) / len(map_at) if map_at else 0.0
    return Map3dResult(ap=ap, map_at=map_at, mean=mean)


def gt_cube_proposals(annotations: Sequence[ActivityAnnotation],
                      config: PipelineConfig) -> List[Cube]:
    """Ground-truth cubes dressed up as labeled proposals (bound protocol)."""
    cubes = []
    for annotation in annotations:
        for gt in gt_to_cubes(annotation, config.d_prop, config.s_prop):
            cubes.append(
                Cube(gt.video_id, gt.bbox, gt.t0, gt.t1, seed_track=None,
                     object_class="gt", labels=frozenset({gt.activity_class}))
            )
    return cubes


def _classes_for(annotations: Sequence[ActivityAnnotation],
                 config: PipelineConfig) -> Tuple[str, ...]:
    if config.activity_classes:
        return config.activity_classes
    return tuple(sorted({a.activity_class for a in annotations}))


def _mean_naudc(proposals: Sequence[Cube],
                annotations: Sequence[ActivityAnnotation],
                config: PipelineConfig,
                video_lengths: Mapping[str, int],
                classes: Sequence[str]) -> float:
    scored = oracle_scores(proposals, classes)
    instances = deduplicate(scored, config.with_classes(activity_classes=classes))
    curves = det_curve(instances, annotations, video_lengths,
                       config.temporal_overlap_frames, classes)
    values = [naudc(c, config.naudc_limit)
              for c in curves.values() if not c.no_reference]
    return sum(values) / len(values) if values else 1.0


def oracle_lower_bound(annotations: Sequence[ActivityAnnotation],
                       config: PipelineConfig,
                       video_lengths: Mapping[str, int]) -> float:
    """Mean nAUDC with ground-truth cubes as proposals and perfect scores.

    The coverage error this leaves is systematic to the proposal format
    (duration/stride), which is what the bound protocol measures.
    """
    proposals = gt_cube_proposals(annotations, config)
    return _mean_naudc(proposals, annotations, config, video_lengths,
                       _classes_for(annotations, config))


def proposal_quality(proposals: Sequence[Cube],
                     annotations: Sequence[ActivityAnnotation],
                     config: PipelineConfig,
                     video_lengths: Mapping[str, int],
                     levels: Sequence[float] = QUALITY_LEVELS) -> dict:
    """Oracle-scored nAUDC of proposal subsets at IoU / coverage levels.

    Each proposal carries its best spatial IoU and reference coverage
    against ground-truth cubes in the same temporal window; subsets keep
    proposals at or above each level. The per-metric "average" aggregates
    the level results.

    Each ``levels`` dict is keyed by the float levels themselves, in the
    order of ``levels``; after ``write_records`` the JSON keys are
    ``str(level)``, for example ``"0.0"``.
    """
    classes = _classes_for(annotations, config)
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    best_iou = np.zeros(len(proposals))
    best_cov = np.zeros(len(proposals))
    for p_idx, _, iou, cov in same_window_blocks(proposals, gt_cubes):
        best_iou[p_idx] = np.maximum(best_iou[p_idx], iou.max(axis=1))
        best_cov[p_idx] = np.maximum(best_cov[p_idx], cov.max(axis=1))

    def sweep(values: np.ndarray) -> Dict[float, float]:
        out = {}
        for level in levels:
            subset = [p for i, p in enumerate(proposals) if values[i] >= level]
            out[level] = _mean_naudc(subset, annotations, config,
                                     video_lengths, classes)
        return out

    iou_levels = sweep(best_iou)
    cov_levels = sweep(best_cov)
    return {
        "n_proposals": len(proposals),
        "iou": {
            "average": sum(iou_levels.values()) / len(iou_levels),
            "levels": iou_levels,
        },
        "coverage": {
            "average": sum(cov_levels.values()) / len(cov_levels),
            "levels": cov_levels,
        },
    }


def evaluation_report(predictions: Sequence[ActivityInstance],
                      annotations: Sequence[ActivityAnnotation],
                      config: PipelineConfig,
                      video_lengths: Mapping[str, int],
                      strict: bool = False) -> Tuple[Dict[str, DetCurve], dict]:
    """DET curves plus a summary dict (per-class nAUDC, Pmiss budgets, mAP).

    The loosened matching here is a simplification of the full evaluation
    protocol: one temporal-overlap tolerance, no weighting.
    """
    classes = (config.activity_classes
               or tuple(sorted({a.activity_class for a in annotations}
                               | {p.activity_class for p in predictions})))
    curves = det_curve(predictions, annotations, video_lengths,
                       config.temporal_overlap_frames, classes)
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
        "mean_naudc": (sum(naudc(c, config.naudc_limit) for c in referenced)
                       / len(referenced) if referenced else 1.0),
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
