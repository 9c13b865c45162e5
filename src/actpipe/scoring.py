"""Classifier boundary: oracle scores, external scores, fusion, and wBCE.

Neural classifiers live outside this artifact. This module provides the
exact scorer contract instead: a per-proposal confidence vector over the
configured activity classes, either synthesized from assigned labels
(perfect-classifier oracle), loaded from record files, or fused across
several score sets with per-class weights. Frame sampling and the weighted
binary-cross-entropy utilities used for classifier training live here too.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .geometry import Cube
from .records import ScoredCube, read_records

__all__ = [
    "WeightVectors",
    "sample_frames",
    "wbce_weights",
    "wbce_loss",
    "oracle_scores",
    "load_external_scores",
    "fuse_scores",
]

logger = logging.getLogger(__name__)

EPS = 1e-7


def sample_frames(t0: int, t1: int, t: int, mode: str = "center",
                  seed: Optional[int] = None) -> List[int]:
    """Pick one frame per segment after splitting [t0, t1) into t segments.

    ``center`` takes each segment's middle frame; ``random`` draws uniformly
    within each segment from the given seed. Output indices are strictly
    increasing.
    """
    if t < 1:
        raise ValueError(f"segment count {t} must be >= 1")
    length = t1 - t0
    if length < t:
        raise ValueError(f"window [{t0}, {t1}) shorter than {t} segments")
    if mode not in ("center", "random"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = random.Random(seed) if mode == "random" else None
    frames = []
    for s in range(t):
        start = t0 + (s * length) // t
        stop = t0 + ((s + 1) * length) // t
        if rng is None:
            frames.append((start + stop) // 2)
        else:
            frames.append(rng.randrange(start, stop))
    return frames


@dataclass(frozen=True)
class WeightVectors:
    """Activity-wise and positive-negative wBCE weights."""

    w_a: np.ndarray
    w_p: np.ndarray


def wbce_weights(label_matrix: np.ndarray,
                 class_names: Optional[Sequence[str]] = None,
                 lenient: bool = False) -> WeightVectors:
    """Class-balance weights from a binary instances-by-classes matrix.

    Per class c: the raw activity weight is 1 / (positive count), normalized
    so the weights sum to the class count; the positive-negative weight is
    the negatives-to-positives ratio. A class with no positives is an error
    (division by zero). An all-positive class has ratio 0; that silently
    zeroes its positive term, so it errors too unless ``lenient`` clamps the
    weight to 1.
    """
    y = np.asarray(label_matrix)
    if y.ndim != 2:
        raise ValueError("label matrix must be 2-D (instances x classes)")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("label matrix entries must be 0 or 1")
    y = y.astype(np.float64)
    n_inst, n_classes = y.shape

    def name(c: int) -> str:
        return class_names[c] if class_names else f"class {c}"

    positives = y.sum(axis=0)
    for c in np.flatnonzero(positives == 0):
        raise ValueError(f"{name(int(c))} has no positive instances")

    w_hat = 1.0 / positives
    w_a = n_classes * w_hat / w_hat.sum()
    w_p = (n_inst - positives) / positives
    for c in np.flatnonzero(w_p == 0):
        if lenient:
            w_p[c] = 1.0
        else:
            raise ValueError(
                f"{name(int(c))} is all-positive; its positive weight "
                "degenerates to 0 (pass lenient=True to clamp to 1)"
            )
    return WeightVectors(w_a=w_a, w_p=w_p)


def wbce_loss(scores: np.ndarray, label_matrix: np.ndarray,
              weights: WeightVectors) -> float:
    """Weighted binary cross entropy, averaged over instances and classes.

    Scores are clipped to [eps, 1 - eps]. Per entry the loss is
    w_a * (w_p * y * -log(p) + (1 - y) * -log(1 - p)).
    """
    p = np.asarray(scores, dtype=np.float64)
    y = np.asarray(label_matrix, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"scores shape {p.shape} != labels shape {y.shape}")
    if p.shape[1] != weights.w_a.shape[0]:
        raise ValueError("weight vectors do not match the class count")
    p = np.clip(p, EPS, 1.0 - EPS)
    term = weights.w_p * y * -np.log(p) + (1.0 - y) * -np.log(1.0 - p)
    return float(np.mean(weights.w_a * term))


def _class_index(activity_classes: Sequence[str]) -> Dict[str, int]:
    if not activity_classes:
        raise ValueError("activity_classes must be non-empty for scoring")
    index = {c: i for i, c in enumerate(activity_classes)}
    if len(index) != len(activity_classes):
        raise ValueError("duplicate activity classes")
    return index


def oracle_scores(cubes: Sequence[Cube],
                  activity_classes: Sequence[str]) -> List[ScoredCube]:
    """Perfect-classifier scores from assigned labels.

    Positive classes score 1.0, everything else 0.0; negative and
    unassigned cubes get all-zero vectors.
    """
    index = _class_index(activity_classes)
    out = []
    for cube in cubes:
        scores = [0.0] * len(activity_classes)
        for label in cube.labels or ():
            if label not in index:
                raise ValueError(f"label {label!r} not in activity_classes")
            scores[index[label]] = 1.0
        out.append(ScoredCube(cube, tuple(scores)))
    return out


def load_external_scores(path: Union[str, Path], proposals: Sequence[Cube],
                         activity_classes: Sequence[str]) -> List[ScoredCube]:
    """Join a scored-proposals file onto proposals by their cube keys.

    Keys are (video_id, t0, t1, seed_track). Every proposal must appear in
    the file, and only once; extra keys are ignored with a warning; score
    vectors must match the class count.
    """
    n = len(_class_index(activity_classes))
    table: Dict[tuple, ScoredCube] = {}
    for record in read_records(path, "scored-proposals"):
        if len(record.scores) != n:
            raise ValueError(
                f"score vector of length {len(record.scores)} for key "
                f"{record.key}, expected {n}"
            )
        if record.key in table:
            raise ValueError(f"{path}: duplicate score key {record.key}")
        table[record.key] = record

    out = []
    missing = []
    for cube in proposals:
        key = (cube.video_id, cube.t0, cube.t1, cube.seed_track)
        record = table.pop(key, None)
        if record is None:
            missing.append(key)
        else:
            out.append(ScoredCube(cube, record.scores))
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise ValueError(f"{len(missing)} proposals missing scores: {shown}")
    if table:
        logger.warning("ignoring %d extra score keys in %s", len(table), path)
    return out


def fuse_scores(score_sets: Sequence[Sequence[ScoredCube]],
                weights: Optional[np.ndarray] = None) -> List[ScoredCube]:
    """Action-wise late fusion of several score sets over identical proposals.

    ``weights`` is a (models x classes) matrix whose columns each sum to 1;
    omitted weights mean a uniform average. Output follows the first set's
    proposal order.
    """
    if not score_sets:
        raise ValueError("need at least one score set")
    first = list(score_sets[0])
    n_classes = len(first[0].scores) if first else 0
    m = len(score_sets)
    if weights is None:
        weights = np.full((m, n_classes), 1.0 / m)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m, n_classes):
        raise ValueError(
            f"weights shape {weights.shape} != (models={m}, classes={n_classes})"
        )
    sums = weights.sum(axis=0)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ValueError(f"per-class weights must sum to 1, got {sums}")

    tables = []
    base_keys = {sc.key for sc in first}
    for s, score_set in enumerate(score_sets):
        table = {sc.key: sc for sc in score_set}
        if set(table) != base_keys:
            raise ValueError(f"score set {s} covers different proposals")
        tables.append(table)

    out = []
    for sc in first:
        vectors = np.array([tables[s][sc.key].scores for s in range(m)])
        fused = (weights * vectors).sum(axis=0)
        out.append(ScoredCube(sc.cube, tuple(float(x) for x in fused)))
    return out
