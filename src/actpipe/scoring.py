"""Classifier boundary: oracle scores, external scores, fusion, and wBCE.

Neural classifiers live outside this artifact. This module provides the
exact scorer contract instead: a per-proposal confidence vector over the
configured activity classes, either synthesized from assigned labels
(perfect-classifier oracle), loaded from record files, or fused across
several score sets with per-class weights. The weighted binary-cross-entropy
utilities used for classifier training live here too.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .config import ConfigError
from .geometry import Cube
from .records import CubeTable, ScoredCube, _float, _list, read_proposals

__all__ = [
    "WeightVectors",
    "wbce_weights",
    "wbce_loss",
    "oracle_scores",
    "load_external_scores",
    "fuse_scores",
    "load_fuse_weights",
    "score_stage",
]

logger = logging.getLogger(__name__)

EPS = 1e-7


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
        raise ValueError("activity_classes must be configured for scoring")
    index = {c: i for i, c in enumerate(activity_classes)}
    if len(index) != len(activity_classes):
        raise ValueError("duplicate activity classes")
    return index


def oracle_scores(cubes: Sequence[Cube],
                  activity_classes: Sequence[str]) -> CubeTable:
    """Perfect-classifier scores from assigned labels, as a one-hot matrix.

    Positive classes score 1.0, everything else 0.0; negative and
    unassigned cubes get all-zero vectors.
    """
    index = _class_index(activity_classes)
    table = CubeTable.from_records(cubes)
    kinds: Dict[Optional[frozenset], int] = {}  # label set -> its one-hot row
    rows = [kinds.setdefault(found, len(kinds)) for found in table.labels]
    onehot = np.zeros((len(kinds), len(index)))
    for found, row in kinds.items():
        for label in found or ():
            if label not in index:
                raise ValueError(f"label {label!r} not in activity_classes")
            onehot[row, index[label]] = 1.0
    return table.with_scores(onehot[rows])


def load_external_scores(path: Union[str, Path], proposals: Sequence[Cube],
                         activity_classes: Sequence[str]) -> CubeTable:
    """Join a scored-proposals file onto proposals by their cube keys.

    Keys are (video_id, t0, t1, seed_track). Every proposal must appear in
    the file, and only once, and no two proposals may share a key; extra
    keys are ignored with a warning; score vectors must match the class
    count.
    """
    n = len(_class_index(activity_classes))
    scored = read_proposals(path, "scored-proposals")
    keys = scored.keys()
    if keys and scored.scores.shape[1] != n:
        raise ValueError(f"score vector of length {scored.scores.shape[1]} for key "
                         f"{keys[0]}, expected {n}")
    table: Dict[tuple, int] = {}
    for row, key in enumerate(keys):
        if key in table:
            raise ValueError(f"{path}: duplicate score key {key}")
        table[key] = row

    proposals = CubeTable.from_records(proposals)
    rows, missing, seen = [], [], set()
    for i, key in enumerate(proposals.keys()):
        if key in seen:
            where = f"{proposals.source}:{proposals.lines[i]}: " if proposals.lines else ""
            raise ValueError(f"{where}repeated proposal key {key}")
        seen.add(key)
        row = table.pop(key, None)
        if row is None:
            missing.append(key)
        rows.append(row)
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        raise ValueError(f"{len(missing)} proposals missing scores: {shown}")
    if table:
        logger.warning("ignoring %d extra score keys in %s", len(table), path)
    return proposals.with_scores(scored.scores[rows] if rows else np.zeros((0, n)))


def _sum_to_one(weights: np.ndarray) -> np.ndarray:
    """Per class, whether its column of (models x classes) weights sums to 1."""
    return np.isclose(weights.sum(axis=0), 1.0, atol=1e-9)


def fuse_scores(score_sets: Sequence[Sequence[ScoredCube]],
                weights: Optional[np.ndarray] = None) -> CubeTable:
    """Action-wise late fusion of several score sets over identical proposals,
    as one weighted sum over the stacked score matrices.

    Sets are fused by position, so they must hold the same cubes in the same
    order (as :func:`load_external_scores` returns them for one proposal
    list). ``weights`` is a (models x classes) matrix whose columns each sum
    to 1; omitted weights mean a uniform average.
    """
    if not score_sets:
        raise ValueError("need at least one score set")
    tables = [CubeTable.from_records(s) for s in score_sets]
    first = tables[0]
    n_classes = 0 if first.scores is None else first.scores.shape[1]
    m = len(tables)
    if weights is None:
        weights = np.full((m, n_classes), 1.0 / m)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (m, n_classes):
        raise ValueError(
            f"weights shape {weights.shape} != (models={m}, classes={n_classes})"
        )
    if not _sum_to_one(weights).all():
        raise ValueError(f"per-class weights must sum to 1, got {weights.sum(axis=0)}")

    cubes = attrgetter("video_ids", "t0", "t1", "seed_tracks", "object_classes",
                       "fg_scores", "labels")
    for s, table in enumerate(tables):
        if cubes(table) != cubes(first) or not np.array_equal(table.boxes, first.boxes):
            raise ValueError(f"score set {s} covers different proposals")
    if not len(first):
        return first
    stacked = np.stack([table.scores for table in tables])
    return first.with_scores((weights[:, None, :] * stacked).sum(axis=0))


def load_fuse_weights(path: Union[str, Path], activity_classes: Sequence[str],
                      n_models: int) -> np.ndarray:
    """The (models x classes) weights of a JSON object that maps each
    activity class, and no other key, to one finite weight per model; each
    class's weights sum to 1."""
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
        if type(table) is not dict or table.keys() != set(activity_classes):
            raise ValueError(f"expected an object with a weight list for each "
                             f"of {list(activity_classes)}, got {table!r}")
        rows = [[_float(w, f"weight of {c!r}")
                 for w in _list(table[c], f"weights of {c!r}")]
                for c in activity_classes]
        if any(len(row) != n_models for row in rows):
            raise ValueError(f"expected one weight per score file ({n_models}) "
                             f"for each class, got {table!r}")
        weights = np.array(list(zip(*rows))).reshape(n_models, len(rows))
        for c, row, ok in zip(activity_classes, rows, _sum_to_one(weights)):
            if not ok:
                raise ValueError(f"weights of {c!r} must sum to 1, got {row}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return weights


def score_stage(proposals: Sequence[Cube], activity_classes: Sequence[str],
                scores: Sequence[Union[str, Path]] = (),
                weights: Optional[np.ndarray] = None) -> CubeTable:
    """The score stage: oracle scores when ``scores`` is empty, else each
    external file joined onto the proposals, fused when there are several."""
    if not scores:
        return oracle_scores(proposals, activity_classes)
    sets = [load_external_scores(path, proposals, activity_classes)
            for path in scores]
    return sets[0] if len(sets) == 1 else fuse_scores(sets, weights)
