"""Deduplication of overlapping scored cubes into non-overlapping instances.

Overlapping proposals would flood the output with duplicate predictions.
Per activity class and seed track, the three-step procedure:

1. split the overlapping duration-D cubes into duration-S segments, each
   scoring the mean of its covering cubes and boxed by their intersection
   (a cube covers every grid segment fully inside it, so end-anchored
   windows off the grid fold onto the grid);
2. merge the segments back into D/S candidate groups of duration-D cubes
   (one group per grid phase), each merged cube averaging its segments and
   taking the union of their boxes;
3. select the group holding the globally maximal score.

:func:`split_segments`, :func:`merge_groups` and :func:`select_group` state
the steps for one partition and class; composed, they are the tests'
reference, and no stage calls them. :func:`deduplicate_subsets`, the one body
of the dedup stage and the proposal-quality subsets, runs them as one array
pass over every distinct partition of a call, all classes at once, with the
reference's output bit for bit: sums run left to right from 0, as ``sum``
adds; box coordinates are selected (the first extreme in fold order, or the
first nearest cube), never computed, and read as given, so 3 stays 3.

A partition scoring 0 on every class is dropped first. That is exact:
scores lie in [0, 1], every segment or merged score is a mean of member
scores, so all of them are 0, and only instances scoring above 0 are
emitted. A partition of pairwise non-overlapping cubes passes them through.

Every group blends information from all overlapping classifications, so the
winner keeps the evidence of the whole run. Adjacent high-confidence
instances are merged afterwards for the strict setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .geometry import BBox, bbox_intersection, bbox_union, box_ious
from .records import ActivityInstance, CubeTable, ScoredCube

__all__ = ["SegmentCube", "split_segments", "merge_groups", "select_group",
           "deduplicate", "deduplicate_subsets", "merge_adjacent"]

CHAIN_IOU = 0.5


@dataclass(frozen=True)
class SegmentCube:
    """A single-class scored cube of the dedup specification functions."""

    t0: int
    t1: int
    score: float
    bbox: BBox

    def __post_init__(self):
        if self.t0 >= self.t1:
            raise ValueError(f"bad segment window [{self.t0}, {self.t1})")


def _runs(items: Sequence, period: int = 0, phase: int = 0) -> Iterator[list]:
    """The maximal runs of ``items`` (sorted by time, none overlapping) in
    which each item begins where the one before it ends. A gap begins a new
    run, and so does, given a ``period``, an item whose ``t0`` is ``phase``
    modulo it."""
    run: list = []
    for item in items:
        if run and (item.t0 != run[-1].t1 or period and (item.t0 - phase) % period == 0):
            yield run
            run = []
        run.append(item)
    if run:
        yield run


def _union(run: Sequence) -> BBox:
    """The union of a run's boxes, folded from left to right."""
    bbox = run[0].bbox
    for item in run[1:]:
        bbox = bbox_union(bbox, item.bbox)
    return bbox


def split_segments(cubes: Sequence[SegmentCube], d_prop: int,
                   s_prop: int) -> List[SegmentCube]:
    """Split overlapping cubes into duration-``s_prop`` segment cubes.

    A cube covers every grid segment fully inside it, so an end-anchored
    window off the grid folds onto its contained segments. Each covered
    segment scores the arithmetic mean of its covering cubes and takes the
    intersection of their boxes; an empty intersection falls back to the
    temporally nearest cube's box.
    """
    if d_prop % s_prop != 0:
        raise ValueError(f"d_prop={d_prop} not divisible by s_prop={s_prop}")
    covering: Dict[int, List[SegmentCube]] = {}
    for cube in cubes:
        for seg in range(-(-cube.t0 // s_prop), cube.t1 // s_prop):
            covering.setdefault(seg, []).append(cube)

    out = []
    for seg in sorted(covering):
        group = covering[seg]
        score = sum(c.score for c in group) / len(group)
        bbox = group[0].bbox
        for cube in group[1:]:
            if bbox is None:
                break
            bbox = bbox_intersection(bbox, cube.bbox)
        if bbox is None:
            center = (seg + 0.5) * s_prop
            nearest = min(group,
                          key=lambda c: (abs((c.t0 + c.t1) / 2 - center), c.t0))
            bbox = nearest.bbox
        out.append(SegmentCube(seg * s_prop, (seg + 1) * s_prop, score, bbox))
    return out


def merge_groups(segments: Sequence[SegmentCube], d_prop: int,
                 s_prop: int) -> List[List[SegmentCube]]:
    """Re-merge segment cubes into D/S groups of non-overlapping cubes.

    Group g tiles runs of D/S consecutive segments starting at segment
    index g. Partial runs merge the segments they have; runs broken by
    uncovered segments emit one cube per contiguous piece. Merged cubes
    average their segments' scores and union their boxes.
    """
    if d_prop % s_prop != 0:
        raise ValueError(f"d_prop={d_prop} not divisible by s_prop={s_prop}")
    r = d_prop // s_prop
    by_index: Dict[int, SegmentCube] = {}
    for seg in segments:
        if seg.t1 - seg.t0 != s_prop or seg.t0 % s_prop != 0:
            raise ValueError(
                f"segment [{seg.t0}, {seg.t1}) is not a stride-{s_prop} cell"
            )
        index = seg.t0 // s_prop
        if index in by_index:
            raise ValueError(f"duplicate segment at index {index}")
        by_index[index] = seg

    segments = [by_index[index] for index in sorted(by_index)]
    groups = []
    for g in range(r):
        runs = _runs([s for s in segments if s.t0 >= g * s_prop], d_prop, g * s_prop)
        groups.append([SegmentCube(run[0].t0, run[-1].t1,
                                   sum(s.score for s in run) / len(run), _union(run))
                       for run in runs])
    return groups


def select_group(groups: Sequence[Sequence[SegmentCube]]) -> List[SegmentCube]:
    """The group containing the globally maximal score; ties pick the
    lowest group offset."""
    if not groups:
        raise ValueError("no groups to select from")
    best = max((cube.score for group in groups for cube in group), default=None)
    if best is None:
        return []
    for group in groups:
        if any(cube.score == best for cube in group):
            return list(group)
    raise AssertionError("unreachable")


def _chain_partitions(table: CubeTable, rows: List[int]) -> Dict[int, List[int]]:
    """Spatial IoU chains of the table's seedless ``rows``, under negative
    ids so they never collide with tracker output."""
    partitions: Dict[int, List[int]] = {}
    rows = np.array(rows, dtype=np.intp)
    boxes = table.boxes[rows]
    order = np.lexsort((rows, boxes[:, 2], boxes[:, 0], [table.t0[i] for i in rows]))
    last_boxes = np.empty_like(boxes)  # the first n rows are the chains' last boxes
    n = 0
    for i, row in zip(rows[order].tolist(), boxes[order]):
        # the first chain whose last box overlaps enough, else a new one
        hits = np.flatnonzero(box_ious(row, last_boxes[:n]) >= CHAIN_IOU)
        c = int(hits[0]) if hits.size else n
        n = max(n, c + 1)
        last_boxes[c] = row
        partitions.setdefault(-(c + 1), []).append(i)
    return partitions


def _iter_partitions(table: CubeTable, ids: Iterable[int]
                     ) -> Iterator[Tuple[str, int, Tuple[int, ...]]]:
    """(video, partition id, member rows) per partition of the table's rows
    at ascending ``ids``, both ids in sorted order; seedless cubes go to
    negative-id spatial chains."""
    by_video: Dict[str, List[int]] = {}
    for i in ids:
        by_video.setdefault(table.video_ids[i], []).append(i)
    seeds = table.seed_tracks
    for video_id in sorted(by_video):
        tracked: Dict[int, List[int]] = {}
        for i in by_video[video_id]:
            tracked.setdefault(seeds[i], []).append(i)
        seedless = tracked.pop(None, None)
        if seedless:
            tracked.update(_chain_partitions(table, seedless))
        for partition_id in sorted(tracked):
            yield video_id, partition_id, tuple(tracked[partition_id])


def _layout(code: np.ndarray, k: np.ndarray, step: int, cut=False) -> tuple:
    """Groups of rows sorted by (code, k), begun by a code change, a ``k`` off
    the previous plus ``step`` or a ``cut``: first rows, counts, padded rows."""
    begins = np.ones(len(k), bool)
    begins[1:] = (code[1:] != code[:-1]) | (k[1:] != k[:-1] + step)
    starts = np.flatnonzero(begins | cut)
    counts = np.diff(np.append(starts, len(k)))
    rows = starts[:, None] + np.arange(counts.max())
    return starts, counts, np.where(rows < (starts + counts)[:, None], rows, len(k))


def _cells(values: np.ndarray, layout: tuple, pad: float) -> np.ndarray:
    """``values`` rows by position in group, then group; ``pad`` past its end."""
    padded = np.append(values, np.full((1, *values.shape[1:]), pad), axis=0)
    return padded[layout[2]].swapaxes(0, 1)


def _means(values: np.ndarray, layout: tuple) -> np.ndarray:
    """Per group, its ``values`` rows added by ``sum``, from 0 and left to right
    as the reference adds (a pad's 0.0 changes no score sum), over their count."""
    return sum(_cells(values, layout, 0.0)) / layout[1][:, None]


def _maxima(values: np.ndarray, layout: tuple) -> tuple:
    """Per group and column, the maximum of ``values`` and the first row
    holding it, as a left fold of ``max`` keeps it."""
    cells = _cells(values, layout, -np.inf)
    best, first = cells[0], np.zeros(cells.shape[1:], np.intp)
    for p in range(1, len(cells)):
        later = cells[p] > best
        best, first[later] = np.where(later, cells[p], best), p
    return best, layout[0][:, None] + first


def _dedup_partitions(table: CubeTable, parts: Sequence[Tuple[str, int, Tuple[int, ...]]],
                      config: PipelineConfig) -> List[List[ActivityInstance]]:
    """The instances of each of the distinct (video, partition id, member
    rows) ``parts``, from one pass over all of their rows and classes."""
    if not parts:
        return []
    s, r = config.s_prop, config.d_prop // config.s_prop
    code = np.repeat(np.arange(len(parts)), [len(part[2]) for part in parts])
    rows = np.fromiter(chain.from_iterable(part[2] for part in parts), np.intp, len(code))
    live = np.bincount(code, table.scores[rows].any(axis=1), len(parts))[code] > 0
    t0, t1 = np.array(table.t0)[rows], np.array(table.t1)[rows]
    order = np.lexsort((t1, t0, code, ~live))[:live.sum()]  # live rows by (code, t0, t1)
    code, rows, t0, t1 = code[order], rows[order], t0[order], t1[order]
    overlaps = code[1:][(code[1:] == code[:-1]) & (t1[:-1] > t0[1:])]
    through = np.bincount(overlaps, minlength=len(parts))[code] == 0
    # members of overlap-free partitions pass; emitted: (code, class, t0, t1, box rows)
    member, cls = np.nonzero(table.scores[rows[through]] > 0.0)
    source = rows[through][member]
    emitted = [(code[through][member], cls, t0[through][member], t1[through][member],
                np.repeat(source[:, None], 4, axis=1))]
    scores = table.scores[source, cls].tolist()

    # split: a member covers the grid segments ceil(t0 / S) <= k < t1 // S
    code, rows, t0, t1 = code[~through], rows[~through], t0[~through], t1[~through]
    first = -(-t0 // s)
    counts = np.maximum(t1 // s - first, 0)
    member = np.repeat(np.arange(len(rows)), counts)
    k = np.arange(len(member)) - np.repeat(np.cumsum(counts) - counts - first, counts)
    order = np.lexsort((k, code[member]))
    member, k = member[order], k[order]
    if len(k):
        split = _layout(code[member], k, 0)
        means = _means(table.scores[rows[member]], split)
        # the intersection (x1, y1 negated), else the nearest box, ties to lower t0
        fold, pick = _maxima(table.boxes[rows[member]] * [1, -1, 1, -1], split)
        near = _cells(np.abs((t0[member] + t1[member]) / 2 - (k + 0.5) * s), split, np.inf)
        near = np.where(near == near.min(axis=0), _cells(t0[member], split, 0), np.inf)
        empty = (fold[:, 0] >= -fold[:, 1]) | (fold[:, 2] >= -fold[:, 3])
        pick[empty] = (split[0] + near.argmin(axis=0))[empty, None]
        source, code, k = rows[member][pick], code[member][split[0]], k[split[0]]
        boxes = table.boxes[source, np.arange(4)]

        # merge: phase g cuts runs at a partition change, a gap and (k - g) % r == 0
        runs = []
        for g in range(min(r, k.max() + 1)):
            at = np.flatnonzero(k >= g)
            merge = _layout(code[at], k[at], 1, (k[at] - g) % r == 0)
            pick = at[_maxima(boxes[at] * [-1, 1, -1, 1], merge)[1]]  # the union's rows
            run_k = k[at][merge[0]]
            runs.append((np.full(len(run_k), g), code[at][merge[0]], run_k * s,
                         (run_k + merge[1]) * s, source[pick, np.arange(4)],
                         _means(means[at], merge)))
        # select: per (partition, class), the first phase holding the maximum
        phase, run_code, *run, run_scores = map(np.concatenate, zip(*runs))
        best = np.full((r, len(parts), run_scores.shape[1]), -np.inf)
        np.maximum.at(best, (phase, run_code), run_scores)
        chosen = np.argmax(best == best.max(axis=0), axis=0)
        i, cls = np.nonzero((run_scores > 0.0) & (chosen[run_code] == phase[:, None]))
        emitted.append((run_code[i], cls, *(column[i] for column in run)))
        scores += run_scores[i, cls].tolist()

    # built in the reference's order: by partition, then class, then time
    code, cls, t0, t1, source = map(np.concatenate, zip(*emitted))
    order = np.lexsort((t0, cls, code))
    coords = (table.boxes[source[order], np.arange(4)].tolist() if table.coords is None else
              [[c[i] for c, i in zip(table.coords, row)] for row in source[order].tolist()])
    out: List[List[ActivityInstance]] = [[] for _ in parts]
    columns = (column[order].tolist() for column in (code, cls, t0, t1))
    for key, c, a, b, i, box in zip(*columns, order.tolist(), coords):
        out[key].append(ActivityInstance(parts[key][0], config.activity_classes[c], a, b,
                                         BBox(*box), scores[i], seed_track=parts[key][1]))
    return out


def _instance_order(a: ActivityInstance) -> tuple:
    """Sort key of dedup and merge-adjacent output."""
    return (a.video_id, a.activity_class, a.t0, a.t1, a.seed_track or 0)


def _check_scores(table: CubeTable, classes: Sequence[str]) -> None:
    """Raise unless classes are set and every cube scores each class."""
    if not classes:
        raise ValueError("activity_classes must be configured for dedup")
    width = 0 if table.scores is None else table.scores.shape[1]
    if len(table) and width != len(classes):
        raise ValueError(f"score vector of length {width} for {table.keys()[0]}, "
                         f"expected {len(classes)}")


def deduplicate_subsets(scored_cubes: Sequence[ScoredCube],
                        subsets: Iterable[Iterable[int]],
                        config: PipelineConfig) -> List[List[ActivityInstance]]:
    """:func:`deduplicate` of each subset of ascending indices into
    ``scored_cubes`` (a scored :class:`CubeTable` or ScoredCubes), from one
    array pass over the distinct partitions of all subsets. A partition
    recurring with the same members, keyed by (video, partition id, member
    indices), is deduplicated once: seedless chain ids can shift by subset."""
    table = CubeTable.from_records(scored_cubes)
    _check_scores(table, config.activity_classes)
    index: Dict[tuple, int] = {}
    keys = [[index.setdefault(key, len(index)) for key in _iter_partitions(table, subset)]
            for subset in subsets]
    done = _dedup_partitions(table, list(index), config)
    return [sorted(chain.from_iterable(map(done.__getitem__, subset)), key=_instance_order)
            for subset in keys]


def deduplicate(scored_cubes: Sequence[ScoredCube],
                config: PipelineConfig) -> List[ActivityInstance]:
    """Run split/merge/select per (activity class, seed track) partition.

    Cubes without a track id are chained by spatial IoU instead and get
    negative partition ids. Partitions whose cubes are already pairwise
    non-overlapping have no duplicates to resolve and pass through
    unchanged, which makes deduplication idempotent. Only instances scoring
    above 0 are emitted.
    """
    return deduplicate_subsets(scored_cubes, [range(len(scored_cubes))],
                               config)[0]


def merge_adjacent(instances: Sequence[ActivityInstance], s_merg: float,
                   l_merg: int) -> List[ActivityInstance]:
    """Merge abutting high-confidence instances for the strict setting.

    Within each (video, class, track) partition, maximal runs of temporally
    abutting instances all scoring strictly above ``s_merg`` merge into one
    instance (window hull, box union, duration-weighted mean score, tube
    concatenated from the members). Merged instances no longer than
    ``l_merg`` are dropped, as is everything at or below the score bar.
    Overlapping input is an error.
    """
    partitions: Dict[tuple, List[ActivityInstance]] = {}
    for inst in instances:
        key = (inst.video_id, inst.activity_class, inst.seed_track)
        partitions.setdefault(key, []).append(inst)

    out: List[ActivityInstance] = []
    for key in sorted(partitions, key=lambda k: (k[0], k[1], k[2] or 0)):
        members = sorted(partitions[key], key=lambda a: a.t0)
        for prev, cur in zip(members, members[1:]):
            if cur.t0 < prev.t1:
                raise ValueError(
                    f"overlapping instances [{prev.t0}, {prev.t1}) and "
                    f"[{cur.t0}, {cur.t1}) in partition {key}"
                )
        high = [m for m in members if not m.score <= s_merg]  # NaN is not at the bar
        for run in _runs(high):
            t0, t1 = run[0].t0, run[-1].t1
            if t1 - t0 <= l_merg:
                continue
            weight = sum(m.t1 - m.t0 for m in run)
            score = sum(m.score * (m.t1 - m.t0) for m in run) / weight
            frames, boxes = zip(*(m.frame_boxes() for m in run))
            out.append(ActivityInstance(run[0].video_id, run[0].activity_class, t0, t1,
                                        _union(run), score, seed_track=run[0].seed_track,
                                        frames=np.concatenate(frames),
                                        boxes=np.concatenate(boxes)))
    out.sort(key=_instance_order)
    return out
