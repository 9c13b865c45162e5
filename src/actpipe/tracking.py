"""Baseline greedy IoU tracker for detections without track ids.

Per video, frames run in order. Each frame's detections meet the live
tracks' last boxes in one (detections x live tracks) IoU block from the
geometry kernel; pairs under the gate or across classes drop out, and the
rest are taken greedily, best IoU first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List

import numpy as np

from .geometry import box_ious
from .records import DetectionBatch, Detections

__all__ = ["Track", "greedy_iou_track", "tracks_from_records"]

IOU_GATE = 0.3


@dataclass(eq=False)
class Track:
    """Per-frame boxes of one tracked object; all boxes share one class.
    ``frames`` is sorted int64, ``boxes`` the matching (N, 4) float64 rows."""

    track_id: int
    object_class: str
    frames: np.ndarray
    boxes: np.ndarray


def _track_one_video(batch: DetectionBatch, max_gap: int) -> DetectionBatch:
    n, rows, frames = len(batch.frames), batch.boxes, batch.frames
    _, classes = np.unique(batch.classes, return_inverse=True)
    # by frame, then confidence rank: ties by x0, y0 and input order
    ranked = np.lexsort((rows[:, 2], rows[:, 0], -batch.confidences, frames))
    starts = np.flatnonzero(np.r_[True, np.diff(frames[ranked]) != 0]).tolist()

    # per track, at its id - 1: class, last frame and last box
    track_class = np.empty(n, dtype=np.int64)
    last_frame = np.empty(n, dtype=np.int64)
    last_box = np.empty((n, 4))
    track_of = np.empty(n, dtype=np.int64)
    live = np.empty(0, dtype=np.int64)
    opened = 0
    for a, b in zip(starts, starts[1:] + [n]):
        dets = ranked[a:b]  # position in the block is the confidence rank
        frame = frames[dets[0]]
        live = live[frame - last_frame[live] <= max_gap]
        iou = box_ious(rows[dets, None], last_box[live])
        rank, col = np.nonzero((iou >= IOU_GATE)
                               & (classes[dets, None] == track_class[live]))
        matched = [-1] * len(dets)
        used = set()
        # greedy over the gated pairs by (-IoU, rank, track id)
        order = np.lexsort((live[col], rank, -iou[rank, col]))
        for r, t in zip(rank[order].tolist(), live[col[order]].tolist()):
            if matched[r] < 0 and t not in used:
                matched[r] = t
                used.add(t)
        matched = np.array(matched, dtype=np.int64)
        track_of[dets] = matched
        # unmatched detections open tracks in input order
        fresh = np.sort(dets[matched < 0])
        track_of[fresh] = np.arange(opened, opened + len(fresh))
        opened += len(fresh)
        live = np.concatenate((live, track_of[fresh]))
        moved = track_of[dets]
        track_class[moved], last_frame[moved], last_box[moved] = \
            classes[dets], frame, rows[dets]
    return replace(batch, track_ids=track_of + 1)


def greedy_iou_track(detections: Iterable, max_gap: int) -> Detections:
    """Assign track ids per video by greedy same-class IoU matching.

    Per frame, detections match live tracks in descending IoU order; pairs
    below :data:`IOU_GATE` start new tracks; tracks unseen for more than
    ``max_gap`` frames (``s_det`` in the pipeline) are closed. Ids are
    dense positive integers per video. Existing ids on the input are
    ignored and reassigned. Takes and gives :class:`Detections` (records
    are grouped as :meth:`Detections.from_records` does); rows keep order.
    """
    detections = Detections.from_records(detections)
    return Detections([_track_one_video(b, max_gap) for b in detections.videos],
                      detections.source)


def tracks_from_records(detections: Iterable) -> Dict[str, List[Track]]:
    """Group detections carrying track ids into per-video Track lists.

    A detection without a track id, a track id spanning two object classes,
    or one with two boxes on one frame is an error naming its line.
    """
    detections = Detections.from_records(detections)
    out: Dict[str, List[Track]] = {}
    for b in detections.videos:
        missing = np.flatnonzero(b.track_ids < 0)
        if missing.size:
            k = missing[0]
            raise ValueError(f"{detections.source}:{b.lines[k]}: detection at "
                             f"{b.video_id}:{b.frames[k]} has no track id; "
                             "run the tracker first")
        names, classes = np.unique(b.classes, return_inverse=True)
        names = names.tolist()
        # one sort by (track id, frame) for every track of the video; each
        # track's rows keep file order, so its first class change is the
        # first row off its class
        order = np.lexsort((b.frames, b.track_ids))
        ids, frames, classes = b.track_ids[order], b.frames[order], classes[order]
        same_id = np.diff(ids) == 0
        changed = np.flatnonzero(same_id & (np.diff(classes) != 0)) + 1
        if changed.size:
            k = changed[np.argmin(order[changed])]
            raise ValueError(f"{detections.source}:{b.lines[order[k]]}: track {ids[k]} "
                             f"in video {b.video_id!r} spans classes "
                             f"{names[classes[k - 1]]!r} and {names[classes[k]]!r}")
        repeated = np.flatnonzero(same_id & (np.diff(frames) == 0)) + 1
        if repeated.size:
            k = repeated[0]
            raise ValueError(f"{detections.source}:{b.lines[order[k]]}: track {ids[k]} "
                             f"in video {b.video_id!r} has two boxes on frame {frames[k]}")
        starts = np.flatnonzero(np.r_[True, ~same_id])
        boxes, bounds = b.boxes[order], [*starts.tolist(), len(ids)]
        out[b.video_id] = [
            Track(tid, names[classes[a]], frames[a:e], boxes[a:e]) for tid, a, e
            in zip(ids[starts].tolist(), bounds, bounds[1:])]
    return out
