"""Baseline greedy IoU tracker for detections without track ids.

Per video, frames run in order. Each frame's detections meet the live
tracks' last boxes in one (detections x live tracks) IoU block from the
geometry kernel; pairs under the gate or across classes drop out, and the
rest are taken greedily, best IoU first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from .geometry import box_ious, box_rows
from .records import DetectionRecord

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


def _track_one_video(detections: List[DetectionRecord], max_gap: int
                     ) -> List[DetectionRecord]:
    n = len(detections)
    rows = box_rows(d.bbox for d in detections)
    frames = np.array([d.frame for d in detections], dtype=np.int64)
    _, classes = np.unique([d.object_class for d in detections],
                           return_inverse=True)
    # by frame, then confidence rank: ties by x0, y0 and input order
    ranked = np.lexsort((rows[:, 2], rows[:, 0],
                         -np.array([d.confidence for d in detections]), frames))
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
    ids = (track_of + 1).tolist()
    return [DetectionRecord(d.video_id, d.frame, d.object_class, d.bbox,
                            d.confidence, ids[i])
            for i, d in sorted(enumerate(detections), key=lambda x: x[1].frame)]


def greedy_iou_track(detections: Iterable[DetectionRecord],
                     max_gap: int) -> List[DetectionRecord]:
    """Assign track ids per video by greedy same-class IoU matching.

    Per frame, detections match live tracks in descending IoU order; pairs
    below :data:`IOU_GATE` start new tracks; tracks unseen for more than
    ``max_gap`` frames (``s_det`` in the pipeline) are closed. Ids are
    dense positive integers per video. Existing ids on the input are
    ignored and reassigned.
    """
    by_video: Dict[str, List[DetectionRecord]] = {}
    order: List[str] = []
    for det in detections:
        if det.video_id not in by_video:
            by_video[det.video_id] = []
            order.append(det.video_id)
        by_video[det.video_id].append(det)
    out: List[DetectionRecord] = []
    for video_id in order:
        out.extend(_track_one_video(by_video[video_id], max_gap))
    return out


def tracks_from_records(detections: Iterable[DetectionRecord]
                        ) -> Dict[str, List[Track]]:
    """Group detections carrying track ids into per-video Track lists.

    A track id spanning two object classes, or with two boxes on one frame,
    is an error.
    """
    # per video: track id -> object class, then flat id, frame and box columns
    per_video: Dict[str, tuple] = {}
    for det in detections:
        if det.track_id is None:
            raise ValueError(
                f"detection at {det.video_id}:{det.frame} has no track id; "
                "run the tracker first"
            )
        entry = per_video.get(det.video_id)
        if entry is None:
            entry = per_video[det.video_id] = ({}, [], [], [])
        classes, ids, frames, boxes = entry
        object_class = classes.setdefault(det.track_id, det.object_class)
        if object_class != det.object_class:
            raise ValueError(
                f"track {det.track_id} in video {det.video_id!r} spans classes "
                f"{object_class!r} and {det.object_class!r}"
            )
        ids.append(det.track_id)
        frames.append(det.frame)
        boxes.append(det.bbox)

    out: Dict[str, List[Track]] = {}
    for video_id, (classes, ids, frames, boxes) in per_video.items():
        # one sort by (track id, frame) for every track of the video
        ids, frames = np.array(ids, dtype=np.int64), np.array(frames, dtype=np.int64)
        order = np.lexsort((frames, ids))
        ids, frames = ids[order], frames[order]
        boxes = box_rows(boxes)[order]
        new_id = np.diff(ids) != 0
        repeated = np.flatnonzero(~new_id & (np.diff(frames) == 0))
        if repeated.size:
            k = repeated[0]
            raise ValueError(f"track {ids[k]} in video {video_id!r} has two "
                             f"boxes on frame {frames[k]}")
        starts = np.flatnonzero(np.r_[True, new_id]).tolist()
        out[video_id] = [
            Track(tid, classes[tid], frames[a:b], boxes[a:b]) for tid, a, b
            in zip(ids[starts].tolist(), starts, starts[1:] + [len(ids)])]
    return out

