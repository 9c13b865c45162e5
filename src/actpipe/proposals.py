"""Dense overlapping cube-proposal generation with track-seeded refinement.

Temporal windows of duration ``d_prop`` are sampled every ``s_prop`` frames
so that consecutive proposals overlap; the degenerate ``s_prop == d_prop``
case yields the non-overlapping format. Each window is seeded from the
tracks visible at its central frame and grows its box as the union of the
seed track's boxes across the window, then enlarges it by a fixed rate to
keep spatial context.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .config import PipelineConfig
from .geometry import box_enlarge, window_unions
from .records import CubeTable
from .tracking import Track

__all__ = [
    "sample_windows",
    "generate_video_proposals",
    "generate_proposals",
]

Window = Tuple[int, int]


def sample_windows(video_len: int, d_prop: int, s_prop: int) -> List[Window]:
    """Temporal windows [k*s_prop, k*s_prop + d_prop) covering the video.

    Videos shorter than ``d_prop`` get a single truncated window. When the
    regular stride does not reach the video end, one extra window anchored
    at the end keeps the tail covered.
    """
    if video_len <= 0:
        raise ValueError(f"video_len {video_len} must be positive")
    if video_len < d_prop:
        return [(0, video_len)]
    windows = []
    t0 = 0
    while t0 + d_prop <= video_len:
        windows.append((t0, t0 + d_prop))
        t0 += s_prop
    if windows[-1][1] < video_len:
        windows.append((video_len - d_prop, video_len))
    return windows


def _seed_pairs(windows: Sequence[Window], tracks: Sequence[Track],
                s_det: int) -> Tuple[np.ndarray, ...]:
    """Window index, track index and [lo, hi) slice into the concatenated
    track arrays of every seeding pair, by window, then track (windows
    ascend in t0 and t1, as :func:`sample_windows` gives them).

    Only windows overlapping a track's frame span are paired with it, and
    ``track * span + frame`` keys (frames are non-negative) let one
    ``np.searchsorted`` per window edge serve every pair.
    """
    bounds = np.array(windows, dtype=np.int64)
    lengths = np.array([len(t.frames) for t in tracks])
    frames = np.concatenate([t.frames for t in tracks])
    ends = np.cumsum(lengths)
    # windows [wa, wb) have t1 > the track's first frame and t0 <= its last
    wa = np.searchsorted(bounds[:, 1], frames[ends - lengths], side="right")
    wb = np.searchsorted(bounds[:, 0], frames[ends - 1], side="right")
    count = np.maximum(wb - wa, 0)
    k_idx = np.repeat(np.arange(len(tracks)), count)
    w_idx = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - wa, count)
    span = max(int(frames.max()), int(bounds.max())) + 1
    keys = np.repeat(np.arange(len(tracks)) * span, lengths) + frames
    t0, t1 = bounds[w_idx, 0], bounds[w_idx, 1]
    t_c = (t0 + t1) // 2
    lo, hi, mid = (np.searchsorted(keys, k_idx * span + t) for t in (t0, t1, t_c))
    tolerance = s_det / 2.0
    after = (mid < hi) & (frames[np.minimum(mid, len(frames) - 1)] - t_c <= tolerance)
    before = (mid > lo) & (t_c - frames[mid - 1] <= tolerance)
    seeds = np.flatnonzero(after | before)
    seeds = seeds[np.lexsort((k_idx[seeds], w_idx[seeds]))]
    return w_idx[seeds], k_idx[seeds], lo[seeds], hi[seeds]


def generate_video_proposals(video_id: str, tracks: Sequence[Track],
                             video_len: int, frame_size: Tuple[float, float],
                             config: PipelineConfig) -> CubeTable:
    """All cube proposals for one video, ordered by (t0, seed_track).

    A track seeds a window when it has an in-window box within ``s_det / 2``
    frames of its central frame (detections exist only every ``s_det``
    frames); the cube's box is the union of the track's in-window boxes.
    Boxes are stored already enlarged by ``r_enl`` so downstream stages see
    one canonical geometry. Tracks of classes outside ``object_classes`` are
    skipped when that list is non-empty.
    """
    allowed = set(config.object_classes)
    usable = sorted((t for t in tracks if not allowed or t.object_class in allowed),
                    key=lambda t: t.track_id)
    if not usable:
        return CubeTable.from_records(())
    windows = sample_windows(video_len, config.d_prop, config.s_prop)
    w_idx, k_idx, lo, hi = _seed_pairs(windows, usable, config.s_det)
    unions = window_unions(np.concatenate([t.boxes for t in usable]), lo, hi)
    seeds = [usable[k] for k in k_idx.tolist()]
    t0, t1 = zip(*[windows[w] for w in w_idx.tolist()]) if seeds else ((), ())
    return CubeTable([video_id] * len(seeds), list(t0), list(t1),
                     box_enlarge(unions, config.r_enl, frame_size), None,
                     [t.track_id for t in seeds], [t.object_class for t in seeds],
                     [None] * len(seeds), [None] * len(seeds))


def generate_proposals(tracks_by_video: Mapping[str, Sequence[Track]],
                       video_lengths: Mapping[str, int],
                       frame_sizes: Mapping[str, Tuple[float, float]],
                       config: PipelineConfig) -> CubeTable:
    """Corpus-level proposal generation, videos in sorted id order.

    Every video needs a length, and no track may end at or past it.
    """
    tables = []
    for video_id in sorted(tracks_by_video):
        if video_id not in video_lengths:
            raise ValueError(f"no video length for {video_id!r}")
        tracks, length = tracks_by_video[video_id], video_lengths[video_id]
        late = [t for t in tracks if t.frames[-1] >= length]
        if late:
            raise ValueError(
                f"track {late[0].track_id} of video {video_id!r} reaches frame "
                f"{int(late[0].frames[-1])}, past the video's length of {length}")
        tables.append(generate_video_proposals(video_id, tracks, length,
                                               frame_sizes[video_id], config))
    return CubeTable.concat(tables)
