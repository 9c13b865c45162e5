"""Scene builders shared by the pipeline and acceptance tests, plus plain
per-``BBox`` reference versions of the array-backed proposal and labeling
steps for differential tests."""

import bisect
import random

from actpipe.geometry import BBox, Cube, bbox_enlarge, bbox_iou, bbox_union, \
    tube_arrays
from actpipe.labeling import SAME_WINDOW_TIOU, GtCube, LabelAssignment, \
    temporal_iou
from actpipe.proposals import sample_windows
from actpipe.synth import ActivitySpec, ObjectSpec, SceneSpec
from actpipe.tracking import Track


def drifting_object(x, y, size, dx, dy, video_len, cls="person",
                    foreground=True, width=640, height=480):
    x1 = min(max(x + dx, 0.0), width - size - 1)
    y1 = min(max(y + dy, 0.0), height - size - 1)
    return ObjectSpec(
        cls,
        ((0, BBox(x, x + size, y, y + size)),
         (video_len - 1, BBox(x1, x1 + size, y1, y1 + size))),
        foreground=foreground,
    )


def closure_scenes(video_len=192):
    """Noiseless closure corpus: one full-video activity plus one
    activity-free video supplying negative time."""
    active = SceneSpec(
        video_id="act00", video_len=video_len, width=640, height=480,
        objects=(drifting_object(100, 100, 48, 16, 8, video_len),),
        activities=(ActivitySpec(0, "walk", 0, video_len),),
    )
    background = SceneSpec(
        video_id="bg00", video_len=video_len, width=640, height=480,
        objects=(drifting_object(300, 200, 40, 60, 30, video_len),),
        activities=(),
    )
    return [active, background]


def misaligned_scenes(n_scenes=20, video_len=448, base_seed=100):
    """Seeded scenes whose activity windows avoid the coarse sampling grid.

    Instance starts are never multiples of 64 and durations never multiples
    of 64 (both at least 96 frames), so coarse non-overlapping cube formats
    cannot represent them.
    """
    classes = ("walking", "carrying", "riding")
    specs = []
    for s in range(n_scenes):
        rng = random.Random(base_seed + s)
        objects = []
        activities = []
        for j in range(rng.randint(1, 3)):
            t0 = rng.randint(1, 160)
            if t0 % 64 == 0:
                t0 += 1
            duration = rng.randint(96, 200)
            if duration % 64 == 0:
                duration += 1
            x = rng.uniform(20, 500)
            y = rng.uniform(20, 350)
            objects.append(
                drifting_object(x, y, rng.uniform(30, 60),
                                rng.uniform(-25, 25), rng.uniform(-15, 15),
                                video_len)
            )
            activities.append(
                ActivitySpec(j, classes[(s + j) % len(classes)],
                             t0, t0 + duration)
            )
        specs.append(
            SceneSpec(video_id=f"mis{s:02d}", video_len=video_len,
                      width=640, height=480, objects=tuple(objects),
                      activities=tuple(activities), seed=base_seed + s)
        )
    return specs


def sparse_foreground_scenes(n_scenes=4, video_len=384, base_seed=500):
    """Scenes dominated by motionless clutter the segmenter never marks.

    Two moving objects carry full-video activities; six static objects
    (parked) produce detections and proposals but zero foreground, so the
    filter can drop a large share of proposals without touching recall.
    """
    specs = []
    for s in range(n_scenes):
        rng = random.Random(base_seed + s)
        objects = []
        activities = []
        for j in range(2):
            x = rng.uniform(40, 400)
            y = rng.uniform(40, 300)
            objects.append(
                drifting_object(x, y, 48, rng.uniform(-20, 20),
                                rng.uniform(-10, 10), video_len)
            )
            activities.append(
                ActivitySpec(j, "walking" if j == 0 else "carrying",
                             0, video_len)
            )
        for j in range(6):
            x = rng.uniform(20, 560)
            y = rng.uniform(20, 410)
            objects.append(
                drifting_object(x, y, rng.uniform(30, 50), 0, 0, video_len,
                                foreground=False)
            )
        specs.append(
            SceneSpec(video_id=f"sparse{s:02d}", video_len=video_len,
                      width=640, height=480, objects=tuple(objects),
                      activities=tuple(activities), jitter_sigma=0.8,
                      seed=base_seed + s)
        )
    return specs


def make_track(track_id, object_class, boxes):
    """Track from a {frame: BBox} dict."""
    frames = sorted(boxes)
    rows = [(boxes[f].x0, boxes[f].x1, boxes[f].y0, boxes[f].y1) for f in frames]
    return Track(track_id, object_class, *tube_arrays(frames, rows))


def track_boxes(track):
    """A track's boxes as a {frame: BBox} dict."""
    return {f: BBox(*b) for f, b in zip(track.frames.tolist(), track.boxes.tolist())}


# ---------------------------------------------------------------------------
# per-BBox references: one box at a time, as before the array representation


def ref_central_seeds(window, tracks, s_det):
    t0, t1 = window
    t_c = (t0 + t1) // 2
    tolerance = s_det / 2.0
    seeds = []
    for track in tracks:
        near = min(
            (abs(f - t_c) for f in track_boxes(track) if t0 <= f < t1),
            default=None,
        )
        if near is not None and near <= tolerance:
            seeds.append(track)
    return seeds


def ref_refine_union(seed, window):
    t0, t1 = window
    boxes = [b for f, b in track_boxes(seed).items() if t0 <= f < t1]
    if not boxes:
        raise ValueError(f"track {seed.track_id} has no boxes in [{t0}, {t1})")
    out = boxes[0]
    for box in boxes[1:]:
        out = bbox_union(out, box)
    return out


def ref_generate_video_proposals(video_id, tracks, video_len, frame_size, config):
    allowed = set(config.object_classes)
    usable = [t for t in tracks if not allowed or t.object_class in allowed]
    cubes = []
    for t0, t1 in sample_windows(video_len, config.d_prop, config.s_prop):
        seeds = ref_central_seeds((t0, t1), usable, config.s_det)
        for seed in sorted(seeds, key=lambda t: t.track_id):
            bbox = bbox_enlarge(ref_refine_union(seed, (t0, t1)), config.r_enl,
                                frame_size)
            cubes.append(
                Cube(video_id=video_id, bbox=bbox, t0=t0, t1=t1,
                     seed_track=seed.track_id, object_class=seed.object_class)
            )
    cubes.sort(key=lambda c: (c.t0, c.seed_track))
    return cubes


def ref_gt_to_cubes(annotation, d_prop, s_prop):
    tube = annotation.tube
    frames = [f for f, _ in tube]
    cubes = []
    for w0, w1 in sample_windows(annotation.t1 - annotation.t0, d_prop, s_prop):
        t0, t1 = annotation.t0 + w0, annotation.t0 + w1
        lo = bisect.bisect_left(frames, t0)
        hi = bisect.bisect_left(frames, t1)
        boxes = [b for _, b in tube[lo:hi]]
        if not boxes:
            center = (t0 + t1) / 2.0
            _, nearest = min(tube, key=lambda fb: (abs(fb[0] - center), fb[0]))
            boxes = [nearest]
        bbox = boxes[0]
        for box in boxes[1:]:
            bbox = bbox_union(bbox, box)
        cubes.append(GtCube(annotation.video_id, annotation.activity_class,
                            t0, t1, bbox))
    return cubes


def ref_assign_labels(proposals, gt_cubes, s_high, s_low):
    labels = [set() for _ in proposals]
    best_iou = [0.0] * len(proposals)

    # per video, proposals ordered by t0 so only temporally close pairs are
    # visited; anything further than the longest proposal cannot overlap
    by_video = {}
    for i, prop in enumerate(proposals):
        by_video.setdefault(prop.video_id, []).append(i)
    index = {}
    for video_id, ids in by_video.items():
        ids.sort(key=lambda i: (proposals[i].t0, i))
        t0s = [proposals[i].t0 for i in ids]
        max_dur = max(proposals[i].t1 - proposals[i].t0 for i in ids)
        index[video_id] = (ids, t0s, max_dur)

    for gt in gt_cubes:
        if gt.video_id not in index:
            continue
        ids, t0s, max_dur = index[gt.video_id]
        best_index = -1
        best_score = s_low
        lo = bisect.bisect_left(t0s, gt.t0 - max_dur)
        hi = bisect.bisect_left(t0s, gt.t1)
        for i in ids[lo:hi]:
            prop = proposals[i]
            if temporal_iou((prop.t0, prop.t1), (gt.t0, gt.t1)) < SAME_WINDOW_TIOU:
                continue
            iou = bbox_iou(prop.bbox, gt.bbox)
            if iou > best_iou[i]:
                best_iou[i] = iou
            if iou > s_high:
                labels[i].add(gt.activity_class)
            # ties go to the lower proposal index
            if iou > best_score or (iou == best_score and -1 < best_index
                                    and i < best_index and iou > s_low):
                best_score = iou
                best_index = i
        if best_index >= 0:
            labels[best_index].add(gt.activity_class)

    out = []
    for i in range(len(proposals)):
        if labels[i]:
            out.append(LabelAssignment(i, frozenset(labels[i]), False))
        elif best_iou[i] <= s_low:
            out.append(LabelAssignment(i, frozenset(), True))
        else:
            out.append(LabelAssignment(i, frozenset(), False))
    return out
