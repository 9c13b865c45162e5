"""Scene builders shared by the pipeline, acceptance and digest tests, plus
plain per-``BBox`` reference versions of the box overlap kernel and the
one-box enlargement, the array-backed proposal, labeling and tube steps and
box coverage, the per-pair greedy tracker, the outcome-counting label
statistics, the per-class dedup and per-level proposal-quality sweep, the
per-cube oracle and fused scores, the coverage-counter DET sweep, the
per-pair tube-IoU mAP, the per-cube foreground score and the
dict-and-``json.dumps`` record line, for differential tests."""

import bisect
import json
import math
import random

import numpy as np

from actpipe.dedup import CHAIN_IOU, SegmentCube, merge_groups, \
    select_group, split_segments
from actpipe.evaluation import QUALITY_LEVELS, DetCurve, DetPoint, \
    Map3dResult, _average_precision, _check_videos, _tube_ious, det_curve, naudc
from actpipe.geometry import BBox, Cube, bbox_intersection, bbox_union, \
    box_areas, box_intersections, box_ious, box_rows, tube_arrays
from actpipe.labeling import SAME_WINDOW_TIOU, gt_to_cubes, temporal_iou
from actpipe.proposals import sample_windows
from actpipe.records import ActivityAnnotation, ActivityInstance, CubeTable, \
    DetectionRecord, ScoredCube
from actpipe.synth import ActivitySpec, ObjectSpec, SceneSpec
from actpipe.tracking import IOU_GATE, Track


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


def crowded_scenes(n_scenes, seed, video_len=256, n_objects=12):
    """Seeded short crowded scenes: jittered, drop-out detections of objects
    that live part of the video, and activities covering part of a life."""
    classes = ("carrying", "loading", "walking")
    width, height = 320, 180
    rng = np.random.default_rng(seed)
    specs = []
    for v in range(n_scenes):
        objects, activities = [], []
        for j in range(n_objects):
            w, h = rng.uniform(12, 32, 2).tolist()
            lo = int(rng.integers(0, video_len // 3))
            hi = int(rng.integers(lo + video_len // 2, video_len))
            moving = bool(rng.random() < 0.75)
            x = float(rng.uniform(0, width - w - 1))
            y = float(rng.uniform(0, height - h - 1))
            waypoints = []
            for frame in (lo, (lo + hi) // 2, hi):
                waypoints.append((frame, BBox(x, x + w, y, y + h)))
                if moving:
                    x = float(np.clip(x + rng.uniform(-50, 50), 0, width - w - 1))
                    y = float(np.clip(y + rng.uniform(-25, 25), 0, height - h - 1))
            objects.append(ObjectSpec("person" if rng.random() < 0.6 else "vehicle",
                                      tuple(waypoints), foreground=moving))
            if moving and rng.random() < 0.8:
                t0 = int(rng.integers(lo, hi - 48))
                t1 = int(rng.integers(t0 + 48, min(t0 + 160, hi + 1) + 1))
                activities.append(ActivitySpec(
                    j, classes[int(rng.integers(len(classes)))], t0, t1))
        specs.append(SceneSpec(
            video_id=f"crowd{v:03d}", video_len=video_len, width=width,
            height=height, objects=tuple(objects), activities=tuple(activities),
            jitter_sigma=2.0, dropout=0.15, seed=seed * 1000 + v))
    return specs


def tube_of(boxes):
    """Tube arrays (see ``tube_arrays``) from a {frame: BBox} dict."""
    frames = sorted(boxes)
    rows = [(boxes[f].x0, boxes[f].x1, boxes[f].y0, boxes[f].y1) for f in frames]
    return tube_arrays(frames, rows)


def tube_record(boxes):
    """A {frame: BBox} tube as an annotation over its frames' window."""
    frames, rows = tube_of(boxes)
    return ActivityAnnotation("v", "walk", min(boxes, default=0),
                              max(boxes, default=0) + 1, frames=frames, boxes=rows)


def block_tube_iou(a, b):
    """Tube IoU of one pair of instances or annotations through
    ``map_3diou``'s block."""
    return float(_tube_ious([a], [b])[0, 0])


def tube_pairs(frames, boxes):
    """Tube arrays as (frame, BBox) pairs in frame order."""
    return [(f, BBox(*b)) for f, b in zip(frames.tolist(), boxes.tolist())]


def make_track(track_id, object_class, boxes):
    """Track from a {frame: BBox} dict."""
    return Track(track_id, object_class, *tube_of(boxes))


def track_boxes(track):
    """A track's boxes as a {frame: BBox} dict."""
    return dict(tube_pairs(track.frames, track.boxes))


# ---------------------------------------------------------------------------
# per-BBox references: one box at a time, as before the array representation


def ref_box_area(b):
    return (b.x1 - b.x0) * (b.y1 - b.y0)


def ref_intersection_area(a, b):
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def ref_bbox_iou(a, b):
    """Intersection over union of two boxes, one pair at a time."""
    inter = ref_intersection_area(a, b)
    return inter / (ref_box_area(a) + ref_box_area(b) - inter)


class _RefLiveTrack:
    __slots__ = ("track_id", "object_class", "last_frame", "last_box")

    def __init__(self, track_id, det):
        self.track_id = track_id
        self.object_class = det.object_class
        self.last_frame = det.frame
        self.last_box = det.bbox

    def advance(self, det):
        self.last_frame = det.frame
        self.last_box = det.bbox


def _ref_track_one_video(detections, max_gap):
    frames = {}
    for det in detections:
        frames.setdefault(det.frame, []).append(det)

    live = []
    next_id = 1
    out = []
    for frame in sorted(frames):
        dets = frames[frame]
        live = [t for t in live if frame - t.last_frame <= max_gap]

        # confidence rank within the frame breaks IoU ties deterministically
        ranked = sorted(
            range(len(dets)),
            key=lambda i: (-dets[i].confidence, dets[i].bbox.x0, dets[i].bbox.y0, i),
        )
        rank_of = {det_i: r for r, det_i in enumerate(ranked)}

        candidates = []
        for det_i, det in enumerate(dets):
            for track in live:
                if track.object_class != det.object_class:
                    continue
                iou = ref_bbox_iou(track.last_box, det.bbox)
                if iou >= IOU_GATE:
                    candidates.append((-iou, rank_of[det_i], det.bbox.x0,
                                       track.track_id, det_i, track))
        candidates.sort(key=lambda c: c[:4])

        assigned = {}
        used_tracks = set()
        for _, _, _, _, det_i, track in candidates:
            if det_i in assigned or track.track_id in used_tracks:
                continue
            assigned[det_i] = track.track_id
            used_tracks.add(track.track_id)
            track.advance(dets[det_i])

        for det_i, det in enumerate(dets):
            if det_i not in assigned:
                track = _RefLiveTrack(next_id, det)
                next_id += 1
                live.append(track)
                assigned[det_i] = track.track_id
            out.append(
                DetectionRecord(det.video_id, det.frame, det.object_class,
                                det.bbox, det.confidence, assigned[det_i])
            )
    return out


def ref_greedy_iou_track(detections, max_gap):
    """The greedy tracker one (detection, live track) pair at a time."""
    by_video = {}
    for det in detections:
        by_video.setdefault(det.video_id, []).append(det)
    return [d for dets in by_video.values()
            for d in _ref_track_one_video(dets, max_gap)]


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


def ref_bbox_enlarge(b, rate, frame):
    if rate < 0:
        raise ValueError(f"enlarge rate {rate} must be >= 0")
    width, height = frame
    mx = (b.x1 - b.x0) * rate / 2.0
    my = (b.y1 - b.y0) * rate / 2.0
    return BBox(max(0.0, b.x0 - mx), min(float(width), b.x1 + mx),
                max(0.0, b.y0 - my), min(float(height), b.y1 + my))


def ref_generate_video_proposals(video_id, tracks, video_len, frame_size, config):
    allowed = set(config.object_classes)
    usable = [t for t in tracks if not allowed or t.object_class in allowed]
    cubes = []
    for t0, t1 in sample_windows(video_len, config.d_prop, config.s_prop):
        seeds = ref_central_seeds((t0, t1), usable, config.s_det)
        for seed in sorted(seeds, key=lambda t: t.track_id):
            bbox = ref_bbox_enlarge(ref_refine_union(seed, (t0, t1)), config.r_enl,
                                    frame_size)
            cubes.append(
                Cube(video_id=video_id, bbox=bbox, t0=t0, t1=t1,
                     seed_track=seed.track_id, object_class=seed.object_class)
            )
    cubes.sort(key=lambda c: (c.t0, c.seed_track))
    return cubes


def ref_gt_to_cubes(annotation, d_prop, s_prop):
    tube = tube_pairs(annotation.frames, annotation.boxes)
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
        cubes.append(Cube(annotation.video_id, bbox, t0, t1,
                          labels=frozenset({annotation.activity_class})))
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
            iou = ref_bbox_iou(prop.bbox, gt.bbox)
            if iou > best_iou[i]:
                best_iou[i] = iou
            if iou > s_high:
                labels[i].update(gt.labels)
            # ties go to the lower proposal index
            if iou > best_score or (iou == best_score and -1 < best_index
                                    and i < best_index and iou > s_low):
                best_score = iou
                best_index = i
        if best_index >= 0:
            labels[best_index].update(gt.labels)

    out = []
    for i, p in enumerate(proposals):
        if labels[i]:
            found = frozenset(labels[i])
        elif best_iou[i] <= s_low:
            found = frozenset()
        else:
            found = None
        out.append(Cube(p.video_id, p.bbox, p.t0, p.t1, p.seed_track,
                        p.object_class, p.fg_score, found))
    return out


def ref_proposal_stats(labeled):
    """The ``proposal_stats`` report counted outcome by outcome."""
    total = positive = negative = 0
    hist = {1: 0, 2: 0}
    many = 0
    for cube in labeled:
        total += 1
        if cube.labels:
            positive += 1
            n = len(cube.labels)
            if n in hist:
                hist[n] += 1
            else:
                many += 1
        elif cube.labels is not None:
            negative += 1
    unassigned = total - positive - negative
    return dict(
        total=total,
        positive=positive,
        negative=negative,
        unassigned=unassigned,
        positive_rate=positive / total if total else 0.0,
        single_label_rate=hist[1] / positive if positive else 0.0,
        two_label_rate=hist[2] / positive if positive else 0.0,
        many_label_rate=many / positive if positive else 0.0,
    )


def ref_coverage(pred, ref):
    """Fraction of the reference box covered by the prediction."""
    overlap = bbox_intersection(pred, ref)
    return 0.0 if overlap is None else ref_box_area(overlap) / ref_box_area(ref)


def ref_frame_boxes(instance):
    """An instance's tube as a {frame: BBox} dict; its box on every frame of
    the window when it has no tube."""
    if instance.frames is None:
        return {f: instance.bbox for f in range(instance.t0, instance.t1)}
    return dict(tube_pairs(instance.frames, instance.boxes))


def ref_tube_iou_3d(a, b):
    """Frame-summed IoU of two {frame: BBox} tubes, adding one frame at a
    time in sorted frame order."""
    if not a and not b:
        raise ValueError("tube_iou_3d on two empty tubes")
    inter = 0.0
    union = 0.0
    for frame in sorted(a.keys() | b.keys()):
        box_a = a.get(frame)
        box_b = b.get(frame)
        if box_a is not None and box_b is not None:
            overlap = bbox_intersection(box_a, box_b)
            i = 0.0 if overlap is None else ref_box_area(overlap)
            inter += i
            union += ref_box_area(box_a) + ref_box_area(box_b) - i
        elif box_a is not None:
            union += ref_box_area(box_a)
        else:
            union += ref_box_area(box_b)
    return inter / union


def ref_map_3diou(predictions, annotations, thresholds):
    """``map_3diou`` with every candidate IoU from :func:`ref_tube_iou_3d`,
    one same-video pair at a time."""
    classes = sorted({a.activity_class for a in annotations})
    ap = {t: {} for t in thresholds}
    for activity_class in classes:
        gts = [a for a in annotations if a.activity_class == activity_class]
        preds = sorted((p for p in predictions
                        if p.activity_class == activity_class),
                       key=lambda p: (-p.score, p.video_id, p.t0, p.t1))
        candidates = [[(g, ref_tube_iou_3d(ref_frame_boxes(p),
                                           dict(tube_pairs(gt.frames, gt.boxes))))
                       for g, gt in enumerate(gts) if gt.video_id == p.video_id]
                      for p in preds]
        for threshold in thresholds:
            matched = set()
            flags = []
            for pairs in candidates:
                best_iou, best_g = 0.0, -1
                for g, iou in pairs:
                    if g not in matched and iou > best_iou:
                        best_iou, best_g = iou, g
                flags.append(best_g >= 0 and best_iou >= threshold)
                if flags[-1]:
                    matched.add(best_g)
            ap[threshold][activity_class] = _average_precision(flags, len(gts))
    map_at = {t: sum(ap[t].values()) / len(classes) if classes else 0.0
              for t in thresholds}
    return Map3dResult(ap, map_at, sum(map_at.values()) / len(map_at))


# ---------------------------------------------------------------------------
# dedup and proposal-quality references: every class of every partition runs
# through split/merge/select, and every quality level is scored and
# deduplicated afresh


def ref_chain_partitions(cubes):
    """Spatial IoU chains of (index, ScoredCube) pairs, ids -1, -2, ..."""
    chains = []
    partitions = {}
    ordered = sorted(cubes, key=lambda ic: (ic[1].cube.t0, ic[1].cube.bbox.x0,
                                            ic[1].cube.bbox.y0, ic[0]))
    for i, sc in ordered:
        bbox = sc.cube.bbox
        chosen = None
        for c, (last_box, chain_id) in enumerate(chains):
            if ref_bbox_iou(bbox, last_box) >= CHAIN_IOU:
                chosen = c
                break
        if chosen is None:
            chain_id = -(len(chains) + 1)
            chains.append((bbox, chain_id))
            chosen = len(chains) - 1
        else:
            chain_id = chains[chosen][1]
            chains[chosen] = (bbox, chain_id)
        partitions.setdefault(chain_id, []).append(i)
    return partitions


def ref_deduplicate(scored_cubes, config):
    classes = config.activity_classes
    if not classes:
        raise ValueError("activity_classes must be configured for dedup")
    for sc in scored_cubes:
        if len(sc.scores) != len(classes):
            raise ValueError(
                f"score vector of length {len(sc.scores)} for {sc.key}, "
                f"expected {len(classes)}"
            )

    by_video = {}
    for i, sc in enumerate(scored_cubes):
        by_video.setdefault(sc.cube.video_id, []).append((i, sc))

    instances = []
    for video_id in sorted(by_video):
        partitions = {}
        unkeyed = []
        for i, sc in by_video[video_id]:
            if sc.cube.seed_track is None:
                unkeyed.append((i, sc))
            else:
                partitions.setdefault(sc.cube.seed_track, []).append(i)
        partitions.update(ref_chain_partitions(unkeyed))

        for track_id in sorted(partitions):
            members = sorted((scored_cubes[i] for i in partitions[track_id]),
                             key=lambda sc: (sc.cube.t0, sc.cube.t1))
            overlapping = any(a.cube.t1 > b.cube.t0
                              for a, b in zip(members, members[1:]))
            for class_idx, activity_class in enumerate(classes):
                run = [SegmentCube(sc.cube.t0, sc.cube.t1,
                                   sc.scores[class_idx], sc.cube.bbox)
                       for sc in members]
                if overlapping:
                    segments = split_segments(run, config.d_prop,
                                              config.s_prop)
                    selected = select_group(
                        merge_groups(segments, config.d_prop, config.s_prop))
                else:
                    selected = run
                for cube in selected:
                    if cube.score > 0.0:
                        instances.append(
                            ActivityInstance(video_id, activity_class,
                                             cube.t0, cube.t1, cube.bbox,
                                             cube.score, seed_track=track_id)
                        )
    instances.sort(key=lambda a: (a.video_id, a.activity_class, a.t0, a.t1,
                                  a.seed_track or 0))
    return instances


def ref_merge_adjacent(instances, s_merg, l_merg):
    """Merge-adjacent as a state machine: each partition's members walk in
    time order, and a gap or a member at or below the bar flushes the run."""
    partitions = {}
    for inst in instances:
        key = (inst.video_id, inst.activity_class, inst.seed_track)
        partitions.setdefault(key, []).append(inst)

    out = []
    for key in sorted(partitions, key=lambda k: (k[0], k[1], k[2] or 0)):
        members = sorted(partitions[key], key=lambda a: a.t0)
        for prev, cur in zip(members, members[1:]):
            if cur.t0 < prev.t1:
                raise ValueError(
                    f"overlapping instances [{prev.t0}, {prev.t1}) and "
                    f"[{cur.t0}, {cur.t1}) in partition {key}"
                )
        run = []

        def flush():
            if not run:
                return
            t0, t1 = run[0].t0, run[-1].t1
            if t1 - t0 <= l_merg:
                run.clear()
                return
            weight = sum(m.t1 - m.t0 for m in run)
            score = sum(m.score * (m.t1 - m.t0) for m in run) / weight
            bbox = run[0].bbox
            for m in run:
                bbox = bbox_union(bbox, m.bbox)
            frames, boxes = zip(*(m.frame_boxes() for m in run))
            out.append(
                ActivityInstance(run[0].video_id, run[0].activity_class,
                                 t0, t1, bbox, score,
                                 seed_track=run[0].seed_track,
                                 frames=np.concatenate(frames),
                                 boxes=np.concatenate(boxes))
            )
            run.clear()

        for inst in members:
            if inst.score <= s_merg:
                flush()
                continue
            if run and inst.t0 != run[-1].t1:
                flush()
            run.append(inst)
        flush()
    out.sort(key=lambda a: (a.video_id, a.activity_class, a.t0, a.t1,
                            a.seed_track or 0))
    return out


def same_window_blocks(proposals, gt_cubes):
    """Per distinct GT-cube window, the proposals (a :class:`CubeTable` or
    cubes) of the same video at temporal IoU >= 0.5: proposal indices
    (ascending), GT indices, and the IoU and GT-coverage (intersection over
    the GT box's area) matrices, both from one :func:`box_intersections`
    block; found through a ``bisect`` window index and :func:`temporal_iou`.
    """
    table = CubeTable.from_records(proposals)
    windows = {}
    for i, (video_id, t0, t1) in enumerate(zip(table.video_ids, table.t0, table.t1)):
        windows.setdefault(video_id, {}).setdefault((t0, t1), []).append(i)
    keys = {video_id: sorted(ws) for video_id, ws in windows.items()}
    # a window starting the longest duration before another cannot overlap it
    max_dur = max((t1 - t0 for t0, t1 in zip(table.t0, table.t1)), default=0)
    gt_groups = {}
    for g, gt in enumerate(gt_cubes):
        gt_groups.setdefault((gt.video_id, gt.t0, gt.t1), []).append(g)
    gt_boxes = box_rows(gt.bbox for gt in gt_cubes)
    for (video_id, t0, t1), g_idx in gt_groups.items():
        near = keys.get(video_id, [])
        near = near[bisect.bisect_left(near, (t0 - max_dur,)):
                    bisect.bisect_left(near, (t1,))]
        p_idx = np.array(sorted(i for w in near
                                if temporal_iou(w, (t0, t1)) >= SAME_WINDOW_TIOU
                                for i in windows[video_id][w]), dtype=np.int64)
        if not p_idx.size:
            continue
        p, g = table.boxes[p_idx, None], gt_boxes[g_idx]
        inter = box_intersections(p, g)
        yield (p_idx, np.array(g_idx), box_ious(p, g, inter),
               inter / box_areas(g))


def ref_proposal_quality(proposals, annotations, config, video_lengths,
                         level_instances=None):
    """The quality report with fresh oracle scores and dedup per level;
    ``level_instances``, when given, collects each level's instances."""
    classes = config.activity_classes or tuple(
        sorted({a.activity_class for a in annotations}))
    dedup_config = config.with_classes(activity_classes=classes)
    gt_cubes = [gt for a in annotations
                for gt in gt_to_cubes(a, config.d_prop, config.s_prop)]
    best_iou = np.zeros(len(proposals))
    best_cov = np.zeros(len(proposals))
    for p_idx, _, iou, cov in same_window_blocks(proposals, gt_cubes):
        best_iou[p_idx] = np.maximum(best_iou[p_idx], iou.max(axis=1))
        best_cov[p_idx] = np.maximum(best_cov[p_idx], cov.max(axis=1))

    def mean_naudc(subset):
        instances = ref_deduplicate(ref_oracle_scores(subset, classes),
                                    dedup_config)
        if level_instances is not None:
            level_instances.append(instances)
        curves = det_curve(instances, annotations, video_lengths,
                           config.temporal_overlap_frames, classes)
        values = [naudc(c, config.naudc_limit)
                  for c in curves.values() if not c.no_reference]
        return sum(values) / len(values) if values else 1.0

    def sweep(values):
        return {level: mean_naudc([p for i, p in enumerate(proposals)
                                   if values[i] >= level])
                for level in QUALITY_LEVELS}

    iou_levels = sweep(best_iou)
    cov_levels = sweep(best_cov)
    return {
        "n_proposals": len(proposals),
        "iou": {"average": sum(iou_levels.values()) / len(iou_levels),
                "levels": iou_levels},
        "coverage": {"average": sum(cov_levels.values()) / len(cov_levels),
                     "levels": cov_levels},
    }


# ---------------------------------------------------------------------------
# score references: one ScoredCube per cube, one fused vector per proposal


def ref_oracle_scores(cubes, activity_classes):
    """1.0 for each assigned label's class, 0.0 elsewhere, cube by cube."""
    index = {c: i for i, c in enumerate(activity_classes)}
    out = []
    for cube in cubes:
        scores = [0.0] * len(activity_classes)
        for label in cube.labels or ():
            if label not in index:
                raise ValueError(f"label {label!r} not in activity_classes")
            scores[index[label]] = 1.0
        out.append(ScoredCube(cube, tuple(scores)))
    return out


def ref_fuse_scores(score_sets, weights):
    """Each proposal's (models x classes) scores weighted and summed over
    the models, proposal by proposal."""
    out = []
    for members in zip(*score_sets):
        vectors = np.array([sc.scores for sc in members])
        fused = (weights * vectors).sum(axis=0)
        out.append(ScoredCube(members[0].cube, tuple(float(x) for x in fused)))
    return out


# ---------------------------------------------------------------------------
# DET reference: predictions walked in score order through per-video coverage
# counters, misses counted over every ground truth at every threshold


def ref_det_curve(predictions, annotations, video_lengths, min_temporal_overlap,
                  classes=None):
    """The DET sweep as before the per-frame best-score arrays."""
    _check_videos(video_lengths, predictions, annotations)
    if classes is None:
        classes = sorted({a.activity_class for a in annotations}
                         | {p.activity_class for p in predictions})

    curves = {}
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


# ---------------------------------------------------------------------------
# foreground reference: each cube walks the whole mask list, float box sums


def ref_foreground_score(cube, masks):
    """Mean mask value over the cells fully inside the cube's box, across
    the masks of its video in [t0, t1); raises when there are none."""
    total = 0.0
    count = 0
    used = 0
    for mask in masks:
        if mask.video_id != cube.video_id or not cube.t0 <= mask.frame < cube.t1:
            continue
        raster = mask.decode()
        h, w = raster.shape
        x0, x1 = max(0, math.ceil(cube.bbox.x0)), min(w, math.floor(cube.bbox.x1))
        y0, y1 = max(0, math.ceil(cube.bbox.y0)), min(h, math.floor(cube.bbox.y1))
        if x0 < x1 and y0 < y1:
            patch = raster[y0:y1, x0:x1]
            total += float(np.count_nonzero(patch))
            count += patch.size
        used += 1
    if used == 0:
        raise ValueError(
            f"no masks inside [{cube.t0}, {cube.t1}) for video {cube.video_id!r}"
        )
    return total / count if count else 0.0


# ---------------------------------------------------------------------------
# record line reference: each record as a dict, then json.dumps


def _box_fields(bbox):
    return {"x0": bbox.x0, "x1": bbox.x1, "y0": bbox.y0, "y1": bbox.y1}


def _tube_to_json(frames, boxes):
    if frames is None:
        return None
    return [[f, *b] for f, b in zip(frames.tolist(), boxes.tolist())]


def _cube_to_json(c):
    out = {"video_id": c.video_id, "t0": c.t0, "t1": c.t1}
    out.update(_box_fields(c.bbox))
    out["seed_track"] = c.seed_track
    out["object_class"] = c.object_class
    out["fg_score"] = c.fg_score
    out["labels"] = None if c.labels is None else sorted(c.labels)
    return out


def _record_to_json(kind, r):
    if kind == "detections":
        return {"video_id": r.video_id, "frame": r.frame,
                "object_class": r.object_class, **_box_fields(r.bbox),
                "confidence": r.confidence, "track_id": r.track_id}
    if kind == "annotations":
        return {"video_id": r.video_id, "activity_class": r.activity_class,
                "t0": r.t0, "t1": r.t1, "tube": _tube_to_json(r.frames, r.boxes)}
    if kind == "masks":
        return {"video_id": r.video_id, "frame": r.frame, "width": r.width,
                "height": r.height, "rle": list(r.rle)}
    if kind == "proposals":
        return _cube_to_json(r)
    if kind == "scored-proposals":
        return {**_cube_to_json(r.cube), "scores": list(r.scores)}
    if kind == "instances":
        return {"video_id": r.video_id, "activity_class": r.activity_class,
                "t0": r.t0, "t1": r.t1, **_box_fields(r.bbox), "score": r.score,
                "seed_track": r.seed_track, "tube": _tube_to_json(r.frames, r.boxes)}
    if kind == "det-curves":
        return {"activity_class": r.activity_class, "no_reference": r.no_reference,
                "points": [[p.threshold, p.tfa, p.pmiss] for p in r.points]}
    if kind == "reports":
        return {"section": r.section, "data": r.data}
    raise ValueError(f"unknown record kind {kind!r}")


def ref_record_line(kind, record):
    """A record's file line as the record's dict through ``json.dumps``."""
    return json.dumps(_record_to_json(kind, record), separators=(",", ":")) + "\n"
