"""Array-backed proposal and labeling steps against per-BBox references.

The references in ``helpers`` compute one ``BBox`` at a time, as the steps
did before tracks and tubes became arrays. Every comparison is exact:
equal values and equal ``write_records`` bytes.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from actpipe.config import PipelineConfig
from actpipe.geometry import BBox, Cube, bbox_iou, coverage
from actpipe.labeling import (SAME_WINDOW_TIOU, GtCube, apply_assignments,
                              assign_labels, gt_to_cubes, same_window_blocks,
                              temporal_iou)
from actpipe.proposals import (central_seeds, generate_video_proposals,
                               refine_union)
from actpipe.records import ActivityAnnotation, write_records
from helpers import (make_track, ref_assign_labels, ref_central_seeds,
                     ref_generate_video_proposals, ref_gt_to_cubes,
                     ref_refine_union)

# a few fixed boxes make exact IoU ties (and an IoU of exactly 0.5) likely
FIXED_BOXES = (BBox(0, 2, 0, 1), BBox(0, 1, 0, 1), BBox(1, 2, 0, 1),
               BBox(0, 2, 0, 2), BBox(-0.0, 4, 0, 4), BBox(0, 4, -0.0, 4),
               BBox(-3, -0.0, 0, 1), BBox(-2, 6, -0.0, 1.5))
# integer-typed, signed-zero and fractional coordinates
coords = st.one_of(st.integers(-4, 40),
                   st.sampled_from([0.0, -0.0, 0.1, 3.5, 7.25, 12.3, 33.125]))
extents = st.one_of(st.integers(1, 20), st.sampled_from([0.125, 0.5, 2.75, 9.9]))


@st.composite
def boxes(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(FIXED_BOXES))
    if kind == 1:
        x0, y0 = draw(coords), draw(coords)
        return BBox(x0, x0 + draw(extents), y0, y0 + draw(extents))
    # full-precision coordinates, where a change of operation order shows
    rnd = draw(st.randoms(use_true_random=False))
    x0, y0 = rnd.uniform(-4, 40), rnd.uniform(-4, 40)
    return BBox(x0, x0 + rnd.uniform(0.1, 20), y0, y0 + rnd.uniform(0.1, 20))


@st.composite
def box_picker(draw):
    """Per-frame boxes drawn from a small palette, so long tubes stay cheap."""
    palette = draw(st.lists(boxes(), min_size=1, max_size=4))
    rnd = draw(st.randoms(use_true_random=False))
    return lambda: rnd.choice(palette)


@st.composite
def tracks(draw, max_frame):
    ids = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    out = []
    for track_id in ids:
        if draw(st.booleans()):
            start = draw(st.integers(0, max_frame))
            frames = range(start, draw(st.integers(start + 1, max_frame + 1)),
                           draw(st.integers(1, 8)))
        else:
            frames = draw(st.lists(st.integers(0, max_frame), min_size=1,
                                   max_size=12, unique=True))
        cls = draw(st.sampled_from(["person", "vehicle"]))
        pick = draw(box_picker())
        out.append(make_track(track_id, cls, {f: pick() for f in frames}))
    return out


# (d_prop, s_prop) pairs the config accepts
formats = st.sampled_from([(64, 16), (32, 8), (16, 16), (8, 4), (12, 4)])


def outcome(fn, *args):
    """Result of ``fn``, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


# removed when the interpreter exits
OUT_DIR = tempfile.TemporaryDirectory()


def written(records, kind):
    path = Path(OUT_DIR.name) / "out.jsonl"
    write_records(records, path, kind)
    return path.read_bytes()


class TestProposals:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), t0=st.integers(0, 120), length=st.integers(1, 80),
           s_det=st.integers(1, 16))
    def test_central_seeds_and_union(self, data, t0, length, s_det):
        window = (t0, t0 + length)
        ts = data.draw(tracks(max_frame=210))
        seeds = central_seeds(window, ts, s_det)
        assert seeds == ref_central_seeds(window, ts, s_det)
        for track in ts:
            assert outcome(refine_union, track, window) == \
                outcome(ref_refine_union, track, window)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), video_len=st.integers(1, 200), fmt=formats,
           s_det=st.integers(1, 16), r_enl=st.sampled_from([0.0, 0.13]),
           classes=st.sampled_from([(), ("person",)]))
    def test_generate_video_proposals(self, data, video_len, fmt, s_det, r_enl,
                                      classes):
        # videos shorter than d_prop get one truncated window
        config = PipelineConfig(d_prop=fmt[0], s_prop=fmt[1], s_det=s_det,
                                r_enl=r_enl, object_classes=classes)
        ts = data.draw(tracks(max_frame=video_len + 8))
        args = ("v", ts, video_len, (48, 40), config)
        cubes = outcome(generate_video_proposals, *args)
        assert cubes == outcome(ref_generate_video_proposals, *args)
        if isinstance(cubes, list):
            assert written(cubes, "proposals") == written(
                ref_generate_video_proposals(*args), "proposals")


@st.composite
def annotations(draw):
    t0 = draw(st.integers(0, 50))
    t1 = t0 + draw(st.integers(1, 200))
    if draw(st.booleans()):
        frames = range(t0, t1)
    else:
        # sparse tubes leave windows empty and exercise the fallback
        frames = draw(st.lists(st.integers(t0, t1 - 1), min_size=1,
                               max_size=8, unique=True))
    pick = draw(box_picker())
    tube = tuple((f, pick()) for f in frames)
    return ActivityAnnotation(draw(st.sampled_from(["a", "b", "c"])),
                              draw(st.sampled_from(["walk", "ride"])), t0, t1,
                              tube)


class TestGtToCubes:
    @settings(max_examples=120, deadline=None)
    @given(ann=annotations(), fmt=formats)
    def test_matches_reference(self, ann, fmt):
        assert gt_to_cubes(ann, *fmt) == ref_gt_to_cubes(ann, *fmt)

    def test_fallback_tie_takes_earlier_frame(self):
        # window [16, 80) holds no tube frame; frames 8 and 88 are both 40
        # frames from its centre 48
        ann = ActivityAnnotation("v", "walk", 0, 160, ((8, BBox(0, 1, 0, 1)),
                                                       (88, BBox(5, 9, 5, 9))))
        cubes = gt_to_cubes(ann, 64, 16)
        assert cubes == ref_gt_to_cubes(ann, 64, 16)
        assert cubes[1].t0 == 16 and cubes[1].bbox == BBox(0, 1, 0, 1)

    def test_fallback_nearest_after_window(self):
        ann = ActivityAnnotation("v", "walk", 0, 160, ((8, BBox(0, 1, 0, 1)),
                                                       (86, BBox(5, 9, 5, 9))))
        cubes = gt_to_cubes(ann, 64, 16)
        assert cubes == ref_gt_to_cubes(ann, 64, 16)
        assert cubes[1].bbox == BBox(5, 9, 5, 9)


# windows whose temporal IoU with another is exactly 0.5: (0, 64) with
# (0, 32), and (16, 48) with (0, 64)
WINDOWS = ((0, 64), (16, 80), (32, 96), (0, 32), (16, 48), (64, 128))


@st.composite
def proposals(draw):
    out = []
    for seed in range(draw(st.integers(0, 14))):
        t0, t1 = draw(st.sampled_from(WINDOWS))
        out.append(Cube(draw(st.sampled_from(["a", "b"])), draw(boxes()), t0, t1,
                        seed_track=seed, object_class="person"))
    return out


@st.composite
def gt_cubes(draw):
    out = []
    for _ in range(draw(st.integers(0, 8))):
        t0, t1 = draw(st.sampled_from(WINDOWS))
        out.append(GtCube(draw(st.sampled_from(["a", "b", "c"])),
                          draw(st.sampled_from(["walk", "ride", "sit"])),
                          t0, t1, draw(boxes())))
    return out


thresholds = st.sampled_from([0.0, 0.2, 1 / 3, 0.5, 0.7])


class TestAssignLabels:
    @settings(max_examples=120, deadline=None)
    @given(props=proposals(), gts=gt_cubes(), a=thresholds, b=thresholds)
    def test_matches_reference(self, props, gts, a, b):
        s_low, s_high = min(a, b), max(a, b)
        got = assign_labels(props, gts, s_high, s_low)
        want = ref_assign_labels(props, gts, s_high, s_low)
        assert got == want
        assert written(apply_assignments(props, got), "proposals") == \
            written(apply_assignments(props, want), "proposals")

    @pytest.mark.parametrize("s_low, s_high", [(0.5, 0.5), (0.0, 0.5)])
    def test_tie_and_equal_thresholds(self, s_low, s_high):
        # IoU with the GT box is 0.5 for the first two proposals and 1.0 for
        # the two identical ones; the best GT match goes to index 2
        gt = GtCube("a", "walk", 0, 64, BBox(0, 1, 0, 1))
        props = [Cube("a", BBox(0, 2, 0, 1), 0, 64, seed_track=1),
                 Cube("a", BBox(0, 2, 0, 1), 0, 32, seed_track=2),
                 Cube("a", BBox(0, 1, 0, 1), 16, 48, seed_track=3),
                 Cube("a", BBox(0, 1, 0, 1), 0, 64, seed_track=4)]
        got = assign_labels(props, [gt], s_high, s_low)
        assert got == ref_assign_labels(props, [gt], s_high, s_low)
        assert [a.outcome for a in got] == (
            ["negative", "negative", "positive", "positive"] if s_low == 0.5
            else ["unassigned", "unassigned", "positive", "positive"])

    @settings(max_examples=120, deadline=None)
    @given(props=proposals(), gts=gt_cubes())
    def test_blocks_pair_each_same_window_pair_once(self, props, gts):
        pairs = {}
        for p_idx, g_idx, iou, cov in same_window_blocks(props, gts):
            assert list(p_idx) == sorted(p_idx)
            for r, i in enumerate(p_idx.tolist()):
                for c, g in enumerate(g_idx.tolist()):
                    assert (i, g) not in pairs
                    pairs[(i, g)] = (iou[r, c], cov[r, c])
        want = {
            (i, g): (bbox_iou(p.bbox, gt.bbox), coverage(p.bbox, gt.bbox))
            for i, p in enumerate(props) for g, gt in enumerate(gts)
            if p.video_id == gt.video_id
            and temporal_iou((p.t0, p.t1), (gt.t0, gt.t1)) >= SAME_WINDOW_TIOU
        }
        assert pairs == want
