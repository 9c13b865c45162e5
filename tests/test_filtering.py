import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actpipe.filtering import (SENTINEL_THRESHOLD, calibrate_threshold,
                               collect_positive_scores, filter_proposals,
                               foreground_score, frame_diff_segment,
                               score_foreground)
from actpipe.geometry import BBox, Cube
from actpipe.records import MaskFrame


def mask(frame, raster, video="v"):
    return MaskFrame.from_array(video, frame, np.asarray(raster, dtype=np.uint8))


def cube(t0=0, t1=64, box=BBox(0, 10, 0, 10), video="v", cls="person",
         fg=None, labels=None, seed=1):
    return Cube(video, box, t0, t1, seed_track=seed, object_class=cls,
                fg_score=fg, labels=labels)


@st.composite
def scoring_inputs(draw):
    """Cubes and a frame-ordered mask stream over 1-3 videos.

    Each video has its own mask size. Box edges are fractional and may lie
    partly or wholly outside the frame or be thinner than one cell; mask
    frames reach past the windows, so some masks fall in none of them.
    """
    cubes, masks = [], []
    for v in range(draw(st.integers(1, 3))):
        video = f"v{v}"
        w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        frames = draw(st.lists(st.integers(0, 100), min_size=1, max_size=6,
                               unique=True))
        for f in sorted(frames):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            density = draw(st.sampled_from([0.1, 0.5, 0.9]))
            masks.append(mask(f, rng.random((h, w)) < density, video))
        side = max(w, h)
        edge = st.floats(-side / 2, side + 2, allow_nan=False)
        extent = st.floats(0.01, side, allow_nan=False)
        for _ in range(draw(st.integers(0, 4))):
            # every window holds at least one mask frame
            anchor = draw(st.sampled_from(frames))
            t0 = draw(st.integers(max(0, anchor - 30), anchor))
            t1 = draw(st.integers(anchor + 1, anchor + 30))
            x0, y0 = draw(edge), draw(edge)
            box = BBox(x0, x0 + draw(extent), y0, y0 + draw(extent))
            cubes.append(cube(t0, t1, box, video=video, seed=len(cubes)))
    return cubes, masks


class TestFrameDiff:
    def test_constant_video_all_background(self):
        frames = [(f, np.full((8, 8), 100.0)) for f in range(0, 40, 8)]
        masks = frame_diff_segment(frames, diff_threshold=5, video_id="v")
        assert all(m.decode().sum() == 0 for m in masks)

    def test_jumping_rectangle_marks_old_and_new(self):
        base = np.zeros((10, 10))
        a = base.copy()
        a[2:4, 2:4] = 200
        b = base.copy()
        b[6:8, 6:8] = 200
        masks = frame_diff_segment([(0, a), (8, b)], diff_threshold=50,
                                   video_id="v")
        got = masks[1].decode()
        # brute-force per-pixel oracle against the single history frame
        expect = (np.abs(b - a) > 50).astype(np.uint8)
        assert (got == expect).all()
        assert got[2:4, 2:4].all() and got[6:8, 6:8].all()
        assert got.sum() == 8

    def test_zero_threshold_on_changing_input_all_foreground(self):
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        b = a + 1.0
        masks = frame_diff_segment([(0, a), (8, b)], diff_threshold=0,
                                   video_id="v")
        assert masks[1].decode().all()

    def test_first_frame_background(self):
        masks = frame_diff_segment([(0, np.ones((4, 4)) * 255)], 10, "v")
        assert masks[0].decode().sum() == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            frame_diff_segment([(0, np.zeros((4, 4))), (8, np.zeros((5, 5)))],
                               1, "v")


class TestForegroundScore:
    def test_all_foreground(self):
        masks = [mask(f, np.ones((20, 20))) for f in (0, 8, 16)]
        assert foreground_score(cube(0, 24), masks) == 1.0

    def test_all_background(self):
        masks = [mask(f, np.zeros((20, 20))) for f in (0, 8, 16)]
        assert foreground_score(cube(0, 24), masks) == 0.0

    def test_half_covered(self):
        raster = np.zeros((20, 20))
        raster[:, :5] = 1  # left half of a (0,10,0,10) box
        masks = [mask(f, raster) for f in (0, 8)]
        assert foreground_score(cube(0, 16), masks) == 0.5

    def test_masks_outside_window_ignored(self):
        inside = [mask(0, np.ones((20, 20)))]
        outside = [mask(100, np.zeros((20, 20)))]
        assert foreground_score(cube(0, 64), inside + outside) == 1.0

    def test_no_masks_in_window_rejected(self):
        with pytest.raises(ValueError, match="no masks"):
            foreground_score(cube(0, 64), [mask(100, np.zeros((4, 4)))])

    def test_fractional_box_uses_interior_cells(self):
        raster = np.zeros((10, 10))
        raster[2:5, 2:5] = 1
        masks = [mask(0, raster)]
        # cells fully inside (1.5, 5.5) are 2..4 per axis: exactly the ones set
        assert foreground_score(cube(0, 8, BBox(1.5, 5.5, 1.5, 5.5)), masks) == 1.0

    def test_batched_matches_single(self):
        rng = np.random.default_rng(4)
        rasters = {f: (rng.random((30, 40)) > 0.6).astype(np.uint8)
                   for f in range(0, 64, 8)}
        masks = [mask(f, r) for f, r in sorted(rasters.items())]
        cubes = [cube(0, 32, BBox(3.2, 17.8, 5.1, 22.9)),
                 cube(16, 64, BBox(0, 40, 0, 30)),
                 cube(32, 64, BBox(10, 11.5, 10, 11.5))]
        batched = score_foreground(cubes, masks)
        for original, scored in zip(cubes, batched):
            assert scored.fg_score == foreground_score(original, masks)

    @given(scoring_inputs())
    @settings(max_examples=200, deadline=None)
    def test_batched_equals_single_on_random_inputs(self, inputs):
        cubes, masks = inputs
        batched = score_foreground(cubes, masks)
        assert [c.fg_score for c in batched] == \
            [foreground_score(c, masks) for c in cubes]

    def test_batched_missing_masks_rejected(self):
        with pytest.raises(ValueError, match="no masks"):
            score_foreground([cube(0, 8)], [mask(0, np.ones((4, 4)), video="w")])

    def test_batched_rejects_revisited_video(self):
        masks = [mask(0, np.ones((4, 4))), mask(0, np.ones((4, 4)), video="w"),
                 mask(8, np.ones((4, 4)))]
        with pytest.raises(ValueError, match="revisits video 'v'"):
            score_foreground([cube(0, 16)], masks)

    def test_batched_rejects_frames_out_of_order(self):
        masks = [mask(8, np.ones((4, 4))), mask(0, np.ones((4, 4)))]
        with pytest.raises(ValueError, match="out of frame order in 'v'"):
            score_foreground([cube(0, 16)], masks)


class TestCalibration:
    def test_order_statistic(self):
        scores = {"person": [0.05 * i for i in range(1, 21)]}
        thresholds = calibrate_threshold(scores, p_pos=0.05)
        assert thresholds["person"] == pytest.approx(0.05)

    def test_zero_tolerance_gives_sentinel(self):
        thresholds = calibrate_threshold({"person": [0.4, 0.6]}, p_pos=0.0)
        assert thresholds["person"] == SENTINEL_THRESHOLD

    def test_tie_safety_floor(self):
        thresholds = calibrate_threshold({"person": [0.7] * 10}, p_pos=0.05)
        assert thresholds["person"] == SENTINEL_THRESHOLD

    def test_empty_class_gives_sentinel(self):
        assert calibrate_threshold({"person": []}, 0.05)["person"] == \
            SENTINEL_THRESHOLD

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=60,
                    unique=True),
           st.floats(0, 1, allow_nan=False))
    @settings(max_examples=120)
    def test_guarantee_under_distinct_scores(self, scores, p_pos):
        threshold = calibrate_threshold({"c": scores}, p_pos)["c"]
        filtered = sum(1 for s in scores if s <= threshold)
        assert filtered <= p_pos * len(scores)


class TestFilterProposals:
    def test_sentinel_is_identity(self):
        cubes = [cube(fg=0.0), cube(fg=0.9, seed=2)]
        out = filter_proposals(cubes, {"person": SENTINEL_THRESHOLD})
        assert out == cubes

    def test_boundary_is_inclusive_removal(self):
        c = cube(fg=0.05)
        assert filter_proposals([c], {"person": 0.05}) == []
        assert filter_proposals([c], {"person": 0.04999}) == [c]

    def test_median_threshold_keeps_at_most_half(self):
        scores = [0.1 * i for i in range(1, 11)]
        cubes = [cube(fg=s, seed=i) for i, s in enumerate(scores, 1)]
        median = float(np.median(scores))
        kept = filter_proposals(cubes, {"person": median})
        brute = [c for c in cubes if c.fg_score > median]
        assert kept == brute
        assert len(kept) <= 5

    def test_subset_order_idempotent(self):
        cubes = [cube(fg=0.1 * i, seed=i) for i in range(1, 8)]
        thresholds = {"person": 0.35}
        once = filter_proposals(cubes, thresholds)
        assert [c for c in cubes if c in once] == once
        assert filter_proposals(once, thresholds) == once

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            filter_proposals([cube(fg=0.5)], {"vehicle": 0.1})

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError, match="foreground score"):
            filter_proposals([cube()], {"person": 0.1})


class TestCollectPositives:
    def test_groups_by_object_class(self):
        cubes = [
            cube(fg=0.8, labels=frozenset({"walk"}), cls="person"),
            cube(fg=0.6, labels=frozenset({"walk"}), cls="vehicle", seed=2),
            cube(fg=0.4, labels=frozenset(), cls="person", seed=3),
            cube(fg=0.2, labels=None, cls="person", seed=4),
        ]
        scores = collect_positive_scores(cubes)
        assert scores == {"person": [0.8], "vehicle": [0.6]}
