import pytest
from hypothesis import given, settings, strategies as st

from actpipe.config import PipelineConfig
from actpipe.geometry import BBox
from actpipe.proposals import generate_video_proposals, sample_windows
from helpers import make_track, track_boxes


def track(track_id, frames, box=BBox(10, 50, 10, 50), cls="person"):
    return make_track(track_id, cls, {f: box for f in frames})


class TestSampleWindows:
    def test_regular_stride(self):
        windows = sample_windows(160, 64, 16)
        assert windows == [(k * 16, k * 16 + 64) for k in range(7)]

    def test_degenerate_non_overlap(self):
        assert sample_windows(64, 64, 64) == [(0, 64)]

    def test_short_video_truncated(self):
        assert sample_windows(50, 64, 16) == [(0, 50)]

    def test_trailing_window_covers_tail(self):
        windows = sample_windows(70, 64, 16)
        assert windows == [(0, 64), (6, 70)]

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError):
            sample_windows(0, 64, 16)

    @given(st.integers(1, 400))
    @settings(max_examples=60)
    def test_every_frame_covered(self, video_len):
        windows = sample_windows(video_len, 64, 16)
        for f in range(video_len):
            assert any(t0 <= f < t1 for t0, t1 in windows)

    def test_partition_when_stride_equals_duration(self):
        windows = sample_windows(256, 64, 64)
        assert windows == [(0, 64), (64, 128), (128, 192), (192, 256)]


def window_cubes(tracks, video_len):
    """Unenlarged cubes of a video at most ``d_prop`` frames long, whose one
    window is [0, video_len), in a frame larger than every box."""
    config = PipelineConfig(s_det=8, r_enl=0.0)
    return generate_video_proposals("v", tracks, video_len, (1920, 1080), config)


def seeds(tracks, video_len):
    return [c.seed_track for c in window_cubes(tracks, video_len)]


def union(t):
    (cube,) = window_cubes([t], 64)
    return cube.bbox


class TestCentralSeeds:
    def test_box_on_central_frame(self):
        assert seeds([track(1, [32])], 64) == [1]

    def test_track_outside_tolerance(self):
        # nearest box at frame 40 is farther than 32 +/- 4
        assert seeds([track(1, range(40, 80, 8))], 64) == []

    def test_empty_central_region(self):
        assert seeds([], 64) == []
        assert seeds([track(1, [0, 8])], 64) == []

    def test_nearby_frame_counts(self):
        assert seeds([track(1, [28])], 64) == [1]

    def test_box_outside_window_ignored(self):
        # frame 4 is within tolerance of t_c=1 but outside the window
        assert seeds([track(1, [4])], 3) == []


class TestRefineUnion:
    def test_stationary(self):
        box = BBox(10, 50, 10, 50)
        assert union(track(1, [0, 16, 32], box)) == box

    def test_moving_union(self):
        t = make_track(1, "person", {0: BBox(0, 10, 0, 10), 32: BBox(20, 30, 0, 10),
                                     63: BBox(50, 60, 0, 10)})
        assert union(t) == BBox(0, 60, 0, 10)

    def test_superset_of_member_boxes(self):
        t = make_track(1, "person", {0: BBox(0, 10, 0, 10), 30: BBox(5, 25, 2, 12),
                                     63: BBox(50, 60, 0, 10)})
        box = union(t)
        for f, b in track_boxes(t).items():
            assert box.x0 <= b.x0 and box.x1 >= b.x1
            assert box.y0 <= b.y0 and box.y1 >= b.y1

    def test_only_window_boxes_count(self):
        t = make_track(1, "person", {0: BBox(0, 10, 0, 10), 32: BBox(2, 8, 2, 8),
                                     100: BBox(50, 60, 0, 10)})
        assert union(t) == BBox(0, 10, 0, 10)


class TestGenerateProposals:
    config = PipelineConfig(r_enl=0.0)

    def test_one_track_seven_windows(self):
        t = track(1, range(0, 160, 8))
        cubes = generate_video_proposals("v", [t], 160, (1920, 1080), self.config)
        assert len(cubes) == 7
        assert [c.t0 for c in cubes] == [0, 16, 32, 48, 64, 80, 96]
        assert all(c.seed_track == 1 for c in cubes)
        assert all(c.object_class == "person" for c in cubes)

    def test_no_tracks(self):
        assert generate_video_proposals("v", [], 160, (1920, 1080), self.config) == []

    def test_two_tracks_fourteen_cubes(self):
        t1 = track(1, range(0, 160, 8))
        t2 = track(2, range(0, 160, 8), BBox(100, 140, 100, 140))
        cubes = generate_video_proposals("v", [t1, t2], 160, (1920, 1080),
                                         self.config)
        assert len(cubes) == 14

    def test_order_and_determinism(self):
        t1 = track(1, range(0, 160, 8))
        t2 = track(2, range(0, 160, 8), BBox(100, 140, 100, 140))
        a = generate_video_proposals("v", [t2, t1], 160, (1920, 1080), self.config)
        b = generate_video_proposals("v", [t1, t2], 160, (1920, 1080), self.config)
        assert a == b
        assert [(c.t0, c.seed_track) for c in a] == sorted(
            (c.t0, c.seed_track) for c in a
        )

    def test_enlargement_applied(self):
        cfg = PipelineConfig(r_enl=0.13)
        t = make_track(1, "person", {32: BBox(100, 200, 100, 200)})
        (cube,) = generate_video_proposals("v", [t], 64, (1920, 1080), cfg)
        assert cube.bbox == BBox(93.5, 206.5, 93.5, 206.5)

    def test_object_class_filter(self):
        cfg = PipelineConfig(object_classes=("vehicle",), r_enl=0.0)
        t = track(1, range(0, 64, 8), cls="person")
        assert generate_video_proposals("v", [t], 64, (1920, 1080), cfg) == []
