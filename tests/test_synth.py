import re

import numpy as np
import pytest

from actpipe.config import PipelineConfig
from actpipe.geometry import BBox
from actpipe.synth import ActivitySpec, ObjectSpec, SceneSpec, generate_scene
from helpers import ref_bbox_iou, tube_pairs


def simple_spec(**kwargs):
    defaults = dict(
        video_id="v0",
        video_len=128,
        width=640,
        height=480,
        objects=(
            ObjectSpec("person",
                       ((0, BBox(100, 140, 100, 160)),
                        (127, BBox(200, 240, 100, 160)))),
        ),
        activities=(ActivitySpec(0, "walk", 0, 128),),
    )
    defaults.update(kwargs)
    return SceneSpec(**defaults)


# a spec field to delete rather than set
MISSING = object()


class TestGenerateScene:
    config = PipelineConfig()

    def test_noiseless_detections_on_trajectory(self):
        scene = generate_scene(simple_spec(), self.config)
        obj = scene.spec.objects[0]
        assert [d.frame for d in scene.detections] == list(range(0, 128, 8))
        for det in scene.detections:
            assert det.bbox == obj.box_at(det.frame)
            assert det.track_id == 1

    def test_seed_determinism(self):
        spec = simple_spec(jitter_sigma=2.0, dropout=0.5, seed=11)
        a = generate_scene(spec, self.config)
        b = generate_scene(spec, self.config)
        assert a.detections == b.detections
        assert a.annotations == b.annotations
        assert a.masks == b.masks

    def test_annotation_tube_interpolated(self):
        scene = generate_scene(simple_spec(), self.config)
        (ann,) = scene.annotations
        assert (ann.t0, ann.t1) == (0, 128)
        assert len(ann.frames) == 128
        mid = dict(tube_pairs(ann.frames, ann.boxes))[64]
        expect = scene.spec.objects[0].box_at(64)
        assert mid == expect
        assert 140 < mid.x0 < 160

    def test_masks_mark_foreground_objects(self):
        scene = generate_scene(simple_spec(), self.config)
        mask = scene.masks[0].decode()
        box = scene.spec.objects[0].box_at(0)
        assert mask[130, 120] == 1
        assert mask[int(box.y0) - 5, int(box.x0) - 5] == 0

    def test_background_flag_excluded_from_masks(self):
        spec = simple_spec(
            objects=(
                ObjectSpec("vehicle", ((0, BBox(10, 60, 10, 40)),
                                       (127, BBox(10, 60, 10, 40))),
                           foreground=False),
            ),
            activities=(),
        )
        scene = generate_scene(spec, self.config)
        assert all(mask.decode().sum() == 0 for mask in scene.masks)
        # the detector still sees the object
        assert len(scene.detections) == 128 // 8

    def test_dropout_removes_detections(self):
        spec = simple_spec(dropout=0.5, seed=3)
        scene = generate_scene(spec, self.config)
        assert 0 < len(scene.detections) < 16

    def test_jitter_keeps_boxes_close(self):
        # build-time check of the jitter level: sigma=2 on a 100 px box
        spec = SceneSpec(
            video_id="v", video_len=1000, width=640, height=480,
            objects=(ObjectSpec("person", ((0, BBox(100, 200, 100, 200)),
                                           (999, BBox(100, 200, 100, 200)))),),
            jitter_sigma=2.0, seed=5,
        )
        config = PipelineConfig(s_det=1)
        scene = generate_scene(spec, config)
        clean = BBox(100, 200, 100, 200)
        ious = [ref_bbox_iou(d.bbox, clean) for d in scene.detections]
        assert len(ious) == 1000
        assert float(np.mean(ious)) > 0.85

    def test_activity_outside_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            simple_spec(activities=(ActivitySpec(0, "walk", 0, 500),),
                        video_len=500)

    def test_waypoints_outside_frame_rejected(self):
        with pytest.raises(ValueError, match="outside the frame"):
            simple_spec(objects=(
                ObjectSpec("person", ((0, BBox(600, 700, 0, 10)),)),
            ))


class TestSpecSerialization:
    def test_round_trip(self, tmp_path):
        spec = simple_spec(jitter_sigma=1.5, dropout=0.1, seed=9)
        path = tmp_path / "spec.json"
        import json
        path.write_text(json.dumps(spec.to_json()))
        (back,) = SceneSpec.load(path)
        assert back == spec

    def test_list_of_specs(self, tmp_path):
        specs = [simple_spec(video_id=f"v{i}") for i in range(3)]
        path = tmp_path / "specs.json"
        import json
        path.write_text(json.dumps([s.to_json() for s in specs]))
        assert SceneSpec.load(path) == specs

    @pytest.mark.parametrize("where, value, message", [
        (("objects", 0, "foreground"), "false", "foreground must be true or false"),
        (("objects", 0, "foreground"), 0, "foreground must be true or false"),
        (("width",), 64.9, "width must be an integer"),
        (("height",), "480", "height must be an integer"),
        (("video_len",), "100", "video_len must be an integer"),
        (("seed",), 1.5, "seed must be an integer"),
        (("activities", 0, "t0"), 4.7, "t0 must be an integer"),
        (("activities", 0, "t1"), True, "t1 must be an integer"),
        (("activities", 0, "object"), "0", "object must be an integer"),
        (("objects", 0, "waypoints", 0, 0), 0.5, "waypoint frame must be"),
        (("objects", 0, "waypoints", 0, 1), "100", "box coordinates must be"),
        (("jitter_sigma",), float("nan"), "jitter_sigma must be a finite"),
        (("dropout",), "0.1", "dropout must be a finite"),
        (("video_id",), 7, "video_id must be a string"),
        (("objects", 0, "object_class"), None, "object_class must be a string"),
        (("activities", 0, "activity_class"), 3, "activity_class must be"),
        (("video_id",), MISSING, "lacks key 'video_id'"),
        (("dropout",), 1.5, "dropout=1.5 outside [0, 1]"),
        (("dropout",), -0.25, "dropout=-0.25 outside [0, 1]"),
        (("jitter_sigma",), -3.0, "jitter_sigma=-3.0 must be >= 0"),
    ])
    def test_fields_follow_record_rules(self, tmp_path, where, value, message):
        import json
        obj = simple_spec().to_json()
        *parents, last = where
        target = obj
        for key in parents:
            target = target[key]
        if value is MISSING:
            del target[last]
        else:
            target[last] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([simple_spec(video_id="ok").to_json(), obj]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*"
                                             rf"{re.escape(message)}"):
            SceneSpec.load(path)

    def test_integral_numbers_and_bools_read(self, tmp_path):
        import json
        obj = simple_spec().to_json()
        obj.update(width=640.0, seed=9.0)
        obj["objects"][0]["foreground"] = False
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        (back,) = SceneSpec.load(path)
        assert (back.width, back.seed) == (640, 9)
        assert type(back.width) is int and back.objects[0].foreground is False

    def test_non_object_spec_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[5]")
        with pytest.raises(ValueError, match="spec must be an object") as info:
            SceneSpec.load(path)
        assert str(info.value).startswith(f"{path}: ")
