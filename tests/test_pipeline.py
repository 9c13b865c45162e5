import json
import logging

import numpy as np
import pytest

from actpipe import pipeline
from actpipe.cli import main
from actpipe.config import PipelineConfig
from actpipe.evaluation import QUALITY_LEVELS
from actpipe.geometry import BBox
from actpipe.pipeline import (DEFAULT_FRAME_SIZE, PipelineInputs, _frame_sizes,
                              infer_video_lengths, run_pipeline)
from actpipe.records import (DetectionRecord, MaskFrame, read_records,
                             write_records)
from actpipe.synth import generate_corpus
from helpers import closure_scenes

CONFIG = PipelineConfig()


@pytest.fixture()
def closure_corpus(tmp_path):
    specs = closure_scenes()
    scenes = generate_corpus(specs, CONFIG)
    paths = {
        "detections": tmp_path / "detections.jsonl",
        "annotations": tmp_path / "annotations.jsonl",
        "masks": tmp_path / "masks.jsonl",
    }
    write_records([d for s in scenes for d in s.detections],
                  paths["detections"], "detections")
    write_records([a for s in scenes for a in s.annotations],
                  paths["annotations"], "annotations")
    write_records([m for s in scenes for m in s.masks],
                  paths["masks"], "masks")
    inputs = PipelineInputs(
        detections=paths["detections"],
        annotations=paths["annotations"],
        masks=paths["masks"],
        video_lengths={spec.video_id: spec.video_len for spec in specs},
        frame_sizes={spec.video_id: spec.frame_size for spec in specs},
    )
    return inputs, paths


class TestRunPipeline:
    def test_full_chain_closure(self, tmp_path, closure_corpus):
        inputs, _ = closure_corpus
        result = run_pipeline(CONFIG, inputs, tmp_path / "out")
        assert result.summary is not None
        assert result.summary["mean_naudc"] == 0.0
        assert result.summary["classes"]["walk"]["pmiss@0.02"] == 0.0
        assert result.summary["map_3d_iou"]["map"]["0.5"] == 1.0
        assert [s.name for s in result.stages] == [
            "track", "propose", "assign-labels", "filter", "score", "dedup",
            "merge-adjacent", "evaluate"]

    def test_proposal_count_matches_derived_rule(self, tmp_path,
                                                 closure_corpus):
        inputs, _ = closure_corpus
        result = run_pipeline(CONFIG, inputs, tmp_path / "out",
                              stages=("track", "propose"))
        proposals = list(read_records(result.outputs["propose"], "proposals"))
        # 192 frames at duration 64 / stride 16: 9 windows, 1 track per video
        per_video = {}
        for c in proposals:
            per_video[c.video_id] = per_video.get(c.video_id, 0) + 1
        assert per_video == {"act00": 9, "bg00": 9}

    def test_rerun_is_bit_identical(self, tmp_path, closure_corpus):
        inputs, _ = closure_corpus
        a = run_pipeline(CONFIG, inputs, tmp_path / "a")
        b = run_pipeline(CONFIG, inputs, tmp_path / "b")
        for key in ("propose", "assign-labels", "filter", "score", "dedup",
                    "merge-adjacent"):
            assert a.outputs[key].read_bytes() == b.outputs[key].read_bytes()

    def test_sentinel_filter_is_consistent(self, tmp_path, closure_corpus):
        # few positives -> calibrated thresholds are sentinels -> the chain
        # without the filter stage produces the identical instance set
        inputs, _ = closure_corpus
        with_filter = run_pipeline(CONFIG, inputs, tmp_path / "wf")
        without = run_pipeline(
            CONFIG, inputs, tmp_path / "nf",
            stages=("track", "propose", "assign-labels", "score", "dedup",
                    "merge-adjacent", "evaluate"))
        a = list(read_records(with_filter.outputs["merge-adjacent"],
                              "instances"))
        b = list(read_records(without.outputs["merge-adjacent"], "instances"))
        assert a == b

    def test_out_of_order_stages_rejected(self, tmp_path, closure_corpus):
        inputs, _ = closure_corpus
        with pytest.raises(ValueError, match="chain order"):
            run_pipeline(CONFIG, inputs, tmp_path / "out",
                         stages=("propose", "track"))

    def test_annotations_parsed_once(self, tmp_path, closure_corpus,
                                     monkeypatch):
        # no classes and no lengths given: both come from the records too
        inputs, paths = closure_corpus
        inputs.video_lengths = {}
        kinds = []

        def counting_read(path, kind):
            kinds.append(kind)
            return read_records(path, kind)

        monkeypatch.setattr(pipeline, "read_records", counting_read)
        result = run_pipeline(PipelineConfig(), inputs, tmp_path / "out")
        assert result.summary["mean_naudc"] == 0.0
        assert kinds.count("annotations") == 1

    def test_missing_input_names_stage(self, tmp_path):
        with pytest.raises(ValueError, match="'propose'"):
            run_pipeline(CONFIG, PipelineInputs(), tmp_path / "out",
                         stages=("propose",))


class TestVideoLengths:
    @pytest.fixture
    def detections_path(self, tmp_path):
        box = BBox(0, 10, 0, 10)
        dets = [DetectionRecord(v, f, "person", box, 0.9, 1)
                for v, last in (("a", 40), ("b", 57)) for f in range(0, last + 1, 8)
                ] + [DetectionRecord("b", 57, "person", box, 0.9, 2)]
        path = tmp_path / "detections.jsonl"
        write_records(sorted(dets, key=lambda d: (d.video_id, d.frame)), path,
                      "detections")
        return path

    def test_partial_lengths_filled_from_records(self, detections_path, caplog):
        inputs = PipelineInputs(detections=detections_path,
                                video_lengths={"a": 100})
        with caplog.at_level(logging.WARNING):
            lengths = infer_video_lengths(inputs)
        assert lengths == {"a": 100, "b": 58}
        assert "inferred from record files for b;" in caplog.text

    def test_known_videos_read_no_file(self, tmp_path):
        bad = tmp_path / "detections.jsonl"
        bad.write_text("not a record file\n", encoding="utf-8")
        inputs = PipelineInputs(detections=bad, video_lengths={"a": 100, "b": 7})
        assert infer_video_lengths(inputs, ["b", "a"]) == {"a": 100, "b": 7}

    def test_pipeline_proposes_on_video_without_length(self, tmp_path,
                                                       detections_path):
        inputs = PipelineInputs(detections=detections_path,
                                video_lengths={"a": 100})
        result = run_pipeline(CONFIG, inputs, tmp_path / "out",
                              stages=("propose",))
        proposals = list(read_records(result.outputs["propose"], "proposals"))
        assert {c.video_id for c in proposals} == {"a", "b"}
        assert result.total_frames == 158


class TestFrameSizes:
    @pytest.fixture
    def masks_path(self, tmp_path):
        shapes = {"a": (6, 4), "b": (9, 5), "c": (3, 7)}
        masks = [MaskFrame.from_array(v, f, np.zeros((h, w), dtype=np.uint8))
                 for v, (w, h) in shapes.items() for f in (0, 8, 16)]
        path = tmp_path / "masks.jsonl"
        write_records(masks, path, "masks")
        return path

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Masks parsed by ``_frame_sizes``, in order."""
        seen = []

        def counting_read(path, kind):
            for record in read_records(path, kind):
                seen.append(record)
                yield record

        monkeypatch.setattr(pipeline, "read_records", counting_read)
        return seen

    def test_first_mask_per_video_and_stops_early(self, masks_path, parsed):
        inputs = PipelineInputs(masks=masks_path, frame_sizes={"c": (64, 48)})
        sizes = _frame_sizes(inputs, ["b", "a", "c"])
        assert sizes == {"a": (6, 4), "b": (9, 5), "c": (64, 48)}
        # b's first mask is the fourth record; nothing after it is parsed
        assert len(parsed) == 4

    def test_video_without_masks_gets_default(self, masks_path, parsed):
        sizes = _frame_sizes(PipelineInputs(masks=masks_path), ["c", "zz"])
        assert (sizes["c"], sizes["zz"]) == ((3, 7), DEFAULT_FRAME_SIZE)
        assert len(parsed) == 9


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    def test_subcommand_chain(self, tmp_path):
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(
            [s.to_json() for s in closure_scenes()]))
        d = tmp_path
        assert self.run("simulate", spec_path, "--detections", d / "det.jsonl",
                        "--annotations", d / "ann.jsonl",
                        "--masks", d / "mask.jsonl") == 0
        assert self.run("track", d / "det.jsonl", "-o", d / "tracked.jsonl") == 0
        assert self.run("propose", d / "tracked.jsonl", "-o", d / "props.jsonl",
                        "--frame-size", "640x480",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        assert self.run("assign-labels", d / "props.jsonl",
                        "--annotations", d / "ann.jsonl",
                        "-o", d / "labeled.jsonl",
                        "--stats", d / "stats.jsonl") == 0
        assert self.run("filter", d / "labeled.jsonl", "--masks",
                        d / "mask.jsonl", "-o", d / "filtered.jsonl",
                        "--thresholds", d / "thr.jsonl") == 0
        assert self.run("score", d / "filtered.jsonl", "--oracle",
                        "-o", d / "scored.jsonl") == 0
        assert self.run("dedup", d / "scored.jsonl", "-o", d / "inst.jsonl",
                        "--set", "activity_classes=walk") == 0
        assert self.run("merge-adjacent", d / "inst.jsonl",
                        "-o", d / "merged.jsonl") == 0
        assert self.run("evaluate", d / "merged.jsonl",
                        "--annotations", d / "ann.jsonl",
                        "-o", d / "report.jsonl",
                        "--curves", d / "curves.jsonl", "--strict",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        (report,) = read_records(d / "report.jsonl", "reports")
        assert report.data["mean_naudc"] == 0.0
        assert report.data["map_3d_iou"]["map"]["0.5"] == 1.0

    def test_run_subcommand(self, tmp_path):
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(
            [s.to_json() for s in closure_scenes()]))
        assert self.run("simulate", spec_path,
                        "--detections", tmp_path / "det.jsonl",
                        "--annotations", tmp_path / "ann.jsonl",
                        "--masks", tmp_path / "mask.jsonl") == 0
        assert self.run("run", "--detections", tmp_path / "det.jsonl",
                        "--annotations", tmp_path / "ann.jsonl",
                        "--masks", tmp_path / "mask.jsonl",
                        "--out-dir", tmp_path / "out",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        (report,) = read_records(tmp_path / "out" / "evaluation.jsonl",
                                 "reports")
        assert report.data["mean_naudc"] == 0.0

    def test_external_scores_and_fusion(self, tmp_path):
        from actpipe.records import ScoredCube
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(
            [s.to_json() for s in closure_scenes()]))
        self.run("simulate", spec_path, "--detections", tmp_path / "det.jsonl",
                 "--annotations", tmp_path / "ann.jsonl",
                 "--masks", tmp_path / "mask.jsonl")
        self.run("track", tmp_path / "det.jsonl", "-o", tmp_path / "tr.jsonl")
        self.run("propose", tmp_path / "tr.jsonl", "-o", tmp_path / "pr.jsonl",
                 "--frame-size", "640x480", "--video-frames", "act00=192",
                 "--video-frames", "bg00=192")
        proposals = list(read_records(tmp_path / "pr.jsonl", "proposals"))
        a_path, b_path = tmp_path / "sa.jsonl", tmp_path / "sb.jsonl"
        write_records([ScoredCube(c, (0.2,)) for c in proposals], a_path,
                      "scored-proposals")
        write_records([ScoredCube(c, (0.6,)) for c in proposals], b_path,
                      "scored-proposals")
        assert self.run("score", tmp_path / "pr.jsonl",
                        "--from", a_path, "--from", b_path,
                        "-o", tmp_path / "fused.jsonl",
                        "--set", "activity_classes=walk") == 0
        fused = list(read_records(tmp_path / "fused.jsonl",
                                  "scored-proposals"))
        assert all(sc.scores == (pytest.approx(0.4),) for sc in fused)

    def test_filter_threshold_reuse(self, tmp_path):
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(
            [s.to_json() for s in closure_scenes()]))
        d = tmp_path
        self.run("simulate", spec_path, "--detections", d / "det.jsonl",
                 "--annotations", d / "ann.jsonl", "--masks", d / "mask.jsonl")
        self.run("track", d / "det.jsonl", "-o", d / "tr.jsonl")
        self.run("propose", d / "tr.jsonl", "-o", d / "pr.jsonl",
                 "--frame-size", "640x480", "--video-frames", "act00=192",
                 "--video-frames", "bg00=192")
        self.run("assign-labels", d / "pr.jsonl", "--annotations",
                 d / "ann.jsonl", "-o", d / "lab.jsonl")
        assert self.run("filter", d / "lab.jsonl", "--masks", d / "mask.jsonl",
                        "-o", d / "f1.jsonl", "--thresholds",
                        d / "thr.jsonl") == 0
        assert self.run("filter", d / "lab.jsonl", "--masks", d / "mask.jsonl",
                        "-o", d / "f2.jsonl", "--thresholds-in",
                        d / "thr.jsonl") == 0
        assert (d / "f1.jsonl").read_bytes() == (d / "f2.jsonl").read_bytes()

    def test_evaluate_with_proposal_quality(self, tmp_path):
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(
            [s.to_json() for s in closure_scenes()]))
        d = tmp_path
        self.run("simulate", spec_path, "--detections", d / "det.jsonl",
                 "--annotations", d / "ann.jsonl", "--masks", d / "mask.jsonl")
        self.run("run", "--detections", d / "det.jsonl",
                 "--annotations", d / "ann.jsonl", "--masks", d / "mask.jsonl",
                 "--out-dir", d / "out", "--video-frames", "act00=192",
                 "--video-frames", "bg00=192")
        assert self.run("evaluate", d / "out" / "instances_merged.jsonl",
                        "--annotations", d / "ann.jsonl",
                        "-o", d / "rep.jsonl", "--curves", d / "cur.jsonl",
                        "--proposals", d / "out" / "proposals_labeled.jsonl",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        (report,) = read_records(d / "rep.jsonl", "reports")
        quality = report.data["proposal_quality"]
        keys = [str(level) for level in QUALITY_LEVELS]
        assert list(quality["iou"]["levels"]) == keys
        assert list(quality["coverage"]["levels"]) == keys
        assert quality["iou"]["levels"]["0.0"] == 0.0

    def test_bench_subcommand(self, tmp_path):
        assert self.run("bench", "--detections", "1500",
                        "--out-dir", tmp_path / "bench") == 0
        (report,) = read_records(tmp_path / "bench" / "bench.jsonl", "reports")
        assert report.data["real_time_factor"] > 1.0
        stages = [s["stage"] for s in report.data["stages"]]
        assert stages == ["propose", "assign-labels", "filter", "score",
                          "dedup", "evaluate"]

    def test_missing_file_is_io_error(self, tmp_path):
        assert self.run("track", tmp_path / "absent.jsonl",
                        "-o", tmp_path / "out.jsonl") == 2

    def test_bad_config_is_contract_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d_prop = 64\ns_prop = 48\n")
        (tmp_path / "det.jsonl").write_text("#actpipe/detections/v1\n")
        assert self.run("track", tmp_path / "det.jsonl",
                        "-o", tmp_path / "out.jsonl", "--config", cfg) == 1

    def test_bad_records_is_contract_error(self, tmp_path):
        bad = tmp_path / "det.jsonl"
        bad.write_text("#actpipe/detections/v1\nnot json\n")
        assert self.run("track", bad, "-o", tmp_path / "out.jsonl") == 1
