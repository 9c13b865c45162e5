import argparse
import ast
import json
import logging
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from actpipe import evaluation, labeling, pipeline
from actpipe.cli import build_parser, main
from actpipe.config import PipelineConfig
from actpipe.dedup import SegmentCube, deduplicate, deduplicate_subsets
from actpipe.evaluation import QUALITY_LEVELS
from actpipe.geometry import BBox, Cube
from actpipe.pipeline import (CANONICAL_STAGES, DEFAULT_FRAME_SIZE, PipelineInputs,
                              infer_video_lengths, run_pipeline, track_ends)
from actpipe.records import (ActivityAnnotation, ActivityInstance,
                             DetectionRecord, MaskFrame, ReportRecord,
                             ScoredCube, read_detections, read_proposals,
                             read_records, write_records)
from actpipe.synth import generate_corpus
from actpipe.tracking import tracks_from_records
from helpers import closure_scenes, crowded_scenes

CONFIG = PipelineConfig()
# the record files one full run writes, by name without ".jsonl"
CLI_CHAIN_OUTPUTS = (
    "detections_tracked", "proposals", "proposals_labeled", "label_stats",
    "proposals_filtered", "filter_thresholds", "proposals_scored",
    "instances", "instances_merged", "det_curves", "evaluation")


def record_reads(monkeypatch, reads):
    """Append the path of every record file an actpipe module reads, by
    any reader, to ``reads``."""
    def recording(reader):
        def read(path, *kind):
            reads.append(Path(path))
            return reader(path, *kind)
        return read

    for name, module in list(sys.modules.items()):
        for reader in (read_records, read_detections, read_proposals):
            if name.startswith("actpipe") and hasattr(module, reader.__name__):
                monkeypatch.setattr(module, reader.__name__, recording(reader))


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

    def test_empty_stage_list_rejected(self, tmp_path):
        # it would time nothing, and divide by zero seconds
        with pytest.raises(ValueError, match="no stages"):
            run_pipeline(CONFIG, PipelineInputs(), tmp_path / "out", stages=[])
        assert not (tmp_path / "out").exists()

    def test_rates_over_zero_seconds_are_null(self, tmp_path, closure_corpus,
                                              monkeypatch):
        assert pipeline.StageTiming("track", 0.0, 4, 4).to_dict(10) == {
            "stage": "track", "seconds": 0.0, "records_in": 4, "records_out": 4,
            "records_per_sec": None, "frames_per_sec": None}
        # a clock that never moves: every stage takes zero seconds
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: 0.0)
        result = run_pipeline(CONFIG, closure_corpus[0], tmp_path / "out",
                              stages=["track"])
        text = result.outputs["timing"].read_text()
        assert "Infinity" not in text
        (timing,) = read_records(result.outputs["timing"], "reports")
        assert timing.data["real_time_factor"] is None
        assert timing.data["stages"][0]["records_per_sec"] is None

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

    @pytest.mark.parametrize("mode", ["explicit", "lengths-only", "neither",
                                      "some-lengths"])
    def test_inputs_read_once_and_outputs_never(self, tmp_path, closure_corpus,
                                                 monkeypatch, mode):
        # lengths and sizes come from records already parsed, plus at most
        # one pass over the masks when some are missing
        inputs, _ = closure_corpus
        if mode != "explicit":
            inputs.frame_sizes = {}
        if mode in ("neither", "some-lengths"):
            inputs.video_lengths = {"act00": 192} if mode == "some-lengths" else {}
        out_dir = tmp_path / "out"
        reads = []
        record_reads(monkeypatch, reads)
        result = run_pipeline(CONFIG, inputs, out_dir)
        assert result.summary["mean_naudc"] == 0.0
        detections, annotations, masks = (
            Path(p).resolve() for p in (inputs.detections, inputs.annotations,
                                        inputs.masks))
        reads = [p.resolve() for p in reads]
        counts = Counter(reads)
        assert set(counts) == {detections, annotations, masks}
        assert counts[detections] == counts[annotations] == 1
        assert counts[masks] == 1 if mode == "explicit" else counts[masks] <= 2
        assert not [p for p in reads if out_dir.resolve() in p.parents]

    def test_stage_path_builds_no_detection_record(self, tmp_path, closure_corpus,
                                                    monkeypatch):
        # detections go from file to file as per-video column batches: the
        # run and the track and propose subcommands build no record per line
        inputs, paths = closure_corpus
        built = []
        check = DetectionRecord.__post_init__

        def counting(record):
            built.append(record)
            check(record)

        monkeypatch.setattr(DetectionRecord, "__post_init__", counting)
        run_pipeline(CONFIG, inputs, tmp_path / "out")
        tracked, proposals = tmp_path / "tracked.jsonl", tmp_path / "props.jsonl"
        assert main(["track", str(paths["detections"]), "-o", str(tracked)]) == 0
        assert main(["propose", str(tracked), "-o", str(proposals)]) == 0
        assert built == []
        next(read_records(tracked, "detections"))
        assert len(built) == 1  # the counter sees records built elsewhere

    def test_stage_path_builds_no_cube_per_proposal(self, tmp_path, closure_corpus,
                                                     monkeypatch):
        # proposals go from propose through score as one table, in a run and
        # through the subcommands' files: the only cubes built are the
        # ground-truth cubes of the label stage and the quality report
        inputs, paths = closure_corpus
        built, gt_cubes = [], []
        check, resample = Cube.__post_init__, labeling.gt_to_cubes

        def counting(cube):
            built.append(cube)
            check(cube)

        def counted_gt_cubes(*args):
            cubes = resample(*args)
            gt_cubes.extend(cubes)
            return cubes

        monkeypatch.setattr(Cube, "__post_init__", counting)
        for module in (labeling, evaluation):
            monkeypatch.setattr(module, "gt_to_cubes", counted_gt_cubes)
        out = tmp_path / "out"
        run_pipeline(CONFIG, inputs, out, stages=CANONICAL_STAGES[:5])
        files = {name: tmp_path / f"{name}.jsonl" for name in (
            "labeled", "filtered", "scored", "instances", "ev", "curves")}
        for argv in (
                ["assign-labels", out / "proposals.jsonl", "-o", files["labeled"],
                 "--annotations", paths["annotations"]],
                ["filter", files["labeled"], "-o", files["filtered"],
                 "--masks", paths["masks"]],
                ["score", files["filtered"], "-o", files["scored"], "--oracle",
                 "--set", "activity_classes=walk"],
                ["dedup", files["scored"], "-o", files["instances"],
                 "--set", "activity_classes=walk"],
                ["evaluate", files["instances"], "-o", files["ev"], "--curves",
                 files["curves"], "--annotations", paths["annotations"],
                 "--proposals", files["labeled"]]):
            assert main([str(arg) for arg in argv]) == 0
        assert gt_cubes and len(built) == len(gt_cubes)
        assert files["scored"].read_bytes() == (out / "proposals_scored.jsonl").read_bytes()

    def test_dedup_builds_no_segment_cube_or_box_per_member(self, tmp_path, monkeypatch):
        # the dedup stage and the proposal-quality subsets run as array passes
        # over the scored table: no SegmentCube, and a box per emitted instance
        config = CONFIG.with_classes(object_classes=("person", "vehicle"),
                                     activity_classes=("carrying", "loading", "walking"))
        specs = crowded_scenes(3, seed=7)
        scenes = generate_corpus(specs, config)
        for kind in ("detections", "annotations", "masks"):
            write_records((r for s in scenes for r in getattr(s, kind)),
                          tmp_path / f"{kind}.jsonl", kind)
        inputs = PipelineInputs(
            **{kind: tmp_path / f"{kind}.jsonl"
               for kind in ("detections", "annotations", "masks")},
            video_lengths={s.video_id: s.video_len for s in specs},
            frame_sizes={s.video_id: s.frame_size for s in specs})
        run_pipeline(config, inputs, tmp_path / "out", stages=CANONICAL_STAGES[:5])
        table = read_proposals(tmp_path / "out" / "proposals_scored.jsonl",
                               "scored-proposals")
        built = Counter()
        for cls in (SegmentCube, BBox):
            def counting(obj, cls=cls, check=cls.__post_init__):
                built[cls] += 1
                check(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)

        instances = deduplicate(table, config)
        assert len(instances) > 10 and built[SegmentCube] == 0
        assert 0 < built[BBox] <= len(instances)
        built.clear()
        n = len(table)
        levels = deduplicate_subsets(table, [range(n), range(0, n, 2), range(n // 2)], config)
        assert built[SegmentCube] == 0
        assert 0 < built[BBox] <= sum(map(len, levels))

    def test_timings_cover_work_before_the_first_stage(self, tmp_path,
                                                      closure_corpus,
                                                      monkeypatch):
        # no classes configured: the run derives them from the annotations
        # before its first stage starts
        inputs, _ = closure_corpus

        def slow_read(path, kind):
            if kind == "annotations":
                time.sleep(0.3)
            return read_records(path, kind)

        monkeypatch.setattr(pipeline, "read_records", slow_read)
        result = run_pipeline(PipelineConfig(), inputs, tmp_path / "out",
                              stages=("track",))
        assert result.wall_seconds >= 0.3

    def test_evaluate_fills_lengths_of_annotation_only_videos(
            self, tmp_path, closure_corpus, caplog):
        # every tracked video has a length; one annotated video has no tracks
        inputs, paths = closure_corpus
        extra = ActivityAnnotation.with_static_box("zz", "walk", 10, 50,
                                                   BBox(0, 10, 0, 10))
        annotations = [*read_records(paths["annotations"], "annotations"), extra]
        inputs.annotations = tmp_path / "annotations_extra.jsonl"
        write_records(annotations, inputs.annotations, "annotations")
        with caplog.at_level(logging.WARNING):
            result = run_pipeline(CONFIG, inputs, tmp_path / "out")
        assert result.total_frames == 2 * 192 + 50
        assert "inferred from record files for zz;" in caplog.text

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
        tracks = tracks_from_records(read_records(detections_path, "detections"))
        with caplog.at_level(logging.WARNING):
            lengths = infer_video_lengths({"a": 100}, track_ends(tracks))
        assert lengths == {"a": 100, "b": 58}
        assert "inferred from record files for b;" in caplog.text

    def test_known_videos_read_no_file(self, tmp_path, detections_path):
        assert infer_video_lengths({"a": 100, "b": 7}, [("b", 58)]) == {
            "a": 100, "b": 7}
        # every length and size given: propose reads no masks or annotations
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a record file\n", encoding="utf-8")
        inputs = PipelineInputs(detections=detections_path, annotations=bad,
                                masks=bad, video_lengths={"a": 100, "b": 58},
                                frame_sizes={"a": (64, 48), "b": (64, 48)})
        result = run_pipeline(CONFIG.with_classes(activity_classes=("walk",)),
                              inputs, tmp_path / "out", stages=("propose",))
        assert result.total_frames == 158

    def test_track_past_explicit_length_rejected(self, tmp_path, detections_path):
        inputs = PipelineInputs(detections=detections_path,
                                video_lengths={"a": 100, "b": 57})
        with pytest.raises(ValueError, match="track 2 of video 'b' reaches frame "
                                             "57, past the video's length of 57"):
            run_pipeline(CONFIG, inputs, tmp_path / "out", stages=("propose",))

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
    def propose(self, tmp_path, monkeypatch):
        """Run the propose stage on one track in each of ``videos``, every
        length given; returns the frame sizes it used and the masks it
        parsed, in order."""
        shapes = {"a": (6, 4), "b": (9, 5), "c": (3, 7)}
        masks = [MaskFrame.from_array(v, f, np.zeros((h, w), dtype=np.uint8))
                 for v, (w, h) in shapes.items() for f in (0, 8, 16)]
        write_records(masks, tmp_path / "masks.jsonl", "masks")
        parsed, used = [], {}

        def counting_read(path, kind):
            for record in read_records(path, kind):
                if kind == "masks":
                    parsed.append(record)
                yield record

        def recording_proposals(tracks, lengths, sizes, config):
            used.update(sizes)
            return generate_proposals(tracks, lengths, sizes, config)

        generate_proposals = pipeline.generate_proposals
        monkeypatch.setattr(pipeline, "read_records", counting_read)
        monkeypatch.setattr(pipeline, "generate_proposals", recording_proposals)

        def run(videos, frame_sizes):
            detections = [DetectionRecord(v, 0, "person", BBox(0, 2, 0, 2), 0.9, 1)
                          for v in videos]
            write_records(detections, tmp_path / "detections.jsonl", "detections")
            inputs = PipelineInputs(detections=tmp_path / "detections.jsonl",
                                    masks=tmp_path / "masks.jsonl",
                                    video_lengths=dict.fromkeys(videos, 64),
                                    frame_sizes=frame_sizes)
            run_pipeline(CONFIG, inputs, tmp_path / "out", stages=("propose",))
            return used, parsed

        return run

    def test_first_mask_per_video_and_stops_early(self, propose):
        sizes, parsed = propose(["b", "a", "c"], {"c": (64, 48)})
        assert sizes == {"a": (6, 4), "b": (9, 5), "c": (64, 48)}
        # b's first mask is the fourth record; nothing after it is parsed
        assert len(parsed) == 4

    def test_video_without_masks_gets_default(self, propose, caplog):
        with caplog.at_level(logging.WARNING):
            sizes, parsed = propose(["c", "zz"], {})
        assert (sizes["c"], sizes["zz"]) == ((3, 7), DEFAULT_FRAME_SIZE)
        assert "no frame size for 'zz'" in caplog.text
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
                        "-o", d / "scored.jsonl",
                        "--set", "activity_classes=walk") == 0
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

    def test_run_table_prints_zero_second_rates_as_dash(
            self, tmp_path, closure_corpus, monkeypatch, capsys):
        monkeypatch.setattr(pipeline.time, "perf_counter", lambda: 0.0)
        assert self.run("run", "--detections", closure_corpus[1]["detections"],
                        "--stages", "track", "--out-dir", tmp_path / "out",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r" +track: +0\.000s +- rec/s +- frames/s", lines[0])
        assert lines[1] == "real-time factor: -x at 30 fps"

    def test_external_scores_and_fusion(self, tmp_path):
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

    @pytest.mark.parametrize("source", ["oracle", "one-file"])
    def test_fuse_weights_need_two_score_files(self, tmp_path, capsys, source):
        cube = Cube("v", BBox(0, 4, 0, 4), 0, 8, seed_track=1,
                    labels=frozenset({"walk"}))
        write_records([cube], tmp_path / "pr.jsonl", "proposals")
        write_records([ScoredCube(cube, (0.5,))], tmp_path / "s.jsonl",
                      "scored-proposals")
        (tmp_path / "w.json").write_text('{"walk": [1.0]}')
        chosen = (["--oracle"] if source == "oracle"
                  else ["--from", tmp_path / "s.jsonl"])
        assert self.run("score", tmp_path / "pr.jsonl", *chosen,
                        "--fuse-weights", tmp_path / "w.json",
                        "--set", "activity_classes=walk",
                        "-o", tmp_path / "out.jsonl") == 1
        assert "--fuse-weights needs two or more --from files" in \
            capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_track_input_not_utf8_exits_naming_line(self, tmp_path, capsys):
        det = tmp_path / "det.jsonl"
        det.write_bytes(b"#actpipe/detections/v1\n" + 2 * (
            b'{"video_id":"v\xff","frame":0,"object_class":"p","x0":0,"x1":2,'
            b'"y0":0,"y1":2,"confidence":0.5,"track_id":null}\n'))
        assert self.run("track", det, "-o", tmp_path / "tr.jsonl") == 1
        assert "det.jsonl:2: not UTF-8 (invalid start byte)" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [
        ("--video-frames", "v=abc"), ("--video-frames", "v=0"),
        ("--video-frames", "v=-8"), ("--video-frames", "v=7.5"),
        ("--video-frames", "v"), ("--frame-size", "0x0"),
        ("--frame-size", "640x-480"), ("--frame-size", "640"),
        ("--frame-size", "640.5x480"), ("--frame-size", "wxh")])
    def test_count_flags_take_positive_integers(self, tmp_path, capsys, flag, value):
        detections = [DetectionRecord("v", 0, "person", BBox(0, 10, 0, 10), 0.9, 1)]
        write_records(detections, tmp_path / "det.jsonl", "detections")
        assert self.run("propose", tmp_path / "det.jsonl", "-o",
                        tmp_path / "props.jsonl", flag, value) == 1
        assert f"error: {flag} {value!r}: expected " in capsys.readouterr().err
        assert not (tmp_path / "props.jsonl").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--video-frames", "=192"), "--video-frames '=192': empty video id"),
        (("--video-frames", "v=10", "--video-frames", "v=20"),
         "--video-frames 'v=20': video 'v' repeated"),
        (("--set", "s_merg=0.9", "--set", "s_merg=0.5"),
         "override 's_merg=0.5': duplicate key 's_merg'")])
    def test_keys_are_given_once(self, tmp_path, capsys, flags, message):
        detections = [DetectionRecord("v", 0, "person", BBox(0, 10, 0, 10), 0.9, 1)]
        write_records(detections, tmp_path / "det.jsonl", "detections")
        assert self.run("propose", tmp_path / "det.jsonl", "-o",
                        tmp_path / "props.jsonl", *flags) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "props.jsonl").exists()

    @pytest.mark.parametrize("override, message", [
        ("s_merg=1.5", "s_merg=1.5 outside [0, 1]"),
        ("s_low=-0.5", "s_low=-0.5 outside [0, 1]")])
    def test_run_rejects_thresholds_outside_unit_range(self, tmp_path, capsys,
                                                       override, message):
        detections = [DetectionRecord("v", 0, "person", BBox(0, 10, 0, 10), 0.9)]
        write_records(detections, tmp_path / "det.jsonl", "detections")
        assert self.run("run", "--detections", tmp_path / "det.jsonl",
                        "--out-dir", tmp_path / "out", "--set", override) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_rejects_dropout_above_one(self, tmp_path, capsys):
        spec = closure_scenes()[0].to_json()
        spec["dropout"] = 1.5
        spec_path = tmp_path / "scenes.json"
        spec_path.write_text(json.dumps(spec))
        assert self.run("simulate", spec_path, "--detections", tmp_path / "d.jsonl",
                        "--annotations", tmp_path / "a.jsonl",
                        "--masks", tmp_path / "m.jsonl") == 1
        err = capsys.readouterr().err
        assert f"error: {spec_path}: " in err and "dropout=1.5 outside [0, 1]" in err
        assert not (tmp_path / "d.jsonl").exists()

    def test_evaluate_logs_lengths_of_unnamed_videos(self, tmp_path, caplog):
        box = BBox(0, 10, 0, 10)
        write_records([ActivityAnnotation.with_static_box("v", "walk", 0, 50, box)],
                      tmp_path / "ann.jsonl", "annotations")
        write_records([ActivityInstance("v", "walk", 40, 80, box, 0.9)],
                      tmp_path / "inst.jsonl", "instances")
        with caplog.at_level(logging.WARNING):
            assert self.run("evaluate", tmp_path / "inst.jsonl", "--annotations",
                            tmp_path / "ann.jsonl", "-o", tmp_path / "rep.jsonl",
                            "--curves", tmp_path / "cur.jsonl", "--video-frames",
                            "v=80", "--video-frames", "typo=50", "--video-frames",
                            "blank=10") == 0
        assert caplog.text.count("explicit lengths for") == 1
        assert "explicit lengths for blank, typo, which no evaluated record " \
            "names" in caplog.text
        (curve,) = read_records(tmp_path / "cur.jsonl", "det-curves")
        # their 60 frames join the 30 negatives of v
        assert curve.points[0].tfa == 30 / 90

    def test_one_parser_per_process_keeps_no_values(self, tmp_path):
        """Two calls build the parser once, and the second sees none of the
        first call's repeated --video-frames."""
        box = BBox(0, 10, 0, 10)
        write_records([ActivityAnnotation.with_static_box("v", "walk", 0, 50, box)],
                      tmp_path / "ann.jsonl", "annotations")
        write_records([ActivityInstance("v", "walk", 40, 80, box, 0.9)],
                      tmp_path / "inst.jsonl", "instances")
        argv = ("evaluate", tmp_path / "inst.jsonl", "--annotations",
                tmp_path / "ann.jsonl", "-o", tmp_path / "rep.jsonl",
                "--curves", tmp_path / "cur.jsonl", "--video-frames", "v=80")
        build_parser.cache_clear()
        assert self.run(*argv, "--video-frames", "blank=10") == 0
        (curve,) = read_records(tmp_path / "cur.jsonl", "det-curves")
        assert curve.points[0].tfa == 30 / 40
        assert self.run(*argv) == 0
        (curve,) = read_records(tmp_path / "cur.jsonl", "det-curves")
        assert curve.points[0].tfa == 30 / 30
        assert build_parser.cache_info().misses == 1

    def test_ragged_scores_name_file_and_line(self, tmp_path, capsys):
        line = ('{"video_id":"v","t0":%d,"t1":8,"x0":0,"x1":2,"y0":0,"y1":2,'
                '"seed_track":1,"object_class":"person","fg_score":null,'
                '"labels":null,"scores":%s}\n')
        rag = tmp_path / "rag.jsonl"
        rag.write_text("#actpipe/scored-proposals/v1\n" + line % (0, "[0.5]")
                       + line % (4, "[0.5,0.25]"))
        assert self.run("dedup", rag, "-o", tmp_path / "out.jsonl",
                        "--set", "activity_classes=a") == 1
        assert capsys.readouterr().err == (
            f"error: {rag}:3: score vector of length 2 for ('v', 4, 8, 1), expected 1\n")

    def test_propose_rejects_track_past_video_length(self, tmp_path, capsys):
        detections = [DetectionRecord("v", f, "person", BBox(0, 10, 0, 10), 0.9, 1)
                      for f in range(0, 57, 8)]
        write_records(detections, tmp_path / "det.jsonl", "detections")
        assert self.run("propose", tmp_path / "det.jsonl", "-o",
                        tmp_path / "props.jsonl", "--video-frames", "v=7") == 1
        assert "video 'v' reaches frame 56, past the video's length of 7" in \
            capsys.readouterr().err
        assert not (tmp_path / "props.jsonl").exists()

    def test_thresholds_in_needs_a_thresholds_section(self, tmp_path, capsys):
        d = tmp_path
        write_records([Cube("v", BBox(0, 2, 0, 2), 0, 8, 1, "person")],
                      d / "props.jsonl", "proposals")
        write_records([MaskFrame.from_array("v", 0, np.ones((4, 4), dtype=np.uint8))],
                      d / "masks.jsonl", "masks")
        write_records([ReportRecord("proposal_stats", {"positive": 1})],
                      d / "stats.jsonl", "reports")
        assert self.run("filter", d / "props.jsonl", "--masks", d / "masks.jsonl",
                        "-o", d / "kept.jsonl", "--thresholds-in",
                        d / "stats.jsonl") == 1
        assert f"{d / 'stats.jsonl'}: no filter_thresholds section" in \
            capsys.readouterr().err
        assert not (d / "kept.jsonl").exists()

    @pytest.mark.parametrize("table", [
        '{"p_pos": 0.05}', '{"thresholds": [0.5]}',
        '{"thresholds": {"person": "x"}}', '{"thresholds": {"person": true}}',
        '{"thresholds": {"person": NaN}}'])
    def test_thresholds_in_table_is_checked(self, tmp_path, capsys, table):
        d = tmp_path
        write_records([Cube("v", BBox(0, 2, 0, 2), 0, 8, 1, "person")],
                      d / "props.jsonl", "proposals")
        write_records([MaskFrame.from_array("v", 0, np.ones((4, 4), dtype=np.uint8))],
                      d / "masks.jsonl", "masks")
        (d / "thr.jsonl").write_text("#actpipe/reports/v1\n"
                                     '{"section": "filter_thresholds", '
                                     f'"data": {table}}}\n')
        assert self.run("filter", d / "props.jsonl", "--masks", d / "masks.jsonl",
                        "-o", d / "kept.jsonl", "--thresholds-in",
                        d / "thr.jsonl") == 1
        assert f"error: {d / 'thr.jsonl'}: " in capsys.readouterr().err
        assert not (d / "kept.jsonl").exists()

    @pytest.mark.parametrize("table", [
        '{"walk": [0.5]}', '[0.5, 0.5]', '{"walk": [0.5, 0.5, 7]}',
        '{"walk": [true, false]}', '{"walk": [0.5, NaN]}', '{"walk": "ab"}',
        '{"walk": [0.5, 0.5], "run": [0.5, 0.5]}', '{"walk": [0.5, 0.5]',
        '{"walk": [0.5, 0.4]}'])
    def test_fuse_weights_table_is_checked(self, tmp_path, capsys, table):
        cube = Cube("v", BBox(0, 4, 0, 4), 0, 8, seed_track=1,
                    labels=frozenset({"walk"}))
        write_records([cube], tmp_path / "pr.jsonl", "proposals")
        for name in ("a", "b"):
            write_records([ScoredCube(cube, (0.5,))], tmp_path / f"{name}.jsonl",
                          "scored-proposals")
        (tmp_path / "w.json").write_text(table)
        assert self.run("score", tmp_path / "pr.jsonl", "--from", tmp_path / "a.jsonl",
                        "--from", tmp_path / "b.jsonl",
                        "--fuse-weights", tmp_path / "w.json",
                        "--set", "activity_classes=walk",
                        "-o", tmp_path / "out.jsonl") == 1
        assert f"error: {tmp_path / 'w.json'}: " in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_propose_parses_its_input_once(self, tmp_path, closure_corpus,
                                           monkeypatch, caplog):
        # no lengths or frame size given: both come from the tracks it parsed
        _, paths = closure_corpus
        tracked = tmp_path / "tracked.jsonl"
        assert self.run("track", paths["detections"], "-o", tracked) == 0
        reads = []
        record_reads(monkeypatch, reads)
        with caplog.at_level(logging.WARNING):
            assert self.run("propose", tracked, "-o", tmp_path / "props.jsonl") == 0
        assert reads == [tracked]
        assert "inferred from record files for act00, bg00;" in caplog.text
        assert "no frame size for 'act00'" in caplog.text

    def test_evaluate_infers_lengths_from_what_it_reads(self, tmp_path):
        # the annotation ends at frame 50, the prediction at 80
        box = BBox(0, 10, 0, 10)
        write_records([ActivityAnnotation.with_static_box("v", "walk", 0, 50, box)],
                      tmp_path / "ann.jsonl", "annotations")
        write_records([ActivityInstance("v", "walk", 40, 80, box, 0.9)],
                      tmp_path / "inst.jsonl", "instances")
        argv = ("evaluate", tmp_path / "inst.jsonl", "--annotations",
                tmp_path / "ann.jsonl", "-o", tmp_path / "rep.jsonl",
                "--curves", tmp_path / "cur.jsonl")
        assert self.run(*argv) == 0
        (curve,) = read_records(tmp_path / "cur.jsonl", "det-curves")
        # 80 frames, 50 positive: the prediction flags all 30 negatives
        assert curve.points[0].tfa == 1.0
        # proposal quality scores this proposal, which ends at frame 90
        write_records([Cube("v", box, 60, 90, seed_track=1,
                            labels=frozenset({"walk"}))],
                      tmp_path / "props.jsonl", "proposals")
        assert self.run(*argv, "--proposals", tmp_path / "props.jsonl") == 0
        # an explicit length still wins, and the prediction ends past it
        assert self.run(*argv, "--video-frames", "v=60") == 1

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

    @pytest.mark.parametrize("sizes", ["frame-size", "masks"])
    def test_subcommands_write_what_run_writes(self, tmp_path, closure_corpus,
                                               sizes):
        # same lengths and classes on both paths; the frame size is given, or
        # read from the first masks as run reads it
        _, paths = closure_corpus
        size_flags = (["--frame-size", "640x480"] if sizes == "frame-size"
                      else ["--masks", paths["masks"]])
        common = ["--set", "activity_classes=walk"]
        frames = ["--video-frames", "act00=192", "--video-frames", "bg00=192"]
        run_dir, d = tmp_path / "run", tmp_path / "cli"
        d.mkdir()
        assert self.run("run", "--detections", paths["detections"],
                        "--annotations", paths["annotations"],
                        "--masks", paths["masks"], "--out-dir", run_dir,
                        *common, *frames) == 0
        o = {name: d / f"{name}.jsonl" for name in CLI_CHAIN_OUTPUTS}
        chain = [
            ("track", paths["detections"], "-o", o["detections_tracked"]),
            ("propose", o["detections_tracked"], "-o", o["proposals"],
             *size_flags, *frames),
            ("assign-labels", o["proposals"], "--annotations",
             paths["annotations"], "-o", o["proposals_labeled"],
             "--stats", o["label_stats"]),
            ("filter", o["proposals_labeled"], "--masks", paths["masks"],
             "-o", o["proposals_filtered"],
             "--thresholds", o["filter_thresholds"]),
            ("score", o["proposals_filtered"], "--oracle",
             "-o", o["proposals_scored"]),
            ("dedup", o["proposals_scored"], "-o", o["instances"]),
            ("merge-adjacent", o["instances"], "-o", o["instances_merged"]),
            ("evaluate", o["instances_merged"], "--annotations",
             paths["annotations"], "-o", o["evaluation"],
             "--curves", o["det_curves"], "--strict", *frames),
        ]
        for command, *argv in chain:
            assert self.run(command, *argv, *common) == 0, command
        for name, path in o.items():
            assert path.read_bytes() == (run_dir / path.name).read_bytes(), name

    def test_run_stage_subset(self, tmp_path, closure_corpus):
        _, paths = closure_corpus
        out = tmp_path / "out"
        assert self.run("run", "--detections", paths["detections"],
                        "--masks", paths["masks"], "--out-dir", out,
                        "--stages", "track,propose",
                        "--video-frames", "act00=192",
                        "--video-frames", "bg00=192") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "detections_tracked.jsonl", "proposals.jsonl", "timing.jsonl"]
        (timing,) = read_records(out / "timing.jsonl", "reports")
        assert [s["stage"] for s in timing.data["stages"]] == ["track",
                                                               "propose"]

    def test_run_scores_match_score_subcommand(self, tmp_path,
                                               closure_corpus):
        _, paths = closure_corpus
        run = ["run", "--detections", paths["detections"],
               "--annotations", paths["annotations"], "--masks", paths["masks"],
               "--video-frames", "act00=192", "--video-frames", "bg00=192",
               "--set", "activity_classes=walk"]
        assert self.run(*run, "--out-dir", tmp_path / "filtered", "--stages",
                        "track,propose,assign-labels,filter") == 0
        proposals = list(read_records(
            tmp_path / "filtered" / "proposals_filtered.jsonl", "proposals"))
        score_files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for m, path in enumerate(score_files):
            write_records([ScoredCube(c, ((i * 7 + m * 3) % 10 / 9,))
                           for i, c in enumerate(proposals)],
                          path, "scored-proposals")
        out = tmp_path / "out"
        assert self.run(*run, "--out-dir", out, "--scores", score_files[0],
                        "--scores", score_files[1]) == 0
        assert self.run("score", out / "proposals_filtered.jsonl",
                        "--from", score_files[0], "--from", score_files[1],
                        "-o", tmp_path / "scored.jsonl",
                        "--set", "activity_classes=walk") == 0
        assert ((tmp_path / "scored.jsonl").read_bytes()
                == (out / "proposals_scored.jsonl").read_bytes())

    @pytest.mark.parametrize("flags, level", [([], logging.INFO),
                                              (["-v"], logging.DEBUG)])
    def test_verbose_logs_debug(self, tmp_path, monkeypatch, flags, level):
        calls = []
        monkeypatch.setattr(logging, "basicConfig",
                            lambda **kwargs: calls.append(kwargs))
        (tmp_path / "det.jsonl").write_text("#actpipe/detections/v1\n")
        assert self.run(*flags, "track", tmp_path / "det.jsonl",
                        "-o", tmp_path / "out.jsonl") == 0
        assert [kwargs["level"] for kwargs in calls] == [level]

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

    def test_deeply_nested_line_is_contract_error(self, tmp_path, capsys):
        bad = tmp_path / "det.jsonl"
        bad.write_text("#actpipe/detections/v1\n" + "[" * 200_000 + "\n")
        assert self.run("track", bad, "-o", tmp_path / "out.jsonl") == 1
        assert "det.jsonl:2: maximum recursion" in capsys.readouterr().err


def test_every_cli_flag_has_a_caller():
    """A flag that no test or benchmark passes is a setting nothing checks."""
    root = Path(__file__).resolve().parent.parent
    # the tests, and the benchmark modules that run the CLI
    callers = sorted(root.glob("tests/*.py")) + [
        path for path in sorted(root.glob("perfbench/*.py"))
        if "cli.main(" in path.read_text(encoding="utf-8")]
    code = "\n".join(path.read_text(encoding="utf-8") for path in callers)

    def actions(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
            elif action.option_strings and action.dest != "help":
                yield action

    # an option passed as its own argv item or as "--flag=value"
    uncalled = {"/".join(action.option_strings) for action in actions(build_parser())
                if not any(re.search(rf"[\"']{re.escape(flag)}[\"'=]", code)
                           for flag in action.option_strings)}
    assert sorted(uncalled) == []


def test_every_reference_has_a_caller():
    """A ``ref_*`` in ``helpers`` that no test reaches, directly or through
    another reference, checks nothing."""
    tests = Path(__file__).resolve().parent

    def names(tree):
        return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}

    helpers = ast.parse((tests / "helpers.py").read_text(encoding="utf-8"))
    uses = {node.name: names(node) for node in helpers.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("ref_")}
    reached = set().union(*(names(ast.parse(path.read_text(encoding="utf-8")))
                            for path in tests.glob("test_*.py"))) & uses.keys()
    frontier = list(reached)
    while frontier:
        for name in uses[frontier.pop()] & uses.keys() - reached:
            reached.add(name)
            frontier.append(name)
    assert sorted(uses.keys() - reached) == []


def test_only_the_cli_prints():
    """Library modules report through ``logging``; only ``cli.py`` prints."""
    package = Path(__file__).resolve().parent.parent / "src" / "actpipe"
    printing = sorted(
        f"{path.name}:{node.lineno}" for path in package.glob("*.py")
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print")
    assert printing == []


def test_the_cli_imports_no_stage_module():
    """Stage subcommands run ``pipeline.run_stage``; a stage module imported
    into ``cli.py`` would make room for a second stage body."""
    stage_modules = {"tracking", "proposals", "labeling", "filtering", "scoring",
                     "dedup", "evaluation"}
    cli = Path(__file__).resolve().parent.parent / "src" / "actpipe" / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert sorted(imported & stage_modules) == []
