"""Output bytes pinned: the sha256 of every file a small seeded run writes.

Each case builds its corpus with ``actpipe.synth`` from fixed seeds, in the
shape of one benchmark workload but small, and runs the chain. The digests
of every output file except ``timing.jsonl`` (it holds wall times) must
equal the committed table, ``digests.json`` beside this file. A refactor
that promises byte-identical output passes unchanged; on a mismatch the
test names the case and the file and writes the table with this run's
digests to its temporary directory, so the change reads as a diff.

The digests depend on numpy's ``default_rng`` streams and on Python's float
repr. A version change that moves either means regenerating the table,
which a deliberate format change does too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from actpipe.cli import main
from actpipe.config import PipelineConfig
from actpipe.pipeline import BENCH_STAGES, PipelineInputs, _bench_specs, \
    run_pipeline
from actpipe.records import write_records
from actpipe.synth import generate_corpus
from helpers import closure_scenes, crowded_scenes

TABLE = Path(__file__).with_name("digests.json")
CLASSES = {"long": ("walking", "driving", "loading"),
           "crowded": ("carrying", "loading", "walking"),
           "cli": ("carrying", "loading", "walking"),
           "closure": ("walk",)}
# the output files of the CLI chain, by name without ".jsonl"
CLI_OUTPUTS = ("detections_tracked", "proposals", "proposals_labeled",
               "label_stats", "proposals_filtered", "filter_thresholds",
               "proposals_scored", "instances", "instances_merged",
               "det_curves", "evaluation")


def _specs(case):
    if case == "long":
        return _bench_specs(PipelineConfig(), 3072, seed=3)
    if case == "closure":
        return closure_scenes()
    return crowded_scenes(6 if case == "crowded" else 4,
                          seed=7 if case == "crowded" else 11)


def _write_corpus(case, directory):
    """The case's input files, config and per-video lengths."""
    config = PipelineConfig().with_classes(object_classes=("person", "vehicle"),
                                           activity_classes=CLASSES[case])
    specs = _specs(case)
    scenes = generate_corpus(specs, config)
    for kind in ("detections", "annotations", "masks"):
        write_records((r for s in scenes for r in getattr(s, kind)),
                      directory / f"{kind}.jsonl", kind)
    inputs = PipelineInputs(
        detections=directory / "detections.jsonl",
        annotations=directory / "annotations.jsonl",
        masks=directory / "masks.jsonl",
        video_lengths={s.video_id: s.video_len for s in specs},
        frame_sizes={s.video_id: s.frame_size for s in specs})
    return config, inputs


def _run_cli(config, inputs, out):
    """Every subcommand in chain order, handing files on."""
    out.mkdir()
    o = {name: str(out / f"{name}.jsonl") for name in CLI_OUTPUTS}
    common = [f"--set=object_classes={','.join(config.object_classes)}",
              f"--set=activity_classes={','.join(config.activity_classes)}"]
    frames = [f"--video-frames={v}={n}"
              for v, n in sorted(inputs.video_lengths.items())]
    (width, height), = set(inputs.frame_sizes.values())
    ann, masks = str(inputs.annotations), str(inputs.masks)
    chain = [
        ("track", str(inputs.detections), "-o", o["detections_tracked"]),
        ("propose", o["detections_tracked"], "-o", o["proposals"],
         f"--frame-size={width}x{height}", *frames),
        ("assign-labels", o["proposals"], "--annotations", ann,
         "-o", o["proposals_labeled"], "--stats", o["label_stats"]),
        ("filter", o["proposals_labeled"], "--masks", masks,
         "-o", o["proposals_filtered"], "--thresholds", o["filter_thresholds"]),
        ("score", o["proposals_filtered"], "-o", o["proposals_scored"], "--oracle"),
        ("dedup", o["proposals_scored"], "-o", o["instances"]),
        ("merge-adjacent", o["instances"], "-o", o["instances_merged"]),
        ("evaluate", o["instances_merged"], "--annotations", ann,
         "-o", o["evaluation"], "--curves", o["det_curves"], "--strict",
         "--proposals", o["proposals_labeled"], *frames),
    ]
    for stage, *argv in chain:
        assert main([stage, *common, *argv]) == 0, stage


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "timing.jsonl"}


@pytest.mark.parametrize("case", ["long", "crowded", "cli", "closure"])
def test_outputs_match_committed_digests(case, tmp_path):
    config, inputs = _write_corpus(case, tmp_path)
    out = tmp_path / "out"
    if case == "cli":
        _run_cli(config, inputs, out)
    else:
        # the long case is strict too, so static-box instances meet mAP
        run_pipeline(config, inputs, out,
                     stages=BENCH_STAGES if case == "long" else None,
                     strict=True)
    got = _digests(out)
    table = json.loads(TABLE.read_text())
    want = table.get(case, {})
    if got != want:
        table[case] = got
        new = tmp_path / "digests.json"
        new.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        changed = sorted(name for name in got.keys() | want.keys()
                         if got.get(name) != want.get(name))
        pytest.fail(f"case {case!r}: {', '.join(changed)} differ from "
                    f"{TABLE.name}; this run's table is {new}")
