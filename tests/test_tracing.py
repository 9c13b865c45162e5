"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps the functions it names by name and binds
their parameters by name, so a refactor that renames either breaks the
traced benchmark run. This runs its ``install`` in a fresh interpreter (it
rebinds module globals) on the closure scenes (the whole chain, then the
evaluate subcommand with a proposal-quality section) and checks that every
traced function wraps and is called, and that every stage run gets a span.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import importlib, json, sys
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench"), str(root / "tests")]

from tracing import TRACED_FUNCTIONS, Tracer, install, layer_metrics
from actpipe.config import PipelineConfig
from actpipe import cli, pipeline
from actpipe.pipeline import CANONICAL_STAGES, PipelineInputs
from actpipe.records import write_records
from actpipe.synth import generate_corpus
from helpers import closure_scenes

def current(layer, name):
    return getattr(importlib.import_module(f"actpipe.{layer}"), name)

originals = {(layer, name): current(layer, name)
             for layer, names in TRACED_FUNCTIONS.items() for name in names}
tracer = Tracer()
install(tracer)

config = PipelineConfig()
specs = closure_scenes()
scenes = generate_corpus(specs, config)
for kind in ("detections", "annotations", "masks"):
    write_records([r for s in scenes for r in getattr(s, kind)],
                  out / f"{kind}.jsonl", kind)
inputs = PipelineInputs(
    **{kind: out / f"{kind}.jsonl" for kind in ("detections", "annotations", "masks")},
    video_lengths={s.video_id: s.video_len for s in specs},
    frame_sizes={s.video_id: s.frame_size for s in specs})
# looked up at call time, so the traced wrapper runs
pipeline.run_pipeline(config, inputs, out / "run")
# the proposal-quality report runs only from the evaluate subcommand,
# timed as the benchmark's staged chain times it
tracer.open_stage()
code = cli.main([
    "evaluate", str(out / "run" / "instances_merged.jsonl"),
    "--annotations", str(out / "annotations.jsonl"), "-o", str(out / "ev.jsonl"),
    "--curves", str(out / "curves.jsonl"), "--strict",
    "--proposals", str(out / "run" / "proposals_labeled.jsonl"),
    *(f"--video-frames={s.video_id}={s.video_len}" for s in specs)])
tracer.close_stage("evaluate")
assert code == 0
print(json.dumps({
    "traced": [f"{layer}.{name}" for layer, name in originals],
    "unwrapped": [f"{layer}.{name}" for (layer, name), f in originals.items()
                  if getattr(current(layer, name), "__wrapped__", None) is not f],
    "spans": sorted({span["name"] for span in tracer.spans}),
    "stages": list(CANONICAL_STAGES),
    "metrics": layer_metrics(tracer.spans),
}))
"""


def test_tracer_wraps_every_traced_function(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["unwrapped"] == []
    assert set(report["traced"]) - set(report["spans"]) == set()
    assert {f"stage.{s}" for s in report["stages"]} <= set(report["spans"])
    for stage in report["stages"]:
        assert report["metrics"][f"stage.{stage}.compute_s"] > 0.0
    assert report["metrics"]["tracking.tracks_out"] > 0
    assert report["metrics"]["dedup.collapse_ratio"] > 0.0

