"""Child process of the benchmark: run one workload's chain repeatedly.

    python3 perfbench/chain.py REQUEST.json

The request names the workload, the corpus directory with its video
lengths and frame sizes, the output directory, the result file to write,
the seconds to keep repeating the chain for and, for a traced run, the
span file. The chain runs at least once (exactly once when traced) and is
repeated, each time into an emptied output directory, until another pass
would end past the budget. Each pass records its wall and CPU time and
the sha256 of every file it wrote; the last pass's files stay for the
parent to check. A calibration block (``calibrate.py``) runs before the
first pass and after each one. The process does nothing else, so its peak
RSS is the chain's.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from actpipe import cli  # noqa: E402
from actpipe import pipeline  # noqa: E402

from calibrate import calibrate  # noqa: E402
from checks import STAGE_OUTPUTS, file_digest  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402


def _cli_argv(stage: str, corpus: Path, out: Path, request: dict,
              config) -> list:
    """Arguments of one `actpipe` subcommand; files mirror run_pipeline's."""
    settings = [f"--set=object_classes={','.join(config.object_classes)}",
                f"--set=activity_classes={','.join(config.activity_classes)}"]
    frames = [f"--video-frames={v}={n}"
              for v, n in sorted(request["video_lengths"].items())]
    sizes = {tuple(s) for s in request["frame_sizes"].values()}
    if len(sizes) != 1:
        raise ValueError("the propose subcommand takes one frame size")
    (width, height), = sizes
    ann = str(corpus / "annotations.jsonl")
    o = {name: str(out / f"{name}.jsonl") for name in (
        "detections_tracked", "proposals", "proposals_labeled", "label_stats",
        "proposals_filtered", "filter_thresholds", "proposals_scored",
        "instances", "instances_merged", "evaluation", "det_curves")}
    argv = {
        "track": [str(corpus / "detections.jsonl"), "-o", o["detections_tracked"]],
        "propose": [o["detections_tracked"], "-o", o["proposals"],
                    f"--frame-size={width}x{height}", *frames],
        "assign-labels": [o["proposals"], "--annotations", ann,
                          "-o", o["proposals_labeled"], "--stats", o["label_stats"]],
        "filter": [o["proposals_labeled"], "--masks", str(corpus / "masks.jsonl"),
                   "-o", o["proposals_filtered"],
                   "--thresholds", o["filter_thresholds"]],
        "score": [o["proposals_filtered"], "-o", o["proposals_scored"], "--oracle"],
        "dedup": [o["proposals_scored"], "-o", o["instances"]],
        "merge-adjacent": [o["instances"], "-o", o["instances_merged"]],
        "evaluate": [o["instances_merged"], "--annotations", ann,
                     "-o", o["evaluation"], "--curves", o["det_curves"],
                     "--strict", "--proposals", o["proposals_labeled"], *frames],
    }[stage]
    return [stage, *settings, *argv]


def run_chain(workload, request: dict, config, tracer) -> dict:
    """One pass of the chain into an emptied output directory."""
    corpus = Path(request["corpus"])
    out = Path(request["out"])
    shutil.rmtree(out, ignore_errors=True)
    result = {"error": None, "failed_stages": []}
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        if workload.interface == "pipeline":
            inputs = pipeline.PipelineInputs(
                detections=corpus / "detections.jsonl",
                annotations=corpus / "annotations.jsonl",
                masks=corpus / "masks.jsonl",
                video_lengths=request["video_lengths"],
                frame_sizes={v: tuple(s)
                             for v, s in request["frame_sizes"].items()})
            start = time.perf_counter()
            cpu_start = time.process_time()
            # looked up at call time so a traced run sees the wrapper
            pipeline.run_pipeline(config, inputs, out, stages=workload.stages,
                                  strict=workload.strict)
        else:
            argvs = [(s, _cli_argv(s, corpus, out, request, config))
                     for s in workload.stages]
            out.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            cpu_start = time.process_time()
            for stage, argv in argvs:
                if tracer is not None:
                    tracer.open_stage()
                code = cli.main(argv)
                if tracer is not None:
                    tracer.close_stage(stage)
                if code != 0:
                    result["failed_stages"].append(stage)
                    result["error"] = f"{stage} exited with code {code}"
                    break
    except Exception:  # noqa: BLE001  (reported to the parent as a failure)
        result["error"] = traceback.format_exc(limit=8)
    end = time.perf_counter()
    cpu_end = time.process_time()
    result.update(
        wall_s=end - start,
        cpu_s=cpu_end - cpu_start,
        digests={name: file_digest(out / name)
                 for stage in workload.stages for name in STAGE_OUTPUTS[stage]
                 if (out / name).is_file()},
    )
    return result


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = WORKLOADS[request["workload"]]
    config = config_for(workload)

    began = time.perf_counter()
    tracer = None
    if request.get("spans"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    passes = []
    # the blocks before and after a pass bracket it
    calibration_s = [calibrate()]
    while True:
        passes.append(run_chain(workload, request, config, tracer))
        calibration_s.append(calibrate())
        last = passes[-1]
        if (last["error"] or tracer is not None
                or time.perf_counter() - began + last["wall_s"]
                > request["seconds"]):
            break
    result = {
        "started_at": began,
        "passes": passes,
        "calibration_s": calibration_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(Path(request["spans"]))
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
