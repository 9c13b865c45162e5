"""Benchmark of the actpipe stage chain on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The benchmark uses
the package in ``src/`` as it is; there is nothing to build.

Set-up generates the workload's corpus from the seed several times (the
copies must be byte-identical) and records the generation times. Then, for
``--seconds``, it runs the chain in CHILDREN child processes
(``chain.py``), one at a time, each repeating the chain for its share of
the time, so the chain is a closed loop on one single-threaded process.
Every pass's output files are digested; the digests must equal those of
the first child's output that passed its checks, or those an earlier
invocation of the same code and seed cached in this checkout. With
``--trace 1`` one more child runs the chain once with the layers wrapped
(``tracing.py``); it must write the same digests, and its spans give the
per-layer metrics.

Times are scaled to a quiet host (``calibrate.py``): the host this runs
on is shared, and other tenants' load slows this process by up to 2x for
stretches of a fraction of a second to minutes. A calibration kernel that
calls nothing of actpipe runs before and after every pass and every corpus
generation, and each time is scaled by how much slower than on a quiet
host the kernel ran around it, to the workload's ``host_exponent``.
``wall_s`` is the median scaled pass; the unscaled times are kept in the
result file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
stage call or one corpus generation; it fails when it raises, exits
non-zero or fails an output check. The full result, with the run manifest
and every pass, is written to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# working files of one invocation, removed at exit; results and the digest
# cache persist in RESULTS
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results"
SETUP_REPEATS = 5
# the measured seconds are split evenly over this many child processes
CHILDREN = 2
# a child may run this much longer than its share before it is killed,
# and none runs past HARD_LIMIT_S from the start (exit within 180 s)
CHILD_TIMEOUT_S = 60
HARD_LIMIT_S = 165
# the chain is measured on one thread, whatever numpy's libraries default to
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

if not (ROOT / "src" / "actpipe" / "__init__.py").is_file():
    sys.exit(f"{ROOT / 'src' / 'actpipe'} not found: run the benchmark "
             "from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import actpipe  # noqa: E402
import numpy  # noqa: E402

from calibrate import calibrate, scale  # noqa: E402
from checks import STAGE_OUTPUTS, check_outputs, count_records, \
    evaluation_summary, file_digest  # noqa: E402
from tracing import layer_metrics, layer_unit  # noqa: E402
from workloads import INPUT_KINDS, WORKLOADS, config_for, \
    write_corpus  # noqa: E402

END_TO_END_UNITS = {
    "rtf": "video_s/s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "one_minus_naudc": "ratio",
    "pd_0.15": "ratio",
}


def code_hash() -> str:
    """Digest of the program and benchmark sources; keys the digest cache."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=30).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src",
             "perfbench", "BENCHMARK.json"],
            capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}
    return {"rev": rev, "dirty": bool(status.strip())}


def manifest(workload: str, seed: int, corpus) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "actpipe": actpipe.__version__,
        "code_sha256": code_hash(),
        "frames": corpus.total_frames,
        "inputs": {kind: {"bytes": corpus.path(kind).stat().st_size,
                          "records": count_records(corpus.path(kind))}
                   for kind, _ in INPUT_KINDS},
    }


def set_up(workload, seed: int, work: Path):
    """Generate the corpus SETUP_REPEATS times; the copies must agree.
    Returns the corpus, the scaled generation times, the calibration
    kernel's times and the number of copies that differ."""
    times, digests, corpus = [], [], None
    blocks = [calibrate()]
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        corpus = write_corpus(workload, seed, work / "corpus")
        blocks.append(calibrate())
        times.append(scale(corpus.generate_s, blocks[-2] + blocks[-1],
                           workload.host_exponent))
        digests.append({kind: file_digest(corpus.path(kind))
                        for kind, _ in INPUT_KINDS})
    mismatched = sum(1 for d in digests if d != digests[0])
    return corpus, times, [t for block in blocks for t in block], mismatched


def run_child(workload, corpus, work: Path, seconds: float,
              traced: bool, deadline: float) -> dict:
    """One child process repeating the chain for ``seconds`` (once when
    traced); returns its passes, start-up time, peak RSS and the checks of
    the output its last pass left."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    request = {
        "workload": workload.name,
        "corpus": str(corpus.directory),
        "video_lengths": corpus.video_lengths,
        "frame_sizes": corpus.frame_sizes,
        "out": str(out),
        "seconds": seconds,
        "result": str(work / "chain_result.json"),
        "spans": str(work / "spans.jsonl") if traced else None,
    }
    request_path = work / "chain_request.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    Path(request["result"]).unlink(missing_ok=True)

    spawned = time.perf_counter()
    timeout = max(min(seconds + CHILD_TIMEOUT_S, deadline - spawned), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "chain.py"),
             str(request_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env={**os.environ, **SINGLE_THREAD}, timeout=timeout)
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired:
        stderr, code = f"chain timed out after {timeout:.0f}s", -1
    finished = time.perf_counter()

    try:
        child = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        child = {"started_at": finished, "peak_rss_kib": 0, "passes": [{
            "error": f"child exited {code} without a result: "
                     f"{stderr[-2000:]}", "failed_stages": [],
            "wall_s": finished - spawned, "cpu_s": 0.0, "digests": {}}],
            "calibration_s": [calibrate()] * 2}
    last = child["passes"][-1]
    if code != 0 and not last["error"]:
        last["error"] = f"child exited {code}: {stderr[-2000:]}"
    blocks = child["calibration_s"]
    child["startup_s"] = scale(child["started_at"] - spawned, blocks[0],
                               workload.host_exponent)
    for i, chain in enumerate(child["passes"]):
        chain["scaled_s"] = scale(chain["wall_s"], blocks[i] + blocks[i + 1],
                                  workload.host_exponent)
    _, child["problems"] = check_outputs(out, workload.stages)
    child["clean"] = not (child["problems"] or last["error"]
                          or last["failed_stages"])
    if child["clean"]:
        summary = evaluation_summary(out)
        child["quality"] = {
            "mean_naudc": summary["mean_naudc"],
            "mean_pmiss@0.15": summary["mean_pmiss@0.15"],
            "map_3d_iou": summary.get("map_3d_iou", {}).get("mean", 0.0),
        }
    return child


def failed_stages(chain: dict, problems: dict, reference: dict,
                  stages) -> dict:
    """Stage -> reason, for the stages of one pass of the chain that failed,
    failed a check or wrote other bytes than the reference pass."""
    failed = {stage: "call failed" for stage in chain["failed_stages"]}
    failed.update((stage, "; ".join(found))
                  for stage, found in problems.items())
    for stage in stages:
        for name in STAGE_OUTPUTS[stage]:
            if name in reference and chain["digests"].get(name) != reference[name]:
                failed.setdefault(stage, f"{name} differs from the reference run")
    if chain["error"] and not failed:
        failed[stages[-1]] = "chain raised after its last stage"
    return failed


def pass_failures(child: dict, reference: dict, stages) -> list:
    """failed_stages of each pass; the output checks apply to the last."""
    passes = child["passes"]
    return [failed_stages(chain, child["problems"] if i == len(passes) - 1
                          else {}, reference, stages)
            for i, chain in enumerate(passes)]


def reference_digests(workload: str, seed: int, children) -> dict:
    """Digests an earlier invocation of this code, workload and seed cached,
    else those of the last pass of the first child whose output passed its
    checks, which are then cached for later invocations. Empty when no
    child's did."""
    path = RESULTS / f"digests-{workload}-seed{seed}-{code_hash()[:16]}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    clean = next((c for c in children if c["clean"]), None)
    if clean is None:
        return {}
    digests = clean["passes"][-1]["digests"]
    partial = path.with_suffix(f".{os.getpid()}")
    partial.write_text(json.dumps(digests, indent=1), encoding="utf-8")
    os.replace(partial, path)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"run-{workload.name}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work: Path) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    corpus, generate_s, kernel_s, bad_inputs = set_up(workload, args.seed,
                                                      work)
    info = manifest(workload.name, args.seed, corpus)
    print("manifest " + json.dumps(info), flush=True)

    children = []
    measure_start = time.perf_counter()
    for i in range(CHILDREN):
        left = args.seconds - (time.perf_counter() - measure_start)
        children.append(run_child(workload, corpus, work,
                                  max(left, 0.0) / (CHILDREN - i), False,
                                  deadline))

    reference = reference_digests(workload.name, args.seed, children)
    runs = children + ([run_child(workload, corpus, work, 0.0, True,
                                     deadline)]
                       if args.trace else [])
    failures = [pass_failures(c, reference, workload.stages) for c in runs]
    passes = [chain for c in children for chain in c["passes"]]
    passed = [not f for fs in failures[:len(children)] for f in fs]
    good = [chain for chain, ok in zip(passes, passed) if ok] or passes
    wall = statistics.median(chain["scaled_s"] for chain in good)
    video_s = corpus.total_frames / config_for(workload).video_fps
    quality = next((c["quality"] for c in children if "quality" in c),
                   {"mean_naudc": 1.0, "mean_pmiss@0.15": 1.0,
                    "map_3d_iou": 0.0})
    end_to_end = {
        "rtf": video_s / wall,
        "wall_s": wall,
        "peak_rss_mb": statistics.median(c["peak_rss_kib"]
                                         for c in children) / 1024,
        "setup_s": (statistics.median(generate_s)
                    + statistics.median(c["startup_s"] for c in children)),
        "one_minus_naudc": 1.0 - quality["mean_naudc"],
        "pd_0.15": 1.0 - quality["mean_pmiss@0.15"],
    }
    if args.trace:
        traced = runs[-1]["passes"][0]
        spans_path = work / "spans.jsonl"
        spans = ([json.loads(line) for line in
                  spans_path.read_text(encoding="utf-8").splitlines()]
                 if spans_path.is_file() else [])
        values = layer_metrics(spans)
        values["trace_overhead_s"] = traced["scaled_s"] - wall
        values["evaluation.map_3d_iou"] = quality["map_3d_iou"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    flat = [f for fs in failures for f in fs]
    attempted = SETUP_REPEATS + len(workload.stages) * len(flat)
    failed = bad_inputs + sum(len(f) for f in flat)
    errors = [chain["error"] for c in runs for chain in c["passes"]
              if chain["error"]]
    problems = [f"pass {i}: {stage}: {reason}"
                for i, f in enumerate(flat) for stage, reason in f.items()]
    if bad_inputs:
        problems.append(f"{bad_inputs} corpus copies differ from the first")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    kernel_s += [t for c in children for block in c["calibration_s"]
                 for t in block]
    # kept beside the end-to-end metrics, not gated: the median pass's wall
    # and CPU time as measured (a busier host moves both) and the
    # calibration kernel's median, against calibrate.REFERENCE_S
    detail = {"manifest": info, "end_to_end": end_to_end,
              "chain_median_s": statistics.median(c["wall_s"] for c in good),
              "chain_cpu_s": statistics.median(c["cpu_s"] for c in good),
              "kernel_s": statistics.median(kernel_s),
              "generate_s": generate_s, "errors": errors,
              "problems": problems, "children": children,
              "traced": runs[-1] if args.trace else None, "result": result}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"result-{stem}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    if args.trace and (work / "spans.jsonl").is_file():
        shutil.copyfile(work / "spans.jsonl", RESULTS / f"spans-{stem}.jsonl")
    for message in errors + problems:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
