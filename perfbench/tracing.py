"""In-memory span tracing of actpipe's layers, installed from outside.

``install`` replaces each traced public function with a wrapper in the
module that defines it and in every actpipe module that imported it by
name, so calls from ``pipeline``, ``cli`` and ``evaluation`` are seen. Each
``read_records`` iterator is wrapped too, so the time spent parsing records
is charged to the ``records`` layer wherever a stage consumes a lazy
reader. ``geometry`` is not wrapped: its helpers run millions of times per
run and show up as self time in their callers.

A span is (id, name, start, end, parent) plus its self time, meaning its
duration minus the time covered by the spans and reader work inside it.
Spans stay in memory and are written once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

# layer -> public functions timed as spans named "<layer>.<function>"
TRACED_FUNCTIONS = {
    "tracking": ("greedy_iou_track", "tracks_from_records"),
    "proposals": ("generate_proposals",),
    "labeling": ("gt_to_cubes", "assign_labels"),
    "filtering": ("score_foreground", "filter_proposals"),
    "scoring": ("oracle_scores",),
    "dedup": ("deduplicate", "merge_adjacent"),
    "evaluation": ("det_curve", "map_3diou", "proposal_quality"),
}


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "child_s", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int]):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.child_s = 0.0
        self.attrs: Dict[str, float] = {}


class Tracer:
    """Span stack plus the per-stage read/write split of the open stage."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[_Frame] = []
        self._next_id = 0
        self._stage: Optional[_Frame] = None

    def frame(self, name: str) -> _Frame:
        """A new span whose parent is the innermost open one."""
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        return _Frame(self._next_id - 1, name, parent)

    def open(self, name: str) -> _Frame:
        frame = self.frame(name)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, name: Optional[str] = None,
              duration: Optional[float] = None) -> float:
        """Pop ``frame``; ``duration`` overrides the measured span length."""
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        length = end - frame.start if duration is None else duration
        self.spans.append({
            "id": frame.id, "name": name or frame.name, "parent": frame.parent,
            "start": end - length, "end": end,
            "self_s": length - frame.child_s, **frame.attrs,
        })
        if self._stack:
            self._stack[-1].child_s += length
        return length

    def charge(self, seconds: float) -> None:
        """Count work done outside any span (reader parsing) as child time."""
        if self._stack:
            self._stack[-1].child_s += seconds

    # stages -------------------------------------------------------------
    def open_stage(self) -> None:
        self._stage = self.open("stage")
        self._stage.attrs.update(read_s=0.0, write_s=0.0, records_in=0,
                                 records_out=0)

    def close_stage(self, name: str, duration: Optional[float] = None) -> None:
        frame, self._stage = self._stage, None
        self.close(frame, f"stage.{name}", duration)

    def stage_add(self, key: str, value: float) -> None:
        if self._stage is not None:
            self._stage.attrs[key] += value

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _traced_reader(tracer: Tracer, frame: _Frame, inner):
    """Yield from ``inner``, charging each parse to the records layer."""
    records = 0
    busy = 0.0
    try:
        while True:
            start = time.perf_counter()
            try:
                record = next(inner)
            except StopIteration:
                frame.attrs["bytes"] = _file_size(frame.attrs["path"])
                break
            finally:
                spent = time.perf_counter() - start
                busy += spent
                tracer.charge(spent)
                tracer.stage_add("read_s", spent)
            records += 1
            tracer.stage_add("records_in", 1)
            yield record
    finally:
        end = time.perf_counter()
        tracer.spans.append({
            "id": frame.id, "name": "records.read", "parent": frame.parent,
            "start": frame.start, "end": end, "self_s": busy,
            "records": records, **frame.attrs,
        })


def _counts(name: str, bound: inspect.BoundArguments, result) -> Dict[str, float]:
    """Work counts recorded on a span, from its arguments and result."""
    args = bound.arguments
    if name == "greedy_iou_track":
        return {"tracks": len({(d.video_id, d.track_id) for d in result})}
    if name == "generate_proposals":
        from actpipe.proposals import sample_windows
        config = args["config"]
        windows = sum(len(sample_windows(args["video_lengths"][v],
                                         config.d_prop, config.s_prop))
                      for v in args["tracks_by_video"])
        return {"cubes": len(result), "windows": windows}
    if name == "gt_to_cubes":
        return {"gt_cubes": len(result)}
    if name == "assign_labels":
        return {"assigned": len(result),
                "positive": sum(1 for a in result if a.labels)}
    if name == "filter_proposals":
        return {"cubes_in": len(args["cubes"]), "kept": len(result)}
    if name == "deduplicate":
        return {"cubes_in": len(args["scored_cubes"]),
                "instances": len(result)}
    return {}


def _wrap(tracer: Tracer, layer: str, original):
    name = original.__name__
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = tracer.open(f"{layer}.{name}")
        try:
            result = original(*args, **kwargs)
            frame.attrs.update(_counts(name, signature.bind(*args, **kwargs),
                                       result))
            return result
        finally:
            tracer.close(frame)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every actpipe module's name for ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "actpipe" and not module_name.startswith("actpipe."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of the already imported actpipe package."""
    import actpipe.cli  # noqa: F401  (bind every by-name import first)
    from actpipe import pipeline, records

    for layer, names in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"actpipe.{layer}")
        for name in names:
            original = getattr(module, name)
            _rebind(original, _wrap(tracer, layer, original))

    read_records = records.read_records

    @functools.wraps(read_records)
    def traced_read_records(path, kind):
        frame = tracer.frame("records.read")
        frame.attrs.update(path=str(path), kind=kind)
        return _traced_reader(tracer, frame, read_records(path, kind))

    write_records = records.write_records

    @functools.wraps(write_records)
    def traced_write_records(items, path, kind):
        frame = tracer.open("records.write")
        try:
            count = write_records(items, path, kind)
            frame.attrs.update(records=count, bytes=_file_size(path),
                               path=str(path), kind=kind)
            return count
        finally:
            spent = tracer.close(frame)
            tracer.stage_add("write_s", spent - frame.child_s)
            tracer.stage_add("records_out", frame.attrs.get("records", 0))

    _rebind(read_records, traced_read_records)
    _rebind(write_records, traced_write_records)

    run_pipeline = pipeline.run_pipeline
    stage_timing = pipeline.StageTiming

    @functools.wraps(run_pipeline)
    def traced_run_pipeline(*args, **kwargs):
        frame = tracer.open("pipeline.run_pipeline")
        tracer.open_stage()
        try:
            return run_pipeline(*args, **kwargs)
        finally:
            # work after the last stage (the timing report) is overhead
            tracer.close_stage("after_last")
            tracer.close(frame)

    def traced_stage_timing(*args, **kwargs):
        timing = stage_timing(*args, **kwargs)
        tracer.close_stage(timing.name, duration=timing.seconds)
        tracer.open_stage()
        return timing

    pipeline.StageTiming = traced_stage_timing
    _rebind(run_pipeline, traced_run_pipeline)


# ---------------------------------------------------------------------------
# per-layer metrics from a span list


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("records.bytes"):
        return "bytes"
    if name.endswith(("ratio", "rate", "per_window", "map_3d_iou")):
        return "ratio"
    return "count"


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Every per-layer metric; layers or stages that did not run read 0."""
    from actpipe.pipeline import CANONICAL_STAGES

    self_s: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, float] = defaultdict(float)
    read_sizes: Dict[str, int] = {}
    stage_spans: Dict[str, dict] = {}
    pipeline_s = 0.0
    for span in spans:
        name = span["name"]
        self_s[name] += span["self_s"]
        if name.startswith("stage."):
            stage_spans[name[len("stage."):]] = span
        elif name == "pipeline.run_pipeline":
            pipeline_s += span["end"] - span["start"]
        elif name == "records.read":
            attrs["records.bytes_read"] += span.get("bytes", 0)
            if "bytes" in span:
                read_sizes[span["path"]] = span["bytes"]
            if span.get("kind") == "masks":
                attrs["filtering.masks_in"] += span["records"]
        elif name == "records.write":
            attrs["records.bytes_written"] += span.get("bytes", 0)
        for key in ("tracks", "cubes", "windows", "gt_cubes", "assigned",
                    "positive", "cubes_in", "kept", "instances"):
            if key in span:
                attrs[f"{name}.{key}"] += span[key]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "records.read_s": self_s["records.read"],
        "records.write_s": self_s["records.write"],
        "records.bytes_read": attrs["records.bytes_read"],
        "records.bytes_written": attrs["records.bytes_written"],
        "records.reread_ratio": ratio(attrs["records.bytes_read"],
                                      sum(read_sizes.values())),
    }
    stage_total = 0.0
    for stage in CANONICAL_STAGES:
        span = stage_spans.get(stage)
        if span is None:
            for part in ("read_s", "compute_s", "write_s", "records_in",
                         "records_out"):
                out[f"stage.{stage}.{part}"] = 0.0
            continue
        seconds = span["end"] - span["start"]
        stage_total += seconds
        out[f"stage.{stage}.read_s"] = span["read_s"]
        out[f"stage.{stage}.compute_s"] = seconds - span["read_s"] - span["write_s"]
        out[f"stage.{stage}.write_s"] = span["write_s"]
        out[f"stage.{stage}.records_in"] = span["records_in"]
        out[f"stage.{stage}.records_out"] = span["records_out"]
    out["pipeline.overhead_s"] = (pipeline_s - stage_total) if pipeline_s else 0.0

    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            out[f"{layer}.{name}_s"] = self_s[f"{layer}.{name}"]
    out["tracking.tracks_out"] = attrs["tracking.greedy_iou_track.tracks"]
    out["proposals.cubes_out"] = attrs["proposals.generate_proposals.cubes"]
    out["proposals.cubes_per_window"] = ratio(
        attrs["proposals.generate_proposals.cubes"],
        attrs["proposals.generate_proposals.windows"])
    out["labeling.gt_cubes"] = attrs["labeling.gt_to_cubes.gt_cubes"]
    out["labeling.positive_rate"] = ratio(
        attrs["labeling.assign_labels.positive"],
        attrs["labeling.assign_labels.assigned"])
    out["filtering.masks_in"] = attrs["filtering.masks_in"]
    out["filtering.keep_ratio"] = ratio(
        attrs["filtering.filter_proposals.kept"],
        attrs["filtering.filter_proposals.cubes_in"])
    out["dedup.collapse_ratio"] = ratio(
        attrs["dedup.deduplicate.instances"],
        attrs["dedup.deduplicate.cubes_in"])
    return out
