"""Output checks: per-file digests and invariants of a chain's record files.

The checks parse the files with plain ``json`` rather than actpipe's own
reader, so a fault in the records layer cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

# stage -> record files it writes; every one is digested
STAGE_OUTPUTS = {
    "track": ("detections_tracked.jsonl",),
    "propose": ("proposals.jsonl",),
    "assign-labels": ("proposals_labeled.jsonl", "label_stats.jsonl"),
    "filter": ("proposals_filtered.jsonl", "filter_thresholds.jsonl"),
    "score": ("proposals_scored.jsonl",),
    "dedup": ("instances.jsonl",),
    "merge-adjacent": ("instances_merged.jsonl",),
    "evaluate": ("det_curves.jsonl", "evaluation.jsonl"),
}


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def records(path: Path) -> Iterator[dict]:
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#actpipe/"):
            raise ValueError(f"{path.name}: missing record header")
        for line in fh:
            if line.strip():
                yield json.loads(line)


def count_records(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _overlaps(path: Path) -> List[str]:
    partitions: Dict[tuple, List[tuple]] = {}
    for inst in records(path):
        key = (inst["video_id"], inst["activity_class"], inst["seed_track"])
        partitions.setdefault(key, []).append((inst["t0"], inst["t1"]))
    problems = []
    for key, windows in partitions.items():
        windows.sort()
        for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
            if b0 < a1:
                problems.append(f"{path.name}: [{a0}, {a1}) overlaps "
                                f"[{b0}, {b1}) in partition {key}")
    return problems


def _filter_counts(out_dir: Path) -> List[str]:
    """Filter keeps plus removes exactly its input and writes what it kept."""
    report = next(records(out_dir / "filter_thresholds.jsonl"))["data"]
    n_in = count_records(out_dir / "proposals_labeled.jsonl")
    n_out = count_records(out_dir / "proposals_filtered.jsonl")
    if report["kept"] + report["removed"] != n_in or report["kept"] != n_out:
        return [f"kept {report['kept']} + removed {report['removed']} != "
                f"{n_in} input, or kept != {n_out} written"]
    return []


def check_outputs(out_dir: Path, stages: Sequence[str]):
    """Digest every output file and check the chain's invariants.

    Returns ``(digests, problems)``: file name -> sha256, and stage ->
    list of problems found in what that stage wrote.
    """
    digests: Dict[str, str] = {}
    problems: Dict[str, List[str]] = {}
    for stage in stages:
        found = []
        for name in STAGE_OUTPUTS[stage]:
            path = out_dir / name
            if not path.is_file():
                found.append(f"{name} was not written")
                continue
            digests[name] = file_digest(path)
            with path.open("r", encoding="utf-8") as fh:
                if not fh.readline().startswith("#actpipe/"):
                    found.append(f"{name} has no record header")
        if found:
            problems[stage] = found
    checks = [("filter", _filter_counts)]
    checks += [(stage, lambda d, n=name: _overlaps(d / n))
               for stage, name in (("dedup", "instances.jsonl"),
                                   ("merge-adjacent", "instances_merged.jsonl"))]
    for stage, check in checks:
        if stage not in stages or stage in problems:
            continue
        try:
            found = check(out_dir)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            found = [f"unreadable output: {exc!r}"]
        if found:
            problems[stage] = found[:5]
    return digests, problems


def evaluation_summary(out_dir: Path) -> dict:
    """The ``evaluation`` report section the evaluate stage wrote."""
    for record in records(out_dir / "evaluation.jsonl"):
        if record.get("section") == "evaluation":
            return record["data"]
    raise ValueError("evaluation.jsonl has no evaluation section")
