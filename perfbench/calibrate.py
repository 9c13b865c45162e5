"""A fixed piece of work that gauges how fast the host runs right now.

The benchmark shares its host with other tenants, and their load slows
this process by up to 2x for stretches of a fraction of a second to
minutes; CPU time moves with wall time, so it does not help. The kernel
below does interpreted work of the kinds the actpipe chain does (a loop
over dicts and tuples, parsing JSON records and summing them by key, small
numpy array operations) but calls nothing of actpipe, so a change to the
program cannot move it. Run next to each pass of the chain, it tells how
much slower than a quiet host the host ran during that pass.

Not all of a chain slows as much as the kernel: its interpreted stages do,
its numpy work on whole masks much less. A workload's ``host_exponent``
is how its pass time follows the kernel's, fitted on passes measured while
the host changed speed (time ~ kernel time ** exponent); ``scale`` takes
that much of the slowdown out.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# the kernel's time on a quiet 2-core x86-64 host (Xeon, CPython 3.11,
# numpy 2.4): scaled times read as seconds on such a host
REFERENCE_S = 0.030
# kernel runs in one calibration block
REPEATS = 3

_LINES = [json.dumps({
    "video_id": f"v{i % 11:03d}", "frame": i // 11, "track_id": i % 37,
    "object_class": "person" if i % 3 else "vehicle",
    "bbox": [i % 300 + 0.5, i % 300 + 24.5, i % 170 + 0.25, i % 170 + 30.25],
    "score": (i * 7919 % 1000) / 1000.0}) for i in range(4000)]
_BOXES = np.random.default_rng(0).random((200, 4)) * 100.0


def _kernel() -> float:
    counts = {}
    total = 0
    for i in range(60_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += i * i % 7
    widths = {}
    for line in _LINES:
        record = json.loads(line)
        key = (record["video_id"], record["track_id"])
        widths[key] = widths.get(key, 0.0) + record["bbox"][1] - record["bbox"][0]
    overlap = 0.0
    for row in _BOXES[:160]:
        x0 = np.maximum(row[0], _BOXES[:, 0])
        x1 = np.minimum(row[0] + row[2], _BOXES[:, 0] + _BOXES[:, 2])
        overlap += float(np.clip(x1 - x0, 0.0, None).sum())
    return total + len(counts) + max(widths.values()) + overlap


def calibrate() -> list:
    """One calibration block: the kernel's seconds, REPEATS times."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(seconds: float, kernel_s, exponent: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s`` (its median
    counts), as seconds on a host where it takes REFERENCE_S."""
    return seconds * (REFERENCE_S / statistics.median(kernel_s)) ** exponent
