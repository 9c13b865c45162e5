"""Self-test: the long_video corpus is the `actpipe bench` corpus.

    python3 perfbench/selftest.py

At seed 0 the benchmark's long_video generator must write input files
byte-identical to those ``actpipe bench --detections N --seed 0`` writes,
N being the long_video size, so numbers measured on the bench corpus stay
comparable with this benchmark's. Exits non-zero on any difference. Files
go to ``.perfbench/selftest`` in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from actpipe import cli  # noqa: E402

from checks import file_digest  # noqa: E402
from workloads import INPUT_KINDS, LONG_VIDEO_DETECTIONS, WORKLOADS, \
    write_corpus  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    ours = write_corpus(WORKLOADS["long_video"], 0, work / "perfbench").directory
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bench", "--detections", str(LONG_VIDEO_DETECTIONS),
                         "--seed", "0", "--out-dir", str(work / "bench")])
    if code != 0:
        print(f"actpipe bench exited {code}", file=sys.stderr)
        return 1
    failed = 0
    for _, name in INPUT_KINDS:
        same = file_digest(ours / name) == file_digest(work / "bench" / name)
        failed += not same
        print(f"{name}: {'identical' if same else 'DIFFERENT'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
