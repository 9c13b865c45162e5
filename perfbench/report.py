"""Run every workload over several seeds and print each metric with its unit.

    python3 perfbench/report.py [--seeds 1-10] [--against DIR] [--record FILE]

First runs the self-test (``selftest.py``). Then each (workload, seed) of
BENCHMARK.json's workloads is one ``run.py`` process, started exactly as
BENCHMARK.json's command line with its ``run_seconds``, plus one traced run
per workload at the first seed. For every end-to-end metric the table
shows the median, the quartiles and their spread (interquartile distance
over the median) across seeds, then the median pass of the chain and its
CPU time unscaled and the calibration kernel's time, which are not gated,
``failed_op_ratio`` (failed operations over attempted ones, traced run
included) and the traced run's per-layer metrics.

``--against DIR`` compares this checkout with another one (a checkout of
the parent commit, say) by paired runs: each seed runs in both, one right
after the other, and the order alternates from seed to seed, so a drift of
the host's speed hits both sides alike. The table then also shows, per
end-to-end metric, the quartiles of this checkout's value over the
other's. ``--record`` appends the whole result, with the run manifest, to
a JSON-lines trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# unscaled times from run.py's result file, shown beside the metrics
PASS_TIMES = ("chain_median_s", "chain_cpu_s", "kernel_s")


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int):
    """One run.py process in ``checkout``: (manifest, result, PASS_TIMES
    from its result file)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr[-2000:]}")
    manifest = next((json.loads(line[len("manifest "):]) for line in lines
                     if line.startswith("manifest ")), None)
    detail = (checkout / ".perfbench" / "results"
              / f"result-{workload}-seed{seed}-trace{trace}.json")
    detail = json.loads(detail.read_text(encoding="utf-8"))
    return manifest, json.loads(lines[-1]), {
        name: detail.get(name) for name in PASS_TIMES}


def summarize(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def print_row(name, unit, stats):
    print(f"  {name:<18} {unit:<10} {stats['median']:>12.5g} "
          f"{stats['q1']:>12.5g} {stats['q3']:>12.5g} {stats['spread']:>8.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--against", type=Path, default=None,
                        help="another checkout to compare with by paired runs")
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    other = args.against.resolve() if args.against else None

    entry = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    if other:
        entry["against"] = str(other)
    selftest = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    print(selftest.stdout.strip())
    entry["selftest_passed"] = selftest.returncode == 0
    for workload in (w["name"] for w in bench["workloads"]):
        runs, pass_times, manifests, theirs = [], [], [], []
        for i, seed in enumerate(seeds):
            order = [ROOT, other][::-1 if i % 2 else 1] if other else [ROOT]
            for checkout in order:
                manifest, result, raw = run_once(checkout, workload, seed,
                                                 seconds, 0)
                if checkout == other:
                    theirs.append(result)
                    continue
                runs.append(result)
                pass_times.append(raw)
                manifests.append(manifest)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items())
                      + "".join(f" {k}={v:.4g}" for k, v in raw.items()),
                      file=sys.stderr, flush=True)
        _, traced, _ = run_once(ROOT, workload, seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        row = {"manifest": manifests[0],
               "correct": all(r["correct"] for r in runs + [traced]),
               "attempted": attempted, "failed": failed,
               "failed_op_ratio": failed / attempted, "end_to_end": {},
               "pass_times": {name: summarize([r[name] for r in pass_times])
                              for name in PASS_TIMES},
               "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for name, spec in runs[0]["metrics"].items():
            row["end_to_end"][name] = {
                "unit": spec["unit"],
                **summarize([r["metrics"][name]["value"] for r in runs])}
        if other:
            row["ratio_to_against"] = {
                name: summarize([a["metrics"][name]["value"]
                                 / b["metrics"][name]["value"]
                                 for a, b in zip(runs, theirs)])
                for name in row["end_to_end"]}
        entry["workloads"][workload] = row

        print(f"\n{workload}: correct={row['correct']} failed_op_ratio="
              f"{row['failed_op_ratio']:.4g} ({failed}/{attempted}) "
              f"over seeds {args.seeds}")
        print(f"  {'metric':<18} {'unit':<10} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8}")
        for name, stats in row["end_to_end"].items():
            print_row(name, stats["unit"], stats)
        for name, stats in row["pass_times"].items():
            print_row(name, "s", stats)
        if other:
            print(f"  this checkout over {other}, paired by seed:")
            for name, stats in row["ratio_to_against"].items():
                print_row(name, "ratio", stats)
        for name, value in row["per_layer"].items():
            unit = traced["metrics"][name]["unit"]
            print(f"  {name:<40} {value:>14.6g} {unit}")
        sys.stdout.flush()

    if args.record:
        with args.record.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    passed = entry["selftest_passed"] and all(
        r["correct"] for r in entry["workloads"].values())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
