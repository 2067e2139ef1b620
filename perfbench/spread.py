"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads corpus-constant,cli --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --seeds2 11-20 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1,1 --trace 1 --out perfbench/baseline.json

For every workload it runs `perfbench/run.py` once per seed, one run at a
time, and prints per metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (third minus first quartile, over the median),
marking a spread at or above the metric's bound, or a third of it.  With
--seeds2 it runs a second set alternating with the first (first set's i-th
seed, then the second set's), so drift of the machine falls on both sets
alike, and prints how much worse the second set's median is than the first's,
as a share of the first.  With --out it
writes those figures, the sample counts, the git commit, the Python version
and the processor count to a JSON file, under "end_to_end" or "per_layer"
by --trace (or under --section), keeping the other sections if the file
exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values),
            "values": values}


def git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report_set(runs, bounds) -> dict:
    """Totals and per-metric summaries of one set of runs, printed."""
    entry = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "wall_s": summarize([r["wall_s"] for r in runs]),
        "metrics": {},
    }
    print(f"  {len(runs)} runs, attempted {entry['attempted']}, failed {entry['failed']}, "
          f"run wall median {entry['wall_s']['median']:.1f}s")
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        entry["metrics"][name] = s
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["spread"] >= bound:
            flag = "  <-- spread >= bound"
        elif bound is not None and s["spread"] >= bound / 3:
            flag = "  <-- spread >= bound/3"
        print(f"  {name:45s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    return entry


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seeds2", help="a second set, run alternating with the first")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--section", help="key to write under in --out "
                        "(default: end_to_end, or per_layer with --trace 1)")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [seed_list(args.seeds)] + ([seed_list(args.seeds2)] if args.seeds2 else [])
    section = {"seeds": sets[0], "workloads": {}}
    if len(sets) == 2:
        section["seeds2"] = sets[1]
    for workload in args.workloads.split(","):
        runs = [[] for _ in sets]
        for i in range(max(map(len, sets))):
            for k, seeds in enumerate(sets):
                if i < len(seeds):
                    runs[k].append(run_once(spec["command"], workload, seeds[i],
                                            spec["run_seconds"], args.trace))
        print(f"== {workload}")
        entry = report_set(runs[0], bounds)
        if len(sets) == 2:
            print(f"  -- second set, seeds {args.seeds2}")
            second = report_set(runs[1], bounds)
            entry["second"] = second
            entry["shift"] = {}
            for name, s in entry["metrics"].items():
                m1, m2 = s["median"], second["metrics"][name]["median"]
                worse = (m2 - m1) / m1 if m1 else 0.0
                if better.get(name) == "higher":
                    worse = -worse
                entry["shift"][name] = worse
                flag = "  <-- worse by more than the bound" if worse > bounds.get(
                    name, float("inf")) else ""
                print(f"  second median worse than first: {name:32s} {worse:+.4f}{flag}")
        section["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        report = json.loads(args.out.read_text()) if args.out.exists() else {}
        report.update({
            "git_sha": git("rev-parse", "HEAD"),
            "src_modified": bool(git("status", "--porcelain", "src")),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            args.section or ("per_layer" if args.trace else "end_to_end"): section,
        })
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
