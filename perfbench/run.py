"""Benchmark harness for blgroups: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload corpus-constant --seed 1 --seconds 20 --trace 0

Run from the repository root.  The harness imports the package from `src/`,
builds the workload's inputs from the seed (for at least a second and three
times; `setup_s` is the median), then runs whole rounds of operations until the
next round would end past `--seconds` (at least one).  Each round has a fixed
composition and starts with empty caches, so rounds are comparable across runs
and commits.

Every time is in reference seconds (see calibrate.py): wall time less the
speed probe's own kernel runs, scaled by how fast the machine ran the probe's
fixed kernel around that moment.  A `cli` call is scaled by a probe inside the
child process, which may run on the other processor.  The plain wall figures
are printed as comment lines beside them.

With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json.  With
`--trace 1` it runs one untraced round and one traced round, and prints the
per-layer metrics: calls, self time and work counts from the traced round,
and the tracing overhead as the ratio of the two rounds' summed operation
latencies, in reference seconds so that the machine's drift between them
largely cancels.  Every
metric is printed by name with its unit, then the last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The process is single-threaded and runs at most one child at a time (the
`cli` workload).  It reads and writes only inside the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import blgroups from the checkout's src/; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "blgroups" / "__init__.py").is_file():
        print(f"error: no blgroups package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imports blgroups)


def tail_percentile(per_round: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it
    in one round, so the choice does not depend on how many rounds ran."""
    for pct in TAIL_LADDER:
        if per_round * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    return 0.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


class Round:
    """Operation latencies in reference seconds, with the plain wall figures
    beside them, and the round's wall time."""

    def __init__(self):
        self.latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.tags: list = []
        self.failed: set[int] = set()
        self.wall = 0.0
        self.work = 0.0  # summed latencies in work seconds (calibrate.SpeedProbe.now)


class Timer:
    """Times intervals with the speed probe, excluding the probe's own kernel
    runs.  An interval whose work ran in a child process is given in
    reference seconds by the child itself (`given`)."""

    def __init__(self, probe):
        self.probe = probe
        self.spans: list[tuple[float, float, float]] = []
        self.given: dict[int, float] = {}

    def start(self):
        self._start = self.probe.stamp()

    def stop(self, given=None):
        (w0, k0), (w1, k1) = self._start, self.probe.stamp()
        if given is not None:
            self.given[len(self.spans)] = given
        self.spans.append((w0, w1, k1 - k0))

    def wall(self) -> list[float]:
        return [w1 - w0 for w0, w1, _ in self.spans]

    def work(self) -> list[float]:
        return [k for _, _, k in self.spans]

    def reference(self) -> list[float]:
        return [self.given[i] if i in self.given else self.probe.reference(*span)
                for i, span in enumerate(self.spans)]


def run_round(wl, probe=None, tracer=None) -> Round:
    import calibrate

    probe = probe or calibrate.SpeedProbe()  # not started: reference = work
    out = Round()
    gc.collect()
    wl.begin_round()
    ops = Timer(probe)
    started = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.current_op = i
            tracer.paused = False
        ops.start()
        try:
            result, tag = wl.run(op)
        except Exception as exc:  # a failed operation, counted and reported
            ops.stop()
            out.tags.append(None)
            out.failed.add(i)
            print(f"op {i} {wl.describe(op)!r} raised {exc!r}", file=sys.stderr)
            continue
        ops.stop(wl.child_seconds(result))
        out.tags.append(tag)
        if tracer is not None:
            tracer.paused = True
        try:
            ok = wl.check(op, result)
        except Exception as exc:
            print(f"op {i} {wl.describe(op)!r} check raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            out.failed.add(i)
    out.wall = time.perf_counter() - started
    if tracer is not None:
        tracer.paused = True
    out.failed |= wl.end_round()
    out.latencies, out.wall_latencies = ops.reference(), ops.wall()
    out.work = sum(ops.work())
    return out


def traced_round(wl, probe=None):
    """One round with every layer traced: in this process, or for the cli
    workload inside each child; returns the round and the trace summary."""
    import tracer as T
    import workloads

    if isinstance(wl, workloads.Cli):
        wl.traced, wl.summaries = True, []
        return run_round(wl, probe), T.merge(wl.summaries)
    tr = T.Tracer(clock=probe.now if probe else time.perf_counter)
    tr.install()
    try:
        rnd = run_round(wl, probe, tracer=tr)
    finally:
        tr.uninstall()
    # The spans are in work seconds; scale them as the round's latencies were.
    factor = rnd.work / sum(rnd.latencies) if probe else 1.0
    return rnd, T.scaled(tr.summary(), factor)


def timed_setups(make, probe):
    """Build the inputs at least SETUP_MIN_REPEATS times and for at least
    SETUP_MIN_SECONDS of work, so that millisecond set-ups get a steady
    median; return the last workload built and the median set-up time in
    reference seconds."""
    timer = Timer(probe)
    while len(timer.spans) < SETUP_MIN_REPEATS or sum(timer.wall()) < SETUP_MIN_SECONDS:
        wl = make()
        timer.start()
        wl.setup()
        timer.stop()
    return wl, statistics.median(timer.reference())


def end_to_end(wl, rounds, setup_s) -> dict:
    import workloads

    lat = [x for r in rounds for x in r.latencies]
    per_round = len(rounds[0].latencies)
    pct = tail_percentile(per_round)
    cold = [x for r in rounds for x, t in zip(r.latencies, r.tags) if t == "cold"]
    warm = [x for r in rounds for x, t in zip(r.latencies, r.tags) if t == "warm"]
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
    wall = [x for r in rounds for x in r.wall_latencies]
    info = {
        "tail_percentile": pct,
        "samples": len(lat),
        "rounds": len(rounds),
        "cold_samples": len(cold),
        "warm_samples": len(warm),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "speed_factor": sum(wall) / sum(lat),
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        # Cold operations are few and span orders of magnitude (one per group
        # or cached object): their median jumps between neighbours and their
        # mean follows the largest one.  The geometric mean weighs each alike.
        "cold_call_ms": (
            statistics.geometric_mean(cold) * 1e3 if cold else float("nan"), "ms"),
        "warm_call_ms": (statistics.median(warm) * 1e3 if warm else float("nan"), "ms"),
    }
    return metrics, info


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(summary, untraced: Round, traced: Round, cli_times) -> dict:
    """Per-layer metrics of a traced round; cli_times are the untraced
    round's child start-up and in-report seconds (zero off the cli)."""
    import tracer as T

    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    metrics = {}
    for module, qualname in T.TARGETS:
        base = T.metric_base(module, qualname)
        metrics[f"{base}.calls"] = (calls.get(base, 0), "count")
        metrics[f"{base}.self_s"] = (self_s.get(base, 0.0), "s")
    for layer in T.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    c = lambda k: counts.get(k, 0)  # noqa: E731
    metrics.update({
        "groups.subgroups_listed": (c("groups.subgroups_listed"), "count"),
        "constant.candidates": (c("constant.candidates"), "count"),
        "constant.candidate_ratio": (
            ratio(c("constant.candidates"), calls.get("constant.saturate", 0)), "ratio"),
        "exact.compare.identical_ratio": (
            ratio(c("exact.compare.identical"), calls.get("exact.compare", 0)), "ratio"),
        "oracle.ascent.sweeps": (c("oracle.ascent.sweeps"), "count"),
        "oracle.ascent.converged_ratio": (
            ratio(c("oracle.ascent.converged"), calls.get("oracle.alternating_ascent", 0)),
            "ratio"),
        "lie.pool_size": (c("lie.pool_size"), "count"),
        "lie.vertex_count": (c("lie.vertex_count"), "count"),
        "lie.decided_ratio": (ratio(c("lie.decided"), calls.get("lie.finiteness", 0)), "ratio"),
        "cache.hit_ratio": (
            ratio(c("cache.hits"), calls.get("cache.subgroups", 0)), "ratio"),
        "cli.startup_s": (cli_times[0], "s"),
        "cli.inner_s": (cli_times[1], "s"),
        "trace.spans": (summary["spans"], "count"),
        "trace.untraced_s": (sum(untraced.latencies), "s"),
        "trace.traced_s": (sum(traced.latencies), "s"),
        "trace.overhead_ratio": (sum(traced.latencies) / sum(untraced.latencies) - 1.0,
                                 "ratio"),
    })
    return metrics


def declared_names(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import calibrate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    wl = None
    with calibrate.SpeedProbe() as probe:
        try:
            wl, setup_s = timed_setups(lambda: cls(ROOT, args.seed, reference), probe)
            if args.trace:
                untraced = run_round(wl, probe)
                cli_times = (0.0, 0.0)
                if isinstance(wl, workloads.Cli):
                    cli_times = (wl.startup_s, wl.inner_s)
                traced, summary = traced_round(wl, probe)
                rounds = [untraced, traced]
                metrics, info = per_layer(summary, untraced, traced, cli_times), {}
            else:
                rounds = []
                budget_end = time.perf_counter() + args.seconds
                while True:
                    rounds.append(run_round(wl, probe))
                    mean_round = sum(r.wall for r in rounds) / len(rounds)
                    if time.perf_counter() + mean_round > budget_end:
                        break
                metrics, info = end_to_end(wl, rounds, setup_s)
        finally:
            if wl is not None:
                wl.close()

    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": wl.input_digest(),
        "ops_per_round": len(rounds[0].latencies),
        "fail_ratio": failed / attempted,
    })
    if isinstance(wl, workloads.TorusVerdicts):
        info["undecided_now_decided"] = wl.changed
    for key, value in info.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")

    names = declared_names(args.trace)
    if sorted(names) != sorted(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
