"""Self-check of the benchmark harness, on small slices of each workload.

    python3 perfbench/selfcheck.py       # from the repository root; ~1 minute

Checks that
  * the same seed gives the same input digest, and another seed another one;
  * the metric names the harness prints are exactly those of BENCHMARK.json;
  * a deliberately wrong reference (corpus digest, torus verdict, CLI digest)
    or a disagreeing route (corpus-verify) makes operations fail;
  * two traced rounds of the same slice give identical work counts.
Exits 1 with the failed checks listed, else prints "selfcheck ok".
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402

SEED = 1
FAILURES: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def small(cls, reference):
    """The workload with its round cut to a few cheap operations."""
    wl = cls(ROOT, SEED, reference)
    wl.setup()
    if cls is W.CorpusConstant:
        first = wl.ops[0][0].name
        wl.ops = [op for op in wl.ops if op[0].name == first]
    elif cls is W.CorpusVerify:
        wl.ops = wl.ops[:6]
    elif cls is W.TorusVerdicts:
        wl.ops = [op for op in wl.ops if op[0] != "loomis-whitney"][:12]
    else:
        wl.ops = [op for op in wl.ops if op[1] in ("check-codim", "heisenberg-demo")]
    return wl


def corrupt(wl, reference):
    """Make the expected output wrong for every operation of wl."""
    if isinstance(wl, W.TorusVerdicts):
        flip = {"FINITE": "INFINITE"}
        wl.ops = [(k, d, p, flip.get(v, "FINITE")) for k, d, p, v in wl.ops]
        return
    bad = copy.deepcopy(reference)
    for op in wl.ops:
        if isinstance(wl, W.CorpusConstant):
            bad["corpus_constant_frames"][op[0].name] = "0" * 16
        else:
            bad["cli"][op[0]] = "0" * 16
    wl.reference = bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_names = sorted(m["name"] for m in spec["end_to_end"])
    layer_names = sorted(m["name"] for m in spec["per_layer"])
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS),
           "workload names match BENCHMARK.json")
    reference = json.loads((HERE / "reference.json").read_text())

    for name, cls in W.WORKLOADS.items():
        a, b, c = (cls(ROOT, s, reference) for s in (SEED, SEED, SEED + 1))
        for wl in (a, b, c):
            wl.setup()
            wl.close()
        expect(a.input_digest() == b.input_digest(), f"{name}: same seed, same input digest")
        expect(a.input_digest() != c.input_digest(), f"{name}: other seed, other input digest")

        wl = small(cls, reference)
        try:
            plain = run.run_round(wl)
            expect(not plain.failed, f"{name}: slice passes against the reference")
            metrics, _ = run.end_to_end(wl, [plain], 0.1)
            expect(sorted(metrics) == end_names, f"{name}: end-to-end names match")
            first, s1 = run.traced_round(wl)
            second, s2 = run.traced_round(wl)
            layers = run.per_layer(s1, plain, first, (0.0, 0.0))
            expect(sorted(layers) == layer_names, f"{name}: per-layer names match")
            expect((s1["calls"], s1["counts"]) == (s2["calls"], s2["counts"]),
                   f"{name}: traced work counts repeat exactly")
            if cls is W.CorpusVerify:
                op = wl.ops[0]
                (value, ev, numeric), _ = wl.run(op)
                wrong = (value, ev * ev, numeric) if not ev.is_one else (value, ev, numeric * 2)
                expect(not wl.check(op, wrong), f"{name}: disagreeing routes fail")
            else:
                corrupt(wl, reference)
                bad = run.run_round(wl)
                expect(len(bad.failed) == len(wl.ops),
                       f"{name}: wrong reference fails every operation "
                       f"({len(bad.failed)}/{len(wl.ops)})")
        finally:
            wl.close()

    if FAILURES:
        print(f"selfcheck FAILED: {len(FAILURES)} check(s)")
        return 1
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
