"""Write perfbench/reference.json: the expected outputs the workloads check.

    python3 perfbench/record.py          # from the repository root

Records, from the code in `src/` as it stands:
  * a digest per corpus frame of every (value, argmax, tie) result;
  * the verdict of every datum in the fixed torus pool, cross-checked on
    pure torus data of dimension up to 3 against the dense subspace scan,
    and on INFINITE verdicts by the violator's codimension defect;
  * a digest of the stable result payload of every command-line call the
    `cli` workload can draw, from every menu entry.
Run it only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import blgroups.cli  # noqa: E402
from blgroups import datum, lie  # noqa: E402

import workloads as W  # noqa: E402


def require(ok: bool, what: str):
    if not ok:
        raise RuntimeError(f"refusing to record: {what}")


def record_corpus() -> dict:
    wl = W.CorpusConstant(ROOT, 0, {})
    wl.setup()
    wl.begin_round()
    for op in wl.ops:
        rep, _ = wl.run(op)
        wl.check(op, rep)
    return dict(sorted(wl.frame_digests().items()))


def record_torus() -> dict:
    out = {}
    for d, p in W.torus_pool():
        exps = [datum.Exponent.of(x) for x in p]
        rep = lie.finiteness(d, exps)
        verdict = rep.verdict.value
        if verdict == "INFINITE":
            require(lie.codimension_defect(d, exps, rep.violator) > 0,
                    f"INFINITE violator without defect for {d}")
        elif not d.simple_dims and d.torus_dim <= 3:
            require(lie.brute_force_torus_violator(d, exps, box=3) is None,
                    f"dense scan finds a violator the {verdict} verdict missed for {d}")
        out[W.torus_key(d, p)] = verdict
    return out


def cli_report(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = blgroups.cli.main(argv)
    require(code == W.EXPECTED_EXIT, f"{argv} exited {code}")
    return json.loads(buf.getvalue())


def record_cli() -> dict:
    work = ROOT / ".perfbench" / "record"
    inputs, cache = work / "inputs", work / "cache"
    shutil.rmtree(work, ignore_errors=True)
    calls = list(W.every_cli_call())
    W.write_inputs(W.input_texts(calls), inputs)
    out = {}
    try:
        for call in calls:
            report = cli_report(W.cli_argv(call, inputs, cache))
            if call[1] == "check-codim":
                require(report["result"]["verdict"] == "INFINITE", call[0])
            out[call[0]] = W.digest(W.cli_payload(call[1], report["result"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main():
    started = time.perf_counter()
    reference = {
        "corpus_constant_frames": record_corpus(),
        "cli": record_cli(),
        "torus_verdicts": record_torus(),
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    counts = {}
    for v in reference["torus_verdicts"].values():
        counts[v] = counts.get(v, 0) + 1
    print(f"recorded {len(reference['corpus_constant_frames'])} frames, "
          f"{len(reference['cli'])} cli calls, torus verdicts {counts} "
          f"in {time.perf_counter() - started:.0f}s")


if __name__ == "__main__":
    main()
