"""Run `blgroups.cli` in this process under the speed probe, and traced on request.

    PERFBENCH_PROBE_OUT=probe.json python3 perfbench/launch.py constant --in d.json
    PERFBENCH_PROBE_OUT=probe.json PERFBENCH_TRACE_OUT=trace.json \\
        python3 perfbench/launch.py constant --in d.json

The `cli` workload runs every call this way in place of `python -m
blgroups.cli` (the package must be importable, e.g. through PYTHONPATH=src).
The report goes to stdout as usual.  To $PERFBENCH_PROBE_OUT it writes, as
JSON, the seconds the probe's kernel runs took in this process (`stolen`, and
`stolen_in_main` during blgroups.cli.main) and how much slower than the
reference this process ran (`factor`, see calibrate.py).  The parent turns
the call's wall time into reference seconds with them, so the call is scaled
by the speed of the processor it ran on.  With $PERFBENCH_TRACE_OUT set it
also traces every layer and writes the trace summary (calls, self seconds in
reference seconds, and work counts per traced function) there.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import blgroups.cli  # noqa: E402
import calibrate  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    with calibrate.SpeedProbe() as probe:
        probe.tick()  # a sample even for the shortest call
        tr = tracer.Tracer(clock=probe.now) if trace_out else None
        if tr is not None:
            tr.install()
        before = probe.stolen
        try:
            code = blgroups.cli.main(sys.argv[1:])
        finally:
            in_main = probe.stolen - before
            if tr is not None:
                tr.uninstall()
        probe.tick()
    factor = probe.factor(probe.times[0], probe.times[-1])
    if tr is not None:
        Path(trace_out).write_text(json.dumps(tracer.scaled(tr.summary(), factor)))
    out = {"stolen": probe.stolen, "stolen_in_main": in_main, "factor": factor}
    Path(os.environ["PERFBENCH_PROBE_OUT"]).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
