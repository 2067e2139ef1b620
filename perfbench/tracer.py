"""In-memory spans around the public functions of each blgroups layer.

The tracer wraps the functions listed in TARGETS in every module namespace
that holds them (and on the class, for methods), so calls made through a
`from .x import f` binding are seen too.  Each call records a span (function,
start, end, parent span, operation id) in flat arrays; self time is a span's
duration minus the time its child spans cover.  Observers attached to some
targets derive work counts (candidates, sweeps, pool sizes, vertices, cache
hits) from arguments and results, so the counts repeat exactly for the same
inputs.  Nothing inside the package is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, qualified name): the layer boundaries timed by the traced run.
TARGETS = (
    ("groups", "all_subgroups"),
    ("constant", "bl_constant"),
    ("constant", "saturate"),
    ("constant", "ratio"),
    ("constant", "extremizer"),
    ("exact", "ExactValue.compare"),
    ("exact", "exact_max"),
    ("oracle", "oracle_constant"),
    ("oracle", "alternating_ascent"),
    ("oracle", "exhaustive_indicator_search"),
    ("lie", "finiteness"),
    ("lie", "closed_pool"),
    ("lie", "codimension_check"),
    ("lie", "vertices"),
    ("lie", "brute_force_torus_violator"),
    ("rational_linalg", "rref"),
    ("rational_linalg", "enumerate_box_subspaces"),
    ("cache", "SubgroupCache.subgroups"),
    ("heisenberg", "divergence_witness"),
    ("cli", "main"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TARGETS))


def metric_base(module: str, qualname: str) -> str:
    """`exact.compare` for ExactValue.compare: metric names drop the class."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class _Observers:
    """Work counts derived from the arguments and results of traced calls."""

    def __init__(self, counts: Counter):
        self.counts = counts
        self._saturate_parent = None
        self._saturated: set = set()

    def flush(self):
        self.counts["constant.candidates"] += len(self._saturated)
        self._saturated = set()
        self._saturate_parent = None

    def all_subgroups(self, args, kwargs, out, parent):
        self.counts["groups.subgroups_listed"] += len(out)

    def saturate(self, args, kwargs, out, parent):
        # bl_constant saturates its whole lattice in one contiguous run, so
        # distinct results per parent span are that call's candidates.
        if parent != self._saturate_parent:
            self.flush()
            self._saturate_parent = parent
        self._saturated.add(out.members)

    def compare(self, args, kwargs, out, parent):
        if args[0].factors == args[1].factors:
            self.counts["exact.compare.identical"] += 1

    def alternating_ascent(self, args, kwargs, out, parent):
        trace = out[2]
        self.counts["oracle.ascent.sweeps"] += trace.iterations
        self.counts["oracle.ascent.converged"] += int(trace.converged)

    def finiteness(self, args, kwargs, out, parent):
        self.counts["lie.decided"] += int(out.verdict.value != "UNDECIDED")

    def closed_pool(self, args, kwargs, out, parent):
        self.counts["lie.pool_size"] += len(out[0])

    def vertices(self, args, kwargs, out, parent):
        self.counts["lie.vertex_count"] += len(out)

    def subgroups(self, args, kwargs, out, parent):
        self.counts["cache.hits"] += int(args[0].last_hit)


class Tracer:
    """Spans and counts for one traced round; install, run, uninstall."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = [metric_base(m, q) for m, q in TARGETS]
        self.fn = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.current_op = -1
        self.paused = False
        self._observers = _Observers(self.counts)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, index: int, fn):
        observe = getattr(self._observers, fn.__name__, None)
        eager = inspect.isgeneratorfunction(fn)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = len(self.start)
            parent = self.stack[-1] if self.stack else -1
            self.fn.append(index)
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
                if eager:
                    # Consume generators inside the span, so the work they do
                    # lazily is charged here and not to whoever iterates.
                    out = iter(list(out))
            finally:
                self.end[span] = clock()
                self.stack.pop()
            if observe is not None:
                observe(args, kwargs, out, parent)
            return out

        return traced

    def install(self):
        """Replace each target in every blgroups module that binds it."""
        for module in LAYERS:
            importlib.import_module(f"blgroups.{module}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "blgroups" or name.startswith("blgroups."))]
        for index, (module, qualname) in enumerate(TARGETS):
            home = sys.modules[f"blgroups.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(index, original))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(index, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        self._observers.flush()
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries -----------------------------------------------------

    def summary(self) -> dict:
        """Calls and self seconds per target, plus the derived counts."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += self.end[i] - self.start[i] - child[i]
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "counts": dict(self.counts),
            "spans": n,
        }


def scaled(summary: dict, factor: float) -> dict:
    """The summary with self seconds divided by factor (into reference
    seconds, see calibrate.py)."""
    return dict(summary, self_s={k: v / factor for k, v in summary["self_s"].items()})


def merge(summaries) -> dict:
    """Sum several summaries (one per traced child process)."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(), "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}
