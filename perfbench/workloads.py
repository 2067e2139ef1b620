"""The four workloads: seeded inputs, one round of operations, output checks.

A workload builds its inputs once per set-up from the seed, then runs them in
rounds.  A round has a fixed composition, and every cache the program keeps
between operations (subgroup lattices, box subspaces, the CLI's lattice
directory) starts empty at the beginning of a round, so a round does the same
work every time it runs.  Operation latency covers only the program's work;
checks run afterwards, untimed and untraced.

`run(op)` returns (result, tag) where tag is "cold" for an operation that
fills a reuse cache, "warm" for one that could reuse it, and None otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from blgroups import constant, corpus, datum, groups, lie, oracle, serialize

VERIFY_BUDGET = 2**22
VERIFY_RESTARTS = 8
VERIFY_ORACLE_SEED = 20
VERIFY_SHARE = 10
ORACLE_REL_TOL = 1e-9


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exponents_key(p) -> str:
    return ",".join(str(x) for x in p)


def constant_payload(value, argmax, tie) -> dict:
    """The part of a constant result that must stay byte-identical."""
    return {"value": value, "argmax": list(argmax), "tie": tie}


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, reference: dict):
        self.root = root
        self.seed = seed
        self.reference = reference
        self.ops: list = []

    def setup(self):
        raise NotImplementedError

    def input_digest(self) -> str:
        return digest([self.describe(op) for op in self.ops])

    def describe(self, op):
        raise NotImplementedError

    def begin_round(self):
        pass

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> bool:
        return True

    def child_seconds(self, result):
        """The operation's latency in reference seconds as measured by the
        child process that did the work, or None for in-process work."""
        return None

    def end_round(self) -> set:
        """Indices of operations found wrong by whole-round checks."""
        return set()

    def close(self):
        pass


# -- corpus ----------------------------------------------------------------


class _CorpusWorkload(Workload):
    """Acceptance-corpus data, each group's lattice enumerated once a round.

    A round opens with one datum per group, the group's first frame at the
    first exponent tuple; these enumerate the lattices (the cold operations),
    so the cold operations are the same data for every seed.
    """

    def _frames_and_openers(self):
        frames = corpus.standard_frames()
        first = {}
        for f in frames:
            first.setdefault(f.group, f)
        return frames, [(f, corpus.exponent_grid(f.J)[0]) for f in first.values()]

    @staticmethod
    def _data(pairs):
        return [(f, p, corpus.frame_datum(f, p)) for f, p in pairs]

    def describe(self, op):
        frame, p, _ = op
        return [frame.name, exponents_key(p)]

    def begin_round(self):
        self.lattices = {}

    def lattice(self, G):
        if G in self.lattices:
            return self.lattices[G], "warm"
        self.lattices[G] = groups.all_subgroups(G)
        return self.lattices[G], "cold"


class CorpusConstant(_CorpusWorkload):
    name = "corpus-constant"

    def setup(self):
        frames, openers = self._frames_and_openers()
        opened = {(f.name, exponents_key(p)) for f, p in openers}
        rest = [(f, p) for f in frames for p in corpus.exponent_grid(f.J)
                if (f.name, exponents_key(p)) not in opened]
        random.Random(self.seed).shuffle(rest)
        self.ops = self._data(openers + rest)

    def begin_round(self):
        super().begin_round()
        self.payloads = {}

    def run(self, op):
        frame, p, d = op
        subs, tag = self.lattice(d.G)
        return constant.bl_constant(d, subgroups=subs), tag

    def check(self, op, rep):
        frame, p, _ = op
        self.payloads.setdefault(frame.name, {})[exponents_key(p)] = constant_payload(
            rep.value.to_json(), rep.argmax_subgroup.members, rep.tie
        )
        return True

    def frame_digests(self) -> dict:
        return {name: digest(v) for name, v in self.payloads.items()}

    def end_round(self):
        expected = self.reference["corpus_constant_frames"]
        got = self.frame_digests()
        bad = {name for name in expected if got.get(name) != expected[name]}
        bad |= set(got) - set(expected)
        return {i for i, (f, _, _) in enumerate(self.ops) if f.name in bad}


class CorpusVerify(_CorpusWorkload):
    name = "corpus-verify"

    def setup(self):
        # Besides the openers, a seeded tenth of each frame's exponent grid:
        # every frame contributes the same count for every seed, which keeps
        # the round's cost steady.
        rng = random.Random(self.seed)
        frames, openers = self._frames_and_openers()
        opened = {(f.name, exponents_key(p)) for f, p in openers}
        sample = []
        for f in frames:
            grid = [p for p in corpus.exponent_grid(f.J)
                    if (f.name, exponents_key(p)) not in opened]
            sample += [(f, p) for p in rng.sample(grid, len(grid) // VERIFY_SHARE)]
        rng.shuffle(sample)
        self.ops = self._data(openers + sample)

    def run(self, op):
        _, _, d = op
        subs, tag = self.lattice(d.G)
        rep = constant.bl_constant(d, subgroups=subs)
        ev, _ = oracle.exhaustive_indicator_search(d, budget=VERIFY_BUDGET)
        numeric = oracle.oracle_constant(
            d, restarts=VERIFY_RESTARTS, seed=VERIFY_ORACLE_SEED
        )
        return (rep.value, ev, numeric), tag

    def check(self, op, result):
        value, ev, numeric = result
        approx = value.to_float()
        return ev.compare(value) == 0 and abs(numeric - approx) <= ORACLE_REL_TOL * approx


# -- torus verdicts ----------------------------------------------------------

LW_LIE = {"simple_dims": [], "torus_dim": 3, "maps": [  # Loomis-Whitney on T^3
    {"kept_simple": [], "torus_matrix": [[0, 1, 0], [0, 0, 1]]},
    {"kept_simple": [], "torus_matrix": [[1, 0, 0], [0, 0, 1]]},
    {"kept_simple": [], "torus_matrix": [[1, 0, 0], [0, 1, 0]]},
]}
TORUS_POOL_SEED = 7070
TORUS_POOL_SIZE = 360
TORUS_POOL_PASSES = 3  # passes over the pool per round, each in its own seeded order
SIMPLE_DIMS = (3, 8)  # su(2), su(3)


def torus_pool():
    """Fixed family of random torus and mixed data of torus dimension 1 to 4."""
    rng = random.Random(TORUS_POOL_SEED)
    pool = []
    for i in range(TORUS_POOL_SIZE):
        t = 1 + i % 4
        mixed = (i // 4) % 2 == 1
        simple = tuple(rng.choice(SIMPLE_DIMS) for _ in range(rng.randint(1, 2))) if mixed else ()
        maps = []
        for _ in range(rng.randint(1, 3)):
            kept = tuple(k for k in range(len(simple)) if rng.random() < 0.5)
            rows = [[rng.randint(-2, 2) for _ in range(t)] for _ in range(rng.randint(1, 3))]
            maps.append(lie.LinearizedMap(kept, rows))
        p = tuple(rng.choice(corpus.EXPONENT_CHOICES) for _ in maps)
        pool.append((lie.CompactLieDatum(simple, t, tuple(maps)), p))
    return pool


def torus_key(d, p) -> str:
    return digest([list(d.simple_dims), d.torus_dim,
                   [[list(m.kept_simple), [[str(v) for v in r] for r in m.torus_matrix]]
                    for m in d.maps], list(p)])


# Pool indices left out of the round: the 68 data whose verdict was FINITE on
# T^3 when the benchmark was defined.  Each costs 2 to 10 s (a dense subspace
# scan at every polytope vertex), so any share of them would swamp the round
# and its spread; the pinned Loomis-Whitney datum carries that path.  They are
# fixed by index, not by verdict, so the round keeps its composition when a
# later change alters verdicts.
TORUS_LEFT_OUT = frozenset((
    6, 10, 14, 18, 30, 34, 38, 46, 50, 54, 58, 62, 70, 74, 82, 86, 90, 94, 98,
    110, 118, 122, 126, 130, 138, 142, 146, 150, 154, 158, 162, 166, 170, 174,
    178, 182, 186, 190, 202, 206, 214, 222, 234, 238, 242, 246, 250, 254, 258,
    266, 274, 278, 282, 286, 290, 298, 306, 310, 314, 318, 322, 326, 330, 338,
    346, 350, 354, 358,
))


class TorusVerdicts(Workload):
    name = "torus-verdicts"

    def setup(self):
        recorded = self.reference["torus_verdicts"]
        sample = []
        for i, (d, p) in enumerate(torus_pool()):
            if i not in TORUS_LEFT_OUT:
                key = torus_key(d, p)
                sample.append((key, d, p, recorded[key]))
        rng = random.Random(self.seed)
        passes = []
        for _ in range(TORUS_POOL_PASSES):
            rng.shuffle(sample)
            passes += sample
        lw = serialize.parse_lie_datum(LW_LIE)
        pinned = ("loomis-whitney", lw, ("2", "2", "2"), "FINITE")
        self.ops = [pinned] + passes + [pinned]
        self.changed = 0

    def describe(self, op):
        return [op[0], list(op[2])]

    def begin_round(self):
        # The box-subspace table is a process-wide cache inside lie; a round
        # starts it empty so the one-off enumeration is paid every round.
        table = getattr(lie, "_BOX_SUBSPACE_CACHE", None)
        if table is not None:
            table.clear()
        self.position = 0

    def run(self, op):
        _, d, p, _ = op
        tag = None
        if op[0] == "loomis-whitney":
            tag = "cold" if self.position == 0 else "warm"
        self.position += 1
        return lie.finiteness(d, [datum.Exponent.of(x) for x in p]), tag

    def check(self, op, rep):
        _, d, p, recorded = op
        verdict = rep.verdict.value
        if verdict == "INFINITE":
            exps = [datum.Exponent.of(x) for x in p]
            if not lie.codimension_defect(d, exps, rep.violator) > 0:
                return False
        if verdict == recorded:
            return True
        if recorded == "UNDECIDED":
            self.changed += 1  # reported, not failed
            return True
        return False


# -- command line ------------------------------------------------------------


def _digits(i, moduli):
    out = []
    for m in reversed(moduli):
        i, r = divmod(i, m)
        out.append(r)
    return out[::-1]


def _encode(ds, moduli):
    i = 0
    for m, v in zip(moduli, ds):
        i = i * m + v
    return i


def projection_datum(modulus: int, rank: int, coords) -> dict:
    """Z_m^rank with coordinate projections onto each tuple in coords."""
    moduli = [modulus] * rank
    maps, codomains = [], []
    for cs in coords:
        sub = [modulus] * len(cs)
        maps.append([_encode([_digits(x, moduli)[c] for c in cs], sub)
                     for x in range(modulus**rank)])
        codomains.append({"cyclic": sub})
    return {"group": {"cyclic": moduli}, "codomains": codomains, "maps": maps}


def _drop_one(rank):
    return [[c for c in range(rank) if c != j] for j in range(rank)]


CLI_DATA = {
    "Z2^5": projection_datum(2, 5, [[0, 1], [1, 2], [2, 3], [3, 4]]),
    "Z4^3": projection_datum(4, 3, _drop_one(3)),
    "Z3^4": projection_datum(3, 4, _drop_one(4)),
}

# Exponent menus: the seed draws distinct tuples from each, so cold and warm
# calls on a group differ in exponents; reference.json holds every result.
CLI_EXPONENTS = {
    "Z2^5": ["2,2,2,2", "3/2,3,3/2,3", "1,inf,1,inf", "3,3,3,3", "3/2,2,2,3/2",
             "inf,2,2,inf", "1,2,3,inf", "2,3/2,3/2,2"],
    "Z4^3": ["2,2,2", "3/2,3/2,3/2", "3,3,3", "1,inf,inf", "3/2,2,3", "inf,3/2,2",
             "2,3,inf", "1,2,2"],
    "Z3^4": ["3/2,3/2,3/2,3/2", "2,2,2,2", "3,3,3,3", "1,inf,inf,inf", "4/3,4/3,4/3,4/3",
             "3/2,3,3/2,3", "2,inf,2,inf", "inf,3/2,3/2,3/2"],
}
CLI_CODIM_INFINITE = ["3/2,2,2", "2,3/2,2", "2,2,3/2", "1,1,1", "1,1,inf",
                      "3/2,3/2,3/2", "1,2,2", "inf,1,1"]
CLI_VERIFIES = 4  # verify calls per round, of the 8 in the Z2^5 menu
CLI_HEISENBERG = [("1,1/2", "10"), ("1,2/3", "10"), ("1,1/2", "100"),
                  ("1,2/3", "100"), ("1,1/2", "1000"), ("1,2/3", "1000")]
EXPECTED_EXIT = 0


def cli_payload(command: str, result: dict) -> dict:
    """The stable part of a report's result, digested against reference.json."""
    if command == "constant":
        return constant_payload(result["value"]["primes"], result["argmax"], result["tie"])
    if command == "verify":
        f = result["formula"]
        return {"formula": constant_payload(f["value"]["primes"], f["argmax"], f["tie"]),
                "exhaustive": result["exhaustive"]["value"]["primes"],
                "all_agree": result["all_agree"]}
    if command == "check-codim":
        return {"verdict": result["verdict"], "slack": result.get("slack")}
    if command == "polytope":
        return {"halfspaces": result["halfspaces"], "vertices": result["vertices"]}
    if command == "heisenberg-demo":
        return {k: result[k] for k in ("terms", "lower_bound", "box_volume")}
    raise ValueError(command)


# A call is (key, command, datum name, exponents, extra argv, tag); the key
# names the call's result in reference.json.  These builders are the only
# place keys and argv are made.


def constant_call(name, p, tag=None, no_cache=False):
    # --no-cache gives the same result, so it shares the key.
    return (f"constant {name} p={p}", "constant", name, p,
            ["--no-cache"] if no_cache else [], tag)


def verify_call(p):
    return (f"verify Z2^5 p={p}", "verify", "Z2^5", p,
            ["--restarts", str(VERIFY_RESTARTS), "--budget", str(VERIFY_BUDGET)], None)


def codim_call(p):
    return (f"check-codim LW p={p}", "check-codim", "LW", p, ["--p", p], None)


POLYTOPE_CALL = ("polytope LW", "polytope", "LW", None, [], None)


def heisenberg_call(alphas, M):
    return (f"heisenberg-demo alphas={alphas} M={M}", "heisenberg-demo", None, None,
            ["--alphas", alphas, "--M", M], None)


def every_cli_call():
    """Every call the cli workload can draw, one per key."""
    for name, menu in CLI_EXPONENTS.items():
        for p in menu:
            yield constant_call(name, p)
    for p in CLI_EXPONENTS["Z2^5"]:
        yield verify_call(p)
    for p in CLI_CODIM_INFINITE:
        yield codim_call(p)
    yield POLYTOPE_CALL
    for alphas, M in CLI_HEISENBERG:
        yield heisenberg_call(alphas, M)


def cli_calls(seed: int):
    """The calls of one round: every call of every_cli_call but verify, of
    which the seed draws CLI_VERIFIES, plus one --no-cache constant call on
    Z2^5; so the round's work hardly depends on the seed.  The seed also
    draws each group's cold call, which opens the round and fills the lattice
    cache, and the order of the rest; a group's later constant calls hit the
    cache (warm).
    """
    rng = random.Random(seed)
    cold = [constant_call(name, rng.choice(menu), "cold")
            for name, menu in CLI_EXPONENTS.items()]
    skipped = {c[0] for c in cold}
    skipped |= {verify_call(p)[0] for p in rng.sample(CLI_EXPONENTS["Z2^5"],
                                                       len(CLI_EXPONENTS["Z2^5"]) - CLI_VERIFIES)}
    rest = [constant_call(c[2], c[3], "warm") if c[1] == "constant" else c
            for c in every_cli_call() if c[0] not in skipped]
    rest.append(constant_call("Z2^5", rng.choice(CLI_EXPONENTS["Z2^5"]), no_cache=True))
    rng.shuffle(rest)
    return cold + rest


def input_texts(calls) -> dict[str, str]:
    """The input files the calls read: file name to JSON text."""
    texts = {input_file(name, p): json.dumps(dict(CLI_DATA[name], p=p.split(",")))
             for _, command, name, p, _, _ in calls if command in ("constant", "verify")}
    texts["LW.json"] = json.dumps(LW_LIE)
    return texts


def write_inputs(texts: dict[str, str], inputs: Path):
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (inputs / name).write_text(text)


def input_file(name: str, p: str) -> str:
    return f"{name}_{p.replace('/', 'o').replace(',', '_')}.json"


def cli_argv(call, inputs: Path, cache: Path) -> list[str]:
    _, command, name, p, extra, _ = call
    argv = [command]
    if command in ("constant", "verify"):
        argv += ["--in", str(inputs / input_file(name, p)), "--cache-dir", str(cache)]
    elif command in ("check-codim", "polytope"):
        argv += ["--in", str(inputs / "LW.json")]
    return argv + extra


class Cli(Workload):
    """`blgroups.cli` under launch.py, one fresh process per call."""

    name = "cli"

    def __init__(self, root, seed, reference):
        super().__init__(root, seed, reference)
        self.traced = False
        self.work = root / ".perfbench" / f"cli-{os.getpid()}"
        self.summaries: list[dict] = []
        self.rounds = 0

    def setup(self):
        # Only in memory: set-up time is then processor work, which the speed
        # probe scales, and not file-system time, which it would distort.
        self.ops = cli_calls(self.seed)
        self.texts = input_texts(self.ops)
        self.inputs = self.work / "inputs"

    def describe(self, op):
        return op[0]

    def begin_round(self):
        write_inputs(self.texts, self.inputs)
        self.rounds += 1
        self.startup_s = self.inner_s = 0.0
        self.cache = self.work / f"cache-{self.rounds}"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)

    def run(self, op):
        # Each call runs under launch.py, which runs blgroups.cli.main with a
        # speed probe (and, in a traced round, the tracer) in the child.
        argv = cli_argv(op, self.inputs, self.cache)
        probe_out = self.work / "probe.json"
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   BLGROUPS_CACHE_DIR=str(self.cache), PERFBENCH_PROBE_OUT=str(probe_out))
        trace_out = None
        if self.traced:
            trace_out = self.work / "trace.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        cmd = [sys.executable, str(self.root / "perfbench" / "launch.py")] + argv
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True,
                              text=True, timeout=170)
        wall = time.perf_counter() - started
        probe = json.loads(probe_out.read_text())
        probe_out.unlink()
        if trace_out is not None:
            self.summaries.append(json.loads(trace_out.read_text()))
            trace_out.unlink()
        return (proc, wall, probe), op[5]

    def child_seconds(self, result):
        _, wall, probe = result
        return (wall - probe["stolen"]) / probe["factor"]

    def check(self, op, result):
        proc, _, probe = result
        key, command = op[0], op[1]
        if proc.returncode != EXPECTED_EXIT:
            return False
        report = json.loads(proc.stdout)
        # The report's timing_s, in reference seconds like the call itself.
        inner = (report["timing_s"] - probe["stolen_in_main"]) / probe["factor"]
        self.startup_s += self.child_seconds(result) - inner
        self.inner_s += inner
        res = report["result"]
        if command == "check-codim":
            d = serialize.parse_lie_datum(LW_LIE)
            violator = lie.IdealSpec(tuple(res["violator"]["simple_part"]),
                                     res["violator"]["torus_basis"])
            exps = [datum.Exponent.of(x) for x in op[3].split(",")]
            if not lie.codimension_defect(d, exps, violator) > 0:
                return False
        if command == "heisenberg-demo" and not Fraction(res["lower_bound"]) > Fraction(op[4][3]):
            return False
        return self.reference["cli"].get(key) == digest(cli_payload(command, res))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CorpusConstant, CorpusVerify, TorusVerdicts, Cli)}
