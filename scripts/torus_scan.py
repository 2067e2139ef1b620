#!/usr/bin/env python3
"""Census of finiteness verdicts for torus data vs the dense scan.

Samples integer-matrix data on low-dimensional tori, runs the pool-based
finiteness check, and cross-examines every verdict against brute-force
codimension checking over all subspaces with small-entry bases.  Reports the
verdict distribution and any disagreement (a missed violator would be a bug
worth triaging).

--audit also scans every vertex of the pool polytope of each FINITE datum,
the per-vertex check that FINITE verdicts once waited on; it is an offline
audit of the lattice proof now behind FINITE.  --bench-pool takes the 360
fixed torus and mixed data of the torus-verdicts benchmark in place of
random data; mixed data are scanned on their torus part.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from blgroups.datum import Exponent
from blgroups.lie import (
    CompactLieDatum,
    IdealSpec,
    LinearizedMap,
    Verdict,
    bl_polytope,
    codimension_check,
    codimension_defect,
    finiteness,
    split_commutator_center,
    vertices,
)
from blgroups.rational_linalg import enumerate_box_subspaces

# Scan box above T^3: box 1 on T^4 already spans 1083 subspaces, box 2 is
# out of reach.
HIGH_DIM_BOX = 1


def random_datum(rng, max_dim, entry_bound):
    t = rng.randint(1, max_dim)
    J = rng.randint(1, 3)
    maps = tuple(
        LinearizedMap(
            (),
            [
                [rng.randint(-entry_bound, entry_bound) for _ in range(t)]
                for _ in range(rng.randint(1, max_dim))
            ],
        )
        for _ in range(J)
    )
    return CompactLieDatum((), t, maps)


def random_data(args):
    rng = random.Random(args.seed)
    for _ in range(args.count):
        d = random_datum(rng, args.max_dim, args.entry_bound)
        p = [Exponent.of(rng.choice(["1", "3/2", "2", "3", "inf"]))
             for _ in range(d.J)]
        yield d, p


def bench_pool_data():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import torus_pool

    for d, p in torus_pool():
        yield d, [Exponent.of(x) for x in p]


class Scanner:
    """The dense scan, with the subspaces of each box built once per run."""

    def __init__(self, box):
        self.box = box
        self.subspaces = {}
        self.scans = 0

    def violator(self, torus, p):
        t = torus.torus_dim
        key = (t, self.box if t <= 3 else HIGH_DIM_BOX)
        if key not in self.subspaces:
            bases = enumerate_box_subspaces(t, key[1], max(0, t - 1))
            self.subspaces[key] = [IdealSpec((), basis) for basis in bases]
        self.scans += 1
        return codimension_check(torus, p, self.subspaces[key]).violator


def vertex_exponents(torus, pool):
    torus_pool = {IdealSpec((), n.torus_basis) for n in pool}
    for v in vertices(bl_polytope(torus, list(torus_pool))):
        yield [Exponent(None) if x == 0 else Exponent(1 / x) for x in v]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=60)
    ap.add_argument("--max-dim", type=int, default=3)
    ap.add_argument("--entry-bound", type=int, default=2)
    ap.add_argument("--scan-box", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--audit", action="store_true",
                    help="also scan every pool-polytope vertex of FINITE data")
    ap.add_argument("--bench-pool", action="store_true",
                    help="the torus-verdicts benchmark data, not random data")
    args = ap.parse_args()

    scanner = Scanner(args.scan_box)
    data = bench_pool_data() if args.bench_pool else random_data(args)
    verdicts = Counter()
    disagreements = []
    audited = vertex_count = 0
    t0 = time.time()
    for i, (d, p) in enumerate(data):
        rep = finiteness(d, p)
        verdicts[rep.verdict.value] += 1
        if rep.verdict is Verdict.INFINITE:
            assert codimension_defect(d, p, rep.violator) > 0
            continue
        torus = split_commutator_center(d)[1]
        points = [p]
        if args.audit and rep.verdict is Verdict.FINITE and torus.torus_dim:
            audited += 1
            corners = list(vertex_exponents(torus, rep.pool))
            vertex_count += len(corners)
            points += corners
        for q in points:
            brute = scanner.violator(torus, q)
            if brute is not None:
                disagreements.append((i, d, [str(x) for x in q], brute))
                break
    n = sum(verdicts.values())
    print(f"{n} data in {time.time() - t0:.1f}s: {dict(verdicts)}")
    print(f"{scanner.scans} dense scans (box {args.scan_box} up to T^3, "
          f"box {HIGH_DIM_BOX} above)")
    if args.audit:
        print(f"audit: {audited} FINITE data, {vertex_count} pool-polytope vertices")
    if disagreements:
        print(f"MISSED VIOLATORS: {len(disagreements)}")
        for i, d, p, brute in disagreements:
            print(f"  datum {i}: p={p} torus_dim={d.torus_dim} "
                  f"violator basis={brute.torus_basis}")
    else:
        print("no violator missed by the pool")


if __name__ == "__main__":
    main()
