#!/usr/bin/env python3
"""Survey the standard corpus: constants, argmax structure, oracle agreement.

Walks every canonical datum in the deterministic corpus (subgroups of small
products of Z2/Z3/Z4/S3 with coordinate projections, all exponent tuples over
{1, 3/2, 2, 3, inf}), computes the exact constant, and reports distribution
statistics plus the worst oracle deviation.  Useful as a quick regression
sweep and as a source of interesting examples (ties, non-trivial argmaxes).
"""

import argparse
import random
import time
from collections import Counter

from blgroups.constant import bl_constant
from blgroups.corpus import exponent_grid, frame_datum, standard_frames
from blgroups.groups import all_subgroups
from blgroups.oracle import oracle_constant

# the oracle settings of acceptance criterion 1, so spot checks match it
ORACLE_RESTARTS = 8
ORACLE_SEED = 20


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-triple-order", type=int, default=36)
    ap.add_argument("--max-group-order", type=int, default=64)
    ap.add_argument("--oracle-fraction", type=float, default=0.02,
                    help="fraction of data to spot-check with the ascent oracle")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.time()
    frames = standard_frames(
        max_triple_order=args.max_triple_order,
        max_group_order=args.max_group_order,
    )
    print(f"{len(frames)} frames in {time.time() - t0:.1f}s")

    rng = random.Random(args.seed)
    lattices = {}
    value_kinds = Counter()
    tie_count = 0
    proper_argmax = 0
    total = 0
    worst_dev = 0.0
    worst_case = None
    t0 = time.time()
    for frame in frames:
        if frame.group not in lattices:
            lattices[frame.group] = all_subgroups(frame.group)
        subs = lattices[frame.group]
        for p in exponent_grid(frame.J):
            d = frame_datum(frame, p)
            rep = bl_constant(d, subgroups=subs)
            total += 1
            tie_count += rep.tie
            if 1 < rep.argmax_subgroup.order < d.G.order:
                proper_argmax += 1
            f = rep.value.as_fraction()
            value_kinds["one" if rep.value.is_one
                        else "rational" if f is not None else "irrational"] += 1
            if rng.random() < args.oracle_fraction:
                approx = rep.value.to_float()
                got = oracle_constant(d, restarts=ORACLE_RESTARTS, seed=ORACLE_SEED)
                dev = abs(got - approx) / approx
                if dev > worst_dev:
                    worst_dev, worst_case = dev, (frame.name, [str(x) for x in p])

    print(f"{total} data in {time.time() - t0:.1f}s")
    print(f"values: {dict(value_kinds)}")
    print(f"ties at the maximum: {tie_count}")
    print(f"proper (non-trivial, non-full) argmax subgroups: {proper_argmax}")
    print(f"worst sampled oracle deviation: {worst_dev:.2e} at {worst_case}")


if __name__ == "__main__":
    main()
