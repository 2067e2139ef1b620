"""A name that `perfbench/tracer.py` still wraps; no command imports it.

The library keeps no lattice cache: `constant` and `verify` rank the kernel
lattice, and `constant --candidates` lists every subgroup afresh.  The class
goes with ROADMAP item 1b, which drops its entry from the tracer's TARGETS.
"""

from __future__ import annotations

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, all_subgroups


class SubgroupCache:
    last_hit = False

    def subgroups(
        self, G: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
    ) -> list[Subgroup]:
        """A fresh listing of every subgroup of G: nothing is stored."""
        return all_subgroups(G, order_cap)
