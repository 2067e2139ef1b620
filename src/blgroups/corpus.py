"""Deterministic corpora of canonical finite data for verification runs.

A universe is a product of 2 or 3 factors drawn from Z2, Z3, Z4, S3.  Every
subgroup of the universe that projects onto each factor yields a canonical
datum: the subgroup as a group, with the restricted coordinate projections
(the joint kernel is automatically trivial, surjectivity is the filter).
Crossing those frames with exponent tuples from {1, 3/2, 2, 3, inf} gives
the verification corpus; probability Haar throughout unless asked otherwise.

A frame checks once, at construction, that each map has its group as
domain; `frame_datum` then builds each exponent tuple's datum without
checking the maps again, and checks only the exponents' range and count
(`groups` docstring, trusted construction).  The five exponents are parsed
once, into `EXPONENTS`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .datum import BLDatum, Exponent, _check_domains, _check_lengths
from .groups import (
    FiniteGroup,
    HaarMode,
    Homomorphism,
    all_subgroups,
    compose,
    direct_product,
    from_permutations,
    identity_map,
    make_cyclic_product,
    subgroup_group,
)

EXPONENT_CHOICES = ("1", "3/2", "2", "3", "inf")
EXPONENTS = tuple(Exponent.of(c) for c in EXPONENT_CHOICES)


def standard_factor(name: str) -> FiniteGroup:
    if name == "Z2":
        return make_cyclic_product([2])
    if name == "Z3":
        return make_cyclic_product([3])
    if name == "Z4":
        return make_cyclic_product([4])
    if name == "S3":
        return from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    raise ValueError(f"unknown factor {name!r}")


def multi_product(
    factors: Sequence[FiniteGroup],
) -> tuple[FiniteGroup, list[Homomorphism]]:
    """Iterated direct product with the full list of coordinate projections."""
    if len(factors) == 1:
        G = factors[0]
        return G, [identity_map(G)]
    P, pa, pb = direct_product(factors[0], factors[1])
    projections = [pa, pb]
    for F in factors[2:]:
        P2, p_old, p_new = direct_product(P, F)
        projections = [compose(h, p_old) for h in projections] + [p_new]
        P = P2
    return P, projections


@dataclass(frozen=True)
class Frame:
    """A canonical group-side configuration: G with surjections onto factors.
    Construction checks that every map has domain G, once for all the data of
    the frame."""

    name: str
    group: FiniteGroup
    maps: tuple[Homomorphism, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        _check_domains(self.group, self.maps)

    @property
    def J(self) -> int:
        return len(self.maps)


def subdirect_frames(factor_names: Sequence[str]) -> list[Frame]:
    """All subgroups of the product projecting onto every factor, as frames."""
    factors = [standard_factor(n) for n in factor_names]
    P, projections = multi_product(factors)
    frames = []
    base = "x".join(factor_names)
    for idx, H in enumerate(all_subgroups(P)):
        if not all(fibre & H.mask for h in projections for fibre in h.fibres):
            continue
        K, incl = subgroup_group(H)
        maps = tuple(compose(h, incl) for h in projections)
        frames.append(Frame(f"{base}#s{idx}o{K.order}", K, maps))
    return frames


def standard_frames(
    max_triple_order: int = 36,
    max_group_order: int = 64,
) -> list[Frame]:
    names = ("Z2", "Z3", "Z4", "S3")
    orders = {"Z2": 2, "Z3": 3, "Z4": 4, "S3": 6}
    universes = list(itertools.combinations_with_replacement(names, 2)) + [
        u
        for u in itertools.combinations_with_replacement(names, 3)
        if orders[u[0]] * orders[u[1]] * orders[u[2]] <= max_triple_order
    ]
    frames = []
    for u in universes:
        for f in subdirect_frames(u):
            if f.group.order <= max_group_order:
                frames.append(f)
    return frames


def exponent_grid(J: int) -> list[tuple[Exponent, ...]]:
    return list(itertools.product(EXPONENTS, repeat=J))


def frame_datum(
    frame: Frame, exponents: Sequence, haar: HaarMode = HaarMode.PROBABILITY
) -> BLDatum:
    """The frame at the given exponents, under one Haar mode throughout.
    The exponents are coerced and counted as `make_datum` does; the maps are
    not checked again (`Frame`)."""
    exponents, J = tuple(map(Exponent.of, exponents)), frame.J
    _check_lengths(J, len(exponents), J)
    return BLDatum._built(frame.group, frame.maps, exponents, haar, (haar,) * J)
