"""Exact Brascamp-Lieb constants of finite data by subgroup maximization.

The constant of a finite datum equals the maximum over subgroups H of

    mass(H) / prod_j mass(sigma_j(H)) ** (1/p_j),

with masses taken in the datum's Haar normalizations.  Only saturated
subgroups, those equal to the intersection of the preimages of their images,
need to be scanned: saturating a subgroup never shrinks the numerator and
leaves the denominator unchanged.  Everything is ExactValue arithmetic, so
equalities in the reduction calculus are testable with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .datum import BLDatum, CanonicalTag, canonical_tag
from .exact import ExactValue, exact_max
from .groups import (
    HaarMode,
    Subgroup,
    all_subgroups,
    haar_mass,
    image,
)


def _codomain_mass(d: BLDatum, j: int, member_count: int) -> Fraction:
    if d.haar_codomains[j] is HaarMode.COUNTING:
        return Fraction(member_count)
    return Fraction(member_count, d.codomains[j].order)


def ratio(d: BLDatum, H: Subgroup) -> ExactValue:
    """mass(H) / prod_j mass(sigma_j(H))^(1/p_j); the term for p = inf is 1."""
    if H.parent != d.G:
        raise ValueError("subgroup does not live in the datum's source group")
    value = ExactValue.from_rational(haar_mass(H, d.haar_G))
    for j, h in enumerate(d.maps):
        r = d.exponents[j].reciprocal()
        if r == 0:
            continue
        img_count = len({h.map[x] for x in H.members})
        value = value / ExactValue.from_rational(_codomain_mass(d, j, img_count)) ** r
    return value


def saturate(d: BLDatum, H: Subgroup) -> Subgroup:
    """The intersection of preimages of the images of H; contains H."""
    if H.parent != d.G:
        raise ValueError("subgroup does not live in the datum's source group")
    members = []
    image_sets = [{h.map[x] for x in H.members} for h in d.maps]
    for x in range(d.G.order):
        if all(h.map[x] in s for h, s in zip(d.maps, image_sets)):
            members.append(x)
    return Subgroup(d.G, tuple(members))


@dataclass(frozen=True)
class ConstantReport:
    value: ExactValue
    argmax_subgroup: Subgroup
    saturated: bool
    tie: bool
    canonicalization: Optional[CanonicalTag] = None
    all_candidates: Optional[tuple[tuple[Subgroup, ExactValue], ...]] = None

    def approx(self) -> float:
        return self.value.to_float()


def bl_constant(
    d: BLDatum,
    subgroups: Optional[list[Subgroup]] = None,
    include_candidates: bool = False,
    order_cap: int = 4096,
) -> ConstantReport:
    """Maximize the subgroup ratio; exact for every finite datum.

    The scan runs over saturated subgroups only.  Ties break toward smaller
    subgroup order, then lexicographic member lists; the report says whether
    a tie occurred.  For non-canonical input the canonicalization tag (with
    its exact constant factor) is attached for reference; the value reported
    is that of the datum as given.
    """
    if subgroups is None:
        subgroups = all_subgroups(d.G, order_cap)
    tag = canonical_tag(d)

    seen = set()
    candidates = []
    for H in subgroups:
        S = saturate(d, H)
        if S.members not in seen:
            seen.add(S.members)
            candidates.append(S)
    candidates.sort(key=lambda s: (s.order, s.members))
    values = [ratio(d, S) for S in candidates]
    best, value, tie = exact_max(values)

    all_cands = None
    if include_candidates:
        all_cands = tuple((H, ratio(d, H)) for H in subgroups)

    return ConstantReport(
        value=value,
        argmax_subgroup=candidates[best],
        saturated=True,
        tie=tie,
        canonicalization=None if tag.is_canonical else tag,
        all_candidates=all_cands,
    )


def extremizer(d: BLDatum, report: Optional[ConstantReport] = None) -> list[list[Fraction]]:
    """Indicator inputs attaining the constant: one per codomain.

    The j-th function is the indicator of sigma_j(H*) for the maximizing
    saturated subgroup H*; plugging them into the multilinear form gives
    value * prod_j ||f_j||_{p_j} exactly.
    """
    if report is None:
        report = bl_constant(d)
    H = report.argmax_subgroup
    out = []
    for j, h in enumerate(d.maps):
        img = image(h, H)
        mem = img.member_set()
        out.append(
            [Fraction(1) if y in mem else Fraction(0) for y in range(d.codomains[j].order)]
        )
    return out
