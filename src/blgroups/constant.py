"""Exact Brascamp-Lieb constants of finite data by subgroup maximization.

The constant of a finite datum equals the maximum over subgroups H of

    mass(H) / prod_j mass(sigma_j(H)) ** (1/p_j),

with masses taken in the datum's Haar normalizations.  Only saturated
subgroups, those equal to the intersection of the preimages of their images,
need to be scanned: saturating a subgroup never shrinks the numerator and
leaves the denominator unchanged.  The reported value is ExactValue
arithmetic, so equalities in the reduction calculus are testable with zero
tolerance.

Saturation runs on int bitsets.  For each map, the fibre mask of a codomain
element y (`Homomorphism.fibres`) has bit x set when sigma_j(x) = y; the
saturation of H is the AND over j of the OR of the fibres that meet H.  Its
image under each map is sigma_j(H), so one pass over the fibres gives both
the candidate and the image orders of its denominator, and the exact ratio
is built from those orders.

An exact ratio is one product of integer powers n^e: |S|^1, |G|^-1 under
probability Haar, and for each map |sigma_j(S)|^(-r_j) and, under
probability Haar, |G_j|^(r_j), with r_j = 1/p_j.  The datum's quotient
table builds it, and holds the float ranking terms, their proved margin and
the exact argmax (`datum` module docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .datum import BLDatum, CanonicalTag, _QuotientTable, canonical_tag
from .exact import ExactValue
from .groups import Subgroup, all_subgroups, mask_members


def ratio(d: BLDatum, H: Subgroup) -> ExactValue:
    """mass(H) / prod_j mass(sigma_j(H))^(1/p_j); the term for p = inf is 1."""
    return _ratio(d, _QuotientTable(d), H)


def _ratio(d: BLDatum, table: _QuotientTable, H: Subgroup) -> ExactValue:
    """`ratio` from the datum's quotient table, built once by the caller."""
    if H.parent != d.G:
        raise ValueError("subgroup does not live in the datum's source group")
    counts = [h.image_mask(H.mask).bit_count() for h in d.maps]
    return table.value(H.order, counts)


def _saturation(d: BLDatum, H: Subgroup) -> tuple[int, tuple[int, ...]]:
    """The member mask of the saturation of H and its image order under each map."""
    if H.parent != d.G:
        raise ValueError("subgroup does not live in the datum's source group")
    hmask = H.mask
    mask = (1 << d.G.order) - 1
    counts = []
    for h in d.maps:
        hit = [fibre for fibre in h.fibres if fibre & hmask]
        mask &= sum(hit)  # fibres are disjoint, so the sum is the union
        counts.append(len(hit))
    return mask, tuple(counts)


def saturate(d: BLDatum, H: Subgroup) -> Subgroup:
    """The intersection of preimages of the images of H; contains H."""
    mask, _ = _saturation(d, H)
    return Subgroup._built(d.G, mask)


@dataclass(frozen=True)
class ConstantReport:
    value: ExactValue
    argmax_subgroup: Subgroup
    tie: bool
    canonicalization: Optional[CanonicalTag] = None
    all_candidates: Optional[tuple[tuple[Subgroup, ExactValue], ...]] = None


def bl_constant(
    d: BLDatum,
    subgroups: Optional[list[Subgroup]] = None,
    include_candidates: bool = False,
) -> ConstantReport:
    """Maximize the subgroup ratio; exact for every finite datum.

    The scan runs over saturated subgroups only, and evaluates exactly only
    those whose float log-ratio is near the float maximum (see the module
    docstring).  Ties break toward smaller subgroup order, then lexicographic
    member lists; the report says whether a tie occurred.  For non-canonical
    input the tag of `canonical_tag` is attached for reference, with its
    exact factor BL(d) / BL(canonical); the value is that of d as given.
    `subgroups` defaults to all_subgroups(d.G) under its default order cap.
    """
    if subgroups is None:
        subgroups = all_subgroups(d.G)
    tag = canonical_tag(d)

    found: dict[int, tuple[int, ...]] = {}
    for H in subgroups:
        mask, counts = _saturation(d, H)
        found.setdefault(mask, counts)

    table = _QuotientTable(d)
    active = [(j, r, lw) for j, (r, lw) in enumerate(table.terms) if r]
    logs = {
        mask: math.log(mask.bit_count()) + table.log_w_G
        - sum(r * (math.log(counts[j]) + lw) for j, r, lw in active)
        for mask, counts in found.items()
    }
    top = max(logs.values(), default=0.0)
    near = sorted(
        (mask.bit_count(), mask_members(mask), mask)
        for mask, f in logs.items()
        if f >= top - table.margin
    )
    best, value, tie = table.argmax([(n, found[mask]) for n, _, mask in near])

    all_cands = None
    if include_candidates:
        all_cands = tuple((H, _ratio(d, table, H)) for H in subgroups)

    _, members, mask = near[best]
    return ConstantReport(
        value=value,
        argmax_subgroup=Subgroup._built(d.G, mask, members),
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
    for h in d.maps:
        img = h.image_mask(H.mask)
        out.append([Fraction(img >> y & 1) for y in range(h.codomain.order)])
    return out
