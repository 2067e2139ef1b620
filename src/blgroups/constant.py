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
image under each map is sigma_j(H), so one pass over the fibres
(`_saturation`) gives both the candidate and the image orders of its
denominator, and every exact ratio, of a candidate, of a listed subgroup in
`include_candidates` or of `ratio`, is built from those orders.

An exact ratio is one product of integer powers n^e: |S|^1, |G|^-1 under
probability Haar, and for each map |sigma_j(S)|^(-r_j) and, under
probability Haar, |G_j|^(r_j), with r_j = 1/p_j.  The datum's quotient
table builds it, and holds the float r_j that rank candidates in counting
measure, their proved margin and the exact argmax (`datum` module docstring).

The kernel lattice
------------------
Without a subgroup list, `bl_constant` ranks the saturations of the members
of L, the closure of {1, G, K_1, ..., K_J}, K_j = ker sigma_j, under product
and intersection (`_kernel_lattice`), and gets the value, argmax and tie of
the scan over every subgroup.  Every member of L is normal, as the K_j are.
Write r_j = 1/p_j, R = sum_j r_j and, for a subgroup H,

    F(H) = (1 - R) log|H| + sum_j r_j log|H cap K_j|,

the log ratio of H up to a constant, as |sigma_j(H)| = |H| / |H cap K_j|.
Let M be the maximum of F over all subgroups.

Lemma.  For A normal and B any subgroup, F(AB) + F(A cap B) >= F(A) + F(B).
AB is a subgroup and |AB| |A cap B| = |A| |B|, so the log|.| terms balance
whatever the sign of 1 - R; and (A cap K_j)(B cap K_j), a subset of
AB cap K_j, has |A cap K_j| |B cap K_j| / |A cap B cap K_j| elements, with
every r_j >= 0.

Chain.  Fix any subgroup H and run the chain of the `lie` docstring's proof
on L, with dim replaced by g(T) = log|T|, sum by product, U cap T by
H cap T and E_j by K_j: T_0 = 1, T_i the product of the T in L attaining
the largest slope lambda_i of h(T) = log|H cap T| over T_{i-1}, up to
T_q = G.  Its facts hold: g is modular on L; h is supermodular, by the
lemma's count with H in place of K_j; 0 <= lambda_i <= 1, since for T' in
T the cosets of H cap T' in H cap T map one to one into those of T' in T;
and in the domination step X = H cap K_j cap T_i and Y = H cap T_{i-1}
lie in H cap T, for T = (K_j cap T_i) T_{i-1} in L, and meet in
H cap K_j cap T_{i-1}, so |XY| <= |H cap T|.  As F(1) = 0, the step and
Abel summation give, with weights mu_i >= 0 that sum to 1 over i = 0..q,

    (*)  F(H) <= sum_i mu_i F(T_i)   and   log|H| = sum_i mu_i log|T_i|:

the second exactly, as the chain's (i) is an equality and log|H| = h(G),
so the sign of 1 - R does not matter, while the step bounds each
log|H cap K_j| and every r_j >= 0.

Theorem.  (1) M is attained in L: by (*), F(H) <= max_i F(T_i).
(2) Let H_0 be a maximizer of least order: it lies in L and in every
maximizer, so it is unique.  In (*) for H = H_0, each T_i with mu_i > 0
is a maximizer, so |T_i| >= |H_0|, and the equality makes |T_i| = |H_0|
for one of them, T.  The lemma with A = T, B = H_0 makes T cap H_0 a
maximizer of order at most |H_0|, so T cap H_0 = H_0 = T.  For any
maximizer B, the lemma with A = H_0 makes H_0 cap B a maximizer, so
H_0 cap B = H_0.
(3) The scan ranks distinct saturated masks, first wins in (order,
members).  The saturation sat(H) = cap_j H K_j contains H, is monotone in
H and does not lower F.  Every saturated maximizer S contains H_0 by (2),
so S = sat(S) contains sat(H_0), itself a maximizer: sat(H_0) is the
unique saturated maximizer of least order, the argmax of every candidate
list that holds it.  Both lists hold it, as H_0 is in L.
(4) The candidates over L are among those over all subgroups, so a tie over
L is a tie over all.  Conversely, take a saturated maximizer S other than
sat(H_0), so |S| > |sat(H_0)|.  In (*) for H = S, log|S| averages the
log|T_i| of maximizers in L, so one of them has |T_i| >= |S|; its
saturation is a maximizing candidate over L other than sat(H_0).

The float prefilter keeps every candidate that ties the maximum of its list
(`datum` docstring), so the scan over L returns the full scan's value,
argmax and tie exactly.  This is the finite counterpart of the reduction
to the lattice generated by the kernels in Valdimarsson, "The
Brascamp-Lieb polyhedron", Canad. J. Math. 62 (2010).

L has no size bound of its own: the kernels of the n + 1 maps of Z2^n
onto Z2^(n-1) that kill the n coordinate lines and the diagonal close to
every subgroup, 29,212 of them on Z2^7.  The closure combines every pair of
members, at up to |G| table lookups a product, so on such data it costs far
more than a listing.  It therefore stops once L has more than 2|G| members,
after at most 2|G|^2 products, and the scan runs over every subgroup
instead, as with `include_candidates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .datum import BLDatum, CanonicalTag, _QuotientTable, canonical_tag
from .exact import ExactValue
from .groups import (
    DEFAULT_ORDER_CAP,
    SizeCapError,
    Subgroup,
    _semi_naive_closure,
    all_subgroups,
    mask_members,
)


def ratio(d: BLDatum, H: Subgroup) -> ExactValue:
    """mass(H) / prod_j mass(sigma_j(H))^(1/p_j); the term for p = inf is 1."""
    _, counts = _saturation(d, H)
    return _QuotientTable(d).value(H.order, counts)


def _saturation(d: BLDatum, H: Subgroup) -> tuple[int, tuple[int, ...]]:
    """The member mask of the saturation of H, and the image orders
    |sigma_j(H)|, the fibres that meet H, which the saturation shares."""
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


def _kernel_lattice(d: BLDatum) -> Optional[list[Subgroup]]:
    """L of the module docstring, by mask, in mask order; None once it has
    more than 2|G| members.

    A product AB of normal subgroups is the union of the cosets yA over y in
    B, built by table lookups from the members of the larger factor; one
    factor containing the other needs none.
    """
    G = d.G
    table = G.table
    members: dict[int, tuple[int, ...]] = {}

    def elements(mask: int) -> tuple[int, ...]:
        if mask not in members:
            members[mask] = mask_members(mask)
        return members[mask]

    def product_and_meet(a: int, b: int) -> tuple[int, int]:
        meet = a & b
        if meet == a or meet == b:
            return a | b, meet
        if a.bit_count() < b.bit_count():
            a, b = b, a
        amem, ab = elements(a), a
        for y in elements(b):
            if not ab >> y & 1:
                row = table[y]
                for x in amem:
                    ab |= 1 << row[x]
        return ab, meet

    seeds = [1 << G.identity, (1 << G.order) - 1]
    seeds += [h.fibres[h.codomain.identity] for h in d.maps]
    try:
        lattice, _ = _semi_naive_closure(seeds, product_and_meet, cap=2 * G.order)
    except SizeCapError:
        return None
    return [Subgroup._built(G, mask, members.get(mask)) for mask in sorted(lattice)]


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
    order_cap: int = DEFAULT_ORDER_CAP,
) -> ConstantReport:
    """Maximize the subgroup ratio; exact for every finite datum.

    The scan runs over saturated subgroups only, and evaluates exactly only
    those whose float log-ratio is near the float maximum (see the module
    docstring).  Ties break toward smaller subgroup order, then lexicographic
    member lists; the report says whether a tie occurred.  For non-canonical
    input the tag of `canonical_tag` is attached for reference, with its
    exact factor BL(d) / BL(canonical); the value is that of d as given.
    Without `subgroups`, the scan runs over the kernel lattice, which gives
    the value, argmax and tie of a scan over every subgroup (module
    docstring); `include_candidates`, or a kernel lattice past its size
    bound, lists every subgroup under `order_cap` instead.
    """
    if subgroups is None and not include_candidates:
        subgroups = _kernel_lattice(d)
    if subgroups is None:
        subgroups = all_subgroups(d.G, order_cap)
    tag = canonical_tag(d)

    saturations = [_saturation(d, H) for H in subgroups]
    found: dict[int, tuple[int, ...]] = {}
    for mask, counts in saturations:
        found.setdefault(mask, counts)

    table = _QuotientTable(d)
    active = [(j, r) for j, r in enumerate(table.reciprocals) if r]
    logs = {
        mask: math.log(mask.bit_count()) - sum(r * math.log(counts[j]) for j, r in active)
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
        all_cands = tuple((H, table.value(H.order, counts))
                          for H, (_, counts) in zip(subgroups, saturations))

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
