"""Brascamp-Lieb data on finite groups and their reduction calculus.

A datum is a source group G, homomorphisms G -> G_j, Lebesgue exponents
p_j in [1, inf], and a Haar normalization (counting or probability) for
every group involved; the codomains G_j are read off the maps.  The
reductions implemented here transform a datum while controlling its
constant exactly:

  * canonicalize     quotient out the joint kernel, shrink codomains to
                     images; the constant changes by an explicit exact factor
                     recorded on the returned tag.
  * drop index with p = inf       constant unchanged.
  * reduce at an index with p = 1 pass to the kernel of that map; exact when
                     the normalizations are representable, else refused.
  * split_product    tensor two data; constants multiply.
  * quotient_split   restrict to a normal subgroup and its quotient;
                     the constant is submultiplicative across the split.

Empty data (J = 0) are allowed; their constant is the total Haar mass of G,
which is what makes deletion of a p = inf index exact down to J = 0.

`BLDatum(...)` and `make_datum` check outside input: equally many maps,
exponents and codomain Haar modes, and every map with domain G.  The data
derived here from a valid datum pass both by construction and skip them
through `BLDatum._built` (rules in the `groups` docstring): `with_haar`
keeps only its count of the modes its caller gives, and index deletion,
restriction, `canonicalize`, `split_product` and `quotient_split` check
nothing again.

Mass quotients
--------------
With r_j = 1/p_j, mass(X) / prod_j mass(Y_j)^(r_j), for a set X of `count`
points of G and sets Y_j of sizes[j] points of G_j, is the subgroup
formula's ratio (X = S, Y_j = sigma_j(S)) and the Rayleigh quotient of an
indicator tuple (Y_j its sets, X their common preimage).  With w the Haar
weight of one element, it is count / prod_j sizes[j]^(r_j), the quotient in
counting measure, times the Haar factor w_G prod_j w_j^(-r_j), which no key
changes.  So both routes rank candidates by the float log of the
counting-measure quotient and build exact values near the float maximum
only, from one `_QuotientTable` per call.  It holds the r_j as floats (read
once per map), N and the margin below, the r_j as numerators c_j over one
denominator D (`exact._over_lcm`), and the Haar factor as prime sums: -D
times the valuations of |G| and c_j times those of |G_j|, under
probability Haar.  A key (count, sizes) adds D times the valuations of
count and -c_j times those of sizes[j], each integer factorized once per
table, and `exact._from_prime_sums` makes the value: `from_powers` on
count^1, |G|^-1, sizes[j]^-r_j and |G_j|^(r_j), same lcm, same sums.

The float log of a quotient is log count - sum_j r_j log sizes[j]: at most
1 + J logs of integers no larger than N, the largest group order, with r_j
in [0, 1].  With u = 2^-53 and L = log N, each log (libm's, one ulp) errs
by at most 2uL, each product with the rounded r_j by at most 5uL, and the
J + 1 additions of partial sums bounded by (J + 1)L by at most
(J + 1)^2 uL: less than E = uL(J + 5)^2 in all, about 6e-14 for three maps
at order 4096.  A candidate that ties the true maximum lies within 2E of
the float maximum, so the margin, 1e-9 or 4E if larger, keeps every one,
and the exact first-wins argmax (`_QuotientTable.argmax`) over the
survivors is the argmax over all candidates, with the same value and tie
flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import ExactValue, _factorize, _over_lcm, exact_max
from .groups import (
    FiniteGroup,
    GroupStructureError,
    HaarMode,
    Homomorphism,
    Subgroup,
    direct_product,
    image,
    kernel,
    normality_witness,
    quotient,
    subgroup_group,
)


class WrongExponentError(ValueError):
    """The reduction targets an index whose exponent has the wrong value."""


class NotCanonicalError(ValueError):
    """The operation needs a canonical datum."""


class NormalizationError(ValueError):
    """The prescribed Haar normalization is not representable in the two modes."""


class IndexRangeError(ValueError):
    """The reduction targets an index outside 0 <= k < J."""


@dataclass(frozen=True)
class Exponent:
    """An exponent in [1, inf]; None encodes infinity. Reciprocals are exact."""

    value: Optional[Fraction]

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", Fraction(self.value))
            if self.value < 1:
                raise ValueError(f"exponent must be >= 1, got {self.value}")

    @staticmethod
    def of(x) -> "Exponent":
        if isinstance(x, Exponent):
            return x
        if x is None:
            return INF
        if isinstance(x, str):
            s = x.strip().lower()
            if s in ("inf", "infinity", "oo"):
                return INF
            return Exponent(Fraction(s))
        if isinstance(x, float) and math.isinf(x):
            if x < 0:
                raise ValueError(f"exponent must be >= 1, got {x}")
            return INF
        return Exponent(Fraction(x))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def reciprocal(self) -> Fraction:
        return Fraction(0) if self.value is None else 1 / self.value

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


INF = Exponent(None)


@dataclass(frozen=True)
class BLDatum:
    """G, maps G -> G_j, exponents p_j and Haar modes.  The codomains G_j
    are read off the maps into the attribute `codomains`, which is not a
    field."""

    G: FiniteGroup
    maps: tuple[Homomorphism, ...]
    exponents: tuple[Exponent, ...]
    haar_G: HaarMode = HaarMode.PROBABILITY
    haar_codomains: Optional[tuple[HaarMode, ...]] = None

    def __post_init__(self):
        if self.haar_codomains is None:
            object.__setattr__(
                self, "haar_codomains", tuple(HaarMode.PROBABILITY for _ in self.maps)
            )
        _check_lengths(len(self.maps), len(self.exponents), len(self.haar_codomains))
        _check_domains(self.G, self.maps)
        # Read on every _QuotientTable build, so stored once, eagerly: the
        # `groups` module docstring says why.
        object.__setattr__(self, "codomains", tuple(h.codomain for h in self.maps))

    @classmethod
    def _built(
        cls, G: FiniteGroup, maps: tuple[Homomorphism, ...],
        exponents: tuple[Exponent, ...], haar_G: HaarMode,
        haar_codomains: tuple[HaarMode, ...],
    ) -> "BLDatum":
        """A datum of tuples of equal length whose maps all have domain G, as the
        caller knows (module docstring), with `codomains`; no validation."""
        d = object.__new__(cls)
        object.__setattr__(d, "G", G)
        object.__setattr__(d, "maps", maps)
        object.__setattr__(d, "exponents", exponents)
        object.__setattr__(d, "haar_G", haar_G)
        object.__setattr__(d, "haar_codomains", haar_codomains)
        object.__setattr__(d, "codomains", tuple(h.codomain for h in maps))
        return d

    @property
    def J(self) -> int:
        return len(self.maps)

    def with_haar(self, haar_G=None, haar_codomains=None) -> "BLDatum":
        """This datum under other Haar modes; the codomain modes, when given,
        must number J."""
        if haar_codomains is None:
            haar_codomains = self.haar_codomains
        else:
            haar_codomains = tuple(haar_codomains)
            _check_lengths(self.J, self.J, len(haar_codomains))
        return BLDatum._built(
            self.G, self.maps, self.exponents, haar_G or self.haar_G, haar_codomains)

    def mixed_haar(self) -> bool:
        modes = {self.haar_G, *self.haar_codomains}
        return len(modes) > 1


def _check_lengths(maps: int, exponents: int, modes: int) -> None:
    """Refuse a datum whose maps, exponents and codomain Haar modes differ
    in number."""
    if not maps == exponents == modes:
        raise GroupStructureError(
            "maps, exponents and codomain Haar modes must have equal length, "
            f"got {maps} maps, {exponents} exponents and {modes} codomain Haar modes")


def _check_domains(G: FiniteGroup, maps) -> None:
    """Refuse maps whose domain is not G."""
    for j, h in enumerate(maps):
        if h.domain != G:
            raise GroupStructureError(f"map {j} has the wrong domain")


def make_datum(G, maps, exponents, haar_G=HaarMode.PROBABILITY, haar_codomains=None):
    """Convenience constructor: maps and Haar modes made tuples, exponents coerced."""
    return BLDatum(
        G,
        tuple(maps),
        tuple(Exponent.of(p) for p in exponents),
        haar_G,
        None if haar_codomains is None else tuple(haar_codomains),
    )


class _QuotientTable:
    """What every mass quotient of one datum shares (module docstring); the
    argmax builds each distinct (count, sizes) key's exact value once."""

    def __init__(self, d: BLDatum):
        r = [e.reciprocal() for e in d.exponents]
        self.reciprocals = [float(rj) for rj in r]
        self.largest = max([d.G.order, *(c.order for c in d.codomains)])
        self.margin = max(1e-9, 4 * 2.0**-53 * math.log(self.largest) * (d.J + 5) ** 2)
        self.c, self.D = _over_lcm(r)
        self._primes: dict[int, tuple] = {}  # each integer's factorization
        self.base: dict[int, int] = {}
        if d.haar_G is HaarMode.PROBABILITY:
            self._add(self.base, d.G.order, -self.D)
        for c, group, mode in zip(self.c, d.codomains, d.haar_codomains):
            if mode is HaarMode.PROBABILITY:
                self._add(self.base, group.order, c)

    def _add(self, sums: dict, n: int, c: int) -> None:
        primes = self._primes.get(n)
        if primes is None:
            primes = self._primes[n] = tuple(_factorize(n).items())
        for p, k in primes:
            sums[p] = sums.get(p, 0) + k * c

    def value(self, count: int, sizes) -> ExactValue:
        sums = dict(self.base)
        self._add(sums, count, self.D)
        for size, c in zip(sizes, self.c):
            self._add(sums, size, -c)
        return ExactValue._from_prime_sums(sums, self.D)

    def argmax(self, keys: list) -> tuple[int, ExactValue, bool]:
        values = {key: self.value(*key) for key in dict.fromkeys(keys)}
        return exact_max(map(values.__getitem__, keys))


@dataclass(frozen=True)
class CanonicalTag:
    """Whether a datum is canonical, and the exact constant bookkeeping.

    constant_factor relates the constants across canonicalization:
    BL(original) = constant_factor * BL(canonicalized).
    """

    is_canonical: bool
    witness: Optional[str] = None
    constant_factor: ExactValue = field(default_factory=ExactValue.one)


def _joint_kernel_mask(d: BLDatum) -> int:
    mask = (1 << d.G.order) - 1
    for h in d.maps:
        mask &= h.fibres[h.codomain.identity]
    return mask


def joint_kernel(d: BLDatum) -> Subgroup:
    return Subgroup._built(d.G, _joint_kernel_mask(d))


def canonical_tag(d: BLDatum) -> CanonicalTag:
    """Whether d is canonical; if not, the factor BL(d) / BL(canonicalize(d)[0]),
    from the image orders (nonzero fibres) and |K|, with no quotient built."""
    k = _joint_kernel_mask(d).bit_count()
    for j, h in enumerate(d.maps):
        if not all(h.fibres):
            witness = f"map {j} is not surjective"
            break
    else:
        if k == 1:
            return CanonicalTag(True)
        witness = f"joint kernel has order {k}"
    terms = _index_terms(d, [sum(map(bool, h.fibres)) for h in d.maps])
    if d.haar_G is HaarMode.COUNTING:
        terms.append((k, 1))
    return CanonicalTag(False, witness, ExactValue.from_powers(terms))


def _index_terms(d: BLDatum, sizes: list[int], skip: Optional[int] = None) -> list:
    """The (n, e) terms of prod [G_j : S_j]^(1/p_j) over probability
    codomains j != skip, for subgroups S_j of the G_j of the given sizes."""
    terms = []
    for j, (c, size, mode, e) in enumerate(
        zip(d.codomains, sizes, d.haar_codomains, d.exponents)
    ):
        if j != skip and mode is HaarMode.PROBABILITY:
            terms += [(c.order, e.reciprocal()), (size, -e.reciprocal())]
    return terms


def _coset_representatives(proj: Homomorphism) -> list[int]:
    """The least element of each fibre of a quotient map, in coset order."""
    return [(f & -f).bit_length() - 1 for f in proj.fibres]


def _onto_image(X: FiniteGroup, points, h: Homomorphism) -> Homomorphism:
    """The map x -> h(points[x]) from X onto its image, a subgroup of
    h.codomain presented as a group by `subgroup_group`.  The points are a
    subgroup, or coset representatives of a subgroup inside ker h, so their
    image is the image of a subgroup and the map is a homomorphism, built
    without a check (`groups` docstring)."""
    values = [h.map[x] for x in points]
    img = Subgroup._built(h.codomain, sum(1 << y for y in set(values)))
    M, _ = subgroup_group(img)
    index = {y: i for i, y in enumerate(img.members)}
    return Homomorphism._built(X, M, tuple(index[y] for y in values))


def _restricted(d: BLDatum, N: Subgroup) -> BLDatum:
    """d on the subgroup N, each map restricted onto its image."""
    K, _ = subgroup_group(N)
    maps = tuple(_onto_image(K, N.members, h) for h in d.maps)
    return BLDatum._built(K, maps, d.exponents, d.haar_G, d.haar_codomains)


def _without(d: BLDatum, k: int) -> BLDatum:
    """d with index k deleted."""
    maps, exps, modes = (
        t[:k] + t[k + 1:] for t in (d.maps, d.exponents, d.haar_codomains)
    )
    return BLDatum._built(d.G, maps, exps, d.haar_G, modes)


def canonicalize(d: BLDatum) -> tuple[BLDatum, CanonicalTag]:
    """Quotient out the joint kernel and shrink codomains to the images.

    The output datum is canonical.  The returned tag describes the input and
    carries the exact factor by which the constant changed (1 whenever the
    measures prescribed by the open-subgroup / compact-quotient rules are
    themselves representable, e.g. probability source with surjective maps).
    """
    tag = canonical_tag(d)
    if tag.is_canonical:
        return d, tag
    Q, proj = quotient(d.G, joint_kernel(d))
    reps = _coset_representatives(proj)
    maps = tuple(_onto_image(Q, reps, h) for h in d.maps)
    return BLDatum._built(Q, maps, d.exponents, d.haar_G, d.haar_codomains), tag


def _check_index(d: BLDatum, k: int) -> None:
    if not 0 <= k < d.J:
        raise IndexRangeError(f"index {k} is outside 0 <= k < {d.J}")


def drop_infinite_exponent(d: BLDatum, k: int) -> BLDatum:
    """Delete index k; requires 0 <= k < J and p_k = inf.  The constant is unchanged."""
    _check_index(d, k)
    if not d.exponents[k].is_infinite:
        raise WrongExponentError(f"exponent {k} is {d.exponents[k]}, not inf")
    return _without(d, k)


def reduce_p1(d: BLDatum, k: int) -> BLDatum:
    """Pass to the kernel of map k; requires 0 <= k < J, p_k = 1 and a canonical datum.

    The reduced datum lives on N = ker(map k) with the other maps restricted
    onto their images.  Exact constant preservation needs the source triple
    to satisfy the quotient integral formula and the codomain pairs to carry
    restricted measures; when the inherited modes cannot express those
    measures the reduction is refused rather than silently rescaled.
    """
    _check_index(d, k)
    if d.exponents[k].is_infinite or d.exponents[k].value != 1:
        raise WrongExponentError(f"exponent {k} is {d.exponents[k]}, not 1")
    if not canonical_tag(d).is_canonical:
        raise NotCanonicalError("reduce at p = 1 requires a canonical datum")
    N = kernel(d.maps[k])
    restricted = _restricted(d, N)

    # the exactness factor w_G / (w_Gk w_N) * index terms must be 1
    terms = _index_terms(d, [c.order for c in restricted.codomains], k)
    if d.haar_G is HaarMode.PROBABILITY:
        terms += [(d.G.order, -1), (N.order, 1)]
    if d.haar_codomains[k] is HaarMode.PROBABILITY:
        terms.append((d.codomains[k].order, 1))
    factor = ExactValue.from_powers(terms)
    if not factor.is_one:
        raise NormalizationError(
            f"inherited Haar modes change the constant by {factor}; "
            "the prescribed restricted measures are not representable"
        )
    return _without(restricted, k)


def split_product(d1: BLDatum, d2: BLDatum) -> BLDatum:
    """Tensor datum on G1 x G2; the constants multiply exactly."""
    if d1.J != d2.J:
        raise WrongExponentError("tensor factors must have equal length")
    if d1.exponents != d2.exponents:
        raise WrongExponentError("tensor factors must have identical exponents")
    if d1.haar_G is not d2.haar_G or any(
        a is not b for a, b in zip(d1.haar_codomains, d2.haar_codomains)
    ):
        raise NormalizationError(
            "tensor factors must share Haar modes; a product of a counting and "
            "a probability measure is neither"
        )
    P, pa, pb = direct_product(d1.G, d2.G)
    maps = []
    for h1, h2 in zip(d1.maps, d2.maps):
        C, _, _ = direct_product(h1.codomain, h2.codomain)
        nb = h2.codomain.order
        fused = tuple(h1.map[a] * nb + h2.map[b] for a, b in zip(pa.map, pb.map))
        maps.append(Homomorphism._built(P, C, fused))
    return BLDatum._built(P, tuple(maps), d1.exponents, d1.haar_G, d1.haar_codomains)


def quotient_split(d: BLDatum, N: Subgroup) -> tuple[BLDatum, BLDatum]:
    """Split a datum along a normal subgroup N into (restricted, quotient).

    Every group keeps its own Haar mode, which makes each (group, subgroup,
    quotient) triple satisfy the quotient integral formula, and the constant
    of d is at most the product of the two returned constants.
    """
    Q, proj = quotient(d.G, N)  # checks that N is a normal subgroup of G
    reps = _coset_representatives(proj)
    maps = []
    for j, h in enumerate(d.maps):
        img = image(h, N)
        w = normality_witness(h.codomain, img)
        if w is not None:
            raise GroupStructureError(
                f"image under map {j} is not normal: member {w[1]} conjugated "
                f"by {w[0]} escapes"
            )
        Qj, proj_j = quotient(h.codomain, img)
        maps.append(Homomorphism._built(Q, Qj, tuple(proj_j.map[h.map[r]] for r in reps)))
    quot = BLDatum._built(Q, tuple(maps), d.exponents, d.haar_G, d.haar_codomains)
    return _restricted(d, N), quot
