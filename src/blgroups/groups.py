"""Exact finite group arithmetic on dense multiplication tables.

Elements are integers 0..order-1 and the group law is a full Cayley table,
so every operation is a table lookup.  Groups enter as cyclic products,
explicit tables, or permutation generators (closed into a table).  A set of
elements is an int bitset with bit x set for each member x, as in
`Subgroup.mask` and `Homomorphism.fibres`; `mask_members` decodes one to
the sorted tuple that `Subgroup.members` keeps as the public form.

One closure routine, `_extend`, serves enumeration and validation.
Enumeration is orderly generation (R. C. Read, "Every one a winner", Ann.
Discrete Math. 2, 1978).  The greedy sequence of a subgroup K is
g_1 = min(K∖{e}), g_i = min(K∖<g_1, ..., g_{i-1}>).  A depth-first walk
from ({e}, g = -1) extends H, reached with last generator g, by each
x > g outside H with x = min(xH), and keeps K = <H, x> iff x = min(K∖H).
- Each K is built once: for a kept K, every element of K∖H is >= x > g,
  so greedy(K) = greedy(H) followed by x, and K's parent is unique.
- Every K is built: with H_i = <g_1, ..., g_i>, the step x = g_{i+1} =
  min(K∖H_i) > g_i is kept at H_i, since xH_i and <H_i, x> lie in K.
- The coset filter only prunes: if min(xH) < x, then min(K∖H) < x.
The closure stops at the first coset with an element below x, which also
stops most closures that would reach G.  S5 (156 subgroups) and Z2^6
(2825) are listed in well under a second; the configurable order cap
bounds |G|.  Validation of a member set M grows K
from {e} to <K, x> for each member x not in K, and fails as soon as K
leaves M.  A subgroup contains every closure built from its members, so
it passes; a set that never escapes contains the last K and lies in it, so
it is a subgroup.  K at least doubles at each step, so the chain costs
O(|M|) table lookups, against |M|^2 for all products.

Outside tables and maps are checked exactly, at every order, on a
generating set A: close {e} under right multiplication by A, which needs
no associativity, and add the least element not reached until every
element is.  In a group each new generator at least doubles the closure,
so |A| <= log2 n.  Inverses: the row of each a in A must contain e.  That
suffices, since a finite monoid in which each generator has a right
inverse is a group: ab = e makes x -> bx injective (bx = by gives
x = abx = aby = y), so b has a right inverse c, and then
a = a(bc) = (ab)c = c.  So each generator is a unit, and so is every
product of generators, which is every element.
Associativity is Light's test: (xa)y = x(ay) for all x, y and each a in
A, n^2 |A| lookups against n^3.  It is complete.  The a that pass contain
e, and are closed under the product: if a and b pass, then
(x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  Every element is a
left-nested product ((e a1) a2)... of generators, so every element passes.
A map m with m(e) = e is a homomorphism when m(xa) = m(x)m(a) for all x
and each a in A, n |A| lookups against n^2.  The same argument applies,
both tables being associative: if a and b pass, then
m(x(ab)) = m((xa)b) = m(xa)m(b) = m(x)m(a)m(b) = m(x)m(ab).

Trusted construction.  `Subgroup(parent, members)`, `FiniteGroup(...)` and
`Homomorphism(...)` are the boundary for outside input (user code, parsed
JSON) and validate everything, as do `make_cyclic_product`,
`from_cayley_table` and `from_permutations`.  What the library derives
itself from groups, subgroups and homomorphisms is built by the private
`_built` of each class, which takes its fields as given and sets only the
derived state, because each is a subgroup, group or homomorphism by
construction:
- a listed subgroup is a closure <H, x> that `_extend` has just built;
- an image h(H) and a kernel ker h are subgroups because h is a
  homomorphism;
- a joint kernel is an intersection of kernels, and a saturation is an
  intersection of preimages h_j^-1(h_j(H)) of images: a preimage of a
  subgroup under a homomorphism is a subgroup, and so is an intersection
  of subgroups;
- a direct product's componentwise law is a group law, and its coordinate
  projections are homomorphisms;
- a quotient by a subgroup that `quotient` has just found normal is a
  group under coset multiplication, with the projection a homomorphism;
- a subgroup's table, restricted from its parent's, is a group law, and
  the inclusion is a homomorphism;
- a composition of homomorphisms, and the identity map, are homomorphisms;
- in `datum`, the map x -> h(points[x]) of `_onto_image` is h on a
  subgroup, or on coset representatives of a subgroup inside ker h, which
  induce a homomorphism of the quotient; a tensor's map (a, b) ->
  (h1(a), h2(b)) is a product of homomorphisms; and `quotient_split`'s map
  xN -> h(x)h(N) is the homomorphism that h induces, as h(N) is normal.
The inputs of each rule are groups and homomorphisms themselves, validated
at the boundary or built by a rule, so every object the library holds is
what its class says.  Data follow the same split.  `datum.BLDatum(...)`,
`datum.make_datum` and `serialize.parse_datum` check that the maps,
exponents and codomain Haar modes are equally many and that every map
has domain G; `datum.BLDatum._built` checks neither, for data that pass by
construction:
- `corpus.Frame` checks its maps' domains once, at construction, so
  `corpus.frame_datum` checks only what changes with the exponent tuple:
  it coerces the exponents, with their range check, and counts them;
- a datum that `datum` derives from a valid one keeps its lengths and
  builds its maps on its own group: `with_haar` (which still counts its
  codomain modes, as they come from the caller), index deletion,
  restriction to a subgroup, `canonicalize`, `split_product` and
  `quotient_split`.
`tests/test_package.py` lists the call sites of either kind.

Derived state (`FiniteGroup._hash`, `Homomorphism.fibres`, `Subgroup.mask`,
`datum.BLDatum.codomains`) is set once in `__post_init__` by
`object.__setattr__`, outside eq and repr.  Not as a `cached_property`:
on CPython 3.11 its write to the instance `__dict__` makes every later
attribute load on the instance several times slower, and the constant's
scan reads these objects for every subgroup.  For the same reason each
`_built` sets the fields and then the derived state in the order that
`__init__` and `__post_init__` do, so built and validated instances share
their dict keys.  The greedy generating set A is not stored: validation
computes it where it reads it, `FiniteGroup(...)` for its own table and
`Homomorphism(...)` for its domain's, so derived groups never pay for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

DEFAULT_ORDER_CAP = 4096


class GroupStructureError(ValueError):
    """The given data does not define a group / subgroup / homomorphism."""


class BudgetExceededError(ValueError):
    """A computation would exceed its size cap or work budget (CLI exit 3)."""


class SizeCapError(BudgetExceededError):
    """A construction or enumeration exceeds the configured order cap."""


class HaarMode(enum.Enum):
    COUNTING = "counting"
    PROBABILITY = "probability"


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a Cayley table over elements 0..order-1."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        n = self.order
        if n <= 0 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupStructureError("table must be order x order")
        if min(map(min, self.table)) < 0 or max(map(max, self.table)) >= n:
            raise GroupStructureError("table entries must be element indices")
        e = self.identity
        if self.table[e] != tuple(range(n)) or any(
            self.table[x][e] != x for x in range(n)
        ):
            raise GroupStructureError("identity row/column must be trivial")
        gens = _greedy_generators(self.table, e)
        for a in gens:  # enough, by the module docstring
            if e not in self.table[a]:
                raise GroupStructureError(f"element {a} has no right inverse")
        _check_associativity(self.table, gens)
        if self.labels is not None:
            if len(self.labels) != n:
                raise GroupStructureError("labels length must match order")
            if not all(isinstance(s, str) for s in self.labels):
                raise GroupStructureError("labels must be strings")
        object.__setattr__(self, "_hash", hash((n, e, self.table)))

    @classmethod
    def _built(
        cls, order: int, table: tuple[tuple[int, ...], ...], identity: int,
        labels: Optional[tuple[str, ...]],
    ) -> "FiniteGroup":
        """A group the library has proved to be one (module docstring), with
        the derived state of `__post_init__`; no validation."""
        G = object.__new__(cls)
        object.__setattr__(G, "order", order)
        object.__setattr__(G, "table", table)
        object.__setattr__(G, "identity", identity)
        object.__setattr__(G, "labels", labels)
        object.__setattr__(G, "_hash", hash((order, identity, table)))
        return G

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def __hash__(self):
        return self._hash


def _greedy_generators(table, identity) -> tuple[int, ...]:
    """The greedy generating set A of the module docstring; () for {e}."""
    gens, reached = [], {identity}
    for g in range(len(table)):
        if g in reached:
            continue
        gens.append(g)
        stack = list(reached)
        while stack:
            row = table[stack.pop()]
            for a in gens:
                if row[a] not in reached:
                    reached.add(row[a])
                    stack.append(row[a])
    return tuple(gens)


def _check_associativity(table, gens):
    """Light's test on the generating set `gens` (module docstring)."""
    for a in gens:
        times_row_a = itemgetter(*table[a])  # row of x -> row of x(ay) over y
        for x, row in enumerate(table):
            xa_y, x_ay = table[row[a]], times_row_a(row)
            if xa_y != x_ay:
                y = next(y for y in range(len(row)) if xa_y[y] != x_ay[y])
                raise GroupStructureError(f"associativity fails at ({x},{a},{y})")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group: sorted members and their mask.

    Construction is the boundary for outside input such as user code.
    The members must be sorted, distinct, nonempty and in 0..order-1, and
    must survive the closure chain of the module docstring: sound, and
    O(|H|) table lookups against |H|^2 for checking all products.  The
    subgroups the library derives skip it through `_built`.
    """

    parent: FiniteGroup
    members: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        G, mem = self.parent, self.members
        if not mem or tuple(sorted(set(mem))) != mem or mem[0] < 0 or mem[-1] >= G.order:
            raise GroupStructureError(
                f"members must be sorted, distinct, nonempty and in 0..{G.order - 1}"
            )
        M = sum(1 << x for x in mem)  # distinct bits, so the sum is the union
        e = G.identity
        if not M >> e & 1:
            raise GroupStructureError("subgroup must contain the identity")
        K, kmem = 1 << e, [e]
        for x in mem:
            if not K >> x & 1:
                K, kmem = _extend(G, K, kmem, x)
                if K & ~M:
                    raise GroupStructureError(f"not closed: members up to {x} escape")
        object.__setattr__(self, "mask", M)

    @classmethod
    def _built(
        cls, parent: FiniteGroup, mask: int, members: Optional[tuple[int, ...]] = None
    ) -> "Subgroup":
        """A subgroup the library has proved to be one (module docstring),
        from its mask and, when the caller has them, its sorted members; no
        validation."""
        H = object.__new__(cls)
        object.__setattr__(H, "parent", parent)
        object.__setattr__(H, "members", mask_members(mask) if members is None else members)
        object.__setattr__(H, "mask", mask)
        return H

    @property
    def order(self) -> int:
        return len(self.members)

    def __hash__(self):
        return hash((self.parent, self.members))


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism given by the image of every domain element; `fibres`
    holds one mask per codomain element y, with bit x set when map[x] = y."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self):
        G, H, m = self.domain, self.codomain, self.map
        if len(m) != G.order:
            raise GroupStructureError("map length must equal domain order")
        if any(not (0 <= v < H.order) for v in m):
            raise GroupStructureError("map values must be codomain indices")
        if m[G.identity] != H.identity:
            raise GroupStructureError("identity must map to identity")
        gt, ht = G.table, H.table
        for a in _greedy_generators(gt, G.identity):  # enough, by the module docstring
            ma = m[a]
            for x in range(G.order):
                if m[gt[x][a]] != ht[m[x]][ma]:
                    raise GroupStructureError(f"not multiplicative at ({x},{a})")
        object.__setattr__(self, "fibres", _fibres(m, H.order))

    @classmethod
    def _built(
        cls, domain: FiniteGroup, codomain: FiniteGroup, map: tuple[int, ...]
    ) -> "Homomorphism":
        """A map the library has proved to be a homomorphism (module
        docstring), with its fibres; no validation."""
        h = object.__new__(cls)
        object.__setattr__(h, "domain", domain)
        object.__setattr__(h, "codomain", codomain)
        object.__setattr__(h, "map", map)
        object.__setattr__(h, "fibres", _fibres(map, codomain.order))
        return h

    def image_mask(self, mask: int) -> int:
        """The mask of the image of the domain elements in `mask`."""
        return sum(1 << y for y, fibre in enumerate(self.fibres) if fibre & mask)

    def __hash__(self):
        return hash((hash(self.domain), hash(self.codomain), self.map))


def _fibres(m: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The fibre mask of each of the n codomain elements under the map m."""
    fibres = [0] * n
    for x, y in enumerate(m):
        fibres[y] |= 1 << x
    return tuple(fibres)


# -- constructors -------------------------------------------------------


def make_cyclic_product(
    moduli: Sequence[int], order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Direct product of cyclic groups Z_n1 x ... x Z_nk, lexicographic encoding."""
    if not moduli or any(m < 1 for m in moduli):
        raise GroupStructureError("moduli must be positive integers")
    order = 1
    for m in moduli:
        order *= m
    if order > order_cap:
        raise SizeCapError(f"order {order} exceeds cap {order_cap}")

    # Fold in one factor Z_m at a time: the element (i, a) of (earlier
    # factors) x Z_m has index i*m + a, so its row is the earlier row i with
    # each entry t spread over t*m + (a + b) % m for b in 0..m-1, the block
    # t*m..t*m+m-1 rotated left by a.  Joining shared rotated blocks reuses
    # their ints instead of making order^2 new ones.
    table: list[tuple[int, ...]] = [(0,)]
    digits: list[tuple[int, ...]] = [()]
    for m in moduli:
        blocks = [tuple(range(t * m, t * m + m)) for t in range(len(table))]
        folded: list = [None] * (len(table) * m)
        for a in range(m):
            turned = [blk[a:] + blk[:a] for blk in blocks]
            folded[a::m] = [tuple(chain.from_iterable(map(turned.__getitem__, row)))
                            for row in table]
        table = folded
        digits = [ds + (a,) for ds in digits for a in range(m)]
    if len(moduli) == 1:
        labels = tuple(str(i) for i in range(order))
    else:
        labels = tuple("(" + ",".join(map(str, ds)) + ")" for ds in digits)
    return FiniteGroup(order, tuple(table), 0, labels)


def from_cayley_table(
    table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None
) -> FiniteGroup:
    n = len(table)
    tbl = tuple(tuple(row) for row in table)
    if any(len(row) != n for row in tbl):
        raise GroupStructureError("table must be order x order")
    identity = None
    for e in range(n):
        if tbl[e] == tuple(range(n)) and all(tbl[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupStructureError("table has no two-sided identity")
    return FiniteGroup(n, tbl, identity, tuple(labels) if labels else None)


def from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Close permutation generators into a full Cayley table.

    Elements are sorted lexicographically as image tuples, so the identity
    permutation always lands at index 0.
    """
    if degree < 0:
        raise GroupStructureError(f"degree must be at least 0, got {degree}")
    idp = tuple(range(degree))
    gens = []
    for g in generators:
        p = tuple(g)
        if sorted(p) != list(idp):
            raise GroupStructureError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(p)
    elems = {idp}
    frontier = [idp]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    if len(elems) >= order_cap:
                        raise SizeCapError(f"permutation closure exceeds {order_cap}")
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(degree))] for q in ordered)
        for p in ordered
    )
    labels = tuple("".join(map(str, p)) if degree <= 10 else str(p) for p in ordered)
    return FiniteGroup(len(ordered), table, index[idp], labels)


def direct_product(
    A: FiniteGroup, B: FiniteGroup
) -> tuple[FiniteGroup, Homomorphism, Homomorphism]:
    """Componentwise product with the two coordinate projections."""
    order = A.order * B.order
    if order > DEFAULT_ORDER_CAP:
        raise SizeCapError(f"order {order} exceeds cap {DEFAULT_ORDER_CAP}")
    nb = B.order
    table = tuple(
        tuple(
            A.table[x // nb][y // nb] * nb + B.table[x % nb][y % nb]
            for y in range(order)
        )
        for x in range(order)
    )
    labels = tuple(
        f"({A.label(i // nb)},{B.label(i % nb)})" for i in range(order)
    )
    P = FiniteGroup._built(order, table, A.identity * nb + B.identity, labels)
    proj_a = Homomorphism._built(P, A, tuple(i // nb for i in range(order)))
    proj_b = Homomorphism._built(P, B, tuple(i % nb for i in range(order)))
    return P, proj_a, proj_b


# -- subgroup machinery --------------------------------------------------


def mask_members(mask: int) -> tuple[int, ...]:
    """The elements of a mask as a sorted tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _extend(
    G: FiniteGroup, H: int, hmem: Sequence[int], x: int, floor: int = 0
) -> Optional[tuple[int, list[int]]]:
    """<H, x> as (mask, members) for a subgroup H of G, given as mask and members.

    A breadth-first search from H right-multiplies by x and, on reaching an
    element z outside, adds its whole coset zH.  The union of left H-cosets
    it builds contains the identity and is closed under right multiplication
    by x and by H, so it is <H, x>.  Each member of K = <H, x> is multiplied
    by x once and each coset of H in K is built once: O(|K|) table lookups.
    Every coset added lies in K∖H, so the search returns None as soon as one
    holds an element below `floor`: then min(K∖H) < floor.
    """
    table = G.table
    K, mem = H, list(hmem)
    for y in mem:
        z = table[y][x]
        if not K >> z & 1:
            coset = [table[z][h] for h in hmem]
            if min(coset) < floor:
                return None
            for w in coset:
                K |= 1 << w
            mem += coset
    return K, mem


def all_subgroups(
    G: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
) -> list[Subgroup]:
    """Every subgroup of G, canonically ordered by (order, members).

    Orderly generation (module docstring) closes each subgroup once, and
    each closure is built as a trusted Subgroup from its members and mask.
    """
    if G.order > order_cap:
        raise SizeCapError(f"|G| = {G.order} exceeds cap {order_cap}")
    table = G.table
    e = G.identity
    listed = [((e,), 1 << e)]
    stack = [(1 << e, [e], -1)]
    while stack:
        H, hmem, g = stack.pop()
        covered = H
        for x in range(g + 1, G.order):
            if covered >> x & 1:
                continue
            coset = [table[x][h] for h in hmem]
            for w in coset:
                covered |= 1 << w
            if min(coset) < x:
                continue
            closed = _extend(G, H, hmem, x, floor=x)
            if closed:
                K, kmem = closed
                stack.append((K, kmem, x))
                listed.append((tuple(sorted(kmem)), K))
    listed.sort(key=lambda s: (len(s[0]), s[0]))
    built = Subgroup._built
    return [built(G, K, m) for m, K in listed]


def _semi_naive_closure(seeds, combine, max_rounds=None, cap=None, what="closure"):
    """Close `seeds` under `combine(a, b)`, an iterable of new elements for
    each unordered pair, as (closure, closed).

    Semi-naive: a pair of elements that were both present a round ago was
    combined then, so each round combines only pairs with a member added by
    the round before.  A round that adds nothing proves the set closed.
    With `max_rounds`, the closure stops after that many rounds that add
    elements, and runs one more only to find out whether it would add any;
    `closed` is False if it would.  A closure larger than `cap` raises
    SizeCapError.  `constant`'s kernel lattice (products and intersections
    of normal subgroups) and `lie`'s ideal pool (sums and intersections)
    both run here.
    """
    pool = set(seeds)
    old: list = []
    fresh = list(pool)
    rounds = 0
    while True:
        new = set()
        for i, a in enumerate(fresh):
            for b in old + fresh[i + 1 :]:
                new.update(combine(a, b))
        new -= pool
        if not new or rounds == max_rounds:
            return pool, not new
        pool.update(new)
        if cap is not None and len(pool) > cap:
            raise SizeCapError(f"{what} exceeds cap {cap}")
        old += fresh
        fresh = list(new)
        rounds += 1


def image(h: Homomorphism, H: Subgroup) -> Subgroup:
    if H.parent != h.domain:
        raise GroupStructureError("subgroup parent is not the homomorphism domain")
    return Subgroup._built(h.codomain, h.image_mask(H.mask))


def kernel(h: Homomorphism) -> Subgroup:
    return Subgroup._built(h.domain, h.fibres[h.codomain.identity])


def normality_witness(G: FiniteGroup, H: Subgroup):
    """Return None if H is normal, else a pair (x, n) with x*n*x^-1 outside H.

    x n x^-1 lies in H exactly when x n lies in the right coset Hx, so each
    x needs one coset mask and no inverse.
    """
    table = G.table
    for x in range(G.order):
        hx = 0
        for h in H.members:
            hx |= 1 << table[h][x]
        for n in H.members:
            if not hx >> table[x][n] & 1:
                return (x, n)
    return None


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Quotient by a normal subgroup; cosets are ordered by least member."""
    if N.parent != G:
        raise GroupStructureError("subgroup parent mismatch")
    witness = normality_witness(G, N)
    if witness is not None:
        x, n = witness
        raise GroupStructureError(
            f"subgroup is not normal: conjugating member {n} by {x} escapes"
        )
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        for n in N.members:
            coset_of[G.table[x][n]] = idx
    rows = [G.table[a] for a in reps]
    table = tuple([tuple([coset_of[row[b]] for b in reps]) for row in rows])
    labels = tuple(
        "{" + ",".join(G.label(G.table[r][n]) for n in N.members) + "}" for r in reps
    )
    Q = FiniteGroup._built(len(reps), table, coset_of[G.identity], labels)
    proj = Homomorphism._built(G, Q, tuple(coset_of))
    return Q, proj


def subgroup_group(H: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """Present a subgroup as a group in its own right, with the inclusion map."""
    G = H.parent
    index = {x: i for i, x in enumerate(H.members)}
    n = len(H.members)
    table = tuple(
        tuple(index[G.table[x][y]] for y in H.members) for x in H.members
    )
    labels = tuple(G.label(x) for x in H.members)
    K = FiniteGroup._built(n, table, index[G.identity], labels)
    incl = Homomorphism._built(K, G, tuple(H.members))
    return K, incl


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.codomain != outer.domain:
        raise GroupStructureError("composition domain mismatch")
    return Homomorphism._built(
        inner.domain, outer.codomain, tuple(outer.map[v] for v in inner.map)
    )


def identity_map(G: FiniteGroup) -> Homomorphism:
    return Homomorphism._built(G, G, tuple(range(G.order)))


def haar_weight(G: FiniteGroup, mode: HaarMode) -> Fraction:
    """Mass of a single element."""
    return Fraction(1) if mode is HaarMode.COUNTING else Fraction(1, G.order)
