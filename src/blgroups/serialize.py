"""JSON schemas for groups, data, Lie data, and result payloads.

Group specs come in three shapes:

    {"order": n, "table": [[...]], "labels": [...]}   explicit Cayley table
    {"cyclic": [n1, ..., nk]}                         product of cyclic groups
    {"degree": d, "generators": [[...], ...]}         permutation generators

A datum bundles a group, codomains, maps as image lists, exponents as
strings ("2", "3/2", "inf"), and Haar modes.  All fractions are serialized
as strings so the JSON round-trips exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .constant import ConstantReport
from .datum import BLDatum, CanonicalTag, Exponent
from .exact import ExactValue
from .groups import (
    FiniteGroup,
    GroupStructureError,
    HaarMode,
    Homomorphism,
    Subgroup,
    from_cayley_table,
    from_permutations,
    make_cyclic_product,
)
from .lie import CompactLieDatum, IdealSpec, LinearizedMap, RationalPolytope


def parse_group(obj: dict, order_cap: int = 4096) -> FiniteGroup:
    if "cyclic" in obj:
        return make_cyclic_product(list(obj["cyclic"]), order_cap)
    if "table" in obj:
        return from_cayley_table(obj["table"], obj.get("labels"))
    if "generators" in obj:
        return from_permutations(int(obj["degree"]), obj["generators"], order_cap)
    raise GroupStructureError(
        "group spec needs one of: 'cyclic', 'table', or 'degree'+'generators'"
    )


def group_to_json(G: FiniteGroup) -> dict:
    out = {"order": G.order, "table": [list(r) for r in G.table]}
    if G.labels:
        out["labels"] = list(G.labels)
    return out


def _parse_haar(s: str) -> HaarMode:
    try:
        return HaarMode(s.lower())
    except ValueError:
        raise GroupStructureError(f"unknown Haar mode {s!r}") from None


def parse_datum(obj: dict, order_cap: int = 4096) -> BLDatum:
    G = parse_group(obj["group"], order_cap)
    codomains = tuple(parse_group(c, order_cap) for c in obj["codomains"])
    maps = tuple(
        Homomorphism(G, codomains[j], tuple(m)) for j, m in enumerate(obj["maps"])
    )
    exponents = tuple(Exponent.of(p) for p in obj["p"])
    haar = obj.get("haar", {})
    haar_G = _parse_haar(haar.get("G", "probability"))
    haar_codomains = tuple(
        _parse_haar(m) for m in haar.get("codomains", ["probability"] * len(maps))
    )
    return BLDatum(G, codomains, maps, exponents, haar_G, haar_codomains)


def datum_to_json(d: BLDatum) -> dict:
    return {
        "group": group_to_json(d.G),
        "codomains": [group_to_json(c) for c in d.codomains],
        "maps": [list(h.map) for h in d.maps],
        "p": [str(p) for p in d.exponents],
        "haar": {
            "G": d.haar_G.value,
            "codomains": [m.value for m in d.haar_codomains],
        },
    }


def parse_lie_datum(obj: dict) -> CompactLieDatum:
    maps = tuple(
        LinearizedMap(
            tuple(m.get("kept_simple", ())),
            tuple(tuple(Fraction(v) for v in row) for row in m.get("torus_matrix", ())),
        )
        for m in obj["maps"]
    )
    return CompactLieDatum(
        tuple(obj.get("simple_dims", ())), int(obj.get("torus_dim", 0)), maps
    )


def subgroup_to_json(H: Subgroup) -> list[int]:
    return list(H.members)


def ideal_to_json(n: IdealSpec) -> dict:
    return {
        "simple_part": list(n.simple_part),
        "torus_basis": [[str(v) for v in row] for row in n.torus_basis],
    }


def polytope_to_json(P: RationalPolytope, verts=None, facet_tight=None) -> dict:
    out = {
        "dim": P.dim,
        "halfspaces": [
            {"coeffs": list(c), "bound": b} for c, b in P.halfspaces
        ],
        "box": "0 <= x_j <= 1",
    }
    if verts is not None:
        out["vertices"] = [[str(v) for v in x] for x in verts]
    if facet_tight is not None:
        out["facet_tight"] = list(facet_tight)
    return out


def exact_value_to_json(v: ExactValue) -> dict:
    out = v.to_json()
    out["approx"] = v.to_float()
    return out


def tag_to_json(tag: CanonicalTag) -> dict:
    return {
        "is_canonical": tag.is_canonical,
        "witness": tag.witness,
        "constant_factor": exact_value_to_json(tag.constant_factor),
    }


def constant_report_to_json(rep: ConstantReport) -> dict:
    out = {
        "value": exact_value_to_json(rep.value),
        "value_approx": rep.value.to_float(),
        "argmax": subgroup_to_json(rep.argmax_subgroup),
        "saturated": rep.saturated,
        "tie": rep.tie,
    }
    if rep.canonicalization is not None:
        out["canonicalization"] = tag_to_json(rep.canonicalization)
    if rep.all_candidates is not None:
        out["candidates"] = [
            {"subgroup": subgroup_to_json(H), "value": exact_value_to_json(v)}
            for H, v in rep.all_candidates
        ]
    return out
