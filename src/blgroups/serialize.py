"""JSON schemas for groups, data, Lie data, and result payloads.

Group specs come in three shapes:

    {"order": n, "table": [[...]], "labels": [...]}   explicit Cayley table
    {"cyclic": [n1, ..., nk]}                         product of cyclic groups
    {"degree": d, "generators": [[...], ...]}         permutation generators

A table spec's "order" may be left out; when given, it must equal the
number of rows.  The order cap bounds every spec: the order of a table or
cyclic product, the closure of the permutation generators, and the
degree itself, which is refused above the cap (SizeCapError, CLI exit 3)
before a permutation of that length is built.

A datum bundles a group, codomains, maps as image lists, exponents as
strings ("2", "3/2", "inf") or finite JSON numbers, and Haar modes.  A
number is read as the double it denotes, so 1.1 is not 11/10; "inf" is the
only way to write infinity.  All fractions are serialized as strings so the
JSON round-trips exactly.

The parsers check the JSON type of every node they read and raise
SchemaError, a ValueError, on a node of the wrong type.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import TYPE_CHECKING

from .datum import BLDatum, CanonicalTag, Exponent
from .exact import ExactValue
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupStructureError,
    HaarMode,
    Homomorphism,
    SizeCapError,
    Subgroup,
    from_cayley_table,
    from_permutations,
    make_cyclic_product,
)

if TYPE_CHECKING:
    # Annotations only, so that importing serialize loads neither layer.
    from .constant import ConstantReport
    from .lie import CompactLieDatum, IdealSpec, RationalPolytope


class SchemaError(ValueError):
    """A JSON input node has the wrong type."""


_JSON_TYPES = {dict: "an object", list: "an array", int: "an integer",
               str: "a string", (str, int, float): "a string or a number"}


def _expect(x, kind, what: str):
    """x, which must have JSON type kind; a boolean is never a number."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise SchemaError(f"{what} must be {_JSON_TYPES[kind]}")
    return x


def _array(x, kind, what: str) -> list:
    """x, which must be an array whose entries have JSON type kind."""
    for i, v in enumerate(_expect(x, list, what)):
        _expect(v, kind, f"{what}[{i}]")
    return x


def _matrix(x, kind, what: str) -> list:
    """x, which must be an array of arrays whose entries have JSON type kind."""
    for i, row in enumerate(_array(x, list, what)):
        _array(row, kind, f"{what}[{i}]")
    return x


def _rational(v, what: str) -> Fraction:
    """v as a Fraction.  JSON's Infinity, -Infinity and NaN, and numbers too
    large for a float such as 1e400, load as non-finite floats: no rational."""
    if isinstance(v, float) and not isfinite(v):
        raise SchemaError(f"{what} must be a finite number, not {v}")
    return Fraction(v)


def parse_group(obj: dict, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    _expect(obj, dict, "group spec")
    if "cyclic" in obj:
        return make_cyclic_product(_array(obj["cyclic"], int, "cyclic"), order_cap)
    if "table" in obj:
        table = _matrix(obj["table"], int, "table")
        if "order" in obj and _expect(obj["order"], int, "order") != len(table):
            raise SchemaError(f"order {obj['order']} does not match a table of "
                              f"{len(table)} rows")
        if len(table) > order_cap:
            raise SizeCapError(f"order {len(table)} exceeds cap {order_cap}")
        labels = obj.get("labels")
        return from_cayley_table(
            table, None if labels is None else _array(labels, str, "labels")
        )
    if "generators" in obj:
        return from_permutations(
            _expect(obj["degree"], int, "degree"),
            _matrix(obj["generators"], int, "generators"),
            order_cap,
        )
    raise GroupStructureError(
        "group spec needs one of: 'cyclic', 'table', or 'degree'+'generators'"
    )


def group_to_json(G: FiniteGroup) -> dict:
    out = {"order": G.order, "table": [list(r) for r in G.table]}
    if G.labels:
        out["labels"] = list(G.labels)
    return out


def _parse_haar(s: str) -> HaarMode:
    _expect(s, str, "Haar mode")
    try:
        return HaarMode(s.lower())
    except ValueError:
        raise GroupStructureError(f"unknown Haar mode {s!r}") from None


def parse_datum(obj: dict, order_cap: int = DEFAULT_ORDER_CAP) -> BLDatum:
    _expect(obj, dict, "datum")
    G = parse_group(obj["group"], order_cap)
    codomains = tuple(
        parse_group(c, order_cap) for c in _expect(obj["codomains"], list, "codomains")
    )
    images = _matrix(obj["maps"], int, "maps")
    if len(images) != len(codomains):
        raise SchemaError("maps and codomains must have equal length")
    maps = tuple(Homomorphism(G, C, tuple(m)) for C, m in zip(codomains, images))
    exponents = tuple(
        Exponent.of(p if isinstance(p, str) else _rational(p, f"p[{j}]"))
        for j, p in enumerate(_array(obj["p"], (str, int, float), "p"))
    )
    haar = _expect(obj.get("haar", {}), dict, "haar")
    haar_G = _parse_haar(haar.get("G", "probability"))
    haar_codomains = tuple(
        _parse_haar(m)
        for m in _expect(haar.get("codomains", ["probability"] * len(maps)), list,
                         "haar codomains")
    )
    return BLDatum(G, maps, exponents, haar_G, haar_codomains)


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
    from .lie import CompactLieDatum, LinearizedMap

    _expect(obj, dict, "Lie datum")
    maps = tuple(
        LinearizedMap(
            tuple(_array(m.get("kept_simple", []), int, f"maps[{j}] kept_simple")),
            tuple(
                tuple(v if isinstance(v, int)
                      else _rational(v, f"maps[{j}] torus_matrix[{r}][{c}]")
                      for c, v in enumerate(row))
                for r, row in enumerate(_matrix(m.get("torus_matrix", []),
                                                (str, int, float), f"maps[{j}] torus_matrix"))
            ),
        )
        for j, m in enumerate(_array(obj["maps"], dict, "maps"))
    )
    return CompactLieDatum(
        tuple(_array(obj.get("simple_dims", []), int, "simple_dims")),
        _expect(obj.get("torus_dim", 0), int, "torus_dim"),
        maps,
    )


def subgroup_to_json(H: Subgroup) -> list[int]:
    return list(H.members)


def ideal_to_json(n: IdealSpec) -> dict:
    return {
        "simple_part": list(n.simple_part),
        "torus_basis": [[str(v) for v in row] for row in n.torus_basis],
    }


def polytope_to_json(P: RationalPolytope, verts, facet_tight) -> dict:
    return {
        "dim": P.dim,
        "halfspaces": [
            {"coeffs": list(c), "bound": b} for c, b in P.halfspaces
        ],
        "box": "0 <= x_j <= 1",
        "vertices": [[str(v) for v in x] for x in verts],
        "facet_tight": list(facet_tight),
    }


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
