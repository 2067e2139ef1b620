"""Exact Brascamp-Lieb constants on finite groups, finiteness analysis for
compact Lie group data, and the Heisenberg divergence construction.

The public names below load lazily (PEP 562): `import blgroups` imports no
submodule, and the first use of a name imports only the submodule that
defines it, so a caller pays only for the layers it uses.  The name is read
from its submodule on every access and never stored here, so this package
always hands out the submodule's current object.
"""

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "constant": ("ConstantReport", "bl_constant", "extremizer", "ratio", "saturate"),
        "datum": (
            "INF",
            "BLDatum",
            "CanonicalTag",
            "Exponent",
            "canonical_tag",
            "canonicalize",
            "drop_infinite_exponent",
            "make_datum",
            "quotient_split",
            "reduce_p1",
            "split_product",
        ),
        "exact": ("ExactValue", "UndecidedComparisonError"),
        "groups": (
            "FiniteGroup",
            "HaarMode",
            "Homomorphism",
            "Subgroup",
            "all_subgroups",
            "direct_product",
            "from_cayley_table",
            "from_permutations",
            "image",
            "kernel",
            "make_cyclic_product",
            "quotient",
        ),
        "heisenberg": (
            "ApproximationWitness",
            "DilationStructure",
            "HeisenbergElement",
            "divergence_witness",
            "heisenberg_commutator",
            "heisenberg_multiply",
            "kronecker_sequence",
            "scaling_condition",
        ),
        "lie": (
            "CompactLieDatum",
            "IdealSpec",
            "LinearizedMap",
            "RationalPolytope",
            "Verdict",
            "bl_polytope",
            "closed_pool",
            "codimension_check",
            "finiteness",
            "membership",
            "split_commutator_center",
            "vertices",
        ),
        "oracle": (
            "AscentTrace",
            "InputTuple",
            "alternating_ascent",
            "evaluate_form",
            "exhaustive_indicator_search",
            "oracle_constant",
            "rayleigh",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
