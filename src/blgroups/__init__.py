"""Exact Brascamp-Lieb constants on finite groups, finiteness analysis for
compact Lie group data, and the Heisenberg divergence construction."""

__version__ = "0.1.0"

from .constant import ConstantReport, bl_constant, extremizer, ratio, saturate
from .datum import (
    INF,
    BLDatum,
    CanonicalTag,
    Exponent,
    canonical_tag,
    canonicalize,
    drop_infinite_exponent,
    make_datum,
    quotient_split,
    reduce_p1,
    split_product,
)
from .exact import ExactValue, UndecidedComparisonError
from .groups import (
    FiniteGroup,
    HaarMode,
    Homomorphism,
    Subgroup,
    all_subgroups,
    direct_product,
    from_cayley_table,
    from_permutations,
    haar_mass,
    image,
    is_normal,
    kernel,
    make_cyclic_product,
    quotient,
    trivial_group,
)
from .heisenberg import (
    ApproximationWitness,
    DilationStructure,
    HeisenbergElement,
    divergence_witness,
    heisenberg_commutator,
    heisenberg_multiply,
    homogeneous_dimension,
    kronecker_sequence,
    scaling_condition,
)
from .lie import (
    CompactLieDatum,
    IdealSpec,
    LinearizedMap,
    RationalPolytope,
    Verdict,
    bcct_check,
    bl_polytope,
    closed_pool,
    codimension_check,
    finiteness,
    ideal_dims,
    membership,
    split_commutator_center,
    vertices,
)
from .oracle import (
    AscentTrace,
    InputTuple,
    alternating_ascent,
    evaluate_form,
    exhaustive_indicator_search,
    oracle_constant,
    rayleigh,
)
