"""padwhit: exact p-adic Whittaker newvector computations on GL(2).

The library evaluates the normalized Whittaker newvector of a generic
irreducible unitarizable representation of GL(2, Q_p) (and its conjugate
variant) at explicit coset representatives, computes GL(1) Gauss sums and
epsilon factors exactly, certifies the sup-norm of the newvector over the
whole group, and ships an executable verification suite for every identity
it relies on.

Scalar arithmetic runs at a configurable binary precision (128 bits by
default) with character values kept as exact roots of unity until the final
summation.
"""

from .numerics import (
    DEFAULT_PRECISION,
    RootOfUnity,
    ScaledRoot,
    approx_equal,
    get_precision,
    set_precision,
)
from .padics import (
    PAdicApprox,
    PrecisionError,
    psi_eval,
    unit_group,
)
from .characters import (
    ExtendedCharacter,
    UnitCharacter,
    characters_mod,
    critical_unit,
    epsilon_factor,
    format_char,
    gauss_sum,
    gauss_sum_closed,
    make_character,
    parse_char,
    parse_unit_char,
)
from .representations import (
    PrincipalSeries,
    Representation,
    SteinbergTwist,
    SupercuspidalOracle,
    TwistData,
    dump_oracle,
    load_oracle,
    make_supercuspidal,
    principal_series_family,
    standard_family,
    steinberg_family,
    trivial_character,
)
from .engine import (
    CoefficientTable,
    Mat2,
    Representative,
    SupNormResult,
    atkin_lehner_reduce,
    coefficient_table,
    conjugate_value,
    decompose_matrix,
    lambda_sq_sum,
    lower_bound_witness,
    reduce_matrix,
    sup_norm,
    supercuspidal_closed_value,
    theorem_refs,
    whittaker_value,
)

__version__ = "0.1.0"
