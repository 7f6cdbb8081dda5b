"""Dyadic grids, sparse operators, and weighted-inequality verification."""

from .grid import (
    DyadicCube,
    DyadicGridFamily,
    GridFunction,
    RootBox,
    read_gridfunction,
    write_gridfunction,
)
from .weights import (
    CubeBattery,
    ExponentTriple,
    Weight,
    a1_characteristic,
    a1q_characteristic,
    admissible_gamma_range,
    ainfty_characteristic,
    ainfty_subset_bounds,
    ap_characteristic,
    apq_characteristic,
    power_weight,
    reverse_holder_exponent,
    step_weight,
)
from .orlicz import (
    EXPM1,
    LLOG,
    POWER1,
    YoungFunction,
    amemiya_norm,
    generalized_holder_check,
    luxemburg_norm,
    norm_sandwich_check,
)
from .operators import (
    OperatorOutput,
    bmo_norm,
    commutator_1d,
    dyadic_commutator,
    dyadic_fractional_integral,
    dyadic_fractional_maximal,
    fractional_maximal,
    inner_outer_split,
    level_set_cubes,
    riesz_potential_1d,
    riesz_potential_at,
    sparse_fractional_integral,
    weighted_orlicz_fractional_maximal,
)
from .sparse import (
    SparseFamily,
    certify_sparse,
    cz_stopping_cubes,
    sparse_family_doc,
    sparse_family_from_json,
    sparse_select_for_operator,
    verify_commutator_domination,
    verify_sparse_domination,
)

__version__ = "0.1.0"
