"""Numerical workbench for weighted dyadic Haar analysis.

Core layers:

- grid: dyadic intervals on [0,1), Haar analysis/synthesis, exact averages
- weights: A2 weight families, characteristic, disbalanced Haar data
- operators: paraproducts, multipliers, Haar shifts, weighted resolution
- norms: matrix-free power-iteration norms plus a dense LAPACK oracle
- estimates: square functions, Carleson embedding, corona, inequality battery
- cli: verification suite, norm sweeps, reports
"""

from .grid import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    MultiscaleAverages,
    analyze,
    averages,
    averaging_function,
    count_operations,
    delta_sign,
    gather_left_child,
    haar_function,
    product_formula_coeff,
    subtree_sums,
    sum_interval_constants,
    synthesize,
)
from .weights import (
    Weight,
    WeightSpec,
    a2_characteristic,
    disbalanced_data,
    make_weight,
    weighted_average,
)
from .operators import (
    Q_LABELS,
    SHIFT_KINDS,
    Composition,
    DyadicOperator,
    HaarShift,
    MeanCorrection,
    Multiplier,
    OperatorSum,
    Paraproduct,
    composed_identity_forms,
    conjugated_shift,
    multiplier_pieces,
    resolution_pieces,
    shift_kernel_table,
)
from .norms import (
    ConvergenceError,
    NormResult,
    dense_norm,
    materialize,
    operator_norm,
    power_iteration,
)
from .estimates import (
    BATTERY_A2_POWERS,
    BATTERY_ROW_LABELS,
    BatteryRow,
    CoronaDecomposition,
    InequalityReport,
    carleson_embedding_constant,
    cm_norm,
    corona,
    corona_members,
    corona_sum,
    disjoint_block_matrix,
    disjoint_block_norm,
    ell_inf_norm,
    inequality_battery,
    nested_kernel_value,
    s_coefficient,
    s_pi,
    s_pi_sharp_ratio,
    square_function,
    weighted_square_norm_sq,
)

__version__ = "0.1.0"
