"""Numerical workbench for weighted dyadic Haar analysis.

Core layers:

- grid: dyadic intervals on [0,1), Haar analysis/synthesis, exact averages
- weights: A2 weight families, characteristic, disbalanced Haar data as
  level-contiguous arrays over the whole grid
- operators: paraproducts, multipliers, Haar shifts, weighted resolution
- norms: exact norms from operator structure, matrix-free Lanczos norms,
  and a dense LAPACK oracle
- estimates: square functions, Carleson embedding, corona, inequality battery,
  the shifted averaging kernel with its closed forms on every comparable pair,
  and the norm of its disjoint-pair block, matrix-free through the engine
- cli: verification suite, norm sweeps, reports
"""

from .grid import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    analyze,
    averages,
    averaging_function,
    count_operations,
    haar_function,
    product_formula,
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
    conjugated_shift,
    multiplier_pieces,
    resolution_pieces,
)
from .norms import (
    ConvergenceError,
    NormResult,
    dense_norm,
    exact_norm,
    lanczos_top,
    materialize,
    operator_norm,
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
    disjoint_block_norm,
    ell_inf_norm,
    inequality_battery,
    nested_kernel_pairs,
    s_coefficients,
    s_pi,
    s_pi_sharp_ratio,
    shift_kernel_errors,
    shift_kernel_table,
    square_function,
    weighted_square_norm_sq,
)

__version__ = "0.1.0"
