"""The sharp constant of the parent-average form, sequence norms, Carleson
embedding constants, the stopping-time corona construction, the shifted
averaging kernel with its closed forms on comparable pairs and its
matrix-free disjoint-pair block, and the battery of weighted Carleson-sum
inequalities.

Empirical constants are exact maxima over the finite grid, never sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    _downward_tree,
    as_column,
    subtree_sums,
)
from .norms import DEFAULT_MAX_ITER, ConvergenceError, _dot, lanczos_top, operator_norm
from .operators import DyadicOperator, HaarShift, Paraproduct
from .weights import Weight

__all__ = [
    "s_pi_sharp_ratio",
    "ell_inf_norm",
    "cm_norm",
    "carleson_embedding_constant",
    "shift_kernel_table",
    "s_coefficients",
    "nested_kernel_pairs",
    "shift_kernel_errors",
    "CoronaDecomposition",
    "corona",
    "BatteryRow",
    "InequalityReport",
    "inequality_battery",
    "BATTERY_ROW_LABELS",
    "BATTERY_A2_POWERS",
    "disjoint_block_norm",
]


# --------------------------------------------------------------------------
# the sharp constant of the parent-average form


def _parent_averages(grid: Grid, avg_haar: np.ndarray) -> np.ndarray:
    """<.>_{pi I} for every Haar-bearing I, with pi(root) = root."""
    parents = np.repeat(avg_haar[: grid.haar_size // 2], 2)
    return np.concatenate((avg_haar[:1], parents))


def s_pi_sharp_ratio(
    w: Weight, tol: float = 1e-9, max_iter: int = DEFAULT_MAX_ITER, seed: int = 1
) -> float:
    """Sharp constant  sup { <D phi, phi> / <M_w phi, phi> : phi mean-zero }
    where D sends h_I -> <w>_{pi I} h_I.

    Computed by Lanczos on the symmetrized generalized eigenproblem:
    with u = w^{-1/2} and P the projection onto the complement of u, the
    constant is the top eigenvalue of  P (M_u D M_u) P.
    """
    grid = w.grid
    parents = _parent_averages(grid, w.w.averages[: grid.haar_size])
    d = Paraproduct(grid, parents, "00")
    u = w.w_inv_half.values
    buf = np.empty_like(u)
    u_norm_sq = _dot(u, u, buf)

    def project(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.subtract(x, (_dot(u, x, buf) / u_norm_sq) * u, out=out)

    def matvec(x: np.ndarray, out: np.ndarray) -> None:
        y = project(x) * u
        project(d.apply(LeafFunction._adopt(grid, y)).values * u, out)

    rng = np.random.default_rng(seed)
    x0 = project(rng.uniform(-1.0, 1.0, grid.leaf_count))
    lam, _, residual, converged = lanczos_top(matvec, x0, tol, max_iter)
    if not converged:
        raise ConvergenceError(
            "sharp-ratio Lanczos did not meet its residual bound", lam, residual
        )
    return float(lam)


# --------------------------------------------------------------------------
# sequence norms and the embedding constant


def ell_inf_norm(a: HaarSymbol) -> float:
    return float(np.abs(a.coeff).max())


def cm_norm(a: HaarSymbol) -> float:
    """Carleson-measure norm: sqrt of the best uniform bound on
    (1/|I|) sum_{J inside I} a_J^2 over all dyadic I."""
    sums = subtree_sums(a.grid, a.coeff**2) * a.grid.tree_inv_lengths
    return float(np.sqrt(sums.max()))


def carleson_embedding_constant(alpha: np.ndarray, v: Weight) -> float | np.ndarray:
    """Exact testing constant  sup_I v(I)^{-1} sum_{J inside I} a_J <v>_J^2,
    the sup running over every dyadic interval of the grid.  For a block of k
    weights and (haar_size, k) alpha, one constant per column, bit for bit."""
    grid = v.grid
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (grid.haar_size,) + v.w.shape[1:]:
        raise ValueError("alpha needs one entry per Haar-bearing interval and weight")
    if not np.all(np.isfinite(alpha)) or np.any(alpha < 0):
        raise ValueError("alpha must be finite and nonnegative")
    avg = v.w.averages
    sums = subtree_sums(grid, alpha * avg[: grid.haar_size] ** 2)
    sums /= avg / as_column(grid.tree_inv_lengths, avg)  # by v(I) = <v>_I |I|
    return float(sums.max()) if alpha.ndim == 1 else sums.max(axis=0)


# --------------------------------------------------------------------------
# the shifted averaging kernel: table, nested-pair closed form, disjoint block


# the kernel table and verify's embedding check run in blocks of at most this
# many leaf entries: 16 columns at depth 8, 4 at depth 10, the same at any depth
KERNEL_BLOCK_ENTRIES = 4096


def _atom_block(grid: Grid, offsets: np.ndarray) -> LeafFunction:
    """The averaging atoms h_J^1 = |J|^{-1} 1_J at these flat offsets as the
    columns of one block, each equal to the test oracle
    averaging_function(grid, J) in tests/oracles.py."""
    levels = np.frexp(offsets + 1)[1] - 1
    positions = offsets + 1 - np.left_shift(1, levels)
    leaves = np.arange(grid.leaf_count)[:, None]
    inside = (leaves >> (grid.depth - levels)) == positions
    return LeafFunction(grid, np.where(inside, 2.0**levels, 0.0))


def shift_kernel_table(grid: Grid, kind: str) -> np.ndarray:
    """table[L, J] = <shift h_J^1, h_L^1> for every pair of intervals, rows
    and columns at flat offsets over levels 0..depth.

    Computed by expanding h_J^1 in the Haar-plus-mean basis, shifting, and
    pairing (not by a closed formula), so it checks the closed forms below.
    Covers nested, equal, and disjoint configurations.  One shift of a block
    of atoms and the synthesis sweep of its output's average tree give a
    block of columns.
    """
    shift = HaarShift(grid, kind)
    size = grid.tree_size
    table = np.empty((size, size))
    width = max(1, KERNEL_BLOCK_ENTRIES // grid.leaf_count)
    for start in range(0, size, width):
        stop = min(start + width, size)
        shifted = shift.apply(_atom_block(grid, np.arange(start, stop)))
        table[:, start:stop] = shifted.averages
        del shifted  # let the next block's sweeps reuse its memory
    return table


def _left_child_table(grid: Grid) -> np.ndarray:
    """1/|pi J| on each left child J (odd flat offsets), else 0, over levels
    0..depth: the exact powers of two that weigh the half shift's closed
    form."""
    left_child = np.arange(grid.tree_size) % 2 == 1
    return left_child * (0.5 * grid.tree_inv_lengths)


def s_coefficients(grid: Grid) -> np.ndarray:
    """Half-shift nested-pair coefficient s(J) at every flat offset: the
    signed lacunary sum over the grid ancestors K whose left child strictly
    contains J,

        sqrt(2) * sum_{K: K_left strictly contains J} delta(J, K_left) / |K|,

    one downward sweep of the left-child table, terms added root first.
    """
    c = _left_child_table(grid)[: grid.haar_size]
    return math.sqrt(2.0) * _downward_tree(grid, 0.0, c, c)


def nested_kernel_pairs(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets (J, L) of every pair with L strictly inside J, and the
    exact half-shift kernel <S h_J^1, h_L^1> on each.

    The value is s(J) plus, when J is a left child, the boundary term of
    K = pi J, whose shifted atom lands on J: sqrt(2) delta(L, J) / |pi J|.
    """
    js, ls, signs = [], [], []
    for lev in range(grid.depth):
        for sub in range(lev + 1, grid.depth + 1):
            pos = np.arange(1 << sub)
            js.append((1 << lev) - 1 + (pos >> (sub - lev)))
            ls.append((1 << sub) - 1 + pos)
            signs.append(1.0 - 2.0 * ((pos >> (sub - lev - 1)) & 1))
    j, l, sign = map(np.concatenate, (js, ls, signs))
    boundary = math.sqrt(2.0) * _left_child_table(grid)[j] * sign
    return j, l, s_coefficients(grid)[j] + boundary


def shift_kernel_errors(grid: Grid, table: np.ndarray) -> tuple[float, float, float]:
    """Check a half-shift kernel table against the closed forms on every
    comparable pair: the worst |table[L, J] - closed form| over nested pairs
    L inside J; the worst |table[L, J] - s(L)| over L = J and J inside L;
    and the worst excess of |s(J)| over its bound sqrt(2)/|J| (0.0 when the
    bound holds everywhere up to 1e-12)."""
    j, l, closed = nested_kernel_pairs(grid)
    error = float(np.abs(table[l, j] - closed).max())
    s = s_coefficients(grid)
    # the nested pairs transposed put the larger interval in the row
    containing = max(np.abs(table[j, l] - s[j]).max(), np.abs(np.diag(table) - s).max())
    magnitude = np.abs(s)
    bound = math.sqrt(2.0) * grid.tree_inv_lengths
    excess = (magnitude - bound)[magnitude > bound + 1e-12]
    return error, float(containing), float(excess.max(initial=0.0))


class _DisjointBlock(DyadicOperator):
    """The disjoint-pair block A[L, J] = what(L) <S h_J^1, h_L^1> vhat(J)
    over Haar pairs where neither interval contains the other (half shift),
    what and vhat the Haar coefficients of w^{1/2} and w^{-1/2}, reading and
    emitting Haar coefficients.  A u = what (K x - C x) with x = vhat u: the
    whole kernel K is one shift of the atoms-born sum_J x_J h_J^1 read as
    averages; its comparable pairs C take their closed forms, s(J) plus the
    boundary term on L inside J (nested_kernel_pairs) and s(L) on J inside
    or equal to L, in one subtree sum and one downward sweep.  The adjoint
    runs the adjoint shift and the transposed sweeps."""

    label = "disjoint_block"
    annihilates_constants = True

    def __init__(self, w: Weight):
        super().__init__(w.grid)
        grid = self.grid
        self.shift = HaarShift(grid, "half")
        self.outer, self.inner = w.w_half.symbol.coeff, w.w_inv_half.symbol.coeff
        self.s = s_coefficients(grid)[: grid.haar_size]
        self.boundary = math.sqrt(2.0) * _left_child_table(grid)[: grid.haar_size]

    def _block(
        self, f: LeafFunction, first: np.ndarray, last: np.ndarray, transposed: bool
    ) -> LeafFunction:
        grid = self.grid
        u = f.symbol.coeff
        x = as_column(first, u) * u
        shift = self.shift.adjoint_apply if transposed else self.shift.apply
        inside = subtree_sums(grid, x)
        s, boundary = as_column(self.s, x), as_column(self.boundary, x)
        kernel = shift(LeafFunction._adopt(grid, x, atoms=True)).haar_averages
        y = kernel - s * inside[: grid.haar_size]
        half = grid.haar_size // 2
        sx, bx = s[:half] * x[:half], boundary[:half] * x[:half]
        if transposed:
            y -= _downward_tree(grid, 0.0, sx, -sx) + boundary * (inside[1::2] - inside[2::2])
        else:
            y -= _downward_tree(grid, 0.0, sx + bx, bx - sx)
        y *= as_column(last, y)
        mean = 0.0 if y.ndim == 1 else np.zeros(y.shape[1])
        return LeafFunction._adopt(grid, y, mean)

    def apply(self, f: LeafFunction) -> LeafFunction:
        return self._block(f, self.inner, self.outer, transposed=False)

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        return self._block(f, self.outer, self.inner, transposed=True)


def disjoint_block_norm(w: Weight) -> float:
    """Operator norm of the disjoint-pair block (the Haar basis is
    orthonormal), by the norm engine on its matrix-free apply at any depth.
    Raises ConvergenceError if Lanczos misses its residual bound."""
    result = operator_norm(_DisjointBlock(w))
    if not result.converged:
        message = "disjoint-block Lanczos did not meet its residual bound"
        raise ConvergenceError(message, result.value, result.residual)
    return result.value


# --------------------------------------------------------------------------
# corona decomposition


@dataclass(frozen=True, eq=False)
class CoronaDecomposition:
    """Stopping-time generations for a weight above a root interval.

    top[I] is the flat offset of the stopping interval whose corona holds I
    (-1 outside the root's subtree).  generations[0] == (root,); each
    interval in generations[k+1] is a maximal subinterval of its stopping
    parent whose average exceeds gamma times the parent's average.
    """

    root: DyadicIndex
    gamma: float
    top: np.ndarray

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Stopping intervals below the root and their stopping parents."""
        kids = np.flatnonzero(self.top == np.arange(self.top.size))[1:]  # root first
        return kids, self.top[(kids - 1) // 2]

    @cached_property
    def generations(self) -> tuple[tuple[DyadicIndex, ...], ...]:
        """Generation k+1: the stopping children of generation k, grouped in its
        order, each group in flat order (a top-down scan's depth-first order)."""
        kids, parents = self._edges
        rank = np.full(self.top.size, -1)
        generation, out = np.array([self.root.flat_offset]), []
        while generation.size:
            out.append(tuple(map(_index_from_offset, generation.tolist())))
            rank[generation] = np.arange(generation.size)
            inside = rank[parents] >= 0
            order = np.lexsort((kids[inside], rank[parents[inside]]))
            rank[generation] = -1
            generation = kids[inside][order]
        return tuple(out)

    @cached_property
    def stopping_parent(self) -> dict[DyadicIndex, DyadicIndex]:
        kids, parents = (map(_index_from_offset, a.tolist()) for a in self._edges)
        return dict(zip(kids, parents))

    def stopping_intervals(self) -> list[DyadicIndex]:
        return [q for gen in self.generations for q in gen]


def corona(w: Weight, root: DyadicIndex, gamma: float) -> CoronaDecomposition:
    """Top-down stopping-time construction in one downward sweep: below the
    root, an interval keeps its parent's stopping interval T unless its
    average exceeds gamma <w>_T, in which case it starts a new one."""
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"corona threshold gamma must be finite and > 1, got {gamma}")
    avg = w.w.averages
    top = np.full(w.grid.tree_size, -1)
    top[root.flat_offset] = root.flat_offset
    for level in range(root.level + 1, w.grid.depth + 1):
        span = 1 << (level - root.level)
        kids = np.arange(span) + ((1 << level) - 1 + root.position * span)
        inherited = top[(kids - 1) // 2]
        top[kids] = np.where(avg[kids] > gamma * avg[inherited], kids, inherited)
    top.setflags(write=False)
    return CoronaDecomposition(root=root, gamma=gamma, top=top)


# --------------------------------------------------------------------------
# the inequality battery


BATTERY_ROW_LABELS = ("a", "b", "c", "d", "e", "f", "g", "h", "i")

# the power of the A2 characteristic each row's constant is measured against
BATTERY_A2_POWERS = {
    "a": 2.0,
    "b": 2.0,
    "c": 2.0,
    "d": 1.0,
    "e": 1.0,
    "f": 0.0,
    "g": 1.0,
    "h": 1.0,
    "i": 2.0,
}


@dataclass(frozen=True)
class BatteryRow:
    label: str
    c_emp: float
    attaining: DyadicIndex
    normalizer_value: float


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple[BatteryRow, ...]

    def __getitem__(self, label: str) -> BatteryRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def format(self) -> str:
        lines = ["row_label  C_emp  attaining_interval(level,pos)  normalizer_value"]
        for row in self.rows:
            lines.append(
                f"{row.label}  {row.c_emp:.17g}  "
                f"({row.attaining.level},{row.attaining.position})  "
                f"{row.normalizer_value:.17g}"
            )
        return "\n".join(lines)


def _index_from_offset(offset: int) -> DyadicIndex:
    level = int(offset + 1).bit_length() - 1
    return DyadicIndex(level, offset - ((1 << level) - 1))


def inequality_battery(w: Weight) -> InequalityReport:
    """Empirical constants for the nine weighted Carleson-sum inequalities.

    Each row reports max over all outer dyadic intervals of
    (sum over Haar-bearing inner J inside I of q_J) / normalizer(I),
    together with the attaining interval.  Inner sums use non-strict
    containment; rows pairing K with K_left restrict K to levels with
    grandchildren on the grid.
    """
    grid = w.grid
    inv_hat = w.w_inv.symbol.coeff
    inv_half_hat = w.w_inv_half.symbol.coeff
    w_hat = w.w.symbol.coeff
    avg_w = w.w.averages
    avg_inv = w.w_inv.averages
    h = grid.haar_size
    haar_w, haar_inv, haar_half = avg_w[:h], avg_inv[:h], w.w_half.averages[:h]

    lengths = 1.0 / grid.tree_inv_lengths
    mass_w = avg_w * lengths  # w(I)
    mass_inv = avg_inv * lengths  # (1/w)(I)

    cross = np.zeros(h)  # |(1/w)^(I) w^(I-)|, 0 on the last Haar level
    cross[: h // 2] = np.abs(inv_hat[: h // 2] * w_hat[1::2])

    quantities = {
        "a": inv_half_hat**2 * haar_w,
        "b": inv_half_hat**2 * haar_half**2,
        "c": inv_half_hat**2 * _parent_averages(grid, haar_w),
        "d": inv_hat**2 / haar_inv**2,
        "e": inv_hat**2 / haar_inv,
        "f": inv_hat**2 / haar_inv**3,
        "g": cross,
        "h": cross / haar_inv,
        "i": inv_half_hat**2 * haar_w**2,
    }
    normalizers = {
        "a": lengths,
        "b": lengths,
        "c": lengths,
        "d": lengths,
        "e": mass_inv,
        "f": mass_w,
        "g": lengths,
        "h": mass_w,
        "i": mass_w,
    }

    rows = []
    for label in BATTERY_ROW_LABELS:
        ratios = subtree_sums(grid, quantities[label]) / normalizers[label]
        best = int(np.argmax(ratios))
        rows.append(
            BatteryRow(
                label=label,
                c_emp=float(ratios[best]),
                attaining=_index_from_offset(best),
                normalizer_value=float(normalizers[label][best]),
            )
        )
    return InequalityReport(tuple(rows))
