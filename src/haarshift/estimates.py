"""Square functions, sequence norms, Carleson embedding constants, the
stopping-time corona construction, the shifted averaging kernel with its
nested-pair closed form and disjoint block, and the battery of weighted
Carleson-sum inequalities.

Empirical constants are exact maxima over the finite grid, never sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grid import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    averages,
    averaging_function,
    gather_left_child,
    subtree_sums,
    sum_interval_constants,
)
from .norms import DENSE_DEPTH_CAP, ConvergenceError, power_iteration
from .operators import HaarShift, Paraproduct
from .weights import Weight

__all__ = [
    "square_function",
    "s_pi",
    "weighted_square_norm_sq",
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
    "corona_members",
    "corona_sum",
    "BatteryRow",
    "InequalityReport",
    "inequality_battery",
    "BATTERY_ROW_LABELS",
    "BATTERY_A2_POWERS",
    "disjoint_block_matrix",
    "disjoint_block_norm",
]


# --------------------------------------------------------------------------
# square functions


def square_function(f: LeafFunction) -> LeafFunction:
    """Sf(x) = sqrt( sum_I fhat(I)^2 h_I^1(x) ) over Haar-bearing I."""
    grid = f.grid
    consts = f.symbol.coeff**2 * grid.haar_inv_lengths
    return LeafFunction(grid, np.sqrt(sum_interval_constants(grid, consts)))


def s_pi(f: LeafFunction) -> LeafFunction:
    """Modified square function: each I spreads fhat(I)^2 / |I| over the
    parent of I, with the root acting as its own parent."""
    grid = f.grid
    sq = f.symbol.coeff**2 * grid.haar_inv_lengths
    consts = np.zeros(grid.haar_size)
    consts[0] = sq[0]  # root term, pi(root) = root
    consts[: grid.haar_size // 2] += sq[1::2] + sq[2::2]
    return LeafFunction(grid, np.sqrt(sum_interval_constants(grid, consts)))


def weighted_square_norm_sq(f: LeafFunction, v: LeafFunction) -> float:
    """|Sf|^2 in L2(v), which collapses to sum_I fhat(I)^2 <v>_I."""
    return float(np.sum(f.symbol.coeff**2 * v.averages.haar_part))


def _parent_averages(grid: Grid, avg_haar: np.ndarray) -> np.ndarray:
    """<.>_{pi I} for every Haar-bearing I, with pi(root) = root."""
    parents = np.repeat(avg_haar[: grid.haar_size // 2], 2)
    return np.concatenate((avg_haar[:1], parents))


def s_pi_sharp_ratio(
    w: Weight, tol: float = 1e-9, max_iter: int = 50000, seed: int = 1
) -> float:
    """Sharp constant  sup { <D phi, phi> / <M_w phi, phi> : phi mean-zero }
    where D sends h_I -> <w>_{pi I} h_I.

    Computed by power iteration on the symmetrized generalized eigenproblem:
    with u = w^{-1/2} and P the projection onto the complement of u, the
    constant is the top eigenvalue of  P (M_u D M_u) P.
    """
    grid = w.grid
    d = Paraproduct(grid, _parent_averages(grid, w.w.averages.haar_part), "00")
    u = w.w_inv_half.values
    u_norm_sq = float(u @ u)

    def project(x: np.ndarray) -> np.ndarray:
        return x - (float(u @ x) / u_norm_sq) * u

    def matvec(x: np.ndarray) -> np.ndarray:
        y = project(x) * u
        z = d.apply(LeafFunction(grid, y)).values * u
        return project(z)

    rng = np.random.default_rng(seed)
    x0 = project(rng.uniform(-1.0, 1.0, grid.leaf_count))
    lam, _, residual, converged, _ = power_iteration(matvec, x0, tol, max_iter)
    if not converged:
        raise ConvergenceError(
            "sharp-ratio power iteration did not converge", lam, residual
        )
    return float(lam)


# --------------------------------------------------------------------------
# sequence norms and the embedding constant


def _symbol_coeff(a) -> tuple[Grid, np.ndarray]:
    if isinstance(a, HaarSymbol):
        return a.grid, a.coeff
    raise TypeError("expected a HaarSymbol")


def ell_inf_norm(a: HaarSymbol) -> float:
    _, coeff = _symbol_coeff(a)
    return float(np.abs(coeff).max())


def cm_norm(a: HaarSymbol) -> float:
    """Carleson-measure norm: sqrt of the best uniform bound on
    (1/|I|) sum_{J inside I} a_J^2 over all dyadic I."""
    grid, coeff = _symbol_coeff(a)
    sums = subtree_sums(grid, coeff**2) * grid.tree_inv_lengths
    return float(np.sqrt(sums.max()))


def carleson_embedding_constant(alpha: np.ndarray, v: Weight) -> float:
    """Exact testing constant  sup_I v(I)^{-1} sum_{J inside I} a_J <v>_J^2,
    the sup running over every dyadic interval of the grid."""
    grid = v.grid
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (grid.haar_size,):
        raise ValueError("alpha must have one entry per Haar-bearing interval")
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    avg = v.w.averages
    sums = subtree_sums(grid, alpha * avg.haar_part**2)
    masses = avg.tree / grid.tree_inv_lengths  # v(I) = <v>_I |I|
    return float((sums / masses).max())


# --------------------------------------------------------------------------
# the shifted averaging kernel: table, nested-pair closed form, disjoint block


def _kernel_block(grid: Grid, kind: str, size: int) -> np.ndarray:
    """table[L, J] = <shift h_J^1, h_L^1> for J and L among the first size
    flat offsets: one shift and one averaging sweep give a whole column."""
    shift = HaarShift(grid, kind)
    table = np.empty((size, size))
    for j_idx in islice(grid.all_indices(), size):
        shifted = shift.apply(averaging_function(grid, j_idx))
        table[:, j_idx.flat_offset] = averages(shifted).tree[:size]
    return table


def shift_kernel_table(grid: Grid, kind: str) -> np.ndarray:
    """table[L, J] = <shift h_J^1, h_L^1> for every pair of intervals, rows
    and columns at flat offsets over levels 0..depth.

    Computed by expanding h_J^1 in the Haar-plus-mean basis, shifting, and
    pairing (not by a closed formula), so it checks the closed forms below.
    Covers nested, equal, and disjoint configurations.
    """
    return _kernel_block(grid, kind, grid.tree_size)


def s_coefficients(grid: Grid) -> np.ndarray:
    """Half-shift nested-pair coefficient s(J) at every flat offset: the
    signed lacunary sum over the grid ancestors K whose left child strictly
    contains J,

        sqrt(2) * sum_{K: K_left strictly contains J} delta(J, K_left) / |K|.

    One downward sweep: J takes its parent's sum and, when the parent is a
    left child, adds delta(J, pi J) / |pi pi J| = +-2^{level - 2} (+ at
    positions 0 mod 4, - at 1 mod 4).  Terms are added root first.
    """
    total = np.zeros(grid.tree_size)
    for lev in range(2, grid.depth + 1):
        step = 2.0 ** (lev - 2) * np.array([1.0, -1.0, 0.0, 0.0])
        parents = np.repeat(total[grid.level_slice(lev - 1)], 2)
        total[grid.level_slice(lev)] = parents + np.tile(step, 1 << (lev - 2))
    return math.sqrt(2.0) * total


def nested_kernel_pairs(grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets (J, L) of every pair with L strictly inside J, and the
    exact half-shift kernel <S h_J^1, h_L^1> on each.

    The value is s(J) plus, when J is a left child, the boundary term of
    K = pi J, whose shifted atom lands on J: sqrt(2) delta(L, J) / |pi J|.
    """
    s = s_coefficients(grid)
    js, ls, values = [], [], []
    for lev in range(grid.depth):
        for sub in range(lev + 1, grid.depth + 1):
            pos = np.arange(1 << sub)
            j_pos = pos >> (sub - lev)
            sign = 1.0 - 2.0 * ((pos >> (sub - lev - 1)) & 1)
            boundary = math.sqrt(2.0) * sign * 2.0 ** (lev - 1)
            j = (1 << lev) - 1 + j_pos
            left_child = (lev >= 1) & (j_pos % 2 == 0)
            js.append(j)
            ls.append((1 << sub) - 1 + pos)
            values.append(s[j] + np.where(left_child, boundary, 0.0))
    return np.concatenate(js), np.concatenate(ls), np.concatenate(values)


def shift_kernel_errors(grid: Grid, table: np.ndarray) -> tuple[float, float]:
    """Check a half-shift kernel table against the nested-pair closed form:
    the worst |table[L, J] - closed form| over nested pairs, and the worst
    excess of |s(J)| over its bound sqrt(2)/|J| (0.0 when the bound holds
    everywhere up to 1e-12)."""
    j, l, closed = nested_kernel_pairs(grid)
    error = float(np.abs(table[l, j] - closed).max())
    magnitude = np.abs(s_coefficients(grid))
    bound = math.sqrt(2.0) * grid.tree_inv_lengths
    excess = (magnitude - bound)[magnitude > bound + 1e-12]
    return error, float(excess.max(initial=0.0))


def disjoint_block_matrix(w: Weight) -> np.ndarray:
    """Matrix A[L, J] = what(L) <S h_J^1, h_L^1> winvhat(J) over disjoint
    Haar pairs (half shift), acting on Haar coefficient vectors."""
    grid = w.grid
    size = grid.haar_size
    kernel = _kernel_block(grid, "half", size)
    # disjoint: neither equal nor nested
    disjoint = ~np.eye(size, dtype=bool)
    j, l, _ = nested_kernel_pairs(grid)
    j, l = j[l < size], l[l < size]
    disjoint[j, l] = disjoint[l, j] = False
    hat_half = w.w_half.symbol.coeff
    hat_inv_half = w.w_inv_half.symbol.coeff
    return np.where(
        disjoint, hat_half[:, None] * kernel * hat_inv_half[None, :], 0.0
    )


def disjoint_block_norm(w: Weight) -> float:
    """Operator norm of the disjoint-support block: the top singular value
    of its matrix (the Haar basis is orthonormal).  Dense only, as no fast
    apply exists for this kernel; capped at the dense-oracle depth."""
    if w.grid.depth > DENSE_DEPTH_CAP:
        raise ValueError(f"disjoint block norm capped at depth {DENSE_DEPTH_CAP}")
    return float(np.linalg.svd(disjoint_block_matrix(w), compute_uv=False)[0])


# --------------------------------------------------------------------------
# corona decomposition


@dataclass(frozen=True)
class CoronaDecomposition:
    """Stopping-time generations for a weight above a root interval.

    generations[0] == [root]; each interval in generations[k+1] is a maximal
    subinterval of its stopping parent whose average exceeds gamma times the
    parent's average.
    """

    root: DyadicIndex
    gamma: float
    generations: tuple[tuple[DyadicIndex, ...], ...]
    stopping_parent: dict

    def stopping_intervals(self) -> list[DyadicIndex]:
        return [q for gen in self.generations for q in gen]

    def chains(self) -> list[list[DyadicIndex]]:
        """All root-to-deepest stopping chains."""
        children: dict[DyadicIndex, list[DyadicIndex]] = {}
        for q, p in self.stopping_parent.items():
            children.setdefault(p, []).append(q)
        chains = []

        def walk(node, path):
            kids = children.get(node, [])
            if not kids:
                chains.append(path)
                return
            for kid in sorted(kids):
                walk(kid, path + [kid])

        walk(self.root, [self.root])
        return chains


def corona(w: Weight, root: DyadicIndex, gamma: float) -> CoronaDecomposition:
    """Top-down stopping-time construction: descend from the root, starting
    a new generation at every maximal interval whose average first exceeds
    gamma times its stopping parent's average."""
    if not 1.0 < gamma < math.inf:
        raise ValueError(f"corona threshold gamma must be finite and > 1, got {gamma}")
    grid = w.grid
    avg = w.w.averages
    generations: list[list[DyadicIndex]] = [[root]]
    stopping_parent: dict[DyadicIndex, DyadicIndex] = {}

    def scan(parent: DyadicIndex, generation: int) -> None:
        """Find maximal stopping subintervals of `parent`."""
        threshold = gamma * avg[parent]
        stack = (
            [parent.left, parent.right] if parent.level < grid.depth else []
        )
        found: list[DyadicIndex] = []
        while stack:
            node = stack.pop()
            if avg[node] > threshold:
                found.append(node)
            elif node.level < grid.depth:
                stack.extend([node.left, node.right])
        for node in sorted(found):
            while len(generations) <= generation:
                generations.append([])
            generations[generation].append(node)
            stopping_parent[node] = parent
            scan(node, generation + 1)

    scan(root, 1)
    return CoronaDecomposition(
        root=root,
        gamma=gamma,
        generations=tuple(tuple(g) for g in generations),
        stopping_parent=stopping_parent,
    )


def corona_members(
    decomp: CoronaDecomposition, w: Weight, G: DyadicIndex
) -> list[DyadicIndex]:
    """Intervals of the corona of G: inside G but in no stopping child of G."""
    grid = w.grid
    stop_children = [q for q, p in decomp.stopping_parent.items() if p == G]
    members = []
    stack = [G]
    while stack:
        node = stack.pop()
        if node != G and node in stop_children:
            continue
        members.append(node)
        if node.level < grid.depth:
            stack.extend([node.left, node.right])
    return members


def corona_sum(decomp: CoronaDecomposition, w: Weight) -> float:
    """sum over stopping intervals G of <w>_G^2 * (1/w)(G), the quantity
    dominating the nested Carleson sum in the stopping-time argument."""
    total = 0.0
    for g in decomp.stopping_intervals():
        total += w.w.averages[g] ** 2 * w.w_inv.averages[g] * g.length
    return total


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
    avg_half = w.w_half.averages

    lengths = 1.0 / grid.tree_inv_lengths
    mass_w = avg_w.tree * lengths  # w(I)
    mass_inv = avg_inv.tree * lengths  # (1/w)(I)

    hat_w_left = gather_left_child(grid, w_hat)
    cross = np.abs(inv_hat * hat_w_left)

    quantities = {
        "a": inv_half_hat**2 * avg_w.haar_part,
        "b": inv_half_hat**2 * avg_half.haar_part**2,
        "c": inv_half_hat**2 * _parent_averages(grid, avg_w.haar_part),
        "d": inv_hat**2 / avg_inv.haar_part**2,
        "e": inv_hat**2 / avg_inv.haar_part,
        "f": inv_hat**2 / avg_inv.haar_part**3,
        "g": cross,
        "h": cross / avg_inv.haar_part,
        "i": inv_half_hat**2 * avg_w.haar_part**2,
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
