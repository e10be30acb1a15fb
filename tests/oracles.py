"""Shared independent oracles for the test suite."""

import math

import numpy as np

from haarshift import (
    DyadicIndex,
    HaarShift,
    LeafFunction,
    Weight,
    averaging_function,
    haar_function,
    nested_kernel_pairs,
    shift_kernel_table,
    subtree_sums,
)
from haarshift.grid import as_column
from haarshift.norms import NormResult, _start_vector, lanczos_top
from haarshift.operators import DyadicOperator


def is_left_child(index: DyadicIndex) -> bool:
    return index.level >= 1 and index.position % 2 == 0


def delta_sign(J: DyadicIndex, I: DyadicIndex) -> int:
    """+1 if J lies in the left child of I, -1 if in the right, else 0."""
    if not I.strictly_contains(J):
        return 0
    return 1 if I.left.contains(J) else -1


def weighted_average(f: LeafFunction, sigma: Weight, K: DyadicIndex) -> float:
    """E_K^sigma(f) = (1/sigma(K)) * integral of f*sigma over K."""
    start, stop = K.leaf_range(sigma.grid.depth)
    sig = sigma.w.values[start:stop]
    return float((f.values[start:stop] * sig).sum() / sig.sum())


class OpaqueOperator(DyadicOperator):
    """Delegates to another operator and hides its structure, as a tracing
    proxy does."""

    def __init__(self, inner):
        super().__init__(inner.grid)
        self.inner = inner
        self.label = inner.label
        self.annihilates_constants = inner.annihilates_constants

    def apply(self, f):
        return self.inner.apply(f)

    def adjoint_apply(self, f):
        return self.inner.adjoint_apply(f)


class RecordingOperator(OpaqueOperator):
    """An OpaqueOperator that keeps every (input, output) pair it passes."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen = []

    def apply(self, f):
        self.seen.append((f, self.inner.apply(f)))
        return self.seen[-1][1]

    def adjoint_apply(self, f):
        self.seen.append((f, self.inner.adjoint_apply(f)))
        return self.seen[-1][1]


def leaf_coordinate_norm(
    op: DyadicOperator, tol: float = 1e-9, max_iter: int = 1024, seed: int = 1
) -> NormResult:
    """operator_norm with Lanczos on leaf values for every operator: each
    T*T matvec takes leaf values in and sweeps its output back to them.
    Same start vector as the engine, so the same Krylov space."""
    grid = op.grid

    def normal_matvec(x):
        return op.adjoint_apply(op.apply(LeafFunction(grid, x))).values

    theta, steps, residual, converged = lanczos_top(
        normal_matvec, _start_vector(op, seed), tol, max_iter
    )
    return NormResult(math.sqrt(theta), steps, residual, converged)


def materialize_by_columns(op: DyadicOperator) -> np.ndarray:
    """Dense matrix of an operator in the leaf-indicator basis, one apply
    per leaf indicator."""
    n_leaves = op.grid.leaf_count
    mat = np.empty((n_leaves, n_leaves))
    basis = np.zeros(n_leaves)
    for j in range(n_leaves):
        basis[j] = 1.0
        mat[:, j] = op.apply(LeafFunction(op.grid, basis)).values
        basis[j] = 0.0
    return mat


def kernel_table_by_columns(grid, kind: str) -> np.ndarray:
    """table[L, J] = <shift h_J^1, h_L^1> over every flat offset, one shift
    of averaging_function(grid, J) per column."""
    shift = HaarShift(grid, kind)
    table = np.empty((grid.tree_size, grid.tree_size))
    for j_idx in grid.all_indices():
        shifted = shift.apply(averaging_function(grid, j_idx))
        table[:, j_idx.flat_offset] = shifted.averages.tree
    return table


def disjoint_block_matrix(w: Weight) -> np.ndarray:
    """Dense matrix A[L, J] = what(L) <S h_J^1, h_L^1> winvhat(J) over
    disjoint Haar pairs (half shift), acting on Haar coefficient vectors:
    the kernel table's Haar block times a mask that drops equal and nested
    pairs."""
    grid = w.grid
    size = grid.haar_size
    kernel = shift_kernel_table(grid, "half")[:size, :size]
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


def dense_sharp_ratio(w: Weight) -> float:
    """Top generalized eigenvalue of the parent-average quadratic form
    against the weighted mass form, restricted to the mean-zero subspace.

    Works entirely in the Haar basis (an orthonormal basis of the mean-zero
    subspace) through a Cholesky whitening and LAPACK eigensolve; shares no
    code path with the power-iteration route it checks.
    """
    grid = w.grid
    n = grid.leaf_count
    haar_basis = np.column_stack(
        [haar_function(grid, idx).values for idx in grid.haar_indices()]
    )
    parents = np.empty(grid.haar_size)
    avg = w.w.averages.haar_part
    parents[0] = avg[0]
    for idx in grid.haar_indices():
        if idx.level >= 1:
            parents[idx.flat_offset] = avg[idx.parent.flat_offset]
    a_form = np.diag(parents)
    b_form = haar_basis.T @ np.diag(w.w.values) @ haar_basis / n
    chol = np.linalg.cholesky(b_form)
    inv = np.linalg.inv(chol)
    sym = inv @ a_form @ inv.T
    return float(np.linalg.eigvalsh(sym).max())


def explicit_paraproduct_matrix(
    grid, symbol, kind: str, shift: str, outer=None
) -> np.ndarray:
    """Leaf-basis matrix of the placed paraproduct, summed from explicit atoms:

        sum_I s_I outer(atom_a(I'), atom_b(I)) / n,  I' = I, I- or I- - I+,

    with atom "0" = h_I and "1" = h^1_I, kind = a + b, and the 1/n the
    leaf-basis inner product.  The outer symbol t scales each placed atom
    at its own interval: t_I atom(I), t_{I-} atom(I-), or
    t_{I-} atom(I-) - t_{I+} atom(I+).  None is the unit symbol.
    """
    atom = {"0": haar_function, "1": averaging_function}

    def placed_at(j):
        scale = 1.0 if outer is None else outer[j.flat_offset]
        return scale * atom[kind[0]](grid, j).values

    expected = np.zeros((grid.leaf_count, grid.leaf_count))
    for i in grid.haar_indices():
        read = atom[kind[1]](grid, i).values
        if shift == "identity":
            placed = placed_at(i)
        elif i.level > grid.depth - 2:
            continue
        else:
            placed = placed_at(i.left)
            if shift == "full":
                placed = placed - placed_at(i.right)
        scale = 1.0 if symbol is None else symbol[i.flat_offset]
        expected += scale * np.outer(placed, read)
    return expected / grid.leaf_count


def product_formula_coeff(f, g, I) -> float:
    """Haar coefficient of the pointwise product f*g at the one interval I,
    with its own subtree sweep:

        sum_{J strictly inside I} fhat(J) ghat(J) delta(J,I) / sqrt(|I|)
          + fhat(I) <g>_I + ghat(I) <f>_I
    """
    fs, gs = f.symbol, g.symbol
    sub = subtree_sums(f.grid, fs.coeff * gs.coeff)
    inner_sum = (sub[I.left.flat_offset] - sub[I.right.flat_offset]) * 2.0 ** (
        I.level / 2
    )
    return float(inner_sum + fs[I] * g.averages[I] + gs[I] * f.averages[I])


def s_coefficient_walk(J) -> float:
    """Half-shift s(J) by walking the ancestors of J, root first:

        sqrt(2) * sum_{K: K_left strictly contains J} delta(J, K_left) / |K|.
    """
    total = 0.0
    for anc in J.ancestors():
        if is_left_child(anc):
            # anc = K_left for K = anc.parent; 1/|K| = 2^{level(anc) - 1}
            total += delta_sign(J, anc) * 2.0 ** (anc.level - 1)
    return math.sqrt(2.0) * total


def ancestor_sums_walk(grid, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out_L = sum over J strictly containing L of left_J or right_J, as L
    lies in the left or right child of J, by walking the ancestors of each
    L, root first, over the levels that the input rows cover."""
    levels = (left.shape[0] + 1).bit_length() - 1
    out = np.zeros(left.shape)
    for lev in range(levels):
        for L in grid.indices(lev):
            total = np.zeros(left.shape[1:])
            for J in L.ancestors():
                total = total + (left if J.left.contains(L) else right)[J.flat_offset]
            out[L.flat_offset] = total
    return out


def nested_kernel_walk(J, L) -> float:
    """<half-shift h_J^1, h_L^1> for L strictly inside J: s(J) plus, when J
    is a left child, the boundary term sqrt(2) delta(L, J) / |pi J|."""
    value = s_coefficient_walk(J)
    if is_left_child(J):
        value += math.sqrt(2.0) * delta_sign(L, J) * 2.0 ** (J.level - 1)
    return value


def corona_by_scan(w: Weight, root, gamma: float):
    """The stopping-time generations and stopping parents by a recursive
    top-down scan: below each stopping interval, a stack walk finds the
    maximal subintervals whose average exceeds gamma times its own."""
    grid = w.grid
    avg = w.w.averages
    generations = [[root]]
    stopping_parent = {}

    def scan(parent, generation: int) -> None:
        """Find maximal stopping subintervals of `parent`."""
        threshold = gamma * avg[parent]
        stack = (
            [parent.left, parent.right] if parent.level < grid.depth else []
        )
        found = []
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
    return tuple(tuple(g) for g in generations), stopping_parent


def corona_members_by_walk(stopping_parent: dict, w: Weight, G) -> list:
    """Intervals of the corona of G: inside G but in no stopping child of G."""
    grid = w.grid
    stop_children = [q for q, p in stopping_parent.items() if p == G]
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


def atoms_symbol_full_sweep(grid, atoms: np.ndarray):
    """Haar coefficients and mean of sum_I atoms_I h^1_I by differences of
    subtree sums on every Haar level, the finest included (its children are
    leaves, whose sums are 0): the full-sweep arithmetic that
    LeafFunction.from_atoms matches bit for bit while skipping that level."""
    inside = subtree_sums(grid, atoms)
    scale = as_column(grid.haar_inv_sqrt_lengths, inside)
    return (inside[1::2] - inside[2::2]) * scale, inside[0]


def paraproduct_weights_full(op, f: LeafFunction, adjoint: bool = False) -> np.ndarray:
    """The weights a Paraproduct emits, by full-array arithmetic: the
    symbol (apply) or outer (adjoint) scales every entry before the shift
    places or gathers, the other after it, each product a new array."""
    grid = op.grid
    half = grid.haar_size // 2
    atom = op.kind[0] if adjoint else op.kind[1]
    weights = f.symbol.coeff if atom == "0" else f.haar_averages
    first, last = (op.outer, op.symbol) if adjoint else (op.symbol, op.outer)
    if first is not None:
        weights = as_column(first, weights) * weights
    if op.shift != "identity":
        moved = np.zeros((grid.haar_size,) + weights.shape[1:])
        if adjoint:
            moved[:half] = weights[1::2]
            if op.shift == "full":
                moved[:half] -= weights[2::2]
        else:
            moved[1::2] = weights[:half]
            if op.shift == "full":
                moved[2::2] = -weights[:half]
        weights = moved
    if last is not None:
        weights = as_column(last, weights) * weights
    return weights
