"""Shared independent oracles for the test suite."""

import math

import numpy as np

from haarshift import (
    LeafFunction,
    Weight,
    averaging_function,
    delta_sign,
    haar_function,
)
from haarshift.operators import DyadicOperator


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


def s_coefficient_walk(J) -> float:
    """Half-shift s(J) by walking the ancestors of J, root first:

        sqrt(2) * sum_{K: K_left strictly contains J} delta(J, K_left) / |K|.
    """
    total = 0.0
    for anc in J.ancestors():
        if anc.is_left_child:
            # anc = K_left for K = anc.parent; 1/|K| = 2^{level(anc) - 1}
            total += delta_sign(J, anc) * 2.0 ** (anc.level - 1)
    return math.sqrt(2.0) * total


def nested_kernel_walk(J, L) -> float:
    """<half-shift h_J^1, h_L^1> for L strictly inside J: s(J) plus, when J
    is a left child, the boundary term sqrt(2) delta(L, J) / |pi J|."""
    value = s_coefficient_walk(J)
    if J.is_left_child:
        value += math.sqrt(2.0) * delta_sign(L, J) * 2.0 ** (J.level - 1)
    return value
