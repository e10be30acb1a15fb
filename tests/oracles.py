"""Shared independent oracles for the test suite."""

import numpy as np

from haarshift import Weight, averaging_function, haar_function


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


def explicit_paraproduct_matrix(grid, symbol, kind: str, shift: str) -> np.ndarray:
    """Leaf-basis matrix of the placed paraproduct, summed from explicit atoms:

        sum_I s_I outer(atom_a(I'), atom_b(I)) / n,  I' = I, I- or I- - I+,

    with atom "0" = h_I and "1" = h^1_I, kind = a + b, and the 1/n the
    leaf-basis inner product.  symbol None is the unit symbol.
    """
    atom = {"0": haar_function, "1": averaging_function}
    expected = np.zeros((grid.leaf_count, grid.leaf_count))
    for i in grid.haar_indices():
        read = atom[kind[1]](grid, i).values
        if shift == "identity":
            placed = atom[kind[0]](grid, i).values
        elif i.level > grid.depth - 2:
            continue
        else:
            placed = atom[kind[0]](grid, i.left).values
            if shift == "full":
                placed = placed - atom[kind[0]](grid, i.right).values
        scale = 1.0 if symbol is None else symbol[i.flat_offset]
        expected += scale * np.outer(placed, read)
    return expected / grid.leaf_count
