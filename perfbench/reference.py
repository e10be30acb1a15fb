"""Independent reference for the sweep outputs.

For every shift kind, ``Q_00_00 = P00_{<w^{1/2}>} o S o P00_{<w^{-1/2}>}``
sends the orthonormal Haar functions h_I onto mutually orthogonal images,
so its norm has a closed form:

    half:  max_I |<w^{1/2}>_{I-} <w^{-1/2}>_I|
    full:  max_I |<w^{-1/2}>_I| sqrt(<w^{1/2}>_{I-}^2 + <w^{1/2}>_{I+}^2)

with I over levels 0..depth-2.  Averages are reshape-means of the leaf
values.  Nothing here uses haarshift's grid, operators or norms modules;
``self_test`` checks the closed forms against LAPACK SVD of dense matrices
assembled from an explicit Haar basis.
"""

from __future__ import annotations

import numpy as np

MEAN_CROSS_ABS_TOL = 1e-12
Q00_REL_TOL = 1e-6  # the norm_engine_vs_dense threshold of the verify suite
SELF_TEST_REL_TOL = 1e-9


def level_averages(values: np.ndarray, level: int) -> np.ndarray:
    return values.reshape(1 << level, -1).mean(axis=1)


def q00_norm(w_half: np.ndarray, w_inv_half: np.ndarray, shift: str) -> float:
    """Closed-form norm of Q_00_00 for the half or full shift."""
    depth = int(np.log2(w_half.size))
    best = 0.0
    for lev in range(depth - 1):
        b = level_averages(w_inv_half, lev)
        a_child = level_averages(w_half, lev + 1)
        a_left, a_right = a_child[0::2], a_child[1::2]
        if shift == "half":
            vals = np.abs(a_left * b)
        elif shift == "full":
            vals = np.abs(b) * np.sqrt(a_left**2 + a_right**2)
        else:
            raise ValueError(f"no closed form for shift {shift!r}")
        best = max(best, float(vals.max()))
    return best


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 16 digits."""
    return 16.0 if rel_err <= 1e-16 else min(16.0, -float(np.log10(rel_err)))


# --------------------------------------------------------------------------
# self-test against dense SVD


def _haar_basis(depth: int) -> np.ndarray:
    """Rows are the leaf values of h_I, level-contiguous over levels
    0..depth-1 (row 2**level - 1 + position)."""
    n = 1 << depth
    rows = []
    for lev in range(depth):
        width = n >> lev
        block = np.zeros((1 << lev, n))
        for pos in range(1 << lev):
            block[pos, pos * width : pos * width + width // 2] = 1.0
            block[pos, pos * width + width // 2 : (pos + 1) * width] = -1.0
        rows.append(block * 2.0 ** (lev / 2))
    return np.vstack(rows)


def _dense_q00(w_half: np.ndarray, w_inv_half: np.ndarray, shift: str) -> np.ndarray:
    """P00 o shift o P00 as a leaf-space matrix, factor by factor."""
    n = w_half.size
    depth = int(np.log2(n))
    haar = _haar_basis(depth)

    def p00(values: np.ndarray) -> np.ndarray:
        symbol = np.concatenate([level_averages(values, lev) for lev in range(depth)])
        return (haar.T * symbol) @ haar / n

    images = np.zeros_like(haar)  # row I holds the shifted image of h_I
    for lev in range(depth - 1):
        for pos in range(1 << lev):
            left = (2 << lev) - 1 + 2 * pos
            images[(1 << lev) - 1 + pos] = haar[left]
            if shift == "full":
                images[(1 << lev) - 1 + pos] -= haar[left + 1]
    shift_mat = images.T @ haar / n
    return p00(w_half) @ shift_mat @ p00(w_inv_half)


def self_test(weights: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """Worst relative gap between the closed forms and the dense SVD norm
    over the given (w^{1/2}, w^{-1/2}) leaf arrays, both shift kinds.
    Raises RuntimeError when a gap exceeds SELF_TEST_REL_TOL."""
    worst = 0.0
    for w_half, w_inv_half in weights:
        for shift in ("half", "full"):
            dense = np.linalg.svd(
                _dense_q00(w_half, w_inv_half, shift), compute_uv=False
            )[0]
            closed = q00_norm(w_half, w_inv_half, shift)
            gap = abs(closed - dense) / dense
            if not gap <= SELF_TEST_REL_TOL:
                raise RuntimeError(
                    f"reference self-test: {shift} closed form {closed!r} vs "
                    f"SVD {dense!r} at {w_half.size} leaves"
                )
            worst = max(worst, gap)
    return worst
