"""Operator-norm estimation: matrix-free power iteration on the normal
operator, plus a dense LAPACK oracle for small depths."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import LeafFunction
from .operators import DyadicOperator

__all__ = [
    "NormResult",
    "ConvergenceError",
    "operator_norm",
    "dense_norm",
    "materialize",
    "power_iteration",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 20000
DEFAULT_SEED = 1

DENSE_DEPTH_CAP = 10


class ConvergenceError(RuntimeError):
    """Power iteration ran out of budget; carries the last estimate."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


@dataclass(frozen=True)
class NormResult:
    value: float
    iterations: int
    residual: float
    converged: bool


def power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    history: list | None = None,
) -> tuple[float, int, float, bool, np.ndarray]:
    """Dominant eigenvalue of a symmetric positive semidefinite map.

    Iterates x <- Ax / |Ax| and stops when the relative change of the
    Rayleigh quotient drops below tol.  Returns (eigenvalue estimate,
    iterations, last relative change, converged flag, last iterate).
    The Rayleigh quotients are non-decreasing, so the estimate approaches
    the true value from below; pass a list as `history` to record them.
    """
    if not 0.0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x = x0 / np.linalg.norm(x0)
    lam_prev = float("nan")
    residual = float("inf")
    for it in range(1, max_iter + 1):
        ax = matvec(x)
        norm_ax = float(np.linalg.norm(ax))
        lam = float(x @ ax)
        if history is not None:
            history.append(lam)
        if norm_ax == 0.0 or lam <= 0.0:
            return 0.0, it, 0.0, True, x
        residual = abs(lam - lam_prev) / lam if lam_prev == lam_prev else float("inf")
        if residual <= tol:
            return lam, it, residual, True, x
        lam_prev = lam
        x = ax / norm_ax
    return lam_prev, max_iter, residual, False, x


def _start_vector(op: DyadicOperator, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, op.grid.leaf_count)
    if op.annihilates_constants:
        x -= x.mean()
    return x


def operator_norm(
    op: DyadicOperator,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = DEFAULT_SEED,
) -> NormResult:
    """L2 -> L2 operator norm via power iteration on T*T.

    Deterministic for fixed (op, tol, max_iter, seed); the value converges
    to the true norm from below.  Non-convergence is reported through the
    flag rather than raised: callers decide whether to fail.
    """
    grid = op.grid

    def normal_matvec(x: np.ndarray) -> np.ndarray:
        fx = op.apply(LeafFunction(grid, x))
        return op.adjoint_apply(fx).values

    lam, iterations, residual, converged, _ = power_iteration(
        normal_matvec, _start_vector(op, seed), tol, max_iter
    )
    return NormResult(float(np.sqrt(max(lam, 0.0))), iterations, residual, converged)


def materialize(op: DyadicOperator) -> np.ndarray:
    """Dense matrix of an operator in the leaf-indicator basis.

    The leaf basis is orthogonal with equal norms, so the L2 operator norm
    equals the spectral norm of this matrix.
    """
    n_leaves = op.grid.leaf_count
    mat = np.empty((n_leaves, n_leaves))
    basis = np.zeros(n_leaves)
    for j in range(n_leaves):
        basis[j] = 1.0
        mat[:, j] = op.apply(LeafFunction(op.grid, basis)).values
        basis[j] = 0.0
    return mat


def dense_norm(op: DyadicOperator) -> float:
    """Oracle operator norm: the top singular value of the materialized
    matrix from LAPACK, sharing no code with the power iteration it checks.
    Capped at depth 10 (memory)."""
    if op.grid.depth > DENSE_DEPTH_CAP:
        raise ValueError(f"dense norm capped at depth {DENSE_DEPTH_CAP}")
    return float(np.linalg.svd(materialize(op), compute_uv=False)[0])
