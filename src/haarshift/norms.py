"""Operator-norm estimation: exact norms where the operator's structure
gives them, matrix-free three-term Lanczos on the normal operator for the
rest, plus a dense LAPACK oracle for small depths."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import LeafFunction, _read, analyze
from .operators import (
    Composition,
    DyadicOperator,
    MeanCorrection,
    Multiplier,
    OperatorSum,
    Paraproduct,
    Workspace,
    _run,
    _steps,
)
from .weights import TINY

__all__ = [
    "NormResult",
    "ConvergenceError",
    "exact_norm",
    "lanczos_top",
    "operator_norm",
    "dense_norm",
    "materialize",
]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 1024
DEFAULT_SEED = 1

DENSE_DEPTH_CAP = 10

EPS = float(np.finfo(float).eps)
# A sum of n squares (or any n-vector) of size at least tiny / eps = 2**-970
# keeps full precision: each entry below the normal range is off by at most
# 2**-1075, half the subnormal spacing, and n < 2**53 of them (any array in
# memory) stay under eps of it.
SQUARES_EXACT = TINY / EPS


class ConvergenceError(RuntimeError):
    """Lanczos ran out of steps before its residual bound met the
    tolerance; carries the last estimate and relative bound."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


@dataclass(frozen=True)
class NormResult:
    """value: the estimate.  iterations: Lanczos steps, one T*T matvec each
    (0 if exact).  residual: the relative Ritz residual bound on the top
    eigenvalue of T*T.  converged: that bound met the tolerance."""

    value: float
    iterations: int
    residual: float
    converged: bool


# --------------------------------------------------------------------------
# exact norms from structure


def _annihilates(outer: DyadicOperator, inner: DyadicOperator) -> bool:
    """outer o inner is zero by structure: a mean read after a mean-free
    emission, or a constant fed to an operator that annihilates constants."""
    if isinstance(outer, MeanCorrection):
        return isinstance(inner, Paraproduct) and inner.kind[0] == "0"
    return isinstance(inner, MeanCorrection) and outer.annihilates_constants


def exact_norm(op: DyadicOperator) -> float | None:
    """The norm read from the operator's structure, or None: a "00"
    paraproduct sends the orthonormal h_I to orthogonal images, so its norm
    is their sup, |s_I t_I|, |s_I t_{I-}| or |s_I| sqrt(t_{I-}^2 + t_{I+}^2)
    by shift (s the symbol, t outer); a sum of compositions that each
    annihilate by structure is zero."""
    if isinstance(op, Paraproduct) and op.kind == "00":
        n = op.grid.haar_size
        s = np.ones(n) if op.symbol is None else op.symbol
        t = np.ones(n) if op.outer is None else op.outer
        if op.shift == "identity":
            image = s * t
        else:
            s = s[: n // 2]
            image = s * t[1::2]
            if op.shift == "full":
                image = np.hypot(image, s * t[2::2])
        return float(np.abs(image).max(initial=0.0))
    if isinstance(op, OperatorSum) and all(
        isinstance(term, Composition)
        and any(map(_annihilates, term.factors, term.factors[1:]))
        for term in op.terms
    ):
        return 0.0
    return None


# --------------------------------------------------------------------------
# Lanczos


def _top_ritz_pair(alphas: list, betas: list) -> tuple[float, float]:
    """Top eigenvalue theta (clipped at 0) of the Lanczos tridiagonal T_k
    (diagonal alphas, off-diagonal betas) and the last component |e_k^T s|
    of its unit eigenvector, from LAPACK's symmetric eigensolver (eigh
    reads only the lower triangle)."""
    k = len(alphas)
    tridiagonal = np.zeros((k, k))
    tridiagonal.flat[:: k + 1] = alphas
    tridiagonal.flat[k :: k + 1] = betas
    values, vectors = np.linalg.eigh(tridiagonal)
    return max(float(values[-1]), 0.0), abs(float(vectors[-1, -1]))


def _solves_at(step: int, max_iter: int) -> bool:
    """The steps that solve T_k: every step up to 128, then eight per
    doubling of k, and the last, so a run that cannot converge pays for
    about one O(max_iter^3) solve rather than one per step."""
    stride = 1 << max(step.bit_length() - 4, 0)
    return step <= 128 or step % stride == 0 or step == max_iter


def _dot(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> float:
    """x . y by numpy's pairwise summation, not BLAS, so the bits do not
    depend on the BLAS thread count.  out, if given, holds the products."""
    return float(np.add.reduce(np.multiply(x, y, out=out)))


def _norm(u: np.ndarray, scratch: np.ndarray) -> float:
    """||u||, in scratch's storage: the root of the one-pass sum of squares,
    the bits of sqrt(_dot(u, u)), unless that sum lies below SQUARES_EXACT.
    Then 0.0 if max|u| < TINY (subnormals span an invariant subspace to
    working precision), else u is scaled by max|u| first, so no square
    underflows.  From about 1e154 the squares overflow (a non-finite beta)."""
    sum_sq = float(np.add.reduce(np.square(u, out=scratch)))
    if sum_sq >= SQUARES_EXACT:
        return math.sqrt(sum_sq)
    scale = float(np.abs(u, out=scratch).max())
    if scale < TINY:
        return 0.0
    np.divide(u, scale, out=scratch)
    return scale * math.sqrt(_dot(scratch, scratch, scratch))


def lanczos_top(
    matvec: Callable[[np.ndarray, np.ndarray], None],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[float, int, float, bool]:
    """Top eigenvalue of a symmetric positive semidefinite map by plain
    three-term Lanczos from x0, in the tridiagonal and three vectors that
    take turns: matvec(x, out) writes the map of x into out.

    Stops at step k when the Ritz residual bound beta_k |e_k^T s| of the top
    Ritz pair (theta, s) of T_k, solved at the steps _solves_at picks and
    where beta_k = 0, is at most tol * theta (Paige 1980).  A residual with
    no entry of at least TINY (see _norm) is 0.  Returns (theta, steps,
    relative residual bound, converged); theta approaches the top eigenvalue
    from below.  A tol below machine epsilon, which no bound meets, is an error.
    """
    if not EPS <= tol < math.inf:
        raise ValueError(f"tol must be finite and positive, at least machine epsilon "
                         f"{EPS:.3g}, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    v = x0 / math.sqrt(_dot(x0, x0))
    del x0  # a caller that hands over its only reference frees it here
    v_prev, u = np.zeros_like(v), np.empty_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    for step in range(1, max_iter + 1):
        v_prev *= beta
        matvec(v, u)
        u -= v_prev
        # v_prev is not read again: its storage holds this step's products
        alpha = _dot(v, u, v_prev)
        u -= np.multiply(v, alpha, out=v_prev)
        beta = _norm(u, v_prev)
        if not math.isfinite(alpha + beta):
            raise ValueError(f"non-finite Lanczos coefficient at step {step}")
        alphas.append(alpha)
        # beta = 0: the Krylov space is invariant and theta exact
        if beta == 0.0 or _solves_at(step, max_iter):
            theta, s = _top_ritz_pair(alphas, betas)
            bound = beta * s
            residual = bound / theta if theta > 0.0 else (0.0 if bound == 0.0 else math.inf)
            if bound <= tol * theta:
                return theta, step, residual, True
        betas.append(beta)
        u /= beta
        v_prev, v, u = v, u, v_prev
    return theta, max_iter, residual, False


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
    """L2 -> L2 operator norm via Lanczos on T*T (see lanczos_top).

    Deterministic for fixed (op, tol, max_iter, seed); the value approaches
    the norm from below; non-convergence is a flag, not an error.  Lanczos
    runs on Haar coefficients for an operator that annihilates constants
    (T*T lives on span{h_I}), else on leaf values, from one start function.

    A run lends its operator's kernels one Workspace (see operators): a step
    reads a read-only view of the Lanczos vector, writes T*T of it into the
    next, and after the first step allocates no array.  No engine storage
    escapes into a LeafFunction, save the view that an operator without
    kernels is handed for the length of its apply.

    T*T squares the scale of T: a run whose theta falls below SQUARES_EXACT
    is measured again on 2**h T 2**h, 2**(2h) about the inverse of the
    largest entry of T applied to the start vector.  Both runs' steps count.
    """
    grid = op.grid
    theta, steps, residual, converged = _normal_top(op, tol, max_iter, seed)
    half = 0
    if theta < SQUARES_EXACT:
        # a zero image, or one whose own products underflowed, stays as run
        image = op.apply(LeafFunction(grid, _start_vector(op, seed))).values
        peak = float(np.abs(image).max())
        if peak >= TINY:
            half = -math.frexp(peak)[1] // 2
            root = Multiplier(grid, LeafFunction.constant(grid, math.ldexp(1.0, half)))
            scaled = Composition([root, op, root])
            theta, more, residual, converged = _normal_top(scaled, tol, max_iter, seed)
            steps += more
    value = math.ldexp(math.sqrt(theta), -2 * half)
    return NormResult(value, steps, residual, converged)


def _normal_top(op: DyadicOperator, tol: float, max_iter: int, seed: int) -> tuple:
    """lanczos_top on T*T, in the coordinates operator_norm describes."""
    grid, haar = op.grid, op.annihilates_constants
    steps = _steps(op, False) + _steps(op, True)
    born, mean, want = ("symbol", 0.0, "0") if haar else ("values", None, "values")
    # a Haar-coordinate vector has no room for leaf values, which a kernel
    # other than a paraproduct's may write: those go to the workspace's out
    direct = not haar or all(
        getattr(kernel, "__func__", None) is Paraproduct._kernel for kernel, _ in steps
    )
    ws = Workspace(grid)

    def normal_matvec(x: np.ndarray, out: np.ndarray) -> None:
        view = x.view()
        view.flags.writeable = False
        form = _run(steps, (born, view, mean), ws, out if direct else ws.out)
        result = _read(grid, form, want, ws, out)
        if not np.may_share_memory(result, out):
            out[...] = result

    # the start vector's only reference, which lanczos_top frees
    return lanczos_top(normal_matvec, _start_coordinates(op, seed), tol, max_iter)


def _start_coordinates(op: DyadicOperator, seed: int) -> np.ndarray:
    x0 = _start_vector(op, seed)
    return analyze(LeafFunction(op.grid, x0)).coeff if op.annihilates_constants else x0


def materialize(op: DyadicOperator) -> np.ndarray:
    """Dense matrix of an operator in the leaf-indicator basis, whose
    spectral norm is the L2 norm: one apply to the grid's leaf_basis, so
    what applies read of the basis is measured once per grid."""
    return op.apply(op.grid.leaf_basis).values


def dense_norm(op: DyadicOperator) -> float:
    """Oracle operator norm: the top singular value of the materialized
    matrix M, the root of the top LAPACK eigenvalue of M^T M.  It shares no
    code with the exact path, and only LAPACK's symmetric eigensolver with
    the Lanczos iteration it checks, which that applies to T_k rather than
    M^T M.  Capped at depth 10 (memory)."""
    if op.grid.depth > DENSE_DEPTH_CAP:
        raise ValueError(f"dense norm capped at depth {DENSE_DEPTH_CAP}")
    mat = materialize(op)
    # M^T M squares the entries: where their squares may fall below
    # SQUARES_EXACT, measure the exactly scaled 2**k M
    peak = float(np.abs(mat).max(initial=0.0))
    exponent = -math.frexp(peak)[1] if 0.0 < peak < math.sqrt(SQUARES_EXACT) else 0
    if exponent:
        mat = np.ldexp(mat, exponent)
    top = max(float(np.linalg.eigvalsh(mat.T @ mat)[-1]), 0.0)
    return math.ldexp(math.sqrt(top), -exponent)
