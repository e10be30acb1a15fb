"""Operator-norm estimation: exact norms where the operator's structure
gives them, matrix-free three-term Lanczos on the normal operator for the
rest, plus a dense LAPACK oracle for small depths."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import LeafFunction
from .operators import (
    Composition,
    DyadicOperator,
    MeanCorrection,
    OperatorSum,
    Paraproduct,
)

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
DEFAULT_MAX_ITER = 20000
DEFAULT_SEED = 1

DENSE_DEPTH_CAP = 10


class ConvergenceError(RuntimeError):
    """Lanczos ran out of steps before its residual bound met the
    tolerance; carries the last estimate and relative bound."""

    def __init__(self, message: str, estimate: float, residual: float):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual


@dataclass(frozen=True)
class NormResult:
    """value: the norm estimate.  iterations: Lanczos steps, one T*T
    matvec each (0 for an exact norm).  residual: the relative Ritz
    residual bound on the top eigenvalue of T*T.  converged: that bound
    met the tolerance."""

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
    """The norm read from the operator's structure, or None.

    A "00" paraproduct sends the orthonormal h_I to mutually orthogonal
    images (and constants to zero), so its norm is the sup of the image
    norms: |s_I t_I| (identity), |s_I t_{I-}| (half) or
    |s_I| sqrt(t_{I-}^2 + t_{I+}^2) (full), with s the symbol and t the
    outer symbol.  A sum of compositions that each annihilate by structure
    is zero.  Anything else returns None.
    """
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


def _pivots(alphas: list, betas: list, x: float) -> tuple[list, float] | None:
    """Pivots of the LDL^T factorization of x I - T for the tridiagonal T
    (diagonal alphas, off-diagonal betas), and the derivative in x of the
    last pivot.  None when an earlier pivot is not positive: x then lies
    below the top eigenvalue of a leading block, hence below T's."""
    d, dp = [x - alphas[0]], 1.0
    for a, beta in zip(alphas[1:], betas):
        p = d[-1]
        if p <= 0.0:
            return None
        ratio = beta / p
        dp = 1.0 + ratio * ratio * dp
        d.append(x - a - ratio * beta)
    return d, dp


def _two_by_two_top(theta: float, alpha: float, coupling_sq: float) -> float:
    """Top eigenvalue of [[theta, g], [g, alpha]] with g^2 = coupling_sq."""
    half_gap = 0.5 * (alpha - theta)
    root = math.sqrt(half_gap * half_gap + coupling_sq)
    if half_gap >= 0.0:
        return theta + half_gap + root
    return theta + coupling_sq / (root - half_gap)


def _pole_model_top(
    theta: float, alpha: float, pole: float, x: float, p: float, dp: float
) -> float | None:
    """Root above theta of the model of the last pivot p of x I - T_k that
    keeps the top pole pole / (x - theta) exactly and replaces the rest of
    the pole sum by its tangent at x, fitted to p(x) and p'(x); None where
    the fit gives the rest a sign it cannot have.  Like the 2x2 model (the
    same with the rest dropped), it is a 2x2 top eigenvalue.  The rest is
    convex, so the root is a lower bound when the pole weight is exact; it
    is not when s_prev is off, so it only picks the next point."""
    d = x - theta
    if d <= 0.0:
        return None
    rest = x - alpha - pole / d - p
    slope = 1.0 + pole / (d * d) - dp
    if rest < 0.0 or slope > 0.0:
        return None
    scale = 1.0 - slope
    offset = theta - alpha - rest + slope * d
    return _two_by_two_top(theta, theta - offset / scale, pole / scale)


def _top_eigenvalue(alphas: list, betas: list, theta_prev: float, s_prev: float):
    """Top eigenvalue of the k-step Lanczos tridiagonal T_k, given the top
    eigenvalue theta_prev of T_{k-1} and the last component s_prev of its
    unit eigenvector, as (x, pivots of x I - T_k) at a point x a few ulps
    above it.

    On (theta_prev, inf) the last pivot p(x) of x I - T_k is increasing
    and concave, and its root there is the answer.  Keeping only the top
    pole of p gives the 2x2 model with coupling beta s_prev, whose top
    eigenvalue is the first point; putting all the pole weight there gives
    coupling beta and an upper bound.  By concavity the Newton step from
    either side lands at or below the root: from above it closes the
    bracket, from below it creeps up to the root and is nudged a few ulps
    past it.  Where Newton from below is still far (early steps, where the
    2x2 point can be 1e-2 short), the root of a pole model fitted at the
    sweep point (_pole_model_top) is usually within rounding of the answer,
    and the next point is just past it.  So two or three O(k) sweeps
    usually do.  s_prev only picks points, never an end of the bracket,
    and bisection inside the bracket is the safeguard.
    """
    beta, alpha = betas[-1], alphas[-1]
    pole = (beta * s_prev) ** 2
    lo = theta_prev - 8.0 * math.ulp(theta_prev)
    x = _two_by_two_top(theta_prev, alpha, pole)
    hi = _two_by_two_top(theta_prev, alpha, beta * beta)
    hi += 8.0 * (math.ulp(hi) + math.ulp(beta))
    found = None
    while True:
        factors = _pivots(alphas, betas, x)
        above = factors is not None and factors[0][-1] > 0.0
        if above:
            hi, found = x, factors
        elif x >= hi:
            # rounding put the upper bound below the root: widen it (the
            # ulps keep it moving when a Newton step has closed lo on hi)
            lo, hi = hi, hi + 2.0 * (hi - lo) + 8.0 * math.ulp(hi)
            x = hi
            continue
        else:
            lo = x
        if factors is not None:
            p, dp = factors[0][-1], factors[1]
            step = x - p / dp
            if above:
                # concave p: the Newton step from above lands below the
                # root, so it closes the bracket; if not, try just above it
                lo = max(lo, min(step, hi))
                step = lo + 4.0 * math.ulp(lo)
            else:
                model = _pole_model_top(theta_prev, alpha, pole, x, p, dp)
                if model is not None and model > step + 4.0 * math.ulp(step):
                    step = model + 4.0 * math.ulp(model)
                # Newton from below creeps up to the root; step past it to
                # close the bracket from above
                step = max(step, lo + 4.0 * math.ulp(lo))
        if hi - lo <= 8.0 * math.ulp(hi):
            if found is not None:
                return hi, found[0]
            x = hi
            continue
        x = step if factors is not None and step < hi else 0.5 * (lo + hi)


def _last_component(betas: list, pivots: list) -> float:
    """|e_k^T s| for the unit top eigenvector s of T_k, by two steps of
    inverse iteration from e_k at a shift x just above the top eigenvalue,
    where x I - T_k = L D L^T with D = diag(pivots), all positive, and L
    unit lower bidiagonal with entries -beta_i / pivot_i.  Each step damps
    the other eigenvectors by (x - theta) / gap, so a component far below
    the distance from x to the root still comes out right."""
    k = len(pivots)
    ratios = [b / p for b, p in zip(betas, pivots)]
    z = [0.0] * (k - 1) + [1.0]
    for _ in range(2):
        for i in range(1, k):
            z[i] += ratios[i - 1] * z[i - 1]
        z = [zi / p for zi, p in zip(z, pivots)]
        for i in range(k - 2, -1, -1):
            z[i] += ratios[i] * z[i + 1]
        scale = max(z)
        z = [zi / scale for zi in z]
    return z[-1] / math.sqrt(math.fsum(zi * zi for zi in z))


def lanczos_top(
    matvec: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    history: list | None = None,
) -> tuple[float, int, float, bool]:
    """Top eigenvalue of a symmetric positive semidefinite map by plain
    three-term Lanczos from x0, holding three vectors and the tridiagonal.

    Stops at step k when the Ritz residual bound beta_k |e_k^T s| of the
    top Ritz pair (theta, s) of T_k is at most tol * theta (Paige 1980:
    some eigenvalue of the map then lies within that bound of theta).  A
    zero map stops at step 1 with an exactly zero residual on an invariant
    Krylov space.  Returns (theta, steps, relative residual bound,
    converged).  Ritz values of nested Krylov spaces interlace, so theta
    is non-decreasing (to a few ulps) and approaches the top eigenvalue
    from below; pass a list as `history` to record it per step.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    v = x0 / np.linalg.norm(x0)
    v_prev = np.zeros_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    for step in range(1, max_iter + 1):
        u = matvec(v) - beta * v_prev
        alpha = float(v @ u)
        u -= alpha * v
        beta = float(np.linalg.norm(u))
        if not math.isfinite(alpha + beta):
            raise ValueError(f"non-finite Lanczos coefficient at step {step}")
        alphas.append(alpha)
        if step == 1:
            theta, s = alpha, 1.0
        else:
            theta, pivots = _top_eigenvalue(alphas, betas, theta, s)
            s = _last_component(betas, pivots)
        theta = max(theta, 0.0)
        if history is not None:
            history.append(theta)
        bound = beta * s
        residual = bound / theta if theta > 0.0 else (0.0 if bound == 0.0 else math.inf)
        if bound <= tol * theta:
            return theta, step, residual, True
        betas.append(beta)
        u /= beta
        v_prev, v = v, u
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

    Deterministic for fixed (op, tol, max_iter, seed); the value
    approaches the true norm from below.  Non-convergence is reported
    through the flag rather than raised: callers decide whether to fail.
    Reads nothing from the operator's structure: callers that want the
    exact path ask exact_norm first.
    """
    grid = op.grid

    def normal_matvec(x: np.ndarray) -> np.ndarray:
        fx = op.apply(LeafFunction(grid, x))
        return op.adjoint_apply(fx).values

    theta, steps, residual, converged = lanczos_top(
        normal_matvec, _start_vector(op, seed), tol, max_iter
    )
    return NormResult(math.sqrt(theta), steps, residual, converged)


def materialize(op: DyadicOperator) -> np.ndarray:
    """Dense matrix of an operator in the leaf-indicator basis: one apply to
    the identity block, whose columns are the leaf indicators.

    The leaf basis is orthogonal with equal norms, so the L2 operator norm
    equals the spectral norm of this matrix.
    """
    return op.apply(LeafFunction(op.grid, np.eye(op.grid.leaf_count))).values


def dense_norm(op: DyadicOperator) -> float:
    """Oracle operator norm: the top singular value of the materialized
    matrix from LAPACK, sharing no code with the exact path or the Lanczos
    iteration it checks.  Capped at depth 10 (memory)."""
    if op.grid.depth > DENSE_DEPTH_CAP:
        raise ValueError(f"dense norm capped at depth {DENSE_DEPTH_CAP}")
    return float(np.linalg.svd(materialize(op), compute_uv=False)[0])
