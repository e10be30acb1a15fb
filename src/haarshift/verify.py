"""Exact-identity and norm-law verification suite.

Each check returns its worst observed error; the suite passes when every
check is under its threshold.  Identity checks are seed-independent in
outcome; the seed only picks the random test vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import (
    KERNEL_BLOCK_ENTRIES,
    carleson_embedding_constant,
    cm_norm,
    ell_inf_norm,
    shift_kernel_errors,
    shift_kernel_table,
)
from .grid import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    haar_function,
    product_formula,
)
from .norms import dense_norm, materialize, operator_norm
from .operators import (
    Q_LABELS,
    SHIFT_KINDS,
    HaarShift,
    Multiplier,
    Paraproduct,
    conjugated_shift,
    multiplier_pieces,
    resolution_pieces,
)
from .weights import Weight, WeightSpec, disbalanced_data, make_weight

__all__ = ["CheckResult", "run_verification"]

NORM_LAW_DEPTH = 6  # dense-oracle norm laws stay cheap at this depth


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.threshold


def _random_leaf(grid: Grid, rng: np.random.Generator) -> LeafFunction:
    return LeafFunction(grid, rng.uniform(-1.0, 1.0, grid.leaf_count))


def _random_block(grid: Grid, rng: np.random.Generator, k: int) -> LeafFunction:
    """k random leaf functions as columns, drawn as k _random_leaf calls."""
    return LeafFunction(grid, rng.uniform(-1.0, 1.0, (k, grid.leaf_count)).T)


def _column_inner(f: LeafFunction, g: LeafFunction) -> np.ndarray:
    """L2([0,1)) inner products of matching columns of two blocks."""
    return np.einsum("ij,ij->j", f.values, g.values) / f.grid.leaf_count


def _check_orthonormality(grid: Grid) -> float:
    """Worst entry of |Gram - I| over the constant and every Haar function.
    The Gram matrix is reduced in place, so only two square matrices live."""
    n = grid.leaf_count
    mat = np.empty((n, n))
    mat[0] = LeafFunction.constant(grid, 1.0).values
    for row, idx in enumerate(grid.haar_indices(), start=1):
        mat[row] = haar_function(grid, idx).values
    gram = mat @ mat.T
    gram /= n
    gram.flat[:: n + 1] -= 1.0
    return float(np.abs(gram, out=gram).max())


def _parseval_sides(grid: Grid, rng) -> tuple[np.ndarray, np.ndarray]:
    """mean^2 + |coeff|^2, and ||f||^2, of 20 random functions in one block, by
    one function's arithmetic: row dots, and float pow (not x * x) of means."""
    f = _random_block(grid, rng, 20)
    coeff, vals = (np.ascontiguousarray(a.T) for a in (f.symbol.coeff, f.values))
    total = np.array([m**2 + c @ c for m, c in zip(f.symbol.mean.tolist(), coeff)])
    return total, np.array([x @ x for x in vals]) / grid.leaf_count


def _check_parseval(grid: Grid, rng) -> float:
    total, norm_sq = _parseval_sides(grid, rng)
    return float(np.max(np.abs(total - norm_sq) / norm_sq))


def _check_product_formula(grid: Grid, rng) -> float:
    f, g = _random_leaf(grid, rng), _random_leaf(grid, rng)
    product = LeafFunction(grid, f.values * g.values).symbol
    return float(np.abs(product_formula(f, g).coeff - product.coeff).max())


def _check_disbalanced(grid: Grid, seed: int) -> float:
    """The disbalanced Haar identities at every K at once.  h_K^sigma is
    constant on each child of K: (+-|K|^{-1/2} - D_K / |K|) / C_K on K- and
    K+.  On each child, C_K h_K^sigma + D_K h_K^1 must rebuild h_K; with
    sigma(K-), sigma(K+) from the average tree, h_K^sigma must have unit
    L2(sigma) norm and sigma-mean zero.  The leaf-level oracle, with
    independent sums, lives in the tests."""
    sigma = make_weight(WeightSpec("cascade", eps=0.35, seed=seed), grid)
    c, d = disbalanced_data(sigma)
    height = np.array([grid.haar_inv_sqrt_lengths, -grid.haar_inv_sqrt_lengths])
    h_sigma = (height - d * grid.haar_inv_lengths) / c
    tree = sigma.w.averages
    mass = np.array([tree[1::2], tree[2::2]]) / grid.tree_inv_lengths[1::2]
    rebuilt = np.abs(c * h_sigma + d * grid.haar_inv_lengths - height)
    norm = np.abs((mass * h_sigma**2).sum(axis=0) - 1.0)
    mean = np.abs((mass * h_sigma).sum(axis=0))
    return float(max(rebuilt.max(), norm.max(), mean.max()))


def _check_multiplier_decomposition(grid: Grid, rng) -> float:
    b = _random_leaf(grid, rng)
    m_b = Multiplier(grid, b)
    pieces = multiplier_pieces(b)
    f = _random_block(grid, rng, 20)
    direct = m_b.apply(f).values
    split = sum(p.apply(f).values for p in pieces.values())
    return float(np.abs(direct - split).max())


def _check_resolution_identity(grid: Grid, rng, seed: int) -> float:
    w = make_weight(WeightSpec("cascade", eps=0.4, seed=seed), grid)
    worst = 0.0
    for kind in SHIFT_KINDS:
        conj = conjugated_shift(w, kind)
        pieces = resolution_pieces(w, kind)
        f = _random_block(grid, rng, 20)
        direct = conj.apply(f).values
        split = sum(op.apply(f).values for op in pieces.values())
        worst = max(worst, float(np.abs(direct - split).max()))
    return worst


def _operator_zoo(grid: Grid, rng, seed: int) -> list:
    w = make_weight(WeightSpec("cascade", eps=0.4, seed=seed + 1), grid)
    sym = rng.normal(size=grid.haar_size)
    ops = [Paraproduct(grid, sym, kind) for kind in ("01", "10", "00", "11")]
    ops.append(Multiplier(grid, _random_leaf(grid, rng)))
    ops += [HaarShift(grid, kind) for kind in SHIFT_KINDS]
    pieces = resolution_pieces(w, "half")
    ops += [pieces[label] for label in Q_LABELS]
    ops.append(pieces["mean_cross"])
    ops.append(conjugated_shift(w, "half"))
    full = resolution_pieces(w, "full")
    ops += [full[label] for label in ("Q_10_01", "Q_10_00", "Q_00_01", "Q_00_00")]
    return ops


def _check_adjoints(grid: Grid, rng, seed: int) -> float:
    worst = 0.0
    for op in _operator_zoo(grid, rng, seed):
        # twenty (f, g) pairs, drawn in the order of twenty single pairs
        pairs = rng.uniform(-1.0, 1.0, (20, 2, grid.leaf_count))
        f, g = (LeafFunction(grid, pairs[:, j].T) for j in (0, 1))
        lhs = _column_inner(op.apply(f), g)
        rhs = _column_inner(f, op.adjoint_apply(g))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _check_dense_oracle(grid: Grid, rng, seed: int) -> float:
    worst = 0.0
    for op in _operator_zoo(grid, rng, seed):
        mat = materialize(op)
        f = _random_block(grid, rng, 5)
        worst = max(worst, float(np.abs(op.apply(f).values - mat @ f.values).max()))
        worst = max(
            worst, float(np.abs(op.adjoint_apply(f).values - mat.T @ f.values).max())
        )
    return worst


def _check_norm_engine_agreement(grid: Grid, rng, seed: int, tol: float) -> float:
    worst = 0.0
    for kind in ("01", "10", "00", "11"):
        sym = rng.normal(size=grid.haar_size)
        op = Paraproduct(grid, sym, kind)
        dn = dense_norm(op)
        on = operator_norm(op, tol=tol, seed=seed).value
        worst = max(worst, abs(on - dn) / dn)
    return worst


def _check_shift_kernel(grid: Grid) -> float:
    """Every comparable pair against its closed form and the bound on
    s(J), plus the pinned disjoint and brother-pair values, read from the
    half-shift kernel table."""
    table = shift_kernel_table(grid, "half")

    def kernel(j_idx: DyadicIndex, l_idx: DyadicIndex) -> float:
        return float(table[l_idx.flat_offset, j_idx.flat_offset])

    worst = max(shift_kernel_errors(grid, table))
    # the two level-1 brothers pair to zero
    brothers = [DyadicIndex(1, 0), DyadicIndex(1, 1)]
    for j_idx, l_idx in (brothers, brothers[::-1]):
        worst = max(worst, abs(kernel(j_idx, l_idx)))
    if grid.depth >= 3:
        # right-brother-to-left-brother disjoint pair with value sqrt(2)
        value = kernel(DyadicIndex(2, 2), DyadicIndex(2, 1))
        worst = max(worst, abs(value - math.sqrt(2.0)))
    return worst


def _cet_sides(grid: Grid, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per draw, the testing constant and both sides of the embedding it bounds,
    for 100 (alpha, v, f) triples drawn one by one and run in blocks of at most
    KERNEL_BLOCK_ENTRIES leaf entries; lhs sums and rhs dots rows as one draw."""
    n, h = grid.leaf_count, grid.haar_size
    width = max(1, KERNEL_BLOCK_ENTRIES // n)
    sides = []
    for start in range(0, 100, width):
        alpha, v, f = (np.empty((min(width, 100 - start), m)) for m in (h, n, n))
        for j in range(len(v)):
            alpha[j] = rng.uniform(0.0, 1.0, h)
            v[j] = np.exp(rng.normal(0.0, 0.8, n))
            f[j] = rng.uniform(-1.0, 1.0, n)
        constant = carleson_embedding_constant(alpha.T, Weight.from_values(grid, v.T))
        # sum_J a_J <v>_J^2 (<f v>_J / <v>_J)^2, the embedding the constant bounds
        fv = LeafFunction._adopt(grid, (f * v).T)
        lhs = np.add.reduce(np.ascontiguousarray(alpha * fv.haar_averages.T**2), -1)
        rhs = 4.0 * constant * np.array([x**2 @ y for x, y in zip(f, v)]) / n
        sides.append((constant, lhs, rhs))
        del fv  # let the next block's draws reuse its memory
    return tuple(np.concatenate(side) for side in zip(*sides))


def _check_cet_factor(grid: Grid, rng) -> float:
    _, lhs, rhs = _cet_sides(grid, rng)
    return float(np.max((lhs - rhs) / rhs, initial=0.0))


def _check_cm_sandwich(grid: Grid, rng) -> float:
    worst = 0.0
    for _ in range(50):
        sym = HaarSymbol(grid, rng.normal(size=grid.haar_size), 0.0)
        norm = dense_norm(Paraproduct(grid, sym.coeff, "01"))
        cm = cm_norm(sym)
        worst = max(worst, (cm - norm) / cm)  # lower bound
        worst = max(worst, (norm - 2.0 * cm) / cm)  # upper bound
    return worst


def _check_p00_norm_law(grid: Grid, rng) -> float:
    worst = 0.0
    for _ in range(50):
        sym = HaarSymbol(grid, rng.normal(size=grid.haar_size), 0.0)
        norm = dense_norm(Paraproduct(grid, sym.coeff, "00"))
        worst = max(worst, abs(norm - ell_inf_norm(sym)) / ell_inf_norm(sym))
    return worst


def _check_p11_bound(grid: Grid, rng) -> float:
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.0, 1.0, grid.haar_size)
        norm = dense_norm(Paraproduct(grid, a, "11"))
        bound = 4.0 * cm_norm(HaarSymbol(grid, np.sqrt(a), 0.0)) ** 2
        worst = max(worst, (norm - bound) / bound)
    return worst


def run_verification(depth: int, seed: int, tol: float = 1e-9) -> list[CheckResult]:
    """Run every exact-identity and norm-law check at the given depth."""
    if not 2 <= depth <= 10:
        raise ValueError("verification depth must be between 2 and 10")
    grid = Grid(depth)
    # one grid for the dense-oracle laws, so its leaf basis is measured once
    law_grid = Grid(NORM_LAW_DEPTH)
    # the kernel table is the run's largest array and draws no random
    # input: check it before the law grid's basis exists, so the two are
    # never held at once
    kernel_err = _check_shift_kernel(grid)
    rng = np.random.default_rng(seed)
    identity_tol = 1e-10
    results = [
        CheckResult("orthonormality", _check_orthonormality(grid), 1e-12),
        CheckResult("parseval", _check_parseval(grid, rng), 1e-12),
        CheckResult("product_formula", _check_product_formula(grid, rng), 1e-12),
        CheckResult("disbalanced_reconstruction", _check_disbalanced(grid, seed), identity_tol),
        CheckResult(
            "multiplier_decomposition",
            _check_multiplier_decomposition(grid, rng),
            identity_tol,
        ),
        CheckResult(
            "resolution_identity_16_pieces",
            _check_resolution_identity(grid, rng, seed),
            identity_tol,
        ),
        CheckResult("adjoint_consistency", _check_adjoints(grid, rng, seed), 1e-11),
        CheckResult(
            "dense_oracle_application",
            _check_dense_oracle(law_grid, rng, seed),
            1e-12,
        ),
        CheckResult(
            "norm_engine_vs_dense",
            _check_norm_engine_agreement(law_grid, rng, seed, tol),
            1e-6,
        ),
        CheckResult("shift_kernel_closed_form", kernel_err, identity_tol),
        CheckResult("carleson_embedding_factor4", _check_cet_factor(grid, rng), 1e-10),
        CheckResult("cm_sandwich", _check_cm_sandwich(law_grid, rng), 1e-8),
        CheckResult("p00_norm_law", _check_p00_norm_law(law_grid, rng), 1e-6),
        CheckResult("p11_cm_bound", _check_p11_bound(law_grid, rng), 1e-8),
    ]
    return results
