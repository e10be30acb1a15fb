"""Norm engine: power iteration against the dense oracle and numpy's SVD."""

import numpy as np
import pytest

from haarshift import (
    Grid,
    HaarShift,
    LeafFunction,
    Multiplier,
    Paraproduct,
    dense_norm,
    make_weight,
    materialize,
    operator_norm,
    power_iteration,
    resolution_pieces,
    WeightSpec,
)
from haarshift.operators import Composition


class _ZeroOperator:
    label = "zero"
    annihilates_constants = True

    def __init__(self, grid):
        self.grid = grid

    def apply(self, f):
        return LeafFunction.constant(self.grid, 0.0)

    adjoint_apply = apply


class _IdentityOperator:
    label = "identity"
    annihilates_constants = False

    def __init__(self, grid):
        self.grid = grid

    def apply(self, f):
        return f

    adjoint_apply = apply


def test_identity_norm_is_one():
    result = operator_norm(_IdentityOperator(Grid(6)))
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-9)


def test_zero_operator():
    result = operator_norm(_ZeroOperator(Grid(5)))
    assert result.converged
    assert result.value == 0.0
    assert dense_norm(_ZeroOperator(Grid(5))) == 0.0


def test_p00_norm_equals_symbol_sup():
    grid = Grid(6)
    rng = np.random.default_rng(0)
    symbol = rng.normal(size=grid.haar_size)
    result = operator_norm(Paraproduct(grid, symbol, "00"))
    assert result.value == pytest.approx(np.abs(symbol).max(), rel=1e-6)


def test_multiplier_dense_norm():
    grid = Grid(5)
    rng = np.random.default_rng(1)
    b = LeafFunction(grid, rng.uniform(-2.0, 2.0, grid.leaf_count))
    assert dense_norm(Multiplier(grid, b)) == pytest.approx(
        np.abs(b.values).max(), rel=1e-10
    )


def test_half_shift_dense_norm_is_one():
    assert dense_norm(HaarShift(Grid(6), "half")) == pytest.approx(1.0, rel=1e-9)


def test_power_iteration_agrees_with_dense_on_random_compositions():
    grid = Grid(6)
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(30):
        kinds = rng.choice(["01", "10", "00", "11"], size=2)
        ops = [
            Paraproduct(grid, rng.normal(size=grid.haar_size), str(k)) for k in kinds
        ]
        op = Composition([ops[0], HaarShift(grid, "half"), ops[1]])
        dn = dense_norm(op)
        on = operator_norm(op, tol=1e-9).value
        if dn > 1e-12:
            worst = max(worst, abs(on - dn) / dn)
    assert worst < 1e-6


def test_dense_norm_matches_svd():
    # independent LAPACK route for the oracle itself
    grid = Grid(6)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=3), grid)
    for label in ("Q_01_01", "Q_10_10", "Q_00_00"):
        op = resolution_pieces(w, "half")[label]
        mat = materialize(op)
        svd_norm = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert dense_norm(op) == pytest.approx(svd_norm, rel=1e-9)
        assert operator_norm(op).value == pytest.approx(svd_norm, rel=1e-6)


def test_norm_result_deterministic():
    grid = Grid(6)
    rng = np.random.default_rng(4)
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    first = operator_norm(op, tol=1e-9, max_iter=500, seed=11)
    second = operator_norm(op, tol=1e-9, max_iter=500, seed=11)
    assert first == second
    third = operator_norm(op, tol=1e-9, max_iter=500, seed=12)
    assert third.value == pytest.approx(first.value, rel=1e-7)


def test_rayleigh_quotients_monotone():
    grid = Grid(6)
    rng = np.random.default_rng(5)
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    mat = materialize(op)
    history = []
    x0 = rng.uniform(-1, 1, grid.leaf_count)
    power_iteration(lambda x: mat.T @ (mat @ x), x0, 1e-12, 2000, history=history)
    diffs = np.diff(np.array(history))
    assert diffs.min() >= -1e-14 * max(history)


def test_estimate_below_true_norm():
    # a loosely converged estimate never exceeds the dense value
    grid = Grid(6)
    rng = np.random.default_rng(6)
    for _ in range(10):
        op = Paraproduct(grid, rng.normal(size=grid.haar_size), "10")
        loose = operator_norm(op, tol=1e-4, max_iter=50).value
        assert loose <= dense_norm(op) * (1 + 1e-12)


def test_dense_norm_exact_on_near_tied_top_singular_values():
    # P00 is diagonal in the Haar basis, so its norm is max|symbol|; a 1e-5
    # gap between the two largest entries must not bias the oracle
    grid = Grid(6)
    rng = np.random.default_rng(8)
    symbol = rng.uniform(-0.5, 0.5, grid.haar_size)
    symbol[5], symbol[40] = 1.0, 1.0 - 1e-5
    got = dense_norm(Paraproduct(grid, symbol, "00"))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_dense_norm_depth_cap():
    with pytest.raises(ValueError):
        dense_norm(_IdentityOperator(Grid(11)))


def test_invalid_parameters():
    op = _IdentityOperator(Grid(4))
    with pytest.raises(ValueError):
        operator_norm(op, tol=0.0)
    with pytest.raises(ValueError):
        operator_norm(op, max_iter=0)


def test_power_iteration_rejects_non_finite_tol():
    x0 = np.ones(4)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            power_iteration(lambda x: x, x0, tol, 10)


def test_nonconvergence_flagged():
    grid = Grid(6)
    rng = np.random.default_rng(7)
    # two equal top singular values make the Rayleigh quotient crawl; with a
    # one-iteration budget the result must be flagged, not raised
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    result = operator_norm(op, tol=1e-15, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
