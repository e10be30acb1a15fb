"""Norm engine: the exact path and Lanczos against the dense oracle and
numpy's SVD."""

import math
import tracemalloc

import numpy as np
import pytest

from haarshift import (
    Grid,
    HaarShift,
    LeafFunction,
    Multiplier,
    Paraproduct,
    conjugated_shift,
    dense_norm,
    exact_norm,
    lanczos_top,
    make_weight,
    materialize,
    operator_norm,
    resolution_pieces,
    s_pi_sharp_ratio,
    WeightSpec,
)
from haarshift.operators import Q_LABELS, SHIFT_KINDS, Composition
from oracles import OpaqueOperator


class _ZeroOperator:
    label = "zero"
    annihilates_constants = True

    def __init__(self, grid):
        self.grid = grid

    def apply(self, f):
        # zeros of the input's shape: operators map a block to a block
        return LeafFunction(self.grid, np.zeros(f.shape))

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


def test_lanczos_agrees_with_dense_on_random_compositions():
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


def test_top_ritz_values_monotone():
    # Cauchy interlacing: the top Ritz value of each larger Krylov space is
    # at least the last one, and none exceeds the top eigenvalue
    grid = Grid(6)
    rng = np.random.default_rng(5)
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    mat = materialize(op)
    history = []
    x0 = rng.uniform(-1, 1, grid.leaf_count)
    lanczos_top(lambda x: mat.T @ (mat @ x), x0, 1e-12, 2000, history=history)
    assert len(history) > 5
    diffs = np.diff(np.array(history))
    assert diffs.min() >= -1e-14 * max(history)
    top = float(np.linalg.eigvalsh(mat.T @ mat)[-1])
    assert max(history) <= top * (1 + 1e-14)


def test_top_ritz_value_takes_few_pivot_sweeps_per_step(monkeypatch):
    # the Newton step from the first point above the top Ritz value closes
    # the bracket, and a pole model jumps the early steps to within
    # rounding; counted on the depth-14 contrast operators
    from haarshift import norms

    sweep_points = []
    pivots = norms._pivots

    def counting_pivots(*args):
        sweep_points.append(args[-1])
        return pivots(*args)

    monkeypatch.setattr(norms, "_pivots", counting_pivots)
    grid = Grid(14)
    steps = 0
    for eps in (0.15, 0.75):
        w = make_weight(WeightSpec("cascade", eps=eps, seed=5), grid)
        for shift in ("half", "full"):
            ops = resolution_pieces(w, shift)
            ops["M_conj"] = conjugated_shift(w, shift)
            for op in ops.values():
                if exact_norm(op) is None:
                    result = operator_norm(op)
                    assert result.converged
                    steps += result.iterations
    assert steps > 100
    assert len(sweep_points) <= 3 * steps


def test_top_ritz_values_within_ulps_of_lapack_on_hard_tridiagonals():
    # random, tiny-coupling, clustered and wide-range tridiagonals, fed the
    # last component from the engine's own inverse iteration, which loses
    # its accuracy once that component falls below rounding: the bracket
    # must not rest on it
    from haarshift import norms

    rng = np.random.default_rng(0)
    for trial in range(400):
        k = int(rng.integers(2, 40))
        kind = trial % 4
        if kind == 0:
            a, b = rng.uniform(0, 1, k), rng.uniform(0, 1, k - 1)
        elif kind == 1:
            a, b = rng.uniform(0, 1, k), 10.0 ** rng.uniform(-18, 0, k - 1)
        elif kind == 2:
            a = 1.0 + rng.normal(0, 1e-12, k)
            b = 10.0 ** rng.uniform(-10, -3, k - 1)
        else:
            a, b = 10.0 ** rng.uniform(-8, 3, k), 10.0 ** rng.uniform(-8, 2, k - 1)
        alphas, betas = [float(a[0])], []
        theta, s = alphas[0], 1.0
        for j in range(1, k):
            alphas.append(float(a[j]))
            betas.append(float(b[j - 1]))
            theta, pivots = norms._top_eigenvalue(alphas, betas, theta, s)
            s = norms._last_component(betas, pivots)
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            top = float(np.linalg.eigvalsh(tri)[-1])
            assert abs(theta - top) <= 64 * math.ulp(top), (trial, j)


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


def test_lanczos_rejects_non_finite_tol():
    op = _IdentityOperator(Grid(4))
    w = make_weight(WeightSpec("cascade", eps=0.4, seed=2), Grid(4))
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            operator_norm(op, tol=tol)
        with pytest.raises(ValueError):
            s_pi_sharp_ratio(w, tol=tol)


def test_lanczos_rejects_non_finite_coefficients():
    # a matvec that overflows, or a zero start vector, must raise rather
    # than hand the tridiagonal solver a NaN
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            lanczos_top(lambda x: x * np.inf, np.ones(4), 1e-9, 10)
        with pytest.raises(ValueError):
            lanczos_top(lambda x: x, np.zeros(4), 1e-9, 10)


def test_nonconvergence_flagged():
    grid = Grid(6)
    rng = np.random.default_rng(7)
    # a residual bound of 1e-15 is out of reach in two Lanczos steps; the
    # result must be flagged, not raised
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    result = operator_norm(op, tol=1e-15, max_iter=2)
    assert not result.converged
    assert result.iterations == 2


# -- the exact path -----------------------------------------------------------


def test_exact_norm_of_00_placements_matches_lapack():
    grid = Grid(6)
    rng = np.random.default_rng(9)
    for shift in SHIFT_KINDS:
        for _ in range(3):
            op = Paraproduct(
                grid, rng.normal(size=grid.haar_size), "00", shift=shift,
                outer=rng.normal(size=grid.haar_size),
            )
            assert exact_norm(op) == pytest.approx(dense_norm(op), rel=1e-13)
    expected = {"identity": 1.0, "half": 1.0, "full": math.sqrt(2.0)}
    for shift, value in expected.items():
        shift_op = HaarShift(grid, shift)
        assert exact_norm(shift_op) == value
        assert dense_norm(shift_op) == pytest.approx(value, rel=1e-13)


def test_exact_norm_mean_cross_is_zero():
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=3), Grid(6))
    for shift in SHIFT_KINDS:
        cross = resolution_pieces(w, shift)["mean_cross"]
        assert exact_norm(cross) == 0.0
        assert not materialize(cross).any()


def test_exact_norm_declines_other_structure():
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=3), Grid(6))
    for shift in SHIFT_KINDS:
        pieces = resolution_pieces(w, shift)
        for label in Q_LABELS:
            if label != "Q_00_00":
                assert exact_norm(pieces[label]) is None, (shift, label)
        assert exact_norm(conjugated_shift(w, shift)) is None
        assert exact_norm(OpaqueOperator(pieces["Q_00_00"])) is None
        assert exact_norm(OpaqueOperator(pieces["mean_cross"])) is None


# -- rows against LAPACK and the residual bound --------------------------------


@pytest.mark.parametrize("depth", [6, 8, 10])
def test_rows_match_lapack_within_their_bound(monkeypatch, depth):
    from haarshift import cli

    results = {}

    def recording_norm(op, **kwargs):
        results[op.label] = operator_norm(op, **kwargs)
        return results[op.label]

    monkeypatch.setattr(cli, "operator_norm", recording_norm)
    grid = Grid(depth)
    for spec in (WeightSpec("cascade", eps=0.6, seed=5), WeightSpec("power", alpha=0.5)):
        w = make_weight(spec, grid)
        param = getattr(spec, cli.SWEEP_PARAM[spec.family])
        for shift in SHIFT_KINDS:
            results.clear()
            rows, warnings = cli.compute_norm_rows(
                spec.family, param, spec, depth, shift, 1e-9, 1
            )
            assert warnings == []
            ops = resolution_pieces(w, shift)
            ops["M_conj"] = conjugated_shift(w, shift)
            assert set(results) == set(cli.TERM_ORDER) - {"Q_00_00", "mean_cross"}
            for row in rows:
                dense = dense_norm(ops[row.term])
                assert row.norm == pytest.approx(dense, rel=1e-9, abs=1e-300), row
                if row.term in results:
                    # Bauer-Fike: the top eigenvalue of T*T lies within the
                    # Ritz residual bound of theta = value^2
                    value_sq = row.norm**2
                    residual = results[row.term].residual
                    assert dense**2 <= value_sq * (1 + residual) + 1e-13 * value_sq, row


def test_memory_holds_no_krylov_basis():
    # three Lanczos vectors plus one matvec's temporaries: a stored basis of
    # the 20-odd steps this takes would exceed the budget
    grid = Grid(14)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=5), grid)
    op = resolution_pieces(w, "half")["Q_10_01"]
    operator_norm(op, max_iter=2)  # warm the grid's lazy caches
    tracemalloc.start()
    try:
        result = operator_norm(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations > 16
    assert peak <= 16 * grid.leaf_count * 8
