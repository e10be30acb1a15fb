"""Norm engine: the exact path and Lanczos against the dense oracle and
numpy's SVD."""

import gc
import math
import tracemalloc
import weakref

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
    Weight,
    WeightSpec,
    a2_characteristic,
    count_operations,
)
from haarshift import estimates, norms
from haarshift.operators import Q_LABELS, SHIFT_KINDS, Composition
from haarshift.verify import _operator_zoo
from oracles import OpaqueOperator, RecordingOperator, leaf_coordinate_norm


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


def _record_ritz_values(monkeypatch) -> list:
    """The list that the top Ritz value of every solve of T_k is appended to."""
    history = []
    top_ritz_pair = norms._top_ritz_pair

    def recording_top_ritz_pair(alphas, betas):
        theta, s = top_ritz_pair(alphas, betas)
        history.append(theta)
        return theta, s

    monkeypatch.setattr(norms, "_top_ritz_pair", recording_top_ritz_pair)
    return history


def test_top_ritz_values_monotone(monkeypatch):
    # Cauchy interlacing: the top Ritz value of each larger Krylov space is
    # at least the last one, and none exceeds the top eigenvalue
    grid = Grid(6)
    rng = np.random.default_rng(5)
    op = Paraproduct(grid, rng.normal(size=grid.haar_size), "01")
    mat = materialize(op)
    history = _record_ritz_values(monkeypatch)
    x0 = rng.uniform(-1, 1, grid.leaf_count)
    lanczos_top(lambda x, out: np.copyto(out, mat.T @ (mat @ x)), x0, 1e-12, 2000)
    assert len(history) > 5
    diffs = np.diff(np.array(history))
    assert diffs.min() >= -1e-14 * max(history)
    top = float(np.linalg.eigvalsh(mat.T @ mat)[-1])
    assert max(history) <= top * (1 + 1e-14)


def test_top_ritz_values_within_ulps_of_lapack_on_hard_tridiagonals(monkeypatch):
    # Lanczos on T^T T for random, tiny-coupling, clustered and wide-range
    # tridiagonals T: no Ritz value exceeds the top eigenvalue by more than
    # rounding, and a converged run's residual bound holds an eigenvalue
    # (Paige 1980)
    rng = np.random.default_rng(0)
    history = _record_ritz_values(monkeypatch)
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
        tri = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        mat = tri.T @ tri
        eigs = np.linalg.eigvalsh(mat)
        top = float(eigs[-1])
        history.clear()
        x0 = rng.uniform(-1, 1, k)
        theta, _, residual, converged = lanczos_top(
            lambda x, out: np.copyto(out, mat @ x), x0, 1e-12, 4 * k
        )
        slack = 64 * math.ulp(top)
        assert max(history) <= top + slack, trial
        assert converged, trial
        assert np.abs(eigs - theta).min() <= residual * theta + slack, trial


def test_ritz_solves_are_bounded_on_a_run_that_cannot_converge(monkeypatch):
    # every step solves T_k up to k = 128, then eight solves per doubling of
    # k, and the last step solves: 152 solves in 1024 steps, not 1024
    from haarshift import norms

    sizes = []
    top_ritz_pair = norms._top_ritz_pair

    def counting_top_ritz_pair(alphas, betas):
        sizes.append(len(alphas))
        return top_ritz_pair(alphas, betas)

    monkeypatch.setattr(norms, "_top_ritz_pair", counting_top_ritz_pair)
    # a spectrum with a relative top gap of 1e-5 keeps the residual far
    # above the tolerance at the step cap
    spectrum = np.linspace(0.0, 1.0, 100_000)
    x0 = np.random.default_rng(3).uniform(-1, 1, len(spectrum))
    theta, steps, residual, converged = lanczos_top(
        lambda x, out: np.multiply(spectrum, x, out=out), x0, 1e-9, norms.DEFAULT_MAX_ITER
    )
    assert not converged and residual > 1e-9
    assert steps == norms.DEFAULT_MAX_ITER == 1024
    assert sizes[:128] == list(range(1, 129))
    for lo in (128, 256, 512):
        assert sum(lo < k <= 2 * lo for k in sizes) == 8, lo
    assert len(sizes) == 152 and sizes[-1] == 1024


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


def test_lanczos_rejects_tol_below_machine_epsilon():
    # no bound computed in double precision can meet such a tolerance
    eps = np.finfo(float).eps
    op = _IdentityOperator(Grid(4))
    w = make_weight(WeightSpec("cascade", eps=0.4, seed=2), Grid(4))
    for tol in (1e-17, eps / 2):
        with pytest.raises(ValueError, match="machine epsilon"):
            operator_norm(op, tol=tol)
        with pytest.raises(ValueError, match="machine epsilon"):
            s_pi_sharp_ratio(w, tol=tol)
    assert operator_norm(op, tol=eps).converged


def test_lanczos_rejects_non_finite_coefficients():
    # a matvec that overflows, or a zero start vector, must raise rather
    # than hand the tridiagonal solver a NaN
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            lanczos_top(lambda x, out: np.multiply(x, np.inf, out=out), np.ones(4), 1e-9, 10)
        with pytest.raises(ValueError):
            lanczos_top(lambda x, out: np.copyto(out, x), np.zeros(4), 1e-9, 10)


def test_engine_norm_scales_with_a_tiny_operator():
    grid = Grid(4)
    sym = np.random.default_rng(1).normal(size=grid.haar_size)
    base = operator_norm(Paraproduct(grid, sym, "01")).value
    tiny = operator_norm(Paraproduct(grid, sym * 1e-100, "01")).value
    assert tiny / 1e-100 == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-60, 1e-80, 1e-140, 1e-160, 2.0**-1000])
@pytest.mark.parametrize("kind", ["01", "10", "11"])
def test_norms_scale_below_the_range_of_exact_squares(kind, scale):
    # T*T and M^T M square the scale of T: from a norm of about 1e-73 down
    # their squares leave the range where they keep full precision, and
    # from about 1e-154 down so does the top eigenvalue of T*T itself
    grid = Grid(4)
    sym = np.random.default_rng(1).normal(size=grid.haar_size)
    op, tiny_op = Paraproduct(grid, sym, kind), Paraproduct(grid, sym * scale, kind)
    tiny = operator_norm(tiny_op)
    assert tiny.converged
    assert tiny.value / scale == pytest.approx(operator_norm(op).value, rel=1e-12)
    assert dense_norm(tiny_op) / scale == pytest.approx(dense_norm(op), rel=1e-12)


@pytest.mark.parametrize("depth", [4, 8])
@pytest.mark.parametrize("kind", ["01", "10", "11"])
def test_tiny_operator_takes_one_step_more_than_at_unit_scale(kind, depth):
    # from a norm of about 1e-154 down the residuals of T*T are subnormal
    # from the first step: that run stops there, and the rerun on
    # 2**h T 2**h takes the unit-scale operator's steps
    grid = Grid(depth)
    sym = np.random.default_rng(1).normal(size=grid.haar_size)
    unscaled = operator_norm(Paraproduct(grid, sym, kind)).iterations
    for scale in (1e-158, 1e-160, 2.0**-1000):
        tiny = operator_norm(Paraproduct(grid, sym * scale, kind))
        assert tiny.converged and tiny.iterations == unscaled + 1, scale


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
        for shift in SHIFT_KINDS:
            results.clear()
            rows, warnings = cli.compute_norm_rows(spec, depth, shift, 1e-9, 1)
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


def test_conjugation_steps_allocate_only_what_they_return():
    # M_conj iterates on leaf values: each matvec adopts the engine's vector
    # and the multipliers' products instead of copying them, so the traced
    # peak stays at seven leaf arrays (eight when the births copy)
    grid = Grid(14)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=5), grid)
    op = conjugated_shift(w, "half")
    operator_norm(op, max_iter=2)  # warm the grid's lazy caches
    tracemalloc.start()
    try:
        result = operator_norm(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations > 16
    assert peak <= 7.5 * grid.leaf_count * 8


# the tracemalloc peaks of these runs when every step allocated its arrays
# (the parent commit), in leaf vectors, rounded up
_PARENT_PEAK_LEAF_VECTORS = {"Q_01_01": 7.58, "Q_10_10": 7.09, "M_conj": 7.31}


def _traced_peak_run(op):
    tracemalloc.start()
    try:
        return operator_norm(op), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("label", sorted(_PARENT_PEAK_LEAF_VECTORS))
def test_lanczos_steps_after_the_first_allocate_no_leaf_array(monkeypatch, label):
    # the workspace and the three Lanczos vectors are made once per run:
    # between two Ritz solves (one step) the traced memory never rises by a
    # leaf array, and the run peaks no higher than when each step allocated
    grid = Grid(12)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=5), grid)
    ops = resolution_pieces(w, "half")
    ops["M_conj"] = conjugated_shift(w, "half")
    op = ops[label]
    operator_norm(op, max_iter=2)  # warm the grid's lazy caches
    leaf_bytes = grid.leaf_count * 8
    rises, after_solve = [], []
    solve = norms._top_ritz_pair

    def traced_solve(alphas, betas):
        current, peak = tracemalloc.get_traced_memory()
        if after_solve:
            rises.append(peak - after_solve[-1])
        result = solve(alphas, betas)
        tracemalloc.reset_peak()
        after_solve.append(tracemalloc.get_traced_memory()[0])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(norms, "_top_ritz_pair", traced_solve)
        result, _ = _traced_peak_run(op)
    assert result.converged and len(rises) == result.iterations - 1 > 8
    assert max(rises) < leaf_bytes, rises
    _, run_peak = _traced_peak_run(op)
    assert run_peak <= _PARENT_PEAK_LEAF_VECTORS[label] * leaf_bytes


def test_public_birth_copies_its_values():
    grid = Grid(4)
    x = np.arange(grid.leaf_count, dtype=float)
    f = LeafFunction(grid, x)
    x[:] = -1.0
    assert np.array_equal(f.values, np.arange(grid.leaf_count))
    assert not np.shares_memory(f.values, x)


@pytest.mark.parametrize("label", ["M_conj", "Q_01_10"])
def test_engine_matvec_adopts_its_lanczos_vector(monkeypatch, label):
    # the operator receives a read-only view of the engine's own vector,
    # leaf values for M_conj and Haar coefficients for Q_01_10, not a copy
    grid = Grid(6)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=5), grid)
    ops = resolution_pieces(w, "half")
    ops["M_conj"] = conjugated_shift(w, "half")
    op = RecordingOperator(ops[label])
    matvecs = []

    def capture(matvec, x0, tol, max_iter):
        matvecs.append(matvec)
        return 1.0, 1, 0.0, True

    monkeypatch.setattr(norms, "lanczos_top", capture)
    operator_norm(op)
    size = grid.haar_size if op.annihilates_constants else grid.leaf_count
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size)
    matvecs[0](x, np.empty_like(x))
    f = op.seen[0][0]
    data = f.symbol.coeff if op.annihilates_constants else f.values
    assert np.shares_memory(data, x) and np.array_equal(data, x)
    assert not data.flags.writeable and x.flags.writeable


class _Tracked(np.ndarray):
    """Keeps every array numpy makes of this type, such as the product of a
    tracked factor, so a test can see where that product went."""

    made: list = []

    def __array_finalize__(self, obj):
        _Tracked.made.append(self)


def test_multiplier_adopts_its_product():
    grid = Grid(6)
    rng = np.random.default_rng(7)
    b = LeafFunction._adopt(grid, rng.uniform(1.0, 2.0, grid.leaf_count).view(_Tracked))
    op = RecordingOperator(Multiplier(grid, b))
    f = LeafFunction(grid, rng.uniform(-1.0, 1.0, grid.leaf_count))
    _Tracked.made.clear()
    out = op.apply(f)
    assert out is op.seen[0][1]
    assert any(np.shares_memory(out.values, a) for a in _Tracked.made)
    assert not out.values.flags.writeable
    assert np.array_equal(out.values, b.values * f.values)


def test_disjoint_block_hands_its_shift_the_atoms_it_computed():
    # x = vhat u keeps u's array type, so atoms of that type reached the
    # shift without a copy (a copying birth would hand it a plain ndarray)
    grid = Grid(6)
    w = make_weight(WeightSpec("cascade", eps=0.45, seed=5), grid)
    block = estimates._DisjointBlock(w)
    block.shift = RecordingOperator(block.shift)
    coeff = np.random.default_rng(8).normal(size=grid.haar_size)
    f = LeafFunction._adopt(grid, coeff.view(_Tracked), 0.0)
    block.apply(f)
    block.adjoint_apply(f)
    assert len(block.shift.seen) == 2
    for shifted_input, _ in block.shift.seen:
        assert type(shifted_input._atoms) is _Tracked
        assert not shifted_input._atoms.flags.writeable


# -- Lanczos on Haar coefficients for mean-free terms --------------------------

# the terms whose right factor reads Haar coefficients and that have no
# exact norm: their T*T lives on span{h_I}
HAAR_COORDINATE_TERMS = ("Q_01_10", "Q_10_10", "Q_00_10", "Q_01_00", "Q_10_00")


@pytest.mark.parametrize("depth", [8, 10])
def test_haar_coordinate_lanczos_matches_leaf_coordinates(depth):
    # same Krylov space in other orthonormal coordinates: same steps, and
    # values apart only by rounding
    grid = Grid(depth)
    for spec in (WeightSpec("cascade", eps=0.6, seed=5), WeightSpec("power", alpha=0.5)):
        w = make_weight(spec, grid)
        for shift in SHIFT_KINDS:
            ops = resolution_pieces(w, shift)
            for label in HAAR_COORDINATE_TERMS:
                op = ops[label]
                assert op.annihilates_constants and exact_norm(op) is None, label
                haar, leaf = operator_norm(op), leaf_coordinate_norm(op)
                assert haar.converged and leaf.converged, (spec, shift, label)
                assert haar.iterations == leaf.iterations, (spec, shift, label)
                assert haar.value == pytest.approx(leaf.value, rel=1e-14, abs=0.0), (
                    spec, shift, label,
                )


@pytest.mark.parametrize("shift", SHIFT_KINDS)
def test_engine_cost_per_step_pinned(shift):
    # sweep work per Lanczos step, start vector included, for the eight Q
    # terms Lanczos runs (Q_00_00's norm is exact).  The Haar-coordinate
    # terms pay no sweep to leaf values and back; the averages a
    # paraproduct reads stop one level above the leaves, and an atoms-born
    # function's coefficients skip the finest Haar level.  M_conj reads leaf
    # values, so each step pays two full analyses (4 leaf_count - 3) and two
    # full syntheses (3 leaf_count - 3), exactly
    grid = Grid(10)
    w = make_weight(WeightSpec("cascade", eps=0.6, seed=5), grid)
    ops = resolution_pieces(w, shift)
    caps = {
        "Q_01_00": 4, "Q_10_00": 4, "Q_00_10": 4, "Q_00_01": 5,
        "Q_01_10": 8, "Q_10_10": 8, "Q_01_01": 9, "Q_10_01": 9,
    }
    for label, cap in caps.items():
        with count_operations() as tally:
            result = operator_norm(ops[label])
        assert result.converged, label
        assert tally.total <= cap * grid.leaf_count * result.iterations, label
    with count_operations() as tally:
        result = operator_norm(conjugated_shift(w, shift))
    assert result.converged
    assert tally.total == (14 * grid.leaf_count - 12) * result.iterations


@pytest.mark.parametrize("shift", SHIFT_KINDS)
def test_refined_weight_keeps_its_norms(shift):
    # a depth-4 weight embedded in finer grids is the same function, so
    # every row and a2 agree from depth 5 on; the half and full shifts drop
    # the finest Haar level, which at depth 4 is the weight's own finest
    # level, so there the step from depth 4 to 5 moves some row
    coarse = make_weight(WeightSpec("cascade", eps=0.6, seed=5), Grid(4)).w.values

    def rows(depth):
        w = Weight.from_values(Grid(depth), np.repeat(coarse, 2 ** (depth - 4)))
        ops = resolution_pieces(w, shift)
        ops["M_conj"] = conjugated_shift(w, shift)
        found = {label: dense_norm(ops[label]) for label in Q_LABELS + ("M_conj",)}
        found["a2"] = a2_characteristic(w)
        return np.array(list(found.values()))

    by_depth = {depth: rows(depth) for depth in range(4, 9)}
    for depth in (6, 7, 8):
        np.testing.assert_allclose(by_depth[depth], by_depth[5], rtol=1e-14, atol=0)
    moved = np.max(np.abs(by_depth[4] - by_depth[5]) / by_depth[5])
    if shift == "identity":
        assert moved <= 1e-14
    else:
        assert moved > 1e-2


# --------------------------------------------------------------------------
# the leaf basis materialize shares across calls on one grid


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _fresh_matrix(op):
    grid = op.grid
    return op.apply(LeafFunction(grid, np.eye(grid.leaf_count))).values


@pytest.mark.parametrize("depth", [2, 4, 6])
def test_materialize_on_the_shared_basis_is_bit_identical(depth):
    # every operator of verify's zoo on one grid: the first few measure the
    # basis, the rest read what it cached
    grid = Grid(depth)
    for op in _operator_zoo(grid, np.random.default_rng(depth), 3):
        _assert_same_bits(materialize(op), _fresh_matrix(op))


@pytest.mark.parametrize("first", ["01", "10"])
def test_shared_basis_serves_either_reading_first(first):
    # "01" reads the basis's Haar-level averages, "10" its Haar symbol
    grid = Grid(5)
    sym = np.random.default_rng(4).normal(size=grid.haar_size)
    kinds = (first, "10" if first == "01" else "01")
    for kind in kinds + kinds:
        op = Paraproduct(grid, sym, kind)
        _assert_same_bits(materialize(op), _fresh_matrix(op))


def test_second_materialize_reuses_the_measured_basis():
    # the first call sweeps the basis to its Haar-level averages (12,160
    # operations) and the emitted Haar coefficients to leaf values (12,096);
    # the second pays only for the emitted coefficients
    grid = Grid(6)
    op = Paraproduct(grid, np.random.default_rng(5).normal(size=grid.haar_size), "01")
    counts = []
    for _ in range(2):
        with count_operations() as tally:
            materialize(op)
        counts.append(tally.total)
    assert counts == [24256, 12096]


def test_shared_basis_is_freed_with_its_grid():
    # reference counting alone frees the grid and its basis: a basis that
    # held the grid would form a cycle only the collector can break
    gc.disable()
    try:
        grid = Grid(6)
        op = Paraproduct(grid, np.ones(grid.haar_size), "11")
        mat = materialize(op)
        refs = weakref.ref(grid), weakref.ref(grid.leaf_basis)
        del grid, op, mat
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
