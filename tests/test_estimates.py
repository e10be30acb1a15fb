"""Square functions, Carleson machinery, corona decomposition, the
inequality battery, and the disjoint-support kernel block."""

import math

import numpy as np
import pytest

from haarshift import (
    BATTERY_ROW_LABELS,
    ConvergenceError,
    DyadicIndex,
    Grid,
    HaarShift,
    HaarSymbol,
    LeafFunction,
    Weight,
    WeightSpec,
    a2_characteristic,
    averages,
    averaging_function,
    carleson_embedding_constant,
    cm_norm,
    corona,
    corona_members,
    corona_sum,
    count_operations,
    disjoint_block_norm,
    ell_inf_norm,
    haar_function,
    inequality_battery,
    make_weight,
    materialize,
    s_pi,
    s_pi_sharp_ratio,
    square_function,
    subtree_sums,
    weighted_square_norm_sq,
)
from haarshift import estimates
from haarshift.norms import operator_norm
from oracles import (
    ancestor_sums_walk,
    corona_by_scan,
    corona_members_by_walk,
    disjoint_block_matrix,
)


def _rand(grid, rng):
    return LeafFunction(grid, rng.uniform(-1.0, 1.0, grid.leaf_count))


def _cascade(grid, eps=0.4, seed=0):
    return make_weight(WeightSpec("cascade", eps=eps, seed=seed), grid)


# -- square functions ----------------------------------------------------------


def test_square_function_isometry_on_mean_zero():
    grid = Grid(8)
    rng = np.random.default_rng(0)
    f = _rand(grid, rng)
    f = LeafFunction(grid, f.values - f.mean())
    assert square_function(f).norm() == pytest.approx(f.norm(), rel=1e-12)


def test_square_function_brute_force():
    grid = Grid(5)
    rng = np.random.default_rng(1)
    f = _rand(grid, rng)
    s = f.symbol
    expected = np.zeros(grid.leaf_count)
    for idx in grid.haar_indices():
        start, stop = idx.leaf_range(grid.depth)
        expected[start:stop] += s[idx] ** 2 / idx.length
    assert np.abs(square_function(f).values - np.sqrt(expected)).max() < 1e-12


def test_weighted_square_norm_identity():
    grid = Grid(8)
    rng = np.random.default_rng(2)
    f = _rand(grid, rng)
    v = _cascade(grid, 0.4, 1)
    direct = float((square_function(f).values ** 2 * v.w.values).mean())
    assert weighted_square_norm_sq(f, v.w) == pytest.approx(direct, rel=1e-12)


def test_s_pi_root_atom_is_one_everywhere():
    # the root Haar atom spreads 1/|root| over pi(root) = root
    grid = Grid(4)
    out = s_pi(haar_function(grid, DyadicIndex(0, 0)))
    assert np.abs(out.values - 1.0).max() < 1e-13


def test_s_pi_spreads_to_parent():
    grid = Grid(4)
    k = DyadicIndex(2, 1)
    out = s_pi(haar_function(grid, k))
    start, stop = k.parent.leaf_range(grid.depth)
    inside = out.values[start:stop]
    assert np.abs(inside - 2.0 ** (k.level / 2)).max() < 1e-13
    outside = np.delete(out.values, np.arange(start, stop))
    assert np.abs(outside).max() == 0.0


def test_s_pi_not_dominated_by_square_function():
    # some Haar atom has s_pi mass strictly outside its own interval
    grid = Grid(4)
    found = False
    for k in grid.haar_indices():
        if k.level == 0:
            continue
        sq = square_function(haar_function(grid, k)).values
        sp = s_pi(haar_function(grid, k)).values
        outside = sp[(sq == 0.0)]
        if outside.size and np.abs(outside).max() > 0:
            found = True
    assert found


def test_sharp_ratio_flat_weight():
    grid = Grid(6)
    w = make_weight(WeightSpec("constant", c=2.0), grid)
    assert s_pi_sharp_ratio(w, tol=1e-10) == pytest.approx(1.0, abs=1e-8)


def test_sharp_ratio_matches_dense_eigen_oracle():
    from oracles import dense_sharp_ratio

    grid = Grid(6)
    w = _cascade(grid, 0.45, 7)
    dense = dense_sharp_ratio(w)
    iterative = s_pi_sharp_ratio(w, tol=1e-12)
    assert iterative == pytest.approx(dense, rel=1e-6)


def test_sharp_ratio_rejects_bad_tol():
    with pytest.raises(ValueError):
        s_pi_sharp_ratio(_cascade(Grid(4)), tol=0.0)


def test_sharp_ratio_raises_when_bound_not_met():
    with pytest.raises(ConvergenceError) as info:
        s_pi_sharp_ratio(_cascade(Grid(6), 0.45, 7), tol=1e-15, max_iter=2)
    assert info.value.estimate > 0 and info.value.residual > 1e-15


# -- sequence norms ------------------------------------------------------------


def test_norms_of_zero_symbol():
    grid = Grid(5)
    zero = HaarSymbol(grid, np.zeros(grid.haar_size), 0.0)
    assert ell_inf_norm(zero) == 0.0
    assert cm_norm(zero) == 0.0


def test_cm_norm_single_indicator():
    grid = Grid(5)
    for idx in (DyadicIndex(0, 0), DyadicIndex(2, 3), DyadicIndex(4, 11)):
        coeff = np.zeros(grid.haar_size)
        coeff[idx.flat_offset] = 1.0
        sym = HaarSymbol(grid, coeff, 0.0)
        assert cm_norm(sym) == pytest.approx(idx.length**-0.5, rel=1e-14)


def test_cm_norm_brute_force():
    grid = Grid(8)
    rng = np.random.default_rng(3)
    coeff = rng.normal(size=grid.haar_size)
    sym = HaarSymbol(grid, coeff, 0.0)
    best = 0.0
    for idx in grid.all_indices():
        total = sum(
            coeff[j.flat_offset] ** 2
            for j in grid.haar_indices()
            if idx.contains(j)
        )
        best = max(best, total / idx.length)
    assert cm_norm(sym) == pytest.approx(math.sqrt(best), rel=1e-12)


def test_carleson_constant_trivial_case():
    grid = Grid(4)
    v = make_weight(WeightSpec("constant", c=1.0), grid)
    alpha = np.zeros(grid.haar_size)
    alpha[0] = 1.0
    assert carleson_embedding_constant(alpha, v) == pytest.approx(1.0, abs=1e-14)


def test_carleson_constant_brute_force():
    grid = Grid(6)
    rng = np.random.default_rng(4)
    alpha = rng.uniform(0.0, 1.0, grid.haar_size)
    v = _cascade(grid, 0.5, 9)
    avg = v.w.averages
    best = 0.0
    for idx in grid.all_indices():
        total = sum(
            alpha[j.flat_offset] * avg[j] ** 2
            for j in grid.haar_indices()
            if idx.contains(j)
        )
        best = max(best, total / (avg[idx] * idx.length))
    assert carleson_embedding_constant(alpha, v) == pytest.approx(best, rel=1e-12)


def test_carleson_constant_rejects_negative_mass():
    grid = Grid(4)
    v = make_weight(WeightSpec("constant", c=1.0), grid)
    alpha = np.zeros(grid.haar_size)
    alpha[3] = -0.5
    with pytest.raises(ValueError):
        carleson_embedding_constant(alpha, v)
    with pytest.raises(ValueError, match="one entry per Haar-bearing"):
        carleson_embedding_constant(np.zeros(grid.leaf_count), v)


def test_embedding_factor_four():
    grid = Grid(6)
    rng = np.random.default_rng(5)
    for _ in range(100):
        alpha = rng.uniform(0.0, 1.0, grid.haar_size)
        v = Weight.from_values(grid, np.exp(rng.normal(0.0, 0.7, grid.leaf_count)))
        constant = carleson_embedding_constant(alpha, v)
        f = _rand(grid, rng)
        fv = LeafFunction(grid, f.values * v.w.values)
        # the constant bounds sum_J a_J <v>_J^2 <f>^v_J^2 = sum_J a_J <f v>_J^2,
        # not sum_J a_J <f>^v_J^2
        lhs = float(np.sum(alpha * averages(fv).haar_part ** 2))
        rhs = 4.0 * constant * float(f.values**2 @ v.w.values) / grid.leaf_count
        assert lhs <= rhs * (1 + 1e-12)


# -- corona ---------------------------------------------------------------------


def test_corona_flat_weight_single_generation():
    grid = Grid(6)
    w = make_weight(WeightSpec("constant", c=1.0), grid)
    decomp = corona(w, DyadicIndex(0, 0), 2.0)
    assert decomp.generations == ((DyadicIndex(0, 0),),)
    assert decomp.stopping_parent == {}


def test_corona_step_weight_left_chain():
    # concentrated mass: averages double along the leftmost chain
    grid = Grid(3)
    w = make_weight(WeightSpec("step", a=8.0, b=1.0, split=0.125), grid)
    decomp = corona(w, DyadicIndex(0, 0), 2.0)
    stops = decomp.stopping_intervals()
    assert DyadicIndex(0, 0) in stops
    # <w> on [0,1) = 15/8; [0,1/2) = 11/4; [0,1/4) = 9/2; [0,1/8) = 8
    assert DyadicIndex(2, 0) in stops  # 9/2 > 2 * 15/8
    assert DyadicIndex(3, 0) not in stops  # 8 < 2 * 9/2
    assert decomp.stopping_parent[DyadicIndex(2, 0)] == DyadicIndex(0, 0)


def test_corona_gamma_validation():
    for gamma in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            corona(_cascade(Grid(4)), DyadicIndex(0, 0), gamma)


def test_corona_contract_random_cascades():
    grid = Grid(10)
    gamma = 2.0
    for seed in range(8):
        w = _cascade(grid, 0.4, seed)
        decomp = corona(w, DyadicIndex(0, 0), gamma)
        avg = w.w.averages
        # generations nested in stopping parents, disjoint within a generation
        for gen_idx, generation in enumerate(decomp.generations):
            for a in generation:
                for b in generation:
                    if a != b:
                        assert not a.contains(b) and not b.contains(a)
                if gen_idx > 0:
                    parent = decomp.stopping_parent[a]
                    assert parent in decomp.generations[gen_idx - 1]
                    assert parent.strictly_contains(a)
                    assert avg[a] > gamma * avg[parent]
        # within a corona no average exceeds gamma times the stopping average
        for g in decomp.stopping_intervals():
            members = corona_members(decomp, g)
            assert avg.tree[members].max() <= gamma * avg[g] * (1 + 1e-12)
        # chains grow strictly super-geometrically
        for chain in decomp.chains():
            for parent, child in zip(chain, chain[1:]):
                assert avg[child] > gamma * avg[parent]


def test_corona_equals_recursive_scan():
    # the downward sweep against the recursive interval walk: generations
    # in order, stopping parents and every corona's member set
    specs = [WeightSpec("cascade", eps=eps, seed=seed)
             for eps in (0.2, 0.5, 0.8) for seed in (1, 2)]
    specs += [WeightSpec("power", alpha=a) for a in (-0.7, 0.5)]
    specs += [WeightSpec("step", a=8.0, b=1.0, split=0.125),
              WeightSpec("constant", c=2.0)]
    roots = (DyadicIndex(0, 0), DyadicIndex(1, 1), DyadicIndex(2, 1))
    cases = 0
    for depth in (3, 6, 8):
        grid = Grid(depth)
        for spec in specs:
            w = make_weight(spec, grid)
            for gamma in (1.1, 1.5, 2.0, 4.0):
                for root in roots:
                    decomp = corona(w, root, gamma)
                    generations, stopping_parent = corona_by_scan(w, root, gamma)
                    assert decomp.generations == generations
                    assert decomp.stopping_parent == stopping_parent
                    for g in decomp.stopping_intervals():
                        walk = corona_members_by_walk(stopping_parent, w, g)
                        members = corona_members(decomp, g)
                        assert members.tolist() == sorted(q.flat_offset for q in walk)
                    cases += 1
    assert cases == 3 * 10 * 4 * 3


def test_corona_members_rejects_non_stopping_interval():
    # (1,0) lies in the root's corona of a flat weight: it has no corona
    w = make_weight(WeightSpec("constant", c=1.0), Grid(4))
    decomp = corona(w, DyadicIndex(0, 0), 2.0)
    assert corona_members(decomp, DyadicIndex(0, 0)).size == 31
    for G in (DyadicIndex(1, 0), DyadicIndex(4, 3), DyadicIndex(5, 0)):
        with pytest.raises(ValueError, match="not a stopping interval"):
            corona_members(decomp, G)


def test_corona_dominates_nested_carleson_sum():
    grid = Grid(10)
    root = DyadicIndex(0, 0)
    for seed in range(8):
        w = _cascade(grid, 0.4, seed)
        decomp = corona(w, root, 2.0)
        lhs = float(
            np.sum(w.w_inv_half.symbol.coeff**2 * w.w.averages.haar_part**2)
        )
        assert lhs <= 2.0 * corona_sum(decomp, w)


# -- battery -------------------------------------------------------------------


def test_battery_flat_weight_all_zero():
    grid = Grid(6)
    w = make_weight(WeightSpec("constant", c=3.0), grid)
    report = inequality_battery(w)
    for row in report.rows:
        assert row.c_emp == 0.0
    with pytest.raises(KeyError):
        report["no_such_row"]


def test_battery_brute_force_row_maxima():
    grid = Grid(6)
    w = _cascade(grid, 0.45, 11)
    report = inequality_battery(w)

    inv_hat = w.w_inv.symbol
    inv_half_hat = w.w_inv_half.symbol
    w_hat = w.w.symbol
    avg_w, avg_inv, avg_half = (
        w.w.averages,
        w.w_inv.averages,
        w.w_half.averages,
    )

    def parent_avg(j):
        return avg_w[j.parent] if j.level >= 1 else avg_w[j]

    def quantities(j):
        out = {
            "a": inv_half_hat[j] ** 2 * avg_w[j],
            "b": inv_half_hat[j] ** 2 * avg_half[j] ** 2,
            "c": inv_half_hat[j] ** 2 * parent_avg(j),
            "d": inv_hat[j] ** 2 / avg_inv[j] ** 2,
            "e": inv_hat[j] ** 2 / avg_inv[j],
            "f": inv_hat[j] ** 2 / avg_inv[j] ** 3,
            "i": inv_half_hat[j] ** 2 * avg_w[j] ** 2,
        }
        if j.level <= grid.depth - 2:
            cross = abs(inv_hat[j] * w_hat[j.left])
        else:
            cross = 0.0
        out["g"] = cross
        out["h"] = cross / avg_inv[j]
        return out

    def normalizer(label, idx):
        if label in ("a", "b", "c", "d", "g"):
            return idx.length
        if label == "e":
            return avg_inv[idx] * idx.length
        return avg_w[idx] * idx.length  # f, h, i

    for label in BATTERY_ROW_LABELS:
        best = 0.0
        for outer in grid.all_indices():
            total = sum(
                quantities(j)[label]
                for j in grid.haar_indices()
                if outer.contains(j)
            )
            best = max(best, total / normalizer(label, outer))
        assert report[label].c_emp == pytest.approx(best, rel=1e-11), label


def test_battery_attaining_interval_recomputes():
    grid = Grid(8)
    w = _cascade(grid, 0.5, 13)
    report = inequality_battery(w)
    for row in report.rows:
        assert row.c_emp >= 0.0
        assert row.normalizer_value > 0.0
        # the reported interval reproduces the reported ratio
        q = {
            "a": w.w_inv_half.symbol.coeff**2 * w.w.averages.haar_part,
            "i": w.w_inv_half.symbol.coeff**2 * w.w.averages.haar_part**2,
        }
        if row.label in q:
            sums = subtree_sums(grid, q[row.label])
            assert sums[
                row.attaining.flat_offset
            ] / row.normalizer_value == pytest.approx(row.c_emp, rel=1e-12)


def test_battery_report_format():
    grid = Grid(4)
    w = _cascade(grid, 0.3, 2)
    text = inequality_battery(w).format()
    lines = text.splitlines()
    assert lines[0].startswith("row_label")
    assert len(lines) == 10
    assert [line.split()[0] for line in lines[1:]] == list(BATTERY_ROW_LABELS)


# -- disjoint block -------------------------------------------------------------


def test_disjoint_block_flat_weight_vanishes():
    grid = Grid(5)
    w = make_weight(WeightSpec("constant", c=1.0), grid)
    assert disjoint_block_norm(w) == pytest.approx(0.0, abs=1e-13)


def test_disjoint_block_matrix_matches_entrywise_kernel():
    grid = Grid(6)
    w = make_weight(WeightSpec("power", alpha=0.5), grid)
    mat = disjoint_block_matrix(w)
    hat_half = w.w_half.symbol
    hat_inv = w.w_inv_half.symbol
    shift = materialize(HaarShift(grid, "half"))
    indices = list(grid.haar_indices())
    for l_pos, l_idx in enumerate(indices[:20]):
        for j_pos, j_idx in enumerate(indices[:20]):
            if l_idx.contains(j_idx) or j_idx.contains(l_idx):
                expected = 0.0
            else:
                # <S h_J^1, h_L^1> as a dense pairing
                kernel = (
                    averaging_function(grid, l_idx).values
                    @ shift
                    @ averaging_function(grid, j_idx).values
                    / grid.leaf_count
                )
                expected = hat_half[l_idx] * kernel * hat_inv[j_idx]
            assert mat[l_pos, j_pos] == pytest.approx(expected, abs=1e-12)


def test_disjoint_block_mask_matches_brute_force_containment(monkeypatch):
    # with a kernel of ones the block is the mask times nonzero coefficients
    w = _cascade(Grid(5), 0.4, 3)
    ones = np.ones((w.grid.tree_size,) * 2)
    monkeypatch.setattr("oracles.shift_kernel_table", lambda grid, kind: ones)
    assert np.all(w.w_half.symbol.coeff != 0)
    assert np.all(w.w_inv_half.symbol.coeff != 0)
    indices = list(w.grid.haar_indices())
    disjoint = [[not (l.contains(j) or j.contains(l)) for j in indices] for l in indices]
    assert np.array_equal(disjoint_block_matrix(w) != 0, np.array(disjoint))


def test_disjoint_block_norm_matches_dense_oracle():
    grid = Grid(6)
    w = make_weight(WeightSpec("power", alpha=0.5), grid)
    spectral = float(np.linalg.svd(disjoint_block_matrix(w), compute_uv=False)[0])
    assert disjoint_block_norm(w) == pytest.approx(spectral, rel=1e-6)


def test_disjoint_block_ratio_reported_across_powers():
    # empirical look at the disjoint-support question: ratios stay modest
    grid = Grid(6)
    for alpha in (0.3, 0.6, 0.9):
        w = make_weight(WeightSpec("power", alpha=alpha), grid)
        ratio = disjoint_block_norm(w) / a2_characteristic(w)
        assert np.isfinite(ratio) and ratio >= 0.0


_BLOCK_WEIGHTS = (
    WeightSpec("cascade", eps=0.5, seed=3),
    WeightSpec("power", alpha=0.6),
    # w^{+-1/2} have Haar coefficients only on the chain of intervals that
    # hold the jump at 3/8, and any two of those are nested: the block is 0
    WeightSpec("step", a=3.0, b=1.0, split=0.375),
)


@pytest.mark.parametrize("depth", (3, 5, 8, 10))
def test_disjoint_block_apply_and_norm_match_dense_oracle(depth):
    grid = Grid(depth)
    coeff = np.random.default_rng(40 + depth).normal(size=(grid.haar_size, 3))
    f = LeafFunction.from_symbol(HaarSymbol(grid, coeff, np.zeros(3)))
    for spec in _BLOCK_WEIGHTS:
        w = make_weight(spec, grid)
        op = estimates._DisjointBlock(w)
        mat = disjoint_block_matrix(w)
        for apply, dense in ((op.apply, mat), (op.adjoint_apply, mat.T)):
            got, expected = apply(f).symbol.coeff, dense @ coeff
            scale = np.abs(expected).max()
            if spec.family == "step":
                assert scale == 0.0 and np.abs(got).max() < 1e-15, apply.__name__
            else:
                assert np.abs(got - expected).max() <= 1e-13 * scale, (spec, apply)
        spectral = float(np.linalg.svd(mat, compute_uv=False)[0])
        assert disjoint_block_norm(w) == pytest.approx(spectral, rel=1e-6, abs=1e-15)


def test_ancestor_sums_equal_ancestor_walk_bit_for_bit():
    # Haar-sized rows (the disjoint block) and tree-sized rows (s), one
    # column and a block of three
    rng = np.random.default_rng(17)
    for depth in range(1, 9):
        grid = Grid(depth)
        for rows in (grid.haar_size, grid.tree_size):
            for shape in ((rows,), (rows, 3)):
                left, right = rng.normal(size=shape), rng.normal(size=shape)
                got = estimates._ancestor_sums(grid, left, right)
                expected = ancestor_sums_walk(grid, left, right)
                assert got.shape == shape
                assert got.tobytes() == expected.tobytes(), (depth, shape)


def test_disjoint_block_matvec_cost_pinned():
    # one T*T matvec on Haar coefficients, as the norm engine runs it: per
    # side a shift of an atoms-born function read as averages, a subtree sum
    # and an ancestor sweep, the same 11 sweep operations per leaf (less a
    # constant) at every depth: the shifted atoms' averages stop one level
    # above the leaves
    for depth in (8, 10, 12):
        grid = Grid(depth)
        op = estimates._DisjointBlock(_cascade(grid, 0.5, 3))
        coeff = np.random.default_rng(41).normal(size=grid.haar_size)
        f = LeafFunction.from_symbol(HaarSymbol(grid, coeff, 0.0))
        with count_operations() as ops:
            op.adjoint_apply(op.apply(f)).symbol.coeff
        assert ops.total == 11 * grid.leaf_count - 22, depth


def test_disjoint_block_norm_converges_beyond_the_dense_depths():
    # no depth cap: a dense block at depth 12 would hold 4095^2 entries
    value = disjoint_block_norm(_cascade(Grid(12), 0.3, 1))
    assert math.isfinite(value) and value > 0.0


def test_disjoint_block_norm_raises_rather_than_returning_unconverged(monkeypatch):
    def two_steps(op):
        return operator_norm(op, max_iter=2)

    monkeypatch.setattr(estimates, "operator_norm", two_steps)
    with pytest.raises(ConvergenceError) as info:
        disjoint_block_norm(_cascade(Grid(8), 0.5, 3))
    assert info.value.estimate > 0.0 and info.value.residual > 1e-9
