"""Weight families, the A2 characteristic, and disbalanced Haar data."""

import numpy as np
import pytest

from haarshift import (
    DyadicIndex,
    Grid,
    LeafFunction,
    Weight,
    WeightSpec,
    a2_characteristic,
    averaging_function,
    disbalanced_data,
    haar_function,
    make_weight,
)
from oracles import weighted_average


def _cascade(grid, eps=0.4, seed=0):
    return make_weight(WeightSpec("cascade", eps=eps, seed=seed), grid)


# -- families ---------------------------------------------------------------


def test_power_alpha_zero_is_flat():
    w = make_weight(WeightSpec("power", alpha=0.0), Grid(6))
    assert np.all(w.w.values == 1.0)


def test_cascade_eps_zero_is_flat():
    for seed in (0, 1, 12345):
        w = make_weight(WeightSpec("cascade", eps=0.0, seed=seed), Grid(5))
        assert np.all(w.w.values == 1.0)


def test_step_leaves():
    w = make_weight(WeightSpec("step", a=4.0, b=1.0, split=0.5), Grid(1))
    assert np.array_equal(w.w.values, [4.0, 1.0])


def test_power_leaf_values_are_cell_averages():
    alpha = 0.6
    grid = Grid(7)
    w = make_weight(WeightSpec("power", alpha=alpha), grid)
    # quadrature oracle per cell, on a mesh graded toward the cell's left
    # edge so the x=0 singularity of the derivative is resolved
    for j in (0, 1, 5, 100, grid.leaf_count - 1):
        a, b = j * 2.0**-7, (j + 1) * 2.0**-7
        xs = a + (b - a) * np.linspace(0.0, 1.0, 40001) ** 4
        quad = np.trapezoid(xs**alpha, xs) / (b - a)
        assert w.w.values[j] == pytest.approx(quad, rel=1e-7)


def test_cascade_deterministic():
    a = make_weight(WeightSpec("cascade", eps=0.3, seed=99), Grid(8))
    b = make_weight(WeightSpec("cascade", eps=0.3, seed=99), Grid(8))
    assert np.array_equal(a.w.values, b.w.values)
    c = make_weight(WeightSpec("cascade", eps=0.3, seed=100), Grid(8))
    assert not np.array_equal(a.w.values, c.w.values)


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_weight(WeightSpec("power", alpha=1.0), Grid(3))
    with pytest.raises(ValueError):
        make_weight(WeightSpec("power", alpha=-1.5), Grid(3))
    with pytest.raises(ValueError):
        make_weight(WeightSpec("cascade", eps=1.0), Grid(3))
    with pytest.raises(ValueError):
        make_weight(WeightSpec("step", a=-2.0, b=1.0), Grid(3))
    with pytest.raises(ValueError):
        make_weight(WeightSpec("constant", c=0.0), Grid(3))
    with pytest.raises(ValueError, match="seed must be a nonnegative"):
        make_weight(WeightSpec("cascade", eps=0.3, seed=-1), Grid(3))
    for split in (-0.25, 1.5):
        with pytest.raises(ValueError, match=r"split must lie in \[0, 1\]"):
            make_weight(WeightSpec("step", a=2.0, b=1.0, split=split), Grid(3))
    with pytest.raises(ValueError):
        WeightSpec("gaussian")
    with pytest.raises(ValueError):
        Weight.from_values(Grid(2), np.array([1.0, -1.0, 1.0, 1.0]))


def test_spec_parse_round_trip():
    for text in (
        "constant:c=2.5",
        "power:alpha=-0.7",
        "cascade:eps=0.4,seed=11",
        "step:a=4,b=1,split=0.25",
        "cascade:eps=0.4,seed=123456789",
    ):
        spec = WeightSpec.parse(text)
        assert spec.label() == text
        again = WeightSpec.parse(spec.label())
        assert spec == again
    # each of the family's parameters exactly once, in any order
    assert WeightSpec.parse("cascade:seed=3,eps=0.4") == WeightSpec.parse(
        "cascade:eps=0.4,seed=3"
    )
    for text, names in (
        ("power:beta=0.5", "alpha"),
        ("power", "alpha"),
        ("power:a=0.5", "alpha"),
        ("power:alpha", "alpha"),
        ("power:alpha=0.5,", "alpha"),
        ("cascade:eps=0.4", "eps, seed"),
        ("cascade:alpha=0.5", "eps, seed"),
        ("power:alpha=0.5,seed=3", "alpha"),
        ("power:alpha=0.5,alpha=0.9", "alpha"),
        ("step:a=4,b=1", "a, b, split"),
    ):
        with pytest.raises(ValueError, match=f"parameter \\({names}\\) exactly once"):
            WeightSpec.parse(text)
    with pytest.raises(ValueError):
        WeightSpec.parse("nope:c=1")


# -- A2 characteristic --------------------------------------------------------


def test_a2_constant_weight_is_one():
    for c in (0.25, 1.0, 7.0, 49.0, 98.0):
        w = make_weight(WeightSpec("constant", c=c), Grid(5))
        assert a2_characteristic(w) == 1.0


def test_weight_dynamic_range_limit():
    grid = Grid(1)
    Weight.from_values(grid, [1.0, 1e16])
    with pytest.raises(ValueError, match="dynamic range"):
        Weight.from_values(grid, [1.0, 1.0000000000000002e16])
    with pytest.raises(ValueError, match="dynamic range"):
        make_weight(WeightSpec("step", a=1e-300, b=1.0, split=0.5), grid)


def test_weight_reciprocal_must_be_normal():
    # 1/4.5e307 = 2.22e-308 lies below the smallest normal double
    grid = Grid(1)
    tiny = np.finfo(float).tiny
    Weight.from_values(grid, [1.0 / tiny, 1.0 / tiny])
    Weight.from_values(grid, [tiny, tiny])
    for bad in (4.5e307, 1e308, 1e-308):
        with pytest.raises(ValueError, match="normal double"):
            Weight.from_values(grid, [bad, bad])


def test_step_split_must_lie_on_the_grid():
    make_weight(WeightSpec("step", a=4.0, b=1.0, split=0.25), Grid(2))
    for split, depth in ((0.3, 4), (0.25, 1), (0.1, 8)):
        with pytest.raises(ValueError, match="split"):
            make_weight(WeightSpec("step", a=4.0, b=1.0, split=split), Grid(depth))


def test_a2_step_hand_value():
    # averages over [0,1): w -> 5/2, 1/w -> 5/8, product 25/16; halves give 1
    w = make_weight(WeightSpec("step", a=4.0, b=1.0, split=0.5), Grid(1))
    assert a2_characteristic(w) == pytest.approx(25.0 / 16.0, abs=1e-15)


def test_a2_brute_force_random():
    grid = Grid(6)
    w = _cascade(grid, 0.5, 3)
    best = 1.0
    for idx in grid.all_indices():
        start, stop = idx.leaf_range(grid.depth)
        best = max(
            best,
            w.w.values[start:stop].mean() * w.w_inv.values[start:stop].mean(),
        )
    assert a2_characteristic(w) == pytest.approx(best, rel=1e-14)
    # the two average trees are not left cached on the weight
    assert "averages" not in vars(w.w) and "averages" not in vars(w.w_inv)


def test_a2_monotone_in_power_exponent():
    grid = Grid(10)
    assert a2_characteristic(
        make_weight(WeightSpec("power", alpha=0.5), grid)
    ) < a2_characteristic(make_weight(WeightSpec("power", alpha=0.8), grid))


def test_a2_at_least_one_with_equality_iff_constant():
    grid = Grid(6)
    w = _cascade(grid, 0.35, 8)
    assert a2_characteristic(w) > 1.0
    flat = make_weight(WeightSpec("constant", c=3.0), grid)
    assert a2_characteristic(flat) == 1.0


def test_a2_dual_symmetry_exact():
    grid = Grid(8)
    w = _cascade(grid, 0.45, 21)
    assert a2_characteristic(w) == a2_characteristic(w.dual())


def test_cauchy_schwarz_average_products():
    grid = Grid(7)
    w = _cascade(grid, 0.5, 5)
    prod = w.w.averages.tree * w.w_inv.averages.tree
    assert prod.min() >= 1.0 - 1e-13


def test_half_power_average_bound():
    # <w^{1/2}>_J^2 <= <w>_J on every interval
    grid = Grid(7)
    w = _cascade(grid, 0.45, 17)
    assert np.all(w.w_half.averages.tree**2 <= w.w.averages.tree * (1 + 1e-14))


def test_pointwise_reciprocals_exact():
    # reciprocals are pointwise transforms, so the products of leaf values
    # are 1 to within a single rounding of the division
    grid = Grid(6)
    w = _cascade(grid, 0.4, 2)
    assert np.abs(w.w.values * w.w_inv.values - 1.0).max() < 3e-16
    assert np.abs(w.w_half.values * w.w_inv_half.values - 1.0).max() < 3e-16


# -- weighted averages and disbalanced data ----------------------------------


def test_weighted_average_flat_weight():
    grid = Grid(5)
    rng = np.random.default_rng(4)
    f = LeafFunction(grid, rng.uniform(-1, 1, grid.leaf_count))
    sigma = make_weight(WeightSpec("constant", c=1.0), grid)
    for idx in (DyadicIndex(0, 0), DyadicIndex(2, 3), DyadicIndex(5, 17)):
        assert weighted_average(f, sigma, idx) == pytest.approx(
            f.averages[idx], abs=1e-13
        )


def test_weighted_average_of_constant():
    grid = Grid(5)
    sigma = _cascade(grid, 0.4, 6)
    f = LeafFunction.constant(grid, 2.75)
    for idx in (DyadicIndex(0, 0), DyadicIndex(3, 5)):
        assert weighted_average(f, sigma, idx) == pytest.approx(2.75, abs=1e-13)


def test_weighted_average_direct_summation():
    grid = Grid(6)
    rng = np.random.default_rng(8)
    f = LeafFunction(grid, rng.uniform(-1, 1, grid.leaf_count))
    sigma = _cascade(grid, 0.5, 10)
    for idx in (DyadicIndex(1, 1), DyadicIndex(4, 9)):
        start, stop = idx.leaf_range(grid.depth)
        num = float((f.values[start:stop] * sigma.w.values[start:stop]).sum())
        den = float(sigma.w.values[start:stop].sum())
        assert weighted_average(f, sigma, idx) == pytest.approx(num / den, rel=1e-14)


def test_disbalanced_flat_weight():
    grid = Grid(4)
    sigma = make_weight(WeightSpec("constant", c=1.0), grid)
    c, d = disbalanced_data(sigma)
    assert c.shape == d.shape == (grid.haar_size,)
    assert np.abs(c - 1.0).max() < 1e-15
    assert np.abs(d).max() < 1e-15


def test_disbalanced_step_hand_values():
    sigma = make_weight(WeightSpec("step", a=4.0, b=1.0, split=0.5), Grid(1))
    c, d = disbalanced_data(sigma)
    assert c.shape == d.shape == (1,)
    assert c[0] == pytest.approx(np.sqrt(8.0 / 5.0), abs=1e-15)
    assert d[0] == pytest.approx(3.0 / 5.0, abs=1e-15)


def test_disbalanced_reconstruction_random():
    # h_K^sigma rebuilt from (C_K, D_K) at leaf level, per K, with its own sums
    grid = Grid(6)
    sigma = _cascade(grid, 0.45, 14)
    c, d = disbalanced_data(sigma)
    for k in grid.haar_indices():
        c_k, d_k = c[k.flat_offset], d[k.flat_offset]
        h = haar_function(grid, k).values
        h1 = averaging_function(grid, k).values
        h_sigma = (h - d_k * h1) / c_k
        assert np.abs(c_k * h_sigma + d_k * h1 - h).max() < 1e-12
        # unit norm and mean zero in L2(sigma)
        weighted = h_sigma * sigma.w.values
        norm_sq = float(weighted @ h_sigma) / grid.leaf_count
        assert norm_sq == pytest.approx(1.0, abs=1e-12)
        assert float(weighted.sum()) / grid.leaf_count == pytest.approx(0, abs=1e-12)
