"""Dyadic grid core: Haar atoms, transforms, averages, product formula.

Expected values marked by hand computation come straight from the
definitions; derived values are recomputed here by brute force.
"""

import numpy as np
import pytest

from haarshift import (
    DyadicIndex,
    Grid,
    HaarSymbol,
    LeafFunction,
    analyze,
    averages,
    averaging_function,
    count_operations,
    haar_function,
    product_formula,
    subtree_sums,
    sum_interval_constants,
    synthesize,
)
from oracles import (
    atoms_symbol_full_sweep,
    delta_sign,
    is_left_child,
    product_formula_coeff,
)


def _rand(grid, rng):
    return LeafFunction(grid, rng.uniform(-1.0, 1.0, grid.leaf_count))


# -- indices ---------------------------------------------------------------


def test_index_navigation():
    idx = DyadicIndex(2, 1)  # [1/4, 1/2)
    assert idx.length == 0.25
    assert idx.left == DyadicIndex(3, 2)
    assert idx.right == DyadicIndex(3, 3)
    assert idx.parent == DyadicIndex(1, 0)
    assert not is_left_child(idx)
    assert is_left_child(DyadicIndex(2, 0))
    assert idx.flat_offset == 4
    assert list(idx.ancestors()) == [DyadicIndex(0, 0), DyadicIndex(1, 0)]


def test_index_validation():
    with pytest.raises(ValueError):
        DyadicIndex(2, 4)
    with pytest.raises(ValueError):
        DyadicIndex(-1, 0)
    with pytest.raises(ValueError):
        DyadicIndex(0, 0).parent
    with pytest.raises(ValueError):
        Grid(0)


def test_containment():
    root = DyadicIndex(0, 0)
    for idx in Grid(4).all_indices():
        assert root.contains(idx)
    assert DyadicIndex(1, 0).contains(DyadicIndex(3, 3))
    assert not DyadicIndex(1, 0).contains(DyadicIndex(3, 4))
    assert not DyadicIndex(2, 1).strictly_contains(DyadicIndex(2, 1))


def test_leaf_range_partition():
    grid = Grid(5)
    for lev in range(grid.depth + 1):
        covered = []
        for idx in grid.indices(lev):
            start, stop = idx.leaf_range(grid.depth)
            covered.extend(range(start, stop))
        assert covered == list(range(grid.leaf_count))


# -- Haar atoms ------------------------------------------------------------


def test_haar_at_root_depth_one():
    values = haar_function(Grid(1), DyadicIndex(0, 0)).values
    assert np.array_equal(values, [1.0, -1.0])


def test_haar_left_half_depth_two():
    values = haar_function(Grid(2), DyadicIndex(1, 0)).values
    root2 = np.sqrt(2.0)
    assert np.allclose(values, [root2, -root2, 0.0, 0.0])


def test_haar_rejects_leaf_level():
    with pytest.raises(ValueError):
        haar_function(Grid(3), DyadicIndex(3, 0))
    averaging_function(Grid(3), DyadicIndex(3, 0))
    with pytest.raises(ValueError, match="below the leaf level"):
        averaging_function(Grid(3), DyadicIndex(4, 0))


def test_gram_matrix_orthonormal():
    # {1} plus all Haar functions form an orthonormal system, any depth <= 8
    for depth in (1, 2, 4, 6, 8):
        grid = Grid(depth)
        vectors = [LeafFunction.constant(grid, 1.0)]
        vectors += [haar_function(grid, idx) for idx in grid.haar_indices()]
        mat = np.stack([v.values for v in vectors])
        gram = mat @ mat.T / grid.leaf_count
        assert np.abs(gram - np.eye(len(vectors))).max() < 1e-12


def test_averaging_function_pairs_to_average():
    grid = Grid(4)
    rng = np.random.default_rng(3)
    f = _rand(grid, rng)
    for idx in grid.all_indices():
        start, stop = idx.leaf_range(grid.depth)
        assert f.inner(averaging_function(grid, idx)) == pytest.approx(
            f.values[start:stop].mean(), abs=1e-14
        )


# -- analyze / synthesize ----------------------------------------------------


def test_analyze_constant():
    grid = Grid(5)
    s = analyze(LeafFunction.constant(grid, 3.25))
    assert s.mean == pytest.approx(3.25, abs=1e-15)
    assert np.abs(s.coeff).max() == 0.0


def test_analyze_haar_atom():
    grid = Grid(4)
    k = DyadicIndex(2, 3)
    s = analyze(haar_function(grid, k))
    expected = np.zeros(grid.haar_size)
    expected[k.flat_offset] = 1.0
    assert np.abs(s.coeff - expected).max() < 1e-14
    assert abs(s.mean) < 1e-15


def test_round_trip_random():
    grid = Grid(8)
    rng = np.random.default_rng(11)
    f = _rand(grid, rng)
    back = synthesize(analyze(f))
    assert np.abs(back.values - f.values).max() < 1e-12


def test_parseval_random():
    grid = Grid(8)
    rng = np.random.default_rng(5)
    for _ in range(100):
        f = _rand(grid, rng)
        s = f.symbol
        energy = s.mean**2 + float(s.coeff @ s.coeff)
        assert abs(energy - f.inner(f)) / f.inner(f) < 1e-12


def test_transform_cost_linear_in_leaves():
    # operation counts at two depths scale like the leaf count
    counts = {}
    for depth in (8, 10):
        grid = Grid(depth)
        f = LeafFunction(grid, np.sin(np.arange(grid.leaf_count, dtype=float)))
        with count_operations() as ops:
            synthesize(analyze(f))
        counts[depth] = ops.total
        assert ops.total <= 16 * grid.leaf_count
    ratio = counts[10] / counts[8]
    assert 3.5 <= ratio <= 4.5


# -- averages ----------------------------------------------------------------


def test_averages_constant():
    grid = Grid(4)
    avg = averages(LeafFunction.constant(grid, 2.5))
    assert np.abs(avg.tree - 2.5).max() < 1e-15


def test_average_of_half_indicator():
    grid = Grid(3)
    vals = np.zeros(grid.leaf_count)
    vals[: grid.leaf_count // 2] = 1.0
    avg = averages(LeafFunction(grid, vals))
    assert avg[DyadicIndex(0, 0)] == pytest.approx(0.5, abs=1e-15)


def test_averages_consistency_random():
    grid = Grid(8)
    rng = np.random.default_rng(9)
    f = _rand(grid, rng)
    avg = f.averages
    for idx in grid.haar_indices():
        assert avg[idx] == pytest.approx(
            (avg[idx.left] + avg[idx.right]) / 2.0, abs=1e-13
        )
        start, stop = idx.leaf_range(grid.depth)
        assert avg[idx] == pytest.approx(f.values[start:stop].mean(), abs=1e-13)


# -- delta sign and the product formula --------------------------------------


def test_delta_sign_examples():
    root = DyadicIndex(0, 0)
    assert delta_sign(DyadicIndex(2, 0), root) == 1
    assert delta_sign(root, root) == 0
    assert delta_sign(DyadicIndex(2, 3), root) == -1
    assert delta_sign(root, DyadicIndex(1, 0)) == 0


def test_delta_sign_matches_haar_values():
    # delta(J, I) equals sign(h_I on J) * sqrt(|I|) for every pair at n=4
    grid = Grid(4)
    for i_idx in grid.haar_indices():
        h = haar_function(grid, i_idx)
        for j_idx in grid.all_indices():
            start, stop = j_idx.leaf_range(grid.depth)
            chunk = h.values[start:stop]
            expected = 0
            if i_idx.strictly_contains(j_idx) and chunk.min() == chunk.max():
                expected = int(np.sign(chunk[0]))
            assert delta_sign(j_idx, i_idx) == expected


def test_product_formula_constant_factor():
    grid = Grid(5)
    rng = np.random.default_rng(2)
    g = _rand(grid, rng)
    one = LeafFunction.constant(grid, 1.0)
    product = product_formula(one, g)
    for idx in grid.haar_indices():
        assert product[idx] == pytest.approx(g.symbol[idx], abs=1e-13)


def test_product_formula_matches_pointwise_product():
    grid = Grid(8)
    rng = np.random.default_rng(7)
    f, g = _rand(grid, rng), _rand(grid, rng)
    product = LeafFunction(grid, f.values * g.values).symbol
    formula = product_formula(f, g)
    for idx in grid.haar_indices():
        assert formula[idx] == pytest.approx(product[idx], abs=1e-12)
    assert formula.mean == pytest.approx(product.mean, abs=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 5, 8, 10])
def test_product_formula_equals_per_interval_oracle(depth):
    # the one-sweep transform does each interval's arithmetic bit for bit
    rng = np.random.default_rng(depth)
    grid = Grid(depth)
    f, g = _rand(grid, rng), _rand(grid, rng)
    expected = [product_formula_coeff(f, g, idx) for idx in grid.haar_indices()]
    assert np.array_equal(product_formula(f, g).coeff, expected)


def test_product_formula_haar_square_has_no_self_coefficient():
    # h_K^2 is constant on K, so its Haar coefficient at K vanishes
    grid = Grid(4)
    k = DyadicIndex(1, 1)
    h = haar_function(grid, k)
    assert product_formula(h, h)[k] == pytest.approx(0.0, abs=1e-14)


def test_product_formula_rejects_leaf_level():
    grid = Grid(3)
    f = LeafFunction.constant(grid, 1.0)
    with pytest.raises(ValueError):
        product_formula(f, f)[DyadicIndex(3, 1)]


def test_subtree_sums_brute_force():
    grid = Grid(5)
    rng = np.random.default_rng(13)
    q = rng.normal(size=grid.haar_size)
    sums = subtree_sums(grid, q)
    for idx in grid.all_indices():
        direct = sum(
            q[j.flat_offset]
            for j in grid.haar_indices()
            if idx.contains(j)
        )
        assert sums[idx.flat_offset] == pytest.approx(direct, abs=1e-12)


def test_leaf_function_immutable():
    grid = Grid(3)
    f = LeafFunction.constant(grid, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(AttributeError, match="cannot delete"):
        del f.values


def test_synthesize_rejects_wrong_size():
    grid = Grid(3)
    with pytest.raises(ValueError):
        LeafFunction(grid, np.ones(5))
    bad = HaarSymbol(grid, np.zeros(grid.haar_size), 0.0)
    assert synthesize(bad).values.shape == (grid.leaf_count,)


# -- birth forms: leaf values, Haar symbol, averaging atoms ------------------


@pytest.mark.parametrize("depth", (3, 9))
def test_symbol_born_function_matches_leaf_route(depth):
    grid = Grid(depth)
    rng = np.random.default_rng(40 + depth)
    for _ in range(5):
        f = _rand(grid, rng)
        g = LeafFunction.from_symbol(analyze(f))
        assert np.abs(g.values - f.values).max() < 1e-13
        assert np.abs(g.averages.tree - averages(f).tree).max() < 1e-13
        assert abs(g.mean() - f.mean()) < 1e-13


@pytest.mark.parametrize("depth", (3, 9))
def test_symbol_born_values_are_synthesize_bit_for_bit(depth):
    grid = Grid(depth)
    rng = np.random.default_rng(50 + depth)
    for _ in range(5):
        s = HaarSymbol(grid, rng.normal(size=grid.haar_size), float(rng.normal()))
        assert np.array_equal(LeafFunction.from_symbol(s).values, synthesize(s).values)


@pytest.mark.parametrize("depth", (3, 9))
def test_atom_born_symbol_matches_analysis_of_its_values(depth):
    # sum_I u_I h^1_I, leaf values summed from explicit averaging atoms
    grid = Grid(depth)
    rng = np.random.default_rng(60 + depth)
    atoms = np.array([averaging_function(grid, i).values for i in grid.haar_indices()])
    for _ in range(5):
        u = rng.uniform(-1.0, 1.0, grid.haar_size)
        f = LeafFunction.from_atoms(grid, u)
        direct = LeafFunction(grid, u @ atoms)
        scale = np.abs(direct.values).max()
        assert np.abs(f.values - direct.values).max() < 1e-13 * scale
        assert np.abs(f.symbol.coeff - analyze(direct).coeff).max() < 1e-13 * scale
        assert abs(f.symbol.mean - direct.mean()) < 1e-13 * scale
        assert abs(f.mean() - direct.mean()) < 1e-13 * scale
        assert np.abs(f.averages.tree - averages(direct).tree).max() < 1e-13 * scale


@pytest.mark.parametrize("depth", range(1, 11))
def test_haar_averages_are_the_haar_part_bit_for_bit(depth):
    # each birth form's own sweep against the full average tree of a fresh
    # copy; a function that holds the full tree reads it, and one that
    # computes the full tree after its Haar-level averages keeps one copy
    grid = Grid(depth)
    rng = np.random.default_rng(110 + depth)
    for batch in ((), (3,)):
        vals = rng.uniform(-1.0, 1.0, (grid.leaf_count,) + batch)
        coeff = rng.normal(size=(grid.haar_size,) + batch)
        mean = rng.normal(size=batch) if batch else float(rng.normal())
        atoms = rng.normal(size=(grid.haar_size,) + batch)
        for make in (
            lambda: LeafFunction(grid, vals),
            lambda: LeafFunction.from_symbol(HaarSymbol(grid, coeff, mean)),
            lambda: LeafFunction.from_atoms(grid, atoms),
        ):
            expected = make().averages.haar_part
            f = make()
            got = f.haar_averages
            assert got.shape == expected.shape, (depth, batch)
            assert got.tobytes() == expected.tobytes(), (depth, batch)
            assert not got.flags.writeable
            assert f.averages.tree.tobytes() == make().averages.tree.tobytes()
            assert np.shares_memory(f.haar_averages, f.averages.tree)
            assert "_haar_averages" not in vars(f)


@pytest.mark.parametrize("depth", (1, 2, 5, 10))
def test_atom_born_symbol_is_the_full_sweep_bit_for_bit(depth):
    grid = Grid(depth)
    rng = np.random.default_rng(120 + depth)
    for batch in ((), (3,)):
        atoms = rng.normal(size=(grid.haar_size,) + batch)
        atoms[::5] = -0.0
        coeff, mean = atoms_symbol_full_sweep(grid, atoms)
        got = LeafFunction.from_atoms(grid, atoms).symbol
        assert got.coeff.tobytes() == coeff.tobytes(), (depth, batch)
        assert np.asarray(got.mean).tobytes() == np.asarray(mean).tobytes()


def test_derived_arrays_read_only():
    grid = Grid(4)
    rng = np.random.default_rng(70)
    born = [
        _rand(grid, rng),
        LeafFunction.from_symbol(
            HaarSymbol(grid, rng.normal(size=grid.haar_size), 0.5)
        ),
        LeafFunction.from_atoms(grid, rng.normal(size=grid.haar_size)),
    ]
    for f in born:
        for arr in (f.values, f.averages.tree, f.symbol.coeff):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            f.values = np.zeros(grid.leaf_count)


def test_from_atoms_rejects_wrong_size():
    with pytest.raises(ValueError):
        LeafFunction.from_atoms(Grid(3), np.ones(8))


# -- blocks: a trailing batch axis of k functions ----------------------------


@pytest.mark.parametrize("depth", (1, 3, 8))
def test_block_derivations_equal_column_derivations_bit_for_bit(depth):
    grid = Grid(depth)
    rng = np.random.default_rng(80 + depth)
    k = 4
    vals = rng.uniform(-1.0, 1.0, (grid.leaf_count, k))
    coeff, mean = rng.normal(size=(grid.haar_size, k)), rng.normal(size=k)
    atoms = rng.normal(size=(grid.haar_size, k))
    births = [
        (LeafFunction(grid, vals), lambda j: LeafFunction(grid, vals[:, j])),
        (
            LeafFunction.from_symbol(HaarSymbol(grid, coeff, mean)),
            lambda j: LeafFunction.from_symbol(HaarSymbol(grid, coeff[:, j], mean[j])),
        ),
        (
            LeafFunction.from_atoms(grid, atoms),
            lambda j: LeafFunction.from_atoms(grid, atoms[:, j]),
        ),
    ]
    for block, column in births:
        assert block.shape == (grid.leaf_count, k)
        means = block.mean()
        for j in range(k):
            col = column(j)
            assert col.shape == (grid.leaf_count,)
            assert np.array_equal(block.values[:, j], col.values)
            assert np.array_equal(block.symbol.coeff[:, j], col.symbol.coeff)
            assert block.symbol.mean[j] == col.symbol.mean
            assert np.array_equal(block.averages.tree[:, j], col.averages.tree)
            assert means[j] == col.mean()
            assert isinstance(col.mean(), float)


def test_block_transforms_count_k_times_the_column_work():
    grid = Grid(6)
    rng = np.random.default_rng(90)
    block = rng.uniform(-1.0, 1.0, (grid.leaf_count, 5))
    counts = []
    for vals in (block, block[:, 0]):
        with count_operations() as ops:
            synthesize(analyze(LeafFunction(grid, vals)))
            averages(LeafFunction(grid, vals))
            LeafFunction.from_atoms(grid, vals[: grid.haar_size]).symbol
        counts.append(ops.total)
    assert counts[0] == 5 * counts[1] > 0


def test_block_shape_errors():
    grid = Grid(3)
    for bad in (np.zeros((8, 2, 2)), np.zeros((7, 2)), np.zeros((2, 8)), np.zeros(())):
        with pytest.raises(ValueError):
            LeafFunction(grid, bad)
    for bad in (np.zeros((7, 2, 2)), np.zeros((8, 2)), np.zeros((2, 7))):
        with pytest.raises(ValueError):
            LeafFunction.from_atoms(grid, bad)
        with pytest.raises(ValueError):
            LeafFunction.from_symbol(HaarSymbol(grid, bad, 0.0))
        with pytest.raises(ValueError):
            subtree_sums(grid, bad)
        with pytest.raises(ValueError):
            sum_interval_constants(grid, bad)
