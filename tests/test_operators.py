"""Operators: paraproducts, multipliers, shifts, the weighted resolution,
its fused terms, and the shifted averaging kernel.

Dense matrices materialized from the matrix-free applies serve as the
oracle throughout.
"""

import math

import numpy as np
import pytest

from haarshift import (
    Composition,
    DyadicIndex,
    DyadicOperator,
    Grid,
    HaarShift,
    HaarSymbol,
    LeafFunction,
    Multiplier,
    Paraproduct,
    Q_LABELS,
    SHIFT_KINDS,
    WeightSpec,
    averages,
    averaging_function,
    conjugated_shift,
    count_operations,
    dense_norm,
    haar_function,
    make_weight,
    materialize,
    multiplier_pieces,
    nested_kernel_pairs,
    resolution_pieces,
    s_coefficients,
    shift_kernel_table,
    synthesize,
)
from haarshift import estimates
from oracles import (
    explicit_paraproduct_matrix,
    is_left_child,
    kernel_table_by_columns,
    materialize_by_columns,
    nested_kernel_walk,
    paraproduct_weights_full,
    s_coefficient_walk,
)


def _rand(grid, rng):
    return LeafFunction(grid, rng.uniform(-1.0, 1.0, grid.leaf_count))


def _cascade(grid, eps=0.4, seed=0):
    return make_weight(WeightSpec("cascade", eps=eps, seed=seed), grid)


# -- paraproducts -------------------------------------------------------------


def test_p00_flat_symbol_projects_out_mean():
    grid = Grid(5)
    rng = np.random.default_rng(0)
    op = Paraproduct(grid, np.ones(grid.haar_size), "00")
    f = _rand(grid, rng)
    expected = f.values - f.mean()
    assert np.abs(op.apply(f).values - expected).max() < 1e-12
    const = LeafFunction.constant(grid, 3.0)
    assert np.abs(op.apply(const).values).max() < 1e-12


def test_p01_on_constant_recovers_mean_free_symbol_function():
    grid = Grid(6)
    rng = np.random.default_rng(1)
    b = _rand(grid, rng)
    op = Paraproduct(grid, b.symbol.coeff, "01")
    out = op.apply(LeafFunction.constant(grid, 1.0))
    assert np.abs(out.values - (b.values - b.mean())).max() < 1e-12


def test_paraproducts_match_dense_matrices():
    grid = Grid(6)
    rng = np.random.default_rng(2)
    symbol = rng.normal(size=grid.haar_size)
    for kind in ("01", "10", "00", "11"):
        op = Paraproduct(grid, symbol, kind)
        mat = materialize(op)
        for _ in range(5):
            f = _rand(grid, rng)
            assert np.abs(op.apply(f).values - mat @ f.values).max() < 1e-12
            assert np.abs(op.adjoint_apply(f).values - mat.T @ f.values).max() < 1e-12


def test_paraproduct_rejects_bad_arguments():
    grid = Grid(3)
    ones, wrong = np.ones(grid.haar_size), np.ones(grid.leaf_count)
    with pytest.raises(ValueError, match="unknown paraproduct kind"):
        Paraproduct(grid, ones, "02")
    with pytest.raises(ValueError, match="unknown shift kind"):
        Paraproduct(grid, ones, "00", shift="quarter")
    with pytest.raises(ValueError, match="one entry per Haar-bearing"):
        Paraproduct(grid, wrong, "00")
    with pytest.raises(ValueError, match="one entry per Haar-bearing"):
        Paraproduct(grid, ones, "00", shift="half", outer=wrong)


def test_paraproduct_dense_matrix_brute_force():
    # entry-by-entry against the defining sum over Haar-bearing intervals
    grid = Grid(4)
    rng = np.random.default_rng(3)
    symbol = rng.normal(size=grid.haar_size)
    f = _rand(grid, rng)
    atoms = {
        "haar": {i: haar_function(grid, i) for i in grid.haar_indices()},
        "avg": {i: averaging_function(grid, i) for i in grid.haar_indices()},
    }
    kinds = {"01": ("haar", "avg"), "10": ("avg", "haar"),
             "00": ("haar", "haar"), "11": ("avg", "avg")}
    for kind, (out_k, in_k) in kinds.items():
        expected = np.zeros(grid.leaf_count)
        for i in grid.haar_indices():
            pairing = f.inner(atoms[in_k][i])
            expected += symbol[i.flat_offset] * pairing * atoms[out_k][i].values
        got = Paraproduct(grid, symbol, kind).apply(f)
        assert np.abs(got.values - expected).max() < 1e-12


@pytest.mark.parametrize("depth", range(1, 9))
def test_paraproduct_equals_full_array_arithmetic_bit_for_bit(depth):
    # the apply scales by its symbol only the entries the shift places and
    # the adjoint by outer only those it gathers; every bit, the sign of
    # every zero included, is that of the full-array products (signed
    # zeros and negative symbols make the sign of zero show)
    grid = Grid(depth)
    rng = np.random.default_rng(40 + depth)
    draws = np.array([-1.5, -0.0, 0.0, 0.75, 2.0, -0.25])
    symbols = [None, rng.choice(draws, grid.haar_size), rng.choice(draws, grid.haar_size)]
    for cols in ((), (3,)):
        coeff = rng.choice(draws, (grid.haar_size,) + cols)
        mean = 0.5 if not cols else np.full(cols, 0.5)
        f = LeafFunction.from_symbol(HaarSymbol(grid, coeff, mean))
        for kind in ("01", "10", "00", "11"):
            for shift in SHIFT_KINDS:
                for symbol, outer in ((s, t) for s in symbols[:2] for t in symbols[::2]):
                    op = Paraproduct(grid, symbol, kind, shift=shift, outer=outer)
                    for adjoint in (False, True):
                        out = (op.adjoint_apply if adjoint else op.apply)(f)
                        born = out.symbol.coeff if out._born == "symbol" else out._atoms
                        want = paraproduct_weights_full(op, f, adjoint)
                        case = (kind, shift, symbol is None, outer is None, cols, adjoint)
                        assert np.array_equal(born, want), case
                        assert np.array_equal(np.signbit(born), np.signbit(want)), case


@pytest.mark.parametrize("shift", SHIFT_KINDS)
@pytest.mark.parametrize("kind", ("01", "10", "00", "11"))
def test_paraproduct_placement_explicit_atom_matrix(kind, shift):
    grid = Grid(5)
    rng = np.random.default_rng(20)
    symbol = rng.normal(size=grid.haar_size)
    for outer in (None, rng.normal(size=grid.haar_size)):
        expected = explicit_paraproduct_matrix(grid, symbol, kind, shift, outer)
        op = Paraproduct(grid, symbol, kind, shift=shift, outer=outer)
        assert np.abs(materialize(op) - expected).max() < 1e-12
        basis = np.eye(grid.leaf_count)
        adjoint = np.column_stack(
            [op.adjoint_apply(LeafFunction(grid, e)).values for e in basis]
        )
        assert np.abs(adjoint - expected.T).max() < 1e-12
        assert op.annihilates_constants == (kind[1] == "0")


class _Adjoint(DyadicOperator):
    def __init__(self, op):
        super().__init__(op.grid)
        self.op = op

    def apply(self, f):
        return self.op.adjoint_apply(f)


@pytest.mark.parametrize("shift", SHIFT_KINDS)
def test_q_terms_match_product_of_explicit_atom_matrices(shift):
    # each factor hands the next its Haar data; the leaf route is the oracle:
    # the product of the factors' dense matrices from explicit atoms
    grid = Grid(7)
    w = _cascade(grid)
    pieces = resolution_pieces(w, shift)
    symbols = {
        "left": {"01": w.w_half.symbol.coeff, "10": w.w_half.symbol.coeff,
                 "00": w.w_half.averages.haar_part},
        "right": {"01": w.w_inv_half.symbol.coeff, "10": w.w_inv_half.symbol.coeff,
                  "00": w.w_inv_half.averages.haar_part},
    }
    shift_mat = explicit_paraproduct_matrix(grid, None, "00", shift)
    for label in Q_LABELS:
        _, lk, rk = label.split("_")
        left = explicit_paraproduct_matrix(grid, symbols["left"][lk], lk, "identity")
        right = explicit_paraproduct_matrix(grid, symbols["right"][rk], rk, "identity")
        expected = left @ shift_mat @ right
        op = pieces[label]
        assert np.abs(materialize(op) - expected).max() < 1e-12, label
        assert np.abs(materialize(_Adjoint(op)) - expected.T).max() < 1e-12, label


def _every_resolution_operator(w):
    for shift in SHIFT_KINDS:
        ops = resolution_pieces(w, shift)
        ops["M_conj"] = conjugated_shift(w, shift)
        for label, op in ops.items():
            yield (shift, label), op


@pytest.mark.parametrize("depth", (3, 6, 8))
def test_block_apply_equals_single_column_calls_bit_for_bit(depth):
    # a (leaves x k) block runs through the same sweeps as one column
    grid = Grid(depth)
    rng = np.random.default_rng(110 + depth)
    block = rng.uniform(-1.0, 1.0, (grid.leaf_count, 3))
    w = _cascade(grid)
    disjoint = ("half", "disjoint_block"), estimates._DisjointBlock(w)
    for case, op in [*_every_resolution_operator(w), disjoint]:
        for apply in (op.apply, op.adjoint_apply):
            out = apply(LeafFunction(grid, block)).values
            assert out.shape == block.shape, case
            for j in range(block.shape[1]):
                single = apply(LeafFunction(grid, block[:, j])).values
                assert np.array_equal(out[:, j], single), (case, apply.__name__, j)
        for side in (op, _Adjoint(op)):
            assert np.array_equal(materialize(side), materialize_by_columns(side)), case


@pytest.mark.parametrize("shift", SHIFT_KINDS)
def test_block_matvec_counts_k_times_one_column(shift):
    grid = Grid(8)
    w = _cascade(grid)
    block = np.random.default_rng(32).uniform(-1.0, 1.0, (grid.leaf_count, 5))
    pieces = resolution_pieces(w, shift)
    for label in Q_LABELS:
        op = pieces[label]
        counts = []
        for vals in (block, block[:, 0]):
            with count_operations() as ops:
                op.adjoint_apply(op.apply(LeafFunction(grid, vals))).values
            counts.append(ops.total)
        assert counts[0] == 5 * counts[1] > 0, label


@pytest.mark.parametrize("shift", SHIFT_KINDS)
def test_q_term_matvec_cost_pinned(shift):
    # one T*T matvec from leaf values through to leaf values, as the norm
    # engine runs the terms that do not annihilate constants (the others
    # iterate on Haar coefficients): Haar data passes between factors
    # without leaf sweeps
    grid = Grid(10)
    w = _cascade(grid)
    rng = np.random.default_rng(30)
    for label, op in resolution_pieces(w, shift).items():
        if label == "mean_cross":
            continue
        f = _rand(grid, rng)
        with count_operations() as ops:
            op.adjoint_apply(op.apply(f)).values
        assert ops.total <= 24 * grid.leaf_count, label
        if label == "Q_00_00":
            assert ops.total <= 8 * grid.leaf_count


def test_multiplier_identity_and_norm():
    grid = Grid(6)
    rng = np.random.default_rng(4)
    one = Multiplier(grid, LeafFunction.constant(grid, 1.0))
    f = _rand(grid, rng)
    assert np.array_equal(one.apply(f).values, f.values)
    b = _rand(grid, rng)
    assert dense_norm(Multiplier(grid, b)) == pytest.approx(
        np.abs(b.values).max(), rel=1e-9
    )


def test_multiplier_decomposition_with_mean_term():
    grid = Grid(8)
    rng = np.random.default_rng(5)
    b = _rand(grid, rng)
    pieces = multiplier_pieces(b)
    # the P00 symbol is b's Haar-level averages: no full tree is cached on b
    assert "averages" not in vars(b)
    assert pieces["00"].symbol.tobytes() == averages(b).haar_part.tobytes()
    direct = Multiplier(grid, b)
    for _ in range(10):
        f = _rand(grid, rng)
        split = sum(p.apply(f).values for p in pieces.values())
        assert np.abs(direct.apply(f).values - split).max() < 1e-12


# -- shifts -------------------------------------------------------------------


def test_half_shift_moves_root_haar_to_left_child():
    grid = Grid(4)
    out = HaarShift(grid, "half").apply(haar_function(grid, DyadicIndex(0, 0)))
    expected = haar_function(grid, DyadicIndex(1, 0))
    assert np.abs(out.values - expected.values).max() < 1e-13


def test_half_shift_truncates_finest_level():
    grid = Grid(4)
    out = HaarShift(grid, "half").apply(haar_function(grid, DyadicIndex(3, 5)))
    assert np.abs(out.values).max() == 0.0


def test_full_shift_action():
    grid = Grid(4)
    k = DyadicIndex(1, 1)
    out = HaarShift(grid, "full").apply(haar_function(grid, k))
    expected = (
        haar_function(grid, k.left).values - haar_function(grid, k.right).values
    )
    assert np.abs(out.values - expected).max() < 1e-13


def test_identity_shift_is_mean_zero_projection():
    grid = Grid(5)
    rng = np.random.default_rng(6)
    f = _rand(grid, rng)
    out = HaarShift(grid, "identity").apply(f)
    assert np.abs(out.values - (f.values - f.mean())).max() < 1e-12


def test_shifts_annihilate_constants():
    grid = Grid(5)
    c = LeafFunction.constant(grid, 2.0)
    for kind in SHIFT_KINDS:
        assert np.abs(HaarShift(grid, kind).apply(c).values).max() < 1e-13


def test_half_shift_norm_at_most_one():
    assert dense_norm(HaarShift(Grid(8), "half")) <= 1.0 + 1e-9


def test_half_shift_isometry_below_truncation():
    # on the span of Haar levels 0..n-2 the half shift permutes the basis
    grid = Grid(6)
    rng = np.random.default_rng(7)
    shift = HaarShift(grid, "half")
    for _ in range(20):
        coeff = rng.normal(size=grid.haar_size)
        coeff[Grid.level_slice(grid.depth - 1)] = 0.0
        f = synthesize(HaarSymbol(grid, coeff, 0.0))
        assert shift.apply(f).norm() == pytest.approx(f.norm(), abs=1e-10)


def test_shift_adjoints_against_dense():
    grid = Grid(5)
    rng = np.random.default_rng(8)
    for kind in SHIFT_KINDS:
        op = HaarShift(grid, kind)
        mat = materialize(op)
        for _ in range(5):
            f = _rand(grid, rng)
            assert np.abs(op.adjoint_apply(f).values - mat.T @ f.values).max() < 1e-12


# -- weighted resolution -------------------------------------------------------


def test_q_operator_matches_resolution_piece():
    # the literal P^{left}_{w^{1/2}} o shift o P^{right}_{w^{-1/2}}: Haar
    # coefficients for kinds 01/10, averages for 00
    grid = Grid(6)
    rng = np.random.default_rng(20)
    w = _cascade(grid, 0.45, 12)

    def symbol(func, kind):
        return func.symbol.coeff if kind in ("01", "10") else func.averages.haar_part

    pieces = resolution_pieces(w, "half")
    for left in ("01", "10", "00"):
        for right in ("01", "10", "00"):
            direct = Composition(
                [
                    Paraproduct(grid, symbol(w.w_half, left), left),
                    HaarShift(grid, "half"),
                    Paraproduct(grid, symbol(w.w_inv_half, right), right),
                ]
            )
            via_pieces = pieces[f"Q_{left}_{right}"]
            for _ in range(3):
                f = _rand(grid, rng)
                assert (
                    np.abs(direct.apply(f).values - via_pieces.apply(f).values).max()
                    < 1e-13
                )


def test_flat_weight_resolution():
    grid = Grid(6)
    rng = np.random.default_rng(9)
    w = make_weight(WeightSpec("constant", c=1.0), grid)
    pieces = resolution_pieces(w, "half")
    f = _rand(grid, rng)
    # hatted symbols vanish, so only Q_00_00 survives and acts as the shift
    for label in Q_LABELS:
        out = pieces[label].apply(f)
        if label == "Q_00_00":
            expected = HaarShift(grid, "half").apply(f)
            assert np.abs(out.values - expected.values).max() < 1e-12
        else:
            assert np.abs(out.values).max() < 1e-13


def test_sixteen_piece_resolution_identity_all_kinds():
    grid = Grid(8)
    rng = np.random.default_rng(10)
    w = _cascade(grid, 0.4, 3)
    for kind in SHIFT_KINDS:
        conj = conjugated_shift(w, kind)
        pieces = resolution_pieces(w, kind)
        for _ in range(20):
            f = _rand(grid, rng)
            split = sum(op.apply(f).values for op in pieces.values())
            assert np.abs(conj.apply(f).values - split).max() < 1e-10


def test_adjoint_consistency_all_operators():
    grid = Grid(8)
    rng = np.random.default_rng(11)
    w = _cascade(grid, 0.4, 4)
    ops = [
        Paraproduct(grid, rng.normal(size=grid.haar_size), k)
        for k in ("01", "10", "00", "11")
    ]
    ops += [HaarShift(grid, k) for k in SHIFT_KINDS]
    for kind in SHIFT_KINDS:
        ops += list(resolution_pieces(w, kind).values())
    ops.append(conjugated_shift(w, "half"))
    ops.append(estimates._DisjointBlock(w))
    for op in ops:
        for _ in range(20):
            f, g = _rand(grid, rng), _rand(grid, rng)
            assert abs(op.apply(f).inner(g) - f.inner(op.adjoint_apply(g))) < 1e-11


def test_matrix_free_equals_dense_for_resolution():
    grid = Grid(6)
    rng = np.random.default_rng(12)
    w = _cascade(grid, 0.45, 5)
    pieces = resolution_pieces(w, "half")
    pieces["M_conj"] = conjugated_shift(w, "half")
    for op in pieces.values():
        mat = materialize(op)
        for _ in range(3):
            f = _rand(grid, rng)
            assert np.abs(op.apply(f).values - mat @ f.values).max() < 1e-12


def test_mean_cross_pieces_vanish_for_mean_annihilating_shifts():
    # the shift kills constants and outputs mean-zero functions, so every
    # mean-involving cross piece is the zero operator
    grid = Grid(6)
    rng = np.random.default_rng(13)
    w = _cascade(grid, 0.4, 6)
    for kind in SHIFT_KINDS:
        op = resolution_pieces(w, kind)["mean_cross"]
        for _ in range(5):
            f = _rand(grid, rng)
            assert np.abs(op.apply(f).values).max() < 1e-12


# -- fused terms ---------------------------------------------------------------

CLOSABLE = ("Q_10_01", "Q_10_00", "Q_00_01", "Q_00_00")


def test_closed_forms_match_compositions():
    # the fused terms run the literal composition's arithmetic: bit-equal
    grid = Grid(6)
    w = _cascade(grid, 0.45, 7)

    def symbol(func, kind):
        return func.symbol.coeff if kind in ("01", "10") else func.averages.haar_part

    for shift in SHIFT_KINDS:
        pieces = resolution_pieces(w, shift)
        for label in Q_LABELS:
            _, lk, rk = label.split("_")
            literal = Composition(
                [
                    Paraproduct(grid, symbol(w.w_half, lk), lk),
                    HaarShift(grid, shift),
                    Paraproduct(grid, symbol(w.w_inv_half, rk), rk),
                ]
            )
            op, case = pieces[label], (shift, label)
            assert isinstance(op, Paraproduct) == (label in CLOSABLE), case
            assert np.array_equal(materialize(op), materialize(literal)), case
            assert np.array_equal(
                materialize(_Adjoint(op)), materialize(_Adjoint(literal))
            ), case


def test_flat_weight_easy4_form_is_half_shift_below_truncation():
    grid = Grid(5)
    rng = np.random.default_rng(15)
    w = make_weight(WeightSpec("constant", c=1.0), grid)
    form = resolution_pieces(w, "half")["Q_00_00"]
    shift = HaarShift(grid, "half")
    for _ in range(10):
        f = _rand(grid, rng)
        assert np.abs(form.apply(f).values - shift.apply(f).values).max() < 1e-12


def test_easy4_norm_is_sup_of_coefficients():
    # Q_00_00 maps the orthonormal h_I to mutually orthogonal images
    # (b_I a_I h_I, b_I a_{I-} h_{I-}, or b_I (a_{I-} h_{I-} - a_{I+} h_{I+})),
    # so its norm is the largest image norm; a = <w^{1/2}>, b = <w^{-1/2}>
    grid = Grid(6)
    w = _cascade(grid, 0.5, 8)
    a = w.w_half.averages
    b = w.w_inv_half.averages
    for shift in SHIFT_KINDS:
        best = 0.0
        for idx in grid.haar_indices():
            if shift == "identity":
                best = max(best, abs(a[idx] * b[idx]))
            elif idx.level <= grid.depth - 2:
                image = abs(a[idx.left])
                if shift == "full":
                    image = math.hypot(a[idx.left], a[idx.right])
                best = max(best, abs(b[idx]) * image)
        got = dense_norm(resolution_pieces(w, shift)["Q_00_00"])
        assert got == pytest.approx(best, rel=1e-12), shift


def test_easy1_rank_sum_oracle():
    # build sum_I what(I-) winvhat(I) h^1_{I-} x h^1_I directly
    grid = Grid(6)
    rng = np.random.default_rng(16)
    w = _cascade(grid, 0.4, 9)
    hat_half = w.w_half.symbol
    hat_inv = w.w_inv_half.symbol
    f = _rand(grid, rng)
    expected = np.zeros(grid.leaf_count)
    for idx in grid.haar_indices():
        if idx.level > grid.depth - 2:
            continue
        coeff = hat_half[idx.left] * hat_inv[idx]
        expected += (
            coeff * f.averages[idx] * averaging_function(grid, idx.left).values
        )
    got = resolution_pieces(w, "half")["Q_10_01"].apply(f)
    assert np.abs(got.values - expected).max() < 1e-11


# -- shift kernel ---------------------------------------------------------------


def _kernel(grid, j, l):
    """<half-shift h_J^1, h_L^1> looked up in the kernel table."""
    return shift_kernel_table(grid, "half")[l.flat_offset, j.flat_offset]


def test_kernel_brother_pairs_vanish():
    grid = Grid(5)
    j, l = DyadicIndex(1, 0), DyadicIndex(1, 1)
    assert _kernel(grid, j, l) == pytest.approx(0.0, abs=1e-14)
    assert _kernel(grid, l, j) == pytest.approx(0.0, abs=1e-14)


def test_kernel_disjoint_example_sqrt2():
    # J = [1/2, 3/4), L = [1/4, 1/2): h_J^1 = 1 - h_root + sqrt(2) h_{[1/2,1)}
    for depth in (3, 4, 6):
        grid = Grid(depth)
        value = _kernel(grid, DyadicIndex(2, 2), DyadicIndex(2, 1))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_kernel_nested_pairs_match_closed_form():
    for depth in (4, 5, 6):
        grid = Grid(depth)
        table = shift_kernel_table(grid, "half")
        j, l, closed = nested_kernel_pairs(grid)
        assert np.abs(table[l, j] - closed).max() < 1e-12


def test_kernel_constant_in_l_for_right_children_and_root():
    # away from the left-child boundary term the kernel on nested pairs
    # depends on J alone and equals the signed ancestor sum
    grid = Grid(5)
    table = shift_kernel_table(grid, "half")
    s = s_coefficients(grid)
    for j in grid.all_indices():
        if is_left_child(j):
            continue
        for l in grid.all_indices():
            if j.strictly_contains(l):
                assert table[l.flat_offset, j.flat_offset] == pytest.approx(
                    s[j.flat_offset], abs=1e-12
                )


def test_kernel_table_equals_one_atom_at_a_time_bit_for_bit():
    # at depth 8 a block holds 16 atoms: the 511 table columns end on a
    # short block of 15
    for depth in range(1, 9):
        grid = Grid(depth)
        for kind in SHIFT_KINDS:
            expected = kernel_table_by_columns(grid, kind)
            got = shift_kernel_table(grid, kind)
            assert np.array_equal(got, expected), (depth, kind)


@pytest.mark.parametrize("width", [1, 3, 7, 512])
def test_kernel_table_bit_identical_at_any_block_width(monkeypatch, width):
    # 512 atoms hold the whole depth-7 table in one block
    grid = Grid(7)
    monkeypatch.setattr(estimates, "KERNEL_BLOCK_ENTRIES", width * grid.leaf_count)
    for kind in SHIFT_KINDS:
        expected = kernel_table_by_columns(grid, kind)
        assert np.array_equal(shift_kernel_table(grid, kind), expected), kind


def test_s_coefficient_examples():
    s = s_coefficients(Grid(5))
    # level-1 intervals: no grid ancestor has a left child strictly above them
    assert s[DyadicIndex(1, 0).flat_offset] == 0.0
    assert s[DyadicIndex(1, 1).flat_offset] == 0.0
    # J = [0, 1/4): single ancestor term from K = [0,1)
    assert s[DyadicIndex(2, 0).flat_offset] == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )


def test_s_coefficient_bound():
    grid = Grid(10)
    s = s_coefficients(grid)
    for j in grid.all_indices():
        assert abs(s[j.flat_offset]) <= math.sqrt(2.0) / j.length + 1e-12


def test_s_coefficients_equal_ancestor_walk_bit_for_bit():
    for depth in range(1, 11):
        grid = Grid(depth)
        walk = np.array([s_coefficient_walk(j) for j in grid.all_indices()])
        assert s_coefficients(grid).tobytes() == walk.tobytes()


def test_nested_kernel_pairs_equal_ancestor_walk_bit_for_bit():
    for depth in range(1, 9):
        grid = Grid(depth)
        j, l, values = nested_kernel_pairs(grid)
        got = dict(zip(zip(j.tolist(), l.tolist()), values.tolist()))
        assert len(got) == len(j)
        indices = list(grid.all_indices())
        expected = {
            (jj.flat_offset, ll.flat_offset): nested_kernel_walk(jj, ll)
            for jj in indices
            for ll in indices
            if jj.strictly_contains(ll)
        }
        assert got == expected
