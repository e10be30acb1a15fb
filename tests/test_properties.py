"""Properties over drawn paraproducts: the dense oracle against single
columns, and the norm engine against the dense oracle.  The examples are
derandomized, so every run draws the same ones."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarshift import Grid, Paraproduct, dense_norm, materialize, operator_norm
from haarshift.operators import PARAPRODUCT_KINDS, SHIFT_KINDS
from oracles import materialize_by_columns

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=100
)


@st.composite
def paraproducts(draw) -> Paraproduct:
    """Any kind and shift at depths 2-6; the symbol and the outer symbol
    are each a drawn array or None, the unit symbol."""
    grid = Grid(draw(st.integers(2, 6)))
    symbols = st.none() | arrays(float, grid.haar_size, elements=st.floats(-8.0, 8.0))
    return Paraproduct(
        grid,
        draw(symbols),
        draw(st.sampled_from(PARAPRODUCT_KINDS)),
        shift=draw(st.sampled_from(SHIFT_KINDS)),
        outer=draw(symbols),
    )


@PROPERTY_SETTINGS
@given(paraproducts())
def test_materialized_columns_are_single_applies(op):
    mat, by_columns = materialize(op), materialize_by_columns(op)
    assert np.array_equal(mat, by_columns)
    assert np.array_equal(np.signbit(mat), np.signbit(by_columns))


@PROPERTY_SETTINGS
@given(paraproducts())
def test_engine_stays_below_the_dense_norm(op):
    assert operator_norm(op).value <= dense_norm(op) * (1 + 1e-12)
