"""Properties over drawn paraproducts: the dense oracle against single
columns, and the norm engine against the dense oracle.  The examples are
derandomized, so every run draws the same ones, given the same loaded
modules: Hypothesis also draws the numeric constants of every local module
imported, so a full-suite run draws other examples than this module alone.
The extreme scales are therefore pinned with @example, which runs whatever
constants are loaded."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from haarshift import Grid, Paraproduct, dense_norm, materialize, operator_norm
from haarshift.operators import PARAPRODUCT_KINDS, SHIFT_KINDS
from oracles import materialize_by_columns

# On a failure the Hypothesis pytest plugin imports libcst to write a patch
# of the failing example; with some libcst versions that import raises
# mypy_extensions' DeprecationWarning, which filterwarnings = ["error"] turns
# into a pytest INTERNALERROR in place of the failure report.  No setting
# skips the import, so that one warning is ignored here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

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


_SYMBOL_4 = np.random.default_rng(1).normal(size=Grid(4).haar_size)


@PROPERTY_SETTINGS
@given(paraproducts())
# once drawn only in a full-suite run: outer entries far below the range of
# exact squares
@example(Paraproduct(Grid(2), None, "10", outer=np.full(3, 2.5e-162)))
# T*T of norm below 1e-154, whose residuals are subnormal from the first step
@example(Paraproduct(Grid(4), _SYMBOL_4 * 1e-158, "01"))
@example(Paraproduct(Grid(4), _SYMBOL_4 * 1e-160, "11"))
@example(Paraproduct(Grid(4), _SYMBOL_4 * 2.0**-1000, "01", shift="half"))
def test_engine_stays_below_the_dense_norm(op):
    assert operator_norm(op).value <= dense_norm(op) * (1 + 1e-12)
