"""Finite dyadic grid on [0,1): intervals, Haar analysis, exact averages.

Functions are piecewise constant on the 2**depth finest-level intervals, so
every integral is a finite sum and identities can be asserted at machine
precision.  Per-interval data is laid out level-contiguously: the value for
the interval (level, position) sits at flat offset 2**level - 1 + position.
Levels 0..depth-1 carry Haar functions (both children exist); level depth is
the leaf level.  The layout is a binary heap: offset i has its children at
2i+1 and 2i+2, so on a Haar-indexed array levels 0..depth-2 are
[:haar_size // 2], their left children [1::2] and right children [2::2].

Each sweep fills only the levels its reader uses.  averages and the
integral tree cover levels 0..depth.  A synthesis, one _downward_tree from
the mean (as is the half shift's ancestor sum s in estimates), stops at the
level it is asked for: depth for leaf values and the full average tree,
depth-1 for LeafFunction.haar_averages, the only averages a paraproduct
reads.  A subtree sum fills the Haar levels 0..depth-1 (subtree_sums pads
the leaf level with zeros), and an atoms-born function's Haar coefficients
are differences over levels 0..depth-2, since every h^1_I is constant on
the two children of a finest-level interval.

A LeafFunction has two births, and its data is read-only.  The public
constructor LeafFunction(grid, values) copies its leaf values.  The private
LeafFunction._adopt takes leaf values, Haar coefficients with a mean, or
averaging-atom weights as a fresh array, or a view of one, without a copy
and sets it read-only.  Operators adopt the products they make, and the
norm engine its Lanczos vector, so one T*T step allocates only the arrays
it returns.  Nothing may write an adopted array through another reference
while the function that adopted it is alive: the engine writes its vector
again only after the matvec returns.  averages(f) and
LeafFunction.averages are the read-only average tree itself, the average
over interval I at I.flat_offset.

Leaf and interval data may carry a trailing batch axis: an (leaf_count, k)
block is k functions side by side.  Every sweep slices axis 0 only, so a
block runs through the same code as one function, each column with the
arithmetic of a single-column call, and per-interval multipliers broadcast
along the batch axis (as_column).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "DyadicIndex",
    "Grid",
    "LeafFunction",
    "HaarSymbol",
    "haar_function",
    "averaging_function",
    "analyze",
    "synthesize",
    "averages",
    "product_formula",
    "subtree_sums",
    "sum_interval_constants",
    "as_column",
    "count_operations",
]


# --------------------------------------------------------------------------
# arithmetic-operation tally (used to assert the O(2**n) sweep costs)

class OperationCount:
    """Number of elementwise arithmetic operations done by the tree sweeps."""

    __slots__ = ("total",)

    def __init__(self):
        self.total = 0


_COUNTER: OperationCount | None = None


def _tally(n_ops: int) -> None:
    if _COUNTER is not None:
        _COUNTER.total += n_ops


@contextmanager
def count_operations():
    """Count elementwise arithmetic done by the tree sweeps: analyze,
    synthesize, averages, subtree sums and LeafFunction's lazy derivations.
    Only the innermost active counter counts."""
    global _COUNTER
    saved, _COUNTER = _COUNTER, OperationCount()
    try:
        yield _COUNTER
    finally:
        _COUNTER = saved


# --------------------------------------------------------------------------
# indices and grids


@dataclass(frozen=True, order=True)
class DyadicIndex:
    """The dyadic interval [position * 2**-level, (position+1) * 2**-level)."""

    level: int
    position: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if not 0 <= self.position < (1 << self.level):
            raise ValueError(
                f"position {self.position} out of range at level {self.level}"
            )

    @property
    def length(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def left(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position)

    @property
    def right(self) -> "DyadicIndex":
        return DyadicIndex(self.level + 1, 2 * self.position + 1)

    @property
    def parent(self) -> "DyadicIndex":
        if self.level == 0:
            raise ValueError("root interval has no parent")
        return DyadicIndex(self.level - 1, self.position >> 1)

    @property
    def flat_offset(self) -> int:
        return (1 << self.level) - 1 + self.position

    def contains(self, other: "DyadicIndex") -> bool:
        shift = other.level - self.level
        return shift >= 0 and (other.position >> shift) == self.position

    def strictly_contains(self, other: "DyadicIndex") -> bool:
        return self != other and self.contains(other)

    def ancestors(self) -> Iterator["DyadicIndex"]:
        """Strict ancestors, outermost (root) first."""
        for lev in range(self.level):
            yield DyadicIndex(lev, self.position >> (self.level - lev))

    def leaf_range(self, depth: int) -> tuple[int, int]:
        """Leaf indices covered by this interval on a depth-n grid."""
        width = 1 << (depth - self.level)
        return self.position * width, (self.position + 1) * width

    def __str__(self) -> str:
        return f"({self.level},{self.position})"


@dataclass(frozen=True)
class Grid:
    """Dyadic grid of depth n: leaves are the 2**n intervals at level n."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("grid depth must be at least 1")

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth

    @property
    def haar_size(self) -> int:
        """Number of Haar-bearing intervals (levels 0..depth-1)."""
        return (1 << self.depth) - 1

    @property
    def tree_size(self) -> int:
        """Number of intervals over all levels 0..depth."""
        return (1 << (self.depth + 1)) - 1

    @staticmethod
    def level_slice(level: int) -> slice:
        start = (1 << level) - 1
        return slice(start, start + (1 << level))

    @cached_property
    def level_slices(self) -> tuple[slice, ...]:
        """level_slice(lev) for levels 0..depth, built once per grid."""
        return tuple(self.level_slice(lev) for lev in range(self.depth + 1))

    def indices(self, level: int) -> Iterator[DyadicIndex]:
        for p in range(1 << level):
            yield DyadicIndex(level, p)

    def haar_indices(self) -> Iterator[DyadicIndex]:
        for lev in range(self.depth):
            yield from self.indices(lev)

    def all_indices(self) -> Iterator[DyadicIndex]:
        for lev in range(self.depth + 1):
            yield from self.indices(lev)

    @cached_property
    def tree_inv_lengths(self) -> np.ndarray:
        """1/|I| for every interval, level-contiguous over levels 0..depth."""
        out = np.empty(self.tree_size)
        for lev in range(self.depth + 1):
            out[self.level_slice(lev)] = 2.0**lev
        out.setflags(write=False)
        return out

    @cached_property
    def haar_inv_lengths(self) -> np.ndarray:
        return self.tree_inv_lengths[: self.haar_size]

    @cached_property
    def leaf_basis(self) -> "LeafFunction":
        """The identity block, whose columns are the leaf indicators, built
        once per grid with whatever it derives cached on it.  It lives on a
        private grid of this depth, so it holds no reference to this one."""
        return LeafFunction._adopt(Grid(self.depth), np.eye(self.leaf_count))

    @cached_property
    def haar_inv_sqrt_lengths(self) -> np.ndarray:
        """|I|^{-1/2} for every Haar-bearing interval, level-contiguous."""
        out = np.empty(self.haar_size)
        for lev in range(self.depth):
            out[self.level_slice(lev)] = 2.0 ** (lev / 2)
        out.setflags(write=False)
        return out


# --------------------------------------------------------------------------
# leaf functions and their multiscale data


def _check_rows(arr: np.ndarray, rows: int, message: str) -> None:
    """arr holds one entry per row, with at most a trailing batch axis."""
    if arr.ndim not in (1, 2) or arr.shape[0] != rows:
        raise ValueError(f"{message}, got {arr.shape}")


def as_column(per_interval: np.ndarray, data: np.ndarray) -> np.ndarray:
    """per_interval (one entry per row of data) shaped to broadcast along
    data's trailing batch axis, if it has one."""
    return per_interval if data.ndim == 1 else per_interval[:, None]


def _root_value(tree: np.ndarray):
    """tree[0]: a float, or a read-only copy of the row of k for a block."""
    if tree.ndim == 1:
        return float(tree[0])
    row = tree[0].copy()
    row.setflags(write=False)
    return row


class LeafFunction:
    """Real function piecewise constant on the leaves of a dyadic grid, or a
    block of k such functions held as the columns of (leaf_count, k) data.

    A LeafFunction is born from leaf values, from Haar coefficients with a
    mean, or from averaging-atom weights sum_I u_I h^1_I over Haar-bearing
    I (see the module docstring for its two births).  values, symbol,
    averages and mean() are derived lazily from the birth form, cached, and
    read-only, so operators hand each other Haar data without a round trip
    through leaf values.  shape is the shape of values, known at birth.
    """

    grid: Grid
    shape: tuple

    def __init__(self, grid: Grid, values: np.ndarray):
        vals = np.array(values, dtype=float)
        _check_rows(vals, grid.leaf_count, f"expected {grid.leaf_count} leaf values")
        vals.setflags(write=False)
        self.__dict__.update(grid=grid, shape=vals.shape, _born="values", values=vals)

    @classmethod
    def _adopt(
        cls, grid: Grid, data: np.ndarray, mean=None, atoms: bool = False
    ) -> "LeafFunction":
        """The adopting birth: leaf values, Haar coefficients with this mean,
        or (atoms) averaging-atom weights, taken without a copy and set
        read-only (see the module docstring for who may still write them)."""
        data.setflags(write=False)
        if atoms:
            born, form = "atoms", {"_atoms": data}
        elif mean is None:
            born, form = "values", {"values": data}
        else:
            born, form = "symbol", {"symbol": HaarSymbol(grid, data, mean)}
        f = cls.__new__(cls)
        shape = (grid.leaf_count,) + data.shape[1:]
        f.__dict__.update(grid=grid, shape=shape, _born=born, **form)
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"LeafFunction is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LeafFunction is immutable; cannot delete {name!r}")

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "LeafFunction":
        return cls(grid, np.full(grid.leaf_count, float(c)))

    def inner(self, other: "LeafFunction") -> float:
        """Exact L2([0,1)) inner product of two leaf functions."""
        return float(self.values @ other.values) / self.grid.leaf_count

    def norm(self) -> float:
        return float(np.sqrt(self.inner(self)))

    def mean(self):
        """The mean over [0,1): a float, or one per column for a block."""
        if self._born == "values":
            # each column summed in a single vector's (pairwise) order, so
            # a block's means equal its columns' bit for bit
            mean = np.ascontiguousarray(self.values.T).mean(axis=-1)
        else:
            mean = self.symbol.mean
        return float(mean) if len(self.shape) == 1 else mean

    @cached_property
    def values(self) -> np.ndarray:
        if self._born == "atoms":
            atoms = self._atoms
            consts = atoms * as_column(self.grid.haar_inv_lengths, atoms)
            _tally(consts.size)
            vals = sum_interval_constants(self.grid, consts)
            vals.setflags(write=False)
            return vals
        return self.averages[self.grid.level_slices[-1]]

    @cached_property
    def averages(self) -> np.ndarray:
        # the full tree holds the Haar-level averages: drop a separate copy
        self.__dict__.pop("_haar_averages", None)
        if self._born == "values":
            return averages(self)
        return _synthesis_tree(self.symbol)

    @property
    def haar_averages(self) -> np.ndarray:
        """averages[: haar_size] (levels 0..depth-1) from the cheapest sweep
        for the birth form, bit for bit: the integral tree scaled on the Haar
        levels only for leaf values, else a synthesis that stops one level
        above the leaves.  A full average tree already held is read."""
        if "averages" in self.__dict__:
            return self.averages[: self.grid.haar_size]
        return self._haar_averages

    @cached_property
    def _haar_averages(self) -> np.ndarray:
        if self._born == "values":
            ints = _integral_tree(self)[: self.grid.haar_size]
            out = ints * as_column(self.grid.haar_inv_lengths, ints)
            _tally(out.size)
        else:
            out = _synthesis_tree(self.symbol, self.grid.depth - 1)
        out.setflags(write=False)
        return out

    @cached_property
    def symbol(self) -> "HaarSymbol":
        if self._born == "values":
            return analyze(self)
        # <h^1_I, h_J> = +-|J|^{-1/2} for I inside J-/J+, else 0; on the
        # finest Haar level both children are leaves, which hold no atom
        grid, atoms = self.grid, self._atoms
        half = grid.haar_size // 2
        inside = _subtree_sums_into(grid, atoms, np.empty(atoms.shape))
        coeff = np.empty(atoms.shape)
        np.subtract(inside[1::2], inside[2::2], out=coeff[:half])
        coeff[:half] *= as_column(grid.haar_inv_sqrt_lengths[:half], coeff)
        coeff[half:] = 0.0
        _tally(2 * coeff[:half].size)
        coeff.setflags(write=False)
        return HaarSymbol(grid, coeff, _root_value(inside))


@dataclass(frozen=True, eq=False)
class HaarSymbol:
    """Haar coefficients over levels 0..depth-1 plus the global mean; for a
    block, coeff is (haar_size, k) and mean an array of k."""

    grid: Grid
    coeff: np.ndarray  # level-contiguous, Haar-bearing levels only
    mean: float | np.ndarray

    def __getitem__(self, index: DyadicIndex) -> float:
        if index.level >= self.grid.depth:
            raise ValueError(f"{index} is not Haar-bearing at depth {self.grid.depth}")
        return float(self.coeff[index.flat_offset])


# --------------------------------------------------------------------------
# transforms: one upward or downward sweep, O(2**depth) arithmetic


def _integral_tree(f: LeafFunction) -> np.ndarray:
    """Integral of f over every interval, computed by one upward sweep."""
    n = f.grid.depth
    slices = f.grid.level_slices
    vals = f.values
    tree = np.empty((f.grid.tree_size,) + vals.shape[1:])
    np.multiply(vals, 2.0**-n, out=tree[slices[n]])
    for lev in range(n - 1, -1, -1):
        child = tree[slices[lev + 1]]
        np.add(child[0::2], child[1::2], out=tree[slices[lev]])
    # one operation per entry: the leaf scaling, then one add per parent
    _tally(tree.size)
    return tree


def averages(f: LeafFunction) -> np.ndarray:
    """Averages of f over all dyadic intervals, levels 0..depth
    level-contiguous and read-only, one upward sweep."""
    tree = _integral_tree(f)
    tree *= as_column(f.grid.tree_inv_lengths, tree)
    _tally(tree.size)
    tree.setflags(write=False)
    return tree


def analyze(f: LeafFunction) -> HaarSymbol:
    """Haar coefficients of f plus the mean, one upward sweep."""
    ints = _integral_tree(f)
    coeff = np.subtract(ints[1::2], ints[2::2])
    coeff *= as_column(f.grid.haar_inv_sqrt_lengths, coeff)
    _tally(2 * coeff.size)
    coeff.setflags(write=False)
    return HaarSymbol(f.grid, coeff, _root_value(ints))


def _downward_tree(grid: Grid, root, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """The tree over levels 0..m from its root, one downward sweep: plus and
    minus hold a row per parent (levels 0..m-1), and parent p's left child
    is tree[p] + plus[p], its right child tree[p] - minus[p]."""
    tree = np.empty((2 * len(plus) + 1,) + plus.shape[1:])
    tree[0] = root
    parent, slices = tree[:1], grid.level_slices
    for lev in range(len(plus).bit_length()):
        level, child = slices[lev], tree[slices[lev + 1]]
        np.add(parent, plus[level], out=child[0::2])
        np.subtract(parent, minus[level], out=child[1::2])
        parent = child
    _tally(2 * plus.size)
    return tree


def _synthesis_tree(symbol: HaarSymbol, last_level: int | None = None) -> np.ndarray:
    """Averages over every interval of levels 0..last_level (default depth)
    from Haar data, one downward sweep:
    <f>_{I-} = <f>_I + coeff_I |I|^{-1/2}, <f>_{I+} = <f>_I - coeff_I |I|^{-1/2}."""
    grid, coeff = symbol.grid, symbol.coeff
    parents = (1 << (grid.depth if last_level is None else last_level)) - 1
    steps = coeff[:parents] * as_column(grid.haar_inv_sqrt_lengths[:parents], coeff)
    _tally(steps.size)
    tree = _downward_tree(grid, symbol.mean, steps, steps)
    tree.setflags(write=False)
    return tree


def synthesize(symbol: HaarSymbol) -> LeafFunction:
    """Rebuild the leaf function from Haar coefficients, one downward sweep."""
    tree = _synthesis_tree(symbol)
    return LeafFunction(symbol.grid, tree[symbol.grid.level_slices[-1]])


def _subtree_sums_into(
    grid: Grid, haar_values: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write the subtree sums of haar_values into out's Haar rows (levels
    0..depth-1), one upward sweep; out's other rows are left as they are."""
    n = grid.depth
    slices = grid.level_slices
    out[slices[n - 1]] = haar_values[slices[n - 1]]
    for lev in range(n - 2, -1, -1):
        child = out[slices[lev + 1]]
        total = out[slices[lev]]
        np.add(haar_values[slices[lev]], child[0::2], out=total)
        total += child[1::2]
    _tally(2 * haar_values[: grid.haar_size // 2].size)
    return out


def subtree_sums(grid: Grid, haar_values: np.ndarray) -> np.ndarray:
    """Sum of a Haar-indexed quantity over all Haar-bearing J inside each I.

    Returns a level-contiguous array over ALL levels 0..depth; leaf entries
    are 0 (a leaf contains no Haar-bearing interval).
    """
    _check_rows(
        haar_values, grid.haar_size, "expected one value per Haar-bearing interval"
    )
    out = np.zeros((grid.tree_size,) + haar_values.shape[1:])
    return _subtree_sums_into(grid, haar_values, out)


def sum_interval_constants(grid: Grid, haar_constants: np.ndarray) -> np.ndarray:
    """Leaf values of sum_I c_I 1_I over Haar-bearing I, one downward sweep:
    each child's running sum is its parent's plus its own constant, written
    straight into the even (left) and odd (right) rows of the child level."""
    rows = grid.haar_size
    _check_rows(haar_constants, rows, "expected one constant per Haar-bearing interval")
    slices = grid.level_slices
    acc = haar_constants[slices[0]]
    for lev in range(1, grid.depth):
        consts = haar_constants[slices[lev]]
        child = np.empty(consts.shape)
        np.add(acc, consts[0::2], out=child[0::2])
        np.add(acc, consts[1::2], out=child[1::2])
        acc = child
    _tally(haar_constants[1:].size)
    out = np.empty((2 * acc.shape[0],) + acc.shape[1:])
    out[0::2] = acc
    out[1::2] = acc
    return out


# --------------------------------------------------------------------------
# Haar atoms and the product formula


def haar_function(grid: Grid, index: DyadicIndex) -> LeafFunction:
    """h_I = |I|^{-1/2} (1 on the left child, -1 on the right child)."""
    if index.level >= grid.depth:
        raise ValueError(f"{index} has no Haar function at depth {grid.depth}")
    vals = np.zeros(grid.leaf_count)
    start, stop = index.leaf_range(grid.depth)
    mid = (start + stop) // 2
    height = 2.0 ** (index.level / 2)
    vals[start:mid] = height
    vals[mid:stop] = -height
    return LeafFunction(grid, vals)


def averaging_function(grid: Grid, index: DyadicIndex) -> LeafFunction:
    """h_I^1 = |I|^{-1} 1_I; pairing against it gives the average over I."""
    if index.level > grid.depth:
        raise ValueError(f"{index} is below the leaf level {grid.depth}")
    vals = np.zeros(grid.leaf_count)
    start, stop = index.leaf_range(grid.depth)
    vals[start:stop] = 2.0**index.level
    return LeafFunction(grid, vals)


def product_formula(f: LeafFunction, g: LeafFunction) -> HaarSymbol:
    """Haar coefficients and mean of the pointwise product f*g, assembled
    from the coefficients and averages of the factors in one subtree sweep:

        (fg)^(I) = sum_{J strictly inside I} fhat(J) ghat(J) delta(J,I) / sqrt(|I|)
                     + fhat(I) <g>_I + ghat(I) <f>_I
        <fg> = <f><g> + sum_J fhat(J) ghat(J)

    with delta(J, I) = +1 for J inside the left child of I, -1 inside the right.
    """
    grid = f.grid
    fs, gs = f.symbol, g.symbol
    sub = subtree_sums(grid, fs.coeff * gs.coeff)
    coeff = (
        (sub[1::2] - sub[2::2]) * grid.haar_inv_sqrt_lengths
        + fs.coeff * g.averages[: grid.haar_size]
        + gs.coeff * f.averages[: grid.haar_size]
    )
    coeff.setflags(write=False)
    return HaarSymbol(grid, coeff, fs.mean * gs.mean + float(sub[0]))
