"""Finite dyadic grid on [0,1): intervals, Haar analysis, exact averages.

Functions are piecewise constant on the 2**depth finest-level intervals, so
every integral is a finite sum and identities can be asserted at machine
precision.  Per-interval data is laid out level-contiguously: the value for
the interval (level, position) sits at flat offset 2**level - 1 + position.
Levels 0..depth-1 carry Haar functions (both children exist); level depth is
the leaf level.  The layout is a binary heap: offset i has its children at
2i+1 and 2i+2, so on a Haar-indexed array levels 0..depth-2 are
[:haar_size // 2], their left children [1::2] and right children [2::2].

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
    "MultiscaleAverages",
    "HaarSymbol",
    "haar_function",
    "averaging_function",
    "analyze",
    "synthesize",
    "averages",
    "delta_sign",
    "product_formula_coeff",
    "subtree_sums",
    "sum_interval_constants",
    "gather_left_child",
    "as_column",
    "count_operations",
]


# --------------------------------------------------------------------------
# arithmetic-operation tally (used to assert the O(2**n) sweep costs)

_OP_TALLY: list | None = None


def _tally(n_ops: int) -> None:
    if _OP_TALLY is not None:
        _OP_TALLY[0] += n_ops


class OperationCount:
    """Mutable view of the number of elementwise arithmetic operations."""

    def __init__(self, cell: list):
        self._cell = cell

    @property
    def total(self) -> int:
        return self._cell[0]


@contextmanager
def count_operations():
    """Count elementwise arithmetic done by the tree sweeps: analyze,
    synthesize, averages, subtree sums and LeafFunction's lazy derivations."""
    global _OP_TALLY
    saved = _OP_TALLY
    _OP_TALLY = [0]
    try:
        yield OperationCount(_OP_TALLY)
    finally:
        _OP_TALLY = saved


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
    def is_left_child(self) -> bool:
        return self.level >= 1 and self.position % 2 == 0

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
        view = self.tree_inv_lengths[: self.haar_size]
        return view

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    if arr.flags.writeable:
        arr = np.array(arr, dtype=float)
        arr.setflags(write=False)
    return arr


def _check_rows(arr: np.ndarray, rows: int, message: str) -> None:
    """arr holds one entry per row, with at most a trailing batch axis."""
    if arr.ndim not in (1, 2) or arr.shape[0] != rows:
        raise ValueError(f"{message}, got {arr.shape}")


def as_column(per_interval: np.ndarray, data: np.ndarray) -> np.ndarray:
    """per_interval (one entry per row of data) shaped to broadcast along
    data's trailing batch axis, if it has one."""
    return per_interval if data.ndim == 1 else per_interval[:, None]


def _root_value(tree: np.ndarray):
    """tree[0]: a float, or a read-only row of k for a block."""
    return float(tree[0]) if tree.ndim == 1 else _read_only(tree[0])


class LeafFunction:
    """Real function piecewise constant on the leaves of a dyadic grid, or a
    block of k such functions held as the columns of (leaf_count, k) data.

    A LeafFunction is born from leaf values (the constructor), from a
    HaarSymbol (from_symbol) or from averaging-atom weights
    sum_I u_I h^1_I over Haar-bearing I (from_atoms).  values, symbol,
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
    def _born_as(cls, grid: Grid, born: str, data: np.ndarray, **form):
        f = cls.__new__(cls)
        shape = (grid.leaf_count,) + data.shape[1:]
        f.__dict__.update(grid=grid, shape=shape, _born=born, **form)
        return f

    @classmethod
    def from_symbol(cls, symbol: "HaarSymbol") -> "LeafFunction":
        """The function with these Haar coefficients and mean.  A writable
        coefficient array is copied, so the cached data cannot go stale."""
        coeff = symbol.coeff
        _check_rows(
            coeff, symbol.grid.haar_size, "expected one coefficient per Haar interval"
        )
        if coeff.flags.writeable:
            symbol = HaarSymbol(symbol.grid, _read_only(coeff), symbol.mean)
        return cls._born_as(symbol.grid, "symbol", coeff, symbol=symbol)

    @classmethod
    def from_atoms(cls, grid: Grid, weights: np.ndarray) -> "LeafFunction":
        """sum_I weights_I h^1_I over Haar-bearing I (h^1_I = 1_I / |I|).
        A writable weight array is copied, as in from_symbol."""
        weights = np.asarray(weights, dtype=float)
        _check_rows(
            weights, grid.haar_size, "expected one weight per Haar-bearing interval"
        )
        return cls._born_as(grid, "atoms", weights, _atoms=_read_only(weights))

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
        return self.averages.tree[Grid.level_slice(self.grid.depth)]

    @cached_property
    def averages(self) -> "MultiscaleAverages":
        if self._born == "values":
            return averages(self)
        return MultiscaleAverages(self.grid, _synthesis_tree(self.symbol))

    @cached_property
    def symbol(self) -> "HaarSymbol":
        if self._born == "values":
            return analyze(self)
        # <h^1_I, h_J> = +-|J|^{-1/2} for I inside J-/J+, else 0
        grid = self.grid
        inside = subtree_sums(grid, self._atoms)
        coeff = (inside[1::2] - inside[2::2]) * as_column(
            grid.haar_inv_sqrt_lengths, inside
        )
        _tally(2 * coeff.size)
        coeff.setflags(write=False)
        return HaarSymbol(grid, coeff, _root_value(inside))


@dataclass(frozen=True, eq=False)
class MultiscaleAverages:
    """Exact average of a leaf function over every interval of the grid."""

    grid: Grid
    tree: np.ndarray  # level-contiguous, levels 0..depth

    def __getitem__(self, index: DyadicIndex) -> float:
        return float(self.tree[index.flat_offset])

    @property
    def haar_part(self) -> np.ndarray:
        """Averages restricted to the Haar-bearing levels 0..depth-1."""
        return self.tree[: self.grid.haar_size]


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
    vals = f.values
    tree = np.empty((f.grid.tree_size,) + vals.shape[1:])
    tree[Grid.level_slice(n)] = vals * (2.0**-n)
    _tally(vals.size)
    for lev in range(n - 1, -1, -1):
        child = tree[Grid.level_slice(lev + 1)]
        level = tree[Grid.level_slice(lev)]
        np.add(child[0::2], child[1::2], out=level)
        _tally(level.size)
    return tree


def averages(f: LeafFunction) -> MultiscaleAverages:
    """Averages of f over all dyadic intervals, one upward sweep."""
    ints = _integral_tree(f)
    tree = ints * as_column(f.grid.tree_inv_lengths, ints)
    _tally(tree.size)
    tree.setflags(write=False)
    return MultiscaleAverages(f.grid, tree)


def analyze(f: LeafFunction) -> HaarSymbol:
    """Haar coefficients of f plus the mean, one upward sweep."""
    ints = _integral_tree(f)
    coeff = (ints[1::2] - ints[2::2]) * as_column(f.grid.haar_inv_sqrt_lengths, ints)
    _tally(2 * coeff.size)
    coeff.setflags(write=False)
    return HaarSymbol(f.grid, coeff, _root_value(ints))


def _synthesis_tree(symbol: HaarSymbol) -> np.ndarray:
    """Averages over every interval from Haar data, one downward sweep:
    <f>_{I-} = <f>_I + coeff_I |I|^{-1/2}, <f>_{I+} = <f>_I - coeff_I |I|^{-1/2}."""
    grid, coeff = symbol.grid, symbol.coeff
    steps = coeff * as_column(grid.haar_inv_sqrt_lengths, coeff)
    tree = np.empty((grid.tree_size,) + coeff.shape[1:])
    tree[0] = symbol.mean
    for lev in range(grid.depth):
        level = Grid.level_slice(lev)
        parent, step = tree[level], steps[level]
        child = tree[Grid.level_slice(lev + 1)]
        np.add(parent, step, out=child[0::2])
        np.subtract(parent, step, out=child[1::2])
        _tally(3 * parent.size)
    tree.setflags(write=False)
    return tree


def synthesize(symbol: HaarSymbol) -> LeafFunction:
    """Rebuild the leaf function from Haar coefficients, one downward sweep."""
    tree = _synthesis_tree(symbol)
    return LeafFunction(symbol.grid, tree[Grid.level_slice(symbol.grid.depth)])


def subtree_sums(grid: Grid, haar_values: np.ndarray) -> np.ndarray:
    """Sum of a Haar-indexed quantity over all Haar-bearing J inside each I.

    Returns a level-contiguous array over ALL levels 0..depth; leaf entries
    are 0 (a leaf contains no Haar-bearing interval).
    """
    _check_rows(
        haar_values, grid.haar_size, "expected one value per Haar-bearing interval"
    )
    out = np.zeros((grid.tree_size,) + haar_values.shape[1:])
    n = grid.depth
    out[Grid.level_slice(n - 1)] = haar_values[Grid.level_slice(n - 1)]
    for lev in range(n - 2, -1, -1):
        level = Grid.level_slice(lev)
        child = out[Grid.level_slice(lev + 1)]
        total = out[level]
        np.add(haar_values[level], child[0::2], out=total)
        total += child[1::2]
        _tally(2 * total.size)
    return out


def sum_interval_constants(grid: Grid, haar_constants: np.ndarray) -> np.ndarray:
    """Leaf values of sum_I c_I 1_I over Haar-bearing I, one downward sweep."""
    rows = grid.haar_size
    _check_rows(haar_constants, rows, "expected one constant per Haar-bearing interval")
    acc = haar_constants[Grid.level_slice(0)].copy()
    for lev in range(1, grid.depth):
        acc = np.repeat(acc, 2, axis=0) + haar_constants[Grid.level_slice(lev)]
        _tally(acc.size)
    return np.repeat(acc, 2, axis=0)


def gather_left_child(grid: Grid, haar_values: np.ndarray) -> np.ndarray:
    """out_I = value at I- for I at levels 0..depth-2, 0 at level depth-1."""
    out = np.zeros((grid.haar_size,) + haar_values.shape[1:])
    out[: grid.haar_size // 2] = haar_values[1::2]
    return out


# --------------------------------------------------------------------------
# Haar atoms, sign convention, product formula


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


def delta_sign(J: DyadicIndex, I: DyadicIndex) -> int:
    """+1 if J lies in the left child of I, -1 if in the right, else 0."""
    if not I.strictly_contains(J):
        return 0
    return 1 if I.left.contains(J) else -1


def product_formula_coeff(f: LeafFunction, g: LeafFunction, I: DyadicIndex) -> float:
    """Haar coefficient of the pointwise product f*g at I, assembled from
    the coefficients and averages of the factors:

        sum_{J strictly inside I} fhat(J) ghat(J) delta(J,I) / sqrt(|I|)
          + fhat(I) <g>_I + ghat(I) <f>_I
    """
    grid = f.grid
    if I.level >= grid.depth:
        raise ValueError(f"{I} is not Haar-bearing at depth {grid.depth}")
    fs, gs = f.symbol, g.symbol
    sub = subtree_sums(grid, fs.coeff * gs.coeff)
    inner_sum = (sub[I.left.flat_offset] - sub[I.right.flat_offset]) * 2.0 ** (
        I.level / 2
    )
    return float(inner_sum + fs[I] * g.averages[I] + gs[I] * f.averages[I])
