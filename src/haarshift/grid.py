"""Finite dyadic grid on [0,1): intervals, Haar analysis, exact averages.

Functions are piecewise constant on the 2**depth finest-level intervals, so
every integral is a finite sum and identities hold at machine precision.
Per-interval data is level-contiguous: interval (level, position) sits at
flat offset 2**level - 1 + position; levels 0..depth-1 carry Haar functions
and level depth is the leaf level.  The layout is a binary heap: offset i
has its children at 2i+1 and 2i+2, so on a Haar-indexed array levels
0..depth-2 are [:haar_size // 2], their left children [1::2] and right
children [2::2].  Each sweep fills only the levels its reader uses (a
synthesis for Haar-level averages stops at depth-1; atom weights have no
coefficient on the finest Haar level, where each h^1_I is constant).

A function has three forms: leaf values, Haar coefficients with the mean,
and averaging-atom weights (sum_I u_I h^1_I over Haar-bearing I).  A
LeafFunction holds one and derives the others lazily, cached and read-only.
It has two births: the constructor LeafFunction(grid, values) copies its
values, and the private LeafFunction._adopt takes any form as a fresh array
or a view of one, without a copy, and sets it read-only.  Nothing may write
an adopted array through another reference while the function is alive.
Between operator kernels a function travels as a bare form (born, data,
mean), which _read sweeps with the lazy properties' arithmetic.  Writeable
form data belongs to the one kernel that reads it, which may write over it
(_read does so only in a workspace); read-only data (a LeafFunction's, the
engine's vector) is only read.  Sweeps write where their caller says.
averages(f) and LeafFunction.averages hold I's average at I.flat_offset.

Data may carry a trailing batch axis: a (leaf_count, k) block is k
functions (or weights) side by side.  Sweeps slice axis 0 only, so each
column gets a single-column call's arithmetic, and per-interval factors
broadcast along the batch axis (as_column).
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

    @cached_property
    def leaf_count(self) -> int:
        return 1 << self.depth

    @cached_property
    def haar_size(self) -> int:
        """Number of Haar-bearing intervals (levels 0..depth-1)."""
        return (1 << self.depth) - 1

    @cached_property
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _values_mean(values: np.ndarray):
    # each column summed in a single vector's (pairwise) order, so a block's
    # means equal its columns' bit for bit
    mean = np.ascontiguousarray(values.T).mean(axis=-1)
    return float(mean) if values.ndim == 1 else mean


class _Levels:
    """Views of a level-contiguous array, made once: level[l] holds level
    l's rows, left[l] and right[l] their even and odd rows."""

    def __init__(self, grid: Grid, array: np.ndarray):
        self.array = array
        self.level = [array[s] for s in grid.level_slices[: len(array).bit_length()]]
        self.left = [rows[0::2] for rows in self.level]
        self.right = [rows[1::2] for rows in self.level]


class LeafFunction:
    """Real function piecewise constant on the leaves of a dyadic grid, or a
    block of k of them as the columns of (leaf_count, k) data, held in one
    form (see the module docstring); shape is the shape of values."""

    grid: Grid
    shape: tuple

    def __init__(self, grid: Grid, values: np.ndarray):
        vals = np.array(values, dtype=float)
        _check_rows(vals, grid.leaf_count, f"expected {grid.leaf_count} leaf values")
        vals.setflags(write=False)
        self.__dict__.update(grid=grid, shape=vals.shape, _born="values", values=vals)

    @classmethod
    def _adopt(cls, grid: Grid, data: np.ndarray, mean=None, atoms: bool = False):
        """The adopting birth: leaf values, Haar coefficients with this mean,
        or (atoms) averaging-atom weights, set read-only, not copied."""
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

    def mean(self):
        """The mean over [0,1): a float, or one per column for a block."""
        if self._born == "values":
            return _values_mean(self.values)
        mean = self.symbol.mean
        return float(mean) if len(self.shape) == 1 else mean

    @cached_property
    def values(self) -> np.ndarray:
        if self._born == "atoms":
            return _frozen(_read(self.grid, ("atoms", self._atoms, None), "values"))
        return self.averages[self.grid.level_slices[-1]]

    @cached_property
    def averages(self) -> np.ndarray:
        # the full tree holds the Haar-level averages: drop a separate copy
        self.__dict__.pop("_haar_averages", None)
        if self._born == "values":
            return averages(self)
        return _frozen(_synthesis_tree(self.grid, self.symbol.coeff, self.symbol.mean))

    @property
    def haar_averages(self) -> np.ndarray:
        """averages[: haar_size], bit for bit, from the cheapest sweep for
        the form (or the full tree, when held)."""
        if "averages" in self.__dict__:
            return self.averages[: self.grid.haar_size]
        return self._haar_averages

    @cached_property
    def _haar_averages(self) -> np.ndarray:
        s = None if self._born == "values" else self.symbol
        form = ("values", self.values, None) if s is None else ("symbol", s.coeff, s.mean)
        return _frozen(_read(self.grid, form, "1"))

    @cached_property
    def symbol(self) -> "HaarSymbol":
        if self._born == "values":
            return analyze(self)
        grid, atoms = self.grid, self._atoms
        inside = _subtree_sums_into(grid, atoms, _Levels(grid, np.empty(atoms.shape)))
        coeff, mean = _child_differences(grid, inside)
        return HaarSymbol(grid, _frozen(coeff), mean)


@dataclass(frozen=True, eq=False)
class HaarSymbol:
    """Haar coefficients over levels 0..depth-1 plus the global mean; for a
    block, coeff is (haar_size, k) and mean an array of k."""

    grid: Grid
    coeff: np.ndarray  # level-contiguous, Haar-bearing levels only
    mean: float | np.ndarray


def _read(grid: Grid, src, want: str, ws=None, into: np.ndarray | None = None):
    """What a kernel reads of src: want "0" (Haar coefficients), "1" (Haar-
    level averages), "values" or "mean".  A LeafFunction serves its cached
    properties; a form, born "values", "symbol" or "atoms", is swept with
    their arithmetic, into fresh arrays or, given ws, into `into` or over
    the form's writeable data where they serve, else ws's tree buffer."""
    if isinstance(src, LeafFunction):
        if want == "0":
            return src.symbol.coeff
        if want == "1":
            return src.haar_averages
        return src.values if want == "values" else src.mean()
    born, data, mean = src
    if born == "symbol" and want == "0" or born == "values" and want == "values":
        return data
    if born == "values" and want == "mean":
        return _values_mean(data)
    n, levels = grid.haar_size, None if ws is None else ws.levels
    tree = None if levels is None else levels.array
    head, tail = (None, None) if tree is None else (tree[:n], tree[n : 2 * n])
    rows = None if into is None else into[:n]
    own = data[:n] if ws is not None and data.flags.writeable else None
    if born == "values":
        ints = _integral_tree(grid, data, levels)
        if want == "0":
            return _child_differences(grid, ints, _or(rows, own))[0]
        scale = as_column(grid.haar_inv_lengths, ints)
        avg = np.multiply(ints[:n], scale, out=_or(_or(rows, own), head))
        _tally(avg.size)
        return avg
    if born == "atoms":
        if want == "values":
            # the constants u_I / |I|, summed over the intervals holding each leaf
            scale = as_column(grid.haar_inv_lengths, data)
            consts = np.multiply(data, scale, out=_or(head, own))
            _tally(consts.size)
            levels = _Levels(grid, consts) if levels is None else levels
            return sum_interval_constants(grid, consts, into, levels)
        inside = _Levels(grid, np.empty(data.shape)) if levels is None else levels
        inside = _subtree_sums_into(grid, data, inside)[:n]
        coeff = _or(_or(rows, own) if want == "0" else own, tail)
        data, mean = _child_differences(grid, inside, coeff)
    if want in ("0", "mean"):
        return data if want == "0" else mean
    writeable = data if ws is not None and data.flags.writeable else None
    if want == "1":
        return _synthesis_tree(grid, data, mean, grid.depth - 1, levels, _or(tail, writeable))
    tree = _synthesis_tree(grid, data, mean, None, levels, _or(writeable, rows))
    return tree[grid.level_slices[-1]]


def _or(array, fallback):
    return fallback if array is None else array


# --------------------------------------------------------------------------
# transforms: one upward or downward sweep, O(2**depth) arithmetic


def _integral_tree(grid: Grid, vals: np.ndarray, levels=None) -> np.ndarray:
    """Integral of vals over every interval, one upward sweep, into levels."""
    n = grid.depth
    if levels is None:
        levels = _Levels(grid, np.empty((grid.tree_size,) + vals.shape[1:]))
    np.multiply(vals, 2.0**-n, out=levels.level[n])
    for lev in range(n - 1, -1, -1):
        np.add(levels.left[lev + 1], levels.right[lev + 1], out=levels.level[lev])
    # one operation per entry: the leaf scaling, then one add per parent
    _tally(levels.array.size)
    return levels.array


def averages(f: LeafFunction) -> np.ndarray:
    """Averages of f over all dyadic intervals, levels 0..depth
    level-contiguous and read-only, one upward sweep."""
    tree = _integral_tree(f.grid, f.values)
    tree *= as_column(f.grid.tree_inv_lengths, tree)
    _tally(tree.size)
    return _frozen(tree)


def _child_differences(grid: Grid, tree: np.ndarray, out: np.ndarray | None = None):
    """Haar coefficients (into out) and mean from integrals over levels 0..m:
    (tree[2i+1] - tree[2i+2]) |I|^{-1/2} on the parent rows, 0 below."""
    rows = len(tree) // 2
    coeff = np.empty((grid.haar_size,) + tree.shape[1:]) if out is None else out
    head = coeff[:rows]
    np.subtract(tree[1::2], tree[2::2], out=head)
    head *= as_column(grid.haar_inv_sqrt_lengths[:rows], head)
    if rows < len(coeff):
        coeff[rows:] = 0.0
    _tally(2 * head.size)
    return coeff, _root_value(tree)


def analyze(f: LeafFunction) -> HaarSymbol:
    """Haar coefficients of f plus the mean, one upward sweep."""
    coeff, mean = _child_differences(f.grid, _integral_tree(f.grid, f.values))
    return HaarSymbol(f.grid, _frozen(coeff), mean)


def _downward_tree(grid: Grid, root, plus: np.ndarray, minus: np.ndarray, levels=None):
    """The tree over levels 0..m from its root, one downward sweep, into the
    array of levels or a fresh one: parent p (levels 0..m-1) has the left
    child tree[p] + plus[p] and the right child tree[p] - minus[p]."""
    rows = 2 * len(plus) + 1
    if levels is None:
        levels = _Levels(grid, np.empty((rows,) + plus.shape[1:]))
    levels.array[0] = root
    slices = grid.level_slices
    for lev in range(len(plus).bit_length()):
        parent, step = levels.level[lev], plus[slices[lev]]
        np.add(parent, step, out=levels.left[lev + 1])
        step = step if minus is plus else minus[slices[lev]]
        np.subtract(parent, step, out=levels.right[lev + 1])
    _tally(2 * plus.size)
    return levels.array[:rows]


def _synthesis_tree(grid: Grid, coeff, mean, last_level=None, levels=None, steps=None):
    """Averages over every interval of levels 0..last_level (default depth)
    from Haar data, one downward sweep into levels, its steps into steps:
    <f>_{I-} = <f>_I + coeff_I |I|^{-1/2}, <f>_{I+} = <f>_I - coeff_I |I|^{-1/2}."""
    parents = (1 << (grid.depth if last_level is None else last_level)) - 1
    scale = as_column(grid.haar_inv_sqrt_lengths[:parents], coeff)
    out_steps = None if steps is None else steps[:parents]
    steps = np.multiply(coeff[:parents], scale, out=out_steps)
    _tally(steps.size)
    return _downward_tree(grid, mean, steps, steps, levels)


def synthesize(symbol: HaarSymbol) -> LeafFunction:
    """Rebuild the leaf function from Haar coefficients, one downward sweep."""
    tree = _synthesis_tree(symbol.grid, symbol.coeff, symbol.mean)
    return LeafFunction(symbol.grid, tree[symbol.grid.level_slices[-1]])


def _subtree_sums_into(grid: Grid, haar_values: np.ndarray, levels: _Levels):
    """Write the subtree sums of haar_values into the Haar rows (levels
    0..depth-1) of the array of levels, one upward sweep, and return it."""
    n = grid.depth
    slices = grid.level_slices
    levels.level[n - 1][...] = haar_values[slices[n - 1]]
    for lev in range(n - 2, -1, -1):
        total = levels.level[lev]
        np.add(haar_values[slices[lev]], levels.left[lev + 1], out=total)
        total += levels.right[lev + 1]
    _tally(2 * haar_values[: grid.haar_size // 2].size)
    return levels.array


def subtree_sums(grid: Grid, haar_values: np.ndarray) -> np.ndarray:
    """Sum of a Haar-indexed quantity over all Haar-bearing J inside each I,
    over all levels 0..depth (0 on the leaves, which contain no such J)."""
    message = "expected one value per Haar-bearing interval"
    _check_rows(haar_values, grid.haar_size, message)
    out = np.zeros((grid.tree_size,) + haar_values.shape[1:])
    return _subtree_sums_into(grid, haar_values, _Levels(grid, out))


def sum_interval_constants(grid: Grid, haar_constants, out=None, levels=None):
    """Leaf values (into out) of sum_I c_I 1_I over Haar-bearing I, one
    downward sweep of running sums, in a copy of haar_constants or, given
    levels (its _Levels), over haar_constants itself."""
    rows = grid.haar_size
    _check_rows(haar_constants, rows, "expected one constant per Haar-bearing interval")
    if levels is None:
        levels = _Levels(grid, np.array(haar_constants))
    for lev in range(1, grid.depth):
        acc = levels.level[lev - 1]
        np.add(acc, levels.left[lev], out=levels.left[lev])
        np.add(acc, levels.right[lev], out=levels.right[lev])
    _tally(haar_constants[1:].size)
    acc = levels.level[grid.depth - 1]
    if out is None:
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
