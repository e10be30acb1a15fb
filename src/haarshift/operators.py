"""Linear operators on the dyadic grid: paraproducts, pointwise multipliers,
Haar shifts, and the composition operators of the weighted resolution.
Every Haar-coefficient map (paraproducts, shifts, and the four resolution
terms that close into one) is a Paraproduct with an atom placement.

Every operator applies matrix-free in O(2**depth) via tree sweeps, to one
function or, column by column bit-identical, to a block (a dense matrix is
only an oracle, see norms).  Each runs one private kernel per direction,
_kernel(src, adjoint, ws, out): it reads a LeafFunction or a bare form (see
grid), a factor's output in the form it computed, and returns its own
form, written into out when given.  A composition hands each factor what
the one before wrote, births no LeafFunction between factors, and sweeps
to leaf values only where a factor reads them.  apply and adjoint_apply
run the kernels into fresh arrays and birth one LeafFunction at the
output; the norm engine runs them into a Workspace.  An operator without
a kernel overrides apply and adjoint_apply instead.  Operators are
immutable and stateless after construction, safe to apply concurrently.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .grid import Grid, LeafFunction, _Levels, _read, as_column
from .weights import Weight

__all__ = [
    "PARAPRODUCT_KINDS",
    "SHIFT_KINDS",
    "Q_LABELS",
    "DyadicOperator",
    "Paraproduct",
    "MeanCorrection",
    "Multiplier",
    "HaarShift",
    "Composition",
    "OperatorSum",
    "multiplier_pieces",
    "resolution_pieces",
    "conjugated_shift",
]

PARAPRODUCT_KINDS = ("01", "10", "00", "11")
SHIFT_KINDS = ("identity", "half", "full")

# stable operator labels used in CSV output and reports
Q_LABELS = tuple(
    f"Q_{left}_{right}" for left in ("01", "10", "00") for right in ("01", "10", "00")
)


class Workspace:
    """One norm-engine run's storage, each part made on first use: levels,
    the tree buffer every sweep shares; spare, written by turns with the
    run's output; out and nested, for the terms of a sum."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def __getattr__(self, name: str):
        grid = self.grid
        if name == "levels":
            value = _Levels(grid, np.empty(grid.tree_size))
        elif name in ("spare", "out", "nested"):
            value = Workspace(grid) if name == "nested" else np.empty(grid.leaf_count)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


def _run(steps, src, ws: Workspace | None = None, out: np.ndarray | None = None):
    """src through the (kernel, adjoint) steps in order: into fresh arrays,
    or into out and ws.spare by turns, the last kernel into out."""
    for i, (kernel, adjoint) in enumerate(steps):
        dest = None if ws is None else out if (len(steps) - i) % 2 else ws.spare
        src = kernel(src, adjoint, ws, dest)
    return src


def _steps(op, adjoint: bool) -> tuple:
    """op's (kernel, adjoint) steps; an object with only apply runs through it."""
    if isinstance(op, DyadicOperator):
        return op._steps(adjoint)
    return ((partial(DyadicOperator._kernel, op), adjoint),)


def _birth(grid: Grid, form) -> LeafFunction:
    """form's function, adopting a view, so a workspace stays writeable."""
    if isinstance(form, LeafFunction):
        return form
    born, data, mean = form
    return LeafFunction._adopt(grid, data.view(), mean, atoms=born == "atoms")


class DyadicOperator:
    """A linear map on leaf functions with forward and adjoint application,
    through its kernels (see the module docstring)."""

    label: str = "operator"
    annihilates_constants: bool = False

    def __init__(self, grid: Grid):
        self.grid = grid

    def apply(self, f: LeafFunction) -> LeafFunction:
        return _birth(self.grid, _run(self._steps(False), f))

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        return _birth(self.grid, _run(self._steps(True), f))

    def _steps(self, adjoint: bool) -> tuple:
        return ((self._kernel, adjoint),)

    def _kernel(self, src, adjoint: bool, ws, out):
        f = _birth(self.grid, src)
        return self.adjoint_apply(f) if adjoint else self.apply(f)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} depth={self.grid.depth}>"


class Paraproduct(DyadicOperator):
    """P^{(a,b)}_s : f -> sum_I s_I <f, h_I^b> atom_a(I') over Haar-bearing I.

    kind[1] = b is what apply reads ("0" Haar coefficients, "1" averages),
    kind[0] = a what it emits.  shift places the scaled weights at I
    (identity), I- (half) or I- minus I+ (full), dropping the finest Haar
    level; outer scales each placed weight at its output interval, so this
    is P^{(a,0)}_outer o shift o P^{(0,b)}_s.  None is the unit symbol, its
    multiply skipped.  A shifted kernel scales only what it places or
    gathers and writes each output entry once, zeroing what it leaves."""

    def __init__(self, grid: Grid, symbol: np.ndarray | None, kind: str, label: str = "",
                 shift: str = "identity", outer: np.ndarray | None = None):
        super().__init__(grid)
        if kind not in PARAPRODUCT_KINDS:
            raise ValueError(f"unknown paraproduct kind {kind!r}")
        if shift not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {shift!r}")
        self.symbol = self._checked(grid, symbol)
        self.outer = self._checked(grid, outer)
        self.kind = kind
        self.shift = shift
        self.label = label or f"P{kind}"
        # types reading Haar coefficients send constants to zero
        self.annihilates_constants = kind[1] == "0"

    @staticmethod
    def _checked(grid: Grid, symbol: np.ndarray | None) -> np.ndarray | None:
        if symbol is None:
            return None
        symbol = np.asarray(symbol, dtype=float)
        if symbol.shape != (grid.haar_size,):
            raise ValueError("symbol must have one entry per Haar-bearing interval")
        return symbol

    @staticmethod
    def _scaled(symbol, weights: np.ndarray, out=None) -> np.ndarray:
        """symbol * weights on weights' rows into out, else into weights when
        writeable (see grid), else fresh; None copies only into another out."""
        if out is None and weights.flags.writeable:
            out = weights
        if symbol is None:
            if out is not None and out is not weights:
                out[...] = weights
                return out
            return weights
        return np.multiply(as_column(symbol[: len(weights)], weights), weights, out=out)

    def _kernel(self, src, adjoint: bool, ws, out):
        # apply: measure, symbol *, place, outer *; the adjoint measures what
        # apply emits, gathers with outer, then symbol *
        grid, n, half = self.grid, self.grid.haar_size, self.grid.haar_size // 2
        rows = None if out is None else out[:n]
        first, last = (self.outer, self.symbol) if adjoint else (self.symbol, self.outer)
        reads, emits = self.kind if adjoint else self.kind[::-1]
        if self.shift == "identity":
            weights = _read(grid, src, reads, ws, rows)
            if first is not None:
                weights = self._scaled(first, weights, rows)
        else:
            measure = _read(grid, src, reads, ws)
            weights = np.empty((n,) + measure.shape[1:]) if rows is None else rows
            if adjoint:
                head = weights[:half]
                if first is None:
                    head[...] = measure[1::2]
                else:
                    np.multiply(as_column(first[1::2], head), measure[1::2], out=head)
                if self.shift == "full":
                    right = measure[2::2]
                    if first is not None:
                        scale = as_column(first[2::2], head)
                        right = np.multiply(scale, right, out=weights[half:-1])
                    head -= right
                weights[half:] = 0.0
            else:
                own = ws is None or measure.flags.writeable
                scratch = None if own else ws.levels.array[:half]
                placed = self._scaled(first, measure[:half], scratch)
                weights[0] = 0.0
                weights[1::2] = placed
                if self.shift == "full":
                    np.negative(placed, out=weights[2::2])
                else:
                    weights[2::2] = 0.0
        # every entry, zeros too, so each keeps the sign of zero the product gives
        weights = self._scaled(last, weights, rows)
        if emits == "1":
            return "atoms", weights, None
        return "symbol", weights, 0.0 if weights.ndim == 1 else np.zeros(weights.shape[1])


class MeanCorrection(DyadicOperator):
    """Rank-one piece f -> c * <f>_{[0,1)} * 1; closes the finite-model
    multiplier decomposition on constants.  Self-adjoint."""

    def __init__(self, grid: Grid, scalar: float, label: str = "mean"):
        super().__init__(grid)
        self.scalar = float(scalar)
        self.label = label

    def _kernel(self, src, adjoint: bool, ws, out):
        value = self.scalar * _read(self.grid, src, "mean", ws)
        if out is None:
            out = np.empty((self.grid.leaf_count,) + np.shape(value))
        out[...] = value
        return "values", out, None


class Multiplier(DyadicOperator):
    """Pointwise multiplication by a leaf function; self-adjoint."""

    def __init__(self, grid: Grid, b: LeafFunction, label: str = "M_b"):
        super().__init__(grid)
        self.b = b
        self.label = label

    def _kernel(self, src, adjoint: bool, ws, out):
        vals = _read(self.grid, src, "values", ws, out)
        return "values", np.multiply(as_column(self.b.values, vals), vals, out=out), None


class HaarShift(Paraproduct):
    """Dyadic shift on Haar coefficients, the unit-symbol "00" paraproduct:
    half h_I -> h_{I-}, full h_I -> h_{I-} - h_{I+}, identity h_I -> h_I."""

    def __init__(self, grid: Grid, kind: str):
        super().__init__(grid, None, "00", f"shift_{kind}", kind)


class Composition(DyadicOperator):
    """Composition in mathematical order: factors[0] is applied last.  Its
    steps are its factors' kernels in turn."""

    def __init__(self, factors: Sequence[DyadicOperator], label: str = ""):
        super().__init__(factors[0].grid)
        self.factors = tuple(factors)
        self.label = label or "*".join(op.label for op in self.factors)
        self.annihilates_constants = self.factors[-1].annihilates_constants

    def _steps(self, adjoint: bool) -> tuple:
        factors = self.factors if adjoint else self.factors[::-1]
        return tuple(step for op in factors for step in _steps(op, adjoint))


class OperatorSum(DyadicOperator):
    def __init__(self, terms: Sequence[DyadicOperator], label: str = ""):
        super().__init__(terms[0].grid)
        self.terms = tuple(terms)
        self.label = label or "+".join(op.label for op in self.terms)
        self.annihilates_constants = all(op.annihilates_constants for op in self.terms)

    def _kernel(self, src, adjoint: bool, ws, out):
        # every term reads src, so none may write it; the terms run in a
        # nested workspace and add their leaf values to zeros, in order
        if not isinstance(src, LeafFunction):
            src = src[0], src[1].view(), src[2]
            src[1].flags.writeable = False
        sub = None if ws is None else ws.nested
        if out is not None:
            out.fill(0.0)
        for op in self.terms:
            dest = None if sub is None else sub.out
            term = _run(_steps(op, adjoint), src, sub, dest)
            vals = _read(self.grid, term, "values", sub, dest)
            if out is None:
                out = np.zeros(vals.shape)
            out += vals
        return "values", out, None


# --------------------------------------------------------------------------
# constructors


def multiplier_pieces(b: LeafFunction) -> dict[str, DyadicOperator]:
    """The exact finite-model decomposition M_b = P^{(0,1)}_{bhat} +
    P^{(1,0)}_{bhat} + P^{(0,0)}_{<b>} + a rank-one mean term, which the
    decomposition on the line lacks; here it restores exactness on constants."""
    grid = b.grid
    hat = b.symbol.coeff
    avg = b.haar_averages
    return {
        "01": Paraproduct(grid, hat, "01", "P01"),
        "10": Paraproduct(grid, hat, "10", "P10"),
        "00": Paraproduct(grid, avg, "00", "P00"),
        "mean": MeanCorrection(grid, b.symbol.mean),
    }


def resolution_pieces(w: Weight, shift: str) -> dict[str, DyadicOperator]:
    """All sixteen pieces of the conjugation expanded through the four-piece
    multiplier decomposition on both sides: nine paraproduct compositions
    keyed by their Q labels, plus the seven mean-involving cross pieces
    summed under the key "mean_cross".  Q_ab_cd with b = c = "0" (the shift
    passes h_I straight through) is one kind a+d paraproduct with the left
    symbol as outer, bit-identical to the composition."""
    grid = w.grid
    s = HaarShift(grid, shift)
    left = multiplier_pieces(w.w_half)
    right = multiplier_pieces(w.w_inv_half)
    pieces: dict[str, DyadicOperator] = {}
    for lk in ("01", "10", "00"):
        for rk in ("01", "10", "00"):
            label = f"Q_{lk}_{rk}"
            if lk[1] == rk[0] == "0":
                pieces[label] = Paraproduct(
                    grid, right[rk].symbol, lk[0] + rk[1], label, shift,
                    left[lk].symbol,
                )
            else:
                pieces[label] = Composition([left[lk], s, right[rk]], label=label)
    cross = [
        Composition([left["mean"], s, right[rk]]) for rk in ("01", "10", "00", "mean")
    ]
    cross += [Composition([left[lk], s, right["mean"]]) for lk in ("01", "10", "00")]
    pieces["mean_cross"] = OperatorSum(cross, label="mean_cross")
    return pieces


def conjugated_shift(w: Weight, shift: str) -> Composition:
    """M_{w^{1/2}} o shift o M_{w^{-1/2}}, applied factor by factor."""
    grid = w.grid
    return Composition(
        [
            Multiplier(grid, w.w_half, "M_w_half"),
            HaarShift(grid, shift),
            Multiplier(grid, w.w_inv_half, "M_w_inv_half"),
        ],
        label="M_conj",
    )

