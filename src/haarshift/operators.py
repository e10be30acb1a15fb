"""Linear operators on the dyadic grid: paraproducts, pointwise multipliers,
Haar shifts, and the composition operators of the weighted resolution.
Every Haar-coefficient map (paraproducts, shifts, and the four resolution
terms that close into one) is a Paraproduct with an atom placement.

Every operator applies matrix-free in O(2**depth) via tree sweeps; a dense
materialization exists only as an oracle for small depths (see norms).
A paraproduct returns its result in the Haar form it computed (a
LeafFunction born from a symbol or from averaging-atom weights), so a
composition passes Haar data from factor to factor and sweeps to leaf
values only where something reads them.
Operators apply to a block of functions (a LeafFunction with a trailing
batch axis) in the same sweeps as to one, column by column bit-identical
to single-column calls.
Operators are immutable and stateless after construction: apply and
adjoint_apply are pure and safe to call concurrently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import (
    Grid,
    LeafFunction,
    as_column,
)
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


class DyadicOperator:
    """A linear map on leaf functions with forward and adjoint application."""

    label: str = "operator"
    annihilates_constants: bool = False

    def __init__(self, grid: Grid):
        self.grid = grid

    def apply(self, f: LeafFunction) -> LeafFunction:
        raise NotImplementedError

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} depth={self.grid.depth}>"


class Paraproduct(DyadicOperator):
    """P^{(a,b)}_s : f -> sum_I s_I <f, h_I^b> atom_a(I') over Haar-bearing I.

    kind[1] = b says what apply reads: "0" Haar coefficients, "1" averages;
    kind[0] = a says what it emits in the same code.  shift places the
    scaled weights: at I (identity), at I- (half), or as I- minus I+ (full);
    the last two drop the finest Haar level, whose children are leaves.
    With shift "half" this is the paraproduct composed with h_I -> h_{I-}.
    outer scales each placed weight by its value at the output interval
    (I-, and I+ for "full"), so P^{(a,b)}_s placed and scaled by t equals
    P^{(a,0)}_t o shift o P^{(0,b)}_s.  A symbol or outer of None is the
    unit symbol, whose multiply is skipped (HaarShift).
    """

    def __init__(
        self,
        grid: Grid,
        symbol: np.ndarray | None,
        kind: str,
        label: str = "",
        shift: str = "identity",
        outer: np.ndarray | None = None,
    ):
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
    def _measure(f: LeafFunction, atom: str) -> np.ndarray:
        return f.symbol.coeff if atom == "0" else f.haar_averages

    def _emit(self, weights: np.ndarray, atom: str) -> LeafFunction:
        # the output keeps its Haar data: the next factor reads .symbol or
        # .haar_averages without a sweep to leaf values and back
        if atom == "0":
            mean = 0.0 if weights.ndim == 1 else np.zeros(weights.shape[1])
            return LeafFunction._adopt(self.grid, weights, mean)
        weights.setflags(write=False)
        return LeafFunction.from_atoms(self.grid, weights)

    @staticmethod
    def _scaled(symbol: np.ndarray | None, weights: np.ndarray) -> np.ndarray:
        """symbol * weights on weights' rows (None: the unit symbol), written
        into weights when this apply made it (a LeafFunction's are read-only)."""
        if symbol is None:
            return weights
        out = weights if weights.flags.writeable else None
        return np.multiply(as_column(symbol[: len(weights)], weights), weights, out=out)

    def apply(self, f: LeafFunction) -> LeafFunction:
        weights = self._measure(f, self.kind[1])
        if self.shift == "identity":
            weights = self._scaled(self.symbol, weights)
        else:
            # the shift places levels 0..depth-2 only: scale just those
            src = self._scaled(self.symbol, weights[: self.grid.haar_size // 2])
            weights = np.zeros((self.grid.haar_size,) + src.shape[1:])
            weights[1::2] = src
            if self.shift == "full":
                weights[2::2] = -src
        return self._emit(self._scaled(self.outer, weights), self.kind[0])

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        weights = self._measure(f, self.kind[0])
        outer = self.outer
        if self.shift == "identity":
            weights = self._scaled(outer, weights)
        else:
            # gather I- (minus I+ for full) into I, scaled by outer only there
            gathered = np.zeros(weights.shape)
            head = gathered[: self.grid.haar_size // 2]
            if outer is None:
                head[...] = weights[1::2]
            else:
                np.multiply(as_column(outer[1::2], head), weights[1::2], out=head)
            if self.shift == "full":
                right = weights[2::2]
                head -= right if outer is None else as_column(outer[2::2], head) * right
            weights = gathered
        # every entry, zeros too, so each keeps the sign of zero the product gives
        return self._emit(self._scaled(self.symbol, weights), self.kind[1])


class MeanCorrection(DyadicOperator):
    """Rank-one piece f -> c * <f>_{[0,1)} * 1; closes the finite-model
    multiplier decomposition on constants."""

    def __init__(self, grid: Grid, scalar: float, label: str = "mean"):
        super().__init__(grid)
        self.scalar = float(scalar)
        self.label = label

    def apply(self, f: LeafFunction) -> LeafFunction:
        return LeafFunction(self.grid, np.broadcast_to(self.scalar * f.mean(), f.shape))

    adjoint_apply = apply


class Multiplier(DyadicOperator):
    """Pointwise multiplication by a leaf function; self-adjoint."""

    def __init__(self, grid: Grid, b: LeafFunction, label: str = "M_b"):
        super().__init__(grid)
        self.b = b
        self.label = label

    def apply(self, f: LeafFunction) -> LeafFunction:
        b = self.b.values
        return LeafFunction._adopt(self.grid, as_column(b, f.values) * f.values)

    adjoint_apply = apply


class HaarShift(Paraproduct):
    """Dyadic shift acting on Haar coefficients: the unit-symbol "00"
    paraproduct with the output atom placed by kind.

    half: h_I -> h_{I-};  full: h_I -> h_{I-} - h_{I+};  identity: h_I -> h_I.
    All kinds annihilate the mean coefficient, and (half/full) drop the
    finest Haar level, whose image would need resolution beyond the grid.
    """

    def __init__(self, grid: Grid, kind: str):
        super().__init__(grid, None, "00", f"shift_{kind}", kind)


class Composition(DyadicOperator):
    """Composition in mathematical order: factors[0] is applied last."""

    def __init__(self, factors: Sequence[DyadicOperator], label: str = ""):
        super().__init__(factors[0].grid)
        self.factors = tuple(factors)
        self.label = label or "*".join(op.label for op in self.factors)
        self.annihilates_constants = self.factors[-1].annihilates_constants

    def apply(self, f: LeafFunction) -> LeafFunction:
        for op in reversed(self.factors):
            f = op.apply(f)
        return f

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        for op in self.factors:
            f = op.adjoint_apply(f)
        return f


class OperatorSum(DyadicOperator):
    def __init__(self, terms: Sequence[DyadicOperator], label: str = ""):
        super().__init__(terms[0].grid)
        self.terms = tuple(terms)
        self.label = label or "+".join(op.label for op in self.terms)
        self.annihilates_constants = all(op.annihilates_constants for op in self.terms)

    def apply(self, f: LeafFunction) -> LeafFunction:
        out = np.zeros(f.shape)
        for op in self.terms:
            out += op.apply(f).values
        return LeafFunction._adopt(self.grid, out)

    def adjoint_apply(self, f: LeafFunction) -> LeafFunction:
        out = np.zeros(f.shape)
        for op in self.terms:
            out += op.adjoint_apply(f).values
        return LeafFunction._adopt(self.grid, out)


# --------------------------------------------------------------------------
# constructors


def multiplier_pieces(b: LeafFunction) -> dict[str, DyadicOperator]:
    """The exact finite-model decomposition of M_b into four pieces:

        M_b = P^{(0,1)}_{bhat} + P^{(1,0)}_{bhat} + P^{(0,0)}_{<b>} + mean term.

    The rank-one mean term is absent in the three-term decomposition on the
    line; here it restores exactness on constants.
    """
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

