"""A2 weights on the dyadic grid: parameterized families, the A2
characteristic, derived powers, and the disbalanced Haar data C and D as
level-contiguous arrays over every Haar-bearing interval.

The reciprocal and square-root weights are pointwise transforms of the leaf
values (not re-discretizations), so w^{1/2} * w^{-1/2} = 1 holds exactly and
conjugation identities can be tested at machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, LeafFunction, averages

__all__ = [
    "WeightSpec",
    "Weight",
    "make_weight",
    "a2_characteristic",
    "disbalanced_data",
]

# each family's parameters, the one a sweep varies first: the spec grammar,
# label() and the sweep's row parameter all read this table
FAMILIES = {
    "constant": ("c",),
    "power": ("alpha",),
    "cascade": ("eps", "seed"),
    "step": ("a", "b", "split"),
}

# largest max(w)/min(w) accepted: past it the sweeps cancel (step weights,
# depth 8: dense Q_00_00 off its closed form by 2e-14 at 1e20, 6e-6 at 1e28)
MAX_DYNAMIC_RANGE = 1e16
# weight values lie in [TINY, 1/TINY], so that 1/w is a normal double too
TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class WeightSpec:
    """Parameter bundle for one weight family.

    Text form (CLI): ``<family>:<name>=<value>,...`` with each name in
    FAMILIES[family] exactly once, e.g. ``cascade:eps=0.4,seed=7``.
    """

    family: str
    c: float = 1.0
    alpha: float = 0.0
    eps: float = 0.0
    seed: int = 0
    a: float = 1.0
    b: float = 1.0
    split: float = 0.5

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")

    def validate(self) -> None:
        if self.family == "constant" and not self.c > 0:
            raise ValueError("constant weight needs c > 0")
        if self.family == "power" and not -1.0 < self.alpha < 1.0:
            raise ValueError("power weight needs -1 < alpha < 1")
        if self.family == "cascade":
            if not 0.0 <= self.eps < 1.0:
                raise ValueError("cascade weight needs 0 <= eps < 1")
            if self.seed < 0:
                raise ValueError("cascade seed must be a nonnegative integer")
        if self.family == "step":
            if not (self.a > 0 and self.b > 0):
                raise ValueError("step weight needs a > 0 and b > 0")
            if not 0.0 <= self.split <= 1.0:
                raise ValueError("step split must lie in [0, 1]")

    @classmethod
    def parse(cls, text: str) -> "WeightSpec":
        """Parse the CLI grammar, e.g. ``cascade:eps=0.4,seed=7``: each of
        the family's parameters exactly once, and no other."""
        family, _, rest = text.partition(":")
        family = family.strip()
        if family not in FAMILIES:
            raise ValueError(f"unknown weight family {family!r} in {text!r}")
        names = FAMILIES[family]
        items = [item.partition("=") for item in rest.split(",")]
        given = {key.strip(): value for key, sep, value in items if sep}
        if len(given) != len(items) or sorted(given) != sorted(names):
            raise ValueError(
                f"weight spec {text!r} must set each {family} parameter "
                f"({', '.join(names)}) exactly once, and no other"
            )
        spec = cls(
            family,
            **{k: int(v) if k == "seed" else float(v) for k, v in given.items()},
        )
        spec.validate()
        return spec

    def label(self) -> str:
        """The spec in the CLI grammar: floats as :g, the seed as an integer."""
        parts = []
        for name in FAMILIES[self.family]:
            value = getattr(self, name)
            parts.append(f"{name}={value}" if name == "seed" else f"{name}={value:g}")
        return f"{self.family}:" + ",".join(parts)


@dataclass(frozen=True, eq=False)
class Weight:
    """Strictly positive leaf function with cached derived powers.

    Averages and Haar coefficients of each power are cached on the
    underlying LeafFunctions.  All fields are immutable; instances are safe
    to share across workers.
    """

    w: LeafFunction
    w_inv: LeafFunction
    w_half: LeafFunction
    w_inv_half: LeafFunction

    @classmethod
    def from_values(cls, grid: Grid, values: np.ndarray) -> "Weight":
        vals = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ValueError("weight values must be strictly positive and finite")
        if vals.min() < TINY or vals.max() > 1.0 / TINY:
            raise ValueError(
                f"weight values must lie in [{TINY:g}, {1.0 / TINY:g}], "
                "so that 1/w is a normal double"
            )
        if vals.max() / vals.min() > MAX_DYNAMIC_RANGE:
            raise ValueError(f"weight dynamic range exceeds {MAX_DYNAMIC_RANGE:g}")
        half = np.sqrt(vals)
        return cls(
            w=LeafFunction(grid, vals),
            w_inv=LeafFunction(grid, 1.0 / vals),
            w_half=LeafFunction(grid, half),
            w_inv_half=LeafFunction(grid, 1.0 / half),
        )

    @property
    def grid(self) -> Grid:
        return self.w.grid

    def dual(self) -> "Weight":
        """Swap w and 1/w; fixes the A2 characteristic exactly."""
        return Weight(
            w=self.w_inv, w_inv=self.w, w_half=self.w_inv_half, w_inv_half=self.w_half
        )


def make_weight(spec: WeightSpec, grid: Grid) -> Weight:
    """Realize a WeightSpec as leaf values on the given grid."""
    spec.validate()
    n = grid.depth
    if spec.family == "constant":
        vals = np.full(grid.leaf_count, spec.c)
    elif spec.family == "power":
        vals = _power_cell_averages(spec.alpha, n)
    elif spec.family == "cascade":
        vals = _cascade_values(spec.eps, spec.seed, n)
    else:  # step
        if (spec.split * grid.leaf_count) % 1.0 != 0.0:
            raise ValueError(f"step split {spec.split:g} is not a multiple of 2**-{n}")
        edges = np.arange(1, grid.leaf_count + 1) * 2.0**-n
        vals = np.where(edges <= spec.split, spec.a, spec.b)
    return Weight.from_values(grid, vals)


def _power_cell_averages(alpha: float, depth: int) -> np.ndarray:
    """Exact cell averages of x**alpha over the leaves, in closed form."""
    if alpha == 0.0:
        return np.ones(1 << depth)
    j = np.arange((1 << depth) + 1, dtype=float)
    edges = j * 2.0**-depth
    anti = edges ** (alpha + 1.0) / (alpha + 1.0)
    return np.diff(anti) * 2.0**depth


def _cascade_values(eps: float, seed: int, depth: int) -> np.ndarray:
    """Multiplicative cascade driven by the Philox counter-based generator.

    At each internal node one child (by a seeded coin flip) gets the factor
    (1+eps), the other (1-eps); identical (eps, seed, depth) give
    bit-identical leaves.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    vals = np.ones(1)
    for lev in range(depth):
        bits = rng.integers(0, 2, size=1 << lev)
        left = np.where(bits == 0, 1.0 + eps, 1.0 - eps)
        nxt = np.empty(2 << lev)
        nxt[0::2] = vals * left
        nxt[1::2] = vals * (2.0 - left)
        vals = nxt
    return vals


def a2_characteristic(weight: Weight) -> float:
    """[w]_{A2}: max of <w>_I <1/w>_I over every interval of the grid.  The
    two average trees are not cached on the weight: the norm rows read
    neither again, and at depth 14 they would hold 512 KiB for the call."""
    prod = averages(weight.w).tree * averages(weight.w_inv).tree
    # Cauchy-Schwarz gives <w>_I <1/w>_I >= 1 on every I; rounding of a
    # constant weight can land one ulp below
    return max(1.0, float(prod.max()))


def disbalanced_data(sigma: Weight) -> tuple[np.ndarray, np.ndarray]:
    """Disbalanced Haar data of sigma at every Haar-bearing K, as two
    level-contiguous arrays (C, D) read from sigma's average tree and Haar
    coefficients:

        C_K = sqrt(<sigma>_{K+} <sigma>_{K-} / <sigma>_K),
        D_K = sigma_hat(K) / <sigma>_K,

    so that h_K = C_K h_K^sigma + D_K h_K^1 exactly, with the
    sigma-normalized Haar function h_K^sigma = (h_K - D_K h_K^1) / C_K of
    unit norm in L2(sigma) and sigma-mean zero.
    """
    avg = sigma.w.averages.tree
    parent = avg[: sigma.grid.haar_size]
    return np.sqrt(avg[2::2] * avg[1::2] / parent), sigma.w.symbol.coeff / parent
