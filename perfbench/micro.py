"""Layer microbenchmarks through haarshift's public API.

``LeafFunction.symbol`` and ``.averages`` are cached properties, so every
timed call gets a fresh ``LeafFunction`` (as the norm engine does) or a
fresh weight built outside the timed region.  Inputs come from a fixed
seed; each timing is the median of several batches after a warm-up.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from haarshift import cli, grid as grid_mod
from haarshift.estimates import corona, inequality_battery, s_pi_sharp_ratio
from haarshift.grid import DyadicIndex, Grid, LeafFunction, analyze, averages, synthesize
from haarshift.norms import dense_norm
from haarshift.operators import Paraproduct, conjugated_shift, resolution_pieces
from haarshift.weights import WeightSpec, a2_characteristic, make_weight

from workloads import TERMS

INPUT_SEED = 20130826
CASCADE = WeightSpec("cascade", eps=0.45, seed=5)  # a sweep-contrast-d14 weight
BATCH_S = 0.02
BATCHES = 7
FRESH_REPS = 9


def time_batched(fn) -> float:
    """Median seconds per call over BATCHES batches of about BATCH_S each."""
    for _ in range(3):
        fn()
    t0 = perf_counter()
    fn()
    reps = max(1, int(BATCH_S / max(perf_counter() - t0, 1e-7)))
    means = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        means.append((perf_counter() - t0) / reps)
    return statistics.median(means)


def time_fresh(prepare, fn, reps: int = FRESH_REPS) -> float:
    """Median seconds of fn(prepare()), timing fn only; one warm-up call."""
    fn(prepare())
    times = []
    for _ in range(reps):
        arg = prepare()
        t0 = perf_counter()
        fn(arg)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _leaf_input(depth: int) -> np.ndarray:
    return np.random.default_rng(INPUT_SEED + depth).uniform(-1.0, 1.0, 1 << depth)


def _terms(w, shift: str = "half") -> dict:
    ops = resolution_pieces(w, shift)
    ops["M_conj"] = conjugated_shift(w, shift)
    return {term: ops[term] for term in TERMS}


def _matvec(op, g: Grid, x: np.ndarray):
    return lambda: op.adjoint_apply(op.apply(LeafFunction(g, x)))


def grid_metrics(metrics: dict) -> None:
    for depth in (10, 12, 14):
        g = Grid(depth)
        x = _leaf_input(depth)
        symbol = analyze(LeafFunction(g, x))
        metrics[f"grid.analyze_us.d{depth}"] = (
            1e6 * time_batched(lambda: analyze(LeafFunction(g, x))), "us")
        metrics[f"grid.synthesize_us.d{depth}"] = (
            1e6 * time_batched(lambda: synthesize(symbol)), "us")
        metrics[f"grid.averages_us.d{depth}"] = (
            1e6 * time_batched(lambda: averages(LeafFunction(g, x))), "us")


def elem_op_metrics(metrics: dict, notes: list[str]) -> None:
    """Elementwise operations per T*T matvec at depth 12, as counted by
    grid.count_operations; reported missing when that counter is gone."""
    counter = getattr(grid_mod, "count_operations", None)
    if counter is None:
        notes.append("grid.count_operations is gone: grid.elem_ops_per_matvec.* missing")
        return
    g = Grid(12)
    x = _leaf_input(12)
    w = make_weight(WeightSpec("power", alpha=0.3), g)
    for term, op in _terms(w).items():
        with counter() as count:
            _matvec(op, g, x)()
        metrics[f"grid.elem_ops_per_matvec.{term}"] = (count.total, "count")


def weight_metrics(metrics: dict) -> None:
    g12, g14 = Grid(12), Grid(14)
    power = WeightSpec("power", alpha=0.3)
    metrics["weights.make_weight_ms.power.d12"] = (
        1e3 * time_fresh(lambda: power, lambda s: make_weight(s, g12)), "ms")
    metrics["weights.make_weight_ms.cascade.d14"] = (
        1e3 * time_fresh(lambda: CASCADE, lambda s: make_weight(s, g14)), "ms")
    metrics["weights.a2_ms.d14"] = (
        1e3 * time_fresh(lambda: make_weight(CASCADE, g14), a2_characteristic), "ms")


def operator_metrics(metrics: dict) -> None:
    weights = {
        12: make_weight(WeightSpec("power", alpha=0.3), Grid(12)),
        14: make_weight(CASCADE, Grid(14)),
    }
    for depth, w in weights.items():
        x = _leaf_input(depth)
        for term, op in _terms(w).items():
            metrics[f"operators.matvec_us.{term}.d{depth}"] = (
                1e6 * time_batched(_matvec(op, w.grid, x)), "us")
    metrics["operators.build_ms.d14"] = (
        1e3 * time_fresh(lambda: make_weight(CASCADE, Grid(14)), _terms), "ms")


def norm_metrics(metrics: dict) -> None:
    g = Grid(6)
    symbol = np.random.default_rng(INPUT_SEED).normal(size=g.haar_size)
    op = Paraproduct(g, symbol, "01")
    metrics["norms.dense_norm_ms.d6"] = (
        1e3 * time_fresh(lambda: op, dense_norm), "ms")


def estimate_metrics(metrics: dict) -> None:
    spec = WeightSpec("power", alpha=0.3)

    def fresh():
        return make_weight(spec, Grid(12))

    metrics["estimates.battery_ms.d12"] = (
        1e3 * time_fresh(fresh, inequality_battery), "ms")
    metrics["estimates.corona_ms.d12"] = (
        1e3 * time_fresh(fresh, lambda w: corona(w, DyadicIndex(0, 0), 2.0)), "ms")
    metrics["estimates.sharp_ratio_ms.d12"] = (
        1e3 * time_fresh(fresh, s_pi_sharp_ratio), "ms")


def cli_metrics(metrics: dict) -> None:
    """fit_slopes on a fixed synthetic 5-parameter sweep."""
    rng = np.random.default_rng(INPUT_SEED)
    rows = []
    for k in range(5):
        a2 = 1.5 * 2.0**k
        for term in TERMS:
            norm = a2 ** rng.uniform(0.2, 1.0)
            rows.append(cli.SweepRow("cascade", 0.15 * (k + 1), 14, "half", term,
                                     a2, norm, norm / a2))
    metrics["cli.fit_ms"] = (1e3 * time_batched(lambda: cli.fit_slopes(rows)), "ms")


def run_all(notes: list[str]) -> dict:
    metrics: dict = {}
    grid_metrics(metrics)
    elem_op_metrics(metrics, notes)
    weight_metrics(metrics)
    operator_metrics(metrics)
    norm_metrics(metrics)
    estimate_metrics(metrics)
    cli_metrics(metrics)
    return metrics
