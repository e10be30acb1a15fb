"""Command-line harness: exit codes, CSV contract, determinism, reports."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from haarshift.cli import (
    CSV_HEADER,
    TERM_ORDER,
    SweepRow,
    build_parser,
    compute_norm_rows,
    fit_slopes,
    main,
    sweep_rows,
)
from haarshift import Grid, WeightSpec, disbalanced_data, shift_kernel_table
from haarshift.estimates import KERNEL_BLOCK_ENTRIES
from haarshift.verify import (
    CheckResult,
    _cet_sides,
    _check_orthonormality,
    _parseval_sides,
    run_verification,
)
from oracles import cet_sides_by_draw, parseval_sides_by_draw


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- verify ----------------------------------------------------------------


def test_verify_passes_and_prints_each_check():
    code, out, _ = _run(["verify", "--depth", "4", "--seed", "3"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 12
    assert all(l.startswith("PASS") for l in lines)


def test_verify_outcome_seed_independent():
    # depth 2 seed 7 draws inputs on which the Carleson embedding check
    # failed while it paired the constant with the wrong left side
    runs = [
        _run(["verify", "--depth", "4", "--seed", "1"]),
        _run(["verify", "--depth", "4", "--seed", "999"]),
        _run(["verify", "--depth", "2", "--seed", "7"]),
    ]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    names = lambda text: [l.split()[1] for l in text.splitlines() if "  " in l]
    assert names(runs[0][1]) == names(runs[1][1]) == names(runs[2][1])


@pytest.mark.parametrize("depth", [2, 8, 10])
@pytest.mark.parametrize("seed", [1, 7, 11])
def test_verify_blocked_draws_equal_single_draws_bit_for_bit(depth, seed):
    # carleson_embedding_factor4 reports max(0, worst excess), which reads
    # 0.0 whatever the draws: pin every draw's sides instead.  At depth 8
    # the 100 CET draws run as six blocks of 16 and a short block of 4.
    grid = Grid(depth)
    for blocked, single in (
        (_cet_sides, cet_sides_by_draw),
        (_parseval_sides, parseval_sides_by_draw),
    ):
        rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = blocked(grid, rng), single(grid, single_rng)
        assert [side.tobytes() for side in got] == [side.tobytes() for side in want]
        # the later checks see the stream of single draws
        assert rng.bit_generator.state == single_rng.bit_generator.state


def test_verify_depth_one_is_usage_error():
    code, _, err = _run(["verify", "--depth", "1", "--seed", "1"])
    assert code == 2


def test_verify_depth_cap():
    code, _, _ = _run(["verify", "--depth", "11", "--seed", "1"])
    assert code == 2
    for depth in (1, 11):
        with pytest.raises(ValueError, match="between 2 and 10"):
            run_verification(depth, 1)


def test_verify_failure_exits_one_and_names_the_failed_checks(monkeypatch):
    import haarshift.cli as cli

    results = [
        CheckResult("parseval", 1e-16, 1e-12),
        CheckResult("product_formula", 1.0, 1e-12),
    ]
    monkeypatch.setattr(cli, "run_verification", lambda depth, seed, tol: results)
    code, out, _ = _run(["verify", "--depth", "4"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL  product_formula  max_err=1.000e+00  tol=1e-12"
    assert lines[-2:] == ["1/2 checks passed", "failed checks: product_formula"]


def _c_squared(sigma):
    c, d = disbalanced_data(sigma)
    return c**2, d


def _d_negated(sigma):
    c, d = disbalanced_data(sigma)
    return c, -d


@pytest.mark.parametrize("wrong", [_c_squared, _d_negated])
def test_verify_fails_wrong_disbalanced_data(monkeypatch, wrong):
    import haarshift.verify as verify

    monkeypatch.setattr(verify, "disbalanced_data", wrong)
    results = {r.name: r for r in run_verification(4, 1)}
    assert not results["disbalanced_reconstruction"].passed


def _traced_peak(fn, *args):
    """tracemalloc peak of one call, after a first call warms lazy caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_kernel_table_peaks_a_few_blocks_above_the_table():
    # the atoms are shifted in blocks of KERNEL_BLOCK_ENTRIES leaf entries
    # (about 6 blocks' bytes of temporaries); one block of all 511 atoms
    # would peak MiBs above the table
    grid = Grid(8)
    table_bytes = grid.tree_size**2 * 8
    peak = _traced_peak(shift_kernel_table, grid, "half")
    assert peak <= table_bytes + 10 * (KERNEL_BLOCK_ENTRIES * 8)


def test_verify_orthonormality_holds_two_square_matrices():
    # the Haar functions as rows and their Gram matrix, reduced in place:
    # no list of leaf functions, stacked copy, identity or difference
    grid = Grid(8)
    square_bytes = grid.leaf_count**2 * 8
    assert _traced_peak(_check_orthonormality, grid) <= 2.5 * square_bytes


# -- norms -----------------------------------------------------------------


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_norms_flat_weight_rows():
    code, out, _ = _run(
        ["norms", "--weight", "constant:c=1", "--depth", "5", "--shift", "half"]
    )
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    rows = _parse_csv(out)
    assert [r["term"] for r in rows] == list(TERM_ORDER)
    by_term = {r["term"]: r for r in rows}
    assert float(by_term["Q_00_00"]["a2"]) == 1.0
    assert float(by_term["Q_00_00"]["norm"]) <= 1.0 + 1e-9
    for term in TERM_ORDER:
        if term not in ("Q_00_00", "M_conj"):
            assert float(by_term[term]["norm"]) < 1e-10


def test_norms_ratio_recomputable_from_row():
    code, out, _ = _run(
        ["norms", "--weight", "power:alpha=0.5", "--depth", "6"]
    )
    assert code == 0
    for row in _parse_csv(out):
        a2, norm, ratio = (float(row[k]) for k in ("a2", "norm", "ratio"))
        assert ratio == norm / a2  # 17 significant digits round-trip
        assert int(row["depth"]) == 6
        assert row["shift"] == "half"


def test_norms_resolution_identity_at_cli_level():
    # M_conj row equals the norm of the sum of all sixteen pieces
    code, out, _ = _run(
        ["norms", "--weight", "power:alpha=0.5", "--depth", "6", "--tol", "1e-10"]
    )
    rows = {r["term"]: float(r["norm"]) for r in _parse_csv(out)}
    from haarshift import Grid, WeightSpec, make_weight, operator_norm
    from haarshift.operators import OperatorSum, resolution_pieces

    w = make_weight(WeightSpec.parse("power:alpha=0.5"), Grid(6))
    total = OperatorSum(list(resolution_pieces(w, "half").values()))
    assert rows["M_conj"] == pytest.approx(
        operator_norm(total, tol=1e-10).value, rel=1e-7
    )


def test_norms_invalid_spec_usage_error(tmp_path):
    code, _, err = _run(["norms", "--weight", "power:alpha=2", "--depth", "5"])
    assert code == 2
    # each of the family's parameters exactly once: a missing, foreign or
    # repeated one never falls back to a default
    out_file = tmp_path / "rows.csv"
    for spec, names in (
        ("power", "alpha"),
        ("power:a=0.5", "alpha"),
        ("cascade:eps=0.4", "eps, seed"),
        ("cascade:alpha=0.5", "eps, seed"),
        ("power:alpha=0.5,seed=3", "alpha"),
        ("power:alpha=0.5,alpha=0.9", "alpha"),
    ):
        argv = ["norms", "--weight", spec, "--depth", "5", "--out", str(out_file)]
        code, out, err = _run(argv)
        assert code == 2 and out == ""
        assert f"parameter ({names}) exactly once" in err
        assert not out_file.exists()
    code, _, _ = _run(["norms", "--weight", "blob:x=1", "--depth", "5"])
    assert code == 2
    # a step split must lie on the grid (non-dyadic at depth 4)
    code, _, _ = _run(["norms", "--weight", "step:a=4,b=1,split=0.3", "--depth", "4"])
    assert code == 2


def test_norms_weight_dynamic_range_usage_error():
    code, out, err = _run(
        ["norms", "--weight", "step:a=1e-300,b=1,split=0.5", "--depth", "4"]
    )
    assert code == 2
    assert out == "" and "dynamic range" in err


def test_norms_depth_cap_usage_error():
    code, _, _ = _run(["norms", "--weight", "constant:c=1", "--depth", "15"])
    assert code == 2


def test_norms_non_finite_tol_usage_error():
    for tol in ("nan", "inf"):
        code, _, err = _run(
            ["norms", "--weight", "constant:c=1", "--depth", "2", "--tol", tol]
        )
        assert code == 2
        assert "error: tol must be finite and positive" in err


def test_tol_below_machine_epsilon_usage_error():
    # no bound computed in double precision meets tol = 1e-17: a run would
    # go on to the step cap, or claim a convergence it cannot have
    for argv in (
        ["norms", "--weight", "power:alpha=0.5", "--depth", "6"],
        ["sweep", "--family", "power", "--params", "0.1,0.3,0.5", "--depth", "4",
         "--workers", "0"],
        ["verify", "--depth", "4"],
    ):
        code, out, err = _run(argv + ["--tol", "1e-17"])
        assert code == 2, argv
        assert out == "" and "machine epsilon" in err, argv


def test_norms_unwritable_out_usage_error(tmp_path):
    out_file = tmp_path / "missing" / "x.csv"
    code, out, err = _run(
        ["norms", "--weight", "constant:c=1", "--depth", "2", "--out", str(out_file)]
    )
    assert code == 2
    assert "error:" in err and "--out" in err
    assert out == ""
    assert not out_file.parent.exists()


def test_empty_out_is_a_usage_error():
    for argv in (
        ["norms", "--weight", "power:alpha=0.5", "--depth", "3"],
        ["sweep", "--family", "power", "--params", "0.1,0.3,0.5", "--depth", "3"],
    ):
        code, out, err = _run(argv + ["--out", ""])
        assert code == 2, argv
        assert out == "" and "cannot write a file at ''" in err, argv


@pytest.mark.parametrize("umask", (0o022, 0o027), ids=("022", "027"))
def test_out_file_gets_the_umask_mode(tmp_path, umask):
    out_file = tmp_path / "rows.csv"
    argv = ["norms", "--weight", "constant:c=1", "--depth", "2", "--out", str(out_file)]
    saved = os.umask(umask)
    try:
        assert _run(argv)[0] == 0
        assert out_file.stat().st_mode & 0o777 == 0o666 & ~umask
        out_file.chmod(0o600)  # overwriting gives the same mode
        assert _run(argv)[0] == 0
        assert out_file.stat().st_mode & 0o777 == 0o666 & ~umask
    finally:
        os.umask(saved)


def test_norms_identity_shift_bounded_ratios():
    code, out, _ = _run(
        ["norms", "--weight", "power:alpha=0.7", "--depth", "6",
         "--shift", "identity"]
    )
    assert code == 0
    for row in _parse_csv(out):
        if row["term"] != "mean_cross":
            assert float(row["ratio"]) < 1.5


# -- sweep -----------------------------------------------------------------


def test_sweep_row_count_and_fits(tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, out, err = _run(
        ["sweep", "--family", "power", "--params", "0.3,0.5,0.7", "--depth", "6",
         "--out", str(out_file), "--workers", "0"]
    )
    assert code == 0
    text = out_file.read_text()
    rows = _parse_csv(text)
    assert len(rows) == 3 * len(TERM_ORDER)
    # fits on stdout when the CSV goes to a file
    assert "term  slope  intercept  r_squared  points" in out
    assert "fit omitted for mean_cross" in out


def test_sweep_negative_params_accepted(tmp_path):
    out_file = tmp_path / "s.csv"
    code, _, _ = _run(
        ["sweep", "--family", "power", "--params", "-0.5,-0.3,0.4",
         "--depth", "5", "--out", str(out_file), "--workers", "0"]
    )
    assert code == 0
    params = {float(r["param"]) for r in _parse_csv(out_file.read_text())}
    assert params == {-0.5, -0.3, 0.4}


def test_sweep_requires_three_params():
    code, _, _ = _run(
        ["sweep", "--family", "power", "--params", "0.3,0.5", "--depth", "5"]
    )
    assert code not in (0, None)
    # three distinct values are needed, not three entries
    code, _, _ = _run(
        ["sweep", "--family", "power", "--params", "0.5,0.5,0.5", "--depth", "3",
         "--workers", "0"]
    )
    assert code == 2


def test_sweep_fit_omitted_on_repeated_a2():
    # step weights a and 1/a share one a2, so three params give two abscissae
    code, _, err = _run(
        ["sweep", "--family", "step", "--params", "0.25,4,0.5", "--depth", "4",
         "--workers", "0"]
    )
    assert code == 0
    lines = err.splitlines()
    assert lines[0] == "term  slope  intercept  r_squared  points"
    assert not [l for l in lines[1:] if not l.startswith("fit omitted")]
    for term in ("Q_00_01", "Q_00_00", "M_conj"):
        assert f"fit omitted for {term}: only 2 distinct a2 values" in lines


def test_sweep_constant_family_fits_omitted(tmp_path):
    out_file = tmp_path / "c.csv"
    code, out, _ = _run(
        ["sweep", "--family", "constant", "--params", "1,2,3", "--depth", "5",
         "--out", str(out_file), "--workers", "0"]
    )
    assert code == 0
    assert all(float(r["a2"]) == 1.0 for r in _parse_csv(out_file.read_text()))
    # degenerate abscissa: every fit omitted
    assert out.count("fit omitted") == len(TERM_ORDER)


def test_sweep_byte_identical_reruns(tmp_path):
    args = ["sweep", "--family", "power", "--params", "0.3,0.5,0.7",
            "--depth", "5", "--workers", "0"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args + ["--out", str(first)])[0] == 0
    assert _run(args + ["--out", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    base = ["sweep", "--family", "power", "--params", "0.3,0.5,0.7",
            "--depth", "5"]
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert _run(base + ["--workers", "0", "--out", str(serial)])[0] == 0
    assert _run(base + ["--workers", "3", "--out", str(parallel)])[0] == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_rows_identical_when_engine_operators_are_wrapped(monkeypatch):
    # a tracing harness hands operator_norm delegating operators that hide
    # their structure; the exact path is taken before that, so the rows do
    # not change
    from haarshift import cli
    from haarshift.weights import WeightSpec
    from oracles import OpaqueOperator

    spec = WeightSpec("cascade", eps=0.5, seed=4)

    def rows(shift):
        found, _ = cli.compute_norm_rows(spec, 8, shift, 1e-9, 1)
        return [row.format() for row in found]

    untraced = {shift: rows(shift) for shift in ("identity", "half", "full")}
    engine = cli.operator_norm
    monkeypatch.setattr(
        cli, "operator_norm", lambda op, **kw: engine(OpaqueOperator(op), **kw)
    )
    for shift, expected in untraced.items():
        assert rows(shift) == expected, shift


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_weight_seed_decouples_the_weights_from_the_start_vector(tmp_path):
    # --seed draws the Lanczos start vector and, unless --weight-seed says
    # otherwise, the cascade weights: with --weight-seed 1 a --seed 2 run
    # measures the weights of --seed 1 from another start vector
    def rows(*seeds):
        out_file = tmp_path / ("_".join(seeds) + ".csv")
        argv = ["sweep", "--family", "cascade", "--params=0.3,0.5,0.7", "--depth", "4",
                "--out", str(out_file), *seeds]
        assert _run(argv)[0] == 0
        lines = out_file.read_text().splitlines()[1:]
        return {tuple(line.split(",")[1:5]): line for line in lines}

    base, moved = rows("--seed", "1"), rows("--seed", "2")
    decoupled = rows("--seed", "2", "--weight-seed", "1")
    assert rows("--seed", "2", "--weight-seed", "2") == moved
    assert base.keys() == decoupled.keys()
    q00 = ("0.5", "4", "half", "Q_00_00")
    assert base[q00].split(",")[6] == "1.7081639398429882"
    assert moved[q00].split(",")[6] == "1.4716878364870323"
    for key, line in base.items():
        other = decoupled[key]
        if key[3] in ("Q_00_00", "mean_cross"):
            assert other == line, key  # read from structure: exact
            continue
        a2, norm = map(float, line.split(",")[5:7])
        a2_other, norm_other = map(float, other.split(",")[5:7])
        assert a2_other == a2, key
        # each Ritz value meets its relative bound tol = 1e-9 on norm**2
        assert abs(norm_other**2 - norm**2) <= 1e-9 * (norm**2 + norm_other**2), key


def test_workload_weight_rows_agree_from_two_start_seeds():
    # the two-seed guard on the depth-14 contrast weights (cascade seed 5):
    # a Lanczos row that missed the top of the spectrum from one start seed
    # would have to miss it from the other too.  Rows read from structure,
    # and a2, do not depend on the start vector at all
    for shift in ("half", "full"):
        for eps in (0.15, 0.3, 0.45, 0.6, 0.75):
            spec = WeightSpec("cascade", eps=eps, seed=5)
            runs = [compute_norm_rows(spec, 14, shift, 1e-9, seed) for seed in (5, 6)]
            assert runs[0][1] == runs[1][1] == []
            for row, other in zip(runs[0][0], runs[1][0]):
                key = (shift, eps, row.term)
                assert other.a2.hex() == row.a2.hex(), key
                if row.term in ("Q_00_00", "mean_cross"):
                    assert other == row, key
                    continue
                # each Ritz value meets its relative bound tol = 1e-9 on norm**2
                n5, n6 = row.norm**2, other.norm**2
                assert abs(n5 - n6) <= 1e-9 * (n5 + n6), key


def test_main_reuses_its_parser_with_the_output_of_a_fresh_one(tmp_path):
    # in-process calls share one parser, a usage error included; each call
    # prints and writes what the same call prints with a freshly built one
    norms = ["norms", "--weight", "power:alpha=0.3", "--depth", "5"]
    calls = [
        [*norms, "--out", str(tmp_path / "rows.csv")],
        norms,
        ["norms", "--depth", "5"],
        [*norms, "--shift", "full"],
    ]

    def outcomes(fresh):
        (tmp_path / "rows.csv").unlink(missing_ok=True)
        build_parser.cache_clear()
        seen = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code, out, err = _run(argv)
            seen.append((code, out, err, (tmp_path / "rows.csv").read_bytes()))
        return seen

    reused = outcomes(fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [code for code, *_ in reused] == [0, 0, 2, 0]
    assert reused == outcomes(fresh=True)


def test_sweep_pool_never_larger_than_job_count(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    params = [0.3, 0.5, 0.7]
    serial = sweep_rows("power", params, 3, "half", 1e-9, 1, workers=0)
    for workers in (64, 2, None, 1):
        assert sweep_rows("power", params, 3, "half", 1e-9, 1, workers) == serial
    # unset, 0 and 1 run in-process; a pool is asked for and has at most
    # one process per point
    assert _SerialPool.sizes == [3, 2]


def test_sweep_negative_workers_usage_error(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    code, _, err = _run(["sweep", "--family", "power", "--params", "0.3,0.5,0.7",
                         "--depth", "3", "--workers", "-1"])
    assert code == 2
    assert "workers must be nonnegative" in err
    assert _SerialPool.sizes == []


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--weight", "power:alpha=0.5", "--depth", "4"],
        ["sweep", "--family", "power", "--params", "0.3,0.5,0.7", "--depth", "4"],
        ["verify", "--depth", "2"],
    ],
    ids=["norms", "sweep", "verify"],
)
def test_negative_seed_is_a_usage_error_at_parse_time(argv):
    # argparse names the flag and prints the usage line; before, numpy
    # refused the seed after the weight was built, naming neither
    code, out, err = _run(argv + ["--seed", "-1"])
    assert code == 2 and out == ""
    assert f"usage: haarshift {argv[0]}" in err
    assert "argument --seed: seed must be nonnegative, got -1" in err


def test_sweep_depth_stability_flag_is_a_usage_error():
    code, out, err = _run(
        ["sweep", "--family", "power", "--params", "0.3,0.5,0.7", "--depth", "4",
         "--depth-stability"]
    )
    assert code == 2
    assert out == "" and "unrecognized arguments: --depth-stability" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--weight", "power:alpha=0.5"],
        ["sweep", "--family", "power", "--params=0.3,0.5,0.7"],
    ],
)
def test_rows_whose_bound_misses_tol_get_nan_ratio_and_a_warning(monkeypatch, argv):
    import haarshift.cli as cli
    from haarshift import norms

    monkeypatch.setattr(
        cli, "operator_norm", partial(norms.operator_norm, max_iter=2)
    )
    code, out, err = _run(argv + ["--depth", "8", "--tol", "1e-12"])
    assert code == 0
    rows = _parse_csv(out)
    missed = {(r["param"], r["term"]) for r in rows if math.isnan(float(r["ratio"]))}
    warned = set()
    for line in err.splitlines():
        match = re.fullmatch(
            r"warning: (\S+) at power:(\S+) depth 8 did not converge after 2 "
            r"Lanczos steps \(Ritz residual bound (\S+) relative, above tol 1e-12\)",
            line,
        )
        if match:
            assert float(match[3]) > 1e-12
            warned.add((match[2], match[1]))
    assert missed and missed == warned
    exact = [r for r in rows if r["term"] in ("Q_00_00", "mean_cross")]
    assert exact and all(math.isfinite(float(r["ratio"])) for r in exact)


def test_write_atomic_removes_its_temp_file_when_the_rename_fails(
    tmp_path, monkeypatch
):
    import haarshift.cli as cli

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_atomic(str(tmp_path / "rows.csv"), "text\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_row_nan_ratio_formats_parseable():
    from haarshift.cli import SweepRow

    row = SweepRow("power", 0.5, 8, "half", "Q_01_01", 1.5, 0.3, float("nan"))
    text = row.format()
    assert text.split(",")[-1] == "nan"
    assert math.isnan(float(text.split(",")[-1]))


def test_fit_slopes_recomputable():
    rows, _ = sweep_rows("power", [0.3, 0.5, 0.7], 5, "half", 1e-9, 1, workers=0)
    fits, notices = fit_slopes(rows)
    for fit in fits:
        pts = [
            (math.log(r.a2), math.log(r.norm))
            for r in rows
            if r.term == fit.term and r.a2 > 1.01 and r.norm > 1e-10
        ]
        assert fit.points == len(pts) >= 3
        slope = np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0]
        assert fit.slope == pytest.approx(slope, abs=1e-12)


def test_fit_points_count_rows_not_distinct_a2():
    rows = [
        SweepRow("power", p, 5, "half", "Q_00_00", a2, 2.0 * a2, 2.0)
        for p, a2 in ((0.1, 2.0), (0.2, 2.0), (0.3, 3.0), (0.4, 5.0))
    ]
    fits, _ = fit_slopes(rows)
    (fit,) = [f for f in fits if f.term == "Q_00_00"]
    assert fit.points == 4
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


# -- battery / corona / kernel ----------------------------------------------


def test_battery_flat_weight_all_rows_zero():
    code, out, _ = _run(["battery", "--weight", "constant:c=3", "--depth", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("row_label")
    for line in lines[1:10]:
        assert float(line.split()[1]) == 0.0


def test_corona_flat_weight_single_generation():
    code, out, _ = _run(
        ["corona", "--weight", "constant:c=1", "--depth", "6", "--gamma", "2"]
    )
    assert code == 0
    assert "generation 0: 1 interval(s): (0,0)" in out
    assert "generation 1" not in out
    assert "super-geometric check: PASS" in out


def test_corona_non_finite_gamma_usage_error():
    for gamma in ("nan", "inf"):
        code, out, err = _run(
            ["corona", "--weight", "constant:c=1", "--depth", "4", "--gamma", gamma]
        )
        assert code == 2
        assert "error: corona threshold gamma" in err
        assert "PASS" not in out


def test_corona_cascade_chains():
    code, out, _ = _run(
        ["corona", "--weight", "cascade:eps=0.5,seed=4", "--depth", "8"]
    )
    assert code == 0
    assert "super-geometric check: PASS" in out


def _corona_with_top(monkeypatch, top_of):
    """Make `haarshift corona` check the decomposition whose `top` array
    top_of(grid) gives, in place of the one it computes."""
    from haarshift import CoronaDecomposition, cli

    def patched(w, root, gamma):
        top = np.asarray(top_of(w.grid))
        top.setflags(write=False)
        return CoronaDecomposition(root=root, gamma=gamma, top=top)

    monkeypatch.setattr(cli, "corona", patched)


def test_corona_check_fails_on_a_stopping_edge_below_gamma(monkeypatch):
    argv = ["corona", "--weight", "constant:c=1", "--depth", "4", "--gamma", "2"]
    assert _run(argv)[0] == 0

    def top_of(grid):
        # (1,0) made a stopping interval of a flat weight: its edge to the
        # root grows by 1, not by more than gamma
        top = np.zeros(grid.tree_size, dtype=int)
        for level in range(1, grid.depth + 1):
            first = (1 << level) - 1
            top[first:first + (1 << (level - 1))] = 1
        return top

    _corona_with_top(monkeypatch, top_of)
    code, out, _ = _run(argv)
    assert "generation 1: 1 interval(s): (1,0)" in out
    assert "super-geometric check: FAIL" in out
    assert code == 1


def test_corona_check_fails_on_an_average_above_gamma_times_its_top(monkeypatch):
    # <w> on [0,1) = 15/8 and on [0,1/4) = 9/2 > 2 * 15/8: (2,0) must stop
    argv = ["corona", "--weight", "step:a=8,b=1,split=0.125", "--depth", "3",
            "--gamma", "2"]
    code, out, _ = _run(argv)
    assert code == 0 and "generation 1: 1 interval(s): (2,0)" in out
    _corona_with_top(monkeypatch, lambda grid: np.zeros(grid.tree_size, dtype=int))
    code, out, _ = _run(argv)
    assert "generation 1" not in out
    assert "super-geometric check: FAIL" in out
    assert code == 1


def test_kernel_table_verifies_closed_form():
    code, out, _ = _run(["kernel", "--depth", "5"])
    assert code == 0
    assert "max |kernel - closed form| over nested pairs" in out
    assert "max |kernel - s(L)| over J inside or equal to L" in out
    assert "ancestor-sum bound sqrt(2)/|J|: PASS" in out


@pytest.mark.parametrize("entry", [(3, 3), (1, 3)])
def test_kernel_and_verify_fail_on_a_broken_equal_or_containing_pair(
    monkeypatch, entry
):
    # table[L, J] at L = J = (2,0), and at L = (1,0) containing J = (2,0)
    import haarshift.cli as cli
    import haarshift.verify as verify

    def broken(grid, kind):
        table = shift_kernel_table(grid, kind)
        table[entry] += 1e-6
        return table

    monkeypatch.setattr(cli, "shift_kernel_table", broken)
    monkeypatch.setattr(verify, "shift_kernel_table", broken)
    code, out, _ = _run(["kernel", "--depth", "4"])
    assert code == 1
    assert "max |kernel - s(L)| over J inside or equal to L: 1.000e-06" in out
    checks = {r.name: r for r in run_verification(4, 1)}
    assert not checks["shift_kernel_closed_form"].passed


def test_kernel_depth_cap():
    code, _, _ = _run(["kernel", "--depth", "8"])
    assert code == 2


def test_norms_weight_with_subnormal_reciprocal_usage_error():
    # 1/w must be a normal double: c = 1e308 gave a2 = 1.0000000000000069
    for c in ("1e308", "1e-308"):
        code, out, err = _run(["norms", "--weight", f"constant:c={c}", "--depth", "5"])
        assert code == 2, c
        assert out == "" and "normal double" in err


def test_sweep_and_sharp_ratios_identical_under_any_blas_thread_count():
    # Lanczos reduces with numpy's pairwise sums, not BLAS: at depth 14 a
    # BLAS dot product is split across threads, so its rounding, and the
    # last digits of every row and ratio, would follow OPENBLAS_NUM_THREADS
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "from haarshift import Grid, WeightSpec, make_weight, s_pi_sharp_ratio\n"
        "from haarshift.cli import main\n"
        "main(['sweep', '--family', 'power', '--params=-0.9,0.3,0.9',"
        " '--depth', '14', '--workers', '0'])\n"
        "grid = Grid(14)\n"
        "for alpha in (-0.9, 0.3, 0.9):\n"
        "    w = make_weight(WeightSpec('power', alpha=alpha), grid)\n"
        "    print(repr(s_pi_sharp_ratio(w)))\n"
    )
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(src)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 1 + 3 * len(TERM_ORDER) + 3
    assert outputs[0] == outputs[1]


def test_python_dash_m_runs_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "haarshift", "verify", "--depth", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
