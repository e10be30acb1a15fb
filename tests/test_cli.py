"""Command-line harness: exit codes, CSV contract, determinism, reports."""

import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from haarshift.cli import (
    CSV_HEADER,
    TERM_ORDER,
    SweepRow,
    fit_slopes,
    main,
    sweep_rows,
)


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
    code_a, out_a, _ = _run(["verify", "--depth", "4", "--seed", "1"])
    code_b, out_b, _ = _run(["verify", "--depth", "4", "--seed", "999"])
    assert code_a == code_b == 0
    names = lambda text: [l.split()[1] for l in text.splitlines() if "  " in l]
    assert names(out_a) == names(out_b)


def test_verify_depth_one_is_usage_error():
    code, _, err = _run(["verify", "--depth", "1", "--seed", "1"])
    assert code == 2


def test_verify_depth_cap():
    code, _, _ = _run(["verify", "--depth", "11", "--seed", "1"])
    assert code == 2


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


def test_norms_invalid_spec_usage_error():
    code, _, err = _run(["norms", "--weight", "power:alpha=2", "--depth", "5"])
    assert code == 2
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


def test_norms_unwritable_out_usage_error(tmp_path):
    out_file = tmp_path / "missing" / "x.csv"
    code, out, err = _run(
        ["norms", "--weight", "constant:c=1", "--depth", "2", "--out", str(out_file)]
    )
    assert code == 2
    assert "error:" in err and "--out" in err
    assert out == ""
    assert not out_file.parent.exists()


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


def test_sweep_pool_never_larger_than_job_count(monkeypatch):
    monkeypatch.setattr("haarshift.cli.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    params = [0.3, 0.5, 0.7]
    serial = sweep_rows("power", params, 3, "half", 1e-9, 1, workers=0)
    for workers in (64, 2, None, 1):
        assert sweep_rows("power", params, 3, "half", 1e-9, 1, workers) == serial
    # a pool of one runs in-process: --workers 1, or unset on a 1-CPU host
    default = min(os.cpu_count() or 1, 3)
    assert _SerialPool.sizes == [3, 2] + ([default] if default > 1 else [])
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert sweep_rows("power", params, 3, "half", 1e-9, 1, None) == serial
    assert _SerialPool.sizes == [3, 2] + ([default] if default > 1 else [])


def test_sweep_depth_stability_reports(tmp_path):
    out_file = tmp_path / "d.csv"
    code, _, err = _run(
        ["sweep", "--family", "power", "--params", "0.3,0.5,0.7", "--depth", "6",
         "--out", str(out_file), "--workers", "0", "--depth-stability"]
    )
    assert code == 0
    assert "depth-stability: depth 6 vs 4" in err
    assert err.count("rel_diff=") == 3 * len(TERM_ORDER)


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


def test_kernel_table_verifies_closed_form():
    code, out, _ = _run(["kernel", "--depth", "5"])
    assert code == 0
    assert "max |kernel - closed form| over nested pairs" in out
    assert "ancestor-sum bound sqrt(2)/|J|: PASS" in out


def test_kernel_depth_cap():
    code, _, _ = _run(["kernel", "--depth", "8"])
    assert code == 2


def test_norms_weight_with_subnormal_reciprocal_usage_error():
    # 1/w must be a normal double: c = 1e308 gave a2 = 1.0000000000000069
    for c in ("1e308", "1e-308"):
        code, out, err = _run(["norms", "--weight", f"constant:c={c}", "--depth", "5"])
        assert code == 2, c
        assert out == "" and "normal double" in err


def test_python_dash_m_runs_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "haarshift", "verify", "--depth", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
