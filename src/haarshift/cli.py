"""Command-line front end: verification suite, single-weight norms,
parameter sweeps with slope fitting, inequality battery, corona inspection,
and kernel tables.

CSV rows use the fixed header ``family,param,depth,shift,term,a2,norm,ratio``
with 17-significant-digit decimals, so repeated identical invocations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .estimates import (
    corona,
    inequality_battery,
    nested_kernel_pairs,
    shift_kernel_errors,
    shift_kernel_table,
)
from .grid import DyadicIndex, Grid
from .norms import NormResult, exact_norm, operator_norm
from .operators import Q_LABELS, SHIFT_KINDS, conjugated_shift, resolution_pieces
from .verify import run_verification
from .weights import FAMILIES, WeightSpec, a2_characteristic, make_weight

__all__ = ["main", "CSV_HEADER", "TERM_ORDER", "SweepRow", "SlopeFit", "fit_slopes"]

CSV_HEADER = "family,param,depth,shift,term,a2,norm,ratio"
TERM_ORDER = Q_LABELS + ("M_conj", "mean_cross")

MAX_NORM_DEPTH = 14
MAX_KERNEL_DEPTH = 7
FIT_MIN_A2 = 1.01
FIT_MIN_NORM = 1e-10
FIT_MIN_POINTS = 3


@dataclass(frozen=True)
class SweepRow:
    family: str
    param: float
    depth: int
    shift: str
    term: str
    a2: float
    norm: float
    ratio: float

    def format(self) -> str:
        return (
            f"{self.family},{_fmt(self.param)},{self.depth},{self.shift},"
            f"{self.term},{_fmt(self.a2)},{_fmt(self.norm)},{_fmt(self.ratio)}"
        )


@dataclass(frozen=True)
class SlopeFit:
    term: str
    slope: float
    intercept: float
    r_squared: float
    points: int


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def compute_norm_rows(
    spec: WeightSpec, depth: int, shift: str, tol: float, seed: int
) -> tuple[list[SweepRow], list[str]]:
    """All eleven operator-norm rows for one weight; warnings for rows whose
    Lanczos residual bound did not meet tol (marked by ratio = NaN).  The
    rows carry the spec's family and its first (swept) parameter.

    Each norm is read from the operator's structure when exact_norm can,
    before any operator reaches operator_norm: a caller that wraps the
    operators it hands the engine (a tracing proxy) then gets the same
    rows."""
    family = spec.family
    param = getattr(spec, FAMILIES[family][0])
    grid = Grid(depth)
    w = make_weight(spec, grid)
    a2 = a2_characteristic(w)
    ops = resolution_pieces(w, shift)
    ops["M_conj"] = conjugated_shift(w, shift)
    rows, warnings = [], []
    for term in TERM_ORDER:
        exact = exact_norm(ops[term])
        if exact is None:
            result = operator_norm(ops[term], tol=tol, seed=seed)
        else:
            result = NormResult(exact, 0, 0.0, True)
        ratio = result.value / a2 if result.converged else float("nan")
        if not result.converged:
            warnings.append(
                f"warning: {term} at {family}:{_fmt(param)} depth {depth} did not "
                f"converge after {result.iterations} Lanczos steps (Ritz residual "
                f"bound {result.residual:.3e} relative, above tol {tol:g})"
            )
        rows.append(
            SweepRow(family, param, depth, shift, term, a2, result.value, ratio)
        )
    return rows, warnings


def sweep_rows(
    family: str,
    params: list[float],
    depth: int,
    shift: str,
    tol: float,
    seed: int,
    workers: int | None = None,
    weight_seed: int | None = None,
) -> tuple[list[SweepRow], list[str]]:
    """One norms block per parameter, emitted in deterministic (param, term)
    order.  The points run in this process unless workers >= 2 asks for a
    pool of min(workers, points) processes, which pays only when BLAS runs
    one thread per process.  Each point sets the family's first parameter.
    seed draws the Lanczos start vector; weight_seed (default: seed) is read
    by cascade weights only."""
    weight_seed = seed if weight_seed is None else weight_seed
    specs = [
        WeightSpec(family, seed=weight_seed, **{FAMILIES[family][0]: p}) for p in params
    ]
    point = partial(compute_norm_rows, depth=depth, shift=shift, tol=tol, seed=seed)
    # the pool starts all max_workers processes at the first submit
    size = min(workers or 1, len(specs))
    if size < 2:
        results = list(map(point, specs))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(point, specs))
    rows, warnings = [], []
    for point_rows, point_warnings in results:
        rows.extend(point_rows)
        warnings.extend(point_warnings)
    return rows, warnings


def fit_slopes(rows: list[SweepRow]) -> tuple[list[SlopeFit], list[str]]:
    """Ordinary least squares of log(norm) on log(a2) per term, over rows
    with a2 > 1.01 and norm > 1e-10; terms with fewer than three usable
    points, or fewer than three distinct a2 among them, are reported in the
    notices instead."""
    fits, notices = [], []
    for term in TERM_ORDER:
        pts = [
            (math.log(r.a2), math.log(r.norm))
            for r in rows
            if r.term == term and r.a2 > FIT_MIN_A2 and r.norm > FIT_MIN_NORM
        ]
        if len(pts) < FIT_MIN_POINTS:
            notices.append(
                f"fit omitted for {term}: only {len(pts)} usable points"
            )
            continue
        n_a2 = len({x for x, _ in pts})
        if n_a2 < FIT_MIN_POINTS:
            notices.append(f"fit omitted for {term}: only {n_a2} distinct a2 values")
            continue
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(x, y, 1)
        predicted = slope * x + intercept
        ss_res = float(np.sum((y - predicted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fits.append(SlopeFit(term, float(slope), float(intercept), r_squared, len(x)))
    return fits, notices


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _emit_csv(rows: list[SweepRow], out: str | None) -> None:
    text = "\n".join([CSV_HEADER] + [r.format() for r in rows]) + "\n"
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    results = run_verification(args.depth, args.seed, args.tol)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}  max_err={r.max_err:.3e}  tol={r.threshold:g}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed checks: " + ", ".join(r.name for r in failed))
        return 1
    return 0


def cmd_norms(args) -> int:
    spec = WeightSpec.parse(args.weight)
    rows, warnings = compute_norm_rows(
        spec, args.depth, args.shift, args.tol, args.seed
    )
    for line in warnings:
        print(line, file=sys.stderr)
    _emit_csv(rows, args.out)
    return 0


def cmd_sweep(args) -> int:
    params = [float(p) for p in args.params.split(",") if p.strip()]
    if len(set(params)) < 3:
        raise ValueError("sweep needs at least 3 distinct parameters")
    rows, warnings = sweep_rows(
        args.family, params, args.depth, args.shift, args.tol, args.seed, args.workers,
        args.weight_seed,
    )
    for line in warnings:
        print(line, file=sys.stderr)
    _emit_csv(rows, args.out)
    fits, notices = fit_slopes(rows)
    fit_stream = sys.stdout if args.out else sys.stderr
    print("term  slope  intercept  r_squared  points", file=fit_stream)
    for fit in fits:
        print(
            f"{fit.term}  {fit.slope:.6f}  {fit.intercept:.6f}  "
            f"{fit.r_squared:.6f}  {fit.points}",
            file=fit_stream,
        )
    for notice in notices:
        print(notice, file=fit_stream)
    return 0


def cmd_battery(args) -> int:
    spec = WeightSpec.parse(args.weight)
    w = make_weight(spec, Grid(args.depth))
    print(inequality_battery(w).format())
    return 0


def cmd_corona(args) -> int:
    spec = WeightSpec.parse(args.weight)
    w = make_weight(spec, Grid(args.depth))
    decomp = corona(w, DyadicIndex(0, 0), args.gamma)
    avg = w.w.averages
    for k, generation in enumerate(decomp.generations):
        items = " ".join(str(q) for q in generation)
        print(f"generation {k}: {len(generation)} interval(s): {items}")
    # stopping edges grow by more than gamma; no corona exceeds gamma x its top
    edges = decomp.stopping_parent.items()
    ok = all(avg[q.flat_offset] > args.gamma * avg[p.flat_offset] for q, p in edges)
    inside = decomp.top >= 0
    limit = args.gamma * avg[decomp.top[inside]] * (1 + 1e-12)
    ok = ok and bool(np.all(avg[inside] <= limit))
    print(f"super-geometric check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_kernel(args) -> int:
    grid = Grid(args.depth)
    table = shift_kernel_table(grid, "half")
    j, l, values = nested_kernel_pairs(grid)
    closed = dict(zip(zip(j.tolist(), l.tolist()), values.tolist()))
    print("J(level,pos)  L(level,pos)  kernel  nested_closed_form")
    indices = list(grid.all_indices())
    for j_idx in indices:
        for l_idx in indices:
            value = table[l_idx.flat_offset, j_idx.flat_offset]
            pair = (j_idx.flat_offset, l_idx.flat_offset)
            closed_text = _fmt(closed[pair]) if pair in closed else "-"
            print(f"{j_idx}  {l_idx}  {_fmt(value)}  {closed_text}")
    error, containing, excess = shift_kernel_errors(grid, table)
    print(f"max |kernel - closed form| over nested pairs: {error:.3e}")
    print(f"max |kernel - s(L)| over J inside or equal to L: {containing:.3e}")
    print(f"ancestor-sum bound sqrt(2)/|J|: {'PASS' if excess == 0.0 else 'FAIL'}")
    return 0 if max(error, containing) < 1e-10 and excess == 0.0 else 1


# --------------------------------------------------------------------------
# argument parsing


def _depth_arg(lo: int, hi: int):
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"depth must be between {lo} and {hi}, got {value}"
            )
        return value

    return parse


def _workers_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"workers must be nonnegative, got {value}")
    return value


def _out_path(text: str) -> str:
    """A CSV target in an existing writable directory, checked before any
    norm is computed."""
    directory = os.path.dirname(os.path.abspath(text))
    if os.path.isdir(text) or not os.access(directory, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"cannot write a file at {text}")
    return text


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, so every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="haarshift",
        description="Weighted dyadic Haar analysis workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact-identity suite")
    p.add_argument("--depth", type=_depth_arg(2, 10), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("norms", help="operator norms for one weight")
    p.add_argument("--weight", required=True, help="weight spec, e.g. power:alpha=0.5")
    p.add_argument("--depth", type=_depth_arg(2, MAX_NORM_DEPTH), required=True)
    p.add_argument("--shift", choices=SHIFT_KINDS, default="half")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("sweep", help="norms across a weight family")
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
    p.add_argument("--params", required=True, help="comma-separated parameter list")
    p.add_argument("--depth", type=_depth_arg(2, MAX_NORM_DEPTH), required=True)
    p.add_argument("--shift", choices=SHIFT_KINDS, default="half")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--workers", type=_workers_arg, default=None,
                   help="process-pool size; 0, 1 or unset run in-process")
    p.add_argument("--weight-seed", type=int, default=None,
                   help="seed of the cascade weights (default: --seed)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("battery", help="weighted Carleson-sum inequality battery")
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=_depth_arg(2, MAX_NORM_DEPTH), required=True)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("corona", help="stopping-time generations for a weight")
    p.add_argument("--weight", required=True)
    p.add_argument("--depth", type=_depth_arg(2, MAX_NORM_DEPTH), required=True)
    p.add_argument("--gamma", type=float, default=2.0)
    p.set_defaults(func=cmd_corona)

    p = sub.add_parser("kernel", help="shifted averaging-kernel table")
    p.add_argument("--depth", type=_depth_arg(2, MAX_KERNEL_DEPTH), required=True)
    p.set_defaults(func=cmd_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # join "--params -0.9,..." so negative leading values survive argparse
    for i, token in enumerate(argv[:-1]):
        if token == "--params":
            argv[i : i + 2] = [f"--params={argv[i + 1]}"]
            break
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
