"""The three workloads, each run through haarshift's public API as a list
of separately timed units, and the output gate that scores every
operation they attempt.

BENCHMARK.json lists sweep-contrast-d14 and identities-d8.  sweep-flat-d12
stays runnable by name, for its matvec counts and its two Q_00_00 rows
1e-5 off the closed form, but is not listed: its one unit is a single
pass of about 50 s, which a run cannot repeat, so host slow phases move
it by more than the time bound (IQR/median 0.35 and 0.46 over ten runs).

An operation is a CSV row for the sweeps and a verify check or an estimate
output for ``identities-d8``.  ``failed`` counts operations that did not
complete or broke an exact contract (crash, non-zero exit, malformed,
non-finite or non-converged output, a CSV that differs from the first run
of the same seed and source tree, ``mean_cross`` away from 0, a failed
exact verify check, a broken corona).  ``gate_failed`` adds the accuracy
gate: a ``Q_00_00`` row more than 1e-6 relative from the closed form, or a
failed verify check that compares a computed norm with a reference value
(about one verify seed in 70 misses ``p00_norm_law`` by a few 1e-6).
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from haarshift import cli
from haarshift.estimates import corona, inequality_battery, s_pi_sharp_ratio
from haarshift.grid import DyadicIndex, Grid
from haarshift.operators import conjugated_shift, resolution_pieces
from haarshift.verify import run_verification
from haarshift.weights import WeightSpec, a2_characteristic, make_weight

import reference

CSV_HEADER = "family,param,depth,shift,term,a2,norm,ratio"
TERMS = tuple(
    f"Q_{left}_{right}" for left in ("01", "10", "00") for right in ("01", "10", "00")
) + ("M_conj", "mean_cross")

VERIFY_DEPTH = 8
ESTIMATE_DEPTH = 12
ESTIMATE_ALPHAS = (-0.5, 0.3, 0.9)
CORONA_GAMMA = 2.0
# verify checks that compare a computed norm with a reference value
VERIFY_REFERENCE_CHECKS = ("norm_engine_vs_dense", "p00_norm_law")


@dataclass(frozen=True)
class Sweep:
    """Norm rows over one weight family, produced through ``cli.main``.

    The power family runs as one ``sweep`` call per shift.  The cascade
    family runs as one ``norms`` call per (shift, param) on the weights of
    ``weight_seed``: a ``sweep`` call would tie the weights to the workload
    seed, which here picks only the norm engine's start vector.
    """

    name: str
    family: str
    params: tuple[float, ...]
    depth: int
    shifts: tuple[str, ...]
    weight_seed: int | None = None

    def spec(self, param: float) -> WeightSpec:
        if self.family == "power":
            return WeightSpec("power", alpha=param)
        return WeightSpec("cascade", eps=param, seed=self.weight_seed)

    def calls(self, seed: int) -> list[tuple[str, str, tuple[float, ...], list[str]]]:
        """(key, shift, params, argv without --out) for every cli.main call."""
        common = ["--depth", str(self.depth), "--seed", str(seed)]
        if self.family == "power":
            return [
                (shift, shift, self.params,
                 ["sweep", "--family", self.family,
                  "--params=" + ",".join(repr(p) for p in self.params),
                  "--shift", shift, "--workers", "0", *common])
                for shift in self.shifts
            ]
        return [
            (f"{shift}.{k}", shift, (p,),
             ["norms", "--weight", f"cascade:eps={p!r},seed={self.weight_seed}",
              "--shift", shift, *common])
            for shift in self.shifts
            for k, p in enumerate(self.params)
        ]


SWEEPS = {
    "sweep-flat-d12": Sweep("sweep-flat-d12", "power", (-0.5, 0.3, 0.9), 12, ("half",)),
    # the cascade weights of the tier-1 wide family (seed 5)
    "sweep-contrast-d14": Sweep("sweep-contrast-d14", "cascade",
                                (0.15, 0.3, 0.45, 0.6, 0.75), 14, ("half", "full"),
                                weight_seed=5),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    gate_failed: int = 0
    ref_digits: float = 16.0
    q00_rel_err: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.gate_failed += other.gate_failed
        self.ref_digits = min(self.ref_digits, other.ref_digits)
        self.q00_rel_err.update(other.q00_rel_err)
        self.notes += [n for n in other.notes if n not in self.notes]


# --------------------------------------------------------------------------
# set-up: the weights and operator sets a workload builds before any norm


def build_inputs(workload: str, seed: int) -> None:
    """Build the workload's weights and operator sets."""
    if workload in SWEEPS:
        sw = SWEEPS[workload]
        for shift in sw.shifts:
            for param in sw.params:
                w = make_weight(sw.spec(param), Grid(sw.depth))
                a2_characteristic(w)
                resolution_pieces(w, shift)
                conjugated_shift(w, shift)
        return
    # the cascade weights verify builds from its seed, then the estimate weights
    for eps, wseed in ((0.35, seed), (0.4, seed), (0.4, seed + 1)):
        w = make_weight(WeightSpec("cascade", eps=eps, seed=wseed), Grid(VERIFY_DEPTH))
        for shift in ("identity", "half", "full"):
            resolution_pieces(w, shift)
            conjugated_shift(w, shift)
    for alpha in ESTIMATE_ALPHAS:
        a2_characteristic(make_weight(WeightSpec("power", alpha=alpha), Grid(ESTIMATE_DEPTH)))


# --------------------------------------------------------------------------
# units: the separately timed calls of one cycle of a workload


def units(workload: str, seed: int, workdir: Path, digest: str, tracer=None):
    """The workload's calls as (name, fn) units, plus the gate that scores
    the results of the calls of one cycle, made in order (the last cycle of
    a run may stop early).  fn() returns (seconds spent in haarshift,
    result)."""
    if workload in SWEEPS:
        sw = SWEEPS[workload]
        runner = SweepRunner(sw, seed, workdir, digest)
        return ([(call[0], partial(runner.run_call, call, tracer)) for call in sw.calls(seed)],
                runner.check)
    return (identity_units(seed, tracer),
            lambda results: check_identities([r for unit in results for r in unit]))


# --------------------------------------------------------------------------
# sweeps


def source_digest(src: Path) -> str:
    """Hash of the haarshift sources, so byte-identity is only demanded of
    runs of the same program."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class SweepRunner:
    def __init__(self, sw: Sweep, seed: int, workdir: Path, digest: str):
        self.sw = sw
        self.seed = seed
        self.workdir = workdir
        self.digest = digest
        self._refs: dict = {}

    def run_call(self, call: tuple, tracer=None) -> tuple[float, tuple]:
        """One cli.main call.  Returns the seconds spent inside cli.main
        and (call, exit status, csv text)."""
        out = self.workdir / f"{self.sw.name}.{call[0]}.seed{self.seed}.csv"
        if out.exists():
            out.unlink()
        sink = io.StringIO()
        t0 = perf_counter()
        span = tracer.begin("cli.main") if tracer else None
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                status = cli.main(call[3] + ["--out", str(out)])
        except SystemExit as exc:
            status = exc.code
        except Exception:
            status = "raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        finally:
            if tracer:
                tracer.end(span)
        elapsed = perf_counter() - t0
        text = out.read_text() if out.exists() else None
        if out.exists():
            out.unlink()
        return elapsed, (call, status, text)

    def _reference(self, param: float, shift: str) -> float:
        key = (param, shift)
        if key not in self._refs:
            w = make_weight(self.sw.spec(param), Grid(self.sw.depth))
            self._refs[key] = reference.q00_norm(
                w.w_half.values, w.w_inv_half.values, shift)
        return self._refs[key]

    def _first_csv(self, key: str, text: str) -> str:
        """The CSV of the first run of this seed on this source tree."""
        store = self.workdir / "first"
        store.mkdir(exist_ok=True)
        path = store / f"{self.digest}.{self.sw.name}.{key}.seed{self.seed}.csv"
        if not path.exists():
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(text)
            os.replace(tmp, path)
        return path.read_text()

    def check(self, calls: list) -> Outcome:
        sw = self.sw
        total = Outcome()
        for (key, shift, params, argv), status, text in calls:
            out = Outcome(attempted=len(params) * len(TERMS))
            expected = [(p, term) for p in params for term in TERMS]
            lines = text.split("\n") if text is not None else []
            reason = None
            if status != 0:
                reason = f"exit status {status!r}"
            elif text is None or not text.endswith("\n"):
                reason = "no complete CSV written"
            elif lines[0] != CSV_HEADER:
                reason = f"CSV header {lines[0]!r}"
            elif len(lines) != len(expected) + 2:
                reason = f"{len(lines) - 2} CSV rows, expected {len(expected)}"
            elif text != self._first_csv(key, text):
                reason = "CSV differs from the first run of this seed"
            if reason:
                out.failed = out.gate_failed = out.attempted
                out.ref_digits = 0.0
                out.notes.append(f"{sw.name} {' '.join(argv)}: every row fails: {reason}")
                total.add(out)
                continue
            for line, (param, term) in zip(lines[1:-1], expected):
                hard, gate = self._check_row(line, param, term, shift, out)
                out.failed += hard
                out.gate_failed += hard or gate
            total.add(out)
        return total

    def _check_row(self, line: str, param: float, term: str, shift: str,
                   out: Outcome) -> tuple[bool, bool]:
        sw = self.sw
        fields = line.split(",")
        try:
            family, p, depth, sh, t = fields[:5]
            a2, norm, ratio = (float(v) for v in fields[5:])
            ok = (family, float(p), int(depth), sh, t) == (
                sw.family, param, sw.depth, shift, term)
        except ValueError:
            ok = False
        if not ok:
            out.notes.append(f"{sw.name} {shift}: malformed row {line!r}")
            return True, True
        if not all(math.isfinite(v) for v in (a2, norm, ratio)):
            out.notes.append(f"{sw.name} {shift} {term} param={param}: non-finite {line!r}")
            return True, True
        if term == "mean_cross" and abs(norm) > reference.MEAN_CROSS_ABS_TOL:
            out.notes.append(f"{sw.name} {shift} param={param}: mean_cross = {norm!r}")
            return True, True
        if term == "Q_00_00":
            ref = self._reference(param, shift)
            rel = abs(norm - ref) / ref
            out.q00_rel_err[(shift, param)] = rel
            out.ref_digits = min(out.ref_digits, reference.digits(rel))
            if rel > reference.Q00_REL_TOL:
                out.notes.append(
                    f"{sw.name} {shift} Q_00_00 param={param}: rel err {rel:.3g} "
                    f"vs closed form {ref!r}")
                return False, True
        return False, False


# --------------------------------------------------------------------------
# identities-d8


def _attempt(fn):
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc(limit=2).strip().splitlines()[-1]


def identity_units(seed: int, tracer=None) -> list:
    """verify.run_verification, then the estimates on the power weights, as
    two (name, fn) units; fn() returns the seconds spent in those calls and
    a list of (name, value, error)."""

    def call(name, fn):
        span = tracer.begin(name) if tracer else None
        try:
            return _attempt(fn)
        finally:
            if tracer:
                tracer.end(span)

    def verify_unit():
        t0 = perf_counter()
        value, err = call("verify.run_verification",
                          lambda: run_verification(VERIFY_DEPTH, seed, 1e-9))
        return perf_counter() - t0, [("verify", value, err)]

    def estimates_unit():
        t0 = perf_counter()
        results = []
        for alpha in ESTIMATE_ALPHAS:
            spec = WeightSpec("power", alpha=alpha)
            if tracer:
                tracer.context["weight"] = spec.label()
            w, err = call("weights.make_weight",
                          lambda: make_weight(spec, Grid(ESTIMATE_DEPTH)))
            if w is None:
                results += [(f"{k} alpha={alpha}", None, err)
                            for k in ("battery", "corona", "sharp_ratio")]
                continue
            for key, name, fn in (
                ("battery", "estimates.inequality_battery", lambda: inequality_battery(w)),
                ("corona", "estimates.corona",
                 lambda: corona(w, DyadicIndex(0, 0), CORONA_GAMMA)),
                ("sharp_ratio", "estimates.s_pi_sharp_ratio", lambda: s_pi_sharp_ratio(w)),
            ):
                value, err = call(name, fn)
                results.append((f"{key} alpha={alpha}", (w, value), err))
        return perf_counter() - t0, results

    return [("verify", verify_unit), ("estimates", estimates_unit)]


def _level_averages(values: np.ndarray, depth: int) -> list[np.ndarray]:
    return [reference.level_averages(values, lev) for lev in range(depth + 1)]


def _corona_breaks(w, decomp) -> str | None:
    """The super-geometric contract `haarshift corona` checks, recomputed
    from reshape-mean averages: every stopping child's average exceeds
    gamma times its stopping parent's, and inside each corona no interval's
    average exceeds gamma times the corona top's."""
    depth = int(math.log2(w.w.values.size))
    avg = _level_averages(w.w.values, depth)
    gamma = decomp.gamma
    if decomp.generations[0] != (decomp.root,):
        return "generation 0 is not the root"
    for child, parent in decomp.stopping_parent.items():
        if not avg[child.level][child.position] > gamma * avg[parent.level][parent.position]:
            return f"stopping interval {child} does not exceed gamma x {parent}"
    children: dict = {}
    for child, parent in decomp.stopping_parent.items():
        children.setdefault(parent, []).append(child)
    for top in [decomp.root] + list(decomp.stopping_parent):
        limit = gamma * avg[top.level][top.position] * (1 + 1e-12)
        for lev in range(top.level, depth + 1):
            span = 1 << (lev - top.level)
            start = top.position * span
            inside = np.ones(span, dtype=bool)
            for kid in children.get(top, []):
                if kid.level <= lev:
                    k_span = 1 << (lev - kid.level)
                    lo = kid.position * k_span - start
                    inside[lo:lo + k_span] = False
            level_avg = avg[lev][start:start + span][inside]
            if level_avg.size and level_avg.max() > limit:
                return f"corona of {top} has an average above gamma x its top"
    return None


def check_identities(results: list) -> Outcome:
    out = Outcome()
    for name, value, err in results:
        if name == "verify":
            if err is not None:
                out.attempted += 14
                out.failed += 14
                out.ref_digits = 0.0
                out.notes.append(f"verify raised: {err}")
                continue
            out.attempted += len(value)
            by_name = {check.name: check for check in value}
            for check in value:
                if not check.passed:
                    # a computed norm off its reference value is the accuracy
                    # gate, as for the sweeps' Q_00_00 rows; other checks are exact
                    if check.name in VERIFY_REFERENCE_CHECKS:
                        out.gate_failed += 1
                    else:
                        out.failed += 1
                    out.notes.append(
                        f"verify {check.name}: max_err {check.max_err:.3g} "
                        f">= {check.threshold:g}")
            for check_name in VERIFY_REFERENCE_CHECKS:
                check = by_name[check_name]
                out.ref_digits = min(out.ref_digits, reference.digits(abs(check.max_err)))
            continue
        out.attempted += 1
        problem = err
        if problem is None:
            w, result = value
            if name.startswith("battery"):
                numbers = [v for row in result.rows for v in (row.c_emp, row.normalizer_value)]
                if len(result.rows) != 9 or not all(math.isfinite(v) for v in numbers):
                    problem = "non-finite or missing battery rows"
            elif name.startswith("corona"):
                problem = _corona_breaks(w, result)
            elif not (math.isfinite(result) and result > 0):
                problem = f"sharp ratio {result!r}"
        if problem is not None:
            out.failed += 1
            out.notes.append(f"{name}: {problem}")
    out.gate_failed += out.failed
    return out
