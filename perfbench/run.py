"""Benchmark of haarshift's norm-sweep pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep-contrast-d14 --seed 5 --seconds 45 --trace 0

Workloads: sweep-contrast-d14 and identities-d8, plus sweep-flat-d12,
which BENCHMARK.json does not list (see workloads.py).  A workload is a
list of units, each one call into haarshift's public API.  A run repeats
cycles, each one call of every unit, until --seconds have been measured;
cycle i runs on seed + i * 1000003, so cycle 0 is the workload seed.  The
seed drives the norm engine's start vector and verify's random inputs;
the weights of the sweeps are fixed.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS is set.

--trace 0 prints the end-to-end metrics: cycle_s (the sum over units of
the median of each unit's calls: the seconds of a typical cycle),
setup_s (median over fresh interpreters of importing haarshift and
building the workload's weights and operator sets), pass_frac
(operations passing the output gate over operations attempted),
ref_digits (median over complete cycles of the digits of agreement with
the independent reference) and peak_rss_mb.  cycle_s and setup_s are in
seconds at reference host speed: every call's seconds are scaled by the
reference kernel timed next to it (see hostspeed.py); the seconds as run
are printed beside them.

--trace 1 runs the workload traced and prints the per-layer metrics:
in-situ spans and counts from the traced cycles plus layer
microbenchmarks.  trace.cycle_s is the median traced cycle at reference
speed, to set against cycle_s of the untraced runs; trace.overhead_frac is
the span count times the measured cost of one span, over the traced time
less that cost.  Spans go to .perfbench/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Runs only from a checkout that
holds src/haarshift; exits 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
DEFAULT_SEEDS = {"sweep-flat-d12": 1, "sweep-contrast-d14": 5, "identities-d8": 7}

SETUP_PROBES = 6  # before the cycles and again after them
SEED_STRIDE = 1_000_003
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60
SELF_TEST_DEPTHS = (4, 6, 8)

# ROADMAP baseline (seed 1, depth 12); layer timings are +-30 %
BASELINE_MATVECS = {("power:alpha=0.3", "Q_00_00"): 16161, ("power:alpha=0.3", "M_conj"): 3722}
BASELINE_Q00_REL_ERR = {0.3: 1.01e-5, 0.9: 1.16e-5}
BASELINE_LAYER_US = {
    "grid.analyze_us.d12": 125.0,
    "grid.synthesize_us.d12": 73.0,
    "grid.averages_us.d12": 67.0,
    "operators.matvec_us.Q_00_00.d12": 1560.0,
    "operators.matvec_us.M_conj.d12": 650.0,
}
BASELINE_TOLERANCE = 0.30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(DEFAULT_SEEDS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 1, 5 and 7 per workload)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat cycles until this long has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time importing haarshift and building the inputs."""
    t0 = perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    workloads.build_inputs(workload, seed)
    print(repr(perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[tuple]:
    """(seconds at reference speed, seconds, kernel seconds) per fresh
    interpreter."""
    import hostspeed

    def child():
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1]), None

    return [hostspeed.scaled_call(child)[:3] for _ in range(SETUP_PROBES)]


def blas_threads() -> int | str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return getter()
    return "unknown (no OpenBLAS loaded)"


def provenance(seed: int, args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "loadavg_before": os.getloadavg(),
    }


def reference_self_test(seed: int) -> float:
    import reference
    from haarshift.grid import Grid
    from haarshift.weights import WeightSpec, make_weight

    arrays = []
    for depth in SELF_TEST_DEPTHS:
        for spec in (WeightSpec("power", alpha=-0.5), WeightSpec("power", alpha=0.9),
                     WeightSpec("cascade", eps=0.75, seed=seed)):
            w = make_weight(spec, Grid(depth))
            arrays.append((w.w_half.values, w.w_inv_half.values))
    return reference.self_test(arrays)


def run_units(workload: str, seed: int, seconds: float, tracer=None,
              whole_cycles: bool = False) -> tuple[dict, list]:
    """Repeat cycles, each one call of every unit of the workload, until
    `seconds` have been measured.  Cycle i runs on seed + i * SEED_STRIDE,
    so cycle 0 is the workload seed.  The first cycle always completes;
    later ones stop at the unit where the time runs out, unless
    `whole_cycles`.  Returns, per unit, (seconds at reference speed,
    seconds, kernel seconds) of every call, and (cycle seed, complete,
    outcome) per cycle."""
    import hostspeed
    import workloads

    digest = workloads.source_digest(SRC)
    calls: dict[str, list[tuple]] = {}
    cycles: list = []
    measured = 0.0
    while not cycles or measured < seconds:
        cycle_seed = seed + SEED_STRIDE * len(cycles)
        if tracer:
            tracer.context["seed"] = cycle_seed
        units, check = workloads.units(workload, cycle_seed, WORKDIR, digest, tracer)
        results = []
        for name, fn in units:
            if cycles and measured >= seconds and not whole_cycles:
                break
            scaled, elapsed, ref, result = hostspeed.scaled_call(fn)
            calls.setdefault(name, []).append((scaled, elapsed, ref))
            results.append(result)
            measured += elapsed
        outcome = check(results)
        outcome.notes = [f"seed {cycle_seed}: {note}" for note in outcome.notes]
        cycles.append((cycle_seed, len(results) == len(units), outcome))
    return calls, cycles


def merged(cycles: list):
    import workloads

    total = workloads.Outcome()
    for _, _, outcome in cycles:
        total.add(outcome)
    return total


def column(rows: list[tuple], k: int) -> list[float]:
    return [row[k] for row in rows]


def timed_metrics(args, seed: int, lines: list) -> tuple[dict, list, dict]:
    from hostspeed import REFERENCE_S

    setup = measure_setup(args.workload, seed)
    calls, cycles = run_units(args.workload, seed, args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += measure_setup(args.workload, seed)
    outcome = merged(cycles)
    for name, rows in calls.items():
        lines.append(f"unit {name}: median {statistics.median(column(rows, 0)):.4f} s at "
                     f"reference speed, {statistics.median(column(rows, 1)):.4f} s as run, "
                     f"over {len(rows)} calls")
    kernel = column(setup, 2) + [r for rows in calls.values() for r in column(rows, 2)]
    lines.append(f"host: reference kernel median {1e3 * statistics.median(kernel):.3f} ms "
                 f"(reference speed {1e3 * REFERENCE_S:g} ms), range "
                 f"{1e3 * min(kernel):.3f}-{1e3 * max(kernel):.3f} ms")
    lines.append("cycle seconds as run (sum of unit medians): "
                 f"{sum(statistics.median(column(rows, 1)) for rows in calls.values())!r}")
    lines.append(f"setup seconds as run: {[round(t, 4) for t in column(setup, 1)]}")
    metrics = {
        "cycle_s": (sum(statistics.median(column(rows, 0)) for rows in calls.values()), "s"),
        "setup_s": (statistics.median(column(setup, 0)), "s"),
        "pass_frac": (1.0 - outcome.gate_failed / outcome.attempted, "fraction"),
        "ref_digits": (statistics.median(o.ref_digits for _, whole, o in cycles if whole),
                       "digits"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return metrics, cycles, calls


def traced_metrics(args, seed: int, lines: list) -> tuple[dict, list, dict]:
    import micro
    import workloads
    from tracing import Tracer, instrument, span_cost

    tracer = Tracer()
    with instrument(tracer):
        calls, cycles = run_units(args.workload, seed, args.seconds, tracer,
                                  whole_cycles=True)
    traced = [sum(row[1] for row in cycle) for cycle in zip(*calls.values())]
    traced_ref = [sum(row[0] for row in cycle) for cycle in zip(*calls.values())]
    overhead_s = len(tracer.spans) * span_cost()
    lines.append(f"traced cycles_s: {[round(t, 4) for t in traced]}  spans: "
                 f"{len(tracer.spans)}  estimated tracing cost: {overhead_s:.4f} s")

    # in-situ figures are per cycle: the same calls, each cycle on its own seed
    n = len(traced)
    layer_self = {layer: own / n for layer, own in tracer.layer_self_s().items()}
    by_label = tracer.matvecs_by_label()
    metrics: dict = {}
    for term in workloads.TERMS:
        metrics[f"norms.matvecs.{term}"] = (by_label.get(term, 0) // n, "count")
    metrics["norms.matvecs.total"] = (sum(by_label.values()) // n, "count")
    metrics["norms.self_s"] = (layer_self.get("norms", 0.0), "s")
    metrics["operators.apply_s"] = ((tracer.total_s("operators.apply")
                                     + tracer.total_s("operators.adjoint_apply")) / n, "s")
    metrics["cli.self_s"] = (layer_self.get("cli", 0.0), "s")
    metrics["verify.run_s"] = (tracer.total_s("verify.run_verification") / n, "s")
    metrics["trace.cycle_s"] = (statistics.median(traced_ref), "s")
    metrics["trace.overhead_frac"] = (overhead_s / (sum(traced) - overhead_s), "fraction")

    notes: list[str] = []
    metrics.update(micro.run_all(notes))
    lines.extend(notes)
    lines.extend(reconcile_layers(metrics))
    if args.workload == "sweep-flat-d12" and seed == 1:
        lines.extend(reconcile_counts(tracer))
    for layer, own in sorted(layer_self.items()):
        lines.append(f"self time per cycle {layer}: {own:.4f} s")

    WORKDIR.mkdir(exist_ok=True)
    trace_path = WORKDIR / f"trace-{args.workload}-{seed}.jsonl"
    tracer.write(trace_path, {"workload": args.workload, "seed": seed,
                              "traced_s": traced, "tracing_cost_s": overhead_s})
    lines.append(f"trace written: {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics, cycles, calls


def reconcile_counts(tracer) -> list[str]:
    out = []
    for (weight, term), expected in BASELINE_MATVECS.items():
        got = sum(c["matvecs"] for c in tracer.norm_calls
                  if c["seed"] == 1 and c["weight"] == weight and c["label"] == term)
        verdict = "match" if got == expected else "MISMATCH"
        out.append(f"baseline {term} matvecs at {weight} seed 1: {got} "
                   f"(ROADMAP {expected}) {verdict}")
    return out


def reconcile_layers(metrics: dict) -> list[str]:
    out = []
    for name, expected in BASELINE_LAYER_US.items():
        got = metrics[name][0]
        rel = got / expected - 1.0
        verdict = "within" if abs(rel) <= BASELINE_TOLERANCE else "MISMATCH, outside"
        out.append(f"baseline {name}: {got:.1f} us vs ROADMAP {expected:g} us "
                   f"({rel:+.0%}, {verdict} +-30 %)")
    return out


def reconcile_errors(first_cycle) -> list[str]:
    out = []
    for alpha, expected in BASELINE_Q00_REL_ERR.items():
        got = first_cycle.q00_rel_err.get(("half", alpha))
        if got is None:
            continue
        verdict = "match" if f"{got:.2e}" == f"{expected:.2e}" else "MISMATCH"
        out.append(f"baseline Q_00_00 rel err at alpha={alpha} seed 1: {got:.3g} "
                   f"(ROADMAP {expected:.3g}) {verdict}")
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # The workloads are serial.  At depth 14 a second OpenBLAS thread spins on
    # the other core for the engine's dot products and slows the main thread,
    # so BLAS is held to one thread unless the caller chose otherwise.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "haarshift" / "__init__.py").is_file():
        print(f"error: {SRC / 'haarshift'} not found; run from a haarshift checkout",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, seed)
        return 0
    sys.path[:0] = [str(SRC), str(HERE)]
    WORKDIR.mkdir(exist_ok=True)

    info = provenance(seed, args)
    lines = [f"reference self-test vs SVD (depths {SELF_TEST_DEPTHS}): worst rel gap "
             f"{reference_self_test(seed):.2e}"]
    if args.trace:
        metrics, cycles, calls = traced_metrics(args, seed, lines)
    else:
        metrics, cycles, calls = timed_metrics(args, seed, lines)
    outcome = merged(cycles)
    info["cycle_seeds"] = [s for s, _, _ in cycles]
    info["calls"] = {name: len(rows) for name, rows in calls.items()}
    if args.workload == "sweep-flat-d12" and seed == 1:
        lines.extend(reconcile_errors(cycles[0][2]))
    info["loadavg_after"] = os.getloadavg()

    print("provenance: " + json.dumps(info))
    for line in lines:
        print(line)
    gate_failed = outcome.gate_failed
    print(f"fail_frac = {gate_failed}/{outcome.attempted} "
          f"(hard failures {outcome.failed}, reference-gate failures "
          f"{gate_failed - outcome.failed})")
    for note in outcome.notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
