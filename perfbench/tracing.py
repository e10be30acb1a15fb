"""Spans recorded from outside haarshift.

A ``Tracer`` keeps spans in memory as ``[name, start, end, parent]`` and is
written out once, after the workload.  ``instrument`` swaps the module
references that one layer uses to reach the next (``cli``'s and
``verify``'s imports) for timing wrappers, and hands ``operator_norm`` a
delegating operator that times every ``apply`` and ``adjoint_apply``.  The
original references are restored on exit.  Span names are
``<layer>.<function>``, with the layers named after haarshift's modules.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from haarshift import cli, verify
from haarshift.operators import DyadicOperator


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.norm_calls: list[dict] = []
        self.context: dict = {}  # copied into each norm call: seed, weight
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    # ---------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def matvecs_by_label(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for call in self.norm_calls:
            counts[call["label"]] = counts.get(call["label"], 0) + call["matvecs"]
        return counts

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": header}) + "\n")
            for call in self.norm_calls:
                handle.write(json.dumps({"norm_call": call}) + "\n")
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


class TracedOperator(DyadicOperator):
    """Delegates to another operator and records a span per application."""

    def __init__(self, inner: DyadicOperator, tracer: Tracer):
        super().__init__(inner.grid)
        self.inner = inner
        self.tracer = tracer
        self.label = inner.label
        self.annihilates_constants = inner.annihilates_constants
        self.applies = 0
        self.adjoint_applies = 0

    def apply(self, f):
        self.applies += 1
        idx = self.tracer.begin("operators.apply")
        try:
            return self.inner.apply(f)
        finally:
            self.tracer.end(idx)

    def adjoint_apply(self, f):
        self.adjoint_applies += 1
        idx = self.tracer.begin("operators.adjoint_apply")
        try:
            return self.inner.adjoint_apply(f)
        finally:
            self.tracer.end(idx)


def span_cost(calls: int = 20000, batches: int = 5) -> float:
    """Median extra seconds per span: an operator call through
    TracedOperator against the same call made directly."""

    class Nop(DyadicOperator):
        def apply(self, f):
            return f

    direct = Nop(None)
    traced = TracedOperator(direct, Tracer())
    costs = []
    for _ in range(batches):
        traced.tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(calls):
            direct.apply(None)
        t1 = perf_counter()
        for _ in range(calls):
            traced.apply(None)
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[batches // 2]


def _traced_norm(tracer: Tracer, fn, name: str):
    def traced(op, *args, **kwargs):
        proxy = TracedOperator(op, tracer)
        idx = tracer.begin(name)
        try:
            result = fn(proxy, *args, **kwargs)
        finally:
            tracer.end(idx)
        call = {
            "span": idx,
            "call": name,
            "label": op.label,
            **tracer.context,
            "depth": op.grid.depth,
            "matvecs": proxy.adjoint_applies,
            "applies": proxy.applies,
        }
        if hasattr(result, "iterations"):
            call.update(iterations=result.iterations, value=result.value)
        else:
            call.update(value=result)
        tracer.norm_calls.append(call)
        return result

    return traced


def _traced_make_weight(tracer: Tracer, fn):
    def traced(spec, grid):
        tracer.context["weight"] = spec.label()
        return fn(spec, grid)

    return tracer.wrap("weights.make_weight", traced)


@contextmanager
def instrument(tracer: Tracer):
    """Swap cli's and verify's references to the next layer for traced ones."""
    patches = {
        (cli, "make_weight"): _traced_make_weight(tracer, cli.make_weight),
        (cli, "a2_characteristic"): tracer.wrap(
            "weights.a2_characteristic", cli.a2_characteristic
        ),
        (cli, "resolution_pieces"): tracer.wrap(
            "operators.resolution_pieces", cli.resolution_pieces
        ),
        (cli, "conjugated_shift"): tracer.wrap(
            "operators.conjugated_shift", cli.conjugated_shift
        ),
        (cli, "operator_norm"): _traced_norm(
            tracer, cli.operator_norm, "norms.operator_norm"
        ),
        (cli, "fit_slopes"): tracer.wrap("cli.fit_slopes", cli.fit_slopes),
        (verify, "operator_norm"): _traced_norm(
            tracer, verify.operator_norm, "norms.operator_norm"
        ),
        (verify, "dense_norm"): _traced_norm(
            tracer, verify.dense_norm, "norms.dense_norm"
        ),
    }
    saved = {key: getattr(*key) for key in patches}
    try:
        for (module, attr), replacement in patches.items():
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for (module, attr), original in saved.items():
            setattr(module, attr, original)
