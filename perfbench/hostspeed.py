"""Host speed reference: a fixed numpy kernel timed next to every call.

On a shared host the same call can run up to 1.8x slower for stretches of
seconds to minutes, when other tenants load the machine (seen on a 2-vCPU
cloud VM: the same depth-14 matvec read 1.6 ms and 3.0 ms within one
minute, in windows of ten seconds).  A run cannot out-wait such stretches,
so the benchmark scales each call's seconds by how fast the host ran it:

    scaled = seconds * REFERENCE_S / kernel seconds around the call

The kernel is numpy on 2**14-point arrays driven from Python, the same
mix as haarshift's operators, but none of haarshift's code, so a change to
haarshift moves the scaled time in full.  Its seconds around a call are the
mean of the fastest of PROBE_REPS runs just before and just after it.  The
correction is partial: from a quiet to a loaded stretch the kernel slowed
about 1.4x where the workloads slowed about 1.6x, so scaled times still read
up to ~15 % higher on a loaded host (raw spread over ten runs 0.28-0.40,
scaled 0.13).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.005  # kernel seconds that define reference speed
PROBE_REPS = 3
_SIZE = 1 << 14
_rng = np.random.default_rng(20130826)
_X = _rng.uniform(1.0, 2.0, _SIZE)
_SYMBOL = _rng.uniform(-1.0, 1.0, _SIZE - 1)


def kernel() -> float:
    """Haar analysis, a multiply by a fixed symbol and Haar synthesis of a
    2**14-point vector, level by level, plus elementwise work."""
    acc = 0.0
    for _ in range(8):
        v = _X.copy()
        details = []
        while v.size > 1:
            pair = v.reshape(-1, 2)
            details.append((pair[:, 0] - pair[:, 1]) * 0.5)
            v = pair.mean(axis=1)
        coeffs = np.concatenate(details[::-1]) * _SYMBOL
        start = 0
        for level in range(14):
            d = coeffs[start:start + (1 << level)]
            start += 1 << level
            out = np.empty(2 * d.size)
            out[0::2] = v + d
            out[1::2] = v - d
            v = out
        w = np.sqrt(np.abs(v)) * _X + _X
        acc += float(w @ _X) + float(np.cumsum(v)[-1])
    return acc


def probe() -> float:
    """Seconds of the fastest of PROBE_REPS kernel runs."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


def scaled_call(fn):
    """Call fn() -> (seconds, result) between two probes.  Returns (seconds
    at reference speed, seconds, kernel seconds, result)."""
    before = probe()
    seconds, result = fn()
    ref = 0.5 * (before + probe())
    return seconds * REFERENCE_S / ref, seconds, ref, result
