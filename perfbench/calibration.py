"""A fixed reference computation that measures how fast the host runs now.

The benchmark's machine is a share of a host whose speed drifts by tens of
percent within a minute, and identical tvwalk work drifts with it.  A run
takes a sample of `sample()` before and after every timed operation and
divides the operation's time by their mean, times `REFERENCE_S`: the time
the operation would take on a host running at the reference speed.  The
computation mixes the kinds of work the workloads do (a Python loop over
NumPy row updates, plain bytecode and whole-array passes) and calls no
tvwalk code, so a change to tvwalk moves the scaled times and leaves the
samples alone.
"""

from __future__ import annotations

import time

import numpy as np

# Median of `sample()` on the 2-vCPU Xeon VM of the README's reference
# figures (Python 3.11.7, NumPy 2.4.6).
REFERENCE_S = 0.038

_ROWS = np.arange(1024 * 16, dtype=np.uint64).reshape(1024, 16)
_BLOCK = np.arange(256 * 1024, dtype=np.uint64).reshape(256, 1024)


def sample() -> float:
    """Seconds the reference computation takes now."""
    rng = np.random.default_rng(12345)
    words = _ROWS.copy()
    start = time.perf_counter()
    for _ in range(1500):
        i, j = rng.integers(0, 1024, size=2)
        words[i] ^= words[j]
    acc = 0
    for k in range(50000):
        acc += (k * k) & 0xFF
    for _ in range(4):
        np.bitwise_xor.accumulate(_BLOCK, axis=0)
    return time.perf_counter() - start


def to_reference(seconds: float, samples) -> float:
    """`seconds` measured beside `samples`, at reference speed."""
    return seconds * REFERENCE_S / (sum(samples) / len(samples))
