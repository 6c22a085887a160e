"""Large-n empirical mixing diagnostics.

True total-variation distance is out of reach beyond n = 5, but the TV
distance between the laws of any statistic S(X) lower-bounds the TV
distance between the laws of X.  The module tracks integer statistics
(weight, trace, corner rank) over many simulated chains, compares their
histogram against exact stationary draws, and reports a plug-in TV estimate
together with a noise floor obtained by splitting the stationary sample in
half, which quantifies the estimator's inflation at a given trial count.

The projection of the walk onto the first k columns of its state is itself
a Markov chain: the same row operations restricted to an n x k slice.  The
cutoff experiment runs it (for k = 1 a vector walk) on a time grid around
(3/2) n log n, where its weight statistic shows the characteristic fall
from near 1 to near 0.  The stationary law of the nonzero-vector walk has
weight Binomial(n, 1/2) conditioned to be at least 1, so the reference
sample is drawn directly rather than by long runs.

One batched kernel, `_walk_rows`, advances (count, n, ...) arrays of rows:
packed full matrices and column slices, or unpacked k = 1 vectors.  The
Monte-Carlo frequencies walk group indices through the exact layer's
successor table, one table read per step, without knowing the key layout.
Both take the same values and leave the same final generator state, drawn a
chunk at a time by `_move_draws`, in the chain's pair-table move order:
non-lazy pairs from ``Generator.integers``, lazy ones from `chain._words32`.

One runner, `_run_blocks`, serves all three Monte-Carlo functions: it
splits the trials into fixed-size blocks with per-block derived generator
streams and sums the blocks' count arrays in block order, so results are
identical for any worker count.  With ``threads`` above 1 the blocks run in
a pool of forked worker processes, at most one per block and per available
core; each worker receives the block function as the pool initializer's
argument, so the calling process writes no module state, and the pool is
closed and joined before the call returns.  Each step's NumPy calls on a
2,500-walk block are too short to overlap between threads under the
interpreter lock, which is why the workers are processes.  These statistic
distinguishers are also the hook for probing public keys of the
authentication protocol against uniform.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .chain import _pair_tables, _redraw_below, _words32
from .exactgroup import ANALYZE_DIMENSIONS, GroupTable
from .gf2core import (
    WORD_BITS,
    _identity_words,
    derive_rng,
    rank_words_batch,
    sample_uniform_invertible_batch,
)

__all__ = [
    "STATISTICS",
    "StatisticSample",
    "TvEstimate",
    "CutoffPoint",
    "NoBracketError",
    "CUTOFF_MIN_N",
    "DEFAULT_CUTOFF_GRID",
    "CUTOFF_GRID_MAX",
    "statistic_tv",
    "cutoff_experiment",
    "crossover_locator",
    "mc_state_frequencies",
]

# Trials per block; fixed so that per-block generator streams, and hence all
# outputs, are independent of the worker count.
_BLOCK = 2500
_CHUNK_PAIRS = 2**14  # pair draws per `_move_draws` chunk; it fixes no value

_STREAM_MC = 6
_STREAM_STAT_CHAIN = 7
_STREAM_STAT_REF = 8
_STREAM_CUTOFF_CHAIN = 9
_STREAM_CUTOFF_REF = 10

# Smallest dimension of the cutoff experiment.
CUTOFF_MIN_N = 16

# Cutoff time grid in units of n log n, spanning [0.5, 3] times the
# transition point at 1.5 n log n.
DEFAULT_CUTOFF_GRID = (
    0.75, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 2.0, 2.25, 2.5, 3.0, 3.75, 4.5,
)

# Step budget of the cutoff experiment: the largest grid value, in units of
# n log n.  It is over 60 times the transition time.
CUTOFF_GRID_MAX = 100.0


class NoBracketError(RuntimeError):
    """Raised when a curve never crosses the 1/2 level."""


@dataclass(frozen=True)
class StatisticSample:
    """Histogram of one integer statistic over a sample of states."""

    name: str
    histogram: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return int(self.histogram.sum())


@dataclass(frozen=True)
class TvEstimate:
    """Plug-in TV lower-bound estimate between chain and stationary laws.

    ``estimate`` is half the l1 distance between normalized histograms of
    the statistic; ``noise_floor`` is the same estimator applied to two
    halves of the stationary sample, i.e. the value a true distance of zero
    would produce at this sample size.
    """

    statistic: str
    n: int
    t: int
    lazy: bool
    trials: int
    estimate: float
    noise_floor: float
    chain_sample: StatisticSample = field(repr=False)
    ref_sample: StatisticSample = field(repr=False)


@dataclass(frozen=True)
class CutoffPoint:
    """One point of the k-column cutoff curve."""

    n: int
    k: int
    t: int
    t_over_nlogn: float
    tv_estimate: float
    noise_floor: float
    trials: int
    seed: int


def _available_cores() -> int:
    """Cores this process may run on: its CPU affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The block function of the pool's call, set in each forked worker by
# `_install`; the parent process never writes it.
_block = None


def _install(block) -> None:
    global _block
    _block = block


def _call_block(job: tuple[int, int]):
    return _block(*job)


def _run_blocks(trials: int, block, threads: int) -> list[np.ndarray]:
    """block(b, size) for each block of `_BLOCK` trials (the last one shorter),
    its tuples of count arrays summed position by position in block order.

    The blocks run in min(threads, blocks, available cores) forked worker
    processes when that is above 1 and the platform can fork, otherwise one
    after another in this process.  A fork inherits the pool's initargs
    instead of pickling them, so `block` may be a closure.
    """
    jobs = [(b, min(_BLOCK, trials - start)) for b, start in enumerate(range(0, trials, _BLOCK))]
    workers = min(threads, len(jobs), _available_cores())
    results = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            pool = multiprocessing.get_context("fork").Pool(workers, _install, (block,))
            try:
                results = pool.map(_call_block, jobs, chunksize=1)
            except BaseException:
                pool.terminate()
                raise
            else:
                pool.close()
            finally:
                pool.join()
    if results is None:
        results = [block(b, size) for b, size in jobs]
    return [np.sum(parts, axis=0) for parts in zip(*results)]


def _halves(ref: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Histograms of the two halves of a block's reference sample: their TV
    distance is the noise floor, defined even for a single block."""
    mid = len(ref) // 2
    return np.bincount(ref[:mid], minlength=bins), np.bincount(ref[mid:], minlength=bins)


def _move_draws(rng: np.random.Generator, npairs: int, t: int, count: int, lazy: bool):
    """Pair draws, and hold coins when lazy, of `count` walks over t steps.

    Yields (pairs, coins) chunks of k = max(1, _CHUNK_PAIRS // count) steps,
    (k, count) arrays (the last may be shorter; coins is None unless lazy),
    with the values and final generator state of per-step ``rng.integers(0,
    npairs, count)`` then, when lazy, ``rng.integers(0, 2, count)``.  A lazy
    chunk is parsed from the (k, 2, count) view of the next 2k·count words of
    `chain._words32`; bound 2 never redraws.  At the first step whose pair
    words redraw (Lemire), the parse drops them, appends as many and checks
    again: the step's other words stay pair words as later ones move back.
    """
    threshold = _redraw_below(npairs)
    k = max(1, _CHUNK_PAIRS // count)
    for start in range(0, t, k):
        rows = min(k, t - start)
        if not lazy:
            yield rng.integers(0, npairs, size=(rows, count)), None
            continue
        words = _words32(rng, 2 * rows * count)
        view = words.reshape(rows, 2, count)
        m = view[:, 0] * np.uint64(npairs)
        s = 0  # no pair word of the steps before s redraws
        while m[s:].astype(np.uint32).min() < threshold:
            low = np.flatnonzero(m[s:].astype(np.uint32) < threshold)
            s += int(low[0]) // count  # the first step with a redraw
            cut = low[low // count == low[0] // count] % count  # its redrawn pair words
            rest = words[2 * count * s:]
            rest[:] = np.concatenate([np.delete(rest, cut), _words32(rng, len(cut))])
            m[s:] = view[s:, 0] * np.uint64(npairs)
        m >>= np.uint64(32)
        yield m.view(np.int64), (view[:, 1] >> 31).astype(np.int64)


def _walk_rows(state: np.ndarray, t: int, rng: np.random.Generator, lazy: bool) -> None:
    """Advance `count` independent walks t steps, in place.

    ``state`` is a C-contiguous (count, n, ...) array: walk b's row r is
    ``state[b, r]``, of any dtype that supports XOR.  The moves come from
    `_move_draws`; a held walker XORs a zero row, keeping the update
    branch-free.
    """
    count, n = state.shape[:2]
    # Walk-major view: walk b's row r is flat[b*n + r].  One-element rows get a
    # 1-D view; indexing (count*n, 1) rows instead is about 20 % slower.
    flat = state.reshape(count * n, *(w for w in state.shape[2:] if w != 1))
    base = np.arange(count) * n
    ti, tj = _pair_tables(n)
    for pairs, coins in _move_draws(rng, n * (n - 1), t, count, lazy):
        src_at = tj[pairs] + base
        dst_at = ti[pairs] + base
        if lazy:
            coins = coins.astype(state.dtype).reshape(*coins.shape, *[1] * (flat.ndim - 1))
        for s in range(len(pairs)):
            src = flat[src_at[s]]
            if lazy:
                src *= coins[s]
            flat[dst_at[s]] ^= src


def _successors(gt: GroupTable, lazy: bool) -> np.ndarray:
    """Flat successor table of row width w = n(n-1): entry x*w + u is w times the
    index of x with row j(u) added to row i(u), read from the enumeration's
    ``gt.successors``.  Lazy rows double w, their first half holding x (coin 0)."""
    moved = gt.successors
    if lazy:
        moved = np.hstack([np.arange(gt.size)[:, None].repeat(moved.shape[1], 1), moved])
    return (moved * moved.shape[1]).astype(np.intp).reshape(-1)


def _walk_table(
    state: np.ndarray, table: np.ndarray, npairs: int, t: int, rng: np.random.Generator, lazy: bool
) -> None:
    """Advance walks held as successor-table row offsets t steps, in place, with
    the same values and final generator state as `_walk_rows`, drawn a chunk at
    a time by `_move_draws`."""
    at = np.empty_like(state)
    for pairs, coins in _move_draws(rng, npairs, t, state.size, lazy):
        if lazy:
            pairs += npairs * coins
        for row in pairs:
            np.add(state, row, out=at)
            table.take(at, out=state, mode="clip")  # in range; "raise" would buffer out


def _walk_full(n: int, t: int, count: int, rng: np.random.Generator, lazy: bool) -> np.ndarray:
    """`count` independent walks of t steps from the identity, word-packed."""
    state = _identity_words(n, count, n)
    _walk_rows(state, t, rng, lazy)
    return state


def _weight_full(state: np.ndarray) -> np.ndarray:
    """Set bits per walk of a (count, n, ...) state, packed or 0/1 bytes."""
    return np.bitwise_count(state).reshape(len(state), -1).sum(axis=1, dtype=np.int64)


def _trace_full(state: np.ndarray, n: int) -> np.ndarray:
    d = np.arange(n)
    diag = state[:, d, d // WORD_BITS] >> (d % WORD_BITS).astype(np.uint64)
    return (diag & np.uint64(1)).sum(axis=1, dtype=np.int64)


# name: (its values on a (count, n, W) packed state, its largest value), by n.
# The corner rank looks rank_words_batch up when called, not when defined.
_STATISTICS = {
    "weight": (lambda state, n: _weight_full(state), lambda n: n * n),
    "trace": (_trace_full, lambda n: n),
    "corner_rank": (
        lambda state, n: rank_words_batch(state[:, : (n + 1) // 2], (n + 1) // 2),
        lambda n: (n + 1) // 2,
    ),
}
STATISTICS = tuple(_STATISTICS)


def _hist_tv(a: np.ndarray, b: np.ndarray) -> float:
    pa = a / a.sum()
    pb = b / b.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def statistic_tv(
    n: int,
    t: int,
    statistic: str,
    trials: int,
    seed: int,
    lazy: bool = False,
    threads: int = 1,
) -> TvEstimate:
    """TV lower-bound estimate at time t via one integer statistic.

    Runs `trials` chains from the identity, draws `trials` exact uniform
    invertible references by rejection, and compares the statistic's
    histograms.  The noise floor comes from two half-samples of the
    reference draw.  The estimate lower-bounds the true TV distance in
    expectation, up to sampling error of the order of the noise floor.
    """
    if n < 2:
        raise ValueError("the walk needs n >= 2")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a usable histogram")
    if t < 0:
        raise ValueError("time must be non-negative")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; choose from {STATISTICS}")
    values, largest = _STATISTICS[statistic]
    bins = largest(n) + 1

    def block(b: int, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The reference words are freed before the walk allocates its state;
        # holding both made a serial call fault about 40 % more pages.
        words = sample_uniform_invertible_batch(n, size, derive_rng(seed, _STREAM_STAT_REF, b))
        ref = _halves(values(words, n), bins)
        del words
        state = _walk_full(n, t, size, derive_rng(seed, _STREAM_STAT_CHAIN, b), lazy)
        return np.bincount(values(state, n), minlength=bins), *ref

    chain_hist, ref_a, ref_b = _run_blocks(trials, block, threads)
    ref_hist = ref_a + ref_b
    floor = _hist_tv(ref_a, ref_b)
    return TvEstimate(
        statistic=statistic,
        n=n,
        t=t,
        lazy=lazy,
        trials=trials,
        estimate=_hist_tv(chain_hist, ref_hist),
        noise_floor=floor,
        chain_sample=StatisticSample(statistic, chain_hist),
        ref_sample=StatisticSample(statistic, ref_hist),
    )


def _stationary_weights_k1(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Weights of uniform nonzero vectors: Binomial(n, 1/2) given >= 1."""
    w = rng.binomial(n, 0.5, size=count)
    while True:
        zero = w == 0
        if not zero.any():
            return w.astype(np.int64)
        w[zero] = rng.binomial(n, 0.5, size=int(zero.sum()))


def cutoff_experiment(
    n: int,
    trials: int,
    seed: int,
    k: int = 1,
    grid: tuple[float, ...] = DEFAULT_CUTOFF_GRID,
    threads: int = 1,
) -> list[CutoffPoint]:
    """Weight-statistic TV curve of the k-column projection chain.

    The time grid is given in units of n log n and spans the fall of the
    curve around the transition at 1.5 n log n.  Each block of trials owns
    derived generator streams (reference draw first, then the walk), so the
    curve is reproducible for any worker count.
    """
    if n < CUTOFF_MIN_N:
        raise ValueError(f"cutoff diagnostics need n >= {CUTOFF_MIN_N}")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a usable histogram")
    if not grid or not all(0.0 <= s <= CUTOFF_GRID_MAX for s in grid):
        raise ValueError(f"the time grid needs values in [0, {CUTOFF_GRID_MAX:g}] n log n")
    nlogn = n * math.log(n)
    t_grid = sorted({int(round(s * nlogn)) for s in grid})
    bins = n * k + 1

    def block(b: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ref_rng = derive_rng(seed, _STREAM_CUTOFF_REF, b)
        if k == 1:
            ref_w = _stationary_weights_k1(n, count, ref_rng)
        else:
            ref_w = _weight_full(sample_uniform_invertible_batch(n, count, ref_rng, k))
        walk_rng = derive_rng(seed, _STREAM_CUTOFF_CHAIN, b)
        # k = 1 slice of the identity start: e_1 as unpacked bits.
        if k == 1:
            state = np.zeros((count, n), dtype=np.uint8)
            state[:, 0] = 1
        else:
            state = _identity_words(n, count, k)
        hists = np.zeros((len(t_grid), bins), dtype=np.int64)
        t_now = 0
        for gi, t_target in enumerate(t_grid):
            _walk_rows(state, t_target - t_now, walk_rng, False)
            t_now = t_target
            hists[gi] = np.bincount(_weight_full(state), minlength=bins)
        return hists, *_halves(ref_w, bins)

    chain_hists, ref_a, ref_b = _run_blocks(trials, block, threads)
    ref_total = ref_a + ref_b
    floor = _hist_tv(ref_a, ref_b)
    return [
        CutoffPoint(
            n=n,
            k=k,
            t=t,
            t_over_nlogn=t / nlogn,
            tv_estimate=_hist_tv(chain_hists[gi], ref_total),
            noise_floor=floor,
            trials=trials,
            seed=seed,
        )
        for gi, t in enumerate(t_grid)
    ]


def crossover_locator(curve: list[CutoffPoint]) -> float:
    """Time (in n log n units) where the cutoff curve crosses 1/2.

    The curve is regularized to be nonincreasing (its running minimum), then
    the crossing is located by linear interpolation; a curve that does not
    bracket 1/2 is reported as such.
    """
    xs = np.array([p.t_over_nlogn for p in curve])
    ys = np.array([p.tv_estimate for p in curve])
    if xs.size < 2:
        raise NoBracketError("need at least two curve points")
    reg = np.minimum.accumulate(ys)
    if reg[0] <= 0.5 or reg[-1] > 0.5:
        raise NoBracketError("curve does not bracket the 1/2 level")
    idx = int(np.argmax(reg <= 0.5))
    x0, x1 = xs[idx - 1], xs[idx]
    y0, y1 = reg[idx - 1], reg[idx]
    if y0 == y1:
        return float(x1)
    return float(x0 + (0.5 - y0) * (x1 - x0) / (y1 - y0))


def mc_state_frequencies(
    n: int,
    t: int,
    trials: int,
    seed: int,
    gt: GroupTable,
    lazy: bool = False,
    threads: int = 1,
) -> np.ndarray:
    """Monte-Carlo counts of final states over the enumerated group.

    Runs `trials` chains to time t from the identity, each held as its group
    index and moved through the group's successor table (``gt.successors``).
    It must match the exact law within binomial tolerance; it shares the
    successor table, not the law iteration, with the exact layer, and
    ``test_table_walk_matches_row_kernel`` holds the table to the row kernel,
    which shares neither.  n is in ANALYZE_DIMENSIONS.
    """
    if n not in ANALYZE_DIMENSIONS:
        raise ValueError(f"need n in {ANALYZE_DIMENSIONS[0]}..{ANALYZE_DIMENSIONS[-1]}")
    if n != gt.n:
        raise ValueError("group table dimension mismatch")
    if trials < 1:
        raise ValueError("need at least one trial")
    if t < 0:
        raise ValueError("time must be non-negative")
    table = _successors(gt, lazy)

    def block(b: int, size: int) -> tuple[np.ndarray]:
        state = np.zeros(size, dtype=np.intp)  # the identity sits at index 0
        _walk_table(state, table, n * (n - 1), t, derive_rng(seed, _STREAM_MC, b), lazy)
        return (np.bincount(state // (len(table) // gt.size), minlength=gt.size),)

    (counts,) = _run_blocks(trials, block, threads)
    return counts
