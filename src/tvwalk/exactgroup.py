"""Exhaustive analysis of the walk on small invertible-matrix groups.

For n <= 4 the group of invertible n x n matrices over Z_2 is enumerated by
one breadth-first search from the identity, using row-major packed integer
keys (n^2 <= 16 bits).  BFS discovery order is the canonical element order,
so every table, curve and regression constant is reproducible bit for bit.
The search keeps what it computes: the move-ordered successor table of the
walk graph, and its period, read off the BFS levels.

On the enumerated group the module builds the exact transition structure of
the walk, iterates distributions, computes total-variation and chi-square
(pi-weighted l2) distances and mixing times, and on request extracts the
spectrum (dense below 5000 states, extremal eigenvalues by Lanczos iteration
above), cross-checking the period against the bottom eigenvalue.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import _pair_tables

__all__ = [
    "GroupTable",
    "TransitionStructure",
    "SpectralReport",
    "NonConvergentError",
    "group_order",
    "order_ratio",
    "enumerate_group",
    "enumerate_group_reference",
    "build_transition",
    "distribution_at",
    "tv_distance",
    "l2_distance",
    "mixing_curve",
    "mixing_times",
    "spectral_report",
    "analyze",
    "ANALYZE_DIMENSIONS",
]

ANALYZE_DIMENSIONS = range(2, 5)  # transition structure in memory: 20,160 states at n = 4
DENSE_SPECTRUM_LIMIT = 5000
# Largest accepted ||Pv - lambda_2 v|| for the unit Lanczos eigenvector
# (a healthy n = 4 solve leaves about 4e-16).
_LANCZOS_RESIDUAL_TOL = 1e-10

# Distributions are renormalized this often to damp floating-point drift;
# a total mass further than _DRIFT_TOL from 1 there means a broken kernel.
_RENORM_EVERY = 64
_DRIFT_TOL = 1e-12


class NonConvergentError(RuntimeError):
    """Raised when a periodic non-lazy chain cannot reach the target."""


def group_order(n: int) -> int:
    """Exact order of the invertible group: prod_{k=0..n-1} (2^n - 2^k)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    out = 1
    for k in range(n):
        out *= (1 << n) - (1 << k)
    return out


def order_ratio(n: int) -> float:
    """|group| / 2^(n^2) = prod_{k=1..n} (1 - 2^-k); decreasing in n."""
    out = 1.0
    for k in range(1, n + 1):
        out *= 1.0 - 0.5**k
    return out


@dataclass(frozen=True)
class GroupTable:
    """Enumerated group: canonical keys in BFS-from-identity order.

    ``keys[idx]`` is the packed row-major key of element idx; the identity
    sits at index 0.  ``successors[x, u]`` is the index of state x moved by
    move u, in ``chain._pair_tables`` order (0.97 MB at n = 4).  ``period``
    is 1 or 2: 2 exactly when the walk graph is bipartite.
    """

    n: int
    keys: np.ndarray = field(repr=False)  # (size,) uint64, BFS order
    successors: np.ndarray = field(repr=False)  # (size, n(n-1)) int32
    period: int

    @property
    def size(self) -> int:
        return int(self.keys.shape[0])


@dataclass(frozen=True)
class TransitionStructure:
    """Walk graph on the enumerated group.

    ``n`` is the dimension and ``size`` the group order.  ``adjacency[x]``
    is the sorted list of the n(n-1) neighbours of state x, one per move;
    which move reaches which neighbour is not kept (``GroupTable.successors``
    holds that in move order).  It is held neighbour-major (Fortran order)
    as intp so gathers index with it directly.  ``_laws`` reads that order:
    its row sum over ``p[adjacency]`` adds whole neighbour columns one after
    another, which fixes the bits of every law; ``funineq._ent_energy``
    gathers through the transpose in the same order.  ``funineq.run_suite``
    makes one C-ordered copy per run for ``_edge_sums`` to gather through,
    and ``_sparse_kernel`` copies the rows into CSR indices; each keeps its
    per-row summation order.  The kernel is symmetric with step probability
    1/(n(n-1)).  ``period`` is the group table's: 2 exactly when the walk
    graph is bipartite, else 1.
    """

    n: int
    size: int
    adjacency: np.ndarray = field(repr=False)  # (size, n(n-1)) intp, rows sorted
    period: int

    @property
    def degree(self) -> int:
        return self.adjacency.shape[1]

    @property
    def step_probability(self) -> float:
        return 1.0 / self.degree


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalue summary of the non-lazy kernel.

    ``eigenvalues`` is descending; for partial (Lanczos) reports it holds
    only (1, lambda_2, lambda_min).  ``period`` is 1 or 2: 2 exactly when
    the walk graph is bipartite, equivalently when -1 is an eigenvalue.
    """

    eigenvalues: np.ndarray
    gap: float
    absolute_gap: float
    period: int
    full_spectrum: bool
    n_states: int


def _successor_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The (len(keys), n(n-1)) uint64 successors of packed row-major keys.

    Column u adds row j(u) to row i(u), in ``chain._pair_tables`` order
    (lexicographic in (i, j)); row r of a key sits at bits r*n.  The shift,
    mask and XOR run in place, so only the output array is allocated.
    """
    ti, tj = (np.uint64(n) * tab.astype(np.uint64) for tab in _pair_tables(n))
    out = np.right_shift(keys[:, None], tj)
    out &= np.uint64((1 << n) - 1)
    out <<= ti
    out ^= keys[:, None]
    return out


def enumerate_group(n: int) -> GroupTable:
    """Enumerate the invertible group by BFS from the identity.

    Every element is visited exactly once; discovery order (queue order,
    moves scanned in ``_successor_keys`` order per state) is the canonical
    index order.  The search is level-synchronous: once a level's fresh keys
    are numbered, the index of its candidate keys is its rows of the
    successor table, and a successor inside the level's own index range is
    an edge within one level, which closes an odd cycle (period 1); without
    one, level parity two-colors the graph (period 2).  Limited to the
    analysed dimensions, n <= 4: at n = 5 the successor table alone would
    take about 800 MB.
    """
    if not 1 <= n <= ANALYZE_DIMENSIONS[-1]:
        raise ValueError(f"enumeration supports 1 <= n <= {ANALYZE_DIMENSIONS[-1]}")
    size = group_order(n)
    index = np.full(1 << (n * n), -1, dtype=np.int32)
    keys = np.empty(size, dtype=np.uint64)
    successors = np.empty((size, n * (n - 1)), dtype=np.int32)
    keys[0] = sum(1 << (i * n + i) for i in range(n))
    index[keys[0]] = 0
    lo, hi = 0, 1  # index range of the current level
    period = 2
    while lo < hi:
        # State-major candidate order keeps discovery order sequential.
        candidates = _successor_keys(keys[lo:hi], n)
        fresh = candidates[np.take(index, candidates) < 0]
        # Rising marks below -1; a minimum keeps each key's first in any write order.
        marks = np.arange(-1 - fresh.size, -1, dtype=np.int32)
        np.minimum.at(index, fresh, marks)
        uniq = fresh[np.take(index, fresh) == marks]
        index[uniq] = np.arange(hi, hi + uniq.size, dtype=np.int32)
        keys[hi : hi + uniq.size] = uniq
        rows = successors[lo:hi]
        rows[:] = np.take(index, candidates)
        if ((rows >= lo) & (rows < hi)).any():
            period = 1
        lo, hi = hi, hi + uniq.size
    if hi != size:
        raise RuntimeError(f"BFS found {hi} elements, expected {size}")
    return GroupTable(n=n, keys=keys, successors=successors, period=period)


def enumerate_group_reference(n: int) -> list[int]:
    """Scalar queue BFS; independent route used to pin the canonical order."""
    from collections import deque

    moves = list(itertools.permutations(range(n), 2))  # lexicographic (i, j), i != j
    start = sum(1 << (i * n + i) for i in range(n))
    seen = {start}
    out = [start]
    queue = deque([start])
    row_mask = (1 << n) - 1
    while queue:
        key = queue.popleft()
        for i, j in moves:
            row_j = (key >> (j * n)) & row_mask
            nxt = key ^ (row_j << (i * n))
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                queue.append(nxt)
    return out


def build_transition(gt: GroupTable) -> TransitionStructure:
    """Sorted adjacency lists of the walk graph, with the group table's period."""
    n = gt.n
    if n < 2:
        raise ValueError("the walk needs n >= 2")
    # Fortran order: a row sum over neighbours then adds whole neighbour
    # columns one after another, which fixes the bits of every law (a
    # C-ordered copy would sum pairwise).
    adjacency = np.sort(gt.successors, axis=1)
    adjacency = np.asfortranarray(adjacency, dtype=np.intp)
    return TransitionStructure(n=n, size=gt.size, adjacency=adjacency, period=gt.period)


def _laws(ts: TransitionStructure, lazy: bool):
    """The laws p_0, p_1, ... of the walk started from the identity (index 0).

    Each yielded array is fresh and never modified afterwards.
    """
    p = np.zeros(ts.size)
    p[0] = 1.0
    for t in itertools.count(1):
        yield p
        # Symmetric kernel: next(y) = mean of p over the neighbors of y.
        nxt = p[ts.adjacency].sum(axis=1) / ts.degree
        p = 0.5 * p + 0.5 * nxt if lazy else nxt
        if t % _RENORM_EVERY == 0:
            total = p.sum()
            if abs(total - 1.0) > _DRIFT_TOL:
                raise RuntimeError(f"distribution mass drifted to {float(total)!r} by t={t}")
            p /= total


def distribution_at(ts: TransitionStructure, t: int, lazy: bool = False) -> np.ndarray:
    """Law of the walk at time t started from the identity (index 0), as
    probabilities over group indices."""
    if t < 0:
        raise ValueError("time must be non-negative")
    return next(itertools.islice(_laws(ts, lazy), t, None))


def tv_distance(p: np.ndarray) -> float:
    """Total-variation distance to the uniform law on len(p) states: half the l1 distance."""
    return 0.5 * float(np.abs(p - 1.0 / len(p)).sum())


def l2_distance(p: np.ndarray) -> float:
    """pi-weighted l2 norm of the density minus one, pi uniform on len(p) states.

    This is sqrt(sum (p_x N - 1)^2 / N); it dominates twice the
    total-variation distance, which yields the standard relation
    t_mix(eps) <= t2_mix(2 eps) between the two mixing times.
    """
    return float(math.sqrt(np.square(p * len(p) - 1.0).sum() / len(p)))


def _distances(ts: TransitionStructure, lazy: bool):
    """The rows (t, tv, l2) for t = 0, 1, ... from the identity start."""
    for t, p in enumerate(_laws(ts, lazy)):
        yield t, tv_distance(p), l2_distance(p)


def mixing_curve(
    ts: TransitionStructure, tmax: int, lazy: bool = False
) -> list[tuple[int, float, float]]:
    """Exact (t, tv, l2) rows for t = 0..tmax from the identity start."""
    if tmax < 0:
        raise ValueError("tmax must be non-negative")
    return list(itertools.islice(_distances(ts, lazy), tmax + 1))


def mixing_times(ts: TransitionStructure, eps: float, lazy: bool = False) -> tuple[int, int]:
    """(t_mix, t2_mix): first times tv <= eps and l2 <= eps from identity.

    By right-translation invariance the identity start achieves the max
    over starting states.  A periodic chain never converges without
    laziness, so that combination is reported explicitly as an error.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not lazy and ts.period == 2:
        raise NonConvergentError(
            "periodic (bipartite) walk does not converge; use the lazy kernel"
        )
    t_tv = t_l2 = None
    cap = max(1000, 200 * ts.n * ts.n * max(1, int(math.log(ts.size))))
    for t, tv, l2 in itertools.islice(_distances(ts, lazy), cap + 1):
        if t_tv is None and tv <= eps:
            t_tv = t
        if t_l2 is None and l2 <= eps:
            t_l2 = t
        if t_tv is not None and t_l2 is not None:
            return t_tv, t_l2
    raise NonConvergentError(f"no convergence within {cap} steps")


def _dense_kernel(ts: TransitionStructure) -> np.ndarray:
    """The non-lazy transition matrix as a dense (size, size) array."""
    mat = np.zeros((ts.size, ts.size))
    rows = np.repeat(np.arange(ts.size), ts.degree)
    np.add.at(mat, (rows, ts.adjacency.reshape(-1)), ts.step_probability)
    return mat


def _sparse_kernel(ts: TransitionStructure):
    """The walk graph as a unit-weight CSR matrix over the sorted adjacency rows;
    its matvec adds each row's entries in order from 0.0, as ``_laws`` does."""
    from scipy.sparse import csr_matrix

    nnz = ts.size * ts.degree
    return csr_matrix(
        (np.ones(nnz), ts.adjacency.reshape(-1), np.arange(0, nnz + 1, ts.degree)),
        shape=(ts.size, ts.size),
    )


def _extremal_spectrum(ts: TransitionStructure) -> tuple[float, float]:
    """(lambda_2, lambda_min) by Lanczos with the top eigenvector deflated.

    The top eigenvector of the kernel is the constant vector, so the
    operator x -> Px - mean(x) zeroes that component and its largest
    eigenvalue is lambda_2.  A fixed start vector keeps runs reproducible.
    Raises RuntimeError when lambda_2's eigenvector misses its eigen-equation
    by more than _LANCZOS_RESIDUAL_TOL.  lambda_min is solved without
    vectors: asking ARPACK for them moves it in its last digits.  SciPy is
    imported here and in _sparse_kernel, its only uses, so other commands
    skip its import.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    size, deg = ts.size, ts.degree
    kernel = _sparse_kernel(ts)

    def pmv(x: np.ndarray) -> np.ndarray:
        return (kernel @ x) / deg

    def deflated(x: np.ndarray) -> np.ndarray:
        x = x.reshape(-1)
        return pmv(x) - x.mean()

    v0 = np.random.default_rng(0x5EED).standard_normal(size)
    op = LinearOperator((size, size), matvec=deflated, dtype=np.float64)
    vals, vecs = eigsh(op, k=1, which="LA", v0=v0)
    lam2, vec = vals[0], vecs[:, 0]
    residual = float(np.linalg.norm(deflated(vec) - lam2 * vec))
    if residual > _LANCZOS_RESIDUAL_TOL:
        raise RuntimeError(f"Lanczos residual {residual!r} exceeds {_LANCZOS_RESIDUAL_TOL!r}")
    full = LinearOperator((size, size), matvec=lambda x: pmv(x.reshape(-1)), dtype=np.float64)
    lam_min = eigsh(full, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
    return float(lam2), float(lam_min)


def spectral_report(ts: TransitionStructure) -> SpectralReport:
    """Spectrum, gaps and period of the non-lazy kernel.

    Dense symmetric eigensolve up to 5000 states (a 20160^2 dense matrix
    would need gigabytes); above that only the extremal eigenvalues are
    computed, which is all the gap and the absolute gap require.  The
    period is the enumeration's level two-coloring and must agree with
    the bottom of the spectrum (-1 iff bipartite).
    """
    if ts.size <= DENSE_SPECTRUM_LIMIT:
        vals = np.linalg.eigvalsh(_dense_kernel(ts))[::-1]
        full = True
    else:
        lam2, lam_min = _extremal_spectrum(ts)
        vals = np.array([1.0, lam2, lam_min])
        full = False
    if abs(vals[0] - 1.0) > 1e-9:
        raise RuntimeError("top eigenvalue is not 1; kernel is broken")
    lam2, lam_min = float(vals[1]), float(vals[-1])
    if (ts.period == 2) != (abs(lam_min + 1.0) < 1e-9):
        raise RuntimeError("two-coloring disagrees with the bottom eigenvalue")
    # A period-2 walk has -1 in its spectrum exactly; the solver's rounding
    # must not leave a spurious positive absolute gap.
    absolute_gap = 0.0 if ts.period == 2 else 1.0 - max(abs(lam2), abs(lam_min))
    return SpectralReport(
        eigenvalues=vals,
        gap=1.0 - lam2,
        absolute_gap=absolute_gap,
        period=ts.period,
        full_spectrum=full,
        n_states=ts.size,
    )


@functools.lru_cache(maxsize=4)
def analyze(n: int) -> tuple[GroupTable, TransitionStructure]:
    """Memoized (table, transition) pair for n in ANALYZE_DIMENSIONS; the spectrum
    is ``spectral_report(ts)``, computed only by the callers that read it."""
    if n not in ANALYZE_DIMENSIONS:
        raise ValueError(f"analysis needs n in {ANALYZE_DIMENSIONS[0]}..{ANALYZE_DIMENSIONS[-1]}")
    gt = enumerate_group(n)
    return gt, build_transition(gt)
