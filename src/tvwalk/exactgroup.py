"""Exhaustive analysis of the walk on small invertible-matrix groups.

For n <= 5 the group of invertible n x n matrices over Z_2 is enumerated by
breadth-first search from the identity, using row-major packed integer keys
(n^2 <= 25 bits).  BFS discovery order is the canonical element order, so
every table, curve and regression constant is reproducible bit for bit.

On the enumerated group the module builds the exact transition structure of
the walk, iterates distributions, computes total-variation and chi-square
(pi-weighted l2) distances and mixing times, detects the period by
two-coloring, and on request extracts the spectrum (dense below 5000 states,
extremal eigenvalues by Lanczos iteration above), cross-checking the period
against the bottom eigenvalue.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
]

ENUMERATION_CAP = 5
DENSE_SPECTRUM_LIMIT = 5000

# Frontier chunk for the vectorized BFS; bounds peak candidate memory at
# roughly chunk * n(n-1) packed keys.
_BFS_CHUNK = 1 << 18

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
    sits at index 0.  Lookup from key to index goes through a sorted copy.
    """

    n: int
    keys: np.ndarray = field(repr=False)  # (size,) uint64, BFS order
    _sorted_keys: np.ndarray = field(repr=False)
    _sort_perm: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return int(self.keys.shape[0])

    def index_of(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized key -> index; raises if any key is not in the group."""
        keys = np.asarray(keys, dtype=np.uint64)
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.clip(pos, 0, self.size - 1)
        if not np.array_equal(self._sorted_keys[pos], keys):
            raise KeyError("key does not belong to the enumerated group")
        return self._sort_perm[pos]

    @property
    def pi(self) -> float:
        """Stationary probability of any single state (uniform law)."""
        return 1.0 / self.size


@dataclass(frozen=True)
class TransitionStructure:
    """Walk graph on the enumerated group.

    ``move_perms[m, x]`` is the state reached from x by the m-th move in
    lexicographic (i, j) order; ``adjacency[x]`` is the sorted list of the
    n(n-1) neighbors of x, held neighbour-major (Fortran order) as intp so
    gathers index with it directly.  The kernel is symmetric with step
    probability 1/(n(n-1)).  ``period`` is 1 or 2: 2 exactly when the walk
    graph is bipartite.
    """

    n: int
    size: int
    moves: tuple[tuple[int, int], ...]
    move_perms: np.ndarray = field(repr=False)  # (M, size) int32
    adjacency: np.ndarray = field(repr=False)  # (size, M) intp, rows sorted
    period: int

    @property
    def degree(self) -> int:
        return len(self.moves)

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

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def _move_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def _apply_move_keys(keys: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Row i ^= row j on packed row-major keys, vectorized."""
    row_mask = np.uint64((1 << n) - 1)
    row_j = (keys >> np.uint64(j * n)) & row_mask
    return keys ^ (row_j << np.uint64(i * n))


def enumerate_group(n: int) -> GroupTable:
    """Enumerate the invertible group by BFS from the identity.

    Every element is visited exactly once; discovery order (queue order,
    moves scanned in lexicographic order per state) is the canonical index
    order.  Capped at n = 5 (about 10^7 elements); larger n is out of reach
    for exhaustive analysis.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_CAP}")
    identity_key = sum(1 << (i * n + i) for i in range(n))
    if n == 1:
        keys = np.array([identity_key], dtype=np.uint64)
        return _table_from_keys(n, keys)
    moves = _move_list(n)
    visited = np.zeros(1 << (n * n), dtype=bool)
    visited[identity_key] = True
    order: list[np.ndarray] = [np.array([identity_key], dtype=np.uint64)]
    frontier = order[0]
    while frontier.size:
        new_chunks: list[np.ndarray] = []
        for lo in range(0, frontier.size, _BFS_CHUNK):
            chunk = frontier[lo : lo + _BFS_CHUNK]
            # State-major candidate order keeps discovery order sequential.
            cand = np.empty((chunk.size, len(moves)), dtype=np.uint64)
            for m, (i, j) in enumerate(moves):
                cand[:, m] = _apply_move_keys(chunk, i, j, n)
            flat = cand.reshape(-1)
            fresh = flat[~visited[flat]]
            uniq, first = np.unique(fresh, return_index=True)
            uniq = uniq[np.argsort(first)]
            visited[uniq] = True
            new_chunks.append(uniq)
        frontier = np.concatenate(new_chunks) if new_chunks else np.array([], dtype=np.uint64)
        if frontier.size:
            order.append(frontier)
    keys = np.concatenate(order)
    expected = group_order(n)
    if keys.size != expected:
        raise RuntimeError(f"BFS found {keys.size} elements, expected {expected}")
    return _table_from_keys(n, keys)


def enumerate_group_reference(n: int) -> list[int]:
    """Scalar queue BFS; independent route used to pin the canonical order."""
    if n == 1:
        return [1]
    from collections import deque

    moves = _move_list(n)
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


def _table_from_keys(n: int, keys: np.ndarray) -> GroupTable:
    perm = np.argsort(keys, kind="stable")
    return GroupTable(
        n=n,
        keys=keys,
        _sorted_keys=keys[perm],
        _sort_perm=perm.astype(np.int64),
    )


def build_transition(gt: GroupTable) -> TransitionStructure:
    """Per-move permutations, sorted adjacency lists and period of the walk graph."""
    n = gt.n
    if n < 2:
        raise ValueError("the walk needs n >= 2")
    moves = _move_list(n)
    size = gt.size
    move_perms = np.empty((len(moves), size), dtype=np.int32)
    for m, (i, j) in enumerate(moves):
        move_perms[m] = gt.index_of(_apply_move_keys(gt.keys, i, j, n))
    # Sorting the transposed view keeps its Fortran order: a row sum over
    # neighbours then adds whole neighbour columns one after another, which
    # fixes the bits of every law (a C-ordered copy would sum pairwise).
    adjacency = np.sort(move_perms.T, axis=1).astype(np.intp)
    return TransitionStructure(
        n=n, size=size, moves=moves, move_perms=move_perms, adjacency=adjacency,
        period=_period(adjacency),
    )


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


def tv_distance(p: np.ndarray, gt: GroupTable) -> float:
    """Total-variation distance to uniform: half the l1 distance."""
    return 0.5 * float(np.abs(p - gt.pi).sum())


def l2_distance(p: np.ndarray, gt: GroupTable) -> float:
    """pi-weighted l2 norm of the density minus one.

    With uniform pi this is sqrt(sum (p_x N - 1)^2 / N); it dominates twice
    the total-variation distance, which yields the standard relation
    t_mix(eps) <= t2_mix(2 eps) between the two mixing times.
    """
    dens = p * gt.size - 1.0
    return float(math.sqrt(np.square(dens).sum() / gt.size))


def mixing_curve(
    ts: TransitionStructure, gt: GroupTable, tmax: int, lazy: bool = False
) -> list[tuple[int, float, float]]:
    """Exact (t, tv, l2) rows for t = 0..tmax from the identity start."""
    rows = []
    for t, p in zip(range(tmax + 1), _laws(ts, lazy)):
        rows.append((t, tv_distance(p, gt), l2_distance(p, gt)))
    return rows


def _period(adjacency: np.ndarray) -> int:
    """2 if a BFS two-coloring succeeds (bipartite graph), 1 at its first odd cycle."""
    size, degree = adjacency.shape
    color = np.full(size, -1, dtype=np.int8)
    color[0] = 0
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        nbrs = adjacency[frontier].reshape(-1)
        src_color = np.repeat(color[frontier], degree)
        clash = color[nbrs] == src_color
        if clash.any():
            return 1
        fresh_mask = color[nbrs] == -1
        fresh = nbrs[fresh_mask]
        color[fresh] = 1 - src_color[fresh_mask]
        frontier = np.unique(fresh)
    if (color == -1).any():
        raise RuntimeError("walk graph is not connected")
    return 2


def mixing_times(
    ts: TransitionStructure, gt: GroupTable, eps: float, lazy: bool = False
) -> tuple[int, int]:
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
    t_tv: int | None = None
    t_l2: int | None = None
    cap = max(1000, 200 * ts.n * ts.n * max(1, int(math.log(gt.size))))
    for t, p in zip(range(cap + 1), _laws(ts, lazy)):
        if t_tv is None and tv_distance(p, gt) <= eps:
            t_tv = t
        if t_l2 is None and l2_distance(p, gt) <= eps:
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


def _extremal_spectrum(ts: TransitionStructure) -> tuple[float, float]:
    """(lambda_2, lambda_min) by Lanczos with the top eigenvector deflated.

    The top eigenvector of the kernel is the constant vector, so the
    operator x -> Px - mean(x) zeroes that component and its largest
    eigenvalue is lambda_2.  A fixed start vector keeps runs reproducible.
    SciPy is imported here, its only use, so other commands skip its import.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    size, deg = ts.size, ts.degree

    def pmv(x: np.ndarray) -> np.ndarray:
        return x[ts.adjacency].sum(axis=1) / deg

    def deflated(x: np.ndarray) -> np.ndarray:
        x = x.reshape(-1)
        return pmv(x) - x.mean()

    v0 = np.random.default_rng(0x5EED).standard_normal(size)
    op = LinearOperator((size, size), matvec=deflated, dtype=np.float64)
    lam2 = eigsh(op, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    full = LinearOperator((size, size), matvec=lambda x: pmv(x.reshape(-1)), dtype=np.float64)
    lam_min = eigsh(full, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
    return float(lam2), float(lam_min)


def spectral_report(ts: TransitionStructure) -> SpectralReport:
    """Spectrum, gaps and period of the non-lazy kernel.

    Dense symmetric eigensolve up to 5000 states (a 20160^2 dense matrix
    would need gigabytes); above that only the extremal eigenvalues are
    computed, which is all the gap and the absolute gap require.  The
    period is the transition structure's two-coloring and must agree with
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
    """Memoized (table, transition) pair for small n; the spectrum is
    ``spectral_report(ts)``, computed only by the callers that read it."""
    gt = enumerate_group(n)
    return gt, build_transition(gt)
