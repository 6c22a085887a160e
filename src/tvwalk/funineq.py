"""Functional inequalities on the enumerated walk: entropy, Dirichlet forms,
numerically checkable bounds, and log-Sobolev constant estimation.

Everything here works on real-valued functions aligned to GroupTable
indices under the uniform stationary law.  The checkers cover the chain of
bounds that controls the walk's log-Sobolev constant:

* entropy of f^2 against the key bound n(n-1) E(f,f) + n var(f);
* the entropy transfer from the group to the full matrix space via the
  extension that is constant (= mean of f) off the group;
* sub-additivity of entropy over independent rows, plus the consolidated
  row-swap/variance bound it leads to;
* the exact hypercube log-Sobolev inequality ent <= d * E_cube;
* the variance-versus-Dirichlet bound var <= 4(31 sqrt(n) + 700)^2 E and
  its spectral form gap >= 1 / (4(31 sqrt(n) + 700)^2).

All of these are theorem-backed: randomized suites must report zero
violations at relative tolerance 1e-9.  The estimator for the log-Sobolev
constant maximizes ent(f^2)/E(f,f) by projected gradient ascent and folds
in the universal spectral floor 2/gap, so its output is a certified lower
bound.  Calculators for the hypercontractivity mixing bound and the
counting lower bound close the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exactgroup import (
    DENSE_SPECTRUM_LIMIT,
    GroupTable,
    SpectralReport,
    TransitionStructure,
    _dense_kernel,
    analyze,
    spectral_report,
)
from .gf2core import derive_rng

__all__ = [
    "RELATIVE_TOL",
    "BoundReport",
    "RowDecompositionReport",
    "LsiEstimate",
    "SuiteResult",
    "entropy_sq",
    "dirichlet_form",
    "variance",
    "check_key_inequality",
    "check_extension_inequality",
    "check_row_decomposition",
    "hypercube_lsi_check",
    "kassabov_check",
    "kassabov_spectral_check",
    "kassabov_gap_floor",
    "estimate_lsi_constant",
    "log_order",
    "loglog_inv_pi_star",
    "mixing_bound",
    "counting_lower_bound",
    "run_suite",
    "SUITE_DIMENSIONS",
    "SUITE_NAMES",
    "LSI_DIMENSIONS",
]

# Inequality checks accept slack down to -RELATIVE_TOL * max(1, |rhs|).
RELATIVE_TOL = 1e-9

# Target element count per vectorized batch in the randomized suites; the
# row chunk is a fixed function of the state count, so the Gaussian draws
# and the reported slacks never depend on scheduling.
_SUITE_CHUNK_ELEMS = 1 << 19
# Values per edge-difference buffer (512 KiB): small enough to stay in cache.
_EDGE_BLOCK_ELEMS = 1 << 16

_STREAM_SUITE = 4
_STREAM_LSI = 5

# The LSI witness's ratio under the compensated oracles must agree with the
# ascent's own ratio to this relative tolerance.
_WITNESS_RTOL = 1e-12

# The dimensions n at which each suite is defined, in suite stream order.
# The hypercube suite runs on {0,1}^d and is defined at every n.
SUITE_DIMENSIONS = {
    "key": range(2, 5),
    "extension": range(2, 4),
    "rowdecomp": range(2, 3),
    "hypercube": None,
    "kassabov": range(2, 5),
}
SUITE_NAMES = tuple(SUITE_DIMENSIONS)

# The dimensions n at which the log-Sobolev constant is estimated.
LSI_DIMENSIONS = range(2, 4)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality: lhs <= rhs up to relative tolerance."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.slack >= -RELATIVE_TOL * max(1.0, abs(self.rhs))


@dataclass(frozen=True)
class RowDecompositionReport:
    """Sub-additivity step and the consolidated row bound, term by term."""

    subadditivity: BoundReport
    consolidated: BoundReport

    @property
    def satisfied(self) -> bool:
        return self.subadditivity.satisfied and self.consolidated.satisfied


@dataclass(frozen=True)
class LsiEstimate:
    """Certified lower bound on the log-Sobolev constant.

    ``best_ratio`` is ent(f^2)/E(f,f) at the best witness the optimizer
    found (``argmax``); ``spectral_floor`` is the universal bound 2/gap.
    ``estimate`` is their maximum, still a lower bound on the true constant
    because both components are.
    """

    n: int
    estimate: float
    best_ratio: float
    spectral_floor: float
    argmax: np.ndarray = field(repr=False)
    restarts: int = 0
    iters: int = 0
    seed: int = 0


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one randomized inequality suite."""

    check_name: str
    n: int
    trials: int
    violations: int
    min_slack: float


def _as_values(f, size: int) -> np.ndarray:
    values = np.asarray(f, dtype=np.float64)
    if values.shape != (size,):
        raise ValueError(f"function must have shape ({size},)")
    if not np.isfinite(values).all():
        raise ValueError("function values must be finite")
    return values


def entropy_sq(f, gt: GroupTable) -> float:
    """ent(f^2) under the uniform law: E[f^2 log f^2] - E[f^2] log E[f^2].

    Convention 0 * log 0 = 0.  Nonnegative by Jensen; zero exactly when |f|
    is constant.  Compensated summation keeps the small-slack suite checks
    honest.
    """
    return _entropy_uniform(_as_values(f, gt.size))


def _entropy_uniform(values: np.ndarray) -> float:
    sq = (values * values).tolist()
    m2 = math.fsum(sq) / len(sq)
    if m2 == 0.0:
        return 0.0
    terms = [s * math.log(s) for s in sq if s > 0.0]
    return math.fsum(terms) / len(sq) - m2 * math.log(m2)


def dirichlet_form(f, ts: TransitionStructure, gt: GroupTable) -> float:
    """Dirichlet form of the walk: (1/2) sum pi(x) P(x,y) (f(x)-f(y))^2.

    Zero exactly when f is constant, because the walk graph is connected.
    """
    values = _as_values(f, gt.size)
    diffs = values[:, None] - values[ts.adjacency]
    total = math.fsum(np.square(diffs).reshape(-1).tolist())
    return total / (2.0 * gt.size * ts.degree)


def variance(f, gt: GroupTable) -> float:
    """Variance under the uniform law."""
    values = _as_values(f, gt.size)
    mean = math.fsum(values.tolist()) / gt.size
    dev = values - mean
    return math.fsum((dev * dev).tolist()) / gt.size


def check_key_inequality(f, ts: TransitionStructure, gt: GroupTable) -> BoundReport:
    """ent(f^2) <= n(n-1) E(f,f) + n var(f) on the enumerated group."""
    n = gt.n
    lhs = entropy_sq(f, gt)
    rhs = n * (n - 1) * dirichlet_form(f, ts, gt) + n * variance(f, gt)
    return BoundReport("key", lhs, rhs)


def _invertible_key_positions(gt: GroupTable) -> np.ndarray:
    # Group keys double as positions in the 2^(n^2)-long ambient table.
    return gt.keys.astype(np.int64)


def _extension_values(values: np.ndarray, gt: GroupTable) -> np.ndarray:
    """Extend f to all 2^(n^2) matrices: mean of f off the group."""
    ambient = 1 << (gt.n * gt.n)
    fill = math.fsum(values.tolist()) / gt.size
    g = np.full(ambient, fill, dtype=np.float64)
    g[_invertible_key_positions(gt)] = values
    return g


def check_extension_inequality(f, gt: GroupTable, extended: bool = False) -> BoundReport:
    """ent over the group <= (2^(n^2) / |group|) * ent of the extension.

    The extension fills every non-invertible matrix with the mean of f and
    lives under the uniform law on all 2^(n^2) matrices.  Enumeration of
    the ambient space restricts this to n <= 3 (16 and 512 matrices);
    n = 4 (65536) is allowed behind the ``extended`` flag, n = 5 is not.
    """
    n = gt.n
    if n > 4 or (n == 4 and not extended):
        raise ValueError("ambient enumeration supports n <= 3 (n = 4 with extended=True)")
    values = _as_values(f, gt.size)
    lhs = _entropy_uniform(values)
    ambient = 1 << (n * n)
    rhs = (ambient / gt.size) * _entropy_uniform(_extension_values(values, gt))
    return BoundReport("extension", lhs, rhs)


def _rowdecomp_terms(
    values: np.ndarray, ts: TransitionStructure, gt: GroupTable
) -> tuple[float, float, float]:
    """(ent_mu(g^2), sub-additivity sum, consolidated rhs) for n = 2."""
    g = _extension_values(values, gt)
    ent_mu = _entropy_uniform(g)
    # Ambient key = row0 + 4 * row1, so a (row1, row0) view is a reshape.
    table = g.reshape(4, 4)
    # Conditioning on the other row leaves a uniform four-point law.
    cond_on_row1 = [_entropy_uniform(table[r1, :]) for r1 in range(4)]
    cond_on_row0 = [_entropy_uniform(table[:, r0]) for r0 in range(4)]
    subadd = math.fsum(cond_on_row1) / 4.0 + math.fsum(cond_on_row0) / 4.0
    # Consolidated bound: swap terms over ordered row pairs plus variance
    # terms once per row, both restricted to the group, averaged under mu.
    ambient = 1 << (gt.n * gt.n)
    mean_pi = math.fsum(values.tolist()) / gt.size
    swap = 0.0
    for m in range(ts.degree):
        moved = values[ts.move_perms[m]]
        swap += math.fsum(np.square(values - moved).tolist())
    swap /= 2.0 * ambient
    var_part = gt.n * math.fsum(np.square(values - mean_pi).tolist()) / ambient
    return ent_mu, subadd, swap + var_part


def check_row_decomposition(
    f, ts: TransitionStructure, gt: GroupTable
) -> RowDecompositionReport:
    """Entropy sub-additivity over rows and the consolidated bound (n = 2).

    (a) The entropy of the extension is at most the sum over rows of the
    expected conditional entropy given the other row; (b) it is also at
    most half the sum of squared row-swap differences over the group plus
    the per-row variance terms.  Both are reported separately.
    """
    if gt.n not in SUITE_DIMENSIONS["rowdecomp"]:
        raise ValueError("row decomposition is enumerable only for n = 2")
    values = _as_values(f, gt.size)
    ent_mu, subadd, consolidated = _rowdecomp_terms(values, ts, gt)
    return RowDecompositionReport(
        subadditivity=BoundReport("rowdecomp-subadditivity", ent_mu, subadd),
        consolidated=BoundReport("rowdecomp-consolidated", ent_mu, consolidated),
    )


def _hypercube_neighbors(d: int) -> np.ndarray:
    idx = np.arange(1 << d)
    return idx[:, None] ^ (1 << np.arange(d))[None, :]


def hypercube_lsi_check(d: int, f) -> BoundReport:
    """Exact hypercube bound: ent(f^2) <= d * E_cube(f,f) on {0,1}^d.

    E_cube is the Dirichlet form of the walk that flips one uniformly
    chosen coordinate; its log-Sobolev constant is exactly d.
    """
    if not 1 <= d <= 12:
        raise ValueError("need 1 <= d <= 12")
    values = np.asarray(f, dtype=np.float64)
    if values.shape != (1 << d,):
        raise ValueError(f"function must have shape ({1 << d},)")
    lhs = _entropy_uniform(values)
    diffs = values[:, None] - values[_hypercube_neighbors(d)]
    energy = math.fsum(np.square(diffs).reshape(-1).tolist()) / (2.0 * (1 << d) * d)
    return BoundReport("hypercube", lhs, d * energy)


def kassabov_gap_floor(n: int) -> float:
    """Universal spectral-gap floor 1 / (4 (31 sqrt(n) + 700)^2)."""
    return 1.0 / (4.0 * (31.0 * math.sqrt(n) + 700.0) ** 2)


def kassabov_check(f, ts: TransitionStructure, gt: GroupTable) -> BoundReport:
    """Variance bound var(f) <= 4 (31 sqrt(n) + 700)^2 E(f,f)."""
    lhs = variance(f, gt)
    rhs = dirichlet_form(f, ts, gt) / kassabov_gap_floor(gt.n)
    return BoundReport("kassabov", lhs, rhs)


def kassabov_spectral_check(n: int, report: SpectralReport) -> BoundReport:
    """Spectral form of the variance bound: the gap is above the floor."""
    return BoundReport("kassabov-spectral", kassabov_gap_floor(n), report.gap)


def log_order(n: int) -> float:
    """log |group| computed stably: n^2 log 2 + sum log(1 - 2^-k)."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return n * n * math.log(2.0) + math.fsum(
        math.log1p(-(0.5**k)) for k in range(1, n + 1)
    )


def loglog_inv_pi_star(n: int) -> float:
    """log log(1/pi_star) with pi_star the uniform probability 1/|group|."""
    return math.log(log_order(n))


def mixing_bound(n: int, eps: float, cls: float, inv_abs_gap: float) -> float:
    """Hypercontractivity upper bound on the chi-square mixing time.

    (cls/4) log log(1/pi_star) + inv_abs_gap * log(sqrt(1 + 2e^2)/eps) + 1,
    with pi_star = 1/|group| evaluated in the log domain so any n is safe.
    Monotone decreasing in eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if cls <= 0.0 or inv_abs_gap <= 0.0:
        raise ValueError("cls and inv_abs_gap must be positive")
    return (
        cls / 4.0 * loglog_inv_pi_star(n)
        + inv_abs_gap * math.log(math.sqrt(1.0 + 2.0 * math.e**2) / eps)
        + 1.0
    )


def counting_lower_bound(n: int, eps: float) -> int:
    """Smallest t with (n(n-1))^t >= (1 - eps) |group|, in the log domain.

    After t steps the walk's support holds at most (n(n-1))^t states, so
    total variation stays above eps before this time; the value grows like
    n^2 log 2 / log(n^2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    target = math.log1p(-eps) + log_order(n)
    denom = math.log(n * (n - 1))
    t = max(0, math.ceil(target / denom))
    while t > 0 and (t - 1) * denom >= target:
        t -= 1
    while t * denom < target:
        t += 1
    return t


# ---------------------------------------------------------------------------
# Batched formulas for the randomized suites.
# ---------------------------------------------------------------------------


def _ent_rows(batch: np.ndarray) -> np.ndarray:
    sq = batch * batch
    m2 = sq.mean(axis=1)
    logs = np.zeros_like(sq)
    np.log(sq, out=logs, where=sq > 0.0)
    logs *= sq
    s = logs.mean(axis=1)
    out = np.zeros_like(m2)
    pos = m2 > 0.0
    out[pos] = s[pos] - m2[pos] * np.log(m2[pos])
    return out


def _edge_sums(batch: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Per row: the sum of (f(x) - f(y))^2 over states x and neighbours y.

    One C-ordered (rows, states, degree) buffer of about _EDGE_BLOCK_ELEMS
    values holds the gather, the differences and their squares for a block
    of rows, so the work stays in cache.  Each row is summed over its own
    contiguous block, in the same order whatever the layout of
    ``adjacency`` and however many rows share the buffer.
    """
    size, degree = batch.shape[1], adjacency.shape[1]
    block = max(1, _EDGE_BLOCK_ELEMS // (size * degree))
    diffs = np.empty((min(block, len(batch)), size, degree))
    sums = np.empty(len(batch))
    for lo in range(0, len(batch), block):
        rows = batch[lo : lo + block]
        buf = diffs[: len(rows)]
        np.take(rows, adjacency, axis=1, out=buf)
        np.subtract(rows[:, :, None], buf, out=buf)
        np.square(buf, out=buf)
        buf.sum(axis=(1, 2), out=sums[lo : lo + block])
    return sums


def _dirichlet_rows(batch: np.ndarray, adjacency: np.ndarray, degree: int) -> np.ndarray:
    return _edge_sums(batch, adjacency) / (2.0 * batch.shape[1] * degree)


def _var_rows(batch: np.ndarray) -> np.ndarray:
    dev = batch - batch.mean(axis=1, keepdims=True)
    return np.square(dev).mean(axis=1)


def _slack_stats(lhs: np.ndarray, rhs: np.ndarray) -> tuple[int, float]:
    slack = rhs - lhs
    bad = slack < -RELATIVE_TOL * np.maximum(1.0, np.abs(rhs))
    return int(bad.sum()), float(slack.min())


def _adversarial_group_functions(ts: TransitionStructure, gt: GroupTable) -> np.ndarray:
    """Stress functions for the near-equality regimes: the indicator of the
    identity, its signed version, and the second eigenvector."""
    indicator = np.zeros(gt.size)
    indicator[0] = 1.0
    signed = np.full(gt.size, -1.0)
    signed[0] = 1.0
    rows = [indicator, signed]
    if gt.size <= DENSE_SPECTRUM_LIMIT:
        _, vecs = np.linalg.eigh(_dense_kernel(ts))
        rows.append(vecs[:, -2].copy())
    return np.stack(rows)


def _suite_batches(trials: int, size: int, rng: np.random.Generator):
    chunk = max(1, _SUITE_CHUNK_ELEMS // size)
    done = 0
    while done < trials:
        take = min(chunk, trials - done)
        yield rng.standard_normal((take, size))
        done += take


def run_suite(
    name: str,
    trials: int,
    seed: int,
    n: int | None = None,
    d: int = 8,
) -> SuiteResult:
    """Randomized zero-violation suite for one inequality checker.

    Draws `trials` i.i.d. standard-Gaussian functions plus a fixed family
    of adversarial functions (indicators, signed indicators, the second
    eigenvector) and counts violations at relative tolerance 1e-9.  The
    checked inequalities are theorem-backed, so any violation is a defect.
    Group suites run on ``analyze(n)`` for the n that SUITE_DIMENSIONS
    lists; the hypercube suite runs on {0,1}^d.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    suite_id = SUITE_NAMES.index(name)
    rng = derive_rng(seed, _STREAM_SUITE, suite_id)

    if name == "hypercube":
        size = 1 << d
        nbrs = _hypercube_neighbors(d)
        indicator = np.zeros(size)
        indicator[0] = 1.0
        dictator = ((np.arange(size) >> (d - 1)) & 1).astype(np.float64)
        extra = np.stack([indicator, 2.0 * indicator - 1.0, dictator])
        violations, min_slack = 0, math.inf
        for batch in [*_suite_batches(trials, size, rng), extra]:
            lhs = _ent_rows(batch)
            rhs = _edge_sums(batch, nbrs) / (2.0 * size)
            v, s = _slack_stats(lhs, rhs)
            violations += v
            min_slack = min(min_slack, s)
        return SuiteResult("hypercube", d, trials, violations, min_slack)

    if n is None:
        raise ValueError("group suites need n")
    dims = SUITE_DIMENSIONS[name]
    if n not in dims:
        raise ValueError(f"suite {name!r} is defined for n in {dims[0]}..{dims[-1]}")
    gt, ts = analyze(n)

    extra = _adversarial_group_functions(ts, gt)
    violations, min_slack = 0, math.inf
    for batch in [*_suite_batches(trials, gt.size, rng), extra]:
        if name == "key":
            lhs = _ent_rows(batch)
            rhs = (
                gt.n * (gt.n - 1) * _dirichlet_rows(batch, ts.adjacency, ts.degree)
                + gt.n * _var_rows(batch)
            )
        elif name == "extension":
            lhs = _ent_rows(batch)
            ambient = 1 << (gt.n * gt.n)
            g = np.empty((batch.shape[0], ambient))
            g[:] = batch.mean(axis=1, keepdims=True)
            g[:, _invertible_key_positions(gt)] = batch
            rhs = (ambient / gt.size) * _ent_rows(g)
        elif name == "rowdecomp":
            lhs_list, rhs_list = [], []
            for row in batch:
                ent_mu, subadd, consolidated = _rowdecomp_terms(row, ts, gt)
                lhs_list.extend([ent_mu, ent_mu])
                rhs_list.extend([subadd, consolidated])
            lhs = np.array(lhs_list)
            rhs = np.array(rhs_list)
        else:  # kassabov
            lhs = _var_rows(batch)
            rhs = _dirichlet_rows(batch, ts.adjacency, ts.degree) / kassabov_gap_floor(gt.n)
        v, s = _slack_stats(lhs, rhs)
        violations += v
        min_slack = min(min_slack, s)
    return SuiteResult(name, gt.n, trials, violations, min_slack)


# ---------------------------------------------------------------------------
# Log-Sobolev constant estimation.
# ---------------------------------------------------------------------------


def _ent_energy(
    rows: np.ndarray, adjacency: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row: (ent(f^2), E(f,f), log(f^2/m2), f - Pf) under the uniform law.

    E is <f, (I-P)f> and m2 = E[f^2]; the last two terms are what the
    gradients of ent and E are made of (0 stands in for log 0).  The means
    are sums over the row divided by its length and log m2 is math.log, so
    a row's values do not depend on the other rows of the batch.
    """
    size = rows.shape[1]
    sq = rows * rows
    m2 = sq.sum(axis=1) / size
    logs = np.zeros_like(sq)
    np.log(sq, out=logs, where=sq > 0.0)
    log_m2 = np.array([math.log(m) if m > 0.0 else 0.0 for m in m2.tolist()])
    ent = (sq * logs).sum(axis=1) / size - m2 * log_m2
    # Neighbour-major gather: one (rows, degree, states) block.
    resid = rows - rows[:, adjacency.T].sum(axis=1) / adjacency.shape[1]
    energy = (resid * rows).sum(axis=1) / size
    logs -= log_m2[:, None]
    return ent, energy, logs, resid


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    # sqrt(row . row) is the BLAS dot that np.linalg.norm takes.
    return rows / np.array([[math.sqrt(row.dot(row))] for row in rows])


# The line search halves the step from 1 down to 2^-39.  Each block of eight
# halvings is scored as one batch, and the first step that raises the ratio
# wins, so the iterates are those of halving one step at a time.
_BACKTRACK_BLOCKS = np.array([0.5**k for k in range(40)]).reshape(5, 8, 1)


def _ratios(ents: np.ndarray, energies: np.ndarray) -> np.ndarray:
    return np.divide(ents, energies, out=np.full(len(ents), -math.inf), where=energies > 0.0)


def _ascend(
    starts: np.ndarray, adjacency: np.ndarray, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent of ent/E from each row of `starts`, in lockstep.

    Returns each row's final ratio and unit-norm iterate.  A row leaves the
    batch when its ratio is not finite, its gradient vanishes or no step
    raises its ratio.  Every step is elementwise, a per-row dot or a row of
    `_ent_energy`, so each row ends exactly where it would ascending alone.
    """
    rows = _unit_rows(starts)
    ents, energies, log_ratios, resids = _ent_energy(rows, adjacency)
    size = rows.shape[1]
    live = np.arange(len(rows))
    for _ in range(iters):
        ratio = _ratios(ents[live], energies[live])
        finite = np.isfinite(ratio)
        live, ratio = live[finite], ratio[finite]
        f, ent, energy = rows[live], ents[live, None], energies[live, None]
        # d ent/d f = (2/N) f log(f^2/m2); d E/d f = (2/N) (f - Pf).
        grad_ent = 2.0 * f * log_ratios[live] / size
        grad_energy = 2.0 * resids[live] / size
        grad = (grad_ent * energy - ent * grad_energy) / (energy * energy)
        for g, row in zip(grad, f):
            g -= np.dot(g, row) * row  # tangent to the unit sphere
        pending = np.flatnonzero([not math.sqrt(g.dot(g)) < 1e-14 for g in grad])
        moved = np.zeros(len(live), dtype=bool)
        for steps in _BACKTRACK_BLOCKS:
            if not pending.size:
                break
            cands = _unit_rows((f[pending, None] + steps * grad[pending, None]).reshape(-1, size))
            terms = _ent_energy(cands, adjacency)
            better = _ratios(terms[0], terms[1]).reshape(len(pending), -1) > (
                ratio[pending, None] + 1e-14
            )
            won = better.any(axis=1)
            # The first raising step of each row that has one.
            pick = np.flatnonzero(won) * better.shape[1] + better.argmax(axis=1)[won]
            dest = live[pending[won]]
            rows[dest], ents[dest], energies[dest] = cands[pick], terms[0][pick], terms[1][pick]
            log_ratios[dest], resids[dest] = terms[2][pick], terms[3][pick]
            moved[pending[won]] = True
            pending = pending[~won]
        live = live[moved]
        if not live.size:
            break
    return _ratios(ents, energies), rows


def estimate_lsi_constant(
    ts: TransitionStructure,
    gt: GroupTable,
    restarts: int = 50,
    iters: int = 1500,
    seed: int = 0,
) -> LsiEstimate:
    """Certified lower bound on the log-Sobolev constant of the walk.

    Maximizes ent(f^2)/E(f,f) on the unit sphere by projected gradient
    ascent with backtracking line search, started from the deterministic
    witness f = indicator of the identity plus `restarts` Gaussian starts.
    The result is the best ratio found, floored by the universal spectral
    bound 2/gap; each component is a true lower bound, hence so is the
    maximum.  Deterministic in (restarts, iters, seed): restarts run in
    index order and ties keep the earliest winner.  Raises RuntimeError if
    the winning witness, re-scored by the compensated ``entropy_sq`` and
    ``dirichlet_form``, misses the best ratio by more than a relative 1e-12.
    """
    if gt.n not in LSI_DIMENSIONS:
        raise ValueError(f"estimation is supported for n in {set(LSI_DIMENSIONS)}")
    if restarts < 0 or iters < 1:
        raise ValueError("need restarts >= 0 and iters >= 1")
    starts = np.zeros((restarts + 1, gt.size))
    starts[0, 0] = 1.0
    rng = derive_rng(seed, _STREAM_LSI)
    for cand in starts[1:]:
        cand[:] = rng.standard_normal(gt.size)
        # A near-constant start has no usable gradient; redraw it.
        while np.linalg.norm(cand - cand.mean()) < 1e-9:
            cand[:] = rng.standard_normal(gt.size)
    ratios, witnesses = _ascend(starts, ts.adjacency, iters)
    best = 0
    for i in range(1, len(ratios)):
        if ratios[i] > ratios[best]:
            best = i
    best_ratio, best_f = float(ratios[best]), witnesses[best].copy()
    witness = entropy_sq(best_f, gt) / dirichlet_form(best_f, ts, gt)
    if not math.isclose(witness, best_ratio, rel_tol=_WITNESS_RTOL):
        raise RuntimeError(
            f"LSI witness scores {witness!r} under the compensated oracles, "
            f"not the ascent's {best_ratio!r}"
        )
    floor = 2.0 / spectral_report(ts).gap
    return LsiEstimate(
        n=gt.n,
        estimate=max(best_ratio, floor),
        best_ratio=best_ratio,
        spectral_floor=floor,
        argmax=best_f,
        restarts=restarts,
        iters=iters,
        seed=seed,
    )
