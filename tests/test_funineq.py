"""Entropy, Dirichlet forms, suite evaluators, suites, bound calculators."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from tvwalk import funineq as fi
from tvwalk.exactgroup import analyze, spectral_report


@pytest.fixture(scope="module")
def g2():
    return analyze(2)


@pytest.fixture(scope="module")
def g3():
    return analyze(3)


def identity_indicator(size):
    f = np.zeros(size)
    f[0] = 1.0
    return f


class TestFunctionals:
    def test_indicator_oracles_n2(self, g2):
        _, ts = g2
        f = identity_indicator(6)
        assert fi.entropy_sq(f) == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert fi.dirichlet_form(f, ts) == pytest.approx(1 / 6, abs=1e-15)
        assert fi.variance(f) == pytest.approx(5 / 36, abs=1e-15)

    def test_constant_function_vanishes(self, g3):
        _, ts = g3
        f = np.full(ts.size, 2.5)
        assert fi.entropy_sq(f) == 0.0
        assert fi.dirichlet_form(f, ts) == pytest.approx(0.0, abs=1e-15)
        assert fi.variance(f) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_nonnegative_and_scale_covariant(self, g3):
        gt, _ = g3
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.standard_normal(gt.size)
            ent = fi.entropy_sq(f)
            assert ent >= 0.0
            # ent((cf)^2) = c^2 ent(f^2)
            assert fi.entropy_sq(3.0 * f) == pytest.approx(9.0 * ent, rel=1e-12)

    def test_dirichlet_matches_quadratic_form(self, g3):
        """Half-sum route equals <f, (I-P)f> under the uniform law."""
        _, ts = g3
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.standard_normal(ts.size)
            pf = f[ts.adjacency].mean(axis=1)
            quad = float(((f - pf) * f).mean())
            assert fi.dirichlet_form(f, ts) == pytest.approx(quad, abs=1e-12)

    def test_shape_and_finiteness_validation(self, g2):
        _, ts = g2
        for bad in (np.zeros((2, 3)), np.zeros(0)):
            with pytest.raises(ValueError, match="non-empty 1-D"):
                fi.entropy_sq(bad)
        with pytest.raises(ValueError):
            fi.variance(np.array([np.nan] * 6))
        with pytest.raises(ValueError):
            fi.dirichlet_form(np.zeros((2, 3)), ts)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            fi.dirichlet_form(np.zeros(5), ts)

    def test_oracles_read_the_function_alone(self):
        """entropy_sq and variance hold under the uniform law on len(f) states."""
        f = identity_indicator(5)
        assert fi.entropy_sq(f) == pytest.approx(math.log(5) / 5, abs=1e-15)
        assert fi.variance(f) == pytest.approx(4 / 25, abs=1e-15)


def suite_terms(name, f, domain):
    """The suite's evaluator on a batch of one function."""
    return fi._SUITE_TERMS[name](np.asarray(f, dtype=float)[None, :], domain)


def group_terms(name, f, n):
    """A group suite's evaluator on one function, over the domain run_suite gives it."""
    return suite_terms(name, f, fi._group_domain(name, n))


def satisfied(lhs, rhs):
    return fi._slack_stats(lhs, rhs)[0] == 0


class TestKeyInequality:
    def test_indicator_frozen(self):
        lhs, rhs = group_terms("key", identity_indicator(6), 2)
        assert lhs[0] == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert rhs[0] == pytest.approx(11 / 18, abs=1e-15)
        assert satisfied(lhs, rhs) and rhs[0] - lhs[0] > 0

    def test_random_functions_satisfied(self, g3):
        gt, _ = g3
        rng = np.random.default_rng(11)
        for _ in range(25):
            assert satisfied(*group_terms("key", rng.standard_normal(gt.size), 3))


class TestExtensionInequality:
    def test_indicator_frozen(self):
        lhs, rhs = group_terms("extension", identity_indicator(6), 2)
        assert lhs[0] == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert rhs[0] == pytest.approx(0.37235304985625706, abs=1e-12)
        assert satisfied(lhs, rhs)


class TestRowDecomposition:
    def test_indicator_frozen(self):
        # one row for the sub-additivity step, one for the consolidated bound
        lhs, rhs = group_terms("rowdecomp", identity_indicator(6), 2)
        assert lhs[0] == pytest.approx(0.1396323936960964, abs=1e-12)
        assert rhs[0] == pytest.approx(0.1605214658319893, abs=1e-12)
        assert lhs[1] == lhs[0]
        assert rhs[1] == pytest.approx(11 / 48, abs=1e-12)
        assert satisfied(lhs, rhs)

    def test_random_functions_satisfied(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            assert satisfied(*group_terms("rowdecomp", rng.standard_normal(6), 2))

    def test_only_n2(self):
        assert fi.SUITE_DIMENSIONS["rowdecomp"] == range(2, 3)
        with pytest.raises(ValueError, match=r"n in 2\.\.2"):
            fi.run_suite("rowdecomp", 10, seed=0, n=3)


class TestHypercube:
    def test_indicator_d1(self):
        lhs, rhs = suite_terms("hypercube", [1.0, 0.0], fi._hypercube_neighbors(1))
        assert lhs[0] == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert rhs[0] == pytest.approx(0.5, abs=1e-15)
        assert satisfied(lhs, rhs)

    def test_dictator_frozen(self):
        d = 5
        f = ((np.arange(1 << d) >> 2) & 1).astype(float)
        lhs, rhs = suite_terms("hypercube", f, fi._hypercube_neighbors(d))
        assert lhs[0] == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert rhs[0] == pytest.approx(0.5, abs=1e-15)

    def test_near_constant_perturbation_is_tight(self):
        """lhs/rhs -> 1 as f -> constant along a dictator direction."""
        d = 5
        dic = ((np.arange(1 << d) >> 2) & 1).astype(float)
        lhs, rhs = suite_terms("hypercube", 1.0 + 0.001 * dic, fi._hypercube_neighbors(d))
        assert satisfied(lhs, rhs)
        assert lhs[0] / rhs[0] > 0.99999

    def test_random_satisfied(self):
        rng = np.random.default_rng(17)
        nbrs = fi._hypercube_neighbors(4)
        for _ in range(20):
            assert satisfied(*suite_terms("hypercube", rng.standard_normal(16), nbrs))

    def test_d_validation(self):
        assert fi.HYPERCUBE_DIMENSIONS == range(1, 13)
        for d in (1, 12):  # both ends run
            assert fi.run_suite("hypercube", 2, seed=0, d=d).violations == 0
        with pytest.raises(ValueError, match=r"d in 1\.\.12"):
            fi.run_suite("hypercube", 5, seed=0, d=0)


class TestKassabov:
    def test_floor_frozen(self):
        assert fi.kassabov_gap_floor(3) == pytest.approx(4.4009900076078144e-07, rel=1e-15)
        assert fi.kassabov_gap_floor(1) == pytest.approx(1 / (4 * 731.0**2), rel=1e-15)

    def test_floor_decreasing(self):
        floors = [fi.kassabov_gap_floor(n) for n in range(2, 50)]
        assert all(a > b for a, b in zip(floors, floors[1:]))

    def test_variance_form(self, g3):
        gt, _ = g3
        rng = np.random.default_rng(19)
        for _ in range(25):
            assert satisfied(*group_terms("kassabov", rng.standard_normal(gt.size), 3))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spectral_form(self, n):
        assert spectral_report(analyze(n)[1]).gap >= fi.kassabov_gap_floor(n)


def oracle_terms(name, f, dim):
    """The suite's (lhs, rhs) at cube dimension d or group dimension n = dim,
    composed from the compensated oracles."""
    if name == "hypercube":
        # the cube as a walk graph: degree d, 2^d states
        nbrs = fi._hypercube_neighbors(dim)
        cube_ts = SimpleNamespace(adjacency=nbrs, degree=dim, size=1 << dim)
        return [fi._entropy_uniform(f)], [dim * fi.dirichlet_form(f, cube_ts)]
    gt, ts = analyze(dim)
    energy = fi.dirichlet_form(f, ts)
    var = fi.variance(f)
    if name == "key":
        return [fi.entropy_sq(f)], [gt.n * (gt.n - 1) * energy + gt.n * var]
    if name == "kassabov":
        return [var], [energy / fi.kassabov_gap_floor(gt.n)]
    g = fi._extension_values(f, gt)
    ambient = len(g)
    ent_mu = fi._entropy_uniform(g)
    if name == "extension":
        return [fi.entropy_sq(f)], [(ambient / gt.size) * ent_mu]
    # rowdecomp: conditional entropies of each row given the other, and the
    # row swaps (the walk's moves) plus per-row variances, averaged under mu
    table = g.reshape(4, 4)
    ent = fi._entropy_uniform
    subadd = sum(ent(table[r]) + ent(table[:, r]) for r in range(4))
    consolidated = gt.size * (ts.degree * energy + gt.n * var) / ambient
    return [ent_mu, ent_mu], [subadd / 4.0, consolidated]


ORACLE_DOMAINS = [
    ("key", 2), ("key", 3), ("key", 4),
    ("extension", 2), ("extension", 3),
    ("rowdecomp", 2),
    ("hypercube", 1), ("hypercube", 4), ("hypercube", 8),
    ("kassabov", 2), ("kassabov", 3), ("kassabov", 4),
]


class TestEvaluatorsMatchOracles:
    """Each suite evaluator agrees with the compensated oracles."""

    def test_table_in_suite_order(self):
        assert tuple(fi._SUITE_TERMS) == fi.SUITE_NAMES

    @pytest.mark.parametrize("name,dim", ORACLE_DOMAINS)
    def test_agreement(self, name, dim):
        rng = np.random.default_rng(dim)
        if name == "hypercube":
            domain, size = fi._hypercube_neighbors(dim), 1 << dim
            adversarial = fi._adversarial_cube_functions(dim)
        else:
            domain = fi._group_domain(name, dim)
            adversarial = fi._adversarial_group_functions(analyze(dim)[1])
            size = adversarial.shape[1]
        gaussian = rng.standard_normal((20 if size > 5000 else 200, size))
        rows = np.vstack([gaussian, evaluator_rows(size, seed=dim), adversarial])
        lhs, rhs = fi._SUITE_TERMS[name](rows, domain)
        want_lhs, want_rhs = [], []
        for row in rows:
            a, b = oracle_terms(name, row, dim)
            want_lhs += a
            want_rhs += b
        for got, want in ((lhs, want_lhs), (rhs, want_rhs)):
            want = np.array(want)
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


class TestSuites:
    @pytest.mark.parametrize(
        "name,kwargs,trials",
        [
            ("key", {"n": 3}, 300),
            ("extension", {"n": 2}, 300),
            ("rowdecomp", {"n": 2}, 60),
            ("hypercube", {"d": 6}, 300),
            ("kassabov", {"n": 3}, 300),
        ],
    )
    def test_zero_violations(self, name, kwargs, trials):
        res = fi.run_suite(name, trials, seed=2026, **kwargs)
        assert res.violations == 0
        assert res.trials == trials
        assert res.min_slack > -fi.RELATIVE_TOL

    @pytest.mark.parametrize("size", [6, 168, 4096, 20160])
    def test_batches_are_one_draw(self, size):
        """Chunked draws equal one (trials, size) draw, ending in the same state."""
        chunk = max(1, fi._SUITE_CHUNK_ELEMS // size)
        trials = 2 * chunk + 1
        rng, ref = (fi.derive_rng(size, fi._STREAM_SUITE) for _ in range(2))
        batches = list(fi._suite_batches(trials, size, rng))
        assert [len(b) for b in batches] == [chunk, chunk, 1]
        assert np.array_equal(np.concatenate(batches), ref.standard_normal((trials, size)))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("chunk", [1 << 19, 168 * 7 + 5, 100])
    def test_result_independent_of_chunk(self, monkeypatch, chunk):
        want = fi.run_suite("key", 500, seed=9, n=3)
        monkeypatch.setattr(fi, "_SUITE_CHUNK_ELEMS", chunk)
        assert fi.run_suite("key", 500, seed=9, n=3) == want

    def test_memory_bounded_in_trials(self):
        """The suite holds one batch of draws at a time: its traced peak does
        not grow with the trial count (20,000 functions on the 168 states of
        n = 3 would be 27 MB of draws held at once)."""
        fi.run_suite("key", 1, seed=0, n=3)  # memoizes analyze(3)
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                fi.run_suite("key", trials, seed=3, n=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**19

    def test_deterministic(self):
        a = fi.run_suite("key", 100, seed=5, n=2)
        b = fi.run_suite("key", 100, seed=5, n=2)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            fi.run_suite("nonsense", 10, seed=0, n=2)
        with pytest.raises(ValueError):
            fi.run_suite("key", 0, seed=0, n=2)
        with pytest.raises(ValueError):
            fi.run_suite("key", 10, seed=0)  # no group given
        with pytest.raises(ValueError):
            fi.run_suite("rowdecomp", 10, seed=0, n=3)
        with pytest.raises(ValueError):
            fi.run_suite("extension", 10, seed=0, n=4)
        for d in (0, -1, 13):
            with pytest.raises(ValueError):
                fi.run_suite("hypercube", 10, seed=0, d=d)
        for name in ("key", "kassabov"):
            with pytest.raises(ValueError):
                fi.run_suite(name, 10, seed=0, n=5)


class TestCalculators:
    def test_log_order_matches_direct(self, g3):
        from tvwalk.exactgroup import group_order

        for n in (2, 3, 4, 8):
            assert fi.log_order(n) == pytest.approx(math.log(group_order(n)), rel=1e-14)

    def test_loglog_frozen(self):
        assert fi.loglog_inv_pi_star(3) == pytest.approx(1.633928354228994, abs=1e-14)

    def test_mixing_bound_monotone_in_eps(self):
        vals = [fi.mixing_bound(3, eps, 8.0, 4.0) for eps in (0.1, 0.25, 0.5)]
        assert vals[0] > vals[1] > vals[2]

    def test_mixing_bound_validation(self):
        with pytest.raises(ValueError):
            fi.mixing_bound(3, 0.0, 8.0, 4.0)
        with pytest.raises(ValueError):
            fi.mixing_bound(3, 0.25, -1.0, 4.0)
        with pytest.raises(ValueError):
            fi.mixing_bound(3, 0.25, 8.0, 0.0)

    def test_counting_frozen(self):
        assert fi.counting_lower_bound(2, 0.25) == 3
        assert fi.counting_lower_bound(3, 0.25) == 3

    def test_counting_is_minimal(self):
        from tvwalk.exactgroup import group_order

        for n in (2, 3, 5, 10):
            for eps in (0.1, 0.25, 0.5):
                t = fi.counting_lower_bound(n, eps)
                deg = n * (n - 1)
                assert deg**t >= (1 - eps) * group_order(n)
                if t > 0:
                    assert deg ** (t - 1) < (1 - eps) * group_order(n)

    def test_counting_validation(self):
        with pytest.raises(ValueError):
            fi.counting_lower_bound(1, 0.25)
        with pytest.raises(ValueError):
            fi.counting_lower_bound(3, 1.0)


def scalar_ent_energy(values, adjacency):
    """The ascent's one-function formulas as they stood before batching."""
    sq = values * values
    m2 = sq.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(sq > 0.0, np.log(sq), 0.0)
    log_m2 = math.log(m2) if m2 > 0.0 else 0.0
    ent = float((sq * logs).mean() - m2 * log_m2)
    resid = values - values[adjacency].mean(axis=1)
    energy = float((resid * values).mean())
    return ent, energy, logs - log_m2, resid


def evaluator_rows(size, seed):
    """Gaussian rows, rows with exact zeros and the identity indicator."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((9, size)) * rng.uniform(0.01, 100.0, (9, 1))
    rows[3:6][rng.random((3, size)) < 0.4] = 0.0
    rows[6] = identity_indicator(size)
    rows[7] = -rows[6]
    rows[8, : size // 2] = 0.0
    return rows


class TestBatchedEvaluators:
    """The batched formulas reproduce the straightforward ones bit for bit."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_ent_energy_matches_scalar_formulas(self, n):
        _, ts = analyze(n)
        rows = evaluator_rows(ts.size, seed=n)
        batched = fi._ent_energy(rows, ts.adjacency)
        for r, row in enumerate(rows):
            single = fi._ent_energy(row[None, :], ts.adjacency)
            for want, one, many in zip(scalar_ent_energy(row, ts.adjacency), single, batched):
                assert np.array_equal(one[0], want)
                assert np.array_equal(many[r], want)

    @pytest.mark.parametrize("n,copies", [(3, 17), (4, 1)])
    def test_dirichlet_rows_match_broadcast_formula(self, n, copies):
        # n = 3 spans three row blocks of the edge buffer, n = 4 nine
        _, ts = analyze(n)
        rows = np.concatenate([evaluator_rows(ts.size, seed) for seed in range(copies)])
        adj = ts.adjacency
        sums = np.square(rows[:, :, None] - rows[:, adj]).sum(axis=(1, 2))
        assert np.array_equal(fi._edge_sums(rows, adj), sums)
        assert np.array_equal(
            fi._dirichlet_rows(rows, ts), sums / (2.0 * ts.size * ts.degree)
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_edge_sums_same_bits_for_c_ordered_adjacency(self, n):
        _, ts = analyze(n)
        rows = np.concatenate([evaluator_rows(ts.size, seed) for seed in range(3)])
        c_ordered = np.ascontiguousarray(ts.adjacency)
        assert c_ordered.flags.c_contiguous and not c_ordered.flags.f_contiguous
        assert np.array_equal(fi._edge_sums(rows, ts.adjacency), fi._edge_sums(rows, c_ordered))

    def test_ent_rows_match_broadcast_formula(self, g3):
        gt, _ = g3
        rows = evaluator_rows(gt.size, seed=5)
        sq = rows * rows
        logs = np.zeros_like(sq)
        np.log(sq, out=logs, where=sq > 0.0)
        m2 = sq.mean(axis=1)
        want = (sq * logs).mean(axis=1) - m2 * np.log(m2)
        assert np.array_equal(fi._ent_rows(rows), want)


class TestLsiEstimate:
    @pytest.mark.parametrize("size", [6, 168, 20160])
    def test_row_dots_match_per_row_dots(self, size):
        """The stacked dots are the per-row BLAS dots, bit for bit."""
        a, b = np.random.default_rng(size).standard_normal((2, 9, size))
        assert np.array_equal(fi._row_dots(a, b), [x.dot(y) for x, y in zip(a, b)])
        assert np.array_equal(fi._row_dots(a, a), [x.dot(x) for x in a])

    def test_n2_floor_dominates(self, g2):
        _, ts = g2
        est = fi.estimate_lsi_constant(ts, restarts=8, iters=600, seed=0)
        # the 6-cycle's log-Sobolev constant is 4; the spectral floor 2/gap
        # reaches it while gradient ascent stalls just below
        assert est.estimate == 4.000000000000001
        assert est.estimate == est.spectral_floor
        assert est.best_ratio == pytest.approx(3.996082627024324, abs=1e-9)
        assert est.estimate >= max(math.log(6), 4.0)

    def test_n3_witness_beats_floor(self, g3):
        _, ts = g3
        est = fi.estimate_lsi_constant(ts, restarts=8, iters=600, seed=0)
        assert est.best_ratio == pytest.approx(8.611879299994747, abs=1e-9)
        assert est.estimate == est.best_ratio
        assert est.spectral_floor == pytest.approx(7.567223249782492, abs=1e-12)
        assert est.estimate >= est.spectral_floor

    @pytest.mark.parametrize(
        "n,best_ratio,spectral_floor,digest,restarts,iters,seed",
        [
            (
                2, 3.996082627024324, 4.000000000000001,
                "021945e4fd12d64c808ae4a2cc4df7a91bba9adf96cf96268aeaf44cb907d595", 8, 600, 0,
            ),
            (
                3, 8.611879299994747, 7.567223249782492,
                "b874986c35d10927bd637fe975970d033b6dfaf95442f5f50a90859a66752c2b", 8, 600, 0,
            ),
            (
                3, 8.611804869431479, 7.567223249782492,
                "e8b2f263898cbf64eb1bd62372227699be12093a9e69a8f3dbafc91bd9e654c9", 3, 1500, 11,
            ),
        ],
    )
    def test_golden_witness(self, n, best_ratio, spectral_floor, digest, restarts, iters, seed):
        # both components and the witness, bit for bit
        _, ts = analyze(n)
        est = fi.estimate_lsi_constant(ts, restarts=restarts, iters=iters, seed=seed)
        assert est.best_ratio == best_ratio
        assert est.spectral_floor == spectral_floor
        assert hashlib.sha256(est.argmax.astype("<f8").tobytes()).hexdigest() == digest

    def test_deterministic(self, g3):
        _, ts = g3
        a = fi.estimate_lsi_constant(ts, restarts=2, iters=200, seed=3)
        b = fi.estimate_lsi_constant(ts, restarts=2, iters=200, seed=3)
        assert a.estimate == b.estimate
        assert (a.argmax == b.argmax).all()

    def test_argmax_reproduces_ratio(self, g3):
        _, ts = g3
        est = fi.estimate_lsi_constant(ts, restarts=2, iters=400, seed=0)
        ratio = fi.entropy_sq(est.argmax) / fi.dirichlet_form(est.argmax, ts)
        assert ratio == pytest.approx(est.best_ratio, abs=1e-9)

    @pytest.mark.parametrize("corrupt", ["ratio", "witness"])
    def test_mismatched_witness_raises(self, g2, monkeypatch, corrupt):
        _, ts = g2
        ascend = fi._ascend

        def corrupted(values, adjacency, iters):
            ratio, f = ascend(values, adjacency, iters)
            if corrupt == "ratio":
                return ratio * (1.0 + 1e-9), f
            return ratio, f + 1e-6 * values

        monkeypatch.setattr(fi, "_ascend", corrupted)
        with pytest.raises(RuntimeError, match="witness"):
            fi.estimate_lsi_constant(ts, restarts=1, iters=20)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("iters", [1, 30])
    def test_stacked_ascent_equals_one_row_ascents(self, n, iters):
        _, ts = analyze(n)
        rng = np.random.default_rng(n)
        starts = np.vstack(
            [identity_indicator(ts.size), rng.standard_normal((4, ts.size)), np.ones(ts.size)]
        )
        ratios, rows = fi._ascend(starts, ts.adjacency, iters)
        assert ratios[-1] == -math.inf  # the constant row has no energy and stops at once
        for start, ratio, row in zip(starts, ratios, rows):
            one_ratio, one_row = fi._ascend(start[None, :], ts.adjacency, iters)
            assert one_ratio[0] == ratio
            assert np.array_equal(one_row[0], row)

    def test_indicator_start_ratio(self, g2):
        """Before any ascent the identity indicator gives ent/E = log 6."""
        _, ts = g2
        f = identity_indicator(6)
        ratio = fi.entropy_sq(f) / fi.dirichlet_form(f, ts)
        assert ratio == pytest.approx(math.log(6), abs=1e-12)

    def test_rejects_n4(self):
        _, ts = analyze(4)
        with pytest.raises(ValueError, match=r"n in \{2, 3\}"):
            fi.estimate_lsi_constant(ts, restarts=0, iters=1)

    def test_parameter_validation(self, g2):
        _, ts = g2
        with pytest.raises(ValueError):
            fi.estimate_lsi_constant(ts, restarts=-1)
        with pytest.raises(ValueError):
            fi.estimate_lsi_constant(ts, iters=0)
