"""Entropy, Dirichlet forms, inequality checkers, suites, bound calculators."""

import hashlib
import math

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
        gt, ts = g2
        f = identity_indicator(6)
        assert fi.entropy_sq(f, gt) == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert fi.dirichlet_form(f, ts, gt) == pytest.approx(1 / 6, abs=1e-15)
        assert fi.variance(f, gt) == pytest.approx(5 / 36, abs=1e-15)

    def test_constant_function_vanishes(self, g3):
        gt, ts = g3
        f = np.full(gt.size, 2.5)
        assert fi.entropy_sq(f, gt) == 0.0
        assert fi.dirichlet_form(f, ts, gt) == pytest.approx(0.0, abs=1e-15)
        assert fi.variance(f, gt) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_nonnegative_and_scale_covariant(self, g3):
        gt, _ = g3
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.standard_normal(gt.size)
            ent = fi.entropy_sq(f, gt)
            assert ent >= 0.0
            # ent((cf)^2) = c^2 ent(f^2)
            assert fi.entropy_sq(3.0 * f, gt) == pytest.approx(9.0 * ent, rel=1e-12)

    def test_dirichlet_matches_quadratic_form(self, g3):
        """Half-sum route equals <f, (I-P)f> under the uniform law."""
        gt, ts = g3
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.standard_normal(gt.size)
            pf = f[ts.adjacency].mean(axis=1)
            quad = float(((f - pf) * f).mean())
            assert fi.dirichlet_form(f, ts, gt) == pytest.approx(quad, abs=1e-12)

    def test_shape_and_finiteness_validation(self, g2):
        gt, ts = g2
        with pytest.raises(ValueError):
            fi.entropy_sq(np.zeros(5), gt)
        with pytest.raises(ValueError):
            fi.variance(np.array([np.nan] * 6), gt)
        with pytest.raises(ValueError):
            fi.dirichlet_form(np.zeros((2, 3)), ts, gt)


class TestKeyInequality:
    def test_indicator_frozen(self, g2):
        gt, ts = g2
        rep = fi.check_key_inequality(identity_indicator(6), ts, gt)
        assert rep.lhs == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert rep.rhs == pytest.approx(11 / 18, abs=1e-15)
        assert rep.satisfied and rep.slack > 0

    def test_random_functions_satisfied(self, g3):
        gt, ts = g3
        rng = np.random.default_rng(11)
        for _ in range(25):
            rep = fi.check_key_inequality(rng.standard_normal(gt.size), ts, gt)
            assert rep.satisfied


class TestExtensionInequality:
    def test_indicator_frozen(self, g2):
        gt, _ = g2
        rep = fi.check_extension_inequality(identity_indicator(6), gt)
        assert rep.lhs == pytest.approx(math.log(6) / 6, abs=1e-15)
        assert rep.rhs == pytest.approx(0.37235304985625706, abs=1e-12)
        assert rep.satisfied

    def test_n4_needs_extended_flag(self):
        gt, _ = analyze(4)
        f = identity_indicator(gt.size)
        with pytest.raises(ValueError):
            fi.check_extension_inequality(f, gt)
        rep = fi.check_extension_inequality(f, gt, extended=True)
        assert rep.satisfied

    def test_rejects_n5_even_extended(self):
        class FakeTable:
            n = 5
        with pytest.raises(ValueError):
            fi.check_extension_inequality(np.zeros(3), FakeTable(), extended=True)


class TestRowDecomposition:
    def test_indicator_frozen(self, g2):
        gt, ts = g2
        rep = fi.check_row_decomposition(identity_indicator(6), ts, gt)
        assert rep.subadditivity.lhs == pytest.approx(0.1396323936960964, abs=1e-12)
        assert rep.subadditivity.rhs == pytest.approx(0.1605214658319893, abs=1e-12)
        assert rep.consolidated.lhs == rep.subadditivity.lhs
        assert rep.consolidated.rhs == pytest.approx(11 / 48, abs=1e-12)
        assert rep.satisfied

    def test_random_functions_satisfied(self, g2):
        gt, ts = g2
        rng = np.random.default_rng(13)
        for _ in range(25):
            rep = fi.check_row_decomposition(rng.standard_normal(6), ts, gt)
            assert rep.satisfied

    def test_only_n2(self, g3):
        gt, ts = g3
        with pytest.raises(ValueError):
            fi.check_row_decomposition(np.zeros(gt.size), ts, gt)


class TestHypercube:
    def test_indicator_d1(self):
        rep = fi.hypercube_lsi_check(1, np.array([1.0, 0.0]))
        assert rep.lhs == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert rep.rhs == pytest.approx(0.5, abs=1e-15)
        assert rep.satisfied

    def test_dictator_frozen(self):
        d = 5
        f = ((np.arange(1 << d) >> 2) & 1).astype(float)
        rep = fi.hypercube_lsi_check(d, f)
        assert rep.lhs == pytest.approx(math.log(2) / 2, abs=1e-15)
        assert rep.rhs == pytest.approx(0.5, abs=1e-15)

    def test_near_constant_perturbation_is_tight(self):
        """lhs/rhs -> 1 as f -> constant along a dictator direction."""
        d = 5
        dic = ((np.arange(1 << d) >> 2) & 1).astype(float)
        rep = fi.hypercube_lsi_check(d, 1.0 + 0.001 * dic)
        assert rep.satisfied
        assert rep.lhs / rep.rhs > 0.99999

    def test_random_satisfied(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            assert fi.hypercube_lsi_check(4, rng.standard_normal(16)).satisfied

    def test_d_validation(self):
        with pytest.raises(ValueError):
            fi.hypercube_lsi_check(0, np.array([1.0]))
        with pytest.raises(ValueError):
            fi.hypercube_lsi_check(13, np.zeros(1 << 13))
        with pytest.raises(ValueError):
            fi.hypercube_lsi_check(3, np.zeros(7))


class TestKassabov:
    def test_floor_frozen(self):
        assert fi.kassabov_gap_floor(3) == pytest.approx(4.4009900076078144e-07, rel=1e-15)
        assert fi.kassabov_gap_floor(1) == pytest.approx(1 / (4 * 731.0**2), rel=1e-15)

    def test_floor_decreasing(self):
        floors = [fi.kassabov_gap_floor(n) for n in range(2, 50)]
        assert all(a > b for a, b in zip(floors, floors[1:]))

    def test_variance_form(self, g3):
        gt, ts = g3
        rng = np.random.default_rng(19)
        for _ in range(25):
            assert fi.kassabov_check(rng.standard_normal(gt.size), ts, gt).satisfied

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spectral_form(self, n):
        rep = spectral_report(analyze(n)[1])
        out = fi.kassabov_spectral_check(n, rep)
        assert out.satisfied
        assert out.lhs == fi.kassabov_gap_floor(n)
        assert out.rhs == rep.gap


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
        gt, ts = analyze(n)
        rows = evaluator_rows(gt.size, seed=n)
        batched = fi._ent_energy(rows, ts.adjacency)
        for r, row in enumerate(rows):
            single = fi._ent_energy(row[None, :], ts.adjacency)
            for want, one, many in zip(scalar_ent_energy(row, ts.adjacency), single, batched):
                assert np.array_equal(one[0], want)
                assert np.array_equal(many[r], want)

    @pytest.mark.parametrize("n,copies", [(3, 17), (4, 1)])
    def test_dirichlet_rows_match_broadcast_formula(self, n, copies):
        # n = 3 spans three row blocks of the edge buffer, n = 4 nine
        gt, ts = analyze(n)
        rows = np.concatenate([evaluator_rows(gt.size, seed) for seed in range(copies)])
        adj = ts.adjacency
        sums = np.square(rows[:, :, None] - rows[:, adj]).sum(axis=(1, 2))
        assert np.array_equal(fi._edge_sums(rows, adj), sums)
        assert np.array_equal(
            fi._dirichlet_rows(rows, adj, ts.degree), sums / (2.0 * gt.size * ts.degree)
        )

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
    def test_n2_floor_dominates(self, g2):
        gt, ts = g2
        est = fi.estimate_lsi_constant(ts, gt, restarts=8, iters=600, seed=0)
        # the 6-cycle's log-Sobolev constant is 4; the spectral floor 2/gap
        # reaches it while gradient ascent stalls just below
        assert est.estimate == 4.000000000000001
        assert est.estimate == est.spectral_floor
        assert est.best_ratio == pytest.approx(3.996082627024324, abs=1e-9)
        assert est.estimate >= max(math.log(6), 4.0)

    def test_n3_witness_beats_floor(self, g3):
        gt, ts = g3
        est = fi.estimate_lsi_constant(ts, gt, restarts=8, iters=600, seed=0)
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
        gt, ts = analyze(n)
        est = fi.estimate_lsi_constant(ts, gt, restarts=restarts, iters=iters, seed=seed)
        assert est.best_ratio == best_ratio
        assert est.spectral_floor == spectral_floor
        assert hashlib.sha256(est.argmax.astype("<f8").tobytes()).hexdigest() == digest

    def test_deterministic(self, g3):
        gt, ts = g3
        a = fi.estimate_lsi_constant(ts, gt, restarts=2, iters=200, seed=3)
        b = fi.estimate_lsi_constant(ts, gt, restarts=2, iters=200, seed=3)
        assert a.estimate == b.estimate
        assert (a.argmax == b.argmax).all()

    def test_argmax_reproduces_ratio(self, g3):
        gt, ts = g3
        est = fi.estimate_lsi_constant(ts, gt, restarts=2, iters=400, seed=0)
        ratio = fi.entropy_sq(est.argmax, gt) / fi.dirichlet_form(est.argmax, ts, gt)
        assert ratio == pytest.approx(est.best_ratio, abs=1e-9)

    @pytest.mark.parametrize("corrupt", ["ratio", "witness"])
    def test_mismatched_witness_raises(self, g2, monkeypatch, corrupt):
        gt, ts = g2
        ascend = fi._ascend

        def corrupted(values, adjacency, iters):
            ratio, f = ascend(values, adjacency, iters)
            if corrupt == "ratio":
                return ratio * (1.0 + 1e-9), f
            return ratio, f + 1e-6 * values

        monkeypatch.setattr(fi, "_ascend", corrupted)
        with pytest.raises(RuntimeError, match="witness"):
            fi.estimate_lsi_constant(ts, gt, restarts=1, iters=20)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("iters", [1, 30])
    def test_stacked_ascent_equals_one_row_ascents(self, n, iters):
        gt, ts = analyze(n)
        rng = np.random.default_rng(n)
        starts = np.vstack(
            [identity_indicator(gt.size), rng.standard_normal((4, gt.size)), np.ones(gt.size)]
        )
        ratios, rows = fi._ascend(starts, ts.adjacency, iters)
        assert ratios[-1] == -math.inf  # the constant row has no energy and stops at once
        for start, ratio, row in zip(starts, ratios, rows):
            one_ratio, one_row = fi._ascend(start[None, :], ts.adjacency, iters)
            assert one_ratio[0] == ratio
            assert np.array_equal(one_row[0], row)

    def test_indicator_start_ratio(self, g2):
        """Before any ascent the identity indicator gives ent/E = log 6."""
        gt, ts = g2
        f = identity_indicator(6)
        ratio = fi.entropy_sq(f, gt) / fi.dirichlet_form(f, ts, gt)
        assert ratio == pytest.approx(math.log(6), abs=1e-12)

    def test_rejects_n4(self):
        gt, ts = analyze(4)
        with pytest.raises(ValueError, match=r"n in \{2, 3\}"):
            fi.estimate_lsi_constant(ts, gt, restarts=0, iters=1)

    def test_parameter_validation(self, g2):
        gt, ts = g2
        with pytest.raises(ValueError):
            fi.estimate_lsi_constant(ts, gt, restarts=-1)
        with pytest.raises(ValueError):
            fi.estimate_lsi_constant(ts, gt, iters=0)
