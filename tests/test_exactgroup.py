"""Exact small-n analysis: enumeration, kernel structure, mixing, spectra."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from tvwalk import exactgroup as eg
from tvwalk import gf2core as g
from tvwalk.chain import _decode


class TestEnumeration:
    @pytest.mark.parametrize("n,order", [(2, 6), (3, 168), (4, 20160)])
    def test_group_orders(self, n, order):
        gt, _ = eg.analyze(n)
        assert gt.size == order
        assert eg.group_order(n) == order

    @pytest.mark.parametrize("n", [2, 3])
    def test_bfs_matches_reference_queue(self, n):
        gt, _ = eg.analyze(n)
        assert list(gt.keys) == eg.enumerate_group_reference(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_counts_match_direct_enumeration(self, n):
        """Independently count invertible matrices by brute force."""
        count = sum(
            1
            for key in range(2 ** (n * n))
            if g.is_invertible(g.decode_key(key, n))
        )
        assert count == eg.analyze(n)[0].size

    def test_index_round_trip(self):
        gt, _ = eg.analyze(3)
        idx = np.arange(0, gt.size, 17)
        assert (gt.index_of(gt.keys[idx]) == idx).all()

    def test_unknown_key_rejected(self):
        gt, _ = eg.analyze(2)
        with pytest.raises(KeyError):
            gt.index_of(np.array([0], dtype=np.uint64))  # zero matrix

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_index_of_every_key(self, n):
        gt = eg.enumerate_group(n)
        assert np.array_equal(gt.index_of(gt.keys), np.arange(gt.size))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_index_covers_exactly_the_group(self, n):
        gt = eg.enumerate_group(n)
        assert gt._index.shape == (1 << (n * n),) and gt._index.dtype == np.int32
        assert np.count_nonzero(gt._index >= 0) == gt.size

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_key_out_of_range_is_key_error(self, n):
        gt = eg.enumerate_group(n)
        for key in (1 << (n * n), (1 << 64) - 1):
            with pytest.raises(KeyError):
                gt.index_of(np.array([int(gt.keys[0]), key], dtype=np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_non_member_key_is_key_error(self, n):
        gt = eg.enumerate_group(n)
        with pytest.raises(KeyError):
            gt.index_of(np.array([int(gt.keys[-1]), 0], dtype=np.uint64))  # zero matrix

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_query(self, n):
        gt = eg.enumerate_group(n)
        assert gt.index_of(np.array([], dtype=np.uint64)).shape == (0,)

    def test_identity_sits_at_index_zero(self):
        gt, _ = eg.analyze(2)
        assert g.decode_key(int(gt.keys[0]), 2) == g.BitMatrix.identity(2)

    def test_order_ratio_matches_order(self):
        for n in (2, 3, 4):
            assert eg.order_ratio(n) == pytest.approx(
                eg.group_order(n) / 2 ** (n * n), rel=1e-15
            )

    def test_order_ratio_values(self):
        assert eg.order_ratio(1) == 0.5
        assert eg.order_ratio(2) == pytest.approx(0.375, abs=1e-15)
        # decreasing in n (strictly until the factors reach float resolution)
        vals = [eg.order_ratio(n) for n in range(1, 80)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(a > b for a, b in zip(vals[:30], vals[1:31]))
        assert vals[-1] == pytest.approx(0.2887880950866024, abs=1e-12)

    def test_enumeration_cap(self):
        """n = 5 is refused before any allocation: its successor table alone
        would take about 800 MB."""
        with pytest.raises(ValueError, match="1 <= n <= 4"):
            eg.enumerate_group(5)

    @pytest.mark.parametrize("n", [1, 5])
    def test_analyze_range(self, n):
        """n = 1 enumerates but has no walk; n = 5 does not enumerate."""
        assert n not in eg.ANALYZE_DIMENSIONS
        with pytest.raises(ValueError, match="n in 2..4"):
            eg.analyze(n)


class TestKernelStructure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_regular_symmetric_connected(self, n):
        _, ts = eg.analyze(n)
        assert ts.degree == n * (n - 1)
        rows = np.repeat(np.arange(ts.size), ts.degree)
        cols = ts.adjacency.reshape(-1)
        mat = sp.coo_matrix(
            (np.full(rows.size, ts.step_probability), (rows, cols)),
            shape=(ts.size, ts.size),
        ).tocsr()
        assert np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0)
        diff = (mat - mat.T).tocoo()
        assert diff.nnz == 0 or abs(diff.data).max() <= 1e-15
        ncomp, _ = sp.csgraph.connected_components(mat, directed=False)
        assert ncomp == 1

    def test_moves_are_involutions(self):
        gt, ts = eg.analyze(3)
        idx = np.arange(ts.size)
        for perm in gt.successors.T:
            assert (perm[perm] == idx).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_successor_keys_match_scalar_moves(self, n):
        """Column u of the successor table adds row j to row i of each key,
        (i, j) = _decode(u)."""
        gt = eg.enumerate_group(n)
        table = gt.successors
        assert table.shape == (gt.size, n * (n - 1)) and table.dtype == np.int32
        succ = gt.keys[table]
        mask = (1 << n) - 1
        for u in range(n * (n - 1)):
            i, j = (int(a[0]) for a in _decode(np.array([u]), n))
            want = [key ^ (((key >> j * n) & mask) << i * n) for key in gt.keys.tolist()]
            assert succ[:, u].tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stored_successors_match_the_keys(self, n):
        """The table the BFS keeps equals the successor keys looked up afresh."""
        gt = eg.enumerate_group(n)
        want = gt.index_of(eg._successor_keys(gt.keys, n))
        assert gt.successors.dtype == np.int32 and np.array_equal(gt.successors, want)

    def test_adjacency_rows_sorted(self):
        _, ts = eg.analyze(3)
        assert (np.diff(ts.adjacency, axis=1) >= 0).all()


class TestDistributions:
    def test_time_zero_is_point_mass(self):
        _, ts = eg.analyze(3)
        p = eg.distribution_at(ts, 0)
        assert p[0] == 1.0 and p.sum() == 1.0

    def test_one_step_uniform_over_neighbors(self):
        _, ts = eg.analyze(3)
        p = eg.distribution_at(ts, 1)
        nz = p[p > 0]
        assert len(nz) == 6 and np.allclose(nz, 1 / 6)

    def test_lazy_one_step_holds_half(self):
        _, ts = eg.analyze(3)
        p = eg.distribution_at(ts, 1, lazy=True)
        assert p[0] == pytest.approx(0.5, abs=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_negative_time_rejected(self):
        _, ts = eg.analyze(2)
        with pytest.raises(ValueError):
            eg.distribution_at(ts, -1)

    def test_distances_to_uniform_on_len_p_states(self):
        point = np.array([1.0, 0.0, 0.0, 0.0])
        assert eg.tv_distance(point) == 0.75
        assert eg.l2_distance(point) == math.sqrt(3.0)
        assert eg.tv_distance(np.full(8, 0.125)) == 0.0
        assert eg.l2_distance(np.full(8, 0.125)) == 0.0

    def test_negative_tmax_rejected(self):
        _, ts = eg.analyze(2)
        with pytest.raises(ValueError, match="tmax"):
            eg.mixing_curve(ts, -1)
        assert [t for t, _, _ in eg.mixing_curve(ts, 0)] == [0]

    def test_tv_at_zero(self):
        _, ts = eg.analyze(2)
        p = eg.distribution_at(ts, 0)
        assert eg.tv_distance(p) == pytest.approx(1 - 1 / 6, abs=1e-15)

    def test_frozen_curve_point(self):
        _, ts = eg.analyze(3)
        p = eg.distribution_at(ts, 9)
        assert eg.tv_distance(p) == pytest.approx(0.09156106429768979, abs=1e-12)
        assert eg.l2_distance(p) == pytest.approx(0.23247017138851855, abs=1e-12)

    def test_l2_dominates_twice_tv(self):
        _, ts = eg.analyze(3)
        for t, tv, l2 in eg.mixing_curve(ts, 12):
            assert l2 >= 2 * tv - 1e-12

    def test_curve_rows_match_single_queries(self):
        _, ts = eg.analyze(3)
        rows = eg.mixing_curve(ts, 6, lazy=True)
        assert [r[0] for r in rows] == list(range(7))
        for t, tv, l2 in rows:
            p = eg.distribution_at(ts, t, lazy=True)
            assert tv == pytest.approx(eg.tv_distance(p), abs=1e-14)
            assert l2 == pytest.approx(eg.l2_distance(p), abs=1e-14)

    def test_l2_non_increasing(self):
        _, ts = eg.analyze(3)
        vals = [l2 for _, _, l2 in eg.mixing_curve(ts, 15)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_mass_drift_raises_at_renormalisation(self, n, lazy):
        # The last state in BFS order is not a neighbour of the identity, so
        # pointing one of its neighbours there makes the kernel leak mass.
        _, ts = eg.analyze(n)
        adjacency = ts.adjacency.copy(order="K")
        assert 0 not in adjacency[-1]
        adjacency[-1, 0] = 0
        broken = dataclasses.replace(ts, adjacency=adjacency)
        eg.distribution_at(broken, 63, lazy)  # no renormalisation yet
        with pytest.raises(RuntimeError, match="mass drifted"):
            eg.distribution_at(broken, 64, lazy)


class TestMixingTimes:
    def test_frozen_values(self):
        _, ts2 = eg.analyze(2)
        _, ts3 = eg.analyze(3)
        assert eg.mixing_times(ts2, 0.25, lazy=True) == (4, 7)
        assert eg.mixing_times(ts3, 0.25) == (6, 9)
        assert eg.mixing_times(ts3, 0.25, lazy=True) == (12, 19)

    def test_frozen_values_n4(self):
        _, ts = eg.analyze(4)
        assert eg.mixing_times(ts, 0.25) == (11, 16)

    def test_periodic_walk_never_mixes(self):
        _, ts = eg.analyze(2)
        with pytest.raises(eg.NonConvergentError):
            eg.mixing_times(ts, 0.25)

    def test_eps_validation(self):
        _, ts = eg.analyze(2)
        for eps in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                eg.mixing_times(ts, eps, lazy=True)

    @pytest.mark.parametrize("n,lazy", [(2, True), (3, False), (4, False)])
    def test_first_crossings_of_the_curve(self, n, lazy):
        """mixing_times reads the same (t, tv, l2) rows as mixing_curve."""
        _, ts = eg.analyze(n)
        t_tv, t_l2 = eg.mixing_times(ts, 0.25, lazy)
        curve = eg.mixing_curve(ts, t_l2 + 3, lazy)
        assert t_tv == next(t for t, tv, _ in curve if tv <= 0.25)
        assert t_l2 == next(t for t, _, l2 in curve if l2 <= 0.25)

    def test_threshold_ordering(self):
        _, ts = eg.analyze(3)
        t_half, _ = eg.mixing_times(ts, 0.5)
        t_quarter, t2_quarter = eg.mixing_times(ts, 0.25)
        assert t_half <= t_quarter <= t2_quarter


class TestSpectrum:
    def test_n2_exact_six_values(self):
        rep = eg.spectral_report(eg.analyze(2)[1])
        expected = np.array([-1.0, -0.5, -0.5, 0.5, 0.5, 1.0])
        assert np.allclose(np.sort(rep.eigenvalues), expected, atol=1e-10)
        assert rep.period == 2
        assert rep.absolute_gap == 0.0
        assert rep.gap == pytest.approx(0.5, abs=1e-10)
        assert rep.full_spectrum and rep.n_states == 6

    def test_n3_frozen(self):
        rep = eg.spectral_report(eg.analyze(3)[1])
        assert rep.gap == pytest.approx(0.26429773960448266, abs=1e-12)
        assert rep.eigenvalues[-1] == pytest.approx(-2 / 3, abs=1e-9)
        assert rep.period == 1
        assert rep.full_spectrum
        assert rep.absolute_gap == pytest.approx(rep.gap, abs=1e-12)  # |lambda_2| > |lambda_min| here

    def test_n4_extremes_via_sparse_solver(self):
        rep = eg.spectral_report(eg.analyze(4)[1])
        assert not rep.full_spectrum
        assert rep.eigenvalues[1] == pytest.approx(0.8143334893882305, abs=1e-6)
        assert rep.eigenvalues[-1] == pytest.approx(-0.6014158805023594, abs=1e-6)
        assert rep.gap == pytest.approx(0.18566651061176953, abs=1e-6)
        assert rep.period == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lambda2_equals_the_column_chain(self, n):
        """The first column, lumped to (its first bit b, the weight w of its
        other n - 1 bits), is a 2n - 1 state chain of the walk: move (i, j)
        adds bit j to bit i.  Its law is uniform on nonzero columns, so
        pi(b, w) is proportional to C(n - 1, w), and each of its eigenvalues
        is one of the walk's.  Its dense lambda_2 checks the n = 4 Lanczos one
        without the solver's own residual."""
        m, moves = n - 1, n * (n - 1)
        states = [(b, w) for b in (0, 1) for w in range(n) if b or w]
        index = {s: k for k, s in enumerate(states)}
        p = np.zeros((len(states), len(states)))
        for (b, w), k in index.items():
            # Counts of moves (i, j): i = 1 flips b when bit j is set; an other
            # bit i flips when bit j is set, j = 1 or j among the others.
            steps = {(1 - b, w): w, (b, w - 1): (w - 1 + b) * w, (b, w + 1): (w + b) * (m - w)}
            for target, count in steps.items():
                if count:
                    p[k, index[target]] = count / moves
            p[k, k] = 1.0 - p[k].sum()
        pi = np.array([math.comb(m, w) for _, w in states], dtype=np.float64)
        root = np.sqrt(pi / pi.sum())
        sym = root[:, None] * p / root[None, :]
        assert np.allclose(sym, sym.T)  # detailed balance: pi is the chain's law
        lam2 = np.linalg.eigvalsh(sym)[-2]
        assert abs(lam2 - eg.spectral_report(eg.analyze(n)[1]).eigenvalues[1]) < 1e-12

    def test_eigenvalues_descending(self):
        for n in (2, 3):
            rep = eg.spectral_report(eg.analyze(n)[1])
            assert (np.diff(rep.eigenvalues) <= 1e-12).all()

    def test_analyze_is_cached(self):
        assert eg.analyze(3) is eg.analyze(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_transition_period_matches_spectrum(self, n):
        _, ts = eg.analyze(n)
        assert ts.period == eg.spectral_report(ts).period == (2 if n == 2 else 1)

    def test_wrong_period_disagrees_with_spectrum(self):
        _, ts = eg.analyze(3)
        with pytest.raises(RuntimeError, match="two-coloring disagrees"):
            eg.spectral_report(dataclasses.replace(ts, period=2))

    def test_lanczos_residual_is_checked(self, monkeypatch):
        import scipy.sparse.linalg as sla

        eigsh = sla.eigsh

        def perturbed(*args, **kwargs):
            out = eigsh(*args, **kwargs)
            if kwargs.get("return_eigenvectors", True):
                vals, vecs = out
                vecs = vecs.copy()
                vecs[0] += 1e-6
                return vals, vecs
            return out

        monkeypatch.setattr(sla, "eigsh", perturbed)
        with pytest.raises(RuntimeError, match="Lanczos residual"):
            eg.spectral_report(eg.analyze(4)[1])

    def test_adjacency_is_neighbour_major_intp(self):
        # The exact goldens depend on this order: a law's row sum over an
        # F-ordered gather adds whole neighbour columns one after another.
        _, ts = eg.analyze(3)
        assert ts.adjacency.dtype == np.intp and ts.adjacency.flags.f_contiguous


class TestKernelBits:
    """The sparse matvec adds each row's sorted neighbours in order from 0.0,
    as the F-ordered gather-sum does, so the two give equal bits."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_sparse_matvec_matches_gather_on_random_vectors(self, n):
        _, ts = eg.analyze(n)
        kernel = eg._sparse_kernel(ts)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x = rng.standard_normal(ts.size)
            assert np.array_equal(kernel @ x / ts.degree, x[ts.adjacency].sum(axis=1) / ts.degree)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_sparse_matvec_matches_gather_on_laws(self, n, lazy):
        _, ts = eg.analyze(n)
        kernel = eg._sparse_kernel(ts)
        for p in itertools.islice(eg._laws(ts, lazy), 40):
            assert np.array_equal(kernel @ p / ts.degree, p[ts.adjacency].sum(axis=1) / ts.degree)
