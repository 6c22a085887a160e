"""Sampling diagnostics: statistic TV estimates, cutoff curves, MC counts."""

import hashlib

import numpy as np
import pytest

from tvwalk import diagnostics as dg
from tvwalk.exactgroup import analyze, distribution_at, enumerate_group, tv_distance


def counts_sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, "<i8").tobytes()).hexdigest()


def weight_pushforward_tv(probs, keys, bins):
    """Exact TV between the weight law under probs and under uniform."""
    w = np.bitwise_count(keys).astype(np.int64)
    push = np.bincount(w, weights=probs, minlength=bins)
    uni = np.bincount(w, minlength=bins) / len(keys)
    return 0.5 * float(np.abs(push - uni).sum())


class TestStatisticTv:
    def test_time_zero_is_maximally_far(self):
        r = dg.statistic_tv(8, 0, "weight", 2000, seed=3)
        assert r.estimate >= 0.99
        assert r.statistic == "weight" and r.t == 0 and r.trials == 2000

    def test_long_time_reaches_noise_floor(self):
        r = dg.statistic_tv(8, 5000, "weight", 1000, seed=5)
        assert r.estimate <= r.noise_floor + 0.02

    @pytest.mark.parametrize("stat", dg.STATISTICS)
    def test_noise_floor_small_at_ten_thousand(self, stat):
        for seed in (11, 12, 13):
            r = dg.statistic_tv(8, 0, stat, 10_000, seed=seed)
            assert r.noise_floor < 0.05

    def test_noise_floor_small_at_hundred_thousand(self):
        r = dg.statistic_tv(8, 0, "weight", 100_000, seed=11)
        assert r.noise_floor < 0.02

    def test_noise_floor_scales_like_root_sample_size(self):
        """Doubling trials shrinks the floor by about sqrt(2) on average."""
        seeds = range(11, 19)
        small = np.mean(
            [dg.statistic_tv(8, 0, "weight", 10_000, seed=s).noise_floor for s in seeds]
        )
        big = np.mean(
            [dg.statistic_tv(8, 0, "weight", 20_000, seed=s).noise_floor for s in seeds]
        )
        assert 1.41 - 0.15 <= small / big <= 1.41 + 0.15

    def test_thread_count_does_not_change_results(self):
        a = dg.statistic_tv(8, 50, "trace", 5000, seed=9, threads=1)
        b = dg.statistic_tv(8, 50, "trace", 5000, seed=9, threads=4)
        assert a.estimate == b.estimate
        assert a.noise_floor == b.noise_floor
        assert (a.chain_sample.histogram == b.chain_sample.histogram).all()

    def test_golden_chain_histogram(self):
        r = dg.statistic_tv(16, 40, "corner_rank", 5000, 5, lazy=True)
        assert counts_sha256(r.chain_sample.histogram) == (
            "ae960ee62e3e7897864ed88414939eb71485b173a74cc4c3f336adb993226324"
        )

    def test_histograms_account_for_all_trials(self):
        r = dg.statistic_tv(8, 10, "corner_rank", 3000, seed=2)
        assert r.chain_sample.count == 3000
        assert r.ref_sample.count == 3000

    def test_validation(self):
        with pytest.raises(ValueError):
            dg.statistic_tv(8, 0, "weight", 999, seed=0)
        with pytest.raises(ValueError):
            dg.statistic_tv(8, 0, "determinant", 2000, seed=0)


class TestPushforwardFoundation:
    def test_statistic_tv_lower_bounds_full_tv(self):
        """Exact check at n = 3: the weight law's TV never exceeds the
        state law's TV, at any time, for the lazy walk."""
        gt, ts = analyze(3)
        for t in range(30):
            p = distribution_at(ts, t, lazy=True)
            stat = weight_pushforward_tv(p, gt.keys, 10)
            assert stat <= tv_distance(p, gt) + 1e-12

    def test_sampled_estimate_matches_population_value(self):
        """At n = 3, t = 3 the plug-in estimate sits within sampling error
        of the exactly computable population TV of the weight statistic."""
        gt, ts = analyze(3)
        population = weight_pushforward_tv(distribution_at(ts, 3), gt.keys, 10)
        assert population == pytest.approx(0.14682539682539703, abs=1e-12)
        est = dg.statistic_tv(3, 3, "weight", 200_000, seed=21).estimate
        assert abs(est - population) <= 0.01
        assert est >= 0.1


class TestCutoffExperiment:
    def test_time_zero_point_is_far(self):
        pts = dg.cutoff_experiment(16, 2000, seed=1, grid=(0.0, 1.5, 3.0))
        assert [p.t for p in pts][0] == 0
        assert pts[0].tv_estimate >= 0.99
        assert pts[-1].tv_estimate < 0.2

    def test_grid_is_sorted_deduplicated_absolute_times(self):
        import math

        pts = dg.cutoff_experiment(16, 1000, seed=4, grid=(1.0, 1.0, 0.5))
        times = [p.t for p in pts]
        assert times == sorted(set(times)) and len(times) == 2
        nlogn = 16 * math.log(16)
        for p in pts:
            assert p.t_over_nlogn == pytest.approx(p.t / nlogn, rel=1e-12)

    def test_k2_runs_and_is_thread_independent(self):
        a = dg.cutoff_experiment(16, 2000, seed=2, k=2, grid=(0.5, 1.5, 3.0), threads=1)
        b = dg.cutoff_experiment(16, 2000, seed=2, k=2, grid=(0.5, 1.5, 3.0), threads=4)
        assert a == b
        assert a[0].tv_estimate > a[-1].tv_estimate

    def test_validation(self):
        too_long = (1.0, dg.CUTOFF_GRID_MAX * 1.01)
        for grid in ((), (1.0, float("inf")), (float("nan"),), (-0.5, 1.0), too_long):
            with pytest.raises(ValueError, match="time grid"):
                dg.cutoff_experiment(16, 2000, seed=0, grid=grid)
        with pytest.raises(ValueError):
            dg.cutoff_experiment(15, 2000, seed=0)
        with pytest.raises(ValueError):
            dg.cutoff_experiment(16, 999, seed=0)
        with pytest.raises(ValueError):
            dg.cutoff_experiment(16, 2000, seed=0, k=0)
        with pytest.raises(ValueError):
            dg.cutoff_experiment(16, 2000, seed=0, k=17)


    def test_step_budget_admits_default_grid_and_its_own_bound(self):
        assert max(dg.DEFAULT_CUTOFF_GRID) <= dg.CUTOFF_GRID_MAX
        pts = dg.cutoff_experiment(16, 1000, seed=0, grid=(dg.CUTOFF_GRID_MAX,))
        assert pts[0].t_over_nlogn == pytest.approx(dg.CUTOFF_GRID_MAX, rel=1e-3)


class TestCrossover:
    def test_linear_interpolation(self):
        curve = [(0.5, 1.0), (1.0, 0.9), (1.5, 0.2), (2.0, 0.05)]
        assert dg.crossover_locator(curve) == pytest.approx(1.2857142857142858)

    def test_accepts_cutoff_points(self):
        pts = dg.cutoff_experiment(16, 2000, seed=1, grid=(0.0, 1.5, 3.0))
        crossing = dg.crossover_locator(pts)
        assert 0.0 < crossing < 1.5

    def test_step_curve_crossing_within_spacing(self):
        xs = np.arange(0.5, 3.0, 0.25)
        ys = np.where(xs < 1.5, 0.95, 0.05)
        crossing = dg.crossover_locator(list(zip(xs, ys)))
        assert abs(crossing - 1.5) <= 0.25

    def test_envelope_no_op_on_nonincreasing(self):
        vals = [1.0, 0.9, 0.2, 0.05]
        assert dg.monotone_decreasing_envelope(vals).tolist() == vals

    def test_envelope_flattens_bumps(self):
        out = dg.monotone_decreasing_envelope([1.0, 0.4, 0.6, 0.3])
        assert out.tolist() == [1.0, 0.4, 0.4, 0.3]

    def test_no_bracket_raised_both_sides(self):
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator([(0.5, 0.4), (1.0, 0.3)])
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator([(0.5, 1.0), (1.0, 0.8)])
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator([(0.5, 1.0)])


class TestWalkKernels:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_key_kernel_matches_row_kernel(self, n, lazy):
        """From the same rows and generator, the one-word kernel walks as the
        row kernel does; keys hold row r at bits r*n."""
        shifts = np.arange(n, dtype=np.uint64) * np.uint64(n)

        def pack(rows):
            return (rows << shifts).sum(axis=1, dtype=np.uint64)

        rows = np.random.default_rng(n).integers(0, 1 << n, size=(3000, n), dtype=np.uint64)
        keys = pack(rows)
        dg._walk_rows(rows, 40, np.random.default_rng(99), lazy)
        dg._walk_keys(keys, n, 40, np.random.default_rng(99), lazy)
        assert (keys == pack(rows)).all()


class TestMcStateFrequencies:
    def test_counts_match_exact_law(self):
        gt, ts = analyze(2)
        trials = 20_000
        counts = dg.mc_state_frequencies(2, 3, trials, seed=7, gt=gt, lazy=True)
        assert counts.sum() == trials and len(counts) == gt.size
        p = distribution_at(ts, 3, lazy=True)
        z = (counts - trials * p) / np.sqrt(trials * p * (1 - p))
        assert np.abs(z).max() <= 4.0

    def test_thread_count_does_not_change_counts(self):
        gt, _ = analyze(2)
        a = dg.mc_state_frequencies(2, 3, 20_000, seed=7, gt=gt, lazy=True)
        b = dg.mc_state_frequencies(2, 3, 20_000, seed=7, gt=gt, lazy=True, threads=4)
        assert (a == b).all()

    @pytest.mark.parametrize(
        "t,trials,seed,lazy,digest",
        [
            (50, 100_000, 7, True,
             "8f98f844e859878adba7a7aaf5624ead0f48a57bc940cd3a37ffd395c7d1c6c6"),
            (20, 30_000, 8, False,
             "05c27d2155b62c17adff38771c9571ea77d09ddb48fd1cfc5a9ba0830392c4e8"),
        ],
    )
    def test_golden_counts(self, t, trials, seed, lazy, digest):
        counts = dg.mc_state_frequencies(3, t, trials, seed, enumerate_group(3), lazy=lazy)
        assert counts_sha256(counts) == digest

    def test_dimension_mismatch_rejected(self):
        gt, _ = analyze(2)
        with pytest.raises(ValueError):
            dg.mc_state_frequencies(3, 1, 1000, seed=0, gt=gt)

    def test_large_n_rejected(self):
        class WideTable:
            n = 6

        with pytest.raises(ValueError):
            dg.mc_state_frequencies(6, 1, 1000, seed=0, gt=WideTable())


@pytest.mark.parametrize(
    "call",
    [
        lambda gt: dg.mc_state_frequencies(2, 5, 0, 0, gt),
        lambda gt: dg.mc_state_frequencies(2, 5, -5, 0, gt),
        lambda gt: dg.mc_state_frequencies(2, -1, 1000, 0, gt),
        lambda gt: dg.statistic_tv(8, -3, "weight", 1000, 0),
    ],
    ids=["mc-zero-trials", "mc-negative-trials", "mc-negative-t", "statistic-negative-t"],
)
def test_rejects_bad_trials_and_time(call):
    with pytest.raises(ValueError):
        call(analyze(2)[0])
