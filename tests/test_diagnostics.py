"""Sampling diagnostics: statistic TV estimates, cutoff curves, MC counts."""

import hashlib
import math
import multiprocessing
from types import SimpleNamespace

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

    def test_golden_single_word_chain_histogram(self):
        """At n = 64 each packed row is one word: the (count, n, 1) walk state."""
        r = dg.statistic_tv(64, 60, "weight", 5000, 3)
        assert counts_sha256(r.chain_sample.histogram) == (
            "951605350e446e3edf2f970a936321eeae610cdbbec15cada70e115d8077d0a5"
        )

    def test_histograms_account_for_all_trials(self):
        r = dg.statistic_tv(8, 10, "corner_rank", 3000, seed=2)
        assert r.chain_sample.count == 3000
        assert r.ref_sample.count == 3000

    @pytest.mark.parametrize("n", [0, 1])
    def test_rejects_dimension_below_two_before_drawing(self, n, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking n")

        monkeypatch.setattr(dg, "sample_uniform_invertible_batch", no_draws)
        monkeypatch.setattr(dg, "_walk_full", no_draws)
        with pytest.raises(ValueError, match=r"^the walk needs n >= 2$"):
            dg.statistic_tv(n, 5, "weight", 1000, 0)

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
            assert stat <= tv_distance(p) + 1e-12

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

    @pytest.mark.parametrize("n", [16, 128])
    def test_k1_matches_exact_birth_death_chain(self, n):
        """The first column's weight w is a birth-death chain: up with
        probability w(n-w)/(n(n-1)), down with w(w-1)/(n(n-1)), from w = 1;
        its stationary law is Binomial(n, 1/2) given w >= 1.  The estimate
        sits within 1.5 noise floors of the exact TV at every grid point."""
        pts = dg.cutoff_experiment(n, 10_000, seed=99)
        w = np.arange(n + 1)
        up, down = w * (n - w) / (n * (n - 1)), w * (w - 1) / (n * (n - 1))
        stationary = np.array([math.comb(n, v) for v in w], dtype=np.float64)
        stationary[0] = 0.0
        stationary /= stationary.sum()
        law = np.zeros(n + 1)
        law[1] = 1.0
        t_now = 0
        for p in pts:
            for _ in range(p.t - t_now):
                law = law * (1.0 - up - down) + np.roll(law * up, 1) + np.roll(law * down, -1)
            t_now = p.t
            exact = 0.5 * float(np.abs(law - stationary).sum())
            assert abs(p.tv_estimate - exact) <= 1.5 * p.noise_floor, (p.t, exact)

    def test_step_budget_admits_default_grid_and_its_own_bound(self):
        assert max(dg.DEFAULT_CUTOFF_GRID) <= dg.CUTOFF_GRID_MAX
        pts = dg.cutoff_experiment(16, 1000, seed=0, grid=(dg.CUTOFF_GRID_MAX,))
        assert pts[0].t_over_nlogn == pytest.approx(dg.CUTOFF_GRID_MAX, rel=1e-3)


def curve_points(pairs):
    """CutoffPoints at the given (t / n log n, estimate) pairs."""
    return [
        dg.CutoffPoint(n=16, k=1, t=0, t_over_nlogn=float(x), tv_estimate=float(y),
                       noise_floor=0.0, trials=1000, seed=0)
        for x, y in pairs
    ]


class TestCrossover:
    def test_linear_interpolation(self):
        curve = curve_points([(0.5, 1.0), (1.0, 0.9), (1.5, 0.2), (2.0, 0.05)])
        assert dg.crossover_locator(curve) == pytest.approx(1.2857142857142858)

    def test_accepts_cutoff_points(self):
        pts = dg.cutoff_experiment(16, 2000, seed=1, grid=(0.0, 1.5, 3.0))
        crossing = dg.crossover_locator(pts)
        assert 0.0 < crossing < 1.5

    def test_step_curve_crossing_within_spacing(self):
        xs = np.arange(0.5, 3.0, 0.25)
        ys = np.where(xs < 1.5, 0.95, 0.05)
        crossing = dg.crossover_locator(curve_points(zip(xs, ys)))
        assert abs(crossing - 1.5) <= 0.25

    def test_nonincreasing_curve_crosses_by_plain_interpolation(self):
        xs = [0.5, 1.0, 1.5, 2.0, 2.5]
        ys = [1.0, 0.9, 0.6, 0.2, 0.05]
        crossing = dg.crossover_locator(curve_points(zip(xs, ys)))
        assert crossing == pytest.approx(float(np.interp(0.5, ys[::-1], xs[::-1])), rel=1e-12)

    def test_bump_after_crossing_is_flattened(self):
        """The running minimum keeps a late bump above 1/2 from unbracketing
        the curve, and the crossing stays where the fall first reached 1/2."""
        crossing = dg.crossover_locator(curve_points([(0.5, 1.0), (1.0, 0.4), (1.5, 0.6)]))
        assert crossing == pytest.approx(0.5 + 0.5 * 0.5 / 0.6, rel=1e-12)

    def test_no_bracket_raised_both_sides(self):
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator(curve_points([(0.5, 0.4), (1.0, 0.3)]))
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator(curve_points([(0.5, 1.0), (1.0, 0.8)]))
        with pytest.raises(dg.NoBracketError):
            dg.crossover_locator(curve_points([(0.5, 1.0)]))


class TestWalkKernels:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_walk_matches_row_kernel(self, n, lazy):
        """From every group element and one generator seed, the successor
        table walks as the row kernel does; keys hold row r at bits r*n."""
        gt = enumerate_group(n)
        table = dg._successors(gt, lazy)
        width = len(table) // gt.size
        shifts = np.arange(n, dtype=np.uint64) * np.uint64(n)
        rows = (gt.keys[:, None] >> shifts) & np.uint64((1 << n) - 1)
        state = np.arange(gt.size) * width
        dg._walk_rows(rows, 40, np.random.default_rng(99), lazy)
        dg._walk_table(state, table, n * (n - 1), 40, np.random.default_rng(99), lazy)
        assert (gt.keys[state // width] == (rows << shifts).sum(axis=1, dtype=np.uint64)).all()


def per_step_draws(rng, npairs, t, count, lazy):
    """The draws `_move_draws` replays: per step the pairs, then the coins."""
    pairs, coins = [], []
    for _ in range(t):
        pairs.append(rng.integers(0, npairs, count))
        if lazy:
            coins.append(rng.integers(0, 2, count))
    return pairs, coins


def same_state(a, b) -> bool:
    """Equal bit-generator states (Philox's holds arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


class CountingRng:
    """A generator's bit generator and `integers`, counting the bounded
    `integers` calls; full-range uint32 calls are the 32-bit word stream."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

    def integers(self, low, high, *args, **kwargs):
        self.calls += (low, high, kwargs.get("dtype")) != (0, 2**32, np.uint32)
        return self.rng.integers(low, high, *args, **kwargs)


class TestMoveDraws:
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("count, t", [(2500, 7), (7, 2500)])
    @pytest.mark.parametrize("npairs", [6, 128 * 127, 46342 * 46341])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_chunks_equal_per_step_draws(self, lazy, npairs, count, t, buffered):
        """Values and final generator state, with and without a buffered half
        word at entry, on three bit generators; 46342 * 46341 > 2**31 redraws
        about half its words."""
        for bitgen in (np.random.PCG64, np.random.Philox, np.random.SFC64):
            rng, ref = np.random.Generator(bitgen(31)), np.random.Generator(bitgen(31))
            if buffered:
                rng.integers(0, 2**32, dtype=np.uint32)
                ref.integers(0, 2**32, dtype=np.uint32)
                assert rng.bit_generator.state["has_uint32"] == 1
            chunks = list(dg._move_draws(rng, npairs, t, count, lazy))
            want_pairs, want_coins = per_step_draws(ref, npairs, t, count, lazy)
            k = max(1, dg._CHUNK_PAIRS // count)
            assert [len(p) for p, _ in chunks] == [min(k, t - a) for a in range(0, t, k)]
            assert np.array_equal(np.concatenate([p for p, _ in chunks]), want_pairs), bitgen
            if lazy:
                assert np.array_equal(np.concatenate([c for _, c in chunks]), want_coins), bitgen
            else:
                assert all(c is None for _, c in chunks)
            assert same_state(rng.bit_generator.state, ref.bit_generator.state), bitgen

    def test_lazy_replay_makes_no_bounded_draws(self):
        rng = CountingRng(np.random.default_rng(4))
        ref = np.random.default_rng(4)
        pairs, coins = zip(*dg._move_draws(rng, 6, 50, 2500, True))
        assert rng.calls == 0
        want_pairs, want_coins = per_step_draws(ref, 6, 50, 2500, True)
        assert np.array_equal(np.concatenate(pairs), want_pairs)
        assert np.array_equal(np.concatenate(coins), want_coins)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("npairs", [2**32, 65537 * 65536])
    def test_lazy_bound_from_2_32_raises(self, npairs):
        """NumPy draws such a bound from 64-bit words; the 32-bit parse would
        reject every word and never end."""
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(ValueError):
            list(dg._move_draws(rng, npairs, 5, 3, True))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("lazy", [False, True])
    def test_no_steps_draw_nothing(self, lazy):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        assert list(dg._move_draws(rng, 6, 0, 2500, lazy)) == []
        assert rng.bit_generator.state == before


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
        "n,t,trials,seed,lazy,digest",
        [
            # ids leave n out, so the n = 3 cases keep their original names
            pytest.param(*case, id="-".join(map(str, case[1:])))
            for case in [
                (2, 5, 20_000, 3, True,
                 "d9c4ad9d74776275a4da4627b88cc798247b550ddafadc85b711253f8c1ac69a"),
                (2, 6, 20_000, 4, False,
                 "02af669cd3b9ff0789f1927675576befb970c01206bf7e5e22a5623f16e82fcf"),
                (3, 50, 100_000, 7, True,
                 "8f98f844e859878adba7a7aaf5624ead0f48a57bc940cd3a37ffd395c7d1c6c6"),
                (3, 20, 30_000, 8, False,
                 "05c27d2155b62c17adff38771c9571ea77d09ddb48fd1cfc5a9ba0830392c4e8"),
                (4, 40, 50_000, 5, True,
                 "517e60461c233a62092e65bd76ad69e6bd2296b50c029e55699e3b6d5d630b5d"),
                (4, 30, 50_000, 6, False,
                 "6cf261d45f164e86f59349fabfe9a8d43a56eddd643c33bc52ff379273e23b50"),
            ]
        ],
    )
    def test_golden_counts(self, n, t, trials, seed, lazy, digest):
        counts = dg.mc_state_frequencies(n, t, trials, seed, enumerate_group(n), lazy=lazy)
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

    @pytest.mark.parametrize("n", [1, 5])
    def test_n_outside_analysis_range_rejected(self, n):
        """The range is checked before the table is read: n = 5 would need a
        successor table of about 4 * 10^8 entries."""
        with pytest.raises(ValueError, match="n in 2..4"):
            dg.mc_state_frequencies(n, 1, 1000, seed=0, gt=None)


def block_index(b, size):
    """One count array per block: a one-hot of the block index."""
    return (np.eye(400, dtype=np.int64)[b],)


class TestWorkerPool:
    def test_no_worker_outlives_a_call(self):
        curve = dg.cutoff_experiment(16, 5000, 3, threads=2)
        assert multiprocessing.active_children() == []
        assert dg._block is None  # only the forked workers set it
        assert curve == dg.cutoff_experiment(16, 5000, 3, threads=1)

    def test_blocks_split_trials_by_2500(self):
        seen = []

        def block(b, size):
            seen.append((b, size))
            return (np.array([size]),)

        assert [a.tolist() for a in dg._run_blocks(7501, block, 1)] == [[7501]]
        assert seen == [(0, 2500), (1, 2500), (2, 2500), (3, 1)]

    def test_worker_error_reaches_the_caller_and_ends_the_pool(self):
        """The block function is a closure, which a pickling pool could not send."""
        offset = 10

        def block(b, size):
            if b == 1:
                raise ValueError(f"block {b + offset}")
            return (np.array([size]),)

        with pytest.raises(ValueError, match="block 11"):
            dg._run_blocks(3 * 2500, block, 2)
        assert multiprocessing.active_children() == []
        assert dg._block is None

    def test_workers_capped_by_blocks_and_available_cores(self, monkeypatch):
        """A planned pool of min(threads, blocks, cores) processes; the fake pool
        runs the blocks here, after the initializer a forked worker would run."""
        planned = []

        class Pool:
            def __init__(self, processes, initializer, initargs):
                planned.append(processes)
                self.start = lambda: initializer(*initargs)

            def map(self, fn, jobs, chunksize):
                monkeypatch.setattr(dg, "_block", None)  # restored after the test
                self.start()
                return [fn(job) for job in jobs]

            def close(self):
                planned.append("closed")

            def join(self):
                planned.append("joined")

        monkeypatch.setattr(dg, "_available_cores", lambda: 2)
        fork = SimpleNamespace(Pool=Pool)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: fork)
        (counts,) = dg._run_blocks(400 * 2500, block_index, 10_000)
        assert counts.tolist() == [1] * 400  # every block once
        assert planned == [2, "closed", "joined"]
        assert dg._run_blocks(2500, block_index, 10_000)[0].sum() == 1  # one block: no pool
        assert dg._run_blocks(5 * 2500, block_index, 1)[0].sum() == 5  # one worker: no pool
        assert planned == [2, "closed", "joined"]


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
