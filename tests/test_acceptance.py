"""Acceptance criteria.  Each test prints one `criterion N PASS/FAIL` line."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from tvwalk import diagnostics as dg
from tvwalk import exactgroup as eg
from tvwalk import funineq as fi
from tvwalk import gf2core as g
from tvwalk import protocol as pr
from tvwalk.cli import cli_dispatch


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_group_orders():
    orders = {n: eg.analyze(n)[0].size for n in (2, 3, 4)}
    closed = {n: math.prod((1 << n) - (1 << k) for k in range(n)) for n in (2, 3, 4)}
    ratios = [eg.order_ratio(n) for n in range(1, 11)]
    ok = (
        orders == {2: 6, 3: 168, 4: 20160}
        and closed == orders
        and all(a > b for a, b in zip(ratios, ratios[1:]))
        and abs(ratios[-1] - 0.288788) <= 1e-3
    )
    report(
        1,
        ok,
        f"orders {orders[2]}/{orders[3]}/{orders[4]}, "
        f"ratio(10)={ratios[-1]:.6f} within 1e-3 of 0.288788, decreasing",
    )


def test_criterion_2_graph_structure():
    checks = []
    periods = {}
    for n in (2, 3, 4):
        gt, ts = eg.analyze(n)
        rep = eg.spectral_report(ts)
        rows = np.repeat(np.arange(ts.size), ts.degree)
        mat = sp.coo_matrix(
            (np.full(rows.size, ts.step_probability), (rows, ts.adjacency.reshape(-1))),
            shape=(ts.size, ts.size),
        ).tocsr()
        regular = bool(np.allclose(np.asarray(mat.sum(axis=1)).ravel(), 1.0))
        diff = (mat - mat.T).tocoo()
        symmetric = diff.nnz == 0 or float(abs(diff.data).max()) <= 1e-15
        ncomp, _ = sp.csgraph.connected_components(mat, directed=False)
        checks.append(regular and symmetric and ncomp == 1)
        periods[n] = rep.period
    rep2 = eg.spectral_report(eg.analyze(2)[1])
    six_cycle = bool(
        np.allclose(
            np.sort(rep2.eigenvalues),
            [-1.0, -0.5, -0.5, 0.5, 0.5, 1.0],
            atol=1e-10,
        )
    )
    ok = all(checks) and six_cycle and periods == {2: 2, 3: 1, 4: 1}
    report(
        2,
        ok,
        f"regular/symmetric/connected n=2,3,4; n=2 six-cycle spectrum exact; "
        f"periods {periods[2]}/{periods[3]}/{periods[4]}",
    )


def test_criterion_3_inequality_suites():
    runs = [
        fi.run_suite("key", 10_000, seed=2026, n=3),
        fi.run_suite("extension", 1_000, seed=2026, n=2),
        fi.run_suite("rowdecomp", 1_000, seed=2026, n=2),
        fi.run_suite("hypercube", 10_000, seed=2026, d=8),
        fi.run_suite("kassabov", 10_000, seed=2026, n=3),
    ]
    spectral = all(
        eg.spectral_report(eg.analyze(n)[1]).gap >= fi.kassabov_gap_floor(n) for n in (2, 3, 4)
    )
    violations = sum(r.violations for r in runs)
    ok = violations == 0 and spectral
    detail = ", ".join(f"{r.check_name}:{r.violations}" for r in runs)
    report(3, ok, f"violations {detail}; spectral form holds for n=2,3,4")


def test_criterion_4_monte_carlo_oracle():
    gt, ts = eg.analyze(3)
    trials = 1_000_000
    counts = dg.mc_state_frequencies(
        3, 50, trials, seed=20260815, gt=gt, lazy=True, threads=4
    )
    p = eg.distribution_at(ts, 50, lazy=True)
    z = (counts - trials * p) / np.sqrt(trials * p * (1.0 - p))
    worst = float(np.abs(z).max())
    ok = counts.sum() == trials and worst <= 4.0
    report(4, ok, f"10^6 lazy chains at t=50, n=3: max |z| = {worst:.4f} <= 4")


def test_criterion_5_lsi_estimator():
    _, ts2 = eg.analyze(2)
    _, ts3 = eg.analyze(3)
    rep3 = eg.spectral_report(ts3)
    e2a = fi.estimate_lsi_constant(ts2, restarts=8, iters=600, seed=0)
    e2b = fi.estimate_lsi_constant(ts2, restarts=8, iters=600, seed=0)
    e3a = fi.estimate_lsi_constant(ts3, restarts=8, iters=600, seed=0)
    e3b = fi.estimate_lsi_constant(ts3, restarts=8, iters=600, seed=0)
    floor3 = 2.0 / rep3.gap
    deterministic = (
        e2a.estimate == e2b.estimate
        and e3a.estimate == e3b.estimate
        and bool((e3a.argmax == e3b.argmax).all())
    )
    ok = (
        e2a.estimate >= max(math.log(6), 4.0)
        and e3a.estimate >= floor3
        and deterministic
    )
    report(
        5,
        ok,
        f"n=2 estimate {e2a.estimate:.12f} >= max(log 6, 4.0); "
        f"n=3 estimate {e3a.estimate:.12f} >= 2/gap = {floor3:.12f}; deterministic",
    )


def test_criterion_6_bound_pipeline():
    _, ts = eg.analyze(3)
    rep = eg.spectral_report(ts)
    t_mix, t2_mix = eg.mixing_times(ts, 0.25)
    est = fi.estimate_lsi_constant(ts, restarts=8, iters=600, seed=0)
    upper = fi.mixing_bound(3, 0.25, est.estimate, 1.0 / rep.absolute_gap)
    counting = fi.counting_lower_bound(3, 0.25)
    ok = upper >= t2_mix and counting == 3 and counting <= t_mix
    report(
        6,
        ok,
        f"mixing bound {upper:.4f} >= exact t2_mix {t2_mix}; "
        f"counting bound {counting} <= exact t_mix {t_mix}",
    )


def test_criterion_7_cutoff():
    pts128 = dg.cutoff_experiment(128, 10_000, seed=99, threads=4)
    pts64 = dg.cutoff_experiment(64, 10_000, seed=99, threads=4)
    at_1 = min(pts128, key=lambda p: abs(p.t_over_nlogn - 1.0)).tv_estimate
    at_3 = min(pts128, key=lambda p: abs(p.t_over_nlogn - 3.0)).tv_estimate
    crossing = dg.crossover_locator(pts128)
    sup = max(
        abs(a.tv_estimate - b.tv_estimate) for a, b in zip(pts64, pts128)
    )
    ok = at_1 >= 0.5 and at_3 <= 0.1 and 1.2 <= crossing <= 1.8 and sup <= 0.15
    report(
        7,
        ok,
        f"n=128: tv({1.0:.1f})={at_1:.4f} >= 0.5, tv(3.0)={at_3:.4f} <= 0.1, "
        f"crossing {crossing:.4f} in [1.2, 1.8], sup |curve64 - curve128| = {sup:.4f} <= 0.15",
    )


def test_criterion_8_protocol():
    # exhaustive agreement over every challenge for small n
    exhaustive_ok = True
    for n in range(2, 13):
        kp = pr.keygen(n, 64, seed=800 + n)
        for value in range(1 << n):
            ch = g.BitVector(n, np.array([value], dtype=np.uint64))
            if pr.respond_honest(kp.secret, ch).y != pr.respond_dishonest(kp.public, ch).y:
                exhaustive_ok = False
    # random challenges at production sizes + deadline rejection
    random_ok = True
    reject_ok = True
    for n in (64, 256, 1024):
        kp = pr.keygen(n, 500, seed=900 + n)
        rng = g.derive_rng(901, n)
        for _ in range(1000):
            ch = g.BitVector(n, g.random_bit_words(rng, (1,), n)[0])
            rh = pr.respond_honest(kp.secret, ch)
            rd = pr.respond_dishonest(kp.public, ch)
            if rh.y != rd.y:
                random_ok = False
        verdict = pr.verify(kp.public, ch, rd, deadline_ops=n * n - 1)
        if verdict.accepted or not verdict.correct or verdict.within_deadline:
            reject_ok = False
    # keygen reproducibility across thread counts
    from concurrent.futures import ThreadPoolExecutor

    def key_bits(workers: int) -> int:
        if workers == 0:
            return g.encode_key(pr.keygen(32, 400, seed=77).public)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(pr.keygen, 32, 400, 77) for _ in range(workers)]
            bits = {g.encode_key(f.result().public) for f in futs}
        assert len(bits) == 1
        return bits.pop()

    thread_ok = key_bits(0) == key_bits(2) == key_bits(8)
    ok = exhaustive_ok and random_ok and reject_ok and thread_ok
    report(
        8,
        ok,
        "honest == dishonest exhaustively for n=2..12 and on 10^3 random "
        "challenges for n in {64,256,1024}; dishonest rejected at deadline "
        "n^2 - 1; keygen identical across thread counts",
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    jobs = [
        (("exact", "--n", "3"), "exact_curve.csv"),
        (("spectrum", "--n", "2"), "spectrum.csv"),
        (("lsi", "--n", "2", "--restarts", "2", "--iters", "100"), "lsi.csv"),
        (("check", "--suite", "all", "--n", "2", "--trials", "100"), "inequality_suite.csv"),
        (
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", "0.75,1.5,3.0",
             "--threads", "2"),
            "cutoff.csv",
        ),
    ]
    identical = []
    for argv, filename in jobs:
        dir_a, dir_b = tmp_path / f"a_{filename}", tmp_path / f"b_{filename}"
        code_a = cli_dispatch([*argv, "--seed", "11", "--out", str(dir_a)])
        code_b = cli_dispatch([*argv, "--seed", "11", "--out", str(dir_b)])
        identical.append(
            code_a == 0
            and code_b == 0
            and (dir_a / filename).read_bytes() == (dir_b / filename).read_bytes()
        )
    capsys.readouterr()  # absorb the subcommands' own stdout
    ok = all(identical)
    names = ", ".join(f for (_, f), good in zip(jobs, identical) if good)
    report(9, ok, f"byte-identical re-runs for {names}")
