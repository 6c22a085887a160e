"""Command-line surface: outputs, CSV reproducibility, config files, exits."""

import argparse
import contextlib
import functools
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tvwalk
from tvwalk import chain, cli, diagnostics, exactgroup, funineq
from tvwalk import gf2core as g
from tvwalk.chain import load_trajectory, replay
from tvwalk.cli import cli_dispatch


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(path):
    """Data portion of a CSV: everything except the # config echo."""
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith("# ")]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


LEAVES = [("order",), ("walk",), ("exact",), ("spectrum",), ("lsi",), ("check",), ("cutoff",),
          ("bounds",), ("protocol", "keygen"), ("protocol", "prove"), ("protocol", "verify"),
          ("protocol", "report")]


class TestOrder:
    def test_n4(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "4")
        assert code == 0
        assert "n=4 order=20160 ambient=2^16 ratio=" in out

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "1")
        assert code == 0 and "order=1 " in out

    def test_invalid_n(self, capsys):
        code, _, err = run(capsys, "order", "--n", "0")
        assert code == 2 and "error:" in err

    def test_largest_printable_order(self, capsys):
        code, out, _ = run(capsys, "order", "--n", "119")
        assert code == 0 and out.startswith("n=119 order=")

    @pytest.mark.parametrize("n", [120, 100_000])
    def test_order_too_long_to_print(self, capsys, n):
        """Rejected before any big-int work: the n = 100000 product would not end."""
        code, out, err = run(capsys, "order", "--n", str(n))
        assert (code, out, err) == (2, "", f"error: --n must be in 1..119 (got {n})\n")


class TestWalk:
    def test_saves_loadable_artifacts(self, capsys, tmp_path):
        traj_path = tmp_path / "walk.tvwk"
        mat_path = tmp_path / "end.gf2m"
        code, out, _ = run(
            capsys,
            "walk", "--n", "6", "--t", "40", "--seed", "3",
            "--save-trajectory", str(traj_path), "--save-matrix", str(mat_path),
        )
        assert code == 0
        assert "applied=40" in out and "invertible=true" in out
        traj = load_trajectory(traj_path)
        final = g.load_matrix(mat_path)
        assert replay(traj) == final
        assert f"popcount={final.popcount()}" in out

    def test_lazy_flag(self, capsys):
        code, out, _ = run(capsys, "walk", "--n", "4", "--t", "100", "--lazy")
        assert code == 0 and "lazy=true" in out

    def test_negative_t(self, capsys):
        code, _, err = run(capsys, "walk", "--n", "4", "--t", "-1")
        assert code == 2 and "--t" in err

    @pytest.mark.parametrize("command", [
        ("walk", "--save-trajectory", "{out}"),
        ("protocol", "keygen", "--out", "{out}"),
    ])
    def test_n_past_the_tvwk_limit_fails_first(self, capsys, tmp_path, command):
        """Refused before the walk: no result line, no trajectory file, and no
        public key without its secret."""
        out = tmp_path / "out"
        argv = [a.format(out=out) for a in command] + ["--n", "65535", "--t", "1"]
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and "65534" in err and err.count("\n") == 1
        assert not out.exists()


class TestExact:
    def test_n3_mixing_times(self, capsys, tmp_path):
        code, out, _ = run(capsys, "exact", "--n", "3", "--out", str(tmp_path))
        assert code == 0
        assert "t_mix=6 t2_mix=9" in out
        body = csv_body(tmp_path / "exact_curve.csv")
        assert body[0] == "t,tv,l2,lazy_flag"
        assert len(body) == 1 + 9 + 5 + 1  # header + t = 0..t2+5
        assert body[1].startswith("0,") and body[1].endswith(",0")

    def test_n2_switches_to_lazy_kernel(self, capsys, tmp_path):
        code, out, _ = run(capsys, "exact", "--n", "2", "--out", str(tmp_path))
        assert code == 0
        assert "periodic" in out and "lazy=true" in out
        assert "t_mix=4 t2_mix=7" in out

    def test_tmax_controls_rows(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "exact", "--n", "3", "--tmax", "4", "--out", str(tmp_path)
        )
        assert code == 0
        assert len(csv_body(tmp_path / "exact_curve.csv")) == 6

    @pytest.mark.parametrize("n", ["2", "4"])
    def test_negative_tmax_rejected_before_any_law(self, capsys, monkeypatch, n):
        """An explicit --tmax is checked before the mixing-time iteration, and
        so before n = 2's periodic note."""
        calls = []
        mixing_times = exactgroup.mixing_times
        monkeypatch.setattr(exactgroup, "mixing_times",
                            lambda *a: calls.append(a) or mixing_times(*a))
        code, out, err = run(capsys, "exact", "--n", n, "--tmax", "-1")
        assert (code, out, err) == (2, "", "error: --tmax must be >= 0 (got -1)\n")
        assert calls == []

    def test_n5_rejected(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "5")
        assert code == 2 and err == "error: --n must be in 2..4 (got 5)\n"

    def test_n1_rejected(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "1")
        assert code == 2 and err == "error: --n must be in 2..4 (got 1)\n"

    @pytest.mark.parametrize(
        "n,csv_digest,stdout_digest",
        [
            # n = 2 takes the periodic-note path onto the lazy kernel
            (
                "2",
                "43b748d715f75e99d963586fabf69f1edb8a31df37ee16228d769212557c7994",
                "5cf7dd202bd86c7a097bfd93dc51cac79caa69b32243d1f3e4afa7969d7e2b12",
            ),
            (
                "4",
                "9b13db3aee4dbbe99946944e25e8dfa0e6413d5619e07ea1152d4191388fa7be",
                "1ea45ad93b927be2a0cf28fc4988c8f435a6fd826015fca8bd307193417f3c14",
            ),
        ],
    )
    def test_golden_outputs(self, capsys, tmp_path, monkeypatch, n, csv_digest, stdout_digest):
        # run in the output directory so stdout names the same curve path every time
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "exact", "--n", n)
        assert code == 0
        assert sha256((tmp_path / "exact_curve.csv").read_bytes()) == csv_digest
        assert sha256(out.encode()) == stdout_digest

    def test_n4_commands_never_solve_the_spectrum(self, capsys, tmp_path, monkeypatch):
        # `exact` and the key suite read the period and the transition
        # structure only; a fresh analysis must not reach the Lanczos solve.
        def refuse(ts):
            raise AssertionError("the n = 4 spectrum was solved")

        monkeypatch.setattr(exactgroup, "_extremal_spectrum", refuse)
        exactgroup.analyze.cache_clear()
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "exact", "--n", "4")
        assert code == 0
        assert sha256((tmp_path / "exact_curve.csv").read_bytes()) == (
            "9b13db3aee4dbbe99946944e25e8dfa0e6413d5619e07ea1152d4191388fa7be"
        )
        assert sha256(out.encode()) == (
            "1ea45ad93b927be2a0cf28fc4988c8f435a6fd826015fca8bd307193417f3c14"
        )
        argv = ("check", "--suite", "key", "--n", "4", "--trials", "200", "--seed", "1")
        assert run(capsys, *argv)[0] == 0
        assert sha256((tmp_path / "inequality_suite.csv").read_bytes()) == (
            "5cd80fbad5eb33d32e805ff567fa96d3409cbd406bc4fbc842167a1ba05a27fe"
        )


class TestSpectrum:
    def test_n2_six_rows(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum", "--n", "2", "--out", str(tmp_path))
        assert code == 0
        assert "states=6" in out and "period=2" in out
        assert "absolute_gap=0.0" in out
        body = csv_body(tmp_path / "spectrum.csv")
        assert body[0] == "index,eigenvalue"
        assert len(body) == 7
        eigs = sorted(float(ln.split(",")[1]) for ln in body[1:])
        assert eigs == pytest.approx([-1.0, -0.5, -0.5, 0.5, 0.5, 1.0], abs=1e-10)

    def test_n5_rejected(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "5")
        assert code == 2 and err == "error: --n must be in 2..4 (got 5)\n"

    def test_n4_partial_spectrum(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spectrum", "--n", "4", "--out", str(tmp_path))
        assert code == 0
        assert "states=20160" in out and "full_spectrum=false" in out
        assert len(csv_body(tmp_path / "spectrum.csv")) == 4  # header + 3 extremes

    @pytest.mark.parametrize(
        "n,digest",
        [
            ("3", "3f433fd3e02b42efb96c7c4b183d87699e9d26900190b8f1057663ffa38b0855"),
            ("4", "b7ae2f46a3b6f406ab1f53979c56b3555250c7e487f89ab6205e457c470bb659"),
        ],
    )
    def test_golden_csv(self, capsys, tmp_path, n, digest):
        code, _, _ = run(capsys, "spectrum", "--n", n, "--out", str(tmp_path))
        assert code == 0
        assert sha256((tmp_path / "spectrum.csv").read_bytes()) == digest


class TestLsi:
    def test_n2_floor(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "lsi", "--n", "2", "--restarts", "2", "--iters", "200",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "estimate=4.000000000000001" in out
        body = csv_body(tmp_path / "lsi.csv")
        assert body[0] == "n,restarts,best_ratio,two_over_gap"
        assert len(body) == 2
        n, restarts, best, floor = body[1].split(",")
        assert (n, restarts) == ("2", "2")
        assert float(best) <= 4.000000000000001
        assert float(floor) == 4.000000000000001

    def test_n4_rejected(self, capsys):
        code, _, err = run(capsys, "lsi", "--n", "4")
        assert code == 2 and err == "error: --n must be in 2..3 (got 4)\n"

    def test_golden_n3_csv(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "lsi", "--n", "3", "--restarts", "8", "--iters", "600", "--seed", "0",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "lsi.csv").read_bytes()).hexdigest() == (
            "08c139891efa33371c6bbcdcb922bcfa21655f963f638ed7339d47869e18efc2"
        )


class TestCheck:
    def test_all_suites_zero_violations_n2(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "check", "--suite", "all", "--n", "2", "--trials", "50",
            "--seed", "7", "--out", str(tmp_path),
        )
        assert code == 0
        body = csv_body(tmp_path / "inequality_suite.csv")
        assert body[0] == "check_name,n,trials,violations,min_slack"
        assert len(body) == 6  # all five suites run at n = 2
        for ln in body[1:]:
            assert ln.split(",")[3] == "0"

    def test_all_skips_undefined_at_n3(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "check", "--suite", "all", "--n", "3", "--trials", "20",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "rowdecomp: skipped (not defined at n=3)" in out
        assert len(csv_body(tmp_path / "inequality_suite.csv")) == 5

    def test_violations_exit_3(self, capsys, tmp_path, monkeypatch):
        argv = ("check", "--suite", "key", "--n", "2", "--trials", "10", "--out", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "violations=0 " in out
        key = funineq._SUITE_TERMS["key"]

        def broken(batch, domain):
            lhs, rhs = key(batch, domain)
            return rhs + 1.0, rhs

        monkeypatch.setitem(funineq._SUITE_TERMS, "key", broken)
        code, out, _ = run(capsys, *argv)
        assert code == 3 and "violations=0 " not in out
        # The CSV is still written, with the violation count.
        assert csv_body(tmp_path / "inequality_suite.csv")[1].split(",")[3] != "0"

    def test_single_unsupported_suite_fails(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "rowdecomp", "--n", "3", "--trials", "10")
        assert code == 2 and "rowdecomp" in err

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run(capsys, "check", "--suite", "bogus", "--trials", "10")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--suite", "key", "--n", "5"), "error: --n must be in 2..4 (got 5)\n"),
            (("--suite", "all", "--n", "1"), "error: --n must be in 2..4 (got 1)\n"),
            (("--suite", "hypercube", "--d", "0"), "error: --d must be in 1..12 (got 0)\n"),
            (("--suite", "hypercube", "--d", "13"), "error: --d must be in 1..12 (got 13)\n"),
        ],
    )
    def test_group_suite_n_range(self, capsys, argv, message):
        code, _, err = run(capsys, "check", *argv, "--trials", "10")
        assert code == 2 and err == message

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("--suite", "all", "--n", "3", "--trials", "10000"),
                "ec0914cfe76b6e54dbec9725c7976a7424efbf981a75b1f0b12e473a853271e0",
            ),
            (
                ("--suite", "key", "--n", "4", "--trials", "200"),
                "5cd80fbad5eb33d32e805ff567fa96d3409cbd406bc4fbc842167a1ba05a27fe",
            ),
            (
                ("--suite", "all", "--n", "2", "--trials", "2000", "--d", "5"),
                "b3f8b6811fabac4b45b2867e959b3802b2eb3065b35f2d426bc8ceaf76ca3b64",
            ),
        ],
    )
    def test_golden_suite_csv(self, capsys, tmp_path, argv, digest):
        code, _, _ = run(capsys, "check", *argv, "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "inequality_suite.csv").read_bytes()).hexdigest() == (
            digest
        )


class TestCutoff:
    def test_curve_and_crossing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cutoff", "--n", "16", "--trials", "1000", "--seed", "1",
            "--grid", "0.0,1.5,3.0", "--out", str(tmp_path),
        )
        assert code == 0
        assert "crossing_t_over_nlogn=" in out
        body = csv_body(tmp_path / "cutoff.csv")
        assert body[0] == "n,k,t,t_over_nlogn,tv_estimate,noise_floor,trials,seed"
        assert len(body) == 4
        assert body[1].startswith("16,1,0,")

    def test_no_bracket_still_succeeds(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cutoff", "--n", "16", "--trials", "1000", "--seed", "1",
            "--grid", "2.5,3.0", "--out", str(tmp_path),
        )
        assert code == 0
        assert "crossing=none" in out

    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "cutoff", "--n", "8", "--trials", "1000")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "argv,digest",
        [
            # k = 2: single-word slices, reference slices ranked by rejection.
            (
                ("--k", "2", "--trials", "5000"),
                "195e426136b8ab5398eebb4419659bee9b84251ac41f5a724bf95a8d2f079c21",
            ),
            # k = 65: two-word slices.
            (
                ("--k", "65", "--trials", "2500", "--grid", "1.0,1.5,2.0"),
                "951291149f83f173d13714423f7d8aa4554ac09452139c9f0d76a01d60c72e0d",
            ),
        ],
    )
    def test_golden_slice_curve(self, capsys, tmp_path, argv, digest):
        code, _, _ = run(
            capsys, "cutoff", "--n", "128", "--seed", "5", *argv, "--out", str(tmp_path)
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "cutoff.csv").read_bytes()).hexdigest() == digest


class TestBounds:
    def test_n3_nonlazy_pipeline(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "3", "--restarts", "2", "--iters", "200")
        assert code == 0
        assert "counting_lower_bound=3" in out
        assert "kernel=nonlazy" in out
        assert "l2_mixing_upper_bound=" in out
        upper = float(out.split("l2_mixing_upper_bound=")[1].split()[0])
        assert upper >= 9  # never below the exact l2 mixing time

    def test_n2_uses_lazy_kernel(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "2", "--restarts", "2", "--iters", "200")
        assert code == 0
        assert "kernel=lazy" in out
        upper = float(out.split("l2_mixing_upper_bound=")[1].split()[0])
        assert upper >= 7  # exact lazy t2_mix

    def test_large_n_counting_only(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "8")
        assert code == 0
        assert "counting_lower_bound=" in out
        assert "l2_mixing_upper_bound" not in out

    @pytest.mark.parametrize(
        "n,digest",
        [
            ("2", "f778816daaaefd31e3466c3481aad34746f0db8cdc32c1bac6118e87ad0e7851"),
            ("3", "d3d428bd5cd4e42447fdfdf8b61fcb1940e5a9c3676de0272eed535511f655db"),
        ],
    )
    def test_golden_stdout(self, capsys, n, digest):
        # default restarts=8, iters=600, seed 0
        code, out, _ = run(capsys, "bounds", "--n", n)
        assert code == 0
        assert sha256(out.encode()) == digest

    def test_spectrum_solved_once(self, capsys, monkeypatch):
        calls = []

        def counted(ts):
            calls.append(ts)
            return solve(ts)

        solve = exactgroup.spectral_report
        monkeypatch.setattr(exactgroup, "spectral_report", counted)
        monkeypatch.setattr(funineq, "spectral_report", counted)
        code, out, _ = run(capsys, "bounds", "--n", "3")
        assert code == 0 and len(calls) == 1
        assert sha256(out.encode()) == (
            "d3d428bd5cd4e42447fdfdf8b61fcb1940e5a9c3676de0272eed535511f655db"
        )

    def test_n4_notes_the_lsi_range(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4")
        assert code == 0
        assert out == (
            "n=4 eps=0.25 counting_lower_bound=4\n"
            "note: the sharp-bound pipeline needs the exact constants, available for n <= 3\n"
        )


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv,filename",
        [
            (("exact", "--n", "3"), "exact_curve.csv"),
            (("spectrum", "--n", "3"), "spectrum.csv"),
            (("lsi", "--n", "2", "--restarts", "2", "--iters", "100"), "lsi.csv"),
            (("check", "--suite", "key", "--n", "2", "--trials", "40"), "inequality_suite.csv"),
            (
                ("cutoff", "--n", "16", "--trials", "1000", "--grid", "1.0,2.0", "--threads", "2"),
                "cutoff.csv",
            ),
        ],
    )
    def test_rerun_is_byte_identical(self, capsys, tmp_path, argv, filename):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *argv, "--seed", "5", "--out", str(dir_a))[0] == 0
        assert run(capsys, *argv, "--seed", "5", "--out", str(dir_b))[0] == 0
        assert (dir_a / filename).read_bytes() == (dir_b / filename).read_bytes()

    def test_thread_count_changes_no_byte(self, capsys, tmp_path):
        dirs = [tmp_path / "default", tmp_path / "t1", tmp_path / "t4"]
        argv = ("cutoff", "--n", "16", "--trials", "5000", "--grid", "1.0,2.0", "--seed", "9")
        assert run(capsys, *argv, "--out", str(dirs[0]))[0] == 0
        assert run(capsys, *argv, "--threads", "1", "--out", str(dirs[1]))[0] == 0
        assert run(capsys, *argv, "--threads", "4", "--out", str(dirs[2]))[0] == 0
        files = [(d / "cutoff.csv").read_bytes() for d in dirs]
        assert files[0] == files[1] == files[2]
        assert b"threads" not in files[0]

    def test_worker_count_changes_no_stdout_byte(self, capsys, tmp_path):
        argv = ("cutoff", "--n", "16", "--trials", "5000", "--seed", "4", "--out", str(tmp_path))
        outputs = []
        for extra in ((), ("--threads", "1"), ("--threads", "2")):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            outputs.append((out, (tmp_path / "cutoff.csv").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_leaf_table_declared_once_per_process(self, capsys, monkeypatch, tmp_path):
        """Dispatches share one leaf table whatever the core count, and a
        cutoff without --threads, well formed or read through argparse, runs
        with the cores available at its dispatch."""
        declared, threads = [], []
        declare, cutoff = cli._leaf_table.__wrapped__, diagnostics.cutoff_experiment

        def counted():
            declared.append(True)
            return declare()

        def recorded(*args, **kwargs):
            threads.append(kwargs["threads"])
            return cutoff(*args, **kwargs)

        monkeypatch.setattr(cli, "_leaf_table", functools.cache(counted))
        monkeypatch.setattr(diagnostics, "cutoff_experiment", recorded)
        monkeypatch.setattr(diagnostics, "_available_cores", lambda: 5)
        argv = ("cutoff", "--n", "16", "--trials", "1000", "--grid", "1.0", "--out", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=0\n")
        assert run(capsys, "order", "--n", "3")[0] == 0
        assert run(capsys, *argv)[0] == 0
        assert (declared, threads) == ([True], [5])
        monkeypatch.setattr(diagnostics, "_available_cores", lambda: 7)
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, *argv, "--config", str(cfg))[0] == 0
        assert (declared, threads) == ([True], [5, 7, 7])

    def test_threads_default_is_the_available_cores(self, capsys, monkeypatch):
        monkeypatch.setattr(diagnostics, "_available_cores", lambda: 3)
        code, out, _ = run(capsys, "cutoff", "--help")
        help_text = " ".join(out.split())
        assert code == 0 and "(default: the available cores)" in help_text
        assert "cores, 3" not in help_text

    def test_seed_changes_sampled_output(self, capsys, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        argv = ("cutoff", "--n", "16", "--trials", "1000", "--grid", "1.0")
        assert run(capsys, *argv, "--seed", "1", "--out", str(dir_a))[0] == 0
        assert run(capsys, *argv, "--seed", "2", "--out", str(dir_b))[0] == 0
        assert csv_body(dir_a / "cutoff.csv") != csv_body(dir_b / "cutoff.csv")


class TestConfigFile:
    def test_config_equivalent_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\neps=0.25\nseed=4\nout=" + str(tmp_path / "a") + "\n")
        code_a, out_a, _ = run(capsys, "exact", "--config", str(cfg))
        code_b, out_b, _ = run(
            capsys, "exact", "--n", "3", "--eps", "0.25", "--seed", "4",
            "--out", str(tmp_path / "b"),
        )
        assert code_a == code_b == 0
        assert out_a.replace("/a", "/b") == out_b
        assert csv_body(tmp_path / "a" / "exact_curve.csv") == csv_body(
            tmp_path / "b" / "exact_curve.csv"
        )

    def test_command_line_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=2\n")
        code, out, _ = run(
            capsys, "exact", "--config", str(cfg), "--n", "3", "--out", str(tmp_path)
        )
        assert code == 0 and "n=3 " in out

    def test_boolean_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lazy=true\n")
        code, out, _ = run(capsys, "walk", "--config", str(cfg), "--n", "4", "--t", "50")
        assert code == 0 and "lazy=true" in out

    def test_dashed_key_maps_to_underscore(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("word-bits=32\nn=64\nt=10\n")
        code, out, _ = run(capsys, "protocol", "report", "--config", str(cfg))
        assert code == 0 and "dishonest_word_ops=128" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        code, _, err = run(capsys, "order", "--config", str(cfg), "--n", "2")
        assert code == 2 and "frobnicate" in err

    def test_key_of_another_subcommand_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("restarts=3\n")
        code, _, err = run(capsys, "order", "--config", str(cfg), "--n", "2")
        assert code == 2 and "restarts" in err

    def test_threads_key_only_for_cutoff(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        code, _, err = run(capsys, "order", "--config", str(cfg), "--n", "2")
        assert code == 2 and "threads" in err
        argv = ("cutoff", "--config", str(cfg), "--n", "16", "--trials", "1000", "--grid", "1.0")
        assert run(capsys, *argv, "--out", str(tmp_path))[0] == 0

    @pytest.mark.parametrize("argv, text, key", [
        (("order",), "n=3\n# n again\nn=4\n", "n"),
        (("walk", "--n", "4", "--t", "10"), "save-trajectory=a\n\nsave_trajectory=b\n",
         "save_trajectory"),
    ])
    def test_repeated_key_exits_2(self, capsys, tmp_path, argv, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:3: key {key!r} given twice\n"

    def test_value_outside_choices_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite=nope\ntrials=5\n")
        code, out, err = run(capsys, "check", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: config key 'suite': ") and err.count("\n") == 1

    @pytest.mark.parametrize("in_file, on_line", [("secret", "key"), ("key", "secret")])
    def test_prove_source_in_file_and_on_line_exits_2(self, capsys, tmp_path, in_file, on_line):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        paths = {"secret": tmp_path / "secret.tvwk", "key": tmp_path / "key.gf2m"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{in_file}={paths[in_file]}\n")
        code, out, err = run(
            capsys, "protocol", "prove", "--config", str(cfg),
            f"--{on_line}", str(paths[on_line]), "--challenge", "a5",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_prove_secret_from_file_answers_honestly(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"secret={tmp_path / 'secret.tvwk'}\n")
        code, out, _ = run(capsys, "protocol", "prove", "--config", str(cfg), "--challenge", "a5")
        assert code == 0 and "role=honest" in out

    @pytest.mark.parametrize("argv", [("--config", "{cfg}"), ("--config={cfg}",)])
    def test_config_without_subcommand_says_so(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\n")
        code, out, err = run(capsys, *[a.format(cfg=cfg) for a in argv])
        assert code == 2 and out == ""
        assert err == "error: missing subcommand: tvwalk SUBCOMMAND --config FILE\n"

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "order", "--config", str(tmp_path / "absent.cfg"), "--n", "2"
        )
        assert code == 2 and "error:" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        code, _, err = run(capsys, "order", "--config", str(cfg), "--n", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("order",), "n=x"),
            (("walk", "--n", "4", "--t", "5"), "lazy=maybe"),
            (("exact", "--n", "3"), "eps=big"),
            (("cutoff", "--n", "16", "--trials", "1000"), "grid=1.0,x"),
        ],
    )
    def test_bad_value_names_its_key(self, capsys, tmp_path, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
        key = line.partition("=")[0]
        assert code == 2 and out == ""
        assert err.startswith(f"error: config key {key!r}: ") and err.count("\n") == 1


class TestProtocolFlow:
    def test_full_round_trip(self, capsys, tmp_path):
        out_dir = str(tmp_path)
        code, out, _ = run(
            capsys,
            "protocol", "keygen", "--n", "8", "--t", "40", "--seed", "5",
            "--out", out_dir,
        )
        assert code == 0 and "applied=40" in out
        key = str(tmp_path / "key.gf2m")
        secret = str(tmp_path / "secret.tvwk")

        challenge = "a5"
        code, honest_line, _ = run(
            capsys, "protocol", "prove", "--secret", secret, "--challenge", challenge
        )
        assert code == 0
        assert "bit_ops=40" in honest_line and "role=honest" in honest_line

        code, dishonest_line, _ = run(
            capsys, "protocol", "prove", "--key", key, "--challenge", challenge
        )
        assert code == 0
        assert "bit_ops=64" in dishonest_line and "role=dishonest" in dishonest_line
        assert honest_line.split()[0] == dishonest_line.split()[0]  # same y=...

        # honest answer fits the deadline between trajectory and matrix cost
        code, out, _ = run(
            capsys,
            "protocol", "verify", "--key", key, "--challenge", challenge,
            "--response", honest_line.strip(), "--deadline", "63",
        )
        assert code == 0 and out.startswith("accept")

        # correct but measured-too-slow answer is rejected with exit 1
        code, out, _ = run(
            capsys,
            "protocol", "verify", "--key", key, "--challenge", challenge,
            "--response", dishonest_line.strip(), "--deadline", "63",
        )
        assert code == 1
        assert "reject" in out and "correct=true" in out and "within_deadline=false" in out

    def test_verify_reads_response_file(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        code, line, _ = run(
            capsys,
            "protocol", "prove", "--secret", str(tmp_path / "secret.tvwk"),
            "--challenge", "ff",
        )
        resp = tmp_path / "response.txt"
        resp.write_text(line)
        code, out, _ = run(
            capsys,
            "protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "ff", "--response-file", str(resp), "--deadline", "20",
        )
        assert code == 0 and out.startswith("accept")

    @pytest.mark.parametrize("given", [("--response", "--response-file"), ()])
    def test_verify_requires_exactly_one_response_source(self, capsys, tmp_path, given):
        """A garbage --response beside a good --response-file is a usage error,
        not a silent accept of the file's line; so is giving neither."""
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        _, line, _ = run(
            capsys, "protocol", "prove", "--secret", str(tmp_path / "secret.tvwk"),
            "--challenge", "a5",
        )
        resp = tmp_path / "response.txt"
        resp.write_text(line)
        values = {"--response": "garbage", "--response-file": str(resp)}
        code, out, err = run(
            capsys, "protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "a5", "--deadline", "20", *[t for f in given for t in (f, values[f])],
        )
        assert code == 2 and out == ""
        assert err.startswith("usage: tvwalk protocol verify ")

    @pytest.mark.parametrize("value", ["garbage", ""])
    def test_verify_response_in_file_and_on_line_exits_2(self, capsys, tmp_path, value):
        """A config file's response, even an empty one, beside --response-file
        is refused before the key file is read."""
        resp, cfg = tmp_path / "response.txt", tmp_path / "run.cfg"
        resp.write_text("honest 1 ab\n")
        cfg.write_text(f"response={value}\n")
        code, out, err = run(
            capsys, "protocol", "verify", "--config", str(cfg), "--key", str(tmp_path / "absent"),
            "--challenge", "a5", "--deadline", "20", "--response-file", str(resp),
        )
        assert code == 2 and out == ""
        assert err == (
            "error: --response and --response-file exclude each other, in the config file too\n"
        )

    def test_prove_secret_in_file_and_key_on_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"secret={tmp_path / 'absent.tvwk'}\n")
        code, out, err = run(
            capsys, "protocol", "prove", "--config", str(cfg), "--key", str(tmp_path / "absent"),
            "--challenge", "a5",
        )
        assert (code, out) == (2, "")
        assert err == "error: --secret and --key exclude each other, in the config file too\n"

    @pytest.mark.parametrize("text", ["", "  \n"])
    def test_verify_empty_response_says_so(self, capsys, tmp_path, text):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        resp = tmp_path / "response.txt"
        resp.write_text(text)
        code, out, err = run(
            capsys, "protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "a5", "--deadline", "20", "--response-file", str(resp),
        )
        assert (code, out, err) == (2, "", "error: response line is empty\n")

    @pytest.mark.parametrize("in_file", [False, True])
    def test_negative_deadline_exits_2(self, capsys, tmp_path, in_file):
        """A deadline below 0 is malformed input, not a rejection (exit 1),
        on the command line or from a config file."""
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        _, line, _ = run(
            capsys, "protocol", "prove", "--secret", str(tmp_path / "secret.tvwk"),
            "--challenge", "a5",
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text("deadline=-1\n")
        deadline = ("--config", str(cfg)) if in_file else ("--deadline", "-1")
        code, out, err = run(
            capsys, "protocol", "verify", *deadline, "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "a5", "--response", line.strip(),
        )
        assert code == 2 and out == ""
        assert err == "error: --deadline must be >= 0 (got -1)\n"

    def test_forged_answer_rejected(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        code, out, _ = run(
            capsys,
            "protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "01",
            "--response", "y=00 bit_ops=1 word_ops=0 role=honest",
            "--deadline", "100",
        )
        # the zero answer equals A*x only if column 1 of the key is zero,
        # impossible for an invertible key
        assert code == 1 and "correct=false" in out

    def test_bad_hex_challenge(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "5", "--out", str(tmp_path))
        for bad in ("zz", "aabb"):  # not hex; wrong length
            code, _, err = run(
                capsys,
                "protocol", "prove", "--secret", str(tmp_path / "secret.tvwk"),
                "--challenge", bad,
            )
            assert code == 2 and "error:" in err

    def test_malformed_response_line(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "5", "--out", str(tmp_path))
        code, _, err = run(
            capsys,
            "protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
            "--challenge", "01", "--response", "y=00 role=honest",
            "--deadline", "10",
        )
        assert code == 2 and "missing fields" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (" bit_ops=999999999 extra=1", "response field 'bit_ops' given twice"),
            (" extra=1", "unknown response field 'extra'"),
            (" role=honest", "response field 'role' given twice"),
        ],
    )
    def test_repeated_or_unknown_response_field_exits_2(self, capsys, tmp_path, extra, message):
        """A valid honest line with a field repeated or added is malformed
        input (2), not a rejection (1): a second bit_ops= must not replace
        the declared cost."""
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        _, line, _ = run(
            capsys, "protocol", "prove", "--secret", str(tmp_path / "secret.tvwk"),
            "--challenge", "a5",
        )
        verify = ("protocol", "verify", "--key", str(tmp_path / "key.gf2m"),
                  "--challenge", "a5", "--deadline", "20", "--response")
        accepted = (0, "accept role=honest bit_ops=20 deadline=20\n", "")
        assert run(capsys, *verify, line.strip()) == accepted
        assert run(capsys, *verify, line.strip() + extra) == (2, "", f"error: {message}\n")

    def test_truncated_files_exit_2(self, capsys, tmp_path):
        """Cut headers are invalid input (2), never a rejection (1)."""
        (tmp_path / "cut.gf2m").write_bytes(b"GF2M")
        (tmp_path / "cut.tvwk").write_bytes(
            b"TVWK" + bytes([1]) + (8).to_bytes(4, "little") + (5).to_bytes(8, "little")
        )
        code, _, err = run(
            capsys,
            "protocol", "verify", "--key", str(tmp_path / "cut.gf2m"),
            "--challenge", "00", "--response", "y=00 bit_ops=0 word_ops=0 role=honest",
            "--deadline", "10",
        )
        assert code == 2 and "truncated GF2M header" in err
        code, _, err = run(
            capsys,
            "protocol", "prove", "--secret", str(tmp_path / "cut.tvwk"), "--challenge", "00",
        )
        assert code == 2 and "truncated TVWK header" in err

    def test_key_with_set_padding_bits_exits_2(self, capsys, tmp_path):
        run(capsys, "protocol", "keygen", "--n", "11", "--t", "0", "--out", str(tmp_path))
        key = tmp_path / "key.gf2m"
        data = bytearray(key.read_bytes())
        data[9 + 1] |= 0x80  # column 15 of row 0
        key.write_bytes(bytes(data))
        code, _, err = run(
            capsys,
            "protocol", "verify", "--key", str(key), "--challenge", "0100",
            "--response", "y=0100 bit_ops=0 word_ops=0 role=honest", "--deadline", "10",
        )
        assert code == 2 and "padding" in err

    def test_padding_bit_at_n_100_exits_2(self, capsys, tmp_path):
        """Rows of 13 bytes, two words, hold 4 padding bits; one set in the
        challenge or in the key file is invalid input."""
        run(capsys, "protocol", "keygen", "--n", "100", "--t", "50", "--out", str(tmp_path))
        key = tmp_path / "key.gf2m"
        prove = ("protocol", "prove", "--key", str(key), "--challenge")
        good, bad = "00" * 12 + "05", "00" * 12 + "15"  # bad sets column 100
        assert run(capsys, *prove, good)[0] == 0
        assert run(capsys, *prove, bad) == (
            2, "", "error: padding bits past position n must be zero\n")
        data = bytearray(key.read_bytes())
        data[9 + 12] |= 0x10  # column 100 of row 0
        key.write_bytes(bytes(data))
        assert run(capsys, *prove, good) == (
            2, "", "error: GF2M padding bits past column n must be zero\n")

    def test_prove_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, _ = run(capsys, "protocol", "prove", "--challenge", "01")
        assert code == 2

    def test_report_table(self, capsys):
        code, out, _ = run(capsys, "protocol", "report", "--n", "64,1024", "--t", "409")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("n=")]
        assert len(lines) == 2
        assert "n=1024" in lines[1] and "dishonest_bit_ops=1048576" in lines[1]


class TestMalformedInput:
    """Malformed input is a usage error: exit 2 with a one-line diagnostic,
    never exit 1 (a protocol rejection) or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("protocol", "report", "--n", "64", "--t", "10", "--word-bits", "0"),
            ("protocol", "report", "--n", "64", "--t", "10", "--word-bits", "-1"),
            ("protocol", "report", "--n", "0", "--t", "10"),
            ("protocol", "report", "--n", "64,-3", "--t", "10"),
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", "inf"),
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", "1.0,nan"),
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", "-1.5"),
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", ","),
            ("cutoff", "--n", "16", "--trials", "1000", "--grid", "1e12"),
            ("cutoff", "--n", "16", "--trials", "1000", "--threads", "0"),
            ("cutoff", "--n", "16", "--trials", "1000", "--threads", "-3"),
            ("protocol", "verify", "--key", "{key}", "--challenge", "a5",
             "--response", "{correct} bit_ops=-1 word_ops=0 role=dishonest", "--deadline", "99"),
            ("protocol", "verify", "--key", "{key}", "--challenge", "a5",
             "--response", "{correct} bit_ops=3 word_ops=-2 role=honest", "--deadline", "99"),
            ("protocol", "report", "--n", ",", "--t", "5"),
            ("order", "--n", "3", "--config"),
        ],
    )
    def test_exits_2_with_one_line(self, capsys, tmp_path, argv):
        run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(tmp_path))
        key = str(tmp_path / "key.gf2m")
        _, out, _ = run(capsys, "protocol", "prove", "--key", key, "--challenge", "a5")
        correct = out.split()[0]
        argv = [a.format(key=key, correct=correct) for a in argv]
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch):
        """A request too large to allocate is refused like any bad input."""

        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(chain, "run", no_memory)
        code, out, err = run(capsys, "walk", "--n", "3", "--t", "5")
        assert code == 2 and out == ""
        assert err == "error: not enough memory: request too large\n"


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_threads_is_an_option_of_cutoff_alone(self, capsys):
        with_threads = []
        for leaf in LEAVES:
            code, out, _ = run(capsys, *leaf, "--help")
            assert code == 0
            if "--threads" in out:
                with_threads.append(leaf)
        assert with_threads == [("cutoff",)]
        assert run(capsys, "order", "--n", "3", "--threads", "2")[0] == 2


class TestParserPath:
    """cli_dispatch answers help and usage errors exactly as the whole parser
    tree does, which _build_parser returns when argv names no leaf, except
    leftover arguments: the leaf that was given them reports them."""

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("--help",),
            ("-h",),
            ("frobnicate",),
            ("protocol",),
            ("protocol", "--help"),
            ("protocol", "frobnicate"),
            ("walk", "--help"),
            ("protocol", "prove", "--help"),
            ("walk",),
            ("walk", "--n", "x", "--t", "1"),
            ("protocol", "prove", "--secret", "a", "--key", "b", "--challenge", "01"),
            ("check", "--suite", "nope", "--trials", "5"),
        ],
    )
    def test_matches_whole_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = run(capsys, *argv)
        parser, _ = cli._build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(list(argv))
        captured = capsys.readouterr()
        assert got == (exc.value.code, captured.out, captured.err)

    @pytest.mark.parametrize("extra", [("--bogus",), ("--threads", "2")])
    def test_leaf_reports_leftover_arguments(self, capsys, monkeypatch, extra):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "order", "--n", "3", *extra) == (
            2,
            "",
            "usage: tvwalk order [-h] [--seed SEED] [--out OUT] [--config CONFIG] --n N\n"
            f"tvwalk order: error: unrecognized arguments: {' '.join(extra)}\n",
        )


@pytest.fixture
def keys(tmp_path_factory, capsys):
    """An n = 8 key pair on disk, for the prove and verify leaves."""
    out = tmp_path_factory.mktemp("keys")
    assert run(capsys, "protocol", "keygen", "--n", "8", "--t", "20", "--out", str(out))[0] == 0
    return out


def valid_argv(leaf, out, keys):
    """A quick, valid command line of each leaf."""
    key, secret = str(keys / "key.gf2m"), str(keys / "secret.tvwk")
    return {
        ("order",): ["order", "--n", "3"],
        ("walk",): ["walk", "--n", "4", "--t", "10"],
        ("exact",): ["exact", "--n", "2", "--out", out],
        ("spectrum",): ["spectrum", "--n", "2", "--out", out],
        ("lsi",): ["lsi", "--n", "2", "--restarts", "1", "--iters", "3", "--out", out],
        ("check",): ["check", "--suite", "key", "--n", "2", "--trials", "2", "--out", out],
        ("cutoff",): ["cutoff", "--n", "16", "--trials", "1000", "--grid", "1.0",
                      "--threads", "1", "--out", out],
        ("bounds",): ["bounds", "--n", "5"],
        ("protocol", "keygen"): ["protocol", "keygen", "--n", "8", "--t", "20", "--out", out],
        ("protocol", "prove"): ["protocol", "prove", "--secret", secret, "--challenge", "a5"],
        ("protocol", "verify"): ["protocol", "verify", "--key", key, "--challenge", "a5",
                                 "--response", "y=00 bit_ops=0 word_ops=0 role=honest",
                                 "--deadline", "20"],
        ("protocol", "report"): ["protocol", "report", "--n", "8", "--t", "10"],
    }[leaf]


class TestLeafParser:
    """A command that names a leaf builds that leaf's parser alone, and answers
    exactly as the whole tree does, save for leftover arguments."""

    @staticmethod
    def fast_and_tree(capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        fast = run(capsys, *argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_leaf_named", lambda argv: None)
            tree = run(capsys, *argv)
        return fast, tree

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_matches_whole_tree(self, capsys, monkeypatch, tmp_path, keys, leaf):
        valid = valid_argv(leaf, str(tmp_path), keys)
        cfg, bad = tmp_path / "run.cfg", tmp_path / "bad.cfg"
        cfg.write_text("seed=3\n")
        bad.write_text("frobnicate=1\n")
        cases = [
            valid,
            [*leaf, "-h"],
            [*leaf],
            [*valid, "--seed", "x"],
            [*valid, "--config", str(cfg)],
            [*valid, f"--config={cfg}"],
            [*valid, "--conf", str(cfg)],
            [*valid, "--c", str(cfg)],
            [*valid, "--seed", "--", f"--config={bad}"],
        ]
        if leaf == ("check",):
            cases.append(["check", "--suite", "nope", "--trials", "2"])
        if leaf == ("protocol", "prove"):
            cases.append([*valid, "--key", str(keys / "key.gf2m")])
            cases.append(["protocol", "prove", "--challenge", "a5"])
        for argv in cases:
            fast, tree = self.fast_and_tree(capsys, monkeypatch, argv)
            assert fast == tree, argv

    @staticmethod
    def parsers_built(capsys, monkeypatch, *argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(argparse.ArgumentParser, "__init__", counting_init)
            code = run(capsys, *argv)[0]
        return code, len(built)

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_leaf_builds_one_parser(self, capsys, monkeypatch, leaf):
        assert self.parsers_built(capsys, monkeypatch, *leaf, "--help") == (0, 1)

    def test_config_token_adds_the_pre_parser(self, capsys, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=3\n")
        argv = ("order", "--n", "3")
        assert self.parsers_built(capsys, monkeypatch, *argv) == (0, 0)
        assert self.parsers_built(capsys, monkeypatch, *argv, "--conf", str(cfg)) == (0, 2)

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_well_formed_command_builds_no_parser(self, capsys, monkeypatch, tmp_path, keys, leaf):
        argv = valid_argv(leaf, str(tmp_path), keys)
        assert self.parsers_built(capsys, monkeypatch, *argv)[1] == 0

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_valid_argv_runs(self, capsys, tmp_path, keys, leaf):
        """Each quick command line is valid to its handler too: it exits 0,
        save verify's, whose canned y=00 is no key's answer to a5 (exit 1)."""
        code = run(capsys, *valid_argv(leaf, str(tmp_path), keys))[0]
        assert code == (1 if leaf == ("protocol", "verify") else 0)

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_only_cutoff_without_threads_reads_the_cores(
        self, capsys, monkeypatch, tmp_path, keys, leaf
    ):
        """Neither a help text nor a command of another leaf asks how many
        cores are available."""

        def refuse():
            raise AssertionError("read the available cores")

        monkeypatch.setattr(diagnostics, "_available_cores", refuse)
        assert run(capsys, *leaf, "--help")[0] == 0
        if leaf != ("cutoff",):
            code = run(capsys, *valid_argv(leaf, str(tmp_path), keys))[0]
            assert code == (1 if leaf == ("protocol", "verify") else 0)

    def test_root_help_builds_the_whole_tree(self, capsys, monkeypatch):
        # the root, the protocol level and every leaf
        assert self.parsers_built(capsys, monkeypatch, "--help") == (0, 2 + len(LEAVES))


# Values of every type the leaves take, and ones argparse reads otherwise.
VALUES = ["3", "0", "0.5", "8,16", "key", "all", "x", "", "a b", "-1", "-0.5", "-", "--n"]


@st.composite
def leaf_argv(draw, path):
    """The rest of a command line of the leaf at path: a well-formed one (every
    required flag, one source and some other flags, in any order, as --flag
    value or --flag=value with a value that fits, switches bare) with up to
    two departures: a flag repeated, dropped, or added (a flag, a prefix of
    one or a stray token), a value drawn from VALUES, or a flag's form
    swapped between bare and valued."""
    leaf = cli._leaf_table()[path]
    options = leaf.flags
    flags = [flag for flag, kwargs in options.items() if kwargs.get("required")]
    if leaf.sources:
        flags.append(draw(st.sampled_from(leaf.sources)))
    others = [flag for flag in options if flag not in flags and flag not in leaf.sources]
    flags += draw(st.lists(st.sampled_from(others), unique=True))
    odd = [flag[:k] for flag in options for k in range(3, len(flag))] + ["-h", "--help", "--", "3"]
    kinds = st.sampled_from(["repeat", "drop", "add", "value", "form"])
    departures = draw(st.lists(kinds, max_size=2))
    for kind in departures:
        if kind == "add":
            flags.append(draw(st.sampled_from([*options, *odd])))
        elif kind in ("repeat", "drop") and flags:
            flag = draw(st.sampled_from(flags))
            (flags.append if kind == "repeat" else flags.remove)(flag)
    tokens = []
    for flag in draw(st.permutations(flags)):
        kwargs = options.get(flag, {})
        bare = kwargs.get("action") == "store_true"
        tokens.append([flag, bare, draw(st.booleans()), "key" if kwargs.get("choices") else "3"])
    for kind in departures:
        if kind in ("value", "form") and tokens:
            token = draw(st.sampled_from(tokens))
            if kind == "value":
                token[3] = draw(st.sampled_from(VALUES))
            else:
                token[1] = not token[1]
    argv = []
    for flag, bare, equals, value in tokens:
        argv += [flag] if bare else [f"{flag}={value}"] if equals else [flag, value]
    return leaf, argv


@pytest.mark.parametrize("path", LEAVES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_well_formed_parse_matches_the_leaf_parser(path, data):
    """Whatever the parse without argparse accepts, the leaf's own parser
    accepts too, into an equal namespace."""
    leaf, argv = data.draw(leaf_argv(path))
    got = cli._parse_well_formed(leaf, argv)
    event("parsed" if got is not None else "declined")
    if got is None:
        return
    parser, _ = cli._build_parser(leaf)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(parser.parse_args(argv))
    except SystemExit:
        expected = None
    assert vars(got) == expected, argv


CONFIG_LIKE = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "-", "--", "---"]),
        st.sampled_from(["", "c", "co", "conf", "config", "configs", "x", "C"]),
        st.sampled_from(["", "=", "=F", " F", "=--config"]),
    ),
)


@pytest.mark.parametrize(
    "argv, names",
    [
        (("order", "--config", "F"), True),
        (("order", "--config=F"), True),
        (("order", "--conf", "F"), True),
        (("order", "--c", "F"), True),
        (("order", "--=F"), True),
        (("order", "--", "--config", "F"), False),
        (("order", "--", "--config=F"), False),
        (("order", "--configs", "F"), False),
        (("order", "-c", "F"), False),
        (("order", "--n", "3"), False),
    ],
)
def test_config_token_examples(argv, names):
    assert cli._may_name_config(argv) is names


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(CONFIG_LIKE, st.text(max_size=10)), max_size=6))
def test_no_config_token_means_no_config(argv):
    """Where _may_name_config is false, the --config pre-parser it gates
    would have returned None without raising."""
    if cli._may_name_config(argv):
        return
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", default=None)
    assert pre.parse_known_args(argv)[0].config is None


def test_exact_command_leaves_scipy_unloaded(tmp_path):
    """The exact analysis iterates its laws without SciPy, at n = 4 too."""
    argv = ["exact", "--n", "4", "--out", str(tmp_path)]
    code = (
        "import sys; from tvwalk.cli import cli_dispatch; "
        f"code = cli_dispatch({argv!r}); print(code, 'scipy' in sys.modules)"
    )
    src = str(Path(tvwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "exact_curve.csv").is_file()


def test_cli_import_leaves_scipy_unloaded():
    """Only the Lanczos spectrum needs SciPy; other commands skip its import."""
    code = "import sys, tvwalk.cli; print('scipy' in sys.modules)"
    src = str(Path(tvwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
