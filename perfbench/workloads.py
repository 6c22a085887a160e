"""The three workloads: README commands and library-tour calls at README sizes.

Each workload runs whole rounds of a fixed operation sequence.  CLI commands
run in-process through `tvwalk.cli.cli_dispatch` with their output captured;
the exact-analysis cache is cleared before each one, so every command pays
for its own enumeration as a fresh `tvwalk` process would.  `check` tests
one round's outputs against `reference`, which shares no code with tvwalk.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import time
from pathlib import Path

import numpy as np

import calibration
import reference as ref
from tvwalk import cli, diagnostics, exactgroup


class Runner:
    """Runs operations, times them, counts failures and keeps their outputs."""

    def __init__(self, work: Path):
        self.work = work
        self.tracer = None  # a tracing.Tracer during traced rounds
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.analyze_builds = 0
        self.calibrations: list[float] = []
        self.new_round()

    def new_round(self) -> None:
        self.times: list[tuple[str | None, float]] = []
        self.ref_times: list[tuple[str | None, float]] = []
        self.outputs: dict[str, bytes] = {}
        self.calibrations.append(calibration.sample())

    def _clear_analyze(self) -> None:
        self.analyze_builds += exactgroup.analyze.cache_info().misses
        exactgroup.analyze.cache_clear()

    def take_analyze_builds(self) -> int:
        """Uncached `analyze` calls since the last take; clears the cache."""
        self._clear_analyze()
        builds, self.analyze_builds = self.analyze_builds, 0
        return builds

    def _record(self, metric, label, seconds, ok, why) -> None:
        """Counts one operation; scales its time by the samples around it."""
        before = self.calibrations[-1]
        self.calibrations.append(calibration.sample())
        self.attempted += 1
        self.times.append((metric, seconds))
        self.ref_times.append(
            (metric, calibration.to_reference(seconds, (before, self.calibrations[-1]))))
        if not ok:
            self.failed += 1
            self.failures.setdefault(label, why)

    def cli(self, metric, label, command, argv, expect=0, files=()):
        """One CLI command; `command` names it in the trace (None: untallied)."""
        self._clear_analyze()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"cli.{label}", command=command) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch([str(a) for a in argv])
        except Exception as exc:  # the `tvwalk` process would die here with exit 1
            code = 1
            err.write(f"uncaught {type(exc).__name__}\n")
        seconds = time.perf_counter() - start
        if span:
            self.tracer.end(span)
        why = f"exit {code}, expected {expect}: {err.getvalue().strip()}"
        self._record(metric, label, seconds, code == expect, why)
        self.outputs[f"{label}.exit"] = str(code).encode()
        self.outputs[f"{label}.stdout"] = out.getvalue().encode()
        self.outputs[f"{label}.stderr"] = err.getvalue().encode()
        for name in files:
            self.outputs[f"{label}:{name}"] = (self.work / name).read_bytes()
        return code, out.getvalue()

    def call(self, metric, label, thunk, encode):
        """One library call; `thunk` looks the function up when called."""
        start = time.perf_counter()
        try:
            result, why = thunk(), ""
        except Exception as exc:
            result, why = None, repr(exc)
        seconds = time.perf_counter() - start
        self._record(metric, label, seconds, result is not None, why)
        if result is not None:
            self.outputs[label] = encode(result)


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(v) for v in rng.integers(0, 2**31, size=count)]


def _csv_rows(data: bytes) -> list[list[str]]:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _field(stdout: bytes, key: str) -> str:
    for tok in stdout.decode().split():
        if tok.startswith(key + "="):
            return tok.split("=", 1)[1]
    raise ValueError(f"no {key}= in output")


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


class Protocol:
    """Timed authentication round trip at the README size n = 1024, t = 1e5."""

    name = "protocol"
    N, T, CHALLENGES = 1024, 100_000, 4
    # Operation metric -> "call" (median over calls) or "round" (per-round sum).
    ops = {
        "keygen_s": "round",
        "walk_s": "round",
        "prove_honest_s": "call",
        "prove_dishonest_ms": "call",
        "verify_ms": "call",
    }

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.keygen_seed, self.walk_seed = _seeds(seed, 1, 2)
        rng = np.random.default_rng([seed, 2])
        self.challenges = [
            rng.integers(0, 256, size=self.N // 8, dtype=np.uint8).tobytes().hex()
            for _ in range(self.CHALLENGES)
        ]
        self.deadlines = [int(d) for d in rng.integers(self.T, self.N * self.N, self.CHALLENGES)]
        # Known-bad inputs, the same for every seed: a key file that stops
        # after its magic, and a trajectory header cut before its lazy byte.
        (work / "cut.gf2m").write_bytes(b"GF2M")
        (work / "cut.tvwk").write_bytes(b"TVWK\x01" + struct.pack("<IQ", self.N, self.T))

    def round(self, s: Runner) -> None:
        w, n, t = self.work, self.N, self.T
        key, secret = w / "key.gf2m", w / "secret.tvwk"
        s.cli("keygen_s", "keygen", "protocol_keygen",
              ["protocol", "keygen", "--n", n, "--t", t, "--seed", self.keygen_seed, "--out", w],
              files=("key.gf2m", "secret.tvwk"))
        s.cli("walk_s", "walk", "walk",
              ["walk", "--n", n, "--t", t, "--seed", self.walk_seed,
               "--save-trajectory", w / "walk.tvwk", "--save-matrix", w / "walk.gf2m"],
              files=("walk.tvwk", "walk.gf2m"))
        for c, (x, deadline) in enumerate(zip(self.challenges, self.deadlines)):
            _, honest = s.cli("prove_honest_s", f"prove_secret.{c}", "protocol_prove_secret",
                              ["protocol", "prove", "--secret", secret, "--challenge", x])
            _, dishonest = s.cli("prove_dishonest_ms", f"prove_key.{c}", "protocol_prove_key",
                                 ["protocol", "prove", "--key", key, "--challenge", x])
            for role, line, expect in (("honest", honest, 0), ("dishonest", dishonest, 1)):
                s.cli("verify_ms", f"verify_{role}.{c}", "protocol_verify",
                      ["protocol", "verify", "--key", key, "--challenge", x,
                       "--response", line.strip(), "--deadline", deadline], expect=expect)
        zero = "00" * (n // 8)
        s.cli(None, "cut_key_verify", None,
              ["protocol", "verify", "--key", w / "cut.gf2m", "--challenge", zero,
               "--response", f"y={zero} bit_ops=0 word_ops=0 role=honest", "--deadline", t],
              expect=2)
        s.cli(None, "cut_secret_prove", None,
              ["protocol", "prove", "--secret", w / "cut.tvwk", "--challenge", zero], expect=2)

    def _walk_problems(self, out, label, trajectory, matrix) -> tuple[list[str], list[int]]:
        n, lazy, moves = ref.parse_tvwk(out[f"{label}:{trajectory}"])
        rows = ref.parse_gf2m(out[f"{label}:{matrix}"])
        problems = []
        if (n, lazy, len(moves), len(rows)) != (self.N, False, self.T, self.N):
            problems.append(f"{label}: header n={n} lazy={lazy} t={len(moves)}")
        if (moves >= self.N).any() or (moves[:, 0] == moves[:, 1]).any():
            problems.append(f"{label}: move out of range or with i == j")
        elif ref.replay_rows(self.N, moves) != rows:
            problems.append(f"{label}: replaying {trajectory} does not give {matrix}")
        if _field(out[f"{label}.stdout"], "applied") != str(self.T):
            problems.append(f"{label}: applied != {self.T}")
        return problems, rows

    def check(self, out: dict[str, bytes]) -> list[str]:
        problems, key = self._walk_problems(out, "keygen", "secret.tvwk", "key.gf2m")
        walk_problems, walk_rows = self._walk_problems(out, "walk", "walk.tvwk", "walk.gf2m")
        problems += walk_problems
        if _field(out["walk.stdout"], "invertible") != "true":
            problems.append("walk: endpoint not reported invertible")
        if _field(out["walk.stdout"], "popcount") != str(sum(r.bit_count() for r in walk_rows)):
            problems.append("walk: popcount differs from the saved matrix")
        for c, x in enumerate(self.challenges):
            want = ref.matvec_rows(key, ref.hex_to_int(x))
            for label, role, ops in (("prove_secret", "honest", self.T),
                                     ("prove_key", "dishonest", self.N * self.N)):
                r = ref.parse_response(out[f"{label}.{c}.stdout"].decode())
                if ref.hex_to_int(r["y"]) != want:
                    problems.append(f"{label}.{c}: answer != key x challenge")
                if (r["role"], r["bit_ops"]) != (role, str(ops)):
                    problems.append(f"{label}.{c}: role/bit_ops {r['role']}/{r['bit_ops']}")
            if not out[f"verify_honest.{c}.stdout"].startswith(b"accept"):
                problems.append(f"verify_honest.{c}: honest answer not accepted")
            verdict = out[f"verify_dishonest.{c}.stdout"]
            if not (verdict.startswith(b"reject") and b"correct=true" in verdict
                    and b"within_deadline=false" in verdict):
                problems.append(f"verify_dishonest.{c}: not rejected on the deadline alone")
        return problems


class Exact:
    """Exact analysis at n = 4 and the functional-inequality layer at n <= 4."""

    name = "exact"
    ops = {"exact_s": "round", "lsi_s": "round", "check_s": "round"}

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.lsi_seed, self.check_seed = _seeds(seed, 3, 2)

    def round(self, s: Runner) -> None:
        w = self.work
        s.cli("exact_s", "exact", "exact", ["exact", "--n", 4, "--out", w],
              files=("exact_curve.csv",))
        s.cli("exact_s", "spectrum", "spectrum", ["spectrum", "--n", 4, "--out", w],
              files=("spectrum.csv",))
        s.cli("lsi_s", "lsi", "lsi",
              ["lsi", "--n", 3, "--restarts", 8, "--iters", 600, "--seed", self.lsi_seed,
               "--out", w], files=("lsi.csv",))
        s.cli("check_s", "check_all", "check",
              ["check", "--suite", "all", "--n", 3, "--trials", 10_000,
               "--seed", self.check_seed, "--out", w], files=("inequality_suite.csv",))
        s.cli("check_s", "check_key", "check",
              ["check", "--suite", "key", "--n", 4, "--trials", 200,
               "--seed", self.check_seed, "--out", w], files=("inequality_suite.csv",))

    def check(self, out: dict[str, bytes]) -> list[str]:
        problems = []
        g4, g3 = ref.SmallGroup(4), ref.SmallGroup(3)
        # Distance curve at n = 4 against the benchmark's own kernel.
        curve = [(int(t), float(tv), float(l2)) for t, tv, l2, _ in
                 _csv_rows(out["exact:exact_curve.csv"])]
        laws = g4.law(curve[-1][0])
        for t, tv, l2 in curve:
            if not (_close(tv, g4.tv(laws[t])) and _close(l2, g4.l2(laws[t]))):
                problems.append(f"exact: distances at t={t} differ from the own kernel")
                break
        tvs, l2s = [c[1] for c in curve], [c[2] for c in curve]
        if any(b > a + 1e-12 for a, b in zip(tvs, tvs[1:])) or any(
            b > a + 1e-12 for a, b in zip(l2s, l2s[1:])
        ):
            problems.append("exact: a distance curve increases")
        if any(l2 < 2.0 * tv - 1e-12 for _, tv, l2 in curve):
            problems.append("exact: l2 < 2 tv somewhere")
        t_mix = next(t for t, tv, _ in curve if tv <= 0.25)
        t2_mix = next(t for t, _, l2 in curve if l2 <= 0.25)
        if (_field(out["exact.stdout"], "t_mix"), _field(out["exact.stdout"], "t2_mix")) != (
            str(t_mix), str(t2_mix)
        ):
            problems.append("exact: mixing times differ from the own curve")
        # Extremal spectrum at n = 4 against an independent sparse solve.
        spec = [float(v) for _, v in _csv_rows(out["spectrum:spectrum.csv"])]
        lam2, lam_min = g4.extremal_spectrum()
        if not (len(spec) == 3 and _close(spec[0], 1.0, abs_=1e-9)
                and _close(spec[1], lam2, abs_=1e-8) and _close(spec[2], lam_min, abs_=1e-8)):
            problems.append(f"spectrum: {spec} vs own (1, {lam2}, {lam_min})")
        if not 1.0 - lam2 > ref.kassabov_floor(4):
            problems.append("spectrum: gap not above the Kassabov floor")
        # LSI at n = 3 against the own dense spectrum and the known interval.
        gap3 = 1.0 - g3.dense_spectrum()[1]
        [(_, _, best, two_over_gap)] = _csv_rows(out["lsi:lsi.csv"])
        estimate = float(_field(out["lsi.stdout"], "estimate"))
        lo, hi = ref.lsi_interval(g3.size, gap3)
        if not _close(float(two_over_gap), 2.0 / gap3, rel=1e-8):
            problems.append("lsi: 2/gap differs from the own dense spectrum")
        if estimate != max(float(best), float(two_over_gap)) or not lo <= estimate <= hi:
            problems.append(f"lsi: estimate {estimate} outside [{lo}, {hi}]")
        for label, names, trials in (("check_all", {"key", "extension", "hypercube", "kassabov"},
                                      10_000), ("check_key", {"key"}, 200)):
            rows = _csv_rows(out[f"{label}:inequality_suite.csv"])
            if {r[0] for r in rows} != names or any(
                int(r[2]) != trials or int(r[3]) != 0 for r in rows
            ):
                problems.append(f"{label}: missing suites or violations")
        return problems


class MonteCarlo:
    """Large-n cutoff and statistic diagnostics and the n = 3 Monte-Carlo law."""

    name = "montecarlo"
    ops = {"cutoff_s": "round", "statistic_tv_s": "round", "mc_frequencies_s": "round"}
    STAT_N, STAT_T, STAT_TRIALS = 64, 300, 10_000
    MC_N, MC_T, MC_TRIALS = 3, 50, 1_000_000

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.cutoff_seed, self.stat_seed, self.mc_seed = _seeds(seed, 4, 3)
        self.group = exactgroup.enumerate_group(self.MC_N)

    def round(self, s: Runner, threads: int | None = None, suffix: str = "") -> None:
        """One round; `threads` overrides every thread count (for speed-up)."""
        extra = [] if threads is None else ["--threads", threads]
        s.cli("cutoff_s", f"cutoff{suffix}", "cutoff",
              ["cutoff", "--n", 128, "--trials", 10_000, "--seed", self.cutoff_seed,
               "--out", self.work, *extra], files=("cutoff.csv",))
        lib_threads = 1 if threads is None else threads
        for stat in diagnostics.STATISTICS:
            s.call("statistic_tv_s", f"statistic_tv.{stat}{suffix}",
                   lambda stat=stat: diagnostics.statistic_tv(
                       self.STAT_N, self.STAT_T, stat, self.STAT_TRIALS, self.stat_seed,
                       threads=lib_threads),
                   _encode_tv)
        s.call("mc_frequencies_s", f"mc{suffix}",
               lambda: diagnostics.mc_state_frequencies(
                   self.MC_N, self.MC_T, self.MC_TRIALS, self.mc_seed, self.group, lazy=True,
                   threads=lib_threads),
               lambda counts: json.dumps([int(c) for c in counts]).encode())

    def check(self, out: dict[str, bytes]) -> list[str]:
        problems = []
        rows = _csv_rows(out["cutoff:cutoff.csv"])
        curve = {float(r[3]): float(r[4]) for r in rows}

        def tv_near(x):
            return curve[min(curve, key=lambda s: abs(s - x))]

        crossing = float(_field(out["cutoff.stdout"], "crossing_t_over_nlogn"))
        if not (tv_near(1.0) >= 0.5 and tv_near(3.0) <= 0.1 and 1.2 <= crossing <= 1.8):
            problems.append(f"cutoff: profile off (crossing {crossing})")
        if any(int(r[6]) != 10_000 for r in rows):
            problems.append("cutoff: trial count column wrong")
        n = self.STAT_N
        support = {"weight": ref.weight_support(n), "trace": (0, n),
                   "corner_rank": ref.corner_rank_support(n)}
        for stat, (lo, hi) in support.items():
            tv = json.loads(out[f"statistic_tv.{stat}"])
            for side in ("chain", "ref"):
                hist = np.array(tv[side])
                if hist.sum() != self.STAT_TRIALS or hist[:lo].any() or hist[hi + 1 :].any():
                    problems.append(f"statistic_tv.{stat}: {side} histogram count or support")
            if not 0.0 <= tv["estimate"] <= 1.0:
                problems.append(f"statistic_tv.{stat}: estimate outside [0, 1]")
        counts = np.array(json.loads(out["mc"]), dtype=np.float64)
        g3 = ref.SmallGroup(self.MC_N)
        own = [g3.index.get(int(k), -1) for k in self.group.keys]
        if sorted(own) != list(range(g3.size)) or counts.sum() != self.MC_TRIALS:
            problems.append("mc: group keys or total count differ")
        else:
            p = g3.law(self.MC_T, lazy=True)[-1][own]
            z = (counts - self.MC_TRIALS * p) / np.sqrt(self.MC_TRIALS * p * (1.0 - p))
            # |z| <= 5 for each of 168 states fails by chance with p < 1e-4.
            if np.abs(z).max() > 5.0:
                problems.append(f"mc: max |z| = {np.abs(z).max():.2f} against the exact law")
        return problems


def _encode_tv(tv) -> bytes:
    return json.dumps({
        "estimate": tv.estimate,
        "noise_floor": tv.noise_floor,
        "chain": [int(v) for v in tv.chain_sample.histogram],
        "ref": [int(v) for v in tv.ref_sample.histogram],
    }).encode()


WORKLOADS = {w.name: w for w in (Protocol, Exact, MonteCarlo)}

