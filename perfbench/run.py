"""tvwalk benchmark: three workloads of README commands with checked outputs.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25          # every workload, one process each

A workload run measures whole rounds of its operations until --seconds of
round time have passed, checks the first round's outputs against the
benchmark's own computations and every later round's outputs against the
first, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  --trace 0 gives the end-to-end
metrics named in BENCHMARK.json, with times at the reference host speed
of calibration.py; --trace 1 alternates untraced and traced rounds and
gives the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("protocol", "exact", "montecarlo")
SETUP_PROBES = 5
# Values per second of a metric whose name ends in _s, _ms or _us.
PER_SECOND = {"s": 1.0, "ms": 1e3, "us": 1e6}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, one process each")
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help="round time to measure (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure_setup(args) -> list[float]:
    """Interpreter start to ready-for-the-first-operation, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def op_samples(wl, rounds, key="ref_times") -> dict[str, list[float]]:
    """Per operation metric: per-call times, or per-round sums, in its unit.

    `key` picks the times at reference speed ("ref_times") or as measured.
    """
    out: dict[str, list[float]] = {m: [] for m in wl.ops}
    for r in rounds:
        sums: dict[str, float] = {}
        for metric, seconds in r[key]:
            if metric is None:
                continue
            if wl.ops[metric] == "call":
                out[metric].append(seconds)
            else:
                sums[metric] = sums.get(metric, 0.0) + seconds
        for metric, total in sums.items():
            out[metric].append(total)
    return {m: [v * PER_SECOND[_unit(m)] for v in vs] for m, vs in out.items()}


def run_rounds(args, wl, runner, tracer):
    """Whole rounds until --seconds of round time; traced ones alternate.

    Round time counts the operations and the calibration samples between them.

    Returns the round records, the failed checks and the first round's
    outputs, which every later round must reproduce byte for byte.
    """
    rounds, problems, first = [], [], None
    measured = 0.0
    while not rounds or measured < args.seconds or (tracer and len(rounds) < 2):
        traced = tracer is not None and len(rounds) % 2 == 1
        runner.new_round()
        if traced:
            tracer.install()
            runner.tracer = tracer
        start = time.perf_counter()
        try:
            wl.round(runner)
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        measured += time.perf_counter() - start
        record = {"traced": traced, "times": runner.times, "ref_times": runner.ref_times,
                  "wall_total": sum(s for _, s in runner.times),
                  "total": sum(s for _, s in runner.ref_times)}
        builds = runner.take_analyze_builds()
        if traced:
            per_round, per_call = tracer.round_metrics()
            per_round["exactgroup.analyze_builds"] = builds
            record["layers"] = (per_round, per_call)
        if first is None:
            first = runner.outputs
            try:
                problems += wl.check(first)
            except Exception as exc:  # a malformed output is a failed check
                problems.append(f"check raised {exc!r}")
        elif runner.outputs != first:
            keys = sorted(k for k in first.keys() | runner.outputs.keys()
                          if first.get(k) != runner.outputs.get(k))
            kind = "traced" if traced else "untraced"
            problems.append(f"round {len(rounds)} ({kind}) outputs differ from round 0: {keys[:4]}")
        rounds.append(record)
    return rounds, problems, first


def layer_values(rounds) -> dict[str, float]:
    """Per-layer medians over the traced rounds, and the tracing overhead."""
    traced = [r for r in rounds if r["traced"]]
    per_call: dict[str, list[float]] = {}
    for r in traced:
        for metric, samples in r["layers"][1].items():
            per_call.setdefault(metric, []).extend(samples)
    names = {m for r in traced for m in r["layers"][0]}
    values = {m: median([r["layers"][0].get(m, 0.0) for r in traced]) for m in names}
    values.update({m: median(v) for m, v in per_call.items()})
    untraced_s = median([r["total"] for r in rounds if not r["traced"]])
    traced_s = median([r["total"] for r in traced])
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return values


def run_workload(args, work: Path) -> int:
    import calibration
    import numpy
    import scipy
    import workloads

    setup = measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    runner = workloads.Runner(work)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds, problems, first = run_rounds(args, wl, runner, tracer)
    plain = [r for r in rounds if not r["traced"]]
    ops = {m: median(v) for m, v in op_samples(wl, plain).items()}
    wall_ops = {m: median(v) for m, v in op_samples(wl, plain, "times").items()}
    wall = {"setup_s": median(setup), "round_s": median([r["wall_total"] for r in plain])}
    threads = {}
    if wl.name == "montecarlo":
        threads = {"cutoff_experiment": max(1, os.cpu_count() or 1),
                   "statistic_tv": 1, "mc_state_frequencies": 1}
    if args.trace:
        values = layer_values(rounds)
        values.update({f"op.{m}": v for m, v in wall_ops.items()})
        values["host.calibration_ms"] = 1e3 * median(runner.calibrations)
        values.update({f"host.wall_{m}": v for m, v in wall.items()})
        if wl.name == "montecarlo":
            problems += speedups(wl, runner, first, values)
            threads["speedup_rounds"] = [1, 2]
    else:
        values = {
            # A sample taken just after a probe runs slow, so set-up is
            # scaled by the whole run's samples rather than its neighbours.
            "setup_s": calibration.to_reference(median(setup), [median(runner.calibrations)]),
            "round_s": median([r["total"] for r in plain]),
            "op_geomean_ms": math.exp(statistics.fmean(
                math.log(ops[m] * 1e3 / PER_SECOND[_unit(m)]) for m in ops)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(plain), "traced_rounds": len(rounds) - len(plain),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cores": os.cpu_count(),
        "diagnostics_threads": threads,
        "calibration_reference_s": calibration.REFERENCE_S,
        "calibration_median_s": median(runner.calibrations),
        "round_totals_ref_s": [r["total"] for r in rounds],
        "round_totals_wall_s": [r["wall_total"] for r in rounds],
        "setup_probes_wall_s": setup,
        "ops_wall": wall_ops,
    }
    print("provenance " + json.dumps(provenance))
    for m, v in ops.items():
        print(f"op {m} {v!r}")
    for label, why in runner.failures.items():
        print(f"failed {label}: {why}")
    for p in problems:
        print(f"problem {p}")
    return emit(args, values, not problems, runner.attempted, runner.failed)


def _unit(metric: str) -> str:
    return metric.rsplit("_", 1)[1]


def _without_threads(data: bytes) -> bytes:
    """Drops the CSV echo of the thread count, the one output it may change."""
    return b"\n".join(ln for ln in data.splitlines() if not ln.startswith(b"# threads="))


def speedups(wl, runner, first, values) -> list[str]:
    """One untraced round at 1 and at 2 threads: time ratio and equal outputs."""
    times, problems = {}, []
    for threads in (1, 2):
        runner.new_round()
        wl.round(runner, threads=threads, suffix=f"@{threads}")
        times[threads] = {}
        for metric, seconds in runner.ref_times:
            times[threads][metric] = times[threads].get(metric, 0.0) + seconds
        for key, data in runner.outputs.items():
            if _without_threads(data) != _without_threads(first[key.replace(f"@{threads}", "")]):
                problems.append(f"{key} differs from the default thread count")
    for op, metric in (("cutoff_experiment", "cutoff_s"), ("statistic_tv", "statistic_tv_s"),
                       ("mc_state_frequencies", "mc_frequencies_s")):
        values[f"diagnostics.speedup_2t.{op}"] = times[1][metric] / times[2][metric]
    return problems


def emit(args, values: dict[str, float], correct: bool, attempted: int, failed: int) -> int:
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(values) - names)
    missing = sorted(names - set(values)) if not args.trace else []
    if unknown or missing:
        print(f"error: metrics not in BENCHMARK.json {unknown}, not measured {missing}",
              file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
        for metric, v in result["metrics"].items():
            print(f"   {metric} = {v['value']:.6g} {v['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "tvwalk" / "__init__.py").is_file():
        print(f"error: no tvwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.probe_setup:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, work)
            print(time.monotonic())
            return 0
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
