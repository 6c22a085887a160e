"""Command-line surface: seeded, reproducible experiments with CSV output.

Every subcommand takes its randomness from one ``--seed``; internal
sub-streams are derived as (seed, stream-id, block-id) so results do not
depend on ``--threads``.  Every CSV starts with a ``#``-prefixed echo of
the configuration that determines its contents (the thread count is not
part of it), and re-running a command with the same configuration
reproduces the file byte for byte at any thread count.  Floats are written
with ``repr``, which round-trips exactly.

Exit codes: 0 on success, 1 when protocol verification rejects, 2 on
invalid configuration or input (with a one-line diagnostic on stderr).

An optional ``--config path`` reads a flat ``key=value`` file whose keys
are the long option names of the chosen subcommand; values given on the
command line win over the file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import chain, diagnostics, exactgroup, funineq, gf2core, protocol

__all__ = ["cli_dispatch", "main"]

_MAX_EXACT_N = 4  # full transition structure in memory: 20160 states at n=4


# ---------------------------------------------------------------------------
# Formatting and CSV emission.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Deterministic scalar rendering: repr for floats, true/false for bools."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _emit_csv(path: str, config: dict, columns: tuple[str, ...], rows) -> None:
    lines = [f"# {key}={_fmt(config[key])}" for key in sorted(config)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_path(args, filename: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


def _config_echo(args, **extra) -> dict:
    base = {"command": args.command, "seed": args.seed}
    if getattr(args, "action", None):
        base["command"] = f"{args.command}-{args.action}"
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# Hex challenge/response encoding: ceil(n/8) bytes, LSB-first within each
# byte, byte k holding bits 8k .. 8k+7 (the matrix-file row layout).
# ---------------------------------------------------------------------------


def _vector_to_hex(v: gf2core.BitVector) -> str:
    nbytes = (v.n + 7) // 8
    return v.words.astype("<u8").tobytes()[:nbytes].hex()


def _vector_from_hex(text: str, n: int) -> gf2core.BitVector:
    data = bytes.fromhex(text)
    nbytes = (n + 7) // 8
    if len(data) != nbytes:
        raise ValueError(f"challenge must be {nbytes} bytes ({2 * nbytes} hex digits) for n={n}")
    nwords = (n + 63) // 64
    buf = data + b"\x00" * (8 * nwords - nbytes)
    words = np.frombuffer(buf, dtype="<u8").astype(np.uint64)
    return gf2core.BitVector(n, words)


def _parse_response_line(text: str, n: int) -> protocol.Response:
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed response token {token!r}")
        fields[key] = value
    missing = {"y", "bit_ops", "word_ops", "role"} - fields.keys()
    if missing:
        raise ValueError(f"response line is missing fields: {', '.join(sorted(missing))}")
    if fields["role"] not in ("honest", "dishonest"):
        raise ValueError("role must be 'honest' or 'dishonest'")
    ops = gf2core.OpCount(int(fields["bit_ops"]), int(fields["word_ops"]))
    if ops.bit_ops < 0 or ops.word_ops < 0:
        raise ValueError("response op counts must be non-negative")
    return protocol.Response(y=_vector_from_hex(fields["y"], n), ops=ops, role=fields["role"])


def _response_line(r: protocol.Response) -> str:
    return (
        f"y={_vector_to_hex(r.y)} bit_ops={r.ops.bit_ops} "
        f"word_ops={r.ops.word_ops} role={r.role}"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the process exit code.
# ---------------------------------------------------------------------------


def _require_range(name: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"--{name} must be {bound} (got {value})")


def _cmd_order(args) -> int:
    _require_range("n", args.n, 1)
    order = exactgroup.group_order(args.n)
    ratio = exactgroup.order_ratio(args.n)
    print(f"n={args.n} order={order} ambient=2^{args.n * args.n} ratio={ratio!r}")
    return 0


def _cmd_walk(args) -> int:
    _require_range("n", args.n, 2)
    _require_range("t", args.t, 0)
    traj, final = chain.run(args.n, args.t, args.seed, args.lazy)
    print(
        f"n={args.n} t={args.t} seed={args.seed} lazy={_fmt(args.lazy)} "
        f"applied={traj.work_steps} invertible={_fmt(gf2core.is_invertible(final))} "
        f"popcount={final.popcount()}"
    )
    if args.save_trajectory:
        chain.save_trajectory(args.save_trajectory, traj)
        print(f"trajectory={args.save_trajectory}")
    if args.save_matrix:
        gf2core.save_matrix(args.save_matrix, final)
        print(f"matrix={args.save_matrix}")
    return 0


def _cmd_exact(args) -> int:
    _require_range("n", args.n, 2, _MAX_EXACT_N)
    gt, ts = exactgroup.analyze(args.n)
    lazy = args.lazy
    if not lazy and ts.period == 2:
        lazy = True
        print("note: the walk is periodic at this dimension; using the lazy kernel")
    t_tv, t_l2 = exactgroup.mixing_times(ts, gt, args.eps, lazy)
    tmax = args.tmax if args.tmax is not None else t_l2 + 5
    _require_range("tmax", tmax, 0)
    curve = exactgroup.mixing_curve(ts, gt, tmax, lazy)
    path = _out_path(args, "exact_curve.csv")
    _emit_csv(
        path,
        _config_echo(args, n=args.n, eps=args.eps, tmax=tmax, lazy=lazy),
        ("t", "tv", "l2", "lazy_flag"),
        [(t, tv, l2, int(lazy)) for t, tv, l2 in curve],
    )
    print(f"n={args.n} eps={args.eps!r} lazy={_fmt(lazy)} t_mix={t_tv} t2_mix={t_l2}")
    print(f"curve={path}")
    return 0


def _cmd_spectrum(args) -> int:
    _require_range("n", args.n, 2, _MAX_EXACT_N)
    _, ts = exactgroup.analyze(args.n)
    report = exactgroup.spectral_report(ts)
    path = _out_path(args, "spectrum.csv")
    _emit_csv(
        path,
        _config_echo(args, n=args.n, states=report.n_states, full_spectrum=report.full_spectrum),
        ("index", "eigenvalue"),
        [(i, float(ev)) for i, ev in enumerate(report.eigenvalues)],
    )
    print(
        f"n={args.n} states={report.n_states} gap={report.gap!r} "
        f"absolute_gap={report.absolute_gap!r} period={report.period} "
        f"full_spectrum={_fmt(report.full_spectrum)}"
    )
    print(f"spectrum={path}")
    return 0


def _cmd_lsi(args) -> int:
    dims = funineq.LSI_DIMENSIONS
    _require_range("n", args.n, dims[0], dims[-1])
    gt, ts = exactgroup.analyze(args.n)
    est = funineq.estimate_lsi_constant(
        ts, gt, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    path = _out_path(args, "lsi.csv")
    _emit_csv(
        path,
        _config_echo(args, n=args.n, restarts=args.restarts, iters=args.iters),
        ("n", "restarts", "best_ratio", "two_over_gap"),
        [(est.n, est.restarts, est.best_ratio, est.spectral_floor)],
    )
    print(
        f"n={args.n} estimate={est.estimate!r} best_ratio={est.best_ratio!r} "
        f"two_over_gap={est.spectral_floor!r}"
    )
    print(f"lsi={path}")
    return 0


def _cmd_check(args) -> int:
    names = funineq.SUITE_NAMES if args.suite == "all" else (args.suite,)
    _require_range("trials", args.trials, 1)
    _require_range("d", args.d, 1, 12)
    if any(name != "hypercube" for name in names):
        group = [dims for dims in funineq.SUITE_DIMENSIONS.values() if dims is not None]
        _require_range("n", args.n, min(d[0] for d in group), max(d[-1] for d in group))
    rows = []
    for name in names:
        dims = funineq.SUITE_DIMENSIONS[name]
        if dims is not None and args.n not in dims:
            if args.suite == "all":
                print(f"{name}: skipped (not defined at n={args.n})")
                continue
            raise ValueError(f"suite {name!r} is not defined at n={args.n}")
        result = funineq.run_suite(name, args.trials, args.seed, n=args.n, d=args.d)
        rows.append(
            (result.check_name, result.n, result.trials, result.violations, result.min_slack)
        )
        print(
            f"{result.check_name}: n={result.n} trials={result.trials} "
            f"violations={result.violations} min_slack={result.min_slack!r}"
        )
    path = _out_path(args, "inequality_suite.csv")
    _emit_csv(
        path,
        _config_echo(args, suite=args.suite, n=args.n, trials=args.trials, d=args.d),
        ("check_name", "n", "trials", "violations", "min_slack"),
        rows,
    )
    print(f"suite={path}")
    return 0


def _cmd_cutoff(args) -> int:
    grid = diagnostics.DEFAULT_CUTOFF_GRID if args.grid is None else tuple(args.grid)
    points = diagnostics.cutoff_experiment(
        args.n, args.trials, args.seed, k=args.k, grid=grid, threads=args.threads
    )
    path = _out_path(args, "cutoff.csv")
    _emit_csv(
        path,
        _config_echo(args, n=args.n, k=args.k, trials=args.trials, grid=grid),
        ("n", "k", "t", "t_over_nlogn", "tv_estimate", "noise_floor", "trials", "seed"),
        [
            (p.n, p.k, p.t, p.t_over_nlogn, p.tv_estimate, p.noise_floor, p.trials, p.seed)
            for p in points
        ],
    )
    print(
        f"n={args.n} k={args.k} trials={args.trials} points={len(points)} "
        f"noise_floor={points[0].noise_floor!r}"
    )
    try:
        crossing = diagnostics.crossover_locator(points)
        print(f"crossing_t_over_nlogn={crossing!r}")
    except diagnostics.NoBracketError:
        print("crossing=none (curve does not bracket 1/2 on this grid)")
    print(f"curve={path}")
    return 0


def _cmd_bounds(args) -> int:
    _require_range("n", args.n, 2)
    counting = funineq.counting_lower_bound(args.n, args.eps)
    print(f"n={args.n} eps={args.eps!r} counting_lower_bound={counting}")
    if args.n not in funineq.LSI_DIMENSIONS:
        print(
            "note: the sharp-bound pipeline needs the exact constants, "
            f"available for n <= {funineq.LSI_DIMENSIONS[-1]}"
        )
        return 0
    gt, ts = exactgroup.analyze(args.n)
    report = exactgroup.spectral_report(ts)
    est = funineq.estimate_lsi_constant(
        ts, gt, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    if report.period == 1:
        kernel, cls, inv_abs_gap = "nonlazy", est.estimate, 1.0 / report.absolute_gap
    else:
        # Periodic walk: bound the lazy kernel, whose Dirichlet form and gap
        # are half those of the walk, so its constant doubles.
        kernel, cls, inv_abs_gap = "lazy", 2.0 * est.estimate, 2.0 / report.gap
    upper = funineq.mixing_bound(args.n, args.eps, cls, inv_abs_gap)
    print(
        f"kernel={kernel} cls_lower_bound={cls!r} inv_abs_gap={inv_abs_gap!r} "
        f"loglog_inv_pi_star={funineq.loglog_inv_pi_star(args.n)!r}"
    )
    print(f"l2_mixing_upper_bound={upper!r}")
    return 0


def _cmd_protocol(args) -> int:
    if args.action == "keygen":
        _require_range("n", args.n, 2)
        _require_range("t", args.t, 0)
        kp = protocol.keygen(args.n, args.t, args.seed, args.lazy)
        key_path = args.key or _out_path(args, "key.gf2m")
        secret_path = args.secret or _out_path(args, "secret.tvwk")
        gf2core.save_matrix(key_path, kp.public)
        chain.save_trajectory(secret_path, kp.secret)
        print(
            f"n={args.n} t={args.t} seed={args.seed} lazy={_fmt(args.lazy)} "
            f"applied={kp.secret.work_steps} key={key_path} secret={secret_path}"
        )
        return 0

    if args.action == "prove":
        if args.secret:
            secret = chain.load_trajectory(args.secret)
            challenge = protocol.Challenge(_vector_from_hex(args.challenge, secret.n))
            response = protocol.respond_honest(secret, challenge)
        else:
            public = gf2core.load_matrix(args.key)
            challenge = protocol.Challenge(_vector_from_hex(args.challenge, public.n))
            response = protocol.respond_dishonest(public, challenge)
        print(_response_line(response))
        return 0

    if args.action == "verify":
        public = gf2core.load_matrix(args.key)
        challenge = protocol.Challenge(_vector_from_hex(args.challenge, public.n))
        if args.response_file:
            with open(args.response_file, "r", encoding="utf-8") as fh:
                text = fh.readline()
        else:
            text = args.response
        if not text:
            raise ValueError("need --response or --response-file")
        response = _parse_response_line(text.strip(), public.n)
        verdict = protocol.verify(public, challenge, response, args.deadline)
        if verdict.accepted:
            print(f"accept role={response.role} bit_ops={response.ops.bit_ops} deadline={args.deadline}")
            return 0
        print(
            f"reject role={response.role} correct={_fmt(verdict.correct)} "
            f"within_deadline={_fmt(verdict.within_deadline)} deadline={args.deadline}"
        )
        return 1

    # report
    _require_range("t", args.t, 1)
    rows = protocol.separation_report(args.n, args.t, word_bits=args.word_bits)
    for row in rows:
        print(
            f"n={row['n']} honest_bit_ops={row['honest_bit_ops']} "
            f"dishonest_bit_ops={row['dishonest_bit_ops']} "
            f"dishonest_word_ops={row['dishonest_word_ops']} ratio={row['ratio']!r}"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser construction and the key=value config file.
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument(
        "--threads", type=int, default=1, help="worker threads; never changes results (default 1)"
    )
    common.add_argument("--out", default=".", help="output directory for CSVs (default .)")
    common.add_argument("--config", default=None, help="flat key=value file with flag defaults")

    parser = argparse.ArgumentParser(
        prog="tvwalk",
        description="Random transvection walk on invertible binary matrices: "
        "simulation, exact mixing analysis, functional-inequality checks, "
        "cutoff diagnostics, and a timed authentication protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    leaves: list[argparse.ArgumentParser] = []

    def leaf(name: str, owner, handler, **kwargs) -> argparse.ArgumentParser:
        p = owner.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=handler)
        leaves.append(p)
        return p

    p = leaf("order", sub, _cmd_order, help="group order and its ratio to all binary matrices")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")

    p = leaf("walk", sub, _cmd_walk, help="run one seeded walk and summarize the endpoint")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="number of steps")
    p.add_argument("--lazy", action="store_true", help="hold each step with probability 1/2")
    p.add_argument("--save-trajectory", default=None, help="write the move record here")
    p.add_argument("--save-matrix", default=None, help="write the final matrix here")

    p = leaf("exact", sub, _cmd_exact, help="exact distance curve and mixing times (n <= 4)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.25, help="distance threshold (default 0.25)")
    p.add_argument("--tmax", type=int, default=None, help="curve horizon (default: t2_mix + 5)")
    p.add_argument("--lazy", action="store_true")

    p = leaf("spectrum", sub, _cmd_spectrum, help="eigenvalue report of the walk (n <= 4)")
    p.add_argument("--n", type=int, required=True)

    p = leaf("lsi", sub, _cmd_lsi, help="log-Sobolev constant lower bound (n in {2,3})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iters", type=int, default=1500)

    p = leaf("check", sub, _cmd_check, help="randomized zero-violation inequality suites")
    p.add_argument(
        "--suite",
        required=True,
        choices=(*funineq.SUITE_NAMES, "all"),
        help="which inequality to stress",
    )
    p.add_argument("--n", type=int, default=2, help="group dimension (default 2)")
    p.add_argument("--trials", type=int, required=True, help="random functions per suite")
    p.add_argument("--d", type=int, default=8, help="hypercube dimension (default 8)")

    p = leaf("cutoff", sub, _cmd_cutoff, help="k-column projection cutoff curve (n >= 16)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="number of projected columns (default 1)")
    p.add_argument(
        "--grid",
        type=_float_list,
        default=None,
        help="comma-separated times in units of n log n (default: built-in grid)",
    )

    p = leaf("bounds", sub, _cmd_bounds, help="counting lower bound and the mixing upper bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--restarts", type=int, default=8, help="constant-estimation restarts")
    p.add_argument("--iters", type=int, default=600, help="constant-estimation iterations")

    proto = sub.add_parser("protocol", help="timed challenge-response authentication")
    proto_sub = proto.add_subparsers(dest="action", required=True, metavar="ACTION")

    p = leaf("keygen", proto_sub, _cmd_protocol, help="walk out a key pair and save both halves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--lazy", action="store_true")
    p.add_argument("--key", default=None, help="public key path (default OUT/key.gf2m)")
    p.add_argument("--secret", default=None, help="secret move-record path (default OUT/secret.tvwk)")

    p = leaf("prove", proto_sub, _cmd_protocol, help="answer a challenge, honestly or not")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--secret", default=None, help="answer honestly from this move record")
    src.add_argument("--key", default=None, help="answer dishonestly from this public key")
    p.add_argument("--challenge", required=True, help="hex challenge vector (ceil(n/8) bytes)")

    p = leaf("verify", proto_sub, _cmd_protocol, help="check an answer against the deadline")
    p.add_argument("--key", required=True, help="public key path")
    p.add_argument("--challenge", required=True, help="hex challenge vector")
    p.add_argument("--response", default=None, help="response line from `prove`")
    p.add_argument("--response-file", default=None, help="file holding the response line")
    p.add_argument("--deadline", type=int, required=True, help="bit-operation budget")

    p = leaf("report", proto_sub, _cmd_protocol, help="honest vs dishonest cost table")
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated dimensions")
    p.add_argument("--t", type=int, required=True, help="honest move count")
    p.add_argument("--word-bits", type=int, default=64, help="machine word width (default 64)")

    return parser, leaves


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _convert_flag_value(action: argparse.Action, raw: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        low = raw.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ValueError(f"boolean flag {action.dest!r} got non-boolean value {raw!r}")
    if action.type is not None:
        return action.type(raw)
    return raw


def _apply_config(leaves: list[argparse.ArgumentParser], pairs: dict[str, str]) -> None:
    known = set()
    for leaf in leaves:
        defaults = {}
        for action in leaf._actions:
            if action.dest in ("help", "config"):
                continue
            if action.dest in pairs:
                known.add(action.dest)
                defaults[action.dest] = _convert_flag_value(action, pairs[action.dest])
                action.required = False  # the config supplies it
        for group in leaf._mutually_exclusive_groups:
            if any(a.dest in pairs for a in group._group_actions):
                group.required = False
        if defaults:
            leaf.set_defaults(**defaults)
    unknown = set(pairs) - known - {"config"}
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")


def cli_dispatch(argv) -> int:
    """Parse argv, run the mapped operation, and return the exit code."""
    argv = list(argv)
    parser, leaves = _build_parser()

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    try:
        pre_ns, _ = pre.parse_known_args(argv)
        if pre_ns.config:
            _apply_config(leaves, _read_config_file(pre_ns.config))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 0

    try:
        _require_range("threads", args.threads, 1)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Console entry point."""
    return cli_dispatch(sys.argv[1:] if argv is None else argv)
