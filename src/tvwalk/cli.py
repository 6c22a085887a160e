"""Command-line surface: seeded, reproducible experiments with CSV output.

Every subcommand takes its randomness from one ``--seed``; internal
sub-streams are derived as (seed, stream-id, block-id) so results do not
depend on ``--threads``, an option of ``cutoff`` alone: the number of
worker processes it forks for its trial blocks (default: one per available
core).  Every CSV starts with a ``#``-prefixed echo of the configuration
that determines its contents (the worker count is not part of it), and
re-running a command with the same configuration reproduces the file byte
for byte at any worker count.  Floats are written with ``repr``, which
round-trips exactly.

Exit codes: 0 on success, 1 when protocol verification rejects, 2 on
invalid configuration or input (with a one-line diagnostic on stderr), 3
when an inequality suite of ``check`` reports a violation.

An optional ``--config path`` reads a flat ``key=value`` file whose keys
are the long option names of the chosen subcommand; values given on the
command line win over the file.  File values are converted and checked as
command-line values are, and a bad one is reported with its key.

Each command, a leaf of the parser tree, is declared in ``_leaf_table``, once
per process.  A well-formed command (exact long flags, each at most once,
every required flag given) is read straight from its leaf's declarations and
builds no parser.  argparse is built only for help, usage errors and
``--config``: a leaf's own parser reports the leaf's usage errors, and the
whole tree is built only for help and usage errors above the leaves.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import namedtuple

import numpy as np

from . import chain, diagnostics, exactgroup, funineq, gf2core, protocol

__all__ = ["cli_dispatch", "main"]


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
    return {"command": args.command, "seed": args.seed, **extra}


# ---------------------------------------------------------------------------
# Hex challenge/response encoding: ceil(n/8) bytes, LSB-first within each
# byte, byte k holding bits 8k .. 8k+7 (the matrix-file row layout).
# ---------------------------------------------------------------------------


def _vector_to_hex(v: gf2core.BitVector) -> str:
    return v.words.astype("<u8", copy=False).tobytes()[: (v.n + 7) // 8].hex()


def _vector_from_hex(text: str, n: int) -> gf2core.BitVector:
    data = bytes.fromhex(text)
    nbytes = (n + 7) // 8
    if len(data) != nbytes:
        raise ValueError(f"challenge must be {nbytes} bytes ({2 * nbytes} hex digits) for n={n}")
    return gf2core.BitVector(n, gf2core._from_row_bytes(np.frombuffer(data, dtype=np.uint8), n))


_RESPONSE_FIELDS = ("y", "bit_ops", "word_ops", "role")


def _parse_response_line(text: str, n: int) -> protocol.Response:
    """The response a `_response_line` wrote: each field exactly once, no other."""
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"malformed response token {token!r}")
        if key not in _RESPONSE_FIELDS:
            raise ValueError(f"unknown response field {key!r}")
        if key in fields:
            raise ValueError(f"response field {key!r} given twice")
        fields[key] = value
    missing = set(_RESPONSE_FIELDS) - fields.keys()
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


# Largest n whose group order prints: the order of n = 120 has more than the
# 4,300 decimal digits that Python converts by default.
_MAX_ORDER_N = 119


def _cmd_order(args) -> int:
    _require_range("n", args.n, 1, _MAX_ORDER_N)
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
    dims = exactgroup.ANALYZE_DIMENSIONS
    _require_range("n", args.n, dims[0], dims[-1])
    if args.tmax is not None:
        _require_range("tmax", args.tmax, 0)
    _, ts = exactgroup.analyze(args.n)
    lazy = args.lazy
    if not lazy and ts.period == 2:
        lazy = True
        print("note: the walk is periodic at this dimension; using the lazy kernel")
    t_tv, t_l2 = exactgroup.mixing_times(ts, args.eps, lazy)
    tmax = args.tmax if args.tmax is not None else t_l2 + 5
    curve = exactgroup.mixing_curve(ts, tmax, lazy)
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
    dims = exactgroup.ANALYZE_DIMENSIONS
    _require_range("n", args.n, dims[0], dims[-1])
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
    _, ts = exactgroup.analyze(args.n)
    est = funineq.estimate_lsi_constant(
        ts, restarts=args.restarts, iters=args.iters, seed=args.seed
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
    cube = funineq.HYPERCUBE_DIMENSIONS
    _require_range("d", args.d, cube[0], cube[-1])
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
    return 3 if any(violations for _, _, _, violations, _ in rows) else 0


def _cmd_cutoff(args) -> int:
    if args.threads is None:
        args.threads = diagnostics._available_cores()
    _require_range("threads", args.threads, 1)
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
    _, ts = exactgroup.analyze(args.n)
    report = exactgroup.spectral_report(ts)
    est = funineq.estimate_lsi_constant(
        ts, restarts=args.restarts, iters=args.iters, seed=args.seed, report=report
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
            challenge = _vector_from_hex(args.challenge, secret.n)
            response = protocol.respond_honest(secret, challenge)
        else:
            public = gf2core.load_matrix(args.key)
            challenge = _vector_from_hex(args.challenge, public.n)
            response = protocol.respond_dishonest(public, challenge)
        print(_response_line(response))
        return 0

    if args.action == "verify":
        _require_range("deadline", args.deadline, 0)
        public = gf2core.load_matrix(args.key)
        challenge = _vector_from_hex(args.challenge, public.n)
        if args.response_file:
            with open(args.response_file, "r", encoding="utf-8") as fh:
                text = fh.readline().strip()
        else:
            text = (args.response or "").strip()
        if not text:
            raise ValueError("response line is empty")
        response = _parse_response_line(text, public.n)
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


# One command: its name path below tvwalk, handler, help line, sources (flags
# of which exactly one is given), flags (the common options and its own, as
# add_argument keywords by flag) and defaults, the namespace of a command
# line that gives no flag.
_Leaf = namedtuple("_Leaf", "path handler help sources flags defaults")
_COMMON = (
    ("--seed", dict(type=int, default=0, help="master seed (default 0)")),
    ("--out", dict(default=".", help="output directory for CSVs (default .)")),
    ("--config", dict(help="flat key=value file with flag defaults")),
)
_GROUP_HELP = {"protocol": "timed challenge-response authentication"}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _leaf(path, handler, help, options, sources=()) -> _Leaf:
    flags = dict(_COMMON + options)
    defaults = {"func": handler, **dict(zip(("command", "action"), path))}
    for flag, kwargs in flags.items():
        switch = kwargs.get("action") == "store_true"
        defaults[_dest(flag)] = kwargs.get("default", False if switch else None)
    return _Leaf(path, handler, help, sources, flags, defaults)


@functools.cache
def _leaf_table() -> dict[tuple[str, ...], _Leaf]:
    """Every command by path, in help order, declared once per process."""
    exact_n = f"n <= {exactgroup.ANALYZE_DIMENSIONS[-1]}"
    lsi_n = "n in {" + ",".join(map(str, funineq.LSI_DIMENSIONS)) + "}"
    cutoff_n = f"n >= {diagnostics.CUTOFF_MIN_N}"
    n, lazy = ("--n", dict(type=int, required=True)), ("--lazy", dict(action="store_true"))
    leaves = (
        _leaf(("order",), _cmd_order, "group order and its ratio to all binary matrices", (
            ("--n", dict(type=int, required=True, help="matrix dimension")),
        )),
        _leaf(("walk",), _cmd_walk, "run one seeded walk and summarize the endpoint", (
            n,
            ("--t", dict(type=int, required=True, help="number of steps")),
            ("--lazy", dict(action="store_true", help="hold each step with probability 1/2")),
            ("--save-trajectory", dict(help="write the move record here")),
            ("--save-matrix", dict(help="write the final matrix here")),
        )),
        _leaf(("exact",), _cmd_exact, f"exact distance curve and mixing times ({exact_n})", (
            n,
            ("--eps", dict(type=float, default=0.25, help="distance threshold (default 0.25)")),
            ("--tmax", dict(type=int, help="curve horizon (default: t2_mix + 5)")),
            lazy,
        )),
        _leaf(("spectrum",), _cmd_spectrum, f"eigenvalue report of the walk ({exact_n})", (n,)),
        _leaf(("lsi",), _cmd_lsi, f"log-Sobolev constant lower bound ({lsi_n})", (
            n,
            ("--restarts", dict(type=int, default=50)),
            ("--iters", dict(type=int, default=1500)),
        )),
        _leaf(("check",), _cmd_check, "randomized zero-violation inequality suites", (
            ("--suite", dict(required=True, choices=(*funineq.SUITE_NAMES, "all"),
                             help="which inequality to stress")),
            ("--n", dict(type=int, default=2, help="group dimension (default 2)")),
            ("--trials", dict(type=int, required=True, help="random functions per suite")),
            ("--d", dict(type=int, default=8, help="hypercube dimension (default 8)")),
        )),
        _leaf(("cutoff",), _cmd_cutoff, f"k-column projection cutoff curve ({cutoff_n})", (
            n,
            ("--trials", dict(type=int, required=True)),
            ("--k", dict(type=int, default=1, help="number of projected columns (default 1)")),
            ("--threads", dict(type=int, help="worker processes, at least 1; never "
                               "changes results (default: the available cores)")),
            ("--grid", dict(type=_float_list, help="comma-separated times in units of "
                            "n log n (default: built-in grid)")),
        )),
        _leaf(("bounds",), _cmd_bounds, "counting lower bound and the mixing upper bound", (
            n,
            ("--eps", dict(type=float, default=0.25)),
            ("--restarts", dict(type=int, default=8, help="constant-estimation restarts")),
            ("--iters", dict(type=int, default=600, help="constant-estimation iterations")),
        )),
        _leaf(("protocol", "keygen"), _cmd_protocol, "walk out a key pair and save both halves", (
            n,
            ("--t", dict(type=int, required=True)),
            lazy,
            ("--key", dict(help="public key path (default OUT/key.gf2m)")),
            ("--secret", dict(help="secret move-record path (default OUT/secret.tvwk)")),
        )),
        _leaf(("protocol", "prove"), _cmd_protocol, "answer a challenge, honestly or not", (
            ("--secret", dict(help="answer honestly from this move record")),
            ("--key", dict(help="answer dishonestly from this public key")),
            ("--challenge", dict(required=True, help="hex challenge vector (ceil(n/8) bytes)")),
        ), sources=("--secret", "--key")),
        _leaf(("protocol", "verify"), _cmd_protocol, "check an answer against the deadline", (
            ("--key", dict(required=True, help="public key path")),
            ("--challenge", dict(required=True, help="hex challenge vector")),
            ("--response", dict(help="response line from `prove`")),
            ("--response-file", dict(help="file holding the response line")),
            ("--deadline", dict(type=int, required=True, help="bit-operation budget")),
        ), sources=("--response", "--response-file")),
        _leaf(("protocol", "report"), _cmd_protocol, "honest vs dishonest cost table", (
            ("--n", dict(type=_int_list, required=True, help="comma-separated dimensions")),
            ("--t", dict(type=int, required=True, help="honest move count")),
            ("--word-bits", dict(type=int, default=64, help="machine word width (default 64)")),
        )),
    )
    return {leaf.path: leaf for leaf in leaves}


def _build_parser(leaf=None, config=None) -> tuple[argparse.ArgumentParser, set[str]]:
    """The parser of one leaf, or the whole tree when leaf is None, and the
    config keys that no built option takes.

    A leaf's parser is the one ``add_parser`` makes for it in the tree, so it
    parses, helps and fails as the tree does below the leaf's name, except
    that it reports leftover arguments itself.  A config value is converted
    and checked as on the command line, which still wins over it.
    """
    config = config or {}
    untaken = set(config)

    def build(p: argparse.ArgumentParser, leaf: _Leaf) -> None:
        if leaf.sources:
            src = p.add_mutually_exclusive_group(
                required=not any(_dest(flag) in config for flag in leaf.sources)
            )
        for flag, kwargs in leaf.flags.items():
            key = _dest(flag)
            if key in config:
                try:
                    value = _convert(kwargs, config[key])
                except ValueError as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
                kwargs = {**kwargs, "default": value, "required": False}
                untaken.discard(key)
            (src if flag in leaf.sources else p).add_argument(flag, **kwargs)
        p.set_defaults(func=leaf.handler, **dict(zip(("command", "action"), leaf.path)))

    if leaf is not None:
        parser = argparse.ArgumentParser(prog=" ".join(("tvwalk", *leaf.path)))
        build(parser, leaf)
        return parser, untaken
    parser = argparse.ArgumentParser(
        prog="tvwalk",
        description="Random transvection walk on invertible binary matrices: "
        "simulation, exact mixing analysis, functional-inequality checks, "
        "cutoff diagnostics, and a timed authentication protocol.",
    )
    subs = {(): parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")}
    for leaf in _leaf_table().values():
        above = leaf.path[:-1]
        if above not in subs:
            group = subs[()].add_parser(above[0], help=_GROUP_HELP[above[0]])
            subs[above] = group.add_subparsers(dest="action", required=True, metavar="ACTION")
        build(subs[above].add_parser(leaf.path[-1], help=leaf.help), leaf)
    return parser, untaken


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
            key = key.strip().replace("-", "_")
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            pairs[key] = value.strip()
    return pairs


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _convert(kwargs, text: str):
    """A flag's value from its text: its type, then its choices; a switch
    (only a config file gives one text) takes the boolean words."""
    if kwargs.get("action") == "store_true":
        if text.lower() not in _TRUE_WORDS | _FALSE_WORDS:
            raise ValueError(f"not a boolean: {text!r}")
        return text.lower() in _TRUE_WORDS
    value = kwargs.get("type", str)(text)
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise ValueError(f"invalid choice: {value!r} (choose from {listed})")
    return value


def _leaf_named(argv) -> _Leaf | None:
    table = _leaf_table()
    return table.get(tuple(argv[:1])) or table.get(tuple(argv[:2]))


def _may_name_config(argv) -> bool:
    """Whether argparse could read a token as --config: one before any bare --
    whose part before = is a prefix of --config (--, only with an =)."""
    for token in argv:
        if token == "--":
            return False
        head, eq, _ = token.partition("=")
        if head.startswith("--") and "--config".startswith(head) and (eq or head != "--"):
            return True
    return False


def _parse_well_formed(leaf: _Leaf, argv) -> argparse.Namespace | None:
    """The namespace the leaf's parser returns for argv, read from the leaf's
    declarations, or None unless argv is well formed: exact long flags, each
    at most once, as --flag value or --flag=value, switches bare, no value
    starting with -, every value converted and within its choices, every
    required flag and exactly one source given.  Whatever returns None goes
    to argparse, which helps and reports usage errors."""
    given = {}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = leaf.flags.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            given[flag] = _convert(kwargs, value)
        except ValueError:
            return None
    if any(kwargs.get("required") and flag not in given for flag, kwargs in leaf.flags.items()):
        return None
    if leaf.sources and sum(flag in given for flag in leaf.sources) != 1:
        return None
    args = argparse.Namespace(**leaf.defaults)
    for flag, value in given.items():
        setattr(args, _dest(flag), value)
    return args


def cli_dispatch(argv) -> int:
    """Parse argv, run the mapped operation, and return the exit code."""
    argv = list(argv)
    if argv and argv[0].partition("=")[0] == "--config":
        # The root parser has no --config and would read FILE as a subcommand.
        print("error: missing subcommand: tvwalk SUBCOMMAND --config FILE", file=sys.stderr)
        return 2
    leaf = _leaf_named(argv)
    args = _parse_well_formed(leaf, argv[len(leaf.path) :]) if leaf else None
    # A well-formed command line names --config only by its exact flag, and
    # argparse reads the file.
    if args is None or args.config is not None:
        try:
            path = None
            if _may_name_config(argv):
                pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
                pre.add_argument("--config", default=None)
                path = pre.parse_known_args(argv)[0].config
            parser, untaken = _build_parser(leaf, _read_config_file(path) if path else {})
            if untaken:
                raise ValueError(f"unknown config keys: {', '.join(sorted(untaken))}")
        except (OSError, ValueError, argparse.ArgumentError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        try:
            args = parser.parse_args(argv[len(leaf.path) :] if leaf else argv)
        except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
            code = exc.code
            return code if isinstance(code, int) else 0
        # argparse rejects two sources on the command line, so the file set one.
        given = [f for f in (leaf.sources if leaf else ()) if vars(args)[_dest(f)] is not None]
        if len(given) > 1:
            joined = " and ".join(given)
            print(f"error: {joined} exclude each other, in the config file too", file=sys.stderr)
            return 2

    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # NumPy's message is one line; a bare one is empty
        print(f"error: not enough memory: {str(exc) or 'request too large'}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Console entry point."""
    return cli_dispatch(sys.argv[1:] if argv is None else argv)
