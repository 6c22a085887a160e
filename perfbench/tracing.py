"""Spans around calls into tvwalk's public functions, recorded from outside.

A wrapper is installed at every place a caller looks a name up: callers
that imported a function by name (protocol's `run` and `matvec`,
funineq's `spectral_report`, diagnostics' batched rank and sampler) hold
their own reference, so their module attribute is replaced as well.
Wrappers are removed again after each traced round, so untraced rounds run
the program exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from dataclasses import dataclass, field

from tvwalk import chain, diagnostics, exactgroup, funineq, gf2core, protocol


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(a):
    return {"rows": int(a["rows"].shape[0])}


def _walk_steps(a):
    return {"steps": a["trials"] * a["t"]}


def _cutoff_steps(a):
    nlogn = a["n"] * math.log(a["n"])
    t_max = max(int(round(s * nlogn)) for s in a["grid"])
    return {"steps": a["trials"] * t_max}


# (module, attribute, span name or callable on the bound arguments, info)
TARGETS = [
    (gf2core, "is_invertible", "gf2core.is_invertible", None),
    (gf2core, "save_matrix", "gf2core.save_matrix", None),
    (gf2core, "load_matrix", "gf2core.load_matrix", None),
    (gf2core, "matvec", "gf2core.matvec", None),
    (protocol, "matvec", "gf2core.matvec", None),
    (gf2core, "rank_words_batch", "gf2core.rank_words_batch", _rows),
    (diagnostics, "rank_words_batch", "gf2core.rank_words_batch", _rows),
    (gf2core, "sample_uniform_invertible_batch", "gf2core.sample_uniform_invertible_batch",
     lambda a: {"count": a["count"]}),
    (diagnostics, "sample_uniform_invertible_batch", "gf2core.sample_uniform_invertible_batch",
     lambda a: {"count": a["count"]}),
    (chain, "run", "chain.run", None),
    (protocol, "run", "chain.run", None),
    (chain, "save_trajectory", "chain.save_trajectory", None),
    (chain, "load_trajectory", "chain.load_trajectory", None),
    (chain, "replay", "chain.replay", None),
    (protocol, "keygen", "protocol.keygen", None),
    (protocol, "respond_honest", "protocol.respond_honest", None),
    (protocol, "respond_dishonest", "protocol.respond_dishonest", None),
    (protocol, "verify", "protocol.verify", None),
    (exactgroup, "enumerate_group", "exactgroup.enumerate_group", None),
    (exactgroup, "build_transition", "exactgroup.build_transition", None),
    (exactgroup, "mixing_times", "exactgroup.mixing_times", None),
    (exactgroup, "mixing_curve", "exactgroup.mixing_curve", None),
    (exactgroup, "spectral_report", "exactgroup.spectral_report", None),
    (funineq, "spectral_report", "exactgroup.spectral_report", None),
    (funineq, "estimate_lsi_constant", "funineq.estimate_lsi_constant", None),
    (funineq, "run_suite", lambda a: f"funineq.run_suite.{a['name']}",
     lambda a: {"functions": a["trials"]}),
    (diagnostics, "cutoff_experiment", "diagnostics.cutoff_experiment", _cutoff_steps),
    (diagnostics, "statistic_tv", lambda a: f"diagnostics.statistic_tv.{a['statistic']}",
     _walk_steps),
    (diagnostics, "mc_state_frequencies", "diagnostics.mc_state_frequencies", _walk_steps),
]


class Tracer:
    """Collects spans in memory; the benchmark drains them once per round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str, **info) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, info=info)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, info):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = self.begin(name(a) if callable(name) else name, **(info(a) if info else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def install(self) -> None:
        for module, attr, name, info in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def round_metrics(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Layer metrics of the spans since the last call, which it clears."""
        spans, self.spans = self.spans, []
        return spans_to_metrics(spans)


# Span name -> (metric, scale).  PER_CALL metrics are medians over single
# calls, which all have the same size within a workload; PER_ROUND metrics
# are the time a round spends in the function in total.
PER_CALL = {
    "gf2core.is_invertible": ("gf2core.is_invertible_s", 1.0),
    "gf2core.save_matrix": ("gf2core.save_matrix_ms", 1e3),
    "gf2core.load_matrix": ("gf2core.load_matrix_ms", 1e3),
    "gf2core.matvec": ("gf2core.matvec_us", 1e6),
    "chain.run": ("chain.run_s", 1.0),
    "chain.save_trajectory": ("chain.save_trajectory_s", 1.0),
    "chain.load_trajectory": ("chain.load_trajectory_s", 1.0),
    "chain.replay": ("chain.replay_s", 1.0),
    "protocol.keygen": ("protocol.keygen_s", 1.0),
    "protocol.respond_honest": ("protocol.respond_honest_ms", 1e3),
    "protocol.respond_dishonest": ("protocol.respond_dishonest_us", 1e6),
    "protocol.verify": ("protocol.verify_us", 1e6),
}
PER_ROUND = {
    "gf2core.rank_words_batch": ("gf2core.rank_words_batch_s", 1.0),
    "gf2core.sample_uniform_invertible_batch": ("gf2core.sample_uniform_invertible_batch_s", 1.0),
    "exactgroup.enumerate_group": ("exactgroup.enumerate_group_ms", 1e3),
    "exactgroup.build_transition": ("exactgroup.build_transition_ms", 1e3),
    "exactgroup.mixing_times": ("exactgroup.mixing_times_ms", 1e3),
    "exactgroup.mixing_curve": ("exactgroup.mixing_curve_ms", 1e3),
    "exactgroup.spectral_report": ("exactgroup.spectral_report_ms", 1e3),
    "funineq.estimate_lsi_constant": ("funineq.estimate_lsi_constant_s", 1.0),
    "diagnostics.cutoff_experiment": ("diagnostics.cutoff_experiment_s", 1.0),
    "diagnostics.mc_state_frequencies": ("diagnostics.mc_state_frequencies_s", 1.0),
}
for _suite in ("key", "extension", "kassabov", "hypercube"):
    PER_ROUND[f"funineq.run_suite.{_suite}"] = (f"funineq.run_suite.{_suite}_s", 1.0)
for _stat in ("weight", "trace", "corner_rank"):
    PER_ROUND[f"diagnostics.statistic_tv.{_stat}"] = (f"diagnostics.statistic_tv.{_stat}_s", 1.0)

# Operations whose simulated chain steps are counted, by span-name prefix.
WALK_OPS = {
    "cutoff_experiment": "diagnostics.cutoff_experiment",
    "statistic_tv": "diagnostics.statistic_tv.",
    "mc_state_frequencies": "diagnostics.mc_state_frequencies",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def spans_to_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Layer metrics of one traced round: (per-round values, per-call samples)."""
    per_round: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.seconds
    for s in spans:
        if s.name in PER_CALL:
            metric, scale = PER_CALL[s.name]
            per_call.setdefault(metric, []).append(s.seconds * scale)
        elif s.name in PER_ROUND:
            metric, scale = PER_ROUND[s.name]
            per_round[metric] = per_round.get(metric, 0.0) + s.seconds * scale
        elif s.name.startswith("cli.") and s.info.get("command"):
            self_ms = (s.seconds - children.get(id(s), 0.0)) * 1e3
            per_call.setdefault(f"cli.self_ms.{s.info['command']}", []).append(self_ms)

    def total(pred, key=None) -> float:
        return sum(s.info[key] if key else s.seconds for s in spans if pred(s))

    def named(prefix):
        return lambda s: s.name.startswith(prefix)

    rank = named("gf2core.rank_words_batch")
    sampler = named("gf2core.sample_uniform_invertible_batch")
    candidates = total(lambda s: rank(s) and s.parent is not None and sampler(s.parent), "rows")
    accepted = total(sampler, "count")
    per_round["gf2core.rank_words_batch_rows"] = total(rank, "rows")
    per_round["gf2core.rejection_candidates"] = candidates
    per_round["gf2core.rejection_accepted"] = accepted
    per_round["gf2core.rejection_accept_ratio"] = _ratio(accepted, candidates)
    suites = named("funineq.run_suite.")
    per_round["funineq.suite_functions_per_s"] = _ratio(
        total(suites, "functions"), total(suites)
    )
    for op, prefix in WALK_OPS.items():
        per_round[f"diagnostics.chain_steps_per_s.{op}"] = _ratio(
            total(named(prefix), "steps"), total(named(prefix))
        )
    return per_round, per_call
