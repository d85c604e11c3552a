"""Span tracing of trajcore's layers, installed from outside the package.

``Tracer.installed()`` replaces each public function listed in ``TARGETS``
with a wrapper, in every ``trajcore`` module that holds it (its own module
and the modules that imported it by name), and restores the originals on
exit.  While the tracer is active, each call records a span: name, phase,
parent span, start, end, the time covered by its child spans, and counts
taken from its arguments and result.  Small per-symbol helpers such as
``apply_abstraction`` and ``is_subsequence`` are not wrapped, so their time
counts as self time of the layer that calls them.
"""
from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager

from trajcore.errors import BudgetExceeded, ExplosionGuard


def _successes(args, kwargs, result):
    return {"successes": len(result)}


def _core_members(args, kwargs, result):
    return {"core_members": len(result)}


def _commons(args, kwargs, result):
    return {"sequences_in": len(args[0]), "commons": len(result)}


def _episodes(args, kwargs, result):
    return {"episodes": len(result.episode_cores)}


def _file_bytes(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


_PARSE = ("mdp_from_payload", "game_from_payload", "peer_from_payload",
          "schedule_from_payload", "abstraction_from_payload", "successes_from_payload",
          "keydoor_config_from_payload", "coop_config_from_payload")
_SERIALIZE = ("mdp_to_payload", "game_to_payload", "peer_to_payload", "schedule_to_payload",
              "abstraction_to_payload", "successes_to_payload", "core_to_payload",
              "budget_to_payload", "drift_to_payload", "keydoor_config_to_payload",
              "coop_config_to_payload", "build_report")

# (module, function, span name, counter of the call's result)
TARGETS = (
    [
        ("trajcore.mdp", "induce_mdp", "mdp.induce", None),
        ("trajcore.mdp", "enumerate_successes", "mdp.enumerate", _successes),
        ("trajcore.mdp", "validate_mdp", "mdp.validate", None),
        ("trajcore.mdp", "validate_game", "mdp.validate", None),
        ("trajcore.mdp", "validate_peer", "mdp.validate", None),
        ("trajcore.mining", "core", "mining.core", _core_members),
        ("trajcore.mining", "common_subsequences", "mining.common_subsequences", _commons),
        ("trajcore.mining", "maximal_elements", "mining.maximal", None),
        ("trajcore.drift", "drift_report", "drift.report", _episodes),
        ("trajcore.drift", "individual_core", "drift.individual_core", None),
        ("trajcore.drift", "variation_budget", "drift.variation_budget", None),
        ("trajcore.formats", "read_json", "formats.read", _file_bytes),
        ("trajcore.formats", "sniff_format", "formats.read", None),
        ("trajcore.formats", "file_digest", "formats.digest", _file_bytes),
        ("trajcore.formats", "digest", "formats.digest", None),
        ("trajcore.formats", "write_json", "formats.write", None),
        ("trajcore.cli", "main", "cli.main", None),
        ("trajcore.envs", "build_coop_keydoor", "envs.build", None),
        ("trajcore.envs", "build_keydoor", "envs.build", None),
        ("trajcore.envs", "random_mdp", "envs.build", None),
    ]
    + [("trajcore.formats", f, "formats.parse", None) for f in _PARSE]
    + [("trajcore.formats", f, "formats.serialize", None) for f in _SERIALIZE]
)


class Span:
    __slots__ = ("id", "parent", "name", "phase", "tag", "start", "end", "child", "nested", "counts")

    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans while active; every span carries the current phase and tag."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = False
        self.phase = ""
        self.tag = None

    @contextmanager
    def recording(self, phase: str, tag=None):
        self.active, self.phase, self.tag = True, phase, tag
        try:
            yield
        finally:
            self.active = False

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span()
            span.id = len(self.spans)
            span.parent = self.stack[-1].id if self.stack else None
            span.name, span.phase, span.tag = name, self.phase, self.tag
            span.nested = any(s.name == name for s in self.stack)
            span.child, span.counts = 0.0, {}
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except (ExplosionGuard, BudgetExceeded):
                # every span the guard passes through is marked; the layer
                # metrics read it from the raising function's own span
                span.counts["guard_trips"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if self.stack:
                    self.stack[-1].child += span.end - span.start
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded trajcore module; restore on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "trajcore" or n.startswith("trajcore."))]
        patched = []
        for module_name, func, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def _sum(spans, names, what, factors=None):
    """Sum ``what`` over the spans named ``names``.  Times are multiplied by
    ``factors[(phase, tag)]``, the factor of the interval that held the span."""
    names = (names,) if isinstance(names, str) else names
    total = 0
    for s in spans:
        if s.name not in names:
            continue
        factor = 1.0 if factors is None else factors[(s.phase, s.tag)]
        if what == "self":
            total += s.self_time() * factor
        elif what == "inclusive":
            total += 0.0 if s.nested else (s.end - s.start) * factor
        elif what == "calls":
            total += 1
        else:
            total += s.counts.get(what, 0)
    return total


# metric name -> (span name or names, what to sum: "self", "inclusive", "calls" or a count)
LAYER_METRICS = {
    "mdp.enumerate_s": ("mdp.enumerate", "self"),
    "mdp.enumerate_calls": ("mdp.enumerate", "calls"),
    "mdp.successes": ("mdp.enumerate", "successes"),
    "mdp.guard_trips": ("mdp.enumerate", "guard_trips"),
    "mdp.induce_s": ("mdp.induce", "self"),
    "mdp.induce_calls": ("mdp.induce", "calls"),
    "mdp.validate_s": ("mdp.validate", "self"),
    "mdp.validate_calls": ("mdp.validate", "calls"),
    "mining.core_self_s": ("mining.core", "self"),
    "mining.common_subsequences_s": ("mining.common_subsequences", "self"),
    "mining.maximal_s": ("mining.maximal", "self"),
    "mining.sequences_in": ("mining.common_subsequences", "sequences_in"),
    "mining.commons": ("mining.common_subsequences", "commons"),
    "mining.core_members": ("mining.core", "core_members"),
    "mining.guard_trips": ("mining.common_subsequences", "guard_trips"),
    "drift.report_s": ("drift.report", "inclusive"),
    "drift.individual_core_s": ("drift.individual_core", "inclusive"),
    "drift.self_s": ("drift.report", "self"),
    "drift.variation_budget_s": ("drift.variation_budget", "inclusive"),
    "drift.episodes": ("drift.report", "episodes"),
    "formats.read_s": ("formats.read", "self"),
    "formats.parse_s": ("formats.parse", "self"),
    "formats.digest_s": ("formats.digest", "self"),
    "formats.serialize_s": ("formats.serialize", "self"),
    "formats.write_s": ("formats.write", "self"),
    "formats.bytes_read": (("formats.read", "formats.digest"), "bytes_read"),
    "cli.self_s": ("cli.main", "self"),
}
COUNT_METRICS = {k for k, (_, what) in LAYER_METRICS.items() if what not in ("self", "inclusive")}


def layer_totals(spans, factors=None) -> dict:
    """Every layer metric summed over ``spans``."""
    return {metric: _sum(spans, name, what, factors)
            for metric, (name, what) in LAYER_METRICS.items()}


def per_layer_metrics(tracer: Tracer, traced_passes: list, factors: dict) -> dict:
    """Median over traced passes of each layer metric, plus set-up builder time.

    ``factors`` maps each op's and set-up's (phase, tag) to the multiplier
    that turns its seconds into reference seconds (see ``run.py``).
    """
    by_pass = {p: [] for p in traced_passes}
    setup = {}
    for s in tracer.spans:
        if s.phase == "op":
            by_pass[s.tag[0]].append(s)
        elif s.phase == "setup":
            setup.setdefault(s.tag, []).append(s)
    totals = [layer_totals(spans, factors) for spans in by_pass.values()]
    # counts repeat exactly from pass to pass (run.py checks), times vary
    out = {k: totals[0][k] if k in COUNT_METRICS else statistics.median(t[k] for t in totals)
           for k in LAYER_METRICS}
    out["envs.build_s"] = statistics.median(
        _sum(spans, "envs.build", "inclusive", factors) for spans in setup.values()
    )
    return out


def op_counts(tracer: Tracer) -> dict:
    """Per traced op, keyed by (pass, position): its layer counts and the
    counts of its outermost span (the call the benchmark made)."""
    grouped = {}
    for s in tracer.spans:
        if s.phase == "op":
            grouped.setdefault(s.tag, []).append(s)
    return {
        tag: ({k: v for k, v in layer_totals(spans).items() if k in COUNT_METRICS},
              next(s.counts for s in spans if s.parent is None))
        for tag, spans in grouped.items()
    }


def spans_payload(tracer: Tracer) -> list:
    return [
        {"id": s.id, "parent": s.parent, "name": s.name, "phase": s.phase,
         "tag": s.tag, "start": s.start, "end": s.end, "self": s.self_time(),
         "counts": s.counts}
        for s in tracer.spans
    ]
