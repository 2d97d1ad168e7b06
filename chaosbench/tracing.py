"""Per-layer tracing of chaosmark from outside the program.

The layers are the six modules of the package.  A traced run wraps
every public module-level function of each layer in a timing span and
rebinds it in every chaosmark namespace that holds it, so a call that
goes through a name imported elsewhere (``chaos_analysis.d_phase``,
``cli.generate_carriers``, ``modulation.iterate_g``) is traced as well
as a call inside the defining module.  Spans nest on one stack: a
span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are folded into per-function sums as they
close, so memory stays bounded however long the run.  Work counters
are read from the arguments or the return value of the traced call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "fileio", "modulation", "phase_space", "chaos_analysis",
          "tm_encoding")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _series_terms(args, kwargs, result):
    # Head length plus one period of the tail block, as the exact
    # series evaluator sums them.
    s, t = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "t")
    return max(len(s.prefix), len(t.prefix)) + math.lcm(s.period, t.period)


def _candidates(args, kwargs, result):
    # Matching depths tried before the candidate fell inside the ball.
    return result.inputs["matching_depth"] - result.inputs["k0"] + 1


# Function -> (counter name, amount added per call).
WORK_COUNTERS = {
    "phase_space.iterate_g": ("steps", lambda a, kw, r: _arg(a, kw, 1, "n")),
    "phase_space.shift":
        ("terms_copied", lambda a, kw, r: len(_arg(a, kw, 0, "s").prefix)),
    "phase_space.d_strategy": ("series_terms", _series_terms),
    "chaos_analysis.witness_strong_transitivity": ("candidates", _candidates),
    "tm_encoding.tm_run": ("steps", lambda a, kw, r: r.steps),
    "tm_encoding.tm_step":
        ("cells_copied", lambda a, kw, r: len(_arg(a, kw, 1, "config").cells)),
}


class Tracer:
    """Span and counter sums for one traced phase of a run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, key: str, fn):
        counter = WORK_COUNTERS.get(key)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - children[0]
            if counter is not None:
                name, amount = counter
                self.work[f"{key}.{name}"] += amount(args, kwargs, result)
            return result

        return traced


def instrument(tracer: Tracer) -> list[tuple]:
    """Wrap every public chaosmark function in a span of ``tracer``.

    Returns one (module, name, original, wrapper) rebinding for every
    chaosmark namespace that holds a wrapped function under some name.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"chaosmark.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(layer, f"{layer}.{name}", obj)
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "chaosmark" and not modname.startswith("chaosmark."):
            continue
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, name, obj, wrappers[obj]))
    return patches


@contextlib.contextmanager
def installed(patches: list[tuple]):
    """Apply the rebindings of ``instrument`` for the duration of the block."""
    for module, name, _, wrapper in patches:
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for module, name, original, _ in patches:
            setattr(module, name, original)


# Functions whose span sums are reported, with the stats reported for
# each: "calls" per op, "self" and "total" milliseconds per op.
REPORTED_SPANS = {
    "cli.main": ("self",),
    "fileio.read_vector": ("self",),
    "fileio.write_vector": ("self",),
    "fileio.render_json": ("self",),
    "modulation.generate_carriers": ("calls", "self"),
    "modulation.watermark_strategy": ("self", "total"),
    "modulation.embed": ("self",),
    "modulation.decode": ("self",),
    "phase_space.iterate_g": ("calls", "self"),
    "phase_space.apply_g": ("calls",),
    "phase_space.d_phase": ("calls", "self"),
    "phase_space.d_strategy": ("calls", "self"),
    "chaos_analysis.witness_sensitivity": ("calls", "self"),
    "chaos_analysis.witness_strong_transitivity": ("calls", "self"),
    "chaos_analysis.witness_regularity": ("calls", "self"),
    "chaos_analysis.expansivity_counterexample": ("calls", "self"),
    "chaos_analysis.continuity_report": ("calls", "self"),
    "chaos_analysis.continuity_probe": ("calls", "self"),
    "chaos_analysis.divergence_trace": ("calls", "self"),
    "chaos_analysis.empirical_sensitivity_scan": ("calls", "self"),
    "chaos_analysis.random_phase_point": ("calls", "self"),
    "tm_encoding.load_machine": ("self",),
    "tm_encoding.tm_run": ("self",),
    "tm_encoding.tm_step": ("self",),
}


def layer_metrics(tracer: Tracer, ops: int, continuity_commands: int) -> dict:
    """Per-op layer metrics of a traced phase of ``ops`` ops, with units."""
    out = {}
    for key, stats in REPORTED_SPANS.items():
        if "calls" in stats:
            out[f"{key}.calls_per_op"] = (tracer.calls[key] / ops, "count")
        if "self" in stats:
            out[f"{key}.self_ms_per_op"] = (1e3 * tracer.self_s[key] / ops, "ms")
        if "total" in stats:
            out[f"{key}.total_ms_per_op"] = (1e3 * tracer.total_s[key] / ops, "ms")
    for key, (name, _) in WORK_COUNTERS.items():
        if key != "chaos_analysis.witness_strong_transitivity":
            out[f"{key}.{name}_per_op"] = (tracer.work[f"{key}.{name}"] / ops, "count")
    witnesses = tracer.calls["chaos_analysis.witness_strong_transitivity"]
    candidates = tracer.work["chaos_analysis.witness_strong_transitivity.candidates"]
    out["chaos_analysis.transitivity.candidates_per_witness"] = (
        candidates / witnesses if witnesses else 0.0, "count")
    probes = tracer.calls["chaos_analysis.continuity_probe"]
    out["chaos_analysis.continuity_probe.calls_per_command"] = (
        probes / continuity_commands if continuity_commands else 0.0, "count")
    for layer in LAYERS:
        out[f"{layer}.errors_per_op"] = (tracer.errors[layer] / ops, "count")
    return out
