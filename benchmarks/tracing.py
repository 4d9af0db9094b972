"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of the traced ``kuniform``
modules and rebinds the wrapper in every ``kuniform`` module (and the
package) that holds the original, so a nested call such as
``kuniform.phases.uniformity`` or ``kuniform.states.jacobi_eigvalsh``
becomes a child span.  Spans (name, start, end, parent) are kept in memory
and only recorded while a job runs; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its child spans.
``layer_metrics`` turns one pass's spans and counters into the per-layer
metrics; a function nothing calls reports zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb

#: Traced modules; each is its own layer.  GF(q) arithmetic runs inside
#: constructions spans and is counted there.  The cli layer is the span the
#: benchmark puts around each in-process command.
TRACED_MODULES = ("states", "linalg", "graphs", "oa", "constructions",
                  "phases", "serialize")
LAYERS = TRACED_MODULES + ("cli",)

#: Per-row helpers left unwrapped: a span each would cost more than they do.
UNWRAPPED = {"digits_to_word", "word_to_digits"}

#: Metric group -> span names it adds up; each group reports calls and self_s.
GROUPS = {
    "states.reduce": ("states.reduce",),
    "states.is_maximally_mixed": ("states.is_maximally_mixed",),
    "states.uniformity": ("states.uniformity",),
    "states.max_uniformity": ("states.max_uniformity",),
    "states.state_from_oa": ("states.state_from_oa",),
    "linalg.eig": ("linalg.jacobi_eigvalsh", "linalg.rank_by_eigenvalues"),
    "graphs.is_k_uniform_by_graphs": ("graphs.is_k_uniform_by_graphs",),
    "oa.verify_strength": ("oa.verify_strength",),
    "oa.is_irredundant": ("oa.is_irredundant",),
    "oa.max_strength": ("oa.max_strength",),
    "phases.fix_state": ("phases.fix_state",),
    "phases.constraint_system": ("phases.constraint_system",),
    "phases.solve_signs": ("phases.solve_signs",),
    "serialize.parse": ("serialize.parse_oa_file", "serialize.parse_catalog",
                        "serialize.parse_ket"),
    "serialize.write": ("serialize.write_oa_file", "serialize.write_ket"),
    "cli.invoke": ("cli.invoke",),
}

#: Work counters, reported as they are.
COUNTERS = ("states.reduce.dense_mb", "states.subsets_checked",
            "states.subsets_after_fail", "oa.verify_strength.subsets",
            "oa.is_irredundant.subsets", "constructions.rows",
            "phases.constraints", "phases.repaired", "phases.infeasible",
            "phases.unsupported", "serialize.bytes")


class Tracer:
    """Spans and work counters of the calls made while `recording` is set."""

    def __init__(self) -> None:
        self.installed = False
        self.recording = False
        self.spans: list = []      # (name, start, end, parent index or -1)
        self.self_time: list = []  # parallel to spans
        self.counters: dict = defaultdict(float)
        self._open: list = []      # [span index, child time, name] per open span
        self._rebound: list = []   # (module, attribute, original)

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        parent = self._open[-1][0] if self._open else -1
        frame = [len(self.spans), 0.0, name]  # index, child time, name
        self.spans.append(None)
        self.self_time.append(0.0)
        self._open.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[frame[0]] = (name, start, end, parent)
            self.self_time[frame[0]] = (end - start) - frame[1]
            if self._open:
                self._open[-1][1] += end - start

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = _COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            layer = name.split(".")[0]
            outer = not self._open or self._open[-1][2].split(".")[0] != layer
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if count is not None:
                        count(self.counters, args, kwargs, exc, outer)
                    raise
            if count is not None:
                count(self.counters, args, kwargs, result, outer)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in TRACED_MODULES:
            module = sys.modules[f"kuniform.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or attr in UNWRAPPED or \
                        not inspect.isfunction(value) or \
                        value.__module__ != module.__name__:
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name != "kuniform" and not module_name.startswith("kuniform."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        self.installed = True

    def uninstall(self) -> None:
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound.clear()
        self.installed = False

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index} {parent} {name} {start:.9f} {end:.9f}\n")

    def layer_metrics(self, wall: float, speed: float = 1.0) -> dict:
        """Per-layer metrics of the recorded spans and counters, for jobs
        that took `wall` seconds with tracing on; times are multiplied by
        `speed` (the run's machine-speed scale)."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for (name, _, _, _), value in zip(self.spans, self.self_time):
            calls[name] += 1
            self_s[name] += value * speed
        out = {}
        for group, names in GROUPS.items():
            out[f"{group}.calls"] = sum(calls[n] for n in names)
            out[f"{group}.self_s"] = sum(self_s[n] for n in names)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["constructions.calls"] = sum(
            n for name, n in calls.items() if name.startswith("constructions."))
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0.0)
        checked = out["states.subsets_checked"]
        out["states.useful_subset_ratio"] = (
            1.0 - out["states.subsets_after_fail"] / checked if checked else 1.0)
        wall *= speed
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(self.spans)
        out["trace.unattributed_s"] = wall - sum(layer_self.values())
        return out


# ---------------------------------------------------------------------------
# work counters, computed from a traced call's arguments and result
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _reduce(counters, args, kwargs, result, outer):
    if isinstance(result, Exception):
        return
    state = _arg(args, kwargs, 0, "state")
    dim = state.levels ** len(_arg(args, kwargs, 1, "keep"))
    counters["states.reduce.dense_mb"] += 16 * dim * dim / 1e6


def _uniformity(counters, args, kwargs, result, outer):
    if isinstance(result, Exception):
        return
    flags = [s.maximally_mixed for s in result.subsets]
    counters["states.subsets_checked"] += len(flags)
    if False in flags:
        counters["states.subsets_after_fail"] += len(flags) - flags.index(False) - 1


def _subsets(key):
    def count(counters, args, kwargs, result, outer):
        array = _arg(args, kwargs, 0, "array")
        k = _arg(args, kwargs, 1, "k")
        if isinstance(k, int) and 0 <= k <= array.factors:
            counters[key] += comb(array.factors, k)
    return count


def _rows(counters, args, kwargs, result, outer):
    if not outer or isinstance(result, Exception):
        return
    for attr in ("runs", "term_count", "order"):
        if hasattr(result, attr):
            counters["constructions.rows"] += getattr(result, attr)
            return


def _constraints(counters, args, kwargs, result, outer):
    if not isinstance(result, Exception):
        counters["phases.constraints"] += len(result.constraints)


def _fix_state(counters, args, kwargs, result, outer):
    if isinstance(result, Exception):
        if type(result).__name__ == "Unsupported":
            counters["phases.unsupported"] += 1
    elif repr(result) == "Infeasible":
        counters["phases.infeasible"] += 1
    else:
        counters["phases.repaired"] += 1


def _text_in(counters, args, kwargs, result, outer):
    counters["serialize.bytes"] += len(_arg(args, kwargs, 0, "text"))


def _text_out(counters, args, kwargs, result, outer):
    if isinstance(result, str):
        counters["serialize.bytes"] += len(result)


_COUNT_HOOKS = {
    "states.reduce": _reduce,
    "states.uniformity": _uniformity,
    "oa.verify_strength": _subsets("oa.verify_strength.subsets"),
    "oa.is_irredundant": _subsets("oa.is_irredundant.subsets"),
    "phases.constraint_system": _constraints,
    "phases.fix_state": _fix_state,
    "serialize.parse_oa_file": _text_in,
    "serialize.parse_ket": _text_in,
    "serialize.write_oa_file": _text_out,
    "serialize.write_ket": _text_out,
}
_COUNT_HOOKS.update({f"constructions.{name}": _rows for name in (
    "sylvester", "paley_type1", "kron", "normalize", "hadamard",
    "hadamard_to_oa", "rao_oa", "bush_oa", "bush_extended_oa",
    "hadamard_two_uniform_state")})
