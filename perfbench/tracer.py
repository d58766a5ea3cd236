"""Spans and counters around condjust's public functions, installed from outside.

The tracer replaces a public function under every name that a condjust module
looks it up by at call time (``condjust.falsifier.kripke_eval`` is the same
object as ``condjust.kripke_models.eval``), so calls made inside the package
are recorded as well as calls made by the benchmark. ``uninstall`` puts every
original object back. Spans live in flat arrays until the run ends; a direct
recursive call of a wrapped function stays inside its caller's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import random
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs that get a span; the module is the one that
# defines the function. cli has no row: its cost is import and argv parsing.
LAYER_FUNCTIONS = {
    "syntax": ("parse_formula", "print_formula", "closure"),
    "kripke_models": ("eval", "valid_in_model", "check_conditions"),
    "routley_models": ("eval_jrc", "check_jrc_conditions"),
    "tableau": ("prove", "verify_result", "extract_model"),
    "hilbert": ("check_derivation", "match_axiom", "internalize",
                "parse_derivation"),
    "falsifier": ("find_countermodel", "cross_check", "sample_models",
                  "iter_kripke_models"),
}

CONDITION_IDS = ("1", "2", "3", "4", "5", "5p", "6", "7", "8", "9")

COUNTERS = (
    "tableau.closed", "tableau.open", "tableau.exhausted",
    "tableau.closed_steps", "hilbert.rejected_lines",
    "falsifier.models_built", "falsifier.condition_checks", "falsifier.found",
)

# check_conditions calls kept for the per-condition replay; a reservoir
# sample beyond this many keeps memory flat on the search workloads
REPLAY_CAP = 2048


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns]


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "condjust" or name.startswith("condjust."))]


class Tracer:
    """Span recorder; ``install`` patches condjust, ``uninstall`` restores it."""

    def __init__(self, seed: int = 0):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        self.counts: Counter = Counter({k: 0 for k in COUNTERS})
        self.condition_calls: list[tuple] = []
        self.condition_calls_seen = 0
        self._rng = random.Random(seed)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self._stack_names.append(self.name_of[i])
        self.start[i] = time.perf_counter()
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._stack_names.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span called name; after(args, result) runs once it ends.
        A generator function gets one span per step instead."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = self._name_id(name)
        clock = time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, stack_names = self._stack, self._stack_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_names and stack_names[-1] == nid:
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            stack_names.append(nid)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                stack_names.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                span = self.open(name)
                try:
                    value = next(steps)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                yield value

        return traced

    # -- counters ----------------------------------------------------------------

    def _after_prove(self, args, kwargs, r) -> None:
        kind = type(r).__name__.lower()
        self.counts[f"tableau.{kind}"] += 1
        if kind == "closed":
            self.counts["tableau.closed_steps"] += r.steps

    def _after_check_derivation(self, args, kwargs, r) -> None:
        if not r.ok:
            self.counts["hilbert.rejected_lines"] += 1

    def _after_find_countermodel(self, args, kwargs, r) -> None:
        if r is not None:
            self.counts["falsifier.found"] += 1

    def _after_check_conditions(self, args, kwargs, r) -> None:
        # reservoir sample of the calls, replayed per condition afterwards
        self.condition_calls_seen += 1
        call = (args, kwargs)
        if len(self.condition_calls) < REPLAY_CAP:
            self.condition_calls.append(call)
        else:
            j = self._rng.randrange(self.condition_calls_seen)
            if j < REPLAY_CAP:
                self.condition_calls[j] = call

    def _counting(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------------

    def _set(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        after = {
            "tableau.prove": self._after_prove,
            "hilbert.check_derivation": self._after_check_derivation,
            "falsifier.find_countermodel": self._after_find_countermodel,
            "kripke_models.check_conditions": self._after_check_conditions,
        }
        falsifier = importlib.import_module("condjust.falsifier")
        for modname, fns in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"condjust.{modname}")
            for fn_name in fns:
                name = f"{modname}.{fn_name}"
                original = getattr(home, fn_name)
                wrapped = self.wrap(name, original, after.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is not original:
                            continue
                        if module is falsifier and fn_name in (
                                "check_conditions", "check_jrc_conditions"):
                            # condition checks run by the search itself
                            self._set(module, attr, self._counting(
                                "falsifier.condition_checks", wrapped))
                        else:
                            self._set(module, attr, wrapped)
        for cls in ("KripkeModel", "RoutleyModel"):
            self._set(falsifier, cls, self._counting(
                "falsifier.models_built", getattr(falsifier, cls)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (spans, self seconds). Self time is a span's duration
        minus the durations of its direct children."""
        if self._stack:
            raise RuntimeError("spans are still open")
        n = len(self.start)
        out = {name: (0, 0.0) for name in self.names}
        if not n:
            return out
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        selfs = np.bincount(name_of, weights=own, minlength=k)
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans once, as parallel arrays plus the name table."""
        np.savez(path,
                 names=np.array(self.names, dtype=object).astype(str),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def replay_conditions(tracer: Tracer, repeats: int = 3) -> dict[str, float]:
    """Seconds per condition id over the recorded check_conditions calls.

    Each recorded call is run with an empty profile and with each condition
    id of its profile alone, taking the fastest of `repeats` runs of each; a
    condition's cost is the difference, so the shared closure and sorting
    work is not counted against every condition. A condition with nothing to
    check can come out a few microseconds below zero. Sums over a reservoir
    sample are scaled up to the number of traced calls. Runs untraced, after
    the traced pass.
    """
    km = importlib.import_module("condjust.kripke_models")
    check, Profile = km.check_conditions, km.VariantProfile
    clock = time.perf_counter

    def fastest(m, profile, rest, kwargs) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = clock()
            check(m, profile, *rest, **kwargs)
            best = min(best, clock() - t0)
        return best

    totals = dict.fromkeys(CONDITION_IDS, 0.0)
    for args, kwargs in tracer.condition_calls:
        m, profile, *rest = args
        base = fastest(m, Profile(profile.name, (), profile.box_enabled), rest, kwargs)
        for cid in profile.conditions:
            one = Profile(profile.name, (cid,), profile.box_enabled)
            totals[cid] += fastest(m, one, rest, kwargs) - base
    kept = len(tracer.condition_calls)
    scale = tracer.condition_calls_seen / kept if kept else 0.0
    return {cid: s * scale for cid, s in totals.items()}
