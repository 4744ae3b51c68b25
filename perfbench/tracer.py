"""Per-layer tracing from outside the package.

`Tracer.install` wraps the functions named in layers.json and rebinds
every reference to them that foliavg holds: module globals (a function
imported into several modules is bound in each), class attributes and
their aliases (``__radd__ = __add__``), static methods, properties, and
the stage runners in ``scenarios._STAGES``.  ``uninstall`` puts the
originals back.

A span's self time is its duration minus the durations of the spans it
directly encloses, so recursion (``_det``, ``_expand_harmonic``) is never
counted twice.  Ring-layer (symcalc) calls number in the millions, so they
are aggregated only; spans of every other layer are kept in memory and
written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())
RING = "symcalc"
STAGE_PREFIX = "scenarios.stage."


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in layers.json order."""
    names = []
    for group in LAYERS["groups"]:
        for fn in group.get("spans", ()):
            names += [f"{group['module']}.{fn}.calls", f"{group['module']}.{fn}.self_s"]
        names += [f"{group['module']}.{fn}.calls" for fn in group.get("counts", ())]
    names.append("symcalc.peak_terms")
    for fn in LAYERS["per_run"]["functions"]:
        names += [f"{fn}.per_run.check", f"{fn}.per_run.average"]
    from foliavg.scenarios import STAGE_NAMES

    names += [f"{STAGE_PREFIX}{stage}.s" for stage in STAGE_NAMES]
    names.append("trace_overhead_s")
    return names


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.peak_terms = 0
        # Open spans: [span index or None, ns covered by direct children].
        self._stack: list[list] = []
        # Kept spans: [name, parent index, root index, start ns, end ns].
        self.spans: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self._bound: set[int] = set()
        self._ops: dict[str, object] = {}

    # ------------------------------------------------------------------
    # wrappers

    def _counter(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, name: str, fn, keep: bool, ring: bool):
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        calls[name] = self_ns[name] = total_ns[name] = 0
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if keep:
                index = len(spans)
                parent = stack[-1][0] if stack else None
                root = spans[parent][2] if parent is not None else index
                record = [name, parent, root, 0, 0]
                spans.append(record)
            else:
                index = stack[-1][0] if stack else None
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[1]
                total_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
                if keep:
                    record[3], record[4] = start, end
            if ring:
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > self.peak_terms:
                    self.peak_terms = len(terms)
            return result

        return spanned

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a kept span named name, e.g. one benchmark operation."""
        if name not in self._ops:
            self._ops[name] = self._spanner(name, lambda f, *a: f(*a), keep=True, ring=False)
        return self._ops[name](fn, *args)

    # ------------------------------------------------------------------
    # installing

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "foliavg" or n.startswith("foliavg.")
        ]
        replace: dict[int, object] = {}
        for group in LAYERS["groups"]:
            module = importlib.import_module(f"foliavg.{group['module']}")
            for kind in ("spans", "counts"):
                for fn_name in group.get(kind, ()):
                    name = f"{group['module']}.{fn_name}"
                    original = _resolve(module, fn_name)
                    if kind == "counts":
                        replace[id(original)] = self._counter(name, original)
                    else:
                        replace[id(original)] = self._spanner(
                            name, original,
                            keep=group["module"] != RING, ring=group["module"] == RING,
                        )
        for module in modules:
            for attr, value in list(vars(module).items()):
                self._rebind(module, attr, value, replace)
                if isinstance(value, type) and value.__module__.startswith("foliavg"):
                    for cattr, cvalue in list(vars(value).items()):
                        self._rebind(value, cattr, cvalue, replace)
        scenarios = importlib.import_module("foliavg.scenarios")
        stages = tuple(
            (stage, needs, self._spanner(f"{STAGE_PREFIX}{stage}", runner, keep=True, ring=False))
            for stage, needs, runner in scenarios._STAGES
        )
        self._set(scenarios, "_STAGES", stages)
        unbound = sorted(w.__qualname__ for i, w in replace.items() if i not in self._bound)
        if unbound:
            raise RuntimeError(f"no reference to rebind for {unbound}")

    def _rebind(self, owner, attr: str, value, replace: dict[int, object]) -> None:
        if isinstance(value, staticmethod):
            key, make = id(value.__func__), staticmethod
        elif isinstance(value, property):
            key = id(value.fget)
            make = lambda w: property(w, value.fset, value.fdel, value.__doc__)  # noqa: E731
        else:
            key, make = id(value), lambda w: w  # noqa: E731
        if key in replace:
            self._bound.add(key)
            self._set(owner, attr, make(replace[key]))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _resolve(module, dotted: str):
    """The plain function behind module.dotted, unwrapping staticmethod and property."""
    owner, _, attr = dotted.rpartition(".")
    target = vars(getattr(module, owner)) if owner else vars(module)
    value = target[attr]
    if isinstance(value, staticmethod):
        return value.__func__
    if isinstance(value, property):
        return value.fget
    return value
