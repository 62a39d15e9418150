"""Spans and counters around biasbound's public API, installed from outside.

A ``Tracer`` replaces every public function and public method of the six
modules (``cli``, ``simulate``, ``divergence``, ``cgf``, ``bounds``,
``orlicz``) with a wrapper, and rebinds every module-level name that refers
to a replaced function, so calls made through ``from .x import f`` names are
seen too.  The package itself is not modified.

Spans are aggregated in memory as they close and read out once at the end:

* ``calls``: entries into a span group from outside it (a method that calls
  itself through ``super`` or a mixture that calls its components counts
  once);
* ``busy``: wall time while at least one span of the group is open;
* ``self``: span duration minus the time covered by its child spans.

Per-element methods are only counted, because a span around each of them
would cost more than the work: ``CgfEnvelope.evaluate`` (outermost calls,
i.e. objective evaluations), ``OrliczFunction.__call__`` (``psi``) and
``OrliczFunction.conjugate_value``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "simulate", "divergence", "cgf", "bounds", "orlicz")

# method names reported under another name: one group per decision
ALIASES = {
    "conjugate_numeric": "conjugate",
    "inverse_conjugate_numeric": "inverse_conjugate",
    "__call__": "psi",
}

# (layer, method) -> count only outermost calls (True) or every call (False)
COUNTED = {
    ("cgf", "evaluate"): True,
    ("orlicz", "__call__"): False,
    ("orlicz", "conjugate_value"): False,
}

# spans that also count the elements of their array argument
VALUE_COUNTED = {("simulate", "inverse_cdf")}


class Tracer:
    """Installs wrappers on import and aggregates spans per (layer, name)."""

    def __init__(self):
        self.groups = {}   # (layer, name) -> [calls, busy_ns, self_ns, depth, values]
        self.layers = {}   # layer -> [calls, busy_ns, depth]
        self._stack = [[0]]  # child-time accumulators of the open spans
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, layer, name):
        g = self.groups.setdefault((layer, name), [0, 0, 0, 0, 0])
        lay = self.layers.setdefault(layer, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        size = _size if (layer, name) in VALUE_COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if size is not None:
                g[4] += size(args[-1])  # the u of model.inverse_cdf(u)
            frame = [0]
            stack.append(frame)
            if g[3] == 0:
                g[0] += 1
            if lay[2] == 0:
                lay[0] += 1
            g[3] += 1
            lay[2] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][0] += d
                g[2] += d - frame[0]
                g[3] -= 1
                lay[2] -= 1
                if g[3] == 0:
                    g[1] += d
                if lay[2] == 0:
                    lay[1] += d
        return wrapper

    def _counter(self, fn, layer, name, outermost):
        g = self.groups.setdefault((layer, name), [0, 0, 0, 0, 0])
        if not outermost:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                g[0] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def counted_outermost(*args, **kwargs):
            if g[3] == 0:
                g[0] += 1
            g[3] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                g[3] -= 1
        return counted_outermost

    # -- installation -----------------------------------------------------

    def _wrap_method(self, cls, attr, raw, layer):
        name = ALIASES.get(attr, attr)
        if (layer, attr) in COUNTED:
            wrapped = self._counter(raw, layer, name, COUNTED[(layer, attr)])
        elif isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._span(raw.__func__, layer, name))
        elif inspect.isfunction(raw) and not attr.startswith("_"):
            wrapped = self._span(raw, layer, name)
        else:
            return
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def install(self) -> None:
        """Wrap the public API of every layer module and rebind references."""
        modules = {layer: importlib.import_module(f"biasbound.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._span(obj, layer, attr)
                elif inspect.isclass(obj):
                    for m_attr, raw in list(vars(obj).items()):
                        self._wrap_method(obj, m_attr, raw, layer)
        package = importlib.import_module("biasbound")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- read-out ---------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates as plain JSON: groups keyed ``layer.name`` and layers."""
        return {
            "groups": {f"{layer}.{name}": {"calls": g[0], "busy_ns": g[1],
                                           "self_ns": g[2], "values": g[4]}
                       for (layer, name), g in sorted(self.groups.items())},
            "layers": {layer: {"calls": v[0], "busy_ns": v[1]}
                       for layer, v in sorted(self.layers.items())},
        }


def _size(u) -> int:
    size = getattr(u, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(u)
    except TypeError:
        return 1
