"""Span tracer for the layers of the cp2ricci package.

A layer is a package module (``frames``, ``shape``, ``curvature``,
``exact.mpoly``, ...).  ``Tracer.installed()`` wraps every public function
defined in a layer and rebinds the wrapper at every place the package binds
the original: the defining module, every module that imported the name (for
example ``build_frame`` in both ``frames`` and ``shape``), and module-level
dicts such as ``exact.checks.ALL_CHECKS``.  Without the rebinding a call made
through an imported name would bypass its span and its time would be
misattributed to the caller.  Charts returned by the ``charts`` factories to
callers outside ``charts`` get traced ``evaluate``, ``partials`` and
``is_singular`` callables.  Two hot
constructors are counted without spans, because a span per call would cost
more than the call: ``AmbientVector`` construction and ``MPoly``
multiplication.

Each span carries a name, start, end, parent span and iteration id.  Spans
are kept in memory in flat arrays and can be written out with ``save``.  On
leaving ``installed()`` every original binding is restored, so untraced
timing runs the unwrapped functions.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

PACKAGE = "cp2ricci"

# (module, class, attributes, counter name): calls counted without spans.
COUNTED = [
    ("cp2ricci.ambient", "AmbientVector", ("__post_init__",), "ambient.vectors"),
    ("cp2ricci.exact.mpoly", "MPoly", ("__mul__", "__rmul__"), "exact.mpoly.mul"),
]


def _layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """Records spans and counts for calls into the package's layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.iteration = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised: dict[int, str] = {}  # span index -> exception class name
        self.counts: dict[tuple[int, str], int] = {}  # (iteration, counter) -> calls
        self.current_iteration = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, Any, Any]] = []  # (owner, key, original)

    # -- wrapping ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span_wrapper(self, fn: Callable, name: str, post: Callable | None = None) -> Callable:
        """``fn`` wrapped to record one span named ``name`` per call."""
        nid = self._id(name)
        tracer, stack, clock = self, self._stack, time.perf_counter
        names, parents, iters = self.name_id, self.parent, self.iteration
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            iters.append(tracer.current_iteration)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                tracer.raised[i] = type(exc).__name__
                raise
            ends[i] = clock()
            stack.pop()
            return result if post is None else post(result)

        return traced

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer, counts = self, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (tracer.current_iteration, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _trace_chart(self, result: Any) -> Any:
        chart_type = sys.modules[f"{PACKAGE}.charts"].SurfaceChart
        if not isinstance(result, chart_type):
            return result
        if self._stack and self.names[self.name_id[self._stack[-1]]].startswith("charts."):
            return result  # a chart built inside another chart is part of its work
        return dataclasses.replace(
            result,
            evaluate=self.span_wrapper(result.evaluate, "charts.evaluate"),
            partials=self.span_wrapper(result.partials, "charts.partials"),
            is_singular=self.span_wrapper(result.is_singular, "charts.is_singular"),
        )

    def _patch(self, owner: Any, key: Any, new: Any) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    @property
    def patches(self) -> list[tuple[Any, Any, Any]]:
        """(owner, key, original) for every binding replaced by ``install``."""
        return list(self._patches)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        wrappers: dict[Callable, Callable] = {}
        for mod in modules:
            layer = mod.__name__[len(PACKAGE) + 1 :]
            for attr, obj in vars(mod).items():
                if (
                    layer
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    post = self._trace_chart if layer == "charts" else None
                    wrappers[obj] = self.span_wrapper(obj, f"{layer}.{attr}", post)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        for module_name, class_name, attrs, counter in COUNTED:
            cls = getattr(sys.modules[module_name], class_name)
            counted: dict[Callable, Callable] = {}
            for attr in attrs:
                fn = vars(cls)[attr]
                if fn not in counted:
                    counted[fn] = self._count_wrapper(fn, counter)
                self._patch(cls, attr, counted[fn])

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- analysis --------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        raised = np.full(len(self.start), "", dtype=object)
        for i, exc in self.raised.items():
            raised[i] = exc
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            iteration=np.array(self.iteration, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            raised=raised.astype(str),
        )

    def analysis(self) -> "SpanAnalysis":
        return SpanAnalysis(self)


class SpanAnalysis:
    """Self times, call counts and exception exits derived from the spans.

    * exclusive time of a span: its duration minus its direct children's;
    * in-layer time of a span: its duration minus the time spent in spans of
      other layers below it (same-layer descendants stay included);
    * a call of function F counts when its parent span is not also F, so
      recursion (``cofactor_det``) counts once.
    """

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer.start)
        self.names = list(tracer.names)
        self.name_id = np.array(tracer.name_id, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.iteration = np.array(tracer.iteration, dtype=np.int64)
        self.duration = np.array(tracer.end) - np.array(tracer.start)
        self.raised = dict(tracer.raised)
        self.counts = dict(tracer.counts)
        layers = sorted({_layer_of(s) for s in self.names})
        layer_index = {layer: k for k, layer in enumerate(layers)}
        self.layers = layers
        name_layer = np.array([layer_index[_layer_of(s)] for s in self.names], dtype=np.int64)
        self.layer_id = name_layer[self.name_id] if n else np.zeros(0, np.int64)

        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=n
        )
        self.exclusive = self.duration - child_time
        # Children are opened after their parents, so a reverse sweep sees
        # every child before its parent.
        foreign = [0.0] * n
        parent, layer, duration = self.parent.tolist(), self.layer_id.tolist(), self.duration.tolist()
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                foreign[p] += foreign[i] if layer[p] == layer[i] else duration[i]
        self.in_layer = self.duration - np.array(foreign)
        parent_name = np.where(has_parent, self.name_id[np.maximum(self.parent, 0)], -1)
        self.outermost = parent_name != self.name_id
        parent_layer = np.where(has_parent, self.layer_id[np.maximum(self.parent, 0)], -1)
        self.layer_boundary = parent_layer != self.layer_id

    def _mask(self, name: str | None = None, layer: str | None = None, iteration: int | None = None):
        mask = np.ones(len(self.duration), dtype=bool)
        if name is not None:
            if name not in self.names:
                return np.zeros_like(mask)
            mask &= self.name_id == self.names.index(name)
        if layer is not None:
            if layer not in self.layers:
                return np.zeros_like(mask)
            mask &= self.layer_id == self.layers.index(layer)
        if iteration is not None:
            mask &= self.iteration == iteration
        return mask

    def calls(self, name: str, iteration: int | None = None) -> int:
        return int(np.sum(self._mask(name=name, iteration=iteration) & self.outermost))

    def layer_self(self, layer: str, iteration: int | None = None) -> float:
        """Seconds spent in ``layer`` itself, excluding every layer it calls."""
        return float(np.sum(self.exclusive[self._mask(layer=layer, iteration=iteration)]))

    def function_self(self, name: str, iteration: int | None = None) -> float:
        """Seconds inside ``name`` spent in its own layer, same-layer callees
        included and other layers excluded."""
        mask = self._mask(name=name, iteration=iteration) & self.outermost
        return float(np.sum(self.in_layer[mask]))

    def inclusive(self, name: str, iteration: int | None = None) -> float:
        mask = self._mask(name=name, iteration=iteration) & self.outermost
        return float(np.sum(self.duration[mask]))

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name=name) & self.outermost]

    def exits(self, layer: str, exception: str, iteration: int | None = None) -> int:
        """Calls into ``layer`` from outside it that raised ``exception``."""
        mask = self._mask(layer=layer, iteration=iteration) & self.layer_boundary
        return sum(1 for i, exc in self.raised.items() if exc == exception and mask[i])

    def count(self, counter: str, iteration: int | None = None) -> int:
        return sum(
            v for (it, name), v in self.counts.items()
            if name == counter and (iteration is None or it == iteration)
        )
