"""In-memory span tracing by rebinding the package's public functions.

A :class:`Tracer` replaces every public function of the layer modules
(``core``, ``scan``, ``verify``, ``decompose``, ``cli``) with a wrapper
that records a span, and rebinds the wrapper under every name that
held the original in those modules and in the package itself, so that
calls between modules are traced too.  Spans live in a list and are
written out once, after the run.  Nothing inside ``src/`` changes.

A span is ``(span_id, parent_id, op_id, name, start, end)``; ``name``
is ``<layer>.<function>``; ``op_id`` identifies the benchmark item the
span belongs to.  Self time is a span's duration minus the durations
of its direct children (calls nest, so children never overlap).
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "scan", "verify", "decompose", "cli")


def layer_functions(lib_modules):
    """Map ``layer.name`` to each public function defined in a layer module."""
    out = {}
    for layer in LAYERS:
        module = lib_modules[layer]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                out[f"{layer}.{name}"] = obj
    return out


class Rebinder:
    """Replace function objects by identity in a set of modules, and undo it."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []

    def install(self, replacements):
        """``replacements`` maps id(original) to the replacement callable."""
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self.saved.append((module, name, obj))
                    setattr(module, name, new)

    def restore(self):
        for module, name, obj in reversed(self.saved):
            setattr(module, name, obj)
        self.saved.clear()


def mask_width(ground, params) -> int:
    """Bits in the engine's final mask: h*span + 1 over Z, p over Z/p."""
    if ground.modulus is not None:
        return ground.modulus
    return params.h * (ground.elements[-1] - ground.elements[0]) + 1


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, lib_modules):
        self.targets = layer_functions(lib_modules)
        self.rebinder = Rebinder(list(lib_modules.values()))
        self.spans = []
        self.stack = []
        self.op_id = 0
        self.mask_bits = 0

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        sid, parent = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, perf_counter())

    def _open(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self.stack.pop()
        self.spans[sid] = (sid, parent, self.op_id, name, start, end)

    def _wrap(self, name, fn):
        tracer = self
        engine = name == "core.generalized_sumset"

        def traced(*args, **kwargs):
            if engine:
                tracer.mask_bits += mask_width(*args, **kwargs)
            sid, parent = tracer._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.rebinder.install(
            {id(fn): self._wrap(name, fn) for name, fn in self.targets.items()}
        )

    def uninstall(self):
        self.rebinder.restore()

    def summary(self):
        """Per-name call counts, total and self seconds."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]
        return calls, total, self_s

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

