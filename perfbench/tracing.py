"""In-memory spans around pumplimit's module boundaries, for the traced run.

``Tracer.install()`` replaces each function in ``SPANNED`` by a wrapper that
records a span ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the benchmark
operation the span belongs to.  The wrapper is bound wherever a pumplimit
module holds the function, since ``from .x import f`` copies the binding.
Calls to numpy's Hermitian eigensolvers and SVD are counted, not spanned.
Nothing under ``src/`` is edited; ``uninstall()`` restores every binding.

Spans live only in the process that installs the tracer: spans recorded in
forked pool workers are lost with the worker.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

#: (module, function) pairs wrapped with a span; the module is the layer
SPANNED = (
    ("cli", "main"),
    ("sweep", "sweep_to_csv"),
    ("sweep", "verify_csv"),
    ("sweep", "load_csv"),
    ("sweep", "verify_bounds"),
    ("sweep", "_evaluate"),
    ("sweep", "_draw_columns"),
    ("sweep", "_render_csv"),
    ("sweep", "_accumulate"),
    ("sweep", "_records_from_batch"),
    ("sweep", "_columns_from_csv"),
    ("scheme", "_density_stack"),
    ("scheme", "_validate_built"),
    ("scheme", "build_density_matrix"),
    ("scheme", "build_density_matrix_oracle"),
    ("twoqubit", "_wootters_stack"),
    ("twoqubit", "concurrence"),
    ("channels", "apply_channel"),
    ("channels", "is_majorized_by"),
    ("polarization", "embed_pump"),
    ("linalg", "validate_density_matrix"),
)

#: numpy.linalg functions whose 4x4 inputs are counted
COUNTED = ("eigh", "eigvalsh", "svd")


class Tracer:
    """Span recorder; install around the traced window only."""

    def __init__(self):
        self.spans: list[list] = []
        self.eig_mats = 0
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        self.missing.clear()
        for module_name, fn_name in SPANNED:
            name = f"{module_name}.{fn_name}"
            fn = getattr(sys.modules.get(f"pumplimit.{module_name}"), fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
            self._rebind(fn, wrap(name, fn))
        for fn_name in COUNTED:
            fn = getattr(np.linalg, fn_name)
            self._undo.append((np.linalg, fn_name, fn))
            setattr(np.linalg, fn_name, self._count(fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, fn, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "pumplimit" and not module_name.startswith("pumplimit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _wrap_generator(self, name, fn):
        # one span per step, so the consumer's work between steps is not counted
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self._wrap(name, functools.partial(next, fn(*args, **kwargs)))
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            if shape[-2:] == (4, 4):
                self.eig_mats += int(np.prod(shape[:-2], dtype=np.int64))
            return fn(a, *args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per span name and per (name, parent name): calls, total and self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            for key in (name, (name, parent_name)):
                calls, total, own = out.get(key, (0, 0, 0))
                duration = end - start
                out[key] = (calls + 1, total + duration, own + duration - child_ns[index])
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
