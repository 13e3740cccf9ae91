"""Spans around the library's layers, recorded from outside the library.

``Tracer.installed()`` replaces each target function, in the module that
calls it, by a wrapper that records a span (name, start, end, parent, op),
and replaces ``FieldVector.__add__`` by a counting wrapper.  On exit every
original object is put back.  A target that no longer exists is skipped, so a
layer that a later change removes from the hot path reports zero calls.

Span names are ``<layer>.<function>``; the layer is the module the work
belongs to.  A span's self time is its duration minus the durations of its
child spans (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module that calls the function, attribute name, span name)
TARGETS = (
    ("sumsetcover", "decompose", "decompose.pipeline"),
    ("sumsetcover", "verify_decomposition", "decompose.verify"),
    ("sumsetcover", "greedy_decomposition", "oracle.greedy"),
    ("sumsetcover", "oracle_min_decomposition", "oracle.exhaustive"),
    ("sumsetcover.decompose", "run_pipeline", "decompose.pipeline"),
    ("sumsetcover.decompose", "choose_degree", "monomials.choose_degree"),
    ("sumsetcover.decompose", "build_vanishing_space", "vanishing.build"),
    ("sumsetcover.decompose", "sum_matrix", "summatrix.sum_matrix"),
    ("sumsetcover.decompose", "pivot_basis", "cover.pivot_basis"),
    ("sumsetcover.decompose", "line_cover", "cover.line_cover"),
    ("sumsetcover.decompose", "sumset", "field.sumset"),
    ("sumsetcover.vanishing", "sumset", "field.sumset"),
    ("sumsetcover.vanishing", "complement", "field.complement"),
    ("sumsetcover.vanishing", "enumerate_monomials", "monomials.enumerate"),
    ("sumsetcover.vanishing", "null_space", "linalg.null_space"),
    ("sumsetcover.oracle", "sumset", "field.sumset"),
    ("sumsetcover.cli", "run_command", "cli.report"),
    ("sumsetcover.cli", "run_pipeline", "decompose.pipeline"),
    ("sumsetcover.cli", "decompose", "decompose.pipeline"),
    ("sumsetcover.cli", "verify_decomposition", "decompose.verify"),
    ("sumsetcover.cli", "choose_degree", "monomials.choose_degree"),
    ("sumsetcover.cli", "sumset", "field.sumset"),
    ("sumsetcover.cli", "clp_decompose", "summatrix.clp"),
    ("sumsetcover.cli", "clp_reconstruct", "summatrix.clp"),
    ("sumsetcover.cli", "matrix_rank", "linalg.matrix_rank"),
)

# The op itself: the benchmark's code around the library calls, which
# includes building PointSet values from coordinate tuples.
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or None, op index]
        self.spans: list[list] = []
        self.vector_adds = 0
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one op; spans opened inside it carry its index."""
        self._op = index
        with self._span(OP_SPAN):
            yield

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def _count_adds(self, add):
        tracer = self

        @functools.wraps(add)
        def counted(self_, other):
            tracer.vector_adds += 1
            return add(self_, other)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore all originals on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if callable(original):
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name))
            vector = getattr(importlib.import_module("sumsetcover.field"), "FieldVector", None)
            add = vector.__dict__.get("__add__") if vector is not None else None
            if add is not None:
                saved.append((vector, "__add__", add))
                vector.__add__ = self._count_adds(add)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")
