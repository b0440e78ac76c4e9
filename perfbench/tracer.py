"""Outside-in span tracer for the hsidenoise package.

The package imports names directly (``from .diffops import diff_forward``),
so a call from the solver looks ``diff_forward`` up in the solver module's
own namespace.  Wrapping the defining module alone would miss it.  The
tracer therefore finds every module-level function the package defines and
replaces it in *every* package namespace that binds it, with one wrapper
per function.  Nothing under ``src/`` is edited; ``restore`` puts the
original objects back.

Each call becomes a span: name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans stay in memory until the run ends
and are written out once.  ``io.read_cube`` calls also record the
tracemalloc peak of the call, so its transient memory can be compared with
the array it returns.
"""

import os
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# modules whose own functions are not wrapped: the command line layer is
# timed by the benchmark's own ``cli.<command>`` spans around ``cli.main``,
# so its parsing, config echo and report serialization land in those spans'
# self time
_UNWRAPPED_MODULES = ("hsidenoise.cli", "hsidenoise.__main__")
_OUTSIDE_SWEEPS = {"solver.initialize_state", "solver.objective_terms"}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top level
    op: int
    start: float
    end: float = float("nan")
    alloc_peak: int = -1  # io.read_cube: tracemalloc peak of the call, bytes
    nbytes: int = -1  # io.read_cube: bytes returned; io.write_cube: bytes written


def span_name(fn):
    """Layer-qualified name: ``hsidenoise.solver._check_finite`` -> ``solver.check_finite``."""
    module = fn.__module__.split(".", 1)[1]
    return f"{module}.{fn.__name__.lstrip('_')}"


class Tracer:
    """Records spans for one benchmark run; install, run, restore, summarize."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, self.op, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def _wrap(self, fn):
        name = span_name(fn)
        tracer = self

        if name == "io.read_cube":

            def traced(*args, **kwargs):
                index = tracer.open(name)
                tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                    tracer.spans[index].nbytes = result.nbytes
                    return result
                finally:
                    tracer.spans[index].alloc_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.close(index)

        elif name == "io.write_cube":

            def traced(cube, path, *args, **kwargs):
                index = tracer.open(name)
                try:
                    fn(cube, path, *args, **kwargs)
                    tracer.spans[index].nbytes = os.path.getsize(path)
                finally:
                    tracer.close(index)

        else:

            def traced(*args, **kwargs):
                index = tracer.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every hsidenoise function in every hsidenoise namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "hsidenoise" or name.startswith("hsidenoise.")) and m is not None
        ]
        targets = {}
        for module in modules:
            if module.__name__ in _UNWRAPPED_MODULES:
                continue
            for value in vars(module).values():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and id(value) not in targets
                ):
                    targets[id(value)] = self._wrap(value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return len(targets)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op,span,parent,name,start_s,end_s\n")
            for index, s in enumerate(self.spans):
                handle.write(f"{s.op},{index},{s.parent},{s.name},{s.start!r},{s.end!r}\n")


class SpanTable:
    """Per-function aggregates of a finished trace."""

    def __init__(self, spans):
        self.spans = spans
        child_time = np.zeros(len(spans))
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self.self_s = np.array([s.end - s.start for s in spans]) - child_time
        self.by_name = defaultdict(list)
        for index, s in enumerate(spans):
            self.by_name[s.name].append(index)

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total_s(self, name):
        return sum(self.spans[i].end - self.spans[i].start for i in self.by_name.get(name, ()))

    def self_total_s(self, name):
        return float(sum(self.self_s[i] for i in self.by_name.get(name, ())))

    def median_ms(self, name):
        """Median inclusive time per call in ms (0.0 if never called)."""
        times = [self.spans[i].end - self.spans[i].start for i in self.by_name.get(name, ())]
        return 1e3 * float(np.median(times)) if times else 0.0

    def median_self_ms(self, name):
        times = [self.self_s[i] for i in self.by_name.get(name, ())]
        return 1e3 * float(np.median(times)) if times else 0.0

    def ancestors(self, index):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def in_sweeps(self, name):
        """Spans of ``name`` made by a solve's sweep loop: under ``solver.solve``
        but not under its one-off set-up (``initialize_state``) or closing
        objective evaluation (``objective_terms``)."""
        for index in self.by_name.get(name, ()):
            chain = set(self.ancestors(index))
            if "solver.solve" in chain and not chain & _OUTSIDE_SWEEPS:
                yield index

    def calls_in_sweeps(self, name):
        return sum(1 for _ in self.in_sweeps(name))

    def sweep_self_s(self, name):
        return float(sum(self.self_s[i] for i in self.in_sweeps(name)))

    def self_by_name_under(self, root):
        """Self seconds per function over every span inside ``root`` spans, root included."""
        totals = defaultdict(float)
        for index, s in enumerate(self.spans):
            if s.name == root or root in self.ancestors(index):
                totals[s.name] += float(self.self_s[index])
        return dict(totals)
