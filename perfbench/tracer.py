"""In-memory span tracer for the benchmark's traced runs.

A span has a name, start and end (perf_counter ns), the index of the span
that was open when it started (its parent) and the root phase it belongs
to ("setup" or "job"). Self time is the span's duration minus the part its
child spans cover. Spans stay in memory and are written out once, when the
run ends.

`instrument` wraps the listed public functions of the fisherprune package in
every module namespace that binds them: `from .train import retrain` copies
the binding into `prune` and `cli`, so patching `fisherprune.train` alone
would miss those call sites. A function that does not exist is recorded in
`Tracer.missing` and its metrics are reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import sys
import time

def _children_cpu_ns():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child_ns",
                 "self_ns", "attrs", "child_cpu0", "frame")

    def __init__(self, name, start, parent, root, attrs, frame):
        self.name = name
        self.start = start
        self.end = 0
        self.parent = parent
        self.root = root
        self.child_ns = 0
        self.self_ns = 0
        self.attrs = attrs
        self.child_cpu0 = 0
        self.frame = frame

    @property
    def dur_ns(self):
        return self.end - self.start


class Tracer:
    """Records spans while `enabled`; wrappers call straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []  # open Span objects, innermost last
        self.enabled = False
        self.missing = []  # "module.function" names that could not be wrapped
        self.untraced_ns = {}  # root -> wall time covered by child-process work

    # -- span bookkeeping -------------------------------------------------
    def open(self, name, attrs=None, frame=None):
        parent = self.stack[-1] if self.stack else None
        root = parent.root if parent is not None else name
        span = Span(name, 0, parent, root, attrs, frame)
        span.child_cpu0 = _children_cpu_ns()
        self.stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span):
        span.end = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        dur = span.end - span.start
        own = dur - span.child_ns
        # Work done in child processes is not visible as spans; count its
        # CPU time (bounded by the wall time left) as untraced, not as self.
        child_cpu = _children_cpu_ns() - span.child_cpu0
        hidden = min(max(own, 0), max(child_cpu, 0))
        self.untraced_ns[span.root] = self.untraced_ns.get(span.root, 0) + hidden
        span.self_ns = own - hidden
        if span.parent is not None:
            span.parent.child_ns += dur
            span.parent.child_cpu0 += child_cpu
        self.spans.append(span)

    @contextlib.contextmanager
    def phase(self, name):
        """A root span ("setup" or "job") around the block, when enabled."""
        span = self.open(name) if self.enabled else None
        try:
            yield
        finally:
            if span is not None:
                self.close(span)

    def frame(self):
        """Innermost open span that carries a layer-ordinal frame."""
        for span in reversed(self.stack):
            if span.frame is not None:
                return span.frame
        return None

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, namer, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or not tracer.stack:
                return fn(*args, **kwargs)
            name, attrs, frame = namer(tracer, args, kwargs)
            span = tracer.open(name, attrs, frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def instrument(self, module_name, func_name, namer, on_result=None):
        """Replace module.func in every fisherprune namespace that binds it.

        Returns False, and records the name in `missing`, when the function
        does not exist.
        """
        module = sys.modules.get(module_name)
        original = getattr(module, func_name, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{func_name}")
            return False
        if getattr(original, "__wrapped_by_tracer__", False):
            return True
        wrapper = self.wrap(original, namer, on_result)
        for name, mod in list(sys.modules.items()):
            if name != "fisherprune" and not name.startswith("fisherprune."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
        return True

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "self_ns": s.self_ns, "root": s.root,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                }) + "\n")
