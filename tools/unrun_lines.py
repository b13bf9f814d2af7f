#!/usr/bin/env python3
"""List the statements inside src/ functions that no test ran.

Run from anywhere; the arguments go to pytest as they are (default: the
whole tests/ directory, quietly):

    python3 tools/unrun_lines.py
    python3 tools/unrun_lines.py -q tests/test_ops.py -k dense

pytest runs in this interpreter, with a plugin that traces lines through
the standard library's sys.settrace (and threading.settrace, for threads
that tests start) in the package under src/ only, which is put first on
sys.path. After the session, each src/fisherprune file's unrun statements
are printed as `src/fisherprune/FILE.py:LINE: first line of the statement`,
then a total. Only statements inside functions count. Docstrings and
`nonlocal`/`global` raise no line event, so they are skipped, and so is a
`try:` line (its body is listed statement by statement). A statement
counts as run when any line of it, or of a compound statement's header
(decorators included), raised a line event. Work done in subprocesses (the
CLI and tooling tests that start one) is not seen, so the list is an upper
bound. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fisherprune")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SKIPPED = (ast.Nonlocal, ast.Global, ast.Try)


def statement_spans(tree):
    """(first line, last line of its header or of itself) of every
    statement inside a function, docstrings and SKIPPED kinds left out."""
    spans = []

    def visit(body, in_function):
        for k, node in enumerate(body):
            if k == 0 and isinstance(node, ast.Expr) and isinstance(
                    node.value, ast.Constant) and isinstance(node.value.value, str):
                continue  # a docstring, or a bare string: no line event
            inner = [getattr(node, name) for name in
                     ("body", "orelse", "finalbody", "handlers", "cases")
                     if isinstance(getattr(node, name, None), list)]
            if in_function and not isinstance(node, SKIPPED):
                first = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                children = [child.lineno for block in inner for child in block]
                last = min(children) - 1 if children else node.end_lineno
                spans.append((first, max(first, last)))
            for block in inner:
                for child in block:
                    if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                        visit(child.body, in_function)
                visit([c for c in block if isinstance(c, ast.stmt)],
                      in_function or isinstance(node, FUNCTIONS))

    visit(tree.body, False)
    return spans


class LineTracer:
    """A pytest plugin that records (file, line) of every line event in the
    package's own files between session start and finish."""

    def __init__(self, files):
        self.files = set(files)
        self.mine = {}  # co_filename -> whether it is one of self.files
        self.hit = set()

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        mine = self.mine.get(name)
        if mine is None:
            mine = self.mine[name] = os.path.abspath(name) in self.files
        return self._line if mine else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hit.add((os.path.abspath(frame.f_code.co_filename), frame.f_lineno))
        return self._line

    def pytest_sessionstart(self, session):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        threading.settrace(None)


def unrun(path, hit):
    """(line, text) of each statement of path that no line event reached."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    return [(first, lines[first - 1].strip())
            for first, last in statement_spans(ast.parse(text, path))
            if not any((path, n) in hit for n in range(first, last + 1))]


def main(argv):
    import pytest

    sys.path.insert(0, SRC)
    files = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    tracer = LineTracer(files)
    status = pytest.main(argv or ["-q", os.path.join(ROOT, "tests")], plugins=[tracer])
    total, shown = 0, 0
    for path in files:
        found = unrun(path, tracer.hit)
        rel = os.path.relpath(path, ROOT)
        for line, text in found:
            print(f"{rel}:{line}: {text}")
        total += len(found)
        shown += bool(found)
    print(f"{total} unrun statements in functions, in {shown} of {len(files)} files")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
