"""List the functions of ``src/cnflow`` that no benchmark study runs.

    python3 scripts/trace_audit.py

It runs ``perfbench/workloads.prepare`` and ``study`` once per workload at
seed 0, with ``nse_incompatible`` on ``k_list`` = 0.02, 0.01, while
``sys.settrace`` and ``threading.settrace`` record the ``line`` events of
every frame whose file lies under ``src/cnflow`` (the coarse flow rows run on
a pool thread, which ``sys.settrace`` alone misses).  It then prints, as
``path:line name``, each ``def`` there none of whose body lines ran: a
candidate to delete with its tests, or to keep with a written reason.  An
unrun branch of a function that did run shows only in the line set, which
this does not print.

cnflow and perfbench are imported from this checkout; standard library
only.  The traced studies take a few minutes.
"""

import ast
import dataclasses
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cnflow"
SEED = 0
NSE_K_LIST = (0.02, 0.01)


def executed_lines(run, directory):
    """Call ``run()`` on this thread, and on any thread it starts, while
    recording the executed lines of frames whose file lies under
    ``directory``; returns ``{real path: set of line numbers}``."""
    recorded, inside = defaultdict(set), {}
    prefix = os.path.realpath(directory) + os.sep

    def local(frame, event, arg):
        if event == "line":
            recorded[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = defaultdict(set)
    for path, numbers in recorded.items():
        lines[os.path.realpath(path)] |= numbers
    return lines


def _body_lines(fn):
    """The lines of a def's own body: its statements after any docstring,
    without the bodies of the defs and classes nested in it.  A body that is
    only a docstring runs no line of its own, so such a def is always listed."""
    body = fn.body
    if (len(body) > 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
        body = body[1:]  # a docstring compiles to no line event
    lines = set()
    for stmt in body:
        lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    for node in ast.walk(fn):
        if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)):
            lines.difference_update(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def unrun_defs(source, executed):
    """``(dotted name, line)`` of each def in ``source`` with no body line in
    ``executed``, in source order; a nested def is named after its parents."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not _body_lines(child) & executed:
                    found.append((name, child.lineno))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def run_studies(out):
    """``workloads.prepare`` and ``study`` of every benchmark workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for workload in workloads.WORKLOADS:
        target = os.path.join(out, workload)
        os.makedirs(target)
        prepared = workloads.prepare(str(ROOT), workload, SEED, target)
        if workload == "nse_incompatible":
            prepared = dataclasses.replace(prepared, k_list=NSE_K_LIST)
        workloads.study(workload, prepared, target)


def main():
    with tempfile.TemporaryDirectory() as out:
        lines = executed_lines(lambda: run_studies(out), PACKAGE)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in unrun_defs(path.read_text(), lines[os.path.realpath(path)]):
            print(f"{path.relative_to(ROOT)}:{line} {name}")
            unrun += 1
    print(f"{unrun} defs under src/cnflow ran no body line")


if __name__ == "__main__":
    main()
