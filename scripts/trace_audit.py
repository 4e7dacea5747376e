"""List the functions of ``src/cnflow`` that no benchmark study runs, and
the defaulted parameters that no study sets.

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

Before the studies run it maps the code of every function and method of the
cnflow modules (dataclass ``__init__``s included) to its signature defaults;
the ``call`` events of the same traced run record each defaulted parameter
passed a value other than its default (not identical, and not equal for a
number, ``str``, ``tuple`` or ``None``).  After the unrun defs it prints, as
``path:line function(param)``, each defaulted parameter of a function that
ran but that no traced call overrides: an option with one value in use, a
candidate to become a constant.

cnflow and perfbench are imported from this checkout; standard library
only.  The traced studies take a few minutes.
"""

import ast
import dataclasses
import importlib
import inspect
import numbers
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
# defaults compared by value: a caller that passes an equal one sets nothing
BY_VALUE = (numbers.Number, str, tuple, type(None))


def signature_defaults(modules):
    """``{code: (path, line, qualified name, {param: default})}`` for each
    function and method defined in ``modules`` that has a defaulted
    parameter.  A dataclass ``__init__`` is placed at its class."""
    found = {}
    for module in modules:
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                fn = getattr(fn, "__func__", fn)  # static and class methods
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                params = {name: p.default for name, p in inspect.signature(fn).parameters.items()
                          if p.default is not p.empty}
                if not params:
                    continue
                code = fn.__code__
                where = (code.co_filename, code.co_firstlineno)
                if not os.path.isfile(code.co_filename):  # generated by dataclasses
                    where = (inspect.getsourcefile(value), inspect.getsourcelines(value)[1])
                found[code] = (*where, fn.__qualname__, params)
    return found


def overrides(value, default):
    if value is default:
        return False
    return not (isinstance(default, BY_VALUE) and isinstance(value, BY_VALUE)
                and value == default)


def trace_run(run, directory, defaults):
    """Call ``run()`` on this thread, and on any thread it starts, while
    recording the executed lines of frames whose file lies under
    ``directory``, and the calls of the codes in ``defaults`` (as
    ``signature_defaults`` returns).  Returns ``{real path: set of line
    numbers}`` and ``{called code: set of the defaulted parameters some call
    overrode}``."""
    recorded, inside, called = defaultdict(set), {}, {}
    prefix = os.path.realpath(directory) + os.sep

    def local(frame, event, arg):
        if event == "line":
            recorded[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code in defaults:
            passed = frame.f_locals
            called.setdefault(code, set()).update(
                param for param, default in defaults[code][3].items()
                if overrides(passed[param], default))
        name = code.co_filename
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
    for path, hits in recorded.items():
        lines[os.path.realpath(path)] |= hits
    return lines, called


def unset_defaults(defaults, called):
    """``(path, line, qualified name, param)`` of each defaulted parameter of
    a called code that no call overrode, sorted by place."""
    return sorted((path, line, name, param)
                  for code, (path, line, name, params) in defaults.items() if code in called
                  for param in params if param not in called[code])


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
    import workloads

    for workload in workloads.WORKLOADS:
        target = os.path.join(out, workload)
        os.makedirs(target)
        prepared = workloads.prepare(str(ROOT), workload, SEED, target)
        if workload == "nse_incompatible":
            prepared = dataclasses.replace(prepared, k_list=NSE_K_LIST)
        workloads.study(workload, prepared, target)


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    modules = [importlib.import_module(f"cnflow.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    defaults = signature_defaults(modules)
    with tempfile.TemporaryDirectory() as out:
        lines, called = trace_run(lambda: run_studies(out), PACKAGE, defaults)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in unrun_defs(path.read_text(), lines[os.path.realpath(path)]):
            print(f"{path.relative_to(ROOT)}:{line} {name}")
            unrun += 1
    print(f"{unrun} defs under src/cnflow ran no body line")
    unset = unset_defaults(defaults, called)
    for path, line, name, param in unset:
        print(f"{Path(path).resolve().relative_to(ROOT)}:{line} {name}({param})")
    print(f"{len(unset)} defaulted parameters of defs that ran are never set by a call")


if __name__ == "__main__":
    main()
