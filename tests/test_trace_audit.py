import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "trace_audit.py"

SOURCE = '''\
def ran():
    """Docstring."""
    return 1


def never():
    """Docstring."""
    return 2


def only_doc():
    """Docstring."""


class Box:
    def method(self):
        return (3 +
                4)

    def unused(self):
        return 5

    @property
    def read(self):
        return 6


def outer(call):
    def inner():
        return 7
    return inner() if call else 8


if True:
    def guarded():
        return 9
'''

KNOBS = '''\
def f(a, b=1, c=None):
    return a


def g(d=3):
    return d
'''


@pytest.fixture(scope="module")
def trace_audit():
    spec = importlib.util.spec_from_file_location("trace_audit", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_sample(tmp_path, source, calls):
    """Import ``source`` from a file in ``tmp_path``; returns the file, the
    module and a ``run()`` that calls ``calls(module)``."""
    path = tmp_path / "sample.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("sample", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module, lambda: calls(module)


@pytest.mark.parametrize("calls, unrun", [
    (lambda m: None, ["ran", "never", "only_doc", "Box.method", "Box.unused", "Box.read",
                      "outer", "outer.inner", "guarded"]),
    (lambda m: (m.ran(), m.Box().method(), m.outer(False)),
     ["never", "only_doc", "Box.unused", "Box.read", "outer.inner", "guarded"]),
    # a docstring alone runs on the def line, which the enclosing frame runs too
    (lambda m: (m.ran(), m.only_doc(), m.Box().read, m.outer(True), m.guarded()),
     ["never", "only_doc", "Box.method", "Box.unused"]),
])
def test_unrun_defs_from_executed_lines(trace_audit, tmp_path, calls, unrun):
    path, _, run = run_sample(tmp_path, SOURCE, calls)
    lines, _ = trace_audit.trace_run(run, tmp_path, {})
    found = trace_audit.unrun_defs(SOURCE, lines[str(path.resolve())])
    assert [name for name, _ in found] == unrun
    source_lines = SOURCE.splitlines()
    for name, line in found:  # each def is reported at its own def line
        assert source_lines[line - 1].lstrip().startswith(f"def {name.split('.')[-1]}(")


def test_frames_outside_the_directory_are_not_recorded(trace_audit, tmp_path):
    path, _, run = run_sample(tmp_path, SOURCE, lambda m: m.ran())
    (tmp_path / "elsewhere").mkdir()
    lines, _ = trace_audit.trace_run(run, tmp_path / "elsewhere", {})
    assert not lines and sys.gettrace() is None


@pytest.mark.parametrize("calls", [
    lambda m: (m.f(0), m.f(0, c=2)),
    # an equal number sets nothing, and an array is never compared by value
    lambda m: (m.f(0, b=1.0), m.f(0, c=np.zeros(2))),
])
def test_defaults_no_call_sets(trace_audit, tmp_path, calls):
    # ``g`` never runs, so its default is left to the unrun list
    path, module, run = run_sample(tmp_path, KNOBS, calls)
    defaults = trace_audit.signature_defaults([module])
    assert sorted(name for _, _, name, _ in defaults.values()) == ["f", "g"]
    _, called = trace_audit.trace_run(run, tmp_path, defaults)
    assert trace_audit.unset_defaults(defaults, called) == [(str(path), 1, "f", "b")]
