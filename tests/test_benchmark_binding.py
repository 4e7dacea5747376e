"""The traced benchmark run rebinds cnflow entry points by module attribute
(``perfbench/spans.py``).  This checks, in a fresh interpreter, that every
name it wraps still exists and that a solve still runs through the wrappers.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

SCRIPT = """
import spans
from cnflow import schemes, time_mesh
from cnflow.fem2d import build_space

tracer = spans.Tracer()
spans.install(tracer)
spec = schemes.ProblemSpec(build_space((-1.0, 1.0, -1.0, 1.0), 2, 2), 0.01, T=0.2)
schemes.reference_solve(spec, time_mesh.build_uniform_mesh(0.2, 4), "stokes")
seen = {span[spans.NAME] for span in tracer.spans}
expected = {"schemes.reference", "schemes.step", "time_mesh.build", "fem2d.factor",
            "fem2d.saddle_solve", "fem2d.lu_solve"}
assert expected <= seen, sorted(expected - seen)
"""


def test_span_install_binds_every_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
