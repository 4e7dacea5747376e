"""The traced benchmark run rebinds cnflow entry points by module attribute
(``perfbench/spans.py``).  This checks, in a fresh interpreter, that every
name it wraps still exists and that a Stokes solve, a Navier-Stokes solve, an
error norm and a spectral verification still run through the wrappers: a norm
or operator that is inlined or aliased past the rebinding records no span and
fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

SCRIPT = """
import spans
from cnflow import errors, schemes, spectral_stokes, temporal_ops, time_mesh
from cnflow.fem2d import build_space

tracer = spans.Tracer()
spans.install(tracer)
spec = schemes.ProblemSpec(build_space((-1.0, 1.0, -1.0, 1.0), 2, 2), 0.01, T=0.2)
fine = time_mesh.build_uniform_mesh(0.2, 4)
run, norm = schemes.stokes_cn_solve(spec, fine), errors.ErrorSpec("pressure_L2l2")
ref = errors.StreamedReference(fine, spec.space, [run], [norm])
schemes.reference_solve(spec, fine, "stokes", fields=(), observer=ref.observe)
errors.pressure_error(run, ref, norm)
spectral_stokes.verify_smoothing_stability(1, 1, 0, fine, trial_count=1,
                                           eigenvalues=spectral_stokes.default_spectrum(4))
spectral_stokes.verify_discrete_stability(1, fine, trial_count=1,
                                          eigenvalues=spectral_stokes.default_spectrum(4))
# one verification never calls the other: two top-level spans, none nested
verify = [span for span in tracer.spans if span[spans.NAME] == "spectral_stokes.verify"]
assert len(verify) == 2, len(verify)
assert all(span[spans.PARENT] == -1 for span in verify), "nested spectral_stokes.verify span"
# the verifications take each interval's derivative as they step, so the
# time_derivative wrapper is exercised by a direct call
temporal_ops.time_derivative(temporal_ops.interpolate_nodal(lambda t: t, fine))
# a Navier-Stokes solve: each factorized Newton Jacobian is built from
# convection(w) and convection_gradient(w), two fem2d.jacobian spans
space = build_space((-1.0, 1.0, -1.0, 1.0), 2, 2)
bubble = space.interpolate_velocity(lambda x, y: ((1 - x * x) * (1 - y * y),
                                                  x * (1 - x * x) * (1 - y * y)))
first = len(tracer.spans)
schemes.nse_cn_solve(schemes.ProblemSpec(space, 0.01, initial=bubble, T=0.2),
                     time_mesh.build_uniform_mesh(0.2, 2))
nse = [span[spans.NAME] for span in tracer.spans[first:]]
assert nse.count("fem2d.factor") > 0, nse
assert nse.count("fem2d.jacobian") == 2 * nse.count("fem2d.factor"), nse
seen = {span[spans.NAME] for span in tracer.spans}
expected = {"schemes.reference", "schemes.step", "time_mesh.build", "fem2d.factor",
            "fem2d.saddle_solve", "fem2d.lu_solve", "errors.pressure_error",
            "temporal_ops.weighted_norm", "temporal_ops.average",
            "temporal_ops.time_derivative", "spectral_stokes.evolve_cn",
            "spectral_stokes.verify", "fem2d.convection_apply", "fem2d.jacobian"}
assert expected <= seen, sorted(expected - seen)
"""


# every cached operator property that spans.install wraps, read twice on a
# fresh space: each first read assembles once, no second read assembles
ASSEMBLY_SCRIPT = """
import spans
from cnflow.fem2d import build_space

tracer = spans.Tracer()
spans.install(tracer)
space = build_space((0.0, 2.0, 0.0, 1.0), 3, 2)
names = ("scalar_mass", "scalar_stiffness", "mass", "stiffness", "divergence",
         "pressure_mass", "mean_vector")
for assembled in (7, 0):
    first = len(tracer.spans)
    for name in names:
        getattr(space, name)
    read = [span[spans.NAME] for span in tracer.spans[first:]]
    assert read == ["fem2d.assembly"] * assembled, read
"""


def run_traced(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_span_install_binds_every_entry_point():
    run_traced(SCRIPT)


def test_cached_operator_assembles_once():
    run_traced(ASSEMBLY_SCRIPT)
