"""Time discretization of incompressible flow with convergence-order verification.

The package couples three layers:

* temporal machinery: time meshes (uniform and alternating steps), the
  piecewise-linear/piecewise-constant grid function spaces, the nodal
  interpolation / interval averaging / midpoint sampling operators, and
  weighted temporal norms with the discrete smoothing weight,
* two spatial backends: a diagonal spectral surrogate of the Stokes
  operator (for stability and smoothing-rate verification with exact
  fractional norms) and a P2/P1 Taylor-Hood discretization on a
  rectangle (for the actual Stokes/Navier-Stokes runs),
* drivers: Crank-Nicolson and implicit-Euler time stepping (including
  the hybrid scheme with an Euler startup prefix), reference solutions,
  midpoint-rule error norms, rate fitting, and a CLI harness.
"""

from cnflow.time_mesh import (
    TimeMesh,
    build_uniform_mesh,
    build_alternating_mesh,
)
from cnflow.temporal_ops import (
    GridFunctionCG1,
    GridFunctionDG0,
    interpolate_nodal,
    average,
    midpoint_sample,
    time_derivative,
    weighted_temporal_norm,
)

__version__ = "0.1.0"
