"""Exact time-evolution data for time-dependent quadratic Hamiltonians.

Subpackages by task:

- ``quadops``: exact rational algebra of at-most-quadratic observables.
- ``coeffs``: time-dependent Hamiltonian coefficient profiles and the
  rotating-frame reduction of the planar charged particle.
- ``paramflow``: transformation-parameter ODE solvers (both factorization
  routes, 1D and 2D).
- ``maps``: symplectic Heisenberg maps assembled from parameter
  trajectories, plus symplectic invariant checks.
- ``greens``: Gaussian propagator kernels and grid quadrature application.
- ``closedforms``: analytic parameter solutions for the built-in special
  cases (rf trap, damped driven oscillator, sinusoidal and constant
  magnetic field), including the Mathieu cosine function.
- ``oracle``: independent ground truth (split-step grid solver, classical
  flow, fundamental matrix, fidelity).
- ``presets``: the named systems, their parameters with defaults and
  their builders.
- ``cli``: the ``liegate`` command line entry point.
"""

from . import quadops, coeffs, paramflow, maps, greens, closedforms, oracle
from .errors import (
    LiegateError,
    DomainError,
    ConfigError,
    CausticError,
    ResonanceError,
    IntegrationError,
    ConsistencyError,
)

__version__ = "0.1.0"

__all__ = [
    "quadops",
    "coeffs",
    "paramflow",
    "maps",
    "greens",
    "closedforms",
    "oracle",
    "LiegateError",
    "DomainError",
    "ConfigError",
    "CausticError",
    "ResonanceError",
    "IntegrationError",
    "ConsistencyError",
    "__version__",
]
