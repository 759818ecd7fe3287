"""Exact time-evolution data for time-dependent quadratic Hamiltonians.

Subpackages by task:

- ``quadops``: exact rational algebra of at-most-quadratic observables.
- ``coeffs``: time-dependent Hamiltonian coefficient profiles (tabulated
  ones on the package's own natural cubic spline, with scipy's bits) and
  the rotating-frame reduction of the planar charged particle.
- ``paramflow``: transformation-parameter ODE solvers (both factorization
  routes, 1D and 2D), integrated by ``ode``'s DOP853, which takes scipy's
  steps.
- ``maps``: symplectic Heisenberg maps assembled from parameter
  trajectories, plus symplectic invariant checks.
- ``greens``: Gaussian propagator kernels and grid quadrature application.
- ``closedforms``: analytic parameter solutions for the built-in special
  cases (rf trap, damped driven oscillator, sinusoidal and constant
  magnetic field), including the Mathieu cosine function.
- ``oracle``: independent ground truth (split-step grid solver, classical
  flow and fundamental matrix on ``ode``'s RK45, fidelity).
- ``presets``: the named systems, their parameters with defaults and
  their builders.
- ``cli``: the ``liegate`` command line entry point.

``import liegate`` loads only the errors; each subpackage is imported on
first attribute access (PEP 562), so a caller pays only for what it uses.
The package depends on numpy alone; scipy is the tests' reference.
"""

import importlib

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

_SUBMODULES = ("quadops", "coeffs", "paramflow", "maps", "greens", "closedforms", "oracle")

__all__ = [
    *_SUBMODULES,
    "LiegateError",
    "DomainError",
    "ConfigError",
    "CausticError",
    "ResonanceError",
    "IntegrationError",
    "ConsistencyError",
    "__version__",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
