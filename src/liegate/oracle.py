"""Independent ground-truth generators.

Nothing in this module knows about transformation parameters or factorized
evolution operators: the classical flow and fundamental matrix integrate
Hamilton's equations directly, written once per system as
z' = A(t) z + f(t), and the wavefunction oracle is a Strang split-step
Fourier solver.  These are the yardsticks the algebraic machinery is
measured against.

The flows run ``ode.solve`` with RK45 over [0, t_end] in one piece, unaware
of spline knots.  They stay independent of the parameter solves they check
through a different method (not DOP853), a different ODE and no knot
segmentation; the step loop is shared, and the tests hold each method's
steps and dense output to scipy's bit for bit, so a slip in that loop fails
the pins of both.

The split-step solver deliberately refuses Hamiltonians with a nonzero
(xp+px) coefficient: that term breaks the kinetic/potential splitting, and
an incorrect oracle is worse than a narrower one.  All built-in special
cases reduce to b = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ode
from .coeffs import CoefficientSet1D, FieldProfile2D
from .errors import DomainError

__all__ = [
    "FlowResult",
    "classical_flow",
    "fundamental_matrix",
    "WaveGrid",
    "gaussian_state",
    "split_step_evolve",
    "fidelity",
    "grid_moments",
]

_RTOL_FLOOR = 100 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class FlowResult:
    """Dense trajectory of a flow (frames of shape (n,)) or a fundamental
    matrix (frames of shape (n, n))."""

    _dense: object
    shape: tuple[int, ...]

    def at(self, t: float) -> np.ndarray:
        return np.asarray(self._dense(t)).reshape(self.shape)


def _compiled(coeffs, names) -> list:
    """The compiled values of the named coefficient profiles."""
    return [getattr(coeffs, name).scalar()[0] for name in names]


def _generator(coeffs):
    """Hamilton's equations of the quadratic H as z' = A(t) z + f(t).

    A = J Hess H and f = J grad H(0) on the phase space (x, p) of a
    CoefficientSet1D or (x, y, p_x, p_y) of a FieldProfile2D.  Returns
    (n, A, f) with A and f callables of t, which read the coefficients
    compiled here.
    """
    if isinstance(coeffs, CoefficientSet1D):
        a_of, b_of, c_of, d_of, e_of = _compiled(coeffs, "abcde")

        def a_of_t(t):
            a = a_of(t)
            b = b_of(t)
            c = c_of(t)
            return np.array([[b, a], [-c, -b]])

        def f_of_t(t):
            return np.array([d_of(t), -e_of(t)])

        return 2, a_of_t, f_of_t
    if isinstance(coeffs, FieldProfile2D):
        q = coeffs.charge
        m_of, b_of, k_of, ex_of, ey_of = _compiled(coeffs, ("m", "B", "K", "Ex", "Ey"))

        def a_of_t(t):
            m = m_of(t)
            bb = b_of(t)
            kk = k_of(t)
            wb = q * bb / (2.0 * m)
            kappa = kk + q * q * bb * bb / (4.0 * m)
            return np.array(
                [
                    [0.0, -wb, 1.0 / m, 0.0],
                    [wb, 0.0, 0.0, 1.0 / m],
                    [-kappa, 0.0, 0.0, -wb],
                    [0.0, -kappa, wb, 0.0],
                ]
            )

        def f_of_t(t):
            return np.array([0.0, 0.0, -q * ex_of(t), -q * ey_of(t)])

        return 4, a_of_t, f_of_t
    raise DomainError("coeffs must be CoefficientSet1D or FieldProfile2D")


def _integrate(rhs, y0, t_end, tol, what):
    """RK45 over [0, t_end] in one piece, as ``solve_ivp(method="RK45")``
    with rtol = tol (at least its floor of 100 machine epsilons) and
    atol = tol/100."""
    if not 0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")
    return ode.solve(rhs, y0, (0.0, t_end), max(tol, _RTOL_FLOOR), tol * 1e-2, what,
                     method="RK45").sol


def classical_flow(coeffs, z0, t_end: float, tol: float = 1e-10) -> FlowResult:
    """Integrate z' = A(t) z + f(t) from the phase-space point z0 at t = 0
    (positions then momenta) to t_end."""
    n, a_of_t, f_of_t = _generator(coeffs)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (n,):
        raise DomainError(f"initial state must have {n} entries")
    if not np.all(np.isfinite(z0)):
        raise DomainError("state vector entries must be finite")

    def rhs(t, z):
        return a_of_t(t) @ z + f_of_t(t)

    return FlowResult(_integrate(rhs, z0, t_end, tol, "classical flow"), (n,))


def fundamental_matrix(coeffs, t_end: float, tol: float = 1e-10) -> FlowResult:
    """Integrate Phi' = A(t) Phi, Phi(0) = I, the linear part of the flow.

    A is traceless, so det Phi stays 1 (Liouville) up to integration error.
    """
    n, a_of_t, _ = _generator(coeffs)

    def rhs(t, y):
        return (a_of_t(t) @ y.reshape(n, n)).ravel()

    return FlowResult(_integrate(rhs, np.eye(n).ravel(), t_end, tol, "fundamental matrix"),
                      (n, n))


@dataclass(frozen=True)
class WaveGrid:
    """Uniformly sampled complex wavefunction.

    1D grids hold amps of shape (n,); 2D grids are square with amps of
    shape (n, n) over the same axis geometry in x and y.
    """

    n: int
    x_min: float
    dx: float
    amps: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape not in ((self.n,), (self.n, self.n)):
            raise DomainError(f"amps shape {amps.shape} does not match n={self.n}")
        if self.dx <= 0:
            raise DomainError("dx must be positive")
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")
        object.__setattr__(self, "amps", amps)

    @property
    def dof(self) -> int:
        return self.amps.ndim

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    def norm(self) -> float:
        w = _trapezoid_weights(self.n)
        if self.dof == 1:
            total = np.sum(w * np.abs(self.amps) ** 2) * self.dx
        else:
            total = np.sum(np.outer(w, w) * np.abs(self.amps) ** 2) * self.dx**2
        return float(np.sqrt(total))

    def normalized(self) -> "WaveGrid":
        nrm = self.norm()
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero wavefunction")
        return WaveGrid(self.n, self.x_min, self.dx, self.amps / nrm, self.hbar)

    def same_geometry(self, other: "WaveGrid") -> bool:
        return (
            self.n == other.n
            and self.x_min == other.x_min
            and self.dx == other.dx
            and self.dof == other.dof
        )


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def gaussian_state(
    n: int,
    x_min: float,
    dx: float,
    sigma: float = 1.0,
    x0: float = 0.0,
    p0: float = 0.0,
    hbar: float = 1.0,
) -> WaveGrid:
    """Normalized minimum-uncertainty packet with position width sigma."""
    x = x_min + dx * np.arange(n)
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * (x - x0) / hbar)
    grid = WaveGrid(n, x_min, dx, psi, hbar)
    return grid.normalized()


def split_step_evolve(
    coeffs: CoefficientSet1D,
    psi0: WaveGrid,
    t_end: float,
    n_steps: int,
) -> WaveGrid:
    """Strang-split Fourier evolution under H = a/2 p^2 + c/2 x^2 + e x + d p + g.

    exp(-i V dt/2) FFT exp(-i T dt) IFFT exp(-i V dt/2) per step, with all
    coefficients sampled at the step midpoint (second order in dt).
    Requires b(t) identically zero.
    """
    if psi0.dof != 1:
        raise DomainError("split-step oracle operates on 1D grids")
    if n_steps < 0:
        raise DomainError("n_steps must be non-negative")
    probe = np.linspace(0.0, max(t_end, 1e-30), 65)
    if np.max(np.abs(np.asarray(coeffs.b(probe), dtype=float))) > 1e-14:
        raise DomainError(
            "split-step oracle requires b(t) == 0; validate b != 0 cases "
            "against the fundamental-matrix oracle instead"
        )
    if n_steps == 0:
        return psi0
    hbar = psi0.hbar
    x = psi0.x
    p = 2.0 * np.pi * hbar * np.fft.fftfreq(psi0.n, d=psi0.dx)
    psi = psi0.amps.copy()
    dt = t_end / n_steps
    a_of, c_of, d_of, e_of, g_of = _compiled(coeffs, "acdeg")
    for k in range(n_steps):
        tm = (k + 0.5) * dt
        a = a_of(tm)
        c = c_of(tm)
        d = d_of(tm)
        e = e_of(tm)
        g = g_of(tm)
        v_half = np.exp(-0.5j * dt * (0.5 * c * x**2 + e * x + g) / hbar)
        t_full = np.exp(-1j * dt * (0.5 * a * p**2 + d * p) / hbar)
        psi = v_half * psi
        psi = np.fft.ifft(t_full * np.fft.fft(psi))
        psi = v_half * psi
    return WaveGrid(psi0.n, psi0.x_min, psi0.dx, psi, hbar)


def fidelity(psi1: WaveGrid, psi2: WaveGrid) -> float:
    """|<psi1|psi2>| / (||psi1|| ||psi2||), blind to global phase."""
    if not psi1.same_geometry(psi2):
        raise DomainError("fidelity requires identical grids")
    w = _trapezoid_weights(psi1.n)
    if psi1.dof == 1:
        overlap = np.sum(w * np.conj(psi1.amps) * psi2.amps) * psi1.dx
    else:
        overlap = np.sum(np.outer(w, w) * np.conj(psi1.amps) * psi2.amps) * psi1.dx**2
    denom = psi1.norm() * psi2.norm()
    if denom == 0.0:
        raise DomainError("fidelity undefined for the zero wavefunction")
    return float(abs(overlap) / denom)


def grid_moments(psi: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of (x, p) extracted from a 1D grid state.

    Position moments use |psi(x)|^2, momentum moments |psi(p)|^2 on the FFT
    grid.  The x-p correlation is taken from the symmetrized product via
    the spectral derivative.
    """
    if psi.dof != 1:
        raise DomainError("grid_moments operates on 1D grids")
    x = psi.x
    amps = psi.amps
    w = _trapezoid_weights(psi.n)
    rho = w * np.abs(amps) ** 2
    total = np.sum(rho) * psi.dx
    mean_x = float(np.sum(rho * x) * psi.dx / total)
    var_x = float(np.sum(rho * (x - mean_x) ** 2) * psi.dx / total)

    p = 2.0 * np.pi * psi.hbar * np.fft.fftfreq(psi.n, d=psi.dx)
    amps_p = np.fft.fft(amps)
    rho_p = np.abs(amps_p) ** 2
    total_p = np.sum(rho_p)
    mean_p = float(np.sum(rho_p * p) / total_p)
    var_p = float(np.sum(rho_p * (p - mean_p) ** 2) / total_p)

    dpsi = np.fft.ifft(1j * p / psi.hbar * amps_p)
    xp_sym = np.sum(w * np.real(np.conj(amps) * (x * (-1j * psi.hbar) * dpsi))) * psi.dx
    cov_xp = float(xp_sym / total - mean_x * mean_p)

    mean = np.array([mean_x, mean_p])
    cov = np.array([[var_x, cov_xp], [cov_xp, var_p]])
    return mean, cov
