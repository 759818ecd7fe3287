"""Independent ground-truth generators.

Nothing in this module knows about transformation parameters or factorized
evolution operators: the classical flow and fundamental matrix integrate
Hamilton's equations directly with adaptive RK45 (not the parameter
solvers' DOP853, and over [0, t_end] in one piece, unaware of spline
knots), and the wavefunction oracle is a Strang split-step Fourier solver.
These are the yardsticks the algebraic machinery is measured against.

The split-step solver deliberately refuses Hamiltonians with a nonzero
(xp+px) coefficient: that term breaks the kinetic/potential splitting, and
an incorrect oracle is worse than a narrower one.  All built-in special
cases reduce to b = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .coeffs import CoefficientSet1D, FieldProfile2D
from .errors import DomainError, IntegrationError

__all__ = [
    "ClassicalState",
    "FlowResult",
    "classical_flow",
    "fundamental_matrix",
    "WaveGrid",
    "gaussian_state",
    "split_step_evolve",
    "fidelity",
    "grid_moments",
]

_ORACLE_METHOD = "RK45"


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point: positions then momenta, and the time it refers to."""

    z: np.ndarray
    t: float

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 1 or z.size not in (2, 4):
            raise DomainError("state vector must have 2 or 4 entries")
        if not np.all(np.isfinite(z)):
            raise DomainError("state vector entries must be finite")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class FlowResult:
    """Dense trajectory of a flow or fundamental-matrix integration."""

    t: np.ndarray
    y: np.ndarray          # state samples, shape (len(t), dim) or (len(t), n, n)
    _dense: object

    def at(self, t):
        out = np.asarray(self._dense(t))
        if out.ndim == 1 and self.y.ndim == 3:
            n = self.y.shape[1]
            return out.reshape(n, n)
        if self.y.ndim == 3:
            n = self.y.shape[1]
            return np.moveaxis(out.reshape(n, n, -1), -1, 0)
        return out if np.ndim(t) else out


def _hamilton_rhs_1d(coeffs: CoefficientSet1D):
    def rhs(t, z):
        a = float(coeffs.a(t))
        b = float(coeffs.b(t))
        c = float(coeffs.c(t))
        d = float(coeffs.d(t))
        e = float(coeffs.e(t))
        x, p = z
        return [a * p + b * x + d, -(c * x + b * p + e)]

    return rhs


def _hamilton_rhs_2d(profile: FieldProfile2D):
    q = profile.charge

    def rhs(t, z):
        m = float(profile.m(t))
        bb = float(profile.B(t))
        kk = float(profile.K(t))
        ex = float(profile.Ex(t))
        ey = float(profile.Ey(t))
        wb = q * bb / (2.0 * m)
        kappa = kk + q * q * bb * bb / (4.0 * m)
        x, y, px, py = z
        return [
            px / m - wb * y,
            py / m + wb * x,
            -kappa * x - wb * py - q * ex,
            -kappa * y + wb * px - q * ey,
        ]

    return rhs


def _integrate(rhs, y0, t_end, tol, what):
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method=_ORACLE_METHOD,
        rtol=tol,
        atol=tol * 1e-2,
        dense_output=True,
    )
    if not sol.success:
        raise IntegrationError(
            f"{what} integration failed: {sol.message}", last_time=float(sol.t[-1])
        )
    return sol


def classical_flow(coeffs, z0: ClassicalState, t_end: float, tol: float = 1e-10) -> FlowResult:
    """Adaptive integration of Hamilton's equations for the quadratic H.

    Accepts a CoefficientSet1D (phase space (x, p)) or a FieldProfile2D
    (phase space (x, y, p_x, p_y)).
    """
    if t_end <= 0:
        raise DomainError("t_end must be positive")
    if isinstance(coeffs, CoefficientSet1D):
        rhs, dim = _hamilton_rhs_1d(coeffs), 2
    elif isinstance(coeffs, FieldProfile2D):
        rhs, dim = _hamilton_rhs_2d(coeffs), 4
    else:
        raise DomainError("coeffs must be CoefficientSet1D or FieldProfile2D")
    if z0.z.size != dim:
        raise DomainError(f"initial state must have {dim} entries")
    sol = _integrate(rhs, z0.z, t_end, tol, "classical flow")
    return FlowResult(t=sol.t, y=sol.y.T.copy(), _dense=sol.sol)


def _linear_part_1d(coeffs: CoefficientSet1D):
    def a_of_t(t):
        a = float(coeffs.a(t))
        b = float(coeffs.b(t))
        c = float(coeffs.c(t))
        return np.array([[b, a], [-c, -b]])

    return a_of_t, 2


def _linear_part_2d(profile: FieldProfile2D):
    q = profile.charge

    def a_of_t(t):
        m = float(profile.m(t))
        bb = float(profile.B(t))
        kk = float(profile.K(t))
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

    return a_of_t, 4


def fundamental_matrix(coeffs, t_end: float, tol: float = 1e-10) -> FlowResult:
    """Integrate Phi' = A(t) Phi, Phi(0) = I, for the linearized flow.

    A = [[b, a], [-c, -b]] in 1D; the traceless 4x4 analog in 2D.  det Phi
    stays 1 (Liouville) up to integration error.
    """
    if t_end <= 0:
        raise DomainError("t_end must be positive")
    if isinstance(coeffs, CoefficientSet1D):
        a_of_t, n = _linear_part_1d(coeffs)
    elif isinstance(coeffs, FieldProfile2D):
        a_of_t, n = _linear_part_2d(coeffs)
    else:
        raise DomainError("coeffs must be CoefficientSet1D or FieldProfile2D")

    def rhs(t, y):
        return (a_of_t(t) @ y.reshape(n, n)).ravel()

    sol = _integrate(rhs, np.eye(n).ravel(), t_end, tol, "fundamental matrix")
    frames = sol.y.T.reshape(-1, n, n).copy()
    return FlowResult(t=sol.t, y=frames, _dense=sol.sol)


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
    for k in range(n_steps):
        tm = (k + 0.5) * dt
        a = float(coeffs.a(tm))
        c = float(coeffs.c(tm))
        d = float(coeffs.d(tm))
        e = float(coeffs.e(tm))
        g = float(coeffs.g(tm))
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
