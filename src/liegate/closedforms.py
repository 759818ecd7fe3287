"""Analytic parameter solutions for the built-in special cases.

These closed forms exist to cross-check the ODE solvers: every function
here must agree with the corresponding `paramflow` solve on its validity
window, and the test suite enforces that.

Cases:

* radio-frequency trap: cosine-Mathieu based parameters per axis;
* damped driven oscillator with exponentially scaled mass: explicit
  hyperbolic (strong damping) or trigonometric (weak damping) forms;
* sinusoidally varying magnetic field: Mathieu-based radial parameters
  plus the accumulated rotation angle;
* constant magnetic field with sinusoidal in-plane electric drive: the
  long translation-parameter expressions, with the resonance denominator
  fixed to the product (4 w^2 - (Omega+w_c)^2)(4 w^2 - (Omega-w_c)^2)
  demanded by the equations of motion.  In the frame rotating at w_c/2 the
  free motion is one vector: y's free-motion terms are x's a quarter turn
  of w_c t/2 later, so only y's drive terms are written out.

The Mathieu cosine is computed by direct ODE integration of
y'' + (a - 2 q cos 2z) y = 0 with y(0)=1, y'(0)=0, which is its defining
property; no characteristic-value expansions are involved.  The solves use
``ode.solve`` without dense output: only an event step pays for interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ode
from .errors import CausticError, DomainError, ResonanceError

__all__ = [
    "MathieuEval",
    "mathieu_c",
    "mathieu_cs",
    "ion_trap_params",
    "KanaiParams",
    "kanai_caldirola_params",
    "bfield_sin_params",
    "EFieldDerived",
    "efield_derived_constants",
    "EFieldSample",
    "efield_const_b_params",
]

_MATHIEU_TOL = 1e-12
_RECIPROCAL_SQUARE_TOL = 1e-10   # the closed forms' Mathieu solves with int dz/C^2


@dataclass(frozen=True)
class MathieuEval:
    """Value and derivative of the cosine solution of Mathieu's equation."""

    a: float
    q: float
    z: float
    C: float
    Cp: float


def _mathieu_rhs(a: float, q: float):
    def rhs(z, y):
        return y[1], -(a - 2.0 * q * math.cos(2.0 * z)) * y[0]

    return rhs


def _reciprocal_square_rhs(a: float, q: float):
    """Mathieu's equation with the quadrature of 1/C^2 attached; at C = 0 the
    rate is IEEE's inf, as numpy divides, where a float division would raise."""
    mathieu = _mathieu_rhs(a, q)

    def rhs(z, y):
        square = y[0] * y[0]
        return (*mathieu(z, y), 1.0 / square if square else math.inf)

    return rhs


def mathieu_c(a: float, q: float, z: float, tol: float = _MATHIEU_TOL) -> MathieuEval:
    """Cosine Mathieu function C(a, q, z) with C(a,q,0)=1, C'(a,q,0)=0.

    C is even in z, so a negative z is solved at |z| and C' changes sign."""
    return mathieu_cs(a, q, (z,), tol)[0]


def mathieu_cs(a: float, q: float, zs, tol: float = _MATHIEU_TOL) -> list[MathieuEval]:
    """``mathieu_c`` at each of ``zs`` from one solve to the largest |z|, cut
    at each smaller one (``ode.Result.until``): bit for bit the solve to
    each |z|."""
    reach = max(abs(z) for z in zs)
    sol = ode.solve(_mathieu_rhs(a, q), [1.0, 0.0], (0.0, reach), tol, tol, "Mathieu",
                    dense=False) if reach else None
    evals = []
    for z in zs:
        if z == 0.0:
            evals.append(MathieuEval(a=a, q=q, z=0.0, C=1.0, Cp=0.0))
            continue
        y = sol.until(abs(z)).y
        evals.append(MathieuEval(a=a, q=q, z=z, C=float(y[0, -1]),
                                 Cp=math.copysign(1.0, z) * float(y[1, -1])))
    return evals


def _mathieu_with_reciprocal_square(a: float, q: float, z: float) -> tuple[float, float, float]:
    """(C, C', int_0^z dz'/C^2); raises CausticError if C vanishes first."""
    if z == 0.0:
        return 1.0, 0.0, 0.0
    tol = _RECIPROCAL_SQUARE_TOL
    rhs2 = _mathieu_rhs(a, q)

    # locate a zero crossing of C with the regular two-state system before
    # attaching the 1/C^2 quadrature, whose blow-up stalls the integrator
    crossing = lambda zz, y: y[0]
    crossing.terminal = True
    probe = ode.solve(rhs2, [1.0, 0.0], (0.0, z), tol, tol * 1e-2, "Mathieu", event=crossing,
                      dense=False)
    if probe.status == 1:
        z_c = probe.t_events[0]
        raise CausticError(
            f"Mathieu cosine vanishes at z={z_c:.12g}, before the requested "
            f"z={z}; parameters are singular there",
            valid_to=z_c,
        )

    sol = ode.solve(_reciprocal_square_rhs(a, q), [1.0, 0.0, 0.0], (0.0, z), tol, tol * 1e-2,
                    "Mathieu", dense=False)
    return float(sol.y[0, -1]), float(sol.y[1, -1]), float(sol.y[2, -1])


def ion_trap_params(
    m: float, K_i: float, k_i: float, omega: float, t: float
) -> tuple[float, float, float]:
    """Per-axis rf-trap parameters (alpha, phi, beta) at time t.

    alpha = -(omega/2) C'/C, phi = ln C, beta = int_0^t ds / C^2, with
    C evaluated at (4K/m omega^2, -2k/m omega^2, omega t / 2).
    """
    if m <= 0 or omega <= 0:
        raise DomainError("ion trap needs m > 0 and omega > 0")
    if t < 0:
        raise DomainError("t must be non-negative")
    a_m = 4.0 * K_i / (m * omega * omega)
    q_m = -2.0 * k_i / (m * omega * omega)
    z = 0.5 * omega * t
    c, cp, t_int = _mathieu_with_reciprocal_square(a_m, q_m, z)
    alpha = -0.5 * omega * cp / c
    phi = math.log(c)
    beta = (2.0 / omega) * t_int
    return alpha, phi, beta


@dataclass(frozen=True)
class KanaiParams:
    """Closed-form trajectory sample of the damped driven oscillator."""

    t: float
    lam: float
    Pi: float
    alpha: float
    phi: float
    beta: float
    gamma: float
    Delta: float


def kanai_caldirola_params(
    m: float,
    tau: float,
    omega0: float,
    F0: float,
    F1: float,
    omega1: float,
    t: float,
) -> KanaiParams:
    """Damped driven oscillator with mass scaled by exp(t/tau).

    Strong damping (4 tau^2 omega0^2 < 1) uses hyperbolic functions of
    Omega = sqrt(|1 - 4 tau^2 omega0^2|)/(2 tau); weak damping continues
    them analytically to trigonometric ones, so outputs stay real in both
    regimes.  Critical damping is excluded (the forms degenerate).
    """
    if m <= 0 or tau <= 0:
        raise DomainError("kanai oscillator needs m > 0 and tau > 0")
    disc = 1.0 - 4.0 * tau * tau * omega0 * omega0
    if abs(disc) < 1e-12:
        raise DomainError(
            "critical damping excluded: 4 tau^2 omega0^2 = 1 degenerates the "
            "closed forms"
        )
    big_omega = math.sqrt(abs(disc)) / (2.0 * tau)
    w = big_omega * t
    if disc > 0.0:
        cq = math.cosh(w)
        sq = math.sinh(w) / big_omega if big_omega > 0 else t
    else:
        cq = math.cos(w)
        sq = math.sin(w) / big_omega
    # u = e^(-t/2tau) (cq + sq/2tau); its first zero is the focal time.
    u_core = cq + sq / (2.0 * tau)
    if u_core <= 0.0:
        raise CausticError(
            "damped-oscillator parameters are past their first focal time"
        )

    decay = math.exp(-0.5 * t / tau)
    grow = math.exp(0.5 * t / tau)
    grow2 = grow * grow

    lam = 0.0
    pi = 0.0
    if omega0 != 0.0 and F0 != 0.0:
        lam += F0 / (m * omega0 * omega0) * (1.0 - decay * cq - decay * sq / (2.0 * tau))
        pi += -F0 * grow * sq
    elif F0 != 0.0:
        raise DomainError("constant force with omega0 = 0 has no closed form here")
    if F1 != 0.0:
        den = tau * tau * (omega1 * omega1 - omega0 * omega0) ** 2 + omega1 * omega1
        if den == 0.0:
            raise ResonanceError("drive degenerate: omega1 = omega0 = 0")
        dd = F1 / (m * den)
        r_fac = 1.0 + 2.0 * tau * tau * (omega1 * omega1 - omega0 * omega0)
        lam += dd * (
            tau * omega1 * decay * cq
            + 0.5 * omega1 * r_fac * decay * sq
            - tau * omega1 * math.cos(omega1 * t)
            + tau * tau * (omega0 * omega0 - omega1 * omega1) * math.sin(omega1 * t)
        )
        pi += m * dd * (
            tau * tau * omega1 * (omega0 * omega0 - omega1 * omega1)
            * (grow * cq - grow2 * math.cos(omega1 * t))
            + 0.5 * tau * omega1 * (omega0 * omega0 + omega1 * omega1) * grow * sq
            - tau * omega1 * omega1 * grow2 * math.sin(omega1 * t)
        )

    denom = sq + 2.0 * tau * cq
    alpha = 2.0 * tau * omega0 * omega0 * sq / denom
    phi = math.log(u_core)
    beta = 2.0 * tau * sq / denom
    return KanaiParams(
        t=t, lam=lam, Pi=pi, alpha=alpha, phi=phi, beta=beta,
        gamma=-0.5 * t / tau, Delta=m,
    )


def bfield_sin_params(
    m: float, B0: float, omega: float, charge: float, t: float
) -> tuple[float, float, float, float]:
    """Radial parameters and rotation angle for B(t) = B0 sin(omega t).

    Mathieu arguments (w_c^2/8w^2, w_c^2/16w^2, w t) with w_c = q B0 / m;
    theta = (w_c/w) sin^2(w t / 2).
    """
    if m <= 0 or omega <= 0:
        raise DomainError("sinusoidal field needs m > 0 and omega > 0")
    if t < 0:
        raise DomainError("t must be non-negative")
    omega_c = charge * B0 / m
    if omega_c == 0.0:
        return 0.0, 0.0, t, 0.0
    a_m = omega_c**2 / (8.0 * omega**2)
    q_m = omega_c**2 / (16.0 * omega**2)
    z = omega * t
    c, cp, t_int = _mathieu_with_reciprocal_square(a_m, q_m, z)
    alpha = -omega * cp / c
    phi = math.log(c)
    beta = t_int / omega
    theta = (omega_c / omega) * math.sin(0.5 * omega * t) ** 2
    return alpha, phi, beta, theta


@dataclass(frozen=True)
class EFieldDerived:
    """Derived constants of the constant-B driven system.

    gamma4 is the resonance denominator consistent with the equations of
    motion, (4w^2 - (Omega+w_c)^2)(4w^2 - (Omega-w_c)^2).
    gamma_minus2 = Omega^2 - w_c^2 = 4K/m.
    """

    omega_c: float
    Omega: float
    gamma_plus2: float
    gamma_minus2: float
    gamma4: float


def efield_derived_constants(
    m: float, charge: float, B: float, K: float, omega: float
) -> EFieldDerived:
    if m <= 0:
        raise DomainError("mass must be positive")
    omega_c = charge * B / m
    omega2 = 4.0 * K / m + omega_c * omega_c
    if omega2 <= 0:
        raise DomainError("Omega^2 = 4K/m + w_c^2 must be positive")
    big = math.sqrt(omega2)
    gp2 = omega2 + omega_c * omega_c
    gm2 = omega2 - omega_c * omega_c
    g4 = 16.0 * omega**4 + gm2 * gm2 - 8.0 * omega**2 * gp2
    return EFieldDerived(
        omega_c=omega_c, Omega=big, gamma_plus2=gp2, gamma_minus2=gm2, gamma4=g4,
    )


@dataclass(frozen=True)
class EFieldSample:
    """Closed-form sample for constant B with sinusoidal in-plane drive."""

    t: float
    lam_x: float
    lam_y: float
    Pi_x: float
    Pi_y: float
    theta: float
    phi: float
    Delta: float
    alpha: float = 0.0
    vphi: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0


# a label's second letter is theta = w_c t/2; at theta - pi/2, cos -> sin, sin -> -cos
_QUARTER_TURN = {"cc": ("cs", 1.0), "cs": ("cc", -1.0), "sc": ("ss", 1.0), "ss": ("sc", -1.0)}


def _quarter_turn(x_table: dict, forced: dict) -> dict:
    """y's table: drive terms ``forced``, then x's free-motion terms at theta -
    pi/2 in x's order: the numbers, and the order, of y's table typed out."""
    turns = ((_QUARTER_TURN[label], coef) for label, coef in x_table.items()
             if label in _QUARTER_TURN)
    return forced | {turned: sign * coef for (turned, sign), coef in turns}


def _efield_addends(m, e, E0x, E0y, E1x, E1y, zeta, w, wc, om, gm2, gp2, g4):
    """Addend tables for (lam_x, lam_y, Pi_x, Pi_y).

    Each table maps a time-function label to its constant amplitude; labels
    are 'one', 'cw'/'sw' (cos/sin of the drive w t) and two-letter products
    of cos/sin at Omega t/2 (first) and w_c t/2 (second).  y's free-motion
    (two-letter) terms are x's a quarter turn later (``_quarter_turn``).
    """
    sz, cz = math.sin(zeta), math.cos(zeta)
    lam_x = {
        "one": -4 * e * E0x / (gm2 * m),
        "cw": 16 * e * E1y * w * wc * cz / (g4 * m),
        "sw": (16 * e * E1x * w**2 / (g4 * m)
               - 4 * gm2 * e * E1x / (g4 * m)
               - 16 * e * E1y * w * wc * sz / (g4 * m)),
        "ss": (4 * e * E0x * wc / (gm2 * m * om)
               + 32 * e * E1y * w**3 * cz / (g4 * m * om)
               - 8 * e * E1y * w * wc**2 * cz / (g4 * m * om)
               - 8 * e * E1y * w * om * cz / (g4 * m)),
        "cc": (4 * e * E0x / (gm2 * m)
               - 16 * e * E1y * w * wc * cz / (g4 * m)),
        "cs": (-4 * e * E0y / (gm2 * m)
               - 16 * e * E1x * w * wc / (g4 * m)
               + 16 * e * E1y * w**2 * sz / (g4 * m)
               - 4 * gm2 * e * E1y * sz / (g4 * m)),
        "sc": (4 * e * E0y * wc / (gm2 * m * om)
               - 32 * e * E1x * w**3 / (g4 * m * om)
               + 8 * gp2 * e * E1x * w / (g4 * m * om)
               + 16 * e * E1y * w**2 * wc * sz / (g4 * m * om)
               + 4 * gm2 * e * E1y * wc * sz / (g4 * m * om)),
    }
    lam_y = _quarter_turn(lam_x, {
        "one": -4 * e * E0y / (gm2 * m),
        "cw": (-16 * e * E1x * w * wc / (g4 * m)
               + 16 * e * E1y * w**2 * sz / (g4 * m)
               - 4 * gm2 * e * E1y * sz / (g4 * m)),
        "sw": (16 * e * E1y * w**2 * cz / (g4 * m)
               - 4 * gm2 * e * E1y * cz / (g4 * m)),
    })
    pi_x = {
        "one": 2 * e * E0y * wc / gm2,
        "sw": (8 * e * E1y * w**2 * wc * cz / g4
               + 2 * gm2 * e * E1y * wc * cz / g4),
        "cw": (-16 * e * E1x * w**3 / g4
               + 4 * gp2 * e * E1x * w / g4
               + 8 * e * E1y * w**2 * wc * sz / g4
               + 2 * gm2 * e * E1y * wc * sz / g4),
        "cs": (-2 * e * E0x * wc / gm2
               - 16 * e * E1y * w**3 * cz / g4
               + 4 * e * E1y * w * om**2 * cz / g4
               + 4 * e * E1y * w * wc**2 * cz / g4),
        "sc": (2 * e * E0x * om / gm2
               - 8 * e * E1y * w * om * wc * cz / g4),
        "ss": (-2 * e * E0y * om / gm2
               - 8 * e * E1x * w * om * wc / g4
               + 8 * e * E1y * w**2 * om * sz / g4
               - 2 * gm2 * e * E1y * om * sz / g4),
        "cc": (-2 * e * E0y * wc / gm2
               + 16 * e * E1x * w**3 / g4
               - 4 * gp2 * e * E1x * w / g4
               - 8 * e * E1y * w**2 * wc * sz / g4
               - 2 * gm2 * e * E1y * wc * sz / g4),
    }
    pi_y = _quarter_turn(pi_x, {
        "one": -2 * e * E0x * wc / gm2,
        "sw": (-8 * e * E1x * w**2 * wc / g4
               - 2 * gm2 * e * E1x * wc / g4
               + 16 * e * E1y * w**3 * sz / g4
               - 4 * e * E1y * w * om**2 * sz / g4
               - 4 * e * E1y * w * wc**2 * sz / g4),
        "cw": (4 * gp2 * e * E1y * w * cz / g4
               - 16 * e * E1y * w**3 * cz / g4),
    })
    return lam_x, lam_y, pi_x, pi_y


def _sum_addends(table: dict[str, float], t: float, om: float, wc: float, w: float) -> float:
    fns = {
        "one": 1.0,
        "cw": math.cos(w * t),
        "sw": math.sin(w * t),
        "cc": math.cos(0.5 * om * t) * math.cos(0.5 * wc * t),
        "cs": math.cos(0.5 * om * t) * math.sin(0.5 * wc * t),
        "sc": math.sin(0.5 * om * t) * math.cos(0.5 * wc * t),
        "ss": math.sin(0.5 * om * t) * math.sin(0.5 * wc * t),
    }
    return sum(coef * fns[label] for label, coef in table.items())


def efield_const_b_params(
    m: float,
    charge: float,
    B: float,
    K: float,
    E0x: float,
    E0y: float,
    E1x: float,
    E1y: float,
    omega: float,
    zeta: float,
    t: float,
) -> EFieldSample:
    """Closed forms for constant B, stiffness K and sinusoidal E drive.

    The radial factorization is the shortcut case: gamma = 0,
    Delta = m Omega / 2, phi = Omega t / 2, alpha = vphi = beta = 0, and
    theta = w_c t / 2.  Resonant drives (gamma4 or gamma_minus2 below
    1e-12 of their scale) are refused.
    """
    derived = efield_derived_constants(m, charge, B, K, omega)
    wc, om = derived.omega_c, derived.Omega
    gm2, gp2, g4 = derived.gamma_minus2, derived.gamma_plus2, derived.gamma4
    scale2 = om * om + wc * wc
    scale4 = scale2 * scale2 + 16.0 * omega**4
    if abs(gm2) < 1e-12 * scale2:
        raise ResonanceError(
            "Gamma_minus^2 = Omega^2 - w_c^2 = 4K/m vanishes: static drive "
            "is resonant (no closed form)"
        )
    if abs(g4) < 1e-12 * scale4:
        raise ResonanceError(
            "Gamma^4 vanishes: drive frequency satisfies "
            "4 omega^2 = (Omega ± w_c)^2 (resonant drive, no closed form)"
        )
    lam_x_t, lam_y_t, pi_x_t, pi_y_t = _efield_addends(
        m, charge, E0x, E0y, E1x, E1y, zeta, omega, wc, om, gm2, gp2, g4
    )
    return EFieldSample(
        t=t,
        lam_x=_sum_addends(lam_x_t, t, om, wc, omega),
        lam_y=_sum_addends(lam_y_t, t, om, wc, omega),
        Pi_x=_sum_addends(pi_x_t, t, om, wc, omega),
        Pi_y=_sum_addends(pi_y_t, t, om, wc, omega),
        theta=0.5 * wc * t,
        phi=0.5 * om * t,
        Delta=0.5 * m * om,
    )
