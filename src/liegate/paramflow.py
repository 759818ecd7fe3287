"""Transformation-parameter ODE solvers for the factorized evolution operator.

Two factorization routes exist for the general 1D quadratic Hamiltonian:

* route 1 fixes the dilation by exp(2*gamma) = a*Delta with Delta = 1/a(0),
  which turns the quadratic-phase Riccati equation into the linear second
  order problem  u'' + (2b - a'/a) u' + c a u = 0,  u(0)=1, u'(0)=0,  with
  alpha = -u'/u.  The remaining parameters follow from
  phi = int(b) - gamma + ln u  and  beta = Delta * v/u,  where v solves the
  same linear problem with v(0)=0, v'(0)=a(0).  The (u, v) pair is carried
  in the integration state, so the map data stays finite and accurate
  through focal points even though alpha, phi, beta themselves blow up.

* route 2 fixes exp(2*gamma) = Delta*sqrt(a/c) with Delta = sqrt(c0/a0) and
  rotates phase space at the rate phi' = sqrt(a c).  The leftover Riccati
  equation for alpha is integrated in linear projective form
  (alpha = Q/P with a smooth 2x2 linear system), which passes through
  isolated zeros of the quadratic coefficient with no special-casing.
  When b - gamma' vanishes identically the route short-circuits:
  alpha = vphi = beta = 0 exactly.

The linear/translation parameters (lam, Pi, S) solve the classical
equations of motion from the origin in both routes.  ``liegate verify``
checks route 1's (lam, -Pi) against the independent flow oracle, and route
2's whole affine map and action S against route 1's.

Only a trajectory reads its solves: ``sample`` for the parameters and
``_map_parts`` for the map's parts, which ``maps`` lays out and ``greens``
turns into a kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple

import numpy as np

from . import ode
from .coeffs import CoefficientSet1D, FieldProfile2D, check_horizon, reduce_2d
from .errors import CausticError, DomainError, IntegrationError

__all__ = [
    "ParamSample",
    "ParamTrajectory",
    "ParamTrajectory2D",
    "solve",
    "solve_path1",
    "solve_path2",
    "solve_2d",
]

_PROBE_POINTS = 257
# Offsets, as fractions of t_end, at which a planar solve that fails probes
# the mass past the failure time: geometric, so a zero of m a few steps
# ahead is bracketed at any scale.
_POLE_OFFSETS = np.geomspace(1e-12, 1e-2, _PROBE_POINTS)
_SHORTCUT_RTOL = 1e-12
_MASS_REQUIREMENT = "the kinetic energy is p^2/2m"


class ParamSample(NamedTuple):
    """All transformation parameters at one instant, and (u, udot) with
    alpha = -udot/u; route 1 also reports its companion solution (v, vdot),
    the two fields with a default.  These are the params.csv columns.
    """

    t: float
    S: float
    lam: float
    Pi: float
    gamma: float
    alpha: float
    phi: float
    vphi: float
    beta: float
    u: float
    udot: float
    v: float = float("nan")
    vdot: float = float("nan")


# No solve builds one; perfbench/spans.py wraps LinearTranslation.at by name.
@dataclass(frozen=True, eq=False)
class LinearTranslation:
    """Solution of the translation-parameter equations only."""

    t_grid: np.ndarray
    _dense: object

    def at(self, t: float) -> tuple[float, float, float]:
        lam, pi, s = self._dense(t)
        return float(s), float(lam), float(pi)


@dataclass(frozen=True, eq=False)
class ParamTrajectory:
    """Transformation parameters of one factorization route on [0, t_end]:
    the route, its coefficients, the tolerance, Delta, the integrator's grid,
    ``valid_to`` and what ``sample`` and ``_map_parts`` read: the dense
    solutions and the compiled a(t) (route 2: and c(t)) the solve used;
    route 2 also holds whether it took the shortcut and, if not, its Riccati
    solve and where that ended.  ``_results`` holds the solves' ``ode``
    Results, which ``until`` cuts.  No other module reads these solves.

    All parameters vanish at t = 0 (the factorized operator is the identity
    there).  ``valid_to`` is the first focal time, or inf if there is none
    in [0, t_end]: the first zero of u for route 1, the first time phi
    reaches pi for route 2 (or earlier, where route 2's alpha diverges), an
    event of the solve refined on the step's dense output.  Route 1 reports
    alpha, phi and beta as NaN at and beyond ``valid_to``; route 2 reports
    alpha, vphi, beta, u and udot as NaN past its Riccati solve, which
    carries phi in its own state; ``sample`` reports phi from the base solve.
    """

    path: Literal["path1", "path2"]
    coeffs: CoefficientSet1D
    t_end: float
    tol: float
    Delta: float
    t_grid: np.ndarray
    valid_to: float
    _base: object
    _a: Callable[[float], float]
    _c: Callable[[float], float] | None = None
    shortcut: bool = False
    _riccati: object = None
    _riccati_t_end: float = math.inf
    _results: tuple = ()

    @property
    def hbar(self) -> float:
        return self.coeffs.hbar

    def until(self, t_end: float) -> ParamTrajectory:
        """The trajectory that ``solve_path1``/``solve_path2`` return for
        [0, t_end], t_end <= self.t_end, bit for bit: the horizon's sign
        checks (route 2: and shortcut probe) run as the solver runs them, and
        the solves are this trajectory's cut at t_end (``ode.Result.until``);
        route 2 solves afresh where the shortcut verdict changes."""
        if t_end == self.t_end:
            return self
        _check_solved(self, t_end)
        solver = _solve_path1 if self.path == "path1" else _solve_path2
        return solver(self.coeffs, t_end, self.tol, self)

    def sample(self, t: float) -> ParamSample:
        _check_solved(self, t)
        a = self._a(t)
        if self.path == "path1":
            inside, nan = t < self.valid_to, float("nan")
            gamma = 0.5 * math.log(a * self.Delta)
            lam, pi, s, bint, u, udot, v, vdot = self._base(t)
            alpha = -udot / u if inside else nan
            phi = bint - gamma + math.log(u) if inside else nan
            beta = self.Delta * v / u if inside else nan
            return ParamSample(t, s, lam, pi, gamma, alpha, phi, 0.0, beta, u, udot, v, vdot)
        lam, pi, s, phi = self._base(t)
        gamma, alpha, vphi, beta, u, udot = self._route2(t, a)
        return ParamSample(t, s, lam, pi, gamma, alpha, phi, vphi, beta, u, udot)

    def _route2(self, t: float, a: float):
        """Route 2's gamma, alpha, vphi, beta, u and udot at t, given a(t):
        alpha = vphi = beta = 0 on the shortcut, all but gamma NaN past the
        Riccati solve."""
        gamma = 0.5 * math.log(self.Delta * math.sqrt(a / self._c(t)))
        if self.shortcut:
            return gamma, 0.0, 0.0, 0.0, 1.0, 0.0
        if t > self._riccati_t_end:
            return gamma, *[math.nan] * 5
        qq, pp, aint, vphi, beta, _ = self._riccati(t)
        alpha, u = qq / pp, math.exp(-aint)
        return gamma, alpha, vphi, beta, u, -alpha * u

    def _map_parts(self, t: float):
        """The Heisenberg map's parts at t, checked against valid_to and
        [0, t_end]: ((G_qq, G_qp), (G_pq, G_pp)), the rotation rows (the 1x1
        identity), the shift (lam, -Pi) and S.  Route 2 reads no further than
        valid_to, which ends no later than its Riccati solve."""
        if t > self.valid_to:
            raise CausticError(f"t={t} is beyond the first focal time valid_to={self.valid_to}",
                               valid_to=self.valid_to)
        _check_solved(self, t)
        if self.path == "path1":
            lam, pi, action, bint, u, udot, v, vdot = self._base(t)
            # G_qq = e^(phi+gamma) = e^B u, G_qp = (beta/Delta) e^(phi+gamma) with
            # beta/Delta = v/u, and alpha = -u'/u: M = e^B [[u, v], [u'/a, v'/a]]
            a, eb = self._a(t), math.exp(bint)
            block = (eb * u, eb * v), (eb * udot / a, eb * vdot / a)
            return block, ((1.0,),), [lam, -pi], action
        lam, pi, action, phi = self._base(t)
        gamma, alpha, vphi, beta, _, _ = self._route2(t, self._a(t))
        cph, sph, ev, evm = math.cos(phi), math.sin(phi), math.exp(vphi), math.exp(-vphi)
        eg, egm, delta = math.exp(gamma), math.exp(-gamma), self.Delta
        g_qq = (cph - alpha * sph) * eg * ev
        g_qp = ((beta * cph - alpha * beta * sph) * ev + sph * evm) * eg / delta
        g_pq = -(alpha * cph + sph) * delta * ev * egm
        g_pp = -((beta * sph + alpha * beta * cph) * ev - cph * evm) * egm
        return ((g_qq, g_qp), (g_pq, g_pp)), ((1.0,),), [lam, -pi], action


@dataclass(frozen=True, eq=False)
class ParamTrajectory2D:
    """Planar trajectory: rotation angle, per-axis translations, shared
    radial; the field profile and the translation solve's ``ode`` Result,
    which ``until`` cuts."""

    profile: FieldProfile2D
    radial: ParamTrajectory
    t_end: float
    t_grid: np.ndarray
    _dense: object
    _results: tuple = ()

    @property
    def valid_to(self) -> float:
        return self.radial.valid_to

    @property
    def hbar(self) -> float:
        return self.radial.hbar

    def until(self, t_end: float) -> ParamTrajectory2D:
        """The trajectory that ``solve_2d`` returns for [0, t_end], t_end <=
        self.t_end, bit for bit, from this one's solves cut at t_end (see
        ``ParamTrajectory.until``)."""
        if t_end == self.t_end:
            return self
        _check_solved(self, t_end)
        return _solve_2d(self.profile, t_end, self.radial.tol, self.radial.path, self)

    def sample(self, t: float):
        _check_solved(self, t)
        lam_x, lam_y, pi_x, pi_y, s, theta = self._dense(t)
        return {"t": t, "S": s, "theta": theta, "lam_x": lam_x, "lam_y": lam_y,
                "Pi_x": pi_x, "Pi_y": pi_y, "radial": self.radial.sample(t)}

    def _map_parts(self, t: float):
        """The radial route's block (its read checks t), R(theta), (lam, -Pi) and S."""
        block = self.radial._map_parts(t)[0]
        lam_x, lam_y, pi_x, pi_y, action, theta = self._dense(t)
        return block, _rotation(theta), [lam_x, lam_y, -pi_x, -pi_y], action


def _rotation(theta: float) -> tuple[tuple[float, float], ...]:
    """The 2x2 rotation R(theta), as rows: the planar map's rotation part."""
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s), (s, c)


def _check_solved(traj, t: float):
    if not 0.0 <= t <= traj.t_end:
        raise DomainError(f"t={t} outside the solved interval [0, {traj.t_end}]")


def _knots(*profiles) -> set[float]:
    return {float(tk) for p in profiles for tk in p.knots}


def _coefficient_knots(coeffs: CoefficientSet1D) -> set[float]:
    return _knots(coeffs.a, coeffs.b, coeffs.c, coeffs.d, coeffs.e, coeffs.g)


def _run_ivp(rhs, y0, t_end, tol, what, knots=(), event=None):
    """Solve y' = rhs(t, y), y(0) = y0 on [0, t_end] with ``ode.solve`` (DOP853).

    rtol = tol/10 (at least ``ode.RTOL_FLOOR``) and atol = rtol/100: at a tenth of
    tol the order-8 method is as accurate, in the worst case, as RK45 at tol,
    in far fewer steps.  The solve restarts at every knot in (0, t_end), since
    a high-order step across a point where the right-hand side is not smooth
    loses its order; one dense solution spans the segments, and the terminal
    ``event``, if given, ends the solve.  ``rhs`` and ``event`` get t as a
    float and y as a list of floats, as ``ode.solve`` passes them; so they
    square by products or numpy's power and divide by no part of y that can
    be zero, where a float raises and numpy gives inf or nan.
    """
    rtol = max(tol / 10.0, ode.RTOL_FLOOR)
    bounds = [0.0, *sorted(tk for tk in knots if 0.0 < tk < t_end), t_end]
    return ode.solve(rhs, y0, bounds, rtol, rtol * 1e-2, what, event=event)


def _linear_rhs(coeffs: CoefficientSet1D):
    """Rates of (lam, Pi, S) as a function of (t, y, a, b, c), from the a, b,
    c values its caller has read at t; d, e and g are compiled here."""
    d_of, e_of, g_of = (p.scalar()[0] for p in (coeffs.d, coeffs.e, coeffs.g))

    def rates(t, y, a: float, b: float, c: float):
        d, e, g = d_of(t), e_of(t), g_of(t)
        lam, pi = y[0], y[1]
        lam_dot = b * lam - a * pi + d
        pi_dot = c * lam - b * pi + e
        s_dot = (
            g + 0.5 * a * pi * pi + 0.5 * c * lam * lam
            - b * lam * pi - d * pi + e * lam + lam_dot * pi
        )
        return lam_dot, pi_dot, s_dot

    return rates


def _first_event(sol) -> float:
    """Time of the solve's first event; +inf if there was none."""
    return sol.t_events[0] if sol.t_events else math.inf


def solve(system: CoefficientSet1D | FieldProfile2D, t_end: float, tol: float = 1e-10,
          path: Literal["path1", "path2"] = "path1") -> ParamTrajectory | ParamTrajectory2D:
    """``system``'s trajectory by route ``path``: ``solve_2d`` for a planar
    field, else ``solve_path1`` or ``solve_path2``, each read from the module
    when called, so that a solver replaced there serves every caller."""
    if isinstance(system, FieldProfile2D):
        return solve_2d(system, t_end, tol, path)
    _check_route(path)
    return (solve_path1 if path == "path1" else solve_path2)(system, t_end, tol)


def _check_route(path):
    if path not in ("path1", "path2"):
        raise DomainError(f"path must be 'path1' or 'path2', got {path!r}")


def solve_path1(coeffs: CoefficientSet1D, t_end: float, tol: float = 1e-10) -> ParamTrajectory:
    """Route 1 parameters: Delta = 1/a(0), gamma = ln(a*Delta)/2, linearized
    Riccati via u'' + (2b - a'/a) u' + a c u = 0."""
    return _solve_path1(coeffs, t_end, tol)


def _cut(longer, i: int, t_end: float):
    """The ``i``-th solve of the ``longer`` trajectory cut at t_end, which is
    the Result of ``_run_ivp`` to t_end bit for bit; None without one."""
    return None if longer is None else longer._results[i].until(t_end)


def _solve_path1(coeffs, t_end, tol, longer=None):
    """``solve_path1``, cutting the solve of the ``longer`` trajectory if given."""
    check_horizon(t_end)
    coeffs.a.require_positive(t_end, "a", "required by exp(2*gamma) = a*Delta")
    (a_of, adot_of), (b_of, _), (c_of, _) = (p.scalar() for p in (coeffs.a, coeffs.b, coeffs.c))
    linear = _linear_rhs(coeffs)
    a0 = a_of(0.0)
    delta = 1.0 / a0

    def rhs(t, y):
        a, b, c = a_of(t), b_of(t), c_of(t)
        if not a > 0.0:
            raise DomainError(f"a(t) must stay positive (required by exp(2*gamma) = "
                              f"a*Delta); a={a:.6g} at t={t:.6g}")
        lam_dot, pi_dot, s_dot = linear(t, y, a, b, c)
        damping = 2.0 * b - adot_of(t) / a
        u, udot, v, vdot = y[4], y[5], y[6], y[7]
        return (
            lam_dot, pi_dot, s_dot,
            b,
            udot, -damping * udot - a * c * u,
            vdot, -damping * vdot - a * c * v,
        )

    y0 = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, a0]
    focus = lambda t, y: y[4]   # u = 0
    sol = _cut(longer, 0, t_end) or _run_ivp(rhs, y0, t_end, tol, "route-1 parameters",
                                             knots=_coefficient_knots(coeffs), event=focus)
    return ParamTrajectory(
        path="path1", coeffs=coeffs, t_end=float(t_end), tol=tol, Delta=delta,
        t_grid=sol.t, valid_to=_first_event(sol), _base=sol.sol, _a=a_of, _results=(sol,),
    )


def _path2_gamma_dot(a: float, adot: float, c: float, cdot: float) -> float:
    """gamma' of route 2 from a, c and their rates."""
    return 0.25 * (adot / a - cdot / c)


# ends route 2's message for a c that is not positive where a is: route 1
# solves that system, but not one with a <= 0 or an infinite c
_ROUTE_1_ADVICE = "; route 2 needs c > 0, use route 1 instead"


def _path2_guard(t, a: float, c: float):
    if not a > 0.0 or not c > 0.0:
        raise DomainError(f"a(t) and c(t) must stay positive (sqrt(a*c) must be real); "
                          f"a={a:.6g}, c={c:.6g} at t={t:.6g}"
                          f"{_ROUTE_1_ADVICE if a > 0.0 else ''}")


def _is_shortcut(a_of, adot_of, b_of, c_of, cdot_of, t_end: float) -> bool:
    """Whether b = gamma' to _SHORTCUT_RTOL at every probe time, from the
    compiled a, a', b, c and c'.  The first probe time at which they differ,
    or at which a read raises an arithmetic or math-domain error, rules the
    shortcut out."""
    try:
        for t in np.linspace(0.0, t_end, _PROBE_POINTS).tolist():
            b = b_of(t)
            gdot = _path2_gamma_dot(a_of(t), adot_of(t), c_of(t), cdot_of(t))
            if abs(b - gdot) >= _SHORTCUT_RTOL * (1.0 + abs(b) + abs(gdot)):
                return False
    except (ArithmeticError, ValueError):
        return False
    return True


def solve_path2(coeffs: CoefficientSet1D, t_end: float, tol: float = 1e-10) -> ParamTrajectory:
    """Route 2 parameters: Delta = sqrt(c0/a0), phi' = sqrt(a c).

    Requires a(t) > 0 and c(t) > 0 (sqrt(a c) and sqrt(a/c) must be real).
    If b - gamma' vanishes identically the factorization terminates early
    and alpha = vphi = beta = 0.
    """
    return _solve_path2(coeffs, t_end, tol)


def _solve_path2(coeffs, t_end, tol, longer=None):
    """``solve_path2``, cutting the solves of the ``longer`` trajectory if
    given and it took the same shortcut verdict."""
    check_horizon(t_end)
    coeffs.a.require_positive(t_end, "a", "sqrt(a*c) must be real")
    coeffs.c.require_positive(t_end, "c", "sqrt(a/c) must be real", advice=_ROUTE_1_ADVICE)
    (a_of, adot_of), (b_of, _), (c_of, cdot_of) = (
        p.scalar() for p in (coeffs.a, coeffs.b, coeffs.c))
    linear = _linear_rhs(coeffs)
    delta = math.sqrt(c_of(0.0) / a_of(0.0))
    shortcut = _is_shortcut(a_of, adot_of, b_of, c_of, cdot_of, t_end)
    if longer is not None and longer.shortcut != shortcut:
        longer = None

    def base_rhs(t, y):
        a, b, c = a_of(t), b_of(t), c_of(t)
        _path2_guard(t, a, c)
        return (*linear(t, y, a, b, c), math.sqrt(a * c))

    half_turn = lambda t, y: y[3] - math.pi   # phi = pi
    base = _cut(longer, 0, t_end) or _run_ivp(
        base_rhs, [0.0, 0.0, 0.0, 0.0], t_end, tol, "route-2 parameters",
        knots=_coefficient_knots(coeffs), event=half_turn)

    results = (base,)
    riccati_dense = None
    riccati_t_end = t_end
    if not shortcut:

        def ric_rhs(t, y):
            # alpha' = w sin(2phi) alpha^2 - 2w cos(2phi) alpha - w sin(2phi)
            # integrated projectively as alpha = Q/P with the linear pair
            # Q' = -w(cos(2phi) Q + sin(2phi) P), P' = w(cos(2phi) P - sin(2phi) Q),
            # which passes smoothly through zeros of the quadratic coefficient;
            # phi' = sqrt(a c) rides along, so no dense output is read here.
            a, c = a_of(t), c_of(t)
            _path2_guard(t, a, c)
            w = b_of(t) - _path2_gamma_dot(a, adot_of(t), c, cdot_of(t))
            qq, pp, _, vphi, _, phi = y
            c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
            # a stage past the blow-up event can land on P = 0: IEEE's qq/pp
            alpha = qq / pp if pp else math.copysign(math.inf, pp) * qq
            return (
                -w * (c2 * qq + s2 * pp),
                w * (c2 * pp - s2 * qq),
                alpha,
                w * (c2 - alpha * s2),
                w * math.exp(-2.0 * vphi) * s2,
                math.sqrt(a * c),
            )

        # alpha = Q/P diverges where P vanishes; stop just before that point
        # (|alpha| crossing the cap) so the quadrature components stay finite
        cap = 1e8
        # numpy's power on the float state: pow's bits, and inf where a float's ** raises
        blow_up = lambda t, y: y[0] * y[0] - np.float64(cap * y[1]) ** 2
        blow_up.terminal = True
        ric = _cut(longer, 1, t_end) or _run_ivp(
            ric_rhs, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], t_end, tol,
            "route-2 quadratic-phase parameters", knots=_knots(coeffs.a, coeffs.b, coeffs.c),
            event=blow_up)
        results = (base, ric)
        riccati_dense = ric.sol
        if ric.status == 1:
            riccati_t_end = _first_event(ric) * (1.0 - 1e-12)

    valid_to = min(_first_event(base), riccati_t_end if riccati_t_end < t_end else math.inf)
    return ParamTrajectory(
        path="path2", coeffs=coeffs, t_end=float(t_end), tol=tol, Delta=delta,
        t_grid=base.t, valid_to=valid_to, _base=base.sol, _a=a_of, _c=c_of,
        shortcut=shortcut, _riccati=riccati_dense, _riccati_t_end=riccati_t_end,
        _results=results,
    )


def solve_2d(
    profile: FieldProfile2D,
    t_end: float,
    tol: float = 1e-10,
    path: Literal["path1", "path2"] = "path1",
) -> ParamTrajectory2D:
    """Planar charged particle: coupled (lam, Pi) system, theta' = qB/2m,
    radial parameters delegated to the chosen 1D route."""
    return _solve_2d(profile, t_end, tol, path)


def _solve_2d(profile, t_end, tol, path, longer=None):
    """``solve_2d``, cutting the solves of the ``longer`` trajectory if given."""
    check_horizon(t_end)
    _check_route(path)
    profile.m.require_positive(t_end, "m", _MASS_REQUIREMENT)
    q = profile.charge
    m_of, b_of, k_of, ex_of, ey_of = (
        p.scalar()[0] for p in (profile.m, profile.B, profile.K, profile.Ex, profile.Ey))

    def rhs(t, y):
        m = m_of(t)
        if not m > 0.0:
            raise DomainError(f"m(t) must stay positive ({_MASS_REQUIREMENT}); "
                              f"m={m:.6g} at t={t:.6g}")
        bb, kk, ex, ey = b_of(t), k_of(t), ex_of(t), ey_of(t)
        wb = q * bb / (2.0 * m)
        kappa = kk + q * q * bb * bb / (4.0 * m)
        lam_x, lam_y, pi_x, pi_y = y[0], y[1], y[2], y[3]
        lamx_dot = -pi_x / m - wb * lam_y
        lamy_dot = -pi_y / m + wb * lam_x
        pix_dot = kappa * lam_x - wb * pi_y + q * ex
        piy_dot = kappa * lam_y + wb * pi_x + q * ey
        lagrangian = (
            (pi_x * pi_x + pi_y * pi_y) / (2.0 * m)
            + 0.5 * kappa * (lam_x * lam_x + lam_y * lam_y)
            + wb * (lam_y * pi_x - lam_x * pi_y)
            + lamx_dot * pi_x + lamy_dot * pi_y
            + q * ex * lam_x + q * ey * lam_y
        )
        return lamx_dot, lamy_dot, pix_dot, piy_dot, lagrangian, wb

    try:
        sol = _cut(longer, 0, t_end) or _run_ivp(
            rhs, [0.0] * 6, t_end, tol, "planar translation parameters",
            knots=_knots(profile.m, profile.B, profile.K, profile.Ex, profile.Ey))
    except IntegrationError as err:
        # the solver can meet the 1/m pole on step size without evaluating
        # m <= 0, so look just past where it stopped
        past = err.last_time + t_end * _POLE_OFFSETS
        profile.m.require_positive(t_end, "m", _MASS_REQUIREMENT, times=past[past <= t_end])
        raise
    radial = longer.radial.until(t_end) if longer else solve(reduce_2d(profile), t_end, tol, path)
    return ParamTrajectory2D(profile=profile, radial=radial, t_end=t_end, t_grid=sol.t,
                             _dense=sol.sol, _results=(sol,))
