"""Closed-form parameter solutions versus the ODE machinery."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from liegate import closedforms, ode, paramflow
from liegate.closedforms import (
    _efield_addends,
    _sum_addends,
    bfield_sin_params_at,
    efield_const_b_params,
    efield_derived_constants,
    ion_trap_params_at,
    kanai_caldirola_params,
    mathieu_c,
)
from liegate.coeffs import CoefficientSet1D, Exponential, FieldProfile2D, Sinusoid
from liegate.errors import CausticError, DomainError, ResonanceError


class TestMathieu:
    def test_zero_q_reduces_to_cosine(self):
        ev = mathieu_c(1.0, 0.0, math.pi / 3.0)
        assert ev.C == pytest.approx(0.5, abs=1e-12)
        assert ev.Cp == pytest.approx(-math.sin(math.pi / 3.0), abs=1e-12)

    def test_initial_conditions(self):
        ev = mathieu_c(2.3, 0.7, 0.0)
        assert ev.C == 1.0 and ev.Cp == 0.0

    def test_richardson_self_consistency(self):
        a, q, z = 2.0, 0.5, 1.0
        full = mathieu_c(a, q, z, tol=1e-12)
        half = mathieu_c(a, q, z, tol=5e-13)
        assert abs(full.C - half.C) < 1e-10

    @pytest.mark.parametrize("tol", [1e-12, 5e-13])
    def test_one_solve_serves_every_z_bit_for_bit(self, tol):
        # each z against a solve to |z| alone, as mathieu_c solved before
        zs = (0.7, -1.5, 0.0, 3.0, 1.5)
        for a, q in ((0.5, 0.0), (2.0, 1.0), (1.0, 0.4)):
            for z, ev in zip(zs, closedforms.mathieu_cs(a, q, zs, tol=tol)):
                if z == 0.0:
                    assert (ev.C, ev.Cp) == (1.0, 0.0)
                    continue
                sol = ode.solve(closedforms._mathieu_rhs(a, q), [1.0, 0.0], (0.0, abs(z)),
                                tol, tol, "Mathieu", dense=False)
                cp = math.copysign(1.0, z) * sol.y[1, -1]
                assert (ev.z, ev.C, ev.Cp) == (z, sol.y[0, -1], cp)

    def test_even_function_against_scaled_cosine(self):
        # q = 0 general a: C = cos(sqrt(a) z) for a > 0
        for a in (0.3, 1.7, 4.0):
            for z in (0.5, 1.2, 2.5):
                ev = mathieu_c(a, 0.0, z)
                assert ev.C == pytest.approx(math.cos(math.sqrt(a) * z), abs=1e-11)


def test_reciprocal_square_rate_is_ieee_at_a_zero_of_c():
    # the step loop passes y as floats, where 1.0 / 0.0 raises; the rate
    # stays numpy's inf, and nan at nan
    rhs = closedforms._reciprocal_square_rhs(2.0, 0.5)
    for c in (0.0, -0.0, 1e-170):
        assert rhs(0.3, [c, 1.0, 0.0]) == (1.0, -(2.0 - math.cos(0.6)) * c, math.inf)
    assert rhs(0.3, [2.0, 1.0, 0.0])[2] == 0.25
    assert math.isnan(rhs(0.3, [math.nan, 1.0, 0.0])[2])


def reciprocal_square_alone(a, q, z):
    """(C, C', int_0^z dz'/C^2) from a crossing probe and a quadrature to z
    alone, as the closed forms solved each time before; the crossing's z if
    C vanishes first."""
    tol = closedforms._RECIPROCAL_SQUARE_TOL
    crossing = lambda zz, y: y[0]
    crossing.terminal = True
    probe = ode.solve(closedforms._mathieu_rhs(a, q), [1.0, 0.0], (0.0, z), tol, tol * 1e-2,
                      "Mathieu", event=crossing, dense=False)
    if probe.status == 1:
        return probe.t_events[0]
    sol = ode.solve(closedforms._reciprocal_square_rhs(a, q), [1.0, 0.0, 0.0], (0.0, z), tol,
                    tol * 1e-2, "Mathieu", dense=False)
    return tuple(float(v) for v in sol.y[:, -1])


class TestReciprocalSquare:
    # the rf trap's and the sinusoidal field's reference (a, q), and a cosine
    @pytest.mark.parametrize("a, q", [(0.16, -0.024), (4.0 / 72, 4.0 / 144), (1.0, 0.0)])
    def test_one_pair_of_solves_serves_every_z_bit_for_bit(self, a, q):
        zs = (1.0, 0.0, 1.5, 0.4, 1.5, 1e-3)
        assert closedforms._mathieu_with_reciprocal_square(a, q, zs) == \
            [(1.0, 0.0, 0.0) if z == 0.0 else reciprocal_square_alone(a, q, z) for z in zs]

    @pytest.mark.parametrize("past", [1.5708, 2.0, 3.0])
    def test_the_first_z_past_a_crossing_is_refused_as_alone(self, past):
        # C = cos z vanishes at pi/2: 1.5708 ends its solve a hair past it
        with pytest.raises(CausticError) as caught:
            closedforms._mathieu_with_reciprocal_square(1.0, 0.0, (1.0, past, 1.6, 3.0))
        z_c = reciprocal_square_alone(1.0, 0.0, past)
        assert caught.value.valid_to == z_c == pytest.approx(math.pi / 2, abs=1e-9)
        assert str(caught.value) == (f"Mathieu cosine vanishes at z={z_c:.12g}, before the "
                                     f"requested z={past}; parameters are singular there")

    def test_the_plural_forms_are_the_one_time_forms(self):
        # many times from one solve are each time's own solve, bit for bit
        ts = (0.4, 0.0, 0.8, 0.2, 0.8)
        assert ion_trap_params_at(1.0, 1.0, 0.3, 5.0, ts) == \
            [ion_trap_params_at(1.0, 1.0, 0.3, 5.0, (t,))[0] for t in ts]
        for b0 in (2.0, 0.0):
            assert bfield_sin_params_at(1.0, b0, 3.0, 1.0, ts) == \
                [bfield_sin_params_at(1.0, b0, 3.0, 1.0, (t,))[0] for t in ts]
        for plural in (lambda ts: ion_trap_params_at(1.0, 1.0, 0.3, 5.0, ts),
                       lambda ts: bfield_sin_params_at(1.0, 2.0, 3.0, 1.0, ts)):
            with pytest.raises(DomainError, match="t must be non-negative"):
                plural((0.4, -0.1))


class TestIonTrap:
    def test_static_limit_is_oscillator(self):
        # k = 0, K = m Om0^2: alpha = Om0 tan(Om0 t)
        m, om0 = 1.0, 0.8
        t = 0.9
        alpha, phi, beta = ion_trap_params_at(m, m * om0 * om0, 0.0, 5.0, (t,))[0]
        assert alpha == pytest.approx(om0 * math.tan(om0 * t), rel=1e-9)
        assert phi == pytest.approx(math.log(math.cos(om0 * t)), rel=1e-9)
        assert beta == pytest.approx(math.tan(om0 * t) / om0, rel=1e-9)

    def test_zero_time(self):
        assert ion_trap_params_at(1.0, 1.0, 0.3, 5.0, (0.0,))[0] == (0.0, 0.0, 0.0)

    def test_matches_route1_solver(self):
        m, big_k, small_k, omega = 1.0, 1.0, 0.3, 5.0
        cs = CoefficientSet1D.build(
            a=1.0 / m, c=Sinusoid(small_k, omega, math.pi / 2, big_k)
        )
        tr = paramflow.solve_path1(cs, 0.5, tol=1e-12)
        t = 0.4
        alpha, phi, beta = ion_trap_params_at(m, big_k, small_k, omega, (t,))[0]
        s = tr.sample(t)
        assert alpha == pytest.approx(s.alpha, abs=1e-8)
        assert phi == pytest.approx(s.phi, abs=1e-8)
        assert beta == pytest.approx(s.beta, abs=1e-8)

    def test_caustic_detected(self):
        # static oscillator focuses at t = pi/(2 Om0)
        with pytest.raises(CausticError):
            ion_trap_params_at(1.0, 1.0, 0.0, 5.0, (2.0,))


class TestKanaiCaldirola:
    def test_free_oscillator_beta(self):
        kp = kanai_caldirola_params(1.0, 1.0, 0.25, 0.0, 0.0, 1.0, 1.0)
        assert kp.lam == 0.0 and kp.Pi == 0.0
        assert kp.beta == pytest.approx(0.6404, abs=2e-4)
        assert kp.gamma == -0.5
        assert kp.Delta == 1.0

    def test_gamma_is_linear_in_time(self):
        for t in (0.3, 1.0, 2.2):
            kp = kanai_caldirola_params(2.0, 1.5, 0.25, 0.1, 0.0, 1.0, t)
            assert kp.gamma == pytest.approx(-t / 3.0, rel=1e-14)

    def test_matches_route1_solver_with_drive(self):
        m, tau, om0, f0, f1, om1 = 1.0, 1.0, 0.25, 0.3, 0.2, 1.0
        from liegate.coeffs import Derived

        e_prof = Derived(
            fn=lambda t: -np.exp(t / tau) * (f0 + f1 * np.sin(om1 * t)),
            dfn=lambda t: (
                -np.exp(t / tau) * (f0 + f1 * np.sin(om1 * t)) / tau
                - np.exp(t / tau) * f1 * om1 * np.cos(om1 * t)
            ),
        )
        cs = CoefficientSet1D.build(
            a=Exponential(1.0 / m, -1.0 / tau),
            c=Exponential(m * om0 * om0, 1.0 / tau),
            e=e_prof,
        )
        tr = paramflow.solve_path1(cs, 1.5, tol=1e-12)
        for t in (0.5, 1.0, 1.5):
            kp = kanai_caldirola_params(m, tau, om0, f0, f1, om1, t)
            s = tr.sample(t)
            assert kp.lam == pytest.approx(s.lam, abs=1e-6)
            assert kp.Pi == pytest.approx(s.Pi, abs=1e-6)
            assert kp.alpha == pytest.approx(s.alpha, abs=1e-6)
            assert kp.phi == pytest.approx(s.phi, abs=1e-6)
            assert kp.beta == pytest.approx(s.beta, abs=1e-6)

    def test_weak_damping_is_real_and_matches_ode(self):
        m, tau, om0 = 1.0, 1.0, 2.0
        cs = CoefficientSet1D.build(
            a=Exponential(1.0 / m, -1.0 / tau),
            c=Exponential(m * om0 * om0, 1.0 / tau),
        )
        tr = paramflow.solve_path1(cs, 0.6, tol=1e-12)
        kp = kanai_caldirola_params(m, tau, om0, 0.0, 0.0, 1.0, 0.5)
        assert isinstance(kp.alpha, float) and isinstance(kp.beta, float)
        s = tr.sample(0.5)
        assert kp.alpha == pytest.approx(s.alpha, abs=1e-8)
        assert kp.beta == pytest.approx(s.beta, abs=1e-8)
        assert kp.phi == pytest.approx(s.phi, abs=1e-8)

    def test_branches_agree_near_critical_damping(self):
        # omega0 -> 1/(2 tau) from both sides, gap 1e-3, tolerance 1e-2
        tau, t = 1.0, 0.8
        om_crit = 1.0 / (2.0 * tau)
        above = kanai_caldirola_params(1.0, tau, om_crit * (1 + 1e-3), 0.2, 0.0, 1.0, t)
        below = kanai_caldirola_params(1.0, tau, om_crit * (1 - 1e-3), 0.2, 0.0, 1.0, t)
        for field in ("lam", "Pi", "alpha", "phi", "beta"):
            assert getattr(above, field) == pytest.approx(
                getattr(below, field), abs=1e-2
            )

    def test_critical_damping_rejected(self):
        with pytest.raises(DomainError, match="critical damping"):
            kanai_caldirola_params(1.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0)


class TestBFieldSin:
    def test_zero_field_is_free(self):
        alpha, phi, beta, theta = bfield_sin_params_at(1.0, 0.0, 3.0, 1.0, (1.2,))[0]
        assert (alpha, phi, theta) == (0.0, 0.0, 0.0)
        assert beta == pytest.approx(1.2, rel=1e-12)

    def test_theta_at_half_drive_period(self):
        m, b0, omega, q = 1.0, 2.0, 3.0, 1.0
        _, _, _, theta = bfield_sin_params_at(m, b0, omega, q, (math.pi / omega,))[0]
        assert theta == pytest.approx(q * b0 / m / omega, rel=1e-12)

    def test_matches_planar_solver(self):
        m, b0, omega, q = 1.0, 2.0, 3.0, 1.0
        field = FieldProfile2D.build(m=m, B=Sinusoid(b0, omega), K=0.0, charge=q)
        tr = paramflow.solve_2d(field, 1.0, tol=1e-12, path="path1")
        for t in (0.3, 0.7, 1.0):
            alpha, phi, beta, theta = bfield_sin_params_at(m, b0, omega, q, (t,))[0]
            rec = tr.sample(t)
            r = rec["radial"]
            assert alpha == pytest.approx(r.alpha, abs=1e-8)
            assert phi == pytest.approx(r.phi, abs=1e-8)
            assert beta == pytest.approx(r.beta, abs=1e-8)
            assert theta == pytest.approx(rec["theta"], abs=1e-8)


EFIELD_ARGS = dict(
    m=1.0, charge=1.0, B=2.0, K=0.5,
    E0x=0.3, E0y=0.0, E1x=0.0, E1y=0.2, omega=1.3, zeta=math.pi / 2,
)
# every term of every table nonzero: E0y and E1x drive too, and the charge
# is negative, so the cyclotron rotation runs the other way
GENERIC_EFIELD_ARGS = dict(
    m=1.3, charge=-0.7, B=1.7, K=0.4,
    E0x=0.3, E0y=-0.25, E1x=0.15, E1y=0.2, omega=1.1, zeta=0.7,
)


def efield_translation_ode(p, t_eval):
    """Independent integration of the planar translation equations for the
    closed form's arguments ``p``."""
    m, q, b, k = p["m"], p["charge"], p["B"], p["K"]
    wb = q * b / (2 * m)
    kappa = k + q * q * b * b / (4 * m)

    def ex(t):
        return p["E0x"] + p["E1x"] * math.sin(p["omega"] * t)

    def ey(t):
        return p["E0y"] + p["E1y"] * math.sin(p["omega"] * t + p["zeta"])

    def rhs(t, y):
        lx, ly, px, py = y
        return [
            -px / m - wb * ly,
            -py / m + wb * lx,
            kappa * lx - wb * py + q * ex(t),
            kappa * ly + wb * px + q * ey(t),
        ]

    sol = solve_ivp(rhs, (0.0, max(t_eval)), [0.0] * 4, rtol=1e-12, atol=1e-14,
                    t_eval=t_eval, method="DOP853")
    return sol.y


class TestEFieldConstB:
    def test_derived_constants(self):
        d = efield_derived_constants(1.0, 1.0, 2.0, 0.5, 1.3)
        assert d.omega_c == pytest.approx(2.0)
        assert d.Omega == pytest.approx(math.sqrt(6.0))
        assert d.gamma_minus2 == pytest.approx(d.Omega**2 - d.omega_c**2, rel=1e-14)
        assert d.gamma_plus2 == pytest.approx(d.Omega**2 + d.omega_c**2, rel=1e-14)
        prod = (4 * 1.3**2 - (d.Omega + d.omega_c) ** 2) * (
            4 * 1.3**2 - (d.Omega - d.omega_c) ** 2
        )
        assert d.gamma4 == pytest.approx(prod, rel=1e-12)

    def test_zero_field_zero_translation(self):
        cf = efield_const_b_params(1.0, 1.0, 2.0, 0.5, 0.0, 0.0, 0.0, 0.0, 1.3, 0.0, 2.0)
        assert (cf.lam_x, cf.lam_y, cf.Pi_x, cf.Pi_y) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_time_is_identity(self):
        cf = efield_const_b_params(t=0.0, **EFIELD_ARGS)
        assert abs(cf.lam_x) < 1e-15 and abs(cf.lam_y) < 1e-15
        assert abs(cf.Pi_x) < 1e-15 and abs(cf.Pi_y) < 1e-15

    def test_matches_translation_ode(self):
        ts = np.array([0.5, 1.0, 2.0])
        for args in (EFIELD_ARGS, GENERIC_EFIELD_ARGS):
            ref = efield_translation_ode(args, ts)
            for idx, t in enumerate(ts):
                cf = efield_const_b_params(t=float(t), **args)
                got = np.array([cf.lam_x, cf.lam_y, cf.Pi_x, cf.Pi_y])
                assert np.max(np.abs(got - ref[:, idx])) < 1e-6

    def test_alt_resonance_denominator_fails_equations_of_motion(self):
        # the denominator with (Omega + w_c)^2 in place of Omega^2 + w_c^2
        # is inconsistent with the translation equations
        a = EFIELD_ARGS
        d = efield_derived_constants(a["m"], a["charge"], a["B"], a["K"], a["omega"])
        wc, om, w = d.omega_c, d.Omega, a["omega"]
        g4_alt = 16.0 * w**4 + d.gamma_minus2**2 - 8.0 * w**2 * (om + wc) ** 2
        tables = _efield_addends(a["m"], a["charge"], a["E0x"], a["E0y"], a["E1x"], a["E1y"],
                                 a["zeta"], w, wc, om, d.gamma_minus2, d.gamma_plus2, g4_alt)
        got = np.array([_sum_addends(table, 2.0, om, wc, w) for table in tables])
        ref = efield_translation_ode(a, np.array([2.0]))[:, 0]
        assert np.max(np.abs(got - ref)) > 1e-3

    def test_radial_shortcut_values(self):
        cf = efield_const_b_params(t=2.0, **EFIELD_ARGS)
        d = efield_derived_constants(1.0, 1.0, 2.0, 0.5, 1.3)
        assert cf.phi == pytest.approx(d.Omega, rel=1e-14)  # Omega t / 2 at t=2
        assert cf.theta == pytest.approx(d.omega_c, rel=1e-14)
        assert cf.Delta == pytest.approx(0.5 * d.Omega, rel=1e-14)
        assert cf.alpha == 0.0 and cf.vphi == 0.0 and cf.beta == 0.0

    def test_static_resonance_rejected(self):
        with pytest.raises(ResonanceError, match="4K/m"):
            efield_const_b_params(1.0, 1.0, 2.0, 0.0, 0.1, 0.0, 0.0, 0.0, 1.3, 0.0, 1.0)

    def test_drive_resonance_rejected(self):
        d = efield_derived_constants(1.0, 1.0, 2.0, 0.5, 1.0)
        resonant_omega = 0.5 * (d.Omega + d.omega_c)
        with pytest.raises(ResonanceError, match="resonant drive"):
            efield_const_b_params(
                1.0, 1.0, 2.0, 0.5, 0.1, 0.0, 0.0, 0.1, resonant_omega, 0.0, 1.0
            )


def test_closed_forms_match_paramflow_everywhere():
    """Every closed form agrees with the ODE route on its validity window."""
    # rf trap
    cs = CoefficientSet1D.build(a=1.0, c=Sinusoid(0.3, 5.0, math.pi / 2, 1.0))
    tr = paramflow.solve_path1(cs, 1.0, tol=1e-12)
    for t in np.linspace(0.1, 1.0, 7):
        alpha, phi, beta = ion_trap_params_at(1.0, 1.0, 0.3, 5.0, (float(t),))[0]
        s = tr.sample(float(t))
        scale = max(1.0, abs(s.alpha), abs(s.beta))
        assert abs(alpha - s.alpha) / scale < 1e-6
        assert abs(beta - s.beta) / scale < 1e-6
    # driven damped oscillator, weak-damping branch realness (t inside the
    # first focal window of the oscillating solution)
    kp = kanai_caldirola_params(1.0, 0.9, 2.0, 0.4, 0.3, 1.7, 0.5)
    for value in (kp.lam, kp.Pi, kp.alpha, kp.phi, kp.beta):
        assert isinstance(value, float)
