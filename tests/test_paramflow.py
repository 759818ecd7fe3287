"""Transformation-parameter solvers: both routes, 1D and planar."""

import math
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from liegate import maps, ode, oracle, paramflow
from liegate.coeffs import (
    CoefficientSet1D,
    Constant,
    Derived,
    Exponential,
    FieldProfile2D,
    Sinusoid,
    Tabulated,
    TimeProfile,
)
from liegate.errors import DomainError, IntegrationError
from liegate.paramflow import solve_2d, solve_path1, solve_path2
from liegate.verify import random_smooth_coeffs


def sho():
    return CoefficientSet1D.build(a=1.0, c=1.0)


def scan_first_root(fn, t_grid, t_end):
    """First sign change of fn on (0, t_end] over the step grid plus 2049
    fixed points, refined by brentq to 1e-10 relative: the scan the solver
    events replaced, kept as their reference."""
    ts = np.unique(np.concatenate([t_grid, np.linspace(0.0, t_end, 2049)]))
    sign = np.sign([fn(t) for t in ts])
    for k in range(1, len(ts)):
        if sign[k] == 0.0 and ts[k] > 0.0:
            return float(ts[k])
        if sign[k - 1] * sign[k] < 0.0:
            return float(brentq(fn, ts[k - 1], ts[k], xtol=1e-300, rtol=1e-10))
    return math.inf


def scan_valid_to(tr):
    """valid_to by the scan: u = 0 on route 1; phi = pi or the end of the
    route-2 quadratic-phase solve on route 2."""
    if tr.path == "path1":
        return scan_first_root(lambda t: float(tr._base(t)[4]), tr.t_grid, tr.t_end)
    phi = lambda t: float(tr._base(t)[3]) - math.pi
    half_turn = scan_first_root(phi, tr.t_grid, tr.t_end) if phi(tr.t_end) >= 0 else math.inf
    return min(half_turn, tr._riccati_t_end if tr._riccati_t_end < tr.t_end else math.inf)


def scalar_is_shortcut(cs, t_end):
    """Route 2's shortcut test one probe time at a time."""
    for t in np.linspace(0.0, t_end, 257):
        a, c, b = float(cs.a(t)), float(cs.c(t)), float(cs.b(t))
        gdot = 0.25 * (float(cs.a.derivative(t)) / a - float(cs.c.derivative(t)) / c)
        if abs(b - gdot) >= 1e-12 * (1.0 + abs(b) + abs(gdot)):
            return False
    return True


def kanai(omega0=0.25, tau=1.0, m=1.0):
    return CoefficientSet1D.build(
        a=Exponential(1.0 / m, -1.0 / tau),
        c=Exponential(m * omega0 * omega0, 1.0 / tau),
    )


class TestLinearTranslation:
    """(lam, Pi, S) on the routes: the classical flow from the phase-space origin."""

    def test_forced_free_particle(self):
        # force f = 1 means e = -1; antiderivatives give Pi = -t, lam = t^2/2
        lp = CoefficientSet1D.build(a=1.0, e=-1.0)
        s = solve_path1(lp, 2.0, tol=1e-12).sample(2.0)
        assert s.lam == pytest.approx(2.0, abs=1e-10)
        assert s.Pi == pytest.approx(-2.0, abs=1e-10)

    def test_zero_drive_stays_at_origin(self):
        cs = CoefficientSet1D.build(a=1.0, b=0.1, c=0.7)
        for tr in (solve_path1(cs, 3.0, tol=1e-12), solve_path2(cs, 3.0, tol=1e-12)):
            times = np.union1d(tr.t_grid, np.linspace(0.0, 3.0, 31))
            samples = [tr.sample(float(t)) for t in times]
            assert all((s.S, s.lam, s.Pi) == (0.0, 0.0, 0.0) for s in samples), tr.path

    def test_sinusoidal_drive_matches_classical_flow(self):
        cs = CoefficientSet1D.build(a=1.0, e=Sinusoid(1.0, 1.0))
        tr = solve_path1(cs, math.pi, tol=1e-12)
        flow = oracle.classical_flow(cs, np.zeros(2), math.pi, tol=1e-12)
        for t in np.linspace(0.2, math.pi, 9):
            s = tr.sample(float(t))
            assert np.max(np.abs(flow.at(float(t)) - [s.lam, -s.Pi])) < 1e-8


class TestPathOne:
    def test_free_particle(self):
        tr = solve_path1(CoefficientSet1D.build(a=1.0), 2.0, tol=1e-12)
        s = tr.sample(1.3)
        assert s.gamma == 0.0
        assert s.alpha == pytest.approx(0.0, abs=1e-12)
        assert s.phi == pytest.approx(0.0, abs=1e-12)
        assert s.beta == pytest.approx(1.3, abs=1e-11)
        assert tr.valid_to == math.inf

    def test_oscillator_at_eighth_period(self):
        tr = solve_path1(sho(), 1.0, tol=1e-12)
        s = tr.sample(math.pi / 4)
        assert s.alpha == pytest.approx(1.0, abs=1e-10)
        assert s.phi == pytest.approx(math.log(math.sqrt(2.0) / 2.0), abs=1e-10)
        assert s.beta == pytest.approx(1.0, abs=1e-10)

    def test_damped_oscillator_beta(self):
        # closed form: beta(t) = 2 tau sinh(Om t)/(sinh(Om t) + 2 tau Om cosh(Om t))
        tau, om0 = 1.0, 0.25
        big = math.sqrt(1.0 - 4.0 * tau**2 * om0**2) / (2.0 * tau)
        t = 1.0
        sh, ch = math.sinh(big * t), math.cosh(big * t)
        beta_exact = 2.0 * tau * sh / (sh + 2.0 * tau * big * ch)
        tr = solve_path1(kanai(), 1.5, tol=1e-12)
        assert tr.sample(t).beta == pytest.approx(beta_exact, abs=1e-6)
        assert beta_exact == pytest.approx(0.6404, abs=2e-4)

    def test_dilation_constraint_holds_pointwise(self):
        cs = random_smooth_coeffs(np.random.default_rng(1))
        tr = solve_path1(cs, 2.0, tol=1e-11)
        for t in np.linspace(0.0, 2.0, 33):
            a = float(cs.a(t))
            gamma = tr.sample(float(t)).gamma
            assert abs(math.exp(2 * gamma) - a * tr.Delta) <= 1e-9 * a * tr.Delta

    def test_riccati_consistency(self):
        cs = random_smooth_coeffs(np.random.default_rng(2))
        tr = solve_path1(cs, 2.0, tol=1e-11)
        hi = min(2.0, 0.95 * tr.valid_to)
        for t in np.linspace(0.01, hi, 17):
            s = tr.sample(float(t))
            if s.u != 0.0:
                resid = abs(s.alpha * s.u + s.udot)
                assert resid <= 1e-8 * (abs(s.alpha * s.u) + abs(s.udot) + 1e-300)

    def test_classical_identification(self):
        cs = random_smooth_coeffs(np.random.default_rng(3))
        tr = solve_path1(cs, 2.0, tol=1e-12)
        flow = oracle.classical_flow(cs, np.zeros(2), 2.0, tol=1e-12)
        worst = 0.0
        for t in np.linspace(0.1, 2.0, 11):
            s = tr.sample(float(t))
            worst = max(worst, float(np.max(np.abs(flow.at(float(t)) - [s.lam, -s.Pi]))))
        assert worst < 1e-7

    def test_action_refinement(self):
        cs = random_smooth_coeffs(np.random.default_rng(4))
        tol = 1e-8
        s_coarse = solve_path1(cs, 2.0, tol=tol).sample(2.0).S
        s_fine = solve_path1(cs, 2.0, tol=tol / 2).sample(2.0).S
        assert abs(s_coarse - s_fine) < 10.0 * tol

    def test_parameters_masked_past_focal_time(self):
        tr = solve_path1(sho(), 3.0, tol=1e-12)
        assert tr.valid_to == pytest.approx(math.pi / 2, rel=1e-10)
        late = tr.sample(2.0)
        assert math.isnan(late.alpha) and math.isnan(late.phi) and math.isnan(late.beta)
        assert late.u == pytest.approx(math.cos(2.0), abs=1e-10)
        assert late.udot == pytest.approx(-math.sin(2.0), abs=1e-10)

    def test_requires_positive_a(self):
        cs = CoefficientSet1D.build(a=Sinusoid(2.0, 1.0, 0.0, 0.5))
        with pytest.raises(DomainError, match="positive"):
            solve_path1(cs, 5.0)

    def test_tabulated_profiles_drive_the_solver(self):
        # spline-backed a(t) supplies its own derivative to the damping term
        from liegate import maps as maps_mod
        from liegate.coeffs import Tabulated

        ts = np.linspace(0.0, 2.2, 121)
        cs = CoefficientSet1D.build(
            a=Tabulated(tuple(ts), tuple(1.0 + 0.3 * np.sin(1.3 * ts))),
            c=Tabulated(tuple(ts), tuple(0.8 + 0.4 * np.cos(0.9 * ts))),
            e=0.25,
        )
        tr = solve_path1(cs, 2.0, tol=1e-11)
        fm = oracle.fundamental_matrix(cs, 2.0, tol=1e-11)
        hi = min(2.0, 0.95 * tr.valid_to)
        for t in np.linspace(0.1, hi, 9):
            diff = np.max(np.abs(maps_mod.assemble_path1(tr, float(t)).M
                                 - fm.at(float(t))))
            assert diff < 1e-7

    def test_singular_coefficient_reports_last_good_time(self):
        from liegate.errors import IntegrationError

        sing = Derived(
            fn=lambda t: 1.0 / (1.02 - t) ** 2,
            dfn=lambda t: 2.0 / (1.02 - t) ** 3,
            label="singular stiffness",
        )
        cs = CoefficientSet1D.build(a=1.0, c=sing)
        with pytest.raises(IntegrationError) as err:
            solve_path1(cs, 1.2, tol=1e-10)
        assert err.value.last_time == pytest.approx(1.02, abs=1e-3)

    @pytest.mark.parametrize("planar", [False, True], ids=["1d", "planar"])
    def test_work_budget_ends_a_huge_horizon(self, planar, monkeypatch):
        # t_end 1e300 is finite but holds ~1e299 oscillation periods
        from liegate.errors import IntegrationError

        monkeypatch.setattr(ode, "_RHS_BUDGET", 3000)
        with pytest.raises(IntegrationError,
                           match="work budget of 3000 right-hand-side evaluations spent") as err:
            if planar:
                solve_2d(FieldProfile2D.build(m=1.0, B=1.0, K=0.5, charge=1.0), 1e300,
                         tol=1e-3, path="path1")
            else:
                solve_path1(sho(), 1e300, tol=1e-3)
        assert 0.0 < err.value.last_time < 1e300
        assert f"{err.value.last_time:.17g}" in str(err.value)


class TestPathTwo:
    def test_constant_radial_oscillator(self):
        # a = 1/m, c = m Omega^2 / 4 yields gamma = 0, phi = Omega t / 2 and
        # the short-circuit alpha = vphi = beta = 0
        m, om = 2.0, 1.6
        cs = CoefficientSet1D.build(a=1.0 / m, c=m * om * om / 4.0)
        tr = solve_path2(cs, 3.0, tol=1e-12)
        assert tr.shortcut
        s = tr.sample(2.0)
        assert s.gamma == pytest.approx(0.0, abs=1e-14)
        assert s.phi == pytest.approx(om * 2.0 / 2.0, abs=1e-10)
        assert s.alpha == 0.0 and s.vphi == 0.0 and s.beta == 0.0
        assert tr.Delta == pytest.approx(m * om / 2.0, rel=1e-14)

    def test_oscillator_shortcut(self):
        tr = solve_path2(sho(), 2.0, tol=1e-12)
        assert tr.shortcut
        s = tr.sample(1.5)
        assert s.phi == pytest.approx(1.5, abs=1e-11)
        assert tr.Delta == 1.0

    def test_focal_time_is_sin_phi_zero(self):
        tr = solve_path2(sho(), 4.0, tol=1e-12)
        assert tr.valid_to == pytest.approx(math.pi, rel=1e-10)

    def test_rejects_nonpositive_c(self):
        cs = CoefficientSet1D.build(a=1.0, c=Sinusoid(1.0, 1.0, 0.0, 0.2))
        with pytest.raises(DomainError, match="route 1"):
            solve_path2(cs, 5.0)

    def test_dilation_constraint(self):
        cs = random_smooth_coeffs(np.random.default_rng(6), positive_c=True)
        tr = solve_path2(cs, 2.0, tol=1e-11)
        for t in np.linspace(0.0, 2.0, 17):
            a = float(cs.a(t))
            c = float(cs.c(t))
            target = tr.Delta * math.sqrt(a / c)
            gamma = tr.sample(float(t)).gamma
            assert abs(math.exp(2 * gamma) - target) <= 1e-9 * target

    def test_strong_cross_term_truncates_gracefully(self):
        # a large (xp+px) coefficient drives route 2's quadratic-phase
        # parameter to infinity before t_end; the trajectory window shrinks
        # and later samples are masked instead of failing
        cs = CoefficientSet1D.build(a=1.0, b=1.5, c=1.0)
        tr = solve_path2(cs, 3.0, tol=1e-10)
        assert 0.0 < tr.valid_to < 3.0
        inside = tr.sample(0.9 * tr.valid_to)
        assert math.isfinite(inside.alpha)
        late = tr.sample(min(3.0, tr.valid_to + 0.5))
        assert math.isnan(late.alpha)
        assert math.isfinite(late.lam) and math.isfinite(late.phi)


class TestPlanar:
    def test_no_field_no_translation(self):
        field = FieldProfile2D.build(m=1.0, B=Sinusoid(2.0, 3.0), K=0.0, charge=1.0)
        tr = solve_2d(field, 1.0, tol=1e-12, path="path1")
        rec = tr.sample(0.9)
        for key in ("lam_x", "lam_y", "Pi_x", "Pi_y", "S"):
            assert rec[key] == 0.0

    def test_rotation_angle_for_sin_field(self):
        m, b0, omega, q = 1.0, 2.0, 3.0, 1.0
        field = FieldProfile2D.build(m=m, B=Sinusoid(b0, omega), K=0.0, charge=q)
        tr = solve_2d(field, 1.5, tol=1e-12, path="path1")
        omega_c = q * b0 / m
        for t in np.linspace(0.1, 1.5, 7):
            expected = (omega_c / omega) * math.sin(omega * t / 2.0) ** 2
            assert tr.sample(float(t))["theta"] == pytest.approx(expected, abs=1e-9)

    def test_driven_translations_match_closed_form_via_flow(self):
        field = FieldProfile2D.build(
            m=1.0, B=2.0, K=0.5, Ex=0.3,
            Ey=Sinusoid(0.2, 1.3, math.pi / 2), charge=1.0,
        )
        tr = solve_2d(field, 2.0, tol=1e-12, path="path2")
        flow = oracle.classical_flow(field, np.zeros(4), 2.0, tol=1e-12)
        for t in np.linspace(0.25, 2.0, 8):
            rec = tr.sample(float(t))
            target = np.array([rec["lam_x"], rec["lam_y"], -rec["Pi_x"], -rec["Pi_y"]])
            assert np.max(np.abs(flow.at(float(t)) - target)) < 1e-7

    def test_theta_rate_is_half_cyclotron(self):
        field = FieldProfile2D.build(m=1.3, B=1.7, K=0.2, charge=-0.8)
        tr = solve_2d(field, 1.0, tol=1e-12, path="path2")
        expected_rate = -0.8 * 1.7 / (2 * 1.3)
        assert tr.sample(1.0)["theta"] == pytest.approx(expected_rate * 1.0, rel=1e-10)

    def test_unknown_route_is_refused(self):
        field = FieldProfile2D.build(m=1.0, B=1.0, K=0.0, charge=1.0)
        with pytest.raises(DomainError, match="path must be 'path1' or 'path2', got 'nosuch'"):
            solve_2d(field, 1.0, path="nosuch")


class TestCausticWindow:
    def test_oscillator(self):
        tr = solve_path1(sho(), 3.0, tol=1e-12)
        assert tr.valid_to == pytest.approx(math.pi / 2, rel=1e-10)

    def test_free_particle(self):
        tr = solve_path1(CoefficientSet1D.build(a=1.0), 5.0, tol=1e-10)
        assert tr.valid_to == math.inf

    def test_strong_damping_never_focuses(self):
        tr = solve_path1(kanai(omega0=0.25), 6.0, tol=1e-10)
        assert tr.valid_to == math.inf
        ts = np.linspace(0.0, 6.0, 301)
        u = np.array([tr.sample(float(t)).u for t in ts])
        assert np.all(u > 0.0)


class TestEventsMatchTheScan:
    @pytest.mark.parametrize("path", ["path1", "path2"])
    def test_valid_to(self, path):
        solver = solve_path1 if path == "path1" else solve_path2
        finite = 0
        for seed in range(16):
            cs = random_smooth_coeffs(np.random.default_rng(700 + seed),
                                      positive_c=path == "path2")
            tr = solver(cs, (0.8, 4.0)[seed % 2], tol=1e-10)
            ref = scan_valid_to(tr)
            if math.isinf(ref):
                assert tr.valid_to == math.inf, seed
            else:
                assert abs(tr.valid_to - ref) <= 1e-10 * tr.valid_to, seed
                finite += 1
        # both outcomes occur: a focal time inside the long horizon, none
        # inside the short one
        assert 4 <= finite <= 12

    def test_shortcut_decision(self):
        rng = np.random.default_rng(5)
        damped = kanai()
        systems = [
            sho(),
            CoefficientSet1D.build(a=Sinusoid(0.2, 1.3, 0.4, 1.0),
                                   c=Sinusoid(0.6, 1.3, 0.4, 3.0)),
            damped,
            CoefficientSet1D.build(a=damped.a, b=-0.5, c=damped.c),
            # b - gamma' vanishes at the first probe only
            CoefficientSet1D.build(a=1.0, b=Sinusoid(0.1, 1.0), c=1.0),
        ] + [random_smooth_coeffs(rng, positive_c=True) for _ in range(4)]
        decisions = [paramflow._is_shortcut(cs, 3.0) for cs in systems]
        assert decisions == [scalar_is_shortcut(cs, 3.0) for cs in systems]
        assert decisions == [True, True, False, True, False] + [False] * 4


class TestDomainGuard:
    # 1 + 1.5 sin(512 pi t) reads 1 at all 257 uniform probe points of
    # [0, 1] and dips to -0.5 between them.  The probe also visits a
    # sinusoid's first trough (t = 3/1024); behind Derived the dip is hidden
    # from the probe and only the right-hand-side guards can stop the solve.
    DIP = Sinusoid(1.5, 512 * math.pi, 0.0, 1.0)
    HIDDEN_DIP = Derived(DIP, DIP.derivative, label="hidden dip")
    # a mass that is -1 on the middle half of every probe interval
    JUMP = Derived(lambda t: np.where(abs(256.0 * t - np.round(256.0 * t)) < 0.25, 1.0, -1.0),
                   lambda t: 0.0 * t, label="jump")

    def test_probe_visits_the_trough(self):
        with pytest.raises(DomainError, match="a\\(t\\) must stay positive on .* "
                                              "violated near t=0.00292969"):
            solve_path1(CoefficientSet1D.build(a=self.DIP), 1.0)

    def test_route_one_rejects_a_dip_in_a(self):
        with pytest.raises(DomainError, match="a\\(t\\) must stay positive \\(.* at t="):
            solve_path1(CoefficientSet1D.build(a=self.HIDDEN_DIP), 1.0)

    def test_route_two_rejects_a_dip_in_c(self):
        with pytest.raises(DomainError, match="at t=.*route 1"):
            solve_path2(CoefficientSet1D.build(a=1.0, c=self.HIDDEN_DIP), 1.0)

    def test_planar_probe_rejects_a_dip_in_m(self):
        with pytest.raises(DomainError, match="m\\(t\\) must stay positive on"):
            solve_2d(FieldProfile2D.build(m=self.DIP, B=1.0), 1.0)

    def test_planar_rhs_rejects_a_negative_mass(self):
        with pytest.raises(DomainError, match="m\\(t\\) must stay positive \\(.*m=-1 at t="):
            solve_2d(FieldProfile2D.build(m=self.JUMP, B=1.0), 1.0)

    def test_planar_failure_with_a_positive_mass_is_reraised(self, monkeypatch):
        # m stays at or above 0.5, so the probe past the failure finds no pole
        failure = IntegrationError("planar translation parameters integration failed",
                                   last_time=0.5)

        def failing_run_ivp(*args, **kwargs):
            raise failure

        monkeypatch.setattr(paramflow, "_run_ivp", failing_run_ivp)
        with pytest.raises(IntegrationError) as raised:
            solve_2d(FieldProfile2D.build(m=Sinusoid(0.5, 512 * math.pi, 0.0, 1.0), B=1.0), 1.0)
        assert raised.value is failure

    def test_route_two_quadratic_phase_solve_guards_c_itself(self, monkeypatch):
        # c turns negative once the base solve is done, so only the
        # quadratic-phase right-hand side, which takes sqrt(a c), can see it
        base_done = []
        c = Derived(lambda t: (-1.0 if any(base_done) else 1.0) + 0.0 * np.asarray(t),
                    lambda t: 0.0 * np.asarray(t))
        run_ivp = paramflow._run_ivp

        def marking_run_ivp(rhs, y0, t_end, tol, what, knots=(), event=None):
            sol = run_ivp(rhs, y0, t_end, tol, what, knots, event)
            base_done.append(what == "route-2 parameters")
            return sol

        monkeypatch.setattr(paramflow, "_run_ivp", marking_run_ivp)
        with pytest.raises(DomainError, match="c=-1 at t=.*route 1"):
            solve_path2(CoefficientSet1D.build(a=1.0, b=Sinusoid(0.2, 1.0), c=c), 1.0)

    # knots all positive, 1 at every probe point; dips to -0.31 near t=0.502
    SPLINE_DIP = Tabulated((0.0, 0.5, 0.5009765625, 0.5029296875, 0.50390625, 1.0),
                           (1.0, 1.0, 0.05, 0.05, 1.0, 1.0))

    @pytest.mark.parametrize("name", ["a", "c"])
    def test_probe_finds_a_spline_dip(self, name):
        solver = solve_path1 if name == "a" else solve_path2
        with pytest.raises(DomainError, match=f"{name}\\(t\\) must stay positive on "
                                              f".* violated near t=0.50195"):
            solver(CoefficientSet1D.build(**{"a": 1.0, "c": 1.0, name: self.SPLINE_DIP}), 1.0)

    @pytest.mark.parametrize("name, solve", [
        ("a", lambda: solve_path1(CoefficientSet1D.build(a=math.nan), 1.0)),
        ("a", lambda: solve_path2(CoefficientSet1D.build(a=math.nan, c=1.0), 1.0)),
        ("c", lambda: solve_path2(CoefficientSet1D.build(a=1.0, c=math.nan), 1.0)),
        ("m", lambda: solve_2d(FieldProfile2D.build(m=math.nan, B=1.0), 1.0)),
    ], ids=["path1-a", "path2-a", "path2-c", "planar-m"])
    def test_a_nan_coefficient_is_refused_before_the_solve(self, name, solve):
        # nan <= 0 is False, so only a check written as `not x > 0` refuses
        # a NaN before the solve spends its whole work budget on it
        with pytest.raises(DomainError, match=f"{name}\\(t\\) must stay positive on "
                                              f".* violated near t=0\\b"):
            solve()

    @pytest.mark.parametrize("solve", [
        lambda: solve_path1(CoefficientSet1D.build(a=1.0, b=math.nan), 1.0),
        lambda: solve_path2(CoefficientSet1D.build(a=1.0, b=math.nan, c=1.0), 1.0),
        lambda: solve_2d(FieldProfile2D.build(m=1.0, B=1.0, Ex=math.nan), 1.0),
    ], ids=["path1-b", "path2-b", "planar-Ex"])
    def test_a_nan_no_check_reads_fails_on_step_size(self, solve):
        # a NaN right-hand side makes the step size NaN, which fails the
        # underflow test at once rather than spending the work budget
        with pytest.raises(IntegrationError, match="Required step size is less than spacing"):
            solve()

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("solve", [
        lambda t_end: solve_path1(sho(), t_end),
        lambda t_end: solve_path2(sho(), t_end),
        lambda t_end: solve_2d(FieldProfile2D.build(m=1.0, B=1.0), t_end),
    ], ids=["path1", "path2", "planar"])
    def test_refuses_a_t_end_that_is_not_positive_and_finite(self, solve, t_end):
        # nan slips past a `t_end <= 0` test, and inf would run out the work budget
        with pytest.raises(DomainError, match="t_end must be positive and finite"):
            solve(t_end)


class ArrayOnly(TimeProfile):
    """A profile evaluated only through its array branch, on a 0-d array:
    what the solvers evaluated before profiles had a float branch."""

    def __init__(self, inner):
        self.inner = inner
        self.knots = inner.knots

    def __call__(self, t):
        return self.inner(np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.inner.derivative(np.asarray(t, dtype=float))


def mixed_system(seed: int) -> CoefficientSet1D:
    """a, c > 0; every profile kind in some slot, b not gamma' (no shortcut)."""
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, 4.0, 17)
    ripple = 1.0 + 0.15 * np.sin(rng.uniform(1.0, 2.0) * knots + rng.uniform(0.0, 6.0))
    eps, w = rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0)
    return CoefficientSet1D(
        a=Tabulated(tuple(knots), tuple(rng.uniform(0.9, 1.1) * ripple)),
        b=Sinusoid(rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0), rng.uniform(0.0, 6.0)),
        c=Derived(lambda t: 1.7 / (1.0 + eps * np.sin(w * t)),
                  lambda t: -1.7 * eps * w * np.cos(w * t) / (1.0 + eps * np.sin(w * t)) ** 2),
        d=Exponential(rng.uniform(0.1, 0.3), rng.uniform(-0.5, 0.5)),
        e=Sinusoid(rng.uniform(0.0, 0.4), rng.uniform(1.0, 2.0), rng.uniform(0.0, 6.0)),
        g=Constant(0.2),
    )


def mixed_field(seed: int) -> FieldProfile2D:
    """Tabulated mass and field, exponential stiffness, derived and
    sinusoidal drives."""
    cs = mixed_system(seed)
    field = Tabulated(cs.a.knots_t, tuple(2.0 + 0.5 * np.sin(cs.a.knots_t)))
    return FieldProfile2D(m=cs.a, B=field, K=cs.d, Ex=cs.c, Ey=cs.e, charge=1.0)


def map_bytes(traj, assemble, t_end):
    times = [t for t in np.linspace(0.0, t_end, 61)[1:] if t <= 0.95 * traj.valid_to]
    assert len(times) >= 10
    return b"".join(m.M.tobytes() + m.shift.tobytes()
                    for m in (assemble(traj, float(t)) for t in times))


class TestFloatBranchEndToEnd:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("route", ["path1", "path2", "2d-path1", "2d-path2"])
    def test_maps_equal_the_array_branch_bitwise(self, route, seed):
        if route.startswith("2d"):
            system = mixed_field(seed)
            slow = FieldProfile2D(**{k: ArrayOnly(getattr(system, k))
                                     for k in ("m", "B", "K", "Ex", "Ey")}, charge=1.0)
            solve = lambda field: solve_2d(field, 4.0, 1e-10, path=route[3:])
            assemble = maps.assemble_2d
        else:
            system = mixed_system(seed)
            slow = CoefficientSet1D(*(ArrayOnly(getattr(system, k)) for k in "abcdeg"))
            solver = solve_path1 if route == "path1" else solve_path2
            solve = lambda cs: solver(cs, 4.0, 1e-10)
            assemble = maps.assemble_path1 if route == "path1" else maps.assemble_path2
        fast, reference = solve(system), solve(slow)
        assert fast.valid_to == reference.valid_to
        assert fast.t_grid.tobytes() == reference.t_grid.tobytes()
        assert map_bytes(fast, assemble, 4.0) == map_bytes(reference, assemble, 4.0)

    def test_rhs_reads_each_coefficient_once(self, monkeypatch):
        counts = Counter()

        class Counted(TimeProfile):
            def __init__(self, inner):
                self.inner = inner

            def __call__(self, t):
                counts["call"] += 1
                return self.inner(t)

            def derivative(self, t):
                counts["derivative"] += 1
                return self.inner.derivative(t)

        per_eval = defaultdict(set)   # integration -> profile calls of one RHS call
        run_ivp = paramflow._run_ivp

        def counting_run_ivp(rhs, y0, t_end, tol, what, knots=(), event=None):
            def counted(t, y):
                before = counts.copy()
                out = rhs(t, y)
                per_eval[what].add(tuple(sorted((counts - before).items())))
                return out

            def dense(t):
                counts["dense"] += 1
                return sol_of(t)

            sol = run_ivp(counted, y0, t_end, tol, what, knots, event)
            sol_of, sol.sol = sol.sol, dense
            return sol

        monkeypatch.setattr(paramflow, "_run_ivp", counting_run_ivp)
        cs = mixed_system(0)
        counted = CoefficientSet1D(*(Counted(getattr(cs, k)) for k in "abcdeg"))
        solve_path1(counted, 1.0)
        solve_path2(counted, 1.0)
        assert per_eval["route-1 parameters"] == {(("call", 6), ("derivative", 1))}
        assert per_eval["route-2 parameters"] == {(("call", 6),)}
        # a, b, c and the rates of a and c; phi is carried in the state, so
        # the base solve's dense output is never read
        assert per_eval["route-2 quadratic-phase parameters"] == {
            (("call", 3), ("derivative", 2))}


class Watched(TimeProfile):
    """A profile that records every compile and every evaluation through
    __call__ and derivative, and compiles to its inner profile's pair."""

    def __init__(self, inner, log):
        self.inner, self.log = inner, log
        self.knots = inner.knots

    def __call__(self, t):
        self.log.append(("call", self, t))
        return self.inner(t)

    def derivative(self, t):
        self.log.append(("derivative", self, t))
        return self.inner.derivative(t)

    def scalar(self):
        self.log.append(("scalar", self, None))
        return self.inner.scalar()


class TestCompiledCoefficients:
    @pytest.mark.parametrize("route", ["path1", "path2", "2d-path1", "2d-path2"])
    def test_each_solve_compiles_each_profile_once(self, route):
        log = []
        if route.startswith("2d"):
            names = ("m", "B", "K", "Ex", "Ey")
            field = mixed_field(0)
            system = FieldProfile2D(**{k: Watched(getattr(field, k), log) for k in names},
                                    charge=1.0)
            solve = lambda t_end: solve_2d(system, t_end, 1e-10, path=route[3:])
            assemble = maps.assemble_2d
            # the planar right-hand side compiles each profile; the radial
            # solve compiles a = 1/m and c = K + q^2 B^2/4m, each from the
            # compiled pairs of the profiles it reads
            expected = {"m": 3, "B": 2, "K": 2, "Ex": 1, "Ey": 1}
        else:
            names = tuple("abcdeg")
            cs = mixed_system(0)
            system = CoefficientSet1D(*(Watched(getattr(cs, k), log) for k in names))
            solve = lambda t_end: (solve_path1 if route == "path1" else solve_path2)(
                system, t_end, 1e-10)
            assemble = maps.assemble_path1 if route == "path1" else maps.assemble_path2
            expected = dict.fromkeys(names, 1)
        by_profile = {getattr(system, k): k for k in names}
        for t_end in (0.5, 4.0):
            log.clear()
            traj = solve(t_end)
            compiles = Counter(by_profile[p] for kind, p, _ in log if kind == "scalar")
            assert compiles == expected, t_end
            # evaluations outside the compiled pairs are the vectorized probes
            probes = [t for kind, _, t in log if kind != "scalar"]
            assert probes and all(np.ndim(t) == 1 and len(t) >= 257 for t in probes)
        log.clear()
        times = [t for t in np.linspace(0.0, 4.0, 41) if t <= 0.95 * traj.valid_to]
        assert len(times) > 10
        for t in times:
            traj.sample(float(t))
            assemble(traj, float(t))
        assert log == []


class TestFloatState:
    def test_rhs_on_a_list_equals_the_rhs_on_the_array_bitwise(self, monkeypatch):
        # every right-hand side gets its state as a list of floats; at each
        # stage input of one solve per right-hand side it must return the
        # bits it returns for the same state as an array
        recorded = defaultdict(list)   # integration -> (rhs, t, y) per call
        run_ivp = paramflow._run_ivp

        def recording_run_ivp(rhs, y0, t_end, tol, what, knots=(), event=None):
            def recording(t, y):
                recorded[what].append((rhs, t, y))
                return rhs(t, y)

            return run_ivp(recording, y0, t_end, tol, what, knots, event)

        monkeypatch.setattr(paramflow, "_run_ivp", recording_run_ivp)
        cs = mixed_system(0)
        solve_path1(cs, 4.0)
        solve_path2(cs, 4.0)
        solve_2d(mixed_field(0), 4.0, path="path2")
        assert set(recorded) == {
            "route-1 parameters", "route-2 parameters",
            "route-2 quadratic-phase parameters", "planar translation parameters"}
        for what, calls in recorded.items():
            assert len(calls) > 100, what
            for rhs, t, y in calls:
                assert type(y) is list and all(type(x) is float for x in y)
                on_array = np.array(rhs(t, np.array(y)))
                assert np.array(rhs(t, y)).tobytes() == on_array.tobytes(), (what, t)

    def test_events_on_a_list_equal_the_events_on_the_array_bitwise(self, monkeypatch):
        # the step loop hands the events their state as floats too; the
        # route-2 blow-up event squares by numpy's power, as it did on the
        # array, which overflows to inf where a float ** raises
        events = {}
        run_ivp = paramflow._run_ivp

        def recording_run_ivp(rhs, y0, t_end, tol, what, knots=(), event=None):
            events[what] = event
            return run_ivp(rhs, y0, t_end, tol, what, knots, event)

        monkeypatch.setattr(paramflow, "_run_ivp", recording_run_ivp)
        solve_path1(mixed_system(0), 4.0)
        solve_path2(mixed_system(0), 4.0)
        assert all(events.values()) and len(events) == 3
        rng = np.random.default_rng(0)
        states = [(rng.normal(size=8) * 10.0 ** rng.uniform(-3, 3, 8)).tolist()
                  for _ in range(200)] + [[1.0, 1e200, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        with np.errstate(over="ignore"):   # as inside the solve
            for event in events.values():
                for y in states:
                    assert float(event(0.5, y)).hex() == float(event(0.5, np.array(y))).hex()
            blow_up = events["route-2 quadratic-phase parameters"]
            assert blow_up(0.5, states[-1]) == -math.inf

    def test_float_overflow_ends_in_step_size_underflow(self):
        # the planar right-hand side squares by products, which overflow to
        # inf on floats as on numpy scalars (a float ** 2 raises), so the
        # diverging solve ends in step-size underflow without a numpy
        # warning (which the test configuration turns into an error)
        field = FieldProfile2D.build(m=1.0, B=1.0, K=-1.0, Ex=0.3)
        with pytest.raises(
                IntegrationError, match="Required step size is less than spacing") as raised:
            solve_2d(field, 2000.0, 1e-3)
        assert raised.value.last_time == 411.26314225429377


SPLINE_KNOTS = np.linspace(0.0, 4.0, 17)


def spline(level: float, rng) -> Tabulated:
    ripple = 1.0 + 0.15 * np.sin(rng.uniform(1.0, 2.0) * SPLINE_KNOTS + rng.uniform(0.0, 6.0))
    return Tabulated(tuple(SPLINE_KNOTS), tuple(level * ripple))


def fundamental_matrices(system, times, knots):
    """Fundamental matrix of Hamilton's equations at the given increasing
    times, solved by DOP853 at 1e-13 from knot to knot."""
    if isinstance(system, CoefficientSet1D):
        n = 2

        def generator(t):
            a, b, c = float(system.a(t)), float(system.b(t)), float(system.c(t))
            return np.array([[b, a], [-c, -b]])
    else:
        n, q = 4, system.charge

        def generator(t):
            m, bb, kk = float(system.m(t)), float(system.B(t)), float(system.K(t))
            wb, kappa = q * bb / (2.0 * m), kk + q * q * bb * bb / (4.0 * m)
            return np.array([[0.0, -wb, 1.0 / m, 0.0], [wb, 0.0, 0.0, 1.0 / m],
                             [-kappa, 0.0, 0.0, -wb], [0.0, -kappa, wb, 0.0]])

    rhs = lambda t, y: (generator(t) @ y.reshape(n, n)).ravel()
    bounds = [0.0, *[tk for tk in knots if 0.0 < tk < times[-1]], times[-1]]
    out, y = [], np.eye(n).ravel()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-15,
                        dense_output=True)
        out += [sol.sol(t).reshape(n, n) for t in times if lo < t <= hi]
        y = sol.y[:, -1]
    return out


class TestKnotToKnot:
    @pytest.mark.parametrize("planar", [False, True], ids=["1d", "planar"])
    def test_route_two_maps_match_a_knot_aware_reference(self, planar):
        # a step across a spline knot loses the method's order; solved from
        # knot to knot the maps stay at the tolerance level (RK45 over the
        # whole interval reads 5 and 136 times tol here)
        rng, tol = np.random.default_rng(0), 1e-12
        cs = CoefficientSet1D(a=spline(1.0, rng), b=Sinusoid(0.15, 1.3, 0.4), c=spline(1.7, rng),
                              d=Sinusoid(0.2, 1.1), e=Sinusoid(0.3, 1.7), g=Sinusoid(0.1, 1.0))
        field = FieldProfile2D(m=spline(1.0, rng), B=spline(2.0, rng), K=spline(1.0, rng),
                               Ex=Sinusoid(0.2, 1.1), Ey=Sinusoid(0.3, 1.7), charge=1.0)
        if planar:
            system, tr = field, solve_2d(field, 4.0, tol, path="path2")
            assemble = maps.assemble_2d
        else:
            system, tr = cs, solve_path2(cs, 4.0, tol)
            assemble = maps.assemble_path2
        times = [float(t) for t in np.linspace(0.0, 4.0, 81)[1:] if t <= 0.95 * tr.valid_to]
        assert len(times) >= 30
        gaps = [np.max(np.abs(m.M - f)) / max(1.0, np.max(np.abs(m.M)))
                for m, f in zip((assemble(tr, t) for t in times),
                                fundamental_matrices(system, times, SPLINE_KNOTS))]
        assert max(gaps) <= 10.0 * tol

    def test_segments_join_into_one_solution(self):
        cs = mixed_system(0)
        # every interior knot is a step boundary, and the grids increase
        for grid in (solve_path1(cs, 4.0, 1e-10).t_grid,
                     np.array(solve_path2(cs, 4.0, 1e-10)._riccati.ts)):
            assert set(SPLINE_KNOTS[1:-1]) <= set(grid.tolist())
            assert np.all(np.diff(grid) > 0.0)

    def test_tolerance_below_the_rtol_floor_is_clamped_silently(self, monkeypatch):
        rtols = set()

        solve = ode.solve

        def recording_solve(fun, y0, bounds, rtol, *args, **kwargs):
            rtols.add(rtol)
            return solve(fun, y0, bounds, rtol, *args, **kwargs)

        monkeypatch.setattr(ode, "solve", recording_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_path2(mixed_system(0), 1.0, tol=1e-13)
            solve_2d(mixed_field(0), 1.0, tol=1e-13, path="path1")
        assert rtols == {100.0 * np.finfo(float).eps}
