"""Ground-truth generators: classical flow, fundamental matrix, split-step."""

import math

import numpy as np
import pytest

from liegate import ode
from liegate.coeffs import CoefficientSet1D, FieldProfile2D, Sinusoid
from liegate.errors import DomainError, IntegrationError
from liegate.oracle import (
    WaveGrid,
    classical_flow,
    fidelity,
    fundamental_matrix,
    gaussian_state,
    grid_moments,
    split_step_evolve,
)
from liegate.verify import random_smooth_coeffs, suite_fields, suite_systems


def make_grid(n=1024, half_width=12.0, **kwargs):
    return gaussian_state(n, -half_width, 2 * half_width / n, **kwargs)


FREE = CoefficientSet1D.build(a=1.0)
ZERO = WaveGrid(8, -1.0, 0.25, np.zeros(8))
PLANAR = WaveGrid(8, -1.0, 0.25, np.ones((8, 8)))
NOT_A_SYSTEM = "neither CoefficientSet1D nor FieldProfile2D"


class TestClassicalFlow:
    def test_free_particle(self):
        flow = classical_flow(FREE, np.array([0.0, 1.0]), 2.0)
        assert flow.at(2.0).shape == (2,)
        assert np.allclose(flow.at(2.0), [2.0, 1.0], atol=1e-10)

    def test_oscillator_quarter_period(self):
        cs = CoefficientSet1D.build(a=1.0, c=1.0)
        flow = classical_flow(cs, np.array([1.0, 0.0]), 2.0)
        assert np.allclose(flow.at(math.pi / 2), [0.0, -1.0], atol=1e-9)

    def test_forced_particle_from_origin(self):
        cs = CoefficientSet1D.build(a=1.0, e=-1.0)  # force f = 1
        flow = classical_flow(cs, np.zeros(2), 2.0)
        assert np.allclose(flow.at(2.0), [2.0, 2.0], atol=1e-10)

    def test_planar_uniform_electric_field(self):
        # force -q E = (-0.5, 1): x = -t^2/4, y = t^2/2, p = force * t
        field = FieldProfile2D.build(m=1.0, Ex=0.5, Ey=-1.0, charge=1.0)
        flow = classical_flow(field, np.zeros(4), 2.0)
        assert flow.at(2.0).shape == (4,)
        assert np.allclose(flow.at(2.0), [-1.0, 2.0, -1.0, 2.0], atol=1e-10)

    @pytest.mark.parametrize(
        "system, z0, t_end, message",
        [
            (NOT_A_SYSTEM, np.zeros(2), 1.0, "must be CoefficientSet1D or FieldProfile2D"),
            (FREE, np.zeros(2), 0.0, "t_end must be positive"),
            (FREE, np.zeros(2), -1.0, "t_end must be positive"),
            (FREE, np.zeros(4), 1.0, "initial state must have 2 entries"),
            (FieldProfile2D.build(), np.zeros(2), 1.0, "initial state must have 4 entries"),
            (FREE, np.array([0.0, np.nan]), 1.0, "entries must be finite"),
            (FREE, np.array([np.inf, 0.0]), 1.0, "entries must be finite"),
        ],
        ids=["system", "t-end-zero", "t-end-negative", "size-1d", "size-planar", "nan", "inf"],
    )
    def test_rejects(self, system, z0, t_end, message):
        with pytest.raises(DomainError, match=message):
            classical_flow(system, z0, t_end)


class TestFundamentalMatrix:
    def test_free_particle(self):
        fm = fundamental_matrix(FREE, 2.0)
        assert fm.at(1.3).shape == (2, 2)
        assert np.allclose(fm.at(1.3), [[1.0, 1.3], [0.0, 1.0]], atol=1e-11)

    def test_oscillator_rotation(self):
        cs = CoefficientSet1D.build(a=1.0, c=1.0)
        fm = fundamental_matrix(cs, 1.0)
        t = math.pi / 4
        expected = np.array(
            [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        )
        assert np.allclose(fm.at(t), expected, atol=1e-11)

    def test_liouville_determinant(self):
        cs = CoefficientSet1D.build(
            a=Sinusoid(0.3, 1.3, 0.2, 1.1),
            b=Sinusoid(0.2, 2.1, 0.5, 0.0),
            c=Sinusoid(0.5, 0.9, 1.1, 0.4),
        )
        fm = fundamental_matrix(cs, 3.0, tol=1e-12)
        for t in np.linspace(0.2, 3.0, 11):
            assert abs(np.linalg.det(fm.at(float(t))) - 1.0) < 1e-9

    def test_2d_liouville(self):
        field = FieldProfile2D.build(m=1.0, B=Sinusoid(1.5, 2.0), K=0.4, charge=1.0)
        fm = fundamental_matrix(field, 2.0, tol=1e-12)
        assert fm.at(1.0).shape == (4, 4)
        for t in np.linspace(0.2, 2.0, 7):
            assert abs(np.linalg.det(fm.at(float(t))) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "system, t_end, message",
        [
            (NOT_A_SYSTEM, 1.0, "must be CoefficientSet1D or FieldProfile2D"),
            (FREE, 0.0, "t_end must be positive"),
            (FREE, -1.0, "t_end must be positive"),
        ],
        ids=["system", "t-end-zero", "t-end-negative"],
    )
    def test_rejects(self, system, t_end, message):
        with pytest.raises(DomainError, match=message):
            fundamental_matrix(system, t_end)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf, 0.0])
def test_flows_refuse_a_t_end_that_is_not_positive_and_finite(t_end):
    # nan passes a ``t_end <= 0`` test, and an infinite interval never ends
    sho = CoefficientSet1D.build(a=1.0, c=1.0)
    with pytest.raises(DomainError, match="t_end must be positive and finite"):
        classical_flow(sho, np.zeros(2), t_end)
    with pytest.raises(DomainError, match="t_end must be positive and finite"):
        fundamental_matrix(sho, t_end)


@pytest.mark.parametrize("flow", [
    lambda: classical_flow(CoefficientSet1D.build(a=1.0, c=1.0), [1.0, 0.0], 1e300, tol=1e-3),
    lambda: fundamental_matrix(FieldProfile2D.build(m=1.0, B=1.0, K=0.5), 1e300, tol=1e-3),
], ids=["classical-flow", "fundamental-matrix"])
def test_flows_end_a_huge_horizon_on_the_work_budget(flow, monkeypatch):
    # t_end 1e300 is finite but holds ~1e299 periods: without the budget
    # the flow runs on and on
    monkeypatch.setattr(ode, "_RHS_BUDGET", 3000)
    with pytest.raises(IntegrationError,
                       match="work budget of 3000 right-hand-side evaluations spent") as err:
        flow()
    assert 0.0 < err.value.last_time < 1e300
    assert f"{err.value.last_time:.17g}" in str(err.value)


class TestSplitStep:
    def test_zero_steps_is_identity(self):
        cs = CoefficientSet1D.build(a=1.0, c=1.0)
        psi = make_grid()
        out = split_step_evolve(cs, psi, 1.0, 0)
        assert out is psi

    def test_oscillator_revival(self):
        cs = CoefficientSet1D.build(a=1.0, c=1.0)
        psi = make_grid(x0=1.0)
        out = split_step_evolve(cs, psi, 2.0 * math.pi, 4096)
        assert fidelity(psi, out) >= 1.0 - 1e-6

    def test_free_spreading_matches_moment_transport(self):
        cs = CoefficientSet1D.build(a=1.0)
        psi = make_grid(sigma=1.0)
        out = split_step_evolve(cs, psi, 2.0, 2048)
        _, cov = grid_moments(out)
        # transported covariance of the minimum-uncertainty packet
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        cov0 = np.diag([1.0, 0.25])
        expected = m @ cov0 @ m.T
        assert abs(cov[0, 0] - expected[0, 0]) < 1e-5

    def test_rejects_cross_term(self):
        cs = CoefficientSet1D.build(a=1.0, b=0.3)
        with pytest.raises(DomainError, match="b"):
            split_step_evolve(cs, make_grid(), 1.0, 16)

    def test_rejects_a_nan_cross_term(self):
        # NaN > 1e-14 is False: only `not ... <= 1e-14` refuses it
        cs = CoefficientSet1D.build(a=1.0, b=math.nan)
        with pytest.raises(DomainError, match=r"requires b\(t\) == 0"):
            split_step_evolve(cs, gaussian_state(256, -8.0, 1 / 16), 0.5, 64)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_a_t_end_that_is_not_positive_and_finite(self, t_end):
        # inf and nan evolved to all-NaN amplitudes, and -1 evolved backward
        cs = CoefficientSet1D.build(a=1.0, c=1.0)
        with pytest.raises(DomainError, match="t_end must be positive and finite"):
            split_step_evolve(cs, gaussian_state(64, -8.0, 0.25), t_end, 8)

    def test_norm_preserved(self):
        cs = CoefficientSet1D.build(a=1.0, c=Sinusoid(0.4, 3.0, 0.0, 1.0), e=0.3)
        out = split_step_evolve(cs, make_grid(), 1.5, 512)
        assert abs(out.norm() - 1.0) < 1e-12


class TestFidelityAndGrids:
    def test_self_fidelity(self):
        psi = make_grid()
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_blind(self):
        psi = make_grid()
        rotated = WaveGrid(psi.n, psi.x_min, psi.dx, 1j * psi.amps, psi.hbar)
        assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_hermite_modes(self):
        psi0 = make_grid()
        x = psi0.x
        first = WaveGrid(psi0.n, psi0.x_min, psi0.dx,
                         x * np.exp(-x**2 / 4.0), psi0.hbar).normalized()
        assert fidelity(psi0, first) <= 1e-10

    def test_grid_mismatch(self):
        with pytest.raises(DomainError, match="identical grids"):
            fidelity(make_grid(n=512), make_grid(n=1024))

    @pytest.mark.parametrize("refused, message", [
        (lambda: WaveGrid(8, -1.0, 0.25, np.ones(7)), r"amps shape \(7,\) does not match n=8"),
        (lambda: ZERO.normalized(), "cannot normalize the zero wavefunction"),
        (lambda: fidelity(ZERO, ZERO), "fidelity undefined for the zero wavefunction"),
        (lambda: split_step_evolve(FREE, PLANAR, 1.0, 4), "split-step oracle operates on 1D grids"),
        (lambda: split_step_evolve(FREE, make_grid(n=8), 1.0, -1),
         "n_steps must be non-negative"),
        (lambda: grid_moments(PLANAR), "grid_moments operates on 1D grids"),
    ], ids=["amps-shape", "normalize-zero", "fidelity-zero", "split-step-planar",
            "split-step-negative-steps", "moments-planar"])
    def test_grid_operations_refuse(self, refused, message):
        with pytest.raises(DomainError, match=message):
            refused()

    def test_normalization(self):
        psi = make_grid()
        assert abs(psi.norm() - 1.0) < 1e-12

    def test_moments_of_boosted_packet(self):
        psi = make_grid(sigma=0.8, x0=1.3, p0=-0.7)
        mean, cov = grid_moments(psi)
        assert mean[0] == pytest.approx(1.3, abs=1e-8)
        assert mean[1] == pytest.approx(-0.7, abs=1e-8)
        assert cov[0, 0] == pytest.approx(0.64, abs=1e-8)
        assert cov[1, 1] == pytest.approx(1.0 / (4 * 0.64), abs=1e-8)

    def test_weights_are_the_trapezoid_rule_in_the_shape_of_the_amplitudes(self):
        w = np.array([0.5, 1.0, 1.0, 1.0, 0.5])
        line = WaveGrid(5, 0.0, 0.5, np.ones(5))
        plane = WaveGrid(5, 0.0, 0.5, np.ones((5, 5)))
        assert np.array_equal(line.weights, w)
        assert np.array_equal(plane.weights, np.outer(w, w))
        assert line.norm() == math.sqrt(2.0) and plane.norm() == 2.0

    @pytest.mark.parametrize("x_min, dx, hbar, message", [
        (0.0, math.nan, 1.0, "dx must be positive and finite"),
        (0.0, math.inf, 1.0, "dx must be positive and finite"),
        (0.0, 0.0, 1.0, "dx must be positive and finite"),
        (0.0, -0.1, 1.0, "dx must be positive and finite"),
        (math.nan, 0.1, 1.0, "x_min must be finite"),
        (-math.inf, 0.1, 1.0, "x_min must be finite"),
        (0.0, 0.1, math.nan, "hbar must be positive and finite"),
        (0.0, 0.1, 0.0, "hbar must be positive and finite"),
    ])
    def test_grids_refuse_a_geometry_that_is_not_finite(self, x_min, dx, hbar, message):
        # nan passed ``dx <= 0`` and made every x NaN; inf made x warn
        with pytest.raises(DomainError, match=message):
            WaveGrid(8, x_min, dx, np.ones(8), hbar)
        with pytest.raises(DomainError, match=message):
            gaussian_state(8, x_min, dx, hbar=hbar)

    @pytest.mark.parametrize("packet", [
        {"sigma": 0.0}, {"sigma": -1.0}, {"sigma": math.nan}, {"sigma": math.inf},
        {"x0": math.nan}, {"x0": math.inf}, {"p0": math.nan}, {"p0": -math.inf},
    ])
    def test_packets_refuse_a_width_or_centre_that_is_not_finite(self, packet):
        # sigma 0 and nan gave NaN amplitudes, and sigma -1 acted as sigma 1
        with pytest.raises(DomainError, match="sigma must be positive and finite, "
                                              "and x0 and p0 finite"):
            gaussian_state(64, -8.0, 0.25, **packet)

    @pytest.mark.parametrize("packet, message", [
        ({"sigma": 1e300}, "is not finite on this grid"),             # 4 sigma^2 overflows
        ({"sigma": 1e-300}, "is not finite on this grid"),            # 4 sigma^2 is 0
        ({"sigma": 1.0, "p0": 1e308}, "is not finite on this grid"),  # p0 x overflows
        ({"x0": 1e200}, "cannot normalize the zero wavefunction"),    # (x - x0)^2 does
    ])
    def test_packets_refuse_samples_that_are_not_finite(self, packet, message):
        # the suite turns numpy's RuntimeWarnings into errors: none is issued
        with pytest.raises(DomainError, match=message):
            gaussian_state(64, -8.0, 0.25, **packet)


def written_out(coeffs):
    """(n, A, f) of Hamilton's equations written out as nested arrays, from
    the profiles' own values: the definition the flows are pinned to."""
    if isinstance(coeffs, CoefficientSet1D):
        a, b, c, d, e = (getattr(coeffs, name) for name in "abcde")
        return (2, lambda t: np.array([[b(t), a(t)], [-c(t), -b(t)]]),
                lambda t: np.array([d(t), -e(t)]))
    q, m, bb, k, ex, ey = (coeffs.charge, coeffs.m, coeffs.B, coeffs.K, coeffs.Ex, coeffs.Ey)

    def a_of_t(t):
        wb = q * bb(t) / (2.0 * m(t))
        kappa = k(t) + q * q * bb(t) * bb(t) / (4.0 * m(t))
        return np.array([[0.0, -wb, 1.0 / m(t), 0.0], [wb, 0.0, 0.0, 1.0 / m(t)],
                         [-kappa, 0.0, 0.0, -wb], [0.0, -kappa, wb, 0.0]])

    return 4, a_of_t, lambda t: np.array([0.0, 0.0, -q * ex(t), -q * ey(t)])


def flow_systems():
    rng = np.random.default_rng(5)
    return [*suite_systems().values(), *suite_fields().values(),
            *(random_smooth_coeffs(rng, positive_c=bool(i % 2)) for i in range(4))]


@pytest.mark.parametrize("tol", [1e-12, 1e-7])
def test_flows_equal_rk45_on_the_written_out_equations_bitwise(tol):
    # the flows build A(t) from a flat tuple, multiply with the array's own
    # dot and add f(t) as floats: the same bits as the nested arrays and @
    t_end, rng = 1.3, np.random.default_rng(8)
    for coeffs in flow_systems():
        n, a_of_t, f_of_t = written_out(coeffs)
        z0 = rng.uniform(-1.0, 1.0, n)

        def solved(rhs, y0):
            return ode.solve(rhs, y0, (0.0, t_end), max(tol, ode.RTOL_FLOOR), tol * 1e-2,
                             "reference", method="RK45")

        flows = [
            (classical_flow(coeffs, z0, t_end, tol),
             solved(lambda t, z: a_of_t(t) @ z + f_of_t(t), z0)),
            (fundamental_matrix(coeffs, t_end, tol),
             solved(lambda t, y: (a_of_t(t) @ np.reshape(y, (n, n))).ravel(),
                    np.eye(n).ravel())),
        ]
        for flow, ref in flows:
            times = [*ref.t, *rng.uniform(0.0, t_end, 20)]
            assert (np.array([flow.at(float(t)) for t in times]).ravel().tobytes()
                    == np.array([ref.sol(float(t)) for t in times]).ravel().tobytes())


@pytest.mark.parametrize("t", [-1e-300, 1.0 + 1e-15, 3.0, 10.0, math.nan, math.inf],
                         ids=["before", "just-after", "three", "ten", "nan", "inf"])
def test_flows_refuse_a_time_outside_their_solve(t):
    # the interpolant of the last step would extrapolate: fundamental_matrix
    # read -0.739 at t = 3 where cos 3 = -0.990, the flow 221.7 at t = 10
    sho = CoefficientSet1D.build(a=1.0, c=1.0)
    for flow in (fundamental_matrix(sho, 1.0), classical_flow(sho, (1.0, 0.0), 1.0)):
        assert flow.at(0.0).shape == flow.at(1.0).shape == flow.shape
        with pytest.raises(DomainError, match=r"outside the solved interval \[0, 1.0\]"):
            flow.at(t)
