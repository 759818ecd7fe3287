"""Gaussian propagator kernels: coefficients, quadrature, invariants."""

import cmath
import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from liegate import maps, paramflow
from liegate.cli import _MAX_GRID_N
from liegate.coeffs import CoefficientSet1D, Exponential, FieldProfile2D, Sinusoid
from liegate.errors import CausticError, DomainError
from liegate.greens import (
    GaussianKernel,
    _next_fast_len,
    kernel_apply,
    kernel_build,
    kernel_unitarity_residual,
)
from liegate.oracle import (
    WaveGrid,
    fidelity,
    gaussian_state,
    grid_moments,
    split_step_evolve,
)
from liegate.verify import random_smooth_coeffs
from test_maps import radial_entries


def grid_1024(**kwargs):
    return gaussian_state(1024, -12.0, 24.0 / 1024, **kwargs)


@pytest.fixture(scope="module")
def free_traj():
    return paramflow.solve_path1(CoefficientSet1D.build(a=1.0), 3.0, tol=1e-12)


@pytest.fixture(scope="module")
def sho_traj():
    return paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=1.0), 1.5, tol=1e-12)


@pytest.fixture(scope="module")
def sho_traj2():
    return paramflow.solve_path2(CoefficientSet1D.build(a=1.0, c=1.0), 3.0, tol=1e-12)


class TestKernelCoefficients:
    def test_free_particle(self, free_traj):
        t = 1.0
        k = kernel_build(free_traj, t, "lp")
        hbar = 1.0
        assert k.qxx[0, 0] == pytest.approx(1.0 / (2 * hbar * t), rel=1e-12)
        assert k.qx1x1[0, 0] == pytest.approx(1.0 / (2 * hbar * t), rel=1e-12)
        assert k.qxx1[0, 0] == pytest.approx(-1.0 / (hbar * t), rel=1e-12)
        assert abs(k.prefactor) == pytest.approx(1.0 / math.sqrt(2 * math.pi * hbar * t),
                                                 rel=1e-12)
        # principal-branch phase continued from t -> 0+
        assert np.angle(k.prefactor) == pytest.approx(-math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("route", ["path1", "path2"])
    def test_oscillator_matches_mehler(self, route, sho_traj, sho_traj2):
        traj = sho_traj if route == "path1" else sho_traj2
        t = math.pi / 4
        k = kernel_build(traj, t, route)
        mehler_q = math.cos(t) / (2.0 * math.sin(t))
        mehler_cross = -1.0 / math.sin(t)
        mehler_pref = 1.0 / np.sqrt(2.0j * math.pi * math.sin(t))
        assert abs(k.qxx[0, 0] - mehler_q) < 1e-9
        assert abs(k.qx1x1[0, 0] - mehler_q) < 1e-9
        assert abs(k.qxx1[0, 0] - mehler_cross) < 1e-9
        assert abs(k.prefactor - mehler_pref) < 1e-9
        assert abs(k.lx[0]) < 1e-12 and abs(k.lx1[0]) < 1e-12 and abs(k.scal) < 1e-12

    def test_damped_oscillator_matches_closed_transcription(self):
        # direct evaluation of the hyperbolic closed-form propagator pieces
        tau, om0, t, m = 1.0, 0.25, 1.0, 1.0
        big = math.sqrt(1.0 - 4.0 * tau**2 * om0**2) / (2.0 * tau)
        sh, ch = math.sinh(big * t), math.cosh(big * t)
        coth = ch / sh
        cs = CoefficientSet1D.build(
            a=Exponential(1.0 / m, -1.0 / tau), c=Exponential(m * om0**2, 1.0 / tau)
        )
        traj = paramflow.solve_path1(cs, 1.2, tol=1e-12)
        k = kernel_build(traj, t, "path1")
        pref_exact = math.sqrt(m * big / (2 * math.pi * sh)) * math.exp(t / (4 * tau))
        assert abs(k.prefactor) == pytest.approx(pref_exact, rel=1e-9)
        qxx_exact = -(m / (4 * tau)) * math.exp(t / tau) * (1.0 - 2 * tau * big * coth)
        assert k.qxx[0, 0] == pytest.approx(qxx_exact, rel=1e-9)
        qx1x1_exact = (m / (4 * tau)) * (1.0 + 2 * tau * big * coth)
        assert k.qx1x1[0, 0] == pytest.approx(qx1x1_exact, rel=1e-9)
        cross_exact = -m * big * math.exp(t / (2 * tau)) / sh
        assert k.qxx1[0, 0] == pytest.approx(cross_exact, rel=1e-9)

    def test_rejects_zero_time(self, sho_traj):
        with pytest.raises(DomainError, match="delta"):
            kernel_build(sho_traj, 0.0, "path1")

    def test_rejects_focal_time(self):
        traj = paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=1.0), 3.0,
                                     tol=1e-12)
        with pytest.raises(CausticError, match="valid_to"):
            kernel_build(traj, 2.0, "path1")

    def test_lp_variant_equals_route1_for_varying_mass(self):
        lp = CoefficientSet1D.build(a=Exponential(1.0, -0.4), e=-0.7)
        tr = paramflow.solve_path1(lp, 2.0, tol=1e-12)
        kl = kernel_build(tr, 1.5, "lp")
        kp = kernel_build(tr, 1.5, "path1")
        for name in ("qxx", "qx1x1", "qxx1"):
            assert abs(getattr(kl, name)[0, 0] - getattr(kp, name)[0, 0]) < 1e-12
        assert abs(kl.prefactor - kp.prefactor) < 1e-12
        assert abs(kl.lx[0] - kp.lx[0]) < 1e-12
        assert abs(kl.scal - kp.scal) < 1e-12

    def test_variant_consistency(self, sho_traj, sho_traj2):
        with pytest.raises(DomainError, match="route"):
            kernel_build(sho_traj, 0.3, "path2")
        with pytest.raises(DomainError, match="route"):
            kernel_build(sho_traj2, 0.3, "path1")
        with pytest.raises(DomainError, match="'lp'"):
            kernel_build(sho_traj, 0.3, "lp")

    def test_variant_matrix(self, free_traj, sho_traj, sho_traj2):
        # one trajectory of each kind and route: the variant must be the
        # route, 'twod_' + route for a planar one, or 'lp' on route 1 with
        # b = c = 0; the other 15 pairs are refused before anything is built
        field = FieldProfile2D.build(m=1.0, B=1.0, K=0.5)
        trajs = {
            "lp": free_traj, "path2": sho_traj2,
            "twod_path1": paramflow.solve_2d(field, 1.0, tol=1e-10, path="path1"),
            "twod_path2": paramflow.solve_2d(field, 1.0, tol=1e-10, path="path2"),
        }
        built = set()
        for kind, traj in trajs.items():
            for variant in ("lp", "path1", "path2", "twod_path1", "twod_path2"):
                try:
                    kernel_build(traj, 0.5, variant)
                except DomainError as err:
                    assert "use variant" in str(err), (kind, variant)
                else:
                    built.add((kind, variant))
        assert built == {("lp", "lp"), ("lp", "path1"), ("path2", "path2"),
                         ("twod_path1", "twod_path1"), ("twod_path2", "twod_path2")}
        with pytest.raises(DomainError, match=r"variant 'lp' requires b\(t\) == 0"):
            kernel_build(sho_traj, 0.5, "lp")

    def test_b_that_vanishes_on_a_uniform_grid_is_refused(self):
        # 1e-3 sin(64 pi t) is below 1e-14 at every 65-point grid time of
        # [0, 1]; its crests and troughs are not
        cs = CoefficientSet1D.build(a=1.0, b=Sinusoid(1e-3, 64.0 * math.pi))
        with pytest.raises(DomainError, match=r"variant 'lp' requires b\(t\) == 0"):
            kernel_build(paramflow.solve_path1(cs, 1.0), 0.5, "lp")
        with pytest.raises(DomainError, match=r"split-step oracle requires b\(t\) == 0"):
            split_step_evolve(cs, grid_1024(), 1.0, 16)

    def test_a_nan_b_is_refused(self, sho_traj):
        # NaN > 1e-14 is False: only `not ... <= 1e-14` refuses it
        traj = dataclasses.replace(sho_traj, coeffs=CoefficientSet1D.build(a=1.0, b=math.nan))
        with pytest.raises(DomainError, match=r"variant 'lp' requires b\(t\) == 0"):
            kernel_build(traj, 0.5, "lp")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["prefactor", "scal", "qxx", "qx1x1", "qxx1", "lx", "lx1"])
    def test_rejects_coefficients_that_are_not_finite(self, field, bad):
        kernel = random_kernel(np.random.default_rng(4), 2, cross_scale=1.0)
        value = getattr(kernel, field)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.flat[-1] = bad
        else:
            value = complex(bad, 0.0)
        with pytest.raises(DomainError, match="kernel coefficients are not finite"):
            dataclasses.replace(kernel, **{field: value})

    def test_unknown_variant(self, sho_traj):
        with pytest.raises(DomainError, match="unknown kernel variant 'path3'; choose from"):
            kernel_build(sho_traj, 0.3, "path3")

    @pytest.mark.parametrize("qxx, qxx1, message", [
        (1.0, 0.0, "real exponent with a singular cross block"),
        (-1j, 1.0, "imaginary part of the exponent is not positive semidefinite"),
    ], ids=["real-singular-cross", "imaginary-not-psd"])
    def test_kernels_that_are_not_delta_convergent_are_refused(self, qxx, qxx1, message):
        with pytest.raises(DomainError, match=f"kernel is not delta-convergent: {message}"):
            GaussianKernel(dof=1, t=1.0, prefactor=1.0, qxx=qxx, qx1x1=1.0, qxx1=qxx1,
                           lx=0.0, lx1=0.0, scal=0.0, valid_to=math.inf, hbar=1.0)

    def test_unitarity_residual_of_the_zero_state_is_refused(self, sho_traj):
        zero = WaveGrid(8, -1.0, 0.25, np.zeros(8, dtype=complex))
        with pytest.raises(DomainError, match="unitarity residual undefined for the zero state"):
            kernel_unitarity_residual(kernel_build(sho_traj, 0.3, "path1"), zero)


class TestKernelApply:
    def test_near_delta_reproduces_input(self, free_traj):
        # smallest trapezoid-resolvable near-delta time on this grid; the
        # residual 7.7e-7 infidelity is the true free-evolution spreading
        k = kernel_build(free_traj, 0.007, "path1")
        psi = gaussian_state(4096, -6.0, 12.0 / 4096, sigma=1.0)
        out = kernel_apply(k, psi)
        assert fidelity(psi, out) >= 1.0 - 1e-6

    def test_delta_sequence_improves_with_t(self, free_traj):
        psi = gaussian_state(4096, -6.0, 12.0 / 4096, sigma=1.0)
        f_far = fidelity(psi, kernel_apply(kernel_build(free_traj, 0.1, "path1"), psi))
        f_near = fidelity(psi, kernel_apply(kernel_build(free_traj, 0.01, "path1"), psi))
        assert f_near > f_far

    def test_oscillator_coherent_state_moments(self, sho_traj):
        t = math.pi / 4
        k = kernel_build(sho_traj, t, "path1")
        psi = grid_1024(sigma=math.sqrt(0.5), x0=1.0, p0=0.5)
        out = kernel_apply(k, psi)
        mean, cov = grid_moments(out)
        smap = maps.assemble_path1(sho_traj, t)
        mean_expected, cov_expected = maps.evolve_gaussian_moments(
            smap, np.array([1.0, 0.5]), np.diag([0.5, 0.5])
        )
        assert np.max(np.abs(mean - mean_expected)) < 1e-4
        assert np.max(np.abs(cov - cov_expected)) < 1e-4

    def test_forced_particle_momentum_shift(self):
        # force f = 1 for time t kicks the mean momentum by exactly t
        cs = CoefficientSet1D.build(a=1.0, e=-1.0)
        traj = paramflow.solve_path1(cs, 2.0, tol=1e-12)
        t = 1.5
        k = kernel_build(traj, t, "lp")
        psi = grid_1024(sigma=1.0, p0=0.3)
        out = kernel_apply(k, psi)
        mean, _ = grid_moments(out)
        s = traj.sample(t)
        assert -s.Pi == pytest.approx(t, abs=1e-10)
        assert mean[1] == pytest.approx(0.3 + t, abs=1e-6)

    def test_dof_mismatch(self, free_traj):
        k = kernel_build(free_traj, 0.5, "path1")
        square = WaveGrid(32, -4.0, 0.25, np.ones((32, 32), dtype=complex))
        with pytest.raises(DomainError, match="dof"):
            kernel_apply(k, square)

    def test_hbar_mismatch(self, free_traj):
        # a kernel built at hbar = 1 is not the propagator on an hbar = 0.25 grid
        k = kernel_build(free_traj, 0.5, "path1")
        with pytest.raises(DomainError, match="hbar"):
            kernel_apply(k, gaussian_state(256, -8.0, 16.0 / 256, hbar=0.25))

    @pytest.mark.parametrize("t, grid", [
        (1e-307, (1024, -12.0, 24.0 / 1024)),   # the cross chirp's phase overflows
        (1.0, (8, -12.0, 1e300)),               # x^2 overflows in the chirps
    ])
    def test_a_result_that_is_not_finite_is_refused(self, sho_traj, t, grid):
        # the suite turns numpy's RuntimeWarnings into errors: none is issued
        with pytest.raises(DomainError, match="applied kernel is not finite on this grid"):
            kernel_apply(kernel_build(sho_traj, t, "path1"), gaussian_state(*grid))

    def test_a_planar_result_that_is_not_finite_is_refused(self, efield_traj):
        psi = WaveGrid(8, -12.0, 1e300, np.outer(*[gaussian_state(8, -12.0, 1e300).amps] * 2))
        with pytest.raises(DomainError, match="applied kernel is not finite on this grid"):
            kernel_apply(kernel_build(efield_traj, 0.8, "twod_path2"), psi)


class TestUnitarity:
    def test_free_kernel(self, free_traj):
        k = kernel_build(free_traj, 1.0, "path1")
        assert kernel_unitarity_residual(k, grid_1024()) <= 1e-6

    def test_suite_kernels(self, sho_traj, sho_traj2):
        for traj, t, variant in (
            (sho_traj, math.pi / 4, "path1"),
            (sho_traj2, math.pi / 4, "path2"),
            (sho_traj2, 2.0, "path2"),
        ):
            k = kernel_build(traj, t, variant)
            assert kernel_unitarity_residual(k, grid_1024()) <= 1e-6

    def test_real_prefactor_convention_changes_phase_only(self, free_traj):
        # |1/sqrt(i)| = 1: dropping the i leaves the modulus and hence the
        # norm untouched
        k = kernel_build(free_traj, 1.0, "path1")
        rotated = GaussianKernel(
            dof=1, t=k.t, prefactor=abs(k.prefactor), qxx=k.qxx, qx1x1=k.qx1x1,
            qxx1=k.qxx1, lx=k.lx, lx1=k.lx1, scal=k.scal,
            valid_to=k.valid_to, hbar=k.hbar,
        )
        assert kernel_unitarity_residual(rotated, grid_1024()) <= 1e-6

    def test_corrupted_prefactor_detected(self, free_traj):
        k = kernel_build(free_traj, 1.0, "path1")
        bad = GaussianKernel(
            dof=1, t=k.t, prefactor=1.1 * k.prefactor, qxx=k.qxx, qx1x1=k.qx1x1,
            qxx1=k.qxx1, lx=k.lx, lx1=k.lx1, scal=k.scal,
            valid_to=k.valid_to, hbar=k.hbar,
        )
        assert kernel_unitarity_residual(bad, grid_1024()) == pytest.approx(0.1, abs=1e-6)


class TestPhaseConventions:
    def test_energy_offset_phase(self):
        # H = p^2/2 + g0: the kernel must carry the global phase e^(-i g0 t),
        # checked via the phase-sensitive overlap against the split-step
        # oracle (fidelity alone would not see it)
        g0 = 0.7
        cs = CoefficientSet1D.build(a=1.0, g=g0)
        traj = paramflow.solve_path1(cs, 1.5, tol=1e-12)
        assert traj.sample(1.0).S == pytest.approx(g0, rel=1e-10)
        k = kernel_build(traj, 1.0, "path1")
        psi = grid_1024()
        out_k = kernel_apply(k, psi)
        out_o = oracle_split(cs, psi, 1.0, 1024)
        assert abs(np.angle(_overlap(out_o, out_k))) < 1e-8

    def test_forced_particle_phase(self):
        cs = CoefficientSet1D.build(a=1.0, e=-1.0)
        traj = paramflow.solve_path1(cs, 1.6, tol=1e-12)
        k = kernel_build(traj, 1.5, "lp")
        psi = grid_1024()
        out_k = kernel_apply(k, psi)
        out_o = oracle_split(cs, psi, 1.5, 2048)
        overlap = _overlap(out_o, out_k)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.angle(overlap)) < 1e-7


def _overlap(psi1, psi2):
    w = np.ones(psi1.n)
    w[0] = w[-1] = 0.5
    return np.sum(w * np.conj(psi1.amps) * psi2.amps) * psi1.dx


def oracle_split(cs, psi, t, steps):
    from liegate.oracle import split_step_evolve

    return split_step_evolve(cs, psi, t, steps)


class TestRouteEquality:
    def test_general_route2_kernel_equals_route1(self):
        # rf-trap coefficients drive route 2 through its full quadratic-phase
        # branch (alpha, vphi, beta all nonzero; beta even changes sign);
        # both routes factorize the same propagator, so the kernels must
        # agree coefficient by coefficient
        cs = CoefficientSet1D.build(a=1.0, c=Sinusoid(0.3, 5.0, math.pi / 2, 1.0))
        tr1 = paramflow.solve_path1(cs, 0.5, tol=1e-12)
        tr2 = paramflow.solve_path2(cs, 0.5, tol=1e-12)
        assert not tr2.shortcut
        t = 0.4
        k1 = kernel_build(tr1, t, "path1")
        k2 = kernel_build(tr2, t, "path2")
        assert tr2.sample(t).beta != 0.0
        for name in ("qxx", "qx1x1", "qxx1"):
            assert abs(getattr(k1, name)[0, 0] - getattr(k2, name)[0, 0]) < 1e-9
        assert abs(k1.prefactor - k2.prefactor) < 1e-9
        assert kernel_unitarity_residual(k2, grid_1024()) <= 1e-6


class TestSemigroup:
    @pytest.mark.parametrize(
        "name,t1,t2",
        [("lp", 0.6, 1.4), ("sho", 0.5, 1.2), ("iontrap", 0.18, 0.4),
         ("kanai", 0.45, 1.0)],
    )
    def test_split_evolution_agrees(self, name, t1, t2):
        from liegate.verify import suite_systems

        cs = suite_systems()[name]
        psi = grid_1024(sigma=1.0, x0=0.5)
        traj = paramflow.solve_path1(cs, t2 * 1.05, tol=1e-12)
        full = kernel_apply(kernel_build(traj, t2, "path1"), psi)
        mid = kernel_apply(kernel_build(traj, t1, "path1"), psi)
        traj_tail = paramflow.solve_path1(cs.shifted(t1), (t2 - t1) * 1.05, tol=1e-12)
        two = kernel_apply(kernel_build(traj_tail, t2 - t1, "path1"), mid)
        assert fidelity(full, two) >= 1.0 - 1e-5


def assert_exponent_encodes_map(k, smap):
    """The gradient relations p' = -hbar d(phase)/dx', p = hbar d(phase)/dx
    must reproduce the affine map (M, shift) at random initial points."""
    n, hbar = k.dof, k.hbar
    qxx, qx1x1, cross = k.qxx.real, k.qx1x1.real, k.qxx1.real
    lx, lx1 = k.lx.real, k.lx1.real
    rng = np.random.default_rng(5)
    for _ in range(5):
        xp = rng.uniform(-2, 2, size=n)
        pp = rng.uniform(-2, 2, size=n)
        x = -np.linalg.solve(cross.T, 2 * qx1x1 @ xp + lx1 + pp / hbar)
        p = hbar * (2 * qxx @ x + cross @ xp + lx)
        target = smap.M @ np.concatenate([xp, pp]) + smap.shift
        assert np.allclose(np.concatenate([x, p]), target, atol=1e-8)


class TestStationaryPhase:
    def test_kernel_exponent_encodes_the_map(self):
        cs = CoefficientSet1D.build(
            a=Sinusoid(0.2, 1.1, 0.3, 1.0),
            b=Sinusoid(0.15, 2.0, 0.0, 0.0),
            c=Sinusoid(0.3, 1.7, 1.0, 0.8),
            d=0.2, e=Sinusoid(0.5, 1.2, 0.0, 0.0), g=0.1,
        )
        traj = paramflow.solve_path1(cs, 1.2, tol=1e-12)
        t = min(1.0, 0.8 * traj.valid_to)
        assert_exponent_encodes_map(kernel_build(traj, t, "path1"),
                                    maps.assemble_path1(traj, t))

    @pytest.mark.parametrize("variant", ["path2", "twod_path1", "twod_path2"])
    def test_other_routes_encode_the_map(self, variant):
        if variant == "path2":
            # the rf trap drives route 2 through its quadratic-phase branch
            cs = CoefficientSet1D.build(a=1.0, c=Sinusoid(0.3, 5.0, math.pi / 2, 1.0),
                                        d=0.2, e=Sinusoid(0.5, 1.2, 0.0, 0.0), g=0.1)
            traj = paramflow.solve_path2(cs, 0.5, tol=1e-12)
            assert not traj.shortcut
            t, assemble = 0.4, maps.assemble_path2
        else:
            field = FieldProfile2D.build(
                m=1.0, B=Sinusoid(0.8, 1.3, 0.2, 2.0), K=Sinusoid(0.3, 2.1, 0.0, 0.5),
                Ex=0.3, Ey=Sinusoid(0.2, 1.3, math.pi / 2), charge=1.0,
            )
            traj = paramflow.solve_2d(field, 1.0, tol=1e-12, path=variant[5:])
            t, assemble = 0.8, maps.assemble_2d
        assert_exponent_encodes_map(kernel_build(traj, t, variant), assemble(traj, t))


@pytest.fixture(scope="module")
def efield_traj():
    field = FieldProfile2D.build(
        m=1.0, B=2.0, K=0.5, Ex=0.3,
        Ey=Sinusoid(0.2, 1.3, math.pi / 2), charge=1.0,
    )
    return paramflow.solve_2d(field, 1.0, tol=1e-11, path="path2")


class TestPlanarKernels:
    def make_grid2(self, n=64, half=7.0, sigma=0.8, x0=0.3, y0=-0.2):
        x = np.linspace(-half, half, n, endpoint=False)
        dx = x[1] - x[0]
        xv, yv = np.meshgrid(x, x, indexing="ij")
        amps = np.exp(-((xv - x0) ** 2 + (yv - y0) ** 2) / (4 * sigma**2))
        return WaveGrid(n, -half, dx, amps).normalized()

    def test_unitarity(self, efield_traj):
        k = kernel_build(efield_traj, 0.8, "twod_path2")
        psi = self.make_grid2()
        out = kernel_apply(k, psi)
        assert abs(out.norm() - 1.0) <= 1e-6

    def test_mean_transport_with_rotation(self, efield_traj):
        t = 0.8
        k = kernel_build(efield_traj, t, "twod_path2")
        psi = self.make_grid2()
        out = kernel_apply(k, psi)
        n = psi.n
        x = psi.x
        w = np.ones(n)
        w[0] = w[-1] = 0.5
        ww = np.outer(w, w)
        rho = ww * np.abs(out.amps) ** 2
        total = rho.sum()
        xv, yv = np.meshgrid(x, x, indexing="ij")
        mean_grid = np.array([(rho * xv).sum(), (rho * yv).sum()]) / total
        smap = maps.assemble_2d(efield_traj, t)
        mean0 = np.array([0.3, -0.2, 0.0, 0.0])
        cov0 = np.diag([0.64, 0.64, 1 / 2.56, 1 / 2.56])
        mean1, _ = maps.evolve_gaussian_moments(smap, mean0, cov0)
        assert np.max(np.abs(mean_grid - mean1[:2])) < 1e-4

    @pytest.mark.parametrize("variant", ["twod_path1", "twod_path2"])
    def test_isotropic_oscillator_is_mehler(self, variant):
        # B = 0 and m = K = 1: two uncoupled unit oscillators, no rotation
        field = FieldProfile2D.build(m=1.0, B=0.0, K=1.0, charge=1.0)
        traj = paramflow.solve_2d(field, 1.2, tol=1e-12, path=variant[5:])
        t = 1.0
        k = kernel_build(traj, t, variant)
        assert abs(k.prefactor - 1.0 / (2.0j * math.pi * math.sin(t))) < 1e-12
        assert np.max(np.abs(k.qxx - math.cos(t) / (2.0 * math.sin(t)) * np.eye(2))) < 1e-12
        assert np.max(np.abs(k.qx1x1 - k.qxx)) < 1e-12
        assert np.max(np.abs(k.qxx1 + np.eye(2) / math.sin(t))) < 1e-12

    def test_variant_requires_planar_trajectory(self, sho_traj):
        with pytest.raises(DomainError, match="planar"):
            kernel_build(sho_traj, 0.3, "twod_path1")

    def test_route1_blocks_with_sin_field(self):
        field = FieldProfile2D.build(m=1.0, B=Sinusoid(2.0, 3.0), K=0.0, charge=1.0)
        tr = paramflow.solve_2d(field, 0.8, tol=1e-11, path="path1")
        k = kernel_build(tr, 0.6, "twod_path1")
        psi = self.make_grid2(n=64, half=8.0, sigma=0.9, x0=0.4, y0=0.0)
        out = kernel_apply(k, psi)
        assert abs(out.norm() - 1.0) <= 1e-6


def sample_kernel(traj, t: float) -> GaussianKernel:
    """The kernel at t as it is defined: the module docstring's formula on
    the radial map of ``test_maps.radial_entries`` and one whole sample."""
    s = traj.sample(t)
    if isinstance(traj, paramflow.ParamTrajectory2D):
        (g_qq, g_qp), (_, g_pp) = radial_entries(traj.radial, t)
        rot, action = np.array(paramflow._rotation(s["theta"])), s["S"]
        lam, pi = np.array([s["lam_x"], s["lam_y"]]), np.array([s["Pi_x"], s["Pi_y"]])
    else:
        (g_qq, g_qp), (_, g_pp) = radial_entries(traj, t)
        rot, lam, pi, action = np.eye(1), np.array([s.lam]), np.array([s.Pi]), s.S
    hbar, dof = traj.hbar, len(lam)
    a, c = g_pp / (2.0 * hbar * g_qp), -1.0 / (hbar * g_qp)
    return GaussianKernel(
        dof=dof, t=t, prefactor=cmath.sqrt(1.0 / (2.0j * math.pi * hbar * g_qp)) ** dof,
        qxx=a * np.eye(dof), qx1x1=g_qq / (2.0 * hbar * g_qp) * np.eye(dof), qxx1=c * rot,
        lx=-2.0 * a * lam - pi / hbar, lx1=-c * rot.T @ lam,
        scal=complex(a * lam @ lam + pi @ lam / hbar - action / hbar),
        valid_to=traj.valid_to, hbar=hbar,
    )


class TestKernelsReadTheMap:
    @pytest.fixture(scope="class")
    def cases(self):
        # variant -> trajectory: route 2 once as the shortcut (a = c = 1) and
        # once not; the planar field has a sinusoidal B and K > 0, so its
        # route 2 is not the shortcut either
        general = random_smooth_coeffs(np.random.default_rng(0), positive_c=True)
        field = FieldProfile2D.build(m=1.0, B=Sinusoid(0.5, 2.0, 0.0, 1.5), K=0.5, Ex=0.2)
        cases = [
            ("lp", paramflow.solve_path1(CoefficientSet1D.build(a=Exponential(1.0, -0.4),
                                                                e=-0.7), 2.0)),
            ("path1", paramflow.solve_path1(general, 1.0)),
            ("path2", paramflow.solve_path2(CoefficientSet1D.build(a=1.0, c=1.0), 3.0)),
            ("path2", paramflow.solve_path2(general, 1.0)),
            *[(f"twod_{path}", paramflow.solve_2d(field, 1.0, path=path))
              for path in ("path1", "path2")],
        ]
        radials = [tr.radial if "twod" in v else tr for v, tr in cases]
        assert [r.shortcut for r in radials] == [False, False, True, False, False, False]
        return cases

    def test_kernels_read_no_sample_and_keep_the_sample_bits(self, cases, monkeypatch):
        calls = []
        for cls in (paramflow.ParamTrajectory, paramflow.ParamTrajectory2D):
            monkeypatch.setattr(cls, "sample", lambda tr, t, sample=cls.sample:
                                calls.append(t) or sample(tr, t))
        times = [np.linspace(0.0, 0.95 * min(tr.t_end, tr.valid_to), 6)[1:].tolist()
                 for _, tr in cases]
        got = [kernel_build(tr, t, variant) for (variant, tr), ts in zip(cases, times)
               for t in ts]
        assert calls == []
        expected = [sample_kernel(tr, t) for (_, tr), ts in zip(cases, times) for t in ts]
        assert calls
        for k, ref in zip(got, expected, strict=True):
            for field in dataclasses.fields(GaussianKernel):
                mine, theirs = getattr(k, field.name), getattr(ref, field.name)
                assert np.asarray(mine).tobytes() == np.asarray(theirs).tobytes(), field.name
                assert type(mine) is type(theirs), field.name

    def test_times_outside_the_solve_fail_as_before(self, cases):
        for variant, tr in cases:
            assert tr.valid_to == math.inf
            for t in (tr.t_end + 1.0, math.nan):
                with pytest.raises(DomainError) as err:
                    kernel_build(tr, t, variant)
                assert str(err.value) == f"t={t} outside the solved interval [0, {tr.t_end}]"

    def test_an_infinite_time_without_a_focal_time_is_outside_the_solve(self, cases):
        # valid_to = inf is no focal time: t = inf is refused as the map
        # refuses it, not as a caustic
        free = paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=0.0), 1.0)
        with pytest.raises(DomainError) as refused:
            maps.assemble_path1(free, math.inf)
        for variant, tr in [("path1", free), *cases]:
            with pytest.raises(DomainError) as err:
                kernel_build(tr, math.inf, variant)
            assert type(err.value) is DomainError
            assert str(err.value) == f"t=inf outside the solved interval [0, {tr.t_end}]"
        assert str(refused.value) == "t=inf outside the solved interval [0, 1.0]"


def direct_apply(kernel, psi0):
    """Reference: the direct trapezoid sum sum_j w_j G(x_i, x_j) psi0(x_j) dx^dof."""
    n, x = psi0.n, psi0.x
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    if kernel.dof == 1:
        weighted = w * psi0.amps * psi0.dx
        rows = [kernel.evaluate(x[start:start + 256, None], x[None, :]) @ weighted
                for start in range(0, n, 256)]
        return np.concatenate(rows)
    xv, yv = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([xv.ravel(), yv.ravel()], axis=-1)
    weighted = (np.outer(w, w) * psi0.amps).ravel() * psi0.dx**2
    rows = [kernel.evaluate(pts[i * n:(i + 1) * n, None, :], pts[None, :, :]) @ weighted
            for i in range(n)]
    return np.array(rows)


def random_kernel(rng, dof, cross_scale):
    """Seeded real kernel with general blocks and a complex prefactor."""
    shape = () if dof == 1 else (dof, dof)
    return GaussianKernel(
        dof=dof, t=1.0, prefactor=complex(*rng.normal(size=2)),
        qxx=rng.normal(size=shape), qx1x1=rng.normal(size=shape),
        qxx1=cross_scale * rng.normal(size=shape),
        lx=rng.normal(size=dof), lx1=rng.normal(size=dof),
        scal=rng.normal(), valid_to=2.0, hbar=1.0,
    )


def on_fresh_thread(fn, *args):
    """fn(*args) on a new thread."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=120)


def assert_matches_direct(kernel, psi):
    fast = kernel_apply(kernel, psi).amps
    ref = direct_apply(kernel, psi)
    assert fast.shape == ref.shape
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


# the smallest CLI grid (8), odd and even sizes, squares (9, 16, 25),
# powers of two (16, 32), primes (61), and the benchmark's 48
PLANAR_SIZES = [8, 9, 16, 25, 32, 33, 48, 61]


@pytest.fixture(scope="module")
def built_planar_kernels(efield_traj):
    """kernel_build's planar kernel on each route: Qxx' = kappa R(theta)."""
    field = FieldProfile2D.build(m=1.0, B=Sinusoid(2.0, 3.0), K=0.0, charge=1.0)
    bsin_traj = paramflow.solve_2d(field, 0.8, tol=1e-11, path="path1")
    return {"twod_path2": kernel_build(efield_traj, 0.8, "twod_path2"),
            "twod_path1": kernel_build(bsin_traj, 0.6, "twod_path1")}


class TestApplyMatchesDirectSum:
    @pytest.mark.parametrize("n", [64, 257, 1024])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_1d_kernels(self, n, seed):
        rng = np.random.default_rng(100 + seed)
        kernel = random_kernel(rng, 1, cross_scale=3.0)
        psi = gaussian_state(n, -8.0, 16.0 / n, sigma=1.0, x0=0.3, p0=0.5)
        noise = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert_matches_direct(kernel, WaveGrid(n, psi.x_min, psi.dx, psi.amps + 0.1 * noise))

    def test_near_delta_free_kernel(self, free_traj):
        kernel = kernel_build(free_traj, 0.007, "path1")
        assert_matches_direct(kernel, gaussian_state(4096, -6.0, 12.0 / 4096, sigma=1.0))

    @pytest.mark.parametrize("t", [1.5, 1.569])
    def test_near_focal_oscillator_kernel(self, t):
        traj = paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=1.0), 1.57, tol=1e-12)
        kernel = kernel_build(traj, t, "path1")
        assert abs(kernel.qxx1[0, 0]) > 1.0
        assert_matches_direct(kernel, grid_1024(sigma=1.0, x0=0.5, p0=-0.4))

    @pytest.mark.parametrize("n", PLANAR_SIZES)
    def test_random_planar_general_blocks(self, n):
        rng = np.random.default_rng(200 + n)
        kernel = random_kernel(rng, 2, cross_scale=2.0)
        # neither a scaled identity nor a scaled rotation
        assert abs(kernel.qxx[0, 1].real) > 1e-3
        assert abs(kernel.qxx1[0, 0] - kernel.qxx1[1, 1]) > 1e-3
        assert abs(kernel.qxx1[0, 1] + kernel.qxx1[1, 0]) > 1e-3
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_matches_direct(kernel, WaveGrid(n, -4.0, 8.0 / n, amps))

    @pytest.mark.parametrize("n", PLANAR_SIZES)
    @pytest.mark.parametrize("variant", ["twod_path2", "twod_path1"])
    def test_planar_built_kernels(self, built_planar_kernels, variant, n):
        kernel = built_planar_kernels[variant]
        # a rotation block: E_11 is E_00 and E_10 is the conjugate of E_01
        assert kernel.qxx1[0, 0] == kernel.qxx1[1, 1]
        assert kernel.qxx1[0, 1] == -kernel.qxx1[1, 0] != 0.0
        rng = np.random.default_rng(300 + n)
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_matches_direct(kernel, WaveGrid(n, -7.0, 14.0 / n, amps))

    @pytest.mark.parametrize("case", ["mixed-cross", "antisymmetric-qxx"])
    def test_random_planar_structured_blocks(self, case):
        n = 33
        rng = np.random.default_rng(400 if case == "mixed-cross" else 401)
        kernel = random_kernel(rng, 2, cross_scale=2.0)
        if case == "mixed-cross":
            # [[a, b], [-b, d]] with a != d: E_10 is E_01's conjugate, E_11 is formed
            (a, b), (_, d) = kernel.qxx1.real
            assert abs(a - d) > 1e-3
            kernel = dataclasses.replace(kernel, qxx1=np.array([[a, b], [-b, d]]))
        else:
            # Q01 = -Q10 != 0 in both chirps: their cross factors are exactly 1
            anti = np.array([[0.0, 1.0], [-1.0, 0.0]])
            kernel = dataclasses.replace(kernel, qxx=np.diag(np.diag(kernel.qxx)) + 0.7 * anti,
                                         qx1x1=np.diag(np.diag(kernel.qx1x1)) - 1.3 * anti)
            assert kernel.qxx[0, 1] + kernel.qxx[1, 0] == 0.0 != kernel.qxx[0, 1]
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_matches_direct(kernel, WaveGrid(n, -4.0, 8.0 / n, amps))

    def test_planar_working_memory_is_a_few_squares(self):
        # the peak stays below 10.5 n^2 complex entries (672 KiB at n = 64):
        # the chirps, the phase factors and two n^2 temporaries per output
        # row, all freed before the output chirp is formed, so neither an n^3
        # temporary, a buffer over many rows nor the phase factors outliving
        # the row loop can come back unnoticed; the traced apply runs on a
        # fresh thread, so the peak counts all that the apply allocates there
        n = 64
        rng = np.random.default_rng(64)
        kernel = random_kernel(rng, 2, cross_scale=2.0)
        psi = WaveGrid(n, -4.0, 8.0 / n, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        kernel_apply(kernel, psi)
        tracemalloc.start()
        try:
            on_fresh_thread(kernel_apply, kernel, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10.5 * n**2 * 16

    def test_concurrent_planar_applies_give_the_serial_bits(self):
        # two threads per kernel, two kernels of different grid sizes: every
        # apply gives the serial bits, so no thread writes into another's
        # row temporaries or output
        rng = np.random.default_rng(600)
        cases = []
        for n in (33, 48):
            kernel = random_kernel(rng, 2, cross_scale=2.0)
            psi = WaveGrid(n, -4.0, 8.0 / n, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            cases.append((kernel, psi, kernel_apply(kernel, psi).amps.tobytes()))
        matches = []
        start = threading.Barrier(2 * len(cases))

        def worker(kernel, psi, serial):
            start.wait(timeout=60)
            matches.append(sum(kernel_apply(kernel, psi).amps.tobytes() == serial
                               for _ in range(200)))

        threads = [threading.Thread(target=worker, args=case) for case in cases for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert matches == [200] * len(threads)

    @pytest.mark.parametrize("dof", [1, 2])
    def test_complex_cross_block_rejected(self, dof):
        kernel = random_kernel(np.random.default_rng(3), dof, cross_scale=1.0)
        complex_cross = GaussianKernel(
            dof=dof, t=kernel.t, prefactor=kernel.prefactor,
            qxx=kernel.qxx + 1j * np.eye(dof), qx1x1=kernel.qx1x1 + 1j * np.eye(dof),
            qxx1=kernel.qxx1 + 0.1j * np.eye(dof),
            lx=kernel.lx, lx1=kernel.lx1, scal=kernel.scal,
            valid_to=kernel.valid_to, hbar=kernel.hbar,
        )
        psi = WaveGrid(8, -1.0, 0.25, np.ones((8,) * dof, dtype=complex))
        with pytest.raises(DomainError, match="real cross block"):
            kernel_apply(complex_cross, psi)


@pytest.mark.parametrize("dx", [0.25, 8.0 / 33, 16.0 / 61, 0.1, 0.19166005950097081])
def test_planar_quadrature_weighs_by_dx_times_dx(dx):
    # with no chirps and no cross term, the planar apply at the origin is the
    # trapezoid sum of the input: the four weights 0.25 dx dx of a 2 x 2 grid,
    # np.outer(w * dx, w * dx) to the bit.  pow(dx, 2) is one ulp off dx * dx
    # at the last dx, so the apply must not square dx by a power.
    kernel = GaussianKernel(dof=2, t=1.0, prefactor=1.0, qxx=1j * np.eye(2),
                            qx1x1=np.zeros((2, 2)), qxx1=np.zeros((2, 2)), lx=np.zeros(2),
                            lx1=np.zeros(2), scal=0.0, valid_to=math.inf, hbar=1.0)
    out = kernel_apply(kernel, WaveGrid(2, 0.0, dx, np.ones((2, 2))))
    w = np.array([0.5, 0.5])
    assert out.amps[0, 0] == np.outer(w * dx, w * dx).sum() == dx * dx


def test_next_fast_len_is_scipys():
    # the FFT length of the 1D apply, as scipy chose it before numpy.fft took over
    from scipy.fft import next_fast_len

    targets = [*range(1, 20001), 2 * _MAX_GRID_N - 1]
    assert [t for t in targets if _next_fast_len(t) != next_fast_len(t)] == []


def test_next_fast_len_is_cached_and_equals_its_loop():
    _next_fast_len.cache_clear()
    loop = _next_fast_len.__wrapped__
    for _ in range(2):
        assert [t for t in range(1, 5001) if _next_fast_len(t) != loop(t)] == []
    assert _next_fast_len.cache_info().hits == 5000


def scipy_fft_apply_1d(kernel, psi0):
    """The 1D kernel_apply as it was written with scipy.fft and einsum chirps."""
    import scipy.fft

    def chirp(pts, quad, lin):
        return np.exp(1j * (np.einsum("...i,ij,...j->...", pts, quad, pts) + pts @ lin))

    n, x, dx = psi0.n, psi0.x, psi0.dx
    pts, weights, shift = x[:, None], psi0.weights * dx, 0.5 * kernel.qxx1.real
    g = weights * psi0.amps * chirp(pts, kernel.qx1x1 + shift, kernel.lx1)
    size = scipy.fft.next_fast_len(2 * n - 1)
    k = np.minimum(np.arange(size), size - np.arange(size))
    cross = np.exp(-1j * shift[0, 0] * (dx * k) ** 2)
    cross[n:size - n + 1] = 0.0
    out = scipy.fft.ifft(scipy.fft.fft(g, size) * scipy.fft.fft(cross))[:n]
    out *= kernel.prefactor * np.exp(1j * kernel.scal) * chirp(pts, kernel.qxx + shift, kernel.lx)
    return out


@pytest.mark.parametrize("n", [8, 48, 1000, 1024, 2048, 3000])
def test_1d_apply_has_the_scipy_fft_bits(n):
    # numpy.fft and scipy.fft are both pocketfft, and the 1D chirp
    # x * q * x + x * l rounds as the einsum did: at powers of two and other
    # sizes the apply gives the bits it gave with scipy.fft and einsum
    rng = np.random.default_rng(n)
    kernel = random_kernel(rng, 1, cross_scale=3.0)
    psi = WaveGrid(n, -8.0, 16.0 / n, rng.normal(size=n) + 1j * rng.normal(size=n))
    assert kernel_apply(kernel, psi).amps.tobytes() == scipy_fft_apply_1d(kernel, psi).tobytes()
