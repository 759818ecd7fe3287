"""Gaussian propagator kernels: coefficients, quadrature, invariants."""

import math

import numpy as np
import pytest

from liegate import greens, maps, paramflow
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
from liegate.oracle import WaveGrid, _trapezoid_weights, fidelity, gaussian_state, grid_moments


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

    def test_unknown_variant(self, sho_traj):
        with pytest.raises(DomainError, match="unknown kernel variant 'path3'; choose from"):
            kernel_build(sho_traj, 0.3, "path3")


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


def assert_matches_direct(kernel, psi):
    fast = kernel_apply(kernel, psi).amps
    ref = direct_apply(kernel, psi)
    assert fast.shape == ref.shape
    assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


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

    @pytest.mark.parametrize("n", [16, 33, 48])
    def test_random_planar_general_blocks(self, n):
        rng = np.random.default_rng(200 + n)
        kernel = random_kernel(rng, 2, cross_scale=2.0)
        # neither a scaled identity nor a scaled rotation
        assert abs(kernel.qxx[0, 1].real) > 1e-3
        assert abs(kernel.qxx1[0, 0] - kernel.qxx1[1, 1]) > 1e-3
        assert abs(kernel.qxx1[0, 1] + kernel.qxx1[1, 0]) > 1e-3
        amps = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert_matches_direct(kernel, WaveGrid(n, -4.0, 8.0 / n, amps))

    def test_planar_field_kernel(self, efield_traj):
        kernel = kernel_build(efield_traj, 0.8, "twod_path2")
        rng = np.random.default_rng(7)
        amps = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        assert_matches_direct(kernel, WaveGrid(32, -7.0, 14.0 / 32, amps))

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


def test_next_fast_len_is_scipys():
    # the FFT length of the 1D apply, as scipy chose it before numpy.fft took over
    from scipy.fft import next_fast_len

    targets = [*range(1, 20001), 2 * _MAX_GRID_N - 1]
    assert [t for t in targets if _next_fast_len(t) != next_fast_len(t)] == []


def scipy_fft_apply_1d(kernel, psi0):
    """The 1D kernel_apply as it was written with scipy.fft."""
    import scipy.fft

    n, x, dx = psi0.n, psi0.x, psi0.dx
    pts, weights, shift = x[:, None], _trapezoid_weights(n) * dx, 0.5 * kernel.qxx1.real
    g = weights * psi0.amps * greens._chirp(pts, kernel.qx1x1 + shift, kernel.lx1)
    size = scipy.fft.next_fast_len(2 * n - 1)
    k = np.minimum(np.arange(size), size - np.arange(size))
    cross = np.exp(-1j * shift[0, 0] * (dx * k) ** 2)
    cross[n:size - n + 1] = 0.0
    out = scipy.fft.ifft(scipy.fft.fft(g, size) * scipy.fft.fft(cross))[:n]
    out *= kernel.prefactor * np.exp(1j * kernel.scal) * greens._chirp(
        pts, kernel.qxx + shift, kernel.lx
    )
    return out


@pytest.mark.parametrize("n", [8, 48, 1000, 1024, 2048, 3000])
def test_1d_apply_has_the_scipy_fft_bits(n):
    # numpy.fft and scipy.fft are both pocketfft: at powers of two and other
    # sizes the apply gives the bits it gave with scipy.fft
    rng = np.random.default_rng(n)
    kernel = random_kernel(rng, 1, cross_scale=3.0)
    psi = WaveGrid(n, -8.0, 16.0 / n, rng.normal(size=n) + 1j * rng.normal(size=n))
    assert kernel_apply(kernel, psi).amps.tobytes() == scipy_fft_apply_1d(kernel, psi).tobytes()
