"""Symplectic map assembly and invariant checks."""

import dataclasses
import math

import numpy as np
import pytest

from liegate import maps, oracle, paramflow
from liegate.coeffs import CoefficientSet1D, Exponential, FieldProfile2D, Sinusoid
from liegate.errors import CausticError, DomainError
from liegate.maps import (
    SymplecticMap,
    assemble_2d,
    assemble_path1,
    assemble_path2,
    check_symplectic,
    evolve_gaussian_moments,
    symplectic_form,
)
from liegate.verify import random_smooth_coeffs, suite_systems


@pytest.fixture(scope="module")
def sho_traj():
    return paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=1.0), 1.5, tol=1e-12)


class TestAssemblyPathOne:
    def test_free_particle(self):
        tr = paramflow.solve_path1(CoefficientSet1D.build(a=1.0), 3.0, tol=1e-12)
        smap = assemble_path1(tr, 2.0)
        assert np.allclose(smap.M, [[1.0, 2.0], [0.0, 1.0]], atol=1e-11)
        assert np.allclose(smap.shift, 0.0)

    def test_oscillator_rotation(self, sho_traj):
        smap = assemble_path1(sho_traj, math.pi / 4)
        r = math.sqrt(0.5)
        assert np.allclose(smap.M, [[r, r], [-r, r]], atol=1e-10)

    def test_damped_oscillator_g_qq(self):
        # G_qq = e^(phi+gamma) with phi from the hyperbolic closed form and
        # gamma = -t/(2 tau); numeric value at tau=1, omega0=0.25, t=1
        tau, om0, t = 1.0, 0.25, 1.0
        big = math.sqrt(1.0 - 4.0 * tau**2 * om0**2) / (2.0 * tau)
        g_qq_exact = (
            math.cosh(big * t) + math.sinh(big * t) / (2.0 * tau * big)
        ) * math.exp(-t / (2.0 * tau))
        cs = CoefficientSet1D.build(
            a=Exponential(1.0, -1.0), c=Exponential(0.0625, 1.0)
        )
        tr = paramflow.solve_path1(cs, 1.2, tol=1e-12)
        smap = assemble_path1(tr, t)
        assert smap.M[0, 0] == pytest.approx(g_qq_exact, rel=1e-9)
        assert g_qq_exact == pytest.approx(0.9771, abs=2e-4)

    def test_identity_at_zero(self, sho_traj):
        smap = assemble_path1(sho_traj, 0.0)
        assert np.array_equal(smap.M, np.eye(2))
        assert np.array_equal(smap.shift, np.zeros(2))

    def test_beyond_focal_time_raises(self):
        tr = paramflow.solve_path1(CoefficientSet1D.build(a=1.0, c=1.0), 3.0, tol=1e-12)
        with pytest.raises(CausticError, match="valid_to") as err:
            assemble_path1(tr, 2.0)
        assert err.value.valid_to == pytest.approx(math.pi / 2, rel=1e-9)

    def test_wrong_route_rejected(self, sho_traj):
        with pytest.raises(DomainError, match="route"):
            assemble_path2(sho_traj, 0.3)


class TestAssemblyPathTwo:
    def test_oscillator_rotation(self):
        tr = paramflow.solve_path2(CoefficientSet1D.build(a=1.0, c=1.0), 2.0, tol=1e-12)
        t = 1.1
        smap = assemble_path2(tr, t)
        expected = np.array(
            [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        )
        assert np.allclose(smap.M, expected, atol=1e-10)

    def test_constant_radial_oscillator(self):
        m, om = 2.0, 1.6
        cs = CoefficientSet1D.build(a=1.0 / m, c=m * om * om / 4.0)
        tr = paramflow.solve_path2(cs, 3.0, tol=1e-12)
        t = 1.7
        smap = assemble_path2(tr, t)
        assert smap.M[0, 0] == pytest.approx(math.cos(om * t / 2.0), abs=1e-10)
        assert smap.M[0, 1] == pytest.approx(
            (2.0 / (m * om)) * math.sin(om * t / 2.0), abs=1e-10
        )

    def test_identity_at_zero(self):
        tr = paramflow.solve_path2(CoefficientSet1D.build(a=1.0, c=1.0), 1.0, tol=1e-12)
        smap = assemble_path2(tr, 0.0)
        assert np.array_equal(smap.M, np.eye(2))


class TestPlanarAssembly:
    def test_free_block_diagonal(self):
        field = FieldProfile2D.build(m=1.0, B=0.0, K=0.0, charge=1.0)
        tr = paramflow.solve_2d(field, 2.0, tol=1e-12, path="path1")
        smap = assemble_2d(tr, 1.5)
        expected = np.eye(4)
        expected[0, 2] = expected[1, 3] = 1.5
        assert np.allclose(smap.M, expected, atol=1e-10)

    def test_sin_field_mathieu_blocks(self):
        from liegate.closedforms import bfield_sin_params, mathieu_c

        m, b0, omega, q = 1.0, 2.0, 3.0, 1.0
        field = FieldProfile2D.build(m=m, B=Sinusoid(b0, omega), K=0.0, charge=q)
        tr = paramflow.solve_2d(field, 1.0, tol=1e-12, path="path1")
        t = 0.6
        smap = assemble_2d(tr, t)
        omega_c = q * b0 / m
        ev = mathieu_c(omega_c**2 / (8 * omega**2), omega_c**2 / (16 * omega**2),
                       omega * t)
        _, _, beta, theta = bfield_sin_params(m, b0, omega, q, t)
        g_qq = ev.C
        g_qp = ev.C * beta / m
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        assert np.allclose(smap.M[:2, :2], g_qq * rot, atol=1e-9)
        assert np.allclose(smap.M[:2, 2:], g_qp * rot, atol=1e-9)

    def test_full_radial_period_is_pure_rotation(self):
        m, q, b, k = 1.0, 1.0, 2.0, 0.5
        omega_big = math.sqrt(4 * k / m + (q * b / m) ** 2)
        period = 2.0 * math.pi / omega_big
        field = FieldProfile2D.build(m=m, B=b, K=k, charge=q)
        tr = paramflow.solve_2d(field, period * 1.05, tol=1e-12, path="path2")
        smap = assemble_2d(tr, period)
        theta = q * b / (2 * m) * period
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        expected = np.zeros((4, 4))
        expected[:2, :2] = -rot
        expected[2:, 2:] = -rot
        # half the (Omega/2)-cycle: radial part returns to minus identity at
        # Omega t = 2 pi, so the map is the pure rotation times cos(pi) = -1
        assert np.allclose(smap.M, expected, atol=1e-9)

    def test_identity_at_zero(self):
        field = FieldProfile2D.build(m=1.0, B=1.0, K=0.3, charge=1.0)
        tr = paramflow.solve_2d(field, 1.0, tol=1e-12, path="path2")
        smap = assemble_2d(tr, 0.0)
        assert np.array_equal(smap.M, np.eye(4))
        assert np.array_equal(smap.shift, np.zeros(4))

    def test_commutes_with_embedded_rotation(self):
        field = FieldProfile2D.build(
            m=1.0, B=Sinusoid(1.2, 2.0, 0.3, 0.8), K=0.4, charge=1.0
        )
        tr = paramflow.solve_2d(field, 1.2, tol=1e-11, path="path1")
        smap = assemble_2d(tr, 0.9)
        angle = 0.77
        c, s = math.cos(angle), math.sin(angle)
        r2 = np.array([[c, -s], [s, c]])
        r4 = np.block([[r2, np.zeros((2, 2))], [np.zeros((2, 2)), r2]])
        assert np.allclose(smap.M @ r4, r4 @ smap.M, atol=1e-12)


def seeded_field(seed: int, B=None) -> FieldProfile2D:
    """Sinusoidal m, B, K and drives with m > 0.7 and K > 0.1 (so the
    radial c > 0 and route 2 applies); ``B`` replaces the drawn field."""
    rng = np.random.default_rng(seed)

    def sin(offset, amplitude):
        return Sinusoid(rng.uniform(0.0, amplitude), rng.uniform(0.5, 3.0),
                        rng.uniform(0.0, 2.0 * math.pi), offset)

    drawn = sin(rng.uniform(-2.0, 2.0), 1.0)
    return FieldProfile2D.build(m=sin(1.0, 0.3), B=drawn if B is None else B,
                                K=sin(rng.uniform(0.3, 1.0), 0.2),
                                Ex=sin(0.0, 0.5), Ey=sin(0.0, 0.5))


def with_zeros(f, ts) -> list[float]:
    """The increasing times ``ts`` plus, at each sign change of f between
    neighbours, the two adjacent floats that bracket f's zero; sorted."""
    out = list(ts)
    for lo, hi in zip(ts, ts[1:]):
        f_lo = f(lo)
        if f_lo * f(hi) < 0.0:
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (mid, hi) if f(mid) * f_lo > 0.0 else (lo, mid)
            out += [lo, hi]
    return sorted(out)


class TestPlanarMapsEqualKron:
    def test_bytes_equal_kron_of_radial_block_and_rotation(self):
        # assemble_2d forms each entry G_ij * R_kl as one float product,
        # which must be the product np.kron forms, signed zeros included.
        # Between them the six solves see each of G_qq, G_qp, G_pq, G_pp,
        # cos(theta) and sin(theta) change sign before valid_to; G_qp, G_pq
        # and sin(theta) are exact zeros at t = 0 and tiny just after it.
        crossed, signed_zeros = set(), 0
        for field in (seeded_field(1), seeded_field(3), seeded_field(0, B=0.0)):
            for path in ("path1", "path2"):
                tr = paramflow.solve_2d(field, 4.0, tol=1e-10, path=path)

                def entries(t):
                    rec = tr.sample(t)
                    return [*np.array(maps._radial_entries(tr.radial, rec["radial"])).ravel(),
                            math.cos(rec["theta"]), math.sin(rec["theta"])]

                times = [0.0, 5e-324, 1e-300, 1e-160, 1e-20,
                         *np.linspace(0.0, min(4.0, tr.valid_to), 120)[1:].tolist()]
                for k in range(6):
                    bracketed = with_zeros(lambda t: entries(t)[k], times)
                    if len(bracketed) > len(times):
                        crossed.add(k)
                    times = bracketed
                for t in times:
                    rec = tr.sample(t)
                    m = assemble_2d(tr, t).M
                    kron = np.kron(np.array(maps._radial_entries(tr.radial, rec["radial"])),
                                   maps._rotation(rec["theta"]))
                    assert m.tobytes() == kron.tobytes(), (path, t)
                    signed_zeros += int(np.sum((m == 0.0) & np.signbit(m)))
        assert crossed == set(range(6))
        assert signed_zeros > 0


def sample_map(tr, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The map at t as it is defined: from one whole sample of ``tr``."""
    s = tr.sample(t)
    if isinstance(tr, paramflow.ParamTrajectory2D):
        return (np.kron(np.array(maps._radial_entries(tr.radial, s["radial"])),
                        maps._rotation(s["theta"])),
                np.array([s["lam_x"], s["lam_y"], -s["Pi_x"], -s["Pi_y"]]))
    return np.array(maps._radial_entries(tr, s)), np.array([s.lam, -s.Pi])


def seeded_trajectories(seed: int, t_end: float):
    cs = random_smooth_coeffs(np.random.default_rng(seed), positive_c=True)
    return [(paramflow.solve_path1(cs, t_end, tol=1e-10), assemble_path1),
            (paramflow.solve_path2(cs, t_end, tol=1e-10), assemble_path2),
            *[(paramflow.solve_2d(seeded_field(seed), t_end, tol=1e-10, path=path), assemble_2d)
              for path in ("path1", "path2")]]


class TestAssemblyReadsOnlyWhatTheMapNeeds:
    @pytest.mark.parametrize("seed", range(4))
    def test_maps_equal_the_sample_definition_bitwise(self, seed):
        # route 1 reads its base solve and a(t), not a whole sample; every
        # assembler builds its map without SymplecticMap's checks
        for tr, assemble in seeded_trajectories(seed, 3.0):
            n = 4 if assemble is assemble_2d else 2
            hi = 0.95 * min(tr.t_end, tr.valid_to)
            for t in [0.0, 5e-324, *np.linspace(0.0, hi, 40)[1:].tolist()]:
                smap = assemble(tr, t)
                m, shift = sample_map(tr, t)
                assert smap.t == t
                assert (smap.M.shape, smap.shift.shape) == ((n, n), (n,))
                assert smap.M.dtype == smap.shift.dtype == np.float64
                assert smap.M.tobytes() == m.tobytes() and smap.shift.tobytes() == shift.tobytes()
            with pytest.raises(dataclasses.FrozenInstanceError):
                smap.M = m

    def test_route_2_maps_read_no_sample(self, monkeypatch):
        # route 2 reads its base and Riccati solves with a and c directly and
        # puts the numbers a sample holds through _radial_entries' formula;
        # valid_to is the half turn (shortcut, turning) or the end of the
        # Riccati solve (blow_up)
        shortcut = paramflow.solve_path2(CoefficientSet1D.build(a=1.0, c=1.0), 4.0, tol=1e-10)
        turning = paramflow.solve_path2(
            random_smooth_coeffs(np.random.default_rng(0), positive_c=True), 4.0, tol=1e-10)
        blow_up = paramflow.solve_path2(
            CoefficientSet1D.build(a=1.0, b=Sinusoid(2.0, 1.0), c=1.0), 3.0, tol=1e-10)
        planar = paramflow.solve_2d(seeded_field(3), 4.0, tol=1e-10, path="path2")
        assert shortcut.shortcut and not (turning.shortcut or planar.radial.shortcut)
        assert blow_up.valid_to == blow_up._riccati_t_end < turning.valid_to < 4.0
        cases = [(tr, assemble_path2) for tr in (shortcut, turning, blow_up)]
        cases.append((planar, assemble_2d))
        times = [[0.0, *np.linspace(0.0, tr.valid_to, 25)[1:].tolist()] for tr, _ in cases]
        calls = []
        for cls in (paramflow.ParamTrajectory, paramflow.ParamTrajectory2D):
            monkeypatch.setattr(cls, "sample", lambda tr, t, sample=cls.sample:
                                calls.append(t) or sample(tr, t))
        got = [assemble(tr, t) for (tr, assemble), ts in zip(cases, times) for t in ts]
        assert calls == []
        expected = [sample_map(tr, t) for (tr, _), ts in zip(cases, times) for t in ts]
        assert [ts[-1] for ts in times] == [tr.valid_to for tr, _ in cases]
        assert ([(smap.M.tobytes(), smap.shift.tobytes()) for smap in got]
                == [(m.tobytes(), shift.tobytes()) for m, shift in expected])

    def test_out_of_window_times_fail_as_before(self):
        cases = [(t_end, *case) for t_end in (4.0, 0.5) for case in seeded_trajectories(1, t_end)]
        # focal times inside [0, t_end], and none
        assert {tr.valid_to < math.inf for _, tr, _ in cases} == {True, False}
        for t_end, tr, assemble in cases:
            late = [t_end + 1.0] if tr.valid_to == math.inf else []
            for t in (-0.25, math.nan, *late):
                with pytest.raises(DomainError) as err:
                    assemble(tr, t)
                assert str(err.value) == f"t={t} outside the solved interval [0, {t_end}]"
            if tr.valid_to < math.inf:
                t = 0.5 * (tr.valid_to + t_end)
                with pytest.raises(CausticError) as err:
                    assemble(tr, t)
                assert str(err.value) == (f"t={t} is beyond the first focal time "
                                          f"valid_to={tr.valid_to}")
                assert err.value.valid_to == tr.valid_to

    def test_user_built_maps_are_still_checked(self):
        for m, shift in ((np.eye(3), np.zeros(3)), (np.eye(2), np.zeros(3))):
            with pytest.raises(DomainError, match="2x2 or 4x4"):
                SymplecticMap(t=0.0, M=m, shift=shift)
        smap = SymplecticMap(t=0.0, M=[[1, 0], [0, 1]], shift=(0, 0))
        assert smap.M.dtype == smap.shift.dtype == np.float64

    @pytest.mark.parametrize("mean, cov, message", [
        (np.zeros(4), np.eye(2), "moments must have dimension 2"),
        (np.zeros(2), np.eye(4), "moments must have dimension 2"),
        (np.zeros(2), np.diag([1.0, 0.0]), "covariance must be positive definite"),
        (np.zeros(2), np.diag([1.0, -1.0]), "covariance must be positive definite"),
    ], ids=["mean-4d", "cov-4d", "cov-singular", "cov-indefinite"])
    def test_moment_transport_refuses(self, mean, cov, message):
        smap = SymplecticMap(t=0.0, M=np.eye(2), shift=np.zeros(2))
        with pytest.raises(DomainError, match=message):
            evolve_gaussian_moments(smap, mean, cov)


class TestSymplecticChecks:
    def test_residuals_equal_the_direct_formula_bitwise(self):
        rng = np.random.default_rng(5)
        cs = random_smooth_coeffs(rng, positive_c=True)
        trajs = [(paramflow.solve_path1(cs, 2.0, tol=1e-10), assemble_path1),
                 (paramflow.solve_path2(cs, 2.0, tol=1e-10), assemble_path2),
                 (paramflow.solve_2d(seeded_field(2), 2.0, tol=1e-10), assemble_2d)]
        smaps = [assemble(tr, float(t)) for tr, assemble in trajs
                 for t in np.linspace(0.0, 0.95 * min(2.0, tr.valid_to), 15)]
        smaps += [SymplecticMap(t=0.0, M=rng.normal(size=(n, n)), shift=np.zeros(n))
                  for n in (2, 4, 2, 4)]
        for smap in smaps:
            j = symplectic_form(smap.dof)
            direct = (abs(float(np.linalg.det(smap.M)) - 1.0),
                      float(np.max(np.abs(smap.M.T @ j @ smap.M - j))))
            assert [x.hex() for x in check_symplectic(smap)] == [x.hex() for x in direct]
        assert not any(j.flags.writeable for j in maps._FORMS.values())

    def test_determinant_is_np_linalg_det_bitwise(self):
        # check_symplectic calls the ufunc np.linalg.det wraps, without its checks
        rng = np.random.default_rng(11)
        singular = rng.normal(size=(4, 4))
        singular[3] = singular[0] + 2.0 * singular[1]
        nan, inf = rng.normal(size=(2, 2)), rng.normal(size=(4, 4))
        nan[1, 0], inf[2, 3] = math.nan, math.inf
        matrices = [np.zeros((2, 2)), np.ones((4, 4)), singular, nan, inf,
                    *[rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-150, 150)
                      for n in (2, 4) for _ in range(50)]]
        for m in matrices:
            smap = SymplecticMap(t=0.0, M=m, shift=np.zeros(len(m)))
            with np.errstate(all="ignore"):   # NaN, inf and overflow warn in both
                expected, (got, _) = abs(float(np.linalg.det(m)) - 1.0), check_symplectic(smap)
            assert got.hex() == expected.hex()

    def test_identity(self):
        smap = SymplecticMap(t=0.0, M=np.eye(2), shift=np.zeros(2))
        assert check_symplectic(smap) == (0.0, 0.0)

    def test_random_assemblies_within_tolerance(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(6):
            cs = random_smooth_coeffs(rng)
            tr = paramflow.solve_path1(cs, 2.0, tol=1e-12)
            hi = min(2.0, 0.95 * tr.valid_to)
            for t in np.linspace(0.0, hi, 25):
                det_r, form_r = check_symplectic(assemble_path1(tr, float(t)))
                worst = max(worst, det_r, form_r)
        assert worst <= 1e-9

    def test_corrupted_map_detected(self, sho_traj):
        smap = assemble_path1(sho_traj, 0.7)
        bad = smap.M.copy()
        bad[0, 1] += 0.1
        det_r, form_r = check_symplectic(SymplecticMap(t=0.7, M=bad, shift=smap.shift))
        assert form_r > 1e-3

    def test_uncertainty_form_preserved(self):
        # M J M^T = J is the statement that canonical commutators survive
        cs = random_smooth_coeffs(np.random.default_rng(23), positive_c=True)
        tr = paramflow.solve_path2(cs, 1.5, tol=1e-12)
        j = symplectic_form(1)
        hi = min(1.5, 0.95 * tr.valid_to)
        for t in np.linspace(0.0, hi, 15):
            m = assemble_path2(tr, float(t)).M
            assert np.max(np.abs(m @ j @ m.T - j)) <= 1e-9


class TestOracleEquivalence:
    def test_twenty_random_systems(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(20):
            cs = random_smooth_coeffs(rng)
            tr = paramflow.solve_path1(cs, 1.5, tol=1e-12)
            fm = oracle.fundamental_matrix(cs, 1.5, tol=1e-12)
            hi = min(1.5, 0.95 * tr.valid_to)
            for t in np.linspace(0.1, hi, 7):
                diff = np.max(np.abs(assemble_path1(tr, float(t)).M - fm.at(float(t))))
                worst = max(worst, float(diff))
        assert worst < 1e-7

    def test_suite_systems(self):
        for name, cs in suite_systems().items():
            tr = paramflow.solve_path1(cs, 1.2, tol=1e-12)
            fm = oracle.fundamental_matrix(cs, 1.2, tol=1e-12)
            hi = min(1.2, 0.95 * tr.valid_to)
            for t in np.linspace(0.1, hi, 5):
                diff = np.max(np.abs(assemble_path1(tr, float(t)).M - fm.at(float(t))))
                assert diff < 1e-7, name


class TestMoments:
    def test_identity_map(self):
        smap = SymplecticMap(t=0.0, M=np.eye(2), shift=np.zeros(2))
        mean, cov = evolve_gaussian_moments(smap, np.array([0.3, -0.2]), np.eye(2))
        assert np.allclose(mean, [0.3, -0.2])
        assert np.allclose(cov, np.eye(2))

    def test_free_particle_drift(self):
        smap = SymplecticMap(t=1.0, M=np.array([[1.0, 1.0], [0.0, 1.0]]),
                             shift=np.zeros(2))
        mean, _ = evolve_gaussian_moments(smap, np.array([0.0, 1.0]), np.eye(2))
        assert np.allclose(mean, [1.0, 1.0])

    def test_rotation_leaves_isotropic_covariance(self, sho_traj):
        smap = assemble_path1(sho_traj, math.pi / 4)
        _, cov = evolve_gaussian_moments(smap, np.zeros(2), np.eye(2))
        assert np.allclose(cov, np.eye(2), atol=1e-10)

    def test_rejects_asymmetric_covariance(self):
        smap = SymplecticMap(t=0.0, M=np.eye(2), shift=np.zeros(2))
        with pytest.raises(DomainError, match="symmetric"):
            evolve_gaussian_moments(smap, np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))

