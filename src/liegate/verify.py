"""Built-in verification suite behind ``liegate verify``.

Each check returns a record with the measured residual and its threshold;
the CLI serializes the records to report.json.  The random ingredients are
driven by a caller-supplied seed so reports are reproducible byte for byte.
The acceptance tests run the same checks with their own seeds, system
counts and time grids, given as arguments; the defaults are the suite's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as F

import numpy as np

from . import closedforms, greens, maps, oracle, paramflow, presets, quadops
from .coeffs import CoefficientSet1D, FieldProfile2D, Sinusoid

__all__ = [
    "CheckResult",
    "random_smooth_coeffs",
    "suite_systems",
    "run_suite",
]

# every nonzero structure constant c_ijk with i < j, per algebra
LP_TABLE = {(2, 3, 1): F(1), (2, 4, 3): F(2)}
GHO_TABLE = {
    (2, 3, 1): F(1), (2, 5, 3): F(2), (2, 6, 2): F(2), (3, 4, 2): F(-2),
    (3, 6, 3): F(-2), (4, 5, 6): F(2), (4, 6, 4): F(4), (5, 6, 5): F(-4),
}
CP_TABLE = {
    **GHO_TABLE,  # generators 1-6 span the x-axis oscillator algebra
    (7, 8, 1): F(1), (7, 10, 8): F(2), (7, 11, 7): F(2), (8, 9, 7): F(-2),
    (8, 11, 8): F(-2), (9, 10, 11): F(2), (9, 11, 9): F(4), (10, 11, 10): F(-4),
    (2, 12, 7): F(-1), (2, 13, 7): F(1), (2, 15, 8): F(1),
    (3, 12, 8): F(-1), (3, 13, 8): F(-1), (3, 14, 7): F(-1),
    (4, 12, 14): F(-2), (4, 13, 14): F(2), (4, 15, 12): F(1), (4, 15, 13): F(1),
    (5, 12, 15): F(-2), (5, 13, 15): F(-2), (5, 14, 12): F(1), (5, 14, 13): F(-1),
    (6, 12, 13): F(-2), (6, 13, 12): F(-2), (6, 14, 14): F(-2), (6, 15, 15): F(2),
    (7, 12, 2): F(1), (7, 13, 2): F(1), (7, 15, 3): F(1),
    (8, 12, 3): F(1), (8, 13, 3): F(-1), (8, 14, 2): F(-1),
    (9, 12, 14): F(2), (9, 13, 14): F(2), (9, 15, 12): F(-1), (9, 15, 13): F(1),
    (10, 12, 15): F(2), (10, 13, 15): F(-2), (10, 14, 12): F(-1), (10, 14, 13): F(-1),
    (11, 12, 13): F(2), (11, 13, 12): F(2), (11, 14, 14): F(-2), (11, 15, 15): F(2),
    (12, 13, 6): F(-1), (12, 13, 11): F(1), (12, 14, 4): F(-1), (12, 14, 9): F(1),
    (12, 15, 5): F(-1), (12, 15, 10): F(1), (13, 14, 4): F(-1), (13, 14, 9): F(-1),
    (13, 15, 5): F(1), (13, 15, 10): F(1), (14, 15, 6): F(1, 2), (14, 15, 11): F(1, 2),
}
STRUCTURE_TABLES = {"LP": LP_TABLE, "GHO": GHO_TABLE, "CP": CP_TABLE}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    count: int = 1
    note: str = ""
    parts: dict = field(default_factory=dict)  # named sub-measures; not in report.json


@dataclass(frozen=True)
class Grid:
    """Sample times ``np.linspace(start, hi, n)[skip:]`` up to a horizon ``hi``."""

    start: float
    n: int
    skip: int = 0

    def up_to(self, hi: float) -> np.ndarray:
        return np.linspace(self.start, hi, self.n)[self.skip:]


def random_smooth_coeffs(
    rng: np.random.Generator, positive_c: bool = False, with_drive: bool = True
) -> CoefficientSet1D:
    """Random sinusoidal coefficient set with a(t) > 0 (and c(t) > 0 on demand)."""

    def sin_profile(lo_off, hi_off, amp_scale):
        off = rng.uniform(lo_off, hi_off)
        amp = rng.uniform(0.0, amp_scale) * off if off else rng.uniform(0.0, amp_scale)
        return Sinusoid(
            amplitude=amp,
            omega=rng.uniform(0.3, 3.0),
            phase=rng.uniform(0.0, 2.0 * math.pi),
            offset=off,
        )

    a = sin_profile(0.6, 1.6, 0.45)
    if positive_c:
        c = sin_profile(0.5, 1.8, 0.45)
        b = Sinusoid(rng.uniform(0.0, 0.25), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), 0.0)
    else:
        c = Sinusoid(rng.uniform(0.0, 1.2), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-0.8, 1.2))
        b = Sinusoid(rng.uniform(0.0, 0.4), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), 0.0)
    if with_drive:
        d = Sinusoid(rng.uniform(0.0, 0.8), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), 0.0)
        e = Sinusoid(rng.uniform(0.0, 0.8), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), 0.0)
        g = Sinusoid(rng.uniform(0.0, 0.5), rng.uniform(0.3, 3.0),
                     rng.uniform(0.0, 2.0 * math.pi), 0.0)
    else:
        d = e = g = Sinusoid(0.0, 1.0, 0.0, 0.0)
    return CoefficientSet1D(a=a, b=b, c=c, d=d, e=e, g=g)


def _reference(*names: str) -> dict:
    return {name: presets.build(*presets.REFERENCE[name]) for name in names}


def suite_systems() -> dict[str, CoefficientSet1D]:
    """The four built-in 1D systems at their reference parameters."""
    return _reference("lp", "sho", "iontrap", "kanai")


def suite_fields() -> dict[str, FieldProfile2D]:
    """The two built-in planar systems at their reference parameters."""
    return _reference("bsin", "efield")


def _horizon(t_end: float, *trajs) -> float:
    return min(t_end, *(0.95 * traj.valid_to for traj in trajs))


def check_structure_constants() -> CheckResult:
    ok = True
    count = 0
    for algebra, expected in STRUCTURE_TABLES.items():
        ok &= quadops.structure_constants(algebra).as_dict() == expected
        n = quadops.generator_count(algebra)
        count += n * (n - 1) // 2
    return CheckResult("structure_constants", ok, 0.0 if ok else 1.0, 0.0, count=count)


def check_algebra_properties(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)

    def rand_obs(dof):
        n = 2 * dof
        quad = [[F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                quad[j][i] = quad[i][j]
        lin = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
        scal = F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        return quadops.QuadraticObservable.build(dof, quad=quad, lin=lin, scal=scal)

    failures = 0
    trials = 60
    for _ in range(trials):
        dof = int(rng.integers(1, 3))
        a, b, c = rand_obs(dof), rand_obs(dof), rand_obs(dof)
        if not (quadops.commutator(a, b) + quadops.commutator(b, a)).is_zero():
            failures += 1
        jac = (
            quadops.commutator(a, quadops.commutator(b, c))
            + quadops.commutator(b, quadops.commutator(c, a))
            + quadops.commutator(c, quadops.commutator(a, b))
        )
        if not jac.is_zero():
            failures += 1
    return CheckResult("algebra_properties", failures == 0, float(failures), 0.0,
                       count=2 * trials)


def check_symplectic(seed: int, n_random: int = 8, times: Grid = Grid(0.0, 40, 1),
                     corrupt: bool = False) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    systems = list(suite_systems().values())
    systems += [random_smooth_coeffs(rng) for _ in range(n_random)]
    for cs in systems:
        traj = paramflow.solve_path1(cs, 2.0, tol=1e-12)
        for t in times.up_to(_horizon(2.0, traj)):
            smap = maps.assemble_path1(traj, float(t))
            if corrupt:
                m = smap.M.copy()
                m[0, 1] += 0.1
                smap = maps.SymplecticMap(t=smap.t, M=m, shift=smap.shift)
            det_r, form_r = maps.check_symplectic(smap)
            worst = max(worst, det_r, form_r)
            count += 1
    return CheckResult("symplectic_invariants", worst <= 1e-9, worst, 1e-9, count=count)


def check_path_equivalence(seed: int, n_random: int = 3,
                           times: Grid = Grid(0.02, 12)) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    cases = [suite_systems()["sho"], suite_systems()["iontrap"]]
    cases += [random_smooth_coeffs(rng, positive_c=True) for _ in range(n_random)]
    for cs in cases:
        t_end = 2.0
        tr1 = paramflow.solve_path1(cs, t_end, tol=1e-12)
        tr2 = paramflow.solve_path2(cs, t_end, tol=1e-12)
        for t in times.up_to(_horizon(t_end, tr1, tr2)):
            m1 = maps.assemble_path1(tr1, float(t)).M
            m2 = maps.assemble_path2(tr2, float(t)).M
            worst = max(worst, float(np.max(np.abs(m1 - m2))))
            count += 1
    return CheckResult("path_equivalence", worst <= 1e-6, worst, 1e-6, count=count)


def check_oracle_maps(times: Grid = Grid(0.0, 12, 1),
                      planar_times: Grid = Grid(0.0, 8, 1)) -> CheckResult:
    worst = 0.0
    count = 0
    for name, cs in suite_systems().items():
        t_end = 1.5
        traj = paramflow.solve_path1(cs, t_end, tol=1e-12)
        fm = oracle.fundamental_matrix(cs, t_end, tol=1e-12)
        for t in times.up_to(_horizon(t_end, traj)):
            diff = np.max(np.abs(maps.assemble_path1(traj, float(t)).M - fm.at(float(t))))
            worst = max(worst, float(diff))
            count += 1
    for name, fp in suite_fields().items():
        t_end = 1.2
        traj = paramflow.solve_2d(fp, t_end, tol=1e-12,
                                  path="path2" if name == "efield" else "path1")
        fm = oracle.fundamental_matrix(fp, t_end, tol=1e-12)
        for t in planar_times.up_to(_horizon(t_end, traj)):
            diff = np.max(np.abs(maps.assemble_2d(traj, float(t)).M - fm.at(float(t))))
            worst = max(worst, float(diff))
            count += 1
    return CheckResult("oracle_map_equivalence", worst <= 1e-7, worst, 1e-7, count=count)


def check_classical_identification(seed: int, n_random: int = 4,
                                   times: Grid = Grid(0.1, 10)) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    t_end = 2.0
    cases = [suite_systems()["lp"]] + [random_smooth_coeffs(rng) for _ in range(n_random)]
    for cs in cases:
        lt = paramflow.solve_linear_translation(cs, t_end, tol=1e-12)
        flow = oracle.classical_flow(cs, oracle.ClassicalState(np.zeros(2)), t_end, tol=1e-12)
        for t in times.up_to(t_end):
            _, lam, pi = lt.at(float(t))
            diff = np.max(np.abs(flow.at(float(t)) - np.array([lam, -pi])))
            worst = max(worst, float(diff))
            count += 1
    fp = suite_fields()["efield"]
    traj = paramflow.solve_2d(fp, t_end, tol=1e-12, path="path2")
    flow = oracle.classical_flow(fp, oracle.ClassicalState(np.zeros(4)), t_end, tol=1e-12)
    for t in times.up_to(t_end):
        rec = traj.sample(float(t))
        target = np.array([rec["lam_x"], rec["lam_y"], -rec["Pi_x"], -rec["Pi_y"]])
        worst = max(worst, float(np.max(np.abs(flow.at(float(t)) - target))))
        count += 1
    return CheckResult("classical_identification", worst <= 1e-7, worst, 1e-7, count=count)


# system -> (solve horizon, sample times) of the closed-form cross-checks
CLOSED_FORM_TIMES = {
    "iontrap": (1.0, (0.2, 0.4, 0.8)),
    "kanai": (1.2, (0.5, 1.0)),
    "bsin": (1.0, (0.3, 0.7)),
    "efield": (2.2, (1.0, 2.0)),
}


def check_closed_forms(times: dict = CLOSED_FORM_TIMES) -> CheckResult:
    worst = 0.0
    count = 0
    systems = {**suite_systems(), **suite_fields()}
    params = {name: spec for name, (_, spec) in presets.REFERENCE.items()}
    # rf trap
    p = params["iontrap"]
    horizon, samples = times["iontrap"]
    traj = paramflow.solve_path1(systems["iontrap"], horizon, tol=1e-12)
    for t in samples:
        alpha, phi, beta = closedforms.ion_trap_params(p["m"], p["K"], p["k"], p["omega"],
                                                       float(t))
        s = traj.sample(float(t))
        scale = max(1.0, abs(s.alpha), abs(s.phi), abs(s.beta))
        diff = max(abs(alpha - s.alpha), abs(phi - s.phi), abs(beta - s.beta)) / scale
        worst = max(worst, diff)
        count += 1
    # damped driven oscillator
    horizon, samples = times["kanai"]
    traj = paramflow.solve_path1(systems["kanai"], horizon, tol=1e-12)
    for t in samples:
        cf = closedforms.kanai_caldirola_params(**params["kanai"], t=float(t))
        s = traj.sample(float(t))
        scale = max(1.0, abs(s.lam), abs(s.Pi))
        diff = max(
            abs(cf.lam - s.lam), abs(cf.Pi - s.Pi), abs(cf.alpha - s.alpha),
            abs(cf.phi - s.phi), abs(cf.beta - s.beta),
        ) / scale
        worst = max(worst, diff)
        count += 1
    # sinusoidal magnetic field
    horizon, samples = times["bsin"]
    traj2 = paramflow.solve_2d(systems["bsin"], horizon, tol=1e-12, path="path1")
    for t in samples:
        alpha, phi, beta, theta = closedforms.bfield_sin_params(**params["bsin"], t=float(t))
        rec = traj2.sample(float(t))
        r = rec["radial"]
        diff = max(
            abs(alpha - r.alpha), abs(phi - r.phi), abs(beta - r.beta),
            abs(theta - rec["theta"]),
        )
        worst = max(worst, diff)
        count += 1
    # constant magnetic field with sinusoidal electric drive
    horizon, samples = times["efield"]
    traj2 = paramflow.solve_2d(systems["efield"], horizon, tol=1e-12, path="path2")
    for t in samples:
        cf = closedforms.efield_const_b_params(**params["efield"], t=float(t))
        rec = traj2.sample(float(t))
        scale = max(1.0, abs(rec["lam_x"]), abs(rec["Pi_x"]))
        diff = max(
            abs(cf.lam_x - rec["lam_x"]), abs(cf.lam_y - rec["lam_y"]),
            abs(cf.Pi_x - rec["Pi_x"]), abs(cf.Pi_y - rec["Pi_y"]),
            abs(cf.theta - rec["theta"]),
        ) / scale
        worst = max(worst, diff)
        count += 1
    return CheckResult("closed_form_crosschecks", worst <= 1e-6, worst, 1e-6, count=count)


def check_mathieu() -> CheckResult:
    worst = 0.0
    count = 0
    for a in (0.5, 1.0, 2.0):
        for q in (0.0, 0.4, 1.0):
            for z in (0.7, 1.5, 3.0):
                c1 = closedforms.mathieu_c(a, q, z, tol=1e-12)
                c2 = closedforms.mathieu_c(a, q, z, tol=5e-13)
                worst = max(worst, abs(c1.C - c2.C))
                count += 1
    exact = closedforms.mathieu_c(1.0, 0.0, math.pi / 3.0)
    pin = abs(exact.C - 0.5)
    count += 1
    passed = worst < 1e-10 and pin <= 1e-12
    return CheckResult("mathieu_selfconsistency", passed, max(worst, pin), 1e-10,
                       count=count, parts={"halving_drift": worst, "pin": pin})


# kernel time of each 1D suite system, and its semigroup split (t1, t2)
KERNEL_TIMES = {"lp": 1.5, "sho": math.pi / 4, "iontrap": 0.4, "kanai": 1.0}
SEMIGROUP_SPLITS = {"lp": (0.6, 1.4), "sho": (0.5, 1.2), "iontrap": (0.18, 0.4),
                    "kanai": (0.45, 1.0)}


def check_kernels() -> CheckResult:
    """Mehler, unitarity and semigroup checks; the unitarity check builds each
    system's kernel in its preset's variant, as ``liegate kernel`` does."""
    worst = 0.0
    count = 0
    systems = suite_systems()
    grid = oracle.gaussian_state(1024, -12.0, 24.0 / 1024, sigma=1.0)
    # Mehler comparison for the oscillator, both routes
    sho = systems["sho"]
    t = math.pi / 4
    mehler_q = math.cos(t) / (2.0 * math.sin(t))
    mehler_cross = -1.0 / math.sin(t)
    mehler_pref = 1.0 / np.sqrt(2.0j * math.pi * math.sin(t))
    for route, solver in (("path1", paramflow.solve_path1), ("path2", paramflow.solve_path2)):
        traj = solver(sho, 1.2, tol=1e-12)
        k = greens.kernel_build(traj, t, route)
        diff = max(
            abs(k.qxx[0, 0] - mehler_q), abs(k.qx1x1[0, 0] - mehler_q),
            abs(k.qxx1[0, 0] - mehler_cross), abs(k.prefactor - mehler_pref),
        )
        worst = max(worst, float(diff))
        count += 1
    passed_mehler = worst <= 1e-9
    # unitarity for every suite system
    unit_worst = 0.0
    for name, cs in systems.items():
        t = KERNEL_TIMES[name]
        traj = paramflow.solve_path1(cs, t * 1.05, tol=1e-12)
        variant = presets.PRESETS[presets.REFERENCE[name][0]].kernel or "path1"
        k = greens.kernel_build(traj, t, variant)
        unit_worst = max(unit_worst, greens.kernel_unitarity_residual(k, grid))
        count += 1
    passed_unit = unit_worst <= 1e-6
    # semigroup with one split point per system
    semi_worst = 0.0
    for name, cs in systems.items():
        t1, t2 = SEMIGROUP_SPLITS[name]
        traj = paramflow.solve_path1(cs, t2 * 1.05, tol=1e-12)
        full = greens.kernel_apply(greens.kernel_build(traj, t2, "path1"), grid)
        mid = greens.kernel_apply(greens.kernel_build(traj, t1, "path1"), grid)
        traj_tail = paramflow.solve_path1(cs.shifted(t1), (t2 - t1) * 1.05, tol=1e-12)
        two = greens.kernel_apply(
            greens.kernel_build(traj_tail, t2 - t1, "path1"), mid
        )
        semi_worst = max(semi_worst, 1.0 - oracle.fidelity(full, two))
        count += 1
    passed_semi = semi_worst <= 1e-5
    measured = max(worst, unit_worst, semi_worst)
    return CheckResult(
        "kernel_sanity", passed_mehler and passed_unit and passed_semi,
        measured, 1e-5, count=count,
        note=f"mehler={worst:.3e} unitarity={unit_worst:.3e} semigroup={semi_worst:.3e}",
        parts={"mehler": worst, "unitarity": unit_worst, "semigroup": semi_worst},
    )


def run_suite(seed: int = 0, corrupt_map: bool = False) -> list[CheckResult]:
    return [
        check_structure_constants(),
        check_algebra_properties(seed),
        check_symplectic(seed, corrupt=corrupt_map),
        check_path_equivalence(seed),
        check_oracle_maps(),
        check_classical_identification(seed),
        check_closed_forms(),
        check_mathieu(),
        check_kernels(),
    ]
