"""Built-in verification suite behind ``liegate verify``.

Each check returns a record with the measured residual and its threshold;
the CLI serializes the records to report.json.  Every float check reports
the largest gap of each named part (``parts``, which report.json leaves
out) and measures the largest part; a NaN gap fails the check and is
written as "nan", and ``count`` is the number of comparisons.  The random
ingredients are driven by a caller-supplied seed so reports are
reproducible byte for byte.
The acceptance tests run the same checks with their own seeds, system
counts and time grids, given as arguments; the defaults are the suite's.
"""

from __future__ import annotations

import itertools
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
    """One check's verdict.  A float check's ``measured`` is the largest gap
    of its ``count`` comparisons, NaN if any gap is NaN (which fails it), and
    ``parts`` holds the largest gap of each named part; the exact checks
    count their cases and measure their failures."""

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


def random_smooth_coeffs(rng: np.random.Generator, positive_c: bool = False) -> CoefficientSet1D:
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
    d, e, g = (Sinusoid(rng.uniform(0.0, amp), rng.uniform(0.3, 3.0),
                        rng.uniform(0.0, 2.0 * math.pi), 0.0) for amp in (0.8, 0.8, 0.5))
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


def _nanmax(gaps) -> float:
    """The largest of ``gaps`` and 0.0, or NaN once a gap is NaN.

    ``max`` would drop a NaN: every comparison with NaN is false, so it keeps
    whichever operand it met first, and a NaN result would pass its check.
    """
    top = 0.0
    for gap in gaps:
        if gap > top or math.isnan(gap):
            top = gap
    return top


def _verdict(name: str, threshold: float, rows: list, limits: dict,
             note: str = "") -> CheckResult:
    """A float check's result from its comparisons, one ``{part: gap}`` row each.

    Each part of ``limits`` reports its largest gap, or NaN if any of its
    gaps is NaN, and the check passes when every part is within its limit.
    ``measured`` is the largest part, ``count`` the number of rows, and
    ``note`` is formatted with the parts.
    """
    parts = {part: float(_nanmax(row[part] for row in rows if part in row))
             for part in limits}
    return CheckResult(name, all(parts[part] <= limit for part, limit in limits.items()),
                       _nanmax(parts.values()), threshold, count=len(rows),
                       note=note.format(**parts), parts=parts)


def check_symplectic(seed: int, n_random: int = 8, times: Grid = Grid(0.0, 40, 1),
                     corrupt: bool = False) -> CheckResult:
    rng = np.random.default_rng(seed)
    rows = []
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
            rows.append({"det": det_r, "form": form_r})
    return _verdict("symplectic_invariants", 1e-9, rows, dict.fromkeys(("det", "form"), 1e-9))


def check_path_equivalence(seed: int, n_random: int = 3,
                           times: Grid = Grid(0.02, 12)) -> CheckResult:
    """Route 2's affine map (M and shift) and action S against route 1's."""
    rng = np.random.default_rng(seed)
    rows = []
    cases = [suite_systems()["sho"], suite_systems()["iontrap"]]
    cases += [random_smooth_coeffs(rng, positive_c=True) for _ in range(n_random)]
    for cs in cases:
        t_end = 2.0
        tr1 = paramflow.solve_path1(cs, t_end, tol=1e-12)
        tr2 = paramflow.solve_path2(cs, t_end, tol=1e-12)
        for t in times.up_to(_horizon(t_end, tr1, tr2)):
            t = float(t)
            map1, map2 = maps.assemble_path1(tr1, t), maps.assemble_path2(tr2, t)
            rows.append({"map": float(np.max(np.abs(map1.M - map2.M))),
                         "shift": float(np.max(np.abs(map1.shift - map2.shift))),
                         "action": abs(tr1.sample(t).S - tr2.sample(t).S)})
    return _verdict("path_equivalence", 1e-6, rows,
                    dict.fromkeys(("map", "shift", "action"), 1e-6))


# planar suite system -> the radial route of its solve
PLANAR_ROUTES = {"bsin": "path1", "efield": "path2"}


def check_oracle_maps(times: Grid = Grid(0.0, 12, 1),
                      planar_times: Grid = Grid(0.0, 8, 1)) -> CheckResult:
    rows = []
    for name, cs in suite_systems().items():
        t_end = 1.5
        traj = paramflow.solve_path1(cs, t_end, tol=1e-12)
        fm = oracle.fundamental_matrix(cs, t_end, tol=1e-12)
        for t in times.up_to(_horizon(t_end, traj)):
            diff = np.max(np.abs(maps.assemble_path1(traj, float(t)).M - fm.at(float(t))))
            rows.append({"1d": float(diff)})
    for name, fp in suite_fields().items():
        t_end = 1.2
        traj = paramflow.solve_2d(fp, t_end, tol=1e-12, path=PLANAR_ROUTES[name])
        fm = oracle.fundamental_matrix(fp, t_end, tol=1e-12)
        for t in planar_times.up_to(_horizon(t_end, traj)):
            diff = np.max(np.abs(maps.assemble_2d(traj, float(t)).M - fm.at(float(t))))
            rows.append({"planar": float(diff)})
    return _verdict("oracle_map_equivalence", 1e-7, rows,
                    dict.fromkeys(("1d", "planar"), 1e-7))


def check_classical_identification(seed: int, n_random: int = 4,
                                   times: Grid = Grid(0.1, 10)) -> CheckResult:
    """Route 1's and the planar solve's (lam, -Pi) against the classical flow
    from the phase-space origin."""
    rng = np.random.default_rng(seed)
    rows = []
    t_end = 2.0
    cases = [suite_systems()["lp"]] + [random_smooth_coeffs(rng) for _ in range(n_random)]
    for cs in cases:
        traj = paramflow.solve_path1(cs, t_end, tol=1e-12)
        flow = oracle.classical_flow(cs, np.zeros(2), t_end, tol=1e-12)
        for t in times.up_to(t_end):
            s = traj.sample(float(t))
            diff = np.max(np.abs(flow.at(float(t)) - np.array([s.lam, -s.Pi])))
            rows.append({"1d": float(diff)})
    fp = suite_fields()["efield"]
    traj = paramflow.solve_2d(fp, t_end, tol=1e-12, path="path2")
    flow = oracle.classical_flow(fp, np.zeros(4), t_end, tol=1e-12)
    for t in times.up_to(t_end):
        rec = traj.sample(float(t))
        target = np.array([rec["lam_x"], rec["lam_y"], -rec["Pi_x"], -rec["Pi_y"]])
        rows.append({"planar": float(np.max(np.abs(flow.at(float(t)) - target)))})
    return _verdict("classical_identification", 1e-7, rows,
                    dict.fromkeys(("1d", "planar"), 1e-7))


# system -> (solve horizon, sample times) of the closed-form cross-checks
CLOSED_FORM_TIMES = {
    "iontrap": (1.0, (0.2, 0.4, 0.8)),
    "kanai": (1.2, (0.5, 1.0)),
    "bsin": (1.0, (0.3, 0.7)),
    "efield": (2.2, (1.0, 2.0)),
}


def _closed_form_case(name: str, p: dict, traj, t: float) -> tuple:
    """(closed form, solved, scale) for one system at time t: the gap is the
    largest difference of the two value tuples over the scale."""
    if name == "iontrap":   # rf trap
        s = traj.sample(t)
        return (closedforms.ion_trap_params(p["m"], p["K"], p["k"], p["omega"], t),
                (s.alpha, s.phi, s.beta), max(1.0, abs(s.alpha), abs(s.phi), abs(s.beta)))
    if name == "kanai":     # damped driven oscillator
        cf, s = closedforms.kanai_caldirola_params(**p, t=t), traj.sample(t)
        return ((cf.lam, cf.Pi, cf.alpha, cf.phi, cf.beta),
                (s.lam, s.Pi, s.alpha, s.phi, s.beta), max(1.0, abs(s.lam), abs(s.Pi)))
    rec = traj.sample(t)
    if name == "bsin":      # sinusoidal magnetic field
        r = rec["radial"]
        return (closedforms.bfield_sin_params(**p, t=t),
                (r.alpha, r.phi, r.beta, rec["theta"]), 1.0)
    # constant magnetic field with sinusoidal electric drive
    cf = closedforms.efield_const_b_params(**p, t=t)
    return ((cf.lam_x, cf.lam_y, cf.Pi_x, cf.Pi_y, cf.theta),
            (rec["lam_x"], rec["lam_y"], rec["Pi_x"], rec["Pi_y"], rec["theta"]),
            max(1.0, abs(rec["lam_x"]), abs(rec["Pi_x"])))


def check_closed_forms(times: dict = CLOSED_FORM_TIMES) -> CheckResult:
    rows = []
    systems = {**suite_systems(), **suite_fields()}
    params = {name: spec for name, (_, spec) in presets.REFERENCE.items()}
    for name, (horizon, samples) in times.items():
        if name in PLANAR_ROUTES:
            traj = paramflow.solve_2d(systems[name], horizon, tol=1e-12,
                                      path=PLANAR_ROUTES[name])
        else:
            traj = paramflow.solve_path1(systems[name], horizon, tol=1e-12)
        for t in samples:
            closed, solved, scale = _closed_form_case(name, params[name], traj, float(t))
            rows.append({name: _nanmax(abs(c - s) for c, s in zip(closed, solved)) / scale})
    return _verdict("closed_form_crosschecks", 1e-6, rows, dict.fromkeys(times, 1e-6))


def check_mathieu() -> CheckResult:
    rows = []
    for a, q, z in itertools.product((0.5, 1.0, 2.0), (0.0, 0.4, 1.0), (0.7, 1.5, 3.0)):
        c1 = closedforms.mathieu_c(a, q, z, tol=1e-12)
        c2 = closedforms.mathieu_c(a, q, z, tol=5e-13)
        rows.append({"halving_drift": abs(c1.C - c2.C)})
    exact = closedforms.mathieu_c(1.0, 0.0, math.pi / 3.0)
    rows.append({"pin": abs(exact.C - 0.5)})
    # the drift must stay strictly below 1e-10: at most the double before it
    return _verdict("mathieu_selfconsistency", 1e-10, rows,
                    {"halving_drift": math.nextafter(1e-10, 0.0), "pin": 1e-12})


# kernel time of each 1D suite system, and its semigroup split (t1, t2)
KERNEL_TIMES = {"lp": 1.5, "sho": math.pi / 4, "iontrap": 0.4, "kanai": 1.0}
SEMIGROUP_SPLITS = {"lp": (0.6, 1.4), "sho": (0.5, 1.2), "iontrap": (0.18, 0.4),
                    "kanai": (0.45, 1.0)}


def check_kernels() -> CheckResult:
    """Mehler, unitarity and semigroup checks; the unitarity check builds each
    system's kernel in its preset's variant, as ``liegate kernel`` does."""
    rows = []
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
        rows.append({"mehler": float(_nanmax((
            abs(k.qxx[0, 0] - mehler_q), abs(k.qx1x1[0, 0] - mehler_q),
            abs(k.qxx1[0, 0] - mehler_cross), abs(k.prefactor - mehler_pref),
        )))})
    # unitarity for every suite system
    for name, cs in systems.items():
        t = KERNEL_TIMES[name]
        traj = paramflow.solve_path1(cs, t * 1.05, tol=1e-12)
        variant = presets.PRESETS[presets.REFERENCE[name][0]].kernel or "path1"
        k = greens.kernel_build(traj, t, variant)
        rows.append({"unitarity": greens.kernel_unitarity_residual(k, grid)})
    # semigroup with one split point per system
    for name, cs in systems.items():
        t1, t2 = SEMIGROUP_SPLITS[name]
        traj = paramflow.solve_path1(cs, t2 * 1.05, tol=1e-12)
        full = greens.kernel_apply(greens.kernel_build(traj, t2, "path1"), grid)
        mid = greens.kernel_apply(greens.kernel_build(traj, t1, "path1"), grid)
        traj_tail = paramflow.solve_path1(cs.shifted(t1), (t2 - t1) * 1.05, tol=1e-12)
        two = greens.kernel_apply(
            greens.kernel_build(traj_tail, t2 - t1, "path1"), mid
        )
        rows.append({"semigroup": 1.0 - oracle.fidelity(full, two)})
    return _verdict(
        "kernel_sanity", 1e-5, rows, {"mehler": 1e-9, "unitarity": 1e-6, "semigroup": 1e-5},
        note="mehler={mehler:.3e} unitarity={unitarity:.3e} semigroup={semigroup:.3e}",
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
