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
from collections import Counter
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


def _cases(seed: int, systems: dict, names, n_random: int, positive_c: bool = False) -> list:
    """The suite systems ``names``, then ``n_random`` random systems drawn
    from ``seed``."""
    rng = np.random.default_rng(seed)
    return [systems[name] for name in names] + [random_smooth_coeffs(rng, positive_c)
                                                for _ in range(n_random)]


class _Solves:
    """The checks' parameter solves at tol 1e-12: each (system, route) is
    solved once, to the longest horizon it is read at, and each read is
    that solve cut at the read's horizon (``until``), bit for bit the solve
    to that horizon.

    ``reads`` counts the reads of each (system, route, horizon) to come; a
    system's route is "path1" or "path2", a field's the radial route of its
    planar solve.  A solve is made at its first read; after each read the
    store holds it cut at the longest horizon still to be read, so that no
    step past that horizon is kept, and drops it after its last read.  A
    read that was not counted is solved to its own horizon and not held.
    ``systems`` and ``fields`` are the suite systems every reader takes its
    cases from: lp's derived profiles compare by identity, so two reads of
    lp must name the same object.
    """

    def __init__(self, systems: dict | None = None, fields: dict | None = None,
                 reads: Counter | None = None):
        self.systems = suite_systems() if systems is None else systems
        self.fields = suite_fields() if fields is None else fields
        self._to_come, self._held = {}, {}
        for (system, route, horizon), n in Counter(reads).items():
            self._to_come.setdefault((system, route), Counter())[horizon] += n

    def read(self, system, route: str, t_end: float):
        """The trajectory of ``system``'s ``route`` on [0, t_end]."""
        key = system, route
        to_come = self._to_come.get(key, Counter())
        if to_come[t_end] <= 0:
            return _solve(system, route, t_end)
        traj = self._held.pop(key, None) or _solve(system, route, max(to_come))
        to_come[t_end] -= 1
        to_come = self._to_come[key] = +to_come
        if to_come:
            self._held[key] = traj.until(max(to_come))
        return traj.until(t_end)


def _solve(system, route: str, t_end: float):
    if isinstance(system, FieldProfile2D):
        return paramflow.solve_2d(system, t_end, tol=1e-12, path=route)
    solver = paramflow.solve_path1 if route == "path1" else paramflow.solve_path2
    return solver(system, t_end, tol=1e-12)


# the horizon of the symplectic, path-equivalence and classical checks
SUITE_T_END = 2.0


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
        # numerator in [-6, 6] and denominator in [1, 4] for each of the quad
        # rows, lin and scal in turn, all from one call: the stream of one
        # rng.integers call per number; built on integers over their lcm
        n = 2 * dof
        m = n * n + n + 1
        draws = rng.integers([-6, 1] * m, [7, 5] * m).tolist()
        den = math.lcm(*draws[1::2])
        ints = [p * (den // q) for p, q in zip(draws[0::2], draws[1::2])]
        quad = [[ints[n * min(i, j) + max(i, j)] for j in range(n)] for i in range(n)]
        obs = quadops.QuadraticObservable(dof, quad, ints[n * n:-1], ints[-1])
        return obs.scale(F(1, den))

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
                     corrupt: bool = False, solves: _Solves | None = None) -> CheckResult:
    solves = solves or _Solves()
    rows = []
    for cs in _cases(seed, solves.systems, solves.systems, n_random):
        traj = solves.read(cs, "path1", SUITE_T_END)
        for t in times.up_to(_horizon(SUITE_T_END, traj)):
            smap = maps.assemble_path1(traj, float(t))
            if corrupt:
                m = smap.M.copy()
                m[0, 1] += 0.1
                smap = maps.SymplecticMap(t=smap.t, M=m, shift=smap.shift)
            det_r, form_r = maps.check_symplectic(smap)
            rows.append({"det": det_r, "form": form_r})
    return _verdict("symplectic_invariants", 1e-9, rows, dict.fromkeys(("det", "form"), 1e-9))


def check_path_equivalence(seed: int, n_random: int = 3, times: Grid = Grid(0.02, 12),
                           solves: _Solves | None = None) -> CheckResult:
    """Route 2's affine map (M and shift) and action S against route 1's."""
    solves = solves or _Solves()
    rows = []
    for cs in _cases(seed, solves.systems, ("sho", "iontrap"), n_random, positive_c=True):
        tr1 = solves.read(cs, "path1", SUITE_T_END)
        tr2 = solves.read(cs, "path2", SUITE_T_END)
        for t in times.up_to(_horizon(SUITE_T_END, tr1, tr2)):
            t = float(t)
            map1, map2 = maps.assemble_path1(tr1, t), maps.assemble_path2(tr2, t)
            rows.append({"map": float(np.max(np.abs(map1.M - map2.M))),
                         "shift": float(np.max(np.abs(map1.shift - map2.shift))),
                         "action": abs(tr1.sample(t).S - tr2.sample(t).S)})
    return _verdict("path_equivalence", 1e-6, rows,
                    dict.fromkeys(("map", "shift", "action"), 1e-6))


# planar suite system -> the radial route of its solve
PLANAR_ROUTES = {"bsin": "path1", "efield": "path2"}


# the horizons of the 1D and planar oracle map checks
ORACLE_T_END, PLANAR_ORACLE_T_END = 1.5, 1.2


def _map_gaps(part: str, assemble, traj, fm, times: Grid) -> list:
    """A ``{part: gap}`` row per sample time before 0.95 of the focal time:
    the assembled map's M against the oracle's fundamental matrix.  A call
    per system, so that each system's solves are let go before the next
    system's are made."""
    return [{part: float(np.max(np.abs(assemble(traj, float(t)).M - fm.at(float(t)))))}
            for t in times.up_to(_horizon(traj.t_end, traj))]


def check_oracle_maps(times: Grid = Grid(0.0, 12, 1), planar_times: Grid = Grid(0.0, 8, 1),
                      solves: _Solves | None = None) -> CheckResult:
    solves = solves or _Solves()
    rows = []
    for cs in solves.systems.values():
        rows += _map_gaps("1d", maps.assemble_path1, solves.read(cs, "path1", ORACLE_T_END),
                          oracle.fundamental_matrix(cs, ORACLE_T_END, tol=1e-12), times)
    for name, fp in solves.fields.items():
        rows += _map_gaps("planar", maps.assemble_2d,
                          solves.read(fp, PLANAR_ROUTES[name], PLANAR_ORACLE_T_END),
                          oracle.fundamental_matrix(fp, PLANAR_ORACLE_T_END, tol=1e-12),
                          planar_times)
    return _verdict("oracle_map_equivalence", 1e-7, rows,
                    dict.fromkeys(("1d", "planar"), 1e-7))


def check_classical_identification(seed: int, n_random: int = 4, times: Grid = Grid(0.1, 10),
                                   solves: _Solves | None = None) -> CheckResult:
    """Route 1's and the planar solve's (lam, -Pi) against the classical flow
    from the phase-space origin."""
    solves = solves or _Solves()
    rows = []
    for cs in _cases(seed, solves.systems, ("lp",), n_random):
        traj = solves.read(cs, "path1", SUITE_T_END)
        flow = oracle.classical_flow(cs, np.zeros(2), SUITE_T_END, tol=1e-12)
        for t in times.up_to(SUITE_T_END):
            s = traj.sample(float(t))
            diff = np.max(np.abs(flow.at(float(t)) - np.array([s.lam, -s.Pi])))
            rows.append({"1d": float(diff)})
    fp = solves.fields["efield"]
    traj = solves.read(fp, PLANAR_ROUTES["efield"], SUITE_T_END)
    flow = oracle.classical_flow(fp, np.zeros(4), SUITE_T_END, tol=1e-12)
    for t in times.up_to(SUITE_T_END):
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


def check_closed_forms(times: dict = CLOSED_FORM_TIMES,
                       solves: _Solves | None = None) -> CheckResult:
    solves = solves or _Solves()
    rows = []
    systems = {**solves.systems, **solves.fields}
    params = {name: spec for name, (_, spec) in presets.REFERENCE.items()}
    for name, (horizon, samples) in times.items():
        traj = solves.read(systems[name], PLANAR_ROUTES.get(name, "path1"), horizon)
        for t in samples:
            closed, solved, scale = _closed_form_case(name, params[name], traj, float(t))
            rows.append({name: _nanmax(abs(c - s) for c, s in zip(closed, solved)) / scale})
    return _verdict("closed_form_crosschecks", 1e-6, rows, dict.fromkeys(times, 1e-6))


def check_mathieu() -> CheckResult:
    """C(a, q, z) at two tolerances, each (a, q, tol) solved once to the
    largest z; and C(1, 0, pi/3) = 1/2."""
    rows = []
    zs = (0.7, 1.5, 3.0)
    for a, q in itertools.product((0.5, 1.0, 2.0), (0.0, 0.4, 1.0)):
        c1s = closedforms.mathieu_cs(a, q, zs, tol=1e-12)
        c2s = closedforms.mathieu_cs(a, q, zs, tol=5e-13)
        rows += [{"halving_drift": abs(c1.C - c2.C)} for c1, c2 in zip(c1s, c2s)]
    exact = closedforms.mathieu_c(1.0, 0.0, math.pi / 3.0)
    rows.append({"pin": abs(exact.C - 0.5)})
    # the drift must stay strictly below 1e-10: at most the double before it
    return _verdict("mathieu_selfconsistency", 1e-10, rows,
                    {"halving_drift": math.nextafter(1e-10, 0.0), "pin": 1e-12})


# kernel time of each 1D suite system, and its semigroup split (t1, t2)
KERNEL_TIMES = {"lp": 1.5, "sho": math.pi / 4, "iontrap": 0.4, "kanai": 1.0}
SEMIGROUP_SPLITS = {"lp": (0.6, 1.4), "sho": (0.5, 1.2), "iontrap": (0.18, 0.4),
                    "kanai": (0.45, 1.0)}


# the horizon of the Mehler comparison, both routes
MEHLER_T_END = 1.2


def check_kernels(solves: _Solves | None = None) -> CheckResult:
    """Mehler, unitarity and semigroup checks; the unitarity check builds each
    system's kernel in its preset's variant, as ``liegate kernel`` does."""
    solves = solves or _Solves()
    rows = []
    systems = solves.systems
    grid = oracle.gaussian_state(1024, -12.0, 24.0 / 1024, sigma=1.0)
    # Mehler comparison for the oscillator, both routes
    sho = systems["sho"]
    t = math.pi / 4
    mehler_q = math.cos(t) / (2.0 * math.sin(t))
    mehler_cross = -1.0 / math.sin(t)
    mehler_pref = 1.0 / np.sqrt(2.0j * math.pi * math.sin(t))
    for route in ("path1", "path2"):
        traj = solves.read(sho, route, MEHLER_T_END)
        k = greens.kernel_build(traj, t, route)
        rows.append({"mehler": float(_nanmax((
            abs(k.qxx[0, 0] - mehler_q), abs(k.qx1x1[0, 0] - mehler_q),
            abs(k.qxx1[0, 0] - mehler_cross), abs(k.prefactor - mehler_pref),
        )))})
    # unitarity for every suite system
    for name, cs in systems.items():
        t = KERNEL_TIMES[name]
        traj = solves.read(cs, "path1", t * 1.05)
        variant = presets.PRESETS[presets.REFERENCE[name][0]].kernel or "path1"
        k = greens.kernel_build(traj, t, variant)
        rows.append({"unitarity": greens.kernel_unitarity_residual(k, grid)})
    # semigroup with one split point per system
    for name, cs in systems.items():
        t1, t2 = SEMIGROUP_SPLITS[name]
        traj = solves.read(cs, "path1", t2 * 1.05)
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


def _suite_reads(seed: int, systems: dict, fields: dict) -> Counter:
    """Every (system, route, horizon) that the checks read at their default
    arguments, counted."""
    paired = _cases(seed, systems, ("sho", "iontrap"), 3, positive_c=True)
    return Counter(
        [(cs, "path1", SUITE_T_END) for cs in itertools.chain(
            _cases(seed, systems, systems, 8), paired, _cases(seed, systems, ("lp",), 4))]
        + [(cs, "path2", SUITE_T_END) for cs in paired]
        + [(cs, "path1", ORACLE_T_END) for cs in systems.values()]
        + [(fp, PLANAR_ROUTES[name], PLANAR_ORACLE_T_END) for name, fp in fields.items()]
        + [(fields["efield"], PLANAR_ROUTES["efield"], SUITE_T_END)]
        + [({**systems, **fields}[name], PLANAR_ROUTES.get(name, "path1"), horizon)
           for name, (horizon, _) in CLOSED_FORM_TIMES.items()]
        + [(systems["sho"], route, MEHLER_T_END) for route in ("path1", "path2")]
        + [(cs, "path1", KERNEL_TIMES[name] * 1.05) for name, cs in systems.items()]
        + [(cs, "path1", SEMIGROUP_SPLITS[name][1] * 1.05) for name, cs in systems.items()])


def run_suite(seed: int = 0, corrupt_map: bool = False) -> list[CheckResult]:
    """Every check at its default arguments, with one store of the solves
    they read: each (system, route) is solved once, to the longest horizon
    any check reads it at, and cut for the shorter ones."""
    systems, fields = suite_systems(), suite_fields()
    solves = _Solves(systems, fields, _suite_reads(seed, systems, fields))
    return [
        check_structure_constants(),
        check_algebra_properties(seed),
        check_symplectic(seed, corrupt=corrupt_map, solves=solves),
        check_path_equivalence(seed, solves=solves),
        check_oracle_maps(solves=solves),
        check_classical_identification(seed, solves=solves),
        check_closed_forms(solves=solves),
        check_mathieu(),
        check_kernels(solves=solves),
    ]
