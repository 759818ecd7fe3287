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

The oracle flows the checks compare against (fundamental matrices and
classical flows) are declared reads like the parameter solves, and read
through the same store.  They share no state with the parameter solves,
so the suite's store, entered with ``with``, forks one worker process that
makes them while the solves run (``_Worker``).  Any other store (a check
called on its own, or the suite where it cannot fork) makes each flow at
its read.  A pickled flow loads as the same bits, so report.json is the
same, byte for byte.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import tempfile
import threading
import warnings
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


def _horizon(*trajs) -> float:
    """The last sample time of ``trajs``: the earliest horizon or 0.95 of a focal time."""
    return min(min(traj.t_end, 0.95 * traj.valid_to) for traj in trajs)


def _cases(seed: int, systems: dict, names, n_random: int, positive_c: bool = False) -> list:
    """The suite systems ``names``, then ``n_random`` random systems drawn
    from ``seed``."""
    rng = np.random.default_rng(seed)
    return [systems[name] for name in names] + [random_smooth_coeffs(rng, positive_c)
                                                for _ in range(n_random)]


# the oracle flows a check reads as (system, kind, t_end), made by ``_make_flow``
ORACLE_FLOWS = ("fundamental_matrix", "classical_flow")


def _make_flow(system, kind: str, t_end: float):
    """``system``'s ``oracle.<kind>`` to ``t_end`` at tol 1e-12; a classical
    flow starts from the phase-space origin."""
    if kind == "classical_flow":
        origin = (0.0,) * (4 if isinstance(system, FieldProfile2D) else 2)
        return oracle.classical_flow(system, origin, t_end, tol=1e-12)
    return oracle.fundamental_matrix(system, t_end, tol=1e-12)


class _Worker:
    """A forked process that makes the declared oracle flows in declaration
    order, pickles each (its FlowResult, or the exception it raised) into an
    unnamed temporary file and exits.  The parent goes on with its solves,
    waits for the worker at the first ``take`` and loads one flow per
    ``take``, so one is alive at a time; a file, unlike a pipe, never stalls
    the worker on a flow not yet read."""

    def __init__(self, flows: list):
        self.file, self.code = tempfile.TemporaryFile(), 0
        with warnings.catch_warnings():
            # Python >= 3.12 warns of a fork while other threads run, and
            # OpenBLAS's own pool counts; OpenBLAS re-initialises that pool
            # in the child, and the worker starts no thread of its own
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            try:
                self.pid = os.fork()
            except OSError:   # no worker to hand the file to (EAGAIN, ENOMEM)
                self.file.close()
                raise
        if self.pid == 0:   # the worker: write the flows, then leave without unwinding
            status = 1
            try:
                for flow in flows:
                    try:
                        made = _make_flow(*flow)
                    except Exception as err:
                        made = err
                    pickle.dump(made, self.file, pickle.HIGHEST_PROTOCOL)
                self.file.flush()
                status = 0
            finally:
                os._exit(status)

    def take(self, what: str):
        """The next flow as the worker made it: its FlowResult, or the
        exception it raised, raised here.  ``what`` names the flow in the
        error if the worker died."""
        if self.pid:
            _, status = os.waitpid(self.pid, 0)
            self.pid, self.code = 0, os.waitstatus_to_exitcode(status)
            self.file.seek(0)
        if self.code:
            how = (f"was killed by signal {-self.code}" if self.code < 0
                   else f"exited with status {self.code}")
            raise RuntimeError(f"the oracle worker {how} before it wrote {what}")
        made = pickle.load(self.file)
        if isinstance(made, Exception):
            raise made
        return made

    def close(self):
        """Stop the worker if it was not waited for, and let the file go."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.file.close()


class _Solves:
    """The reads that the checks declare as plans ``(reads_of, *args)``,
    made at tol 1e-12: ``reads_of(systems, fields, *args)`` is the groups of
    (system, route, horizon) reads that a check's loops make, built once
    from one copy of the suite systems, and ``_serve`` hands the check those
    very objects (lp's derived profiles and the shifted systems compare by
    identity).  Each (system, route) is solved at its first read, to the
    longest horizon it is declared at, and each read is that solve cut at
    the read's horizon (``until``), bit for bit the solve to that horizon;
    between reads the store holds it cut at the longest horizon still to be
    read.  A route of ``ORACLE_FLOWS`` reads that oracle flow instead, in
    declaration order.  The flows share no state with the solves, so
    entering the store with ``with`` forks a worker that makes them all
    while the solves run (see ``_Worker``), where ``os.fork`` exists and no
    other Python thread runs; leaving it stops a worker not waited for.
    Any other store makes each flow at its read.  An undeclared plan or
    read raises.
    """

    def __init__(self, *plans):
        systems, fields = suite_systems(), suite_fields()
        self.plans = [(plan, plan[0](systems, fields, *plan[1:])) for plan in plans]
        self._to_come, self._held, self._flows = {}, {}, []
        for _, groups in self.plans:
            for system, route, horizon in itertools.chain(*groups):
                if route in ORACLE_FLOWS:
                    self._flows.append((system, route, horizon))
                else:
                    self._to_come.setdefault((system, route), Counter())[horizon] += 1
        self._flows_read, self._worker = 0, None

    def __enter__(self):
        if self._flows and hasattr(os, "fork") and threading.active_count() == 1:
            self._worker = _Worker(self._flows)
        return self

    def __exit__(self, *exc):
        if self._worker:
            self._worker.close()

    def read(self, system, route: str, t_end: float):
        """The trajectory of ``system``'s ``route`` on [0, t_end], or its
        oracle flow of that kind to t_end; a declared read."""
        if route in ORACLE_FLOWS:
            n, flows = self._flows_read, self._flows
            if n == len(flows) or flows[n] != (system, route, t_end):
                raise LookupError(f"no declared {route} to t_end={t_end} is next")
            self._flows_read += 1
            if not self._worker:
                return _make_flow(system, route, t_end)
            return self._worker.take(f"flow {n + 1} of {len(flows)}, the {route} to t_end={t_end}")
        key = system, route
        to_come = self._to_come.get(key, Counter())
        if to_come[t_end] <= 0:
            raise LookupError(f"no declared {route} read to t_end={t_end} is still to come")
        traj = self._held.pop(key, None) or paramflow.solve(system, max(to_come), 1e-12, route)
        to_come[t_end] -= 1
        to_come = self._to_come[key] = +to_come
        if to_come:
            self._held[key] = traj.until(max(to_come))
        return traj.until(t_end)


def _serve(solves: _Solves | None, *plan) -> tuple:
    """The store that serves ``plan`` (``solves``, or else a store of
    ``plan`` alone) and the read groups that ``plan`` declared there."""
    solves = solves or _Solves(plan)
    for declared, groups in solves.plans:
        if declared == plan:
            return solves, groups
    raise LookupError(f"no check declared the reads {plan[0].__name__}{plan[1:]}")


# the horizon of the symplectic, path-equivalence and classical checks, and
# the random systems each draws from its seed by default
SUITE_T_END = 2.0
SYMPLECTIC_DRAWS, PATH_DRAWS, CLASSICAL_DRAWS = 8, 3, 4


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
        ab = quadops.commutator(a, b)   # in both identities
        if not (ab + quadops.commutator(b, a)).is_zero():
            failures += 1
        jac = (
            quadops.commutator(a, quadops.commutator(b, c))
            + quadops.commutator(b, quadops.commutator(c, a))
            + quadops.commutator(c, ab)
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


def _symplectic_reads(systems, fields, seed: int, n_random: int) -> tuple:
    return ([(cs, "path1", SUITE_T_END) for cs in _cases(seed, systems, systems, n_random)],)


def check_symplectic(seed: int, n_random: int = SYMPLECTIC_DRAWS, times: Grid = Grid(0.0, 40, 1),
                     corrupt: bool = False, solves: _Solves | None = None) -> CheckResult:
    solves, (reads,) = _serve(solves, _symplectic_reads, seed, n_random)
    rows = []
    for traj in itertools.starmap(solves.read, reads):
        for t in times.up_to(_horizon(traj)):
            smap = maps.assemble_path1(traj, float(t))
            if corrupt:
                m = smap.M.copy()
                m[0, 1] += 0.1
                smap = maps.SymplecticMap(t=smap.t, M=m, shift=smap.shift)
            det_r, form_r = maps.check_symplectic(smap)
            rows.append({"det": det_r, "form": form_r})
    return _verdict("symplectic_invariants", 1e-9, rows, dict.fromkeys(("det", "form"), 1e-9))


def _paired_reads(systems, fields, seed: int, n_random: int) -> tuple:
    cases = _cases(seed, systems, ("sho", "iontrap"), n_random, positive_c=True)
    return tuple([(cs, route, SUITE_T_END) for cs in cases] for route in ("path1", "path2"))


def check_path_equivalence(seed: int, n_random: int = PATH_DRAWS, times: Grid = Grid(0.02, 12),
                           solves: _Solves | None = None) -> CheckResult:
    """Route 2's affine map (M and shift) and action S against route 1's."""
    solves, (route1, route2) = _serve(solves, _paired_reads, seed, n_random)
    rows = []
    for tr1, tr2 in zip(itertools.starmap(solves.read, route1),
                        itertools.starmap(solves.read, route2)):
        for t in times.up_to(_horizon(tr1, tr2)):
            t = float(t)
            map1, map2 = maps.assemble_path1(tr1, t), maps.assemble_path2(tr2, t)
            rows.append({"map": float(np.max(np.abs(map1.M - map2.M))),
                         "shift": float(np.max(np.abs(map1.shift - map2.shift))),
                         "action": abs(tr1.sample(t).S - tr2.sample(t).S)})
    return _verdict("path_equivalence", 1e-6, rows,
                    dict.fromkeys(("map", "shift", "action"), 1e-6))


# planar suite system -> the radial route of its solve; the horizons of the
# 1D and planar oracle map checks
PLANAR_ROUTES = {"bsin": "path1", "efield": "path2"}
ORACLE_T_END, PLANAR_ORACLE_T_END = 1.5, 1.2


def _map_gaps(part: str, assemble, traj, fm, times: Grid) -> list:
    """A ``{part: gap}`` row per sample time before 0.95 of the focal time:
    the assembled map's M against the oracle's fundamental matrix.  A call
    per system, so that each system's solves are let go before the next
    system's are made."""
    return [{part: float(np.max(np.abs(assemble(traj, float(t)).M - fm.at(float(t)))))}
            for t in times.up_to(_horizon(traj))]


def _oracle_reads(systems, fields) -> tuple:
    """Each system's solve, then its fundamental matrix to the same horizon."""
    line = [(cs, "path1", ORACLE_T_END) for cs in systems.values()]
    planar = [(fp, PLANAR_ROUTES[name], PLANAR_ORACLE_T_END) for name, fp in fields.items()]
    return line, planar, [(system, "fundamental_matrix", t_end)
                          for system, _, t_end in line + planar]


def check_oracle_maps(times: Grid = Grid(0.0, 12, 1), planar_times: Grid = Grid(0.0, 8, 1),
                      solves: _Solves | None = None) -> CheckResult:
    solves, (line, planar, _) = _serve(solves, _oracle_reads)
    rows = []
    for part, assemble, reads, grid in (("1d", maps.assemble_path1, line, times),
                                        ("planar", maps.assemble_2d, planar, planar_times)):
        for system, route, t_end in reads:
            rows += _map_gaps(part, assemble, solves.read(system, route, t_end),
                              solves.read(system, "fundamental_matrix", t_end), grid)
    return _verdict("oracle_map_equivalence", 1e-7, rows, dict.fromkeys(("1d", "planar"), 1e-7))


def _classical_reads(systems, fields, seed: int, n_random: int) -> tuple:
    """Each system's solve, then its classical flow from the phase-space
    origin to the same horizon."""
    line = [(cs, "path1", SUITE_T_END) for cs in _cases(seed, systems, ("lp",), n_random)]
    planar = [(fields["efield"], PLANAR_ROUTES["efield"], SUITE_T_END)]
    return line, planar, [(system, "classical_flow", t_end)
                          for system, _, t_end in line + planar]


def check_classical_identification(seed: int, n_random: int = CLASSICAL_DRAWS,
                                   times: Grid = Grid(0.1, 10),
                                   solves: _Solves | None = None) -> CheckResult:
    """Route 1's and the planar solve's (lam, -Pi) against the classical flow
    from the phase-space origin."""
    solves, (*groups, _) = _serve(solves, _classical_reads, seed, n_random)
    rows = []
    parts = (("1d", lambda s: (s.lam, -s.Pi)),
             ("planar", lambda rec: (rec["lam_x"], rec["lam_y"], -rec["Pi_x"], -rec["Pi_y"])))
    for (part, target), reads in zip(parts, groups):
        for system, route, t_end in reads:
            traj = solves.read(system, route, t_end)
            flow = solves.read(system, "classical_flow", t_end)
            rows += [{part: float(np.max(np.abs(
                flow.at(float(t)) - np.array(target(traj.sample(float(t)))))))}
                for t in times.up_to(t_end)]
    return _verdict("classical_identification", 1e-7, rows, dict.fromkeys(("1d", "planar"), 1e-7))


# system -> (solve horizon, sample times) of the closed-form cross-checks
CLOSED_FORM_TIMES = {
    "iontrap": (1.0, (0.2, 0.4, 0.8)),
    "kanai": (1.2, (0.5, 1.0)),
    "bsin": (1.0, (0.3, 0.7)),
    "efield": (2.2, (1.0, 2.0)),
}


def _closed_form_cases(name: str, p: dict, traj, ts) -> list:
    """(closed form, solved, scale) for one system at each time of ts: the
    gap is the largest difference of the two value tuples over the scale.
    The Mathieu-based forms take all the times at once."""
    samples = [traj.sample(t) for t in ts]
    if name == "iontrap":   # rf trap
        closed = closedforms.ion_trap_params_at(p["m"], p["K"], p["k"], p["omega"], ts)
        return [(cf, (s.alpha, s.phi, s.beta), max(1.0, abs(s.alpha), abs(s.phi), abs(s.beta)))
                for cf, s in zip(closed, samples)]
    if name == "kanai":     # damped driven oscillator
        closed = [closedforms.kanai_caldirola_params(**p, t=t) for t in ts]
        return [((cf.lam, cf.Pi, cf.alpha, cf.phi, cf.beta), (s.lam, s.Pi, s.alpha, s.phi, s.beta),
                 max(1.0, abs(s.lam), abs(s.Pi))) for cf, s in zip(closed, samples)]
    if name == "bsin":      # sinusoidal magnetic field
        closed = closedforms.bfield_sin_params_at(**p, ts=ts)
        return [(cf, (rec["radial"].alpha, rec["radial"].phi, rec["radial"].beta, rec["theta"]),
                 1.0) for cf, rec in zip(closed, samples)]
    # constant magnetic field with sinusoidal electric drive
    closed = [closedforms.efield_const_b_params(**p, t=t) for t in ts]
    return [((cf.lam_x, cf.lam_y, cf.Pi_x, cf.Pi_y, cf.theta),
             (rec["lam_x"], rec["lam_y"], rec["Pi_x"], rec["Pi_y"], rec["theta"]),
             max(1.0, abs(rec["lam_x"]), abs(rec["Pi_x"]))) for cf, rec in zip(closed, samples)]


def _closed_form_reads(systems, fields, times: dict) -> tuple:
    systems = {**systems, **fields}
    return ([(systems[name], PLANAR_ROUTES.get(name, "path1"), horizon)
             for name, (horizon, _) in times.items()],)


def check_closed_forms(times: dict = CLOSED_FORM_TIMES,
                       solves: _Solves | None = None) -> CheckResult:
    solves, (reads,) = _serve(solves, _closed_form_reads, times)
    rows = []
    params = {name: spec for name, (_, spec) in presets.REFERENCE.items()}
    for (name, (_, samples)), traj in zip(times.items(), itertools.starmap(solves.read, reads)):
        for closed, solved, scale in _closed_form_cases(name, params[name], traj,
                                                        [float(t) for t in samples]):
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
MEHLER_T_END = 1.2   # the horizon of the Mehler comparison, both routes


def _kernel_reads(systems, fields) -> tuple:
    """sho's two routes for Mehler's kernel; each system's route 1 past its kernel
    time; its route 1 past t2, and the system shifted to t1 past t2 - t1."""
    splits = [(systems[name], t1, t2) for name, (t1, t2) in SEMIGROUP_SPLITS.items()]
    return ([(systems["sho"], route, MEHLER_T_END) for route in ("path1", "path2")],
            [(systems[name], "path1", t * 1.05) for name, t in KERNEL_TIMES.items()],
            [(cs, "path1", t2 * 1.05) for cs, _, t2 in splits],
            [(cs.shifted(t1), "path1", (t2 - t1) * 1.05) for cs, t1, t2 in splits])


def check_kernels(solves: _Solves | None = None) -> CheckResult:
    """Mehler, unitarity and semigroup checks; the unitarity check builds each
    system's kernel in its preset's variant, as ``liegate kernel`` does."""
    solves, (mehler, unitarity, splits, tails) = _serve(solves, _kernel_reads)
    rows = []
    grid = oracle.gaussian_state(1024, -12.0, 24.0 / 1024, sigma=1.0)
    # Mehler comparison for the oscillator, both routes
    t = math.pi / 4
    mehler_q = math.cos(t) / (2.0 * math.sin(t))
    mehler_cross = -1.0 / math.sin(t)
    mehler_pref = 1.0 / np.sqrt(2.0j * math.pi * math.sin(t))
    for sho, route, t_end in mehler:
        k = greens.kernel_build(solves.read(sho, route, t_end), t, route)
        rows.append({"mehler": float(_nanmax((
            abs(k.qxx[0, 0] - mehler_q), abs(k.qx1x1[0, 0] - mehler_q),
            abs(k.qxx1[0, 0] - mehler_cross), abs(k.prefactor - mehler_pref))))})
    # unitarity for every suite system
    for (name, t), read in zip(KERNEL_TIMES.items(), unitarity):
        variant = presets.PRESETS[presets.REFERENCE[name][0]].kernel or "path1"
        k = greens.kernel_build(solves.read(*read), t, variant)
        rows.append({"unitarity": greens.kernel_unitarity_residual(k, grid)})
    # semigroup with one split point per system
    for (t1, t2), read, tail in zip(SEMIGROUP_SPLITS.values(), splits, tails):
        traj = solves.read(*read)
        full = greens.kernel_apply(greens.kernel_build(traj, t2, "path1"), grid)
        mid = greens.kernel_apply(greens.kernel_build(traj, t1, "path1"), grid)
        two = greens.kernel_apply(greens.kernel_build(solves.read(*tail), t2 - t1, "path1"), mid)
        rows.append({"semigroup": 1.0 - oracle.fidelity(full, two)})
    return _verdict(
        "kernel_sanity", 1e-5, rows, {"mehler": 1e-9, "unitarity": 1e-6, "semigroup": 1e-5},
        note="mehler={mehler:.3e} unitarity={unitarity:.3e} semigroup={semigroup:.3e}",
    )


def run_suite(seed: int = 0, corrupt_map: bool = False) -> list[CheckResult]:
    """Every check at its default arguments, with one store of the reads
    that the solving checks declare there: each (system, route) is solved
    once, and a worker makes the oracle flows beside the solves where the
    process can fork."""
    with _Solves((_symplectic_reads, seed, SYMPLECTIC_DRAWS),
                 (_paired_reads, seed, PATH_DRAWS), (_oracle_reads,),
                 (_classical_reads, seed, CLASSICAL_DRAWS),
                 (_closed_form_reads, CLOSED_FORM_TIMES), (_kernel_reads,)) as solves:
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
