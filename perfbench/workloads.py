"""The three benchmark workloads and the loop that runs them.

Every workload makes its inputs from the seed, runs one item at a time
(closed loop, one caller), and checks each item's outputs against an
independent route outside the item's latency.  ``measure`` gives the
end-to-end metrics with tracing off; ``trace`` gives the per-layer metrics.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import liegate
import liegate.cli       # noqa: F401  (loaded so that tracing can wrap it)
import liegate.verify    # noqa: F401
from liegate import cli, greens, maps, oracle, paramflow
from liegate.coeffs import (
    CoefficientSet1D, Derived, Exponential, FieldProfile2D, Sinusoid, Tabulated,
)

from spans import VERIFY_CHECKS, Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SETUP_DENSE_SHARE = 0.5          # set-ups mix solves in the interpreter with numpy work

# Thresholds of the acceptance criteria the checks reuse.
# Criterion 2 allows |det M - 1| and |M^T J M - J| of 1e-9 at tol 1e-12, that
# is 1e3 * tol.  Route-1 solves of spline (tabulated) profiles reach 1.3e3 * tol,
# as the integrator's error control loses order at the knots, so the sweep
# allows ten times criterion 2.  See README.md.
SYMPLECTIC_PER_TOL = 1e4
ORACLE_MAP_TOL = 1e-7    # criterion 4: map entries against the fundamental matrix
UNITARITY_TOL = 1e-6     # criterion 8: norm preserved by kernel application
FIDELITY_TOL = 1e-5      # criterion 7: fidelity against the split-step solver
MOMENT_TOL = 1e-8        # grid moments against moments moved by the map


def _rng(seed: int, stream: int, i: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


# ---------------------------------------------------------------- profiles

def _shape(kind: str, rng: np.random.Generator, t_end: float):
    """A positive profile shape of one kind; ``make(level)`` scales it.

    Scaled copies of one shape share their logarithmic derivative, which
    is what makes a route-2 system take the shortcut.  Frequencies and
    levels vary within narrow ranges, since they set the integrator's step
    count: the seed changes the systems but hardly the work of a run.
    """
    if kind == "sinusoid":
        rel, omega, phase = rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0), rng.uniform(0, 2 * math.pi)
        return lambda level: Sinusoid(level * rel, omega, phase, level)
    if kind == "exponential":
        rate = rng.uniform(-0.15, 0.15)
        return lambda level: Exponential(level, rate)
    if kind == "tabulated":
        knots = np.linspace(0.0, t_end, 1 + round(t_end / 0.25))   # sampled every 0.25
        rel = 1.0 + 0.15 * np.sin(rng.uniform(1.0, 2.0) * knots + rng.uniform(0, 2 * math.pi))
        return lambda level: Tabulated(tuple(knots), tuple(level * rel))
    if kind == "derived":
        eps, omega, phase = rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0), rng.uniform(0, 2 * math.pi)

        def make(level):
            # level / (1 + eps sin(omega t + phase)), the 1/m(t) form of a mass profile
            def fn(t):
                return level / (1.0 + eps * np.sin(omega * t + phase))

            def dfn(t):
                den = 1.0 + eps * np.sin(omega * t + phase)
                return -level * eps * omega * np.cos(omega * t + phase) / (den * den)

            return Derived(fn, dfn, label="level/(1+eps sin)")

        return make
    raise ValueError(kind)


def _wave(rng: np.random.Generator, amp_hi: float) -> Sinusoid:
    return Sinusoid(rng.uniform(0.0, amp_hi), rng.uniform(1.0, 2.0), rng.uniform(0, 2 * math.pi))


def _system_1d(rng, kind: str, t_end: float, shortcut: bool) -> CoefficientSet1D:
    """a(t), c(t) > 0 of one kind with a c near 1.35 to 2.2; small drives."""
    shape_a = _shape(kind, rng, t_end)
    shape_c = shape_a if shortcut else _shape(kind, rng, t_end)
    b = Sinusoid(0.0, 1.0) if shortcut else Sinusoid(
        rng.uniform(0.1, 0.2), rng.uniform(1.0, 2.0), rng.uniform(0, 2 * math.pi))
    return CoefficientSet1D(
        a=shape_a(rng.uniform(0.9, 1.1)), b=b, c=shape_c(rng.uniform(1.5, 2.0)),
        d=_wave(rng, 0.4), e=_wave(rng, 0.4), g=_wave(rng, 0.4),
    )


def _field_2d(rng, kind: str, t_end: float) -> FieldProfile2D:
    """Mass, magnetic field and stiffness of one kind; small in-plane drive."""
    return FieldProfile2D(
        m=_shape(kind, rng, t_end)(rng.uniform(0.9, 1.1)),
        B=_shape(kind, rng, t_end)(rng.uniform(1.8, 2.2)),
        K=_shape(kind, rng, t_end)(rng.uniform(0.8, 1.2)),
        Ex=_wave(rng, 0.3), Ey=_wave(rng, 0.3), charge=1.0,
    )


# ------------------------------------------------------------- param-sweep

@dataclass(frozen=True)
class SweepCase:
    family: str
    kind: str
    t_end: float
    tol: float
    system: object


class ParamSweep:
    """One item solves one seeded system, samples it, and checks its maps.

    The design is fixed and independent of the seed, so every run sees the
    same mix.  Family and profile kind run through all 20 pairs in every 20
    consecutive items; every third item runs past the first focal time and
    the others stop before it; tol alternates every four items.  A third of
    long items keeps the median inside one cluster of latencies.  The seed
    draws each system's parameters.
    """

    name = "param-sweep"
    dense_share = 0.5              # solves in the interpreter, sampling and small numpy calls
    why = ("coeffs, paramflow and maps do the work; greens does none "
           "(ROADMAP item 3 shows here, item 2 should not)")
    trace_items = 40
    families = ("1d-path1", "1d-path2", "1d-path2-shortcut", "2d-path1", "2d-path2")
    kinds = ("sinusoid", "exponential", "tabulated", "derived")
    horizons = (0.5, 4.0)          # before and past the first focal time
    tols = (1e-10, 1e-12)
    samples = 201
    oracle_every = 7               # coprime with the design's periods

    def setup(self, seed: int):
        return {"seed": seed}

    def close(self, state):
        pass

    def make_input(self, state, i: int) -> SweepCase:
        family = self.families[i % 5]
        kind = self.kinds[i % 4]
        t_end = self.horizons[1 if i % 3 == 0 else 0]
        tol = self.tols[(i // 4) % 2]
        rng = _rng(state["seed"], 0, i)
        if family.startswith("2d"):
            system = _field_2d(rng, kind, t_end)
        else:
            system = _system_1d(rng, kind, t_end, family.endswith("shortcut"))
        return SweepCase(family, kind, t_end, tol, system)

    def item(self, state, case: SweepCase, pause=None):
        if case.family.startswith("2d"):
            traj = paramflow.solve_2d(case.system, case.t_end, case.tol, path=case.family[3:])
            assemble = maps.assemble_2d
        elif case.family == "1d-path1":
            traj = paramflow.solve_path1(case.system, case.t_end, case.tol)
            assemble = maps.assemble_path1
        else:
            traj = paramflow.solve_path2(case.system, case.t_end, case.tol)
            assemble = maps.assemble_path2
        times = np.linspace(0.0, case.t_end, self.samples)
        samples = [traj.sample(float(t)) for t in times]
        hi = 0.95 * traj.valid_to
        smaps = [assemble(traj, float(t)) for t in times[1:] if t <= hi]
        residuals = [maps.check_symplectic(m) for m in smaps]
        return traj, samples, smaps, residuals

    def check(self, state, i, case, out):
        _, samples, smaps, residuals = out
        problems = []
        if case.family.startswith("2d"):
            shifts = [[s["S"], s["lam_x"], s["lam_y"], s["Pi_x"], s["Pi_y"]] for s in samples]
        else:
            shifts = [[s.S, s.lam, s.Pi] for s in samples]
        if not np.all(np.isfinite(shifts)):
            problems.append("translation parameters are not finite")
        if not smaps:
            problems.append("no map before the focal time")
        # the residuals are quadratic in M and the solve error is linear in tol
        bound = SYMPLECTIC_PER_TOL * case.tol
        for m, (det_r, form_r) in zip(smaps, residuals):
            scale = max(1.0, float(np.max(np.abs(m.M)))) ** 2
            if not max(det_r, form_r) <= bound * scale:
                problems.append(f"symplectic residual {max(det_r, form_r):.3e} at t={m.t:.6g}")
                break
        if i % self.oracle_every == 0 and smaps:
            fm = oracle.fundamental_matrix(case.system, smaps[-1].t, tol=1e-12)
            gap = max(float(np.max(np.abs(m.M - fm.at(m.t)))) / max(1.0, float(np.max(np.abs(m.M))))
                      for m in smaps)
            if not gap <= ORACLE_MAP_TOL:
                problems.append(f"maps differ from the fundamental matrix by {gap:.3e}")
        return problems, {}


# -------------------------------------------------------- kernel-propagate

@dataclass(frozen=True)
class KernelCase:
    system1: CoefficientSet1D
    traj1: paramflow.ParamTrajectory
    t1: float
    psi1: oracle.WaveGrid
    traj2: paramflow.ParamTrajectory2D
    variant2: str
    t2: float
    psi2: oracle.WaveGrid


def _kanai_drive() -> Derived:
    # e(t) = -e^t (0.3 + 0.2 sin t): the damped drive of the kanai preset
    return Derived(
        fn=lambda t: -np.exp(t) * (0.3 + 0.2 * np.sin(t)),
        dfn=lambda t: -np.exp(t) * (0.3 + 0.2 * np.sin(t)) - 0.2 * np.exp(t) * np.cos(t),
        label="kanai drive",
    )


class KernelPropagate:
    """Set-up solves fixed trajectories; one item builds two kernels and
    applies them to a seeded packet on a 1D and a planar grid."""

    name = "kernel-propagate"
    dense_share = 1.0              # dense complex blocks and matrix-vector products
    why = ("greens.kernel_apply is nearly all item time and paramflow runs only "
           "in set-up (ROADMAP item 2 shows here, item 3 only in setup_s)")
    trace_items = 10
    n1, x_min1 = 2048, -20.0
    n2, x_min2 = 48, -6.0
    split_every = 6
    split_steps = 4096
    horizon = 1.5                  # t_end of every set-up solve

    def setup(self, seed: int):
        rng = _rng(seed, 1)
        one_d = {
            "sho": CoefficientSet1D.build(a=1.0, c=1.0),
            "iontrap": CoefficientSet1D.build(a=1.0, c=Sinusoid(0.3, 5.0, math.pi / 2, 1.0)),
            "kanai": CoefficientSet1D(
                a=Exponential(1.0, -1.0), b=Sinusoid(0.0, 1.0), c=Exponential(0.0625, 1.0),
                d=Sinusoid(0.0, 1.0), e=_kanai_drive(), g=Sinusoid(0.0, 1.0)),
            "random-1": _system_1d(rng, "sinusoid", self.horizon, False),
            "random-2": _system_1d(rng, "sinusoid", self.horizon, False),
        }
        planar = {
            "bsin": (FieldProfile2D.build(m=1.0, B=Sinusoid(2.0, 3.0), K=0.0), "path1"),
            "efield": (FieldProfile2D.build(m=1.0, B=2.0, K=0.5, Ex=0.3,
                                            Ey=Sinusoid(0.2, 1.3, math.pi / 2)), "path2"),
        }
        trajs1 = [(cs, paramflow.solve_path1(cs, self.horizon, 1e-12)) for cs in one_d.values()]
        trajs2 = [(paramflow.solve_2d(fp, self.horizon, 1e-12, path=path), "twod_" + path)
                  for fp, path in planar.values()]
        return {"seed": seed, "trajs1": trajs1, "trajs2": trajs2}

    def close(self, state):
        pass

    def make_input(self, state, i: int) -> KernelCase:
        rng = _rng(state["seed"], 2, i)
        system1, traj1 = state["trajs1"][i % len(state["trajs1"])]
        traj2, variant2 = state["trajs2"][i % len(state["trajs2"])]
        t1 = rng.uniform(0.2, 0.85) * min(traj1.t_end, traj1.valid_to)
        t2 = rng.uniform(0.4, 0.85) * min(traj2.t_end, traj2.valid_to)
        psi1 = oracle.gaussian_state(self.n1, self.x_min1, -2.0 * self.x_min1 / self.n1,
                                     sigma=rng.uniform(0.6, 1.4), x0=rng.uniform(-1.5, 1.5),
                                     p0=rng.uniform(-1.5, 1.5))
        axes = [oracle.gaussian_state(self.n2, self.x_min2, -2.0 * self.x_min2 / self.n2,
                                      sigma=rng.uniform(0.7, 1.0), x0=rng.uniform(-0.5, 0.5),
                                      p0=rng.uniform(-0.5, 0.5)) for _ in range(2)]
        psi2 = oracle.WaveGrid(self.n2, axes[0].x_min, axes[0].dx,
                               np.outer(axes[0].amps, axes[1].amps))
        return KernelCase(system1, traj1, t1, psi1, traj2, variant2, t2, psi2)

    def item(self, state, case: KernelCase, pause=None):
        k1 = greens.kernel_build(case.traj1, case.t1, "path1")
        out1 = greens.kernel_apply(k1, case.psi1)
        if pause:
            pause()
        k2 = greens.kernel_build(case.traj2, case.t2, case.variant2)
        out2 = greens.kernel_apply(k2, case.psi2)
        return out1, out2

    def check(self, state, i, case, out):
        out1, out2 = out
        problems = []
        for psi_in, psi_out, label in ((case.psi1, out1, "1D"), (case.psi2, out2, "planar")):
            drift = abs(psi_out.norm() - psi_in.norm()) / psi_in.norm()
            if not drift <= UNITARITY_TOL:
                problems.append(f"{label} norm drifts by {drift:.3e}")
        mean0, cov0 = oracle.grid_moments(case.psi1)
        mean_pred, cov_pred = maps.evolve_gaussian_moments(
            maps.assemble_path1(case.traj1, case.t1), mean0, cov0)
        mean1, cov1 = oracle.grid_moments(out1)
        gap = max(float(np.max(np.abs(mean1 - mean_pred))), float(np.max(np.abs(cov1 - cov_pred))))
        scale = 1.0 + max(float(np.max(np.abs(mean_pred))), float(np.max(np.abs(cov_pred))))
        if not gap <= MOMENT_TOL * scale:
            problems.append(f"grid moments differ from the map's by {gap:.3e}")
        probe = np.linspace(0.0, case.traj1.t_end, 65)
        if i % self.split_every == 0 and not np.any(np.asarray(case.system1.b(probe)) != 0.0):
            ref = oracle.split_step_evolve(case.system1, case.psi1, case.t1, self.split_steps)
            fid = oracle.fidelity(out1, ref)
            if not fid >= 1.0 - FIDELITY_TOL:
                problems.append(f"fidelity against split-step {fid:.9f}")
        return problems, {}


# ------------------------------------------------------------- cli-session

class CliSession:
    """One item is one in-process CLI session into a fresh directory."""

    name = "cli-session"
    dense_share = 0.5              # short solves, n=1024 kernels, CSV formatting
    why = ("the ROADMAP end to end: many short solves, n=1024 grids, the CSV "
           "writers, and the only use of quadops, closedforms and the oracle flows")
    trace_items = 1
    configs = ("sho", "iontrap", "kanai", "efield")

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work

    def setup(self, seed: int):
        os.makedirs(self.work, exist_ok=True)
        verify_seed = int(_rng(seed, 3).integers(0, 1000))
        return {"dir": tempfile.mkdtemp(dir=self.work),
                "verify": ["verify", "--seed", str(verify_seed)],
                "reference": None}

    def close(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)

    def commands(self, state, out: str) -> list[list[str]]:
        cmds = [state["verify"] + ["--out", os.path.join(out, "verify")],
                ["constants", "--algebra", "cp", "--out", os.path.join(out, "constants")]]
        for name in self.configs:
            config = os.path.join(self.root, "configs", f"{name}.json")
            cmds.append(["params", "--config", config, "--out", os.path.join(out, f"{name}-params")])
            apply = [] if name == "efield" else ["--apply", "gaussian(sigma=1)"]
            cmds.append(["kernel", "--config", config, "--out", os.path.join(out, f"{name}-kernel")]
                        + apply)
        return cmds

    def make_input(self, state, i: int) -> list[list[str]]:
        return self.commands(state, os.path.join(state["dir"], f"session-{i}"))

    def item(self, state, commands, pause=None):
        # one verify command takes seconds, so pause between its checks too
        restore = _pausing(liegate.verify, VERIFY_CHECKS, pause) if pause else None
        codes = []
        try:
            for k, argv in enumerate(commands):
                if k and pause:
                    pause()
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:      # argparse rejects its arguments this way
                    codes.append(exc.code)
        finally:
            if restore:
                restore()
        return codes

    def check(self, state, i, commands, codes):
        out = os.path.dirname(commands[0][-1])
        problems = [f"exit code {code}: liegate {' '.join(argv[:1])}"
                    for argv, code in zip(commands, codes) if code != 0]
        try:
            with open(os.path.join(out, "verify", "report.json")) as fh:
                if not json.load(fh)["all_passed"]:
                    problems.append("verify report has all_passed false")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"verify report unreadable: {exc}")
        digests, written = {}, 0
        for folder, _, files in os.walk(out):
            for fname in files:
                path = os.path.join(folder, fname)
                with open(path, "rb") as fh:
                    data = fh.read()
                digests[os.path.relpath(path, out)] = hashlib.sha256(data).hexdigest()
                written += len(data)
        if state["reference"] is None:
            state["reference"] = digests
        elif digests != state["reference"]:
            changed = sorted(k for k in digests.keys() | state["reference"].keys()
                             if digests.get(k) != state["reference"].get(k))
            problems.append(f"outputs differ from the first session: {changed}")
        shutil.rmtree(out, ignore_errors=True)
        return problems, {"cli.bytes_written": written}


# ------------------------------------------------------------------ runner

def make(name: str, root: str, work: str):
    if name == "param-sweep":
        return ParamSweep()
    if name == "kernel-propagate":
        return KernelPropagate()
    if name == "cli-session":
        return CliSession(root, work)
    raise ValueError(f"unknown workload {name!r}")


class Reference:
    """A fixed computation that uses no liegate code, timed to read the host's speed.

    The host is shared, and its speed drifts by a third or more within
    minutes, more than the bound of any timing metric.  So the timed work
    is scaled by how slow the host is next to it: each sample
    times one dense part (complex exponentials over a block and a matrix-vector
    product, as in ``kernel_apply``) and one scalar part (a loop of float
    arithmetic in the interpreter, as in an ODE right-hand side).  A
    workload's ``dense_share`` weighs the two parts like its own items.
    """

    # Median time of each part on the host described in README.md; they
    # set the unit, so scaled times read close to that host's own.
    DENSE_S = 0.025
    SCALAR_S = 0.0053

    def __init__(self):
        self.block = np.exp(1j * np.linspace(0.0, 1.0, 1 << 19)).reshape(256, 2048)
        self.vector = np.ones(2048, dtype=complex)
        self.slowness(0.5)             # warm-up

    def _dense(self) -> float:
        start = time.perf_counter()
        total = np.exp(self.block * (0.3 + 0.1j)) @ self.vector
        elapsed = time.perf_counter() - start
        if not np.isfinite(total).all():
            raise ArithmeticError("reference computation is not finite")
        return elapsed

    def _scalar(self) -> float:
        start = time.perf_counter()
        x, v, h = 1.0, 0.0, 1e-3
        for k in range(25000):
            a = math.sin(k * h)
            x, v = x + h * v, v - h * (1.0 + 0.1 * a) * x
        elapsed = time.perf_counter() - start
        if not math.isfinite(x):
            raise ArithmeticError("reference computation is not finite")
        return elapsed

    def slowness(self, w: float) -> float:
        """1 at the nominal speed, 1.25 when the host runs 25% slower.

        ``w`` is the weight of the dense part, the rest that of the scalar part.
        """
        return (self._dense() / self.DENSE_S) ** w * (self._scalar() / self.SCALAR_S) ** (1 - w)


class Clock:
    """Times stretches of work in wall seconds and in seconds at the nominal speed.

    The reference is sampled between stretches, at most once per ``every``
    seconds: before and after each item and at its ``pause`` points, so
    sampling takes no part of any stretch.  ``times`` divides each stretch
    by the geometric mean of the slowness sampled last before it and first
    after it.  Without a reference the two times agree.
    """

    def __init__(self, reference: Reference | None = None, dense_share: float = 0.5,
                 every: float = 0.25):
        self.reference = reference
        self.dense_share = dense_share
        self.every = every
        self.samples: list[tuple[float, float]] = []          # (time, slowness)
        self.stretches: list[tuple[int, float, float]] = []   # (item, start, end)
        self.items = 0

    def _sample(self, force: bool = False):
        if self.reference is None:
            return
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every:
            value = self.reference.slowness(self.dense_share)
            self.samples.append((time.perf_counter(), value))

    def start(self):
        self._sample()
        self.item = self.items
        self.items += 1
        self.wall = 0.0
        self.t0 = time.perf_counter()

    def pause(self):
        end = time.perf_counter()
        self.stretches.append((self.item, self.t0, end))
        self.wall += end - self.t0
        self._sample()
        self.t0 = time.perf_counter()

    def stop(self) -> float:
        """End the item; return its wall seconds."""
        self.pause()
        return self.wall

    def times(self) -> list[tuple[float, float]]:
        """(wall seconds, scaled seconds) of every item, in order."""
        self._sample(force=True)
        at = [t for t, _ in self.samples]
        per_item: dict[int, list[float]] = {}
        for item, start, end in self.stretches:
            slow = 1.0
            if self.samples:
                before = self.samples[max(bisect.bisect_right(at, start) - 1, 0)][1]
                after = self.samples[min(bisect.bisect_left(at, end), len(at) - 1)][1]
                slow = math.sqrt(before * after)
            wall, scaled = per_item.setdefault(item, [0.0, 0.0])
            per_item[item] = [wall + end - start, scaled + (end - start) / slow]
        return [tuple(v) for v in per_item.values()]

    def median_slowness(self) -> float:
        return statistics.median(v for _, v in self.samples) if self.samples else 1.0


def _pausing(module, names, pause):
    """Replace ``module.<name>`` for each name by a wrapper that calls ``pause``
    first; return a function that puts the originals back."""
    originals = {name: getattr(module, name) for name in names}

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pause()
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(module, name, wrap(fn))
    return lambda: [setattr(module, name, fn) for name, fn in originals.items()]


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, wl, state, i: int, rec: Recorder | None = None, clock: Clock | None = None):
        """Run item i; return its wall latency in seconds and its work counters.

        With a ``clock`` that has a reference, the item may pause for it to
        sample the host's speed, and the clock keeps its scaled latency.
        """
        clock = clock or Clock()
        inp = wl.make_input(state, i)
        if rec is not None:
            rec.begin_item(i)
        clock.start()
        try:
            out = wl.item(state, inp, clock.pause if clock.reference else None)
        except Exception:              # any failure of the program counts against it
            out = None
            problems = [traceback.format_exc(limit=3)]
        wall = clock.stop()
        if rec is not None:
            rec.end_item()
        work = {}
        if out is not None:
            problems, work = wl.check(state, i, inp, out)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"item {i}: {'; '.join(problems)}")
        return wall, work


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    no percentile qualifies and the maximum is reported, with 0 beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _import_in_child():
    """Start a fresh interpreter that imports what the benchmark imports."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    subprocess.run([sys.executable, "-c", code, HERE, os.path.join(os.path.dirname(HERE), "src")],
                   check=True, timeout=120)


def measure(wl, seed: int, seconds: float) -> dict:
    """Closed loop with tracing off: set up (repeated), then items for ``seconds``.

    ``setup_s`` adds three medians over ``SETUP_REPEATS`` repeats: a fresh
    interpreter importing numpy, scipy and liegate, ``wl.setup``, and the
    warm-up item.  Every time is scaled to the reference's nominal speed
    (see ``Reference``); the wall times are returned beside them.
    """
    tally = Tally()
    ref = Reference()
    parts = {"import": Clock(ref, SETUP_DENSE_SHARE, every=0.0),
             "setup": Clock(ref, SETUP_DENSE_SHARE, every=0.0),
             "warm-up": Clock(ref, wl.dense_share, every=0.0)}
    state = None
    for _ in range(SETUP_REPEATS):
        parts["import"].start()
        _import_in_child()
        parts["import"].stop()
        if state is not None:
            wl.close(state)
        parts["setup"].start()
        state = wl.setup(seed)
        parts["setup"].stop()
        tally.run(wl, state, 0, clock=parts["warm-up"])
    clock = Clock(ref, wl.dense_share)
    i = 1
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        tally.run(wl, state, i, clock=clock)
        i += 1
    wl.close(state)
    # (wall, scaled) median of each set-up part
    setup = {name: tuple(statistics.median(t) for t in zip(*c.times()))
             for name, c in parts.items()}
    wall, scaled = zip(*clock.times())

    def timings(setup_s, latencies):
        value, _, _ = tail(latencies)
        return {
            "setup_s": setup_s,
            "items_per_s": len(latencies) / sum(latencies),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * value,
        }

    _, pct, beyond = tail(scaled)
    metrics = timings(sum(s for _, s in setup.values()), scaled)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "tally": tally,
        "items": len(scaled),
        "busy_s": sum(wall),
        "tail_pct": pct,
        "tail_beyond": beyond,
        "slowness": clock.median_slowness(),
        "setup": setup,
        "wall": timings(sum(w for w, _ in setup.values()), wall),
        "metrics": metrics,
    }


def trace(wl, seed: int, span_path: str | None = None) -> dict:
    """Fixed item count, traced then untraced, so work counters repeat exactly."""
    tally = Tally()
    rec = Recorder()
    rec.instrument(liegate)
    traced = []
    try:
        state = wl.setup(seed)
        tally.run(wl, state, 0)        # warm-up item, traced as set-up
        for i in range(1, wl.trace_items + 1):
            elapsed, work = tally.run(wl, state, i, rec)
            traced.append(elapsed)
            for key, value in work.items():
                rec.counters[key] += value
    finally:
        rec.close()
    untraced = [tally.run(wl, state, i)[0] for i in range(1, wl.trace_items + 1)]
    wl.close(state)
    if span_path is not None:
        rec.write(span_path)
    return {"tally": tally, "items": wl.trace_items,
            "metrics": rec.metrics(overhead_ratio=sum(traced) / sum(untraced))}
