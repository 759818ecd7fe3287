"""Explicit Runge-Kutta integration that takes scipy's steps bit for bit.

``solve`` repeats ``scipy.integrate.solve_ivp`` operation for operation with
either of two methods, through one step loop that reads the method as data
(tableau, error norm, interpolant):

- ``"DOP853"``, Dormand-Prince 8(5,3), for the parameter solves and the
  closed forms: its tableau, the norm that blends the E3 and E5 estimates,
  7th-order dense output, and events refined by a port of scipy's ``brentq``;
- ``"RK45"``, Dormand-Prince 5(4), for the oracle: its tableau, the RMS error
  norm, and Shampine's quartic dense output ``h Q cumprod(x) + y_old`` with
  Q = K^T P.

Both share scipy's first-step rule and step-size control (safety 0.9, factor
bounds 0.2 and 10, exponent -1/(order of the error estimate + 1)) and its
array products per stage, the numpy (BLAS) reductions that set the bits, each
an array's own ``.dot`` (``np.dot``'s product without its dispatch); the
elementwise rest runs on Python floats, which give numpy's bits without its
per-call cost.  So ``fun`` and ``event`` get t as a float and y as a list of
floats, as the dense solution returns it, and divide by no part of y that can
be zero (a float raises there).  Steps, states and event times equal scipy's
to the last bit.  The step loop counts the right-hand-side evaluations, and a
solve that would spend more than its work budget, ``_RHS_BUDGET``, fails.

A solve keeps what each step starts from (its t and y, the proposed step
size, the events found and the evaluations spent; f and the event's value
are made again from t and y, so ``fun`` and ``event`` must be pure) and each
segment's first step.  So ``Result.until(t_end)`` returns, bit for bit, the
Result of the same solve with its bounds cut at an earlier t_end.  It keeps
the steps before the first one whose first trial reaches t_end and runs the
step loop again from there (from the segment's start where the first-step
rule gives the shorter segment another first step): a solve to several
horizons costs one solve and a step or two per horizon.
References: Dormand and Prince, J. Comput. Appl. Math. 6 (1980) 19-26;
Shampine, Math. Comp. 46 (1986) 135-150; Hairer, Norsett and Wanner, *Solving
ODEs I* (2nd ed. 1993), II.4-II.6; Brent, *Algorithms for Minimization
without Derivatives* (1973), ch. 4.
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import IntegrationError

__all__ = ["Dense", "Result", "solve"]

_EPS = float(np.finfo(float).eps)
# Below 100 eps the error estimate is rounding noise; scipy raises a smaller
# rtol to this floor too, so the callers that clamp to it take scipy's steps.
RTOL_FLOOR = 100 * _EPS
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_BRENT_TOL, _BRENT_MAXITER = 4 * _EPS, 100   # xtol = rtol, as solve_ivp refines events
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# The work budget: about 3.2 s of the 1D oscillator's parameter solve on one
# Xeon core.  Successful solves in the tests, `liegate verify` (the oracle's
# classical flow, 1,766) and perfbench spend at most 3.8e3; a solve that ends
# in step-size underflow at a coefficient singularity, 7.8e4.
_RHS_BUDGET = 300_000

# Hairer's published DOP853 coefficients, each as the shortest decimal that
# reads back as the same double: nodes C, the rows of A from row 1 as {column:
# value} (rows 13-15 are the dense output's extra stages), the E5 weights,
# the weights E3 subtracts from B, and the dense-output rows D.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
               0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
               0.7777777777777778])
_A_ROWS = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034,
     11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
     14: -9.15095847217987},
)
_E5_ROW = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
           7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
           10: 0.08192320648511571, 11: -0.022355307863886294}
_E3_LESS = {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}
_D_ROWS = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448,
     15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
)


def _matrix(rows, shape, first=0):
    out = np.zeros(shape)
    for i, row in enumerate(rows, start=first):
        out[i, list(row)] = list(row.values())
    return out


_A = _matrix(_A_ROWS, (16, 16), first=1)
_B = _A[12, :12]
_E5 = _matrix([_E5_ROW], (1, 13))[0]
_E3 = np.append(_B, 0.0)
_E3[list(_E3_LESS)] -= list(_E3_LESS.values())
_D = _matrix(_D_ROWS, (4, 16))
_DOP853_EXTRA = [(s, _A[s, :s], float(_C[s])) for s in range(13, 16)]

# Dormand and Prince's RK5(4)7M with Shampine's quartic dense output, as
# scipy writes it: nodes C, rows A, weights B, the error weights E (the
# 4th-order weights less B, over all seven stages), and the interpolant's P.
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5   # np.linalg.norm's own formula


def _dop853_error(KT, h, scale):
    """The step's error norm, blending the E5 and E3 estimates."""
    err5, err3 = KT.dot(_E5) / scale, KT.dot(_E3) / scale
    err5, err3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
    norm = math.sqrt((err5 + 0.01 * err3) * scale.size)
    return abs(h) * err5 / norm if norm else math.nan if err3 else 0.0   # numpy's 0/0 is nan


def _dop853_interpolant(fun, K, KT, t_old, h, y_old, f_old, y, f):
    """The three extra stages and the 7th-order interpolant's rows F, the
    first three as floats and the last four as one product, stored as the
    float columns ``_dop853_at`` reads."""
    for s, a, c in _DOP853_EXTRA:
        K[s] = fun(t_old + c * h, [yi + di * h for yi, di in zip(y_old, KT[s].dot(a).tolist())])
    delta = [yi - oi for yi, oi in zip(y, y_old)]
    F = [delta, [h * fo - d for fo, d in zip(f_old, delta)],
         [2 * d - h * (fi + fo) for d, fi, fo in zip(delta, f, f_old)]]
    return t_old, h, list(zip(*(h * _D.dot(K))[::-1].tolist(), *F[::-1], y_old))


def _dop853_at(step, t):
    t_old, h, columns = step
    x = (float(t) - t_old) / h
    x1 = 1 - x
    return [(((((((0.0 + f6) * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1
             + f0) * x + y0 for f6, f5, f4, f3, f2, f1, f0, y0 in columns]


def _rk45_error(KT, h, scale):
    return _rms(KT.dot(_RK45_E) * h / scale)


def _rk45_interpolant(fun, K, KT, t_old, h, y_old, f_old, y, f):
    return t_old, h, y_old, KT[-1].dot(_RK45_P)


def _rk45_at(step, t):
    """Shampine's quartic at t, as scipy's ``RkDenseOutput`` forms it."""
    t_old, h, y_old, Q = step
    return (h * Q.dot(np.cumprod(np.tile((t - t_old) / h, 4))) + y_old).tolist()


class _Method(NamedTuple):
    """An embedded Runge-Kutta pair as scipy's solver class for it runs: its
    stages after the first as (s, A[s, :s], C[s]), the weights B, the rows
    of the stage store K, the order of the error estimate (it sets the first
    step and the step-size exponent), the error norm of a step from K's
    columns, the interpolant made after a step, and its value at a time."""

    stages: list
    B: np.ndarray
    rows: int
    error_order: int
    error_norm: Callable
    interpolant: Callable
    at: Callable


_METHODS = {
    "DOP853": _Method([(s, _A[s, :s], float(_C[s])) for s in range(1, 12)], _B, 16, 7,
                      _dop853_error, _dop853_interpolant, _dop853_at),
    "RK45": _Method([(s, _RK45_A[s, :s], float(_RK45_C[s])) for s in range(1, 6)], _RK45_B,
                    7, 4, _rk45_error, _rk45_interpolant, _rk45_at),
}


def _first_step(fun, t0, y0, f0, t_bound, rtol, atol, order):
    """scipy's starting step (HNW II.4) for an error estimate of this order."""
    interval = t_bound - t0
    y0, f0 = np.array(y0), np.asarray(f0, dtype=float)
    scale = atol + np.abs(y0) * rtol
    # numpy scalars, so that a zero or infinite norm divides to inf or nan
    d0, d1 = np.float64(_rms(y0 / scale)), np.float64(_rms(f0 / scale))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(float(t0 + h0), (y0 + h0 * f0).tolist()) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), interval)
    return min(100 * h0, (0.01 / max(d1, d2)) ** (1 / (order + 1)), interval)


class Dense:
    """Each step's interpolant, picked for a time as scipy's ``OdeSolution``
    picks it, read as a list of floats; ``ts`` holds the step times.  A step
    is stored in the form its method reads (DOP853's as float columns), so
    a read keeps no state."""

    def __init__(self, ts: list, steps: list, method: _Method):
        self.ts = ts
        self._steps = steps
        self._at = method.at

    def __call__(self, t):
        i = min(max(bisect_left(self.ts, t) - 1, 0), len(self._steps) - 1)
        return self._at(self._steps[i], t)


@dataclass
class Result:
    """Step times, states (a column per time), the dense solution (None unless
    asked for), the event's times, status 1 if it ended the solve, and nfev;
    ``until`` cuts the solve at an earlier time."""

    t: np.ndarray
    y: np.ndarray
    sol: Dense | None
    t_events: list[float]
    status: int
    nfev: int
    _run: _Run = field(repr=False, compare=False)

    def until(self, t_end: float) -> Result:
        """The Result of this solve with the bounds past ``t_end`` dropped
        and t_end as the last, bounds[0] < t_end <= bounds[-1]: the same t,
        y, events, status, nfev and dense reads, bit for bit.

        The steps before the first one whose first trial reaches t_end are
        kept, and the solve is taken up again from that step's start (a
        rejected trial past t_end changes the step, so the accepted step
        does not tell); from its segment's start instead where the first-step
        rule gives the shorter segment another first step.  A solve that a
        terminal event ended before any step reached t_end is its own cut."""
        run, t_end = self._run, float(t_end)
        if not run.bounds[0] < t_end <= run.bounds[-1]:
            raise ValueError(f"t_end={t_end} outside ({run.bounds[0]}, {run.bounds[-1]}]")
        s = next((s for s, seg in enumerate(run.segments) if t_end <= seg.hi), None)
        if t_end == run.bounds[-1] or s is None:
            return self
        seg = run.segments[s]
        with np.errstate(all="ignore"):
            if t_end < seg.hi and float(_first_step(
                    run.fun, *run.start(seg.step, True)[:3], t_end, run.rtol, run.atol,
                    run.method.error_order)) != run.h_abs[seg.step]:
                cut = run.cut(seg.step, run.events[seg.step], seg.nfev, s, t_end)
                cut.segment(t_end)
                return cut.result()
            i = next((i for i in range(seg.step, len(run.h_abs)) if run.reaches(i, t_end)),
                     None)
            if i is None:
                return self
            cut = run.cut(i, run.events[i], run.nfevs[i], s + 1, t_end)
            cut.segments[s] = seg._replace(hi=t_end)
            t, y, f, g = run.start(i, i == seg.step)
            cut.advance(t, y, f, run.h_abs[i], g, t_end)
        return cut.result()


class _Segment(NamedTuple):
    """A segment [lo, hi] of the bounds: the index of its first step and the
    evaluations spent before it."""

    lo: float
    hi: float
    step: int
    nfev: int


class _Run:
    """A solve's problem and progress: the step loop, and the start of each
    step and of each segment, from which ``Result.until`` takes a shorter
    solve up again.  A step starts from its t and y, f and the event's
    value (which ``start`` makes again), and from what ``h_abs``,
    ``events`` and ``nfevs`` hold for it: the proposed step size, the
    number of events found so far and the evaluations spent."""

    def __init__(self, fun, y0, bounds, rtol, atol, what, event, dense, method):
        self.fun, self.rtol, self.atol, self.what = fun, rtol, atol, what
        self.event, self.dense, self.method = event, dense, _METHODS[method]
        self.bounds = [float(b) for b in bounds]
        self.ts, self.ys = [self.bounds[0]], [np.asarray(y0, dtype=float).tolist()]
        self.steps, self.t_events, self.segments = [], [], []
        self.h_abs, self.events, self.nfevs = array("d"), array("q"), array("q")
        self.status = self.nfev = 0

    def spend(self, evaluations, t):   # before they are made
        self.nfev += evaluations
        if self.nfev > _RHS_BUDGET:
            raise IntegrationError(
                f"{self.what} integration failed: work budget of {_RHS_BUDGET} right-hand-side "
                f"evaluations spent by t = {t:.17g}", last_time=t)

    def segment(self, hi: float):
        """Step from the run's end to ``hi`` with the step-size control
        started afresh."""
        t, y = self.ts[-1], self.ys[-1]
        self.segments.append(_Segment(t, hi, len(self.ts) - 1, self.nfev))
        self.spend(2, t)   # f and the first-step probe
        f = self.fun(t, y)
        h_abs = float(_first_step(self.fun, t, y, f, hi, self.rtol, self.atol,
                                  self.method.error_order))
        self.advance(t, y, f, h_abs, None if self.event is None else self.event(t, y), hi)

    def advance(self, t, y, f, h_abs, g, hi):
        """The step loop: steps from t, where y, f = fun(t, y), the proposed
        step size h_abs and the event's value g, up to hi or a terminal
        event."""
        m, fun, event, rtol, atol = self.method, self.fun, self.event, self.rtol, self.atol
        stages, B, rows, error_order, error_norm, make_interpolant, _ = m
        n_stages = len(stages) + 1
        exponent = -1 / (error_order + 1)
        ts, ys, steps, t_events = self.ts, self.ys, self.steps, self.t_events
        K = np.empty((rows, len(y)))   # the stage store, and the views its sums read
        KT = [K[:s].T for s in range(rows + 1)]
        while self.status == 0 and t < hi:
            self.h_abs.append(h_abs)
            self.events.append(len(t_events))
            self.nfevs.append(self.nfev)
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if not h_abs >= min_step:
                    raise IntegrationError(f"{self.what} integration failed: {_TOO_SMALL_STEP}",
                                           last_time=t)
                self.spend(n_stages, t)
                t_new = min(t + h_abs, hi)
                h = t_new - t
                h_abs = abs(h)
                K[0] = f
                for s, a, c in stages:
                    dy = KT[s].dot(a).tolist()
                    K[s] = fun(t + c * h, [yi + di * h for yi, di in zip(y, dy)])
                y_new = [yi + di * h for yi, di in zip(y, KT[n_stages].dot(B).tolist())]
                K[n_stages] = f_new = fun(t + h, y_new)
                scale = np.array([atol + max(abs(yi), abs(zi)) * rtol
                                  for yi, zi in zip(y, y_new)])
                error = error_norm(KT[n_stages + 1], h, scale)
                if error < 1:
                    factor = min(_MAX_FACTOR, _SAFETY * error ** exponent) if error else _MAX_FACTOR
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error ** exponent)
                rejected = True
            t_old, y_old, f_old = t, y, f
            t, y, f = t_new, y_new, f_new

            def interpolant():
                self.spend(rows - n_stages - 1, t)   # DOP853's extra stages
                return make_interpolant(fun, K, KT, t_old, h, y_old, f_old, y, f)

            if self.dense:
                steps.append(interpolant())
            if event is not None:
                g, g_old = event(t, y), g
                if g_old <= 0 <= g or g_old >= 0 >= g:
                    at = Dense([t_old, t], [steps[-1] if self.dense else interpolant()], m)
                    root = _brentq(lambda x: event(x, at(x)), t_old, t)
                    t_events.append(root)
                    if getattr(event, "terminal", False):
                        self.status, t, y = 1, root, at(root)
            ts.append(t)
            ys.append(y)

    def start(self, step: int, first: bool) -> tuple:
        """t, y, f and the event's value at the start of ``step``, made again
        as the step loop made them: f at (t, y) for a segment's ``first``
        step, else at the t + h of the step before."""
        t, y = self.ts[step], self.y[step].tolist()
        t_f = t if first else self.ts[step - 1] + (t - self.ts[step - 1])
        return t, y, self.fun(t_f, y), None if self.event is None else self.event(t, y)

    def reaches(self, step: int, t_end: float) -> bool:
        """Whether the first trial of ``step`` reaches t_end."""
        t = self.ts[step]
        return t + max(self.h_abs[step], 10 * (math.nextafter(t, math.inf) - t)) >= t_end

    def cut(self, step: int, events: int, nfev: int, segments: int, t_end: float) -> _Run:
        """A copy of the run, ending at t_end, as it stood at the start of
        ``step`` with ``events`` events found, ``nfev`` evaluations spent
        and ``segments`` segments opened."""
        run = copy.copy(self)
        run.bounds = [*self.bounds[:bisect_left(self.bounds, t_end)], t_end]
        run.ts, run.ys = self.ts[:step + 1], self.y[:step + 1].tolist()
        run.steps, run.h_abs = self.steps[:step], self.h_abs[:step]
        run.events, run.nfevs = self.events[:step], self.nfevs[:step]
        run.t_events, run.segments = self.t_events[:events], self.segments[:segments]
        run.status, run.nfev = 0, nfev
        return run

    def result(self) -> Result:
        """The solve's Result; the run keeps its states in the Result's
        array from here on."""
        self.y, self.ys = np.array(self.ys), None
        return Result(t=np.array(self.ts), y=self.y.T,
                      sol=Dense(self.ts, self.steps, self.method) if self.dense else None,
                      t_events=self.t_events, status=self.status, nfev=self.nfev, _run=self)


def solve(fun, y0, bounds, rtol: float, atol: float, what: str, event=None,
          dense: bool = True, method: str = "DOP853") -> Result:
    """Solve y' = fun(t, y), y(bounds[0]) = y0 up to bounds[-1] with
    ``method`` ("DOP853" or "RK45"), restarting the step-size control at
    every interior bound; ``bounds`` increase.

    A sign change of ``event(t, y)`` over a step is refined to a root on the
    step's interpolant, which ends the solve if ``event.terminal`` is true.
    DOP853's interpolant costs three extra stages; with ``dense`` it is made
    on every step, else only where the event fires.  Step-size underflow (NaN
    too) or a spent work budget raises IntegrationError at the time reached."""
    run = _Run(fun, y0, bounds, rtol, atol, what, event, dense, method)
    # a solution that overflows ends in step-size underflow (IntegrationError),
    # not in numpy's warnings
    with np.errstate(all="ignore"):
        for hi in run.bounds[1:]:
            run.segment(hi)
            if run.status:
                break
    return run.result()


def _brentq(f, xa: float, xb: float) -> float:
    """A root of f in [xa, xb] by scipy's ``brentq`` iteration (Brent 1973,
    chapter 4), operation for operation, so the iterates are the same."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_TOL + _BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf   # where C divides by zero, stry is inf or nan: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:   # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")
