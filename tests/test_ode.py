"""The package's DOP853 and RK45 against scipy's, which they repeat bit for bit.

Every solve that paramflow and closedforms make on the shipped configs and
on seeded systems (spline knots, terminal events, step-size failures) is
recorded and solved again by ``solve_ivp(method="DOP853")`` from bound to
bound, the way paramflow solved before it had an integrator of its own.
Every solve the oracle makes in ``liegate verify`` and in acceptance
criteria 4 and 5 is solved again by ``solve_ivp(method="RK45")``, the way
the oracle solved before, and its dense solution is read at the times the
checks read it.
"""

import math
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as published
from scipy.integrate._ivp.common import norm as scipy_norm
from scipy.integrate._ivp.rk import DOP853, RK45
from scipy.optimize import brentq as scipy_brentq

from liegate import cli, closedforms, ode, oracle, paramflow, verify
from liegate.coeffs import CoefficientSet1D, Derived, FieldProfile2D, Sinusoid, Tabulated
from liegate.errors import CausticError, IntegrationError, LiegateError
from liegate.paramflow import solve_2d, solve_path1, solve_path2
from liegate.verify import Grid, random_smooth_coeffs

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_tableau_equals_scipys_bitwise():
    pairs = [(ode._A, published.A), (ode._B, published.B), (ode._C, published.C),
             (ode._E3, published.E3), (ode._E5, published.E5), (ode._D, published.D)]
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def test_rk45_tableau_equals_scipys_bitwise():
    pairs = [(ode._RK45_A, RK45.A), (ode._RK45_B, RK45.B), (ode._RK45_C, RK45.C),
             (ode._RK45_E, RK45.E), (ode._RK45_P, RK45.P)]
    for mine, theirs in pairs:
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def scipy_solve(fun, y0, bounds, rtol, atol, event=None, dense=True, method="DOP853"):
    """solve_ivp's ``method`` from bound to bound, its segments joined into
    one step grid and one OdeSolution."""
    segments, y = [], y0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = solve_ivp(fun, (lo, hi), y, method=method, rtol=rtol, atol=atol,
                        dense_output=dense, events=None if event is None else [event])
        segments.append(seg)
        if seg.status != 0:
            break
        y = seg.y[:, -1]
    t = np.concatenate([segments[0].t] + [seg.t[1:] for seg in segments[1:]])
    return SimpleNamespace(
        t=t, y=np.concatenate([segments[0].y] + [seg.y[:, 1:] for seg in segments[1:]], axis=1),
        sol=OdeSolution(t, [p for seg in segments for p in seg.sol.interpolants])
        if dense and segments[-1].status != -1 else None,
        t_events=[] if event is None else [float(x) for seg in segments for x in seg.t_events[0]],
        status=segments[-1].status, message=segments[-1].message)


def counted(fun):
    def wrapper(t, y):
        wrapper.calls += 1
        return fun(t, y)

    wrapper.calls = 0
    return wrapper


def listed(fun):
    """fun, asserting the step loop's contract: t a float, y a list of floats
    (scipy passes numpy arrays, which the same fun must read alike)."""
    def wrapper(t, y):
        assert type(t) is float and type(y) is list and all(type(v) is float for v in y)
        return fun(t, y)

    return wrapper


def assert_same_as_scipy(fun, y0, bounds, rtol, atol, what, event=None, dense=True,
                         method="DOP853", times=()):
    """Steps, states, events, right-hand-side calls and failure as scipy's,
    with ``fun`` given floats; the dense solution as scipy's at the step
    times, at 40 random times and at ``times``."""
    ref_fun, our_fun = counted(fun), counted(listed(fun))
    ref = scipy_solve(ref_fun, y0, bounds, rtol, atol, event, dense, method)
    if ref.status == -1:
        with pytest.raises(IntegrationError) as err:
            ode.solve(our_fun, y0, bounds, rtol, atol, what, event, dense, method)
        assert str(err.value) == f"{what} integration failed: {ref.message}"
        assert err.value.last_time == ref.t[-1]
        assert our_fun.calls == ref_fun.calls
        return
    ours = ode.solve(our_fun, y0, bounds, rtol, atol, what, event, dense, method)
    assert ours.t.tobytes() == ref.t.tobytes()
    assert ours.y.tobytes() == ref.y.tobytes()
    assert np.array(ours.t_events).tobytes() == np.array(ref.t_events).tobytes()
    assert ours.status == ref.status
    # the same right-hand-side evaluations, extra stages included, and the
    # step loop's count, which the work budget reads, is theirs
    assert ours.nfev == our_fun.calls == ref_fun.calls
    if dense:
        rng = np.random.default_rng(len(ref.t))
        times = np.concatenate([ref.t, rng.uniform(ref.t[0], ref.t[-1], 40), times])
        assert (np.array([ours.sol(t) for t in times]).tobytes()
                == np.array([ref.sol(t) for t in times]).tobytes())


@pytest.fixture
def recorded(monkeypatch):
    """Every ode.solve call made while the test runs, as its arguments, and
    the times its dense solution is read at."""
    calls, solve = [], ode.solve

    def recording(fun, y0, bounds, rtol, atol, what, event=None, dense=True, method="DOP853"):
        times = []
        calls.append((fun, y0, bounds, rtol, atol, what, event, dense, method, times))
        result = solve(fun, y0, bounds, rtol, atol, what, event, dense, method)
        if method == "RK45":   # the oracle reads its solution through FlowResult.at alone
            sol = result.sol

            def reading(t):
                times.append(t)
                return sol(t)

            result.sol = reading
        return result

    monkeypatch.setattr(ode, "solve", recording)
    return calls


def replay(calls, monkeypatch):
    monkeypatch.undo()
    assert calls
    for call in calls:
        assert_same_as_scipy(*call)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_solve_as_scipy_does(config, recorded, monkeypatch):
    for path in ("path1", "path2"):
        cfg = cli.load_config(str(CONFIGS / config), {"path": path})
        try:
            paramflow.solve(cli.build_problem(cfg), float(cfg["t_end"]), float(cfg["tol"]), path)
        except LiegateError:
            pass   # a route this system does not admit
    replay(recorded, monkeypatch)


KNOTS = tuple(np.linspace(0.0, 3.0, 13))


def spline_system(seed: int) -> CoefficientSet1D:
    rng = np.random.default_rng(seed)
    cs = random_smooth_coeffs(rng)
    a = Tabulated(KNOTS, tuple(1.0 + 0.2 * np.sin(rng.uniform(1, 3) * np.array(KNOTS))))
    return CoefficientSet1D(a=a, b=cs.b, c=cs.c, d=cs.d, e=cs.e, g=cs.g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_spline_systems_solve_as_scipy_does(seed, recorded, monkeypatch):
    cs = spline_system(seed)
    solve_path1(cs, 3.0, 1e-10)
    solve_path2(CoefficientSet1D(a=cs.a, b=cs.b, c=Sinusoid(0.3, 1.1, 0.0, 1.5), d=cs.d,
                                 e=cs.e, g=cs.g), 3.0, 1e-9)
    solve_2d(FieldProfile2D(m=cs.a, B=Tabulated(KNOTS, tuple(2.0 + np.cos(KNOTS))),
                            K=Sinusoid(0.2, 1.3, 0.0, 0.5), Ex=cs.d, Ey=cs.e, charge=1.0),
             3.0, 1e-11, path="path2")
    replay(recorded, monkeypatch)


def test_terminal_events_and_failures_solve_as_scipy_does(recorded, monkeypatch):
    # the route-2 quadratic phase blows up (terminal event) at t = 1.85
    tr = solve_path2(CoefficientSet1D.build(a=1.0, b=Sinusoid(2.0, 1.0), c=1.0), 3.0, 1e-10)
    assert tr._riccati_t_end < 3.0
    # the Mathieu cosine vanishes first (terminal event without dense output)
    with pytest.raises(CausticError):
        closedforms.ion_trap_params_at(1.0, 1.0, 0.3, 5.0, (3.0,))
    closedforms.bfield_sin_params_at(1.0, 2.0, 3.0, 1.0, (0.4,))
    closedforms.mathieu_c(2.0, 0.5, 1.0)
    # step-size underflow at a pole of c
    sing = Derived(fn=lambda t: 1.0 / (1.02 - t) ** 2, dfn=lambda t: 2.0 / (1.02 - t) ** 3)
    with pytest.raises(IntegrationError, match="Required step size"):
        solve_path1(CoefficientSet1D.build(a=1.0, c=sing), 1.2, tol=1e-6)
    assert sum(call[6] is not None and getattr(call[6], "terminal", False)
               for call in recorded) >= 2
    # the Mathieu solves with and without the 1/C^2 quadrature
    assert {len(call[1]) for call in recorded if call[5] == "Mathieu"} == {2, 3}
    replay(recorded, monkeypatch)


ORACLE_RUNS = {
    "verify-seed-0": lambda: verify.run_suite(0),
    "verify-seed-7": lambda: verify.run_suite(7),
    # acceptance criteria 4 and 5, on their grids
    "criterion-4": lambda: verify.check_oracle_maps(times=Grid(0.05, 15),
                                                    planar_times=Grid(0.05, 10)),
    "criterion-5": lambda: verify.check_classical_identification(55, n_random=6,
                                                                 times=Grid(0.1, 15)),
}


@pytest.mark.parametrize("run", list(ORACLE_RUNS))
def test_oracle_solves_as_scipys_rk45(run, recorded, monkeypatch):
    ORACLE_RUNS[run]()
    solves = [call for call in recorded if call[8] == "RK45"]
    assert solves and all(times for *_, times in solves)
    replay(solves, monkeypatch)


def test_rk45_step_size_underflow_fails_as_scipys(recorded, monkeypatch):
    # the oracle's fundamental matrix at a pole of c
    sing = Derived(fn=lambda t: 1.0 / (1.02 - t) ** 2, dfn=lambda t: 2.0 / (1.02 - t) ** 3)
    with pytest.raises(IntegrationError, match="Required step size"):
        oracle.fundamental_matrix(CoefficientSet1D.build(a=1.0, c=sing), 1.2, tol=1e-6)
    replay(recorded, monkeypatch)


def oscillator(t, y):
    return y[1], -(1.0 + 0.3 * math.cos(t)) * y[0]


def crossing(t, y):
    return y[0]


def first_crossing(t, y):
    return y[0]


first_crossing.terminal = True


@pytest.mark.parametrize("bounds, event, dense, method", [
    ((0.0, 1.0, 2.5, 4.0), crossing, True, "DOP853"),
    ((0.0, 4.0), first_crossing, False, "DOP853"),
    ((0.0, 4.0), None, False, "DOP853"),
    ((0.0, 4.0), crossing, True, "RK45"),
], ids=["dop853-dense-segments", "dop853-event-only", "dop853-bare", "rk45"])
def test_the_work_budget_admits_exactly_the_evaluations_made(bounds, event, dense, method,
                                                             monkeypatch):
    # the step loop counts each attempt's stages, each segment's start and
    # each interpolant's extra stages before it makes them: a budget of the
    # calls made is enough, and one fewer fails at the step that needs it
    def solve(fun):
        return ode.solve(fun, [1.0, 0.0], bounds, 1e-9, 1e-11, "test", event, dense, method)

    fun = counted(oscillator)
    made = solve(fun).nfev
    assert made == fun.calls > 0
    monkeypatch.setattr(ode, "_RHS_BUDGET", made)
    assert solve(oscillator).nfev == made
    monkeypatch.setattr(ode, "_RHS_BUDGET", made - 1)
    fun = counted(oscillator)
    with pytest.raises(IntegrationError, match=f"test integration failed: work budget of "
                                               f"{made - 1} right-hand-side evaluations"):
        solve(fun)
    assert fun.calls < made


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("fun, y0", [
    (lambda t, y: (0.0 if t == 0.0 else math.nan,), [0.0]),
    (lambda t, y: (y[1], 0.0 if t == 0.0 else math.nan), [0.0, 0.0]),
    (lambda t, y: (math.inf,), [1.0]),
], ids=["nan-after-rest", "nan-after-rest-2", "inf-at-start"])
def test_degenerate_first_steps_fail_as_scipys(fun, y0, method):
    # the first-step rule divides by a zero norm and by a zero step here,
    # which numpy (and so scipy) turns into inf or nan and a float raises
    with np.errstate(all="ignore"):
        assert_same_as_scipy(fun, y0, (0.0, 1.0), 1e-6, 1e-8, "test", method=method)


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
def test_terminal_root_at_a_steps_start_solves_as_scipys(method):
    # the event is exactly zero at t0: the first step's root is its start,
    # and scipy keeps that step, so t is [t0, t0] and the dense solution
    # answers at t0
    def at_start(t, y):
        return y[0]

    def fun(t, y):
        return [1.0, -y[0]]

    at_start.terminal = True
    result = ode.solve(fun, [0.0, 1.0], (0.0, 1.0), 1e-8, 1e-10, "test", at_start, True, method)
    assert result.t.tolist() == [0.0, 0.0] and result.status == 1
    assert result.sol(0.0) == [0.0, 1.0]
    assert_same_as_scipy(fun, [0.0, 1.0], (0.0, 1.0), 1e-8, 1e-10, "test", at_start,
                         method=method)


def test_error_norms_are_scipys_bitwise():
    # the norms' scalar tails run on floats; at a zero E5 sum beside an E3
    # sum that 0.01 scales to zero, scipy's 0/0 is nan
    rng, h = np.random.default_rng(3), 0.125
    x = 1e-161
    degenerate = np.zeros((13, 2))
    degenerate[0, 0], degenerate[5, 0] = DOP853.E5[5] * x, -DOP853.E5[0] * x
    stores = [degenerate, np.zeros((13, 3)),
              *[rng.normal(size=(13, 3)) * 10.0 ** rng.uniform(-170, 170) for _ in range(300)]]
    dop853 = SimpleNamespace(E5=DOP853.E5, E3=DOP853.E3)
    with np.errstate(all="ignore"):
        for K in stores:
            scale = 1e-12 + np.abs(rng.normal(size=K.shape[1]))
            expected = DOP853._estimate_error_norm(dop853, K, h, scale)
            assert float(ode._dop853_error(K.T, h, scale)).hex() == float(expected).hex()
            expected = scipy_norm(np.dot(K[:7].T, RK45.E) * h / scale)
            assert float(ode._rk45_error(K[:7].T, h, scale)).hex() == float(expected).hex()
    assert math.isnan(ode._dop853_error(degenerate.T, h, np.ones(2)))


def test_mathieu_cosine_is_even():
    ahead, back = closedforms.mathieu_c(2.0, 0.5, 1.3), closedforms.mathieu_c(2.0, 0.5, -1.3)
    assert (back.C, back.Cp) == (ahead.C, -ahead.Cp)


FUNCTIONS = [
    lambda c: lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3],
    lambda c: lambda x: math.sin(c[0] * x + c[1]) + 0.5 * c[2],
    lambda c: lambda x: math.exp(c[0] * x) - 1.0 - c[3] * x * x,
]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(kind=st.integers(0, len(FUNCTIONS) - 1),
       coefficients=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       a=st.floats(-4.0, 4.0), width=st.floats(1e-9, 6.0), at=st.floats(0.0, 1.0))
def test_brent_port_takes_scipys_iterates(kind, coefficients, a, width, at):
    # shifted to vanish at a + at * width, so most brackets hold a sign change
    g, b = FUNCTIONS[kind](coefficients), a + width
    level = g(a + at * width)
    f = lambda x: g(x) - level
    try:
        expected = scipy_brentq(f, a, b, xtol=ode._BRENT_TOL, rtol=ode._BRENT_TOL,
                                maxiter=ode._BRENT_MAXITER)
    except (ValueError, RuntimeError) as err:
        with pytest.raises(type(err)):
            ode._brentq(f, a, b)
        return
    assert ode._brentq(f, a, b).hex() == float(expected).hex()


def spring(t, y):
    return y[1], -(9.0 + 3.0 * math.cos(t)) * y[0]


def drift(t, y):
    # y' starts small and its rate large: the first-step rule's probe step
    # is longer than its step, and a shorter segment moves the probe
    return (0.1 + math.sin(100.0 * t),)


def spring_solve(bounds, event=None, dense=True, method="DOP853", fun=spring):
    y0 = [1.0, 0.0][:2 if fun is spring else 1]
    return ode.solve(fun, y0, bounds, 1e-9, 1e-11, "test", event, dense, method)


def direct_and_cut(bounds, t_end, event=None, dense=True, method="DOP853", fun=spring):
    """The solve of ``fun`` (the spring or the drift) over ``bounds`` cut at
    t_end, asserted to be the solve over the bounds below t_end and t_end,
    bit for bit; returns (full, cut)."""
    solve = lambda b: spring_solve(b, event, dense, method, fun)
    full = solve(bounds)
    cut = full.until(t_end)
    ref = solve([*(b for b in bounds if b < t_end), t_end])
    assert cut.t.tobytes() == ref.t.tobytes() and cut.y.tobytes() == ref.y.tobytes()
    assert np.array(cut.t_events).tobytes() == np.array(ref.t_events).tobytes()
    assert (cut.status, cut.nfev) == (ref.status, ref.nfev)
    assert (cut.sol is None) == (ref.sol is None) == (not dense)
    if dense:
        times = np.concatenate([ref.t, np.random.default_rng(3).uniform(0.0, ref.t[-1], 60)])
        assert (np.array([cut.sol(t) for t in times]).tobytes()
                == np.array([ref.sol(t) for t in times]).tobytes())
    return full, cut


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "bare"])
def test_a_cut_solve_is_the_shorter_solve(method, dense):
    # cuts at random times and at 30 step times, across two knots, with an
    # event that fires several times
    bounds = (0.0, 1.0, 2.5, 4.0)
    full = spring_solve(bounds, crossing, dense, method)
    assert len(full.t_events) >= 3
    cuts = [*np.random.default_rng(0).uniform(0.0, 4.0, 30),
            *full.t[1::math.ceil(len(full.t) / 30)]]
    for t_end in cuts:
        direct_and_cut(bounds, t_end, crossing, dense, method)


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
def test_a_cut_at_a_knot_or_past_it_keeps_the_segments_before(method):
    bounds = (0.0, 1.0, 2.5, 4.0)
    full, at_knot = direct_and_cut(bounds, 2.5, crossing, method=method)
    # the segments up to the knot are the full solve's, steps and work alike
    kept = full.t.tolist().index(2.5) + 1
    assert at_knot.t.tolist() == full.t[:kept].tolist() and at_knot.nfev < full.nfev
    _, past = direct_and_cut(bounds, 3.1, crossing, method=method)
    assert past.t[:kept].tolist() == full.t[:kept].tolist()


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("bounds, t_end", [((0.0, 4.0), 1e-4), ((0.0, 1.0, 4.0), 1.0 + 1e-4)],
                         ids=["first-segment", "after-a-knot"])
def test_a_cut_inside_the_first_step_takes_it_to_the_cut(method, bounds, t_end):
    # the first-step rule clips its step to the shorter segment
    full, cut = direct_and_cut(bounds, t_end, method=method)
    start = full.t.tolist().index(bounds[-2])
    assert full.t[start + 1] > t_end and cut.t[-1] == t_end and len(cut.t) == start + 2


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("bounds, t_end", [((0.0, 1.0), 0.05), ((0.0, 0.5, 1.0), 0.55)],
                         ids=["first-segment", "after-a-knot"])
def test_a_first_step_the_shorter_segment_moves_takes_the_segment_again(method, bounds,
                                                                         t_end):
    # the rule's probe step is clipped to the shorter segment, and the step
    # it then gives is another one, short of t_end: the segment is taken
    # again from its start
    full, cut = direct_and_cut(bounds, t_end, method=method, fun=drift)
    start = full.t.tolist().index(bounds[-2])
    assert full.t[start + 1] != cut.t[start + 1] < t_end


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "bare"])
def test_an_event_in_the_step_taken_again_is_found_again(method, dense):
    full = spring_solve((0.0, 4.0), crossing, dense, method)
    root = full.t_events[0]
    step = int(np.searchsorted(full.t, root))   # the step from t[step - 1] holds the root
    t_end = (root + full.t[step]) / 2
    _, cut = direct_and_cut((0.0, 4.0), t_end, crossing, dense, method)
    assert cut.t[-2] < cut.t_events[-1] < t_end == cut.t[-1]


@pytest.mark.parametrize("method", ["DOP853", "RK45"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "bare"])
def test_a_terminal_event_before_or_after_the_cut(method, dense):
    bounds = (0.0, 0.3, 1.0, 4.0)
    root = spring_solve(bounds, first_crossing, dense, method).t_events[0]
    assert 0.3 < root < 1.0
    # past the step that holds the root, the event ends both solves the same
    # way and the solve is its own cut: at the next knot, and in a segment
    # the solve never opened
    for t_end in (3.9, 1.0):
        full, cut = direct_and_cut(bounds, t_end, first_crossing, dense, method)
        assert cut is full and cut.t_events == [root]
    # a cut inside that step takes it again, which can move the root by a
    # rounding; a cut before the root ends at t_end with no event
    for t_end, ended in ((root + 1e-9, 1), (root - 1e-9, 0), ((root + 0.3) / 2, 0), (0.2, 0)):
        full, cut = direct_and_cut(bounds, t_end, first_crossing, dense, method)
        assert cut.status == len(cut.t_events) == ended
        assert cut.t[-1] == (cut.t_events[0] if ended else t_end)


def test_a_cut_of_a_cut_is_the_shorter_solve():
    full, cut = direct_and_cut((0.0, 1.0, 4.0), 3.0, crossing)
    assert len(cut.t_events) > len(cut.until(2.0).t_events) > 0
    assert full.until(2.0).t.tobytes() == cut.until(2.0).t.tobytes()
    assert cut.until(2.0).nfev == full.until(2.0).nfev
    with pytest.raises(ValueError, match="outside"):
        cut.until(3.5)
    with pytest.raises(ValueError, match="outside"):
        cut.until(0.0)
