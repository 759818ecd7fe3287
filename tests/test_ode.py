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
from scipy.integrate._ivp.rk import RK45
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


def assert_same_as_scipy(fun, y0, bounds, rtol, atol, what, event=None, dense=True,
                         method="DOP853", times=()):
    """Steps, states, events, right-hand-side calls and failure as scipy's;
    the dense solution as scipy's at the step times, at 40 random times and
    at ``times``."""
    ref_fun, our_fun = counted(fun), counted(fun)
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
    # the budget counts the same right-hand-side evaluations, extra stages included
    assert our_fun.calls == ref_fun.calls
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
    # each recorded right-hand side still counts against its solve's budget
    monkeypatch.setattr(paramflow, "_RHS_BUDGET", 10**9)
    assert calls
    for call in calls:
        assert_same_as_scipy(*call)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_solve_as_scipy_does(config, recorded, monkeypatch):
    for path in ("path1", "path2"):
        cfg = cli.load_config(str(CONFIGS / config), {"path": path})
        kind, problem = cli.build_problem(cfg)
        try:
            cli._solve(cfg, kind, problem)
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
        closedforms.ion_trap_params(1.0, 1.0, 0.3, 5.0, 3.0)
    closedforms.bfield_sin_params(1.0, 2.0, 3.0, 1.0, 0.4)
    closedforms.mathieu_c(2.0, 0.5, 1.0)
    # step-size underflow at a pole of c
    sing = Derived(fn=lambda t: 1.0 / (1.02 - t) ** 2, dfn=lambda t: 2.0 / (1.02 - t) ** 3)
    with pytest.raises(IntegrationError, match="Required step size"):
        solve_path1(CoefficientSet1D.build(a=1.0, c=sing), 1.2, tol=1e-6)
    assert sum(call[6] is not None and getattr(call[6], "terminal", False)
               for call in recorded) >= 2
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
