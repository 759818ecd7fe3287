"""Coefficient profiles and the planar-to-radial reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liegate import coeffs, presets
from liegate.coeffs import (
    Constant,
    Derived,
    Exponential,
    FieldProfile2D,
    Sinusoid,
    Tabulated,
    profile_from_dict,
    reduce_2d,
)
from liegate.errors import DomainError


class TestProfiles:
    def test_constant(self):
        assert float(Constant(3.0)(7.0)) == 3.0
        assert Constant(3.0).derivative(2.0) == 0.0

    def test_sinusoid_quarter_period(self):
        prof = Sinusoid(amplitude=1.0, omega=2.0, phase=0.0, offset=0.0)
        assert float(prof(math.pi / 4)) == pytest.approx(1.0, abs=1e-15)

    def test_sinusoid_derivative(self):
        prof = Sinusoid(amplitude=2.0, omega=3.0, phase=0.4, offset=0.7)
        t = 1.3
        h = 1e-6
        fd = (prof(t + h) - prof(t - h)) / (2 * h)
        assert prof.derivative(t) == pytest.approx(fd, rel=1e-8)

    def test_exponential(self):
        prof = Exponential(prefactor=2.0, rate=-0.5)
        assert float(prof(2.0)) == pytest.approx(2.0 * math.exp(-1.0))
        assert prof.derivative(2.0) == pytest.approx(-1.0 * math.exp(-1.0))

    def test_tabulated_tracks_cubic(self):
        # oracle: dense tabulation of t^3; the sparse natural spline through
        # (0,0),(1,1),(2,8),(3,27) lands 0.225 away at t=1.5 (the natural
        # boundary condition y''=0 is what limits it here)
        sparse = Tabulated(knots_t=(0.0, 1.0, 2.0, 3.0), knots_v=(0.0, 1.0, 8.0, 27.0))
        ts = np.linspace(0.0, 3.0, 301)
        dense = Tabulated(knots_t=tuple(ts), knots_v=tuple(ts**3))
        assert abs(float(dense(1.5)) - 1.5**3) < 1e-6
        assert abs(float(sparse(1.5)) - float(dense(1.5))) < 0.25
        assert float(sparse(1.5)) == pytest.approx(3.15, abs=1e-12)

    def test_tabulated_refuses_extrapolation(self):
        prof = Tabulated(knots_t=(0.0, 1.0, 2.0), knots_v=(1.0, 2.0, 1.0))
        with pytest.raises(DomainError, match="extrapolation"):
            prof(2.5)
        with pytest.raises(DomainError, match="extrapolation"):
            prof.derivative(-0.1)

    def test_tabulated_needs_increasing_knots(self):
        with pytest.raises(DomainError, match="increasing"):
            Tabulated(knots_t=(0.0, 2.0, 1.0), knots_v=(0.0, 1.0, 2.0))

    @pytest.mark.parametrize("knots_t, knots_v", [
        ((0.0, 0.5, 1.0), (1.0, 1e308, 1.1)),
        ((0.0, 0.5, 1.0), (-1e308, 1e308, -1e308)),
        ((0.0, 1e-300, 1.0), (0.0, 1e-10, 0.0)),
        ((0.0, 1e200), (1.0, 2.0)),
        ((-1e308, 0.0, 1e308), (1.0, 2.0, 1.0)),
        ((0.0, 5e-324, 1.0), (1.7e308, -1.7e308, 1.7e308)),
        ((0.0, 1e160, 1.0000000000001e160), (1.0, 2.0, 1.0)),
    ], ids=["slope", "alternating", "cubic-term", "wide-gap", "gaps-overflow",
            "subnormal-gap", "first-gap-squared"])
    def test_tabulated_refuses_a_spline_that_overflows(self, knots_t, knots_v):
        # finite knots whose slopes, cubic terms, squared end gap (the
        # natural end row's 0 * dx**2) or diagonal overflow; a numpy
        # overflow warning would fail the test
        with pytest.raises(DomainError, match="not finite"):
            Tabulated(knots_t=knots_t, knots_v=knots_v)

    @pytest.mark.parametrize(
        "prof",
        [
            Constant(2.5),
            Sinusoid(1.0, 2.0, 0.3, 0.5),
            Exponential(1.5, -0.7),
            Tabulated(knots_t=(-1.0, 0.5, 2.0, 4.0), knots_v=(0.0, 1.0, -1.0, 2.0)),
        ],
    )
    def test_shifted_rebases_the_clock(self, prof):
        t0 = 0.8
        shifted = prof.shifted(t0)
        for t in (0.0, 0.4, 1.1):
            assert shifted(t) == pytest.approx(float(prof(t + t0)), rel=1e-12, abs=1e-12)
            assert shifted.derivative(t) == pytest.approx(
                float(prof.derivative(t + t0)), rel=1e-12, abs=1e-12
            )

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown profile kind"):
            profile_from_dict({"kind": "sawtooth"})
        with pytest.raises(DomainError, match="unknown profile keys"):
            profile_from_dict({"kind": "constant", "value": 1.0, "slope": 2.0})


def knot_sets(seed: int, count: int):
    """Seeded (t, v) knot arrays, 2 to 13 knots: even, jittered and
    scattered spacings, gaps up to 1e3 times their neighbour (a second gap
    more than twice the first makes dgtsv interchange the first two rows),
    values from 1e-8 to 1e8 in size."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 14))
        gaps = [np.full(n - 1, 0.5), rng.uniform(0.01, 1.0, n - 1),
                rng.uniform(0.01, 1.0, n - 1) * rng.choice([1e-3, 1.0, 1e3], n - 1),
                10.0 ** rng.uniform(-8, 8, n - 1)][k % 4]
        t = np.cumsum(np.append(rng.uniform(-5.0, 5.0), gaps))
        v = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
        yield t, v


# (t, v) sets beside the seeded ones: the fewest knots, constants (a
# derivative that is identically zero), a straight line, double roots of
# the derivative, and first-row interchanges
SPLINE_CASES = [
    ((0.0, 1.0), (1.0, 2.0)),
    ((0.0, 1.0, 2.0), (1.0, -1.0, 1.0)),
    ((0.0, 0.1, 10.0), (1.0, 3.0, -2.0)),
    ((-1.0, 0.0, 1.0, 2.0), (1.0, 1.0, 1.0, 1.0)),
    ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)),
    ((0.0, 1.0, 2.0, 3.0, 4.0), (0.0, 1.0, 0.0, 1.0, 0.0)),
    ((0.0, 1e-3, 1.0, 1e3, 1e3 + 1e-3), (1e-8, 1e8, -1e8, 1e-8, 3.0)),
]


def spline_sets():
    return [*((np.array(t), np.array(v)) for t, v in SPLINE_CASES), *knot_sets(5, 400)]


def scipy_spline(t, v):
    from scipy.interpolate import CubicSpline

    return CubicSpline(t, v, bc_type="natural")


class TestNaturalSpline:
    """The package's natural spline against scipy's ``CubicSpline(t, v,
    bc_type="natural")``, the definition it replaced: coefficients and
    evaluations bit for bit, the zeros of the derivative to 4 ulp."""

    def test_coefficients_are_scipys(self):
        interchanged = 0
        for t, v in spline_sets():
            got = Tabulated(tuple(t), tuple(v))._c
            assert got.tobytes() == scipy_spline(t, v).c.tobytes(), (t, v)
            interchanged += t.size > 2 and t[2] - t[1] > 2.0 * (t[1] - t[0])
        assert interchanged > 50

    def test_values_and_rates_are_ppolys(self):
        for t, v in spline_sets():
            prof, spline = Tabulated(tuple(t), tuple(v)), scipy_spline(t, v)
            inside = [np.nextafter(t[1:], -np.inf), np.nextafter(t[:-1], np.inf)]
            ts = np.concatenate([t, *inside, np.random.default_rng(6).uniform(t[0], t[-1], 40)])
            assert bits_equal(prof(ts), spline(ts)), (t, v)
            assert bits_equal(prof.derivative(ts), spline(ts, 1)), (t, v)
            assert bits_equal(prof(t[-1]), spline(t[-1])) and prof(t[-1]).shape == ()

    def test_derivative_zeros_are_scipys_roots(self):
        listed = 0
        for t, v in spline_sets():
            got = Tabulated(tuple(t), tuple(v)).derivative_zeros()
            want = scipy_spline(t, v).derivative().roots(extrapolate=False)
            assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
            real = ~np.isnan(want)
            ulps = np.abs(got[real].view(np.int64) - want[real].view(np.int64))
            assert np.all(ulps <= 4), (t, v, got, want)
            listed += want.size
        assert listed > 1000

    def test_a_zero_pivot_is_a_domain_error(self, monkeypatch):
        # LAPACK reports a singular matrix where the port divides by zero
        def singular(x, y):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(coeffs, "_natural_spline", singular)
        with pytest.raises(DomainError, match="not finite"):
            Tabulated((0.0, 1.0), (1.0, 2.0))


KNOTS = Tabulated(knots_t=(-1.0, -0.2, 0.5, 1.25, 2.0, 4.0),
                  knots_v=(0.3, 1.0, -1.0, 2.0, 0.7, 1.1))
MASS_KNOTS = Tabulated(knots_t=(0.0, 0.5, 1.2, 2.5), knots_v=(1.0, 1.3, 0.8, 1.1))
SMOOTH = Sinusoid(0.2, 1.3, 0.1, 1.0)
REDUCED = reduce_2d(FieldProfile2D.build(m=SMOOTH, B=Sinusoid(1.5, 2.1, 0.7),
                                         K=Sinusoid(0.3, 0.9, 0.0, 0.5), charge=1.2))
LP = presets.build("lp", {"m": {"kind": "sinusoid", "amplitude": 0.2, "omega": 1.3,
                                "offset": 1.0},
                          "f": {"kind": "tabulated", "knots": [[-1.0, 0.3], [0.5, -1.0],
                                                               [4.0, 1.1]]}})
FLOAT_BRANCH_CASES = {
    "constant": Constant(2.5),
    "sinusoid": Sinusoid(1.0, 2.0, 0.3, 0.5),
    "sinusoid-shifted": Sinusoid(0.7, -3.1, 1.2, 0.2).shifted(0.8),
    "exponential": Exponential(1.5, -0.7),
    "exponential-shifted": Exponential(0.4, 1.1).shifted(-0.3),
    "tabulated": KNOTS,
    "tabulated-shifted": KNOTS.shifted(0.25),
    "derived": Derived(lambda t: np.exp(-t) * np.sin(3.0 * t),
                       lambda t: np.exp(-t) * (3.0 * np.cos(3.0 * t) - np.sin(3.0 * t))),
    "derived-shifted": Derived(SMOOTH, SMOOTH.derivative).shifted(0.4),
    "reduced-a": REDUCED.a,
    "reduced-c": REDUCED.c,
    "reduced-c-shifted": REDUCED.c.shifted(0.3),
    "reduced-c-tabulated-B": reduce_2d(FieldProfile2D.build(m=1.1, B=KNOTS.shifted(-1.0),
                                                            K=0.4)).c,
    "lp-a": LP.a,
    "lp-e": LP.e,
    "kanai-e": presets.build("kanai", {"F0": 0.3, "F1": 0.2}).e,
}


def bits_equal(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def float_branch_mismatches(prof, ts):
    """Times at which the compiled pair, given a float or an np.float64, does
    not give a float with the bits of the array methods, value and
    derivative; the array methods are taken both on the whole array and on
    each time as a 0-d array."""
    bad = []
    for method, compiled in zip((prof.__call__, prof.derivative), prof.scalar()):
        whole = method(ts)
        for k, t in enumerate(ts.tolist()):
            for value in (compiled(t), compiled(np.float64(t))):
                if not (isinstance(value, float) and bits_equal(value, whole[k])
                        and bits_equal(value, method(np.asarray(t)))):
                    bad.append((method.__name__, t))
    return bad


class TestFloatBranch:
    """The compiled pair of ``scalar()``, the float path the solvers read,
    has the bits of the array methods."""

    @pytest.mark.parametrize("name", sorted(FLOAT_BRANCH_CASES))
    def test_float_branch_has_the_array_bits(self, name):
        prof = FLOAT_BRANCH_CASES[name]
        rng = np.random.default_rng(11)
        if prof.knots:
            # every knot, the last included
            lo, hi = prof.knots[0], prof.knots[-1]
            ts = np.concatenate([rng.uniform(lo, hi, 200), prof.knots])
        else:
            ts = rng.uniform(-0.9, 3.9, 200)
        assert float_branch_mismatches(prof, ts) == []

    @pytest.mark.parametrize("m, B, K", [
        (Sinusoid(0.2, 1.3, 0.1, 1.0), Sinusoid(1.5, 2.1, 0.7), Sinusoid(0.3, 0.9, 0.0, 0.5)),
        (Exponential(1.0, 0.3), Constant(2.0), KNOTS.shifted(-1.0)),
        (MASS_KNOTS, Exponential(0.5, -0.2), Constant(0.0)),
    ], ids=["sinusoids", "exponential-m", "tabulated-m"])
    def test_reduced_profiles_match_the_0d_evaluation(self, m, B, K):
        # the reduction compiles by composing the compiled pairs of m, B and
        # K with the formulas its array methods use
        reduced = reduce_2d(FieldProfile2D.build(m=m, B=B, K=K, charge=1.2))
        ts = np.random.default_rng(12).uniform(0.0, 2.4, 200).tolist()
        for prof in (reduced.a, reduced.c):
            for method, compiled in zip((prof.__call__, prof.derivative), prof.scalar()):
                for t in ts:
                    value = compiled(t)
                    assert isinstance(value, float)
                    assert bits_equal(value, method(np.asarray(t))), (prof.label, t)

    def test_derived_callables_receive_the_float(self):
        # the compiled pair hands fn and dfn the time it is given; __call__
        # and derivative hand them a float array
        seen = []
        prof = Derived(lambda t: seen.append(t) or 1.0, lambda t: seen.append(t) or 0.0)
        for p in (prof, prof.shifted(0.25)):
            value, rate = p.scalar()
            value(0.5), rate(np.float64(0.5)), p(np.array([0.5])), p.derivative([0.5])
        assert [type(t) for t in seen] == [float, np.float64, np.ndarray, np.ndarray] * 2
        assert seen[4:6] == [0.75, 0.75]

    def test_reduced_stiffness_with_tabulated_field_is_bitwise(self):
        # B(t) ** 2 would round through pow for a float and through x*x for
        # a 0-d array, one ulp apart for about 1 in 1200 values; the
        # reduction squares as B(t) * B(t) in both
        field = FieldProfile2D.build(m=1.1, B=KNOTS.shifted(-1.0), K=0.4)
        reduced = reduce_2d(field)
        c = reduced.c.scalar()[0]
        ts = np.random.default_rng(13).uniform(0.0, 3.0, 2000).tolist()
        assert [t for t in ts if not bits_equal(c(t), reduced.c(np.asarray(t)))] == []

    def test_tabulated_float_branch_refuses_times_beyond_the_knots(self):
        lo, hi = KNOTS.knots_t[0], KNOTS.knots_t[-1]
        for compiled in KNOTS.scalar():
            assert compiled(lo) == compiled(lo) and compiled(hi) == compiled(hi)
            for t in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
                with pytest.raises(DomainError, match="extrapolation"):
                    compiled(t)


FINITE = st.floats(-3.0, 3.0, allow_nan=False)
PROFILE_SPECS = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, FINITE),
    st.builds(lambda a, w, p, o: {"kind": "sinusoid", "amplitude": a, "omega": w,
                                  "phase": p, "offset": o},
              FINITE, st.floats(-20.0, 20.0), FINITE, FINITE),
    st.builds(lambda f, r: {"kind": "exponential", "prefactor": f, "rate": r},
              FINITE, FINITE),
    st.builds(lambda ts, vs: {"kind": "tabulated",
                              "knots": [[t, v] for t, v in zip(sorted(ts), vs)]},
              st.lists(st.integers(-40, 40).map(lambda k: 0.1 * k),
                       min_size=2, max_size=7, unique=True),
              st.lists(FINITE, min_size=7, max_size=7)),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spec=PROFILE_SPECS, u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_float_branch_property(spec, u):
    prof = profile_from_dict(spec)
    lo, hi = (prof.knots_t[0], prof.knots_t[-1]) if isinstance(prof, Tabulated) else (-4.0, 4.0)
    ts = np.array([lo + x * (hi - lo) for x in u] + [lo, hi])
    assert float_branch_mismatches(prof, ts) == []


def test_knots_follow_the_profiles():
    assert Constant(1.0).knots == Sinusoid(1.0, 2.0).knots == Exponential(1.0, 0.1).knots == ()
    assert KNOTS.knots == KNOTS.knots_t
    assert KNOTS.shifted(0.5).knots == (-1.5, -0.7, 0.0, 0.75, 1.5, 3.5)
    assert Derived(SMOOTH, SMOOTH.derivative, knots=(1.0, 2.0)).shifted(0.5).knots == (0.5, 1.5)
    field = FieldProfile2D.build(m=MASS_KNOTS, B=KNOTS, K=Tabulated((0.0, 0.7), (1.0, 1.0)))
    reduced = reduce_2d(field)
    union = (-1.0, -0.2, 0.0, 0.5, 0.7, 1.2, 1.25, 2.0, 2.5, 4.0)
    assert reduced.a.knots == MASS_KNOTS.knots_t and reduced.c.knots == union
    assert reduced.b.knots == reduced.d.knots == ()
    lp = presets.build("lp", {
        "m": {"kind": "tabulated", "knots": [[0.0, 1.0], [0.5, 1.3], [1.2, 0.8], [2.5, 1.1]]},
        "f": {"kind": "tabulated", "knots": [[-1.0, 0.3], [-0.2, 1.0], [0.5, -1.0],
                                             [1.25, 2.0], [2.0, 0.7], [4.0, 1.1]]},
    })
    assert lp.a.knots == MASS_KNOTS.knots_t and lp.e.knots == KNOTS.knots_t


class TestReduce2D:
    def test_static_trap(self):
        field = FieldProfile2D.build(m=2.0, B=0.0, K=3.0, charge=1.5)
        reduced = reduce_2d(field)
        assert float(reduced.a(0.3)) == pytest.approx(0.5)
        assert float(reduced.c(0.3)) == pytest.approx(3.0)
        assert float(reduced.b(0.3)) == 0.0

    def test_constant_field_cyclotron(self):
        m, b0, q = 2.0, 3.0, 1.0
        field = FieldProfile2D.build(m=m, B=b0, K=0.0, charge=q)
        reduced = reduce_2d(field)
        assert float(reduced.c(1.0)) == pytest.approx(q * q * b0 * b0 / (4 * m))

    def test_sinusoidal_field_stiffness(self):
        m, b0, omega, q = 1.0, 2.0, 3.0, 1.0
        field = FieldProfile2D.build(m=m, B=Sinusoid(b0, omega), K=0.0, charge=q)
        reduced = reduce_2d(field)
        t = 0.47
        expected = q * q * b0 * b0 * math.sin(omega * t) ** 2 / (4 * m)
        assert float(reduced.c(t)) == pytest.approx(expected, rel=1e-12)

    def test_reduced_stiffness_nonnegative_when_trapped(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            field = FieldProfile2D.build(
                m=float(rng.uniform(0.5, 2.0)),
                B=Sinusoid(float(rng.uniform(0, 2)), float(rng.uniform(0.5, 3))),
                K=float(rng.uniform(0.0, 2.0)),
                charge=float(rng.uniform(-2, 2)),
            )
            reduced = reduce_2d(field)
            ts = np.linspace(0, 3, 64)
            assert np.all(np.asarray(reduced.c(ts)) >= 0.0)
            assert np.all(np.asarray(reduced.b(ts)) == 0.0)

    def test_derivative_of_reduced_stiffness(self):
        field = FieldProfile2D.build(
            m=Sinusoid(0.2, 1.3, 0.1, 1.0),
            B=Sinusoid(1.5, 2.1, 0.7),
            K=Sinusoid(0.3, 0.9, 0.0, 0.5),
            charge=1.2,
        )
        reduced = reduce_2d(field)
        t, h = 0.9, 1e-6
        for prof in (reduced.a, reduced.c):
            fd = (float(prof(t + h)) - float(prof(t - h))) / (2 * h)
            assert float(prof.derivative(t)) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_hbar_must_be_positive():
    with pytest.raises(DomainError, match="hbar"):
        coeffs.CoefficientSet1D.build(a=1.0, hbar=0.0)
