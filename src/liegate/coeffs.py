"""Time-dependent Hamiltonian coefficient model.

A 1D Hamiltonian is H = a/2 p^2 + b/2 (xp+px) + c/2 x^2 + d p + e x + g with
every coefficient an arbitrary function of time; the 2D charged particle is
described by mass, magnetic field, trap stiffness and in-plane electric
field profiles.  ``reduce_2d`` maps the latter onto the shared radial 1D
oscillator of the rotating frame.

Each profile's maths is written once, in the float pair its ``scalar()``
compiles to; arrays are read by mapping that pair.  Profiles never
extrapolate: evaluating a tabulated profile outside its knot range is an
error, not a guess.  A tabulated profile is a natural cubic
spline of the module's own: the natural-end slope system (de Boor, *A
Practical Guide to Splines*, 2001, ch. IV), solved by a port of LAPACK's
``dgtsv`` (Anderson et al., *LAPACK Users' Guide*, 1999), and summed in
scipy's ``PPoly`` order, so it has the bits of scipy's ``CubicSpline``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "TimeProfile",
    "Constant",
    "Sinusoid",
    "Exponential",
    "Tabulated",
    "Derived",
    "profile_from_dict",
    "as_profile",
    "CoefficientSet1D",
    "FieldProfile2D",
    "reduce_2d",
]


def check_horizon(t_end: float):
    """Refuse a horizon [0, t_end] that a solve or check cannot read profiles over."""
    if not 0 < t_end < math.inf:
        raise DomainError("t_end must be positive and finite")


def check_hbar(hbar: float):
    """Refuse an hbar that is not positive and finite (NaN included)."""
    if not 0 < hbar < math.inf:
        raise DomainError("hbar must be positive and finite")


class TimeProfile:
    """A deterministic, side-effect-free scalar function of time.

    ``scalar()``, the method a custom profile defines, compiles it to
    (value, derivative): two functions of a float that return a float.  The
    solvers compile each coefficient once per solve, and ``__call__`` and
    ``derivative`` map the pair over an array, with NaN where it raises an
    arithmetic or math-domain error.  ``shifted(t0)`` moves the time origin
    to ``t0``; the solvers restart at the ``knots``, where the profile is
    not smooth.  The sign checks read the profile at
    ``extremal_times(t_end)``, exact where a subclass defines them and a
    uniform sample here; a NaN fails both.
    """

    knots: tuple = ()

    def __call__(self, t):
        return _each(self.scalar()[0], t)

    def derivative(self, t):
        return _each(self.scalar()[1], t)

    def extremal_times(self, t_end: float) -> np.ndarray:
        """Times in [0, t_end] that hold the profile's least and greatest
        value there.  Here 257 uniform points: a sample, not a proof."""
        return np.linspace(0.0, t_end, 257)

    def require_positive(self, t_end: float, name: str, requirement: str, times=None):
        """Raise the DomainError for ``name`` unless the profile is > 0 and
        finite at every one of ``times``, by default its extremal times; a
        value that overflows reads as inf, with numpy's warning silenced."""
        if times is None:
            times = self.extremal_times(t_end)
        values = self._read(times)
        if not np.all(values > 0.0):
            bad = float(times[np.argmin(values)])
            raise DomainError(
                f"{name}(t) must stay positive on [0, {t_end}] ({requirement}); "
                f"violated near t={bad:.6g}"
            )
        if not np.all(values < math.inf):
            bad = float(times[np.argmax(values == math.inf)])
            raise DomainError(
                f"{name}(t) must stay finite on [0, {t_end}] ({requirement}); "
                f"it overflows near t={bad:.6g}"
            )

    def vanishes(self, t_end: float) -> bool:
        """Whether |profile| <= 1e-14 at its extremal times; NaN does not."""
        return bool(np.max(np.abs(self._read(self.extremal_times(t_end)))) <= 1e-14)

    def _read(self, times) -> np.ndarray:
        """The profile at ``times`` for a check, without numpy's warnings."""
        with np.errstate(all="ignore"):
            return np.asarray(self(times), dtype=float)

    def scalar(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        raise NotImplementedError

    def shifted(self, t0: float) -> "TimeProfile":
        raise NotImplementedError


def _each(fn: Callable[[float], float], t) -> np.ndarray:
    """``fn`` at each time of ``t``, in an array of ``t``'s shape; NaN where
    it raises an arithmetic or math-domain error (1/0, sin(inf))."""
    t = np.asarray(t, dtype=float)
    values = []
    for time in t.ravel().tolist():
        try:
            values.append(fn(time))
        except (ArithmeticError, ValueError):
            values.append(math.nan)
    return np.array(values, dtype=float).reshape(t.shape)


@dataclass(frozen=True)
class Constant(TimeProfile):
    value: float

    def scalar(self):
        value = float(self.value)
        return (lambda t: value), (lambda t: 0.0)

    def extremal_times(self, t_end: float) -> np.ndarray:
        return np.array([0.0, t_end], dtype=float)

    def shifted(self, t0: float) -> "Constant":
        return self


@dataclass(frozen=True)
class Sinusoid(TimeProfile):
    """amplitude * sin(omega*t + phase) + offset."""

    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def scalar(self):
        amplitude, omega, phase, offset = self.amplitude, self.omega, self.phase, self.offset
        rate, sin, cos = amplitude * omega, math.sin, math.cos
        return (lambda t: amplitude * sin(omega * t + phase) + offset,
                lambda t: rate * cos(omega * t + phase))

    def extremal_times(self, t_end: float) -> np.ndarray:
        """The ends, and the first trough and crest of sin in [0, t_end]."""
        times = [0.0, t_end]
        if self.amplitude != 0.0 and self.omega != 0.0:
            for peak in (-0.5 * math.pi, 0.5 * math.pi):
                ahead = peak - self.phase if self.omega > 0.0 else self.phase - peak
                t = (ahead % (2.0 * math.pi)) / abs(self.omega)
                if t <= t_end:
                    times.append(t)
        return np.array(times, dtype=float)

    def shifted(self, t0: float) -> "Sinusoid":
        return replace(self, phase=self.phase + self.omega * t0)


@dataclass(frozen=True)
class Exponential(TimeProfile):
    """prefactor * exp(rate*t)."""

    prefactor: float
    rate: float

    def scalar(self):
        # np.exp, since math.exp differs from it in the last bit for some inputs
        prefactor, rate, exp = self.prefactor, self.rate, np.exp
        slope = prefactor * rate
        return (lambda t: float(prefactor * exp(rate * t)),
                lambda t: float(slope * exp(rate * t)))

    def extremal_times(self, t_end: float) -> np.ndarray:
        return np.array([0.0, t_end], dtype=float)   # monotone

    def shifted(self, t0: float) -> "Exponential":
        return replace(self, prefactor=self.prefactor * math.exp(self.rate * t0))


def _natural_spline(x: list[float], y: list[float]) -> list[list[float]]:
    """The rows c3, c2, c1, c0 of the natural cubic spline through (x, y):
    on [x[i], x[i+1]] it is the cubic with coefficients c3[i] ... c0[i] in
    the local time s = t - x[i], as scipy's ``PPoly.c`` holds them.

    The knot slopes solve the banded system that ``CubicSpline(x, y,
    bc_type="natural")`` builds (de Boor, *A Practical Guide to Splines*,
    2001, ch. IV), by a port of LAPACK's ``dgtsv`` for one right-hand side,
    with partial pivoting (Anderson et al., *LAPACK Users' Guide*, 1999),
    which is what ``solve_banded`` runs for a (1, 1) band.  The cubics are
    formed as ``CubicHermiteSpline`` forms them.  Every operation is
    scipy's, in its order, so the coefficients carry its bits.  A zero
    pivot raises ZeroDivisionError where LAPACK reports a singular matrix;
    an overflow leaves inf or nan in the coefficients.
    """
    n = len(x)
    dx = [x[i + 1] - x[i] for i in range(n - 1)]
    slope = [(y[i + 1] - y[i]) / dx[i] for i in range(n - 1)]
    # sub-diagonal, diagonal, super-diagonal and right-hand side; the end
    # rows set the second derivative to 0.0
    dl = dx[1:] + dx[-1:]
    d = [2.0 * dx[0]] + [2.0 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)] + [2.0 * dx[-1]]
    du = dx[:1] + dx[:-1]
    b = ([-0.5 * 0.0 * (dx[0] * dx[0]) + 3.0 * (y[1] - y[0])]
         + [3.0 * (dx[i] * slope[i - 1] + dx[i - 1] * slope[i]) for i in range(1, n - 1)]
         + [0.5 * 0.0 * (dx[-1] * dx[-1]) + 3.0 * (y[-1] - y[-2])])
    for i in range(n - 1):   # dgtsv's elimination
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:   # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    s = b   # the slopes, by back substitution
    s[-1] = s[-1] / d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1] - dl[i] * s[i + 2]) / d[i]
    t = [(s[i] + s[i + 1] - 2.0 * slope[i]) / dx[i] for i in range(n - 1)]
    return [[t[i] / dx[i] for i in range(n - 1)],
            [(slope[i] - s[i]) / dx[i] - t[i] for i in range(n - 1)], s[:-1], y[:-1]]


@dataclass(frozen=True)
class Tabulated(TimeProfile):
    """Natural cubic spline through strictly increasing (t, value) knots.

    The spline is the package's own (``_natural_spline``): its
    coefficients equal scipy's ``CubicSpline(t, v, bc_type="natural")``
    bit for bit, and values and derivatives are summed in scipy's
    ``PPoly`` order (from 0.0, constant term first), so every evaluation
    has scipy's bits too.
    """

    knots_t: tuple[float, ...]
    knots_v: tuple[float, ...]
    _x: np.ndarray = field(init=False, repr=False, compare=False)
    _c: np.ndarray = field(init=False, repr=False, compare=False)   # rows c3, c2, c1, c0

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        v = np.asarray(self.knots_v, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.size != v.size:
            raise DomainError("tabulated profile needs at least two (t, value) knots")
        if not np.all(np.diff(t) > 0):
            raise DomainError("tabulated knots must be strictly increasing in t")
        try:
            c = np.array(_natural_spline(t.tolist(), v.tolist()))
        except ZeroDivisionError:   # a zero pivot
            c = None
        if c is None or not np.all(np.isfinite(c)):
            raise DomainError("tabulated knot values overflow the cubic spline: "
                              "its coefficients are not finite")
        object.__setattr__(self, "_x", t)
        object.__setattr__(self, "_c", c)

    @property
    def knots(self) -> tuple[float, ...]:
        return self.knots_t

    def scalar(self):
        # a bisection over the interior breaks picks [x_i, x_i+1), the last
        # one closed, whose piece holds x_i and rows c3 ... c0
        breaks = self._x.tolist()
        interior, pieces = breaks[1:-1], list(zip(breaks, *self._c.tolist()))
        lo, hi = breaks[0], breaks[-1]
        find = bisect.bisect_right
        outside = (f"time outside tabulated range [{self.knots_t[0]}, {self.knots_t[-1]}]; "
                   "extrapolation is refused")

        def value(t):
            if t < lo or t > hi:
                raise DomainError(outside)
            x, c3, c2, c1, c0 = pieces[find(interior, t)]
            s = t - x
            return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

        def rate(t):
            if t < lo or t > hi:
                raise DomainError(outside)
            x, c3, c2, c1, _ = pieces[find(interior, t)]
            s = t - x
            return 0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0

        return value, rate

    def extremal_times(self, t_end: float) -> np.ndarray:
        """The ends, and the knots and the real zeros of the derivative
        strictly inside an interval that lie in [0, t_end]: a cubic piece
        takes its extremes there (de Boor, *A Practical Guide to Splines*,
        2001, ch. IV).  Each piece's derivative a s^2 + b s + c has the roots
        q/a and c/q, q = -(b + sign(b) sqrt(b^2 - 4ac))/2, which cancels
        nothing, or -c/b where it is linear."""
        x, (c3, c2, c1, _) = self._x, self._c
        a, b, c = c3 * 3.0, c2 * 2.0, c1
        with np.errstate(all="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
            roots = x[:-1] + np.where(a != 0.0, [q / a, c / q], -c / b)
        roots = roots[(roots > x[:-1]) & (roots < x[1:])]
        times = np.concatenate([x, roots])
        return np.concatenate([[0.0, t_end], times[(times >= 0.0) & (times <= t_end)]])

    def shifted(self, t0: float) -> "Tabulated":
        return Tabulated(tuple(tk - t0 for tk in self.knots_t), self.knots_v)


@dataclass(frozen=True)
class Derived(TimeProfile):
    """Profile defined by callables; made by reductions and presets, not JSON configs.

    A bare ``Derived(fn, dfn)`` hands ``fn`` and ``dfn`` a float; ``knots``
    are those of the profiles they read.  ``Derived.of`` composes ``parts``:
    ``build`` makes its pair from their compiled pairs.  A build declared
    ``monotone`` in its one part (``reciprocal``) reads the part's
    extremal times, so its sign checks are as exact as the part's.
    """

    fn: Callable
    dfn: Callable
    label: str = "derived"
    knots: tuple = ()
    parts: tuple = ()
    build: Callable | None = None

    @classmethod
    def of(cls, build: Callable, *parts: TimeProfile, label: str) -> "Derived":
        fn, dfn = build(*(p.scalar() for p in parts))
        knots = tuple(sorted({tk for p in parts for tk in p.knots}))
        return cls(fn, dfn, label=label, knots=knots, parts=parts, build=build)

    def scalar(self):
        fn, dfn = self.fn, self.dfn
        if self.build is not None:
            return fn, dfn
        return (lambda t: float(fn(t))), (lambda t: float(dfn(t)))

    def extremal_times(self, t_end: float) -> np.ndarray:
        if getattr(self.build, "monotone", False):
            return self.parts[0].extremal_times(t_end)
        return super().extremal_times(t_end)

    def shifted(self, t0: float) -> "Derived":
        def build(pair):
            value, rate = pair
            return (lambda t: value(t + t0)), (lambda t: rate(t + t0))

        return Derived(*build(self.scalar()), label=self.label,
                       knots=tuple(tk - t0 for tk in self.knots), parts=(self,), build=build)


def as_profile(value) -> TimeProfile:
    """Coerce a plain number to a Constant; pass profiles through."""
    if isinstance(value, TimeProfile):
        return value
    return Constant(float(value))


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{what} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, huge int
        raise DomainError(f"{what} must be a finite number")
    return float(value)


def profile_from_dict(spec: dict) -> TimeProfile:
    """Build a profile from its JSON form.

    Rejects unknown kinds and keys, missing required keys and non-numeric
    values with a DomainError.
    """
    if not isinstance(spec, dict):
        raise DomainError(f"profile spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    kinds = {  # kind -> (profile class, required keys, optional keys)
        "constant": (Constant, {"value"}, set()),
        "sinusoid": (Sinusoid, {"amplitude", "omega"}, {"phase", "offset"}),
        "exponential": (Exponential, {"prefactor", "rate"}, set()),
        "tabulated": (Tabulated, {"knots"}, set()),
    }
    if kind not in kinds:
        raise DomainError(f"unknown profile kind {kind!r}")
    cls, required, optional = kinds[kind]
    extra = set(spec) - required - optional - {"kind"}
    if extra:
        raise DomainError(f"unknown profile keys {sorted(extra)} for kind {kind!r}")
    missing = required - set(spec)
    if missing:
        raise DomainError(f"{kind} profile needs keys {sorted(missing)}")
    if kind == "tabulated":
        knots = spec["knots"]
        if not isinstance(knots, (list, tuple)) or not all(
            isinstance(k, (list, tuple)) and len(k) == 2 for k in knots
        ):
            raise DomainError("tabulated profile 'knots' must be a list of [t, value] pairs")
        return Tabulated(
            knots_t=tuple(_number(k[0], "tabulated knot time") for k in knots),
            knots_v=tuple(_number(k[1], "tabulated knot value") for k in knots),
        )
    return cls(**{key: _number(value, f"{kind} profile {key!r}")
                  for key, value in spec.items() if key != "kind"})


@dataclass(frozen=True)
class CoefficientSet1D:
    """Coefficients of H = a/2 p^2 + b/2 (xp+px) + c/2 x^2 + d p + e x + g.

    Units: a in 1/mass, b in 1/time, c in mass/time^2, d in velocity,
    e in force, g in energy.  a(t) must stay positive on the working
    interval; solvers check this at its extremal times and at every time
    they evaluate.
    """

    a: TimeProfile
    b: TimeProfile
    c: TimeProfile
    d: TimeProfile
    e: TimeProfile
    g: TimeProfile
    hbar: float = 1.0

    def __post_init__(self):
        check_hbar(self.hbar)

    @staticmethod
    def build(a=1.0, b=0.0, c=0.0, d=0.0, e=0.0, g=0.0, hbar=1.0) -> "CoefficientSet1D":
        return CoefficientSet1D(
            a=as_profile(a), b=as_profile(b), c=as_profile(c),
            d=as_profile(d), e=as_profile(e), g=as_profile(g), hbar=hbar,
        )

    def shifted(self, t0: float) -> "CoefficientSet1D":
        return CoefficientSet1D(
            a=self.a.shifted(t0), b=self.b.shifted(t0), c=self.c.shifted(t0),
            d=self.d.shifted(t0), e=self.e.shifted(t0), g=self.g.shifted(t0),
            hbar=self.hbar,
        )


@dataclass(frozen=True)
class FieldProfile2D:
    """Planar charged particle: mass, magnetic field, stiffness, electric field.

    The Hamiltonian in the symmetric gauge expands to
    H = (p_x^2+p_y^2)/2m + (K + q^2 B^2/4m)(x^2+y^2)/2 + (qB/2m) L_z
        + q E_x x + q E_y y
    with q the particle charge.
    """

    m: TimeProfile
    B: TimeProfile
    K: TimeProfile
    Ex: TimeProfile
    Ey: TimeProfile
    charge: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        check_hbar(self.hbar)
        if not math.isfinite(self.charge):
            raise DomainError("charge must be finite")

    @staticmethod
    def build(m=1.0, B=0.0, K=0.0, Ex=0.0, Ey=0.0, charge=1.0, hbar=1.0) -> "FieldProfile2D":
        return FieldProfile2D(
            m=as_profile(m), B=as_profile(B), K=as_profile(K),
            Ex=as_profile(Ex), Ey=as_profile(Ey), charge=charge, hbar=hbar,
        )


def reciprocal(m):
    """1/m and its rate from m's (value, derivative) pair, for ``Derived.of``;
    monotone in m on each side of 0, and m = 0 raises ZeroDivisionError."""
    m, dm = m

    def rate(t):
        mt = m(t)
        return -dm(t) / (mt * mt)

    return (lambda t: 1.0 / m(t)), rate


reciprocal.monotone = True


def reduce_2d(profile: FieldProfile2D) -> CoefficientSet1D:
    """Rotating-frame reduction of the planar particle.

    Returns the shared radial oscillator a = 1/m, b = 0,
    c = K + q^2 B^2 / 4m, d = e = g = 0.  The frame rotates at
    theta_dot = q B / 2m (the planar solver integrates theta alongside
    the radial parameters); the rotation removes the angular-momentum
    cross term, so the reduced b is identically zero.
    """
    q = profile.charge

    def stiffness(m, B, K):
        (m, dm), (B, dB), (K, dK) = m, B, K

        def c_fn(t):
            bt = B(t)
            return K(t) + q * q * (bt * bt) / (4.0 * m(t))

        def c_dfn(t):
            mt = m(t)
            bt = B(t)
            return dK(t) + q * q * (2.0 * bt * dB(t) * mt - bt * bt * dm(t)) / (4.0 * mt * mt)

        return c_fn, c_dfn

    return CoefficientSet1D(
        a=Derived.of(reciprocal, profile.m, label="1/m"),
        b=Constant(0.0),
        c=Derived.of(stiffness, profile.m, profile.B, profile.K, label="K + q^2 B^2/4m"),
        d=Constant(0.0),
        e=Constant(0.0),
        g=Constant(0.0),
        hbar=profile.hbar,
    )
