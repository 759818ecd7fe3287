"""Time-dependent Hamiltonian coefficient model.

A 1D Hamiltonian is H = a/2 p^2 + b/2 (xp+px) + c/2 x^2 + d p + e x + g with
every coefficient an arbitrary function of time; the 2D charged particle is
described by mass, magnetic field, trap stiffness and in-plane electric
field profiles.  ``reduce_2d`` maps the latter onto the shared radial 1D
oscillator of the rotating frame.

Profiles never extrapolate: evaluating a tabulated profile outside its knot
range is an error, not a guess.  A tabulated profile is a natural cubic
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


class TimeProfile:
    """A deterministic, side-effect-free scalar function of time.

    Subclasses implement ``__call__`` and ``derivative`` on float arrays.
    ``scalar()`` compiles the profile into (value, derivative), two plain
    functions of a float with the bits the array methods give at that time;
    the solvers compile each coefficient once per solve.  The base class
    compiles to ``float(self(t))``; the built-in profiles compile to
    closures over their numbers.  ``shifted(t0)`` returns the profile
    re-based so that its new time origin sits at ``t0`` of the old clock.
    ``knots`` are the times at which the profile is not smooth (a spline's
    knots); the parameter solvers restart their integration at each.
    """

    knots: tuple = ()

    def __call__(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def scalar(self) -> tuple[Callable[[float], float], Callable[[float], float]]:
        return (lambda t: float(self(t))), (lambda t: float(self.derivative(t)))

    def shifted(self, t0: float) -> "TimeProfile":
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(TimeProfile):
    value: float

    def __call__(self, t):
        return self.value * np.ones_like(np.asarray(t, dtype=float))

    def derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def scalar(self):
        value = float(self.value)
        return (lambda t: value), (lambda t: 0.0)

    def shifted(self, t0: float) -> "Constant":
        return self


@dataclass(frozen=True)
class Sinusoid(TimeProfile):
    """amplitude * sin(omega*t + phase) + offset."""

    amplitude: float
    omega: float
    phase: float = 0.0
    offset: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.sin(self.omega * t + self.phase) + self.offset

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * self.omega * np.cos(self.omega * t + self.phase)

    def scalar(self):
        amplitude, omega, phase, offset = self.amplitude, self.omega, self.phase, self.offset
        rate, sin, cos = amplitude * omega, math.sin, math.cos
        return (lambda t: amplitude * sin(omega * t + phase) + offset,
                lambda t: rate * cos(omega * t + phase))

    def shifted(self, t0: float) -> "Sinusoid":
        return replace(self, phase=self.phase + self.omega * t0)


@dataclass(frozen=True)
class Exponential(TimeProfile):
    """prefactor * exp(rate*t)."""

    prefactor: float
    rate: float

    def __call__(self, t):
        return self.prefactor * np.exp(self.rate * np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.prefactor * self.rate * np.exp(self.rate * np.asarray(t, dtype=float))

    def scalar(self):
        # np.exp, since math.exp differs from it in the last bit for some inputs
        prefactor, rate, exp = self.prefactor, self.rate, np.exp
        slope = prefactor * rate
        return (lambda t: float(prefactor * exp(rate * t)),
                lambda t: float(slope * exp(rate * t)))

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

    def _check_range(self, t):
        lo, hi = self.knots_t[0], self.knots_t[-1]
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(
                f"time outside tabulated range [{lo}, {hi}]; extrapolation is refused"
            )
        return t

    def _local(self, t):
        """Each time's offset s into its interval [x_i, x_i+1), the last one
        closed, and that interval's coefficient rows (c3, c2, c1, c0)."""
        x = self._x
        t = self._check_range(np.asarray(t, dtype=float))
        i = np.searchsorted(x[1:-1], t.ravel(), side="right")
        return t.shape, t.ravel() - x[i], self._c.take(i, axis=1)

    def __call__(self, t):
        shape, s, (c3, c2, c1, c0) = self._local(t)
        with np.errstate(all="ignore"):
            return (0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)).reshape(shape)

    def derivative(self, t):
        shape, s, (c3, c2, c1, _) = self._local(t)
        with np.errstate(all="ignore"):
            return (0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0).reshape(shape)

    def scalar(self):
        # the same sums on floats, the interval found by bisection
        breaks, pieces = self._x.tolist(), self._c.T.tolist()
        lo, hi, last = breaks[0], breaks[-1], len(breaks) - 1
        find, check = bisect.bisect_right, self._check_range

        def piece(t):
            if t < lo or t > hi:
                check(t)   # raises
            i = min(find(breaks, t), last) - 1
            return t - breaks[i], pieces[i]

        def value(t):
            s, (c3, c2, c1, c0) = piece(t)
            return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)

        def rate(t):
            s, (c3, c2, c1, _) = piece(t)
            return 0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0

        return value, rate

    def derivative_zeros(self) -> np.ndarray:
        """The times in the knot range at which the derivative is zero, as
        scipy's ``PPoly.derivative().roots(extrapolate=False)`` lists them.

        Each interval's derivative is a quadratic, solved in closed form
        for all intervals at once: a complex pair whose imaginary part is
        at most 1e-10 counts as a double root, each root takes one Newton
        step, and one outside its interval is dropped.  Per interval the
        list holds its first knot where the derivative changes sign across
        it, then the roots, each one equal to the last listed left out; an
        interval where the derivative is identically zero lists its first
        knot and nan.
        """
        x, (c3, c2, c1, _) = self._x, self._c
        lo, hi = x[:-1], x[1:]
        with np.errstate(all="ignore"):
            a, b, c = c3 * 3.0, c2 * 2.0, c1   # PPoly.derivative's rows
            disc = b * b - 4.0 * a * c
            d = np.sqrt(np.abs(disc))
            # the root of larger size from q, the other from the product
            q = -b + np.where(b < 0.0, d, -d)
            large, small = q / (2.0 * a), (2.0 * c) / q
            pair = (disc < 0.0) | (d == 0.0)
            vertex = -b / (2.0 * a)
            r = np.where(pair, vertex, np.where(b < 0.0, [small, large], [large, small]))
            line = (a == 0.0) & (b != 0.0)
            r[0] = np.where(line, -c / b, r[0])
            real = (a != 0.0) & ~((disc < 0.0) & (np.abs(-d / (2.0 * a)) > 1e-10))
            f = 0.0 + c + b * r + a * (r * r)
            df = 0.0 + b + a * r * 2.0
            step = f / df
            r = np.where((df != 0.0) & (np.abs(step) < np.abs(r)), r - step, r) + lo
            real = np.array([real | line, real]) & ~((r < lo) | (r > hi))
            h = hi[:-1] - lo[:-1]
            va = 0.0 + c[:-1] + b[:-1] * h + a[:-1] * (h * h)
            vb = 0.0 + c[1:] + b[1:] * 0.0 + a[1:] * (0.0 * 0.0)
        flip = ((va < 0.0) & (vb > 0.0)) | ((va > 0.0) & (vb < 0.0))
        flat = (a == 0.0) & (b == 0.0) & (c == 0.0)
        times, last = [], math.nan
        for i in np.flatnonzero(real[0] | real[1] | flat | np.append(False, flip)).tolist():
            if i > 0 and flip[i - 1] and lo[i] != last:
                last = lo[i]
                times.append(last)
            if flat[i]:
                times += [lo[i], math.nan]
                last = math.nan
            for k in (0, 1):
                if real[k, i] and r[k, i] != last:
                    last = r[k, i]
                    times.append(last)
        return np.array(times, dtype=float)

    def shifted(self, t0: float) -> "Tabulated":
        return Tabulated(tuple(tk - t0 for tk in self.knots_t), self.knots_v)


@dataclass(frozen=True)
class Derived(TimeProfile):
    """Profile defined by callables; made by reductions and presets, not JSON configs.

    ``fn`` and ``dfn`` receive a float array from ``__call__`` and
    ``derivative`` and a float from the compiled pair.  ``knots`` are those
    of the profiles the callables read.  A profile made by ``Derived.of``
    combines ``parts``: ``build`` makes (fn, dfn) from their (value,
    derivative) pairs, so ``scalar()`` builds it from their compiled pairs.
    """

    fn: Callable
    dfn: Callable
    label: str = "derived"
    knots: tuple = ()
    parts: tuple = ()
    build: Callable | None = None

    @classmethod
    def of(cls, build: Callable, *parts: TimeProfile, label: str) -> "Derived":
        fn, dfn = build(*((p.__call__, p.derivative) for p in parts))
        knots = tuple(sorted({tk for p in parts for tk in p.knots}))
        return cls(fn, dfn, label=label, knots=knots, parts=parts, build=build)

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.dfn(np.asarray(t, dtype=float))

    def scalar(self):
        if self.build is not None:
            return self.build(*(p.scalar() for p in self.parts))
        fn, dfn = self.fn, self.dfn
        return (lambda t: float(fn(t))), (lambda t: float(dfn(t)))

    def shifted(self, t0: float) -> "Derived":
        def build(pair):
            value, rate = pair
            return (lambda t: value(t + t0)), (lambda t: rate(t + t0))

        return Derived(*build((self.fn, self.dfn)), label=self.label,
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
    interval; solvers check this on their probe grid and at every time
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
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")

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
        if self.hbar <= 0:
            raise DomainError("hbar must be positive")

    @staticmethod
    def build(m=1.0, B=0.0, K=0.0, Ex=0.0, Ey=0.0, charge=1.0, hbar=1.0) -> "FieldProfile2D":
        return FieldProfile2D(
            m=as_profile(m), B=as_profile(B), K=as_profile(K),
            Ex=as_profile(Ex), Ey=as_profile(Ey), charge=charge, hbar=hbar,
        )


def reciprocal(m):
    """1/m and its rate from m's (value, derivative) pair, for ``Derived.of``."""
    m, dm = m

    def rate(t):
        mt = m(t)
        return -dm(t) / (mt * mt)

    return (lambda t: 1.0 / m(t)), rate


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
