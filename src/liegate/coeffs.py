"""Time-dependent Hamiltonian coefficient model.

A 1D Hamiltonian is H = a/2 p^2 + b/2 (xp+px) + c/2 x^2 + d p + e x + g with
every coefficient an arbitrary function of time; the 2D charged particle is
described by mass, magnetic field, trap stiffness and in-plane electric
field profiles.  ``reduce_2d`` maps the latter onto the shared radial 1D
oscillator of the rotating frame.

Profiles never extrapolate: evaluating a tabulated profile outside its knot
range is an error, not a guess.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

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


def _time(t):
    """A float passes through; anything else becomes a float array."""
    return t if isinstance(t, float) else np.asarray(t, dtype=float)


class TimeProfile:
    """A deterministic, side-effect-free scalar function of time.

    Subclasses implement ``__call__`` and ``derivative``; both accept floats
    or numpy arrays.  A float in (``np.float64`` included, which is what the
    ODE solvers pass) gives a float out with exactly the bits the array
    branch gives for that time; the built-in profiles take a scalar branch
    for it, since the parameter ODEs evaluate every coefficient at every
    right-hand-side call.  ``shifted(t0)`` returns the profile re-based so
    that its new time origin sits at ``t0`` of the old clock.  ``knots``
    are the times at which the profile is not smooth (a spline's knots);
    the parameter solvers restart their integration at each.
    """

    knots: tuple = ()

    def __call__(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def shifted(self, t0: float) -> "TimeProfile":
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(TimeProfile):
    value: float

    def __call__(self, t):
        if isinstance(t, float):
            return float(self.value)
        return self.value * np.ones_like(np.asarray(t, dtype=float))

    def derivative(self, t):
        if isinstance(t, float):
            return 0.0
        return np.zeros_like(np.asarray(t, dtype=float))

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
        if isinstance(t, float):
            return self.amplitude * math.sin(self.omega * t + self.phase) + self.offset
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.sin(self.omega * t + self.phase) + self.offset

    def derivative(self, t):
        if isinstance(t, float):
            return self.amplitude * self.omega * math.cos(self.omega * t + self.phase)
        t = np.asarray(t, dtype=float)
        return self.amplitude * self.omega * np.cos(self.omega * t + self.phase)

    def shifted(self, t0: float) -> "Sinusoid":
        return replace(self, phase=self.phase + self.omega * t0)


@dataclass(frozen=True)
class Exponential(TimeProfile):
    """prefactor * exp(rate*t)."""

    prefactor: float
    rate: float

    # np.exp for a float too: math.exp differs from it in the last bit for
    # some inputs, np.exp of a float has the array branch's bits

    def __call__(self, t):
        return self.prefactor * np.exp(self.rate * _time(t))

    def derivative(self, t):
        return self.prefactor * self.rate * np.exp(self.rate * _time(t))

    def shifted(self, t0: float) -> "Exponential":
        return replace(self, prefactor=self.prefactor * math.exp(self.rate * t0))


@dataclass(frozen=True)
class Tabulated(TimeProfile):
    """Natural cubic spline through strictly increasing (t, value) knots."""

    knots_t: tuple[float, ...]
    knots_v: tuple[float, ...]
    _spline: CubicSpline = field(init=False, repr=False, compare=False)
    # the float branch's copies of the spline: knot times, and per interval
    # the polynomial coefficients (cubic first) as plain floats
    _breaks: list = field(init=False, repr=False, compare=False)
    _pieces: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        v = np.asarray(self.knots_v, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.size != v.size:
            raise DomainError("tabulated profile needs at least two (t, value) knots")
        if not np.all(np.diff(t) > 0):
            raise DomainError("tabulated knots must be strictly increasing in t")
        spline = CubicSpline(t, v, bc_type="natural")
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_breaks", spline.x.tolist())
        object.__setattr__(self, "_pieces", spline.c.T.tolist())

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

    def _piece(self, t: float):
        """Offset of t into its knot interval and that interval's
        coefficients, chosen as scipy does: [t_i, t_i+1), the last one closed."""
        t = float(t)
        breaks = self._breaks
        if t < breaks[0] or t > breaks[-1]:
            self._check_range(t)   # raises
        i = min(bisect.bisect_right(breaks, t), len(breaks) - 1) - 1
        return t - breaks[i], self._pieces[i]

    # The float branches sum the terms as scipy's PPoly evaluation does,
    # from 0.0 with the constant term first, so they match it bit for bit.

    def __call__(self, t):
        if isinstance(t, float):
            s, (c3, c2, c1, c0) = self._piece(t)
            return 0.0 + c0 + c1 * s + c2 * (s * s) + c3 * (s * s * s)
        return self._spline(self._check_range(np.asarray(t, dtype=float)))

    def derivative(self, t):
        if isinstance(t, float):
            s, (c3, c2, c1, _) = self._piece(t)
            return 0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0
        return self._spline(self._check_range(np.asarray(t, dtype=float)), 1)

    def shifted(self, t0: float) -> "Tabulated":
        return Tabulated(
            knots_t=tuple(tk - t0 for tk in self.knots_t), knots_v=self.knots_v
        )


@dataclass(frozen=True)
class Derived(TimeProfile):
    """Profile defined by callables; produced by reductions, not JSON configs.

    ``fn`` and ``dfn`` receive a float when the caller passes one and a
    float array otherwise.  ``knots`` are those of the profiles the
    callables read.
    """

    fn: Callable
    dfn: Callable
    label: str = "derived"
    knots: tuple = ()

    def __call__(self, t):
        return self.fn(_time(t))

    def derivative(self, t):
        return self.dfn(_time(t))

    def shifted(self, t0: float) -> "Derived":
        fn, dfn = self.fn, self.dfn
        return Derived(
            fn=lambda t: fn(_time(t) + t0),
            dfn=lambda t: dfn(_time(t) + t0),
            label=self.label,
            knots=tuple(tk - t0 for tk in self.knots),
        )


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


def reduce_2d(profile: FieldProfile2D) -> CoefficientSet1D:
    """Rotating-frame reduction of the planar particle.

    Returns the shared radial oscillator a = 1/m, b = 0,
    c = K + q^2 B^2 / 4m, d = e = g = 0.  The frame rotates at
    theta_dot = q B / 2m (the planar solver integrates theta alongside
    the radial parameters); the rotation removes the angular-momentum
    cross term, so the reduced b is identically zero.
    """
    q = profile.charge
    m, B, K = profile.m, profile.B, profile.K
    knots = tuple(sorted({*m.knots, *B.knots, *K.knots}))

    def a_fn(t):
        return 1.0 / m(t)

    def a_dfn(t):
        mt = m(t)
        return -m.derivative(t) / (mt * mt)

    def c_fn(t):
        bt = B(t)
        return K(t) + q * q * (bt * bt) / (4.0 * m(t))

    def c_dfn(t):
        mt = m(t)
        bt = B(t)
        return (
            K.derivative(t)
            + q * q * (2.0 * bt * B.derivative(t) * mt - bt * bt * m.derivative(t))
            / (4.0 * mt * mt)
        )

    return CoefficientSet1D(
        a=Derived(a_fn, a_dfn, label="1/m", knots=knots),
        b=Constant(0.0),
        c=Derived(c_fn, c_dfn, label="K + q^2 B^2/4m", knots=knots),
        d=Constant(0.0),
        e=Constant(0.0),
        g=Constant(0.0),
        hbar=profile.hbar,
    )
