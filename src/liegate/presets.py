"""Named systems: each preset's parameters with their defaults, and its builder.

A configuration names a preset and gives its parameters in the preset's
section (``params``, ``coefficients`` or ``field``); ``liegate verify``
builds the same presets at the reference parameters in ``REFERENCE``, which
the shipped ``configs/`` repeat for sho, iontrap, kanai and efield.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import (
    CoefficientSet1D,
    Derived,
    Exponential,
    FieldProfile2D,
    Sinusoid,
    TimeProfile,
    as_profile,
    profile_from_dict,
    reciprocal,
)
from .errors import ConfigError, DomainError

__all__ = ["Preset", "PRESETS", "REFERENCE", "check_number", "parameters", "build"]


@dataclass(frozen=True)
class Preset:
    """One named system.

    ``defaults`` maps every parameter to its default; those in ``profiles``
    may be time profiles, those in ``positive`` must be positive numbers,
    the rest are real numbers.  ``build(params, hbar)`` returns a
    ``CoefficientSet1D`` or a ``FieldProfile2D``; ``kernel`` names a 1D
    kernel variant to use in place of the solve route.
    """

    section: str
    defaults: dict
    build: Callable
    profiles: frozenset = frozenset()
    positive: frozenset = frozenset()
    kernel: str | None = None


def check_number(value, field: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {field!r} must be a number", field=field)
    if not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, inf, huge int
        raise ConfigError(f"field {field!r} must be a finite number", field=field)
    if positive and value <= 0:
        raise ConfigError(f"field {field!r} must be positive, got {value}", field=field)
    return float(value)


def _number_or_profile(spec, field: str) -> TimeProfile:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return as_profile(check_number(spec, field))
    if isinstance(spec, dict):
        try:
            return profile_from_dict(spec)
        except DomainError as err:
            raise ConfigError(str(err), field=field) from None
    raise ConfigError(f"field {field!r} must be a number or a profile object",
                      field=field)


def _lp(p, hbar):
    def negated(f):
        f, df = f
        return (lambda t: -f(t)), (lambda t: -df(t))

    a = Derived.of(reciprocal, p["m"], label="1/m")
    e = Derived.of(negated, p["f"], label="-f")
    return CoefficientSet1D.build(a=a, e=e, hbar=hbar)


def _iontrap(p, hbar):
    c = Sinusoid(amplitude=p["k"], omega=p["omega"], phase=math.pi / 2, offset=p["K"])
    return CoefficientSet1D.build(a=1.0 / p["m"], c=c, hbar=hbar)


def _kanai(p, hbar):
    m, tau, omega0 = p["m"], p["tau"], p["omega0"]
    f0, f1, omega1 = p["F0"], p["F1"], p["omega1"]
    drive = Derived(
        fn=lambda t: -np.exp(t / tau) * (f0 + f1 * np.sin(omega1 * t)),
        dfn=lambda t: (
            -np.exp(t / tau) * (f0 + f1 * np.sin(omega1 * t)) / tau
            - np.exp(t / tau) * f1 * omega1 * np.cos(omega1 * t)
        ),
        label="damped drive",
    )
    return CoefficientSet1D.build(
        a=Exponential(1.0 / m, -1.0 / tau),
        c=Exponential(m * omega0 * omega0, 1.0 / tau),
        e=drive,
        hbar=hbar,
    )


def _bsin(p, hbar):
    return FieldProfile2D.build(
        m=p["m"], B=Sinusoid(amplitude=p["B0"], omega=p["omega"]), K=0.0,
        charge=p["charge"], hbar=hbar,
    )


def _efield(p, hbar):
    return FieldProfile2D.build(
        m=p["m"], B=p["B"], K=p["K"],
        Ex=Sinusoid(amplitude=p["E1x"], omega=p["omega"], phase=0.0, offset=p["E0x"]),
        Ey=Sinusoid(amplitude=p["E1y"], omega=p["omega"], phase=p["zeta"], offset=p["E0y"]),
        charge=p["charge"], hbar=hbar,
    )


PRESETS: dict[str, Preset] = {
    "lp": Preset("params", {"m": 1.0, "f": 0.0}, _lp,
                 profiles=frozenset({"m", "f"}), kernel="lp"),
    "gho": Preset("coefficients",
                  {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "g": 0.0},
                  lambda p, hbar: CoefficientSet1D(hbar=hbar, **p),
                  profiles=frozenset({"a", "b", "c", "d", "e", "g"})),
    "iontrap": Preset("params", {"m": 1.0, "K": 1.0, "k": 0.0, "omega": 1.0}, _iontrap,
                      positive=frozenset({"m", "omega"})),
    "kanai": Preset("params", {"m": 1.0, "tau": 1.0, "omega0": 0.25,
                               "F0": 0.0, "F1": 0.0, "omega1": 1.0}, _kanai,
                    positive=frozenset({"m", "tau"})),
    "cp2d": Preset("field", {"m": 1.0, "B": 0.0, "K": 0.0, "Ex": 0.0, "Ey": 0.0,
                             "charge": 1.0},
                   lambda p, hbar: FieldProfile2D(hbar=hbar, **p),
                   profiles=frozenset({"m", "B", "K", "Ex", "Ey"})),
    "bsin": Preset("params", {"m": 1.0, "B0": 1.0, "omega": 1.0, "charge": 1.0}, _bsin,
                   positive=frozenset({"m", "omega"})),
    "efield": Preset("params", {"m": 1.0, "charge": 1.0, "B": 1.0, "K": 0.5,
                                "E0x": 0.0, "E0y": 0.0, "E1x": 0.0, "E1y": 0.0,
                                "omega": 1.0, "zeta": 0.0}, _efield,
                     positive=frozenset({"m", "omega"})),
}

# name -> (preset, parameters) of the systems the verify suite checks
REFERENCE: dict[str, tuple[str, dict]] = {
    "lp": ("lp", {"m": 1.0, "f": 1.0}),
    "sho": ("gho", {"a": 1.0, "c": 1.0}),
    "iontrap": ("iontrap", {"m": 1.0, "K": 1.0, "k": 0.3, "omega": 5.0}),
    "kanai": ("kanai", {"m": 1.0, "tau": 1.0, "omega0": 0.25,
                        "F0": 0.3, "F1": 0.2, "omega1": 1.0}),
    "bsin": ("bsin", {"m": 1.0, "B0": 2.0, "omega": 3.0, "charge": 1.0}),
    "efield": ("efield", {"m": 1.0, "charge": 1.0, "B": 2.0, "K": 0.5,
                          "E0x": 0.3, "E0y": 0.0, "E1x": 0.0, "E1y": 0.2,
                          "omega": 1.3, "zeta": math.pi / 2}),
}


def parameters(name: str, spec) -> dict:
    """The preset's checked parameters: ``spec`` over the defaults.

    Raises ConfigError when ``spec`` is not an object, names an unknown
    parameter, or gives a value of the wrong kind.
    """
    preset = PRESETS[name]
    if not isinstance(spec, dict):
        raise ConfigError(f"system {name!r} requires a {preset.section!r} object",
                          field=preset.section)
    unknown = set(spec) - set(preset.defaults)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown parameter {key!r} for system {name!r}",
                          field=f"{preset.section}.{key}")
    out = {}
    for key, default in preset.defaults.items():
        field = f"{preset.section}.{key}"
        value = spec.get(key, default)
        if key in preset.profiles:
            out[key] = _number_or_profile(value, field)
        else:
            out[key] = check_number(value, field, key in preset.positive)
    return out


def build(name: str, spec: dict, hbar: float = 1.0):
    """The preset's ``CoefficientSet1D`` or ``FieldProfile2D`` for ``spec``."""
    return PRESETS[name].build(parameters(name, spec), hbar)
