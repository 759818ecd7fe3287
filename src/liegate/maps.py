"""Symplectic Heisenberg maps assembled from parameter trajectories.

The Heisenberg-picture canonical operators are an affine map
(x_H, p_H) = M (x, p) + (lam, -Pi) with M built from the transformation
parameters.  M preserves the symplectic form and has unit determinant;
``check_symplectic`` measures both residuals so callers can assert their
own thresholds.

Ordering is (x, p) in 1D and (x, y, p_x, p_y) in 2D, with the symplectic
form J = [[0, I], [-I, 0]] in that ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import det as _det

from .errors import CausticError, DomainError
from .paramflow import ParamTrajectory, ParamTrajectory2D, _check_solved

__all__ = [
    "SymplecticMap",
    "symplectic_form",
    "assemble_path1",
    "assemble_path2",
    "assemble_2d",
    "check_symplectic",
    "evolve_gaussian_moments",
]


def symplectic_form(dof: int) -> np.ndarray:
    j = np.zeros((2 * dof, 2 * dof))
    j[:dof, dof:] = np.eye(dof)
    j[dof:, :dof] = -np.eye(dof)
    return j


@dataclass(frozen=True)
class SymplecticMap:
    """Linear Heisenberg transport: matrix M plus translation (lam, -Pi)."""

    t: float
    M: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M, dtype=float)
        s = np.asarray(self.shift, dtype=float)
        if m.shape not in ((2, 2), (4, 4)) or s.shape != (m.shape[0],):
            raise DomainError("map must be 2x2 or 4x4 with a matching shift")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "shift", s)

    @property
    def dof(self) -> int:
        return self.M.shape[0] // 2


def _window_check(traj, t: float):
    if t > traj.valid_to:
        raise CausticError(
            f"t={t} is beyond the first focal time valid_to={traj.valid_to}",
            valid_to=traj.valid_to,
        )
    _check_solved(traj, t)


def _path1_entries(a: float, bint: float, u: float, udot: float, v: float, vdot: float):
    # G_qq = e^(phi+gamma), G_qp = (beta/Delta) e^(phi+gamma),
    # G_pq = -alpha Delta e^(phi-gamma), G_pp = e^(-phi-gamma) - alpha beta e^(phi-gamma),
    # evaluated through the globally smooth pair (u, v):
    # e^(phi+gamma) = e^B u, beta/Delta = v/u, alpha = -u'/u, giving
    # M = e^B [[u, v], [u'/a, v'/a]] with B = bint.
    eb = math.exp(bint)
    return (eb * u, eb * v), (eb * udot / a, eb * vdot / a)


def _path2_entries(delta: float, gamma: float, phi: float, alpha: float, vphi: float,
                   beta: float):
    cph, sph = math.cos(phi), math.sin(phi)
    ev, evm = math.exp(vphi), math.exp(-vphi)
    eg, egm = math.exp(gamma), math.exp(-gamma)
    g_qq = (cph - alpha * sph) * eg * ev
    g_qp = ((beta * cph - alpha * beta * sph) * ev + sph * evm) * eg / delta
    g_pq = -(alpha * cph + sph) * delta * ev * egm
    g_pp = -((beta * sph + alpha * beta * cph) * ev - cph * evm) * egm
    return (g_qq, g_qp), (g_pq, g_pp)


def _radial(traj: ParamTrajectory, t: float):
    """The radial entries, the shift (lam, -Pi) and the action S at
    t <= valid_to: route 1 from its base solve and a, route 2 from its base
    and Riccati solves, a and c."""
    if traj.path == "path1":
        lam, pi, action, *base = traj._base(t)
        return _path1_entries(traj._a(t), *base), [lam, -pi], action
    lam, pi, action, phi = traj._base(t)
    gamma = 0.5 * math.log(traj.Delta * math.sqrt(traj._a(t) / traj._c(t)))
    if traj.shortcut:
        alpha = vphi = beta = 0.0
    else:   # valid_to ends no later than the Riccati solve
        qq, pp, _, vphi, beta, _ = traj._riccati(t)
        alpha = qq / pp
    return _path2_entries(traj.Delta, gamma, phi, alpha, vphi, beta), [lam, -pi], action


def _parts(traj: ParamTrajectory | ParamTrajectory2D, t: float):
    """The map at t as the kernels and ``assemble_2d`` read it, once: the
    radial entries, the rotation R(theta) (the 1x1 identity in 1D), the
    shift (lam, -Pi) and the action S.  t is checked against the window."""
    _window_check(traj, t)
    if isinstance(traj, ParamTrajectory):
        entries, shift, action = _radial(traj, t)
        return entries, ((1.0,),), shift, action
    lam_x, lam_y, pi_x, pi_y, action, theta = traj._dense(t)
    return (_radial(traj.radial, t)[0], _rotation(theta),
            [lam_x, lam_y, -pi_x, -pi_y], action)


def _rotation(theta: float) -> tuple[tuple[float, float], ...]:
    """The 2x2 rotation R(theta), as rows, that the planar maps and kernels share."""
    c, s = math.cos(theta), math.sin(theta)
    return (c, -s), (s, c)


def _map(t: float, entries, shift: list) -> SymplecticMap:
    """A SymplecticMap of float rows this module built, not checked again."""
    smap = object.__new__(SymplecticMap)
    smap.__dict__.update(t=t, M=np.array(entries), shift=np.array(shift))
    return smap


def _assemble_1d(traj: ParamTrajectory, t: float, path: str) -> SymplecticMap:
    if isinstance(traj, ParamTrajectory2D):
        raise DomainError(f"assemble_{path} takes a 1D trajectory; use assemble_2d "
                          "for a planar one")
    if traj.path != path:
        raise DomainError(f"trajectory was solved with route {traj.path[-1]}; "
                          f"use assemble_{traj.path}")
    _window_check(traj, t)
    return _map(t, *_radial(traj, t)[:2])


def assemble_path1(traj: ParamTrajectory, t: float) -> SymplecticMap:
    """Route-1 map M = [[G_qq, G_qp], [G_pq, G_pp]], shift (lam, -Pi)."""
    return _assemble_1d(traj, t, "path1")


def assemble_path2(traj: ParamTrajectory, t: float) -> SymplecticMap:
    """Route-2 map: G_qq = (cos phi - alpha sin phi) e^(gamma+vphi), etc."""
    return _assemble_1d(traj, t, "path2")


def assemble_2d(traj2d: ParamTrajectory2D, t: float) -> SymplecticMap:
    """Planar map: 2x2 blocks G_ab * R(theta) in (x, y, p_x, p_y) ordering."""
    if isinstance(traj2d, ParamTrajectory):
        raise DomainError(f"assemble_2d takes a planar trajectory; use "
                          f"assemble_{traj2d.path} for a 1D one")
    radial, rotation, shift, _ = _parts(traj2d, t)
    # np.kron(G, R) entry by entry: the same single product G_ij * R_kl each
    return _map(t, [[g * r for g in g_row for r in r_row]
                    for g_row in radial for r_row in rotation], shift)


def _frozen_form(dof: int) -> np.ndarray:
    j = symplectic_form(dof)
    j.flags.writeable = False
    return j


_FORMS = {2: _frozen_form(1), 4: _frozen_form(2)}   # J by the size of M


def check_symplectic(smap: SymplecticMap) -> tuple[float, float]:
    """Residuals (|det M - 1|, max-norm of M^T J M - J)."""
    j = _FORMS[len(smap.M)]
    # np.linalg.det's own ufunc, without its checks: M is a square float64 array
    det_residual = abs(float(_det(smap.M, signature="d->d")) - 1.0)
    form_residual = float(abs(smap.M.T @ j @ smap.M - j).max())
    return det_residual, form_residual


def evolve_gaussian_moments(
    smap: SymplecticMap, mean: np.ndarray, cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Transport state moments: mean -> M mean + shift, cov -> M cov M^T."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = smap.M.shape[0]
    if mean.shape != (n,) or cov.shape != (n, n):
        raise DomainError(f"moments must have dimension {n}")
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        raise DomainError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if np.any(eigvals <= 0.0):
        raise DomainError("covariance must be positive definite")
    return smap.M @ mean + smap.shift, smap.M @ cov @ smap.M.T

