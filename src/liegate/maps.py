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

from .errors import CausticError, DomainError
from .paramflow import ParamSample, ParamTrajectory, ParamTrajectory2D

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


def _radial_entries(traj: ParamTrajectory, s: ParamSample) -> tuple[tuple[float, float], ...]:
    """The 2x2 map ((G_qq, G_qp), (G_pq, G_pp)) from one sample of ``traj``."""
    if traj.path == "path1":
        # G_qq = e^(phi+gamma), G_qp = (beta/Delta) e^(phi+gamma),
        # G_pq = -alpha Delta e^(phi-gamma), G_pp = e^(-phi-gamma) - alpha beta e^(phi-gamma),
        # evaluated through the globally smooth pair (u, v):
        # e^(phi+gamma) = e^B u, beta/Delta = v/u, alpha = -u'/u, giving
        # M = e^B [[u, v], [u'/a, v'/a]] with B = bint.
        a = float(traj.coeffs.a(s.t))
        eb = math.exp(s.bint)
        return (eb * s.u, eb * s.v), (eb * s.udot / a, eb * s.vdot / a)
    delta = traj.Delta
    cph, sph = math.cos(s.phi), math.sin(s.phi)
    ev, evm = math.exp(s.vphi), math.exp(-s.vphi)
    eg, egm = math.exp(s.gamma), math.exp(-s.gamma)
    g_qq = (cph - s.alpha * sph) * eg * ev
    g_qp = ((s.beta * cph - s.alpha * s.beta * sph) * ev + sph * evm) * eg / delta
    g_pq = -(s.alpha * cph + sph) * delta * ev * egm
    g_pp = -((s.beta * sph + s.alpha * s.beta * cph) * ev - cph * evm) * egm
    return (g_qq, g_qp), (g_pq, g_pp)


def _radial_block(traj: ParamTrajectory, s: ParamSample) -> np.ndarray:
    """``_radial_entries`` as a 2x2 array."""
    return np.array(_radial_entries(traj, s))


def _rotation(theta: float) -> np.ndarray:
    """The 2x2 rotation R(theta) that the planar maps and kernels share."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _assemble_1d(traj: ParamTrajectory, t: float, path: str) -> SymplecticMap:
    if traj.path != path:
        raise DomainError(f"trajectory was solved with route {traj.path[-1]}; "
                          f"use assemble_{traj.path}")
    _window_check(traj, t)
    s = traj.sample(t)
    return SymplecticMap(t=t, M=_radial_block(traj, s), shift=np.array([s.lam, -s.Pi]))


def assemble_path1(traj: ParamTrajectory, t: float) -> SymplecticMap:
    """Route-1 map M = [[G_qq, G_qp], [G_pq, G_pp]], shift (lam, -Pi)."""
    return _assemble_1d(traj, t, "path1")


def assemble_path2(traj: ParamTrajectory, t: float) -> SymplecticMap:
    """Route-2 map: G_qq = (cos phi - alpha sin phi) e^(gamma+vphi), etc."""
    return _assemble_1d(traj, t, "path2")


def assemble_2d(traj2d: ParamTrajectory2D, t: float) -> SymplecticMap:
    """Planar map: 2x2 blocks G_ab * R(theta) in (x, y, p_x, p_y) ordering."""
    _window_check(traj2d, t)
    rec = traj2d.sample(t)
    cth, sth = math.cos(rec["theta"]), math.sin(rec["theta"])
    rot = (cth, -sth), (sth, cth)
    # np.kron(G, R) entry by entry: the same single product G_ij * R_kl each
    m = np.array([[g * r for g in g_row for r in r_row]
                  for g_row in _radial_entries(traj2d.radial, rec["radial"])
                  for r_row in rot])
    shift = np.array([rec["lam_x"], rec["lam_y"], -rec["Pi_x"], -rec["Pi_y"]])
    return SymplecticMap(t=t, M=m, shift=shift)


def _frozen_form(dof: int) -> np.ndarray:
    j = symplectic_form(dof)
    j.flags.writeable = False
    return j


_FORMS = {2: _frozen_form(1), 4: _frozen_form(2)}   # J by the size of M


def check_symplectic(smap: SymplecticMap) -> tuple[float, float]:
    """Residuals (|det M - 1|, max-norm of M^T J M - J)."""
    j = _FORMS[len(smap.M)]
    det_residual = abs(float(np.linalg.det(smap.M)) - 1.0)
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

