"""Gaussian propagator kernels and their application to grid wavefunctions.

A kernel is stored as a complex quadratic form over final coordinates x and
initial coordinates x',

    G(x, x') = prefactor * exp(i * [ x.Qxx.x + x'.Qx'x'.x' + x.Qxx'.x'
                                     + Lx.x + Lx'.x' + scal ]),

together with its validity window (0, t_caustic).  Every route builds it
with one formula from the parts of the Heisenberg map that the trajectory
reads (``_map_parts``): the radial block [[G_qq, G_qp], [G_pq, G_pp]], the
rotation R (the 1x1 identity in 1D), the translation (lam, -Pi) and the
action S give

    Qxx = G_pp / (2 hbar G_qp) I,   Qx'x' = G_qq / (2 hbar G_qp) I,
    Qxx' = -R / (hbar G_qp),
    prefactor = (1 / sqrt(2 pi i hbar G_qp))^dof,

with the linear and scalar terms from completing the square around lam
(Moshinsky and Quesne, J. Math. Phys. 12 (1971)).  The square root is the
principal branch, which keeps the sign of G_qp and so is the branch
continued from t -> 0+; that is what makes the kernel a delta sequence and
application norm-preserving (the corresponding real prefactor convention
differs by a constant phase only).

Application is trapezoid quadrature, evaluated exactly through chirp
factors of the quadratic form (see kernel_apply): one FFT convolution in 1D;
in the plane, row (x) column chirps, each distinct phase factor formed once,
and one matrix product per output row: O(n^4) flops in O(n^2) memory.
Grid adequacy is the caller's job and is diagnosed by the unitarity residual.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CausticError, DomainError
from .oracle import WaveGrid
from .paramflow import ParamTrajectory, ParamTrajectory2D

__all__ = [
    "GaussianKernel",
    "kernel_build",
    "kernel_apply",
    "kernel_unitarity_residual",
]

_VARIANTS = ("lp", "path1", "path2", "twod_path1", "twod_path2")


@dataclass(frozen=True)
class GaussianKernel:
    """Complex quadratic-form propagator G(x, t; x', 0)."""

    dof: int
    t: float
    prefactor: complex
    qxx: np.ndarray
    qx1x1: np.ndarray
    qxx1: np.ndarray
    lx: np.ndarray
    lx1: np.ndarray
    scal: complex
    valid_to: float
    hbar: float

    def __post_init__(self):
        n = self.dof
        for name in ("qxx", "qx1x1", "qxx1"):
            arr = np.asarray(getattr(self, name), dtype=complex).reshape(n, n)
            object.__setattr__(self, name, arr)
        for name in ("lx", "lx1"):
            arr = np.asarray(getattr(self, name), dtype=complex).reshape(n)
            object.__setattr__(self, name, arr)
        self._validate()

    def _validate(self):
        values = np.concatenate([[self.prefactor, self.scal], self.qxx.ravel(),
                                 self.qx1x1.ravel(), self.qxx1.ravel(), self.lx, self.lx1])
        if not np.isfinite(values).all():
            raise DomainError("kernel coefficients are not finite")
        quad = np.block([[self.qxx, self.qxx1 / 2.0],
                         [self.qxx1.T / 2.0, self.qx1x1]])
        imag = np.imag(quad)
        if np.max(np.abs(imag)) <= 1e-12 * max(1.0, np.max(np.abs(quad))):
            # scaled to a largest entry of 1, so that entries near 1e300
            # neither overflow the determinant nor warn of it
            scale = np.max(np.abs(self.qxx1))
            if scale == 0.0 or np.linalg.det(self.qxx1 / scale) == 0.0:
                raise DomainError(
                    "kernel is not delta-convergent: real exponent with a "
                    "singular cross block"
                )
        else:
            if np.any(np.linalg.eigvalsh(imag) < 0.0):
                raise DomainError(
                    "kernel is not delta-convergent: imaginary part of the "
                    "exponent is not positive semidefinite"
                )

    def evaluate(self, x, xp) -> np.ndarray:
        """Pointwise values; x and xp broadcast against each other.

        This is the kernel's definition, written out term by term: the tests
        compare ``kernel_apply`` against the direct trapezoid sum of these
        values.  For dof=1, x and xp are arrays of coordinates.  For dof=2
        they must carry the coordinate pair in the last axis.
        """
        if self.dof == 1:
            x = np.asarray(x, dtype=float)
            xp = np.asarray(xp, dtype=float)
            exponent = (
                self.qxx[0, 0] * x * x
                + self.qx1x1[0, 0] * xp * xp
                + self.qxx1[0, 0] * x * xp
                + self.lx[0] * x + self.lx1[0] * xp + self.scal
            )
            return self.prefactor * np.exp(1j * exponent)
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        exponent = (
            np.einsum("...i,ij,...j->...", x, self.qxx, x)
            + np.einsum("...i,ij,...j->...", xp, self.qx1x1, xp)
            + np.einsum("...i,ij,...j->...", x, self.qxx1, xp)
            + x @ self.lx + xp @ self.lx1 + self.scal
        )
        return self.prefactor * np.exp(1j * exponent)


def kernel_build(
    traj: ParamTrajectory | ParamTrajectory2D, t: float, variant: str
) -> GaussianKernel:
    """Build the propagator kernel at time t from a solved trajectory.

    variant is the trajectory's route, 'twod_' + route if it is planar, or
    'lp' on a 1D route-1 one with b = c = 0.  t must lie strictly inside
    (0, caustic time): at t = 0 the propagator is a delta, not a Gaussian,
    and at the focal time its prefactor diverges.
    """
    key = variant.lower()
    if key not in _VARIANTS:
        raise DomainError(f"unknown kernel variant {variant!r}; choose from {_VARIANTS}")
    if t <= 0.0:
        raise DomainError("t must be positive: the t=0 kernel is a delta")
    # valid_to = inf is no focal time: the map read refuses t = inf as unsolved
    if t >= traj.valid_to and math.isfinite(traj.valid_to):
        raise CausticError(
            f"t={t} is at or beyond the focal time valid_to={traj.valid_to}; "
            "the kernel prefactor is singular there",
            valid_to=traj.valid_to,
        )

    planar = isinstance(traj, ParamTrajectory2D)
    radial = traj.radial if planar else traj
    expected = ("twod_" if planar else "") + radial.path
    if key != expected and not (key == "lp" and expected == "path1"):
        raise DomainError(f"variant {variant!r} does not fit a {'planar' if planar else '1D'} "
                          f"trajectory of route {radial.path!r}; use variant {expected!r} "
                          "('twod_' + route if planar, the route or 'lp' on route 1 if 1D)")
    if key == "lp" and not (traj.coeffs.b.vanishes(traj.t_end)
                            and traj.coeffs.c.vanishes(traj.t_end)):
        raise DomainError(
            "variant 'lp' requires b(t) == 0 and c(t) == 0; "
            "use variant 'path1' for the general quadratic Hamiltonian"
        )
    ((g_qq, g_qp), (_, g_pp)), rot, shift, action = traj._map_parts(t)
    if g_qp == 0.0:
        raise CausticError("the map's x-p entry vanishes: the kernel is singular "
                           "at this time")
    hbar = traj.hbar
    dof = len(rot)
    rot, eye = np.array(rot), np.eye(dof)
    lam, pi = np.array(shift[:dof]), -np.array(shift[dof:])   # shift = (lam, -Pi)
    a = g_pp / (2.0 * hbar * g_qp)       # Qxx = a I
    c = -1.0 / (hbar * g_qp)             # Qxx' = c R
    # at an extreme t a coefficient overflows (inf * 0 is NaN): the kernel's
    # finite check refuses it, and numpy does not warn of it
    with np.errstate(all="ignore"):
        terms = dict(
            qxx=a * eye, qx1x1=g_qq / (2.0 * hbar * g_qp) * eye, qxx1=c * rot,
            lx=-2.0 * a * lam - pi / hbar, lx1=-c * rot.T @ lam,
            scal=complex(a * lam @ lam + pi @ lam / hbar - action / hbar),
        )
    return GaussianKernel(
        dof=dof, t=t, prefactor=cmath.sqrt(1.0 / (2.0j * math.pi * hbar * g_qp)) ** dof,
        **terms, valid_to=traj.valid_to, hbar=hbar,
    )


@functools.cache   # a pure function of one int: found once per 1D grid size
def _next_fast_len(target: int) -> int:
    """The smallest n >= target whose prime factors are all at most 11: the
    complex FFT sizes pocketfft does fastest, as ``scipy.fft.next_fast_len``.

    Each 3-5-7-11-smooth odd part m below the power of two that bounds the
    answer takes the least power of two lifting it to target.
    """
    best = 1 << (target - 1).bit_length()
    odd = [1]
    for prime in (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m <= best:
                grown.append(m)
                m *= prime
        odd = grown
    return min(m << (-(-target // m) - 1).bit_length() for m in odd)


def _chirp(x: np.ndarray, quad: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """exp(i [p.quad.p + lin.p]) at the points p of the grid x, or of x (x) x."""
    out = np.exp(1j * (x * quad[0, 0] * x + x * lin[0]))
    if len(lin) == 2:  # row (x) column, times the cross term where it is nonzero
        out = np.outer(out, np.exp(1j * (x * quad[1, 1] * x + x * lin[1])))
        if quad[0, 1] + quad[1, 0] != 0.0:
            out *= np.exp(1j * (quad[0, 1] + quad[1, 0]) * np.outer(x, x))
    return out


def _planar_sum(g: np.ndarray, x: np.ndarray, qxx1: np.ndarray) -> np.ndarray:
    """The planar cross-term sum of ``kernel_apply``, one output row at a
    time; the phase factors and the row temporaries are freed on return,
    before the caller forms the output chirp."""
    e = {}  # Qxx'_ab -> E_ab
    for q in qxx1.ravel():
        if q not in e:
            e[q] = e[-q].conj() if -q in e else np.exp(1j * q * np.outer(x, x))
    e00, e01, e10, e11 = (e[q] for q in qxx1.ravel())
    n = x.size
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        t = (g * e01[i]) @ e11
        t *= e10
        out[i] = e00[i] @ t
    return out


def kernel_apply(kernel: GaussianKernel, psi0: WaveGrid) -> WaveGrid:
    """psi(x) = integral G(x, x') psi0(x') dx' by trapezoid quadrature.

    The output lives on the input grid and equals the direct sum
    sum_j w_j G(x_i, x_j) psi0(x_j) dx up to rounding.  The cross term
    exp(i x.Qxx'.x') sits between an input and an output chirp:
    * 1D: c x x' = (c/2)(x^2 + x'^2 - (x - x')^2); the squares join the
      chirps, the rest is one zero-padded FFT convolution: O(n log n).
    * 2D: the chirps are row (x) column products of 1D ones.  With the
      symmetric E_ab[i, j] = exp(i Qxx'_ab x_i x_j), each formed once and a
      negated Qxx'_ab's as a conjugate, the output at (x_i, x_l) is
      sum_j E_00[i, j] t_i[j, l], where
      t_i[j, l] = E_10[j, l] sum_k E_01[i, k] g[j, k] E_11[k, l].  Each
      output row i is one matrix product, t_i = (g * E_01[i]) @ E_11, then
      t_i *= E_10 and the sum over j, E_00[i] @ t_i: O(n^4) flops, O(n^2)
      memory.
    The grid's hbar must be the kernel's, and Qxx' must be real, else
    DomainError: a complex one makes the chirps grow like exp(|Im c| x^2)
    and the result lose precision.  A result that is not finite (a kernel
    time or a grid so extreme that a chirp's phase overflows) is a
    DomainError too, and numpy does not warn of it.
    """
    if kernel.dof != psi0.dof:
        raise DomainError(f"kernel dof={kernel.dof} does not match grid dof={psi0.dof}")
    if kernel.hbar != psi0.hbar:
        raise DomainError(f"kernel hbar={kernel.hbar} does not match grid hbar={psi0.hbar}")
    if np.any(kernel.qxx1.imag != 0.0):
        raise DomainError("kernel_apply needs a real cross block qxx1")
    n, x, dx = psi0.n, psi0.x, psi0.dx
    with np.errstate(all="ignore"):   # an overflow is refused below, not warned of
        # dx**dof as products: pow(dx, 2) is not always dx * dx in the last bit
        weights = psi0.weights * math.prod([dx] * psi0.dof)
        shift = 0.5 * kernel.qxx1.real if kernel.dof == 1 else 0.0
        g = weights * psi0.amps * _chirp(x, kernel.qx1x1 + shift, kernel.lx1)
        if kernel.dof == 1:
            size = _next_fast_len(2 * n - 1)
            k = np.minimum(np.arange(size), size - np.arange(size))
            cross = np.exp(-1j * shift[0, 0] * (dx * k) ** 2)
            cross[n:size - n + 1] = 0.0  # only lags |k| < n reach the output
            out = np.fft.ifft(np.fft.fft(g, size) * np.fft.fft(cross))[:n]
        else:
            out = _planar_sum(g, x, kernel.qxx1.real)
        out *= kernel.prefactor * np.exp(1j * kernel.scal) * _chirp(x, kernel.qxx + shift,
                                                                    kernel.lx)
    if not np.isfinite(out).all():
        raise DomainError("the applied kernel is not finite on this grid: a chirp's phase "
                          "overflows at this kernel time and grid spacing")
    return WaveGrid(n, psi0.x_min, dx, out, psi0.hbar)


def kernel_unitarity_residual(kernel: GaussianKernel, grid: WaveGrid) -> float:
    """| ||G psi|| - ||psi|| | / ||psi|| for the provided test state."""
    norm_in = grid.norm()
    if norm_in == 0.0:
        raise DomainError("unitarity residual undefined for the zero state")
    norm_out = kernel_apply(kernel, grid).norm()
    return abs(norm_out - norm_in) / norm_in
