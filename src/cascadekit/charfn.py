"""Characteristic function of the limit mass and its density (H > 1/2).

The limit mass Z of a convergent cascade satisfies the distributional
fixed point Z = b^(-H) * sum_j eps_j Z(j), which turns into a functional
equation for the characteristic function phi(t) = E(exp(itZ)):

    phi(t) = [ p_plus * phi(b^(-H) t) + p_minus * phi(-b^(-H) t) ]^b .

Iterating from phi_0(t) = e^{it} (depth-0 mass is the constant 1) walks
the finite-depth characteristic functions phi_n up the argument ladder
{b^(-kH) t, k = n..0}; the sign-flipped partner at each rung is the
complex conjugate (Z_n is real), so one stored value per rung covers the
pair and an n-rung evaluation costs O(n).

Numerical form: the ladder carries phi = e^(u + iv) in log-polar form,
from u = 0, v = b^(-nH) t at the bottom, with delta = b^(H-1) and one
rung for every base,

    u' = b * (u + (1/2) log1p(-(1 - delta^2) sin^2 v))
    v' = b * atan2(delta sin v, cos v),

since p_plus e^(iv) + p_minus e^(-iv) = cos v + i delta sin v.  Near
phi = 1 the small quantities, log|phi| and arg phi, are what log1p and
atan2 return, so they keep their relative precision; in the tail u only
grows more negative and nothing cancels, so phi keeps its relative
precision down to float64's range: |phi| underflows to 0 only once
u < -745.  atan2 keeps |v| <= b pi, so no reduction mod 2 pi is
needed.  (A ladder on phi itself loses the deviation from 1 to rounding
at the bottom rungs, yet its successive depths still agree to machine
epsilon, so a Cauchy test on it certifies garbage.)

Inversion: f(x) = (1/2pi) Integral e^{-itx} phi(t) dt, computed as the
Hermitian fold (1/pi) Integral_0^T Re[e^{-itx} phi(t)] dt by trapezoid.
The fold makes the density exactly real, which is how the "imaginary
residue" of the two-sided integral is clipped here.  The t-step is tied
to the x-window width W by dt = 2pi/W (alias period = window), and T
doubles until |phi(T)| < 1e-12.  The result carries that t-grid and its
phi values, so the charfn CSV holds the grid that was inverted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, CascadeParams, require_regime
from .moments import limit_z_moments

DEFAULT_DEPTH = 48
MAX_AUTO_DEPTH = 4096
CAUCHY_TOL = 1e-10
TAIL_TOL = 1e-12
T_CAP = float(2**20)
MIN_X_POINTS = 4096
#: Budget of the inversion's working memory.  Its kernel runs over blocks
#: of _X_BLOCK x-points, and each point of the t-grid costs
#: _KERNEL_BYTES per x of a block at the peak (the float phase, the complex
#: kernel and one complex temporary; tracemalloc reads 48.1), so 1 GiB
#: admits t-grids of up to 349,525 points.
MAX_INVERSION_BYTES = 2**30
_X_BLOCK = 64
_KERNEL_BYTES = 48
#: Half-width of the inversion's x-window, in standard deviations of Z.
_SPAN_SDS = 14.0


def _ladder(params: CascadeParams, t: np.ndarray, depth: int) -> np.ndarray:
    """phi_depth(t) for a real argument array, carried as e^(u + iv)."""
    b = params.base
    delta = params.eps_mean
    v = t * float(b) ** (-depth * params.hurst)
    u = np.zeros_like(v)
    for _ in range(depth):
        sin_v = np.sin(v)
        u = b * (u + 0.5 * np.log1p(-(1.0 - delta * delta) * sin_v**2))
        v = b * np.arctan2(delta * sin_v, np.cos(v))
    return np.exp(u) * (np.cos(v) + 1j * np.sin(v))


def charfn_at(params: CascadeParams, t, depth: int = DEFAULT_DEPTH):
    """phi_depth(t), the characteristic function of the depth-``depth`` mass.

    ``t`` may be a scalar or array; scalar in, complex scalar out.  As
    depth grows this converges to the characteristic function of the
    limit mass Z (geometrically; slower as H approaches 1/2).  Values
    are accurate relative to |phi|, which underflows to 0 only once
    log|phi| < -745.
    """
    require_regime(params, "the characteristic function", convergent=True)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    out = _ladder(params, np.atleast_1d(t_arr), depth)
    if t_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(t_arr.shape)


def charfn_auto(params: CascadeParams, t):
    """phi at auto-selected depth: doubles from :data:`DEFAULT_DEPTH` until
    the successive-depth sup-norm difference is below :data:`CAUCHY_TOL`.

    Returns (values, depth_used).  Hitting :data:`MAX_AUTO_DEPTH` without
    meeting the tolerance is reported as a warning, not an error (the
    returned values are then the deepest computed).
    """
    require_regime(params, "the characteristic function", convergent=True)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    depth = DEFAULT_DEPTH
    prev = _ladder(params, t_arr, depth)
    gap = math.inf
    while depth < MAX_AUTO_DEPTH and gap > CAUCHY_TOL:
        depth_next = min(2 * depth, MAX_AUTO_DEPTH)
        cur = _ladder(params, t_arr, depth_next)
        gap = float(np.max(np.abs(cur - prev)))
        prev, depth = cur, depth_next
    if gap > CAUCHY_TOL:
        warnings.warn(f"characteristic-function ladder stopped at depth "
                      f"{depth} with residual {gap:.3e} > {CAUCHY_TOL:.1e}",
                      RuntimeWarning, stacklevel=2)
    values = prev if np.asarray(t).ndim else complex(prev[0])
    return values, depth


def _phi(params: CascadeParams, t, depth: int | None):
    """phi at ``depth``, or at the auto-selected depth when it is None.

    Returns (values, depth_used).
    """
    if depth is None:
        return charfn_auto(params, t)
    return charfn_at(params, t, depth), depth


@dataclass(frozen=True)
class DensityResult:
    """Numerically inverted density of the limit mass on an x-grid.

    ``t`` is the t-grid the inversion integrated over, linspace(0, t_max,
    n_t), and ``phi`` the ladder's values on it at ``depth``.
    """

    params: CascadeParams
    x: np.ndarray
    density: np.ndarray
    t: np.ndarray
    phi: np.ndarray
    depth: int

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def tail_magnitude(self) -> float:
        """|phi(t_max)|; should be < TAIL_TOL."""
        return float(abs(self.phi[-1]))

    def moment(self, k: int) -> float:
        """Integral of x^k f(x) dx over the grid (trapezoid)."""
        return float(np.trapezoid(self.x**k * self.density, self.x))

    def cdf(self) -> np.ndarray:
        """Cumulative integral of the density on the x-grid.

        Not renormalized: total mass stays whatever the inversion gave,
        so normalization defects remain visible to callers.
        """
        steps = np.diff(self.x) * 0.5 * (self.density[1:]
                                         + self.density[:-1])
        return np.concatenate([[0.0], np.cumsum(steps)])


def _auto_t_max(params: CascadeParams, depth: int | None) -> float:
    """Double T from 16 until |phi(T)| < TAIL_TOL (cap T_CAP)."""
    t_max = 16.0
    while True:
        val, _ = _phi(params, t_max, depth)
        if abs(val) < TAIL_TOL or t_max >= T_CAP:
            return t_max
        t_max *= 2.0


def density_of_z(params: CascadeParams, *, x_points: int = MIN_X_POINTS,
                 depth: int | None = None) -> DensityResult:
    """Density f of the limit mass Z by Fourier inversion of phi.

    The x-window is mean +- 14 standard deviations (both exact,
    from the limit moments); the t-step is 2pi / window-width so the
    aliasing period equals the window, and t_max doubles until the tail
    |phi(T)| < 1e-12 (or reaches :data:`T_CAP`).  A non-negligible tail
    at t_max is reported via a warning and the ``tail_magnitude``
    property, not raised.  ``x_points`` below :data:`MIN_X_POINTS`
    raises ``ValueError``; a t-grid whose kernel would need more than
    :data:`MAX_INVERSION_BYTES` raises :class:`CapacityError` before the
    grid is allocated.
    """
    if x_points < MIN_X_POINTS:
        raise ValueError(f"x_points must be at least MIN_X_POINTS = "
                         f"{MIN_X_POINTS}, got {x_points}")
    require_regime(params, "the limit-mass density", convergent=True,
                   below_one=True,
                   why="only there does the limit mass exist and carry a "
                       "smooth density; at H = 1 it is the constant 1")
    m2 = float(limit_z_moments(params, 2)[1])
    sd = math.sqrt(m2 - 1.0)
    x_lo, x_hi = 1.0 - _SPAN_SDS * sd, 1.0 + _SPAN_SDS * sd
    width = x_hi - x_lo
    dt = 2.0 * math.pi / width
    t_max = _auto_t_max(params, depth)
    n_t = max(2, int(math.ceil(t_max / dt)) + 1)
    need = n_t * _X_BLOCK * _KERNEL_BYTES
    if need > MAX_INVERSION_BYTES:
        raise CapacityError(
            f"the inversion's t-grid of {n_t} points (T = {t_max:g}, "
            f"dt = {dt:.3g}) needs {need / 2**30:.3g} GiB, above the "
            f"budget of {MAX_INVERSION_BYTES / 2**30:g} GiB; at a shallow "
            "ladder depth |phi| decays too slowly to invert")
    t = np.linspace(0.0, t_max, n_t)
    phi, depth_used = _phi(params, t, depth)
    tail = float(abs(phi[-1]))
    if tail >= TAIL_TOL:
        warnings.warn(f"characteristic function tail |phi({t_max:g})| = "
                      f"{tail:.2e} is not negligible; density accuracy "
                      "is degraded", RuntimeWarning, stacklevel=2)

    x = np.linspace(x_lo, x_hi, x_points)
    weights = np.full(n_t, t[1] - t[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    w_re = weights * phi.real
    w_im = weights * phi.imag
    f = np.empty_like(x)
    for i in range(0, x.size, _X_BLOCK):
        kernel = np.exp(-1j * np.outer(t, x[i:i + _X_BLOCK]))
        f[i:i + _X_BLOCK] = w_re @ kernel.real - w_im @ kernel.imag
    f /= math.pi
    return DensityResult(params=params, x=x, density=f, t=t, phi=phi,
                         depth=depth_used)
