"""The first Bernoulli function psi(x) = x - floor(x) - 1/2 and its Vaaler
approximation by trigonometric polynomials.

The degree-H Vaaler polynomial damps psi's Fourier coefficients -1/(2 pi i h)
by J(h/(H+1)) with J(t) = pi t (1-t) cot(pi t) + t (`vaaler_polynomial`
returns these factors J_h as an array), and satisfies the pointwise bound
|psi(x) - psi_H(x)| <= F_H(x)/(2H+2) (`fejer_envelope`) against the Fejer
kernel F_H(x) = sum_{|h|<=H} (1 - |h|/(H+1)) e(hx).  Correctness is gated on
that inequality (verify_pointwise_bound), not on the coefficient formulas.  psi_H
is never evaluated off the grid k/G, where it is a discrete sine transform:
one FFT of length G gives every grid value in O(H + G log G), with each phase
2 pi ((hk) mod G)/G exact.  The grid and work caps are kept, so the check's
memory and time stay bounded.  Everything here is pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import read_array, require_integers, require_reals

_MAX_H = 10**6
_MAX_GRID = 10**6           # grid points; verify_pointwise_bound peaks near 65 bytes each
_MAX_WORK = 10**10          # (h, x) pairs of the Vaaler sum on the grid: H * grid


def vaaler_polynomial(H: int) -> np.ndarray:
    """The degree-H Vaaler approximation of psi, as its real damping factors
    J_h = J(h/(H+1)), h = 1..H, in a read-only array: psi_H(x) =
    sum_{1<=|h|<=H} c_h e(hx) with c_h = i J_h/(2 pi h) and
    c_{-h} = conj(c_h), so |c_h| <= 1/(2|h|)."""
    H = require_integers(H=H)
    if not 1 <= H <= _MAX_H:
        raise ValueError(f"H must be in [1, {_MAX_H}]")
    t = np.arange(1, H + 1, dtype=np.float64) / (H + 1)
    jhat = np.pi * t * (1 - t) / np.tan(np.pi * t) + t
    jhat.flags.writeable = False
    return jhat


def fejer_envelope(H: int, x) -> np.ndarray | float:
    """Pointwise Vaaler error envelope F_H(x)/(2H+2), with the Fejer kernel
    F_H(x) = sin^2((H+1) pi x) / ((H+1) sin^2(pi x)) >= 0, F_H(0) = H+1.
    x is a real or an array of reals (a list read entry by entry, as
    `read_array` says); a bool or a non-real entry is refused with
    ValueError."""
    H = require_integers(H=H)
    if H < 1:
        raise ValueError("H must be >= 1")
    xs = require_reals(x=read_array(x)).astype(np.float64)
    s = np.sin(np.pi * xs)
    num = np.sin((H + 1) * np.pi * xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(np.abs(s) < 1e-15, float(H + 1), num * num / ((H + 1) * s * s))
    val = val / (2 * H + 2)
    return val if val.shape else float(val)


def _grid_values(damping: np.ndarray, grid_size: int) -> np.ndarray:
    """psi_H(k/G) for k = 0..G-1, G = grid_size, by one FFT, from the damping
    factors J_h of `vaaler_polynomial`.

    psi_H(k/G) = -sum_h w_h sin(2 pi hk/G) with w_h = J_h/(pi h) depends on h
    only mod G, so folding b_r = sum_{h = r mod G} w_h gives
    psi_H(k/G) = Im(sum_r b_r e(-rk/G)) = Im(fft(b))[k].
    """
    h = np.arange(1, damping.size + 1)
    b = np.bincount(h % grid_size, weights=damping / (math.pi * h),
                    minlength=grid_size)
    return np.fft.fft(b).imag


def verify_pointwise_bound(H: int, grid_size: int) -> float:
    """Max of |psi(x) - psi_H(x)| - F_H(x)/(2H+2) over a uniform grid.

    Grid points at integers are excluded (psi jumps there).  A correct
    construction keeps the returned value at rounding level, <= 1e-9.
    grid_size <= _MAX_GRID and H * grid_size <= _MAX_WORK cap memory and time.
    """
    H, grid_size = require_integers(H=H, grid_size=grid_size)
    if not 10**3 <= grid_size <= _MAX_GRID:
        raise ValueError(f"grid_size must be in [1000, {_MAX_GRID}]")
    if H * grid_size > _MAX_WORK:
        raise ValueError(f"H * grid_size must be <= {_MAX_WORK}, got {H * grid_size}")
    x = np.arange(1, grid_size) / grid_size
    psi_h = _grid_values(vaaler_polynomial(H), grid_size)[1:]
    err = np.abs((x - np.floor(x) - 0.5) - psi_h)
    return float(np.max(err - fejer_envelope(H, x)))
