"""Vectorised shape rasterisers used by every synthetic vision dataset.

All functions return soft (anti-aliased) masks in [0, 1] of shape (H, W),
computed from coordinate grids — no per-pixel Python loops.  Anti-aliasing
matters here: hard binary edges would hide resize/interpolation noise, while
soft edges respond to it the way natural images do.
"""

from __future__ import annotations

import numpy as np

__all__ = ["grid", "disk", "ring", "rectangle", "triangle", "cross",
           "stripes", "checkerboard", "blob", "paste"]

_EDGE = 1.0  # anti-aliasing transition width in pixels


def grid(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-centre coordinate grids (yy, xx)."""
    return np.mgrid[0:h, 0:w].astype(np.float64)


def _soft(d: np.ndarray) -> np.ndarray:
    """Signed distance (negative inside) -> soft inside mask."""
    return np.clip(0.5 - d / _EDGE, 0.0, 1.0)


def disk(h: int, w: int, cy: float, cx: float, r: float) -> np.ndarray:
    yy, xx = grid(h, w)
    d = np.hypot(yy - cy, xx - cx) - r
    return _soft(d)


def ring(h: int, w: int, cy: float, cx: float, r: float,
         thickness: float = 2.0) -> np.ndarray:
    yy, xx = grid(h, w)
    d = np.abs(np.hypot(yy - cy, xx - cx) - r) - thickness / 2
    return _soft(d)


def rectangle(h: int, w: int, cy: float, cx: float, hh: float, hw: float,
              angle: float = 0.0) -> np.ndarray:
    yy, xx = grid(h, w)
    ca, sa = np.cos(angle), np.sin(angle)
    u = (xx - cx) * ca + (yy - cy) * sa
    v = -(xx - cx) * sa + (yy - cy) * ca
    d = np.maximum(np.abs(u) - hw, np.abs(v) - hh)
    return _soft(d)


def triangle(h: int, w: int, cy: float, cx: float, r: float,
             angle: float = 0.0) -> np.ndarray:
    """Equilateral triangle of circumradius ``r`` via 3 half-plane distances."""
    yy, xx = grid(h, w)
    d = np.full((h, w), -np.inf)
    for k in range(3):
        theta = angle + 2 * np.pi * k / 3
        ny, nx = np.cos(theta), np.sin(theta)
        plane = (yy - cy) * ny + (xx - cx) * nx - r / 2
        d = np.maximum(d, plane)
    return _soft(d)


def cross(h: int, w: int, cy: float, cx: float, arm: float,
          thickness: float = 2.5) -> np.ndarray:
    bar1 = rectangle(h, w, cy, cx, thickness / 2, arm)
    bar2 = rectangle(h, w, cy, cx, arm, thickness / 2)
    return np.maximum(bar1, bar2)


def stripes(h: int, w: int, angle: float, period: float,
            phase: float = 0.0) -> np.ndarray:
    """Smooth sinusoidal stripes in [0, 1] at the given orientation."""
    yy, xx = grid(h, w)
    t = (xx * np.cos(angle) + yy * np.sin(angle)) / period + phase
    return 0.5 + 0.5 * np.sin(2 * np.pi * t)


def checkerboard(h: int, w: int, cell: float, phase: float = 0.0) -> np.ndarray:
    yy, xx = grid(h, w)
    a = np.sin(np.pi * (xx / cell + phase))
    b = np.sin(np.pi * (yy / cell + phase))
    return 0.5 + 0.5 * np.tanh(4.0 * a * b)


def _convolve_rows_same(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``np.convolve(row, k, "same")`` of every row of ``x``, bit for bit.

    ``k`` has 3 taps and every row at least 3 samples.  ``np.convolve``
    computes a row's interior with NumPy's small-kernel loop, which does not
    fuse multiply and add, but its two end outputs with the BLAS dot
    product, which may be FMA-contracted.  Plain slice arithmetic therefore
    misses some end outputs by an ulp.  So the interior comes from one
    ``np.convolve(..., "valid")`` over the concatenated rows (dropping the
    outputs that straddle two rows), and each end column from ``np.vecdot``
    (NumPy >= 2.0) over its two samples, which goes through the same BLAS
    dot.  ``x`` is made C-contiguous first, so that its rows concatenate
    and each end pair is unit-stride, as ``np.convolve`` passes it.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    h, w = x.shape
    c = np.ascontiguousarray(k[::-1], dtype=np.float64)   # correlation taps
    out = np.empty(h * w)
    out[1:-1] = np.convolve(x.ravel(), k, "valid")
    out = out.reshape(h, w)
    out[:, 0] = np.vecdot(x[:, :2], c[1:])
    out[:, -1] = np.vecdot(x[:, -2:], c[:2])
    return out


def blob(h: int, w: int, rng: np.random.Generator, smoothness: int = 4) -> np.ndarray:
    """Smooth random field in [0, 1] (low-frequency noise texture)."""
    coarse = rng.random((smoothness, smoothness))
    reps = (int(np.ceil(h / smoothness)), int(np.ceil(w / smoothness)))
    up = np.kron(coarse, np.ones(reps))[:h, :w]
    # Light smoothing via two box passes.
    k = np.ones(3) / 3
    up = _convolve_rows_same(up, k)
    up = _convolve_rows_same(up.T, k).T
    lo, hi = up.min(), up.max()
    return (up - lo) / max(hi - lo, 1e-9)


def paste(canvas: np.ndarray, mask: np.ndarray, color: np.ndarray) -> np.ndarray:
    """Alpha-composite ``color`` (3,) onto an (H, W, 3) float canvas."""
    return canvas * (1 - mask[..., None]) + color[None, None, :] * mask[..., None]
