"""Quantization and 1D orderings from four 3D space-filling curves.

Curve kinds: Z-order (Morton bit interleaving), Hilbert (Gray-coded
recursive traversal), and their axis-transposed variants obtained by
swapping x and y before encoding. All encoders are exact integer maps,
bijective over the b-bit grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class CurveKind(str, Enum):
    ZORDER = "zorder"
    ZORDER_T = "zorder_t"
    HILBERT = "hilbert"
    HILBERT_T = "hilbert_t"


ALL_CURVES = (
    CurveKind.ZORDER,
    CurveKind.ZORDER_T,
    CurveKind.HILBERT,
    CurveKind.HILBERT_T,
)


@dataclass(frozen=True)
class CurveOrder:
    """A permutation (and inverse) induced by one SFC traversal of K points."""

    kind: CurveKind
    keys: np.ndarray  # (K,) int64
    perm: np.ndarray  # (K,) int64, stable argsort of keys
    inv_perm: np.ndarray  # (K,) int64

    @property
    def n(self):
        return self.keys.shape[0]


def quantize(centers, b):
    """Map K x 3 real coordinates onto the b-bit integer grid.

    Each axis is scaled by its own extrema: floor((2^b - 1) * (c - min) /
    (max - min)). A zero-extent axis maps to 0.
    """
    if not 1 <= b <= 16:
        raise ValueError(f"bit depth {b} outside 1..16")
    centers = np.asarray(centers, dtype=np.float64)
    lo = centers.min(axis=0)
    hi = centers.max(axis=0)
    span = hi - lo
    out = np.zeros(centers.shape, dtype=np.int64)
    top = (1 << b) - 1
    for axis in range(3):
        if span[axis] <= 0.0:
            continue
        g = np.floor(top * (centers[:, axis] - lo[axis]) / span[axis])
        out[:, axis] = np.clip(g, 0, top).astype(np.int64)
    return out


def transpose_coords(grid, kind):
    """Swap the x and y axes for transposed curve kinds; identity otherwise."""
    if kind in (CurveKind.ZORDER_T, CurveKind.HILBERT_T):
        return grid[..., [1, 0, 2]]
    return grid


def morton_encode(grid, b):
    """Interleave bits: key = sum_j (x_j 2^{3j} + y_j 2^{3j+1} + z_j 2^{3j+2})."""
    grid = np.asarray(grid, dtype=np.int64)
    x, y, z = grid[..., 0], grid[..., 1], grid[..., 2]
    key = np.zeros(x.shape, dtype=np.int64)
    for j in range(b):
        key |= ((x >> j) & 1) << (3 * j)
        key |= ((y >> j) & 1) << (3 * j + 1)
        key |= ((z >> j) & 1) << (3 * j + 2)
    return key


def hilbert_encode(grid, b):
    """3D Hilbert index in [0, 2^{3b} - 1] via the Gray-code transform.

    Follows the standard integer algorithm: undo excess rotations/reflections
    from the most significant bit down, Gray-encode across axes, then
    interleave the transformed axis bits into a single key.
    """
    grid = np.asarray(grid, dtype=np.int64)
    x = [grid[..., 0].copy(), grid[..., 1].copy(), grid[..., 2].copy()]
    m = 1 << (b - 1)

    q = m
    while q > 1:
        p = q - 1
        for i in range(3):
            hi_set = (x[i] & q) != 0
            # invert low bits of axis 0 where this axis has the q bit set,
            # otherwise exchange low bits between axis 0 and axis i
            x[0] = np.where(hi_set, x[0] ^ p, x[0])
            t = np.where(hi_set, 0, (x[0] ^ x[i]) & p)
            x[0] ^= t
            x[i] ^= t
        q >>= 1

    x[1] ^= x[0]
    x[2] ^= x[1]
    t = np.zeros_like(x[0])
    q = m
    while q > 1:
        t = np.where((x[2] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for i in range(3):
        x[i] ^= t

    key = np.zeros_like(x[0])
    for j in range(b):
        key |= ((x[0] >> j) & 1) << (3 * j + 2)
        key |= ((x[1] >> j) & 1) << (3 * j + 1)
        key |= ((x[2] >> j) & 1) << (3 * j)
    return key


def encode(grid, kind, b):
    """Apply the transpose (if any) then the curve's integer encoder."""
    g = transpose_coords(np.asarray(grid, dtype=np.int64), kind)
    if kind in (CurveKind.ZORDER, CurveKind.ZORDER_T):
        return morton_encode(g, b)
    return hilbert_encode(g, b)


def serialize(centers, kind, b=10) -> CurveOrder:
    """Quantize centers and produce the stable key-sorted traversal order."""
    grid = quantize(centers, b)
    keys = encode(grid, kind, b)
    perm = np.argsort(keys, kind="stable")
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(perm.shape[0])
    return CurveOrder(kind=kind, keys=keys, perm=perm, inv_perm=inv_perm)


def serialize_all(centers, b=10):
    """Orders for all four curve kinds over one set of centers."""
    return [serialize(centers, kind, b=b) for kind in ALL_CURVES]
