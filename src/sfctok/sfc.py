"""Quantization and 1D orderings from four 3D space-filling curves.

Curve kinds: Z-order (Morton bit interleaving), Hilbert, and their
axis-transposed variants obtained by swapping x and y before encoding. All
encoders are exact integer maps, bijective over the b-bit grid.

``serialize_all`` quantizes a point set once and derives all four keys from
that one grid. Morton keys spread each axis's bits with shift-and-mask steps.
Hilbert keys come from a 24-state machine that reads the Morton key's 3-bit
digits from the most significant down and, per digit, looks up the Hilbert
digit and the next state. It yields the same keys as Skilling's Gray-code
transform ("Programming the Hilbert curve", 2004), from which its two tables
were derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import stable_order


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

# Hilbert state machine, indexed by state * 8 + Morton digit (z, y, x bits).
# _HILBERT_DIGIT is the Hilbert digit of that level, _HILBERT_NEXT the state
# for the next lower level; state 0 starts at the most significant digit.
_HILBERT_DIGIT = np.array([
    0, 7, 3, 4, 1, 6, 2, 5,  # 0
    0, 3, 1, 2, 7, 4, 6, 5,  # 1
    4, 7, 5, 6, 3, 0, 2, 1,  # 2
    6, 7, 5, 4, 1, 0, 2, 3,  # 3
    0, 1, 3, 2, 7, 6, 4, 5,  # 4
    0, 3, 7, 4, 1, 2, 6, 5,  # 5
    4, 7, 3, 0, 5, 6, 2, 1,  # 6
    0, 1, 7, 6, 3, 2, 4, 5,  # 7
    6, 5, 1, 2, 7, 4, 0, 3,  # 8
    0, 7, 1, 6, 3, 4, 2, 5,  # 9
    4, 5, 3, 2, 7, 6, 0, 1,  # 10
    4, 3, 5, 2, 7, 0, 6, 1,  # 11
    2, 1, 5, 6, 3, 0, 4, 7,  # 12
    6, 7, 1, 0, 5, 4, 2, 3,  # 13
    2, 3, 5, 4, 1, 0, 6, 7,  # 14
    6, 1, 5, 2, 7, 0, 4, 3,  # 15
    6, 5, 7, 4, 1, 2, 0, 3,  # 16
    4, 5, 7, 6, 3, 2, 0, 1,  # 17
    4, 3, 7, 0, 5, 2, 6, 1,  # 18
    2, 1, 3, 0, 5, 6, 4, 7,  # 19
    2, 3, 1, 0, 5, 4, 6, 7,  # 20
    6, 1, 7, 0, 5, 2, 4, 3,  # 21
    2, 5, 1, 6, 3, 4, 0, 7,  # 22
    2, 5, 3, 4, 1, 6, 0, 7,  # 23
], dtype=np.int64)
_HILBERT_NEXT = np.array([
     1,  2,  3,  4,  5,  6,  0,  0,  # 0
     7,  8,  9,  1, 10,  5, 11,  1,  # 1
    12, 13,  2,  9,  6, 14,  2, 11,  # 2
    13,  9,  3, 15, 14, 11,  3,  0,  # 3
     9,  7, 15,  4, 11, 10,  0,  4,  # 4
     4, 16, 17,  1,  0,  5, 18,  5,  # 5
    19,  3,  2, 20,  6,  0,  6, 18,  # 6
     0,  4, 18, 17, 21,  7,  9,  7,  # 7
    15,  8, 22,  8,  4, 16, 17,  1,  # 8
     5,  6,  1,  2, 13,  7,  9,  9,  # 9
    23, 10, 11, 10, 15,  4, 22, 17,  # 10
    14, 10, 11, 11,  8, 12,  1,  2,  # 11
    12, 15, 12, 22, 19,  3,  2, 20,  # 12
     3,  0, 20, 18, 13, 21, 13,  9,  # 13
    14, 23, 14, 11,  3, 15, 20, 22,  # 14
     8, 12, 15, 15,  1,  2,  3,  4,  # 15
    21, 16,  7,  8, 23, 16, 10,  5,  # 16
    22, 17, 21,  7, 18, 17, 23, 10,  # 17
    20, 17, 16, 19, 18, 18,  5,  6,  # 18
    19, 21, 12, 13, 19, 23,  6, 14,  # 19
    20, 22, 13, 21, 20, 18, 14, 23,  # 20
    16, 19,  5,  6, 21, 21, 13,  7,  # 21
    22, 22,  8, 12, 20, 17, 16, 19,  # 22
    23, 23, 14, 10, 16, 19,  8, 12,  # 23
], dtype=np.int64)


@dataclass(frozen=True)
class CurveOrder:
    """A permutation (and inverse) induced by one SFC traversal of K points."""

    kind: CurveKind
    keys: np.ndarray  # (K,) int64
    perm: np.ndarray  # (K,) int64, stable key order (ties in index order)
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


def _spread3(v):
    """Move bit j of a 16-bit value to bit 3j ("part1by2")."""
    v = (v | (v << 16)) & 0x0000FF0000FF
    v = (v | (v << 8)) & 0x00F00F00F00F
    v = (v | (v << 4)) & 0x0C30C30C30C3
    return (v | (v << 2)) & 0x249249249249


def morton_encode(grid, b):
    """Interleave bits: key = sum_j (x_j 2^{3j} + y_j 2^{3j+1} + z_j 2^{3j+2}).

    Only the low b bits of each axis enter the key (b <= 16).
    """
    grid = np.asarray(grid, dtype=np.int64)
    top = (1 << b) - 1
    key = _spread3(grid[..., 0] & top)
    key |= _spread3(grid[..., 1] & top) << 1
    key |= _spread3(grid[..., 2] & top) << 2
    return key


def hilbert_encode(grid, b):
    """3D Hilbert index in [0, 2^{3b} - 1], Skilling's curve.

    Runs the 24-state machine over the Morton key's digits, most significant
    first: each level's (state, digit) pair gives the Hilbert digit and the
    state that reads the next lower digit.
    """
    key = morton_encode(grid, b)
    state = np.zeros_like(key)
    out = np.zeros_like(key)
    for level in range(b - 1, -1, -1):
        idx = (state << 3) | ((key >> (3 * level)) & 7)
        out <<= 3
        out |= _HILBERT_DIGIT[idx]
        state = _HILBERT_NEXT[idx]
    return out


def encode(grid, kind, b):
    """Apply the transpose (if any) then the curve's integer encoder."""
    g = transpose_coords(np.asarray(grid, dtype=np.int64), kind)
    if kind in (CurveKind.ZORDER, CurveKind.ZORDER_T):
        return morton_encode(g, b)
    return hilbert_encode(g, b)


def _curve_order(grid, kind, b) -> CurveOrder:
    keys = encode(grid, kind, b)
    perm = stable_order([(keys, 3 * b)])
    inv_perm = np.empty_like(perm)
    inv_perm[perm] = np.arange(perm.shape[0])
    return CurveOrder(kind=kind, keys=keys, perm=perm, inv_perm=inv_perm)


def serialize(centers, kind, b=10) -> CurveOrder:
    """Quantize centers and produce the stable key-sorted traversal order."""
    return _curve_order(quantize(centers, b), kind, b)


def serialize_all(centers, b=10):
    """Orders for all four curve kinds over one quantization of the centers."""
    grid = quantize(centers, b)
    return [_curve_order(grid, kind, b) for kind in ALL_CURVES]
