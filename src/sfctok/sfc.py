"""Quantization and the four space-filling-curve orders of a 3D point set.

``serialize_all`` is the module's one entry point. It quantizes the points
once onto a b-bit grid and returns four stable orders, each an int64
permutation of the points: Z-order (Morton bit interleaving), Z-order with
x and y swapped, Hilbert, and Hilbert with x and y swapped. Both encoders
are exact integer maps, bijective over the b-bit grid.

Morton keys spread each axis's bits with shift-and-mask steps; there are
two of them, one per axis order. Each Hilbert key comes from its Morton
key: a 24-state machine reads the Morton key's 3-bit digits from the most
significant down and, per digit, looks up the Hilbert digit and the next
state. It yields the same keys as Skilling's Gray-code transform
("Programming the Hilbert curve", 2004), from which its two tables were
derived.
"""

from __future__ import annotations

import numpy as np

from .core import bounding_box, box_scale, stable_order
from .errors import ConfigError, DimensionMismatch

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


def quantize(centers, b):
    """Map K x 3 real coordinates onto the b-bit integer grid.

    Each axis is scaled by its own extrema: floor((2^b - 1) * (c - min) /
    (max - min)). A zero-extent axis maps to 0.
    """
    if not 1 <= b <= 16:
        raise ConfigError(f"bit depth {b} outside 1..16")
    top = (1 << b) - 1
    g = np.floor(box_scale(centers, bounding_box(centers), top))
    return np.clip(g, 0, top).astype(np.int64)


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


def hilbert_encode(key, b):
    """3D Hilbert index in [0, 2^{3b} - 1] of b-bit Morton keys (Skilling's curve).

    Runs the 24-state machine over the Morton key's digits, most significant
    first: each level's (state, digit) pair gives the Hilbert digit and the
    state that reads the next lower digit.
    """
    if key.ndim != 1:
        raise DimensionMismatch(f"Morton keys must be 1-D, got shape {key.shape}")
    state = np.zeros_like(key)
    out = np.zeros_like(key)
    for level in range(b - 1, -1, -1):
        idx = (state << 3) | ((key >> (3 * level)) & 7)
        out <<= 3
        out |= _HILBERT_DIGIT[idx]
        state = _HILBERT_NEXT[idx]
    return out


def serialize_all(centers, b=10):
    """Z, Z-transposed, Hilbert and Hilbert-transposed orders of the centers.

    Each order is the int64 permutation that sorts the curve's keys stably
    (ties in index order). The centers are quantized once; the transposed
    curves encode the grid with x and y swapped, and each Hilbert key is
    read off the Morton key of the same axis order.
    """
    grid = quantize(centers, b)
    morton = [morton_encode(grid, b), morton_encode(grid[:, [1, 0, 2]], b)]
    keys = morton + [hilbert_encode(key, b) for key in morton]
    return [stable_order([(key, 3 * b)]) for key in keys]
