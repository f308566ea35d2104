"""Initial superpoint tokens: Fourier coordinate embedding + MLP features.

A superpoint token is the per-label mean of the point tokens, the sum of a
shallow MLP projection of the point features and a parameter-free Fourier
embedding of box-normalized coordinates. The MLP's last layer is linear and
so is the mean, so the mean is taken over the last hidden layer and the
embedding, and the last layer runs once per superpoint instead of once per
point. Also hosts the voxel fallback segmenter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PointCloud,
    SeededWeights,
    SuperpointPartition,
    TokenMatrix,
    build_partition,
    segment_mean,
)
from .errors import ShapeMismatch, WidthTooSmall


@dataclass(frozen=True)
class FourierEmbedConfig:
    """Geometric frequency bands base^0 .. base^{num_freqs-1} per axis.

    Output width d holds sin/cos pairs over 3 axes (6 entries per band);
    the remainder beyond 6*num_freqs is zero-padded.
    """

    d: int
    base: float = 2.0

    @property
    def num_freqs(self):
        return self.d // 6


def _box_normalize(positions):
    """Scale coordinates into [0,1]^3 by the bounding box; flat axes map to 0."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    span = hi - lo
    u = np.zeros_like(positions)
    for axis in range(3):
        if span[axis] > 0.0:
            u[:, axis] = (positions[:, axis] - lo[axis]) / span[axis]
    return u


def fourier_embed(positions, cfg: FourierEmbedConfig):
    """K x d sin/cos features of box-relative coordinates, bounded in [-1, 1].

    The box is the input's own extrema, which makes the embedding
    translation invariant.
    """
    if cfg.d < 6:
        raise WidthTooSmall(f"embedding width {cfg.d} < 6")
    u = _box_normalize(positions)  # (K, 3)
    freqs = cfg.base ** np.arange(cfg.num_freqs)  # (F,)
    phase = 2.0 * np.pi * u[:, :, None] * freqs[None, None, :]  # (K, 3, F)
    out = np.zeros((u.shape[0], cfg.d))
    used = 6 * cfg.num_freqs
    out[:, : used // 2] = np.sin(phase).reshape(u.shape[0], -1)
    out[:, used // 2 : used] = np.cos(phase).reshape(u.shape[0], -1)
    return out


def mlp_project(features, weights: SeededWeights):
    """Forward pass of the shallow point-feature MLP (ReLU between layers)."""
    x = np.asarray(features, dtype=np.float64)
    for i in range(weights.n_layers):
        w, b = weights.layer(i)
        if x.shape[1] != w.shape[0]:
            raise ShapeMismatch(
                f"layer {i}: input width {x.shape[1]} != fan-in {w.shape[0]}"
            )
        x = x @ w
        x += b
        if i < weights.n_layers - 1:
            np.maximum(x, 0.0, out=x)
    return x


def point_tokens(cloud: PointCloud, weights: SeededWeights, cfg: FourierEmbedConfig):
    """N x (h+d) point rows: the MLP's last hidden layer, then FourierEmbed.

    The hidden part is ReLU(every layer but the last) of the features, h wide
    (the raw features for a one-layer MLP). ``superpoint_pool`` applies the
    last layer after the mean.
    """
    if weights.n_layers < 1:
        raise ShapeMismatch("the point MLP has no layers")
    hidden, head = weights.split(-1)
    h = head.shapes[0][0]
    coor = fourier_embed(cloud.positions, cfg)
    x0 = np.empty((coor.shape[0], h + coor.shape[1]))
    x0[:, h:] = coor
    del coor  # free the embedding before the hidden layer allocates its rows
    feat = mlp_project(cloud.features, hidden)
    if feat.shape[1] != h:
        raise ShapeMismatch(f"last layer fan-in {h} != hidden width {feat.shape[1]}")
    if hidden.n_layers:
        np.maximum(feat, 0.0, out=x0[:, :h])
    else:
        x0[:, :h] = feat
    return x0


def superpoint_pool(x0, part: SuperpointPartition, weights: SeededWeights) -> TokenMatrix:
    """Superpoint tokens from ``point_tokens`` rows; sentinel points are excluded.

    The mean runs over the point rows, then the MLP's last layer over the h
    hidden columns of each mean, plus the mean of the embedding columns.
    """
    _, head = weights.split(-1)
    h, d = head.shapes[0]
    if h + d != x0.shape[1]:
        raise ShapeMismatch(
            f"last layer fan-out {d} != embedding width {x0.shape[1] - h}"
        )
    pooled, _ = segment_mean(part.labels, part.n_superpoints, x0)
    feats = mlp_project(pooled[:, :h], head)
    feats += pooled[:, h:]
    return TokenMatrix(feats=feats, centers=part.centers)


def voxel_superpoints(cloud: PointCloud, cell: float) -> SuperpointPartition:
    """Fallback segmentation: points sharing a voxel cell share a label.

    Labels are compacted to {0..M-1} in lexicographic voxel order, which is
    deterministic for a fixed input.
    """
    if cell <= 0:
        raise ValueError(f"cell size {cell} must be positive")
    keys = np.floor(cloud.positions / cell).astype(np.int64)
    _, labels = np.unique(keys, axis=0, return_inverse=True)
    return build_partition(labels.astype(np.int64), cloud.positions)
