"""Initial superpoint tokens: Fourier coordinate embedding + MLP features.

A superpoint token is the per-label mean of the point tokens, the sum of a
shallow MLP projection of the point features and a parameter-free Fourier
embedding of box-normalized coordinates. The MLP's last layer is linear and
so is the mean, so the mean is taken over the last hidden layer and the
embedding, and the last layer runs once per superpoint instead of once per
point. Also hosts the voxel fallback segmenter.

The point rows are never held in full. ``superpoint_pool`` sorts the points
by label once and streams them in chunks of about ``CHUNK_POINTS`` points
that hold whole superpoints; each chunk's rows are made, averaged into one
(M, h+d) array and dropped. Memory is O(M (h+d) + chunk (h+d)), not
O(N (h+d)). Each mean adds its rows in ascending point order, as one
product over all points would, and the embedding box comes from the whole
cloud, so the tokens do not depend on the chunking.
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
    label_counts,
    segment_mean,
)
from .errors import ShapeMismatch, WidthTooSmall

# Points per chunk of the tokenize stream. Chunks hold whole superpoints, so
# a superpoint with more points than this gets a chunk of its own.
CHUNK_POINTS = 4096


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


def bounding_box(positions):
    """(lo, span) of the coordinates' axis-aligned bounding box."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0)
    return lo, positions.max(axis=0) - lo


def _box_normalize(positions, box):
    """Scale coordinates into [0,1]^3 by ``box``; flat axes map to 0."""
    positions = np.asarray(positions, dtype=np.float64)
    lo, span = box
    u = np.zeros_like(positions)
    for axis in range(3):
        if span[axis] > 0.0:
            u[:, axis] = (positions[:, axis] - lo[axis]) / span[axis]
    return u


def fourier_embed(positions, cfg: FourierEmbedConfig, box=None):
    """K x d sin/cos features of box-relative coordinates, bounded in [-1, 1].

    The box defaults to the input's own extrema, which makes the embedding
    translation invariant. Points embedded in chunks take the whole cloud's
    ``bounding_box``, so each row is the one the whole cloud would give.
    """
    if cfg.d < 6:
        raise WidthTooSmall(f"embedding width {cfg.d} < 6")
    if box is None:
        box = bounding_box(positions)
    u = _box_normalize(positions, box)  # (K, 3)
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


def _split_head(weights: SeededWeights):
    """(hidden layers, last layer) of the point MLP."""
    if weights.n_layers < 1:
        raise ShapeMismatch("the point MLP has no layers")
    return weights.split(-1)


def point_tokens(
    cloud: PointCloud, weights: SeededWeights, cfg: FourierEmbedConfig, box=None
):
    """K x (h+d) point rows: the MLP's last hidden layer, then FourierEmbed.

    The hidden part is ReLU(every layer but the last) of the features, h wide
    (the raw features for a one-layer MLP). ``superpoint_pool`` applies the
    last layer after the mean. ``box`` is passed on to ``fourier_embed``.
    """
    hidden, head = _split_head(weights)
    h = head.shapes[0][0]
    coor = fourier_embed(cloud.positions, cfg, box)
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


def _chunks(sorted_labels, n_sentinel):
    """(lo, hi) spans of the label-sorted points, about CHUNK_POINTS each.

    Cuts fall at label starts, or anywhere in the leading sentinel run, so
    every chunk holds whole superpoints.
    """
    n = sorted_labels.shape[0]
    cuts = np.union1d(
        np.arange(0, max(n_sentinel, 1), CHUNK_POINTS),  # 0 is always a cut
        np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1,
    )
    cuts = np.append(cuts, n)
    lo = 0
    while lo < n:
        hi = cuts[np.searchsorted(cuts, lo + CHUNK_POINTS, side="right") - 1]
        if hi <= lo:  # the superpoint at lo alone exceeds a chunk
            hi = cuts[np.searchsorted(cuts, lo, side="right")]
        yield lo, int(hi)
        lo = int(hi)


def superpoint_pool(
    cloud: PointCloud,
    part: SuperpointPartition,
    weights: SeededWeights,
    cfg: FourierEmbedConfig,
) -> TokenMatrix:
    """Superpoint tokens of ``cloud``; sentinel points are excluded.

    The points are sorted by label once and streamed in chunks of whole
    superpoints. Each chunk's ``point_tokens`` rows (with the whole cloud's
    box) are averaged per label into one (M, h+d) array; then the MLP's last
    layer runs over the h hidden columns of each mean, plus the mean of the
    embedding columns. Every point goes through ``point_tokens`` once.
    """
    _, head = _split_head(weights)
    h, d = head.shapes[0]
    if d != cfg.d:
        raise ShapeMismatch(f"last layer fan-out {d} != embedding width {cfg.d}")
    labels = np.asarray(part.labels, dtype=np.int64)
    counts = label_counts(labels, part.n_superpoints)
    n_sentinel = labels.shape[0] - int(counts.sum())
    order = np.argsort(labels, kind="stable")  # sentinels first
    sorted_labels = labels[order]
    box = bounding_box(cloud.positions)
    pooled = np.empty((part.n_superpoints, h + d))
    for lo, hi in _chunks(sorted_labels, n_sentinel):
        idx = order[lo:hi]
        chunk = PointCloud(positions=cloud.positions[idx], features=cloud.features[idx])
        rows = point_tokens(chunk, weights, cfg, box)
        skip = max(n_sentinel - lo, 0)
        if skip < hi - lo:
            lab = sorted_labels[lo + skip : hi]
            first, last = lab[0], lab[-1]
            means, _ = segment_mean(lab - first, last + 1 - first, rows[skip:])
            pooled[first : last + 1] = means
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
