"""Initial superpoint tokens: Fourier coordinate embedding + MLP features.

A superpoint token is the per-label mean of the point tokens, the sum of a
shallow MLP projection of the point features and a parameter-free Fourier
embedding of box-normalized coordinates. Both are d wide, d the fan-out
of the MLP's last layer; the embedding fills d // 6 octave bands per axis
and zero-pads the rest. The MLP's last layer is linear and so is the mean,
so the mean is taken over the last hidden layer and the embedding, and the
last layer runs once per superpoint instead of once per point. Also hosts
the voxel fallback segmenter.

The point rows are never held in full. ``superpoint_pool`` sorts the points
by label once and streams them in chunks of about ``CHUNK_POINTS`` points,
none mixing sentinel and labeled points; labeled chunks hold whole
superpoints. Each chunk's rows are made in one reused buffer and averaged;
the hidden means go into one (M, h) array and the embedding means into the
(M, d) output, to which the last layer's rows are then added. Memory is
O(M (h+d) + chunk (h+d)), not O(N (h+d)): at h = d two (M, d) arrays and a
chunk. Each mean adds its rows in ascending point order, as one product
over all points would, and the embedding box comes from the whole cloud, so
the tokens do not depend on the chunking.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PointCloud,
    SeededWeights,
    SuperpointPartition,
    TokenMatrix,
    bounding_box,
    box_scale,
    build_partition,
    label_counts,
    segment_mean,
    stable_order,
)
from .errors import ConfigError, ShapeMismatch, WidthTooSmall

# Points per chunk of the tokenize stream. Labeled chunks hold whole
# superpoints, so one may run past this by up to the largest one. At 1024
# points a chunk's (2, 3, F, K) embedding work rows stay in cache for their
# transposed copy into the (K, d) layout, and its rows take 4 MB at
# h + d = 512.
CHUNK_POINTS = 1024

# Superpoints per block of the MLP's last layer in superpoint_pool (and of
# the importance MLP): a block's output takes 2 MiB at d = 256, where the
# whole head's output would take 87 MiB at M = 44.6k.
HEAD_ROWS = 1024

# fourier_embed calls sin/cos on every ANCHOR_EVERY-th band and doubles the
# angle for the bands in between. The anchors below band REDUCED_BANDS are
# reduced to a quarter turn: |corr| < 2^-50, so corr 2^k stays below 2^-8 rad
# there (k <= 42) and is known to ~1e-19. The anchors from there on take
# libm's own reduction.
ANCHOR_EVERY = 6
REDUCED_BANDS = 48
TWO_PI = 2.0 * np.pi
HALF_PI = TWO_PI / 4  # fl(pi / 2), exactly
TWO_PI_TAIL = 2.4492935982947064e-16  # 2 pi - TWO_PI, rounded to float64
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's product
_TWO_PI_HI = _SPLIT * TWO_PI - (_SPLIT * TWO_PI - TWO_PI)
_TWO_PI_LO = TWO_PI - _TWO_PI_HI


def _two_pi_residual(u):
    """2 pi u - fl(2 pi u) for u in [0, 1], to ~1e-32 absolute.

    Dekker's two-product gives the rounding error of fl(2 pi) * u exactly;
    the float64 tail of 2 pi adds the part of the product fl(2 pi) misses.
    """
    t = TWO_PI * u
    c = _SPLIT * u
    u_hi = c - (c - u)
    u_lo = u - u_hi
    err = (_TWO_PI_HI * u_hi - t) + _TWO_PI_HI * u_lo + _TWO_PI_LO * u_hi
    err += _TWO_PI_LO * u_lo
    err += TWO_PI_TAIL * u
    return err


def _quarter_turn_sincos(u, scale, sin, cos):
    """sin/cos of fl(2 pi u) * 2^k into (3, A, K) ``sin`` and ``cos``, for
    u: (3, K) in [0, 1] and ``scale``: (A, 1) holding 2^k, k < REDUCED_BANDS.
    """
    phase = u[:, None, :] * (4.0 * scale)  # v = 4 u 2^k, exact
    turns = np.rint(phase)  # n, at most 2^44
    phase -= turns  # f = v - n, exact, in [-1/2, 1/2]
    phase *= HALF_PI
    phase -= _two_pi_residual(u)[:, None, :] * scale  # r, |r| <= pi/4 + 2^-8
    s, c = np.sin(phase), np.cos(phase)
    # rotate by n quarter turns: with a = cos(n pi/2) and b = sin(n pi/2),
    # each 0 or +-1, one term of a s + b c and of a c - b s is 0, so it is exact
    turns -= 4.0 * np.floor(turns * 0.25)  # n mod 4, exact
    a = np.abs(turns - 2.0)
    a -= 1.0
    b = np.abs(turns - 1.0, out=turns)
    np.subtract(1.0, b, out=b)
    np.multiply(a, s, out=sin)
    sin += b * c
    np.multiply(a, c, out=cos)
    cos -= b * s


def _octave_sincos(u, n_freqs):
    """(2, 3, F, K) sin/cos of fl(2 pi u) * 2^k, k < F, for u: (3, K) in [0, 1].

    Band-major, so each doubling runs over contiguous rows of K points.
    """
    n_anchor = -(-n_freqs // ANCHOR_EVERY)
    n_reduced = min(n_anchor, REDUCED_BANDS // ANCHOR_EVERY)
    scale = 2.0 ** (ANCHOR_EVERY * np.arange(n_anchor, dtype=np.float64))[:, None]
    # (sin/cos, axis, anchor, band after the anchor, point)
    work = np.empty((2, 3, n_anchor, ANCHOR_EVERY, u.shape[1]))
    sin, cos = work
    _quarter_turn_sincos(
        u, scale[:n_reduced], sin[:, :n_reduced, 0], cos[:, :n_reduced, 0]
    )
    if n_reduced < n_anchor:  # t 2^k is exact, and libm reduces it exactly
        phase = (TWO_PI * u)[:, None, :] * scale[n_reduced:]
        np.sin(phase, out=sin[:, n_reduced:, 0])
        np.cos(phase, out=cos[:, n_reduced:, 0])
    for j in range(1, ANCHOR_EVERY):
        s, c = sin[:, :, j - 1], cos[:, :, j - 1]
        np.multiply(s, c, out=sin[:, :, j])
        sin[:, :, j] *= 2.0
        np.multiply(c - s, c + s, out=cos[:, :, j])
    return work.reshape(2, 3, -1, u.shape[1])[:, :, :n_freqs]


def fourier_embed(positions, d, box=None, out=None):
    """K x d sin/cos features of box-relative coordinates, bounded in [-1, 1].

    There are F = d // 6 octave bands 2^0 .. 2^{F-1} per axis. Column
    ``a*F + k`` holds sin(t * 2^k) of axis a, with t = fl(2 pi u) for the
    box-normalized coordinate u; the next 3F columns hold the cosines, then
    zero padding up to d. The box defaults to the input's own
    extrema, which makes the embedding translation invariant. Points
    embedded in chunks take the whole cloud's ``bounding_box``, so each row
    is the one the whole cloud would give.

    sin/cos run on one band in ``ANCHOR_EVERY``, the anchor bands, and below
    width 294 only on arguments within pi/4 + 2^-8 of 0, where libm is
    about three times as fast as on [0, 2 pi]. Two identities give the
    rest:

    - Quarter-turn reduction. t * 2^k is exact, and corr = 2 pi u - t is
      known to ~1e-32 (``_two_pi_residual``). With v = 4 u 2^k (exact),
      n = rint(v) and f = v - n (exact, in [-1/2, 1/2]),
      t * 2^k = n pi/2 + r with r = fl(pi/2) f - corr 2^k. sin/cos of r
      are rotated by n quarter turns, exactly. From band
      ``REDUCED_BANDS`` on (widths of 294 and above), corr 2^k is neither
      small nor known well enough, so the anchors there take sin/cos of
      t * 2^k directly: libm reduces any argument exactly.
    - Angle doubling. The five bands after an anchor follow from
      sin 2x = 2 sin x cos x and cos 2x = (cos x - sin x)(cos x + sin x).

    r is off by ~1e-16 and each doubling doubles that, so every band stays
    within 1e-14 of sin/cos of t * 2^k evaluated directly, at every width.

    ``out``, if given, is a float64 K x d array (it may be a column slice of
    a wider one) that receives the columns and the zero padding, and is
    returned.
    """
    if d < 6:
        raise WidthTooSmall(f"embedding width {d} < 6")
    if box is None:
        box = bounding_box(positions)
    u = box_scale(positions, box)  # (K, 3) in [0, 1]
    k_pts, n_freqs = u.shape[0], d // 6
    if out is None:
        out = np.empty((k_pts, d))
    out[:, 6 * n_freqs :] = 0.0
    # splitting the column axis is always a view, even of a column slice
    used = out[:, : 6 * n_freqs].reshape(k_pts, 2, 3, n_freqs)
    used.transpose(1, 2, 3, 0)[...] = _octave_sincos(np.ascontiguousarray(u.T), n_freqs)
    return out


def mlp_project(features, weights: SeededWeights):
    """Forward pass of the shallow point-feature MLP (ReLU between layers)."""
    x = np.asarray(features, dtype=np.float64)
    # the stack's layers chain, so only the input can miss a fan-in
    if weights.n_layers and x.shape[1] != weights.shapes[0][0]:
        raise ShapeMismatch(f"input width {x.shape[1]} != fan-in {weights.shapes[0][0]}")
    for i in range(weights.n_layers):
        w, b = weights.layer(i)
        x = x @ w
        x += b
        if i < weights.n_layers - 1:
            np.maximum(x, 0.0, out=x)
    return x


def head_blocks(rows):
    """(lo, hi) bounds of consecutive blocks of ``HEAD_ROWS`` rows, the last
    taking the remainder. A one-row product goes to gemv, which rounds
    unlike gemm, so no block has a single row unless ``rows`` is 1: a
    product taken block by block has the bits of the whole-array one."""
    heads = np.arange(max(1, rows // HEAD_ROWS) + 1) * HEAD_ROWS
    heads[-1] = rows
    return list(zip(heads[:-1].tolist(), heads[1:].tolist()))


def _split_head(weights: SeededWeights):
    """(hidden layers, last layer) of the point MLP."""
    if weights.n_layers < 1:
        raise ShapeMismatch("the point MLP has no layers")
    return weights.split(-1)


def point_tokens(cloud: PointCloud, weights: SeededWeights, box=None, out=None):
    """K x (h+d) point rows: the MLP's last hidden layer, then the d-wide
    ``fourier_embed``, d the last layer's fan-out.

    The hidden part is ReLU(every layer but the last) of the features, h wide
    (the raw features for a one-layer MLP). ``superpoint_pool`` applies the
    last layer after the mean. ``box`` is passed on to ``fourier_embed``,
    which writes the embedding straight into the rows. ``out``, if given, is
    a float64 K x (h+d) array that receives the rows and is returned.
    """
    hidden, head = _split_head(weights)
    h, d = head.shapes[0]
    x0 = out if out is not None else np.empty((cloud.n_points, h + d))
    fourier_embed(cloud.positions, d, box, out=x0[:, h:])
    feat = mlp_project(cloud.features, hidden)
    if feat.shape[1] != h:
        raise ShapeMismatch(f"last layer fan-in {h} != hidden width {feat.shape[1]}")
    if hidden.n_layers:
        np.maximum(feat, 0.0, out=x0[:, :h])
    else:
        x0[:, :h] = feat
    return x0


def superpoint_pool(
    cloud: PointCloud, part: SuperpointPartition, weights: SeededWeights
) -> TokenMatrix:
    """Superpoint tokens of ``cloud``, as wide as the point MLP's fan-out;
    sentinel points are excluded.

    The points are sorted by label once, the n_sentinel sentinels (-1)
    first, and cut every ``CHUNK_POINTS`` points inside the sentinel run, at
    n_sentinel, and past it at the first label start at or after every
    ``CHUNK_POINTS``-th point. So no chunk mixes sentinel and labeled points,
    and a labeled chunk holds whole superpoints and is shorter than
    ``CHUNK_POINTS`` plus the largest one. Each chunk's ``point_tokens`` rows
    (with the whole cloud's box, in one reused buffer) are averaged per
    label; sentinel rows are dropped. The means of the h hidden columns go
    into one (M, h) array and those of the embedding columns straight into
    the (M, d) output. Then the MLP's last layer runs over the hidden means
    in blocks of ``HEAD_ROWS`` superpoints, the last block taking the
    remainder, and each block is added into the output. Every point goes
    through ``point_tokens`` once.
    """
    _, head = _split_head(weights)
    h, d = head.shapes[0]
    labels = np.asarray(part.labels, dtype=np.int64)
    n, counts = labels.shape[0], label_counts(labels, part.n_superpoints)
    n_sentinel = n - int(counts.sum())
    # sentinels (-1) first; labels + 1 <= M
    order = stable_order([(labels + 1, part.n_superpoints.bit_length())])
    box = bounding_box(cloud.positions)
    starts = np.append(n_sentinel + np.cumsum(counts) - counts, n)  # label starts, n
    past = starts[np.searchsorted(starts, np.arange(n_sentinel, n, CHUNK_POINTS))]
    cuts = np.unique(np.concatenate(
        (np.arange(0, n_sentinel, CHUNK_POINTS), past, [n_sentinel, n])
    ))
    buf = np.empty((np.diff(cuts).max(initial=0), h + d))
    hidden = np.empty((part.n_superpoints, h))
    feats = np.empty((part.n_superpoints, d))  # the embedding means, then the tokens
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        idx = order[lo:hi]
        chunk = PointCloud(positions=cloud.positions[idx], features=cloud.features[idx])
        rows = point_tokens(chunk, weights, box, buf[: hi - lo])
        if lo >= n_sentinel:  # sentinel chunks are tokenized, then dropped
            lab = labels[idx]
            first, last = lab[0], lab[-1]
            means = segment_mean(lab - first, last + 1 - first, rows)
            hidden[first : last + 1] = means[:, :h]
            feats[first : last + 1] = means[:, h:]
    for lo, hi in head_blocks(part.n_superpoints):
        feats[lo:hi] += mlp_project(hidden[lo:hi], head)
    return TokenMatrix(feats=feats, centers=part.centers)


def voxel_superpoints(cloud: PointCloud, cell: float) -> SuperpointPartition:
    """Fallback segmentation: points sharing a voxel cell share a label.

    Labels are compacted to {0..M-1} in lexicographic voxel order, which is
    deterministic for a fixed input. Each axis's voxel index is replaced by
    its dense rank among the distinct indices on that axis; the x and y ranks
    are packed into one key and re-ranked, and that rank is packed with the
    z rank. Ranks are below N, so each packed key is below N^2 and fits in
    int64 whatever the coordinate span, and the voxel indices themselves stay
    float64 integers, never cast.
    """
    if not (np.isfinite(cell) and cell > 0):
        raise ConfigError(f"voxel cell {cell} must be positive and finite")
    voxels = np.floor(cloud.positions / cell)
    _, rank = _dense_rank(voxels[:, 0])
    for axis in (1, 2):
        n_axis, axis_rank = _dense_rank(voxels[:, axis])
        _, rank = _dense_rank(rank * n_axis + axis_rank)
    return build_partition(rank, cloud.positions)


def _dense_rank(values):
    """(number of distinct values, each value's rank among them)."""
    distinct, rank = np.unique(values, return_inverse=True)
    return distinct.size, rank
