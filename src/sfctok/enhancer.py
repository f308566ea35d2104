"""Windowed spectral low-pass mixing along SFC orderings.

Each curve ordering turns the token matrix into a 1D sequence; overlapping
windows are rFFT'd along the token axis, gated in the spectrum, inverse
transformed, and reassembled by squared-Hann overlap-add. The per-curve
results are fused by uniform averaging and added back as a residual.

The mix is linear along the token axis and the same for every channel, so
it is a K x K matrix acting on the sequence, which ``_mix_operator`` builds
whole from identity windows. ``_mix_operators`` cuts it into pieces, each
an operator with its row and column offsets and a count of stride blocks
that share it: one piece each for the head rows, the interior blocks and
the tail rows (or one for the whole matrix on a short sequence).
``enhance`` builds the pieces once and keeps one K x d sum; each curve
walks every piece tile by tile through one reused buffer pair and adds it
into that sum at the curve's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import TokenMatrix
from .errors import ConfigError, CurveLengthMismatch, CurveNotPermutation

ZERO_WEIGHT_EPS = 1e-12
TILE_BLOCKS = 64  # stride blocks per tile: 1024 rows at stride 16


def lowpass_gate(window: int, k_low: int):
    """Binary gate keeping the first k_low rFFT bins of a length-L window."""
    if k_low < 0:
        raise ConfigError(f"k_low {k_low} must be nonnegative")
    n_bins = window // 2 + 1
    gate = np.zeros(n_bins)
    gate[: min(k_low, n_bins)] = 1.0
    return gate


@dataclass(frozen=True)
class EnhancerConfig:
    window: int
    stride: int
    gate: np.ndarray  # (window//2 + 1,) finite, nonnegative
    curves: tuple = ()  # int64 permutations of the tokens, as sfc.serialize_all gives

    def __post_init__(self):
        if not 1 <= self.stride <= self.window:
            raise ConfigError(f"stride {self.stride} outside 1..{self.window}")
        gate = np.asarray(self.gate, dtype=np.float64)
        if gate.shape != (self.window // 2 + 1,):
            raise ConfigError(
                f"gate length {gate.shape} != rFFT bins of window {self.window}"
            )
        if not np.isfinite(gate).all() or (gate < 0).any():
            raise ConfigError("gate entries must be finite and nonnegative")
        object.__setattr__(self, "gate", gate)


def rfft_forward(x, axis=-1):
    """Real FFT along ``axis``: the first n//2+1 complex DFT coefficients."""
    return np.fft.rfft(x, axis=axis)


def rfft_inverse(bins, n, axis=-1):
    """Inverse of rfft_forward for a length-n real signal."""
    return np.fft.irfft(bins, n=n, axis=axis)


def squared_hann(window: int):
    """hann(n)^2 with hann(n) = 0.5 (1 - cos(2 pi n / (L-1))); zero endpoints."""
    if window == 1:
        return np.ones(1)
    n = np.arange(window)
    h = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / (window - 1)))
    return h * h


def _mix_operator(n, cfg: EnhancerConfig):
    """The n x n matrix that windowed-mixes a length-n sequence.

    Windows start at 0, stride, 2*stride, ... and are clipped at n (the gate
    truncates to the shorter bin count). Each window contributes the gated
    rFFT round trip of the identity, placed at its rows and columns and
    weighted by squared Hann; a row is divided by its total weight, or takes
    the plain average of its windows where that weight vanishes (window
    endpoints with no overlap).
    """
    L, R = cfg.window, cfg.stride
    w = squared_hann(L)
    acc = np.zeros((n, n))
    acc_w = np.zeros(n)
    acc_plain = np.zeros((n, n))
    count = np.zeros(n)
    for s0 in range(0, n, R):
        end = min(s0 + L, n)
        spectrum = rfft_forward(np.eye(end - s0), axis=0)
        spectrum *= cfg.gate[: (end - s0) // 2 + 1, None]
        mixed = rfft_inverse(spectrum, n=end - s0, axis=0)
        acc[s0:end, s0:end] += mixed * w[: end - s0, None]
        acc_w[s0:end] += w[: end - s0]
        acc_plain[s0:end, s0:end] += mixed
        count[s0:end] += 1.0
    out = acc_plain / count[:, None]
    weighted = acc_w > ZERO_WEIGHT_EPS
    out[weighted] = acc[weighted] / acc_w[weighted, None]
    return out


def _mix_operators(k, cfg: EnhancerConfig):
    """The mix of a length-k sequence x as a tuple of pieces.

    A piece ``(op, row, col, n_blocks)`` with an r x c operator ``op`` gives
    output rows ``row + jr : row + (j+1)r`` as ``op @ x[col + jr : col + jr
    + c]`` for each block j < n_blocks, and the pieces write every row once.
    The interior piece holds the R x span operator, span = (m-1)R + L with
    m = ceil(L/R), that every stride block covered by m full windows shares.
    The head rows before its blocks and the tail rows after them are
    one-block pieces. The head and interior pieces are rows of the span x
    span operator; the tail piece is rows of the operator of x[t0:], t0
    the start of the first window covering the tail. Below span rows one
    piece holds the k x k operator. Pieces without rows are dropped.
    """
    L, R = cfg.window, cfg.stride
    head = (-(-L // R) - 1) * R
    span = head + L
    if k < span:
        pieces = [(_mix_operator(k, cfg), 0, 0, 1)]
    else:
        n_blocks = (k - span) // R + 1
        tail = head + n_blocks * R
        t0 = -(-(tail - L + 1) // R) * R  # start of the first window covering row tail
        body = _mix_operator(span, cfg)[: head + R]
        pieces = [
            (body[:head], 0, 0, 1),
            (body[head:], head, 0, n_blocks),
            (_mix_operator(k - t0, cfg)[tail - t0 :], tail, t0, 1),
        ]
    return tuple(piece for piece in pieces if piece[0].shape[0])


def windowed_mix(seq, cfg: EnhancerConfig, order=None, out=None, ops=None):
    """Add the windowed mix of ``seq[order]`` into ``out[order]``; return ``out``.

    The mix of a K x d sequence is ``_mix_operator(K, cfg) @ seq``: the
    squared-Hann overlap-add of the gated windows, with the plain average
    where that weight vanishes, so an all-ones gate is exactly the identity
    and an all-zeros gate annihilates.

    ``order`` (default: the identity) must permute the K rows. ``out``
    (default: zeros, so that ``windowed_mix(seq, cfg)`` is the mix of
    ``seq``) is a float64 K x d array that does not overlap ``seq``. ``ops``
    is ``_mix_operators(K, cfg)``, built here unless given.

    Each piece is walked in tiles of up to ``TILE_BLOCKS`` blocks: a tile
    gathers the input rows it needs, mixes its blocks by one batched product
    over a strided view of them, and adds the result into ``out``. One
    buffer pair sized for the largest tile serves every piece.
    """
    seq = np.asarray(seq, dtype=np.float64)
    k, d = seq.shape
    order = np.arange(k) if order is None else order
    out = np.zeros((k, d)) if out is None else out
    pieces = _mix_operators(k, cfg) if ops is None else ops
    tiles = [(op.shape, min(TILE_BLOCKS, n)) for op, _, _, n in pieces]
    x = np.empty((max([(t - 1) * r + c for (r, c), t in tiles], default=0), d))
    y = np.empty((max([t * r for (r, _), t in tiles], default=0), d))
    for (op, row, col, n_blocks), ((r, c), tile) in zip(pieces, tiles):
        for lo in range(0, n_blocks * r, tile * r):
            nb = min(tile, n_blocks - lo // r)
            xs, ys = x[: (nb - 1) * r + c], y[: nb * r]
            # mode="clip" skips the bounds check: order permutes 0..K-1
            cols = order[col + lo : col + lo + len(xs)]
            np.take(seq, cols, axis=0, out=xs, mode="clip")
            blocks = as_strided(xs, (nb, c, d), (r * xs.strides[0], *xs.strides))
            np.matmul(op, blocks, out=ys.reshape(nb, r, d))
            # out[rows] += ys for distinct rows: take them, add, put them back
            rows = order[row + lo : row + lo + nb * r]
            ys += np.take(out, rows, axis=0, mode="clip")
            out[rows] = ys
    return out


def _checked(perm, k, index):
    """Curve ``index`` as an array; raises unless it permutes 0..k-1."""
    perm = np.asarray(perm)
    if perm.shape != (k,):
        raise CurveLengthMismatch(
            f"curve {index} of shape {perm.shape} applied to {k} tokens"
        )
    seen = np.zeros(k, dtype=bool)
    if perm.dtype.kind in "iu" and (k == 0 or 0 <= perm.min() <= perm.max() < k):
        seen[perm] = True
    if not seen.all():  # an entry out of range, or a token repeated and one missed
        raise CurveNotPermutation(f"curve {index} is not a permutation of 0..{k - 1}")
    return perm


def enhance(tokens: TokenMatrix, cfg: EnhancerConfig) -> TokenMatrix:
    """Residual multi-curve enhancement: S + mean_over_curves(mix(S[perm])).

    Every curve must permute the K tokens. The mixing operators are built
    once, and each curve's mix is added into one K x d sum, in curve order.
    """
    if not cfg.curves:
        raise CurveLengthMismatch("config carries no curve orders")
    feats = np.asarray(tokens.feats, dtype=np.float64)
    k = tokens.n_tokens
    curves = [_checked(perm, k, i) for i, perm in enumerate(cfg.curves)]
    ops = _mix_operators(k, cfg)
    acc = np.zeros(feats.shape)
    for perm in curves:
        windowed_mix(feats, cfg, perm, acc, ops)
    acc /= len(curves)
    acc += feats
    return TokenMatrix(feats=acc, centers=tokens.centers)
