"""Windowed spectral low-pass mixing along SFC orderings.

Each curve ordering turns the token matrix into a 1D sequence; overlapping
windows are rFFT'd along the token axis, gated in the spectrum, inverse
transformed, and reassembled by squared-Hann overlap-add. The per-curve
results are fused by uniform averaging and added back as a residual.

The mix is linear along the token axis and the same for every channel, so
it is an n x n matrix acting on the sequence. ``_mix_operator`` is its one
definition: it runs the window loop on identity windows and returns the
requested rows. The sequence itself enters only matrix products, and every
interior stride block of rows shares one banded operator, applied by one
batched product over a strided view of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TokenMatrix
from .errors import ConfigError, CurveLengthMismatch, CurveNotPermutation

ZERO_WEIGHT_EPS = 1e-12


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


def _mix_window(window, gate):
    """Gate one window (any length) in its rFFT spectrum."""
    n = window.shape[0]
    spectrum = rfft_forward(window, axis=0) * gate[: n // 2 + 1, None]
    return rfft_inverse(spectrum, n=n, axis=0)


def _mix_operator(n, cfg: EnhancerConfig, lo, hi):
    """Rows lo..hi-1 of the n x n matrix that windowed-mixes a length-n sequence.

    Windows start at 0, stride, 2*stride, ... and are clipped at n (the gate
    truncates to the shorter bin count). Each covering window contributes
    the gated rFFT round trip of the identity, placed at its columns and
    weighted by squared Hann; a row is divided by its total weight, or takes
    the plain average of its windows where that weight vanishes (window
    endpoints with no overlap).
    """
    L, R = cfg.window, cfg.stride
    w = squared_hann(L)
    acc = np.zeros((hi - lo, n))
    acc_w = np.zeros(hi - lo)
    acc_plain = np.zeros((hi - lo, n))
    count = np.zeros(hi - lo)
    first = max(0, -(-(lo - L + 1) // R))
    for s0 in range(first * R, hi, R):
        end = min(s0 + L, n)
        mixed = _mix_window(np.eye(end - s0), cfg.gate)
        a, b = max(s0, lo), min(end, hi)
        part = mixed[a - s0 : b - s0]
        acc[a - lo : b - lo, s0:end] += part * w[a - s0 : b - s0, None]
        acc_w[a - lo : b - lo] += w[a - s0 : b - s0]
        acc_plain[a - lo : b - lo, s0:end] += part
        count[a - lo : b - lo] += 1.0
    out = acc_plain / count[:, None]
    weighted = acc_w > ZERO_WEIGHT_EPS
    out[weighted] = acc[weighted] / acc_w[weighted, None]
    return out


def windowed_mix(seq, cfg: EnhancerConfig, out=None):
    """Mix a K x d sequence window by window and overlap-add.

    The result is ``_mix_operator(K, cfg, 0, K) @ seq``: the squared-Hann
    overlap-add of the gated windows, with the plain average where that
    weight vanishes, so an all-ones gate is exactly the identity and an
    all-zeros gate annihilates.

    With m = ceil(L/R), every row from (m-1)R up to the first clipped
    window's start is covered by m full windows at the same offsets, so each
    stride block of those rows applies the same R x ((m-1)R + L) operator
    to the input span that covers it. Those blocks come from one batched
    product with a strided view of the spans; the head and tail rows come
    from small operators over the input rows that reach them.

    ``out``, if given, is a C-contiguous float64 K x d array that does not
    overlap ``seq``; the result is written there and returned.
    """
    seq = np.ascontiguousarray(seq, dtype=np.float64)
    k, d = seq.shape
    if out is None:
        out = np.empty_like(seq)
    L, R = cfg.window, cfg.stride
    m = -(-L // R)
    head = (m - 1) * R
    span = head + L
    if k < span:
        return np.matmul(_mix_operator(k, cfg, 0, k), seq, out=out)

    n_full = (k - L) // R + 1
    n_blocks = n_full - m + 1
    tail = n_full * R
    t0 = -(-(tail - L + 1) // R) * R  # start of the first window covering row tail
    ops = _mix_operator(span, cfg, 0, head + R)
    np.matmul(ops[:head], seq[:span], out=out[:head])
    spans = np.lib.stride_tricks.sliding_window_view(seq, span, axis=0)[::R]
    np.matmul(
        ops[head:],
        spans[:n_blocks].transpose(0, 2, 1),
        out=out[head:tail].reshape(n_blocks, R, d),
    )
    np.matmul(
        _mix_operator(k - t0, cfg, tail - t0, k - t0), seq[t0:], out=out[tail:]
    )
    return out


def _inverse(perm, k, index):
    """Inverse of curve ``index``; raises unless it permutes 0..k-1."""
    perm = np.asarray(perm)
    if perm.shape != (k,):
        raise CurveLengthMismatch(
            f"curve {index} of shape {perm.shape} applied to {k} tokens"
        )
    inv = np.full(k, -1, dtype=np.int64)
    if perm.dtype.kind in "iu" and (k == 0 or 0 <= perm.min() <= perm.max() < k):
        inv[perm] = np.arange(k)
    if (inv < 0).any():  # an entry out of range, or a token repeated and one missed
        raise CurveNotPermutation(f"curve {index} is not a permutation of 0..{k - 1}")
    return inv


def enhance(tokens: TokenMatrix, cfg: EnhancerConfig) -> TokenMatrix:
    """Residual multi-curve enhancement: S + mean_over_curves(mix(S[perm])).

    Every curve must permute the K tokens. Each curve's gather, mix and
    scatter back run through two reused K x d buffers into one sum, added
    in curve order.
    """
    if not cfg.curves:
        raise CurveLengthMismatch("config carries no curve orders")
    feats = np.asarray(tokens.feats, dtype=np.float64)
    k = tokens.n_tokens
    inverses = [_inverse(perm, k, i) for i, perm in enumerate(cfg.curves)]
    seq = np.empty(feats.shape)
    mixed = np.empty(feats.shape)
    acc = np.zeros(feats.shape)
    # mode="clip" skips the bounds check that _inverse has already made
    for perm, inv in zip(cfg.curves, inverses):
        np.take(feats, perm, axis=0, out=seq, mode="clip")
        windowed_mix(seq, cfg, out=mixed)
        np.take(mixed, inv, axis=0, out=seq, mode="clip")
        acc += seq
    acc /= len(cfg.curves)
    acc += feats
    return TokenMatrix(feats=acc, centers=tokens.centers)
