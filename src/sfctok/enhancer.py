"""Windowed spectral low-pass mixing along SFC orderings.

Each curve ordering turns the token matrix into a 1D sequence; overlapping
windows are rFFT'd along the token axis, gated in the spectrum, inverse
transformed, and reassembled by squared-Hann overlap-add. The per-curve
results are fused by uniform averaging and added back as a residual.

The mix is linear along the token axis and the same for every channel, so a
full window applies one fixed L x L matrix (the gated rFFT round trip of the
identity). Away from the sequence ends every block of R = stride output rows
is then the same R x ((ceil(L/R) - 1) R + L) band operator applied to the
input span that covers it, and all such blocks are evaluated by one batched
matrix product over a strided view of the sequence. Only the rows near the
two ends, where windows are missing or clipped, are mixed window by window
through the FFT.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TokenMatrix
from .errors import CurveLengthMismatch

ZERO_WEIGHT_EPS = 1e-12


def lowpass_gate(window: int, k_low: int = 128):
    """Binary gate keeping the first k_low rFFT bins of a length-L window."""
    n_bins = window // 2 + 1
    gate = np.zeros(n_bins)
    gate[: min(k_low, n_bins)] = 1.0
    return gate


@dataclass(frozen=True)
class EnhancerConfig:
    window: int = 64
    stride: int = 16
    gate: np.ndarray = None  # (window//2 + 1,) nonnegative
    curves: tuple = ()  # CurveOrders built from the token centers

    def __post_init__(self):
        if not 1 <= self.stride <= self.window:
            raise ValueError(f"stride {self.stride} outside 1..{self.window}")
        gate = self.gate
        if gate is None:
            gate = lowpass_gate(self.window)
        gate = np.asarray(gate, dtype=np.float64)
        if gate.shape != (self.window // 2 + 1,):
            raise ValueError(
                f"gate length {gate.shape} != rFFT bins of window {self.window}"
            )
        if (gate < 0).any():
            raise ValueError("gate entries must be nonnegative")
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


def _edge_rows(seq, cfg: EnhancerConfig, lo, hi):
    """Output rows lo..hi-1 by mixing each covering window on its own."""
    k, d = seq.shape
    L, R = cfg.window, cfg.stride
    w = squared_hann(L)
    acc = np.zeros((hi - lo, d))
    acc_w = np.zeros(hi - lo)
    acc_plain = np.zeros((hi - lo, d))
    count = np.zeros(hi - lo)
    first = max(0, -(-(lo - L + 1) // R))
    for s0 in range(first * R, hi, R):
        end = min(s0 + L, k)
        mixed = _mix_window(seq[s0:end], cfg.gate)
        a, b = max(s0, lo), min(end, hi)
        part = mixed[a - s0 : b - s0]
        acc[a - lo : b - lo] += part * w[a - s0 : b - s0, None]
        acc_w[a - lo : b - lo] += w[a - s0 : b - s0]
        acc_plain[a - lo : b - lo] += part
        count[a - lo : b - lo] += 1.0
    out = np.empty_like(acc)
    weighted_pos = acc_w > ZERO_WEIGHT_EPS
    out[weighted_pos] = acc[weighted_pos] / acc_w[weighted_pos, None]
    out[~weighted_pos] = acc_plain[~weighted_pos] / count[~weighted_pos, None]
    return out


def _band_operator(cfg: EnhancerConfig):
    """Interior overlap-add as one (R, (m-1)R + L) matrix, m = ceil(L/R).

    Output row qR + r is covered by the m windows starting at (q-t)R,
    t = 0..m-1, where it sits at window row tR + r (when that is < L).
    Each full window applies the fixed L x L matrix G (the gated spectral
    mix of the identity), so the row is a combination of G's rows placed at
    column offset (m-1-t)R of the input span starting at (q-m+1)R, weighted
    by squared Hann and divided by the total weight, or averaged plainly
    where that weight vanishes.
    """
    L, R = cfg.window, cfg.stride
    m = -(-L // R)
    # window rows tR + r >= L do not exist: pad them with zero weight
    g = np.zeros((m * R, L))
    g[:L] = _mix_window(np.eye(L), cfg.gate)  # mixed = g @ window
    hann = np.zeros(m * R)
    hann[:L] = squared_hann(L)
    covered = np.arange(m * R) < L
    hann, covered = hann.reshape(m, R), covered.reshape(m, R)
    weight = np.where(hann.sum(axis=0) > ZERO_WEIGHT_EPS, hann, covered)
    coef = weight / weight.sum(axis=0)
    band = np.zeros((R, (m - 1) * R + L))
    for t in range(m):
        off = (m - 1 - t) * R
        band[:, off : off + L] += coef[t, :, None] * g[t * R : (t + 1) * R]
    return band


def windowed_mix(seq, cfg: EnhancerConfig):
    """Transform a K x d sequence window-by-window and overlap-add.

    Windows start at 0, stride, 2*stride, ...; windows running past the
    sequence end are clipped (the gate truncates to the shorter bin count).
    The accumulated output is divided by the accumulated squared-Hann
    weight; positions whose squared-Hann mass vanishes (window endpoints
    with no overlap) take the plain average of their covering windows'
    mixed values, so an all-ones gate is exactly the identity and an
    all-zeros gate annihilates.

    Rows whose covering windows are all full and all present form whole
    stride blocks; they come from one batched product of ``_band_operator``
    with a strided view of the overlapping input spans. The head rows and
    the rows from the first clipped window on are mixed window by window.
    """
    seq = np.ascontiguousarray(seq, dtype=np.float64)
    k, d = seq.shape
    L, R = cfg.window, cfg.stride
    m = -(-L // R)
    n_full = (k - L) // R + 1 if k >= L else 0
    head, tail = (m - 1) * R, n_full * R
    if tail <= head:
        return _edge_rows(seq, cfg, 0, k)

    out = np.empty_like(seq)
    n_blocks = n_full - m + 1
    span = (m - 1) * R + L
    spans = np.lib.stride_tricks.sliding_window_view(seq, span, axis=0)[::R]
    np.matmul(
        _band_operator(cfg),
        spans[:n_blocks].transpose(0, 2, 1),
        out=out[head:tail].reshape(n_blocks, R, d),
    )
    out[:head] = _edge_rows(seq, cfg, 0, head)
    out[tail:] = _edge_rows(seq, cfg, tail, k)
    return out


def enhance(tokens: TokenMatrix, cfg: EnhancerConfig) -> TokenMatrix:
    """Residual multi-curve enhancement: S + mean_over_curves(mix(S[perm]))."""
    if not cfg.curves:
        raise CurveLengthMismatch("config carries no curve orders")
    k = tokens.n_tokens
    mixed_sum = np.zeros_like(tokens.feats)
    for curve in cfg.curves:
        if curve.n != k:
            raise CurveLengthMismatch(
                f"curve over {curve.n} tokens applied to {k} tokens"
            )
        mixed = windowed_mix(tokens.feats[curve.perm], cfg)
        mixed_sum += mixed[curve.inv_perm]
    context = mixed_sum / len(cfg.curves)
    return TokenMatrix(feats=tokens.feats + context, centers=tokens.centers)
