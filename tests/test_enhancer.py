import tracemalloc

import numpy as np
import pytest

from sfctok.core import TokenMatrix
from sfctok.enhancer import (
    TILE_BLOCKS,
    EnhancerConfig,
    _mix_operator,
    _mix_operators,
    enhance,
    lowpass_gate,
    rfft_forward,
    rfft_inverse,
    squared_hann,
    windowed_mix,
)
from sfctok.errors import ConfigError, CurveLengthMismatch, CurveNotPermutation
from sfctok.sfc import serialize_all


def identity_cfg(window=64, stride=16, curves=()):
    return EnhancerConfig(
        window=window, stride=stride, gate=np.ones(window // 2 + 1), curves=curves
    )


class TestRfft:
    def test_constant_signal_dc_only(self):
        bins = rfft_forward(np.full(16, 3.0))
        assert np.isclose(bins[0], 48.0)
        assert np.allclose(bins[1:], 0.0, atol=1e-12)

    def test_roundtrip(self, rng):
        x = rng.normal(size=64)
        back = rfft_inverse(rfft_forward(x), n=64)
        assert np.abs(back - x).max() < 1e-10 * np.linalg.norm(x)

    def test_cosine_concentrates_in_bin(self):
        n = 64
        x = np.cos(2 * np.pi * 3 * np.arange(n) / n)
        # direct DFT sum oracle for bin 3
        oracle = sum(x[i] * np.exp(-2j * np.pi * 3 * i / n) for i in range(n))
        bins = rfft_forward(x)
        assert np.isclose(bins[3], oracle)
        mags = np.abs(bins)
        assert mags[3] > 100 * np.delete(mags, 3).max()

    def test_parseval(self, rng):
        n = 50
        x = rng.normal(size=n)
        bins = rfft_forward(x)
        # Hermitian pairs counted twice except DC and (for even n) Nyquist
        weights = np.full(bins.shape[0], 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        spectral = (weights * np.abs(bins) ** 2).sum() / n
        assert np.isclose((x**2).sum(), spectral, rtol=1e-10)


def naive_windowed_mix(seq, window, stride, gate):
    """Per-window oracle: rFFT, gate, irFFT, squared-Hann overlap-add."""
    k, d = seq.shape
    w = squared_hann(window)
    acc = np.zeros((k, d))
    acc_w = np.zeros(k)
    acc_plain = np.zeros((k, d))
    count = np.zeros(k)
    for s0 in range(0, k, stride):
        x = seq[s0 : s0 + window]
        n = x.shape[0]
        spectrum = np.fft.rfft(x, axis=0) * gate[: n // 2 + 1, None]
        mixed = np.fft.irfft(spectrum, n=n, axis=0)
        acc[s0 : s0 + n] += w[:n, None] * mixed
        acc_w[s0 : s0 + n] += w[:n]
        acc_plain[s0 : s0 + n] += mixed
        count[s0 : s0 + n] += 1.0
    out = acc_plain / count[:, None]
    weighted = acc_w > 1e-12
    out[weighted] = acc[weighted] / acc_w[weighted, None]
    return out


class TestWindowedMixOracle:
    @pytest.mark.parametrize(
        "k,window,stride",
        [
            (300, 64, 16),  # stride divides window
            (300, 64, 24),  # stride does not divide window
            (257, 20, 7),
            (200, 16, 16),  # stride == window: zero-weight rows inside
            (200, 17, 16),  # stride == window - 1: zero-weight seam rows
            (100, 12, 1),
            (40, 64, 16),  # K < window: one clipped window family only
            (1, 8, 4),
            (111, 64, 16),  # K = span - 1: one operator for the whole sequence
            (112, 64, 16),  # K = span: head, one interior block, tail
            (1000, 64, 24),  # tail of several clipped windows, R does not divide L
        ],
    )
    @pytest.mark.parametrize("fortran_order", [False, True])
    @pytest.mark.parametrize("gate_kind", ["lowpass", "random"])
    def test_matches_naive(self, rng, k, window, stride, fortran_order, gate_kind):
        bins = window // 2 + 1
        if gate_kind == "lowpass":
            gate = lowpass_gate(window, max(1, bins // 3))
        else:
            gate = rng.uniform(0.0, 2.0, size=bins)
        x = rng.normal(size=(k, 5)) + 3.0
        if fortran_order:
            # the same cases on a column-major input: any layout is accepted
            x = np.asfortranarray(x)
        cfg = EnhancerConfig(window=window, stride=stride, gate=gate)
        got = windowed_mix(x, cfg)
        want = naive_windowed_mix(x, window, stride, gate)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestWindowedMix:
    @pytest.mark.parametrize("k", [1, 5, 63, 64, 65, 300])
    def test_identity_gate(self, rng, k):
        x = rng.normal(size=(k, 4))
        y = windowed_mix(x, identity_cfg())
        assert np.abs(y - x).max() <= 1e-8 * max(np.abs(x).max(), 1.0)

    def test_constant_sequence_lowpass(self):
        x = np.full((100, 3), 2.5)
        cfg = EnhancerConfig(window=64, stride=16, gate=lowpass_gate(64, 8))
        assert np.allclose(windowed_mix(x, cfg), x)

    def test_single_window_dc_gate_gives_window_mean(self, rng):
        x = rng.normal(size=(64, 5))
        cfg = EnhancerConfig(window=64, stride=64, gate=lowpass_gate(64, 1))
        y = windowed_mix(x, cfg)
        m = x.mean(axis=0)
        # zero-weight endpoints fall back to the mixed value, also the mean
        assert np.allclose(y, np.tile(m, (64, 1)))

    def test_zero_weight_positions_detected(self):
        w = squared_hann(64)
        assert w[0] == 0.0 and w[-1] == 0.0
        assert (w[1:-1] > 0).all()

    def test_channel_independence(self, rng):
        x = rng.normal(size=(40, 6))
        x[:, 2] = 0.0
        cfg = EnhancerConfig(window=16, stride=4, gate=lowpass_gate(16, 3))
        y = windowed_mix(x, cfg)
        assert np.allclose(y[:, 2], 0.0, atol=1e-14)


class TestEnhance:
    def make_tokens(self, rng, k=100, d=8):
        centers = rng.uniform(size=(k, 3))
        return TokenMatrix(feats=rng.normal(size=(k, d)), centers=centers)

    def test_zero_gate_is_identity(self, rng):
        s = self.make_tokens(rng)
        curves = tuple(serialize_all(s.centers, b=8))
        cfg = EnhancerConfig(window=64, stride=16, gate=np.zeros(33), curves=curves)
        out = enhance(s, cfg)
        assert np.allclose(out.feats, s.feats)

    def test_identity_gate_single_curve_doubles(self, rng):
        s = self.make_tokens(rng)
        hilbert = serialize_all(s.centers, b=8)[2]
        out = enhance(s, identity_cfg(curves=(hilbert,)))
        assert np.allclose(out.feats, 2 * s.feats, rtol=1e-8)

    def test_four_tokens_closed_form(self, rng):
        # K=4, L=4, R=4, DC-only gate, one x-sorted curve
        centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        feats = rng.normal(size=(4, 3))
        s = TokenMatrix(feats=feats, centers=centers)
        zorder = serialize_all(centers, b=4)[0]
        assert np.array_equal(zorder, np.arange(4))
        cfg = EnhancerConfig(
            window=4, stride=4, gate=lowpass_gate(4, 1), curves=(zorder,)
        )
        out = enhance(s, cfg)
        mean = feats.mean(axis=0)
        expected = feats + mean
        assert np.allclose(out.feats, expected)

    def test_linearity(self, rng):
        s = self.make_tokens(rng)
        curves = tuple(serialize_all(s.centers, b=8))
        cfg = EnhancerConfig(
            window=32, stride=8, gate=lowpass_gate(32, 5), curves=curves
        )
        base = enhance(s, cfg).feats
        for alpha in (0.0, 1.0, 2.5):
            scaled = TokenMatrix(feats=alpha * s.feats, centers=s.centers)
            assert np.allclose(enhance(scaled, cfg).feats, alpha * base, rtol=1e-9,
                               atol=1e-12)

    def test_permutation_consistency(self, rng):
        s = self.make_tokens(rng, k=60)
        shuffle = rng.permutation(60)
        cfg_a = EnhancerConfig(
            window=16, stride=4, gate=lowpass_gate(16, 3),
            curves=tuple(serialize_all(s.centers, b=8)),
        )
        s2 = TokenMatrix(feats=s.feats[shuffle], centers=s.centers[shuffle])
        cfg_b = EnhancerConfig(
            window=16, stride=4, gate=lowpass_gate(16, 3),
            curves=tuple(serialize_all(s2.centers, b=8)),
        )
        a = enhance(s, cfg_a).feats
        b = enhance(s2, cfg_b).feats
        assert np.allclose(a[shuffle], b, rtol=1e-9, atol=1e-12)

    def test_curve_length_mismatch(self, rng):
        s = self.make_tokens(rng, k=10)
        bad_curve = serialize_all(rng.uniform(size=(11, 3)), b=4)[0]
        with pytest.raises(CurveLengthMismatch):
            enhance(s, identity_cfg(curves=(bad_curve,)))

    @pytest.mark.parametrize(
        "bad",
        [
            lambda p: np.where(p == 5, 6, p),
            lambda p: np.where(p == 5, 200, p),
            lambda p: np.where(p == 5, -1, p),
            lambda p: p.astype(np.float64),
        ],
        ids=["duplicate", "past_the_end", "negative", "float"],
    )
    def test_curve_not_a_permutation(self, rng, bad):
        # the second curve names token 6 twice and token 5 never, names a
        # token that does not exist, or is not integer: no token may read
        # unset memory
        s = self.make_tokens(rng, k=200)
        curves = tuple(serialize_all(s.centers, b=8))
        curves = (curves[0], bad(curves[1]), curves[2])
        with pytest.raises(CurveNotPermutation, match="curve 1 is not a permutation"):
            enhance(s, identity_cfg(curves=curves))
        assert issubclass(CurveNotPermutation, CurveLengthMismatch)

    def test_centers_unchanged(self, rng):
        s = self.make_tokens(rng)
        curves = tuple(serialize_all(s.centers, b=8))
        out = enhance(s, identity_cfg(curves=curves))
        assert np.array_equal(out.centers, s.centers)


def naive_enhance(feats, cfg):
    """Residual enhancement with a fresh gather, mix and scatter per curve."""
    k = feats.shape[0]
    mixed_sum = np.zeros((k, feats.shape[1]))
    for perm in cfg.curves:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(k)
        mixed_sum += windowed_mix(feats[perm], cfg)[inv]
    return feats + mixed_sum / len(cfg.curves)


class TestEnhanceOracle:
    """Tiled gather, mix and add against fresh arrays per curve, bit for bit."""

    # window 16, stride 4: the banded path needs span = 12 + 16 = 28 rows
    CFG = dict(window=16, stride=4, gate=lowpass_gate(16, 3))

    @pytest.mark.parametrize("fortran_order", [False, True])
    @pytest.mark.parametrize("n_curves", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [10, 27, 28, 29, 101])
    def test_matches_fresh_arrays(self, rng, k, n_curves, fortran_order):
        feats = rng.normal(size=(k, 6))
        if fortran_order:
            feats = np.asfortranarray(feats)
        centers = rng.uniform(size=(k, 3))
        curves = tuple(serialize_all(centers, b=8))[:n_curves]
        cfg = EnhancerConfig(curves=curves, **self.CFG)
        got = enhance(TokenMatrix(feats=feats, centers=centers), cfg).feats
        assert np.array_equal(got, naive_enhance(feats, cfg))

    @pytest.mark.parametrize("window,stride", [(16, 4), (16, 16), (16, 1), (18, 4)])
    @pytest.mark.parametrize(
        "k_of",
        [
            lambda span, tile: span - 1,  # one operator for the whole sequence
            lambda span, tile: span,  # head, one interior block, tail
            lambda span, tile: span + 1,
            lambda span, tile: span + tile - 1,  # the blocks fill one tile
            lambda span, tile: span + tile,  # one block past it
            lambda span, tile: span + tile + 1,
            lambda span, tile: span + 3 * tile + 37,  # several tiles and a partial one
        ],
        ids=["span-1", "span", "span+1", "tile-1", "tile", "tile+1", "tiles+partial"],
    )
    @pytest.mark.parametrize("fortran_order", [False, True])
    def test_tiles_match_fresh_arrays(self, rng, window, stride, k_of, fortran_order):
        # stride == window leaves no head; stride 1 gives one-row blocks;
        # window 18 is not a multiple of stride 4
        span = (-(-window // stride) - 1) * stride + window
        k = k_of(span, TILE_BLOCKS * stride)
        feats = rng.normal(size=(k, 3))
        if fortran_order:
            feats = np.asfortranarray(feats)
        centers = rng.uniform(size=(k, 3))
        cfg = EnhancerConfig(
            window=window,
            stride=stride,
            gate=lowpass_gate(window, 3),
            curves=tuple(serialize_all(centers, b=8)),
        )
        got = enhance(TokenMatrix(feats=feats, centers=centers), cfg).feats
        assert np.array_equal(got, naive_enhance(feats, cfg))

    @pytest.mark.parametrize("k", [10, 27, 28, 29, 101])
    def test_windowed_mix_into_out(self, rng, k):
        # out[order] += mix(seq[order]), bit for bit, into the array given
        seq = rng.normal(size=(k, 5))
        order = rng.permutation(k)
        base = rng.normal(size=(k, 5))
        cfg = EnhancerConfig(**self.CFG)
        out = base.copy()
        assert windowed_mix(seq, cfg, order, out) is out
        want = base.copy()
        want[order] += windowed_mix(seq[order], cfg)
        assert np.array_equal(out, want)


PIECE_CONFIGS = [(64, 16), (17, 16), (16, 16), (18, 4), (16, 1)]


def piece_rows_cols(pieces):
    """(output rows, input rows) of every block of every piece, in order."""
    return [
        (row + b * op.shape[0] + np.arange(op.shape[0]),
         col + b * op.shape[0] + np.arange(op.shape[1]))
        for op, row, col, n_blocks in pieces
        for b in range(n_blocks)
    ]


def piece_layout(k, window, stride):
    """(row, rows per block, n_blocks) of the nonempty pieces of a length-k mix.

    At stride == window there are no head rows, and no tail rows when the
    blocks end at k.
    """
    head = (-(-window // stride) - 1) * stride
    span = head + window
    if k < span:
        return [(0, k, 1)]
    n_blocks = (k - span) // stride + 1
    tail = head + n_blocks * stride
    layout = [(0, head, 1), (head, stride, n_blocks), (tail, k - tail, 1)]
    return [piece for piece in layout if piece[1]]


class TestMixOperators:
    @pytest.mark.parametrize("window,stride", PIECE_CONFIGS)
    def test_pieces_write_each_row_once(self, window, stride):
        # every K through one tile of interior blocks, then every residue
        # mod the stride around two and three tiles and a partial fourth
        cfg = EnhancerConfig(window=window, stride=stride, gate=lowpass_gate(window, 3))
        span = (-(-window // stride) - 1) * stride + window
        tile = TILE_BLOCKS * stride
        ks = list(range(1, span + tile + 2 * stride + 2))
        for k0 in (span + 2 * tile, span + 3 * tile, span + 3 * tile + 37):
            ks += range(k0 - stride - 1, k0 + stride + 2)
        for k in ks:
            pieces = _mix_operators(k, cfg)
            assert [(row, op.shape[0], n) for op, row, _, n in pieces] == (
                piece_layout(k, window, stride)
            ), k
            rows, cols = map(np.concatenate, zip(*piece_rows_cols(pieces)))
            assert 0 <= rows.min() and rows.max() < k, k
            assert 0 <= cols.min() and cols.max() < k, k
            assert np.array_equal(np.bincount(rows, minlength=k), np.ones(k)), k

    @pytest.mark.parametrize("window,stride", PIECE_CONFIGS)
    def test_pieces_assemble_the_operator(self, rng, window, stride):
        cfg = EnhancerConfig(
            window=window, stride=stride, gate=rng.uniform(size=window // 2 + 1)
        )
        span = (-(-window // stride) - 1) * stride + window
        for k in range(1, span + 3 * stride + 2):
            pieces = _mix_operators(k, cfg)
            ops = [op for op, _, _, n_blocks in pieces for _ in range(n_blocks)]
            full = np.zeros((k, k))
            for op, (rows, cols) in zip(ops, piece_rows_cols(pieces)):
                full[np.ix_(rows, cols)] = op
            assert np.array_equal(full, _mix_operator(k, cfg)), k


def test_enhance_holds_one_sum():
    # tracemalloc sees numpy's buffers: besides the K x d result, enhance
    # keeps only tile-sized buffers and small operators
    k, d = 20_000, 32
    rng = np.random.default_rng(3)
    tokens = TokenMatrix(feats=rng.normal(size=(k, d)), centers=np.zeros((k, 3)))
    curves = tuple(rng.permutation(k) for _ in range(4))
    cfg = EnhancerConfig(window=64, stride=16, gate=lowpass_gate(64, 8), curves=curves)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = enhance(tokens, cfg)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert out.feats.shape == (k, d)
    assert peak < 1.5 * k * d * 8


class TestConfigErrors:
    @pytest.mark.parametrize(
        "stride, gate, match",
        [
            (0, np.ones(33), "stride 0"),
            (65, np.ones(33), "stride 65"),
            (16, np.ones(32), "gate length"),
            (16, np.r_[np.ones(32), -1.0], "finite and nonnegative"),
        ],
        ids=["stride_zero", "stride_past_window", "gate_length", "negative_gate"],
    )
    def test_bad_config_is_config_error(self, stride, gate, match):
        with pytest.raises(ConfigError, match=match):
            EnhancerConfig(window=64, stride=stride, gate=gate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gate_rejected(self, bad):
        # a NaN or infinite gate entry would make enhance return non-finite tokens
        gate = np.ones(33)
        gate[5] = bad
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            EnhancerConfig(window=64, stride=16, gate=gate)

    def test_negative_k_low_rejected(self):
        # a negative k_low would slice from the end and keep most bins
        with pytest.raises(ConfigError, match="k_low -3"):
            lowpass_gate(64, -3)
        assert not lowpass_gate(64, 0).any()
