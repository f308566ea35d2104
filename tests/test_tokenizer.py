import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sfctok import tokenizer

from sfctok.core import (
    PointCloud,
    SeededWeights,
    build_partition,
    label_counts,
    seeded_init,
    segment_mean,
)
from sfctok.errors import (
    ConfigError, EmptySuperpoint, InvalidShape, ShapeMismatch, WidthTooSmall,
)
from sfctok.synth import make_scene
from sfctok.tokenizer import (
    CHUNK_POINTS,
    bounding_box,
    fourier_embed,
    mlp_project,
    point_tokens,
    superpoint_pool,
    voxel_superpoints,
)

D = 24  # embedding width


def zero_weights(shapes):
    w = seeded_init(0, shapes)
    return SeededWeights(shapes=w.shapes, values=np.zeros_like(w.values))


class TestFourierEmbed:
    def test_box_minimum_all_sin_zero_cos_one(self):
        pos = np.array([[0.0, 0, 0], [1.0, 1, 1]])
        emb = fourier_embed(pos, D)
        used = 6 * (D // 6)  # 6 columns per octave band
        assert np.allclose(emb[0, : used // 2], 0.0)
        assert np.allclose(emb[0, used // 2 : used], 1.0)
        assert np.allclose(emb[0, used:], 0.0)

    def test_bounded(self, rng):
        emb = fourier_embed(rng.normal(size=(100, 3)) * 10, D)
        assert np.abs(emb).max() <= 1.0 + 1e-12

    def test_translation_invariance(self, rng):
        pos = rng.uniform(size=(50, 3))
        shifted = pos + np.array([100.0, -3.0, 7.5])
        assert np.allclose(fourier_embed(pos, D), fourier_embed(shifted, D))

    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            fourier_embed(np.zeros((2, 3)), 4)

    def test_per_band_lipschitz(self, rng):
        # |d/du sin(2 pi 2^j u)| <= 2 pi 2^j, checked by finite differences
        pos = rng.uniform(0.1, 0.9, size=(20, 3))
        pos = np.vstack([pos, [[0.0, 0, 0], [1.0, 1, 1]]])  # pin the box
        h = 1e-6
        base = fourier_embed(pos, D)
        bumped_pos = pos.copy()
        bumped_pos[:20, 0] += h
        bumped = fourier_embed(bumped_pos, D)
        rates = np.abs(bumped[:20] - base[:20]) / h
        for j in range(D // 6):
            bound = 2 * np.pi * 2.0**j
            # x-axis sin band j sits at column j (axis-major, then frequency)
            assert rates[:, j].max() <= bound + 1e-4 * bound


def naive_fourier_embed(positions, d, box=None):
    """Per-band loop over np.sin/np.cos of (2 pi u) 2^k, the direct formula."""
    lo, span = bounding_box(positions) if box is None else box
    flat = span == 0.0
    u = np.where(flat, 0.0, (positions - lo) / np.where(flat, 1.0, span))
    f = d // 6
    out = np.zeros((positions.shape[0], d))
    for k in range(f):
        phase = (2.0 * np.pi * u) * 2.0**k
        out[:, k : 3 * f : f] = np.sin(phase)  # column a*F + k for axis a
        out[:, 3 * f + k : 6 * f : f] = np.cos(phase)
    return out


def long_double_fourier_embed(positions, d, box=None):
    """The per-band formula with np.sin/np.cos of np.longdouble(t) * 2^k,
    t = fl(2 pi u), in long double (the phase is exact, libm reduces it)."""
    lo, span = bounding_box(positions) if box is None else box
    flat = span == 0.0
    u = np.where(flat, 0.0, (positions - lo) / np.where(flat, 1.0, span))
    t = np.longdouble(2.0 * np.pi * u)
    f = d // 6
    out = np.zeros((positions.shape[0], d), dtype=np.longdouble)
    for k in range(f):
        phase = t * np.longdouble(2.0) ** k
        out[:, k : 3 * f : f] = np.sin(phase)
        out[:, 3 * f + k : 6 * f : f] = np.cos(phase)
    return out


def oracle_case(case, rng):
    """(positions, box) of one oracle case; box None means the input's own."""
    if case == "quadrant_seams":
        # u = j / 2^m in the unit box: 4 u 2^k is an integer for k >= m - 2
        # and a half-integer at k = m - 3, the seams of the quarter turns
        m = rng.integers(0, 51, size=(2000, 3))
        pos = rng.integers(0, 2**m + 1) / 2.0**m
        pos[0], pos[1] = 0.0, 1.0  # the box corners
        return pos, None
    pos = rng.uniform(-2.0, 3.0, size=(2000, 3))
    pos[:2] = pos.min(axis=0), pos.max(axis=0)  # points at the box corners
    if case == "flat_axis":
        pos[:, 1] = 0.7
    elif case == "offset_1e6":
        pos += 1e6
    elif case == "chunk_of_cloud":  # a thin x slab, with the cloud's box
        box = bounding_box(pos)
        return pos[(pos[:, 0] > 0.0) & (pos[:, 0] < 0.5)], box
    return pos, None


ORACLE_CASES = [
    "uniform", "flat_axis", "offset_1e6", "chunk_of_cloud", "quadrant_seams"
]


class TestFourierEmbedOracle:
    """Phase reduction and angle doubling against the per-band formula."""

    # F = 1, 2, 4 and 4 with zero padding (below ANCHOR_EVERY = 6); 6; 7;
    # 42 = 7 x 6 with zero padding; 43, a truncated anchor group; and 64, 100
    # and 128, whose anchors past REDUCED_BANDS take libm's reduction
    @pytest.mark.parametrize("d", [6, 12, 24, 26, 36, 42, 256, 258, 384, 600, 768])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_per_band_loop(self, rng, case, d):
        pos, box = oracle_case(case, rng)
        got = fourier_embed(pos, d, box)
        want = naive_fourier_embed(pos, d, box)
        assert np.abs(got - want).max() <= 1e-14
        assert np.array_equal(got[:, 6 * (d // 6) :], want[:, 6 * (d // 6) :])

    @pytest.mark.parametrize("d", [42, 256, 768])
    @pytest.mark.parametrize("case", ["uniform", "quadrant_seams"])
    def test_matches_long_double_formula(self, rng, case, d):
        pos, box = oracle_case(case, rng)
        want = long_double_fourier_embed(pos, d, box)
        assert np.abs(fourier_embed(pos, d, box) - want).max() <= 1e-14


class TestFourierEmbedOut:
    @pytest.mark.parametrize("d", [6, 26, 256])
    def test_out_column_slice_equals_returned_form(self, rng, d):
        pos, box = oracle_case("chunk_of_cloud", rng)
        wide = np.full((pos.shape[0], d + 9), np.nan)
        out = wide[:, 5 : 5 + d]  # strided rows, padding columns left as NaN
        got = fourier_embed(pos, d, box, out=out)
        assert got is out
        assert np.array_equal(out, fourier_embed(pos, d, box))
        assert np.isnan(wide[:, :5]).all() and np.isnan(wide[:, 5 + d :]).all()


class TestMlpProject:
    def test_zero_weights_zero_output(self, rng):
        w = zero_weights([(3, 8), (8, 8)])
        assert np.allclose(mlp_project(rng.normal(size=(5, 3)), w), 0.0)

    def test_identity_layer(self):
        shapes = ((4, 4),)
        values = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
        w = SeededWeights(shapes=shapes, values=values)
        x = np.abs(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(mlp_project(x, w), x)

    def test_deterministic(self, rng):
        w = seeded_init(9, [(3, 8), (8, 8)])
        x = rng.normal(size=(10, 3))
        assert np.array_equal(mlp_project(x, w), mlp_project(x, w))

    def test_shape_mismatch(self, rng):
        w = seeded_init(0, [(5, 8)])
        with pytest.raises(ShapeMismatch):
            mlp_project(rng.normal(size=(4, 3)), w)


def head_rows(x0, w):
    """Apply the last layer of ``w`` to each point row, as before pooling."""
    head_w, head_b = w.layer(w.n_layers - 1)
    h = head_w.shape[0]
    return x0[:, :h] @ head_w + head_b + x0[:, h:]


def relative_error(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def unchunked_pool(cloud, labels, m, w):
    """The pooled tokens from all N point rows at once: one ``segment_mean``
    over the full rows, then the last layer over the hidden columns."""
    _, head = w.split(-1)
    h = head.shapes[0][0]
    pooled = segment_mean(labels, m, point_tokens(cloud, w))
    return mlp_project(pooled[:, :h], head) + pooled[:, h:]


def per_label_oracle(cloud, labels, m, w):
    """Mean of the full point tokens (every MLP layer plus the embedding)."""
    d = w.shapes[-1][1]
    tokens = mlp_project(cloud.features, w) + fourier_embed(cloud.positions, d)
    return np.stack([tokens[labels == lab].mean(axis=0) for lab in range(m)])


class TestPointTokens:
    def test_zero_mlp_reduces_to_fourier(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(size=(30, 3)), features=rng.uniform(size=(30, 3))
        )
        w = zero_weights([(3, 16), (16, 24)])
        x0 = point_tokens(cloud, w)
        emb = fourier_embed(cloud.positions, D)
        assert np.array_equal(x0[:, :16], np.zeros((30, 16)))
        assert np.array_equal(x0[:, 16:], emb)
        labels = np.arange(30) % 4
        pooled = superpoint_pool(cloud, build_partition(labels, cloud.positions), w)
        for lab in range(4):
            assert np.allclose(pooled.feats[lab], emb[labels == lab].mean(axis=0))

    def test_out_buffer_holds_the_rows(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(size=(17, 3)), features=rng.normal(size=(17, 3))
        )
        for shapes in ([(3, 24)], [(3, 40), (40, 24)]):
            w = seeded_init(0, shapes)
            out = np.full((17, shapes[-1][0] + 24), np.nan)
            assert point_tokens(cloud, w, None, out) is out
            assert np.array_equal(out, point_tokens(cloud, w))

    def test_row_count(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(size=(17, 3)), features=rng.uniform(size=(17, 3))
        )
        w = seeded_init(0, [(3, 40), (40, 24)])
        assert point_tokens(cloud, w).shape == (17, 40 + 24)

    def test_one_layer_hidden_part_is_raw_features(self, rng):
        # no hidden layer, so no ReLU: negative features pass through
        cloud = PointCloud(
            positions=rng.uniform(size=(9, 3)), features=rng.normal(size=(9, 3))
        )
        x0 = point_tokens(cloud, seeded_init(0, [(3, 24)]))
        assert np.array_equal(x0[:, :3], cloud.features)

    def test_last_layer_fan_in_mismatch(self, rng):
        # a stack whose last fan-in is not the hidden width cannot be built
        with pytest.raises(InvalidShape, match="layer 1 fan-in 20 != layer 0 fan-out 16"):
            seeded_init(0, [(3, 16), (20, 24)])
        # a one-layer MLP's fan-in must be the feature width
        cloud = PointCloud(
            positions=rng.uniform(size=(5, 3)), features=rng.uniform(size=(5, 3))
        )
        with pytest.raises(ShapeMismatch, match="last layer fan-in 4 != hidden width 3"):
            point_tokens(cloud, seeded_init(0, [(4, 24)]))

    def test_feature_linearity_single_linear_layer(self, rng):
        # one layer, zero bias: MLP part is linear in the features
        shapes = ((3, 24),)
        w = seeded_init(0, shapes)
        values = w.values.copy()
        values[3 * 24 :] = 0.0
        w = SeededWeights(shapes=shapes, values=values)
        feats = rng.uniform(size=(10, 3))
        a = mlp_project(feats, w)
        b = mlp_project(2.5 * feats, w)
        assert np.allclose(b, 2.5 * a)

    def test_subset_with_cloud_box_gives_the_cloud_rows(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(-2.0, 5.0, size=(40, 3)),
            features=rng.normal(size=(40, 3)),
        )
        w = seeded_init(1, [(3, 16), (16, 24)])
        rows = [3, 7, 8, 30]
        subset = PointCloud(positions=cloud.positions[rows], features=cloud.features[rows])
        whole = point_tokens(cloud, w)
        box = bounding_box(cloud.positions)
        assert np.array_equal(point_tokens(subset, w, box), whole[rows])
        assert not np.allclose(point_tokens(subset, w), whole[rows])


class TestSuperpointPool:
    # one-layer MLP: the point rows are the 4 raw features, then a d=6
    # embedding; the head maps 4 -> 6
    HEAD = seeded_init(5, [(4, 6)])

    def pool(self, cloud, part):
        return superpoint_pool(cloud, part, self.HEAD)

    def rows(self, cloud):
        return point_tokens(cloud, self.HEAD)

    def test_single_superpoint_identical_tokens(self):
        cloud = PointCloud(
            positions=np.tile([0.5, -1.0, 2.0], (5, 1)),
            features=np.tile([1.0, -2.0, 3.0, 0.5], (5, 1)),
        )
        part = build_partition(np.zeros(5, dtype=int), cloud.positions)
        pooled = self.pool(cloud, part)
        assert np.allclose(pooled.feats, head_rows(self.rows(cloud)[:1], self.HEAD))

    def test_two_superpoints(self):
        cloud = PointCloud(
            positions=np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 2.0, 3.0]]),
            features=np.array([[1.0] * 4, [1.0] * 4, [4.0] * 4]),
        )
        part = build_partition(np.array([0, 0, 1]), cloud.positions)
        pooled = self.pool(cloud, part)
        assert np.allclose(pooled.feats, head_rows(self.rows(cloud)[1:], self.HEAD))

    def test_matches_groupby_mean_oracle(self, rng):
        n, m = 200, 5
        labels = rng.integers(0, m, size=n)
        labels[rng.integers(0, n, size=10)] = -1
        labels[:m] = np.arange(m)  # ensure non-empty
        cloud = PointCloud(
            positions=rng.uniform(size=(n, 3)), features=rng.normal(size=(n, 4))
        )
        pooled = self.pool(cloud, build_partition(labels, cloud.positions))
        tokens = head_rows(self.rows(cloud), self.HEAD)
        for lab in range(m):
            oracle = tokens[labels == lab].mean(axis=0)
            assert np.allclose(pooled.feats[lab], oracle, atol=1e-12)

    def test_permutation_invariance(self, rng):
        n, m = 100, 4
        labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        pos = rng.uniform(size=(n, 3))
        feats = rng.normal(size=(n, 4))
        shuffle = rng.permutation(n)
        a = self.pool(
            PointCloud(positions=pos, features=feats), build_partition(labels, pos)
        )
        b = self.pool(
            PointCloud(positions=pos[shuffle], features=feats[shuffle]),
            build_partition(labels[shuffle], pos[shuffle]),
        )
        assert np.allclose(a.feats, b.feats, rtol=1e-9)

    def test_total_mass(self, rng):
        n, m = 120, 6
        labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        cloud = PointCloud(
            positions=rng.uniform(size=(n, 3)), features=rng.normal(size=(n, 4))
        )
        part = build_partition(labels, cloud.positions)
        pooled = self.pool(cloud, part)
        total = (label_counts(labels, m)[:, None] * pooled.feats).sum(axis=0)
        expected = head_rows(self.rows(cloud), self.HEAD).sum(axis=0)
        assert np.allclose(total, expected, rtol=1e-9)

    def test_empty_superpoint(self):
        # a partition claiming 3 superpoints but with label 1 unpopulated
        from sfctok.core import SuperpointPartition

        part3 = SuperpointPartition(
            labels=np.array([0, 2, 0]),
            centers=np.zeros((3, 3)),
        )
        cloud = PointCloud(positions=np.eye(3), features=np.ones((3, 4)))
        with pytest.raises(EmptySuperpoint) as exc:
            self.pool(cloud, part3)
        assert exc.value.label == 1


class TestSuperpointTokensOracle:
    """Pooling before the last layer against pooling the full point tokens."""

    @pytest.mark.parametrize(
        "shapes, d",
        [
            ([(5, 24)], 24),
            ([(5, 40), (40, 24)], 24),
            ([(5, 16), (16, 40), (40, 26)], 26),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_label_loop(self, shapes, d, seed):
        rng = np.random.default_rng(seed)
        n, m = 300, 23
        cloud = PointCloud(
            positions=rng.uniform(-4.0, 4.0, size=(n, 3)),
            features=rng.normal(size=(n, 5)),
        )
        # shuffled label ids, every label used, 5% sentinel points
        labels = rng.permutation(np.arange(n) % m)
        labels[rng.choice(np.flatnonzero(np.arange(n) >= m), size=15, replace=False)] = -1
        labels[:m] = rng.permutation(m)
        w = seeded_init(seed + 10, shapes)
        part = build_partition(labels, cloud.positions)
        got = superpoint_pool(cloud, part, w).feats

        tokens = mlp_project(cloud.features, w) + fourier_embed(cloud.positions, d)
        oracle = np.zeros((m, d))
        for lab in range(m):
            rows = [i for i in range(n) if labels[i] == lab]
            oracle[lab] = sum(tokens[i] for i in rows) / len(rows)
        assert relative_error(got, oracle) <= 1e-12
        assert np.array_equal(got, unchunked_pool(cloud, labels, m, w))

    def test_mlp_project_bit_equal_to_out_of_place(self, rng):
        w = seeded_init(3, [(5, 16), (16, 40), (40, 24)])
        x = rng.normal(size=(50, 5))
        expected = x
        for i in range(w.n_layers):
            layer_w, layer_b = w.layer(i)
            expected = expected @ layer_w + layer_b
            if i < w.n_layers - 1:
                expected = np.maximum(expected, 0.0)
        before = x.copy()
        assert np.array_equal(mlp_project(x, w), expected)
        assert np.array_equal(x, before)

    def test_segment_mean_bit_equal_to_out_of_place(self, rng):
        n, m = 400, 37
        labels = rng.permutation(np.arange(n) % m)
        labels[rng.integers(0, n, size=20)] = -1
        labels[:m] = np.arange(m)
        values = rng.normal(size=(n, 9))
        rows = np.flatnonzero(labels != -1)
        counts = np.bincount(labels[rows], minlength=m)
        member = sp.csr_matrix((np.ones(rows.size), (labels[rows], rows)), shape=(m, n))
        means = segment_mean(labels, m, values)
        assert np.array_equal(means, member @ values / counts[:, None])

    def test_split_returns_views(self):
        w = seeded_init(2, [(5, 16), (16, 40), (40, 24)])
        first, rest = w.split(-1)
        assert first.shapes == ((5, 16), (16, 40)) and rest.shapes == ((40, 24),)
        assert np.shares_memory(first.values, w.values)
        assert np.shares_memory(rest.values, w.values)
        assert np.array_equal(rest.layer(0)[0], w.layer(2)[0])
        assert np.array_equal(first.layer(1)[1], w.layer(1)[1])


def chunked_scene(case, rng):
    """(cloud, labels, m) whose label-sorted points span several chunks."""
    c = CHUNK_POINTS
    if case == "many_chunks":  # N > 2 chunks, shuffled labels, 5% sentinels
        n, m = 2 * c + 1000, 300
        labels = np.concatenate([rng.permutation(m), rng.integers(0, m, size=n - m)])
        labels[rng.choice(np.arange(m, n), size=n // 20, replace=False)] = -1
        pos = rng.uniform(-3.0, 4.0, size=(n, 3))
    elif case == "giant_superpoint":  # label 0, sorted first, exceeds a chunk
        n, m = 3 * c + 300, 40
        labels = np.concatenate([np.full(c + 500, 0), np.arange(n - c - 500) % m])
        labels = rng.permutation(labels)
        pos = rng.uniform(0.0, 2.0, size=(n, 3))
    elif case == "long_sentinel_run":  # the sentinel run alone exceeds a chunk
        n, m = 2 * c + 700, 90
        labels = np.concatenate([np.full(c + c // 2, -1), np.arange(n - c - c // 2) % m])
        labels = rng.permutation(labels)
        pos = rng.normal(size=(n, 3))
    else:  # "chunk_box": labels are x slabs, so each chunk spans a thin slab
        n, m = 3 * c, 64
        pos = rng.uniform(size=(n, 3)) * np.array([10.0, 1.0, 1.0])
        labels = np.minimum((pos[:, 0] / 10.0 * m).astype(np.int64), m - 1)
    cloud = PointCloud(positions=pos, features=rng.normal(size=(n, 3)))
    return cloud, labels, m


CHUNK_CASES = ["many_chunks", "giant_superpoint", "long_sentinel_run", "chunk_box"]


class TestChunkedPool:
    """The streamed pool across chunk boundaries."""

    W = seeded_init(4, [(3, 16), (16, 12)])

    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_matches_oracle_and_unchunked_formula(self, case, rng):
        cloud, labels, m = chunked_scene(case, rng)
        part = build_partition(labels, cloud.positions)
        got = superpoint_pool(cloud, part, self.W).feats
        oracle = per_label_oracle(cloud, labels, m, self.W)
        assert relative_error(got, oracle) <= 1e-12
        assert np.array_equal(got, unchunked_pool(cloud, labels, m, self.W))

    def pooled_spans(self, cloud, labels, monkeypatch):
        """(lo, hi) spans of the label-sorted points, in the order
        ``superpoint_pool`` passes them to ``point_tokens``."""
        order = np.argsort(labels, kind="stable")
        spans, raw = [], tokenizer.point_tokens

        def recording(chunk, *args):
            lo = spans[-1][1] if spans else 0
            spans.append((lo, lo + chunk.n_points))
            assert np.array_equal(chunk.positions, cloud.positions[order[lo : spans[-1][1]]])
            return raw(chunk, *args)

        monkeypatch.setattr(tokenizer, "point_tokens", recording)
        superpoint_pool(cloud, build_partition(labels, cloud.positions), self.W)
        return spans

    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_chunks_cut_at_label_starts(self, case, rng, monkeypatch):
        cloud, labels, m = chunked_scene(case, rng)
        sorted_labels = np.sort(labels, kind="stable")
        n_sentinel = int((labels == -1).sum())
        largest = label_counts(labels, m).max()
        spans = self.pooled_spans(cloud, labels, monkeypatch)
        assert len(spans) >= 3
        assert spans[0][0] == 0 and spans[-1][1] == labels.size
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        for lo, hi in spans:
            if lo > n_sentinel:  # past the sentinel run, cut only between labels
                assert sorted_labels[lo - 1] != sorted_labels[lo]
            # no chunk holds both a sentinel and a labeled point
            assert (lo < n_sentinel) == (hi <= n_sentinel)
            assert hi - lo < CHUNK_POINTS + largest
            assert hi - lo <= CHUNK_POINTS or hi > n_sentinel

    def test_chunk_boxes_differ_from_the_cloud_box(self, rng, monkeypatch):
        cloud, labels, m = chunked_scene("chunk_box", rng)
        order = np.argsort(labels, kind="stable")
        _, span = bounding_box(cloud.positions)
        for lo, hi in self.pooled_spans(cloud, labels, monkeypatch):
            _, chunk_span = bounding_box(cloud.positions[order[lo:hi]])
            assert chunk_span[0] < 0.5 * span[0]

    def test_every_point_tokenized_once(self, rng, monkeypatch):
        cloud, labels, m = chunked_scene("long_sentinel_run", rng)
        seen = []
        raw = tokenizer.point_tokens

        def counting(chunk, *args):
            seen.append(chunk.n_points)
            return raw(chunk, *args)

        monkeypatch.setattr(tokenizer, "point_tokens", counting)
        superpoint_pool(cloud, build_partition(labels, cloud.positions), self.W)
        assert len(seen) >= 3 and sum(seen) == cloud.n_points

    @pytest.mark.parametrize("m", [1025, 2049])
    def test_head_blocks_match_unchunked_formula(self, m, rng):
        # the last layer runs over blocks of HEAD_ROWS superpoints; at these M
        # a plain cut would leave a one-row last block, which numpy hands to
        # gemv, whose rounding differs from gemm's
        assert m % tokenizer.HEAD_ROWS == 1
        n = 3 * m
        labels = rng.permutation(np.arange(n) % m)
        cloud = PointCloud(positions=rng.normal(size=(n, 3)), features=rng.normal(size=(n, 3)))
        got = superpoint_pool(cloud, build_partition(labels, cloud.positions), self.W).feats
        assert np.array_equal(got, unchunked_pool(cloud, labels, m, self.W))

    def test_weights_scanned_a_constant_number_of_times(self, rng, monkeypatch):
        # split views of the checked stack are not checked again, so the
        # number of value scans does not grow with the number of chunks
        scans = []
        check = SeededWeights.__post_init__

        def counting(self):
            scans.append(self.values.size)
            check(self)

        monkeypatch.setattr(SeededWeights, "__post_init__", counting)
        counts = []
        for n in (CHUNK_POINTS // 2, 6 * CHUNK_POINTS):
            labels = np.arange(n) % 50
            cloud = PointCloud(positions=rng.normal(size=(n, 3)), features=rng.normal(size=(n, 3)))
            part = build_partition(labels, cloud.positions)
            scans.clear()
            superpoint_pool(cloud, part, self.W)
            counts.append(len(scans))
        assert counts[0] == counts[1] <= 1


class TestStreamMemory:
    def test_tokenize_peak_below_half_the_point_rows(self):
        # 10+ chunks at h + d = 128: the full (N, h+d) point rows alone
        # would take N * 128 * 8 bytes, twice the bound
        n, width = 12 * CHUNK_POINTS, 64
        cloud = make_scene(n, seed=5)
        part = voxel_superpoints(cloud, 0.6)
        w = seeded_init(0, [(cloud.n_channels, width), (width, width)])
        bound = 0.5 * n * (2 * width) * 8
        tracemalloc.start()
        try:
            superpoint_pool(cloud, part, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert part.n_superpoints * 2 * width * 8 < 0.1 * bound
        assert peak < bound


class TestVoxelSuperpoints:
    def test_single_cell(self):
        cloud = PointCloud(
            positions=np.random.default_rng(0).uniform(0, 0.04, size=(10, 3)),
            features=np.ones((10, 1)),
        )
        assert voxel_superpoints(cloud, 0.05).n_superpoints == 1

    def test_two_cells(self):
        cloud = PointCloud(
            positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]), features=np.ones((2, 1))
        )
        assert voxel_superpoints(cloud, 0.5).n_superpoints == 2

    @pytest.mark.parametrize(
        "case", ["blobs", "negative", "flat_axis", "single_point", "wide_span"]
    )
    def test_labels_match_row_unique(self, case):
        r = np.random.Generator(np.random.PCG64(17))
        cell = 0.2
        if case == "blobs":
            positions = make_scene(20000, seed=8).positions
        elif case == "negative":
            positions = r.normal(-3.0, 2.0, size=(3000, 3))
        elif case == "flat_axis":
            positions = r.uniform(-1.0, 1.0, size=(3000, 3))
            positions[:, 1] = -0.3
        elif case == "single_point":
            positions = np.array([[-1.5, 2.5, 0.1]])
        else:
            # per-axis key extents of ~2e12 multiply far past 2^63
            cell = 1e-9
            positions = r.uniform(-1e3, 1e3, size=(3000, 3))
            positions[::7] = positions[3::7]  # points sharing a voxel
        cloud = PointCloud(positions=positions, features=np.ones((len(positions), 1)))
        keys = np.floor(positions / cell).astype(np.int64)
        _, expected = np.unique(keys, axis=0, return_inverse=True)
        assert np.array_equal(voxel_superpoints(cloud, cell).labels, expected.reshape(-1))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    def test_bad_cell_rejected(self, cell):
        cloud = make_scene(200, seed=1)
        with pytest.raises(ConfigError, match=f"voxel cell {cell}"):
            voxel_superpoints(cloud, cell)

    def test_matches_hash_set_oracle(self):
        cloud = make_scene(2000, seed=3)
        cell = 0.3
        part = voxel_superpoints(cloud, cell)
        keys = {tuple(v) for v in np.floor(cloud.positions / cell).astype(int)}
        assert part.n_superpoints == len(keys)
        assert label_counts(part.labels, part.n_superpoints).sum() == cloud.n_points
