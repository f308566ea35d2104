import numpy as np
import pytest

from sfctok.core import PointCloud, SeededWeights, build_partition, seeded_init
from sfctok.errors import EmptySuperpoint, ShapeMismatch, WidthTooSmall
from sfctok.synth import make_scene
from sfctok.tokenizer import (
    FourierEmbedConfig,
    fourier_embed,
    mlp_project,
    point_tokens,
    superpoint_pool,
    voxel_superpoints,
)

CFG = FourierEmbedConfig(d=24)


def zero_weights(shapes):
    w = seeded_init(0, shapes)
    return SeededWeights(seed=0, shapes=w.shapes, values=np.zeros_like(w.values))


class TestFourierEmbed:
    def test_box_minimum_all_sin_zero_cos_one(self):
        pos = np.array([[0.0, 0, 0], [1.0, 1, 1]])
        emb = fourier_embed(pos, CFG)
        used = 6 * CFG.num_freqs
        assert np.allclose(emb[0, : used // 2], 0.0)
        assert np.allclose(emb[0, used // 2 : used], 1.0)
        assert np.allclose(emb[0, used:], 0.0)

    def test_bounded(self, rng):
        emb = fourier_embed(rng.normal(size=(100, 3)) * 10, CFG)
        assert np.abs(emb).max() <= 1.0 + 1e-12

    def test_translation_invariance(self, rng):
        pos = rng.uniform(size=(50, 3))
        shifted = pos + np.array([100.0, -3.0, 7.5])
        assert np.allclose(fourier_embed(pos, CFG), fourier_embed(shifted, CFG))

    def test_width_too_small(self):
        with pytest.raises(WidthTooSmall):
            fourier_embed(np.zeros((2, 3)), FourierEmbedConfig(d=4))

    def test_per_band_lipschitz(self, rng):
        # |d/du sin(2 pi base^j u)| <= 2 pi base^j, checked by finite differences
        pos = rng.uniform(0.1, 0.9, size=(20, 3))
        pos = np.vstack([pos, [[0.0, 0, 0], [1.0, 1, 1]]])  # pin the box
        h = 1e-6
        base = fourier_embed(pos, CFG)
        bumped_pos = pos.copy()
        bumped_pos[:20, 0] += h
        bumped = fourier_embed(bumped_pos, CFG)
        rates = np.abs(bumped[:20] - base[:20]) / h
        for j in range(CFG.num_freqs):
            bound = 2 * np.pi * CFG.base**j
            # x-axis sin band j sits at column j (axis-major, then frequency)
            assert rates[:, j].max() <= bound + 1e-4 * bound


class TestMlpProject:
    def test_zero_weights_zero_output(self, rng):
        w = zero_weights([(3, 8), (8, 8)])
        assert np.allclose(mlp_project(rng.normal(size=(5, 3)), w), 0.0)

    def test_identity_layer(self):
        shapes = ((4, 4),)
        values = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
        w = SeededWeights(seed=0, shapes=shapes, values=values)
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


class TestPointTokens:
    def test_zero_mlp_reduces_to_fourier(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(size=(30, 3)), features=rng.uniform(size=(30, 3))
        )
        w = zero_weights([(3, 24), (24, 24)])
        assert np.allclose(
            point_tokens(cloud, w, CFG), fourier_embed(cloud.positions, CFG)
        )

    def test_row_count(self, rng):
        cloud = PointCloud(
            positions=rng.uniform(size=(17, 3)), features=rng.uniform(size=(17, 3))
        )
        w = seeded_init(0, [(3, 24), (24, 24)])
        assert point_tokens(cloud, w, CFG).shape == (17, 24)

    def test_feature_linearity_single_linear_layer(self, rng):
        # one layer, zero bias: MLP part is linear in the features
        shapes = ((3, 24),)
        w = seeded_init(0, shapes)
        values = w.values.copy()
        values[3 * 24 :] = 0.0
        w = SeededWeights(seed=0, shapes=shapes, values=values)
        feats = rng.uniform(size=(10, 3))
        a = mlp_project(feats, w)
        b = mlp_project(2.5 * feats, w)
        assert np.allclose(b, 2.5 * a)


class TestSuperpointPool:
    def test_single_superpoint_identical_tokens(self):
        x0 = np.tile([1.0, 2.0, 3.0], (5, 1))
        part = build_partition(np.zeros(5, dtype=int), np.zeros((5, 3)))
        pooled = superpoint_pool(x0, part)
        assert np.allclose(pooled.feats, [[1.0, 2.0, 3.0]])

    def test_two_superpoints(self):
        x0 = np.array([[1.0], [1.0], [4.0]])
        part = build_partition(np.array([0, 0, 1]), np.zeros((3, 3)))
        pooled = superpoint_pool(x0, part)
        assert np.allclose(pooled.feats, [[1.0], [4.0]])

    def test_matches_groupby_mean_oracle(self, rng):
        n, m, d = 200, 5, 7
        labels = rng.integers(0, m, size=n)
        labels[rng.integers(0, n, size=10)] = -1
        labels[:m] = np.arange(m)  # ensure non-empty
        x0 = rng.normal(size=(n, d))
        part = build_partition(labels, rng.uniform(size=(n, 3)))
        pooled = superpoint_pool(x0, part)
        for lab in range(m):
            oracle = x0[labels == lab].mean(axis=0)
            assert np.allclose(pooled.feats[lab], oracle, atol=1e-12)

    def test_permutation_invariance(self, rng):
        n, m = 100, 4
        labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        x0 = rng.normal(size=(n, 6))
        pos = rng.uniform(size=(n, 3))
        shuffle = rng.permutation(n)
        a = superpoint_pool(x0, build_partition(labels, pos))
        b = superpoint_pool(x0[shuffle], build_partition(labels[shuffle], pos[shuffle]))
        assert np.allclose(a.feats, b.feats, rtol=1e-9)

    def test_total_mass(self, rng):
        n, m = 120, 6
        labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
        x0 = rng.normal(size=(n, 5))
        part = build_partition(labels, rng.uniform(size=(n, 3)))
        pooled = superpoint_pool(x0, part)
        total = (part.counts[:, None] * pooled.feats).sum(axis=0)
        assert np.allclose(total, x0.sum(axis=0), rtol=1e-9)

    def test_empty_superpoint(self):
        # a partition claiming 2 superpoints but with only label 0 populated
        from sfctok.core import SuperpointPartition

        part2 = SuperpointPartition(
            labels=np.array([0, 0]), centers=np.zeros((2, 3)), counts=np.array([2, 0])
        )
        with pytest.raises(EmptySuperpoint):
            superpoint_pool(np.ones((2, 4)), part2)


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

    def test_matches_hash_set_oracle(self):
        cloud = make_scene(2000, seed=3)
        cell = 0.3
        part = voxel_superpoints(cloud, cell)
        keys = {tuple(v) for v in np.floor(cloud.positions / cell).astype(int)}
        assert part.n_superpoints == len(keys)
        assert part.counts.sum() == cloud.n_points
