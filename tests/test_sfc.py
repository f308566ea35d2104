import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok.sfc import (
    ALL_CURVES,
    CurveKind,
    encode,
    hilbert_encode,
    morton_encode,
    quantize,
    serialize,
    transpose_coords,
)


def full_grid(b):
    n = 1 << b
    axes = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


class TestQuantize:
    def test_extrema_map_to_corners(self):
        centers = np.array([[0.0, -1.0, 2.0], [3.0, 4.0, 7.0]])
        g = quantize(centers, 4)
        assert np.array_equal(g[0], [0, 0, 0])
        assert np.array_equal(g[1], [15, 15, 15])

    def test_single_center_degenerate(self):
        g = quantize(np.array([[1.0, 2.0, 3.0]]), 8)
        assert np.array_equal(g, [[0, 0, 0]])

    def test_hand_evaluated_middle_row(self):
        centers = np.array([[0.0, 0, 0], [1.0, 2, 3], [2.0, 4, 6]])
        g = quantize(centers, 2)
        # floor(3 * 1/2), floor(3 * 2/4), floor(3 * 3/6) = (1, 1, 1)
        assert np.array_equal(g[1], [1, 1, 1])


class TestMorton:
    def test_origin(self):
        assert morton_encode(np.array([[0, 0, 0]]), 4)[0] == 0

    def test_hand_interleave(self):
        # j=0 contributes 1 + 0 + 4 = 5, j=1 contributes 0 + 16 + 32 = 48
        assert morton_encode(np.array([[1, 2, 3]]), 2)[0] == 53

    def test_full_grid_bijective(self):
        keys = morton_encode(full_grid(3), 3)
        assert np.array_equal(np.sort(keys), np.arange(512))

    @pytest.mark.parametrize("b", [2, 3])
    def test_prefix_locality(self, b):
        # cells sharing the top 3t key bits lie in the same 2^(b-t) octant
        grid = full_grid(b)
        keys = morton_encode(grid, b)
        for t in range(1, b + 1):
            prefix = keys >> (3 * (b - t))
            octant = grid >> (b - t)
            flat = octant[:, 2] | (octant[:, 1] << t) | (octant[:, 0] << 2 * t)
            for p in np.unique(prefix):
                members = flat[prefix == p]
                assert (members == members[0]).all()


class TestHilbert:
    def test_origin_is_zero(self):
        assert hilbert_encode(np.array([[0, 0, 0]]), 1)[0] == 0

    def test_b1_bijective(self):
        keys = hilbert_encode(full_grid(1), 1)
        assert np.array_equal(np.sort(keys), np.arange(8))

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_consecutive_cells_adjacent(self, b):
        grid = full_grid(b)
        keys = hilbert_encode(grid, b)
        cells = grid[np.argsort(keys)]
        steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert (steps == 1).all()


@pytest.mark.parametrize("kind", ALL_CURVES)
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_all_curves_bijective(kind, b):
    keys = encode(full_grid(b), kind, b)
    assert np.array_equal(np.sort(keys), np.arange((1 << b) ** 3))


class TestTranspose:
    def test_zorder_t_swaps_xy(self):
        g = np.array([[1, 2, 3]])
        assert np.array_equal(transpose_coords(g, CurveKind.ZORDER_T), [[2, 1, 3]])
        assert encode(g, CurveKind.ZORDER_T, 2)[0] == morton_encode(
            np.array([[2, 1, 3]]), 2
        )

    def test_diagonal_fixed_point(self):
        g = np.array([[5, 5, 5]])
        assert encode(g, CurveKind.HILBERT_T, 4)[0] == hilbert_encode(g, 4)[0]

    def test_involution(self):
        g = np.array([[1, 2, 3], [7, 0, 2]])
        twice = transpose_coords(
            transpose_coords(g, CurveKind.HILBERT_T), CurveKind.HILBERT_T
        )
        assert np.array_equal(twice, g)

    def test_identity_for_plain_kinds(self):
        g = np.array([[1, 2, 3]])
        assert np.array_equal(transpose_coords(g, CurveKind.ZORDER), g)


class TestSerialize:
    def test_single_point(self):
        order = serialize(np.array([[1.0, 2.0, 3.0]]), CurveKind.HILBERT, b=4)
        assert np.array_equal(order.perm, [0])

    def test_collinear_x_matches_coordinate_order(self):
        xs = np.array([3.0, 0.0, 2.0, 1.0])
        centers = np.stack([xs, np.zeros(4), np.zeros(4)], axis=1)
        order = serialize(centers, CurveKind.ZORDER, b=4)
        # brute force: argsort of hand-computed keys = argsort of x
        assert np.array_equal(order.perm, np.argsort(xs))

    def test_perm_inverse_roundtrip(self, rng):
        centers = rng.uniform(size=(50, 3))
        order = serialize(centers, CurveKind.HILBERT, b=6)
        tokens = rng.normal(size=(50, 4))
        assert np.array_equal(tokens[order.perm][order.inv_perm], tokens)
        assert np.array_equal(order.inv_perm[order.perm], np.arange(50))

    def test_perm_sorts_keys_stably(self, rng):
        centers = rng.uniform(size=(40, 3))
        centers[10] = centers[20]  # force a key tie
        order = serialize(centers, CurveKind.ZORDER, b=3)
        sorted_keys = order.keys[order.perm]
        assert (np.diff(sorted_keys) >= 0).all()
        ties = np.flatnonzero(np.diff(sorted_keys) == 0)
        for i in ties:
            assert order.perm[i] < order.perm[i + 1]

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        centers = r.uniform(size=(30, 3))
        shuffle = r.permutation(30)
        a = serialize(centers, CurveKind.HILBERT, b=8)
        b = serialize(centers[shuffle], CurveKind.HILBERT, b=8)
        assert np.array_equal(a.keys[a.perm], b.keys[b.perm])
