import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok import sfc
from sfctok.sfc import (
    ALL_CURVES,
    CurveKind,
    encode,
    hilbert_encode,
    morton_encode,
    quantize,
    serialize,
    serialize_all,
    transpose_coords,
)


def naive_morton(grid, b):
    """Per-bit interleave: x_j -> bit 3j, y_j -> 3j+1, z_j -> 3j+2."""
    grid = np.asarray(grid, dtype=np.int64)
    x, y, z = grid[..., 0], grid[..., 1], grid[..., 2]
    key = np.zeros(x.shape, dtype=np.int64)
    for j in range(b):
        key |= ((x >> j) & 1) << (3 * j)
        key |= ((y >> j) & 1) << (3 * j + 1)
        key |= ((z >> j) & 1) << (3 * j + 2)
    return key


def naive_hilbert(grid, b):
    """Skilling's transform ("Programming the Hilbert curve", 2004).

    Undo excess rotations/reflections from the most significant bit down,
    Gray-encode across axes, then interleave the transformed axis bits.
    """
    grid = np.asarray(grid, dtype=np.int64)
    x = [grid[..., 0].copy(), grid[..., 1].copy(), grid[..., 2].copy()]
    m = 1 << (b - 1)

    q = m
    while q > 1:
        p = q - 1
        for i in range(3):
            hi_set = (x[i] & q) != 0
            # invert low bits of axis 0 where this axis has the q bit set,
            # otherwise exchange low bits between axis 0 and axis i
            x[0] = np.where(hi_set, x[0] ^ p, x[0])
            t = np.where(hi_set, 0, (x[0] ^ x[i]) & p)
            x[0] ^= t
            x[i] ^= t
        q >>= 1

    x[1] ^= x[0]
    x[2] ^= x[1]
    t = np.zeros_like(x[0])
    q = m
    while q > 1:
        t = np.where((x[2] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    for i in range(3):
        x[i] ^= t

    key = np.zeros_like(x[0])
    for j in range(b):
        key |= ((x[0] >> j) & 1) << (3 * j + 2)
        key |= ((x[1] >> j) & 1) << (3 * j + 1)
        key |= ((x[2] >> j) & 1) << (3 * j)
    return key


def naive_encode(grid, kind, b):
    g = transpose_coords(np.asarray(grid, dtype=np.int64), kind)
    if kind in (CurveKind.ZORDER, CurveKind.ZORDER_T):
        return naive_morton(g, b)
    return naive_hilbert(g, b)


def morton_decode(keys, b):
    """Grid cells of Morton keys (inverse of naive_morton)."""
    grid = np.zeros(keys.shape + (3,), dtype=np.int64)
    for j in range(b):
        for axis in range(3):
            grid[..., axis] |= ((keys >> (3 * j + axis)) & 1) << j
    return grid


def hilbert_tables_from_oracle(depth=2):
    """The oracle's Hilbert curve as a digit-by-digit state machine.

    A state is what the curve does below a prefix of Morton digits, told
    apart by the Hilbert digits the oracle gives every ``depth``-digit
    suffix. States are numbered as a breadth-first walk from the empty
    prefix, trying digits 0..7, first meets them.
    """
    suffixes = np.arange(8**depth)

    def expand(prefix):
        b = len(prefix) + depth
        head = 0
        for d in prefix:
            head = head * 8 + d
        keys = naive_hilbert(morton_decode(head * 8**depth + suffixes, b), b)
        return int(keys[0] >> (3 * depth)) & 7, tuple(keys % 8**depth)

    number = {expand(())[1]: 0}
    prefixes = [()]
    digit, nxt = [], []
    for prefix in prefixes:
        for d in range(8):
            out, behaviour = expand(prefix + (d,))
            if behaviour not in number:
                number[behaviour] = len(number)
                prefixes.append(prefix + (d,))
            digit.append(out)
            nxt.append(number[behaviour])
    return np.array(digit), np.array(nxt)


def random_grid(r, b, n=2000):
    """Random b-bit cells led by the 8 corners of the grid."""
    top = (1 << b) - 1
    corners = np.array(
        [[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], dtype=np.int64
    ) * top
    return np.concatenate([corners, r.integers(0, top + 1, size=(n, 3))])


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


class TestEncoderOracles:
    @pytest.mark.parametrize("kind", ALL_CURVES)
    @pytest.mark.parametrize("b", range(1, 17))
    def test_keys_equal_naive(self, kind, b):
        grid = random_grid(np.random.Generator(np.random.PCG64(b)), b)
        assert np.array_equal(encode(grid, kind, b), naive_encode(grid, kind, b))

    def test_tables_rebuilt_from_naive(self):
        digit, nxt = hilbert_tables_from_oracle()
        assert digit.shape == nxt.shape == (24 * 8,)
        assert np.array_equal(digit, sfc._HILBERT_DIGIT)
        assert np.array_equal(nxt, sfc._HILBERT_NEXT)


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

    @pytest.mark.parametrize("b", [1, 10, 16])
    def test_serialize_all_matches_naive_per_kind(self, rng, b):
        centers = rng.normal(size=(300, 3))
        centers[:, 2] = 0.5  # a flat axis quantizes to 0
        grid = quantize(centers, b)
        for kind, order in zip(ALL_CURVES, serialize_all(centers, b)):
            single = serialize(centers, kind, b)
            assert order.kind == kind
            assert np.array_equal(order.keys, naive_encode(grid, kind, b))
            assert np.array_equal(order.perm, single.perm)
            assert np.array_equal(order.inv_perm, single.inv_perm)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        centers = r.uniform(size=(30, 3))
        shuffle = r.permutation(30)
        a = serialize(centers, CurveKind.HILBERT, b=8)
        b = serialize(centers[shuffle], CurveKind.HILBERT, b=8)
        assert np.array_equal(a.keys[a.perm], b.keys[b.perm])
