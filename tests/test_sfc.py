import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok import sfc
from sfctok.errors import ConfigError, DimensionMismatch
from sfctok.sfc import hilbert_encode, morton_encode, quantize, serialize_all

# serialize_all's orders, in the order it returns them
CURVES = ("zorder", "zorder_t", "hilbert", "hilbert_t")


def transposed(grid, kind):
    """The grid with x and y swapped for the transposed curves."""
    grid = np.asarray(grid, dtype=np.int64)
    return grid[..., [1, 0, 2]] if kind.endswith("_t") else grid


def curve_keys(grid, kind, b):
    """The module's keys of one curve: Morton, or Hilbert read off Morton."""
    key = morton_encode(transposed(grid, kind), b)
    return hilbert_encode(key, b) if kind.startswith("hilbert") else key


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
    g = transposed(grid, kind)
    return naive_hilbert(g, b) if kind.startswith("hilbert") else naive_morton(g, b)


def naive_orders(centers, b):
    """The four curve orders from the naive keys and NumPy's stable argsort."""
    grid = quantize(centers, b)
    return [np.argsort(naive_encode(grid, kind, b), kind="stable") for kind in CURVES]


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

    @pytest.mark.parametrize("b", [0, 17])
    def test_bit_depth_out_of_range_is_config_error(self, b):
        with pytest.raises(ConfigError, match=f"bit depth {b}"):
            quantize(np.zeros((2, 3)), b)

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
        assert curve_keys(np.array([[0, 0, 0]]), "hilbert", 1)[0] == 0

    def test_b1_bijective(self):
        keys = curve_keys(full_grid(1), "hilbert", 1)
        assert np.array_equal(np.sort(keys), np.arange(8))

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_consecutive_cells_adjacent(self, b):
        grid = full_grid(b)
        keys = hilbert_encode(morton_encode(grid, b), b)
        cells = grid[np.argsort(keys)]
        steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_grid_instead_of_morton_key_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            hilbert_encode(full_grid(2), 2)


@pytest.mark.parametrize("kind", CURVES)
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_all_curves_bijective(kind, b):
    keys = curve_keys(full_grid(b), kind, b)
    assert np.array_equal(np.sort(keys), np.arange((1 << b) ** 3))


class TestEncoderOracles:
    @pytest.mark.parametrize("kind", CURVES)
    @pytest.mark.parametrize("b", range(1, 17))
    def test_keys_equal_naive(self, kind, b):
        grid = random_grid(np.random.Generator(np.random.PCG64(b)), b)
        assert np.array_equal(curve_keys(grid, kind, b), naive_encode(grid, kind, b))

    def test_tables_rebuilt_from_naive(self):
        digit, nxt = hilbert_tables_from_oracle()
        assert digit.shape == nxt.shape == (24 * 8,)
        assert np.array_equal(digit, sfc._HILBERT_DIGIT)
        assert np.array_equal(nxt, sfc._HILBERT_NEXT)


def swap_xy(centers):
    return centers[:, [1, 0, 2]]


class TestTranspose:
    """The transposed orders are the plain orders of the x/y-swapped points."""

    def test_zorder_t_swaps_xy(self, rng):
        centers = rng.uniform(size=(60, 3))
        orders = serialize_all(centers, b=4)
        swapped = serialize_all(swap_xy(centers), b=4)
        assert np.array_equal(orders[1], swapped[0])
        assert np.array_equal(orders[3], swapped[2])

    def test_diagonal_fixed_point(self, rng):
        centers = rng.uniform(size=(60, 3))
        centers[:, 1] = centers[:, 0]  # every point on the x = y plane
        z, z_t, h, h_t = serialize_all(centers, b=4)
        assert np.array_equal(z_t, z)
        assert np.array_equal(h_t, h)

    def test_involution(self, rng):
        centers = rng.uniform(size=(60, 3))
        z, z_t, h, h_t = serialize_all(centers, b=5)
        swapped = serialize_all(swap_xy(centers), b=5)
        for got, want in zip(swapped, (z_t, z, h_t, h)):
            assert np.array_equal(got, want)

    def test_identity_for_plain_kinds(self, rng):
        centers = rng.uniform(size=(60, 3))
        key = morton_encode(quantize(centers, 6), 6)
        z, _, h, _ = serialize_all(centers, b=6)
        assert np.array_equal(z, np.argsort(key, kind="stable"))
        assert np.array_equal(h, np.argsort(hilbert_encode(key, 6), kind="stable"))


class TestSerialize:
    def test_single_point(self):
        for perm in serialize_all(np.array([[1.0, 2.0, 3.0]]), b=4):
            assert np.array_equal(perm, [0])

    def test_collinear_x_matches_coordinate_order(self):
        xs = np.array([3.0, 0.0, 2.0, 1.0])
        centers = np.stack([xs, np.zeros(4), np.zeros(4)], axis=1)
        perm = serialize_all(centers, b=4)[0]
        # brute force: argsort of hand-computed keys = argsort of x
        assert np.array_equal(perm, np.argsort(xs))

    def test_perm_inverse_roundtrip(self, rng):
        centers = rng.uniform(size=(50, 3))
        perm = serialize_all(centers, b=6)[2]
        inv = np.empty_like(perm)  # built as enhance builds it
        inv[perm] = np.arange(50)
        tokens = rng.normal(size=(50, 4))
        assert np.array_equal(tokens[perm][inv], tokens)
        assert np.array_equal(inv[perm], np.arange(50))

    def test_perm_sorts_keys_stably(self, rng):
        centers = rng.uniform(size=(40, 3))
        centers[10] = centers[20]  # force a key tie
        perm = serialize_all(centers, b=3)[0]
        sorted_keys = morton_encode(quantize(centers, 3), 3)[perm]
        assert (np.diff(sorted_keys) >= 0).all()
        ties = np.flatnonzero(np.diff(sorted_keys) == 0)
        for i in ties:
            assert perm[i] < perm[i + 1]

    @pytest.mark.parametrize(
        "b, n, dup",
        [(1, 300, False), (10, 300, False), (16, 300, False),
         # 3b = 48 key bits and 16 row bits overflow one 63-bit sort word
         (16, (1 << 15) + 500, True)],
        ids=["1", "10", "16", "16-two-passes"],
    )
    def test_serialize_all_matches_naive_per_kind(self, rng, b, n, dup):
        centers = rng.normal(size=(n, 3))
        centers[:, 2] = 0.5  # a flat axis quantizes to 0
        if dup:
            centers[1::2] = centers[0:-1:2]  # every odd point repeats its predecessor
        orders = serialize_all(centers, b)
        assert len(orders) == len(CURVES)
        for perm, want in zip(orders, naive_orders(centers, b)):
            assert perm.dtype == np.int64
            assert np.array_equal(perm, want)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, seed):
        r = np.random.Generator(np.random.PCG64(seed))
        centers = r.uniform(size=(30, 3))
        shuffle = r.permutation(30)
        a = serialize_all(centers, b=8)[2]
        b = serialize_all(centers[shuffle], b=8)[2]
        a_keys = curve_keys(quantize(centers, 8), "hilbert", 8)
        b_keys = curve_keys(quantize(centers[shuffle], 8), "hilbert", 8)
        assert np.array_equal(a_keys[a], b_keys[b])


class TestSerializeAllOracle:
    """Each order is NumPy's stable argsort of the naive keys."""

    @given(
        b=st.integers(1, 16),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        n_dup=st.integers(0, 30),
        flat_axis=st.sampled_from([None, 0, 1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_orders_equal_stable_argsort_of_naive_keys(
        self, b, n, seed, n_dup, flat_axis
    ):
        r = np.random.Generator(np.random.PCG64(seed))
        centers = r.normal(size=(n, 3))
        centers[r.integers(0, n, size=n_dup)] = centers[r.integers(0, n, size=n_dup)]
        if flat_axis is not None:
            centers[:, flat_axis] = 0.25
        for perm, want in zip(serialize_all(centers, b), naive_orders(centers, b)):
            assert np.array_equal(perm, want)
