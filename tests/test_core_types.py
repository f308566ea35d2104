import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfctok.core import (
    SENTINEL,
    PointCloud,
    SeededWeights,
    build_partition,
    label_counts,
    segment_mean,
    seeded_init,
    stable_order,
    validate_cloud,
)
from sfctok.errors import (
    EmptyCloud,
    EmptySuperpoint,
    FeatureRowMismatch,
    InvalidPartition,
    InvalidShape,
    LengthMismatch,
    NonFiniteCoordinate,
    NonFiniteExtent,
)


def test_minimal_valid_cloud():
    cloud = PointCloud(positions=np.zeros((1, 3)), features=np.array([[0.5]]))
    validate_cloud(cloud)


def test_nan_position_reports_row():
    pos = np.zeros((10, 3))
    pos[7, 1] = np.nan
    with pytest.raises(NonFiniteCoordinate) as exc:
        validate_cloud(PointCloud(positions=pos, features=np.ones((10, 1))))
    assert exc.value.index == 7


@pytest.mark.parametrize("axis", range(3))
def test_overflowing_extent_names_axis(axis):
    # every coordinate is finite, but max - min is not
    pos = np.zeros((5, 3))
    pos[1, axis], pos[3, axis] = 1.7e308, -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteExtent, match=f"along {'xyz'[axis]}:") as exc:
            validate_cloud(PointCloud(positions=pos, features=np.ones((5, 1))))
    assert exc.value.axis == "xyz"[axis]


def test_float32_extent_taken_in_float64():
    pos = np.zeros((2, 3), dtype=np.float32)
    pos[:, 0] = 3e38, -3e38  # 6e38 overflows float32, not float64
    validate_cloud(PointCloud(positions=pos, features=np.ones((2, 1))))


def test_feature_row_mismatch():
    with pytest.raises(FeatureRowMismatch):
        validate_cloud(PointCloud(positions=np.zeros((3, 3)), features=np.ones((2, 1))))


def test_one_dimensional_features_named():
    cloud = PointCloud(positions=np.zeros((3, 3)), features=np.ones(3))
    with pytest.raises(FeatureRowMismatch, match=r"features of shape \(3,\)"):
        validate_cloud(cloud)


def test_empty_cloud():
    with pytest.raises(EmptyCloud):
        validate_cloud(PointCloud(positions=np.zeros((0, 3)), features=np.ones((0, 1))))


@given(
    n=st.integers(1, 20),
    c=st.integers(1, 4),
    bad_row=st.integers(0, 19) | st.none(),
)
def test_validation_is_total(n, c, bad_row):
    # every cloud either validates or raises exactly one typed error
    pos = np.zeros((n, 3))
    if bad_row is not None and bad_row < n:
        pos[bad_row, 0] = np.inf
    cloud = PointCloud(positions=pos, features=np.ones((n, c)))
    try:
        validate_cloud(cloud)
        assert bad_row is None or bad_row >= n
    except NonFiniteCoordinate as exc:
        assert exc.index == bad_row


def test_seeded_init_deterministic():
    a = seeded_init(0, [(1, 1)])
    b = seeded_init(0, [(1, 1)])
    assert np.array_equal(a.values, b.values)


def test_seeded_init_seed_sensitivity():
    a = seeded_init(0, [(4, 4), (4, 2)])
    b = seeded_init(1, [(4, 4), (4, 2)])
    assert not np.array_equal(a.values, b.values)


def test_seeded_init_invalid_shape():
    with pytest.raises(InvalidShape):
        seeded_init(0, [(0, 4)])


def test_seeded_init_rejects_a_fractional_shape():
    # a fractional fan-in is refused, not truncated to a (2, 4) layer
    with pytest.raises(InvalidShape, match="integer rows of positive"):
        seeded_init(0, [(2.5, 4)])


_MLP = seeded_init(0, [(3, 32), (32, 32)])


@pytest.mark.parametrize("shapes, values, match", [
    (_MLP.shapes, _MLP.values[:-5], r"values has shape \(1179,\); shapes need \(1184,\)"),
    (_MLP.shapes, np.where(_MLP.values > 0.2, np.nan, _MLP.values), "values holds a NaN or inf"),
    ([(3, 0), (0, 32)], np.zeros(32), "integer rows of positive"),
    ([(3, 16), (20, 24)], np.zeros(3 * 16 + 16 + 20 * 24 + 24),
     "shapes: layer 1 fan-in 20 != layer 0 fan-out 16"),
    ([(3, 4)], np.zeros((2, 8)), r"values has shape \(2, 8\); shapes need \(16,\)"),
    ([(True, 4)], np.zeros(8), "integer rows of positive"),
    ([(3.0, 4)], np.zeros(16), "integer rows of positive"),
    ((3, 4), np.zeros(16), "integer rows of positive"),
    ([(3, 4, 5)], np.zeros(16), "integer rows of positive"),
    ([(3, 4)], np.zeros(16, dtype=complex), "values has dtype complex128, not real"),
    ([(3, 4)], np.zeros(16, dtype=bool), "values has dtype bool, not real"),
], ids=["short", "nan", "zero_width", "unchained", "2d_values", "bool_shape",
        "float_shape", "flat_shapes", "triple", "complex", "bool_values"])
def test_weight_stack_checks_itself(shapes, values, match):
    with pytest.raises(InvalidShape, match=match):
        SeededWeights(shapes, values)


def test_weight_stack_normalizes_its_input():
    w = SeededWeights(np.array([[1, 2]]), np.arange(4))
    assert w.shapes == ((1, 2),) and type(w.shapes[0][0]) is int
    assert w.values.dtype == np.float64 and np.array_equal(w.values, np.arange(4.0))
    assert SeededWeights((), np.empty(0)).n_layers == 0


def test_seeded_init_length_and_bound():
    w = seeded_init(3, [(5, 7), (7, 2)])
    assert w.values.shape[0] == 5 * 7 + 7 + 7 * 2 + 2
    a0 = np.sqrt(6.0 / 12)
    w0, b0 = w.layer(0)
    assert w0.shape == (5, 7) and b0.shape == (7,)
    assert np.abs(w0).max() <= a0


def test_build_partition_centers_and_counts():
    pos = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 1, 1], [5.0, 5, 5]])
    labels = np.array([0, 0, 1, -1])
    part = build_partition(labels, pos)
    assert part.n_superpoints == 2
    assert np.array_equal(label_counts(part.labels, 2), [2, 1])
    assert np.allclose(part.centers[0], [1.0, 0, 0])
    assert np.allclose(part.centers[1], [1.0, 1, 1])


SIX_POINTS = np.arange(18, dtype=np.float64).reshape(6, 3)


@pytest.mark.parametrize("labels, error, match", [
    ([0, 1, -3, 2, 0, 1], InvalidPartition, r"labels span \[-3, 2\], not \[-1, 2\]"),
    ([0.5, 1.2, 2.7, 0.0, 1.0, 2.0], InvalidPartition, r"float64 \(6,\), not 1-D integers"),
    ([[0], [1], [2], [0], [1], [2]], InvalidPartition, r"int64 \(6, 1\), not 1-D integers"),
    ([0, 1, 2, 0, 1], LengthMismatch, r"5 labels for a 6-point scene"),
], ids=["below_sentinel", "float", "column", "too_few"])
def test_build_partition_rejects_bad_labels(labels, error, match):
    with pytest.raises(error, match=match):
        build_partition(np.array(labels), SIX_POINTS)


def _segment_mean_oracle(labels, m, values):
    """Per-label Python loop: sum the rows in point order, then divide."""
    sums = np.zeros((m, values.shape[1]))
    counts = np.zeros(m, dtype=np.int64)
    for row, label in enumerate(labels):
        if label != SENTINEL:
            sums[label] += values[row]
            counts[label] += 1
    return sums / counts[:, None]


@pytest.mark.parametrize("seed", range(6))
def test_segment_mean_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 40))
    n = m + int(rng.integers(0, 300))
    labels = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    rng.shuffle(labels)
    labels[rng.random(n) < 0.2] = SENTINEL
    labels[rng.permutation(n)[:m]] = np.arange(m)  # keep every label populated
    values = rng.normal(size=(n, int(rng.integers(1, 9)))) * 10.0 ** rng.integers(-3, 4)
    means = segment_mean(labels, m, values)
    # same summation order: bit-equal
    assert np.array_equal(means, _segment_mean_oracle(labels, m, values))


def test_segment_mean_empty_label_rejected():
    # labels 0 and 2 are populated, label 1 is not
    labels = np.array([0, SENTINEL, 2, 0, 2])
    with pytest.raises(EmptySuperpoint) as err:
        segment_mean(labels, 3, np.ones((5, 2)))
    assert err.value.label == 1


def _tied_keys(rng, n, widths, distinct):
    """One key per width, each drawn from ``distinct`` values below 2^width
    that include 0 and 2^width - 1, so the rows tie heavily."""
    keys = []
    for w in widths:
        pool = rng.integers(0, (1 << w) - 1, size=distinct, endpoint=True)
        pool[:2] = 0, (1 << w) - 1
        keys.append((pool[rng.integers(0, distinct, size=n)], w))
    return keys


def _assert_lexsort_order(keys):
    order = stable_order(keys)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.lexsort([k for k, _ in keys]))
    if len(keys) == 1:
        assert np.array_equal(order, np.argsort(keys[0][0], kind="stable"))


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 3, 4, 5, 64, 65, 1024, 1025]) | st.integers(0, 3000),
    widths=st.lists(st.integers(0, 63), min_size=1, max_size=3),
    distinct=st.sampled_from([2, 3, 17, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stable_order_matches_lexsort(n, widths, distinct, seed):
    # up to 189 joined bits: several digits, cut inside keys at every width
    keys = _tied_keys(np.random.default_rng(seed), n, widths, distinct)
    _assert_lexsort_order(keys)


@pytest.mark.parametrize(
    "n, widths",
    [
        (40_000, [48]),  # 3b at b = 16: 48 bits > 63 - 16, two passes
        (2**15, [48]),  # one full digit: 63 - bits(2^15 - 1) = 48
        (2**15 + 1, [48]),  # one row more: 47-bit digits, two passes
        (1000, [40, 30]),  # digit 0 is key 0 and the low 13 bits of key 1
        (1024, [52, 52]),  # 53-bit digits cut inside both keys
        (1025, [52, 52]),  # 52-bit digits, one per key
    ],
)
def test_stable_order_multi_pass(n, widths):
    rng = np.random.default_rng(n + sum(widths))
    _assert_lexsort_order(_tied_keys(rng, n, widths, 50))
