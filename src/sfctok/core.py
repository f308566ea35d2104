"""Shared domain types, validation, and seeded weight initialization.

All arrays are float64 in the reference path; types are frozen after
construction and safe to share across workers. ``SeededWeights`` holds a
stack's layer shapes and flat values only: ``seeded_init`` derives the
values from a seed, and weight files store the shapes and values alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptyCloud,
    EmptySuperpoint,
    FeatureRowMismatch,
    InvalidPartition,
    InvalidShape,
    LengthMismatch,
    NonFiniteCoordinate,
    NonFiniteFeature,
)

SENTINEL = -1


@dataclass(frozen=True)
class PointCloud:
    """N points with 3D coordinates (meters) and per-point feature channels."""

    positions: np.ndarray  # (N, 3)
    features: np.ndarray  # (N, C_in)

    @property
    def n_points(self):
        return self.positions.shape[0]

    @property
    def n_channels(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SuperpointPartition:
    """Point-to-superpoint assignment with per-superpoint centers.

    ``labels`` holds values in {0..M-1} or SENTINEL (-1) for points outside
    any superpoint; sentinel points are skipped by all downstream operations.
    """

    labels: np.ndarray  # (N,) int
    centers: np.ndarray  # (M, 3)

    @property
    def n_superpoints(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class TokenMatrix:
    """A K x d feature matrix with paired 3D centers."""

    feats: np.ndarray  # (K, d)
    centers: np.ndarray  # (K, 3)

    @property
    def n_tokens(self):
        return self.feats.shape[0]

    @property
    def width(self):
        return self.feats.shape[1]


@dataclass(frozen=True)
class SeededWeights:
    """Flat forward-only MLP parameters.

    Per layer of shape (fan_in, fan_out) the flat array stores fan_in*fan_out
    weight entries (row-major) followed by fan_out bias entries. A stack
    checks itself: construction raises ``InvalidShape`` unless the shapes
    chain (``_layer_shapes``) and the values are a 1-D real array of exactly
    as many finite entries, which it stores as float64.
    """

    shapes: tuple  # ((fan_in, fan_out), ...)
    values: np.ndarray  # (sum of fan_in*fan_out + fan_out,)

    def __post_init__(self):
        shapes = _layer_shapes(self.shapes)
        values = np.asarray(self.values)
        if values.dtype.kind not in "iuf":
            raise InvalidShape(f"values has dtype {values.dtype}, not real numbers")
        expected = sum(fi * fo + fo for fi, fo in shapes)
        if values.shape != (expected,):
            raise InvalidShape(f"values has shape {values.shape}; shapes need ({expected},)")
        if not np.isfinite(values).all():
            raise InvalidShape("values holds a NaN or inf")
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "values", values.astype(np.float64, copy=False))

    def layer(self, i):
        """Return (W, b) for layer i as views into the flat value array."""
        off = 0
        for j, (fi, fo) in enumerate(self.shapes):
            w_end = off + fi * fo
            b_end = w_end + fo
            if j == i:
                w = self.values[off:w_end].reshape(fi, fo)
                b = self.values[w_end:b_end]
                return w, b
            off = b_end
        raise IndexError(i)

    @property
    def n_layers(self):
        return len(self.shapes)

    def split(self, i):
        """(layers before i, layers from i on), each over a view of the values.

        The parts of a checked stack are checked already, so they are built
        without scanning the values again.
        """
        off = sum(fi * fo + fo for fi, fo in self.shapes[:i])
        return (
            self._part(self.shapes[:i], self.values[:off]),
            self._part(self.shapes[i:], self.values[off:]),
        )

    @classmethod
    def _part(cls, shapes, values):
        part = object.__new__(cls)
        object.__setattr__(part, "shapes", shapes)
        object.__setattr__(part, "values", values)
        return part


def validate_cloud(cloud: PointCloud) -> None:
    """Check every PointCloud invariant, raising exactly one typed error."""
    pos = np.asarray(cloud.positions)
    feat = np.asarray(cloud.features)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise FeatureRowMismatch(f"positions must be (N, 3), got {pos.shape}")
    if pos.shape[0] < 1:
        raise EmptyCloud("cloud has no points")
    row = _first_non_finite_row(pos)
    if row is not None:
        raise NonFiniteCoordinate(row)
    if feat.ndim != 2 or feat.shape[0] != pos.shape[0]:
        raise FeatureRowMismatch(
            f"{pos.shape[0]} positions but features of shape {feat.shape}"
        )
    if feat.shape[1] < 1:
        raise FeatureRowMismatch("feature width must be >= 1")
    row = _first_non_finite_row(feat)
    if row is not None:
        raise NonFiniteFeature(row)


def validate_partition(partition: SuperpointPartition, n_points) -> None:
    """Check that ``partition`` gives each of ``n_points`` points an integer
    label in [-1, M-1], uses every label 0..M-1, and has M finite (M, 3)
    centers; raise one typed error."""
    labels, centers = np.asarray(partition.labels), np.asarray(partition.centers)
    if centers.ndim != 2 or centers.shape[1] != 3 or not np.isfinite(centers).all():
        raise InvalidPartition(
            f"partition centers of shape {centers.shape} are not finite (M, 3)"
        )
    label_counts(labels, _check_labels(labels, n_points, centers.shape[0]))


def _check_labels(labels, n_points, m=None):
    """Raise ``InvalidPartition`` unless ``labels`` is a 1-D integer array
    with entries in [-1, m-1], and ``LengthMismatch`` unless it has
    ``n_points`` entries. ``m`` defaults to the largest label + 1; return it."""
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise InvalidPartition(
            f"partition labels are {labels.dtype} {labels.shape}, not 1-D integers"
        )
    if labels.size != n_points:
        raise LengthMismatch(
            f"partition has {labels.size} labels for a {n_points}-point scene"
        )
    lo, hi = (labels.min(), labels.max()) if labels.size else (SENTINEL, SENTINEL)
    m = hi + 1 if m is None else m
    if lo < SENTINEL or hi >= m:
        raise InvalidPartition(f"partition labels span [{lo}, {hi}], not [-1, {m - 1}]")
    return int(m)


def _first_non_finite_row(a):
    """Index of the first row of ``a`` holding a NaN or inf, else None."""
    if np.isfinite(a).all():  # the common case, without a per-row pass
        return None
    return int(np.flatnonzero(~np.isfinite(a).all(axis=1))[0])


def _layer_shapes(shapes):
    """``shapes`` as a tuple of int (fan_in, fan_out) pairs; raise
    ``InvalidShape`` unless each is a pair of positive integers (not bools)
    and each fan-in equals the previous layer's fan-out."""
    try:
        pairs = tuple((fi, fo) for fi, fo in shapes)
    except (TypeError, ValueError):
        pairs = ((None, None),)  # not a sequence of pairs: fails below
    for v in (v for pair in pairs for v in pair):
        if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
            raise InvalidShape("shapes must be integer rows of positive (fan_in, fan_out)")
    pairs = tuple((int(fi), int(fo)) for fi, fo in pairs)
    for i, ((fan_in, _), (_, fan_out)) in enumerate(zip(pairs[1:], pairs), 1):
        if fan_in != fan_out:
            raise InvalidShape(
                f"shapes: layer {i} fan-in {fan_in} != layer {i - 1} fan-out {fan_out}"
            )
    return pairs


def seeded_init(seed: int, shapes) -> SeededWeights:
    """Deterministic Xavier-uniform initialization for a stack of layers.

    Every entry of a (fan_in, fan_out) layer is drawn uniformly from [-a, a]
    with a = sqrt(6 / (fan_in + fan_out)). Bit-reproducible across runs and
    platforms for equal (seed, shapes): values come from a PCG64 stream keyed
    by the seed alone.
    """
    shapes = _layer_shapes(shapes)
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = []
    for fi, fo in shapes:
        a = np.sqrt(6.0 / (fi + fo))
        chunks.append(rng.uniform(-a, a, size=fi * fo + fo))
    values = np.concatenate(chunks) if chunks else np.empty(0)
    return SeededWeights(shapes=shapes, values=values)


def stable_order(keys):
    """The stable order of rows sorted by ``keys``, as ``np.lexsort`` gives it.

    ``keys`` lists (array, bits) pairs, least significant first as
    ``np.lexsort`` takes them: nonnegative int64 arrays of one length n,
    each below 2^bits. Their bits are joined into one number per row (the
    first key lowest) and cut into digits of 63 - s bits, s the bit width
    of n - 1. One pass per digit, least significant first, sorts the int64
    words ``(digit << s) | position``, the position being the row's place
    in the order so far; the words are distinct, so the plain (SIMD)
    ``np.sort`` orders them, ties on the digit keep the order of the
    previous passes, and the low s bits of the sorted words give the next
    order.
    """
    n = keys[0][0].shape[0]
    s = max(n - 1, 0).bit_length()
    width = 63 - s
    position = np.arange(n, dtype=np.int64)
    order = position
    for lo in range(0, sum(bits for _, bits in keys), width):
        word = _bit_field(keys, lo, width)[order]
        word <<= s
        word |= position
        word.sort()
        word &= (1 << s) - 1
        order = order[word]
    return order


def _bit_field(keys, lo, width):
    """Bits lo .. lo + width - 1 of each row's joined key (see stable_order)."""
    field = np.zeros(keys[0][0].shape[0], dtype=np.int64)
    off = 0
    for key, bits in keys:
        a, b = max(lo, off), min(lo + width, off + bits)
        if a < b:
            field |= ((key >> (a - off)) & ((1 << (b - a)) - 1)) << (a - lo)
        off += bits
    return field


def bounding_box(positions):
    """(lo, span) of the coordinates' axis-aligned bounding box."""
    positions = np.asarray(positions, dtype=np.float64)
    lo = positions.min(axis=0)
    return lo, positions.max(axis=0) - lo


def box_scale(positions, box, scale=1.0):
    """``scale * (p - lo) / span`` per axis, ``box`` = (lo, span); flat axes
    map to 0. At scale 1 the box maps onto [0, 1]^3."""
    positions = np.asarray(positions, dtype=np.float64)
    lo, span = box
    out = np.zeros_like(positions)
    for axis in range(3):
        if span[axis] > 0.0:
            out[:, axis] = scale * (positions[:, axis] - lo[axis]) / span[axis]
    return out


def label_counts(labels, m):
    """Row count per label 0..m-1, SENTINEL rows skipped.

    A label in range with no rows raises ``EmptySuperpoint`` naming it.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels[labels != SENTINEL], minlength=m)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptySuperpoint(int(empty[0]))
    return counts


def segment_mean(labels, m, values):
    """Mean of the ``values`` rows per label 0..m-1, as an (m, C) array.

    SENTINEL rows are skipped; a label in range with no rows raises
    ``EmptySuperpoint``. The sums are one product with the (m, N) 0/1
    membership matrix, whose rows list their points in ascending order, so
    each mean adds its rows in point order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    counts = label_counts(labels, m)
    rows = np.flatnonzero(labels != SENTINEL)
    member = sp.csr_matrix(
        (np.ones(rows.size), (labels[rows], rows)), shape=(m, labels.shape[0])
    )
    means = member @ np.asarray(values, dtype=np.float64)
    means /= counts[:, None]
    return means


def build_partition(labels, positions) -> SuperpointPartition:
    """Construct a partition from per-point labels, computing the centers.

    ``labels`` must be a 1-D integer array with one label per position
    (else ``InvalidPartition`` or ``LengthMismatch``), dense in {0..M-1} or
    SENTINEL; every label in that range must be populated.
    """
    labels = np.asarray(labels)
    m = _check_labels(labels, len(positions))
    if m == 0:
        raise EmptySuperpoint(0)
    labels = labels.astype(np.int64, copy=False)
    return SuperpointPartition(labels, segment_mean(labels, m, positions))
