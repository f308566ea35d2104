"""Sparse superpoint graph from window voting along point-level SFC orders.

Votes are cast between the superpoints of points that fall in the same
short window of each SFC-sorted point sequence. Each curve's votes are
counted as they are cast, off one sort of that curve's packed (src, dst)
keys, so no array of all votes exists; ``coalesce`` merges the curves'
counts into one record per pair. Candidates are ranked per source by
(center distance^2 asc, votes desc, dst asc) with a stable sort of narrow
integer keys, truncated to k, symmetrized by a sparse elementwise-maximum
union kept in CSR order, and normalized symmetrically; ``ranked_edges``
ranks the union again for ``graph-dump``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import SENTINEL, _first_non_finite_row, stable_order
from .errors import ConfigError, DimensionMismatch, InvalidVoteIds, NonFiniteCoordinate


@dataclass(frozen=True)
class VoteBatch:
    """Directed (src, dst) edge records between superpoints, each with votes.

    ``window_vote`` gives each curve's pairs once, in (src, dst) order
    within the curve, with the votes cast for them; a pair can recur across
    curves. A batch built without ``votes`` holds one vote per record.
    ``coalesce`` turns any batch into a coalesced one: each pair once,
    sorted by (src asc, dst asc), ``votes`` summing its records' votes.
    """

    src: np.ndarray  # (E,) int64
    dst: np.ndarray  # (E,) int64
    votes: np.ndarray | None = None  # (E,) int64 >= 1; None: one vote each
    coalesced: bool = False  # set by ``coalesce``

    def __post_init__(self):
        if self.votes is None:
            object.__setattr__(self, "votes", np.ones(self.src.shape[0], dtype=np.int64))

    @property
    def n_edges(self):
        return self.src.shape[0]


@dataclass(frozen=True)
class SparseVoteGraph:
    """Symmetrized top-k neighbor lists in canonical CSR form.

    Edges are grouped by source via ``indptr``; within each source they are
    sorted by ascending ``dst``, each once.
    """

    n_nodes: int
    indptr: np.ndarray  # (M+1,)
    dst: np.ndarray  # (E,)
    votes: np.ndarray  # (E,)

    @property
    def src(self):
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def neighbors(self, node):
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.dst[lo:hi]


def window_vote(labels, curve_orders, stride, radius) -> VoteBatch:
    """Count the votes of (anchor, window position) pairs with distinct labels.

    Each curve order is an int64 permutation of the points, as
    ``sfc.serialize_all`` gives it. Anchors sit at sorted positions 0,
    stride, 2*stride, ... of each order; the window spans [p - radius,
    p + radius]. Sentinel-labeled points never vote. Each curve's label
    sequence is padded with ``radius`` sentinels at both ends, so window
    positions outside the sequence cast no vote either; a radius above the
    point count N is taken as N, which drops only such positions.

    Each curve's votes are packed into keys (``_pack``) and counted off one
    sort of the keys: the batch holds each curve's pairs once, in (src, dst)
    order, curve after curve, with their vote counts. Labels must be
    ``SENTINEL`` or nonnegative, and ``n * n`` must fit in int64, ``n`` the
    largest label plus one.
    """
    if stride < 1 or radius < 1:
        raise ConfigError("stride and radius must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min(initial=0) < SENTINEL:
        raise InvalidVoteIds("vote endpoints must be nonnegative superpoint ids")
    bits = _key_bits(labels.max(initial=0))
    n = labels.shape[0]
    if n == 0:
        return VoteBatch(src=labels, dst=labels)
    radius = min(radius, n)  # slots n or more from an anchor are padding
    padded = np.full(n + 2 * radius, SENTINEL, dtype=np.int64)
    # row a: padded slots of anchor a's window, the anchor itself at column
    # radius; a view, so the window positions are never materialized
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * radius + 1)[::stride]
    keys, counts = [np.empty(0, dtype=np.uint64)], [np.empty(0, dtype=np.int64)]
    for perm in curve_orders:
        padded[radius : radius + n] = labels[perm]
        s = windows[:, radius : radius + 1]
        keep = (windows != SENTINEL) & (windows != s)  # the anchor's own slot too
        keep &= s != SENTINEL
        key = np.broadcast_to(s.view(np.uint64) << bits, windows.shape)[keep]
        key |= windows.view(np.uint64)[keep]
        del keep
        key.sort()
        key, votes = _grouped(key)
        keys.append(key)
        counts.append(votes)
        del key, votes
    key = np.concatenate(keys)
    del keys
    votes = np.concatenate(counts)
    del counts
    src, dst = _unpack(key, bits)
    return VoteBatch(src=src, dst=dst, votes=votes)


def candidate_pair_count(n_points, stride, radius, n_curves=4):
    """Number of in-range window slots over all anchors, each anchor's own
    included; ``window_vote`` visits 2 * radius padded slots per anchor instead,
    never the anchor itself.
    """
    anchors = np.arange(0, n_points, stride)
    lo = np.maximum(anchors - radius, 0)
    hi = np.minimum(anchors + radius, n_points - 1)
    return int(n_curves * (hi - lo + 1).sum())


def _key_bits(top):
    """Bit width b of the ids up to ``top``, for ``_pack``; raise
    ``InvalidVoteIds`` unless ``n * n`` fits in int64, n = top + 1, which
    keeps b <= 32."""
    n = int(top) + 1
    if n * n > 2**63:
        raise InvalidVoteIds(
            f"superpoint id {n - 1} too large to pack (src, dst) in int64"
        )
    return int(top).bit_length()


def _pack(src, dst, bits):
    """uint64 keys ``src << bits | dst`` of nonnegative int64 ids below
    2**bits: they sort as the (src, dst) pairs do, and shifts unpack them."""
    key = src.view(np.uint64) << bits
    key |= dst.view(np.uint64)
    return key


def _unpack(key, bits):
    """The int64 (src, dst) of ``_pack``'s keys; src is shifted out in place,
    over ``key``."""
    dst = (key & ((1 << bits) - 1)).view(np.int64)
    key >>= bits
    return key.view(np.int64), dst


def _grouped(key, votes=None):
    """(each distinct key once, its votes) of the sorted array ``key``.

    ``votes`` holds each entry's votes, aligned with ``key``; without it
    every entry is one vote.
    """
    bound = np.ones(key.shape[0] + 1, dtype=bool)  # group starts, then the end
    np.not_equal(key[1:], key[:-1], out=bound[1:-1])
    bound = np.flatnonzero(bound)
    if votes is None:
        votes = np.diff(bound)
    else:
        votes = np.add.reduceat(votes, bound[:-1])
    return key[bound[:-1]], votes


def coalesce(batch: VoteBatch) -> VoteBatch:
    """Sum the votes of each (src, dst) pair; output sorted by (src, dst).

    Each pair is packed into one key (``_pack``), so one sort of the keys
    puts the records of a pair next to each other; ``window_vote``'s curves
    are sorted runs, which the stable sort merges. Ids must be nonnegative
    and ``n * n`` must fit in int64, ``n`` the largest id plus one. A
    coalesced batch comes out equal to itself.
    """
    src = batch.src.astype(np.int64, copy=False)
    dst = batch.dst.astype(np.int64, copy=False)
    if batch.n_edges == 0:
        return VoteBatch(src=src, dst=dst, votes=batch.votes, coalesced=True)
    if min(src.min(), dst.min()) < 0:
        raise InvalidVoteIds("vote endpoints must be nonnegative superpoint ids")
    bits = _key_bits(max(src.max(), dst.max()))
    key = _pack(src, dst, bits)
    order = np.argsort(key, kind="stable")
    key = key[order]
    votes = batch.votes[order]
    del order
    key, votes = _grouped(key, votes)
    src, dst = _unpack(key, bits)
    return VoteBatch(src=src, dst=dst, votes=votes, coalesced=True)


def _bits(a):
    """Bit width of the largest entry of a nonnegative integer array."""
    return int(a.max()).bit_length() if a.size else 0


def _ranked(src, dst, votes, centers):
    """Edges with their center distance^2, sorted by (src, dist^2, -votes, dst).

    The input must be sorted by (src, dst), as ``coalesce``'s output and a
    canonical CSR matrix are: the sort is stable on (src, dist^2, -votes)
    alone, so ties keep the input's dst order. dist^2 is a sum of squares,
    so >= +0, and the int64 bit patterns of nonnegative floats sort as the
    values do.
    """
    diff = np.take(centers, src, axis=0)  # twice as fast as centers[src] here
    diff -= np.take(centers, dst, axis=0)
    dist2 = np.einsum("ij,ij->i", diff, diff)
    del diff
    d2_key = dist2.view(np.int64)
    w = _bits(votes)
    order = stable_order(
        [((1 << w) - 1 - votes, w), (d2_key, _bits(d2_key)), (src, _bits(src))]
    )
    return src[order], dst[order], votes[order], dist2[order]


def rerank_topk(batch: VoteBatch, centers, k) -> SparseVoteGraph:
    """Keep the k best candidates per source by (dist^2, -votes, dst), then
    symmetrize by edge union.

    The union is the elementwise maximum of the kept (src, dst) -> votes
    matrix and its transpose: an edge kept in both directions carries the
    higher of its two vote counts. The graph is the union's canonical CSR,
    each source's neighbors in ascending id. ``centers`` must be finite,
    with a row for every superpoint id in the batch.
    """
    if not batch.coalesced:
        raise ConfigError("batch must be coalesced before re-ranking")
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise DimensionMismatch(f"centers must be (M, 3), got {centers.shape}")
    row = _first_non_finite_row(centers)
    if row is not None:
        raise NonFiniteCoordinate(row)
    m = centers.shape[0]
    top = int(max(batch.src.max(), batch.dst.max())) if batch.n_edges else -1
    if top >= m:
        raise DimensionMismatch(
            f"vote batch names superpoint {top}, but centers has shape {centers.shape}"
        )
    src, dst, votes, _ = _ranked(batch.src, batch.dst, batch.votes, centers)
    # rank within each source run, keep rank < k
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=m))))
    keep = np.arange(src.shape[0]) - offsets[src] < k
    kept = sp.csr_matrix((votes[keep], (src[keep], dst[keep])), shape=(m, m))
    union = kept.maximum(kept.T)
    union.sum_duplicates()  # canonical: each row's columns ascending, once
    indptr, dst = union.indptr.astype(np.int64), union.indices.astype(np.int64)
    return SparseVoteGraph(n_nodes=m, indptr=indptr, dst=dst, votes=union.data)


def ranked_edges(g: SparseVoteGraph, centers):
    """(src, dst, votes, dist2) of the edges, sorted by (src, dist^2, -votes, dst)."""
    return _ranked(g.src, g.dst, g.votes, np.asarray(centers, dtype=np.float64))


def normalized_adjacency(g: SparseVoteGraph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} over the binary symmetric adjacency.

    Isolated nodes contribute all-zero rows rather than a division error.
    The graph's own (indptr, dst) lists are the CSR structure, each row's
    columns ascending, which fixes the summation order of products with it.
    """
    deg = np.diff(g.indptr).astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    vals = inv_sqrt[g.src] * inv_sqrt[g.dst]
    return sp.csr_matrix((vals, g.dst, g.indptr), shape=(g.n_nodes, g.n_nodes))
