"""Sparse superpoint graph from window voting along point-level SFC orders.

Votes are cast between the superpoints of points that fall in the same
short window of each SFC-sorted point sequence, one unit vote per record.
Duplicates are counted off one sort of packed (src, dst) keys; candidates
are ranked per source by (center distance^2 asc, votes desc, dst asc)
with a stable sort of narrow integer keys, truncated to k, symmetrized
by a sparse elementwise-maximum union kept in CSR order, and normalized
symmetrically; ``ranked_edges`` ranks the union again for ``graph-dump``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import SENTINEL, _first_non_finite_row, stable_order
from .errors import ConfigError, DimensionMismatch, InvalidVoteIds, NonFiniteCoordinate


@dataclass(frozen=True)
class VoteBatch:
    """Directed (src, dst) edge records between superpoints.

    A raw batch, as ``window_vote`` casts it, holds one unit vote per record
    and no ``votes``. ``coalesce`` turns it into a coalesced batch: each
    pair once, sorted by (src asc, dst asc), ``votes`` counting its records.
    """

    src: np.ndarray  # (E,) int64
    dst: np.ndarray  # (E,) int64
    votes: np.ndarray | None = None  # (E,) int64 >= 1, coalesced batches only

    @property
    def coalesced(self):
        return self.votes is not None

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
    """Cast one vote per (anchor, window position) pair with distinct labels.

    Each curve order is an int64 permutation of the points, as
    ``sfc.serialize_all`` gives it. Anchors sit at sorted positions 0,
    stride, 2*stride, ... of each order; the window spans [p - radius,
    p + radius]. Sentinel-labeled points never vote. Each curve's label
    sequence is padded with ``radius`` sentinels at both ends, so window
    positions outside the sequence cast no vote either; a radius above the
    point count N is taken as N, which drops only such positions. Records
    come in curve, then offset, then anchor order.
    """
    if stride < 1 or radius < 1:
        raise ConfigError("stride and radius must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    radius = min(radius, n)  # slots n or more from an anchor are padding
    anchors = np.arange(radius, n + radius, stride)  # in the padded sequence
    deltas = np.concatenate((np.arange(-radius, 0), np.arange(1, radius + 1)))
    at = deltas[:, None] + anchors  # window positions, offset-major
    padded = np.full(n + 2 * radius, SENTINEL, dtype=np.int64)
    src_parts, dst_parts = [], []
    for perm in curve_orders:
        padded[radius : radius + n] = labels[perm]
        s, t = np.broadcast_to(padded[anchors], at.shape), padded[at]
        keep = (s != SENTINEL) & (t != SENTINEL) & (s != t)
        src_parts.append(s[keep])
        dst_parts.append(t[keep])
        del s, t, keep
    del at, padded  # free the window positions before the concatenation
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    return VoteBatch(src=src, dst=dst)


def candidate_pair_count(n_points, stride, radius, n_curves=4):
    """Number of in-range window slots over all anchors, each anchor's own
    included; ``window_vote`` visits 2 * radius padded slots per anchor instead,
    never the anchor itself.
    """
    anchors = np.arange(0, n_points, stride)
    lo = np.maximum(anchors - radius, 0)
    hi = np.minimum(anchors + radius, n_points - 1)
    return int(n_curves * (hi - lo + 1).sum())


def coalesce(batch: VoteBatch) -> VoteBatch:
    """Count the records of each (src, dst) pair; output sorted by (src, dst).

    Each record is one vote. Each pair is packed into one int64 key
    ``src * n + dst`` with ``n`` the largest id plus one, so one sort of the
    keys puts the duplicates next to each other. Ids must be nonnegative
    and ``n * n`` must fit in int64.
    """
    if batch.coalesced:
        raise ConfigError("batch is already coalesced")
    if batch.n_edges == 0:
        return VoteBatch(
            src=batch.src, dst=batch.dst, votes=np.empty(0, dtype=np.int64)
        )
    src = batch.src.astype(np.int64, copy=False)
    dst = batch.dst.astype(np.int64, copy=False)
    if min(src.min(), dst.min()) < 0:
        raise InvalidVoteIds("vote endpoints must be nonnegative superpoint ids")
    n = int(max(src.max(), dst.max())) + 1
    if n * n > 2**63:
        raise InvalidVoteIds(
            f"superpoint id {n - 1} too large to pack (src, dst) in int64"
        )
    key = src * n
    key += dst
    key.sort()
    new_group = np.empty(key.shape[0], dtype=bool)
    new_group[0] = True
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    votes = np.diff(starts, append=key.shape[0])
    key = key[starts]
    return VoteBatch(src=key // n, dst=key % n, votes=votes)


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
    diff = centers[src] - centers[dst]
    dist2 = np.einsum("ij,ij->i", diff, diff)
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
