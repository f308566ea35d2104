"""Sparse superpoint graph from window voting along point-level SFC orders.

Votes are cast between the superpoints of points that fall in the same
short window of each SFC-sorted point sequence; duplicates are coalesced,
candidates re-ranked per source by (center distance^2 asc, votes desc),
truncated to k, symmetrized by union, and normalized symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import SENTINEL
from .errors import InvalidVoteIds


@dataclass(frozen=True)
class VoteBatch:
    """Directed (src, dst, votes) edge records between superpoints."""

    src: np.ndarray  # (E,) int64
    dst: np.ndarray  # (E,) int64
    votes: np.ndarray  # (E,) int64, >= 1
    coalesced: bool = False

    @property
    def n_edges(self):
        return self.src.shape[0]

    @property
    def total_votes(self):
        return int(self.votes.sum())


@dataclass(frozen=True)
class SparseVoteGraph:
    """Symmetrized top-k neighbor lists in CSR-like form.

    Edges are grouped by source via ``indptr``; within each source they are
    sorted by (distance^2 asc, votes desc, dst asc).
    """

    n_nodes: int
    indptr: np.ndarray  # (M+1,)
    dst: np.ndarray  # (E,)
    dist2: np.ndarray  # (E,)
    votes: np.ndarray  # (E,)
    degree: np.ndarray  # (M,)

    @property
    def src(self):
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def neighbors(self, node):
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.dst[lo:hi]


def window_vote(labels, curve_orders, stride, radius) -> VoteBatch:
    """Cast one vote per (anchor, window position) pair with distinct labels.

    Anchors sit at sorted positions 0, stride, 2*stride, ... of each curve;
    the window spans [p - radius, p + radius] clipped to the sequence.
    Sentinel-labeled points never vote.
    """
    if stride < 1 or radius < 1:
        raise ValueError("stride and radius must be >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    src_parts, dst_parts = [], []
    anchors = np.arange(0, n, stride)
    for curve in curve_orders:
        lab = labels[curve.perm]
        a_lab = lab[anchors]
        for delta in range(-radius, radius + 1):
            if delta == 0:
                continue
            q = anchors + delta
            ok = (q >= 0) & (q < n)
            s = a_lab[ok]
            t = lab[q[ok]]
            keep = (s != SENTINEL) & (t != SENTINEL) & (s != t)
            src_parts.append(s[keep])
            dst_parts.append(t[keep])
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    return VoteBatch(src=src, dst=dst, votes=np.ones(src.shape[0], dtype=np.int64))


def candidate_pair_count(n_points, stride, radius, n_curves=4):
    """Number of examined (anchor, window position) pairs, self included."""
    anchors = np.arange(0, n_points, stride)
    lo = np.maximum(anchors - radius, 0)
    hi = np.minimum(anchors + radius, n_points - 1)
    return int(n_curves * (hi - lo + 1).sum())


def coalesce(batch: VoteBatch) -> VoteBatch:
    """Sum duplicate (src, dst) votes; output sorted by (src asc, dst asc).

    Each pair is packed into one int64 key ``src * n + dst`` with ``n`` the
    largest id plus one, so a single argsort groups the duplicates. Ids must
    be nonnegative and ``n * n`` must fit in int64.
    """
    if batch.n_edges == 0:
        return VoteBatch(
            src=batch.src, dst=batch.dst, votes=batch.votes, coalesced=True
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
    key = src * n + dst
    order = np.argsort(key)
    key = key[order]
    new_group = np.empty(key.shape[0], dtype=bool)
    new_group[0] = True
    np.not_equal(key[1:], key[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    summed = np.add.reduceat(batch.votes[order], starts)
    key = key[starts]
    return VoteBatch(src=key // n, dst=key % n, votes=summed, coalesced=True)


def rerank_topk(batch: VoteBatch, centers, k) -> SparseVoteGraph:
    """Keep the k best candidates per source by (dist^2, -votes, dst), then
    symmetrize by edge union and compute degrees."""
    if not batch.coalesced:
        raise ValueError("batch must be coalesced before re-ranking")
    centers = np.asarray(centers, dtype=np.float64)
    m = centers.shape[0]
    src, dst, votes = batch.src, batch.dst, batch.votes
    diff = centers[src] - centers[dst]
    dist2 = np.einsum("ij,ij->i", diff, diff)

    order = np.lexsort((dst, -votes, dist2, src))
    src, dst, votes, dist2 = src[order], dst[order], votes[order], dist2[order]
    # rank within each source run, keep rank < k
    counts = np.bincount(src, minlength=m)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    rank = np.arange(src.shape[0]) - offsets[src]
    keep = rank < k
    src, dst, votes, dist2 = src[keep], dst[keep], votes[keep], dist2[keep]

    # union with reversed edges; on duplicates keep the higher vote count
    src2 = np.concatenate([src, dst])
    dst2 = np.concatenate([dst, src])
    votes2 = np.concatenate([votes, votes])
    dist2b = np.concatenate([dist2, dist2])
    order = np.lexsort((-votes2, dst2, src2))
    src2, dst2, votes2, dist2b = (
        src2[order],
        dst2[order],
        votes2[order],
        dist2b[order],
    )
    first = np.empty(src2.shape[0], dtype=bool)
    if src2.shape[0]:
        first[0] = True
        first[1:] = (src2[1:] != src2[:-1]) | (dst2[1:] != dst2[:-1])
    src2, dst2, votes2, dist2b = (
        src2[first],
        dst2[first],
        votes2[first],
        dist2b[first],
    )

    # final per-source ordering by the composite key
    order = np.lexsort((dst2, -votes2, dist2b, src2))
    src2, dst2, votes2, dist2b = (
        src2[order],
        dst2[order],
        votes2[order],
        dist2b[order],
    )
    degree = np.bincount(src2, minlength=m)
    indptr = np.concatenate(([0], np.cumsum(degree)))
    return SparseVoteGraph(
        n_nodes=m,
        indptr=indptr,
        dst=dst2,
        dist2=dist2b,
        votes=votes2,
        degree=degree,
    )


def normalized_adjacency(g: SparseVoteGraph) -> sp.csr_matrix:
    """D^{-1/2} A D^{-1/2} over the binary symmetric adjacency.

    Isolated nodes contribute all-zero rows rather than a division error.
    """
    src = g.src
    deg = g.degree.astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    vals = inv_sqrt[src] * inv_sqrt[g.dst]
    return sp.csr_matrix((vals, (src, g.dst)), shape=(g.n_nodes, g.n_nodes))
