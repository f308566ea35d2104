import re
import tracemalloc

import numpy as np
import pytest

from sfctok.config import PipelineConfig
from sfctok.errors import (
    ConfigError,
    DimensionMismatch,
    InvalidVoteIds,
    NonFiniteCoordinate,
)
from sfctok.graph import (
    SparseVoteGraph,
    VoteBatch,
    candidate_pair_count,
    coalesce,
    normalized_adjacency,
    ranked_edges,
    rerank_topk,
    window_vote,
)
from sfctok.pipeline import build_vote_graph
from sfctok.sfc import serialize_all
from sfctok.synth import make_scene
from sfctok.tokenizer import voxel_superpoints


def batch_from(edges):
    """Batch of ``v`` one-vote records for each (s, t, v) edge."""
    if edges:
        src, dst, votes = (np.array(col, dtype=np.int64) for col in zip(*edges))
    else:
        src = dst = votes = np.empty(0, dtype=np.int64)
    return VoteBatch(src=np.repeat(src, votes), dst=np.repeat(dst, votes))


def edge_tuples(batch):
    """(src, dst, votes) per record."""
    return list(zip(batch.src.tolist(), batch.dst.tolist(), batch.votes.tolist()))


class TestWindowVote:
    def x_curve(self, n):
        centers = np.stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)], 1)
        return serialize_all(centers, b=8)[0]  # the Z-order

    def test_single_superpoint_no_votes(self):
        votes = window_vote(np.zeros(10, dtype=int), [self.x_curve(10)], 1, 2)
        assert votes.n_edges == 0

    def test_hand_enumerated_boundary_pair(self):
        # 4 collinear points, labels [0,0,1,1], r=1, W=1: only the boundary
        # pair (positions 1,2) votes, once in each direction
        votes = window_vote(np.array([0, 0, 1, 1]), [self.x_curve(4)], 1, 1)
        assert sorted(edge_tuples(votes)) == [(0, 1, 1), (1, 0, 1)]

    def test_sentinel_points_never_vote(self):
        votes = window_vote(np.array([0, -1, 1, -1]), [self.x_curve(4)], 1, 3)
        pairs = set(zip(votes.src.tolist(), votes.dst.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_vote_count_monotone_in_radius(self, rng):
        labels = rng.integers(0, 8, size=200)
        curves = serialize_all(rng.uniform(size=(200, 3)), b=8)
        counts = [
            int(window_vote(labels, curves, 4, w).votes.sum()) for w in (1, 2, 4, 8, 16)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_candidate_pair_bound(self, rng):
        n, r, w = 2000, 16, 32
        labels = rng.integers(0, 50, size=n)
        curves = serialize_all(rng.uniform(size=(n, 3)), b=8)
        votes = window_vote(labels, curves, r, w)
        bound = 4 * -(-n // r) * (2 * w + 1)
        assert votes.n_edges <= int(votes.votes.sum()) <= bound
        assert candidate_pair_count(n, r, w) <= bound

    def test_window_past_the_sequence_allocates_nothing(self, rng):
        # slots N or more from an anchor are padding: a radius of 10^5 on
        # 100 points casts the records of radius N, in the same memory
        n = 100
        labels = rng.integers(-1, 12, size=n)
        curves = [rng.permutation(n) for _ in range(4)]
        at_n = window_vote(labels, curves, 10, n)
        tracemalloc.start()
        try:
            wide = window_vote(labels, curves, 10, 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert edge_tuples(wide) == edge_tuples(at_n)


def per_delta_votes(labels, curves, stride, radius):
    """(src, dst) one-vote records from one pass per curve and window offset."""
    n = labels.shape[0]
    anchors = np.arange(0, n, stride)
    src, dst = [], []
    for perm in curves:
        for delta in [d for d in range(-radius, radius + 1) if d != 0]:
            for a in anchors:
                if 0 <= a + delta < n:
                    s, t = labels[perm[a]], labels[perm[a + delta]]
                    if s != -1 and t != -1 and s != t:
                        src.append(s)
                        dst.append(t)
    return src, dst


def per_curve_counts(labels, curves, stride, radius):
    """(src, dst, votes) of each curve's ``per_delta_votes`` records grouped by
    pair in a dict, each curve's pairs in (src, dst) order, curve after curve."""
    out = []
    for perm in curves:
        acc = {}
        for s, t in zip(*per_delta_votes(labels, [perm], stride, radius)):
            acc[(int(s), int(t))] = acc.get((int(s), int(t)), 0) + 1
        out += [(s, t, v) for (s, t), v in sorted(acc.items())]
    return out


class TestWindowVoteOracle:
    """Each curve's records of one per-offset loop, counted per pair."""

    @pytest.mark.parametrize(
        "n, stride, radius",
        [(1, 1, 1), (7, 3, 10), (200, 4, 6), (333, 16, 32),
         # the ends: one point, radius >= n, stride > n, both above n
         (1, 4, 3), (4, 1, 4), (4, 2, 9), (5, 8, 2), (5, 6, 7)],
    )
    def test_matches_per_delta_loop(self, rng, n, stride, radius):
        labels = rng.integers(-1, 12, size=n)
        curves = serialize_all(rng.uniform(size=(n, 3)), b=8)
        votes = window_vote(labels, curves, stride, radius)
        assert edge_tuples(votes) == per_curve_counts(labels, curves, stride, radius)
        src, _ = per_delta_votes(labels, curves, stride, radius)
        assert int(votes.votes.sum()) == len(src)
        assert votes.src.dtype == votes.dst.dtype == votes.votes.dtype == np.int64
        assert not votes.coalesced

    @pytest.mark.parametrize("stride, radius", [(1, 2), (3, 4), (5, 9)])
    def test_sentinels_at_both_ends(self, rng, stride, radius):
        # the first three and the last two points of the first curve are
        # sentinels, beside the sentinels that pad the sequence
        n = 41
        perm = rng.permutation(n)
        labels = rng.integers(0, 6, size=n)
        labels[perm[:3]] = labels[perm[-2:]] = -1
        curves = [perm, np.arange(n)]
        votes = window_vote(labels, curves, stride, radius)
        assert edge_tuples(votes) == per_curve_counts(labels, curves, stride, radius)
        src, _ = per_delta_votes(labels, curves, stride, radius)
        assert int(votes.votes.sum()) == len(src)
        assert votes.n_edges > 0

    def test_graph_matches_coalesced_oracle_records(self):
        # the pipeline's graph is the one re-ranked from the oracle's
        # one-vote records, coalesced
        cloud = make_scene(1500, seed=3)
        part = voxel_superpoints(cloud, 0.5)
        cfg = PipelineConfig(graph_stride=8, graph_window=16, graph_k=6)
        g, vote_count = build_vote_graph(cloud.positions, part.labels, part.centers, cfg)
        curves = serialize_all(cloud.positions, b=cfg.bits)
        src, dst = per_delta_votes(part.labels, curves, 8, 16)
        raw = VoteBatch(src=np.array(src, dtype=np.int64), dst=np.array(dst, dtype=np.int64))
        want = rerank_topk(coalesce(raw), part.centers, 6)
        assert vote_count == len(src)
        assert np.array_equal(g.indptr, want.indptr)
        assert np.array_equal(g.dst, want.dst)
        assert np.array_equal(g.votes, want.votes)

    @pytest.mark.parametrize("bad", [-2, 3_037_000_499])
    def test_ids_that_cannot_pack_rejected(self, bad):
        # as in coalesce: ids below the sentinel, or too large for n * n
        window_vote(np.array([0, 3_037_000_498]), [np.arange(2)], 1, 1)
        with pytest.raises(InvalidVoteIds):
            window_vote(np.array([0, bad]), [np.arange(2)], 1, 1)


def dict_coalesce(edges):
    """Naive oracle: sum votes per (src, dst) in a dict, sort the pairs."""
    acc = {}
    for s, t, v in edges:
        acc[(s, t)] = acc.get((s, t), 0) + v
    return [(s, t, v) for (s, t), v in sorted(acc.items())]


class TestCoalesce:
    def test_duplicates_summed(self):
        out = coalesce(batch_from([(0, 1, 1), (0, 1, 1)]))
        assert edge_tuples(out) == [(0, 1, 2)]
        assert out.coalesced

    def test_empty(self):
        out = coalesce(batch_from([]))
        assert out.n_edges == 0 and out.coalesced

    def test_matches_dict_oracle(self, rng):
        src = rng.integers(0, 20, size=500)
        dst = rng.integers(0, 20, size=500)
        keep = src != dst
        batch = batch_from(list(zip(src[keep], dst[keep], np.ones(keep.sum(), int))))
        out = coalesce(batch)
        oracle = {}
        for s, t in zip(src[keep], dst[keep]):
            oracle[(int(s), int(t))] = oracle.get((int(s), int(t)), 0) + 1
        assert edge_tuples(out) == [
            (s, t, v) for (s, t), v in sorted(oracle.items())
        ]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_id", [1, 7, 300, 3_037_000_498])
    def test_packed_key_matches_dict_oracle(self, seed, max_id):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(1, 400))
        # draw from a small id pool so pairs repeat, and include max_id itself
        pool = np.unique(np.r_[rng.integers(0, max_id + 1, size=12), max_id])
        src = rng.choice(pool, size=n)
        dst = rng.choice(pool, size=n)
        votes = rng.integers(1, 1000, size=n)
        edges = list(zip(src.tolist(), dst.tolist(), votes.tolist()))
        out = coalesce(batch_from(edges))
        assert out.coalesced
        assert edge_tuples(out) == dict_coalesce(edges)
        assert int(out.votes.sum()) == int(votes.sum())

    def test_counted_records_summed(self):
        # records that carry votes, as window_vote's curves do, sum them
        batch = VoteBatch(
            src=np.array([0, 2, 0, 2, 0]),
            dst=np.array([1, 0, 1, 0, 2]),
            votes=np.array([3, 1, 2, 4, 7]),
        )
        assert not batch.coalesced
        out = coalesce(batch)
        assert out.coalesced
        assert edge_tuples(out) == [(0, 1, 5), (0, 2, 7), (2, 0, 5)]

    def test_coalesce_twice_is_idempotent(self):
        for edges in [], [(0, 1, 2)], [(3, 1, 1), (0, 2, 4), (3, 1, 2)]:
            once = coalesce(batch_from(edges))
            twice = coalesce(once)
            assert twice.coalesced
            assert edge_tuples(twice) == edge_tuples(once) == dict_coalesce(edges)

    def test_negative_id_rejected(self):
        with pytest.raises(InvalidVoteIds):
            coalesce(batch_from([(0, 1, 1), (2, -1, 1)]))

    def test_id_too_large_to_pack_rejected(self):
        # n = 3_037_000_500 is the first id count with n * n > 2**63
        coalesce(batch_from([(0, 3_037_000_498, 1)]))
        with pytest.raises(InvalidVoteIds):
            coalesce(batch_from([(0, 3_037_000_499, 1)]))


class TestRerankTopk:
    def test_few_candidates_all_kept(self, rng):
        centers = rng.uniform(size=(4, 3))
        batch = coalesce(batch_from([(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
        g = rerank_topk(batch, centers, k=3)
        for s, t in [(0, 1), (1, 2), (2, 3)]:
            assert t in g.neighbors(s)
            assert s in g.neighbors(t)  # symmetrized

    def test_distance_tie_broken_by_votes(self):
        centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [5.0, 0, 0]])
        batch = coalesce(
            batch_from([(0, 1, 5), (0, 2, 2), (0, 3, 9)] * 1)
        )
        g = rerank_topk(batch, centers, k=1)
        assert list(g.neighbors(0)) == [1]  # equal distance, more votes than 2

    def test_matches_full_sort_oracle(self, rng):
        m, k = 30, 4
        centers = rng.uniform(size=(m, 3))
        src = rng.integers(0, m, size=400)
        dst = rng.integers(0, m, size=400)
        keep = src != dst
        batch = coalesce(
            batch_from(list(zip(src[keep], dst[keep], np.ones(keep.sum(), int))))
        )
        g = rerank_topk(batch, centers, k=k)
        # oracle: sort every candidate list fully, take first k, then union;
        # an edge kept in both directions carries the larger vote count
        cands = {}
        for s, t, v in edge_tuples(batch):
            d2 = float(((centers[s] - centers[t]) ** 2).sum())
            cands.setdefault(s, []).append((d2, -v, t))
        expected = {}
        for s, lst in cands.items():
            for d2, nv, t in sorted(lst)[:k]:
                for key in ((s, t), (t, s)):
                    _, old_v = expected.get(key, (d2, 0))
                    expected[key] = (d2, max(old_v, -nv))
        built = {
            (int(s), int(t)): (float(d2), int(v))
            for s, t, v, d2 in zip(*ranked_edges(g, centers))
        }
        assert built.keys() == expected.keys()
        for key, (d2, v) in expected.items():
            assert built[key][1] == v
            assert built[key][0] == pytest.approx(d2, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_ties_match_full_sort_oracle(self, seed, k):
        # integer-grid centers tie dist^2 often and votes take 1..3, so the
        # order rests on -votes and dst; grid dist^2 are exact integers
        rng = np.random.Generator(np.random.PCG64(seed))
        m = 40
        centers = rng.integers(0, 3, size=(m, 3)).astype(float)
        src = rng.integers(0, m, size=600)
        dst = rng.integers(0, m, size=600)
        keep = src != dst
        edges = list(zip(src[keep], dst[keep], rng.integers(1, 4, size=keep.sum())))
        batch = coalesce(batch_from(edges))
        g = rerank_topk(batch, centers, k=k)
        cands = {}
        for s, t, v in edge_tuples(batch):
            d2 = float(((centers[s] - centers[t]) ** 2).sum())
            cands.setdefault(s, []).append((d2, -v, t))
        kept = {}
        for s, lst in cands.items():
            for d2, nv, t in sorted(lst)[:k]:
                kept[(s, t)] = max(kept.get((s, t), 0), -nv)
        union = {}
        for (s, t), v in kept.items():
            union[(s, t)] = max(union.get((s, t), 0), v)
            union[(t, s)] = max(union.get((t, s), 0), v)
        expected = {s: [] for s in range(m)}
        for (s, t), v in union.items():
            expected[s].append((float(((centers[s] - centers[t]) ** 2).sum()), -v, t))
        src, dst, votes, dist2 = ranked_edges(g, centers)
        for s in range(m):
            lo, hi = g.indptr[s], g.indptr[s + 1]
            assert np.array_equal(src[lo:hi], np.full(hi - lo, s))
            keys = (dist2[lo:hi], -votes[lo:hi], dst[lo:hi])
            assert list(zip(*(a.tolist() for a in keys))) == sorted(expected[s])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_centers_rejected(self, bad):
        centers = np.zeros((4, 3))
        centers[2, 1] = bad
        batch = coalesce(batch_from([(0, 1, 1), (1, 3, 2)]))
        with pytest.raises(NonFiniteCoordinate) as err:
            rerank_topk(batch, centers, k=2)
        assert err.value.index == 2

    @pytest.mark.parametrize("shape", [(3, 3), (0, 3), (4, 2), (12,)])
    def test_centers_shape_mismatch_rejected(self, shape):
        batch = coalesce(batch_from([(0, 1, 1), (1, 3, 2)]))
        with pytest.raises(DimensionMismatch, match=re.escape(str(shape))):
            rerank_topk(batch, np.zeros(shape), k=2)

    def test_deterministic(self, rng):
        m = 20
        centers = rng.uniform(size=(m, 3))
        src = rng.integers(0, m, size=200)
        dst = (src + rng.integers(1, m, size=200)) % m
        batch = coalesce(batch_from(list(zip(src, dst, np.ones(200, int)))))
        a = rerank_topk(batch, centers, k=3)
        b = rerank_topk(batch, centers, k=3)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.indptr, b.indptr)

    def test_neighbor_lists_sorted_by_composite_key(self, rng):
        m = 25
        centers = rng.uniform(size=(m, 3))
        src = rng.integers(0, m, size=300)
        dst = (src + rng.integers(1, m, size=300)) % m
        batch = coalesce(batch_from(list(zip(src, dst, np.ones(300, int)))))
        g = rerank_topk(batch, centers, k=5)
        _, dst, votes, dist2 = ranked_edges(g, centers)
        for s in range(m):
            lo, hi = g.indptr[s], g.indptr[s + 1]
            keys = list(zip(dist2[lo:hi], -votes[lo:hi], dst[lo:hi]))
            assert keys == sorted(keys)

    def test_csr_order_with_both_directions(self, rng):
        m = 30
        centers = rng.uniform(size=(m, 3))
        src = rng.integers(0, m, size=300)
        dst = (src + rng.integers(1, m, size=300)) % m
        batch = coalesce(batch_from(list(zip(src, dst, rng.integers(1, 4, size=300)))))
        g = rerank_topk(batch, centers, k=4)
        assert g.indptr[0] == 0 and g.indptr[-1] == g.dst.shape[0]
        for s in range(m):
            assert (np.diff(g.neighbors(s)) > 0).all()  # strictly ascending
        edges = dict(zip(zip(g.src.tolist(), g.dst.tolist()), g.votes.tolist()))
        assert all(edges.get((t, s)) == v for (s, t), v in edges.items())
        assert edges and all(s != t for s, t in edges)


class TestNormalizedAdjacency:
    def graph_of(self, edges, m):
        batch = coalesce(batch_from([(s, t, 1) for s, t in edges]))
        centers = np.random.default_rng(0).uniform(size=(m, 3))
        return rerank_topk(batch, centers, k=m)

    def test_single_edge(self):
        g = self.graph_of([(0, 1)], 2)
        a = normalized_adjacency(g).toarray()
        assert np.allclose(a, [[0, 1], [1, 0]])

    def test_three_cycle(self):
        g = self.graph_of([(0, 1), (1, 2), (2, 0)], 3)
        a = normalized_adjacency(g).toarray()
        off = a[a > 0]
        assert off.shape[0] == 6 and np.allclose(off, 0.5)

    def test_isolated_node_zero_row(self):
        g = self.graph_of([(0, 1)], 3)
        a = normalized_adjacency(g).toarray()
        assert np.allclose(a[2], 0.0)

    def test_matches_dense_oracle(self, rng):
        m = 30
        src = rng.integers(0, m, size=200)
        dst = (src + rng.integers(1, m, size=200)) % m
        batch = coalesce(batch_from(list(zip(src, dst, np.ones(200, int)))))
        g = rerank_topk(batch, rng.uniform(size=(m, 3)), k=3)
        a = np.zeros((m, m))
        a[g.src, g.dst] = 1.0
        deg = a.sum(axis=1)
        inv_sqrt = np.zeros(m)
        inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        got = normalized_adjacency(g)
        # the graph's own CSR arrays, already canonical
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, g.indptr)
        assert np.array_equal(got.indices, g.dst)
        assert np.array_equal(got.toarray(), inv_sqrt[:, None] * a * inv_sqrt)

    def test_spectral_radius_at_most_one(self, rng):
        for _ in range(5):
            m = 40
            src = rng.integers(0, m, size=150)
            dst = (src + rng.integers(1, m, size=150)) % m
            batch = coalesce(batch_from(list(zip(src, dst, np.ones(150, int)))))
            g = rerank_topk(batch, rng.uniform(size=(m, 3)), k=6)
            a = normalized_adjacency(g).toarray()
            eigs = np.linalg.eigvalsh(a)
            assert np.abs(eigs).max() <= 1.0 + 1e-10


class TestSoundness:
    def test_every_edge_voted_or_symmetrized(self, rng):
        cloud = make_scene(1500, seed=5)
        part = voxel_superpoints(cloud, 0.5)
        curves = serialize_all(cloud.positions, b=10)
        votes = window_vote(part.labels, curves, 8, 16)
        batch = coalesce(votes)
        voted = set(zip(batch.src.tolist(), batch.dst.tolist()))
        g = rerank_topk(batch, part.centers, k=6)
        for s, t in zip(g.src.tolist(), g.dst.tolist()):
            assert (s, t) in voted or (t, s) in voted


class TestConfigErrors:
    @pytest.mark.parametrize("stride, radius", [(0, 2), (1, 0)])
    def test_window_vote_bounds(self, stride, radius):
        perm = np.arange(4)
        with pytest.raises(ConfigError, match="stride and radius"):
            window_vote(np.array([0, 0, 1, 1]), [perm], stride, radius)

    def test_rerank_raw_batch(self):
        with pytest.raises(ConfigError, match="must be coalesced"):
            rerank_topk(batch_from([(0, 1, 2)]), np.zeros((2, 3)), 4)
