"""Benchmark harness: graph-build scaling, brute-force oracle, recall."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .config import PipelineConfig
from .graph import candidate_pair_count
from .pipeline import build_vote_graph
from .synth import make_scene
from .tokenizer import voxel_superpoints

BENCH_VOXEL_CELL = 0.4  # meters
ORACLE_CHUNK = 4096  # oracle point columns per distance block
BUILD_REPEATS = 3  # graph builds per scene; the fastest is reported


def boundary_knn_oracle(positions, labels, n_superpoints, k):
    """Brute-force top-k superpoint neighbors by minimum inter-superpoint
    point-pair distance.

    Scans all point pairs (chunked) and segment-reduces per label pair,
    deliberately quadratic in N. Returns a per-node array of neighbor sets.
    """
    order = np.argsort(labels, kind="stable")
    pos = positions[order]
    lab = labels[order]
    m = n_superpoints
    boundaries = np.flatnonzero(np.diff(lab)) + 1
    row_starts = np.concatenate(([0], boundaries))
    row_ends = np.append(boundaries, lab.size)
    row_labels = lab[row_starts]

    min_d2 = np.full((m, m), np.inf)
    n = pos.shape[0]
    sq = np.einsum("ij,ij->i", pos, pos)
    for lo in range(0, n, ORACLE_CHUNK):
        hi = min(lo + ORACLE_CHUNK, n)
        # the copy keeps numpy off its symmetric A @ A.T path when one chunk
        # covers every point, so all sizes run the same general product
        twice = pos @ pos[lo:hi].T.copy()
        twice *= 2.0
        d2 = sq[:, None] + sq[None, lo:hi]
        d2 -= twice  # (N, chunk)
        # label segments run down axis 0: each reduction sweeps whole
        # contiguous rows, at a per-element cost independent of segment length
        per_label = np.empty((row_starts.size, hi - lo))  # (M', chunk)
        for i, (s, e) in enumerate(zip(row_starts, row_ends)):
            np.minimum.reduce(d2[s:e], axis=0, out=per_label[i])
        col_lab = lab[lo:hi]
        col_starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(col_lab)) + 1)
        )
        reduced = np.minimum.reduceat(per_label, col_starts, axis=1)
        cols = col_lab[col_starts]
        sub = min_d2[np.ix_(row_labels, cols)]
        min_d2[np.ix_(row_labels, cols)] = np.minimum(sub, reduced)
    np.fill_diagonal(min_d2, np.inf)

    # stable argsort breaks distance ties by neighbor index, i.e. (dist, dst)
    order = np.argsort(min_d2, axis=1, kind="stable")
    ranked_d2 = np.take_along_axis(min_d2, order, axis=1)
    neighbors = []
    for s in range(m):
        finite = order[s][np.isfinite(ranked_d2[s])][:k]
        neighbors.append(set(int(t) for t in finite))
    return neighbors


def graph_recall(vote_graph, oracle_neighbors):
    """Fraction of oracle edges present in the built graph."""
    hits = 0
    total = 0
    for s, oracle in enumerate(oracle_neighbors):
        total += len(oracle)
        built = set(int(t) for t in vote_graph.neighbors(s))
        hits += len(oracle & built)
    return hits / total if total else 1.0


def fit_loglog_slope(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    x = np.log(np.asarray(sizes, dtype=np.float64))
    y = np.log(np.asarray(seconds, dtype=np.float64))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


@dataclass
class BenchRow:
    """One ``sfctok bench`` CSV row: the fields are the columns, in order,
    and a float field's ``fmt`` metadata is its format."""

    n_points: int
    trial: int
    n_superpoints: int
    build_seconds: float = field(metadata={"fmt": ".6f"})
    oracle_seconds: float = field(metadata={"fmt": ".6f"})  # nan when skipped
    candidate_pairs: int
    candidate_pairs_closed_form: int
    edge_count: int
    recall: float = field(metadata={"fmt": ".4f"})  # nan when oracle skipped

    def csv(self):
        return ",".join(
            format(getattr(self, f.name), f.metadata.get("fmt", ""))
            for f in fields(self)
        )


BENCH_CSV_COLUMNS = tuple(f.name for f in fields(BenchRow))


def bench_scene(n_points, seed):
    """Seeded scene plus voxel superpoints sized for graph benchmarking."""
    cloud = make_scene(n_points, seed=seed)
    part = voxel_superpoints(cloud, BENCH_VOXEL_CELL)
    return cloud, part


def run_bench(sizes, trials, cfg: PipelineConfig, oracle_cap=20000):
    """Time graph builds (and the oracle below ``oracle_cap``) per size."""
    rows = []
    for n in sizes:
        for trial in range(trials):
            cloud, part = bench_scene(n, seed=cfg.seed + trial)
            best = np.inf
            for _ in range(BUILD_REPEATS):
                t0 = time.perf_counter()
                vote_graph, n_votes = build_vote_graph(
                    cloud.positions, part.labels, part.centers, cfg
                )
                best = min(best, time.perf_counter() - t0)
            r, w = cfg.graph_stride, cfg.graph_window
            pairs = candidate_pair_count(cloud.n_points, r, w)
            closed = 4 * -(-cloud.n_points // r) * (2 * w + 1)
            oracle_seconds = float("nan")
            recall = float("nan")
            if n <= oracle_cap:
                t0 = time.perf_counter()
                oracle = boundary_knn_oracle(
                    cloud.positions, part.labels, part.n_superpoints, cfg.graph_k
                )
                oracle_seconds = time.perf_counter() - t0
                recall = graph_recall(vote_graph, oracle)
            rows.append(
                BenchRow(
                    n_points=cloud.n_points,
                    trial=trial,
                    n_superpoints=part.n_superpoints,
                    build_seconds=best,
                    oracle_seconds=oracle_seconds,
                    candidate_pairs=pairs,
                    candidate_pairs_closed_form=closed,
                    edge_count=int(vote_graph.dst.shape[0]),
                    recall=recall,
                )
            )
    return rows
