"""End-to-end tokenization: cloud -> superpoints -> enhanced tokens -> T tokens."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import enhancer, graph, merger, sfc, tokenizer
from .config import PipelineConfig
from .core import (
    PointCloud,
    SuperpointPartition,
    TokenMatrix,
    seeded_init,
    validate_cloud,
    validate_partition,
)
from .errors import LengthMismatch, ShapeMismatch, StageError, SuggestLowerT


@dataclass
class PipelineWeights:
    """Forward-only parameters of the tokenize pipeline."""

    point_mlp: object
    importance_mlp: object
    projection: object

    @classmethod
    def from_seed(cls, seed, n_channels, width, svd_rank, tokens):
        return cls(
            point_mlp=seeded_init(seed, [(n_channels, width), (width, width)]),
            importance_mlp=seeded_init(seed + 1, [(width, width // 2), (width // 2, 1)]),
            projection=seeded_init(seed + 2, [(svd_rank, tokens)]),
        )

    def check(self, n_channels, cfg: PipelineConfig):
        """Raise ``ShapeMismatch`` naming the first stack whose outer shapes
        do not fit ``n_channels`` input features and ``cfg``."""
        for name, fan_in, fan_out in (
            ("point_mlp", n_channels, cfg.width),
            ("importance_mlp", cfg.width, 1),
        ):
            shapes = getattr(self, name).shapes
            if not shapes or shapes[0][0] != fan_in or shapes[-1][1] != fan_out:
                raise ShapeMismatch(
                    f"{name} has layer shapes {list(shapes)}; the config needs "
                    f"fan-in {fan_in} and fan-out {fan_out}"
                )
        want = ((cfg.svd_rank, cfg.tokens),)
        if self.projection.shapes != want:
            raise ShapeMismatch(
                f"projection has layer shapes {list(self.projection.shapes)}; "
                f"the config needs {list(want)}"
            )


@dataclass
class PipelineResult:
    tokens: TokenMatrix
    n_points: int
    n_superpoints: int
    vote_count: int
    edge_count: int
    spectral_gap: float  # (sigma_r - sigma_{r+1}) / sigma_1 of the embedding; 0 for a zero Y
    sinkhorn_residual: float
    sinkhorn_iterations: int
    sinkhorn_converged: bool  # residual <= cfg.sinkhorn_tol within the iteration cap
    stage_seconds: dict = field(default_factory=dict)

    def summary_lines(self):
        lines = [
            f"n_points={self.n_points}",
            f"n_superpoints={self.n_superpoints}",
            f"n_tokens={self.tokens.n_tokens}",
            f"width={self.tokens.width}",
            f"vote_count={self.vote_count}",
            f"edge_count={self.edge_count}",
            f"spectral_gap={self.spectral_gap:.6e}",
            f"sinkhorn_residual={self.sinkhorn_residual:.6e}",
            f"sinkhorn_iterations={self.sinkhorn_iterations}",
            f"sinkhorn_converged={self.sinkhorn_converged}",
        ]
        lines += [
            f"seconds_{name}={secs:.4f}" for name, secs in self.stage_seconds.items()
        ]
        return lines


def subsample(cloud: PointCloud, n, seed) -> PointCloud:
    """Uniform seeded subsample without replacement; identity when N <= n."""
    if cloud.n_points <= n:
        return cloud
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = np.sort(rng.choice(cloud.n_points, size=n, replace=False))
    return PointCloud(
        positions=cloud.positions[idx], features=cloud.features[idx]
    )


class _Stage:
    def __init__(self, name, timings):
        self.name = name
        self.timings = timings

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timings[self.name] = time.perf_counter() - self.t0
        # a KeyboardInterrupt or SystemExit is no error of the stage
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def check_partition(partition: SuperpointPartition, n_points, cfg: PipelineConfig):
    """Raise unless ``partition`` labels all ``n_points`` points of a cloud
    that the subsample keeps whole (``validate_partition``)."""
    if n_points > cfg.sample_n:
        raise LengthMismatch(
            f"a partition of a {n_points}-point cloud needs sample_n >= {n_points}, "
            f"got sample_n={cfg.sample_n}; subsample cloud and labels beforehand"
        )
    validate_partition(partition, n_points)


def run_pipeline(
    cloud: PointCloud,
    cfg: PipelineConfig,
    partition: SuperpointPartition | None = None,
    weights: PipelineWeights | None = None,
) -> PipelineResult:
    """Run the full tokenize pipeline and return T context-rich tokens.

    When ``partition`` is None the voxel fallback segments the subsampled
    cloud; one given must label every point of a cloud of at most
    ``cfg.sample_n`` points. The cloud, any ``partition`` and the outer
    shapes of any ``weights`` are checked before any stage runs; bad input
    raises a typed ``SfcTokError`` naming it.

    Memory: no layer holds more than three (M, d)-sized arrays, counting
    what this function keeps alive, unless ``sinkhorn`` has to absorb its
    scalings (its log-sum-exp then takes three more). The smoothed features
    are dropped after the embedding, the importance scores are taken before
    any logits exist, and ``sinkhorn`` gets a function that projects fresh
    logits, so only the solver holds them (as its kernel).
    """
    validate_cloud(cloud)
    if partition is not None:
        check_partition(partition, cloud.n_points, cfg)
    if weights is not None:
        weights.check(cloud.n_channels, cfg)
    timings = {}

    with _Stage("subsample", timings):
        scene = subsample(cloud, cfg.sample_n, cfg.seed)

    with _Stage("segment", timings):
        if partition is None:
            partition = tokenizer.voxel_superpoints(scene, cfg.voxel_cell)
        m = partition.n_superpoints
        if cfg.tokens > m:
            raise SuggestLowerT(
                f"T={cfg.tokens} exceeds M={m} superpoints; lower the token budget"
            )

    if weights is None:
        weights = PipelineWeights.from_seed(
            cfg.seed, scene.n_channels, cfg.width, cfg.svd_rank, cfg.tokens
        )

    with _Stage("tokenize", timings):
        s = tokenizer.superpoint_pool(scene, partition, weights.point_mlp)

    with _Stage("enhance", timings):
        token_curves = sfc.serialize_all(partition.centers, b=cfg.bits)
        enh_cfg = enhancer.EnhancerConfig(
            window=cfg.window,
            stride=cfg.stride,
            gate=enhancer.lowpass_gate(cfg.window, cfg.k_low),
            curves=tuple(token_curves),
        )
        s = enhancer.enhance(s, enh_cfg)

    with _Stage("graph", timings):
        vote_graph, vote_count = build_vote_graph(
            scene.positions, partition.labels, partition.centers, cfg
        )
        a_hat = graph.normalized_adjacency(vote_graph)

    with _Stage("merge", timings):
        y = merger.smooth_features(a_hat, s)
        rank = min(cfg.svd_rank, m, cfg.width)
        emb = merger.spectral_embed(y, rank, seed=cfg.seed)
        del y  # one (M, d) array less at the merge stage's peak
        sigma = emb.singular_values
        gap = (sigma[-1] - emb.next_singular_value) / sigma[0] if sigma[0] > 0 else 0.0
        z = emb.z_emb
        if rank < cfg.svd_rank:  # keep the projection fan-in fixed
            z = np.pad(z, ((0, 0), (0, cfg.svd_rank - rank)))
        mu = merger.importance_scores(s, weights.importance_mlp)
        nu = np.full(cfg.tokens, 1.0 / cfg.tokens)
        plan = merger.sinkhorn(
            lambda: merger.project_logits(z, weights.projection),
            mu,
            nu,
            tau=cfg.tau,
            max_iters=cfg.sinkhorn_iters,
            residual_tol=cfg.sinkhorn_tol,
        )
        merged = merger.soft_pool(plan, s)

    return PipelineResult(
        tokens=merged,
        n_points=scene.n_points,
        n_superpoints=m,
        vote_count=vote_count,
        edge_count=int(vote_graph.dst.shape[0]),
        spectral_gap=float(gap),
        sinkhorn_residual=plan.residual,
        sinkhorn_iterations=plan.iterations,
        sinkhorn_converged=plan.converged,
        stage_seconds=timings,
    )


def build_vote_graph(positions, labels, centers, cfg: PipelineConfig):
    """Graph-construction slice of the pipeline: (top-k vote graph, votes cast).

    The pipeline's graph stage, ``sfctok graph-dump`` and the scaling
    benchmark all build the graph through this function.
    """
    point_curves = sfc.serialize_all(positions, b=cfg.bits)
    votes = graph.window_vote(labels, point_curves, cfg.graph_stride, cfg.graph_window)
    coalesced = graph.coalesce(votes)
    return graph.rerank_topk(coalesced, centers, cfg.graph_k), votes.n_edges
