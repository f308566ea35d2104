"""The per-layer memory budget of ``run_pipeline``, measured with tracemalloc.

Each layer that ``run_pipeline`` calls may hold, together with what its
callers keep alive, at most three (M, d) float64 arrays plus the slack of
``slack_bytes``: the arrays that are not (M, d)-sized. The layers are wrapped
as ``perfbench/tracing.py`` wraps them, by replacing module attributes. The
cloud is made before tracing starts, so it is not counted. tracemalloc counts
bytes, not wall-clock time, so the check holds on a shared host.

Run as a script to check a larger scene at the default config:

    PYTHONPATH=src python tests/test_memory_budget.py 50000
"""

import sys
import tracemalloc

import numpy as np
import pytest

from sfctok import enhancer, graph, merger, sfc, tokenizer
from sfctok.config import PipelineConfig
from sfctok.pipeline import run_pipeline
from sfctok.synth import make_scene

LAYERS = (
    (tokenizer, "voxel_superpoints"),
    (tokenizer, "superpoint_pool"),
    (sfc, "serialize_all"),
    (enhancer, "enhance"),
    (graph, "window_vote"),
    (graph, "coalesce"),
    (graph, "rerank_topk"),
    (graph, "normalized_adjacency"),
    (merger, "smooth_features"),
    (merger, "spectral_embed"),
    (merger, "importance_scores"),
    (merger, "project_logits"),
    (merger, "sinkhorn"),
    (merger, "soft_pool"),
)


def layer_name(module, attr):
    """The span name perfbench gives a layer, such as ``merger.sinkhorn``."""
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def layer_peaks(cloud, cfg):
    """(PipelineResult, {layer: peak traced bytes}) of one ``run_pipeline``.

    A layer's peak is the most memory traced at any point of any of its
    calls, its nested layers' peaks included. A nested call resets the one
    tracemalloc peak, so each open layer folds the peak seen so far into its
    own first.
    """
    peaks, open_peaks = {}, []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if open_peaks:
                open_peaks[-1] = max(open_peaks[-1], peak)
            tracemalloc.reset_peak()
            open_peaks.append(current)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(open_peaks.pop(), tracemalloc.get_traced_memory()[1])
                if open_peaks:
                    open_peaks[-1] = max(open_peaks[-1], peak)
                peaks[name] = max(peaks.get(name, 0), peak)

        return traced

    with pytest.MonkeyPatch.context() as mp:
        for module, attr in LAYERS:
            mp.setattr(module, attr, wrap(layer_name(module, attr), getattr(module, attr)))
        tracemalloc.start()
        try:
            result = run_pipeline(cloud, cfg)
        finally:
            tracemalloc.stop()
    return result, peaks


def slack_bytes(layer, n, m, edges, largest, cfg: PipelineConfig):
    """Bytes that ``layer`` may hold besides three (M, d) arrays, by design.

    In float64 words, for N points, M superpoints, E graph edges, the
    largest superpoint's point count, d = width (the point MLP's hidden
    width h is d too) and r = svd_rank:

    - every layer: the labels (N); the centers and at most 8 more length-M
      vectors (11 M: curves, Sinkhorn's potentials and scalings, the
      importance scores); the vote graph and its adjacency (3.5 E: dst,
      votes and data, and int32 indices); z_emb (M r);
    - ``superpoint_pool``: the label sort's order, keys and words (5 N), and
      one chunk of at most ``CHUNK_POINTS`` + largest points, whose rows,
      segment means, hidden product and Fourier work are each at most
      h + d wide (4 chunk (h + d));
    - ``enhance``: the tile buffers and the added rows, each at most
      (``TILE_BLOCKS`` + 1) R + 2 L rows of d (3 tiles), and the operator
      work, six arrays of at most (2 L + R)^2 entries;
    - ``spectral_embed``: G = Y^T Y (d^2), the probes, G W, the Ritz
      problem and its SVD (4 d (r + 8)), and the sign fix's transposed
      magnitudes of the (M, r) basis (M r). The basis becomes z_emb in
      place, so the M r of every layer covers it.

    The graph stage's point-level arrays (curves and votes, O(N W / stride))
    are left out: at M ~ 0.9 N and d = 256 they fit in the unused part of
    the three arrays, which the check then shows.
    """
    d, r = cfg.width, cfg.svd_rank
    words = n + 11 * m + 3.5 * edges + m * r
    if layer == "tokenizer.superpoint_pool":
        words += 5 * n + 4 * (tokenizer.CHUNK_POINTS + largest) * 2 * d
    elif layer == "enhancer.enhance":
        tile = (enhancer.TILE_BLOCKS + 1) * cfg.stride + 2 * cfg.window
        words += 3 * tile * d + 6 * (2 * cfg.window + cfg.stride) ** 2
    elif layer == "merger.spectral_embed":
        words += d * d + 4 * d * (r + 8) + m * r
    return 8 * words


def layer_budgets(cloud, cfg):
    """(M, {layer: (peak, budget)}) of one ``run_pipeline`` call on ``cloud``."""
    labels = tokenizer.voxel_superpoints(cloud, cfg.voxel_cell).labels
    largest = int(np.bincount(labels).max())
    result, peaks = layer_peaks(cloud, cfg)
    n, m = result.n_points, result.n_superpoints
    three = 3 * m * cfg.width * 8
    return m, {
        layer: (peak, three + slack_bytes(layer, n, m, result.edge_count, largest, cfg))
        for layer, peak in peaks.items()
    }


def test_every_layer_holds_at_most_three_token_arrays():
    n = 6000
    cloud = make_scene(n, seed=7)
    cfg = PipelineConfig(sample_n=n)
    assert cfg.tokens == cfg.width
    m, peaks = layer_budgets(cloud, cfg)
    assert 0.85 * n <= m < n
    assert set(peaks) == {layer_name(module, attr) for module, attr in LAYERS}
    over = {layer: (p / 2**20, b / 2**20) for layer, (p, b) in peaks.items() if p > b}
    assert not over, f"peak and budget in MiB: {over}"


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 50_000
    cfg = PipelineConfig()
    m, peaks = layer_budgets(make_scene(n, seed=0), cfg)
    unit = m * cfg.width * 8
    print(f"N={n} M={m} d={cfg.width}: one (M, d) array is {unit / 2**20:.1f} MiB")
    print(f"{'layer':28s} {'peak MiB':>9s} {'arrays':>6s} {'budget MiB':>10s}")
    for layer, (peak, budget) in sorted(peaks.items(), key=lambda kv: -kv[1][0]):
        flag = "  OVER BUDGET" if peak > budget else ""
        print(f"{layer:28s} {peak / 2**20:9.1f} {peak / unit:6.2f} {budget / 2**20:10.1f}{flag}")
    return int(any(peak > budget for peak, budget in peaks.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
