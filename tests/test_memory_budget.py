"""The per-layer memory budget of ``run_pipeline``, measured with tracemalloc.

Each layer that ``run_pipeline`` calls may hold, together with what its
callers keep alive, at most three (M, d) float64 arrays plus the slack of
``slack_bytes``: the arrays that are not (M, d)-sized. The layers are wrapped
as ``perfbench/tracing.py`` wraps them, by replacing module attributes. The
cloud is made before tracing starts, so it is not counted. tracemalloc counts
bytes, not wall-clock time, so the check holds on a shared host.

Run as a script to check a larger scene at the default config, or with
the voxel cell given as a second argument:

    PYTHONPATH=src python tests/test_memory_budget.py 50000
    PYTHONPATH=src python tests/test_memory_budget.py 200000 0.2
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
    """(PipelineResult, {layer: peak traced bytes}, coalesced pairs) of one
    ``run_pipeline``.

    A layer's peak is the most memory traced at any point of any of its
    calls, its nested layers' peaks included. A nested call resets the one
    tracemalloc peak, so each open layer folds the peak seen so far into its
    own first.
    """
    peaks, open_peaks, pairs = {}, [], []

    def wrap(name, fn):
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if open_peaks:
                open_peaks[-1] = max(open_peaks[-1], peak)
            tracemalloc.reset_peak()
            open_peaks.append(current)
            try:
                out = fn(*args, **kwargs)
                if name == "graph.coalesce":
                    pairs.append(out.n_edges)
                return out
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
    return result, peaks, pairs[0]


def slack_bytes(layer, n, m, edges, largest, pairs, cfg: PipelineConfig):
    """Bytes that ``layer`` may hold besides three (M, d) arrays, by design.

    In float64 words, for N points, M superpoints, E graph edges, the
    largest superpoint's point count, d = width (the point MLP's hidden
    width h is d too), r = svd_rank, S = 2 W ceil(N / stride) window slots
    per curve (W = graph_window, stride = graph_stride) and P coalesced
    pairs. A curve's records name distinct pairs, one per slot at most, so
    each curve has at most Q = min(S, P) of them and the four at most 4 Q:

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
      problem and its SVD (4 d (r + 8)), and the sign fix's block of
      magnitudes and the argmax's copy of it (2 ``BLOCK_ENTRIES``). The
      (M, r) basis becomes z_emb in place, so the M r of every layer
      covers it;
    - ``window_vote``: the four point curves and the padded label sequence
      (5 N), and at most 3 S + 9 Q more: while a curve packs its keys, the
      keys, the gathered labels and the mask (3 S) beside the earlier
      curves' keys and counts (6 Q); while it counts them, its keys (S),
      group starts, counts and distinct keys (3 Q) beside the same 6 Q; at
      the end the keys, counts and unpacked dst of all four (12 Q);
    - ``coalesce``: the per-curve batch (12 Q), the sort's packed keys,
      order and sorted copies (12 Q), and the pairs' group starts, summed
      votes and distinct keys (3 P);
    - ``rerank_topk``: the coalesced pairs (3 P) and at most nine P-long
      arrays of ranking work (the two gathered (P, 3) center rows, the
      sort keys and words, the ranked copies): 12 P.
    """
    d, r = cfg.width, cfg.svd_rank
    words = n + 11 * m + 3.5 * edges + m * r
    if layer == "tokenizer.superpoint_pool":
        words += 5 * n + 4 * (tokenizer.CHUNK_POINTS + largest) * 2 * d
    elif layer == "enhancer.enhance":
        tile = (enhancer.TILE_BLOCKS + 1) * cfg.stride + 2 * cfg.window
        words += 3 * tile * d + 6 * (2 * cfg.window + cfg.stride) ** 2
    elif layer == "merger.spectral_embed":
        words += d * d + 4 * d * (r + 8) + 2 * merger.BLOCK_ENTRIES
    elif layer.startswith("graph."):
        slots = 2 * cfg.graph_window * -(-n // cfg.graph_stride)
        per_curve = min(slots, pairs)
        words += {
            "graph.window_vote": 5 * n + 3 * slots + 9 * per_curve,
            "graph.coalesce": 24 * per_curve + 3 * pairs,
            "graph.rerank_topk": 12 * pairs,
        }.get(layer, 0)
    return 8 * words


def layer_budgets(cloud, cfg):
    """(M, {layer: (peak, budget)}) of one ``run_pipeline`` call on ``cloud``."""
    labels = tokenizer.voxel_superpoints(cloud, cfg.voxel_cell).labels
    largest = int(np.bincount(labels).max())
    result, peaks, pairs = layer_peaks(cloud, cfg)
    n, m = result.n_points, result.n_superpoints
    counts = result.edge_count, largest, pairs
    three = 3 * m * cfg.width * 8
    return m, {
        layer: (peak, three + slack_bytes(layer, n, m, *counts, cfg))
        for layer, peak in peaks.items()
    }


def assert_within_budget(peaks):
    assert set(peaks) == {layer_name(module, attr) for module, attr in LAYERS}
    over = {layer: (p / 2**20, b / 2**20) for layer, (p, b) in peaks.items() if p > b}
    assert not over, f"peak and budget in MiB: {over}"


def test_every_layer_holds_at_most_three_token_arrays():
    n = 6000
    cloud = make_scene(n, seed=7)
    cfg = PipelineConfig(sample_n=n)
    assert cfg.tokens == cfg.width
    m, peaks = layer_budgets(cloud, cfg)
    assert 0.85 * n <= m < n
    assert_within_budget(peaks)


def test_coarse_graph_layers_hold_one_curve_of_votes():
    # ~22 points per superpoint: the 233k votes cast name 16k pairs, so a
    # graph layer that held every vote would exceed its budget
    n = 20000
    cloud = make_scene(n, seed=0)
    cfg = PipelineConfig(sample_n=n, voxel_cell=0.45)
    m, peaks = layer_budgets(cloud, cfg)
    assert m < n / 16
    assert_within_budget(peaks)


def main(argv):
    n = int(argv[1]) if len(argv) > 1 else 50_000
    cell = {"voxel_cell": float(argv[2])} if len(argv) > 2 else {}
    cfg = PipelineConfig(sample_n=n, **cell)
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
